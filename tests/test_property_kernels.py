"""Property tests for the two core distributed kernels: the partitioned
hash join and the bucketed grouped aggregate must equal their single-process
pandas reference on randomized inputs (values, duplicates, skew, missing
keys on either side)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ner_extractor_ray.stages.canonicalize import grouped_aggregate
from ner_extractor_ray.stages.joins import hash_join

_KEYS = st.lists(st.integers(min_value=0, max_value=9), min_size=0, max_size=30)


def _sorted_records(df: pd.DataFrame) -> list[tuple]:
    cols = sorted(df.columns)
    rows = [
        tuple(None if pd.isna(v) else float(v) for v in row)
        for row in df[cols].itertuples(index=False, name=None)
    ]
    return sorted(rows, key=lambda t: tuple((v is None, v or 0.0) for v in t))


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(lk=_KEYS, rk=_KEYS, how=st.sampled_from(["inner", "left", "outer"]))
def test_hash_join_matches_pandas_merge(ray_session, lk, rk, how):
    ldf = pd.DataFrame({"k": pd.Series(lk, dtype="int64"),
                        "a": np.arange(len(lk), dtype="int64")})
    rdf = pd.DataFrame({"k": pd.Series(rk, dtype="int64"),
                        "b": np.arange(len(rk), dtype="int64") * 10})
    expected = _sorted_records(ldf.merge(rdf, on="k", how=how))
    lt = ray.data.from_arrow(pa.Table.from_pandas(ldf, preserve_index=False))
    rt = ray.data.from_arrow(pa.Table.from_pandas(rdf, preserve_index=False))
    got = _sorted_records(
        pd.DataFrame(hash_join(lt, rt, on=("k",), how=how,
                               num_partitions=4).take_all())
    )
    assert got == expected


def test_hash_join_63bit_ints_survive(ray_session):
    """Regression: Ray's sort can route blocks through pandas, where an
    int64 column CONTAINING NULLS becomes float64 and values > 2^53 lose
    low bits. hash_join pads the other side's columns with zero VALUES
    (never read for those rows), so 63-bit payloads (content hashes) must
    survive the exchange bit-exactly — including when the right side is a
    pandas-blocked aggregate output, the lineage that first exposed this."""
    from ray.data.aggregate import Max

    from ner_extractor_ray.stages.canonicalize import grouped_aggregate

    big = (1 << 63) - 12345
    hs = [big, big - 7, big - 3]
    lt = ray.data.from_arrow(pa.table({
        "k": pa.array(["a", "a", "b"]),
        "ts": pa.array([1, 2, 3], pa.int64()),
        "h": pa.array(hs, pa.int64()),
    }))
    w = grouped_aggregate(lt.select_columns(["k", "ts"]), ["k"],
                          Max("ts", alias_name="max_ts"))
    out = hash_join(lt, w, on=("k",), num_partitions=4).take_all()
    assert sorted(r["h"] for r in out) == sorted(hs)


def test_hash_join_cancels_no_task(ray_session, monkeypatch):
    """A side whose schema is not statically known (a map_batches plan) is
    read without a partial run: stopping a plan at its first block cancels
    the tasks still in flight, and on Ray 2.49 such a cancel can race the
    task's argument resolution and abort the driver process."""
    import time

    import pyarrow.compute as pc

    cancels = []
    real_cancel = ray.cancel

    def spy(*a, **k):
        cancels.append(a)
        return real_cancel(*a, **k)

    monkeypatch.setattr(ray, "cancel", spy)

    def slow_after_first(t: pa.Table) -> pa.Table:
        if t.column("k")[0].as_py() != 0:  # block 0 returns first
            time.sleep(0.3)
        return t.append_column("b", pc.multiply(t.column("k"), 10))

    lt = ray.data.from_items([{"k": i} for i in range(8)], override_num_blocks=8
                             ).map_batches(slow_after_first, batch_format="pyarrow")
    rt = ray.data.from_arrow(pa.table({"k": pa.array([1, 5], pa.int64())}))
    out = hash_join(lt, rt, on=("k",), num_partitions=4).take_all()
    assert sorted((r["k"], r["b"]) for r in out) == [(1, 10), (5, 50)]
    assert cancels == []


def test_hash_join_schema_less_side(ray_session):
    """A side a filter emptied has no blocks and no schema: the inner join
    is empty and the left join is the left rows, whichever side it is."""
    rows = ray.data.from_arrow(pa.table({"k": pa.array([1, 2], pa.int64()),
                                         "a": pa.array([10, 20], pa.int64())}))
    empty = ray.data.from_arrow(pa.table({"k": pa.array([1], pa.int64()),
                                          "b": pa.array([5], pa.int64())})
                                ).filter(lambda r: False).materialize()
    assert empty.schema() is None  # the case under test
    assert hash_join(rows, empty, on=("k",)).take_all() == []
    assert hash_join(empty, rows, on=("k",)).take_all() == []
    left = hash_join(rows, empty, on=("k",), how="left").take_all()
    assert sorted((r["k"], r["a"]) for r in left) == [(1, 10), (2, 20)]
    assert hash_join(empty, rows, on=("k",), how="left").take_all() == []


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(keys=_KEYS)
def test_grouped_aggregate_matches_pandas_groupby(ray_session, keys):
    if not keys:
        return
    from ray.data.aggregate import Max, Min, Sum

    df = pd.DataFrame({"k": pd.Series(keys, dtype="int64"),
                       "v": np.arange(len(keys), dtype="int64") * 3 - 7})
    exp = (df.groupby("k", as_index=False)
             .agg(s=("v", "sum"), mn=("v", "min"), mx=("v", "max")))
    ds = ray.data.from_arrow(pa.Table.from_pandas(df, preserve_index=False))
    got = pd.DataFrame(
        grouped_aggregate(ds, ["k"],
                          Sum("v", alias_name="s"),
                          Min("v", alias_name="mn"),
                          Max("v", alias_name="mx"),
                          num_buckets=4).take_all()
    )
    assert _sorted_records(got) == _sorted_records(exp)


@settings(max_examples=60, deadline=None)
@given(seq=st.lists(st.sampled_from(["a", "b", "ab", "c"]),
                    min_size=0, max_size=20),
       pair=st.tuples(st.sampled_from(["a", "b", "ab", "c"]),
                      st.sampled_from(["a", "b", "ab", "c"])))
def test_bpe_merge_pair_greedy_property(seq, pair):
    """merge_pair == reference greedy left-to-right scan for ANY sequence
    and pair, including self-pairs (a,a) and merged-symbol pairs."""
    from ner_extractor_ray.functions.bpe import merge_pair

    left, right = pair
    ref, i = [], 0
    while i < len(seq):
        if i + 1 < len(seq) and seq[i] == left and seq[i + 1] == right:
            ref.append(left + right)
            i += 2
        else:
            ref.append(seq[i])
            i += 1
    assert merge_pair(seq, left, right) == ref
    # invariant: concatenation is preserved
    assert "".join(merge_pair(seq, left, right)) == "".join(seq)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(vals=st.lists(st.integers(min_value=-50, max_value=50),
                     min_size=1, max_size=60))
def test_global_rank_matches_lexsort(ray_session, vals):
    """global_rank(value, id tiebreak) == numpy lexsort 1-based ranks at any
    partitioning — ties broken by id, ranks dense 1..n."""
    from ner_extractor_ray.functions.rank import global_rank

    ids = np.arange(len(vals), dtype=np.int64)
    ds = ray.data.from_arrow(pa.table({
        "id": pa.array(ids, pa.int64()),
        "v": pa.array(vals, pa.int64())})).repartition(3)
    out = global_rank(ds, "v", "id", descending=False, out="r").to_pandas()
    order = np.lexsort((ids, np.asarray(vals, np.int64)))
    want = np.empty(len(vals), np.int64)
    want[order] = np.arange(1, len(vals) + 1)
    got = out.sort_values("id")["r"].to_numpy(np.int64)
    np.testing.assert_array_equal(got, want)


# ---------------------------------------------------------------- PII fuzz

_PII_FRAGMENTS = st.sampled_from([
    "plain words here", "a@b.com", "x.y+z@mail.example.org", "555-123-4567",
    "10.0.0.1", "192.168.255.250", "user@10.0.0.1", "not-a-phone 12-345",
    "1234-567-8901",  # 4-digit prefix: \b kills the leading match
    "a@b", "@", ".", "", "trailing dot 1.2.3.4.", "v1.2.3 release",
])


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(parts=st.lists(_PII_FRAGMENTS, min_size=0, max_size=6))
def test_pii_kernel_matches_duckdb_regexp(parts):
    """Cross-engine parity fuzz: the pyarrow RE2 kernels and DuckDB's
    regexp functions must agree on redaction output AND per-type counts
    for arbitrary concatenations of PII-ish fragments — the exact
    guarantee the pii_redact/pii_stats oracles rely on."""
    import duckdb
    import pyarrow as _pa

    from ner_extractor_ray.functions.pii import (
        PII_PATTERNS, pii_counts, redact)

    text = " ".join(parts)
    col = _pa.array([text])
    got_red = redact(col).to_pylist()[0]
    got_cnt = {k: v.to_pylist()[0] for k, v in pii_counts(col).items()}

    con = duckdb.connect()
    exp_red = text
    for _, pat, placeholder in PII_PATTERNS:
        exp_red = con.execute(
            "SELECT regexp_replace(?, ?, ?, 'g')",
            [exp_red, pat, placeholder]).fetchone()[0]
    assert got_red == exp_red
    for tag, pat, _ in PII_PATTERNS:
        exp_n = con.execute(
            "SELECT len(regexp_extract_all(?, ?))", [text, pat]).fetchone()[0]
        assert got_cnt[f"n_{tag}"] == exp_n, (tag, text)
