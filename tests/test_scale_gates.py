"""Both physical plans of every size-gated operator must produce identical
results: the broadcast plan (small side fits) and the at-scale plan (Bloom
prefilter + partitioned hash join / pre-aggregated fact side). Forcing
``broadcast_limit=0`` exercises the at-scale branch on the small fixtures."""

import numpy as np
import pandas as pd

from ner_extractor_ray.pipelines.queries import (
    q_customers_with_orders,
    q_nation_profit,
    q_revenue_by_brand,
    q_small_qty_revenue,
)

SF_DIR = "/root/testdata/sf0.001"


def _norm(res) -> pd.DataFrame:
    df = res.to_pandas() if hasattr(res, "to_pandas") else res
    df = df[sorted(df.columns)]
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def test_customers_with_orders_bloom_path_matches_broadcast():
    bc = _norm(q_customers_with_orders(SF_DIR))
    at_scale = _norm(q_customers_with_orders(SF_DIR, broadcast_limit=0))
    pd.testing.assert_frame_equal(bc, at_scale)
    assert len(bc) > 0


def test_revenue_by_brand_join_path_matches_broadcast():
    bc = _norm(q_revenue_by_brand(SF_DIR))
    at_scale = _norm(q_revenue_by_brand(SF_DIR, broadcast_limit=0))
    pd.testing.assert_frame_equal(bc, at_scale)
    assert len(bc) > 0


def test_nation_profit_join_path_matches_broadcast():
    bc = _norm(q_nation_profit(SF_DIR).to_pandas())
    at_scale = _norm(q_nation_profit(SF_DIR, broadcast_limit=0).to_pandas())
    pd.testing.assert_frame_equal(bc, at_scale)
    assert len(bc) > 0


def test_small_qty_revenue_join_path_matches_broadcast():
    bc = _norm(q_small_qty_revenue(SF_DIR).to_pandas())
    at_scale = _norm(q_small_qty_revenue(SF_DIR, broadcast_limit=0).to_pandas())
    pd.testing.assert_frame_equal(bc, at_scale)
    assert int(bc["n_items"].iloc[0]) > 0


def test_batched_minhash_matches_scalar():
    """minhash_signatures_sql_batch / band_buckets_batch are drop-in
    vectorizations of the per-doc functions the SQL oracle replicates —
    values must agree element for element (including the empty-doc
    sentinel)."""
    from ner_extractor_ray.functions.textfns import (
        band_buckets,
        band_buckets_batch,
        minhash_signature_sql,
        minhash_signatures_sql_batch,
        word_ngrams,
    )

    docs = [
        "the quick brown fox jumps over the lazy dog",
        "",  # empty → all-max sentinel signature
        "pack my box with five dozen liquor jugs right now",
        "the quick brown fox jumps over the lazy dog today",
    ]
    sh_lists = [word_ngrams(d, 3) for d in docs]
    batch = minhash_signatures_sql_batch(sh_lists, 64)
    for i, sh in enumerate(sh_lists):
        np.testing.assert_array_equal(batch[i], minhash_signature_sql(sh, 64))
    bb = band_buckets_batch(batch, 16)
    for i in range(len(docs)):
        assert list(bb[i]) == band_buckets(batch[i], 16)


def test_setsim_prefix_blocking_is_lossless():
    """Hand-built docs where the near pair shares most trigrams; setsim must
    find exactly the pairs the brute-force check finds (blocking lossless)."""
    import itertools

    import ray.data

    from ner_extractor_ray.functions.dedup import SHINGLERS, setsim_join_pairs

    texts = {
        0: "alpha beta gamma delta epsilon zeta eta theta",
        1: "alpha beta gamma delta epsilon zeta eta iota",   # near-dup of 0
        2: "one two three four five six seven eight nine",
        3: "completely different words in this document here",
        4: "alpha beta gamma delta epsilon zeta eta theta",  # exact dup of 0
    }
    ds = ray.data.from_items([{"doc_id": k, "text": v} for k, v in texts.items()])
    got = {
        (r["id_a"], r["id_b"]): r["jaccard_ppm"]
        for r in setsim_join_pairs(ds, "text", "doc_id",
                                   threshold_num=3, threshold_den=5).take_all()
    }
    sh = SHINGLERS["word3"]
    want = {}
    for a, b in itertools.combinations(sorted(texts), 2):
        sa, sb = set(sh(texts[a])), set(sh(texts[b]))
        ni = len(sa & sb)
        un = len(sa) + len(sb) - ni
        if un and ni * 5 >= un * 3:
            want[(a, b)] = (ni * 1_000_000) // un
    assert got == want
    assert (0, 4) in got and got[(0, 4)] == 1_000_000


def test_khop_distances_bfs():
    import pyarrow as pa
    import ray.data

    from ner_extractor_ray.functions.graph import khop_distances

    # path 1-2-3-4-5 plus separate component 10-11: BFS from min node (1)
    edges = ray.data.from_arrow(pa.table({
        "u": pa.array([1, 2, 3, 4, 10], pa.int64()),
        "v": pa.array([2, 3, 4, 5, 11], pa.int64()),
        "n": pa.array([1] * 5, pa.int64()),
    }))
    got = sorted((r["node"], r["hops"]) for r in khop_distances(edges, k=3).take_all())
    assert got == [(1, 0), (2, 1), (3, 2), (4, 3)]  # 5 is 4 hops away; 10/11 unreachable
    got2 = sorted((r["node"], r["hops"]) for r in khop_distances(edges, k=3, seed=10).take_all())
    assert got2 == [(10, 0), (11, 1)]


def test_paragraph_dedup_counts(tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ner_extractor_ray.pipelines.queries import q_paragraph_dedup

    rep = " ".join(f"w{i}" for i in range(10))          # one exact 10-token chunk
    uniq = " ".join(f"u{i}" for i in range(10))
    t = pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        # doc0: rep + uniq (2 chunks, both kept — first occurrence)
        # doc1: rep twice (2 chunks of identical content; keeper is doc0's)
        # doc2: 5 tokens (1 short chunk, unique)
        "text": pa.array([rep + " " + uniq, rep + " " + rep, "a b c d e"]),
    })
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    got = {r["doc_id"]: (r["n_chunks"], r["n_kept"])
           for r in q_paragraph_dedup(str(tmp_path)).take_all()}
    assert got == {0: (2, 2), 1: (2, 0), 2: (1, 1)}


def test_setsim_joined_verify_path_matches_broadcast():
    """broadcast_limit=0 forces the Bloom + hash_join text-attach verify;
    output must equal the broadcast-path result exactly."""
    import ray.data

    from ner_extractor_ray.functions.dedup import setsim_join_pairs

    texts = {
        0: "alpha beta gamma delta epsilon zeta eta theta",
        1: "alpha beta gamma delta epsilon zeta eta iota",
        2: "one two three four five six seven eight nine",
        3: "completely different words in this document here",
        4: "alpha beta gamma delta epsilon zeta eta theta",
    }
    ds = ray.data.from_items([{"doc_id": k, "text": v} for k, v in texts.items()])
    kw = dict(threshold_num=3, threshold_den=5)
    bc = sorted((r["id_a"], r["id_b"], r["jaccard_ppm"])
                for r in setsim_join_pairs(ds, "text", "doc_id", **kw).take_all())
    jn = sorted((r["id_a"], r["id_b"], r["jaccard_ppm"])
                for r in setsim_join_pairs(ds, "text", "doc_id",
                                           broadcast_limit=0, **kw).take_all())
    assert jn == bc and len(bc) >= 1


def test_domain_dup_rate_attribution(tmp_path):
    """Dup attribution: the keeper's own source does NOT count its keeper doc
    as dup, while every later identical doc counts against ITS OWN source."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ner_extractor_ray.pipelines.queries import q_domain_dup_rate

    t = pa.table({
        "doc_id": pa.array([0, 1, 2, 3, 4], pa.int64()),
        "text": pa.array(["same", "same", "same", "uniq a", "uniq b"]),
        "source": pa.array(["s1", "s1", "s2", "s2", "s3"]),
    })
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    got = {r["source"]: (r["n_docs"], r["n_dups"])
           for r in q_domain_dup_rate(str(tmp_path)).take_all()}
    # doc0 keeper; doc1 dup (s1); doc2 dup (s2); 3,4 unique
    assert got == {"s1": (2, 1), "s2": (2, 1), "s3": (1, 0)}


def test_oov_rate_scores(tmp_path):
    """Vocabulary = words with cnt*41 > N; docs of only-rare words score
    1e6 ppm, all-frequent docs 0, empty docs 0."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ner_extractor_ray.pipelines.queries import q_oov_rate

    # 'the' x 50 dominates (50*41 > N); each rare word appears once
    common = " ".join(["the"] * 25)
    t = pa.table({
        "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
        "text": pa.array([common, common, "zebra quark axolotl", ""]),
    })
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    got = {r["doc_id"]: (r["n_tokens"], r["oov_ppm"])
           for r in q_oov_rate(str(tmp_path)).take_all()}
    assert got == {0: (25, 0), 1: (25, 0), 2: (3, 1_000_000), 3: (0, 0)}


def test_hash_join_composite_key_complete():
    """Regression: composite join keys are '\\x00'-joined strings, and
    pandas hash_array's DEFAULT categorize path truncates at the embedded
    NUL — the same key then bucketed differently on the two sides and
    matching rows silently never met (131 of 572 rows survived). joins.py
    hashes with categorize=False; this pins completeness at several
    partition counts against a pandas-merge oracle."""
    import ray
    import ray.data

    from ner_extractor_ray.stages.joins import hash_join

    rng = np.random.RandomState(0)
    n = 2000
    la = pd.DataFrame({"a": rng.randint(0, 100, n),
                       "b": rng.randint(0, 50, n)}).drop_duplicates()
    rb = pd.DataFrame({"a": rng.randint(0, 100, n),
                       "b": rng.randint(0, 50, n)}).drop_duplicates()
    expected = la.merge(rb, on=["a", "b"]).sort_values(["a", "b"]).reset_index(drop=True)
    for nparts in (4, 32):
        got = (
            hash_join(ray.data.from_pandas(la).repartition(7),
                      ray.data.from_pandas(rb).repartition(5),
                      on=("a", "b"), num_partitions=nparts)
            .to_pandas()[["a", "b"]]
            .sort_values(["a", "b"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, expected, check_dtype=False)


def test_data_partitions_sizes_to_data():
    """Iterative graph ops size exchanges from materialized bytes: tiny
    state tables get the 2-partition floor (task count, not data, dominates
    there) and the count grows unbounded with data — no cluster-sized cap
    that would under-partition a 100-TB exchange."""
    from ner_extractor_ray.stages.canonicalize import data_partitions

    assert data_partitions(0) == 2
    assert data_partitions(1) == 2
    assert data_partitions(64 << 20) == 2
    assert data_partitions(10 * (64 << 20) + 1) == 11
    assert data_partitions(1 << 47) == (1 << 47) // (64 << 20)  # 128 TB → 2M parts


def test_bucketed_join_matches_local_merge_and_guards(tmp_path):
    """Storage-partitioned join: same result as a plain merge, zero
    exchange; mismatched bucket counts and torn tables are refused."""
    import pyarrow as pa
    import pytest
    import ray.data

    from ner_extractor_ray.stages.joins import bucketed_join
    from ner_extractor_ray.stages.materialize import write_partitioned

    a = pa.table({"k": pa.array(range(100), pa.int64()),
                  "va": pa.array([i * 2 for i in range(100)], pa.int64())})
    b = pa.table({"k": pa.array([i for i in range(0, 100, 3)], pa.int64()),
                  "vb": pa.array([i * 7 for i in range(0, 100, 3)], pa.int64())})
    da, db = str(tmp_path / "a"), str(tmp_path / "b")
    write_partitioned(ray.data.from_arrow(a), da, "k", n_partitions=4)
    write_partitioned(ray.data.from_arrow(b), db, "k", n_partitions=4)

    got = bucketed_join(da, db, on=["k"]).to_pandas()
    got = got[sorted(got.columns)].sort_values("k").reset_index(drop=True)
    want = a.to_pandas().merge(b.to_pandas(), on="k")
    want = want[sorted(want.columns)].sort_values("k").reset_index(drop=True)
    pd.testing.assert_frame_equal(got.astype("int64"), want.astype("int64"))

    dc = str(tmp_path / "c")
    write_partitioned(ray.data.from_arrow(b), dc, "k", n_partitions=8)
    with pytest.raises(ValueError, match="bucket counts differ"):
        bucketed_join(da, dc, on=["k"])
    with pytest.raises(ValueError, match="completeness"):
        bucketed_join(da, str(tmp_path / "missing"), on=["k"])


def test_bloom_semi_orders_join_path_matches_broadcast():
    """VERDICT r3 weak #2: the exact-verify key set is now gated —
    broadcast_limit=0 forces the partitioned hash_join verify; both plans
    must produce the identical per-priority rollup."""
    from ner_extractor_ray.pipelines.queries import q_bloom_semi_orders

    bc = _norm(q_bloom_semi_orders(SF_DIR).to_pandas())
    at_scale = _norm(q_bloom_semi_orders(SF_DIR, broadcast_limit=0).to_pandas())
    pd.testing.assert_frame_equal(bc, at_scale)
    assert len(bc) > 0 and int(bc["n_orders"].sum()) > 0


def test_idle_customers_join_path_matches_broadcast():
    """Round-4 Q22 shape: the recent-orderer anti-join key set is gated —
    broadcast_limit=0 forces the LEFT hash_join + null-filter path."""
    from ner_extractor_ray.pipelines.queries import q_idle_customers_by_segment

    bc = _norm(q_idle_customers_by_segment(SF_DIR).to_pandas())
    at_scale = _norm(
        q_idle_customers_by_segment(SF_DIR, broadcast_limit=0).to_pandas())
    pd.testing.assert_frame_equal(bc, at_scale)
    assert len(bc) > 0 and int(bc["n_customers"].sum()) > 0


def test_kg_gold_broadcast_gate_join_path_matches_broadcast():
    """Round-5 directive: the q_web KG-analytics gold-dict broadcasts are
    gated through _canon_surfaces — broadcast_limit=0 forces the partitioned
    hash_join plan on every alias-resolution site (including entity_lift's
    per-entity count attach, its second gated broadcast). Both plans must be
    value-identical."""
    from ner_extractor_ray.pipelines.queries import (
        q_entity_cooccurrence,
        q_entity_degree,
        q_entity_lift,
    )

    for fn in (q_entity_cooccurrence, q_entity_lift, q_entity_degree):
        bc = _norm(fn(SF_DIR))
        at_scale = _norm(fn(SF_DIR, broadcast_limit=0))
        pd.testing.assert_frame_equal(bc, at_scale)
        assert len(bc) > 0


def test_canon_surfaces_duplicate_surface_plans_agree(tmp_path, monkeypatch):
    """A gazetteer surface listed under two canonicals resolves to the MIN
    one on both sides of the _canon_surfaces gate (the broadcast dict used
    to keep the last row, the hash_join emitted one row per match)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ner_extractor_ray.pipelines import q_web

    pq.write_table(pa.table({
        "surface": ["globex", "acme", "acme"],
        "canonical": ["Globex", "ACME", "Acme Corp"],  # last row is NOT the min
    }), str(tmp_path / "gold_entities.parquet"))
    pq.write_table(pa.table({
        "url": ["u1", "u1", "u2", "u2"],
        "sent_id": pa.array([0, 0, 1, 1], pa.int64()),
        "surface": ["acme", "globex", "acme", "nobody"],
    }), str(tmp_path / "gold_mentions.parquet"))
    monkeypatch.setattr(q_web, "_synthetic_pages_dir", lambda sf_dir: str(tmp_path))

    for limit in (None, 0):
        got = _norm(q_web.q_entity_cooccurrence("sf0.01", broadcast_limit=limit))
        assert got[["ent_a", "ent_b", "n_sents"]].values.tolist() == \
            [["ACME", "Globex", 1]], limit


def test_lift_ppm_exact_above_int64():
    """entity_lift's ⌊10⁶·n_ab·N / (n_a·n_b)⌋ finishes in Python ints: the
    numerator here is 3·10²² > 2⁶³, where int64 column arithmetic wraps."""
    from ner_extractor_ray.pipelines._qcommon import lift_ppm

    n_ab, n_a, n_b, n_total = 30_000, 40_000, 50_000, 10**12
    assert 1_000_000 * n_ab * n_total > 2**63
    exact = (1_000_000 * n_ab * n_total) // (n_a * n_b)
    got = lift_ppm(pd.Series([n_ab, 1], dtype="int64"),
                   pd.Series([n_a, 2], dtype="int64"),
                   pd.Series([n_b, 4], dtype="int64"), n_total)
    assert got == [exact, (1_000_000 * n_total) // 8]
    assert exact == 15_000_000_000_000
