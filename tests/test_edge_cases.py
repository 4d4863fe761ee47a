"""FIXTURES.md §4 empty/edge fixtures: empty html, pre-extracted text-only
rows, over-length sentences (truncation), non-English rows — no silent
crashes, documented behaviors."""

import pyarrow as pa
import ray.data

from ner_extractor_ray.pipelines.kg import run_kg, tag_sentences

_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("html", pa.binary()),
        ("text", pa.string()),
        ("lang", pa.string()),
    ]
)


def _pages():
    long_sent = " ".join(["word"] * 300) + " ."
    rows = [
        # empty html AND empty text → zero sentences, no crash
        {"url": "https://e/empty", "html": b"", "text": "", "lang": "en"},
        # text-only row (arrives pre-extracted; html empty)
        {"url": "https://e/textonly", "html": b"",
         "text": "Bill Gates founded Microsoft .", "lang": "en"},
        # over-length sentence → truncated to max_tokens
        {"url": "https://e/long", "html": b"", "text": long_sent, "lang": "en"},
        # non-English row → filtered by the lang gate
        {"url": "https://e/de", "html": b"",
         "text": "der Bericht ist von der Kommission .", "lang": "de"},
        # html-only row → extracted
        {"url": "https://e/html",
         "html": b"<html><body><p>Ada Lovelace visited London .</p></body></html>",
         "text": None, "lang": "en"},
    ]
    return ray.data.from_arrow(pa.Table.from_pylist(rows, schema=_SCHEMA))


def test_tag_sentences_edge_rows():
    rows = tag_sentences(_pages()).take_all()
    by_url = {}
    for r in rows:
        by_url.setdefault(r["url"], []).append(r)
    assert "https://e/empty" not in by_url          # zero sentences
    assert "https://e/de" not in by_url             # filtered
    assert len(by_url["https://e/textonly"]) == 1   # pre-extracted passes through
    assert by_url["https://e/long"][0]["n_tokens"] == 192  # truncation
    assert by_url["https://e/html"][0]["tokens"][:2] == ["Ada", "Lovelace"]


def test_run_kg_on_edge_pages(tmp_path):
    res = run_kg(_pages(), out_dir=str(tmp_path / "kg"), n_partitions=2)
    edges = res["edges"].take_all()
    # relations present: (Bill Gates, founded, Microsoft), (Ada Lovelace, visited, London)
    assert sorted(e["pred"] for e in edges) == ["founded", "visited"]
    nodes = res["nodes"].take_all()
    types = {n["type"] for n in nodes}
    assert {"PER", "ORG", "LOC"} <= types


def test_skew_pages_hot_entity(tmp_path):
    """FIXTURES.md §4 skew fixture: one entity ("Google") dominates mentions
    and one domain dominates urls — pre-aggregated counts and salted LSH must
    produce exact results (equal to what the oracle computes)."""
    import pyarrow as pa
    import ray.data

    from reference_impl.oracle import run_oracle

    rows = []
    for i in range(400):
        dom = "hot.example.com" if i % 10 < 4 else f"site{i%7}.example.org"
        text = (
            "Google acquired Google ."
            if i % 2 == 0  # hot entity in 50% of pages, twice per sentence
            else "Ada Lovelace visited London ."
        )
        rows.append(
            {"url": f"https://{dom}/p{i}", "html": b"", "text": text, "lang": "en"}
        )
    schema = pa.schema(
        [("url", pa.string()), ("html", pa.binary()), ("text", pa.string()),
         ("lang", pa.string())]
    )
    pages = ray.data.from_arrow(pa.Table.from_pylist(rows, schema=schema)).repartition(8)
    res = run_kg(pages, out_dir=None, n_partitions=4)
    oracle = run_oracle(rows)
    got_nodes = {(n["entity_id"], n["n_mentions"]) for n in res["nodes"].take_all()}
    exp_nodes = {(n["entity_id"], n["n_mentions"]) for n in oracle["nodes"]}
    assert got_nodes == exp_nodes
    # hot entity count is exact despite 400 mentions on one key
    hot = [n for n in oracle["nodes"] if n["canonical_name"] == "google"]
    assert hot and hot[0]["n_mentions"] == 400


def test_annotations_identical_across_batch_sizes(small_pages_dir):
    """Batching must be invisible: batch_size 64 vs 1024 produce identical
    annotation rows, every one of the 17 columns (determinism criterion,
    SURVEY.md §2.9)."""
    from ner_extractor_ray.functions.gazetteer import alias_canonical_map
    from ner_extractor_ray.pipelines.kg import pages_dataset, tag_sentences
    from ner_extractor_ray.stages.annotate import ANNOTATION_SCHEMA, Annotator

    def run(bs):
        ann = tag_sentences(pages_dataset(small_pages_dir), batch_size=bs).map_batches(
            Annotator(alias_canonical_map()), batch_format="pyarrow", batch_size=bs
        )
        # kind leads, and within one kind the null columns are the same, so
        # the tuples never compare None with a value
        return sorted(tuple(r[c] for c in ANNOTATION_SCHEMA.names) for r in ann.take_all())

    rows = run(64)
    assert rows and {r[0] for r in rows} == {"m", "t"}
    assert rows == run(1024)


def test_nation_priority_grid_zero_fill(tmp_path):
    """The sf tables populate every (nation, priority) cell, so the LEFT-join
    zero-fill path would pass vacuously — force empty cells by restricting
    orders to a few customers and assert absent combos appear with 0."""
    import duckdb
    import pyarrow.parquet as pq
    import pyarrow.compute as pc

    from ner_extractor_ray.pipelines.queries import oracle_sql, queries

    sf = "/root/testdata/sf0.001"
    for t in ("customer", "nation"):
        pq.write_table(pq.read_table(f"{sf}/{t}.parquet"), tmp_path / f"{t}.parquet")
    orders = pq.read_table(f"{sf}/orders.parquet")
    small = orders.filter(pc.less(orders.column("o_custkey"), 30))
    assert small.num_rows > 0
    pq.write_table(small, tmp_path / "orders.parquet")

    rdf = queries()["nation_priority_grid"](str(tmp_path)).to_pandas()
    con = duckdb.connect()
    for t in ("orders", "customer", "nation"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{tmp_path}/{t}.parquet')")
    sdf = con.execute(oracle_sql()["nation_priority_grid"]).fetchdf()

    def norm(df):
        cols = sorted(df.columns)
        return sorted(map(repr, df[cols].itertuples(index=False, name=None)))

    assert (rdf["n_orders"] == 0).sum() > 0          # zero-fill exercised
    assert len(rdf) == len(sdf)
    assert norm(rdf) == norm(sdf)


def test_integrity_audit_detects_orphans(tmp_path):
    """The sf tables are referentially intact (0 orphans), so break the
    fixture: drop half the orders and assert the audit counts the now-
    orphaned lineitems, matching the SQL oracle on the same broken data."""
    import duckdb
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from ner_extractor_ray.pipelines.queries import oracle_sql, queries

    sf = "/root/testdata/sf0.001"
    pq.write_table(pq.read_table(f"{sf}/lineitem.parquet"),
                   tmp_path / "lineitem.parquet")
    orders = pq.read_table(f"{sf}/orders.parquet")
    kept = orders.filter(
        pc.equal(pc.bit_wise_and(orders.column("o_orderkey"), 1), 0))
    pq.write_table(kept, tmp_path / "orders.parquet")

    rdf = queries()["integrity_audit"](str(tmp_path)).to_pandas()
    con = duckdb.connect()
    for t in ("orders", "lineitem"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{tmp_path}/{t}.parquet')")
    sdf = con.execute(oracle_sql()["integrity_audit"]).fetchdf()

    def norm(df):
        cols = sorted(df.columns)
        return sorted(map(repr, df[cols].itertuples(index=False, name=None)))

    assert int(rdf["n_orphan_lines"][0]) > 0
    assert norm(rdf) == norm(sdf)


def test_skyline_mask_matches_brute_force():
    """_skyline_mask (sweep over descending price groups) equals O(n²)
    dominance on randomized inputs incl. duplicate points and full ties."""
    import numpy as np

    from ner_extractor_ray.pipelines.queries import _skyline_mask

    rng = np.random.RandomState(7)
    for _ in range(300):
        n = rng.randint(1, 40)
        price = rng.randint(0, 8, n).astype(np.int64)
        day = rng.randint(0, 8, n).astype(np.int64)
        pk = np.arange(n, dtype=np.int64)
        order, keep = _skyline_mask(pk, price, day)
        got = set(pk[order[keep]])
        want = {
            a for a in range(n)
            if not any(price[b] >= price[a] and day[b] >= day[a]
                       and (price[b] > price[a] or day[b] > day[a])
                       for b in range(n))
        }
        assert got == want


def test_events_debounced_drops_bursts(tmp_path):
    """The sf event stream is sparse per (user, type) (≤5 drops at sf0.01),
    so synthesize a bursty fixture: retry storms 10 s apart must collapse
    to one kept event per 60 s window opener, matching the SQL oracle."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ner_extractor_ray.pipelines.queries import oracle_sql, queries

    base = 1_600_000_000_000_000  # µs
    rows = []
    eid = 0
    for u in (1, 2):
        for k in range(8):          # burst: 10 s apart → only gaps >60 s kept
            rows.append((eid, u, "click", base + k * 10_000_000, 1.0))
            eid += 1
        rows.append((eid, u, "click", base + 500_000_000, 1.0))  # far event
        eid += 1
    t = pa.table({
        "event_id": pa.array([r[0] for r in rows], pa.int64()),
        "user_id": pa.array([r[1] for r in rows], pa.int64()),
        "event_type": pa.array([r[2] for r in rows], pa.string()),
        "ts": pa.array([r[3] for r in rows], pa.timestamp("us")),
        "value": pa.array([r[4] for r in rows], pa.float64()),
        "props": pa.array(["{}"] * len(rows), pa.string()),
    })
    pq.write_table(t, tmp_path / "events.parquet")

    rdf = queries()["events_debounced"](str(tmp_path)).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{tmp_path}/events.parquet')")
    sdf = con.execute(oracle_sql()["events_debounced"]).fetchdf()

    def norm(df):
        cols = sorted(df.columns)
        return sorted(map(repr, df[cols].itertuples(index=False, name=None)))

    assert len(rdf) == 4            # per user: burst opener + the far event
    assert norm(rdf) == norm(sdf)


def test_golden_records_survivorship(tmp_path):
    """The sf documents have no exact duplicates, so clone some with
    different ids/langs/sources/n_chars and assert each field follows its
    own survivorship rule in the merged record, matching the oracle."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ner_extractor_ray.pipelines.queries import oracle_sql, queries

    src = pq.read_table("/root/testdata/sf0.001/documents.parquet")
    head = src.slice(0, 10)
    clones = pa.table({
        "doc_id": pa.array([int(v.as_py()) + 100_000
                            for v in head.column("doc_id")], pa.int64()),
        "text": head.column("text"),
        "lang": pa.array(["zz"] * 10, pa.string()),      # loses Min(lang)
        "source": pa.array(["aaa"] * 10, pa.string()),   # wins Min(source)
        "n_chars": pa.array([10**6] * 10, pa.int64()),   # wins Max(n_chars)
    })
    both = pa.concat_tables([src, clones.cast(src.schema)])
    pq.write_table(both, tmp_path / "documents.parquet")

    rdf = queries()["golden_records"](str(tmp_path)).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{tmp_path}/documents.parquet')")
    sdf = con.execute(oracle_sql()["golden_records"]).fetchdf()

    def norm(df):
        cols = sorted(df.columns)
        return sorted(map(repr, df[cols].itertuples(index=False, name=None)))

    merged = rdf[rdf["n_dups"] > 1]
    assert len(merged) == 10
    assert (merged["max_chars"] == 10**6).all()     # Max rule took the clone
    assert (merged["source"] == "aaa").all()        # Min rule took the clone
    assert not (merged["lang"] == "zz").any()       # Min rule kept original
    assert (merged["rep_id"] < 100_000).all()       # Min id = original
    assert norm(rdf) == norm(sdf)


def test_null_group_keys_match_oracle(tmp_path):
    """The sf tables hold no NULL keys. A NULL user is one GROUP BY group of
    its own, and a NULL priority is a distinct pair but not a priority
    level (COUNT(DISTINCT) skips it): both queries must match the oracle."""
    import duckdb
    import pyarrow.parquet as pq

    from ner_extractor_ray.pipelines.queries import oracle_sql, queries

    pq.write_table(pa.table({"user_id": pa.array(
        [1, 1, 1, 2, 2, None, None, None, None, 3], pa.int64())}),
        tmp_path / "events.parquet")
    pq.write_table(pa.table({
        "c_custkey": pa.array([1, 2, 3], pa.int64()),
        "c_name": pa.array(["a", "b", "c"])}), tmp_path / "customer.parquet")
    pq.write_table(pa.table({
        "o_custkey": pa.array([1, 1, 2, 2, 3], pa.int64()),
        "o_orderpriority": pa.array(["1-URGENT", "2-HIGH", "1-URGENT", None,
                                     "1-URGENT"])}), tmp_path / "orders.parquet")
    con = duckdb.connect()
    for t in ("events", "customer", "orders"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{tmp_path}/{t}.parquet')")

    def norm(df):
        cols = sorted(df.columns)
        return sorted(map(repr, df[cols].itertuples(index=False, name=None)))

    for name in ("user_pareto", "customers_all_priorities"):
        rdf = queries()[name](str(tmp_path)).to_pandas()
        sdf = con.execute(oracle_sql()[name]).fetchdf()
        assert norm(rdf) == norm(sdf), name
