"""Round-5 skew stress: pathological corpora through the dedup / curation /
web-graph flagships — ONE near-dup cluster holding 40% of all documents, and
ONE host absorbing >50% of all links.

The skew defenses under test (the sorted-chain bucket cap of
functions/blocking.py:bucket_pairs, per-batch partial pair counts in
functions/weblinks.py) exist precisely for these
shapes; until this module nothing FED them a pathological corpus. Each test
asserts (a) completion, (b) EXACT output against an independently-planted
expectation, and (c) that the pair/edge traffic stays near-linear — the
bounded-per-task-memory evidence (an uncapped plan would emit ~719k pairs
for the 1200-member cluster; the chain plan emits O(members × bands)).

The at-scale wall-time companion (200k docs, same 40% skew) is
tools/skew_bench.py; measured numbers live in BASELINE.md.
"""

import os

import pandas as pd
import pyarrow as pa
import pytest
import ray

N_DOCS = 3000
N_GIANT = 1200  # 40% of the corpus in ONE near-dup cluster
WINNER = 7      # the one member with extra tokens (keep-longest target)

BASE_WORDS = [f"w{i}" for i in range(100)]
BASE_TEXT = " ".join(BASE_WORDS)


def _skew_docs() -> pa.Table:
    """40% of docs are copies of BASE_TEXT (doc WINNER gets 5 extra words →
    word3-shingle Jaccard ≈ 98/103 ≈ 0.95, comfortably ≥ 0.8); the rest are
    pairwise-disjoint unique texts."""
    ids, texts = [], []
    for i in range(N_GIANT):
        ids.append(i)
        if i == WINNER:
            texts.append(BASE_TEXT + " extraa extrab extrac extrad extrae")
        else:
            texts.append(BASE_TEXT)
    for i in range(N_GIANT, N_DOCS):
        ids.append(i)
        texts.append(" ".join(f"u{i}w{j}" for j in range(40)))
    return pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "text": pa.array(texts, pa.string()),
        "source": pa.array(["s0"] * N_DOCS, pa.string()),
    })


@pytest.fixture(scope="module")
def skew_ds():
    return ray.data.from_arrow(_skew_docs())


def test_giant_cluster_keep_best_exact_and_bounded(skew_ds):
    """neardup_keep_best on the 40%-giant-cluster corpus: every member maps
    to the single longest doc, uniques map to themselves, and the candidate
    pair count stays O(members × bands), not O(members²)."""
    from ner_extractor_ray.functions.dedup import (
        lsh_near_dup_pairs,
        near_dup_keep_best_ids,
    )

    pairs = lsh_near_dup_pairs(
        skew_ds, "text", "doc_id", shingle="word3", threshold=0.8
    ).materialize()
    n_pairs = pairs.count()
    # all-pairs would be 1200*1199/2 = 719,400; the sorted-chain cap must
    # keep this to a small multiple of members × bands (16 bands)
    assert 0 < n_pairs < N_GIANT * 32, n_pairs

    out = near_dup_keep_best_ids(pairs, skew_ds, "doc_id", "text").to_pandas()
    keep = dict(zip(out["doc_id"].astype(int), out["keep_id"].astype(int)))
    assert len(keep) == N_DOCS
    for i in range(N_GIANT):
        assert keep[i] == WINNER, (i, keep[i])
    for i in range(N_GIANT, N_DOCS):
        assert keep[i] == i, (i, keep[i])


def test_curation_pipeline_on_giant_cluster(skew_ds, tmp_path):
    """run_curation end-to-end on the skewed corpus: the giant cluster
    collapses to exactly its longest member (exact-dup removal keeps the min
    id, near-dup keep-longest then prefers WINNER), every unique survives."""
    from ner_extractor_ray.pipelines.curation import run_curation

    res = run_curation(
        skew_ds, out_dir=str(tmp_path / "cur"), n_partitions=8
    )
    curated = res["curated"].to_pandas()
    survivors = set(curated["doc_id"].astype(int))
    assert survivors == {WINNER} | set(range(N_GIANT, N_DOCS))
    # survivors' text is intact (no span got rewritten away: after dedup no
    # cross-doc shared 8-gram repeats above the rewrite threshold)
    w = curated[curated["doc_id"] == WINNER].iloc[0]
    assert int(w["n_tokens"]) == 105


def _hot_host_pages() -> tuple[pa.Table, dict]:
    """200 pages on 20 hosts; every EVEN page sends all 10 of its links to
    the single hot host → hot.example.com receives ~53% of all inter-host
    links. Returns (pages table, expected (src_host, dst_host) → n)."""
    urls, htmls = [], []
    expected: dict = {}
    for i in range(200):
        src_host = f"h{i % 20}.example.com"
        url = f"https://{src_host}/p{i}"
        links = []
        for j in range(10):
            if i % 2 == 0:
                dst = f"https://hot.example.com/x{j}"
                dst_host = "hot.example.com"
            else:
                dst_host = f"h{(i * 7 + j) % 20}.example.com"
                dst = f"https://{dst_host}/q{j}"
            links.append(f'<a href="{dst}">l{j}</a>')
            if dst_host != src_host:  # host_link_graph drops intra-host
                k = (src_host, dst_host)
                expected[k] = expected.get(k, 0) + 1
        urls.append(url)
        htmls.append(f"<html><body>{''.join(links)}</body></html>".encode())
    tbl = pa.table({
        "url": pa.array(urls, pa.string()),
        "html": pa.array(htmls, pa.binary()),
    })
    return tbl, expected


def test_hot_host_link_graph_exact():
    """host_link_graph on the hot-host corpus: exact pair counts, and the
    hot host indeed absorbs the majority of inter-host links (the skew the
    per-batch partial counts must absorb without a hot-key task blowup)."""
    from ner_extractor_ray.functions.weblinks import host_link_graph

    tbl, expected = _hot_host_pages()
    got = host_link_graph(ray.data.from_arrow(tbl)).to_pandas()
    got_map = {
        (r.src_host, r.dst_host): int(r.n_links)
        for r in got.itertuples(index=False)
    }
    assert got_map == expected
    hot_in = sum(n for (s, d), n in expected.items()
                 if d == "hot.example.com")
    assert hot_in / sum(expected.values()) > 0.5


def test_hot_entity_kg_edges_exact():
    """Hot-KEY skew through the kg flagship itself: one entity pair
    ('Hooli acquired Nvidia') carries 83% of all triples (1000 of 1200).
    The edge aggregate must stay exact under the hot key — per-batch
    partials collapse the repeats before the exchange, so the hot group
    never materializes row-per-occurrence in one task. Exact expectation:
    exactly two distinct triples with planted counts."""
    import datetime

    from ner_extractor_ray.pipelines.kg import run_kg

    n_pages, hot_per_page = 400, 5
    ts = datetime.datetime(2025, 1, 1)
    urls, texts = [], []
    for i in range(n_pages):
        urls.append(f"https://skew.example.com/p{i}")
        if i % 2 == 0:
            texts.append("Hooli acquired Nvidia . " * hot_per_page)
        else:
            texts.append("Bill Gates founded IBM .")
    tbl = pa.table({
        "url": pa.array(urls, pa.string()),
        "warc_ts": pa.array([ts] * n_pages, pa.timestamp("us")),
        "html": pa.array([b""] * n_pages, pa.binary()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(["en"] * n_pages, pa.string()),
    })
    res = run_kg(ray.data.from_arrow(tbl), out_dir=None, n_partitions=8)
    edges = res["edges"].to_pandas()
    by_pred = edges.groupby("pred")["n_occurrences"].sum().to_dict()
    assert by_pred == {"acquired": (n_pages // 2) * hot_per_page,
                       "founded": n_pages // 2}, by_pred
    assert len(edges) == 2


def test_hot_user_sessions_exact(tmp_path):
    """Hot-KEY skew through sessionization: ONE user owns 50% of all events.
    A user's events must meet in one task (gap-based sessions need the full
    ordered history — the documented per-task bound of the coarse-bucket
    plan in q_user_sessions), so the hot bucket carries ~50% of the corpus;
    the op must complete and produce the exactly-planted session counts."""
    import datetime

    import numpy as np
    import pyarrow.parquet as pq

    from ner_extractor_ray.pipelines.queries import q_user_sessions

    base = datetime.datetime(2025, 3, 1)
    rows_u, rows_t = [], []
    # hot user 1: 5000 events, 10-min cadence, a 2h jump every 500 events
    # → exactly 10 sessions
    t = base
    for i in range(5000):
        if i and i % 500 == 0:
            t += datetime.timedelta(hours=2)
        rows_u.append(1)
        rows_t.append(t)
        t += datetime.timedelta(minutes=10)
    # 50 cold users: 100 events each at 2h cadence → every event its own
    # session (gap 7200s > 3600s) → 100 sessions
    for u in range(2, 52):
        t = base + datetime.timedelta(minutes=u)
        for _ in range(100):
            rows_u.append(u)
            rows_t.append(t)
            t += datetime.timedelta(hours=2)
    tbl = pa.table({
        "user_id": pa.array(rows_u, pa.int64()),
        "ts": pa.array(rows_t, pa.timestamp("us")),
    })
    pq.write_table(tbl, str(tmp_path / "events.parquet"))

    out = q_user_sessions(str(tmp_path)).to_pandas()
    m = {int(r.user_id): (int(r.n_events), int(r.n_sessions))
         for r in out.itertuples(index=False)}
    assert m[1] == (5000, 10)
    for u in range(2, 52):
        assert m[u] == (100, 100), u
    hot_share = 5000 / (5000 + 50 * 100)
    assert hot_share == 0.5


def test_hot_user_sessions_segmented_matches(tmp_path):
    """The segmented-reduce plan (q_user_sessions_segmented) on the hot-user
    corpus: 10-min cadence means live sessions CROSS the 6-hour chunk
    boundaries constantly, so the boundary-gap merge is exercised hard;
    result must equal the single-task plan exactly — and the hot user's
    chunk groups are each bounded (≤36 events per 6h window), which is the
    whole point of the plan."""
    import datetime

    import pyarrow.parquet as pq

    from ner_extractor_ray.pipelines.queries import (
        q_user_sessions,
        q_user_sessions_segmented,
    )

    base = datetime.datetime(2025, 3, 1)
    rows_u, rows_t = [], []
    t = base
    for i in range(5000):
        if i and i % 500 == 0:
            t += datetime.timedelta(hours=2)
        rows_u.append(1)
        rows_t.append(t)
        t += datetime.timedelta(minutes=10)
    for u in range(2, 52):
        t = base + datetime.timedelta(minutes=u)
        for _ in range(100):
            rows_u.append(u)
            rows_t.append(t)
            t += datetime.timedelta(hours=2)
    pq.write_table(
        pa.table({"user_id": pa.array(rows_u, pa.int64()),
                  "ts": pa.array(rows_t, pa.timestamp("us"))}),
        str(tmp_path / "events.parquet"))

    plain = (q_user_sessions(str(tmp_path)).to_pandas()
             .sort_values("user_id").reset_index(drop=True))
    seg = (q_user_sessions_segmented(str(tmp_path)).to_pandas()
           .sort_values("user_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(
        plain[sorted(plain.columns)], seg[sorted(seg.columns)])
    row = seg[seg["user_id"] == 1].iloc[0]
    assert (int(row["n_events"]), int(row["n_sessions"])) == (5000, 10)
