"""Web-crawl / KG-fixture query family (split from pipelines/queries.py — its module
docstring holds the catalogue conventions; the queries()/oracle_sql()
catalogue there re-exports every entry in the driver-stable order)."""

from __future__ import annotations

import math
import os
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data
from ray.data.aggregate import Count, Max, Min, Sum

from ._qcommon import (
    _rp, lift_ppm,
)



def q_mention_confusion(sf_dir: str):
    """A8 — confusion top-k between pipeline mentions and generator gold over
    the synthetic pages corpus (groupby→sort→limit pattern). Rows-only."""
    import pyarrow.parquet as _pq
    import ray.data as _rd

    from ..functions.metrics import confusion_topk
    from .kg import pages_dataset, run_kg

    pdir = _synthetic_pages_dir(sf_dir)
    res = run_kg(pages_dataset(pdir), out_dir=None, n_partitions=8)
    pred = res["mentions"].map_batches(
        lambda t: t.select(["url", "sent_id", "start", "end", "type"]),
        batch_format="pyarrow",
    )
    gold = _rd.from_arrow(_pq.read_table(os.path.join(pdir, "gold_mentions.parquet")))
    return confusion_topk(pred, gold, ["url", "sent_id", "start", "end"], "type", k=10)


def q_kg_edges(sf_dir: str):
    """Flagship KG pipeline over the deterministic synthetic pages corpus
    (size scaled by sf). Rows-only driver check; full parity vs the oracle is
    asserted in tests/test_oracle_parity.py."""
    from .kg import pages_dataset, run_kg

    pdir = _synthetic_pages_dir(sf_dir)
    res = run_kg(pages_dataset(pdir), out_dir=None, n_partitions=8)
    return res["edges"]


def _synthetic_pages_dir(sf_dir: str) -> str:
    """Shared cache of the deterministic synthetic crawl, scaled by sf.

    Self-heals caches written before the link-planting generator revision:
    ``gold_links.parquet`` doubles as the generation-version sentinel, so a
    pre-link cache is regenerated in place (page text/urls are unchanged
    across that revision — only the html gains an <aside> link block)."""
    import re as _re

    from ..sources.pages import write_pages

    m = _re.search(r"sf([0-9.]+)", sf_dir)
    sf = float(m.group(1)) if m else 0.01
    n_pages = max(100, int(20000 * sf))
    pdir = f"/tmp/ner_ray_pages_sf{sf}"
    if not os.path.exists(os.path.join(pdir, "gold_links.parquet")):
        write_pages(pdir, n_pages, seed=42, n_files=8)
    return pdir


def q_host_link_graph(sf_dir: str):
    """Host-level link graph of the synthetic crawl: html → <a href> links →
    (src_host, dst_host, n_links), intra-host nav dropped; per-batch partial
    pair counts before ONE bucketed exchange (functions/weblinks.py).
    ORACLE-BACKED on the planted gold_links table (_web_oracle_sqls); the
    html parse itself stays pinned by the independent html.parser parity
    test in tests/test_weblinks.py."""
    from ..functions.weblinks import host_link_graph
    from .kg import pages_dataset

    pdir = _synthetic_pages_dir(sf_dir)
    g = host_link_graph(pages_dataset(pdir))
    return g.sort(["src_host", "dst_host"])


def q_anchor_texts(sf_dir: str):
    """Top-3 anchor texts per destination host (count desc, text asc) — the
    weak-label aggregation retrieval corpora are built from. Vocabulary-sized
    grouped top-k after per-batch partial counting. Oracle-backed on
    gold_links (grouped QUALIFY top-k, _web_oracle_sqls)."""
    from ..functions.weblinks import anchor_top_terms
    from .kg import pages_dataset

    pdir = _synthetic_pages_dir(sf_dir)
    out = anchor_top_terms(pages_dataset(pdir), k=3)
    return out.sort(["dst_host", "anchor"])


def q_host_pagerank(sf_dir: str):
    """Integer-exact PageRank over the host link graph (crawl-prioritization
    signal): link extraction → host-pair aggregate → hash_join power
    iteration → name attach, every step partitioned. Oracle-backed: the
    unrolled integer-CTE replication over gold_links (_web_oracle_sqls)."""
    from ..functions.weblinks import host_pagerank
    from .kg import pages_dataset

    pdir = _synthetic_pages_dir(sf_dir)
    pr = host_pagerank(pages_dataset(pdir), n_iters=3)
    return pr.sort(["pr", "host"], descending=[True, False])


def q_url_canonical_dedup(sf_dir: str):
    """Canonical-URL dedup — the first pass of every crawl pipeline: the same
    article arrives as clean / SHOUTING-host + trailing-slash / tracking-param
    variants, and dedup keys on ``canonical_url`` (functions/weblinks.py:
    lowercase authority, drop fragment + utm_*/ref params, strip trailing
    slash). URLs are derived deterministically from ``doc_id`` — three
    variants per article index — so the oracle replicates both the derivation
    and the normalization in SQL and the match is exact.

    Plan: read doc_id ONLY → row-local derive+canonicalize → PER-BATCH
    (canonical_url, partial count, partial min) partials → ONE bucketed
    exchange of Sum + Min. At crawl scale the shuffle ships distinct-url-,
    not corpus-, sized rows — never page bytes — and variant triples that
    co-reside in a batch collapse before the exchange."""
    from ray.data.aggregate import Min, Sum

    from ..functions.weblinks import canonical_url
    from ..stages.canonicalize import grouped_aggregate

    def derive(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy()
        urls = []
        for d in ids:
            a = int(d) // 3
            s = a % 7
            v = int(d) % 3
            if v == 0:
                u = f"https://www.s{s}.example.org/a/{a}"
            elif v == 1:
                u = f"HTTPS://WWW.S{s}.EXAMPLE.ORG/a/{a}/"
            else:
                u = f"https://www.s{s}.example.org/a/{a}?utm_source=feed&ref=tw#frag"
            urls.append(canonical_url(u))
        part = (
            pd.DataFrame({"canonical_url": urls, "doc_id": ids})
            .groupby("canonical_url", sort=False)
            .agg(n_variants=("doc_id", "size"), keep_doc_id=("doc_id", "min"))
            .reset_index()
        )
        return pa.Table.from_pandas(part, preserve_index=False)

    docs = _rp(sf_dir, "documents", ["doc_id"]).map_batches(
        derive, batch_format="pyarrow"
    )
    out = grouped_aggregate(
        docs,
        ["canonical_url"],
        Sum("n_variants", alias_name="n_variants"),
        Min("keep_doc_id", alias_name="keep_doc_id"),
    )
    return out.sort("canonical_url")


def q_redirect_resolve(sf_dir: str):
    """Redirect/alias CHAIN RESOLUTION — the crawl op that maps every URL to
    its terminal target through arbitrarily long redirect chains (301 hops,
    URL aliases), plus the hop count. The synthetic redirect function is
    next(d) = d/2 for even d (odd ids and 0 are terminal), so chains are
    d → d/2 → … → odd, length = trailing-zero count of d — which gives the
    oracle a CLOSED FORM: target = d // (d & -d), hops = bit_count((d & -d)
    − 1). No recursion in SQL, yet the engine must genuinely follow chains.

    Plan: RECURSIVE DOUBLING — ptr_{k+1}(x) = ptr_k(ptr_k(x)), hops add —
    one partitioned self-``hash_join`` per round on the node-sized pointer
    table, rounds = ⌈log₂(bit-length of max id)⌉ ≥ ⌈log₂ max_chain⌉ (4 at
    sf0.01; a 10¹²-url table needs 6). Terminals self-loop so saturation
    is free. This is the pointer-jumping primitive canonicalization's
    connected components already uses, applied to a functional graph."""
    from ..stages.joins import hash_join

    def init(t: pa.Table) -> pa.Table:
        d = pc.cast(t.column("doc_id"), pa.int64()).to_numpy()
        even = (d % 2 == 0) & (d > 0)
        ptr = np.where(even, d // 2, d)
        hops = even.astype(np.int64)
        return pa.table(
            {"doc_id": pa.array(d, pa.int64()),
             "ptr": pa.array(ptr, pa.int64()),
             "hops": pa.array(hops, pa.int64())}
        )

    state = _rp(sf_dir, "documents", ["doc_id"]).map_batches(
        init, batch_format="pyarrow"
    ).materialize()
    # rounds sized to the longest POSSIBLE chain: max hops = bit-length of
    # the max id, doubling covers 2^rounds hops. Partition count stays small
    # — the pointer table is node-sized, and each extra partition is a fixed
    # per-round task cost, not a win, until the table outgrows one heap.
    max_id = int(state.max("doc_id") or 0)
    rounds = max(1, math.ceil(math.log2(max(2, max_id.bit_length()))))
    nparts = 8
    for _ in range(rounds):
        right = state.map_batches(
            lambda t: pa.table(
                {"ptr": pc.cast(t.column("doc_id"), pa.int64()),
                 "ptr_b": pc.cast(t.column("ptr"), pa.int64()),
                 "hops_b": pc.cast(t.column("hops"), pa.int64())}
            ),
            batch_format="pyarrow",
        )
        # LEFT join + coalesce: a pointer target outside the id domain
        # (non-dense tables, filtered subsets) keeps its row as-is instead
        # of being silently dropped by an inner join
        joined = hash_join(state, right, on=["ptr"], how="left",
                           num_partitions=nparts)
        state = joined.map_batches(
            lambda df: pd.DataFrame(
                {"doc_id": df["doc_id"].astype("int64"),
                 "ptr": df["ptr_b"].where(df["ptr_b"].notna(), df["ptr"])
                 .astype("int64"),
                 "hops": (df["hops"] + df["hops_b"].fillna(0)).astype("int64")}
            ),
            batch_format="pandas",
        ).materialize()

    out = state.map_batches(
        lambda df: pd.DataFrame(
            {"doc_id": df["doc_id"].astype("int64"),
             "target_id": df["ptr"].astype("int64"),
             "n_hops": df["hops"].astype("int64")}
        ),
        batch_format="pandas",
    )
    return out.sort("doc_id")


def q_dangling_links(sf_dir: str):
    """Broken-link audit of the synthetic crawl: per destination host, how
    many cross-host link targets were never captured (Bloom prefilter +
    gated exact verify — functions/weblinks.dangling_links). Oracle-backed:
    LEFT-join anti-join audit over gold_links × gold_text
    (_web_oracle_sqls); a pandas replication additionally pins BOTH verify
    paths in tests/test_weblinks.py."""
    from ..functions.weblinks import dangling_links
    from .kg import pages_dataset

    pdir = _synthetic_pages_dir(sf_dir)
    out = dangling_links(pages_dataset(pdir))
    return out.sort("dst_host")


def q_robots_filter(sf_dir: str):
    """Robots-compliance gate on the crawl frontier: per destination host,
    how many cross-host link targets are blocked by the host's robots.txt
    (RFC 9309 longest-match over a deterministic per-host rules cache).
    Oracle-backed: the fixture's rule SHAPE (Disallow prefix + longer Allow
    carve-out) is replicated in SQL over robots.parquet × gold_links
    (_web_oracle_sqls); general parser semantics stay pinned in
    tests/test_weblinks.py."""
    import ray.data as _rd

    from ..functions.weblinks import robots_frontier_filter
    from ..sources.pages import write_robots
    from .kg import pages_dataset

    pdir = _synthetic_pages_dir(sf_dir)
    rpath = os.path.join(pdir, "robots.parquet")
    if not os.path.exists(rpath):
        write_robots(pdir, seed=42)
    out = robots_frontier_filter(pages_dataset(pdir), _rd.read_parquet(rpath))
    return out.sort("dst_host")


def q_rendezvous_shards(sf_dir: str):
    """Rendezvous (highest-random-weight) consistent shard assignment + the
    RESHARD MOVEMENT MATRIX for growing 8 → 9 shards — the partitioner
    primitive a 100-TB store uses so adding capacity moves only ~1/(S+1) of
    the data: shard(d) = argmax_s md5(d:s), and because every candidate
    weight is independent of S, a document's argmax under S+1 shards either
    stays put or moves TO the new shard — never between old shards. The
    output (old_shard, new_shard, n_docs) makes that invariant visible
    (every off-diagonal row has new_shard = 8) and the oracle replicates
    both argmaxes in SQL (md5 hex compares identically). md5 is the
    oracle-parity choice; a production reshard would use the crc32-style
    fast path, same convention as the minhash family.

    Plan: row-local double argmax inside map_batches, per-batch (old, new)
    partial counts, ONE bucketed exchange over the ≤ S·(S+1) matrix cells."""
    import hashlib

    from ray.data.aggregate import Sum

    from ..stages.canonicalize import grouped_aggregate

    S_OLD, S_NEW = 8, 9

    def assign(t: pa.Table) -> pa.Table:
        ids = pc.cast(t.column("doc_id"), pa.int64()).to_numpy()
        old = np.empty(len(ids), dtype=np.int64)
        new = np.empty(len(ids), dtype=np.int64)
        for i, d in enumerate(ids):
            hs = [hashlib.md5(f"{d}:{s}".encode()).hexdigest()
                  for s in range(S_NEW)]
            old[i] = max(range(S_OLD), key=hs.__getitem__)
            new[i] = max(range(S_NEW), key=hs.__getitem__)
        part = (
            pd.DataFrame({"old_shard": old, "new_shard": new})
            .groupby(["old_shard", "new_shard"], sort=False)
            .size()
            .reset_index(name="n_docs")
        )
        return pa.Table.from_pandas(part, preserve_index=False)

    cells = grouped_aggregate(
        _rp(sf_dir, "documents", ["doc_id"]).map_batches(
            assign, batch_format="pyarrow"
        ),
        ["old_shard", "new_shard"],
        Sum("n_docs", alias_name="n_docs"),
    )
    return cells.sort(["old_shard", "new_shard"])


def q_crawl_frontier(sf_dir: str):
    """Recrawl-prioritization frontier over the synthetic crawl: per host —
    page count, latest capture, PageRank, priority = pr × staleness in
    whole DAYS (integer-exact and int64-overflow-safe; see
    functions/weblinks.crawl_frontier). Uncrawled link targets surface with
    n_pages=0 and maximal staleness — the discover-new-hosts path; crawled
    hosts without link evidence carry pr=0 via the full-outer join.
    Oracle-backed: full-outer + integer scoring over the pagerank CTE and
    the pages table (_web_oracle_sqls); the composition is additionally
    pinned by tests/test_weblinks.py against a pandas replication."""
    from ..functions.weblinks import crawl_frontier
    from .kg import pages_dataset

    pdir = _synthetic_pages_dir(sf_dir)
    out = crawl_frontier(pages_dataset(pdir, with_ts=True), n_iters=3)
    return out.sort(["priority", "host"], descending=[True, False])


def _gold_pr_cte(pdir: str, n_iters: int = 3) -> str:
    """Shared link-graph CTE prefix over gold_links: distinct cross-host
    pairs → symmetrized edge list → degrees → the unrolled integer power
    iteration of functions/graph.pagerank (the _pagerank_sql technique,
    host-keyed). Final ranks live in CTE ``p{n_iters}``."""
    scale = 10**12
    gl = f"read_parquet('{pdir}/gold_links.parquet')"
    pr_parts = [f"""
        e AS (SELECT DISTINCT split_part(src_url, '/', 3) AS u,
                              split_part(dst_url, '/', 3) AS v
              FROM {gl}
              WHERE split_part(src_url, '/', 3) <> split_part(dst_url, '/', 3)),
        s AS (SELECT u AS src, v AS dst FROM e
              UNION ALL SELECT v AS src, u AS dst FROM e),
        d AS (SELECT src AS node, COUNT(*) AS outdeg FROM s GROUP BY src),
        nn AS (SELECT COUNT(*) AS n FROM d),
        p0 AS (SELECT d.node, d.outdeg,
                      CAST({scale} // nn.n AS BIGINT) AS pr
               FROM d CROSS JOIN nn)"""]
    for i in range(1, n_iters + 1):
        pr_parts.append(f""",
        p{i} AS (SELECT d.node, d.outdeg,
                        CAST((15 * ({scale} // nn.n)) // 100
                             + (85 * c{i}.contrib) // 100 AS BIGINT) AS pr
                 FROM d CROSS JOIN nn
                 JOIN (SELECT s2.dst AS node, SUM(p.pr // p.outdeg) AS contrib
                       FROM p{i - 1} p JOIN s s2 ON s2.src = p.node
                       GROUP BY s2.dst) c{i} ON c{i}.node = d.node)""")
    return "".join(pr_parts)


def _web_oracle_sqls(pdir: str) -> dict:
    """DuckDB oracles for the web family, over the PLANTED gold tables the
    fixture generator writes alongside the pages (sources/pages.py:
    ``gold_links.parquet`` = exactly the <aside> links rendered into the
    html, ``gold_text.parquet`` = one row per crawled url,
    ``robots.parquet`` = the per-host robots bodies). The engine side still
    parses the html itself — only the PARSE stays pinned by the independent
    html.parser parity test (tests/test_weblinks.py); every aggregation
    layer above it (host pairs, anchor top-k, the integer power iteration,
    the frontier outer-join scoring, the anti-join audit, the RFC 9309
    longest-match tally) is externally hash-checked here.

    Host of ``https://host/path`` is ``split_part(url, '/', 3)`` (generator
    urls are already lowercase); the robots oracle parses the fixture's
    body SHAPE (one Disallow prefix + one longer Allow carve-out, or the
    empty-Disallow allow-all form) with regexp_extract — general RFC
    semantics stay pinned by tests/test_weblinks.py."""
    n_iters = 3
    gl = f"read_parquet('{pdir}/gold_links.parquet')"
    pr_cte = _gold_pr_cte(pdir, n_iters)

    return {
        "host_link_graph": f"""
            SELECT src_host, dst_host, COUNT(*) AS n_links FROM (
                SELECT split_part(src_url, '/', 3) AS src_host,
                       split_part(dst_url, '/', 3) AS dst_host
                FROM {gl})
            WHERE src_host <> dst_host
            GROUP BY 1, 2
        """,
        "anchor_texts": f"""
            SELECT dst_host, anchor, n FROM (
                SELECT dst_host, anchor, COUNT(*) AS n FROM (
                    SELECT split_part(src_url, '/', 3) AS src_host,
                           split_part(dst_url, '/', 3) AS dst_host, anchor
                    FROM {gl})
                WHERE src_host <> dst_host AND anchor <> ''
                GROUP BY 1, 2)
            QUALIFY ROW_NUMBER() OVER (
                PARTITION BY dst_host ORDER BY n DESC, anchor) <= 3
        """,
        "host_pagerank": f"""
            WITH {pr_cte}
            SELECT node AS host, pr FROM p{n_iters}
        """,
        "dangling_links": f"""
            WITH cl AS (
                SELECT dst_host, dst_url FROM (
                    SELECT split_part(src_url, '/', 3) AS src_host,
                           split_part(dst_url, '/', 3) AS dst_host, dst_url
                    FROM {gl})
                WHERE src_host <> dst_host),
            u AS (SELECT url FROM read_parquet('{pdir}/gold_text.parquet'))
            SELECT cl.dst_host, COUNT(*) AS n_links,
                   CAST(SUM(CASE WHEN u.url IS NULL THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_dangling
            FROM cl LEFT JOIN u ON cl.dst_url = u.url
            GROUP BY cl.dst_host
        """,
        "robots_filter": f"""
            WITH r AS (
                SELECT host,
                       regexp_extract(body, 'Disallow: (/article-[0-9]+)', 1)
                           AS dis,
                       regexp_extract(body, 'Allow: (/article-[0-9]+)', 1)
                           AS alw
                FROM read_parquet('{pdir}/robots.parquet')),
            cl AS (
                SELECT dst_host, '/' || split_part(dst_url, '/', 4) AS path
                FROM (
                    SELECT split_part(src_url, '/', 3) AS src_host,
                           split_part(dst_url, '/', 3) AS dst_host, dst_url
                    FROM {gl})
                WHERE src_host <> dst_host)
            SELECT cl.dst_host, COUNT(*) AS n_links,
                   CAST(SUM(CASE WHEN r.dis IS NOT NULL AND r.dis <> ''
                                      AND starts_with(cl.path, r.dis)
                                      AND NOT starts_with(cl.path, r.alw)
                                 THEN 1 ELSE 0 END) AS BIGINT) AS n_blocked
            FROM cl LEFT JOIN r ON cl.dst_host = r.host
            GROUP BY cl.dst_host
        """,
        "crawl_frontier": f"""
            WITH {pr_cte},
            prt AS (SELECT node AS host, pr FROM p{n_iters}),
            crawled AS (
                SELECT split_part(url, '/', 3) AS host,
                       COUNT(*) AS n_pages,
                       MAX(epoch_us(warc_ts)) AS latest_ts
                FROM read_parquet('{pdir}/pages-*.parquet') GROUP BY 1),
            now_t AS (SELECT MAX(latest_ts) AS now_us FROM crawled)
            SELECT COALESCE(prt.host, crawled.host) AS host,
                   CAST(COALESCE(crawled.n_pages, 0) AS BIGINT) AS n_pages,
                   CAST(COALESCE(crawled.latest_ts, 0) AS BIGINT) AS latest_ts,
                   CAST(COALESCE(prt.pr, 0) AS BIGINT) AS pr,
                   CAST(COALESCE(prt.pr, 0)
                        * ((now_t.now_us - COALESCE(crawled.latest_ts, 0))
                           // 86400000000) AS BIGINT) AS priority
            FROM prt FULL OUTER JOIN crawled ON prt.host = crawled.host
            CROSS JOIN now_t
        """,
    }


# --------------------------------------------------------------------------
# KG-analytics family over the fixture's gold tables (round-4 additions):
# the graph-side consumers of the flagship pipeline's output shape —
# co-occurrence networks, triple aggregation/provenance, relation
# composition, ontology induction — each oracle-backed on the SAME planted
# tables the web family uses (_synthetic_pages_dir), so the driver
# hash-checks every aggregation layer externally.
# --------------------------------------------------------------------------

def _gold(sf_dir: str, name: str, columns=None):
    """Read a planted gold table of the sf-scaled synthetic crawl."""
    pdir = _synthetic_pages_dir(sf_dir)
    return ray.data.read_parquet(
        os.path.join(pdir, f"{name}.parquet"), columns=columns)


#: Driver-side broadcast bound for the gold_entities gazetteer — matches
#: run_kg's ``broadcast_limit`` default (pipelines/kg.py:164): below this the
#: surface→canonical map ships once via ray.put; above it the same resolution
#: runs as a partitioned hash_join so a 10⁸-surface real assignment table
#: never lands on the driver.
GOLD_BROADCAST_LIMIT = 2_000_000


def _gold_entities_sql(pdir: str) -> str:
    """The gazetteer as the oracles join it: one row per surface, its MIN
    canonical — the same resolution as :func:`_canon_surfaces`."""
    return (f"(SELECT surface, MIN(canonical) AS canonical FROM "
            f"read_parquet('{pdir}/gold_entities.parquet') GROUP BY surface)")


def _canon_surfaces(ds, sf_dir: str, mapping, *, broadcast_limit=None):
    """Alias-resolve surface columns of ``ds`` against the ``gold_entities``
    gazetteer with the kg.py S7b broadcast-vs-hash-join gate (kg.py:346).

    ``mapping`` = [(src_col, dst_col), ...]: each src column resolves to its
    canonical entity in dst_col; rows whose src has NO gazetteer entry are
    DROPPED (inner semantics — every KG-analytics call site filters unknown
    surfaces). A surface listed under several canonicals resolves to the
    MIN one: the gazetteer is reduced to one row per surface BEFORE the
    gate, so neither plan sees a duplicate key (a broadcast dict would keep
    one arbitrary row, a join would emit every match). Below the gate the
    dict is broadcast and applied vectorized (pandas ``.map``, one C-level
    dict probe per row); above it each column resolves through a
    partitioned hash_join against the gazetteer dataset. Both plans produce
    the same multiset of rows (order differs — every caller aggregates or
    sorts downstream); the forced-join parity tests are
    tests/test_scale_gates.py.
    """
    from ..stages.canonicalize import grouped_aggregate
    from ..stages.joins import hash_join

    limit = GOLD_BROADCAST_LIMIT if broadcast_limit is None else broadcast_limit
    ge = grouped_aggregate(_gold(sf_dir, "gold_entities", ["surface", "canonical"]),
                           ["surface"], Min("canonical", alias_name="canonical")
                           ).materialize()
    if ge.count() <= limit:
        m: dict = {}
        for b in ge.iter_batches(batch_size=65536, batch_format="pyarrow"):
            m.update(zip(b.column("surface").to_pylist(),
                         b.column("canonical").to_pylist()))
        mref = ray.put(m)

        def apply(df: pd.DataFrame, _mapping=tuple(mapping)) -> pd.DataFrame:
            mm = ray.get(mref)
            for src, dst in _mapping:
                df = df.assign(**{dst: df[src].map(mm)})
                df = df.dropna(subset=[dst])
            return df

        return ds.map_batches(apply, batch_format="pandas")

    out = ds
    for src, dst in mapping:
        side = ge.map_batches(
            lambda t, s=src, d=dst: pa.table(
                {s: t.column("surface"), d: t.column("canonical")}),
            batch_format="pyarrow")
        out = hash_join(out, side, on=[src])
    return out


def q_entity_cooccurrence(sf_dir: str, *, broadcast_limit=None):
    """Sentence-level entity CO-OCCURRENCE network from the mentions table —
    the classic KG signal feeding relatedness ranking and link prediction:
    for every unordered pair of DISTINCT canonical entities mentioned in the
    same sentence, the number of co-mentioning sentences.

    Plan: canonicalization through the gated ``_canon_surfaces`` helper
    (broadcast dict below GOLD_BROADCAST_LIMIT, partitioned hash_join
    above); sentences are co-located by ONE bucketed groupby on
    hash(url, sent_id) (a sentence's mentions must meet — per-batch pairing
    would split sentences across batch boundaries); pair rows are per-group
    partials into one bucketed Sum. Pair traffic ∝ Σ m² per sentence with
    m ≤ a dozen — never corpus-scaled."""
    from ray.data.aggregate import Sum

    from ..functions.hashing import stable_hash64
    from ..stages.canonicalize import grouped_aggregate

    mentions = _gold(sf_dir, "gold_mentions", ["url", "sent_id", "surface"])
    canon = _canon_surfaces(mentions, sf_dir, [("surface", "canonical")],
                            broadcast_limit=broadcast_limit)

    def bucket(df: pd.DataFrame) -> pd.DataFrame:
        b = [stable_hash64(f"coo:{u}:{s}") % 64
             for u, s in zip(df["url"], df["sent_id"].astype("int64"))]
        return df[["url", "sent_id", "canonical"]].assign(
            _b=np.asarray(b, np.int64))

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        out: dict[tuple[str, str], int] = {}
        for (_, _), grp in df.groupby(["url", "sent_id"], sort=False):
            es = sorted(set(grp["canonical"]))
            for i in range(len(es)):
                for j in range(i + 1, len(es)):
                    k = (es[i], es[j])
                    out[k] = out.get(k, 0) + 1
        return pd.DataFrame(
            {"ent_a": [k[0] for k in out], "ent_b": [k[1] for k in out],
             "n_sents": list(out.values())}
        )

    partial = (
        canon.map_batches(bucket, batch_format="pandas")
        .groupby("_b")
        .map_groups(pairs, batch_format="pandas")
    )
    out = grouped_aggregate(
        partial, ["ent_a", "ent_b"], Sum("n_sents", alias_name="n_sents")
    )
    return out.sort(["ent_a", "ent_b"])


def q_triple_support(sf_dir: str):
    """Triple AGGREGATION with support counts — the dedup/confidence pass a
    KG store runs over raw extractions: per distinct (subj, pred, obj), the
    total occurrence count and the number of distinct source urls
    (provenance breadth). Per-batch (triple, count) partials + per-batch
    url-set dedup rows → one bucketed exchange each."""
    from ray.data.aggregate import Sum

    from ..stages.canonicalize import grouped_aggregate

    tr = _gold(sf_dir, "gold_triples", ["url", "subj", "pred", "obj"])

    def partial(t: pa.Table) -> pd.DataFrame:
        df = pa.Table.from_arrays(
            [t.column("subj"), t.column("pred"), t.column("obj"),
             t.column("url")],
            names=["subj", "pred", "obj", "url"]).to_pandas()
        g = df.groupby(["subj", "pred", "obj"], sort=False).agg(
            n_occurrences=("url", "size"))
        d = (df.drop_duplicates(["subj", "pred", "obj", "url"])
             .groupby(["subj", "pred", "obj"], sort=False)
             .agg(_u=("url", "size")))
        return g.join(d).reset_index()

    counts = grouped_aggregate(
        tr.map_batches(partial, batch_format="pyarrow"),
        ["subj", "pred", "obj"],
        Sum("n_occurrences", alias_name="n_occurrences"),
    )
    # distinct url count needs exact dedup across batches: one
    # (triple, url)-keyed count of distinct rows, then a triple-keyed count
    dist = grouped_aggregate(
        tr.map_batches(
            lambda t: pa.Table.from_arrays(
                [t.column("subj"), t.column("pred"), t.column("obj"),
                 t.column("url"),
                 pa.array(np.ones(t.num_rows, np.int64))],
                names=["subj", "pred", "obj", "url", "one"]),
            batch_format="pyarrow"),
        ["subj", "pred", "obj", "url"],
        Sum("one", alias_name="one"),
    )
    durls = grouped_aggregate(
        dist.map_batches(
            lambda t: t.drop_columns(["one"]).append_column(
                "n_urls", pa.array(np.ones(t.num_rows, np.int64))),
            batch_format="pyarrow"),
        ["subj", "pred", "obj"],
        Sum("n_urls", alias_name="n_urls"),
    )
    from ..stages.joins import hash_join

    out = hash_join(counts, durls, on=["subj", "pred", "obj"])
    return out.map_batches(
        lambda df: df[["subj", "pred", "obj", "n_occurrences", "n_urls"]]
        .astype({"n_occurrences": "int64", "n_urls": "int64"}),
        batch_format="pandas",
    ).sort(["subj", "pred", "obj"])


def q_kg_two_hop(sf_dir: str):
    """Relation COMPOSITION census — the 2-hop path counts that drive rule
    mining (e.g. founded ∘ located_in): for every ordered predicate pair
    (p1, p2), the number of entity paths a —p1→ b —p2→ c over DISTINCT
    triples. One partitioned hash_join on the shared midpoint entity, then
    per-batch (p1, p2) partial counts into a predicate-vocabulary-sized
    exchange. Midpoint entities are the join key — head-entity skew is
    bounded by the gazetteer here; at 10¹²-triple scale the hot-midpoint
    split is skewed_hash_join's job (stages/joins.py)."""
    from ray.data.aggregate import Sum

    from ..stages.canonicalize import grouped_aggregate
    from ..stages.joins import hash_join

    tr = _gold(sf_dir, "gold_triples", ["subj", "pred", "obj"])

    def dedup_partial(t: pa.Table) -> pd.DataFrame:
        return (t.to_pandas()
                .drop_duplicates(["subj", "pred", "obj"])
                .assign(one=np.int64(1)))

    dist = grouped_aggregate(
        tr.map_batches(dedup_partial, batch_format="pyarrow"),
        ["subj", "pred", "obj"],
        Sum("one", alias_name="one"),
    ).drop_columns(["one"]).materialize()

    left = dist.map_batches(
        lambda t: pa.Table.from_arrays(
            [t.column("obj"), t.column("pred")], names=["mid", "p1"]),
        batch_format="pyarrow")
    right = dist.map_batches(
        lambda t: pa.Table.from_arrays(
            [t.column("subj"), t.column("pred")], names=["mid", "p2"]),
        batch_format="pyarrow")
    joined = hash_join(left, right, on=["mid"])

    def pcount(df: pd.DataFrame) -> pd.DataFrame:
        return (df.groupby(["p1", "p2"], sort=False).size()
                .reset_index(name="n_paths"))

    out = grouped_aggregate(
        joined.map_batches(pcount, batch_format="pandas"),
        ["p1", "p2"],
        Sum("n_paths", alias_name="n_paths"),
    )
    return out.sort(["p1", "p2"])


def q_alias_mention_counts(sf_dir: str, *, broadcast_limit=None):
    """Entity-linking ROLLUP: mention counts per CANONICAL entity after alias
    resolution (the gazetteer's alias groups collapse 'Big Blue' into the
    same canonical id as 'IBM'). Alias resolution through the gated
    ``_canon_surfaces`` helper; counting is per-batch partials into one
    bucketed Sum. Output: (canonical, n_mentions, n_surfaces)."""
    from ray.data.aggregate import Sum

    from ..stages.canonicalize import grouped_aggregate

    canon = _canon_surfaces(
        _gold(sf_dir, "gold_mentions", ["surface"]), sf_dir,
        [("surface", "canonical")], broadcast_limit=broadcast_limit)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return (df.groupby("canonical", sort=False)
                .agg(n_mentions=("surface", "size")).reset_index())

    counts = grouped_aggregate(
        canon.map_batches(partial, batch_format="pandas"),
        ["canonical"],
        Sum("n_mentions", alias_name="n_mentions"),
    )
    # distinct surfaces OBSERVED in the corpus per canonical: dedup
    # (canonical, surface) first, then count — same two-aggregate shape as
    # q_triple_support's distinct-url branch
    def surf_rows(df: pd.DataFrame) -> pd.DataFrame:
        return (df[["canonical", "surface"]].drop_duplicates()
                .assign(one=np.int64(1)))

    dsurf = grouped_aggregate(
        canon.map_batches(surf_rows, batch_format="pandas"),
        ["canonical", "surface"],
        Sum("one", alias_name="one"),
    )
    nsurf = grouped_aggregate(
        dsurf.map_batches(
            lambda t: pa.Table.from_arrays(
                [t.column("canonical"),
                 pa.array(np.ones(t.num_rows, np.int64))],
                names=["canonical", "n_surfaces"]),
            batch_format="pyarrow"),
        ["canonical"],
        Sum("n_surfaces", alias_name="n_surfaces"),
    )
    from ..stages.joins import hash_join

    out = hash_join(counts, nsurf, on=["canonical"])
    return out.map_batches(
        lambda df: df[["canonical", "n_mentions", "n_surfaces"]]
        .astype({"n_mentions": "int64", "n_surfaces": "int64"}),
        batch_format="pandas",
    ).sort("canonical")


def q_triple_provenance(sf_dir: str):
    """PROVENANCE top-k: for every distinct triple, the top-2 source urls by
    occurrence count (count desc, url asc — deterministic ties) — the
    evidence-retrieval index a KG serves alongside each edge. Grouped top-k
    over the (triple, url)-vocabulary table, bucketed by triple hash so one
    task sees a whole triple's url set but never one giant group."""
    from ray.data.aggregate import Sum

    from ..functions.hashing import stable_hash64
    from ..stages.canonicalize import grouped_aggregate

    tr = _gold(sf_dir, "gold_triples", ["url", "subj", "pred", "obj"])

    def partial(t: pa.Table) -> pd.DataFrame:
        df = t.to_pandas()
        return (df.groupby(["subj", "pred", "obj", "url"], sort=False)
                .size().reset_index(name="n"))

    counts = grouped_aggregate(
        tr.map_batches(partial, batch_format="pyarrow"),
        ["subj", "pred", "obj", "url"],
        Sum("n", alias_name="n"),
    )

    def bucket(df: pd.DataFrame) -> pd.DataFrame:
        b = [stable_hash64(f"prov:{s}|{p}|{o}") % 32
             for s, p, o in zip(df["subj"], df["pred"], df["obj"])]
        return df.assign(_b=np.asarray(b, np.int64))

    def topk(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["subj", "pred", "obj", "n", "url"],
                            ascending=[True, True, True, False, True])
        return (df.groupby(["subj", "pred", "obj"], sort=False).head(2)
                [["subj", "pred", "obj", "url", "n"]])

    out = (
        counts.map_batches(bucket, batch_format="pandas")
        .groupby("_b")
        .map_groups(topk, batch_format="pandas")
    )
    return out.map_batches(
        lambda df: df.astype({"n": "int64"}), batch_format="pandas"
    ).sort(["subj", "pred", "obj", "url"])


def q_pred_type_matrix(sf_dir: str):
    """ONTOLOGY INDUCTION: the (subj_type, pred, obj_type) signature counts
    — which entity-type pairs each predicate connects, over DISTINCT
    (url, sent_id, surface)-keyed mentions. Two partitioned hash_joins
    attach subj/obj types by (url, sent_id, surface); per-batch signature
    partials meet in a predicate-vocabulary-sized exchange."""
    from ray.data.aggregate import Sum

    from ..stages.canonicalize import grouped_aggregate
    from ..stages.joins import hash_join

    men = _gold(sf_dir, "gold_mentions", ["url", "sent_id", "surface", "type"])

    def m_dedup(t: pa.Table) -> pd.DataFrame:
        df = t.to_pandas()
        df["sent_id"] = df["sent_id"].astype("int64")
        return df.drop_duplicates(["url", "sent_id", "surface", "type"]).assign(
            one=np.int64(1))

    mt = grouped_aggregate(
        men.map_batches(m_dedup, batch_format="pyarrow"),
        ["url", "sent_id", "surface", "type"],
        Sum("one", alias_name="one"),
    ).drop_columns(["one"]).materialize()

    tr = _gold(sf_dir, "gold_triples", ["url", "sent_id", "subj", "pred", "obj"])
    tr = tr.map_batches(
        lambda t: pa.Table.from_arrays(
            [t.column("url"), pc.cast(t.column("sent_id"), pa.int64()),
             t.column("subj"), t.column("pred"), t.column("obj")],
            names=["url", "sent_id", "subj", "pred", "obj"]),
        batch_format="pyarrow")

    sj = hash_join(
        tr,
        mt.map_batches(
            lambda t: pa.Table.from_arrays(
                [t.column("url"), t.column("sent_id"), t.column("surface"),
                 t.column("type")],
                names=["url", "sent_id", "subj", "subj_type"]),
            batch_format="pyarrow"),
        on=["url", "sent_id", "subj"],
    )
    oj = hash_join(
        sj,
        mt.map_batches(
            lambda t: pa.Table.from_arrays(
                [t.column("url"), t.column("sent_id"), t.column("surface"),
                 t.column("type")],
                names=["url", "sent_id", "obj", "obj_type"]),
            batch_format="pyarrow"),
        on=["url", "sent_id", "obj"],
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return (df.groupby(["subj_type", "pred", "obj_type"], sort=False)
                .size().reset_index(name="n"))

    out = grouped_aggregate(
        oj.map_batches(partial, batch_format="pandas"),
        ["subj_type", "pred", "obj_type"],
        Sum("n", alias_name="n"),
    )
    return out.sort(["subj_type", "pred", "obj_type"])


def q_host_reciprocity(sf_dir: str):
    """Link RECIPROCITY per host — the mutual-citation signal (spam farms
    show near-1.0, organic hubs much lower): for every linking host, its
    distinct cross-host out-neighbors and how many of those link BACK. The
    pair table comes from the html parse (host_link_graph); reciprocity is
    one self-hash_join of the pair table against its own reverse — pair-
    vocabulary sized, never link-sized."""
    from ray.data.aggregate import Sum

    from ..stages.canonicalize import grouped_aggregate
    from ..stages.joins import hash_join
    from ..functions.weblinks import host_link_graph
    from .kg import pages_dataset

    pdir = _synthetic_pages_dir(sf_dir)
    g = host_link_graph(pages_dataset(pdir)).select_columns(
        ["src_host", "dst_host"]).materialize()

    rev = g.map_batches(
        lambda t: pa.Table.from_arrays(
            [t.column("dst_host"), t.column("src_host"),
             pa.array(np.ones(t.num_rows, np.int64))],
            names=["src_host", "dst_host", "back"]),
        batch_format="pyarrow")
    tagged = hash_join(g, rev, on=["src_host", "dst_host"], how="left")

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df["back"] = df["back"].fillna(0).astype("int64")
        return (df.groupby("src_host", sort=False)
                .agg(n_out=("dst_host", "size"), n_reciprocal=("back", "sum"))
                .reset_index())

    out = grouped_aggregate(
        tagged.map_batches(partial, batch_format="pandas"),
        ["src_host"],
        Sum("n_out", alias_name="n_out"),
        Sum("n_reciprocal", alias_name="n_reciprocal"),
    )
    return out.sort("src_host")


def _kg_oracle_sqls(pdir: str) -> dict:
    """DuckDB oracles for the KG-analytics family over the planted gold
    tables (gold_mentions / gold_triples / gold_entities / gold_links) —
    same external-hash-check discipline as _web_oracle_sqls."""
    gm = f"read_parquet('{pdir}/gold_mentions.parquet')"
    gt = f"read_parquet('{pdir}/gold_triples.parquet')"
    ge = _gold_entities_sql(pdir)
    gl = f"read_parquet('{pdir}/gold_links.parquet')"
    return {
        "entity_cooccurrence": f"""
            WITH c AS (
                SELECT DISTINCT m.url, m.sent_id, e.canonical
                FROM {gm} m JOIN {ge} e USING (surface))
            SELECT a.canonical AS ent_a, b.canonical AS ent_b,
                   COUNT(*) AS n_sents
            FROM c a JOIN c b
              ON a.url = b.url AND a.sent_id = b.sent_id
             AND a.canonical < b.canonical
            GROUP BY 1, 2
        """,
        "triple_support": f"""
            SELECT subj, pred, obj, COUNT(*) AS n_occurrences,
                   COUNT(DISTINCT url) AS n_urls
            FROM {gt} GROUP BY 1, 2, 3
        """,
        "kg_two_hop": f"""
            WITH d AS (SELECT DISTINCT subj, pred, obj FROM {gt})
            SELECT a.pred AS p1, b.pred AS p2, COUNT(*) AS n_paths
            FROM d a JOIN d b ON a.obj = b.subj GROUP BY 1, 2
        """,
        "alias_mention_counts": f"""
            SELECT e.canonical, COUNT(*) AS n_mentions,
                   COUNT(DISTINCT m.surface) AS n_surfaces
            FROM {gm} m JOIN {ge} e USING (surface)
            GROUP BY 1
        """,
        "triple_provenance": f"""
            SELECT subj, pred, obj, url, n FROM (
                SELECT subj, pred, obj, url, COUNT(*) AS n
                FROM {gt} GROUP BY 1, 2, 3, 4)
            QUALIFY ROW_NUMBER() OVER (
                PARTITION BY subj, pred, obj ORDER BY n DESC, url) <= 2
        """,
        "pred_type_matrix": f"""
            WITH mt AS (SELECT DISTINCT url, sent_id, surface, type FROM {gm}),
            t AS (SELECT url, sent_id, subj, pred, obj FROM {gt})
            SELECT s.type AS subj_type, t.pred, o.type AS obj_type,
                   COUNT(*) AS n
            FROM t
            JOIN mt s ON t.url = s.url AND t.sent_id = s.sent_id
                     AND t.subj = s.surface
            JOIN mt o ON t.url = o.url AND t.sent_id = o.sent_id
                     AND t.obj = o.surface
            GROUP BY 1, 2, 3
        """,
        "host_reciprocity": f"""
            WITH p AS (
                SELECT DISTINCT split_part(src_url, '/', 3) AS src_host,
                                split_part(dst_url, '/', 3) AS dst_host
                FROM {gl}
                WHERE split_part(src_url, '/', 3) <> split_part(dst_url, '/', 3))
            SELECT p.src_host, COUNT(*) AS n_out,
                   CAST(SUM(CASE WHEN r.src_host IS NOT NULL
                                 THEN 1 ELSE 0 END) AS BIGINT) AS n_reciprocal
            FROM p LEFT JOIN p r
              ON p.src_host = r.dst_host AND p.dst_host = r.src_host
            GROUP BY 1
        """,
    }


# --------------------------------------------------------------------------
# Round-4 batch 2: crawl-operations + KG-graph consumers
# --------------------------------------------------------------------------

def q_url_inlink_topk(sf_dir: str):
    """URL-level AUTHORITY top-k: the 20 link targets with the most DISTINCT
    linking hosts (in-degree by host, the page-level citation signal under
    host PageRank). Plan: per-batch distinct (dst_url, src_host) pairs →
    one bucketed distinct-pair aggregate → per-url host count → tiny global
    sort+limit over the url-vocabulary counts (never link-sized)."""
    from ray.data.aggregate import Sum

    from ..functions.weblinks import links_table
    from ..stages.canonicalize import grouped_aggregate
    from .kg import pages_dataset

    pdir = _synthetic_pages_dir(sf_dir)
    links = links_table(pages_dataset(pdir))

    def pair_partial(t: pa.Table) -> pd.DataFrame:
        t = t.filter(pc.not_equal(t.column("src_host"), t.column("dst_host")))
        return (t.select(["dst_url", "src_host"]).to_pandas()
                .drop_duplicates().assign(one=np.int64(1)))

    pairs = grouped_aggregate(
        links.map_batches(pair_partial, batch_format="pyarrow"),
        ["dst_url", "src_host"],
        Sum("one", alias_name="one"),
    )
    counts = grouped_aggregate(
        pairs.map_batches(
            lambda t: pa.Table.from_arrays(
                [t.column("dst_url"), pa.array(np.ones(t.num_rows, np.int64))],
                names=["dst_url", "n_hosts"]),
            batch_format="pyarrow"),
        ["dst_url"],
        Sum("n_hosts", alias_name="n_hosts"),
    )
    return counts.sort(["n_hosts", "dst_url"], descending=[True, False]).limit(20)


def q_link_graph_diff(sf_dir: str):
    """Link-graph SNAPSHOT DIFF — the maintenance audit between two crawls:
    host-pair counts of the 'old' crawl (even article indices) vs the 'new'
    crawl (odd indices), each pair classified added / removed / changed /
    stable. The split is a pure function of the source url, so the oracle
    replicates it; the diff itself is the FULL-OUTER comparison pattern
    (snapshot_delta) applied to edge tables: side-tagged per-batch partials
    meet in ONE bucketed two-column Sum — no join at all."""
    from ray.data.aggregate import Sum

    from ..functions.weblinks import links_table
    from ..stages.canonicalize import grouped_aggregate
    from .kg import pages_dataset

    pdir = _synthetic_pages_dir(sf_dir)
    links = links_table(pages_dataset(pdir))

    def partial(t: pa.Table) -> pd.DataFrame:
        t = t.filter(pc.not_equal(t.column("src_host"), t.column("dst_host")))
        df = t.select(["src_host", "dst_host", "src_url"]).to_pandas()
        idx = df["src_url"].str.extract(r"(\d+)$")[0].astype("int64")
        side = (idx % 2).to_numpy(np.int64)
        df = df.assign(
            old_n=(side == 0).astype(np.int64),
            new_n=(side == 1).astype(np.int64))
        return (df.groupby(["src_host", "dst_host"], sort=False)
                .agg(old_n=("old_n", "sum"), new_n=("new_n", "sum"))
                .reset_index())

    agg = grouped_aggregate(
        links.map_batches(partial, batch_format="pyarrow"),
        ["src_host", "dst_host"],
        Sum("old_n", alias_name="old_n"),
        Sum("new_n", alias_name="new_n"),
    )

    def classify(df: pd.DataFrame) -> pd.DataFrame:
        old_n = df["old_n"].astype("int64")
        new_n = df["new_n"].astype("int64")
        change = np.where(
            old_n == 0, "added",
            np.where(new_n == 0, "removed",
                     np.where(old_n != new_n, "changed", "stable")))
        return df.assign(old_n=old_n, new_n=new_n, change=change)

    return agg.map_batches(classify, batch_format="pandas").sort(
        ["src_host", "dst_host"])


def q_budget_allocation(sf_dir: str, *, budget: int = 10_000):
    """Crawl-BUDGET APPORTIONMENT: split a fixed fetch budget over hosts
    proportional to PageRank with LARGEST-REMAINDER rounding — Σbudget ==
    budget exactly, every step integer (base = ⌊B·pr/S⌋; the B − Σbase
    leftover units go to the largest remainders, ties by host asc). The
    remainder ranking reuses the DISTRIBUTED rank operator
    (functions/rank.global_rank — sampled edges + histogram offsets, no
    global sort), so the plan holds at a 10⁸-host frontier where a
    driver-side sort would not."""
    from ..functions.rank import global_rank
    from ..functions.weblinks import host_pagerank
    from .kg import pages_dataset

    pdir = _synthetic_pages_dir(sf_dir)
    pr = host_pagerank(pages_dataset(pdir), n_iters=3).materialize()
    s = int(pr.sum("pr") or 0)

    def base_rem(t: pa.Table) -> pa.Table:
        p = pc.cast(t.column("pr"), pa.int64()).to_numpy()
        q = budget * p
        return pa.table(
            {"host": t.column("host"),
             "pr": pa.array(p, pa.int64()),
             "base": pa.array(q // s, pa.int64()),
             "rem": pa.array(q % s, pa.int64())})

    alloc = pr.map_batches(base_rem, batch_format="pyarrow").materialize()
    deficit = budget - int(alloc.sum("base") or 0)
    ranked = global_rank(alloc, "rem", "host", descending=True, n_buckets=16)

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        extra = (df["rank"].astype("int64") <= deficit).astype("int64")
        return pd.DataFrame(
            {"host": df["host"], "pr": df["pr"].astype("int64"),
             "budget": (df["base"] + extra).astype("int64")})

    return ranked.map_batches(finish, batch_format="pandas").sort("host")


def q_politeness_slots(sf_dir: str):
    """Per-host POLITENESS SCHEDULING: every distinct cross-host link target
    gets a fetch slot 1..n within its host (url asc — deterministic), the
    sequence a rate-limited fetcher walks one-per-interval. Grouped dense
    row-number: distinct (host, url) pair aggregate, host-hash coarse
    buckets so a task sees whole hosts, row-local sort+arange per host."""
    from ray.data.aggregate import Sum

    from ..functions.hashing import stable_hash64
    from ..functions.weblinks import links_table
    from ..stages.canonicalize import grouped_aggregate
    from .kg import pages_dataset

    pdir = _synthetic_pages_dir(sf_dir)
    links = links_table(pages_dataset(pdir))

    def pair_partial(t: pa.Table) -> pd.DataFrame:
        t = t.filter(pc.not_equal(t.column("src_host"), t.column("dst_host")))
        return (t.select(["dst_host", "dst_url"]).to_pandas()
                .drop_duplicates().assign(one=np.int64(1)))

    pairs = grouped_aggregate(
        links.map_batches(pair_partial, batch_format="pyarrow"),
        ["dst_host", "dst_url"],
        Sum("one", alias_name="one"),
    ).drop_columns(["one"])

    def bucket(df: pd.DataFrame) -> pd.DataFrame:
        b = [stable_hash64("pol:" + h) % 32 for h in df["dst_host"]]
        return df.assign(_b=np.asarray(b, np.int64))

    def slots(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["dst_host", "dst_url"], kind="mergesort")
        df["slot"] = df.groupby("dst_host", sort=False).cumcount() + 1
        return df[["dst_host", "dst_url", "slot"]].assign(
            slot=lambda d: d["slot"].astype("int64"))

    return (
        pairs.map_batches(bucket, batch_format="pandas")
        .groupby("_b")
        .map_groups(slots, batch_format="pandas")
        .sort(["dst_host", "slot"])
    )


def q_entity_degree(sf_dir: str, *, broadcast_limit=None):
    """Canonical-entity DEGREE in the triple graph — the KG hub report:
    distinct neighbors per canonical entity over alias-resolved distinct
    (subj, obj) pairs, direction-free (symmetric explode + distinct-pair
    aggregate + per-entity count — the graph_degree shape on string
    entities). Alias resolution via the gated ``_canon_surfaces``; rows
    where either endpoint is unknown drop (the old dropna semantics)."""
    from ray.data.aggregate import Sum

    from ..stages.canonicalize import grouped_aggregate

    canon = _canon_surfaces(
        _gold(sf_dir, "gold_triples", ["subj", "obj"]), sf_dir,
        [("subj", "a"), ("obj", "b")], broadcast_limit=broadcast_limit)

    def sym_pairs(df: pd.DataFrame) -> pd.DataFrame:
        df = df[["a", "b"]].drop_duplicates()
        sym = pd.concat(
            [df, df.rename(columns={"a": "b", "b": "a"})], ignore_index=True
        ).drop_duplicates()
        return sym.assign(one=np.int64(1))

    dist = grouped_aggregate(
        canon.map_batches(sym_pairs, batch_format="pandas"),
        ["a", "b"],
        Sum("one", alias_name="one"),
    )
    deg = grouped_aggregate(
        dist.map_batches(
            lambda t: pa.Table.from_arrays(
                [t.column("a"), pa.array(np.ones(t.num_rows, np.int64))],
                names=["canonical", "degree"]),
            batch_format="pyarrow"),
        ["canonical"],
        Sum("degree", alias_name="degree"),
    )
    return deg.sort("canonical")


def _crawlops_oracle_sqls(pdir: str) -> dict:
    """DuckDB oracles for the round-4 batch-2 crawl-operations + KG-graph
    consumers — same planted-gold-table discipline."""
    gl = f"read_parquet('{pdir}/gold_links.parquet')"
    gt = f"read_parquet('{pdir}/gold_triples.parquet')"
    ge = _gold_entities_sql(pdir)
    pr_cte = _gold_pr_cte(pdir, 3)
    return {
        "url_inlink_topk": f"""
            SELECT dst_url, n_hosts FROM (
                SELECT dst_url, COUNT(DISTINCT src_host) AS n_hosts FROM (
                    SELECT split_part(src_url, '/', 3) AS src_host,
                           split_part(dst_url, '/', 3) AS dst_host, dst_url
                    FROM {gl}) l
                WHERE src_host <> dst_host
                GROUP BY 1)
            ORDER BY n_hosts DESC, dst_url LIMIT 20
        """,
        "link_graph_diff": f"""
            WITH agg AS (
                SELECT src_host, dst_host,
                       CAST(SUM(CASE WHEN idx % 2 = 0 THEN 1 ELSE 0 END)
                            AS BIGINT) AS old_n,
                       CAST(SUM(CASE WHEN idx % 2 = 1 THEN 1 ELSE 0 END)
                            AS BIGINT) AS new_n
                FROM (
                    SELECT split_part(src_url, '/', 3) AS src_host,
                           split_part(dst_url, '/', 3) AS dst_host,
                           CAST(regexp_extract(src_url, '([0-9]+)$', 1)
                                AS BIGINT) AS idx
                    FROM {gl}) l
                WHERE src_host <> dst_host
                GROUP BY 1, 2)
            SELECT src_host, dst_host, old_n, new_n,
                   CASE WHEN old_n = 0 THEN 'added'
                        WHEN new_n = 0 THEN 'removed'
                        WHEN old_n <> new_n THEN 'changed'
                        ELSE 'stable' END AS change
            FROM agg
        """,
        "budget_allocation": f"""
            WITH {pr_cte},
            prt AS (SELECT node AS host, pr FROM p3),
            tot AS (SELECT CAST(SUM(pr) AS BIGINT) AS s FROM prt),
            alloc AS (
                SELECT host, pr,
                       CAST((10000 * pr) // s AS BIGINT) AS base,
                       CAST((10000 * pr) % s AS BIGINT) AS rem
                FROM prt CROSS JOIN tot),
            def AS (SELECT CAST(10000 - SUM(base) AS BIGINT) AS d FROM alloc)
            SELECT host, pr,
                   CAST(base + CASE WHEN ROW_NUMBER() OVER (
                            ORDER BY rem DESC, host) <= d
                        THEN 1 ELSE 0 END AS BIGINT) AS budget
            FROM alloc CROSS JOIN def
        """,
        "politeness_slots": f"""
            SELECT dst_host, dst_url,
                   ROW_NUMBER() OVER (
                       PARTITION BY dst_host ORDER BY dst_url) AS slot
            FROM (
                SELECT DISTINCT dst_host, dst_url FROM (
                    SELECT split_part(src_url, '/', 3) AS src_host,
                           split_part(dst_url, '/', 3) AS dst_host, dst_url
                    FROM {gl}) l
                WHERE src_host <> dst_host)
        """,
        "entity_degree": f"""
            WITH d AS (
                SELECT DISTINCT es.canonical AS a, eo.canonical AS b
                FROM {gt} t
                JOIN {ge} es ON t.subj = es.surface
                JOIN {ge} eo ON t.obj = eo.surface),
            sym AS (SELECT a, b FROM d UNION SELECT b, a FROM d)
            SELECT a AS canonical, COUNT(DISTINCT b) AS degree
            FROM sym GROUP BY 1
        """,
    }


# --------------------------------------------------------------------------
# Round-4 batch 3: association-strength + host-profile operators
# --------------------------------------------------------------------------

def q_entity_lift(sf_dir: str, *, broadcast_limit=None):
    """Entity association LIFT — integer-exact PMI surrogate ranking: for
    every co-occurring canonical pair, lift_ppm = ⌊10⁶ · n_ab · N /
    (n_a · n_b)⌋ over sentence counts (N = distinct sentences with ≥1
    mention). Same ORDERING as PMI (log is monotone) with none of the
    float-log parity risk. Plan: the co-occurrence pair table (bucketed
    sentence groupby) + a per-entity sentence-count aggregate attached
    back — broadcast dict below the ``_canon_surfaces`` gate, two
    partitioned hash_joins (on ent_a, ent_b) above it; N is one driver
    scalar."""
    from ray.data.aggregate import Sum

    from ..functions.hashing import stable_hash64
    from ..stages.canonicalize import grouped_aggregate

    mentions = _gold(sf_dir, "gold_mentions", ["url", "sent_id", "surface"])
    canon = _canon_surfaces(mentions, sf_dir, [("surface", "canonical")],
                            broadcast_limit=broadcast_limit)

    def sent_rows(df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(sent_id=df["sent_id"].astype("int64"))
        return (df[["url", "sent_id", "canonical"]].drop_duplicates()
                .assign(one=np.int64(1)))

    sent_ents = grouped_aggregate(
        canon.map_batches(sent_rows, batch_format="pandas"),
        ["url", "sent_id", "canonical"],
        Sum("one", alias_name="one"),
    ).drop_columns(["one"]).materialize()

    # N = distinct mentioned sentences; per-entity sentence counts
    n_total = int(
        grouped_aggregate(
            sent_ents.map_batches(
                lambda t: pa.Table.from_arrays(
                    [t.column("url"), t.column("sent_id"),
                     pa.array(np.ones(t.num_rows, np.int64))],
                    names=["url", "sent_id", "one"]),
                batch_format="pyarrow"),
            ["url", "sent_id"],
            Sum("one", alias_name="one"),
        ).count())
    counts_ds = grouped_aggregate(
        sent_ents.map_batches(
            lambda t: pa.Table.from_arrays(
                [t.column("canonical"),
                 pa.array(np.ones(t.num_rows, np.int64))],
                names=["canonical", "n"]),
            batch_format="pyarrow"),
        ["canonical"],
        Sum("n", alias_name="n"),
    ).materialize()

    def bucket(df: pd.DataFrame) -> pd.DataFrame:
        b = [stable_hash64(f"lift:{u}:{s}") % 64
             for u, s in zip(df["url"], df["sent_id"])]
        return df.assign(_b=np.asarray(b, np.int64))

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        out: dict[tuple[str, str], int] = {}
        for (_, _), grp in df.groupby(["url", "sent_id"], sort=False):
            es = sorted(set(grp["canonical"]))
            for i in range(len(es)):
                for j in range(i + 1, len(es)):
                    k = (es[i], es[j])
                    out[k] = out.get(k, 0) + 1
        return pd.DataFrame(
            {"ent_a": [k[0] for k in out], "ent_b": [k[1] for k in out],
             "n_ab": list(out.values())})

    pair_counts = grouped_aggregate(
        sent_ents.map_batches(bucket, batch_format="pandas")
        .groupby("_b").map_groups(pairs, batch_format="pandas"),
        ["ent_a", "ent_b"],
        Sum("n_ab", alias_name="n_ab"),
    )

    limit = (GOLD_BROADCAST_LIMIT if broadcast_limit is None
             else broadcast_limit)
    if counts_ds.count() <= limit:
        ent_counts: dict = {}
        for b in counts_ds.iter_batches(batch_size=65536,
                                        batch_format="pyarrow"):
            ent_counts.update(zip(b.column("canonical").to_pylist(),
                                  (int(x) for x in b.column("n").to_pylist())))
        cref = ray.put(ent_counts)

        def lift(df: pd.DataFrame) -> pd.DataFrame:
            cnt = ray.get(cref)
            return _lift_frame(df, df["ent_a"].map(cnt), df["ent_b"].map(cnt),
                               n_total)

        return pair_counts.map_batches(lift, batch_format="pandas").sort(
            ["ent_a", "ent_b"])

    # above the gate: attach per-entity counts via two partitioned
    # hash_joins instead of a driver-sized dict
    from ..stages.joins import hash_join

    ca = counts_ds.map_batches(
        lambda t: pa.table({"ent_a": t.column("canonical"),
                            "n_a": pc.cast(t.column("n"), pa.int64())}),
        batch_format="pyarrow")
    cb = counts_ds.map_batches(
        lambda t: pa.table({"ent_b": t.column("canonical"),
                            "n_b": pc.cast(t.column("n"), pa.int64())}),
        batch_format="pyarrow")
    joined = hash_join(hash_join(pair_counts, ca, on=["ent_a"]),
                       cb, on=["ent_b"])

    return joined.map_batches(
        lambda df: _lift_frame(df, df["n_a"], df["n_b"], n_total),
        batch_format="pandas").sort(["ent_a", "ent_b"])


def _lift_frame(df: pd.DataFrame, na: pd.Series, nb: pd.Series,
                n_total: int) -> pd.DataFrame:
    """entity_lift output rows, shared by the broadcast and hash-join plans."""
    na, nb, nab = na.astype("int64"), nb.astype("int64"), df["n_ab"].astype("int64")
    return pd.DataFrame(
        {"ent_a": df["ent_a"], "ent_b": df["ent_b"], "n_ab": nab,
         "n_a": na, "n_b": nb,
         "lift_ppm": pd.Series(lift_ppm(nab, na, nb, n_total),
                               index=df.index, dtype="int64")})


def q_host_spam_features(sf_dir: str):
    """Host-profile FEATURE TABLE for link-spam / quality classification:
    per linking host — total outbound links, intra-host (self) links,
    distinct target hosts, distinct anchor strings. One Sum pass for the
    two counts + two distinct-pair chains joined back (the feature-
    engineering-at-scale shape: every column an independent bounded
    aggregate over the same key)."""
    from ray.data.aggregate import Sum

    from ..functions.weblinks import links_table
    from ..stages.canonicalize import grouped_aggregate
    from ..stages.joins import hash_join
    from .kg import pages_dataset

    pdir = _synthetic_pages_dir(sf_dir)
    links = links_table(pages_dataset(pdir)).materialize()

    def count_partial(t: pa.Table) -> pd.DataFrame:
        df = t.select(["src_host", "dst_host"]).to_pandas()
        df["self"] = (df["src_host"] == df["dst_host"]).astype(np.int64)
        return (df.groupby("src_host", sort=False)
                .agg(n_links=("dst_host", "size"), n_self=("self", "sum"))
                .reset_index())

    counts = grouped_aggregate(
        links.map_batches(count_partial, batch_format="pyarrow"),
        ["src_host"],
        Sum("n_links", alias_name="n_links"),
        Sum("n_self", alias_name="n_self"),
    )

    def distinct_chain(col: str, out: str):
        pairs = grouped_aggregate(
            links.map_batches(
                lambda t, c=col: (t.select(["src_host", c]).to_pandas()
                                  .drop_duplicates().assign(one=np.int64(1))),
                batch_format="pyarrow"),
            ["src_host", col],
            Sum("one", alias_name="one"),
        )
        return grouped_aggregate(
            pairs.map_batches(
                lambda t, o=out: pa.Table.from_arrays(
                    [t.column("src_host"),
                     pa.array(np.ones(t.num_rows, np.int64))],
                    names=["src_host", o]),
                batch_format="pyarrow"),
            ["src_host"],
            Sum(out, alias_name=out),
        )

    hosts = hash_join(
        hash_join(counts, distinct_chain("dst_host", "n_dst_hosts"),
                  on=["src_host"]),
        distinct_chain("anchor", "n_anchors"), on=["src_host"])
    return hosts.map_batches(
        lambda df: df[["src_host", "n_links", "n_self", "n_dst_hosts",
                       "n_anchors"]]
        .astype({c: "int64" for c in
                 ("n_links", "n_self", "n_dst_hosts", "n_anchors")}),
        batch_format="pandas",
    ).sort("src_host")


def q_anchor_salience(sf_dir: str):
    """Per-host SALIENT anchors — the integer tf-idf surrogate: salience =
    ⌊10⁶ · n(host, anchor) / df(anchor)⌋ with df = number of hosts whose
    INBOUND links carry that anchor; top-3 per host by (salience desc,
    anchor asc). Same ordering as tf-idf for a fixed host (1/df is
    monotone in idf) with zero float-log parity risk. Plan: (host, anchor)
    counts + anchor df (distinct-pair chain) joined on anchor — the join
    key is the anchor VOCABULARY, never link-sized."""
    from ray.data.aggregate import Sum

    from ..functions.hashing import stable_hash64
    from ..functions.weblinks import links_table
    from ..stages.canonicalize import grouped_aggregate
    from ..stages.joins import hash_join
    from .kg import pages_dataset

    pdir = _synthetic_pages_dir(sf_dir)
    links = links_table(pages_dataset(pdir)).materialize()

    def ha_partial(t: pa.Table) -> pd.DataFrame:
        t = t.filter(pc.not_equal(t.column("src_host"), t.column("dst_host")))
        df = t.select(["dst_host", "anchor"]).to_pandas()
        df = df[df["anchor"] != ""]
        return (df.groupby(["dst_host", "anchor"], sort=False).size()
                .reset_index(name="n"))

    ha = grouped_aggregate(
        links.map_batches(ha_partial, batch_format="pyarrow"),
        ["dst_host", "anchor"],
        Sum("n", alias_name="n"),
    ).materialize()

    df_tbl = grouped_aggregate(
        ha.map_batches(
            lambda t: pa.Table.from_arrays(
                [t.column("anchor"), pa.array(np.ones(t.num_rows, np.int64))],
                names=["anchor", "df"]),
            batch_format="pyarrow"),
        ["anchor"],
        Sum("df", alias_name="df"),
    )
    joined = hash_join(ha, df_tbl, on=["anchor"])

    def score(df: pd.DataFrame) -> pd.DataFrame:
        n = df["n"].astype("int64")
        d = df["df"].astype("int64")
        return df.assign(salience=(1_000_000 * n) // d)

    def bucket(df: pd.DataFrame) -> pd.DataFrame:
        b = [stable_hash64("sal:" + h) % 32 for h in df["dst_host"]]
        return df.assign(_b=np.asarray(b, np.int64))

    def topk(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["dst_host", "salience", "anchor"],
                            ascending=[True, False, True], kind="mergesort")
        return (df.groupby("dst_host", sort=False).head(3)
                [["dst_host", "anchor", "n", "df", "salience"]])

    out = (
        joined.map_batches(score, batch_format="pandas")
        .map_batches(bucket, batch_format="pandas")
        .groupby("_b")
        .map_groups(topk, batch_format="pandas")
    )
    return out.map_batches(
        lambda df: df.astype({c: "int64" for c in ("n", "df", "salience")}),
        batch_format="pandas",
    ).sort(["dst_host", "salience", "anchor"], descending=[False, True, False])


def _assoc_oracle_sqls(pdir: str) -> dict:
    """DuckDB oracles for the batch-3 association/profile operators.

    ``host_spam_features`` runs over the FULL html link set, which includes
    the template's two nav links per page (``<a href='/'>home</a>
    <a href='/about'>about</a>`` — both self-host); the oracle synthesizes
    exactly those two rows per crawled page from gold_text and unions them
    with the planted gold_links, so the engine's html parse is checked
    against the complete planted structure, nav included."""
    gm = f"read_parquet('{pdir}/gold_mentions.parquet')"
    ge = _gold_entities_sql(pdir)
    gl = f"read_parquet('{pdir}/gold_links.parquet')"
    gtx = f"read_parquet('{pdir}/gold_text.parquet')"
    return {
        "entity_lift": f"""
            WITH c AS (
                SELECT DISTINCT m.url, m.sent_id, e.canonical
                FROM {gm} m JOIN {ge} e USING (surface)),
            n_t AS (SELECT COUNT(*) AS n FROM
                    (SELECT DISTINCT url, sent_id FROM c)),
            ec AS (SELECT canonical, COUNT(*) AS n FROM c GROUP BY 1),
            p AS (SELECT a.canonical AS ent_a, b.canonical AS ent_b,
                         COUNT(*) AS n_ab
                  FROM c a JOIN c b
                    ON a.url = b.url AND a.sent_id = b.sent_id
                   AND a.canonical < b.canonical
                  GROUP BY 1, 2)
            SELECT p.ent_a, p.ent_b, p.n_ab,
                   ea.n AS n_a, eb.n AS n_b,
                   CAST((1000000 * p.n_ab * n_t.n) // (ea.n * eb.n)
                        AS BIGINT) AS lift_ppm
            FROM p JOIN ec ea ON p.ent_a = ea.canonical
                   JOIN ec eb ON p.ent_b = eb.canonical
                   CROSS JOIN n_t
        """,
        "host_spam_features": f"""
            WITH nav AS (
                SELECT split_part(url, '/', 3) AS src_host,
                       split_part(url, '/', 3) AS dst_host,
                       a.anchor
                FROM {gtx} CROSS JOIN (VALUES ('home'), ('about')) a(anchor)),
            pl AS (
                SELECT split_part(src_url, '/', 3) AS src_host,
                       split_part(dst_url, '/', 3) AS dst_host, anchor
                FROM {gl}),
            l AS (SELECT * FROM nav UNION ALL SELECT * FROM pl)
            SELECT src_host, COUNT(*) AS n_links,
                   CAST(SUM(CASE WHEN src_host = dst_host THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_self,
                   COUNT(DISTINCT dst_host) AS n_dst_hosts,
                   COUNT(DISTINCT anchor) AS n_anchors
            FROM l GROUP BY 1
        """,
        "anchor_salience": f"""
            WITH ha AS (
                SELECT dst_host, anchor, COUNT(*) AS n FROM (
                    SELECT split_part(src_url, '/', 3) AS src_host,
                           split_part(dst_url, '/', 3) AS dst_host, anchor
                    FROM {gl}) l
                WHERE src_host <> dst_host AND anchor <> ''
                GROUP BY 1, 2),
            dfa AS (SELECT anchor, COUNT(*) AS df FROM ha GROUP BY 1)
            SELECT dst_host, anchor, n, df, salience FROM (
                SELECT ha.dst_host, ha.anchor, ha.n, dfa.df,
                       CAST((1000000 * ha.n) // dfa.df AS BIGINT) AS salience
                FROM ha JOIN dfa USING (anchor))
            QUALIFY ROW_NUMBER() OVER (
                PARTITION BY dst_host ORDER BY salience DESC, anchor) <= 3
        """,
    }


# --------------------------------------------------------------------------
# Round-4 batch 4: KG temporal/consistency + windowed top-k
# --------------------------------------------------------------------------

def q_entity_timeline(sf_dir: str, *, broadcast_limit=None):
    """Entity TEMPORAL footprint — first/last capture and page spread per
    canonical entity: distinct (url, canonical) mention pairs joined to the
    page capture timestamps (partitioned hash_join on url — pages never
    broadcast), then Min/Max/Count per entity. The KG freshness signal
    (stale entities get recrawled first, the entity-level sibling of
    crawl_frontier's host staleness). Alias resolution via the gated
    ``_canon_surfaces``."""
    from ray.data.aggregate import Count, Max, Min, Sum

    from ..stages.canonicalize import grouped_aggregate
    from ..stages.joins import hash_join

    pdir = _synthetic_pages_dir(sf_dir)
    canon = _canon_surfaces(
        _gold(sf_dir, "gold_mentions", ["url", "surface"]), sf_dir,
        [("surface", "canonical")], broadcast_limit=broadcast_limit)

    def url_ents(df: pd.DataFrame) -> pd.DataFrame:
        return (df[["url", "canonical"]].drop_duplicates()
                .assign(one=np.int64(1)))

    pairs = grouped_aggregate(
        canon.map_batches(url_ents, batch_format="pandas"),
        ["url", "canonical"],
        Sum("one", alias_name="one"),
    ).drop_columns(["one"])

    pages = ray.data.read_parquet(
        sorted(__import__("glob").glob(os.path.join(pdir, "pages-*.parquet"))),
        columns=["url", "warc_ts"],
    ).map_batches(
        lambda t: pa.table(
            {"url": t.column("url"),
             "ts_us": pc.cast(pc.cast(t.column("warc_ts"),
                                      pa.timestamp("us")), pa.int64())}),
        batch_format="pyarrow",
    )
    joined = hash_join(pairs, pages, on=["url"])
    out = grouped_aggregate(
        joined.map_batches(
            lambda df: df[["canonical", "ts_us"]].assign(
                ts_us=df["ts_us"].astype("int64")),
            batch_format="pandas"),
        ["canonical"],
        Min("ts_us", alias_name="first_ts"),
        Max("ts_us", alias_name="last_ts"),
        Count(alias_name="n_pages"),
    )
    return out.map_batches(
        lambda df: df.astype({"first_ts": "int64", "last_ts": "int64",
                              "n_pages": "int64"}),
        batch_format="pandas",
    ).sort("canonical")


def q_triple_conflicts(sf_dir: str):
    """KG CONSISTENCY audit — functional-predicate violations: subjects
    whose ``born_in`` (one birthplace per person) carries MORE THAN ONE
    distinct object, with the conflict cardinality. The contradiction
    detector every KG ingest runs before accepting a batch. Two
    vocabulary-sized aggregates: distinct (subj, obj) under the predicate,
    then per-subject counts filtered to >1."""
    from ray.data.aggregate import Sum

    from ..stages.canonicalize import grouped_aggregate

    tr = _gold(sf_dir, "gold_triples", ["subj", "pred", "obj"])

    def dist_partial(t: pa.Table) -> pd.DataFrame:
        df = t.to_pandas()
        df = df[df["pred"] == "born_in"]
        return (df[["subj", "obj"]].drop_duplicates()
                .assign(one=np.int64(1)))

    dist = grouped_aggregate(
        tr.map_batches(dist_partial, batch_format="pyarrow"),
        ["subj", "obj"],
        Sum("one", alias_name="one"),
    )
    counts = grouped_aggregate(
        dist.map_batches(
            lambda t: pa.Table.from_arrays(
                [t.column("subj"), pa.array(np.ones(t.num_rows, np.int64))],
                names=["subj", "n_objects"]),
            batch_format="pyarrow"),
        ["subj"],
        Sum("n_objects", alias_name="n_objects"),
    )
    out = counts.map_batches(
        lambda t: t.filter(pc.greater(pc.cast(t.column("n_objects"),
                                              pa.int64()), 1)),
        batch_format="pyarrow",
    )
    return out.sort("subj")


def q_hourly_topk_types(sf_dir: str):
    """Windowed GROUPED TOP-K — top-3 event types per calendar DAY by count
    (ties: type asc): the trending-now aggregation, combining the tumbling
    window with per-window ranking. Per-batch (day, type) partials → one
    bucketed Sum → day-bucketed row-local top-k (day cardinality is
    timeline-bounded, never data-bounded)."""
    from ray.data.aggregate import Sum

    from ..stages.canonicalize import grouped_aggregate

    ds = _rp(sf_dir, "events", ["ts", "event_type"])

    def partial(t: pa.Table) -> pd.DataFrame:
        days = t.column("ts").to_numpy(zero_copy_only=False).astype(
            "datetime64[D]").astype(np.int64)
        df = pd.DataFrame({"day": days,
                           "event_type": t.column("event_type").to_pylist()})
        return (df.groupby(["day", "event_type"], sort=False).size()
                .reset_index(name="n"))

    counts = grouped_aggregate(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["day", "event_type"],
        Sum("n", alias_name="n"),
    )

    def bucket(df: pd.DataFrame) -> pd.DataFrame:
        return df.assign(_b=(df["day"].astype("int64") % 16))

    def topk(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["day", "n", "event_type"],
                            ascending=[True, False, True], kind="mergesort")
        return (df.groupby("day", sort=False).head(3)
                [["day", "event_type", "n"]])

    out = (
        counts.map_batches(bucket, batch_format="pandas")
        .groupby("_b")
        .map_groups(topk, batch_format="pandas")
    )
    return out.map_batches(
        lambda df: df.astype({"day": "int64", "n": "int64"}),
        batch_format="pandas",
    ).sort(["day", "n", "event_type"], descending=[False, True, False])


def _batch4_oracle_sqls(pdir: str) -> dict:
    """DuckDB oracles for batch 4 (entity_timeline / triple_conflicts read
    the planted gold tables; hourly_topk_types reads the events view)."""
    gm = f"read_parquet('{pdir}/gold_mentions.parquet')"
    ge = _gold_entities_sql(pdir)
    gt = f"read_parquet('{pdir}/gold_triples.parquet')"
    pg = f"read_parquet('{pdir}/pages-*.parquet')"
    return {
        "entity_timeline": f"""
            WITH p AS (
                SELECT DISTINCT m.url, e.canonical
                FROM {gm} m JOIN {ge} e USING (surface))
            SELECT p.canonical,
                   CAST(MIN(epoch_us(g.warc_ts)) AS BIGINT) AS first_ts,
                   CAST(MAX(epoch_us(g.warc_ts)) AS BIGINT) AS last_ts,
                   COUNT(*) AS n_pages
            FROM p JOIN {pg} g ON p.url = g.url
            GROUP BY 1
        """,
        "triple_conflicts": f"""
            SELECT subj, COUNT(DISTINCT obj) AS n_objects
            FROM {gt} WHERE pred = 'born_in'
            GROUP BY subj HAVING COUNT(DISTINCT obj) > 1
        """,
        "hourly_topk_types": """
            SELECT day, event_type, n FROM (
                SELECT CAST(FLOOR(epoch(ts) / 86400) AS BIGINT) AS day,
                       event_type, COUNT(*) AS n
                FROM events GROUP BY 1, 2)
            QUALIFY ROW_NUMBER() OVER (
                PARTITION BY day ORDER BY n DESC, event_type) <= 3
        """,
    }


def q_entity_host_spread(sf_dir: str, *, broadcast_limit=None):
    """Entity AUTHORITY BREADTH — per canonical entity, the number of
    DISTINCT hosts whose pages mention it plus total mentions: broad-spread
    entities are corroborated across independent sources, single-host
    entities are candidate noise (the KG trust prior). Distinct
    (host, canonical) pair aggregate + per-entity count; mention totals
    ride the same partials."""
    from ray.data.aggregate import Sum

    from ..functions.weblinks import host_of
    from ..stages.canonicalize import grouped_aggregate
    from ..stages.joins import hash_join

    canon = _canon_surfaces(
        _gold(sf_dir, "gold_mentions", ["url", "surface"]), sf_dir,
        [("surface", "canonical")], broadcast_limit=broadcast_limit)

    def host_rows(df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(host=df["url"].map(host_of))
        return (df.groupby(["host", "canonical"], sort=False).size()
                .reset_index(name="n_mentions"))

    pairs = grouped_aggregate(
        canon.map_batches(host_rows, batch_format="pandas"),
        ["host", "canonical"],
        Sum("n_mentions", alias_name="n_mentions"),
    )
    out = grouped_aggregate(
        pairs.map_batches(
            lambda t: pa.Table.from_arrays(
                [t.column("canonical"),
                 pa.array(np.ones(t.num_rows, np.int64)),
                 pc.cast(t.column("n_mentions"), pa.int64())],
                names=["canonical", "n_hosts", "n_mentions"]),
            batch_format="pyarrow"),
        ["canonical"],
        Sum("n_hosts", alias_name="n_hosts"),
        Sum("n_mentions", alias_name="n_mentions"),
    )
    return out.sort("canonical")


def _spread_oracle_sql(pdir: str) -> dict:
    gm = f"read_parquet('{pdir}/gold_mentions.parquet')"
    ge = _gold_entities_sql(pdir)
    return {
        "entity_host_spread": f"""
            SELECT e.canonical,
                   COUNT(DISTINCT split_part(m.url, '/', 3)) AS n_hosts,
                   COUNT(*) AS n_mentions
            FROM {gm} m JOIN {ge} e USING (surface)
            GROUP BY 1
        """,
    }


def q_host_pagerank_weighted(sf_dir: str):
    """EDGE-WEIGHTED host PageRank — link counts as endorsement strength
    (functions/graph.pagerank_weighted: per-edge floor shares ∝ n_links,
    integer-exact and SQL-replicable; forced-distributed parity pinned in
    tests/test_graph.py). Oracle: the weighted unrolled CTE over gold_links
    pair counts."""
    from ..functions.weblinks import host_pagerank
    from .kg import pages_dataset

    pdir = _synthetic_pages_dir(sf_dir)
    pr = host_pagerank(pages_dataset(pdir), n_iters=3, weighted=True)
    return pr.sort(["pr", "host"], descending=[True, False])


def _wpr_oracle_sql(pdir: str) -> dict:
    gl = f"read_parquet('{pdir}/gold_links.parquet')"
    scale = 10**12
    n_iters = 3
    parts = [f"""
        e AS (SELECT src_host AS u, dst_host AS v, COUNT(*) AS w FROM (
                SELECT split_part(src_url, '/', 3) AS src_host,
                       split_part(dst_url, '/', 3) AS dst_host
                FROM {gl}) l
              WHERE u <> v GROUP BY 1, 2),
        s AS (SELECT u AS src, v AS dst, w FROM e
              UNION ALL SELECT v AS src, u AS dst, w FROM e),
        d AS (SELECT src AS node, CAST(SUM(w) AS BIGINT) AS wdeg
              FROM s GROUP BY src),
        nn AS (SELECT COUNT(*) AS n FROM d),
        p0 AS (SELECT d.node, d.wdeg,
                      CAST({scale} // nn.n AS BIGINT) AS pr
               FROM d CROSS JOIN nn)"""]
    for i in range(1, n_iters + 1):
        parts.append(f""",
        p{i} AS (SELECT d.node, d.wdeg,
                        CAST((15 * ({scale} // nn.n)) // 100
                             + (85 * c{i}.contrib) // 100 AS BIGINT) AS pr
                 FROM d CROSS JOIN nn
                 JOIN (SELECT s2.dst AS node,
                              SUM((p.pr * s2.w) // p.wdeg) AS contrib
                       FROM p{i - 1} p JOIN s s2 ON s2.src = p.node
                       GROUP BY s2.dst) c{i} ON c{i}.node = d.node)""")
    cte = "".join(parts)
    return {
        "host_pagerank_weighted": f"""
            WITH {cte}
            SELECT node AS host, pr FROM p{n_iters}
        """,
    }


def q_pred_cardinality_profile(sf_dir: str):
    """Predicate CARDINALITY PROFILE — the KG schema-statistics report that
    decides which predicates deserve functional constraints (born_in:
    subjects ≈ triples ⇒ near-functional; visited: many-to-many): per
    predicate — distinct triples, distinct subjects, distinct objects, and
    the integer functionality ratio ⌊10⁶·n_subjects/n_triples⌋. Three
    distinct-chains over the triple vocabulary + two hash_joins, every
    exchange predicate- or entity-vocabulary sized."""
    from ray.data.aggregate import Sum

    from ..stages.canonicalize import grouped_aggregate
    from ..stages.joins import hash_join

    tr = _gold(sf_dir, "gold_triples", ["subj", "pred", "obj"])

    dist = grouped_aggregate(
        tr.map_batches(
            lambda t: t.to_pandas().drop_duplicates().assign(one=np.int64(1)),
            batch_format="pyarrow"),
        ["subj", "pred", "obj"],
        Sum("one", alias_name="one"),
    ).drop_columns(["one"]).materialize()

    def chain(cols: list, out: str):
        pairs = grouped_aggregate(
            dist.map_batches(
                lambda t, c=cols: (t.select(c).to_pandas().drop_duplicates()
                                   .assign(one=np.int64(1))),
                batch_format="pyarrow"),
            cols,
            Sum("one", alias_name="one"),
        )
        return grouped_aggregate(
            pairs.map_batches(
                lambda t, o=out: pa.Table.from_arrays(
                    [t.column("pred"),
                     pa.array(np.ones(t.num_rows, np.int64))],
                    names=["pred", o]),
                batch_format="pyarrow"),
            ["pred"],
            Sum(out, alias_name=out),
        )

    n_tr = chain(["pred", "subj", "obj"], "n_triples")
    n_su = chain(["pred", "subj"], "n_subjects")
    n_ob = chain(["pred", "obj"], "n_objects")
    out = hash_join(hash_join(n_tr, n_su, on=["pred"]), n_ob, on=["pred"])

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        nt = df["n_triples"].astype("int64")
        ns = df["n_subjects"].astype("int64")
        return pd.DataFrame(
            {"pred": df["pred"], "n_triples": nt, "n_subjects": ns,
             "n_objects": df["n_objects"].astype("int64"),
             "functionality_ppm": (1_000_000 * ns) // nt})

    return out.map_batches(finish, batch_format="pandas").sort("pred")


def _predprof_oracle_sql(pdir: str) -> dict:
    gt = f"read_parquet('{pdir}/gold_triples.parquet')"
    return {
        "pred_cardinality_profile": f"""
            WITH d AS (SELECT DISTINCT subj, pred, obj FROM {gt})
            SELECT pred, COUNT(*) AS n_triples,
                   COUNT(DISTINCT subj) AS n_subjects,
                   COUNT(DISTINCT obj) AS n_objects,
                   CAST((1000000 * COUNT(DISTINCT subj)) // COUNT(*)
                        AS BIGINT) AS functionality_ppm
            FROM d GROUP BY pred
        """,
    }
