"""Graph-analytics query family (split from pipelines/queries.py — its module
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

from ..stages.materialize import collect_table
from ._qcommon import (
    _floor_log2, _gagg, _rp,
)



# --------------------------------------------------------------------------
# Graph-analytics family (functions/graph.py) over the part co-purchase
# graph: edges (u, v, n) = parts appearing together in n orders. The KG-side
# operators a knowledge-graph pipeline runs after materializing its edges.
# --------------------------------------------------------------------------

def _graph_edges(sf_dir: str, min_n: int = 1):
    from ..functions.graph import co_order_edges

    li = _rp(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])
    return co_order_edges(li, min_n=min_n)


def _co_edges_sql(min_n: int) -> str:
    """SQL for the co-purchase edge table (u < v, n = co-occurring orders) —
    DISTINCT per order first so a part repeated within one order counts once,
    matching co_order_edges' drop_duplicates."""
    return f"""
        SELECT u, v, COUNT(*) AS n FROM (
            SELECT DISTINCT a.l_orderkey, a.l_partkey AS u, b.l_partkey AS v
            FROM lineitem a JOIN lineitem b
              ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey)
        GROUP BY u, v HAVING COUNT(*) >= {int(min_n)}
    """


def _pagerank_sql(n_iters: int = 3) -> str:
    """Unrolled integer power iteration replicating functions/graph.pagerank
    op for op: pr0 = SCALE//N; pr_{{k+1}} = (15*(SCALE//N))//100 +
    (85*Σ pr_k(u)//outdeg(u))//100. SUM promotes to HUGEINT in DuckDB, so
    each iteration CASTs back to BIGINT (values stay ≤ SCALE ≪ 2^63)."""
    scale = 10**12
    parts = [f"""
        WITH e AS ({_co_edges_sql(2)}),
        s AS (SELECT u AS src, v AS dst FROM e
              UNION ALL SELECT v AS src, u AS dst FROM e),
        d AS (SELECT src AS node, COUNT(*) AS outdeg FROM s GROUP BY src),
        nn AS (SELECT COUNT(*) AS n FROM d),
        p0 AS (SELECT d.node, d.outdeg,
                      CAST({scale} // nn.n AS BIGINT) AS pr
               FROM d CROSS JOIN nn)"""]
    for i in range(1, n_iters + 1):
        parts.append(f""",
        p{i} AS (SELECT d.node, d.outdeg,
                        CAST((15 * ({scale} // nn.n)) // 100
                             + (85 * c{i}.contrib) // 100 AS BIGINT) AS pr
                 FROM d CROSS JOIN nn
                 JOIN (SELECT s2.dst AS node, SUM(p.pr // p.outdeg) AS contrib
                       FROM p{i - 1} p JOIN s s2 ON s2.src = p.node
                       GROUP BY s2.dst) c{i} ON c{i}.node = d.node)""")
    parts.append(f"\n        SELECT node, pr FROM p{n_iters}")
    return "".join(parts)


def _ppr_sql(n_iters: int = 3) -> str:
    """Unrolled integer PERSONALIZED power iteration (seed = min node):
    pr0(v) = SCALE·[v=s]; pr_{{k+1}}(v) = (15·SCALE)//100·[v=s] +
    (85·Σ pr_k(u)//outdeg(u))//100 — functions/graph.pagerank with
    personalize_seed, op for op."""
    scale = 10**12
    parts = [f"""
        WITH e AS ({_co_edges_sql(2)}),
        s AS (SELECT u AS src, v AS dst FROM e
              UNION ALL SELECT v AS src, u AS dst FROM e),
        d AS (SELECT src AS node, COUNT(*) AS outdeg FROM s GROUP BY src),
        sd AS (SELECT MIN(node) AS s FROM d),
        p0 AS (SELECT d.node, d.outdeg,
                      CAST(CASE WHEN d.node = sd.s THEN {scale}
                           ELSE 0 END AS BIGINT) AS pr
               FROM d CROSS JOIN sd)"""]
    for i in range(1, n_iters + 1):
        parts.append(f""",
        p{i} AS (SELECT d.node, d.outdeg,
                        CAST(CASE WHEN d.node = sd.s
                                  THEN (15 * {scale}) // 100 ELSE 0 END
                             + (85 * c{i}.contrib) // 100 AS BIGINT) AS pr
                 FROM d CROSS JOIN sd
                 JOIN (SELECT s2.dst AS node,
                              SUM(p.pr // p.outdeg) AS contrib
                       FROM p{i - 1} p JOIN s s2 ON s2.src = p.node
                       GROUP BY s2.dst) c{i} ON c{i}.node = d.node)""")
    parts.append(f"\n        SELECT node, pr FROM p{n_iters}")
    return "".join(parts)


def q_graph_ppr(sf_dir: str):
    """PERSONALIZED PageRank from the min node — the KG "entities related
    to X" relevance walk (recommendation / context expansion around one
    entity), vs q_graph_pagerank's global importance. Same integer power
    iteration, same one-join-one-groupby round traffic
    (functions/graph.pagerank with personalize_seed): all initial and
    teleport mass concentrates at the seed, so scores decay with walk
    distance from it. Bit-exact in int64 ⇒ unrolled-CTE SQL replication.
    Output: (node, pr) in parts-per-10¹²."""
    from ..functions.graph import degree_table, pagerank

    edges = _graph_edges(sf_dir, 2).materialize()
    deg = degree_table(edges)
    s = deg.min("node") if deg.count() else None
    if s is None:
        return pa.table({"node": pa.array([], pa.int64()),
                         "pr": pa.array([], pa.int64())})
    return pagerank(edges, n_iters=3, personalize_seed=int(s))


def q_graph_degree(sf_dir: str):
    """Degree histogram (degree, n_nodes) of the co-purchase graph — the
    first skew diagnostic run on any KG edge table. Degrees are
    partial-aggregated per batch, then the histogram is a second narrow
    groupby over the (already node-sized) degree table."""
    from ..functions.graph import degree_table
    from ..stages.canonicalize import grouped_aggregate

    deg = degree_table(_graph_edges(sf_dir))

    def partial(t: pa.Table) -> pa.Table:
        d = pc.cast(t.column("degree"), pa.int64()).to_numpy()
        uniq, cnt = np.unique(d, return_counts=True)
        return pa.table(
            {"degree": pa.array(uniq, pa.int64()),
             "n_nodes": pa.array(cnt.astype(np.int64), pa.int64())}
        )

    return grouped_aggregate(
        deg.map_batches(partial, batch_format="pyarrow"),
        ["degree"],
        Sum("n_nodes", alias_name="n_nodes"),
    )


def q_graph_triangles(sf_dir: str):
    """Global node/edge/wedge/triangle counts — one exact-integer row.
    Degree-ordered orientation bounds wedge work at O(E^1.5) (see
    functions/graph.py); edge-set membership tests broadcast the sorted
    uint64 key array up to a 2M-edge threshold and switch to a
    hash-partitioned match above it; the degree attach has the same
    broadcast-vs-hash-join switch on node count."""
    from ..functions.graph import triangle_count

    return triangle_count(_graph_edges(sf_dir).materialize())


def q_graph_components(sf_dir: str):
    """Connected components of the min_n=3 co-purchase graph → (node, comp)
    with comp = min node id in the component — the same connected
    components (driver union-find or distributed min-label propagation by
    pair count) that canonicalize entities (stages/canonicalize.py), here
    against a recursive-CTE SQL oracle. Every node of the graph is an edge
    endpoint, so the pair participants CC labels are all of them. min_n=3
    keeps the graph sparse (threshold co-occurrence noise), exactly how a
    production KG prunes its mention-co-occurrence edges."""
    from ..stages.canonicalize import connected_components

    return connected_components(_graph_edges(sf_dir, min_n=3).map_batches(
        lambda t: pa.table(
            {"a": pc.cast(t.column("u"), pa.int64()),
             "b": pc.cast(t.column("v"), pa.int64())}
        ),
        batch_format="pyarrow",
    ))


def q_graph_pagerank(sf_dir: str):
    """3-iteration PageRank over the min_n=2 co-purchase graph → (node, pr)
    with pr in exact parts-per-1e12 integers (functions/graph.py): floor
    division makes every op order-independent, so the distributed result is
    bit-identical to the unrolled-CTE SQL oracle — a float power iteration
    could never be hash-compared."""
    from ..functions.graph import pagerank

    return pagerank(_graph_edges(sf_dir, min_n=2).materialize(), n_iters=3)


def q_graph_khop(sf_dir: str):
    """Nodes within ≤ 3 hops of the min node of the min_n=2 co-purchase
    graph, with exact min-hop distances — bounded-round distributed BFS
    (k hash_join + Min rounds, functions/graph.khop_distances), the KG
    neighborhood query. Replicated by 3 unrolled SQL CTEs."""
    from ..functions.graph import khop_distances

    return khop_distances(_graph_edges(sf_dir, min_n=2).materialize(), k=3)


def q_link_predict(sf_dir: str):
    """Link prediction on the co-purchase graph: non-adjacent node pairs
    sharing ≥ 2 common neighbors (functions/graph.common_neighbor_pairs) —
    bucketed wedge enumeration + side-tagged adjacency exclusion, the KG
    missing-edge / entity-merge candidate generator."""
    from ..functions.graph import common_neighbor_pairs

    return common_neighbor_pairs(
        _graph_edges(sf_dir, min_n=2).materialize(), min_common=2
    )


def q_kcore(sf_dir: str):
    """3 peel rounds toward the 2-core of the co-purchase graph →
    (node, degree) of the surviving subgraph (functions/graph.kcore_peel).
    Replicated by 3 unrolled SQL CTE rounds."""
    from ..functions.graph import kcore_peel

    return kcore_peel(_graph_edges(sf_dir, min_n=2).materialize(), k=2, rounds=3)


def q_component_size_hist(sf_dir: str):
    """Connected-component SIZE histogram (power-of-two buckets) — the
    canonicalization skew probe: a fat top bucket means one giant entity
    cluster is about to dominate its canonicalize/map_groups partition
    (stopword-adjacent mentions, head-domain URLs), the case the bucket-cap
    chains exist for. Composes the distributed CC with a comp-sized count
    aggregate and the same integer floor-log2 bucketing as key_skew_stats;
    the result is ≤ 64 rows at any graph size."""
    from ..stages.canonicalize import grouped_aggregate

    comps = q_graph_components(sf_dir)

    def partial(t: pa.Table) -> pa.Table:
        c = pc.cast(t.column("comp"), pa.int64()).to_numpy()
        uniq, cnt = np.unique(c, return_counts=True)
        return pa.table({"comp": pa.array(uniq, pa.int64()),
                         "n": pa.array(cnt.astype(np.int64), pa.int64())})

    sizes = _gagg(comps.map_batches(partial, batch_format="pyarrow"),
                  "comp", Sum("n", alias_name="n"))

    def bucketize(t: pa.Table) -> pa.Table:
        n = pc.cast(t.column("n"), pa.int64()).to_numpy()
        df = pd.DataFrame({"bucket": _floor_log2(n), "n": n})
        g = df.groupby("bucket", as_index=False).agg(
            n_comps=("n", "size"), n_nodes=("n", "sum"))
        g = g.astype({"n_comps": "int64", "n_nodes": "int64"})
        return pa.Table.from_pandas(g, preserve_index=False)

    return grouped_aggregate(
        sizes.map_batches(bucketize, batch_format="pyarrow"),
        ["bucket"], Sum("n_comps", alias_name="n_comps"),
        Sum("n_nodes", alias_name="n_nodes"),
    )


_NEG_K = 2


def q_negative_edges(sf_dir: str):
    """NEGATIVE SAMPLING for link-prediction training: K=2 deterministic
    non-edges per node of the co-purchase graph — the contrastive examples
    a graph-embedding trainer needs alongside `link_predict`'s positives.
    Candidate partners come from a hash-to-rank map (md5(u:i) mod n →
    the node at that rank), so sampling is uniform over the ACTUAL node
    set without any driver-side node list: ranks come from the
    range-partitioned global_rank (no global sort), candidates meet their
    partner via ONE node-sized hash join, unordered pairs dedup through a
    per-batch combiner, and known edges are removed by an exact
    partitioned LEFT-join anti pass (a Bloom prefilter would silently drop
    legitimate negatives on false positives — same caveat as
    customers_without_urgent_orders). Output: (u, v) non-edges, u < v."""
    from ..functions.graph import degree_table
    from ..functions.rank import global_rank
    from ..functions.textfns import md5_hash64
    from ..stages.canonicalize import pre_aggregated_count
    from ..stages.joins import hash_join

    edges = _graph_edges(sf_dir, 2).materialize()
    nodes = degree_table(edges).select_columns(["node"]).materialize()
    n = nodes.count()
    ranked = global_rank(nodes, "node", "node", descending=False, out="rk")

    def cands(t: pa.Table) -> pa.Table:
        o_u, o_rk = [], []
        for u in pc.cast(t.column("node"), pa.int64()).to_pylist():
            for i in range(_NEG_K):
                o_u.append(u)
                o_rk.append(md5_hash64(f"{u}:{i}") % n + 1)
        return pa.table({"u0": pa.array(o_u, pa.int64()),
                         "rk": pa.array(o_rk, pa.int64())})

    rk_nodes = ranked.map_batches(
        lambda t: pa.table({"rk": pc.cast(t.column("rk"), pa.int64()),
                            "v0": pc.cast(t.column("node"), pa.int64())}),
        batch_format="pyarrow",
    )
    pairs = hash_join(nodes.map_batches(cands, batch_format="pyarrow"),
                      rk_nodes, on=("rk",))

    def norm(t: pa.Table) -> pa.Table:
        a = pc.cast(t.column("u0"), pa.int64()).to_numpy()
        b = pc.cast(t.column("v0"), pa.int64()).to_numpy()
        keep = a != b
        a, b = a[keep], b[keep]
        return pa.table({"u": pa.array(np.minimum(a, b), pa.int64()),
                         "v": pa.array(np.maximum(a, b), pa.int64())})

    uniq = pre_aggregated_count(
        pairs.map_batches(norm, batch_format="pyarrow"), ["u", "v"], "m")
    ekeys = edges.map_batches(
        lambda t: pa.table({"u": pc.cast(t.column("u"), pa.int64()),
                            "v": pc.cast(t.column("v"), pa.int64()),
                            "e": pa.array(np.ones(t.num_rows, np.int64))}),
        batch_format="pyarrow",
    )
    joined = hash_join(uniq, ekeys, on=("u", "v"), how="left")

    def anti(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "e" not in t.column_names:
            return pa.table({"u": pa.array([], pa.int64()),
                             "v": pa.array([], pa.int64())})
        keep = t.filter(pc.is_null(t.column("e"), nan_is_null=True))
        return pa.table({"u": pc.cast(keep.column("u"), pa.int64()),
                         "v": pc.cast(keep.column("v"), pa.int64())})

    return joined.map_batches(anti, batch_format="pyarrow")


def q_graph_sssp(sf_dir: str):
    """Weighted shortest-path distances (≤ 3 relaxations, bounded
    Bellman–Ford) from the minimal node over the co-purchase graph with
    inverse-strength integer edge costs (10⁶ // n) — the KG relatedness
    metric unit-hop khop can't express: two strong links beat one weak
    one (functions/graph.sssp_distances). Oracle = 3 unrolled min-plus
    SQL rounds."""
    from ..functions.graph import sssp_distances

    return sssp_distances(_graph_edges(sf_dir, min_n=2).materialize(), k=3)


def _sssp_sql(n_iters: int = 3) -> str:
    """Unrolled bounded Bellman–Ford replicating functions/graph.
    sssp_distances: d₀ = {seed: 0}; dₖ₊₁(v) = min over incoming (incl. the
    0-cost self-loop) of dₖ(u) + w(u,v), w = 10⁶ // n."""
    parts = [f"""ed AS (SELECT u, v, n FROM ({_co_edges_sql(2)})),
    nodes AS (SELECT DISTINCT u AS node FROM ed
              UNION SELECT DISTINCT v FROM ed),
    e AS (SELECT u AS src, v AS dst, 1000000 // n AS w FROM ed
          UNION ALL SELECT v, u, 1000000 // n FROM ed
          UNION ALL SELECT node, node, 0 FROM nodes),
    d0 AS (SELECT MIN(u) AS node, 0 AS d FROM ed)"""]
    for r in range(1, n_iters + 1):
        parts.append(f"""d{r} AS (
        SELECT e.dst AS node, MIN(p.d + e.w) AS d
        FROM e JOIN d{r - 1} p ON p.node = e.src GROUP BY 1)""")
    return ("WITH " + ",\n    ".join(parts)
            + f"""
    SELECT CAST(node AS BIGINT) AS node, CAST(d AS BIGINT) AS dist
    FROM d{n_iters}""")


def q_graph_assortativity(sf_dir: str):
    """DEGREE ASSORTATIVITY of the co-purchase graph — do hubs link to
    hubs (r > 0) or to leaves (r < 0)? The KG topology diagnostic read
    before choosing hub-salting strategy. Exact rational arithmetic with
    NO sqrt: over the symmetrized edge list the src- and dst-degree
    distributions are identical, so Pearson's denominator √(dx·dy) = dx
    and r = (n·Σxy − Σx·Σy) / (n·Σx² − Σx²) exactly — emitted as
    assort_ppm = trunc(10⁶·num/den) plus the raw big-int moments.
    Distributed shape: degree table attached to both endpoints via two
    partitioned hash joins (never broadcast), five int64 Sum partials per
    batch, big-int finish on one row."""
    from ..functions.graph import degree_table
    from ..stages.canonicalize import grouped_aggregate
    from ..stages.joins import hash_join

    edges = _graph_edges(sf_dir, min_n=2).materialize()
    deg = degree_table(edges)

    def sym(t: pa.Table) -> pa.Table:
        u = pc.cast(t.column("u"), pa.int64()).to_numpy()
        v = pc.cast(t.column("v"), pa.int64()).to_numpy()
        return pa.table(
            {"src": pa.array(np.concatenate([u, v]), pa.int64()),
             "dst": pa.array(np.concatenate([v, u]), pa.int64())})

    s = edges.map_batches(sym, batch_format="pyarrow")
    du = deg.map_batches(
        lambda t: pa.table({"src": pc.cast(t.column("node"), pa.int64()),
                            "du": pc.cast(t.column("degree"), pa.int64())}),
        batch_format="pyarrow")
    dv = deg.map_batches(
        lambda t: pa.table({"dst": pc.cast(t.column("node"), pa.int64()),
                            "dv": pc.cast(t.column("degree"), pa.int64())}),
        batch_format="pyarrow")
    both = hash_join(hash_join(s, du, on=("src",)), dv, on=("dst",))

    def moments(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame({"g": pd.Series([], dtype="int64"),
                                 **{c: pd.Series([], dtype="int64")
                                    for c in ("n", "sx", "sy", "sxy", "sxx")}})
        x = df["du"].to_numpy(dtype=np.int64)
        y = df["dv"].to_numpy(dtype=np.int64)
        return pd.DataFrame({"g": [0], "n": [len(x)], "sx": [int(x.sum())],
                             "sy": [int(y.sum())], "sxy": [int((x * y).sum())],
                             "sxx": [int((x * x).sum())]})

    agg = grouped_aggregate(
        both.map_batches(moments, batch_format="pandas"), ["g"],
        Sum("n", alias_name="n"), Sum("sx", alias_name="sx"),
        Sum("sy", alias_name="sy"), Sum("sxy", alias_name="sxy"),
        Sum("sxx", alias_name="sxx")).to_pandas()
    n, sx, sy, sxy, sxx = (int(agg["n"][0]), int(agg["sx"][0]),
                           int(agg["sy"][0]), int(agg["sxy"][0]),
                           int(agg["sxx"][0]))
    num = 1_000_000 * (n * sxy - sx * sy)
    den = n * sxx - sx * sx
    ppm = -((-num) // den) if (num < 0) != (den < 0) else abs(num) // abs(den)
    return pa.table({"n_directed_edges": pa.array([n], pa.int64()),
                     "assort_num": pa.array([n * sxy - sx * sy]),
                     "assort_den": pa.array([den], pa.int64()),
                     "assort_ppm": pa.array([ppm], pa.int64())})


def q_graph_lpa(sf_dir: str):
    """Synchronous label-propagation communities on the co-purchase graph
    (3 rounds, deterministic max-count-then-min-label update) →
    (node, lab) — the entity-cluster refiner that splits CC chains whose
    junction nodes hear a different majority (functions/graph.
    label_propagation). Replicated by 3 unrolled SQL rounds of
    count + row_number argmax."""
    from ..functions.graph import label_propagation

    return label_propagation(_graph_edges(sf_dir, min_n=2).materialize(),
                             n_iters=3)


def _lpa_sql(n_iters: int = 3) -> str:
    """Unrolled synchronous LPA replicating functions/graph.
    label_propagation: labₖ₊₁(x) = argmax_ℓ neighbor-label count, ties →
    min ℓ (ORDER BY c DESC, lab)."""
    parts = [f"""ed AS (SELECT u, v FROM ({_co_edges_sql(2)})),
    e AS (SELECT u AS src, v AS dst FROM ed
          UNION ALL SELECT v AS src, u AS dst FROM ed),
    l0 AS (SELECT node, node AS lab FROM
             (SELECT DISTINCT u AS node FROM ed
              UNION SELECT DISTINCT v FROM ed))"""]
    for r in range(1, n_iters + 1):
        parts.append(f"""c{r} AS (
        SELECT e.dst AS node, l.lab, COUNT(*) AS c
        FROM e JOIN l{r - 1} l ON l.node = e.src GROUP BY 1, 2),
    l{r} AS (SELECT node, lab FROM (
          SELECT node, lab, row_number() OVER
            (PARTITION BY node ORDER BY c DESC, lab) AS rn FROM c{r})
        WHERE rn = 1)""")
    return ("WITH " + ",\n    ".join(parts)
            + f"""
    SELECT CAST(node AS BIGINT) AS node, CAST(lab AS BIGINT) AS lab
    FROM l{n_iters}""")


def q_graph_clustering(sf_dir: str):
    """Per-node LOCAL clustering coefficient over the min_n=2 co-purchase
    graph: cc = triangles(v) / C(deg(v), 2), reported as exact trunc-division
    ppm (no float ratio — hash-exact in both engines). Per-node triangle
    counts come from functions/graph.local_triangle_table — the per-vertex
    refinement of the oriented wedge-match plan, where each matched wedge
    credits its apex locally and its two endpoints decoded from the matched
    uint64 pair key, folded by a per-bucket np.unique combiner so the
    exchange is one row per (bucket, node), never per triangle. The degree
    side LEFT-joins the (sparse) triangle table to zero-fill
    triangle-free nodes; wedges(v) = deg·(deg−1)/2 is row-local."""
    from ..functions.graph import degree_table, local_triangle_table
    from ..stages.joins import hash_join

    edges = _graph_edges(sf_dir, min_n=2).materialize()
    schema = pa.schema([("node", pa.int64()), ("degree", pa.int64()),
                        ("n_tri", pa.int64()), ("cc_ppm", pa.int64())])
    if edges.count() == 0:
        return schema.empty_table()
    degs = degree_table(edges)
    tri = local_triangle_table(edges)
    joined = (hash_join(degs, tri, on=("node",), how="left")
              if tri.count() else degs.map_batches(
                  lambda t: t.append_column(
                      "tri", pa.array(np.zeros(t.num_rows, np.int64))),
                  batch_format="pyarrow"))

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame({"node": pd.Series([], dtype="int64"),
                                 "degree": pd.Series([], dtype="int64"),
                                 "n_tri": pd.Series([], dtype="int64"),
                                 "cc_ppm": pd.Series([], dtype="int64")})
        deg = df["degree"].to_numpy(dtype=np.int64)
        tri_n = (df["tri"].fillna(0).to_numpy(dtype=np.float64)
                 .astype(np.int64) if "tri" in df.columns
                 else np.zeros(len(deg), np.int64))
        wedges = deg * (deg - 1) // 2
        cc = np.where(wedges > 0, tri_n * 1_000_000 // np.maximum(wedges, 1), 0)
        return pd.DataFrame({"node": df["node"].to_numpy(dtype=np.int64),
                             "degree": deg, "n_tri": tri_n, "cc_ppm": cc})

    return joined.map_batches(finish, batch_format="pandas")


_WALK_STEPS = 3
_WALK_P = 1_000_000_007
_WALK_A, _WALK_B, _WALK_C = 73_856_093, 19_349_663, 83_492_791


def _walk_hash(start: np.ndarray, cur: np.ndarray, step: int) -> np.ndarray:
    """Deterministic next-hop selector — multiply/add/mod only, so the SQL
    oracle replicates it bit-for-bit (no xor/rotate, which SQL dialects
    disagree on). int64-safe for 32-bit node ids: max term ≈ 2³²·8.3e7 ≪
    2⁶³."""
    return (start * _WALK_A + cur * _WALK_B + step * _WALK_C) % _WALK_P


def q_graph_walks(sf_dir: str, *, degree_broadcast_threshold: int = 5_000_000):
    """Deterministic random walks (node2vec-style corpus generation for KG /
    graph embeddings): from EVERY node of the min_n=2 co-purchase graph,
    a 3-step walk whose next hop is neighbors-sorted-ascending[h % deg]
    with h the replicable hash above — seeded by (start, cur, step), so
    walks diverge per walker and per step yet are independent of
    parallelism. Plan: the symmetric adjacency gets a per-node neighbor
    rank ONCE (map_groups by node — one task per node, bounded by max
    degree; a 10⁶-neighbor supernode is one task, the known cost of rank
    assignment); each step is then ONE partitioned hash join at WALKER
    cardinality — the hop index is computed row-locally from the degree map
    (broadcast once up to ``degree_broadcast_threshold`` nodes, the same
    gate as triangle_count's degree attach; a per-step hash_join against
    the degree table above it) and probes the adjacency on the packed
    (cur≪32)|rank key — never a per-neighbor fan-out. Output: the full
    trajectory table (start, step, node), steps 0..3."""
    from ..stages.canonicalize import data_partitions, grouped_aggregate
    from ..stages.joins import hash_join

    edges = _graph_edges(sf_dir, min_n=2).materialize()
    schema = pa.schema([("start", pa.int64()), ("step", pa.int64()),
                        ("node", pa.int64())])
    if edges.count() == 0:
        return schema.empty_table()
    # iterative plan ⇒ size the 2 joins/step from the DATA (the walk state
    # is node-sized): cluster-sized partitioning pays ~50ms/task × 6 joins
    # on kilobyte exchanges (the graph_sssp/k-core lesson)
    NP = data_partitions(edges.size_bytes())

    sym = edges.map_batches(
        lambda t: pa.table(
            {"node": pa.concat_arrays([
                pc.cast(t.column("u"), pa.int64()).combine_chunks(),
                pc.cast(t.column("v"), pa.int64()).combine_chunks()]),
             "nbr": pa.concat_arrays([
                pc.cast(t.column("v"), pa.int64()).combine_chunks(),
                pc.cast(t.column("u"), pa.int64()).combine_chunks()])}),
        batch_format="pyarrow")

    def rank_group(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("nbr", kind="mergesort").reset_index(drop=True)
        g["r"] = np.arange(len(g), dtype=np.int64)
        return g

    adj = sym.groupby("node").map_groups(
        rank_group, batch_format="pandas").map_batches(
        lambda df: pd.DataFrame(
            {"ak": df["node"].to_numpy(np.int64) * (1 << 32)
                   + df["r"].to_numpy(np.int64),
             "nbr": df["nbr"].to_numpy(np.int64)}),
        batch_format="pandas").materialize()
    degs = grouped_aggregate(
        sym.map_batches(
            lambda t: pa.table(
                {"cur": t.column("node"),
                 "one": pa.array(np.ones(t.num_rows, np.int64), pa.int64())}),
            batch_format="pyarrow"),
        ["cur"], Sum("one", alias_name="deg")).materialize()

    small = degs.count() <= degree_broadcast_threshold
    dref = (ray.put({int(r["cur"]): int(r["deg"])
                     for r in collect_table(degs).to_pylist()})
            if small else None)
    # adjacency gate mirrors triangle_count's 2M-edge broadcast switch: the
    # ranked adjacency ships ONCE as two aligned int64 arrays (16 B/edge)
    # and each hop is a row-local searchsorted — 3 executions total; above
    # the gate every hop is a partitioned hash join on the packed key
    small_adj = small and edges.count() * 2 <= 2_000_000
    if small_adj:
        chunks = list(adj.iter_batches(batch_size=65536,
                                       batch_format="pyarrow"))
        ak = np.concatenate([c.column("ak").to_numpy() for c in chunks])
        nb = np.concatenate([c.column("nbr").to_numpy() for c in chunks])
        order = np.argsort(ak)
        aref = ray.put((ak[order], nb[order]))

    state = degs.map_batches(
        lambda t: pa.table({"start": pc.cast(t.column("cur"), pa.int64()),
                            "cur": pc.cast(t.column("cur"), pa.int64())}),
        batch_format="pyarrow")
    traj = [state.map_batches(
        lambda t: pa.table({"start": t.column("start"),
                            "step": pa.array(np.zeros(t.num_rows, np.int64),
                                             pa.int64()),
                            "node": t.column("cur")}),
        batch_format="pyarrow")]

    for step in range(1, _WALK_STEPS + 1):
        def pick_key(t: pa.Table, _s=step) -> pa.Table:
            start = pc.cast(t.column("start"), pa.int64()).to_numpy()
            cur = pc.cast(t.column("cur"), pa.int64()).to_numpy()
            if "deg" in t.column_names:
                deg = pc.cast(t.column("deg"), pa.int64()).to_numpy()
            else:
                dm = ray.get(dref)
                deg = np.fromiter((dm[x] for x in cur), np.int64, len(cur))
            idx = _walk_hash(start, cur, _s) % deg
            return pa.table({"start": pa.array(start, pa.int64()),
                             "ak": pa.array(cur * (1 << 32) + idx, pa.int64())})

        with_deg = (state if small
                    else hash_join(state, degs, on=("cur",),
                                   num_partitions=NP))
        keyed = with_deg.map_batches(pick_key, batch_format="pyarrow")
        if small_adj:
            def hop_local(t: pa.Table) -> pa.Table:
                ks, nbs = ray.get(aref)
                q = pc.cast(t.column("ak"), pa.int64()).to_numpy()
                pos = np.searchsorted(ks, q)  # every key exists by invariant
                return pa.table(
                    {"start": pc.cast(t.column("start"), pa.int64()),
                     "cur": pa.array(nbs[pos], pa.int64())})

            state = keyed.map_batches(hop_local,
                                      batch_format="pyarrow").materialize()
        else:
            hopped = hash_join(keyed, adj, on=("ak",), num_partitions=NP)
            state = hopped.map_batches(
                lambda t: pa.table(
                    {"start": pc.cast(t.column("start"), pa.int64()),
                     "cur": pc.cast(t.column("nbr"), pa.int64())}),
                batch_format="pyarrow").materialize()
        traj.append(state.map_batches(
            lambda t, _s=step: pa.table(
                {"start": t.column("start"),
                 "step": pa.array(np.full(t.num_rows, _s, np.int64), pa.int64()),
                 "node": t.column("cur")}),
            batch_format="pyarrow"))

    out = traj[0]
    for t in traj[1:]:
        out = out.union(t)
    return out


def q_graph_harmonic(sf_dir: str):
    """SAMPLED harmonic centrality (Boldi–Vigna's centrality made
    affordable): H(v) ≈ Σ over S pilot sources of 1/d(s,v), d ≤ 3 — the
    node-importance measure that, unlike PageRank, is distance- not
    flow-based. Exact BFS from all S sources SIMULTANEOUSLY via
    functions/graph.multi_source_khop (label key widened to (node, seed):
    S frontiers share the same k hash_join+Min rounds — S× label rows,
    never S× rounds). Contributions are integer ppm (10⁶ // hops), summed
    per node with a vocabulary-sized groupby; seeds are the 4 smallest
    node ids (deterministic, SQL-replicable), self-distances excluded.
    Output: (node, n_sources, harmonic_ppm)."""
    from ..functions.graph import multi_source_khop
    from ..stages.canonicalize import grouped_aggregate

    labels = multi_source_khop(_graph_edges(sf_dir, 2).materialize(),
                               k=3, n_seeds=4)

    def contrib(t: pa.Table) -> pa.Table:
        h = pc.cast(t.column("hops"), pa.int64()).to_numpy()
        keep = h > 0
        return pa.table(
            {"node": pc.cast(t.column("node"), pa.int64()).to_numpy()[keep],
             "one": pa.array(np.ones(int(keep.sum()), np.int64), pa.int64()),
             "ppm": pa.array(1_000_000 // h[keep], pa.int64())})

    return grouped_aggregate(
        labels.map_batches(contrib, batch_format="pyarrow"),
        ["node"], Sum("one", alias_name="n_sources"),
        Sum("ppm", alias_name="harmonic_ppm"))


def q_graph_neighbor_degree(sf_dir: str):
    """Mean NEIGHBOR degree per node in exact ppm — the friendship-paradox
    statistic and the simplest 1-hop GNN message-passing round (aggregate a
    neighbor attribute along edges). Plan: node-sized degree table (per-batch
    partials → one Sum), degrees attached to the directed edge list by ONE
    partitioned hash join on the neighbor endpoint (never a broadcast — the
    degree table is node-vocabulary-sized, the triangle_count lesson), then
    a per-source Sum fold back to node cardinality; mean = 10⁶·Σdeg(nbr) //
    deg(node) by truncated integer division. Exchange is O(edges) narrow
    rows + two node-sized aggregates; nothing node-sized on the driver.
    Output: (node, degree, nbr_degree_sum, mean_nbr_deg_ppm)."""
    from ..functions.graph import degree_table
    from ..stages.canonicalize import grouped_aggregate
    from ..stages.joins import hash_join

    edges = _graph_edges(sf_dir).materialize()
    deg = degree_table(edges).materialize()

    def directed(t: pa.Table) -> pa.Table:
        u = pc.cast(t.column("u"), pa.int64()).to_numpy()
        v = pc.cast(t.column("v"), pa.int64()).to_numpy()
        return pa.table({"node": pa.array(np.concatenate([u, v]), pa.int64()),
                         "nbr": pa.array(np.concatenate([v, u]), pa.int64())})

    adj = edges.map_batches(directed, batch_format="pyarrow")
    nbr_deg = hash_join(
        adj,
        deg.map_batches(
            lambda t: pa.table({"nbr": t.column("node"),
                                "nbr_degree": t.column("degree")}),
            batch_format="pyarrow"),
        on=("nbr",))

    def partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "node": pc.cast(t.column("node"), pa.int64()).to_numpy(),
            "nbr_degree_sum": pc.cast(t.column("nbr_degree"), pa.int64()).to_numpy(),
        })
        g = df.groupby("node", as_index=False).agg(
            nbr_degree_sum=("nbr_degree_sum", "sum"))
        return pa.Table.from_pandas(g, preserve_index=False)

    sums = grouped_aggregate(
        nbr_deg.map_batches(partial, batch_format="pyarrow"), ["node"],
        Sum("nbr_degree_sum", alias_name="nbr_degree_sum"),
    )
    out = hash_join(sums, deg, on=("node",))

    def finish(t: pa.Table) -> pa.Table:
        d = pc.cast(t.column("degree"), pa.int64()).to_numpy()
        s = pc.cast(t.column("nbr_degree_sum"), pa.int64()).to_numpy()
        return pa.table({
            "node": pc.cast(t.column("node"), pa.int64()),
            "degree": pa.array(d, pa.int64()),
            "nbr_degree_sum": pa.array(s, pa.int64()),
            "mean_nbr_deg_ppm": pa.array(s * 1_000_000 // d, pa.int64()),
        })

    return out.map_batches(finish, batch_format="pyarrow")
