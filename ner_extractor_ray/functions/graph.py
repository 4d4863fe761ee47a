"""Distributed graph analytics over an edge table — the KG-side operator
family (degree stats, triangle counting, connected components, PageRank) a
knowledge-graph pipeline runs AFTER materializing its edges.

The demo graph is the part co-purchase graph derived from ``lineitem``:
an undirected edge (u, v) with weight n = number of orders containing both
parts. This mirrors the reference's entity co-occurrence analysis
(``report/chapters/chapter3.tex`` clustering section) re-expressed as
Dataset-native graph ops.

Scale discipline (100 TB contract):
  * edge building groups lines by COARSE order-hash buckets (one Ray group
    per order would pay per-group overhead at web scale) and pair-counts are
    partial-aggregated before the (u, v) groupby — only (u, v, n) triples
    cross the shuffle, never line items;
  * triangle counting uses degree-ordered orientation, so wedge count is
    O(E^1.5) worst-case instead of Σ deg² — the standard MapReduce triangle
    algorithm (Suri & Vassilvitskii, WWW'11); edge-set membership tests
    broadcast the sorted uint64 key array up to a 2M-edge threshold and
    switch to a hash-partitioned match above it, and the degree attach has
    the same broadcast-vs-hash-join switch on node count;
  * PageRank keeps per-node state in a (node, outdeg, pr) label table and
    propagates contributions with the same hash_join + grouped-aggregate
    machinery as connected_components — no driver-side adjacency, no
    node-table broadcast;
  * PageRank arithmetic is SCALED INTEGER (parts-per-1e12 of total mass,
    floor division) so block-order never changes a result ulp: the output is
    bit-reproducible across parallelism levels AND exactly replicable by an
    unrolled SQL oracle (float power iteration is order-dependent in the
    last ulp and could not be hash-compared).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data
from ray.data.aggregate import Min, Sum

from ..stages.canonicalize import _compact_blocks, grouped_aggregate
from ..stages.joins import hash_join
from .blocking import pack_pairs, unpack_pairs

PR_SCALE = 10**12  # PageRank mass denominator (parts-per-SCALE integers)
PR_DAMP_NUM, PR_DAMP_DEN = 85, 100  # damping 0.85 as an exact ratio


def co_order_edges(
    lineitem_ds: "ray.data.Dataset", *, min_n: int = 1
) -> "ray.data.Dataset":
    """(u, v, n) undirected edges, u < v: parts co-occurring in ≥ min_n orders.

    Orders may span input blocks, so lines are first co-located by a coarse
    order-hash bucket; pair emission inside the bucket is a vectorized pandas
    self-merge (no Python loop over orders), pre-aggregated per bucket. The
    (u, v) pair is packed into ONE int64 key (u << 32 | v — node ids must fit
    31 bits, checked) so the final aggregate takes the single-int groupby
    fast path instead of the ~10×-slower synthetic-string multi-key path.
    """
    P = _compact_blocks()

    def add_part(t: pa.Table) -> pa.Table:
        ok = pc.cast(t.column("l_orderkey"), pa.int64()).to_numpy()
        return t.append_column("__part", pa.array(ok % P, pa.int64()))

    def part_pairs(g: pd.DataFrame) -> pd.DataFrame:
        lines = g[["l_orderkey", "l_partkey"]].drop_duplicates()
        m = lines.merge(lines, on="l_orderkey", suffixes=("_a", "_b"))
        m = m[m["l_partkey_a"] < m["l_partkey_b"]]
        out = (
            m.groupby(["l_partkey_a", "l_partkey_b"], as_index=False, sort=False)
            .size()
        )
        u = out["l_partkey_a"].to_numpy(dtype=np.int64)
        v = out["l_partkey_b"].to_numpy(dtype=np.int64)
        if u.size and (int(u.max()) >= (1 << 31) or int(v.max()) >= (1 << 31)):
            raise ValueError("part ids exceed 31 bits — widen the pair key")
        return pd.DataFrame(
            {"k": (u << 32) | v, "n": out["size"].to_numpy(dtype=np.int64)}
        )

    pairs = (
        lineitem_ds.map_batches(add_part, batch_format="pyarrow")
        .groupby("__part")
        .map_groups(part_pairs, batch_format="pandas")
    )
    # grouped_aggregate's bucketed plan, NOT ds.groupby(k).aggregate: the
    # native reduce pays per-distinct-key Python overhead (170 s for 1.2M
    # pair keys at sf0.1 vs ~4 s bucketed — measured round 3)
    agg = grouped_aggregate(pairs, ["k"], Sum("n", alias_name="n"))

    def decode(t: pa.Table) -> pa.Table:
        k = pc.cast(t.column("k"), pa.int64()).to_numpy()
        n = pc.cast(t.column("n"), pa.int64()).to_numpy()
        if min_n > 1:
            keep = n >= int(min_n)
            k, n = k[keep], n[keep]
        return pa.table(
            {"u": pa.array(k >> 32, pa.int64()),
             "v": pa.array(k & 0xFFFFFFFF, pa.int64()),
             "n": pa.array(n, pa.int64())}
        )

    return agg.map_batches(decode, batch_format="pyarrow")


def degree_table(edges_ds: "ray.data.Dataset") -> "ray.data.Dataset":
    """(node, degree) from undirected (u, v) edges — both endpoints counted,
    partial-aggregated per batch so only (node, partial count) shuffles."""

    def partial(t: pa.Table) -> pa.Table:
        nodes = np.concatenate(
            [
                pc.cast(t.column("u"), pa.int64()).to_numpy(),
                pc.cast(t.column("v"), pa.int64()).to_numpy(),
            ]
        )
        uniq, cnt = np.unique(nodes, return_counts=True)
        return pa.table(
            {"node": pa.array(uniq, pa.int64()),
             "degree": pa.array(cnt.astype(np.int64), pa.int64())}
        )

    return grouped_aggregate(
        edges_ds.map_batches(partial, batch_format="pyarrow"),
        ["node"],
        Sum("degree", alias_name="degree"),
    )


def triangle_count(
    edges_ds: "ray.data.Dataset",
    *,
    broadcast_threshold: int = 2_000_000,
    degree_broadcast_threshold: int = 5_000_000,
) -> pa.Table:
    """Global triangle/wedge/edge/node counts as ONE exact-integer row.

    Degree-ordered orientation: edge u→v iff (deg(u), u) < (deg(v), v); each
    triangle then has exactly one node with two out-edges, so counting
    (wedge ∈ oriented-edge-set) matches counts each triangle once.

    The membership test is the cost center. Up to ``broadcast_threshold``
    edges the oriented edge set is broadcast ONCE as a sorted uint64 key
    array (8 B/edge — 2M edges = 16 MB, the same broadcast-vs-shuffle switch
    as pipelines/kg.py joins) and every bucket tests its wedges with
    ``np.searchsorted`` — wedges are counted where they are generated and
    NEVER shuffled (a naive wedge↔edge groupby ships O(E^1.5) rows; measured
    89 s vs 4 s at sf0.01). Above the threshold, wedges and edges are
    hash-partitioned on the encoded int64 pair key and matched per partition
    in pandas — all-integer shuffle keys, no string key construction.

    The degree attach has the same two plans: up to
    ``degree_broadcast_threshold`` NODES the (node → degree) map is broadcast
    once via ``ray.put``; above it (corpus-sized node vocabulary — a 10⁹-node
    KG) degrees are attached with two partitioned ``hash_join`` passes
    against :func:`degree_table` and the destination degree travels WITH the
    oriented edge (column ``ddeg``), so wedge generation never consults a
    driver-side map.
    """
    degs = degree_table(edges_ds)
    n_nodes = degs.count()
    n_edges = edges_ds.count()

    if n_nodes <= degree_broadcast_threshold:
        from ..stages.materialize import collect_table
        deg = {int(r["node"]): int(r["degree"]) for r in collect_table(degs).to_pylist()}
        dref = ray.put(deg)

        def orient(t: pa.Table) -> pa.Table:
            dm = ray.get(dref)
            u = pc.cast(t.column("u"), pa.int64()).to_numpy()
            v = pc.cast(t.column("v"), pa.int64()).to_numpy()
            du = np.fromiter((dm[x] for x in u), np.int64, len(u))
            dv = np.fromiter((dm[x] for x in v), np.int64, len(v))
            fwd = (du < dv) | ((du == dv) & (u < v))
            return pa.table(
                {"src": pa.array(np.where(fwd, u, v), pa.int64()),
                 "dst": pa.array(np.where(fwd, v, u), pa.int64()),
                 "ddeg": pa.array(np.where(fwd, dv, du), pa.int64())}
            )

        oriented = edges_ds.map_batches(orient, batch_format="pyarrow").materialize()
    else:
        # corpus-sized node table: attach deg(u), deg(v) via two partitioned
        # hash joins (never broadcast), then orient row-locally
        du_side = degs.map_batches(
            lambda t: pa.table({"u": pc.cast(t.column("node"), pa.int64()),
                                "deg_u": pc.cast(t.column("degree"), pa.int64())}),
            batch_format="pyarrow",
        )
        dv_side = degs.map_batches(
            lambda t: pa.table({"v": pc.cast(t.column("node"), pa.int64()),
                                "deg_v": pc.cast(t.column("degree"), pa.int64())}),
            batch_format="pyarrow",
        )
        with_deg = hash_join(
            hash_join(edges_ds.select_columns(["u", "v"]), du_side, on=("u",)),
            dv_side, on=("v",),
        )

        def orient_joined(df: pd.DataFrame) -> pd.DataFrame:
            if df.empty:
                return pd.DataFrame({"src": pd.Series([], dtype="int64"),
                                     "dst": pd.Series([], dtype="int64"),
                                     "ddeg": pd.Series([], dtype="int64")})
            u = df["u"].to_numpy(dtype=np.int64)
            v = df["v"].to_numpy(dtype=np.int64)
            du = df["deg_u"].to_numpy(dtype=np.int64)
            dv = df["deg_v"].to_numpy(dtype=np.int64)
            fwd = (du < dv) | ((du == dv) & (u < v))
            return pd.DataFrame(
                {"src": np.where(fwd, u, v), "dst": np.where(fwd, v, u),
                 "ddeg": np.where(fwd, dv, du)}
            )

        oriented = with_deg.map_batches(
            orient_joined, batch_format="pandas"
        ).materialize()

    P = _compact_blocks()

    def add_part(t: pa.Table) -> pa.Table:
        s = pc.cast(t.column("src"), pa.int64()).to_numpy()
        return t.append_column("__part", pa.array(s % P, pa.int64()))

    def iter_wedges(g: pd.DataFrame):
        """Yield per-src wedge pair arrays (b, c) in (deg, id) key order.

        The destination degree rides along in the ``ddeg`` column, so
        neighbor ordering — the SAME (deg, id) total order as orientation,
        ensuring every wedge (b, c) has key(b) < key(c) — is a local lexsort
        with no driver-side degree map."""
        for _, grp in g.groupby("src", sort=False):
            nb = grp["dst"].to_numpy()
            if len(nb) < 2:
                continue
            key = np.lexsort((nb, grp["ddeg"].to_numpy()))
            nb = nb[key]
            i, j = np.triu_indices(len(nb), k=1)
            yield nb[i], nb[j]

    by_src = oriented.map_batches(add_part, batch_format="pyarrow").groupby("__part")

    if n_edges <= broadcast_threshold:
        def edge_keys(t: pa.Table) -> pa.Table:
            k = pack_pairs(
                pc.cast(t.column("src"), pa.int64()).to_numpy(),
                pc.cast(t.column("dst"), pa.int64()).to_numpy(),
            )
            return pa.table({"k": pa.array(k, pa.uint64())})

        # collect encoded keys driver-side once, staying ARROW end to end
        # (8 B/edge — take_all()'s per-row dicts would cost ~100 B/edge on
        # the driver at the 2M-edge threshold)
        key_chunks = [
            b.column("k").to_numpy(zero_copy_only=False)
            for b in oriented.map_batches(edge_keys, batch_format="pyarrow")
            .iter_batches(batch_size=65536, batch_format="pyarrow")
        ]
        keys = np.sort(np.concatenate(key_chunks)) if key_chunks else np.array([], np.uint64)
        kref = ray.put(keys)

        def part_counts(g: pd.DataFrame) -> pd.DataFrame:
            ks = ray.get(kref)
            wdg = tri = 0
            for b, c in iter_wedges(g):
                wdg += len(b)
                q = pack_pairs(b, c)
                pos = np.searchsorted(ks, q)
                pos[pos == len(ks)] = 0  # out-of-range probes → compare slot 0
                tri += int((ks[pos] == q).sum())
            return pd.DataFrame({"wdg": [wdg], "tri": [tri]}).astype("int64")

        agg = by_src.map_groups(part_counts, batch_format="pandas")
        n_wedges = int(agg.sum("wdg") or 0)
        n_triangles = int(agg.sum("tri") or 0)
    else:
        def part_wedge_rows(g: pd.DataFrame) -> pd.DataFrame:
            chunks = [
                pd.DataFrame({"k": pack_pairs(b, c)}) for b, c in iter_wedges(g)
            ]
            if not chunks:
                return pd.DataFrame({"k": pd.Series([], dtype="uint64"),
                                     "w": pd.Series([], dtype="int64")})
            w = pd.concat(chunks, ignore_index=True)
            return (
                w.groupby("k", as_index=False, sort=False)
                .size().rename(columns={"size": "w"}).astype({"w": "int64"})
            )

        wedge_rows = by_src.map_groups(part_wedge_rows, batch_format="pandas")

        def edge_rows_fn(t: pa.Table) -> pa.Table:
            k = pack_pairs(
                pc.cast(t.column("src"), pa.int64()).to_numpy(),
                pc.cast(t.column("dst"), pa.int64()).to_numpy(),
            )
            return pa.table({"k": pa.array(k, pa.uint64()),
                             "w": pa.array(np.full(len(k), -1, np.int64))})

        # hash-partition on the INTEGER key; a partition sees every row of a
        # given (b, c), so wedge multiplicities meet their edge marker (-1)
        def add_kpart(t: pa.Table) -> pa.Table:
            k = t.column("k").to_numpy()
            return t.append_column(
                "__part", pa.array((k % np.uint64(P)).astype(np.int64), pa.int64())
            )

        def part_match(g: pd.DataFrame) -> pd.DataFrame:
            s = g.groupby("k", sort=False)["w"].agg(["sum", "min"])
            hit = s["min"] == -1  # edge marker present
            wdg = int(s["sum"].sum()) + int(hit.sum())  # undo the -1 markers
            tri = int((s.loc[hit, "sum"] + 1).sum())
            return pd.DataFrame({"wdg": [wdg], "tri": [tri]}).astype("int64")

        both = wedge_rows.union(
            oriented.map_batches(edge_rows_fn, batch_format="pyarrow")
        ).map_batches(add_kpart, batch_format="pyarrow")
        agg = both.groupby("__part").map_groups(part_match, batch_format="pandas")
        n_wedges = int(agg.sum("wdg") or 0)
        n_triangles = int(agg.sum("tri") or 0)

    return pa.table(
        {"n_nodes": pa.array([n_nodes], pa.int64()),
         "n_edges": pa.array([n_edges], pa.int64()),
         "n_wedges": pa.array([n_wedges], pa.int64()),
         "n_triangles": pa.array([n_triangles], pa.int64())}
    )


def local_triangle_table(
    edges_ds: "ray.data.Dataset",
    *,
    broadcast_threshold: int = 2_000_000,
    degree_broadcast_threshold: int = 5_000_000,
) -> "ray.data.Dataset":
    """PER-NODE triangle counts (node, tri) — the per-vertex refinement of
    :func:`triangle_count`, for local clustering coefficients.

    Same degree-ordered orientation (each triangle generated once, at its
    unique two-out-edge apex) and the same two membership plans, but every
    matched wedge credits all THREE corners: the apex locally, and the two
    endpoints decoded from the matched uint64 pair key (b = k >> 32,
    c = k & 0xffffffff). Per-bucket credits fold through a per-batch
    ``np.unique`` combiner before the node-sized grouped aggregate, so the
    exchange is one row per (bucket, node-with-a-triangle), never per
    triangle. Nodes in no triangle are absent (LEFT-join against the degree
    table to zero-fill)."""
    degs = degree_table(edges_ds)
    n_nodes = degs.count()
    n_edges = edges_ds.count()
    if n_edges == 0:
        import ray.data as _rd

        return _rd.from_arrow(pa.table({"node": pa.array([], pa.int64()),
                                        "tri": pa.array([], pa.int64())}))

    if n_nodes <= degree_broadcast_threshold:
        from ..stages.materialize import collect_table
        deg = {int(r["node"]): int(r["degree"]) for r in collect_table(degs).to_pylist()}
        dref = ray.put(deg)

        def orient(t: pa.Table) -> pa.Table:
            dm = ray.get(dref)
            u = pc.cast(t.column("u"), pa.int64()).to_numpy()
            v = pc.cast(t.column("v"), pa.int64()).to_numpy()
            du = np.fromiter((dm[x] for x in u), np.int64, len(u))
            dv = np.fromiter((dm[x] for x in v), np.int64, len(v))
            fwd = (du < dv) | ((du == dv) & (u < v))
            return pa.table(
                {"src": pa.array(np.where(fwd, u, v), pa.int64()),
                 "dst": pa.array(np.where(fwd, v, u), pa.int64()),
                 "ddeg": pa.array(np.where(fwd, dv, du), pa.int64())})

        oriented = edges_ds.map_batches(orient, batch_format="pyarrow").materialize()
    else:
        du_side = degs.map_batches(
            lambda t: pa.table({"u": pc.cast(t.column("node"), pa.int64()),
                                "deg_u": pc.cast(t.column("degree"), pa.int64())}),
            batch_format="pyarrow")
        dv_side = degs.map_batches(
            lambda t: pa.table({"v": pc.cast(t.column("node"), pa.int64()),
                                "deg_v": pc.cast(t.column("degree"), pa.int64())}),
            batch_format="pyarrow")
        with_deg = hash_join(
            hash_join(edges_ds.select_columns(["u", "v"]), du_side, on=("u",)),
            dv_side, on=("v",))

        def orient_joined(df: pd.DataFrame) -> pd.DataFrame:
            if df.empty:
                return pd.DataFrame({"src": pd.Series([], dtype="int64"),
                                     "dst": pd.Series([], dtype="int64"),
                                     "ddeg": pd.Series([], dtype="int64")})
            u = df["u"].to_numpy(dtype=np.int64)
            v = df["v"].to_numpy(dtype=np.int64)
            du = df["deg_u"].to_numpy(dtype=np.int64)
            dv = df["deg_v"].to_numpy(dtype=np.int64)
            fwd = (du < dv) | ((du == dv) & (u < v))
            return pd.DataFrame(
                {"src": np.where(fwd, u, v), "dst": np.where(fwd, v, u),
                 "ddeg": np.where(fwd, dv, du)})

        oriented = with_deg.map_batches(
            orient_joined, batch_format="pandas").materialize()

    P = _compact_blocks()

    def add_part(t: pa.Table) -> pa.Table:
        s = pc.cast(t.column("src"), pa.int64()).to_numpy()
        return t.append_column("__part", pa.array(s % P, pa.int64()))

    def iter_wedges(g: pd.DataFrame):
        for apex, grp in g.groupby("src", sort=False):
            nb = grp["dst"].to_numpy()
            if len(nb) < 2:
                continue
            key = np.lexsort((nb, grp["ddeg"].to_numpy()))
            nb = nb[key]
            i, j = np.triu_indices(len(nb), k=1)
            yield int(apex), nb[i], nb[j]

    def _credit_rows(nodes: list[np.ndarray]) -> pd.DataFrame:
        if not nodes:
            return pd.DataFrame({"node": pd.Series([], dtype="int64"),
                                 "tri": pd.Series([], dtype="int64")})
        uniq, cnt = np.unique(np.concatenate(nodes), return_counts=True)
        return pd.DataFrame({"node": uniq.astype(np.int64),
                             "tri": cnt.astype(np.int64)})

    by_src = oriented.map_batches(add_part, batch_format="pyarrow").groupby("__part")

    if n_edges <= broadcast_threshold:
        def edge_keys(t: pa.Table) -> pa.Table:
            k = pack_pairs(
                pc.cast(t.column("src"), pa.int64()).to_numpy(),
                pc.cast(t.column("dst"), pa.int64()).to_numpy())
            return pa.table({"k": pa.array(k, pa.uint64())})

        key_chunks = [
            b.column("k").to_numpy(zero_copy_only=False)
            for b in oriented.map_batches(edge_keys, batch_format="pyarrow")
            .iter_batches(batch_size=65536, batch_format="pyarrow")
        ]
        keys = np.sort(np.concatenate(key_chunks)) if key_chunks else np.array([], np.uint64)
        kref = ray.put(keys)

        def part_credits(g: pd.DataFrame) -> pd.DataFrame:
            ks = ray.get(kref)
            credits: list[np.ndarray] = []
            if len(ks):
                for apex, b, c in iter_wedges(g):
                    q = pack_pairs(b, c)
                    pos = np.searchsorted(ks, q)
                    pos[pos == len(ks)] = 0
                    hit = ks[pos] == q
                    n_hit = int(hit.sum())
                    if n_hit:
                        credits += [np.full(n_hit, apex, np.int64), *unpack_pairs(q[hit])]
            return _credit_rows(credits)

        per_bucket = by_src.map_groups(part_credits, batch_format="pandas")
    else:
        def part_wedge_rows(g: pd.DataFrame) -> pd.DataFrame:
            ks, apexes = [], []
            for apex, b, c in iter_wedges(g):
                q = pack_pairs(b, c)
                ks.append(q)
                apexes.append(np.full(len(q), apex, np.int64))
            if not ks:
                return pd.DataFrame({"k": pd.Series([], dtype="uint64"),
                                     "apex": pd.Series([], dtype="int64"),
                                     "w": pd.Series([], dtype="int64")})
            w = pd.DataFrame({"k": np.concatenate(ks),
                              "apex": np.concatenate(apexes)})
            return (w.groupby(["k", "apex"], as_index=False, sort=False)
                    .size().rename(columns={"size": "w"}).astype({"w": "int64"}))

        wedge_rows = by_src.map_groups(part_wedge_rows, batch_format="pandas")

        def edge_rows_fn(t: pa.Table) -> pa.Table:
            k = pack_pairs(
                pc.cast(t.column("src"), pa.int64()).to_numpy(),
                pc.cast(t.column("dst"), pa.int64()).to_numpy())
            return pa.table({"k": pa.array(k, pa.uint64()),
                             "apex": pa.array(np.full(len(k), -1, np.int64)),
                             "w": pa.array(np.full(len(k), -1, np.int64))})

        def add_kpart(t: pa.Table) -> pa.Table:
            k = t.column("k").to_numpy()
            return t.append_column(
                "__part", pa.array((k % np.uint64(P)).astype(np.int64), pa.int64()))

        def part_match(g: pd.DataFrame) -> pd.DataFrame:
            # a key group whose min(w) == -1 has its edge present: every
            # wedge row (apex, w) there is w triangles at the apex, plus w
            # at each decoded endpoint of k
            has_edge = g.groupby("k", sort=False)["w"].min() == -1
            hot = g[g["k"].map(has_edge) & (g["w"] > 0)]
            if hot.empty:
                return _credit_rows([])
            w = hot["w"].to_numpy(dtype=np.int64)
            return _credit_rows(
                [np.repeat(x, w) for x in (hot["apex"].to_numpy(dtype=np.int64),
                                           *unpack_pairs(hot["k"].to_numpy(np.uint64)))])

        both = wedge_rows.union(
            oriented.map_batches(edge_rows_fn, batch_format="pyarrow")
        ).map_batches(add_kpart, batch_format="pyarrow")
        per_bucket = both.groupby("__part").map_groups(
            part_match, batch_format="pandas")

    return grouped_aggregate(per_bucket, ["node"], Sum("tri", alias_name="tri"))


def khop_distances(
    edges_ds: "ray.data.Dataset",
    *,
    k: int = 3,
    seed: int | None = None,
    num_partitions: int | None = None,
) -> "ray.data.Dataset":
    """Min-hop distances (≤ k) from a seed node → (node, hops).

    Bounded-round BFS — the KG neighborhood query ("everything within k
    hops of entity X"). Unit-weight instance of ``_bounded_relax``; see
    there for the distributed shape.
    """
    return _bounded_relax(edges_ds, k=k, seed=seed,
                          num_partitions=num_partitions,
                          edge_w=None, out="hops")


SSSP_WSCALE = 1_000_000  # inverse-strength edge cost numerator


def sssp_distances(
    edges_ds: "ray.data.Dataset",
    *,
    k: int = 3,
    seed: int | None = None,
    num_partitions: int | None = None,
) -> "ray.data.Dataset":
    """WEIGHTED shortest-path distances within ≤ k relaxations (bounded
    Bellman–Ford) from a seed node → (node, dist).

    Edge cost = SSSP_WSCALE // n (inverse co-occurrence strength, exact
    integer): strongly-linked entities are "close", weak links expensive —
    the KG relatedness query khop's unit hops cannot express (a 2-hop path
    through strong edges beats a direct weak edge). Same one-join-one-Min
    round machinery as khop (``_bounded_relax``); k bounds work, and
    because every relaxation is an int64 min the result is exactly
    replicable by k unrolled SQL CTEs.
    """
    def edge_w(n: np.ndarray) -> np.ndarray:
        return SSSP_WSCALE // n

    return _bounded_relax(edges_ds, k=k, seed=seed,
                          num_partitions=num_partitions,
                          edge_w=edge_w, out="dist")


def _bounded_relax(
    edges_ds: "ray.data.Dataset",
    *,
    k: int,
    seed: int | None,
    num_partitions: int | None,
    edge_w,
    out: str,
) -> "ray.data.Dataset":
    """k rounds of min-plus relaxation from ``seed`` over (u, v[, n]) edges
    → (node, <out>). ``edge_w`` maps the co-occurrence count column n to
    int64 edge costs (None ⇒ unit weights / BFS).

    The symmetrized weighted edge list is unioned with per-node SELF-LOOPS
    (weight 0) so one hash_join + groupby-Min per round both propagates
    dist+w to neighbors and preserves existing labels — no label∪proposal
    union, whose mixed block types Ray's shuffle rejects. Labels are
    node-sized and materialized per round; edges are never broadcast.
    ``seed`` defaults to the globally minimal node id.
    """
    def _sym_w(t: pa.Table) -> pa.Table:
        u = pc.cast(t.column("u"), pa.int64()).to_numpy()
        v = pc.cast(t.column("v"), pa.int64()).to_numpy()
        if edge_w is None:
            w = np.ones(len(u), np.int64)
        else:
            w = edge_w(pc.cast(t.column("n"), pa.int64()).to_numpy())
        return pa.table(
            {"src": pa.array(np.concatenate([u, v]), pa.int64()),
             "dst": pa.array(np.concatenate([v, u]), pa.int64()),
             "w": pa.array(np.concatenate([w, w]), pa.int64())}
        )

    def _loops(t: pa.Table) -> pa.Table:
        nd = pc.cast(t.column("node"), pa.int64())
        return pa.table(
            {"src": nd, "dst": nd,
             "w": pa.array(np.zeros(len(nd), np.int64), pa.int64())}
        )

    nodes = degree_table(edges_ds)
    graph = (
        edges_ds.map_batches(_sym_w, batch_format="pyarrow")
        .union(nodes.map_batches(_loops, batch_format="pyarrow"))
        .materialize()
    )
    if num_partitions is None:
        from ..stages.canonicalize import data_partitions

        # DATA-sized: graph is the per-round join input — compact once so
        # every relax round runs a constant, data-proportional task count
        num_partitions = data_partitions(graph.size_bytes() or 0)
    graph = graph.repartition(num_partitions).materialize()
    if seed is None:
        s = graph.min("src")
        if s is None:
            import ray.data as _rd

            return _rd.from_arrow(pa.table({"node": pa.array([], pa.int64()),
                                            out: pa.array([], pa.int64())}))
        seed = int(s)

    import ray.data as _rd

    labels = _rd.from_arrow(
        pa.table({"node": pa.array([seed], pa.int64()),
                  out: pa.array([0], pa.int64())})
    ).materialize()

    def _relax_add(df: pd.DataFrame) -> pd.DataFrame:
        # stays PANDAS: hash_join emits pandas blocks (empty partitions
        # included) and a pyarrow map here would skip the empty ones,
        # poisoning the downstream shuffle with mixed block types
        if df.empty:
            return pd.DataFrame({"dst": pd.Series([], dtype="int64"),
                                 "h2": pd.Series([], dtype="int64")})
        return pd.DataFrame(
            {"dst": df["dst"].astype("int64"),
             "h2": (df[out] + df["w"]).astype("int64")}
        )

    for _ in range(k):
        lab_src = labels.map_batches(
            lambda t: pa.table({"src": pc.cast(t.column("node"), pa.int64()),
                                out: pc.cast(t.column(out), pa.int64())}),
            batch_format="pyarrow",
        )
        joined = hash_join(graph, lab_src, on=("src",),
                           num_partitions=num_partitions)
        labels = (
            grouped_aggregate(
                joined.map_batches(_relax_add, batch_format="pandas"),
                ["dst"], Min("h2", alias_name=out),
                num_buckets=num_partitions)
            .map_batches(
                lambda t: pa.table(
                    {"node": pc.cast(t.column("dst"), pa.int64()),
                     out: pc.cast(t.column(out), pa.int64())}
                ),
                batch_format="pyarrow",
            )
            .repartition(num_partitions)
            .materialize()
        )
    return labels


def multi_source_khop(
    edges_ds: "ray.data.Dataset",
    *,
    k: int = 3,
    n_seeds: int = 4,
    num_partitions: int | None = None,
) -> "ray.data.Dataset":
    """Min-hop distances (≤ k) from EACH of the ``n_seeds`` smallest node
    ids, simultaneously → (node, sid, hops) with sid = the seed's node id.

    The multi-source generalization of :func:`khop_distances` (same
    one-hash_join-one-Min round; see ``_bounded_relax``) with the label
    key widened to (node, seed): all S frontiers advance in the SAME k
    rounds — S× label rows, not S× rounds — which is what makes
    sampled-source centralities affordable. Seeds are found with a
    lossless per-batch partial min-k (no sort of the node table)."""
    import ray.data as _rd

    def _sym(t: pa.Table) -> pa.Table:
        u = pc.cast(t.column("u"), pa.int64()).to_numpy()
        v = pc.cast(t.column("v"), pa.int64()).to_numpy()
        return pa.table(
            {"src": pa.array(np.concatenate([u, v]), pa.int64()),
             "dst": pa.array(np.concatenate([v, u]), pa.int64())})

    def _loops(t: pa.Table) -> pa.Table:
        nd = pc.cast(t.column("node"), pa.int64())
        return pa.table({"src": nd, "dst": nd})

    nodes = degree_table(edges_ds)
    graph = (
        edges_ds.map_batches(_sym, batch_format="pyarrow")
        .union(nodes.map_batches(_loops, batch_format="pyarrow"))
        .materialize()
    )
    if num_partitions is None:
        from ..stages.canonicalize import data_partitions

        num_partitions = data_partitions(graph.size_bytes() or 0)
    graph = graph.repartition(num_partitions).materialize()

    def _mink(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values("node").head(n_seeds)

    seeds = [int(r["node"]) for r in
             nodes.map_batches(_mink, batch_format="pandas")
             .repartition(1)
             .map_batches(_mink, batch_format="pandas").take_all()]
    if not seeds:
        return _rd.from_arrow(pa.table(
            {"node": pa.array([], pa.int64()),
             "sid": pa.array([], pa.int64()),
             "hops": pa.array([], pa.int64())}))

    labels = _rd.from_arrow(pa.table(
        {"node": pa.array(seeds, pa.int64()),
         "sid": pa.array(seeds, pa.int64()),
         "hops": pa.array([0] * len(seeds), pa.int64())})).materialize()

    def _relax(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame({"dst": pd.Series([], dtype="int64"),
                                 "sid": pd.Series([], dtype="int64"),
                                 "h2": pd.Series([], dtype="int64")})
        return pd.DataFrame(
            {"dst": df["dst"].astype("int64"),
             "sid": df["sid"].astype("int64"),
             # self-loops carry the existing label (hops+0 via dst=src)
             "h2": (df["hops"] + (df["dst"] != df["src"])).astype("int64")})

    for _ in range(k):
        lab_src = labels.map_batches(
            lambda t: pa.table({"src": pc.cast(t.column("node"), pa.int64()),
                                "sid": pc.cast(t.column("sid"), pa.int64()),
                                "hops": pc.cast(t.column("hops"), pa.int64())}),
            batch_format="pyarrow")
        joined = hash_join(graph, lab_src, on=("src",),
                           num_partitions=num_partitions)
        labels = (
            grouped_aggregate(
                joined.map_batches(_relax, batch_format="pandas"),
                ["dst", "sid"], Min("h2", alias_name="hops"),
                num_buckets=num_partitions)
            .map_batches(
                lambda t: pa.table(
                    {"node": pc.cast(t.column("dst"), pa.int64()),
                     "sid": pc.cast(t.column("sid"), pa.int64()),
                     "hops": pc.cast(t.column("hops"), pa.int64())}),
                batch_format="pyarrow")
            .repartition(num_partitions)
            .materialize()
        )
    return labels


def common_neighbor_pairs(
    edges_ds: "ray.data.Dataset",
    *,
    min_common: int = 2,
    max_degree: int | None = None,
) -> "ray.data.Dataset":
    """Link prediction by common-neighbor counts: all NON-adjacent node
    pairs (a, b), a < b, sharing ≥ ``min_common`` neighbors → (id_a, id_b,
    common_neighbors). In a KG this is the candidate-generation step for
    entity merging / missing-edge suggestion.

    Plan: wedges are enumerated where they are generated — symmetrized
    edges co-locate by CENTER node (coarse src-hash buckets, one Ray group
    per bucket not per node), a vectorized pandas self-merge emits each
    center's neighbor pairs, and pair counts are pre-aggregated inside the
    bucket before the global groupby on the packed uint64 pair key. The
    adjacency exclusion is a side-tagged union on the same packed key
    (candidates carry is_edge=0, edges is_edge=1; keep groups whose edge
    flag sums to 0) — no join, 16 B/row shuffle.

    Σ deg² hazard: wedge count is quadratic in hub degree. ``max_degree``
    (None = exact) drops CENTERS above the cap before emission — the
    standard web-graph mitigation (hub centers connect everything to
    everything and carry no linking signal); the SQL oracle is only exact
    for the default None.
    """
    P = _compact_blocks()

    def _sym(t: pa.Table) -> pa.Table:
        u = pc.cast(t.column("u"), pa.int64()).to_numpy()
        v = pc.cast(t.column("v"), pa.int64()).to_numpy()
        src = np.concatenate([u, v])
        dst = np.concatenate([v, u])
        return pa.table(
            {"src": pa.array(src, pa.int64()),
             "dst": pa.array(dst, pa.int64()),
             "__part": pa.array(src % P, pa.int64())}
        )

    def bucket_wedges(g: pd.DataFrame) -> pd.DataFrame:
        if max_degree is not None:
            deg = g.groupby("src")["dst"].transform("size")
            g = g[deg <= max_degree]
        if g.empty:
            return pd.DataFrame({"k": pd.Series([], dtype="uint64"),
                                 "cn": pd.Series([], dtype="int64")})
        m = g.merge(g, on="src", suffixes=("_a", "_b"))
        m = m[m["dst_a"] < m["dst_b"]]
        out = (
            m.groupby(["dst_a", "dst_b"], as_index=False, sort=False)
            .size()
        )
        k = pack_pairs(out["dst_a"].to_numpy(np.int64),
                       out["dst_b"].to_numpy(np.int64))
        return pd.DataFrame({"k": k, "cn": out["size"].astype("int64")})

    cand = (
        edges_ds.map_batches(_sym, batch_format="pyarrow")
        .groupby("__part")
        .map_groups(bucket_wedges, batch_format="pandas")
        .map_batches(
            lambda df: df.assign(is_edge=np.zeros(len(df), np.int64)),
            batch_format="pandas",
        )
    )

    def _edge_keys(df: pd.DataFrame) -> pd.DataFrame:
        u = df["u"].to_numpy(dtype=np.int64)
        v = df["v"].to_numpy(dtype=np.int64)
        return pd.DataFrame(
            {"k": pack_pairs(u, v),
             "cn": np.zeros(len(u), np.int64),
             "is_edge": np.ones(len(u), np.int64)}
        )

    edge_tag = edges_ds.map_batches(_edge_keys, batch_format="pandas")
    merged = grouped_aggregate(
        cand.union(edge_tag), ["k"],
        Sum("cn", alias_name="cn"), Sum("is_edge", alias_name="is_edge"),
    )

    m = int(min_common)

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame({"id_a": pd.Series([], dtype="int64"),
                                 "id_b": pd.Series([], dtype="int64"),
                                 "common_neighbors": pd.Series([], dtype="int64")})
        df = df[(df["is_edge"] == 0) & (df["cn"] >= m)]
        a, b = unpack_pairs(df["k"].to_numpy(np.uint64))
        return pd.DataFrame({"id_a": a, "id_b": b,
                             "common_neighbors": df["cn"].to_numpy(np.int64)})

    return merged.map_batches(finish, batch_format="pandas")


def kcore_peel(
    edges_ds: "ray.data.Dataset",
    *,
    k: int = 2,
    rounds: int = 3,
    num_partitions: int | None = None,
) -> "ray.data.Dataset":
    """``rounds`` peel iterations toward the k-core: each round drops every
    node whose CURRENT degree is < k, then the edges touching it. Output:
    (node, degree) over the surviving subgraph. Bounded rounds (not
    iterate-to-convergence) keep the operator exactly replicable by
    ``rounds`` unrolled SQL CTEs and give a fixed cost bound at scale — the
    full k-core is the fixpoint, reached when a round removes nothing.

    Each round = one node-sized degree aggregate + two partitioned
    hash_joins (semi-join edges on surviving u, then surviving v). Edges are
    never broadcast and never leave the partitioned path; the keep table is
    node-sized. Early-exits when the edge set empties.

    Partitions are DATA-sized from the materialized edge table
    (canonicalize.data_partitions), and the surviving edge set is
    repartitioned every round BEFORE materializing — each union/sort pass
    emits ≈ (sum of input block counts) blocks, so without the cap the
    block count compounds across rounds and round r costs O(2^r) tiny
    tasks (observed: 1,152 four-row tasks by round 3 on a 3.4k-edge graph).
    """

    def _uv(t: pa.Table) -> pa.Table:
        return pa.table({"u": pc.cast(t.column("u"), pa.int64()),
                         "v": pc.cast(t.column("v"), pa.int64())})

    def _norm(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame({"u": pd.Series([], dtype="int64"),
                                 "v": pd.Series([], dtype="int64")})
        return df[["u", "v"]].astype("int64")

    def _empty_out() -> "ray.data.Dataset":
        import ray.data as _rd

        return _rd.from_arrow(pa.table({"node": pa.array([], pa.int64()),
                                        "degree": pa.array([], pa.int64())}))

    kk = int(k)
    cur = edges_ds.map_batches(_uv, batch_format="pyarrow").materialize()
    if num_partitions is None:
        from ..stages.canonicalize import data_partitions

        num_partitions = data_partitions(cur.size_bytes() or 0)
    cur = cur.repartition(num_partitions).materialize()
    for _ in range(rounds):
        if cur.count() == 0:
            return _empty_out()
        keep = degree_table(cur).map_batches(
            lambda t: t.filter(pc.greater_equal(
                pc.cast(t.column("degree"), pa.int64()), kk)),
            batch_format="pyarrow",
        ).materialize()
        if keep.count() == 0:
            return _empty_out()
        ku = keep.map_batches(
            lambda t: pa.table({"u": pc.cast(t.column("node"), pa.int64())}),
            batch_format="pyarrow",
        )
        kv = keep.map_batches(
            lambda t: pa.table({"v": pc.cast(t.column("node"), pa.int64())}),
            batch_format="pyarrow",
        )
        cur = (
            hash_join(
                hash_join(cur, ku, on=("u",), num_partitions=num_partitions),
                kv, on=("v",), num_partitions=num_partitions,
            )
            .map_batches(_norm, batch_format="pandas")
            .repartition(num_partitions)
            .materialize()
        )
    if cur.count() == 0:
        return _empty_out()
    return degree_table(cur)


def pagerank(
    edges_ds: "ray.data.Dataset",
    *,
    n_iters: int = 3,
    num_partitions: int | None = None,
    personalize_seed: int | None = None,
    driver_threshold: int = 500_000,
) -> "ray.data.Dataset":
    """Integer power iteration → (node, pr) with pr in parts-per-``PR_SCALE``.

    pr₀ = SCALE // N;  prₖ₊₁(x) = BASE + (85·Σ_{(u,x)∈E} prₖ(u)//outdeg(u))//100
    with BASE = (15·(SCALE//N))//100 — every op is exact int64, so the result
    is independent of block order / parallelism and replicable in SQL.

    With ``personalize_seed`` set, this is PERSONALIZED PageRank (the KG
    "entities related to X" relevance walk): all initial mass and all
    teleport mass concentrate at the seed — pr₀(v) = SCALE·[v = s],
    BASE(v) = (15·SCALE)//100·[v = s] — same rounds, same traffic; only
    the two node-local constants change.

    Distributed shape: ONE hash_join per round (symmetrized edges ⋈ label
    shares — node state never broadcast), then contributions are merged with
    per-node zero rows carrying outdeg in a single groupby (Sum c /
    Min outdeg), so outdeg re-attachment costs no second join — one sort
    shuffle per round instead of two. Each round materializes the label
    table (node-sized, not corpus-sized) so the lazy lineage doesn't
    re-execute prior rounds.
    """
    deg = degree_table(edges_ds)  # symmetric graph: outdeg == degree
    n_nodes = deg.count()
    if n_nodes == 0:
        # from_arrow, NOT a map over the empty dataset: an empty input can
        # yield ZERO blocks, losing the (node, pr) schema downstream (the
        # all-empty to_pandas hazard _qcommon._nonempty_or_empty_table
        # documents).
        return ray.data.from_arrow(pa.table(
            {"node": pa.array([], pa.int64()),
             "pr": pa.array([], pa.int64())}))
    if personalize_seed is None:
        base = (15 * (PR_SCALE // n_nodes)) // 100
        init = PR_SCALE // n_nodes
        seed = None
    else:
        base = (15 * PR_SCALE) // 100
        init = PR_SCALE
        seed = int(personalize_seed)

    def _sym(t: pa.Table) -> pa.Table:
        u = pc.cast(t.column("u"), pa.int64()).to_numpy()
        v = pc.cast(t.column("v"), pa.int64()).to_numpy()
        return pa.table(
            {"src": pa.array(np.concatenate([u, v]), pa.int64()),
             "dst": pa.array(np.concatenate([v, u]), pa.int64())}
        )

    sym = edges_ds.map_batches(_sym, batch_format="pyarrow").materialize()

    if sym.count() <= driver_threshold:
        # small-graph DRIVER plan (the canonicalize.py driver_threshold
        # pattern): each distributed round costs a join + groupby execution
        # (seconds of fixed latency), so a graph whose symmetrized edge list
        # fits trivially in one heap runs the SAME integer ops locally —
        # bit-identical output (np.add.at is exact int64 accumulation),
        # pinned by the forced-path test in tests/test_graph.py. Above the
        # gate the partitioned rounds below are unchanged.
        chunks = [b for b in sym.iter_batches(batch_size=65536,
                                              batch_format="pyarrow")]
        tbl = pa.concat_tables(chunks)
        src = pc.cast(tbl.column("src"), pa.int64()).to_numpy(zero_copy_only=False)
        dst = pc.cast(tbl.column("dst"), pa.int64()).to_numpy(zero_copy_only=False)
        nodes = np.unique(np.concatenate([src, dst]))
        si = np.searchsorted(nodes, src)
        di = np.searchsorted(nodes, dst)
        outdeg = np.bincount(si, minlength=len(nodes)).astype(np.int64)
        pr0 = (np.full(len(nodes), init, np.int64) if seed is None
               else np.where(nodes == seed, np.int64(init), np.int64(0)))
        b_vec = (np.full(len(nodes), base, np.int64) if seed is None
                 else np.where(nodes == seed, np.int64(base), np.int64(0)))
        pr = pr0
        for _ in range(n_iters):
            share = pr // outdeg
            contrib = np.zeros(len(nodes), np.int64)
            np.add.at(contrib, di, share[si])
            pr = b_vec + (PR_DAMP_NUM * contrib) // PR_DAMP_DEN
        return ray.data.from_arrow(pa.table(
            {"node": pa.array(nodes, pa.int64()),
             "pr": pa.array(pr, pa.int64())}))

    if num_partitions is None:
        from ..stages.canonicalize import data_partitions

        # DATA-sized (not cluster-sized): sym is re-joined every round, so
        # its block count bounds each round's task count — compact it once
        num_partitions = data_partitions(sym.size_bytes() or 0)
    sym = sym.repartition(num_partitions).materialize()

    def _init_labels(t: pa.Table) -> pa.Table:
        nd = pc.cast(t.column("node"), pa.int64()).to_numpy()
        pr0 = (np.full(t.num_rows, init, np.int64) if seed is None
               else np.where(nd == seed, np.int64(init), np.int64(0)))
        return pa.table(
            {"node": pa.array(nd, pa.int64()),
             "outdeg": pc.cast(t.column("degree"), pa.int64()),
             "pr": pa.array(pr0, pa.int64())})

    labels = deg.map_batches(_init_labels, batch_format="pyarrow").materialize()

    _SENTINEL = np.int64(2**62)  # > any real degree; Min picks the real one

    def _zero_rows(t: pa.Table) -> pa.Table:
        # every node contributes a (c=0, outdeg=real) row, so the single
        # groupby below yields ALL nodes with their outdeg attached — this
        # replaces a second per-round hash_join (labels ⋈ contrib) with a
        # union into the aggregate's existing shuffle, one sort per round
        # instead of two
        return pa.table(
            {"node": pc.cast(t.column("node"), pa.int64()),
             "c": pa.array(np.zeros(t.num_rows, np.int64), pa.int64()),
             "outdeg": pc.cast(t.column("outdeg"), pa.int64())}
        )

    for _ in range(n_iters):
        shares = labels.map_batches(
            lambda t: pa.table(
                {"src": t.column("node"),
                 "share": pa.array(
                     t.column("pr").to_numpy() // t.column("outdeg").to_numpy(),
                     pa.int64())}
            ),
            batch_format="pyarrow",
        )
        contrib_rows = hash_join(
            sym, shares, on=("src",), num_partitions=num_partitions
        ).map_batches(
            lambda t: pa.table(
                {"node": pc.cast(t.column("dst"), pa.int64()),
                 "c": pc.cast(t.column("share"), pa.int64()),
                 "outdeg": pa.array(
                     np.full(t.num_rows, _SENTINEL, np.int64), pa.int64())}
            ),
            batch_format="pyarrow",
        )
        merged = grouped_aggregate(
            contrib_rows.union(labels.map_batches(_zero_rows, batch_format="pyarrow")),
            ["node"],
            Sum("c", alias_name="c"),
            Min("outdeg", alias_name="outdeg"),
        )
        def _update(t: pa.Table) -> pa.Table:
            nd = pc.cast(t.column("node"), pa.int64()).to_numpy()
            b = (base if seed is None
                 else np.where(nd == seed, np.int64(base), np.int64(0)))
            return pa.table(
                {"node": pa.array(nd, pa.int64()),
                 "outdeg": pc.cast(t.column("outdeg"), pa.int64()),
                 "pr": pa.array(
                     b + (PR_DAMP_NUM
                          * pc.cast(t.column("c"), pa.int64()).to_numpy())
                     // PR_DAMP_DEN,
                     pa.int64())})

        labels = (
            merged.map_batches(_update, batch_format="pyarrow")
            .repartition(num_partitions)
            .materialize()
        )
    return labels.select_columns(["node", "pr"])


def label_propagation(
    edges_ds: "ray.data.Dataset",
    *,
    n_iters: int = 3,
    num_partitions: int | None = None,
) -> "ray.data.Dataset":
    """Synchronous label-propagation community detection → (node, lab).

    lab₀(x) = x;  labₖ₊₁(x) = argmax_ℓ |{u ∈ N(x) : labₖ(u) = ℓ}|, ties → min ℓ
    — fully deterministic (no RNG, no asynchronous update order), so the
    result is independent of parallelism and replicable as unrolled SQL.
    The entity-cluster refiner run after canonicalization's connected
    components: CC merges everything reachable, LPA splits chains whose
    junction nodes hear a different majority.

    Distributed shape per round (same skeleton as ``pagerank``): ONE
    hash-partitioned join (symmetrized edges ⋈ labels — node state is never
    broadcast), per-batch (node, lab) count partials, one pair-keyed
    aggregate, then the argmax folds WITHOUT a second shuffle stage: count
    and label pack into ONE int64 (c·2³² + (2³²−1−lab), labels must fit
    31 bits — enforced) so a Max aggregate picks max-count-then-min-label in
    the same groupby. Each round materializes the node-sized label table so
    the lazy lineage doesn't re-run prior rounds.
    """
    from ray.data.aggregate import Max

    deg = degree_table(edges_ds)
    if deg.count() == 0:
        return deg.map_batches(
            lambda t: pa.table({"node": pa.array([], pa.int64()),
                                "lab": pa.array([], pa.int64())}),
            batch_format="pyarrow",
        )

    def _sym(t: pa.Table) -> pa.Table:
        u = pc.cast(t.column("u"), pa.int64()).to_numpy()
        v = pc.cast(t.column("v"), pa.int64()).to_numpy()
        return pa.table(
            {"src": pa.array(np.concatenate([u, v]), pa.int64()),
             "dst": pa.array(np.concatenate([v, u]), pa.int64())}
        )

    sym = edges_ds.map_batches(_sym, batch_format="pyarrow").materialize()
    if num_partitions is None:
        from ..stages.canonicalize import data_partitions

        num_partitions = data_partitions(sym.size_bytes() or 0)
    sym = sym.repartition(num_partitions).materialize()

    _LAB_LIMIT = np.int64(1) << 31
    _UNPACK = (np.int64(1) << 32) - 1

    labels = deg.map_batches(
        lambda t: pa.table(
            {"node": pc.cast(t.column("node"), pa.int64()),
             "lab": pc.cast(t.column("node"), pa.int64())}
        ),
        batch_format="pyarrow",
    ).materialize()

    def _pair_counts(t: pa.Table) -> pa.Table:
        # per-batch partial: count (dst, lab) pairs before the shuffle
        node = pc.cast(t.column("dst"), pa.int64()).to_numpy()
        lab = pc.cast(t.column("lab"), pa.int64()).to_numpy()
        if lab.size and (lab.max() >= _LAB_LIMIT or lab.min() < 0):
            raise ValueError("label_propagation: labels must fit 31 bits")
        key = (node << np.int64(32)) | lab  # node ids 31-bit (co_order_edges)
        uniq, cnt = np.unique(key, return_counts=True)
        return pa.table(
            {"node": pa.array(uniq >> np.int64(32), pa.int64()),
             "lab": pa.array(uniq & _UNPACK, pa.int64()),
             "c": pa.array(cnt.astype(np.int64), pa.int64())}
        )

    for _ in range(n_iters):
        heard = hash_join(
            sym, labels.map_batches(
                lambda t: pa.table(
                    {"src": t.column("node"), "lab": t.column("lab")}),
                batch_format="pyarrow"),
            on=("src",), num_partitions=num_partitions,
        ).map_batches(_pair_counts, batch_format="pyarrow")
        counts = grouped_aggregate(heard, ["node", "lab"],
                                   Sum("c", alias_name="c"))

        def _pack(t: pa.Table) -> pa.Table:
            c = pc.cast(t.column("c"), pa.int64()).to_numpy()
            lab = pc.cast(t.column("lab"), pa.int64()).to_numpy()
            packed = (c << np.int64(32)) | (_UNPACK - lab)
            return pa.table({"node": t.column("node"),
                             "packed": pa.array(packed, pa.int64())})

        labels = (
            grouped_aggregate(
                counts.map_batches(_pack, batch_format="pyarrow"),
                ["node"], Max("packed", alias_name="packed"))
            .map_batches(
                lambda t: pa.table(
                    {"node": pc.cast(t.column("node"), pa.int64()),
                     "lab": pa.array(
                         _UNPACK - (pc.cast(t.column("packed"), pa.int64())
                                    .to_numpy() & _UNPACK), pa.int64())}),
                batch_format="pyarrow")
            .repartition(num_partitions)
            .materialize()
        )
    return labels


def pagerank_weighted(
    edges_ds: "ray.data.Dataset",
    *,
    n_iters: int = 3,
    num_partitions: int | None = None,
    driver_threshold: int = 500_000,
    max_weight: int = 4_000_000,
) -> "ray.data.Dataset":
    """EDGE-WEIGHTED integer PageRank → (node, pr): contributions split
    ∝ edge weight — prₖ₊₁(x) = BASE + (85·Σ_{(u,x,w)} (prₖ(u)·w)//W(u))//100
    with W(u) = Σ outgoing weight, per-EDGE floor division (deterministic,
    order-free, SQL-replicable). The crawl-ranking variant where a host
    linking another 500 times endorses it more than a single footer link.

    Input: (u, v, w) undirected weighted edges; both directions carry w.
    Weights must satisfy w ≤ ``max_weight`` (pr·w stays < 2⁶³ with
    pr ≤ PR_SCALE = 10¹²) — checked with an explicit raise; silently
    wrapping int64 would corrupt ranks. Same two plans as :func:`pagerank`:
    a bit-identical local fast path under ``driver_threshold`` symmetrized
    edges, else per-round partitioned hash_join (edges ⋈ labels on src,
    per-edge share computed join-side) into ONE grouped Sum/Min merge."""
    def _sym(t: pa.Table) -> pa.Table:
        u = pc.cast(t.column("u"), pa.int64()).to_numpy()
        v = pc.cast(t.column("v"), pa.int64()).to_numpy()
        w = pc.cast(t.column("w"), pa.int64()).to_numpy()
        if w.size and int(w.max()) > max_weight:
            raise ValueError(
                f"pagerank_weighted: edge weight {int(w.max())} exceeds "
                f"max_weight={max_weight} (pr·w must stay < 2^63); rescale "
                "weights first")
        if w.size and int(w.min()) <= 0:
            raise ValueError("pagerank_weighted: weights must be positive")
        return pa.table(
            {"src": pa.array(np.concatenate([u, v]), pa.int64()),
             "dst": pa.array(np.concatenate([v, u]), pa.int64()),
             "w": pa.array(np.concatenate([w, w]), pa.int64())}
        )

    sym = edges_ds.map_batches(_sym, batch_format="pyarrow").materialize()
    n_edges = sym.count()
    if n_edges == 0:
        # concrete-schema empty result (see pagerank's empty-edge note).
        return ray.data.from_arrow(pa.table(
            {"node": pa.array([], pa.int64()),
             "pr": pa.array([], pa.int64())}))

    if n_edges <= driver_threshold:
        chunks = [b for b in sym.iter_batches(batch_size=65536,
                                              batch_format="pyarrow")]
        tbl = pa.concat_tables(chunks)
        src = pc.cast(tbl.column("src"), pa.int64()).to_numpy(zero_copy_only=False)
        dst = pc.cast(tbl.column("dst"), pa.int64()).to_numpy(zero_copy_only=False)
        w = pc.cast(tbl.column("w"), pa.int64()).to_numpy(zero_copy_only=False)
        nodes = np.unique(np.concatenate([src, dst]))
        si = np.searchsorted(nodes, src)
        di = np.searchsorted(nodes, dst)
        wdeg = np.zeros(len(nodes), np.int64)
        np.add.at(wdeg, si, w)
        n_nodes = len(nodes)
        base = (15 * (PR_SCALE // n_nodes)) // 100
        pr = np.full(n_nodes, PR_SCALE // n_nodes, np.int64)
        for _ in range(n_iters):
            share = (pr[si] * w) // wdeg[si]  # per-edge floor
            contrib = np.zeros(n_nodes, np.int64)
            np.add.at(contrib, di, share)
            pr = base + (PR_DAMP_NUM * contrib) // PR_DAMP_DEN
        return ray.data.from_arrow(pa.table(
            {"node": pa.array(nodes, pa.int64()),
             "pr": pa.array(pr, pa.int64())}))

    if num_partitions is None:
        from ..stages.canonicalize import data_partitions

        num_partitions = data_partitions(sym.size_bytes() or 0)
    sym = sym.repartition(num_partitions).materialize()

    wdeg_tbl = grouped_aggregate(
        sym.map_batches(
            lambda t: pa.table({"node": t.column("src"), "wdeg": t.column("w")}),
            batch_format="pyarrow"),
        ["node"],
        Sum("wdeg", alias_name="wdeg"),
    ).materialize()
    n_nodes = wdeg_tbl.count()
    base = (15 * (PR_SCALE // n_nodes)) // 100
    init = PR_SCALE // n_nodes

    labels = wdeg_tbl.map_batches(
        lambda t: pa.table(
            {"node": pc.cast(t.column("node"), pa.int64()),
             "wdeg": pc.cast(t.column("wdeg"), pa.int64()),
             "pr": pa.array(np.full(t.num_rows, init, np.int64), pa.int64())}),
        batch_format="pyarrow",
    ).materialize()

    _SENT = np.int64(2**62)
    for _ in range(n_iters):
        joined = hash_join(
            sym,
            labels.map_batches(
                lambda t: pa.table(
                    {"src": t.column("node"), "pr": t.column("pr"),
                     "swdeg": t.column("wdeg")}),
                batch_format="pyarrow"),
            on=("src",), num_partitions=num_partitions,
        )
        contrib_rows = joined.map_batches(
            lambda t: pa.table(
                {"node": pc.cast(t.column("dst"), pa.int64()),
                 "c": pa.array(
                     (pc.cast(t.column("pr"), pa.int64()).to_numpy()
                      * pc.cast(t.column("w"), pa.int64()).to_numpy())
                     // pc.cast(t.column("swdeg"), pa.int64()).to_numpy(),
                     pa.int64()),
                 "wdeg": pa.array(np.full(t.num_rows, _SENT, np.int64),
                                  pa.int64())}),
            batch_format="pyarrow",
        )
        zero_rows = labels.map_batches(
            lambda t: pa.table(
                {"node": pc.cast(t.column("node"), pa.int64()),
                 "c": pa.array(np.zeros(t.num_rows, np.int64), pa.int64()),
                 "wdeg": pc.cast(t.column("wdeg"), pa.int64())}),
            batch_format="pyarrow",
        )
        merged = grouped_aggregate(
            contrib_rows.union(zero_rows),
            ["node"],
            Sum("c", alias_name="c"),
            Min("wdeg", alias_name="wdeg"),
        )
        labels = merged.map_batches(
            lambda t: pa.table(
                {"node": pc.cast(t.column("node"), pa.int64()),
                 "wdeg": pc.cast(t.column("wdeg"), pa.int64()),
                 "pr": pa.array(
                     base + (PR_DAMP_NUM
                             * pc.cast(t.column("c"), pa.int64()).to_numpy())
                     // PR_DAMP_DEN,
                     pa.int64())}),
            batch_format="pyarrow",
        ).repartition(num_partitions).materialize()
    return labels.select_columns(["node", "pr"])
