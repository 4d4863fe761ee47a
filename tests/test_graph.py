"""Graph-analytics unit tests (functions/graph.py) on tiny hand-built graphs:
triangle counting (both membership plans), integer PageRank vs a pure-Python
replication, co-order edge building, and integer-node connected components
on both the driver and distributed plans."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data

from ner_extractor_ray.functions.graph import (
    PR_SCALE,
    co_order_edges,
    degree_table,
    pagerank,
    triangle_count,
)
from ner_extractor_ray.stages.canonicalize import connected_components


def _edges(pairs):
    u, v = zip(*pairs)
    return ray.data.from_arrow(
        pa.table({"u": pa.array(u, pa.int64()), "v": pa.array(v, pa.int64()),
                  "n": pa.array([1] * len(u), pa.int64())})
    )


def test_co_order_edges_counts_orders_once():
    # order 1: {A=1, B=2, C=3} (B listed twice → still one co-occurrence);
    # orders 2, 3: {A, B}
    li = ray.data.from_arrow(pa.table({
        "l_orderkey": pa.array([1, 1, 1, 1, 2, 2, 3, 3], pa.int64()),
        "l_partkey": pa.array([1, 2, 3, 2, 1, 2, 1, 2], pa.int64()),
    }))
    got = {(r["u"], r["v"]): r["n"] for r in co_order_edges(li).take_all()}
    assert got == {(1, 2): 3, (1, 3): 1, (2, 3): 1}
    got2 = {(r["u"], r["v"]): r["n"] for r in co_order_edges(li, min_n=2).take_all()}
    assert got2 == {(1, 2): 3}


def test_degree_table():
    deg = {r["node"]: r["degree"]
           for r in degree_table(_edges([(1, 2), (1, 3), (2, 3), (3, 4)])).take_all()}
    assert deg == {1: 2, 2: 2, 3: 3, 4: 1}


@pytest.mark.parametrize("threshold", [2_000_000, 0])  # broadcast vs shuffle plan
def test_triangle_count_k4(threshold):
    # K4: 4 triangles; degree-orientation = id order → outdegs 3,2,1,0 →
    # wedges C(3,2)+C(2,2) = 4, all of them closed
    k4 = _edges([(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    row = triangle_count(k4, broadcast_threshold=threshold).to_pylist()[0]
    assert row == {"n_nodes": 4, "n_edges": 6, "n_wedges": 4, "n_triangles": 4}


@pytest.mark.parametrize("threshold", [2_000_000, 0])
def test_triangle_count_open_wedge(threshold):
    # path 1-2-3 plus pendant 3-4: no triangles; center nodes contribute
    # wedges only where orientation gives them 2 out-edges
    path = _edges([(1, 2), (2, 3), (3, 4)])
    row = triangle_count(path, broadcast_threshold=threshold).to_pylist()[0]
    assert row["n_triangles"] == 0
    assert row["n_edges"] == 3 and row["n_nodes"] == 4


def _pagerank_reference(pairs, n_iters):
    """Pure-Python replication of the scaled-integer power iteration."""
    adj = {}
    for a, b in pairs:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    n = len(adj)
    init = PR_SCALE // n
    base = (15 * (PR_SCALE // n)) // 100
    pr = {x: init for x in adj}
    for _ in range(n_iters):
        contrib = {x: 0 for x in adj}
        for x, nbrs in adj.items():
            share = pr[x] // len(nbrs)
            for y in nbrs:
                contrib[y] += share
        pr = {x: base + (85 * contrib[x]) // 100 for x in adj}
    return pr


def test_pagerank_matches_integer_reference():
    pairs = [(1, 2), (2, 3), (3, 4), (4, 1), (1, 3)]
    got = {r["node"]: r["pr"] for r in pagerank(_edges(pairs), n_iters=3).take_all()}
    assert got == _pagerank_reference(pairs, 3)
    # mass conservation within integer floor slack: N nodes lose < N units
    # per division, 2 divisions per round
    assert abs(sum(got.values()) - PR_SCALE) < 10 * len(got) * 3


def _reference_components(pairs):
    """node → min node of its component, by a plain Python flood fill."""
    adj = {}
    for a, b in pairs:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    comp = {}
    for start in sorted(adj):
        if start in comp:
            continue
        stack = [start]
        while stack:
            x = stack.pop()
            if x not in comp:
                comp[x] = start
                stack.extend(adj[x])
    return comp


def _random_and_chain_pairs():
    """3,000 random pairs over 2,000 ids plus a 64-node chain (the shape the
    LSH bucket cap emits): both sides of the pair-count gate at real size."""
    rng = np.random.default_rng(7)
    ab = rng.integers(0, 2000, size=(3000, 2))
    return ([(int(a), int(b)) for a, b in ab if a != b]
            + [(10_000 + i, 10_001 + i) for i in range(63)])


@pytest.mark.parametrize("graph", ["small", "random_chain"])
def test_connected_components_integer_nodes_both_plans(graph):
    """Both plans label exactly the pair participants, identically; a node
    in no pair gets its own id from attach_components."""
    from ner_extractor_ray.stages.canonicalize import attach_components

    pairs = [(1, 2), (2, 3), (10, 11)] if graph == "small" else _random_and_chain_pairs()
    expected = _reference_components(pairs)
    if graph == "small":
        assert expected == {1: 1, 2: 1, 3: 1, 10: 10, 11: 10}
    a, b = zip(*pairs)
    ab = ray.data.from_arrow(pa.table({"a": pa.array(a, pa.int64()),
                                       "b": pa.array(b, pa.int64())}))
    driver = connected_components(ab)
    assert {r["node"]: r["comp"] for r in driver.take_all()} == expected
    dist = {r["node"]: r["comp"]
            for r in connected_components(ab, driver_threshold=0).take_all()}
    assert dist == expected
    lone = 99_999  # in no pair
    nodes = ray.data.from_arrow(pa.table(
        {"node": pa.array(sorted(expected) + [lone], pa.int64())}))
    attached = {r["node"]: r["comp"]
                for r in attach_components(nodes, driver, "node").take_all()}
    assert attached == {**expected, lone: lone}


@pytest.mark.parametrize("edge_thr", [2_000_000, 0])
def test_triangle_count_degree_join_path(edge_thr):
    """degree_broadcast_threshold=0 forces the hash_join degree attach; both
    membership plans must agree with the broadcast-degree default."""
    g = _edges([(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (4, 5), (5, 6)])
    want = triangle_count(g).to_pylist()[0]
    got = triangle_count(
        g, broadcast_threshold=edge_thr, degree_broadcast_threshold=0
    ).to_pylist()[0]
    assert got == want
    assert got["n_triangles"] == 4 and got["n_nodes"] == 6


def test_encode_pair_raises_on_wide_ids():
    from ner_extractor_ray.functions.blocking import pack_pairs

    with pytest.raises(ValueError):
        pack_pairs(np.array([1 << 32], dtype=np.int64),
                   np.array([1], dtype=np.int64))


def test_common_neighbor_pairs_excludes_adjacent():
    from ner_extractor_ray.functions.graph import common_neighbor_pairs

    # square 1-2-4-3-1: (1,4) and (2,3) are the diagonals, each sharing the
    # two opposite corners; adjacent pairs must NOT appear even when they
    # share neighbors (add 5 adjacent to both 1 and 2, and edge 1-2)
    g = _edges([(1, 2), (1, 3), (2, 4), (3, 4), (1, 5), (2, 5)])
    got = sorted(
        (r["id_a"], r["id_b"], r["common_neighbors"])
        for r in common_neighbor_pairs(g, min_common=1).take_all()
    )
    # 1-2 adjacent (share 5) -> excluded; (1,4): via 2,3; (2,3): via 1,4;
    # (3,5): via 1; (4,5): via 2
    assert got == [(1, 4, 2), (2, 3, 2), (3, 5, 1), (4, 5, 1)]
    got2 = sorted(
        (r["id_a"], r["id_b"])
        for r in common_neighbor_pairs(g, min_common=2).take_all()
    )
    assert got2 == [(1, 4), (2, 3)]


def test_common_neighbor_pairs_degree_cap_drops_hub_centers():
    from ner_extractor_ray.functions.graph import common_neighbor_pairs

    # star: hub 1 connected to 2..6 — every leaf pair shares only the hub
    g = _edges([(1, x) for x in range(2, 7)])
    assert common_neighbor_pairs(g, min_common=1, max_degree=3).take_all() == []
    full = common_neighbor_pairs(g, min_common=1).take_all()
    assert len(full) == 10  # C(5,2) leaf pairs via the hub


def test_kcore_peel_rounds():
    from ner_extractor_ray.functions.graph import kcore_peel

    # triangle 1-2-3 plus a pendant path 3-4-5: round 1 drops 5, round 2
    # drops 4; the triangle survives with degree 2 everywhere
    g = _edges([(1, 2), (1, 3), (2, 3), (3, 4), (4, 5)])
    got = sorted((r["node"], r["degree"]) for r in kcore_peel(g, k=2, rounds=3).take_all())
    assert got == [(1, 2), (2, 2), (3, 2)]
    # k=3: nothing survives (max degree in any subgraph < 3 after peeling)
    assert kcore_peel(g, k=3, rounds=3).take_all() == []
    # one round only: just node 5's edge is gone, 4 still present
    got1 = sorted((r["node"], r["degree"]) for r in kcore_peel(g, k=2, rounds=1).take_all())
    assert got1 == [(1, 2), (2, 2), (3, 3), (4, 1)]


@pytest.mark.parametrize("edge_thr,deg_thr",
                         [(2_000_000, 5_000_000), (0, 5_000_000), (0, 0)])
def test_local_triangle_table_all_plans(edge_thr, deg_thr):
    """K4 + pendant 5—4 + tail 5—6: hand-countable — K4 holds 4 triangles
    and each K4 node sits in exactly 3 of them; nodes 5 and 6 in none.
    Forced thresholds exercise the hash-partitioned wedge match and the
    hash-join degree attach."""
    from ner_extractor_ray.functions.graph import local_triangle_table

    g = _edges([(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (4, 5), (5, 6)])
    got = {r["node"]: r["tri"]
           for r in local_triangle_table(
               g, broadcast_threshold=edge_thr,
               degree_broadcast_threshold=deg_thr).take_all()}
    assert got == {1: 3, 2: 3, 3: 3, 4: 3}  # nodes 5, 6: no triangles


def test_local_triangle_empty_graph():
    from ner_extractor_ray.functions.graph import local_triangle_table

    empty = ray.data.from_arrow(
        pa.table({"u": pa.array([], pa.int64()), "v": pa.array([], pa.int64()),
                  "n": pa.array([], pa.int64())}))
    assert local_triangle_table(empty).take_all() == []


def test_multi_source_khop_path_graph():
    # path 1-2-3-4-5-6, seeds = 4 smallest nodes {1,2,3,4}, k=3:
    # d(1,·)=[0,1,2,3], d(2,·)=[1,0,1,2,3], d(3,·)=[2,1,0,1,2,3], ...
    from ner_extractor_ray.functions.graph import multi_source_khop

    edges = ray.data.from_arrow(pa.table({
        "u": pa.array([1, 2, 3, 4, 5], pa.int64()),
        "v": pa.array([2, 3, 4, 5, 6], pa.int64()),
        "n": pa.array([1] * 5, pa.int64()),
    }))
    got = {(int(r["sid"]), int(r["node"])): int(r["hops"])
           for r in multi_source_khop(edges, k=3, n_seeds=4).take_all()}
    import itertools
    exp = {}
    for s in (1, 2, 3, 4):
        for v in range(1, 7):
            d = abs(v - s)
            if d <= 3:
                exp[(s, v)] = d
    assert got == exp


def test_graph_harmonic_path_fixture():
    # same path graph via a co-purchase fixture is heavy; check the ppm
    # fold directly: node 3 is reached by seeds 1 (d=2), 2 (d=1), 4 (d=1)
    # → n_sources 3, harmonic = 500000 + 1000000 + 1000000.
    from ner_extractor_ray.functions.graph import multi_source_khop
    from ner_extractor_ray.stages.canonicalize import grouped_aggregate

    edges = ray.data.from_arrow(pa.table({
        "u": pa.array([1, 2, 3, 4, 5], pa.int64()),
        "v": pa.array([2, 3, 4, 5, 6], pa.int64()),
        "n": pa.array([1] * 5, pa.int64()),
    }))
    labels = multi_source_khop(edges, k=3, n_seeds=4).take_all()
    per = {}
    for r in labels:
        if int(r["hops"]) > 0:
            n, p = per.get(int(r["node"]), (0, 0))
            per[int(r["node"])] = (n + 1, p + 1_000_000 // int(r["hops"]))
    assert per[3] == (3, 2_500_000)
    # node 6: seed 3 at d=3 (333333) + seed 4 at d=2 (500000)
    assert per[6] == (2, 833_333)


def test_personalized_pagerank_matches_integer_reference():
    # triangle 1-2-3 plus pendant 4 on node 3; seed = min node = 1.
    from ner_extractor_ray.functions.graph import pagerank

    edges = _edges([(1, 2), (2, 3), (1, 3), (3, 4)])
    got = {int(r["node"]): int(r["pr"])
           for r in pagerank(edges, n_iters=3,
                             personalize_seed=1).take_all()}
    SCALE = 10**12
    deg = {1: 2, 2: 2, 3: 3, 4: 1}
    adj = {1: [2, 3], 2: [1, 3], 3: [1, 2, 4], 4: [3]}
    pr = {v: (SCALE if v == 1 else 0) for v in deg}
    for _ in range(3):
        pr = {v: ((15 * SCALE) // 100 if v == 1 else 0)
              + (85 * sum(pr[u] // deg[u] for u in adj[v])) // 100
              for v in deg}
    assert got == pr
    # relevance decays with distance from the seed
    assert got[2] > got[4] and got[3] > got[4]


def test_pagerank_uniform_unchanged_by_seed_param():
    # personalize_seed=None must stay bit-identical to the old behavior
    from ner_extractor_ray.functions.graph import PR_SCALE, pagerank

    edges = _edges([(1, 2), (2, 3)])
    got = {int(r["node"]): int(r["pr"])
           for r in pagerank(edges, n_iters=1).take_all()}
    base = (15 * (PR_SCALE // 3)) // 100
    init = PR_SCALE // 3
    deg = {1: 1, 2: 2, 3: 1}
    adj = {1: [2], 2: [1, 3], 3: [2]}
    exp = {v: base + (85 * sum(init // deg[u] for u in adj[v])) // 100
           for v in deg}
    assert got == exp


def test_pagerank_driver_gate_matches_distributed():
    """The small-graph driver plan (pagerank driver_threshold) must be
    BIT-identical to the partitioned rounds — same integer ops, forced via
    driver_threshold=0. Checked for both global and personalized runs."""
    import pandas as pd
    import ray.data as rd

    from ner_extractor_ray.functions.graph import pagerank

    edges = rd.from_items(
        [{"u": u, "v": v} for (u, v) in
         [(1, 2), (2, 3), (3, 1), (3, 4), (4, 5), (5, 6), (6, 4), (2, 6)]]
    )

    def norm(ds):
        return (ds.to_pandas().sort_values("node").reset_index(drop=True)
                .astype({"node": "int64", "pr": "int64"}))

    for seed in (None, 3):
        drv = norm(pagerank(edges, n_iters=4, personalize_seed=seed))
        dist = norm(pagerank(edges, n_iters=4, personalize_seed=seed,
                             driver_threshold=0))
        pd.testing.assert_frame_equal(drv, dist)
        assert (drv["pr"] >= 0).all() and drv["pr"].sum() > 0


def test_pagerank_weighted_driver_gate_matches_distributed():
    """Weighted pagerank: forced-distributed (driver_threshold=0) must be
    bit-identical to the local plan, and weight=1 must equal unweighted on
    a multiplicty-free edge list; oversized/nonpositive weights raise."""
    import pandas as pd
    import pytest as _pytest
    import ray.data as rd

    from ner_extractor_ray.functions.graph import pagerank, pagerank_weighted

    rows = [{"u": u, "v": v, "w": w} for (u, v, w) in
            [(1, 2, 5), (2, 3, 1), (3, 1, 2), (3, 4, 7), (4, 5, 1),
             (5, 6, 3), (6, 4, 1), (2, 6, 4)]]
    edges = rd.from_items(rows)

    def norm(ds):
        return (ds.to_pandas().sort_values("node").reset_index(drop=True)
                .astype({"node": "int64", "pr": "int64"}))

    drv = norm(pagerank_weighted(edges, n_iters=4))
    dist = norm(pagerank_weighted(edges, n_iters=4, driver_threshold=0))
    pd.testing.assert_frame_equal(drv, dist)

    ones = rd.from_items([{**r, "w": 1} for r in rows])
    plain = rd.from_items([{"u": r["u"], "v": r["v"]} for r in rows])
    pd.testing.assert_frame_equal(
        norm(pagerank_weighted(ones, n_iters=3)),
        norm(pagerank(plain, n_iters=3)))

    # the guard fires inside a Ray task — surfaces wrapped in RayTaskError
    with _pytest.raises(Exception, match="max_weight"):
        pagerank_weighted(
            rd.from_items([{"u": 1, "v": 2, "w": 10_000_000}])).count()
    with _pytest.raises(Exception, match="positive"):
        pagerank_weighted(rd.from_items([{"u": 1, "v": 2, "w": 0}])).count()
