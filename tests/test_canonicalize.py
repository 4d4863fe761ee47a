"""Canonicalization stage tests: LSH pairing, CC merging, salting, skew."""

import math

import pandas as pd
import pyarrow as pa
import ray.data

from ner_extractor_ray.stages.canonicalize import (
    attach_components,
    candidate_pairs,
    connected_components,
    entity_assignments,
    pre_aggregated_count,
)


def _nodes_ds(keys: list[tuple[str, str]], n=1):
    # (type, norm_key) → distinct-nodes table shape
    return ray.data.from_items(
        [
            {"node": f"{t}:{k}", "type": t, "norm_key": k, "n_mentions": n}
            for t, k in keys
        ]
    )


def test_candidate_pairs_find_near_duplicates():
    nd = _nodes_ds(
        [
            ("ORG", "acme corporation international"),
            ("ORG", "acme corporation internationale"),
            ("ORG", "zzz totally different company"),
            ("LOC", "acme corporation international"),  # same key, other type
        ]
    )
    pairs = candidate_pairs(nd).take_all()
    got = {(p["a"], p["b"]) for p in pairs}
    assert ("ORG:acme corporation international", "ORG:acme corporation internationale") in got
    # never across types, never with the unrelated key
    for a, b in got:
        assert a.split(":")[0] == b.split(":")[0]
        assert "zzz" not in a and "zzz" not in b


def test_connected_components_transitive_merge():
    # a~b and b~c but a,c never directly paired → one component via propagation
    nd = _nodes_ds([("ORG", k) for k in
                    ["aaaa bbbb cccc", "dddd eeee", "ffff gggg", "hhhh alone"]])
    pairs = ray.data.from_items(
        [
            {"a": "ORG:aaaa bbbb cccc", "b": "ORG:dddd eeee"},
            {"a": "ORG:dddd eeee", "b": "ORG:ffff gggg"},
        ]
    )
    for driver_threshold in (200_000, 0):  # driver and distributed plans
        cc = connected_components(pairs, driver_threshold=driver_threshold)
        labels = {r["node"]: r["comp"] for r in cc.take_all()}
        # only the pair participants get a row, all with the lexicographic min
        assert labels == {n: "ORG:aaaa bbbb cccc" for n in
                          ("ORG:aaaa bbbb cccc", "ORG:dddd eeee", "ORG:ffff gggg")}
        # the node in no pair is its own component
        attached = {r["node"]: r["comp"]
                    for r in attach_components(nd, cc, "node").take_all()}
        assert attached == {**labels, "ORG:hhhh alone": "ORG:hhhh alone"}


def test_entity_assignments_shape():
    nd = _nodes_ds([("ORG", "alpha"), ("ORG", "beta"), ("ORG", "gamma")], n=3)
    pairs = ray.data.from_items([{"a": "ORG:alpha", "b": "ORG:beta"}])
    labels = connected_components(pairs)
    assert labels.count() == 2  # participants only
    asg = {a["node"]: a for a in entity_assignments(labels, nd).take_all()}
    assert len(asg) == 3  # every node, the singleton too
    assert asg["ORG:alpha"]["entity_id"] == asg["ORG:beta"]["entity_id"]  # merged
    assert asg["ORG:alpha"]["canonical_name"] == asg["ORG:beta"]["canonical_name"] == "alpha"
    assert asg["ORG:gamma"]["canonical_name"] == "gamma"
    assert asg["ORG:gamma"]["entity_id"] != asg["ORG:alpha"]["entity_id"]


def test_connected_components_long_chain_converges():
    # a path graph (diameter n-1) — the shape the bucket-cap chain fallback
    # emits for hot LSH buckets. Plain min-relaxation capped at 8 rounds (the
    # old behavior) would silently return a SPLIT component for this graph;
    # pointer doubling must converge in O(log d) rounds to the global min.
    n = 12
    names = [f"node{i:04d}" for i in range(n)]
    pairs = ray.data.from_items(
        [{"a": names[i], "b": names[i + 1]} for i in range(n - 1)]
    )
    # driver_threshold=0 forces the distributed pointer-doubling plan
    labels = {
        r["node"]: r["comp"]
        for r in connected_components(pairs, driver_threshold=0).take_all()
    }
    assert len(labels) == n
    assert set(labels.values()) == {"node0000"}


def test_grouped_aggregate_null_and_separator_keys():
    from ray.data.aggregate import Count, Sum

    from ner_extractor_ray.stages.canonicalize import grouped_aggregate

    rows = [
        {"k1": "a", "k2": "b", "v": 1},
        {"k1": "a\x00b", "k2": "", "v": 2},   # separator inside a component
        {"k1": "a", "k2": None, "v": 4},      # null key component
        {"k1": None, "k2": "b", "v": 8},      # null in the other component
        {"k1": "a", "k2": None, "v": 16},     # second row of the null group
    ]
    ds = ray.data.from_items(rows)
    out = {
        (r["k1"], r["k2"]): r["v"]
        for r in grouped_aggregate(ds, ["k1", "k2"], Sum("v", alias_name="v")).take_all()
    }
    assert out[("a", "b")] == 1
    assert out[("a\x00b", "")] == 2      # must NOT merge with ("a", "b")
    assert out[("a", None)] == 20        # nulls group together…
    assert out[(None, "b")] == 8         # …but only per distinct key tuple
    assert len(out) == 4

    # nullable int keys over two blocks, one of them with a null: the same
    # key value must land in one group whichever block it came from, and
    # the null key is one group of its own in both count paths
    blocks = ray.data.from_arrow([pa.table({"k": pa.array(ks, pa.int64())})
                                  for ks in ([1, 2, 3, None], [1, 2, 3, 4])])
    want = {1: 2, 2: 2, 3: 2, 4: 1, None: 1}
    for counted in (grouped_aggregate(blocks, ["k"], Count(alias_name="n")),
                    pre_aggregated_count(blocks, ["k"], "n")):
        rows = counted.take_all()
        assert len(rows) == len(want)
        assert {r["k"]: r["n"] for r in rows} == want

    # float Min/Max order NaN above every number, as DuckDB does: an
    # all-NaN group is NaN both ways (Arrow alone gives inf/-inf), a NaN
    # next to numbers is the Max (Arrow alone skips it); NaN and numbers
    # of one group sit in different blocks, so the per-bucket combine of
    # block rows must keep the rule too
    from ray.data.aggregate import Max, Min

    nan = float("nan")
    floats = ray.data.from_arrow([
        pa.table({"k": ["all_nan", "mixed", "num"], "f": [nan, nan, 2.0]}),
        pa.table({"k": ["all_nan", "mixed", "mixed", "num"], "f": [nan, 1.0, 3.0, 5.0]}),
    ])
    got = {r["k"]: (r["lo"], r["hi"]) for r in grouped_aggregate(
        floats, ["k"], Min("f", alias_name="lo"), Max("f", alias_name="hi")).take_all()}
    assert set(got) == {"all_nan", "mixed", "num"}
    assert all(math.isnan(v) for v in got["all_nan"])
    assert got["mixed"][0] == 1.0 and math.isnan(got["mixed"][1])
    assert got["num"] == (2.0, 5.0)


def test_pre_aggregated_count_skew():
    # one hot key = 50% of rows (FIXTURES.md §4 skew fixture): result exact
    rows = [{"k": "hot"} for _ in range(500)] + [{"k": f"cold{i}"} for i in range(500)]
    ds = ray.data.from_items(rows).repartition(8)
    out = {r["k"]: r["n"] for r in pre_aggregated_count(ds, ["k"], "n").take_all()}
    assert out["hot"] == 500
    assert sum(out.values()) == 1000
    assert len(out) == 501


def test_oversized_bucket_chain_preserves_connectivity():
    # >bucket_cap identical keys in one LSH bucket → chain pairs, still 1 comp
    keys = [("ORG", f"megacorp holdings {chr(97+i)}") for i in range(10)]
    # identical shingle-heavy prefix ⇒ same buckets, high jaccard
    nd = _nodes_ds(keys)
    pairs = candidate_pairs(nd, threshold=0.5, bucket_cap=4)
    labels = connected_components(pairs)
    comps = {r["comp"] for r in labels.take_all()}
    assert len(comps) == 1


def test_aggregate_family_emits_arrow_blocks():
    # the aggregate family and the graph tables built on it emit Arrow
    # tables with no pandas schema metadata (which Ray's schema dedup
    # cannot hash, and which makes every downstream shuffle slower)
    import ray
    from ray.data.aggregate import Min

    from ner_extractor_ray.stages.canonicalize import grouped_aggregate
    from ner_extractor_ray.stages.materialize import build_nodes, dedup_edges

    triples = ray.data.from_items(
        [{"subj_id": f"s{i % 3}", "pred": "p", "obj_id": f"o{i % 2}",
          "prov": f"u#{i}"} for i in range(20)]).repartition(3)
    assignments = ray.data.from_items(
        [{"node": f"n{i}", "entity_id": f"e{i % 4}", "canonical_name": f"c{i}",
          "type": "ORG", "n_mentions": i} for i in range(12)])
    for ds in (grouped_aggregate(triples, ["subj_id"], Min("prov", alias_name="prov")),
               pre_aggregated_count(triples, ["pred"], "n"),
               dedup_edges(triples),
               build_nodes(assignments)):
        blocks = [ray.get(ref)
                  for bundle in ds.materialize().iter_internal_ref_bundles()
                  for ref, _ in bundle.blocks]
        assert blocks
        for b in blocks:
            assert isinstance(b, pa.Table)
            assert b"pandas" not in (b.schema.metadata or {})
