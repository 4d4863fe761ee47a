"""Incremental KG update (pipelines/kg_update.py): frozen entity ids, exact
count merge, full coverage vs a one-shot batch run, and idempotency.

Fixture: 200 deterministic pages in 16 shards; the previous snapshot is built
from the FIRST shard only (12-13 pages — small enough that the later shards
introduce genuinely new surfaces), the update ingests the remaining 15
shards. Those new surfaces all form fresh clusters; ``bridged_prev`` is the
snapshot under which they adopt, and bridge, frozen entities."""

import glob
import os

import pyarrow as pa
import pytest
import ray.data

from ner_extractor_ray.pipelines import kg_update
from ner_extractor_ray.pipelines.kg import PAGE_COLUMNS, run_kg
from ner_extractor_ray.pipelines.kg_update import (
    ASSIGN_SCHEMA,
    adopt_frozen_ids,
    update_kg,
)
from ner_extractor_ray.sources.pages import write_pages
from ner_extractor_ray.stages.canonicalize import distinct_nodes
from ner_extractor_ray.stages.materialize import dedup_edges


@pytest.fixture(scope="module")
def snapshots(tmp_path_factory, ray_session):
    base = tmp_path_factory.mktemp("kgu")
    write_pages(str(base / "pages"), 200, n_files=16)
    files = sorted(glob.glob(str(base / "pages" / "pages-*.parquet")))
    a_files, b_files = files[:1], files[1:]
    rd = lambda fs: ray.data.read_parquet(fs, columns=PAGE_COLUMNS)
    full = run_kg(rd(files), out_dir=str(base / "full"), n_partitions=8)
    prev = run_kg(rd(a_files), out_dir=str(base / "prev"), n_partitions=8)
    upd = update_kg(str(base / "prev"), rd(b_files), str(base / "upd"),
                    n_partitions=8)
    return {"base": base, "b_files": b_files, "full": full, "prev": prev,
            "upd": upd}


def test_frozen_ids_and_new_surfaces(snapshots):
    pa_ = snapshots["prev"]["assignments"].to_pandas()
    ua = snapshots["upd"]["assignments"].to_pandas()
    um = dict(zip(ua.node, ua.entity_id))
    # every previous (node -> id) row is immutable in the merged snapshot
    for n, e in zip(pa_.node, pa_.entity_id):
        assert um[n] == e
    # the update genuinely added surfaces (fixture guards both code paths)
    assert len(ua) > len(pa_)


def test_coverage_matches_batch_run(snapshots):
    fa = snapshots["full"]["assignments"].to_pandas()
    ua = snapshots["upd"]["assignments"].to_pandas()
    assert set(fa.node) == set(ua.node)


def test_exact_count_merge_and_edge_sets(snapshots):
    """Σ n_occurrences is conserved, and — on this fixture, where no new page
    bridges two previous clusters — the merged edge set keyed by cluster
    MEMBER SETS is identical to the one-shot batch run's."""
    fe = snapshots["full"]["edges"].to_pandas()
    ue = snapshots["upd"]["edges"].to_pandas()
    assert fe.n_occurrences.sum() == ue.n_occurrences.sum()

    def keyset(edges, assign):
        mem = assign.groupby("entity_id")["node"].apply(
            lambda s: tuple(sorted(s))).to_dict()
        return {(mem[r.subj_id], r.pred, mem[r.obj_id], r.n_occurrences)
                for r in edges.itertuples()}

    fa = snapshots["full"]["assignments"].to_pandas()
    ua = snapshots["upd"]["assignments"].to_pandas()
    assert keyset(fe, fa) == keyset(ue, ua)


def test_update_is_idempotent(snapshots):
    base, b_files = snapshots["base"], snapshots["b_files"]
    rd = ray.data.read_parquet(b_files, columns=PAGE_COLUMNS)
    upd2 = update_kg(str(base / "prev"), rd, str(base / "upd2"), n_partitions=8)
    for tbl in ("assignments", "edges"):
        a = snapshots["upd"][tbl].to_pandas()
        b = upd2[tbl].to_pandas()
        a = a[sorted(a.columns)].sort_values(sorted(a.columns)).reset_index(drop=True)
        b = b[sorted(b.columns)].sort_values(sorted(b.columns)).reset_index(drop=True)
        assert a.equals(b)


def test_snapshots_are_immutable(snapshots):
    base = snapshots["base"]
    with pytest.raises(ValueError, match="immutable"):
        update_kg(str(base / "prev"),
                  ray.data.read_parquet(snapshots["b_files"],
                                        columns=PAGE_COLUMNS),
                  str(base / "prev"))


def _sorted(ds):
    df = ds.to_pandas()
    cols = sorted(df.columns)
    return df[cols].sort_values(cols).reset_index(drop=True)


@pytest.fixture(scope="module")
def bridged_prev(snapshots):
    """A hand-written previous snapshot whose frozen nodes are spelling
    variants ``key+"s"`` and ``key+"es"`` of surfaces only the update batch
    sees, each variant its own frozen entity: a new surface that clusters
    with both bridges two frozen entities (the fixture's real snapshot
    never does)."""
    from ner_extractor_ray.stages.materialize import write_partitioned

    full = snapshots["full"]["assignments"].to_pandas()
    seen = set(snapshots["prev"]["assignments"].to_pandas().node)
    rows = []
    for i, r in enumerate(full[~full.node.isin(seen)].itertuples()):
        key = r.node.split(":", 1)[1]
        for j, suffix in enumerate(("s", "es")):
            rows.append({"node": f"{r.type}:{key}{suffix}",
                         "entity_id": f"frozen-{i}-{j}",
                         "canonical_name": key + suffix, "type": r.type,
                         "n_mentions": 1})
    edge = {"subj_id": "frozen-0-0", "pred": "rel", "obj_id": "frozen-1-0",
            "n_occurrences": 2, "prov": "u#0"}
    d = snapshots["base"] / "bridged_prev"
    write_partitioned(ray.data.from_arrow(pa.Table.from_pylist(rows, ASSIGN_SCHEMA)),
                      str(d / "assignments"), "node", n_partitions=8,
                      sort_key="node")
    write_partitioned(ray.data.from_items([edge]), str(d / "edges"), "subj_id",
                      n_partitions=8, sort_key=["subj_id", "pred", "obj_id"])
    return d


@pytest.mark.parametrize("prev", ["prev", "bridged_prev"])
def test_update_kg_plans_agree(snapshots, bridged_prev, prev):
    """Scale plans (hash-join remap + hash-join linking, distributed
    clustering) give the same merged tables as the default small plans,
    also when new surfaces adopt (and bridge) frozen entities."""
    base = snapshots["base"]
    rd = lambda: ray.data.read_parquet(snapshots["b_files"], columns=PAGE_COLUMNS)
    if prev == "prev":
        small = snapshots["upd"]
    else:
        small = update_kg(str(bridged_prev), rd(), str(base / "bridged_small"),
                          n_partitions=8)
    scale = update_kg(str(base / prev), rd(), str(base / f"{prev}_scale"),
                      n_partitions=8, broadcast_limit=0,
                      canon_driver_threshold=0)
    for tbl in ("assignments", "nodes", "edges"):
        assert _sorted(small[tbl]).equals(_sorted(scale[tbl])), tbl
    if prev == "bridged_prev":
        frozen = set(ray.data.read_parquet(
            str(bridged_prev / "assignments")).to_pandas().node)
        a = small["assignments"].to_pandas()
        adopted = a[~a.node.isin(frozen) & a.entity_id.str.startswith("frozen-")]
        # min frozen id (the "s" variant) and min frozen name (the "es"
        # variant) come from two different frozen entities
        assert (adopted.entity_id.str.endswith("-0")
                & adopted.canonical_name.str.endswith("es")).any()


def test_resume_skips_reclustering(snapshots, monkeypatch):
    """A finished update rerun with resume=True reads its assignments
    checkpoint instead of re-clustering, and returns the same tables."""
    def boom(*a, **kw):
        raise AssertionError("re-clustered a completed assignments table")

    monkeypatch.setattr(kg_update, "canonicalize_nodes", boom)
    base = snapshots["base"]
    rd = ray.data.read_parquet(snapshots["b_files"], columns=PAGE_COLUMNS)
    again = update_kg(str(base / "prev"), rd, str(base / "upd"),
                      n_partitions=8, resume=True)
    for tbl in ("assignments", "nodes", "edges"):
        assert _sorted(snapshots["upd"][tbl]).equals(_sorted(again[tbl])), tbl


def test_adopt_frozen_ids_kernel():
    """c1 bridges two frozen entities: its new node adopts the min frozen id
    and, independently, the min frozen canonical name. c2 is all new and
    keeps its content-derived id and name. Frozen rows are not returned."""
    s = pa.string()
    joined = pa.table({
        "node": ["PER:a", "PER:b", "PER:n1", "ORG:n2", "ORG:n3"],
        "cid": ["c1", "c1", "c1", "c2", "c2"],
        "c_canon": ["a", "a", "a", "n2", "n2"],
        "type": ["PER", "PER", "PER", "ORG", "ORG"],
        "n_mentions": pa.array([3, 1, 2, 5, 1], pa.int64()),
        "prev_id": pa.array(["e2", "e1", None, None, None], s),
        "prev_canon": pa.array(["alpha", "zeta", None, None, None], s),
    })
    out = adopt_frozen_ids(joined)
    assert out.schema == ASSIGN_SCHEMA
    assert sorted(out.to_pylist(), key=lambda r: r["node"]) == [
        {"node": "ORG:n2", "entity_id": "c2", "canonical_name": "n2",
         "type": "ORG", "n_mentions": 5},
        {"node": "ORG:n3", "entity_id": "c2", "canonical_name": "n2",
         "type": "ORG", "n_mentions": 1},
        {"node": "PER:n1", "entity_id": "e1", "canonical_name": "alpha",
         "type": "PER", "n_mentions": 2},
    ]
    assert adopt_frozen_ids(joined.slice(0, 0)).schema == ASSIGN_SCHEMA
    assert adopt_frozen_ids(pa.table({})).num_rows == 0


def test_dedup_edges_folds_prior():
    """A prior edge key that recurs adds its count and takes the min prov;
    prior-only and new-only keys pass through."""
    triples = ray.data.from_items([
        {"subj_id": "s", "pred": "p", "obj_id": "o", "prov": "u3#0"},
        {"subj_id": "s", "pred": "p", "obj_id": "o", "prov": "u2#1"},
        {"subj_id": "s", "pred": "q", "obj_id": "o", "prov": "u5#0"},
    ])
    prior = ray.data.from_items([
        {"subj_id": "s", "pred": "p", "obj_id": "o", "n_occurrences": 4,
         "prov": "u1#0"},
        {"subj_id": "x", "pred": "p", "obj_id": "o", "n_occurrences": 2,
         "prov": "u9#0"},
    ])
    rows = {(r["subj_id"], r["pred"], r["obj_id"]): (r["n_occurrences"], r["prov"])
            for r in dedup_edges(triples, prior=prior).take_all()}
    assert rows == {("s", "p", "o"): (6, "u1#0"), ("s", "q", "o"): (1, "u5#0"),
                    ("x", "p", "o"): (2, "u9#0")}


def test_distinct_nodes_folds_prior():
    """A prior node that recurs in the new mentions sums its counts."""
    mentions = ray.data.from_items([
        {"node": "PER:ann", "type": "PER", "norm_key": "ann", "url": "u1"},
        {"node": "PER:ann", "type": "PER", "norm_key": "ann", "url": "u2"},
        {"node": "ORG:acme", "type": "ORG", "norm_key": "acme", "url": "u2"},
    ])
    prior = ray.data.from_items([
        {"node": "PER:ann", "type": "PER", "norm_key": "ann", "n_mentions": 5},
        {"node": "LOC:oslo", "type": "LOC", "norm_key": "oslo", "n_mentions": 1},
    ])
    rows = {r["node"]: r["n_mentions"]
            for r in distinct_nodes(mentions, prior=prior).take_all()}
    assert rows == {"PER:ann": 7, "ORG:acme": 1, "LOC:oslo": 1}


def test_prev_distinct_norm_key_matches_split():
    """norm_key is node minus its first ``type:`` prefix, as the per-row
    ``split(":", 1)[1]`` gave it — colons inside the key survive."""
    nodes = ["PER:ann", "ORG:a:b", "LOC::x", "MISC:"]
    prev = ray.data.from_items([
        {"node": n, "entity_id": "e", "canonical_name": "c",
         "type": n.split(":", 1)[0], "n_mentions": 1} for n in nodes])
    out = {r["node"]: r["norm_key"]
           for r in kg_update._prev_distinct(prev).take_all()}
    assert out == {n: n.split(":", 1)[1] for n in nodes}
