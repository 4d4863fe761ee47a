"""S9 graph materialization (stages/materialize.py): the written nodes/edges
aggregate inside their partition-aligned write, the lazy plan aggregates
with one bucketed shuffle, and both give the same rows."""

import pyarrow as pa
import ray.data

from ner_extractor_ray.pipelines.kg import pages_dataset, run_kg, write_graph
from ner_extractor_ray.sources.pages import write_pages
from ner_extractor_ray.stages import canonicalize
from ner_extractor_ray.stages.materialize import build_nodes, dedup_edges

# Ray Data executions of run_kg(out_dir=...) on a fresh out_dir, default
# plans: the annotations materialize and write, distinct_nodes, the
# assignments write, the S7b broadcast collect and the two concurrent
# nodes/edges writes
KG_EXECUTIONS = 7


def _rows(ds):
    return sorted((tuple(sorted(r.items())) for r in ds.take_all()), key=repr)


def test_run_kg_plan_shape(tmp_path, monkeypatch):
    """Pins the plan of one run_kg job: its Ray Data execution count, and
    one grouped_aggregate (distinct_nodes) — nodes and edges aggregate in
    their write tasks, and no lazy nodes/edges plan is built."""
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    write_pages(str(tmp_path / "pages"), 60, n_files=2)
    calls, aggs = [], []
    real_exec = StreamingExecutor.execute
    real_agg = canonicalize.grouped_aggregate

    def spy_exec(self, *a, **k):
        calls.append(1)
        return real_exec(self, *a, **k)

    def spy_agg(ds, keys, *a, **k):
        aggs.append(list(keys))
        return real_agg(ds, keys, *a, **k)

    monkeypatch.setattr(StreamingExecutor, "execute", spy_exec)
    monkeypatch.setattr(canonicalize, "grouped_aggregate", spy_agg)
    res = run_kg(pages_dataset(str(tmp_path / "pages")),
                 out_dir=str(tmp_path / "kg"), n_partitions=4)
    assert len(calls) == KG_EXECUTIONS
    assert aggs == [["node", "type", "norm_key"]]
    assert res["edges"].count() > 0 and res["nodes"].count() > 0


def test_written_graph_equals_lazy_plan(tmp_path):
    """write_graph (partials → write exchange → final aggregate per write
    task) and the lazy dedup_edges/build_nodes give equal rows on a
    multi-block input: one edge key in several blocks, a null subj_id (a
    link miss), a prior edge table, one entity in several blocks."""
    def triples(rows):
        return pa.table({c: pa.array([r[i] for r in rows], pa.string())
                         for i, c in enumerate(["subj_id", "pred", "obj_id", "prov"])})

    t = ray.data.from_arrow([
        triples([("s1", "p", "o1", "u3#0"), ("s2", "p", "o1", "u1#0")]),
        triples([("s1", "p", "o1", "u2#1"), (None, "p", "o1", "u7#0")]),
        triples([("s1", "p", "o1", "u5#0"), (None, "p", "o1", "u0#2"),
                 ("s3", "q", None, "u4#0")]),
    ])
    prior = ray.data.from_arrow(pa.table({
        "subj_id": ["s1", "s9"], "pred": ["p", "p"], "obj_id": ["o1", "o1"],
        "n_occurrences": pa.array([4, 2], pa.int64()), "prov": ["u1#1", "u9#0"],
    }))

    def assign(rows):
        return pa.table({
            "node": [r[0] for r in rows], "entity_id": [r[1] for r in rows],
            "canonical_name": [r[2] for r in rows], "type": [r[3] for r in rows],
            "n_mentions": pa.array([r[4] for r in rows], pa.int64())})

    a = ray.data.from_arrow([
        assign([("PER:ann", "e1", "ann", "PER", 3), ("ORG:acme", "e2", "acme", "ORG", 1)]),
        assign([("PER:anne", "e1", "ann", "PER", 2)]),
        assign([("LOC:oslo", "e3", "oslo", "LOC", 5), ("PER:an", "e1", "an", "PER", 1)]),
    ])

    nodes_w, edges_w = write_graph(a, t, str(tmp_path / "g"), n_partitions=4,
                                   resume=True, lineage={}, prior_edges=prior)
    assert _rows(edges_w) == _rows(dedup_edges(t, prior=prior))
    assert _rows(nodes_w) == _rows(build_nodes(a))

    edges = {(r["subj_id"], r["pred"], r["obj_id"]): (r["n_occurrences"], r["prov"])
             for r in edges_w.take_all()}
    assert edges == {("s1", "p", "o1"): (7, "u1#1"), ("s2", "p", "o1"): (1, "u1#0"),
                     (None, "p", "o1"): (2, "u0#2"), ("s3", "q", None): (1, "u4#0"),
                     ("s9", "p", "o1"): (2, "u9#0")}
    nodes = {r["entity_id"]: (r["canonical_name"], r["type"], r["n_mentions"])
             for r in nodes_w.take_all()}
    assert nodes == {"e1": ("an", "PER", 6), "e2": ("acme", "ORG", 1),
                     "e3": ("oslo", "LOC", 5)}
