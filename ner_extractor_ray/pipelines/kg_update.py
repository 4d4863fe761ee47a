"""Incremental KG update: merge newly crawled pages into an existing graph
snapshot with FROZEN entity assignments.

The batch pipeline (kg.py run_kg) derives entity ids from cluster content
(stable hash of the min member node), so naively re-running it over an
extended corpus can re-id entities whenever a new alias reshapes a cluster —
unacceptable churn for any consumer holding foreign keys into the graph.
This module implements the production id-stability contract instead:

  * every (node → entity_id) row of the previous snapshot is IMMUTABLE;
  * a new surface whose cluster (in a joint re-clustering of old+new
    distinct surfaces, same LSH/union-find code path as the batch plan)
    contains ≥1 previously-assigned node ADOPTS the minimum previous
    entity_id in that cluster (deterministic tie-break);
  * clusters made only of new surfaces get fresh content-derived ids — the
    same ``stable_id(f"ent:{min_member}")`` rule as the batch plan, and
    collision-free against frozen ids because their representative is a
    node the previous snapshot never saw;
  * nodes/edges re-aggregate EXACTLY (occurrence counts Sum, provenance
    Min), so Σ n_occurrences over the merged edge table equals the sum over
    both input batches — pinned by tests/test_kg_update.py.

Scale shape: the only corpus-sized pass is the fused annotate chain over
the NEW pages (the previous corpus is never re-read — its distilled state
is the node-vocabulary-sized assignments table and the edge table); all
merge steps are hash joins / grouped aggregates over those small tables.
Snapshots are immutable directories — update writes a NEW out_dir whose
lineage records prev_dir, so any two snapshots diff with snapshot_delta
and a bad update rolls back by pointing consumers at the previous dir.

Reference analog: the reference repo is a one-shot trainer with no
incremental story; this is the operational capability a continuously
crawled 10^12-page KG needs (SURVEY.md §2.11).
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data
from ray.data.aggregate import Min, Sum

from ..functions.gazetteer import alias_canonical_map
from ..stages.canonicalize import (
    _rename_project,
    canonicalize_nodes,
    distinct_nodes,
    grouped_aggregate,
)
from ..stages.joins import hash_join
from ..stages.materialize import build_nodes, dedup_edges, write_partitioned
from ..state.manifest import table_complete
from .kg import _IdLookup, _kv_arrays, default_tagger_concurrency, tag_sentences

ASSIGN_COLS = ["node", "entity_id", "canonical_name", "type", "n_mentions"]


def _prev_distinct(prev_assign: "ray.data.Dataset") -> "ray.data.Dataset":
    """Rebuild the distinct-node table shape from a frozen assignment table.

    ``node`` is ``f\"{type}:{norm_key}\"`` (the Annotator's node_of),
    so norm_key is recovered by splitting on the first ':' — no re-read of
    the previous corpus."""

    def fn(t: pa.Table) -> pa.Table:
        nodes = t.column("node").to_pylist()
        return pa.table(
            {"node": t.column("node"),
             "type": t.column("type"),
             "norm_key": pa.array(
                 [n.split(":", 1)[1] for n in nodes], pa.string()),
             "n_mentions": pc.cast(t.column("n_mentions"), pa.int64())}
        )

    return prev_assign.map_batches(fn, batch_format="pyarrow")


def update_kg(
    prev_dir: str,
    new_pages: "ray.data.Dataset",
    out_dir: str,
    *,
    tagger_concurrency: int | tuple[int, int] | None = None,
    batch_size: int = 1024,
    n_partitions: int = 16,
    broadcast_limit: int = 2_000_000,
    resume: bool = True,
    use_actors: bool = False,
    lang_filter: str | None = "en",
    lsh_threshold: float = 0.6,
    lsh_bucket_cap: int = 64,
    canon_driver_threshold: int = 200_000,
) -> dict:
    """Merge ``new_pages`` into the snapshot at ``prev_dir`` → ``out_dir``.

    Returns the same result dict shape as run_kg (annotations of the NEW
    batch, merged assignments/nodes/edges). ``out_dir`` must differ from
    ``prev_dir`` (snapshots are immutable)."""
    from ..stages.annotate import Annotator, split_annotations
    from ..stages.faults import fault_stage
    from .. import __version__

    if os.path.abspath(prev_dir) == os.path.abspath(out_dir):
        raise ValueError("snapshots are immutable: out_dir must differ from prev_dir")

    # env-gated task-retry fault injection (stages/faults.py; production
    # no-op) — same coverage as run_kg's corpus pass, on the NEW pages only
    new_pages = fault_stage(new_pages, "kg_update_pages")

    prev_assign = ray.data.read_parquet(
        os.path.join(prev_dir, "assignments"), columns=ASSIGN_COLS)
    prev_edges = ray.data.read_parquet(os.path.join(prev_dir, "edges"))

    lineage = {
        "engine_version": __version__,
        "prev_snapshot": os.path.abspath(prev_dir),
        "params": {"batch_size": batch_size, "n_partitions": n_partitions,
                   "broadcast_limit": broadcast_limit,
                   "lsh_threshold": lsh_threshold,
                   "lsh_bucket_cap": lsh_bucket_cap},
    }

    # ---- S1–S7a fused pass over the NEW pages only (annotations checkpoint)
    alias = alias_canonical_map()
    ann_dir = os.path.join(out_dir, "annotations")
    if table_complete(ann_dir) and resume:
        ann = ray.data.read_parquet(ann_dir)
    else:
        tagged = tag_sentences(
            new_pages, tagger_concurrency=tagger_concurrency,
            batch_size=batch_size, use_actors=use_actors,
            lang_filter=lang_filter,
        )
        if use_actors:
            ann = tagged.map_batches(
                Annotator, batch_format="pyarrow", batch_size=batch_size,
                fn_constructor_kwargs={"alias_ref": ray.put(alias)},
                concurrency=tagger_concurrency or default_tagger_concurrency(),
            )
        else:
            ann = tagged.map_batches(
                Annotator(alias), batch_format="pyarrow", batch_size=batch_size)
        write_partitioned(ann, ann_dir, "url", n_partitions=n_partitions,
                          resume=resume,
                          lineage={**lineage, "stage": "annotations"})
        ann = ray.data.read_parquet(ann_dir)
    mentions, triples = split_annotations(ann)

    # ---- joint re-clustering of old+new DISTINCT surfaces (vocab-sized)
    new_distinct = distinct_nodes(mentions)
    union_distinct = grouped_aggregate(
        _prev_distinct(prev_assign).union(new_distinct),
        ["node", "type", "norm_key"],
        Sum("n_mentions", alias_name="n_mentions"),
    ).materialize()
    union_assign = canonicalize_nodes(
        union_distinct, num_partitions=n_partitions,
        threshold=lsh_threshold, bucket_cap=lsh_bucket_cap,
        driver_threshold=canon_driver_threshold,
    ).materialize()

    # ---- frozen-id remap, all hash joins over vocab-sized tables
    def _cid_project(t: pa.Table) -> pa.Table:
        # typed empty on the zero-column blocks groupby operators can emit
        # (cannot reuse _rename_project: it types empties as string, and
        # n_mentions must stay int64 for the union)
        if t.num_rows == 0 or "node" not in t.column_names:
            return pa.table({"node": pa.array([], pa.string()),
                             "cid": pa.array([], pa.string()),
                             "c_canon": pa.array([], pa.string()),
                             "type": pa.array([], pa.string()),
                             "n_mentions": pa.array([], pa.int64())})
        return pa.table({"node": t.column("node"),
                         "cid": t.column("entity_id"),
                         "c_canon": t.column("canonical_name"),
                         "type": t.column("type"),
                         "n_mentions": pc.cast(t.column("n_mentions"), pa.int64())})

    cid = union_assign.map_batches(_cid_project, batch_format="pyarrow")
    prev_ids = prev_assign.map_batches(
        lambda t: _rename_project(
            t, [("node", "node"), ("entity_id", "prev_id"),
                ("canonical_name", "prev_canon")]),
        batch_format="pyarrow",
    )
    # min frozen id (and its canonical name) per joint cluster
    adopt = grouped_aggregate(
        hash_join(cid.select_columns(["node", "cid"]), prev_ids,
                  on=("node",), num_partitions=n_partitions),
        ["cid"],
        Min("prev_id", alias_name="adopt_id"),
        Min("prev_canon", alias_name="adopt_canon"),
    )

    # new nodes = joint clustering minus frozen nodes (left join, null side)
    joined = hash_join(cid, prev_ids, on=("node",), how="left",
                       num_partitions=n_partitions)

    def only_new(df):
        # emit typed Arrow so 0-row buckets keep a full schema (untyped empty
        # pandas blocks trip Ray's size estimator and downstream unions)
        sub = df[df["prev_id"].isnull()]
        return pa.table(
            {"node": pa.array(sub["node"], pa.string()),
             "cid": pa.array(sub["cid"], pa.string()),
             "c_canon": pa.array(sub["c_canon"], pa.string()),
             "type": pa.array(sub["type"], pa.string()),
             "n_mentions": pa.array(sub["n_mentions"].astype("int64"),
                                    pa.int64())})

    new_nodes = joined.map_batches(only_new, batch_format="pandas")
    new_with_adopt = hash_join(new_nodes, adopt, on=("cid",), how="left",
                               num_partitions=n_partitions)

    def finish_new(df):
        eid = df["adopt_id"].where(df["adopt_id"].notnull(), df["cid"])
        canon = df["adopt_canon"].where(df["adopt_canon"].notnull(), df["c_canon"])
        out = df[["node", "type"]].copy()
        # pandas left-merge upcasts ints to float on buckets with unmatched
        # rows; pin int64 so the union with the frozen Arrow blocks concats
        out["n_mentions"] = df["n_mentions"].astype("int64")
        out["entity_id"] = eid
        out["canonical_name"] = canon
        return out[ASSIGN_COLS]

    assignments = prev_assign.union(
        new_with_adopt.map_batches(finish_new, batch_format="pandas")
    ).materialize()

    assign_dir = os.path.join(out_dir, "assignments")
    if not (table_complete(assign_dir) and resume):
        write_partitioned(assignments, assign_dir, "node",
                          n_partitions=n_partitions, sort_key="node",
                          resume=resume,
                          lineage={**lineage, "stage": "assignments"})
    assignments = ray.data.read_parquet(assign_dir)

    # ---- resolve NEW mentions/triples to ids (same size switch as run_kg)
    n_assign = assignments.count()
    if n_assign <= broadcast_limit:
        map_ref = ray.put(_kv_arrays(assignments))
        mentions_linked = mentions.map_batches(
            _IdLookup(map_ref, [("node", "entity_id")]), batch_format="pyarrow")
        triples_ids = triples.map_batches(
            _IdLookup(map_ref, [("subj_node", "subj_id"), ("obj_node", "obj_id")]),
            batch_format="pyarrow")
    else:
        amap = assignments.select_columns(["node", "entity_id"])
        mentions_linked = hash_join(mentions, amap, on=("node",))
        smap = amap.map_batches(
            lambda t: pa.table({"subj_node": t.column("node"),
                                "subj_id": t.column("entity_id")}),
            batch_format="pyarrow")
        omap = amap.map_batches(
            lambda t: pa.table({"obj_node": t.column("node"),
                                "obj_id": t.column("entity_id")}),
            batch_format="pyarrow")
        triples_ids = hash_join(
            hash_join(triples, smap, on=("subj_node",)), omap, on=("obj_node",))

    # ---- exact merge: counts Sum, provenance Min — mergeable across batches
    new_edges = dedup_edges(
        triples_ids.select_columns(["subj_id", "pred", "obj_id", "prov"]))
    edges = grouped_aggregate(
        prev_edges.union(new_edges),
        ["subj_id", "pred", "obj_id"],
        Sum("n_occurrences", alias_name="n_occurrences"),
        Min("prov", alias_name="prov"),
    )
    nodes = build_nodes(assignments)

    result = {"annotations": ann, "mentions": mentions_linked,
              "triples": triples_ids, "assignments": assignments,
              "nodes": nodes, "edges": edges}
    nodes_dir = os.path.join(out_dir, "nodes")
    edges_dir = os.path.join(out_dir, "edges")
    if not (table_complete(nodes_dir) and resume):
        write_partitioned(nodes, nodes_dir, "entity_id",
                          n_partitions=n_partitions, sort_key="entity_id",
                          resume=resume, lineage={**lineage, "stage": "nodes"})
    if not (table_complete(edges_dir) and resume):
        write_partitioned(edges, edges_dir, "subj_id",
                          n_partitions=n_partitions,
                          sort_key=["subj_id", "pred", "obj_id"], resume=resume,
                          lineage={**lineage, "stage": "edges"})
    result["nodes"] = ray.data.read_parquet(nodes_dir)
    result["edges"] = ray.data.read_parquet(edges_dir)
    return result
