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
is the node-vocabulary-sized assignments table and the edge table). Each
merged table takes ONE exchange: the frozen vocabulary folds into the new
batch's own count aggregate (``prior=``), the frozen edges into the edge
partials that the edges write aggregates in its write tasks, and the
frozen-id remap is one Arrow kernel (:func:`adopt_frozen_ids`) run on the
driver after a pyarrow join when the joint vocabulary fits
``broadcast_limit``, else per hash(cid) bucket after one hash join.
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

from ..stages.canonicalize import (
    _NODES,
    _rename_project,
    canonicalize_nodes,
    distinct_nodes,
)
from ..stages.joins import _bucket_hash, hash_join
from ..stages.materialize import collect_table, read_table, write_partitioned
from ..state.manifest import table_complete
from .kg import link_ids, tag_sentences, write_graph

ASSIGN_SCHEMA = pa.schema([("node", pa.string()), ("entity_id", pa.string()),
                           ("canonical_name", pa.string()),
                           ("type", pa.string()), ("n_mentions", pa.int64())])
ASSIGN_COLS = ASSIGN_SCHEMA.names
# a joint-clustering row (cid, c_canon = its cluster's content-derived id
# and canonical name) left-joined to the frozen row of the same node
_JOINT = pa.schema([("node", pa.string()), ("cid", pa.string()),
                    ("c_canon", pa.string()), ("type", pa.string()),
                    ("n_mentions", pa.int64())])
_PREV = pa.schema([("node", pa.string()), ("prev_id", pa.string()),
                   ("prev_canon", pa.string())])
_JOINED = pa.schema([*_JOINT, *list(_PREV)[1:]])  # adopt_frozen_ids' input


def _project(t: pa.Table, src: list[str], schema: pa.Schema) -> pa.Table:
    """Columns ``src`` of ``t`` renamed and cast to ``schema``; typed empty
    on the zero-column blocks groupby operators can emit."""
    return _rename_project(t, list(zip(src, schema.names))).cast(schema)


def _prev_distinct(prev_assign: "ray.data.Dataset") -> "ray.data.Dataset":
    """Rebuild the distinct-node table shape from a frozen assignment table.

    ``node`` is ``f\"{type}:{norm_key}\"`` (the Annotator's ``node`` column),
    so norm_key is ``node`` minus its first ``type:`` prefix — no re-read
    of the previous corpus."""

    def fn(t: pa.Table) -> pa.Table:
        norm_key = pc.replace_substring_regex(
            t.column("node"), "^[^:]*:", "", max_replacements=1)
        return _project(t.append_column("norm_key", norm_key), _NODES.names, _NODES)

    return prev_assign.map_batches(fn, batch_format="pyarrow")


def adopt_frozen_ids(joined: pa.Table) -> pa.Table:
    """The frozen-id remap kernel of both plans.

    ``joined`` holds joint-cluster rows ``(node, cid, c_canon, type,
    n_mentions, prev_id, prev_canon)``; ``prev_*`` are null for nodes the
    previous snapshot never saw, and every row of a cluster is present.
    Returns the NEW nodes' rows as ``ASSIGN_COLS``: a cluster holding frozen
    nodes lends its new nodes ``min(prev_id)`` and ``min(prev_canon)``; an
    all-new cluster keeps its ``cid`` and ``c_canon``."""
    if "cid" not in joined.column_names:
        return ASSIGN_SCHEMA.empty_table()
    adopt = joined.group_by("cid").aggregate(
        [("prev_id", "min"), ("prev_canon", "min")])
    new = joined.filter(pc.is_null(joined.column("prev_id")))
    idx = pc.index_in(new.column("cid"),
                      value_set=adopt.column("cid").combine_chunks())
    return pa.table([
        new.column("node"),
        pc.coalesce(adopt.column("prev_id_min").take(idx), new.column("cid")),
        pc.coalesce(adopt.column("prev_canon_min").take(idx),
                    new.column("c_canon")),
        new.column("type"),
        new.column("n_mentions"),
    ], names=ASSIGN_COLS).cast(ASSIGN_SCHEMA)


def _new_assignments(
    joint: "ray.data.Dataset",
    prev_assign: "ray.data.Dataset",
    *,
    broadcast_limit: int,
    n_partitions: int,
) -> "ray.data.Dataset":
    """Joint clustering × frozen assignments → the new nodes' assignment
    rows (:func:`adopt_frozen_ids`). Small plan, when the joint vocabulary
    is ≤ ``broadcast_limit`` (the S7b gate, same table): collect both sides,
    pyarrow left join and kernel on the driver. Scale plan: one left hash
    join on ``node``, then the kernel per hash(cid) bucket — a cluster never
    straddles buckets, so both plans give the same rows."""
    prev_src = ASSIGN_COLS[:3]
    if joint.count() <= broadcast_limit:
        joined = collect_table(joint, ASSIGN_COLS, _JOINT).join(
            collect_table(prev_assign, prev_src, _PREV), "node",
            join_type="left outer")
        return ray.data.from_arrow(adopt_frozen_ids(joined))

    def add_bucket(t: pa.Table) -> pa.Table:
        if "cid" not in t.column_names:
            t = _JOINED.empty_table()
        return t.append_column(
            "__b", pa.array(_bucket_hash(t.column("cid"), n_partitions), pa.int64()))

    joined = hash_join(
        joint.map_batches(lambda t: _project(t, ASSIGN_COLS, _JOINT),
                          batch_format="pyarrow"),
        prev_assign.map_batches(lambda t: _project(t, prev_src, _PREV),
                                batch_format="pyarrow"),
        on=("node",), how="left", num_partitions=n_partitions)
    return (joined.map_batches(add_bucket, batch_format="pyarrow")
            .groupby("__b")
            .map_groups(adopt_frozen_ids, batch_format="pyarrow"))


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
    from ..stages.annotate import annotate_sentences, split_annotations
    from ..stages.faults import fault_stage
    from .. import __version__

    if os.path.abspath(prev_dir) == os.path.abspath(out_dir):
        raise ValueError("snapshots are immutable: out_dir must differ from prev_dir")

    # env-gated task-retry fault injection (stages/faults.py; production
    # no-op) — same coverage as run_kg's corpus pass, on the NEW pages only
    new_pages = fault_stage(new_pages, "kg_update_pages")

    prev_assign = read_table(os.path.join(prev_dir, "assignments"),
                             columns=ASSIGN_COLS)
    prev_edges = read_table(os.path.join(prev_dir, "edges"))

    lineage = {
        "engine_version": __version__,
        "prev_snapshot": os.path.abspath(prev_dir),
        "params": {"batch_size": batch_size, "n_partitions": n_partitions,
                   "broadcast_limit": broadcast_limit,
                   "lsh_threshold": lsh_threshold,
                   "lsh_bucket_cap": lsh_bucket_cap},
    }

    # ---- S1–S7a fused pass over the NEW pages only (annotations checkpoint)
    ann_dir = os.path.join(out_dir, "annotations")
    if table_complete(ann_dir) and resume:
        ann = read_table(ann_dir)
    else:
        tagged = tag_sentences(
            new_pages, tagger_concurrency=tagger_concurrency,
            batch_size=batch_size, use_actors=use_actors,
            lang_filter=lang_filter,
        )
        ann = annotate_sentences(tagged, batch_size=batch_size, use_actors=use_actors,
                                 concurrency=tagger_concurrency)
        write_partitioned(ann, ann_dir, "url", n_partitions=n_partitions,
                          resume=resume,
                          lineage={**lineage, "stage": "annotations"})
        ann = read_table(ann_dir)
    mentions, triples = split_annotations(ann)

    # ---- joint re-clustering of old+new DISTINCT surfaces (vocab-sized):
    # the frozen vocabulary folds into the new batch's one count aggregate,
    # then frozen ids are adopted; a resumed run skips all of it
    assign_dir = os.path.join(out_dir, "assignments")
    if not (table_complete(assign_dir) and resume):
        joint = canonicalize_nodes(
            distinct_nodes(mentions, prior=_prev_distinct(prev_assign)).materialize(),
            num_partitions=n_partitions, threshold=lsh_threshold,
            bucket_cap=lsh_bucket_cap, driver_threshold=canon_driver_threshold,
        ).materialize()
        new_rows = _new_assignments(joint, prev_assign,
                                    broadcast_limit=broadcast_limit,
                                    n_partitions=n_partitions)
        write_partitioned(prev_assign.union(new_rows), assign_dir, "node",
                          n_partitions=n_partitions, sort_key="node",
                          resume=resume,
                          lineage={**lineage, "stage": "assignments"})
    assignments = read_table(assign_dir)

    # ---- resolve NEW mentions/triples to ids (same size switch as run_kg)
    mentions_linked, triples_ids = link_ids(mentions, triples, assignments,
                                            broadcast_limit)

    # ---- exact merge: the frozen edges fold into the new batch's edge
    # partials, aggregated inside the edges write (counts Sum, provenance
    # Min — mergeable across batches)
    nodes, edges = write_graph(assignments, triples_ids, out_dir,
                               n_partitions=n_partitions, resume=resume,
                               lineage=lineage, prior_edges=prev_edges)
    return {"annotations": ann, "mentions": mentions_linked,
            "triples": triples_ids, "assignments": assignments,
            "nodes": nodes, "edges": edges}
