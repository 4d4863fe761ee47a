"""The flagship pipeline: Parquet web pages → knowledge graph (nodes + edges).

Composition of SURVEY.md §7.1's stage DAG, Ray-Data-first: every stage is a
``map_batches`` transform over Arrow batches (tasks by default, actor pools
for heavy-state scorers); the only wide operations are the canonicalization
groupbys and the partition-aligned writes. Nodes and edges are
partial-aggregated per batch and take ONE exchange each: the write's
shuffle to their hash partition, whose task runs the final aggregate
(stages/materialize.py).

Scale notes (100 TB design, tested single-node):
  * ``html`` is dropped at S1; nothing downstream ever shuffles it.
  * ONE corpus pass: extract → sentseg → tokenize → tag → annotate is a fused
    task chain; its distilled output (annotations: mentions + triples, a few
    narrow rows per sentence) is the only corpus-derived checkpoint — written
    as partitioned Parquet with manifests (the resume boundary) or
    materialized when no out_dir. Nothing corpus-sized is pinned or re-read.
  * Cheap-state stages run as TASKS (state pickled once per worker); the
    actor-pool plan (``use_actors=True``) exists for heavy-state scorers
    (HFTagger weights) where per-actor setup amortization wins.
  * The entity-assignment table (distinct surfaces only) is the broadcast
    small side; above ``broadcast_limit`` rows the pipeline switches to a
    partitioned hash join automatically.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from ..stages.canonicalize import canonicalize_nodes, distinct_nodes
from ..stages.extract import extract_batch
from ..stages.joins import hash_join
from ..stages.materialize import (
    EDGE_KEYS,
    EDGES,
    NODES,
    build_nodes,
    collect_table,
    dedup_edges,
    read_table,
    write_partitioned,
    write_tables,
)
from ..stages.sentseg import sentseg_batch
from ..stages.tagger import DeterministicTagger, default_tagger_concurrency
from ..stages.tokenize import tokenize_batch
from ..state.manifest import table_complete

PAGE_COLUMNS = ["url", "html", "text", "lang"]  # prune warc_ts at the read


def pages_dataset(path: str, *, with_ts: bool = False) -> "ray.data.Dataset":
    """``with_ts=True`` keeps ``warc_ts`` — required for recrawl dedup
    (run_kg(dedup_recrawls=True)); otherwise the column is pruned at the
    read like every other unused byte."""
    import glob

    files = sorted(glob.glob(os.path.join(path, "pages-*.parquet"))) or path
    cols = PAGE_COLUMNS + ["warc_ts"] if with_ts else PAGE_COLUMNS
    return ray.data.read_parquet(files, columns=cols)


def tag_sentences(
    pages: "ray.data.Dataset",
    *,
    tagger_concurrency: int | tuple[int, int] | None = None,
    batch_size: int = 2048,
    lang_filter: str | None = "en",
    use_actors: bool = False,
    include_subwords: bool = False,
    scorer=None,
    scorer_kwargs: dict | None = None,
) -> "ray.data.Dataset":
    """pages → tagged sentence rows (url, sent_id, tokens, tags, ...).

    Scorer physical plan: ``use_actors=False`` (default) runs the tagger as
    stateless TASKS — the gazetteer-trie state is trivially picklable, built
    once per worker on first deserialize, and tasks avoid per-execution actor
    startup (2× wall-time win measured at 200k pages). ``use_actors=True``
    switches to the actor-pool plan — required when the scorer holds heavy
    state (HFTagger model weights; SURVEY.md T2).

    ``include_subwords=True`` inserts the subword tokenize+first-subword
    alignment stage (stages/tokenize.py) — REQUIRED for a subword scorer like
    HFTagger, dead compute (~30% of the pass) for the word-level
    DeterministicTagger, hence opt-in."""
    ds = pages.map_batches(extract_batch, batch_format="pyarrow")
    if lang_filter:
        ds = ds.map_batches(
            lambda t: t.filter(pc.equal(t.column("lang"), lang_filter)),
            batch_format="pyarrow",
        )
    ds = ds.map_batches(sentseg_batch, batch_format="pyarrow")
    if include_subwords:
        ds = ds.map_batches(tokenize_batch, batch_format="pyarrow")
    scorer_cls = scorer or DeterministicTagger
    if use_actors:
        ds = ds.map_batches(
            scorer_cls, batch_format="pyarrow", batch_size=batch_size,
            fn_constructor_kwargs=scorer_kwargs or {},
            concurrency=tagger_concurrency or default_tagger_concurrency(),
        )
    else:
        ds = ds.map_batches(
            scorer_cls(**(scorer_kwargs or {})), batch_format="pyarrow",
            batch_size=batch_size,
        )
    return ds.select_columns(["url", "sent_id", "sentence", "tokens", "n_tokens", "tags"])


_ID_MAP = pa.schema([("node", pa.string()), ("entity_id", pa.string())])


class _IdLookup:
    """Broadcast node→entity_id lookup for one or more key columns.

    Vectorized Arrow plan (round-5): the broadcast side is a (keys, values)
    pair of parallel string arrays shipped via ONE ``ray.put``; per batch,
    ``pc.index_in(batch[src], keys)`` + ``pc.take(values, idx)`` resolves the
    whole column in C — a missing key yields a null index and so a null id,
    the old ``m.get(None)`` semantics. A/B vs the per-row dict loop at 800k
    pages recorded in BASELINE.md.
    """

    def __init__(self, map_ref, cols: list[tuple[str, str]]):
        self.keys, self.vals = ray.get(map_ref)
        self.cols = cols

    def __call__(self, batch: pa.Table) -> pa.Table:
        for src, dst in self.cols:
            idx = pc.index_in(pc.cast(batch.column(src), pa.string()),
                              value_set=self.keys)
            batch = batch.append_column(dst, pc.take(self.vals, idx))
        return batch


def link_ids(
    mentions: "ray.data.Dataset",
    triples: "ray.data.Dataset",
    assignments: "ray.data.Dataset",
    broadcast_limit: int,
) -> tuple["ray.data.Dataset", "ray.data.Dataset"]:
    """S7b: resolve mentions' ``node`` and triples' ``subj_node``/``obj_node``
    to entity ids. An assignment table of ≤ ``broadcast_limit`` rows is
    broadcast to an :class:`_IdLookup`; a larger one takes partitioned hash
    joins. Returns (mentions + entity_id, triples + subj_id/obj_id)."""
    if assignments.count() <= broadcast_limit:
        # two contiguous string arrays, never a Python dict on the driver
        kv = collect_table(assignments, schema=_ID_MAP)
        map_ref = ray.put((kv.column("node").combine_chunks(),
                           kv.column("entity_id").combine_chunks()))
        mentions_linked = mentions.map_batches(
            _IdLookup(map_ref, [("node", "entity_id")]), batch_format="pyarrow"
        )
        triples_ids = triples.map_batches(
            _IdLookup(map_ref, [("subj_node", "subj_id"), ("obj_node", "obj_id")]),
            batch_format="pyarrow",
        )
        return mentions_linked, triples_ids
    amap = assignments.select_columns(["node", "entity_id"])
    smap = amap.map_batches(
        lambda t: pa.table({"subj_node": t.column("node"), "subj_id": t.column("entity_id")}),
        batch_format="pyarrow",
    )
    omap = amap.map_batches(
        lambda t: pa.table({"obj_node": t.column("node"), "obj_id": t.column("entity_id")}),
        batch_format="pyarrow",
    )
    return (hash_join(mentions, amap, on=("node",)),
            hash_join(hash_join(triples, smap, on=("subj_node",)), omap, on=("obj_node",)))


def write_graph(
    assignments: "ray.data.Dataset",
    triples_ids: "ray.data.Dataset",
    out_dir: str,
    *,
    n_partitions: int,
    resume: bool,
    lineage: dict,
    prior_edges: "ray.data.Dataset | None" = None,
) -> tuple["ray.data.Dataset", "ray.data.Dataset"]:
    """S9 writes: ``out_dir``/nodes (:data:`NODES` of ``assignments``) by
    entity_id and ``out_dir``/edges (:data:`EDGES` of ``triples_ids``,
    with ``prior_edges`` folded in) by subj_id, concurrently through
    :func:`write_tables` (a complete table is skipped under ``resume``).

    Each group key contains its table's partition key, so the per-batch
    partials go straight into the write's one exchange and each write task
    runs the final aggregate on its partition (``finish=``): one exchange
    per table. Returns the two written tables, read back."""
    nodes_out, edges_out = write_tables([
        dict(ds=NODES.partials(assignments),
             table_dir=os.path.join(out_dir, "nodes"),
             part_key="entity_id", n_partitions=n_partitions,
             sort_key="entity_id", finish=NODES.finish,
             lineage={**lineage, "stage": "nodes"}),
        dict(ds=EDGES.partials(triples_ids, prior=prior_edges),
             table_dir=os.path.join(out_dir, "edges"),
             part_key="subj_id", n_partitions=n_partitions,
             sort_key=EDGE_KEYS, finish=EDGES.finish,
             lineage={**lineage, "stage": "edges"}),
    ], resume=resume)
    return nodes_out, edges_out


def run_kg(
    pages: "ray.data.Dataset",
    out_dir: str | None = None,
    *,
    tagger_concurrency: int | tuple[int, int] | None = None,
    batch_size: int = 2048,
    n_partitions: int = 16,
    broadcast_limit: int = 2_000_000,
    resume: bool = True,
    use_actors: bool = False,
    lang_filter: str | None = "en",
    scorer=None,
    scorer_kwargs: dict | None = None,
    include_subwords: bool = False,
    lsh_threshold: float = 0.6,
    lsh_bucket_cap: int = 64,
    canon_driver_threshold: int = 200_000,
    dedup_recrawls: bool = False,
) -> dict:
    """Run the full KG-construction pipeline; returns the result datasets.

    With ``out_dir``: annotations/nodes/edges are written as partitioned
    Parquet with lineage manifests; completed tables are skipped on rerun.
    The corpus is scanned ONCE: extract → sentseg → tokenize → tag → annotate
    runs as a single fused task chain whose distilled output (the annotations
    table, a few rows per sentence) is the checkpoint/resume boundary —
    nothing corpus-sized is materialized or re-read.
    """
    from ..stages.annotate import (
        MENTION_COLS, TRIPLE_COLS, annotate_sentences, kind_filter, split_annotations,
    )
    from ..stages.faults import fault_stage

    from .. import __version__

    # env-gated fault injection: fail each input block's first attempt to
    # pin task-retry idempotency of the fused corpus pass (stages/faults.py;
    # identity no-op in production)
    pages = fault_stage(pages, "kg_pages")

    try:
        input_files = pages.input_files()
    except Exception:
        input_files = []
    lineage = {
        "engine_version": __version__,
        "input_files": input_files[:64],
        "n_input_files": len(input_files),
        "params": {
            "batch_size": batch_size,
            "n_partitions": n_partitions,
            "use_actors": use_actors,
            "broadcast_limit": broadcast_limit,
            "lang_filter": lang_filter,
            "lsh_threshold": lsh_threshold,
            "lsh_bucket_cap": lsh_bucket_cap,
        },
    }

    if dedup_recrawls:
        # Common-Crawl recrawl semantics: keep each url's latest capture
        # BEFORE any compute (stages/recrawl.py). Needs warc_ts — load the
        # pages with pages_dataset(..., with_ts=True).
        try:
            names = pages.schema().names
        except Exception:
            names = []
        if "warc_ts" not in names:
            raise ValueError(
                "dedup_recrawls=True needs the warc_ts column — load pages "
                "with pages_dataset(path, with_ts=True)"
            )
        from ..stages.recrawl import latest_crawl_filter

        pages = latest_crawl_filter(
            pages, broadcast_limit=broadcast_limit
        ).map_batches(lambda t: t.select(PAGE_COLUMNS), batch_format="pyarrow")

    ann_dir = os.path.join(out_dir, "annotations") if out_dir else None
    tagged = None

    if ann_dir and table_complete(ann_dir) and resume:
        ann = read_table(ann_dir)
    else:
        # partition-aware resume: the annotations partition key is crc(url),
        # computable at the PAGE level — prune pages of already-completed
        # partitions BEFORE the fused pass so a resumed run skips their
        # compute entirely, not just their writes
        if ann_dir and resume:
            from ..functions.hashing import crc_bucket
            from ..state.manifest import completed_partitions

            done = completed_partitions(ann_dir)
            if done:
                done_arr = pa.array(sorted(done), pa.int32())

                def prune(t: pa.Table) -> pa.Table:
                    part = crc_bucket(t.column("url").to_pylist(), n_partitions)
                    return t.filter(
                        pc.invert(pc.is_in(pa.array(part, pa.int32()), value_set=done_arr))
                    )

                pages = pages.map_batches(prune, batch_format="pyarrow")

        # ---- S1-S4
        tagged = tag_sentences(
            pages, tagger_concurrency=tagger_concurrency, batch_size=batch_size,
            use_actors=use_actors, lang_filter=lang_filter, scorer=scorer,
            scorer_kwargs=scorer_kwargs, include_subwords=include_subwords,
        )

        # ---- S5+S6+S7a fused into the same pass
        ann = annotate_sentences(tagged, batch_size=batch_size, use_actors=use_actors,
                                 concurrency=tagger_concurrency)
        if ann_dir:
            # materialize the DISTILLED annotations table before the
            # partition-aligned write: the write's Sort is a full barrier
            # anyway (no pipelining is lost), and pack then sees whole
            # target-size blocks instead of the fused chain's 1024-row
            # tagger batches — blob count drops ~100×, and the write_group
            # concat stops paying per-blob overhead (A/B at 800k pages /
            # 32 cpus: 17.8 s -> see BENCH; staged 7.3 s compute + 2.3 s
            # write vs 16 s fused). ann is annotations-sized (a few rows
            # per sentence), never corpus-sized — the documented
            # object-store working set.
            ann = ann.materialize()
            write_partitioned(ann, ann_dir, "url", n_partitions=n_partitions,
                              resume=resume, lineage={**lineage, "stage": "annotations"})
            ann = None
        else:
            ann = ann.materialize()
    if ann is None:
        # prune at the read: each consumer loads only its columns from the
        # checkpoint instead of the full 17-column table
        mentions = read_table(
            ann_dir, columns=["kind"] + MENTION_COLS
        ).map_batches(kind_filter("m", MENTION_COLS), batch_format="pyarrow")
        triples = read_table(
            ann_dir, columns=["kind"] + TRIPLE_COLS
        ).map_batches(kind_filter("t", TRIPLE_COLS), batch_format="pyarrow")
        ann = read_table(ann_dir)
    else:
        mentions, triples = split_annotations(ann)

    # ---- S8: canonicalization over DISTINCT surfaces (small relative to
    # corpus); physical plan chosen by vocabulary size (canonicalize_nodes).
    # With out_dir the assignment table is its own checkpoint: resumed runs
    # skip re-clustering, and update_kg (pipelines/kg_update.py) reads it as
    # the FROZEN id state when merging newly crawled pages.
    assign_dir = os.path.join(out_dir, "assignments") if out_dir else None
    if assign_dir and table_complete(assign_dir) and resume:
        assignments = read_table(assign_dir)
    else:
        nodes_distinct = distinct_nodes(mentions).materialize()
        assignments = canonicalize_nodes(
            nodes_distinct, num_partitions=n_partitions,
            threshold=lsh_threshold, bucket_cap=lsh_bucket_cap,
            driver_threshold=canon_driver_threshold,
        ).materialize()
        if assign_dir:
            write_partitioned(assignments, assign_dir, "node",
                              n_partitions=n_partitions, sort_key="node",
                              resume=resume,
                              lineage={**lineage, "stage": "assignments"})
            assignments = read_table(assign_dir)

    # ---- S7b: resolve mentions/triples to entity ids (broadcast or hash join)
    mentions_linked, triples_ids = link_ids(mentions, triples, assignments,
                                            broadcast_limit)

    # ---- S9: materialize graph (written: aggregated inside the writes)
    if out_dir:
        nodes, edges = write_graph(
            assignments, triples_ids, out_dir, n_partitions=n_partitions,
            resume=resume, lineage=lineage)
    else:
        nodes, edges = build_nodes(assignments), dedup_edges(triples_ids)
    return {
        "annotations": ann,
        "tagged": tagged,
        "mentions": mentions_linked,
        "triples": triples_ids,
        "assignments": assignments,
        "nodes": nodes,
        "edges": edges,
    }
