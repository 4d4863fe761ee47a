"""S9 — graph materialization: aggregate, partition-by-hash, sort, write +
manifests.

Edges: ``groupby(subj_id, pred, obj_id)`` dedup-count with a min provenance
sample (reference pattern D2/A8: duplicate-key groupby + count,
scripts/generate_kfold_splits.py:122-131, scripts/error_analysis.py:80-88).
Nodes: per-entity aggregate of the assignment table. Each is declared once
as a :class:`~.canonicalize.TwoPhaseAggregate` (:data:`EDGES`,
:data:`NODES`). Both are written as ``part=<hash % P>`` Parquet directories
(the resume unit — a url/entity never straddles partitions, the
GroupKFold-by-doc analog, SURVEY.md O3) with per-partition lineage
manifests. A table's group key contains its partition key (``entity_id``;
``subj_id``), so the written plan ships the per-batch partials through the
write's one exchange and runs the final aggregate inside each write task
(``write_partitioned(finish=)``); :func:`dedup_edges` and
:func:`build_nodes` are the lazy plan of the same aggregates.
"""

from __future__ import annotations

from typing import Callable

import pyarrow as pa
import pyarrow.compute as pc
import ray.data
from ray.data.aggregate import Count, Min, Sum

from ..functions.hashing import crc_bucket
from ..state.manifest import (
    completed_partitions,
    finalize_table,
    write_partition_manifest,
)
from .canonicalize import TwoPhaseAggregate


EDGE_KEYS = ["subj_id", "pred", "obj_id"]

# (subj_id, pred, obj_id, prov) → one edge per key with its occurrence
# count and a deterministic provenance sample (min "url#sent_id")
EDGES = TwoPhaseAggregate(
    EDGE_KEYS,
    [Count(alias_name="n_occurrences"), Min("prov", alias_name="prov")],
    [Sum("n_occurrences", alias_name="n_occurrences"), Min("prov", alias_name="prov")])

# (node, entity_id, canonical_name, type, n_mentions) → one node per entity
_NODE_AGGS = [Min("canonical_name", alias_name="canonical_name"),
              Min("type", alias_name="type"),
              Sum("n_mentions", alias_name="n_mentions")]
NODES = TwoPhaseAggregate(["entity_id"], _NODE_AGGS, _NODE_AGGS)


def dedup_edges(
    triples_with_ids: "ray.data.Dataset", prior: "ray.data.Dataset | None" = None,
) -> "ray.data.Dataset":
    """(subj_id, pred, obj_id, prov) → deduped edges with occurrence counts and
    a deterministic provenance sample (min "url#sent_id"): the lazy plan of
    :data:`EDGES`.

    ``prior`` is an existing edge table (e.g. a previous snapshot's); its
    rows join the per-batch partials before the final aggregate, so counts
    add and ``prov`` takes the min across both (Sum and Min are
    associative)."""
    return EDGES.aggregate(triples_with_ids, prior)


def build_nodes(assignments: "ray.data.Dataset") -> "ray.data.Dataset":
    """(node, entity_id, canonical_name, type, n_mentions) → nodes table:
    the lazy plan of :data:`NODES` (per-batch partials, then one bucketed
    :func:`~.canonicalize.grouped_aggregate`)."""
    return NODES.aggregate(assignments)


def read_table(table_dir: str, columns: list[str] | None = None) -> "ray.data.Dataset":
    """A table written by :func:`write_partitioned`, read back with its own
    columns only: ``partitioning=None`` keeps Ray from adding the hive
    ``part`` column of the ``part=<n>`` directories (it would clash with
    the ``part`` a rewrite appends, and changes the schema of some blocks
    only). A ``columns`` projection leaves that column out by itself (and
    Ray 2.49's reader fails on ``columns`` with ``partitioning=None``).
    Manifests (``_``-prefixed) and temp files are not read."""
    if columns is not None:
        return ray.data.read_parquet(table_dir, columns=columns)
    return ray.data.read_parquet(table_dir, partitioning=None)


def collect_table(ds: "ray.data.Dataset", columns: list[str] | None = None,
                  schema: pa.Schema | None = None) -> pa.Table:
    """A small dataset collected on the driver as one Arrow table, read in
    Arrow batches: ``take_all()`` walks pandas blocks row by row (~230 µs a
    row, 21 s for a 90k-row table, against ~2 µs for Arrow ``to_pylist``).

    ``columns`` selects per batch; ``schema`` (its names default
    ``columns``) renames the selected columns to its names and casts them.
    Row-less blocks are skipped (the zero-column blocks groupby operators
    emit among them), so a dataset without rows gives
    ``schema.empty_table()``, or null-typed ``columns`` without a schema."""
    if columns is None and schema is not None:
        columns = schema.names
    parts = []
    for t in ds.iter_batches(batch_size=65536, batch_format="pyarrow"):
        if t.num_rows == 0:
            continue
        if columns is not None:
            t = t.select(columns)
        if schema is not None:
            t = t.rename_columns(schema.names).cast(schema)
        parts.append(t)
    if not parts:
        if schema is not None:
            return schema.empty_table()
        return pa.table({c: pa.nulls(0) for c in columns or []})
    return pa.concat_tables(parts, promote_options="default").combine_chunks()


def write_partitioned(
    ds: "ray.data.Dataset",
    table_dir: str,
    part_key: str,
    *,
    n_partitions: int = 16,
    sort_key: str | list[str] | None = None,
    resume: bool = True,
    lineage: dict | None = None,
    finish: "Callable[[pa.Table], pa.Table] | None" = None,
) -> dict:
    """Write ``part=<crc32(part_key) % n>`` Parquet dirs + manifests.

    ``finish`` is an optional per-partition step: the write task applies it
    to the partition's rows (all rows sharing ``part_key`` values of that
    partition, in one table) before the sort, the file and the manifest.
    Any decision local to a ``part_key`` value — a per-doc rewrite, a
    semi-join of rows co-partitioned with their keep-marks — then runs
    inside the write's one exchange instead of a shuffle of its own. So
    does a grouped aggregate whose group key contains ``part_key``: ``ds``
    holds its partial rows and ``finish`` its final step (every group's
    partials land in one partition), as for the graph's nodes and edges.
    Rows, bytes and the manifest count are those of its output; an empty
    output writes nothing. It must be deterministic: a retried task reruns
    it.

    With ``resume=True``, partitions that already have a manifest are filtered
    out BEFORE any work is written (kill-and-rerun skips finished shards).

    Writes are PARTITION-ALIGNED (one write task per partition, via a keyed
    shuffle) and each task writes its partition's manifest the moment its
    file lands — so a mid-write kill leaves every finished partition
    resumable immediately, not only after the whole table completes. The
    table manifest, written last, stays the completeness marker.

    SCALE CONTRACT: one partition is written by one task as one block —
    callers must size ``n_partitions`` so table_size / n_partitions fits a
    worker heap (at 100 TB that means thousands of partitions, not 16;
    n_partitions is the knob the cluster-size config scales).
    """

    def add_part(t: pa.Table) -> pa.Table:
        keys = t.column(part_key).to_pylist()
        return t.append_column("part", pa.array(crc_bucket(keys, n_partitions), pa.int32()))

    import os
    import shutil

    ds = ds.map_batches(add_part, batch_format="pyarrow")
    # Pack each block's per-partition slice into COMPRESSED Arrow-IPC bytes
    # BEFORE the exchange: the partition-aligning shuffle then moves ~15×
    # fewer bytes (one (part, blob) row per block×partition instead of every
    # raw row), which is what makes the aligned write scale — measured
    # 1.4 GB raw → ~90 MB packed on the 800k-page annotations table, write
    # phase 33 s → ~5 s at 32 CPUs. IPC+lz4, not parquet, for the blob
    # codec: 3.4× cheaper to encode at similar size (no column stats/
    # dictionary encoding work for bytes that live only inside the
    # exchange). The writer decodes its blobs and still emits ONE parquet
    # file per partition, so layout/manifest/resume semantics are unchanged.
    import io

    def pack(t: pa.Table) -> pa.Table:
        # constructed per call: IpcWriteOptions is not cloudpickle-able
        _IPC_OPTS = pa.ipc.IpcWriteOptions(compression="lz4")
        if t.num_rows == 0 or "part" not in t.column_names:
            return pa.table({"part": pa.array([], pa.int32()),
                             "blob": pa.array([], pa.large_binary()),
                             "nrows": pa.array([], pa.int64())})
        import numpy as np

        # sort-based split: ONE stable argsort + gather, then a zero-copy
        # slice per partition present — O(rows log rows + parts), vs the
        # obvious filter-per-partition which re-scans the whole batch once
        # per partition (64 parts → 64× the row scans on the hot fused pass)
        parts_np = t.column("part").to_numpy(zero_copy_only=False)
        order = np.argsort(parts_np, kind="stable")
        sorted_t = t.take(pa.array(order)).drop_columns(["part"])
        sp = parts_np[order]
        bounds = np.flatnonzero(np.diff(sp)) + 1
        starts = np.concatenate(([0], bounds))
        ends = np.concatenate((bounds, [len(sp)]))
        o_part, o_blob, o_rows = [], [], []
        for s, e in zip(starts, ends):
            sub = sorted_t.slice(int(s), int(e - s))
            sink = io.BytesIO()
            with pa.ipc.new_stream(sink, sub.schema, options=_IPC_OPTS) as w:
                w.write_table(sub)
            o_part.append(int(sp[s]))
            o_blob.append(sink.getvalue())
            o_rows.append(int(e - s))
        return pa.table({"part": pa.array(o_part, pa.int32()),
                         "blob": pa.array(o_blob, pa.large_binary()),
                         "nrows": pa.array(o_rows, pa.int64())})
    done = completed_partitions(table_dir) if resume else set()
    # a part dir with files but NO manifest is a torn write from a killed run:
    # clear it so the rerun can't produce duplicate rows
    if os.path.isdir(table_dir):
        for name in os.listdir(table_dir):
            pdir = os.path.join(table_dir, name)
            if (
                name.startswith("part=")
                and os.path.isdir(pdir)
                and int(name.split("=", 1)[1]) not in done
            ):
                shutil.rmtree(pdir)
    if done:
        done_arr = list(done)
        ds = ds.map_batches(
            lambda t: t.filter(
                pc.invert(pc.is_in(t.column("part"), value_set=pa.array(done_arr, pa.int32())))
            ),
            batch_format="pyarrow",
        )
    # Partition-aligned write: co-locate each output partition into one write
    # task (groupby shuffle on the already-narrow part key), sort WITHIN the
    # partition when requested, write the file atomically (tmp + rename, so
    # task retries are idempotent) and emit the partition manifest right
    # there. A naive write_parquet(partition_cols) emits one file per (block
    # × partition) — 3072 ~50KB files for a 160MB table — and can only
    # manifest partitions after the whole table lands. NOTE min_rows_per_file
    # is also not the answer: combined with partition_cols it is ~10× slower
    # (46s vs 4.6s observed).
    sk = [sort_key] if isinstance(sort_key, str) else sort_key
    os.makedirs(table_dir, exist_ok=True)

    # driver-side capture: worker envs don't see a driver-set flag, and the
    # oracle handle must be driver-owned (see stages/faults.py get_oracle)
    from .faults import (
        fault_injection_on,
        fault_remote_args,
        get_oracle,
        inject_fault,
    )

    _inject = fault_injection_on()
    _retry_args = fault_remote_args()
    _oracle = get_oracle() if _inject else None

    def write_group(t: pa.Table) -> pa.Table:
        import pyarrow.parquet as pq

        empty = pa.table({"part": pa.array([], pa.int32()),
                          "rows": pa.array([], pa.int64()),
                          "bytes": pa.array([], pa.int64())})
        if t.num_rows == 0 or "part" not in t.column_names:
            return empty
        part = int(t.column("part")[0].as_py())
        blobs = t.column("blob").to_pylist()
        # deterministic concat order regardless of shuffle arrival order:
        # slices sort by content bytes (with sort_key the final row sort
        # would fix it anyway; this also pins the no-sort-key layout)
        blobs.sort()
        subs = [pa.ipc.open_stream(io.BytesIO(b)).read_all() for b in blobs]
        out = pa.concat_tables(subs) if subs else None
        if out is not None and finish is not None:
            out = finish(out)
        if out is None or out.num_rows == 0:
            return empty
        if sk and set(sk) <= set(out.column_names):
            out = out.sort_by([(k, "ascending") for k in sk])
        pdir = os.path.join(table_dir, f"part={part}")
        os.makedirs(pdir, exist_ok=True)
        fname = "data-0.parquet"
        tmp = os.path.join(pdir, f".{fname}.tmp")
        pq.write_table(out, tmp)
        os.replace(tmp, os.path.join(pdir, fname))
        if _inject:
            # fault injection lands BETWEEN the data-file rename and the
            # partition manifest — the worst-case kill point; the retried
            # task must rewrite the file (tmp+rename is idempotent) and
            # land the manifest exactly once (tests/test_fault_injection.py)
            inject_fault(("write", table_dir, part), _oracle)
        nbytes = os.path.getsize(os.path.join(pdir, fname))
        write_partition_manifest(pdir, [fname], out.num_rows, nbytes)
        return pa.table({"part": pa.array([part], pa.int32()),
                         "rows": pa.array([out.num_rows], pa.int64()),
                         "bytes": pa.array([nbytes], pa.int64())})

    # count() drives execution; summaries also flow into logs via Ray stats.
    # pack runs on WHOLE blocks (batch_size=None): its scan cost is
    # batch-size-independent (sort-based split), but blob COUNT is not —
    # 1024-row batches over 64 partitions emit ~16-row blobs, and the
    # groupby + write_group concat then pay per-blob overhead ~50× over.
    # (A/B at 800k pages/32cpus measured the two within ambient noise on the
    # e2e wall; the blob-count argument decides.)
    (
        ds.map_batches(pack, batch_format="pyarrow", batch_size=None)
        .groupby("part")
        .map_groups(write_group, batch_format="pyarrow", **_retry_args)
        .count()
    )
    return finalize_table(table_dir, extra={"lineage": lineage} if lineage else None)


def write_tables(tables: list[dict], *, resume: bool = True) -> list["ray.data.Dataset"]:
    """Write several tables CONCURRENTLY, one thread per table, and return
    each read back, in order. Each entry holds :func:`write_partitioned`'s
    arguments (``ds``, ``table_dir``, ``part_key`` and its options); a
    table that is already complete is skipped under ``resume``. A failed
    write re-raises here once every started write has returned.

    The writes are independent, so their fixed execution costs overlap
    (each distributed execution carries ~1-2 s of orchestration on a small
    cluster; sequential they add, overlapped they don't). Ray Data
    executions are thread-safe to launch in parallel. Inputs that several
    of the tables read should be materialized first, or each write
    re-executes the shared lineage."""
    from concurrent.futures import ThreadPoolExecutor

    from ..state.manifest import table_complete

    jobs = [spec for spec in tables
            if not (resume and table_complete(spec["table_dir"]))]
    if jobs:
        with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
            futures = [pool.submit(write_partitioned, resume=resume, **spec)
                       for spec in jobs]
            for f in futures:
                f.result()  # re-raise worker exceptions
    return [read_table(spec["table_dir"]) for spec in tables]


def compact_table(
    in_dir: str,
    out_dir: str,
    part_key: str,
    *,
    n_partitions: int,
    sort_key: str | list[str] | None = None,
) -> dict:
    """MAINTENANCE: re-partition a written table to a new partition count —
    the compaction / re-bucketing job run when a table's layout no longer
    matches the cluster (a 10k-partition incremental output consolidated
    for reads, or a grown table split finer before the next join). Pure
    composition of the existing machinery: streaming read of the old
    layout → ``write_partitioned`` with the new ``n_partitions`` — so the
    output carries the same per-partition manifests, atomic tmp+rename
    files, torn-write cleanup and resume semantics as any first-class
    table; crc-bucket partition identity means rows land deterministically
    whatever the old layout was. Never materializes the table: blocks
    stream from old files to new partitions with one keyed exchange.
    Refuses to compact a table whose completeness marker is missing
    (a half-written source would silently lose rows)."""
    from ..state.manifest import table_complete

    if not table_complete(in_dir):
        raise ValueError(
            f"compact_table: {in_dir} has no completeness marker — "
            "refusing to compact a possibly torn table")
    # read the table root: Ray's parquet datasource skips _-prefixed
    # manifest files at both levels, so the part= layout reads as one table
    ds = read_table(in_dir)
    return write_partitioned(ds, out_dir, part_key,
                             n_partitions=n_partitions, sort_key=sort_key,
                             resume=False)
