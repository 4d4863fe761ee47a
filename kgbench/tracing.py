"""Spans and counters recorded around the engine's public layer calls.

Nothing inside the engine changes: :class:`Tracer` swaps wrappers in for
the layer functions wherever the engine's modules bound them, and for the
consuming methods of ``ray.data.Dataset`` (the calls that make the Ray Data
executor run). ``uninstall`` puts the originals back.

Stage labels. Ray Data is lazy: a transform only runs when some call
consumes it. Every span carries the pipeline stage that was current when it
started, and the stage advances when the Ray driver process enters (or
leaves) the layer call that opens the next stage. So lazy work is labelled
with the stage whose call executes it -- e.g. curation's span rewrite is
executed by the curated-table write and shows under ``write``.
"""

from __future__ import annotations

import os
import threading
import time
from collections import Counter

# (module, function) pairs wrapped as layer spans
LAYER_CALLS = [
    ("ner_extractor_ray.stages.materialize", "write_partitioned"),
    ("ner_extractor_ray.stages.canonicalize", "distinct_nodes"),
    ("ner_extractor_ray.stages.canonicalize", "canonicalize_nodes"),
    ("ner_extractor_ray.stages.canonicalize", "grouped_aggregate"),
    ("ner_extractor_ray.stages.joins", "hash_join"),
    ("ner_extractor_ray.functions.dedup", "exact_dedup_groups"),
    ("ner_extractor_ray.functions.dedup", "lsh_near_dup_pairs"),
    ("ner_extractor_ray.functions.dedup", "near_dup_keep_best_ids"),
    ("ner_extractor_ray.functions.dedup", "span_dedup_rewrite"),
]
# Dataset methods that run the executor; only the outermost call per
# thread is a span (take_all iterates, materialize may count, ...)
CONSUMERS = ["materialize", "count", "iter_batches", "iter_rows", "take_all",
             "take", "to_pandas", "write_parquet"]


# every per-layer metric a traced run reports, with its unit; a layer the
# workload does not exercise reads 0
METRIC_UNITS = {
    **{f"pipelines.stage.{s}_s": "s" for s in (
        "corpus_pass", "canonicalize", "link", "write",
        "quality", "exact_dedup", "neardup", "span_rewrite")},
    "trace.stage_coverage": "ratio",
    "trace.overhead_ratio": "ratio",
    "pipelines.driver_self_s": "s",
    "ray_data.executions": "count",
    "ray_data.exec_s": "s",
    "stages.joins.hash_join_calls": "count",
    "stages.joins.hash_join_s": "s",
    "stages.materialize.write_s": "s",
    "stages.materialize.rows_written": "count",
    "stages.materialize.bytes_written": "bytes",
    "stages.materialize.files_written": "count",
    "stages.canonicalize.distinct_nodes": "count",
    "stages.canonicalize.grouped_aggregate_calls": "count",
    "functions.dedup.lsh_pairs": "count",
    "functions.dedup.pair_yield": "ratio",
    **{f"kernel.{k}_rows_per_s": "rows/s" for k in (
        "extract", "sentseg", "tagger", "annotate", "viterbi", "quality", "minhash")},
    "stages.tagger.distinct_sentence_ratio": "ratio",
    "error_rate": "ratio",
}


def _table_name(args, kwargs) -> str:
    """Basename of ``write_partitioned``'s table directory."""
    table_dir = args[1] if len(args) > 1 else kwargs["table_dir"]
    return os.path.basename(table_dir.rstrip("/"))


class KgStages:
    """run_kg / update_kg: corpus_pass -> canonicalize -> link -> write."""

    first = "corpus_pass"
    names = ("corpus_pass", "canonicalize", "link", "write")
    _by_table = {"annotations": "corpus_pass", "assignments": "canonicalize",
                 "nodes": "write", "edges": "write"}

    def enter(self, fn, args, kwargs):
        if fn == "distinct_nodes":
            return "canonicalize"
        if fn == "write_partitioned":
            return self._by_table.get(_table_name(args, kwargs))
        return None

    def leave(self, fn, args, kwargs):
        if fn == "write_partitioned" and _table_name(args, kwargs) == "assignments":
            return "link"
        return None


class CurationStages:
    """run_curation: quality -> exact_dedup -> neardup -> span_rewrite -> write."""

    first = "quality"
    names = ("quality", "exact_dedup", "neardup", "span_rewrite", "write")
    _by_call = {"exact_dedup_groups": "exact_dedup",
                "lsh_near_dup_pairs": "neardup",
                "span_dedup_rewrite": "span_rewrite",
                "write_partitioned": "write"}

    def enter(self, fn, args, kwargs):
        return self._by_call.get(fn)

    def leave(self, fn, args, kwargs):
        return None


def union_s(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


class Tracer:
    """Spans and counters of one traced job at a time; ``install`` before
    the job, ``uninstall`` after it, ``job_metrics`` to read it out."""

    def __init__(self, stages):
        self.stages = stages
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Start a new job: drop spans and counters, rewind the stage."""
        self.spans: list[tuple[str, str, float, float]] = []  # name, stage, t0, t1
        self.counts: Counter = Counter()
        self.stage = self.stages.first

    # ---------------------------------------------------------- patching
    def install(self) -> None:
        import importlib
        import sys

        import ray.data
        from ray.data._internal.execution.streaming_executor import StreamingExecutor

        for modname, fn in LAYER_CALLS:
            orig = getattr(importlib.import_module(modname), fn)
            wrapped = self._wrap_layer(fn, orig)
            for name, mod in list(sys.modules.items()):
                if name.startswith("ner_extractor_ray") and getattr(mod, fn, None) is orig:
                    self._patch(mod, fn, wrapped)
        for m in CONSUMERS:
            self._patch(ray.data.Dataset, m, self._wrap_consumer(m, getattr(ray.data.Dataset, m)))
        orig_exec = StreamingExecutor.execute
        tracer = self

        def execute(self_, *a, **kw):
            with tracer._lock:
                tracer.counts["executions"] += 1
            return orig_exec(self_, *a, **kw)

        self._patch(StreamingExecutor, "execute", execute)

    def uninstall(self) -> None:
        for obj, attr, orig in reversed(self._patches):
            setattr(obj, attr, orig)
        self._patches.clear()

    def _patch(self, obj, attr, new) -> None:
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    def _record(self, name: str, stage: str, t0: float, t1: float) -> None:
        with self._lock:
            self.spans.append((name, stage, t0, t1))

    def _wrap_layer(self, fn: str, orig):
        tracer = self

        def wrapper(*args, **kwargs):
            st = tracer.stages.enter(fn, args, kwargs)
            if st:
                tracer.stage = st
            stage = tracer.stage
            t0 = time.perf_counter()
            out = orig(*args, **kwargs)
            if fn == "lsh_near_dup_pairs":
                # candidate-pair count needs the pairs: materialize them
                # here (traced runs only) so the count adds no re-execution
                out = out.materialize()
                tracer.counts["lsh_pairs"] += out.count()
            t1 = time.perf_counter()
            tracer._record(fn, stage, t0, t1)
            with tracer._lock:
                tracer.counts[f"{fn}_calls"] += 1
                if fn == "write_partitioned":
                    tracer.counts["rows_written"] += out["total_rows"]
                    tracer.counts["bytes_written"] += sum(
                        p["bytes"] for p in out["partitions"].values())
                    tracer.counts["files_written"] += len(out["partitions"])
                    if _table_name(args, kwargs) == "assignments":
                        tracer.counts["distinct_nodes"] += out["total_rows"]
            st = tracer.stages.leave(fn, args, kwargs)
            if st:
                tracer.stage = st
            return out

        return wrapper

    def _wrap_consumer(self, method: str, orig):
        tracer = self

        def wrapper(ds, *args, **kwargs):
            depth = getattr(tracer._local, "depth", 0)
            if depth:
                return orig(ds, *args, **kwargs)
            stage = tracer.stage
            tracer._local.depth = 1
            t0 = time.perf_counter()
            try:
                out = orig(ds, *args, **kwargs)
                if method in ("iter_batches", "iter_rows"):
                    # the executor runs while the caller drains the iterator
                    out = list(out)
            finally:
                tracer._local.depth = 0
            tracer._record(f"ray_data.{method}", stage, t0, time.perf_counter())
            return iter(out) if method in ("iter_batches", "iter_rows") else out

        return wrapper

    # ----------------------------------------------------------- results
    def job_metrics(self, job_s: float) -> dict[str, float]:
        """Per-layer figures of the job just traced (``job_s`` wall)."""
        data = [(s, e) for n, _, s, e in self.spans if n.startswith("ray_data.")]
        exec_s = union_s(data)
        out = {
            "pipelines.driver_self_s": max(0.0, job_s - exec_s),
            "ray_data.executions": float(self.counts["executions"]),
            "ray_data.exec_s": exec_s,
            "stages.joins.hash_join_calls": float(self.counts["hash_join_calls"]),
            "stages.joins.hash_join_s": union_s(
                (s, e) for n, _, s, e in self.spans if n == "hash_join"),
            "stages.materialize.write_s": union_s(
                (s, e) for n, _, s, e in self.spans if n == "write_partitioned"),
            "stages.materialize.rows_written": float(self.counts["rows_written"]),
            "stages.materialize.bytes_written": float(self.counts["bytes_written"]),
            "stages.materialize.files_written": float(self.counts["files_written"]),
            "stages.canonicalize.distinct_nodes": float(self.counts["distinct_nodes"]),
            "stages.canonicalize.grouped_aggregate_calls": float(
                self.counts["grouped_aggregate_calls"]),
            "functions.dedup.lsh_pairs": float(self.counts["lsh_pairs"]),
        }
        for name in self.stages.names:
            out[f"pipelines.stage.{name}_s"] = union_s(
                (s, e) for _, st, s, e in self.spans if st == name)
        out["trace.stage_coverage"] = union_s(
            (s, e) for _, st, s, e in self.spans if st) / job_s
        return out
