"""The three benchmark workloads and the check of every job's output.

Each workload is a closed loop with one client: the next job starts when
the previous one has returned. Every job reads a fresh, disjoint index range
of seeded inputs (inputs.py) and writes its tables to a fresh directory,
which the check then reads back with pyarrow (no Ray).

* ``kg_crawl``    -- ``run_kg`` over HTML-only pages. The fused corpus pass
  (extract -> sentseg -> tag -> annotate) is most of the job; S7b takes the
  broadcast path, so ``hash_join`` does no work.
* ``curate_dups`` -- ``run_curation`` over docs with planted exact and near
  duplicates. Dedup, LSH + connected components, span rewrite, hash
  semi-joins and many small Ray Data executions do all the work; the corpus
  pass kernels never run.
* ``kg_update``   -- ``update_kg`` of a small new page batch onto one frozen
  snapshot, built by the warm-up job before the loop. Reads prior state, re-clusters jointly,
  remaps ids with hash joins and re-aggregates; orchestration and writes
  dominate and the corpus pass is small.
"""

from __future__ import annotations

import os
import shutil
import time
from collections import Counter

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from inputs import InputCache
from tracing import CurationStages, KgStages

N_PARTITIONS = 4
WARM_LO = 50_000_000  # warm-up inputs live far from the measured ranges
JOB_LO = 10_000_000


def _table(path: str, columns: list[str] | None = None) -> pa.Table:
    t = pq.read_table(path, columns=columns, partitioning=None)
    return t.drop_columns([c for c in ("part",) if c in t.column_names])


def _rows(t: pa.Table, cols: list[str]) -> Counter:
    return Counter(zip(*(t.column(c).to_pylist() for c in cols)))


# ------------------------------------------------------------------ checks

MENTION_KEY = ["url", "sent_id", "start", "end", "type"]
TRIPLE_KEY = ["url", "sent_id", "subj", "pred", "obj"]
EDGE_KEY = ["subj_id", "pred", "obj_id", "n_occurrences", "prov"]


def load_kg(out_dir: str) -> dict[str, pa.Table]:
    ann = _table(os.path.join(out_dir, "annotations"))
    return {
        "mentions": ann.filter(pc.equal(ann.column("kind"), "m")),
        "triples": ann.filter(pc.equal(ann.column("kind"), "t")),
        "assignments": _table(os.path.join(out_dir, "assignments"), ["node", "entity_id"]),
        "edges": _table(os.path.join(out_dir, "edges"), EDGE_KEY),
    }


def _edge_rows(triples: pa.Table, assign: pa.Table) -> Counter:
    """Edges implied by triples joined to the node -> entity_id table."""
    eid = dict(zip(assign.column("node").to_pylist(), assign.column("entity_id").to_pylist()))
    agg: dict[tuple, list] = {}
    for s, p, o, prov in zip(*(triples.column(c).to_pylist()
                               for c in ("subj_node", "pred", "obj_node", "prov"))):
        key = (eid.get(s), p, eid.get(o))
        cur = agg.setdefault(key, [0, prov])
        cur[0] += 1
        cur[1] = min(cur[1], prov)
    return Counter((s, p, o, n, prov) for (s, p, o), (n, prov) in agg.items())


def check_annotations(out: dict[str, pa.Table], gold: dict[str, pa.Table]) -> list[str]:
    bad = []
    if _rows(out["mentions"], MENTION_KEY) != _rows(gold["gold_mentions"], MENTION_KEY):
        bad.append("mentions differ from the generator's gold mentions")
    if _rows(out["triples"], TRIPLE_KEY) != _rows(gold["gold_triples"], TRIPLE_KEY):
        bad.append("triples differ from the generator's gold triples")
    return bad


def check_kg(out: dict[str, pa.Table], gold: dict[str, pa.Table]) -> list[str]:
    bad = check_annotations(out, gold)
    if _rows(out["edges"], EDGE_KEY) != _edge_rows(out["triples"], out["assignments"]):
        bad.append("edges differ from triples joined to assignments")
    return bad


def check_update(out: dict[str, pa.Table], gold: dict[str, pa.Table],
                 prev: dict[str, pa.Table]) -> list[str]:
    bad = check_annotations(out, gold)
    new_ids = dict(zip(out["assignments"].column("node").to_pylist(),
                       out["assignments"].column("entity_id").to_pylist()))
    moved = sum(new_ids.get(n) != e for n, e in zip(
        prev["assignments"].column("node").to_pylist(),
        prev["assignments"].column("entity_id").to_pylist()))
    if moved:
        bad.append(f"{moved} frozen node -> entity_id rows changed")
    occ_prev = pc.sum(prev["edges"].column("n_occurrences")).as_py() or 0
    occ_new = pc.sum(out["edges"].column("n_occurrences")).as_py() or 0
    n_new = gold["gold_triples"].num_rows
    if occ_new != occ_prev + n_new:
        bad.append(f"sum n_occurrences {occ_new} != {occ_prev} + {n_new} new triples")
    # merged edges = frozen edges (+) new triples joined to assignments
    want: dict[tuple, list] = {}
    for rows in (_rows(prev["edges"], EDGE_KEY),
                 _edge_rows(out["triples"], out["assignments"])):
        for (s, p, o, n, prov), k in rows.items():
            cur = want.setdefault((s, p, o), [0, prov])
            cur[0] += n * k
            cur[1] = min(cur[1], prov)
    if _rows(out["edges"], EDGE_KEY) != Counter(
            (s, p, o, n, prov) for (s, p, o), (n, prov) in want.items()):
        bad.append("merged edges differ from frozen edges + new triples")
    return bad


def load_curation(out_dir: str) -> dict[str, pa.Table]:
    return {"curated": _table(os.path.join(out_dir, "curated"), ["doc_id", "kept_text"])}


def check_curation(out: dict[str, pa.Table], plan: pa.Table) -> list[str]:
    got = _rows(out["curated"], ["doc_id", "kept_text"])
    want = _rows(plan, ["doc_id", "kept_text"])
    if got == want:
        return []
    ids_got = {k[0] for k in got}
    ids_want = {k[0] for k in want}
    if ids_got != ids_want:
        return [f"survivors differ from the plan: {len(ids_got - ids_want)} extra, "
                f"{len(ids_want - ids_got)} missing"]
    return ["survivor text differs from the plan"]


def corrupt(out: dict[str, pa.Table]) -> dict[str, pa.Table]:
    """A copy of a job's output with one row of its final table dropped."""
    name = "edges" if "edges" in out else "curated"
    return {**out, name: out[name].slice(1)}


# --------------------------------------------------------------- workloads

class Workload:
    """One benchmark workload: sizes, stage labels and the job body."""

    name = ""
    kind = ""          # input kind for InputCache
    job_rows = 0       # inputs per measured job
    warm_rows = 0      # inputs of the warm-up job
    stages = None

    def __init__(self, seed: int, cache: InputCache, work: str):
        self.seed, self.cache, self.work = seed, cache, work

    def inputs(self, lo: int, n: int) -> tuple[str, dict]:
        return self.cache.get(self.kind, self.seed, lo, n)

    def job_inputs(self, k: int) -> tuple[str, dict]:
        return self.inputs(JOB_LO + k * self.job_rows, self.job_rows)

    def warm_inputs(self) -> tuple[str, dict]:
        return self.inputs(WARM_LO, self.warm_rows)

    def warm_up(self, inp: tuple[str, dict]) -> tuple[float, list[str]]:
        """The set-up job, on the first jobs' cold workers; returns its
        seconds and its check failures."""
        out_dir = os.path.join(self.work, "warm")
        t = time.perf_counter()
        self.run(inp, out_dir)
        dt = time.perf_counter() - t
        bad = self.check(self.load(out_dir), inp)
        shutil.rmtree(out_dir, ignore_errors=True)
        return dt, bad

    def run(self, inp: tuple[str, dict], out_dir: str):
        """Run one job; return the engine's result (datasets not consumed)."""
        raise NotImplementedError

    def load(self, out_dir: str) -> dict[str, pa.Table]:
        raise NotImplementedError

    def check(self, out: dict[str, pa.Table], inp: tuple[str, dict]) -> list[str]:
        raise NotImplementedError


def _run_kg(pages_dir: str, out_dir: str):
    from ner_extractor_ray.pipelines.kg import pages_dataset, run_kg

    return run_kg(pages_dataset(os.path.join(pages_dir, "pages.parquet")),
                  out_dir=out_dir, n_partitions=N_PARTITIONS)


class KgCrawl(Workload):
    name, kind, job_rows, warm_rows = "kg_crawl", "pages", 3000, 200
    stages = KgStages()

    def run(self, inp, out_dir):
        return _run_kg(inp[0], out_dir)

    def load(self, out_dir):
        return load_kg(out_dir)

    def check(self, out, inp):
        return check_kg(out, inp[1])


class KgUpdate(Workload):
    # the warm-up job builds the frozen snapshot every update job merges into
    name, kind, job_rows, warm_rows = "kg_update", "pages", 500, 1000
    stages = KgStages()

    def warm_inputs(self):
        return self.inputs(0, self.warm_rows)

    def warm_up(self, inp):
        self.snapshot = os.path.join(self.work, "snapshot")
        t = time.perf_counter()
        _run_kg(inp[0], self.snapshot)
        dt = time.perf_counter() - t
        self.prev = load_kg(self.snapshot)
        return dt, check_kg(self.prev, inp[1])

    def run(self, inp, out_dir):
        from ner_extractor_ray.pipelines.kg import pages_dataset
        from ner_extractor_ray.pipelines.kg_update import update_kg

        return update_kg(self.snapshot, pages_dataset(os.path.join(inp[0], "pages.parquet")),
                         out_dir, n_partitions=N_PARTITIONS)

    def load(self, out_dir):
        return load_kg(out_dir)

    def check(self, out, inp):
        return check_update(out, inp[1], self.prev)


class CurateDups(Workload):
    name, kind, job_rows, warm_rows = "curate_dups", "docs", 1600, 160
    stages = CurationStages()

    def run(self, inp, out_dir):
        import ray.data

        from ner_extractor_ray.pipelines.curation import run_curation

        docs = ray.data.read_parquet(os.path.join(inp[0], "docs.parquet"))
        return run_curation(docs, out_dir=out_dir, n_partitions=N_PARTITIONS)

    def load(self, out_dir):
        return load_curation(out_dir)

    def check(self, out, inp):
        return check_curation(out, inp[1]["plan"])


WORKLOADS = {w.name: w for w in (KgCrawl, CurateDups, KgUpdate)}
