#!/usr/bin/env python
"""Benchmark harness — one JSON line on stdout (driver contract).

    python bench.py                # timed suite at $GRAFT_SF_DIR / $RAY_GRAFT_CPUS
    python bench.py --scaling      # the kg job at 8 and 32 CPUs + scaling efficiency
    python bench.py --scaling-web  # host_link_graph over 3.2M pages, 8 vs 32 CPUs
    python bench.py --scaling-cur  # run_curation over $GRAFT_CUR_DOCS docs, 8 vs 32 CPUs
    python bench.py --soak         # the kg job uncapped, then under a 2 GiB object store

Jobs :func:`kg`, :func:`web` and :func:`cur` time ``reps`` runs after one warm
read: ``{"reps": [...], "min": s, "check": ...}``. The suite runs ``kg``
in-process, then the operator queries on the testdata tables; each scaling or
soak leg is one job in a fresh process with its own Ray (:func:`run_job`).
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import time

import ray
from ray.data import DataContext

from ner_extractor_ray.functions.weblinks import host_link_graph
from ner_extractor_ray.pipelines.curation import run_curation
from ner_extractor_ray.pipelines.kg import pages_dataset, run_kg
from ner_extractor_ray.sources.pages import write_pages
from ner_extractor_ray.stages.materialize import collect_table

# min-of-N: shared hosts swing ±2× on single runs under ambient load; the MIN
# over repeats is the least-contended measurement and is the recorded metric
REPEATS = int(os.environ.get("GRAFT_BENCH_REPEATS", "3"))
SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
_m = re.search(r"sf([0-9.]+)", SF_DIR)
SF = float(_m.group(1)) if _m else 0.1
WEB_PAGES = 3_200_000
CUR_DOCS = int(os.environ.get("GRAFT_CUR_DOCS", "400000"))

SUITE = """pricing_summary events_hourly word_freq exact_dedup minhash_neardup
knn_cosine token_stats customer_by_nation order_rank purchase_clicks_window
kmeans_fixed graph_components table_checksum dedup_ngram_spans neardup_keep_best
host_link_graph url_canonical_dedup curation_pipeline crawl_frontier
entity_cooccurrence user_sessions_segmented""".split()


def _n_pages(mult_default: str) -> int:
    """kg pages: 500k per unit of scale factor × $GRAFT_BENCH_PAGES_MULT. Scaling
    and soak legs default to 32× (1.6M pages at sf0.1) so compute dominates the
    fixed orchestration latency (round-3 efficiency: 0.23 at 50k, 0.87 at 800k)."""
    mult = int(os.environ.get("GRAFT_BENCH_PAGES_MULT", mult_default))
    return max(500, int(500_000 * SF)) * mult


def _pages(n: int, root: str = "/tmp") -> str:
    """The deterministic pages corpus of ``n`` pages, written if missing."""
    corpus = os.path.join(root, f"ner_ray_bench_pages_{n}")
    if not os.path.exists(os.path.join(corpus, "gold_triples.parquet")):
        write_pages(corpus, n, seed=42, n_files=32)
    return corpus


def _docs(n: int, root: str = "/tmp") -> str:
    """The curation corpus file, written if missing: ``n`` 40-word docs, each
    12th an exact dup of the doc before it and each 25th a near dup (one
    extra tail word) — 88% unique, 8% exact and 4% near dups."""
    path = os.path.join(root, f"ner_ray_curdocs_{n}", "documents.parquet")
    if not os.path.exists(path):
        import pyarrow as pa
        import pyarrow.parquet as pq

        os.makedirs(os.path.dirname(path), exist_ok=True)
        schema = pa.schema([("doc_id", pa.int64()), ("text", pa.string())])
        with pq.ParquetWriter(path, schema) as w:
            for lo in range(0, n, 50_000):
                ids = range(lo, min(lo + 50_000, n))
                w.write_table(pa.table([pa.array(ids), pa.array([_doc(i) for i in ids])],
                                       schema=schema))
    return path


def _doc(i: int) -> str:
    base = i - 1 if i % 25 == 24 or i % 12 == 11 else i
    return " ".join(f"d{base}w{j}" for j in range(40)) + (" vv" if i % 25 == 24 else "")


def _timed(run, reps: int, out: str | None = None) -> dict:
    """``reps`` timed calls of ``run`` (``out`` emptied before each, untimed);
    check = the last call's return value."""
    times = []
    for _ in range(reps):
        if out:
            shutil.rmtree(out, ignore_errors=True)
        t0 = time.perf_counter()
        check = run()
        times.append(round(time.perf_counter() - t0, 3))
    return {"reps": times, "min": min(times), "check": check}


def kg(corpus: str, out: str, reps: int, hashes: bool = False) -> dict:
    """run_kg over the pages at ``corpus`` into ``out``. Check: the edge
    count, or with ``hashes`` the digests of the sorted edge and node rows."""
    n_pages = pages_dataset(corpus).count()  # warm the page cache
    # DATA-sized partitions, the same at every CPU level (a fixed 16 capped the
    # aligned write at 16 tasks: 53.9 s → 37.8 s at 800k pages with 64 parts)
    n_parts = max(16, min(256, n_pages // 12_500))
    res: dict = {}

    def once() -> int:
        res.update(run_kg(pages_dataset(corpus), out_dir=out, n_partitions=n_parts))
        return res["edges"].count()

    result = _timed(once, reps, out)
    if hashes:
        result["check"] = {t: hashlib.sha256(repr(sorted(
            tuple(sorted(r.items())) for r in collect_table(res[t]).to_pylist()
        )).encode()).hexdigest()[:16] for t in ("edges", "nodes")}
    return result


def web(corpus: str, reps: int) -> dict:
    """host_link_graph (html → host pair aggregate); check = the page count."""
    n_pages = pages_dataset(corpus).count()  # warm read
    result = _timed(lambda: host_link_graph(pages_dataset(corpus)).count(), reps)
    return {**result, "check": n_pages}


def cur(docs: str, out: str, reps: int) -> dict:
    """run_curation of the ``docs`` file into ``out``; check = curated rows."""
    ray.data.read_parquet(docs).count()  # warm read
    return _timed(lambda: run_curation(ray.data.read_parquet(docs), out_dir=out,
                                       n_partitions=64)["curated"].count(), reps, out)


def _init_ray(cpus: int, cap: int = 0) -> None:
    """Ray on ``cpus`` CPUs (object store capped at ``cap`` bytes if set)."""
    ray.init(address="local", num_cpus=cpus, object_store_memory=cap or None,
             include_dashboard=False, ignore_reinit_error=True, logging_level="ERROR")
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    # block counts sized to the cluster: the default min_parallelism=200 splits
    # small inputs into hundreds of tiny blocks and per-task overhead dominates
    ctx.min_parallelism = ctx.read_op_min_num_blocks = cpus * 2


def child(job: str, cpus: int, cap: int | None) -> None:
    """Body of a :func:`run_job` process: prints the job's result line. A
    ``cap`` (bytes, 0 = none) makes it a soak leg: one hashed kg run."""
    _init_ray(cpus, cap or 0)
    if job == "kg":
        res = kg(_pages(_n_pages("32")), f"/tmp/ner_ray_bench_kg_{cpus}",
                 REPEATS if cap is None else 1, hashes=cap is not None)
    elif job == "web":
        res = web(_pages(WEB_PAGES), REPEATS)
    else:
        res = cur(_docs(CUR_DOCS), f"/tmp/cur_scale_{cpus}", REPEATS)
    print(json.dumps(res))
    ray.shutdown()


def run_job(job: str, cpus: int, cap: int | None = None) -> dict:
    """``job`` in a fresh process with its own Ray session; its last line."""
    out = subprocess.run(
        [sys.executable, "-c", f"import bench; bench.child({job!r}, {cpus}, {cap})"],
        cwd=os.path.dirname(os.path.abspath(__file__)),
        capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def _pair(job: str, n: int, unit: str) -> tuple[dict, dict, dict]:
    """``job`` at 8 and 32 CPUs (checks must agree): both results and the
    keys every scaling line shares, rates over ``n`` ``unit``."""
    lo, hi = run_job(job, 8), run_job(job, 32)
    assert lo["check"] == hi["check"], (lo, hi)
    return lo, hi, {
        f"{unit}_per_sec_8": round(n / lo["min"], 1),
        f"{unit}_per_sec_32": round(n / hi["min"], 1),
        "scaling_efficiency": round(lo["min"] / hi["min"] / 4, 3),
        "repeats_sec_8": lo["reps"], "repeats_sec_32": hi["reps"]}


def run_suite(num_cpus: int) -> dict:
    _init_ray(num_cpus)
    from ner_extractor_ray.pipelines import queries as Q

    n_pages = _n_pages("1")
    res = kg(_pages(n_pages), f"/tmp/ner_ray_bench_kg_{num_cpus}", REPEATS)
    timings = {"kg_pipeline": res["min"]}
    qmap = Q.queries()
    for name in SUITE:
        t0 = time.perf_counter()
        r = qmap[name](SF_DIR)
        if hasattr(r, "count"):
            r.count()  # consume the lazy dataset
        timings[name] = round(time.perf_counter() - t0, 3)
    ray.shutdown()
    return {"metric": "e2e suite seconds (kg pipeline + operator queries)",
            "value": round(sum(timings.values()), 3), "unit": "sec",
            "queries": timings, "sf": SF, "num_cpus": num_cpus,
            "kg_pages": n_pages, "kg_edges": res["check"],
            "kg_docs_per_sec": round(n_pages / res["min"], 1),
            "kg_repeats_sec": res["reps"]}


def main() -> None:
    cpus = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
    if "--scaling-web" in sys.argv:
        _, _, keys = _pair("web", WEB_PAGES, "pages")
        line = {"metric": "host_link_graph scaling 8→32 cpus", "pages": WEB_PAGES, **keys}
    elif "--scaling-cur" in sys.argv:
        _, hi, keys = _pair("cur", CUR_DOCS, "docs")
        line = {"metric": "curation pipeline scaling 8→32 cpus", "docs": CUR_DOCS,
                "n_curated": hi["check"], **keys}
    elif "--soak" in sys.argv:
        # uncapped, then with a 2 GiB object store the working set spills through
        free, capped = run_job("kg", cpus, 0), run_job("kg", cpus, 2 * 1024 ** 3)
        assert capped["check"] == free["check"], (capped, free)
        line = {"metric": "kg soak under 2GiB object store cap (1.6M pages)",
                "pages": _n_pages("32"), "num_cpus": cpus,
                "sec_uncapped": free["min"], "sec_capped_2GiB": capped["min"],
                "hash_match": True, "edges_hash": free["check"]["edges"]}
    elif "--scaling" in sys.argv:
        lo, hi, keys = _pair("kg", _n_pages("32"), "docs")
        # each leg runs the kg job alone, so its suite seconds are the job's
        line = {"metric": "kg pipeline scaling 8→32 cpus", "sec_8": lo["min"],
                "sec_32": hi["min"], "suite_sec_8": lo["min"],
                "suite_sec_32": hi["min"], **keys}
    else:
        line = run_suite(cpus)
    print(json.dumps(line))


if __name__ == "__main__":
    main()
