"""Benchmark entry point.

    python3 kgbench/run.py --workload kg_crawl --seed 1 --seconds 12 --trace 0

Runs from the root of a source checkout; builds nothing. Starts Ray with
``num_cpus = nproc`` and runs one workload (workloads.py) as a closed loop
with one client for ``--seconds`` of job time after set-up. Every job's
output is checked. The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; all other output,
Ray's included, goes to stderr. ``--trace 0`` reports the end-to-end
metrics from untraced jobs; ``--trace 1`` reports the per-layer metrics
(tracing.py, kernels.py). The exit code is 0 only when every job passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".kgbench")  # cache + scratch, inside the checkout

MIN_JOBS = 4      # measured jobs per run, whatever --seconds says
# Ray's socket paths live under its temp dir and must fit in sun_path (108
# bytes); the session directory name adds ~62 characters.
MAX_RAY_TMP = 44


def nproc() -> int:
    """What ``nproc`` prints: the CPUs this process may run on, unless
    ``OMP_NUM_THREADS`` says otherwise."""
    omp = os.environ.get("OMP_NUM_THREADS", "").split(",")[0]
    return int(omp) if omp.isdigit() and int(omp) > 0 else len(os.sched_getaffinity(0))


def _children_map() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        kids.setdefault(ppid, []).append(int(name))
    return kids


def descendants(pid: int) -> list[int]:
    kids = _children_map()
    out, todo = [], [pid]
    while todo:
        for c in kids.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def _status_kb(pid: int, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _is_worker(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as fh:
            cmd = fh.read()
    except OSError:
        return False
    return cmd.startswith(b"ray::") or b"default_worker.py" in cmd


def peak_rss_mb() -> float:
    """Summed peak RSS (VmHWM) of this process (the Ray driver) and its live
    Ray workers."""
    me = os.getpid()
    workers = [p for p in descendants(me) if _is_worker(p)]
    kb = [_status_kb(p, "VmHWM") for p in [me] + workers]
    print(f"peak rss: this process {kb[0] / 1024:.0f} MB, {len(workers)} workers "
          f"{[round(k / 1024) for k in kb[1:]]} MB", file=sys.stderr)
    return sum(kb) / 1024.0


class RaySession:
    """``ray.init`` with short temp paths; ``stop`` waits for (and if need
    be kills) every process the session started."""

    def __init__(self, tmp: str):
        self.tmp = tmp

    def start(self) -> None:
        import ray
        from ray.data import DataContext

        ray.init(address="local", num_cpus=nproc(), include_dashboard=False,
                 logging_level="ERROR", log_to_driver=False, _temp_dir=self.tmp,
                 object_store_memory=256 << 20)
        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.execution_options.verbose_progress = False

    def stop(self) -> None:
        import ray

        procs = descendants(os.getpid())
        if ray.is_initialized():
            ray.shutdown()
        deadline = time.monotonic() + 15
        while time.monotonic() < deadline and any(_alive(p) for p in procs):
            _reap()
            time.sleep(0.1)
        for p in procs:
            if _alive(p):
                try:
                    os.kill(p, signal.SIGKILL)
                except OSError:
                    pass
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline and any(_alive(p) for p in procs):
            _reap()
            time.sleep(0.05)


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _reap() -> None:
    try:
        while os.waitpid(-1, os.WNOHANG)[0]:
            pass
    except ChildProcessError:
        pass


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def bench(args, session: RaySession) -> dict:
    from inputs import InputCache, check_reference
    from workloads import WORKLOADS, corrupt

    t0 = time.perf_counter()
    import ray  # noqa: F401
    import ray.data  # noqa: F401

    import ner_extractor_ray.pipelines.curation  # noqa: F401
    import ner_extractor_ray.pipelines.kg  # noqa: F401
    import ner_extractor_ray.pipelines.kg_update  # noqa: F401
    import_s = time.perf_counter() - t0
    check_reference()

    run_dir = os.path.join(WORK, f"run-{os.getpid()}")
    wl = WORKLOADS[args.workload](args.seed, InputCache(os.path.join(WORK, "cache")), run_dir)
    os.makedirs(run_dir, exist_ok=True)
    failures: list[str] = []

    def job(k, inp, traced=None):
        """Job ``k``, checked; returns (seconds, result, outputs, failures)."""
        out_dir = os.path.join(run_dir, f"job-{k}")
        if traced:
            traced.reset()
        t = time.perf_counter()
        res = wl.run(inp, out_dir)
        dt = time.perf_counter() - t
        out = wl.load(out_dir)
        bad = wl.check(out, inp)
        shutil.rmtree(out_dir, ignore_errors=True)
        return dt, res, out, bad

    # ---- set-up: import + ray.init + the warm-up job
    inp = wl.warm_inputs()
    t = time.perf_counter()
    session.start()
    init_s = time.perf_counter() - t
    warm_s, bad = wl.warm_up(inp)
    failures += [f"warm-up: {b}" for b in bad]
    setup_s = import_s + init_s + warm_s
    print(f"setup: import {import_s:.2f} init {init_s:.2f} warm {warm_s:.2f}", file=sys.stderr)

    # ---- measured closed loop
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(wl.stages)
    times, rates, traced_times, layer = [], [], [], []
    attempted = failed = 0
    spent = 0.0  # job seconds so far, failed jobs included
    last_out = last_inp = None
    min_jobs = MIN_JOBS + args.trace  # a traced run alternates plain and traced jobs
    while attempted < min_jobs or spent < args.seconds:
        inp = wl.job_inputs(attempted)
        use = tracer if (tracer and attempted % 2) else None
        if use:
            use.install()
        t = time.perf_counter()
        try:
            dt, res, out, bad = job(attempted, inp, use)
        except Exception:  # noqa: BLE001 - a failed job is counted, not fatal
            traceback.print_exc()
            dt, res, out, bad = None, None, None, ["job raised"]
        finally:
            if use:
                use.uninstall()
        spent += dt if dt is not None else time.perf_counter() - t
        attempted += 1
        if bad:
            failed += 1
            failures += [f"job {attempted - 1}: {b}" for b in bad]
            continue
        last_out, last_inp = out, inp
        if use:
            traced_times.append(dt)
            m = use.job_metrics(dt)
            if wl.name == "curate_dups":
                st = res["stats"]
                m["functions.dedup.pair_yield"] = (
                    (st["n_exact"] - st["n_neardup"]) / m["functions.dedup.lsh_pairs"]
                    if m["functions.dedup.lsh_pairs"] else 0.0)
            layer.append(m)
        else:
            times.append(dt)
            rates.append(inp[1][wl.kind].num_rows / dt)
        print(f"job {attempted - 1}: {dt:.3f}s{' traced' if use else ''}", file=sys.stderr)

    # the check must catch a dropped output row, or its passes mean nothing
    if last_out is not None and not wl.check(corrupt(last_out), last_inp):
        failures.append("output check accepted a corrupted output")
    rss = peak_rss_mb()
    session.stop()
    for f in failures:
        print("FAILED:", f, file=sys.stderr)

    if not args.trace:
        metrics = {
            "input_rows_per_s": (_median(rates), "rows/s"),
            "job_s_p50": (_median(times), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (rss, "MB"),
        }
    else:
        from kernels import kernel_metrics
        from tracing import METRIC_UNITS

        per = {k: _median([m.get(k, 0.0) for m in layer]) for k in METRIC_UNITS}
        per.update(kernel_metrics(args.seed))
        per["trace.overhead_ratio"] = (_median(traced_times) / _median(times)
                                       if times and traced_times else 0.0)
        per["error_rate"] = failed / attempted
        metrics = {k: (per.get(k, 0.0), u) for k, u in METRIC_UNITS.items()}
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def ray_tmp_dir() -> str:
    """Ray's temp dir: inside the checkout when the path is short enough for
    Ray's sockets, else a private directory under /tmp (removed at exit)."""
    d = os.path.join(WORK, "r")
    return d if len(d) <= MAX_RAY_TMP else tempfile.mkdtemp(prefix="kgb")


def main(argv=None) -> int:
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    # everything but the result line goes to stderr, Ray's output included
    result_fd = os.dup(1)
    os.dup2(2, 1)
    sys.stdout = sys.stderr

    os.makedirs(WORK, exist_ok=True)
    ray_tmp = ray_tmp_dir()
    os.makedirs(ray_tmp, exist_ok=True)
    os.environ["RAY_TMPDIR"] = ray_tmp
    os.environ["TMPDIR"] = ray_tmp
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    os.environ["RAY_DEDUP_LOGS"] = "1"
    # Ray workers import the engine from this checkout
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT] + [x for x in os.environ.get("PYTHONPATH", "").split(os.pathsep) if x])
    sys.path.insert(0, ROOT)

    # a stopped run still shuts Ray down (the finally below)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    session = RaySession(ray_tmp)
    result = None
    try:
        result = bench(args, session)
    except Exception:  # noqa: BLE001 - report, then exit non-zero
        traceback.print_exc()
    finally:
        try:
            session.stop()
        except Exception:  # noqa: BLE001
            traceback.print_exc()
        shutil.rmtree(os.path.join(WORK, f"run-{os.getpid()}"), ignore_errors=True)
        shutil.rmtree(ray_tmp, ignore_errors=True)
    if result is None:
        return 2
    with open(os.path.join(WORK, "records.jsonl"), "a") as fh:
        fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                             "trace": args.trace, "seconds": args.seconds,
                             "nproc": nproc(), "result": result}) + "\n")
    os.write(result_fd, (json.dumps(result) + "\n").encode())
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
