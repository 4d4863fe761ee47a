"""Round-5 directive #3 — TASK-retry idempotency of the kg pipeline.

Kill/resume tests (test_kill_resume.py / test_resume.py) cover DRIVER
restart; nothing exercised Ray's task retry until this module. With
GRAFT_FAULT_INJECT=1, stages/faults.py fails (a) every input block's first
attempt in the fused corpus pass and (b) every write task's first attempt
BETWEEN the parquet rename and the partition manifest. Ray retries the
tasks (retry_exceptions on the injected stages); the run must complete with
output byte-identical to a clean run and all manifests present — pinning
that every stage is idempotent under re-execution.
"""

import json
import os

import pytest
import ray


def _write_faults(out_dir, table):
    """Partitions of ``out_dir``/``table`` whose write task had an injected
    fault (the oracle keys are ``str(("write", table_dir, part))``)."""
    from ner_extractor_ray.stages import faults

    prefix = str(("write", os.path.join(out_dir, table)))[:-1] + ", "
    return [k for k in faults.fired_keys() if k.startswith(prefix)]


def _sorted_rows(ds):
    return sorted(tuple(sorted(r.items())) for r in ds.take_all())


def _kg(pdir, out_dir):
    from ner_extractor_ray.pipelines.kg import pages_dataset, run_kg

    res = run_kg(pages_dataset(pdir), out_dir=out_dir, n_partitions=8)
    return _sorted_rows(res["edges"]), _sorted_rows(res["nodes"])


def test_task_retry_idempotent(tmp_path, monkeypatch):
    from ner_extractor_ray.sources.pages import write_pages
    from ner_extractor_ray.stages import faults

    pdir = str(tmp_path / "pages")
    write_pages(pdir, 150, n_files=4)

    monkeypatch.delenv(faults.FAULT_ENV, raising=False)
    clean_edges, clean_nodes = _kg(pdir, str(tmp_path / "clean"))
    assert clean_edges

    monkeypatch.setenv(faults.FAULT_ENV, "1")
    faults.reset()
    faulty_out = str(tmp_path / "faulty")
    faulty_edges, faulty_nodes = _kg(pdir, faulty_out)
    fired = faults.fired_count()
    assert fired > 0, "no fault was injected — the harness is dead"
    # a retried nodes/edges write task reruns the final aggregate
    # (write_partitioned finish=) and must land the same rows
    assert _write_faults(faulty_out, "nodes") and _write_faults(faulty_out, "edges")

    assert faulty_edges == clean_edges
    assert faulty_nodes == clean_nodes

    # every table completed: table manifest + per-partition manifests, and
    # the retried write landed each partition's manifest exactly once with
    # rows matching the parquet file it describes
    for table in ("annotations", "assignments", "nodes", "edges"):
        tdir = os.path.join(faulty_out, table)
        assert os.path.exists(os.path.join(tdir, "_TABLE_MANIFEST.json")), table
        import pyarrow.parquet as pq
        for part in sorted(os.listdir(tdir)):
            if not part.startswith("part="):
                continue
            pdirp = os.path.join(tdir, part)
            man = json.load(open(os.path.join(pdirp, "_MANIFEST.json")))
            n = pq.read_table(
                os.path.join(pdirp, man["files"][0])).num_rows
            assert n == man["rows"], (table, part)

    faults.reset()


def test_task_retry_idempotent_8cpu_subprocess(tmp_path):
    """Second CPU level (directive: green at 2 levels): the same
    fault-injected run in a FRESH 8-cpu Ray session, compared against the
    session's clean counts via the deterministic (200 pages, seed 42)
    corpus expectation (mentions 1616, edges 549 — the /verify recipe
    numbers scale-pinned at 200 pages; here 150 pages, so the subprocess
    recomputes its own clean baseline)."""
    import subprocess
    import sys

    script = r"""
import os, ray, sys
ray.init(address="local", num_cpus=8, include_dashboard=False,
         logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from ner_extractor_ray.sources.pages import write_pages
from ner_extractor_ray.pipelines.kg import pages_dataset, run_kg
from ner_extractor_ray.stages import faults

pdir = sys.argv[1]
write_pages(pdir, 150, n_files=4)
clean = run_kg(pages_dataset(pdir), out_dir=sys.argv[2] + "_clean",
               n_partitions=8)
ce = sorted(tuple(sorted(r.items())) for r in clean["edges"].take_all())

os.environ[faults.FAULT_ENV] = "1"
res = run_kg(pages_dataset(pdir), out_dir=sys.argv[2], n_partitions=8)
fe = sorted(tuple(sorted(r.items())) for r in res["edges"].take_all())
assert faults.fired_count() > 0
assert fe == ce and len(ce) > 0
print("OK", len(ce), faults.fired_count())
ray.shutdown()
"""
    out = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "p8"),
         str(tmp_path / "o8")],
        capture_output=True, text=True, timeout=600,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    assert out.returncode == 0, out.stderr[-2000:]
    assert "OK" in out.stdout


def test_fault_stage_noop_without_flag(monkeypatch):
    """Production path: fault_stage must return the dataset UNTOUCHED (no
    extra stage, no oracle actor) when the env flag is absent."""
    from ner_extractor_ray.stages.faults import fault_stage

    monkeypatch.delenv("GRAFT_FAULT_INJECT", raising=False)
    ds = ray.data.range(10)
    assert fault_stage(ds, "x") is ds


def test_curation_task_retry_idempotent(tmp_path, monkeypatch):
    """The curation flagship under the same injection: its three
    write_partitioned calls hit the write-point fault (rename→manifest gap)
    automatically, and the span rewrite runs inside the retried write task;
    the curated rows must match the clean run exactly. A torn curated
    partition (its manifest gone, the table unfinished) is rewritten by a
    rerun with the same rows, and so is a torn ``bands`` table next to a
    complete ``curated`` one."""
    import pyarrow as pa

    from ner_extractor_ray.pipelines.curation import run_curation
    from ner_extractor_ray.stages import faults

    n = 400
    span = " ".join(f"boiler{j}" for j in range(10))  # shared by every 5th doc
    docs = pa.table({
        "doc_id": pa.array(list(range(n)), pa.int64()),
        "text": pa.array(
            [" ".join(f"d{i}w{j}" for j in range(30)) + (" " + span if i % 5 == 1 else "")
             if i % 3 else " ".join(f"c w{j}" for j in range(30)) for i in range(n)],
            pa.string()),
    })
    ds = ray.data.from_arrow(docs)
    cols = ["doc_id", "n_tokens", "n_removed", "kept_text"]

    def rows(res):
        return sorted(tuple(r[c] for c in cols) for r in res["curated"].take_all())

    monkeypatch.delenv(faults.FAULT_ENV, raising=False)
    clean = rows(run_curation(ds, out_dir=str(tmp_path / "c1"), n_partitions=8))

    monkeypatch.setenv(faults.FAULT_ENV, "1")
    faults.reset()
    faulty = rows(run_curation(ds, out_dir=str(tmp_path / "c2"), n_partitions=8))
    assert faults.fired_count() > 0
    assert faulty == clean and len(clean) > 0
    assert any(r[2] > 0 for r in clean)  # the rewrite removed spans
    faults.reset()

    monkeypatch.delenv(faults.FAULT_ENV, raising=False)
    cur = tmp_path / "c2" / "curated"
    os.remove(cur / "_TABLE_MANIFEST.json")
    torn = sorted(p for p in os.listdir(cur) if p.startswith("part="))[0]
    os.remove(cur / torn / "_MANIFEST.json")
    resumed = run_curation(ds, out_dir=str(tmp_path / "c2"), n_partitions=8)
    assert resumed["stats"].get("resumed") is None
    assert rows(resumed) == clean
    assert os.path.exists(cur / torn / "_MANIFEST.json")

    # the tables are written concurrently: a complete curated/ next to a
    # torn bands/ must not short-circuit the rerun, which finishes bands
    def bands(run):
        return sorted(tuple(r.values()) for r in
                      ray.data.read_parquet(str(tmp_path / run / "bands")).take_all())

    bdir = tmp_path / "c2" / "bands"
    os.remove(bdir / "_TABLE_MANIFEST.json")
    torn = sorted(p for p in os.listdir(bdir) if p.startswith("part="))[0]
    os.remove(bdir / torn / "_MANIFEST.json")
    resumed = run_curation(ds, out_dir=str(tmp_path / "c2"), n_partitions=8)
    assert resumed["stats"].get("resumed") is None
    assert rows(resumed) == clean
    assert os.path.exists(bdir / "_TABLE_MANIFEST.json")
    assert os.path.exists(bdir / torn / "_MANIFEST.json")
    assert bands("c2") == bands("c1") and len(bands("c1")) > 0
    assert run_curation(ds, out_dir=str(tmp_path / "c2"),
                        n_partitions=8)["stats"] == {"resumed": True}


def test_update_kg_task_retry_idempotent(tmp_path, monkeypatch):
    """Incremental update under injection: prev snapshot built clean, then
    the SAME update run twice (clean vs fault-injected) must produce
    identical merged node and edge sets with frozen ids intact, with a
    fault fired in at least one nodes and one edges write task (each reruns
    its final aggregate, the frozen edges folded in)."""
    import glob

    import ray.data as _rd

    from ner_extractor_ray.pipelines.kg import PAGE_COLUMNS, run_kg
    from ner_extractor_ray.pipelines.kg_update import update_kg
    from ner_extractor_ray.sources.pages import write_pages
    from ner_extractor_ray.stages import faults

    base = tmp_path
    write_pages(str(base / "pages"), 120, n_files=8)
    files = sorted(glob.glob(str(base / "pages" / "pages-*.parquet")))
    rd = lambda fs: _rd.read_parquet(fs, columns=PAGE_COLUMNS)

    monkeypatch.delenv(faults.FAULT_ENV, raising=False)
    run_kg(rd(files[:1]), out_dir=str(base / "prev"), n_partitions=8)
    clean = update_kg(str(base / "prev"), rd(files[1:]),
                      str(base / "upd_clean"), n_partitions=8)
    ce = _sorted_rows(clean["edges"])

    monkeypatch.setenv(faults.FAULT_ENV, "1")
    faults.reset()
    faulty_out = str(base / "upd_fault")
    faulty = update_kg(str(base / "prev"), rd(files[1:]), faulty_out,
                       n_partitions=8)
    fe = _sorted_rows(faulty["edges"])
    assert faults.fired_count() > 0
    assert _write_faults(faulty_out, "nodes") and _write_faults(faulty_out, "edges")
    assert fe == ce and len(ce) > 0
    assert _sorted_rows(faulty["nodes"]) == _sorted_rows(clean["nodes"])
    assert len(_sorted_rows(clean["nodes"])) > 0
    faults.reset()
