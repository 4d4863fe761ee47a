"""Print the sha256 of every parquet file the flagship pipelines write.

Fixtures, all on seeded kgbench inputs (``kgbench/inputs.py``):

* ``kg-default``: ``run_kg`` on pages [0, 1000), then ``update_kg`` of pages
  [1000, 1500) onto it, under the default physical plans;
* ``kg-scale``: the same two runs with ``broadcast_limit=0`` and
  ``canon_driver_threshold=0``, which force the hash-join and distributed
  plans;
* ``curation``: ``run_curation`` on ``docs_batch`` [0, 1600), then
  ``update_curation`` of docs [1600, 1920) onto it.

Two trees that should write the same tables are compared by running this
in each and diffing the output (one ``<sha256>  <fixture>/<path>`` line per
file, sorted by path):

    python3 tools/hash_outputs.py --work /tmp/h_a > a.txt
    python3 tools/hash_outputs.py --work /tmp/h_b > b.txt   # other checkout
    diff a.txt b.txt

The script imports the engine from the checkout it lives in and puts that
checkout on the Ray workers' path. The fixture sizes, seed, partition count
and Ray's CPU count are fixed below, so two trees are always hashed under the
same settings. Before a fixture runs, only its own ``<work>/<fixture>``
directory is emptied.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = ("kg-default", "kg-scale", "curation")
SEED = 7
N_PAGES, N_UPDATE_PAGES = 1000, 500
N_DOCS, N_UPDATE_DOCS = 1600, 320
N_PARTITIONS = 4
N_CPUS = 1


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_input(work: str, name: str, table) -> str:
    import pyarrow.parquet as pq

    path = os.path.join(work, "inputs", f"{name}.parquet")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    pq.write_table(table, path)
    return path


def _kg_fixture(work: str, seed: int, n_pages: int, n_update: int,
                n_partitions: int, plan: dict) -> None:
    from kgbench.inputs import page_batch
    from ner_extractor_ray.pipelines.kg import pages_dataset, run_kg
    from ner_extractor_ray.pipelines.kg_update import update_kg

    old = _write_input(work, "pages_old", page_batch(seed, 0, n_pages)["pages"])
    new = _write_input(work, "pages_new", page_batch(seed, n_pages, n_update)["pages"])
    snap = os.path.join(work, "snapshot")
    run_kg(pages_dataset(old), out_dir=snap, n_partitions=n_partitions, **plan)
    update_kg(snap, pages_dataset(new), os.path.join(work, "update"),
              n_partitions=n_partitions, **plan)


def _curation_fixture(work: str, seed: int, n_docs: int, n_update: int,
                      n_partitions: int) -> None:
    import ray.data

    from kgbench.inputs import docs_batch
    from ner_extractor_ray.pipelines.curation import run_curation
    from ner_extractor_ray.pipelines.curation_update import update_curation

    old = _write_input(work, "docs_old", docs_batch(seed, 0, n_docs)["docs"])
    new = _write_input(work, "docs_new", docs_batch(seed, n_docs, n_update)["docs"])
    snap = os.path.join(work, "snapshot")
    run_curation(ray.data.read_parquet(old), out_dir=snap, n_partitions=n_partitions)
    update_curation(snap, ray.data.read_parquet(new), ray.data.read_parquet(old),
                    os.path.join(work, "update"), n_partitions=n_partitions)


def _hash_tree(work: str, fixture: str) -> list[tuple[str, str]]:
    out = []
    for sub in ("snapshot", "update"):
        base = os.path.join(work, sub)
        for dirpath, _, files in os.walk(base):
            for f in files:
                if f.endswith(".parquet"):
                    p = os.path.join(dirpath, f)
                    rel = os.path.relpath(p, work)
                    out.append((f"{fixture}/{rel}", _sha256(p)))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--work", default=os.path.join(ROOT, ".hash_outputs"),
                    help="scratch directory; each fixture's subdirectory is emptied first")
    ap.add_argument("--only", choices=FIXTURES, action="append",
                    help="run only these fixtures")
    args = ap.parse_args(argv)

    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT] + [x for x in os.environ.get("PYTHONPATH", "").split(os.pathsep) if x])
    sys.path.insert(0, ROOT)

    import ray
    from ray.data import DataContext

    ray.init(address="local", num_cpus=N_CPUS, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=256 << 20)
    DataContext.get_current().enable_progress_bars = False
    fixtures = {
        "kg-default": lambda w: _kg_fixture(
            w, SEED, N_PAGES, N_UPDATE_PAGES, N_PARTITIONS, {}),
        "kg-scale": lambda w: _kg_fixture(
            w, SEED, N_PAGES, N_UPDATE_PAGES, N_PARTITIONS,
            {"broadcast_limit": 0, "canon_driver_threshold": 0}),
        "curation": lambda w: _curation_fixture(
            w, SEED, N_DOCS, N_UPDATE_DOCS, N_PARTITIONS),
    }
    rows = []
    try:
        for name in args.only or FIXTURES:
            work = os.path.join(args.work, name)
            shutil.rmtree(work, ignore_errors=True)
            fixtures[name](work)
            rows += _hash_tree(work, name)
    finally:
        ray.shutdown()
    for rel, digest in sorted(rows):
        print(f"{digest}  {rel}")
    print(f"{len(rows)} files", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
