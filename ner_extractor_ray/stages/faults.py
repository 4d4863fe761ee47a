"""Env-gated fault injection pinning TASK-RETRY idempotency (round-5 #3).

``GRAFT_FAULT_INJECT=1`` (checked on the DRIVER at stage-construction time —
the decision is captured into task closures, so worker environments don't
matter) turns on two injection points in the kg pipeline:

* ``fault_stage(pages, "kg_pages")`` — raises once per input block on its
  first attempt (content-keyed), exercising Ray task retry of the fused
  tag/annotate corpus pass;
* ``inject_fault(("write", table_dir, part))`` in write_partitioned's
  write_group, AFTER the parquet file is renamed into place but BEFORE the
  partition manifest — the retried task must rewrite the file idempotently
  (tmp + rename) and land the manifest exactly once.

A named FaultOracle actor arbitrates "first attempt" cluster-wide, so a
retry scheduled on a DIFFERENT worker still passes (a worker-local marker
would re-raise forever under round-robin scheduling). The injecting stages
carry ``retry_exceptions`` so Ray retries the task instead of failing the
run. Kill/resume tests cover DRIVER restart; this module covers the task
unit — together they mirror the reference's resume discipline
(DistilBERT-CRF/scripts/run_kfold.py:83-111) at both granularities.
tests/test_fault_injection.py asserts byte-identical output vs a clean run
and a positive injected-fault count.
"""

from __future__ import annotations

import os

import pyarrow as pa
import ray

FAULT_ENV = "GRAFT_FAULT_INJECT"
_ORACLE_NAME = "graft_fault_oracle"
_NS = "graft_faults"


def fault_injection_on() -> bool:
    """Driver-side gate; call at stage-construction time only."""
    return bool(os.environ.get(FAULT_ENV))


@ray.remote(num_cpus=0)
class FaultOracle:
    """Cluster-wide exactly-once arbiter: first should_fail(key) → True."""

    def __init__(self):
        self.seen: set = set()

    def should_fail(self, key: str) -> bool:
        if key in self.seen:
            return False
        self.seen.add(key)
        return True

    def fired(self) -> list:
        return sorted(self.seen)


def get_oracle():
    """Create-or-get the named oracle. Call from the DRIVER only (at stage
    construction): an actor created inside a map task is owned by that
    task's worker and can die between retry attempts, resetting the 'seen'
    set and exhausting the retries. The handle pickles into task closures."""
    return FaultOracle.options(
        name=_ORACLE_NAME, namespace=_NS, get_if_exists=True).remote()


def inject_fault(key, oracle) -> None:
    """Raise RuntimeError the FIRST time ``key`` is seen cluster-wide.

    No env check here — callers gate on :func:`fault_injection_on` at the
    driver and capture the decision (plus the driver-owned ``oracle``
    handle), because worker processes don't inherit a driver-side
    monkeypatched environment."""
    if ray.get(oracle.should_fail.remote(str(key))):
        raise RuntimeError(f"injected fault (first attempt): {key}")


def fired_keys() -> list[str]:
    """Every key an injected fault fired on, as ``str(key)``, sorted."""
    return ray.get(get_oracle().fired.remote())


def fired_count() -> int:
    return len(fired_keys())


def reset() -> None:
    """Kill the oracle so the next run starts with a fresh 'seen' set.

    Waits for the NAME to deregister: ray.kill is asynchronous, and a
    get_if_exists racing the dying actor would hand the next run a dead
    handle (observed as a one-off full-suite flake)."""
    import time

    try:
        ray.kill(ray.get_actor(_ORACLE_NAME, namespace=_NS))
    except ValueError:
        return
    for _ in range(200):
        try:
            ray.get_actor(_ORACLE_NAME, namespace=_NS)
            time.sleep(0.05)
        except ValueError:
            return


def fault_remote_args() -> dict:
    """ray_remote_args enabling task retry on injected stages; empty when
    injection is off so the production path carries zero overhead."""
    if not fault_injection_on():
        return {}
    # worst case a task owns k groups and needs k+1 attempts (one injected
    # failure per group key) — 16 retries covers any packing of the test
    # pipelines' ≤8-partition writes with headroom
    return {"retry_exceptions": True, "max_retries": 16}


class _Fault:
    def __init__(self, stage: str, oracle):
        self.stage = stage
        self.oracle = oracle

    def __call__(self, batch: pa.Table) -> pa.Table:
        if batch.num_rows:
            # block-stable key: stage + first-row first-column + row count —
            # identical on every retry of the same block, distinct across
            # blocks for any keyed input (pages carry unique urls)
            c0 = batch.column_names[0]
            inject_fault((self.stage, str(batch.column(c0)[0].as_py()),
                          batch.num_rows), self.oracle)
        return batch


def fault_stage(ds: "ray.data.Dataset", stage: str) -> "ray.data.Dataset":
    """Identity pass-through that fails each block's first attempt. No-op
    (returns ``ds`` untouched) unless the driver env flag is set."""
    if not fault_injection_on():
        return ds
    return ds.map_batches(_Fault(stage, get_oracle()),
                          batch_format="pyarrow", **fault_remote_args())
