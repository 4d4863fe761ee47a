"""Shared helpers for the query catalogue family modules (split from
pipelines/queries.py — see its module docstring for the catalogue conventions
every family follows)."""

from __future__ import annotations

import math
import os
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data
from ray.data.aggregate import Count, Max, Min, Sum

_ALNUM = re.compile(r"[a-z0-9]+")
EMBED_DIM = 64  # testdata embeddings dim (TESTDATA.md tables)


def _rp(sf_dir: str, name: str, columns=None) -> "ray.data.Dataset":
    return ray.data.read_parquet(os.path.join(sf_dir, f"{name}.parquet"), columns=columns)


def _gagg(ds: "ray.data.Dataset", key: str, *aggs) -> "ray.data.Dataset":
    """groupby(key).aggregate(*aggs) through grouped_aggregate's bucketed
    vectorized plan — used on every HIGH-cardinality key (tokens, doc/order/
    customer ids, content hashes), where Ray's native per-group reduce pays
    ~140 µs/group (170 s at 1.2M groups, measured)."""
    from ..stages.canonicalize import grouped_aggregate

    return grouped_aggregate(ds, [key], *aggs)


def _cents(values: np.ndarray) -> np.ndarray:
    return np.floor(np.asarray(values, dtype=np.float64) * 100.0 + 0.5).astype(np.int64)



def _nonempty_or_empty_table(ds, schema: "pa.Schema"):
    """``Dataset.to_pandas`` of an all-empty Dataset loses column names (empty
    blocks are skipped by ``iter_batches``), which breaks the harness's schema
    compare whenever a query's result is legitimately empty at some sf. Guard:
    a distributed ``count()`` (an aggregate — nothing row-sized reaches the
    driver) picks between the lazy Dataset and a typed empty Table."""
    return schema.empty_table() if ds.count() == 0 else ds


def _min_count_filter(count_col: str, min_n: int, key_col: str):
    """Arrow batch filter ``count_col >= min_n``, robust to the zero-column
    empty blocks groupby().aggregate() can emit."""

    def fn(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or count_col not in t.column_names:
            return pa.table({key_col: pa.array([], pa.string()),
                             count_col: pa.array([], pa.int64())})
        return t.filter(pc.greater_equal(t.column(count_col), min_n))

    return fn


def _floor_log2(n: np.ndarray) -> np.ndarray:
    """Vectorized floor(log2(n)) for int n ≥ 1 — pure integer doubling
    (no log2 float-rounding hazard near power-of-two boundaries)."""
    v = n.astype(np.uint64)
    b = np.zeros(len(v), np.int64)
    for s in (32, 16, 8, 4, 2, 1):
        m = v >= np.uint64(1 << s)
        b[m] += s
        v[m] >>= np.uint64(s)
    return b


# --------------------------------------------------------------------------

def lift_ppm(n_ab, n_a, n_b, n_total: int) -> list[int]:
    """⌊10⁶ · n_ab · N / (n_a · n_b)⌋ per row, finished in Python ints: the
    numerator passes 2^63 at web scale (N ≈ 10⁹ sentences or orders,
    n_ab ≈ 10⁴), where int64 column arithmetic wraps silently."""
    return [(1_000_000 * int(ab) * n_total) // (int(a) * int(b))
            for ab, a, b in zip(n_ab, n_a, n_b)]


def _ts_us(s: str) -> int:
    """Epoch µs of an ISO date — deterministic, engine-neutral (the SQL side
    compares against TIMESTAMP literals; both resolve to the same instant)."""
    return int(np.datetime64(s, "us").astype(np.int64))
