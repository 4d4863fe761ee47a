"""Blocking → candidate pairs → components: the one kernel behind every
bucket-based pair generator in the engine (MinHash-LSH bands, prefix
filters, deletion neighbourhoods, phash bands) and every union-find.

* :func:`bucket_pairs` turns (bucket, item) rows into candidate row pairs,
  all pairs per bucket up to a cap and a sorted chain above it — the
  connectivity-preserving skew cap of SURVEY.md §7.1;
* :func:`pack_pairs` / :func:`unpack_pairs` are the injective uint64
  ``a << 32 | b`` pair-key codec every pair-dedup shuffle groups on;
* :func:`union_find_min` resolves pairs to components labelled by their
  lexicographic-min member (the distributed CC's fixpoint labels).

Callers keep only their own verify step (type + Jaccard, Levenshtein,
Hamming, …) on the returned pairs.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _arrow(x) -> pa.Array:
    if isinstance(x, pa.ChunkedArray):
        return x.combine_chunks()
    return x if isinstance(x, pa.Array) else pa.array(x)


def _adjacent_equal(x: pa.Array) -> np.ndarray:
    """``x[k] == x[k-1]`` for k ≥ 1, as a numpy bool array of len(x) − 1."""
    return pc.equal(x[1:], x[:-1]).to_numpy(zero_copy_only=False)


def bucket_pairs(bucket, item, cap: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Candidate pairs of rows sharing a bucket → (i, j) int64 row indices
    into the inputs, with ``item[i] < item[j]``.

    Rows are sorted by (bucket, item) and duplicate (bucket, item) rows are
    dropped (the first in input order survives). A bucket of n ≤ ``cap``
    distinct items — every bucket when ``cap`` is None — emits all
    n·(n−1)/2 pairs, batched per bucket size through ``np.triu_indices``;
    a larger one emits the sorted chain item₁–item₂, item₂–item₃, …: O(n)
    and connectivity-preserving. A pair sharing several buckets is emitted
    once per bucket; callers dedup after verifying."""
    bucket, item = _arrow(bucket), _arrow(item)
    empty = np.empty(0, np.int64)
    if len(bucket) < 2:
        return empty, empty
    order = pc.sort_indices(
        pa.table({"b": bucket, "x": item}),
        sort_keys=[("b", "ascending"), ("x", "ascending")],
    ).to_numpy().astype(np.int64)
    sb, sx = bucket.take(order), item.take(order)
    same_b = _adjacent_equal(sb)
    dup = np.concatenate([[False], same_b & _adjacent_equal(sx)])
    keep = order[~dup]
    first = np.concatenate([[True], ~same_b])[~dup]
    starts = np.flatnonzero(first)
    sizes = np.diff(np.append(starts, len(keep)))
    ii, jj = [empty], [empty]
    small = sizes <= cap if cap is not None else np.ones(len(sizes), bool)
    for n in np.unique(sizes[small & (sizes >= 2)]):
        iu, ju = np.triu_indices(n, 1)
        st = starts[small & (sizes == n)][:, None]
        ii.append((st + iu).ravel())
        jj.append((st + ju).ravel())
    # chain: every position of an oversized bucket but its last
    link = np.repeat(~small, sizes)
    link[starts + sizes - 1] = False
    p = np.flatnonzero(link)
    ii.append(p)
    jj.append(p + 1)
    return keep[np.concatenate(ii)], keep[np.concatenate(jj)]


def bucket_pair_keys(t: pa.Table, cap: int | None = None) -> pa.Table:
    """(bucket, doc) rows → one packed pair key ``k`` (:func:`pack_pairs`)
    per in-bucket doc pair of :func:`bucket_pairs`; doc ids < 2^32. With a
    boolean ``frozen`` column, pairs of two frozen rows are dropped."""
    i, j = bucket_pairs(t.column("bucket"), t.column("doc"), cap)
    if "frozen" in t.column_names:
        frozen = t.column("frozen").to_numpy()
        keep = ~(frozen[i] & frozen[j])
        i, j = i[keep], j[keep]
    doc = pc.cast(t.column("doc"), pa.int64()).to_numpy()
    return pa.table({"k": pa.array(pack_pairs(doc[i], doc[j]), pa.uint64())})


def pack_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Injective (a, b) → uint64 ``a << 32 | b`` pair key. Ids must fit 32
    bits — true for any vocabulary-assigned id space (parts, canonical
    entity ids, document ids). Checked with an explicit raise (not
    ``assert``) so the invariant survives ``python -O``; silent aliasing
    would corrupt every count keyed on the pair. Called inside a Ray task
    (every engine caller), the ``ValueError`` reaches the driver as Ray's
    task error, whose message carries ``ValueError: node ids exceed 32
    bits``; it is not a bare ``ValueError`` there."""
    if a.size and (int(a.max()) >= (1 << 32) or int(b.max()) >= (1 << 32)):
        raise ValueError("node ids exceed 32 bits — widen the pair encoding")
    return (a.astype(np.uint64) << np.uint64(32)) | b.astype(np.uint64)


def unpack_pairs(k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`pack_pairs` → (a, b) as int64."""
    k = np.asarray(k, dtype=np.uint64)
    return ((k >> np.uint64(32)).astype(np.int64),
            (k & np.uint64(0xFFFFFFFF)).astype(np.int64))


def unpack_pair_table(t: pa.Table, keep: tuple[str, ...] = ()) -> pa.Table:
    """(k, *keep) → (id_a, id_b, *keep), all int64; safe on the empty
    schema-less blocks Ray's aggregates emit."""
    if t.num_rows == 0 or "k" not in t.column_names:
        return pa.table({c: pa.array([], pa.int64()) for c in ("id_a", "id_b", *keep)})
    a, b = unpack_pairs(t.column("k").to_numpy())
    return pa.table({"id_a": a, "id_b": b,
                     **{c: pc.cast(t.column(c), pa.int64()) for c in keep}})


def union_find_min(nodes, a, b) -> list:
    """Connected components of ``nodes`` under the pairs zip(a, b) →
    representative per node (aligned with ``nodes``), the lexicographic
    minimum of its component — the labels the distributed min-label
    propagation converges to. Pairs naming an unknown node are skipped."""
    parent = {n: n for n in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in zip(a, b):
        if x not in parent or y not in parent:
            continue
        rx, ry = find(x), find(y)
        if rx != ry:
            lo, hi = (rx, ry) if rx < ry else (ry, rx)
            parent[hi] = lo
    return [find(n) for n in nodes]
