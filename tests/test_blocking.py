"""Blocking kernel (functions/blocking.py) against the plain nested loop."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ner_extractor_ray.functions.blocking import (
    bucket_pairs,
    pack_pairs,
    union_find_min,
    unpack_pairs,
)


def _loop_pairs(buckets, items, cap):
    """The per-bucket nested loop every blocking site used to carry
    (tests/test_dedup_plans.py reference): distinct sorted members, all
    pairs up to ``cap``, the sorted chain above it."""
    groups: dict = {}
    for bk, it in zip(buckets, items):
        groups.setdefault(bk, []).append(it)
    out = []
    for bk, members in groups.items():
        ids = sorted(set(members))
        n = len(ids)
        if n < 2:
            continue
        prs = (
            [(i, j) for i in range(n) for j in range(i + 1, n)]
            if cap is None or n <= cap
            else [(i, i + 1) for i in range(n - 1)]
        )
        out.extend((bk, ids[i], ids[j]) for i, j in prs)
    return sorted(out)


def _kernel_pairs(buckets, items, cap):
    i, j = bucket_pairs(buckets, items, cap)
    assert all(buckets[x] == buckets[y] for x, y in zip(i, j))
    assert all(items[x] < items[y] for x, y in zip(i, j))
    first: dict = {}
    for r, key in enumerate(zip(buckets, items)):
        first.setdefault(key, r)
    # the surviving row of a duplicated (bucket, item) is its first
    assert all(first[(buckets[x], items[x])] == x for x in np.concatenate([i, j]))
    return sorted((buckets[x], items[x], items[y]) for x, y in zip(i, j))


_caps = st.one_of(st.none(), st.integers(1, 64))


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 40)), max_size=120),
       cap=_caps)
def test_bucket_pairs_matches_loop_int(rows, cap):
    buckets = [b for b, _ in rows]
    items = [x for _, x in rows]
    assert _kernel_pairs(buckets, items, cap) == _loop_pairs(buckets, items, cap)


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(st.tuples(st.sampled_from(["k", "ka", "b", ""]),
                               st.text("abc", max_size=3)), max_size=80),
       cap=_caps)
def test_bucket_pairs_matches_loop_str(rows, cap):
    buckets = [b for b, _ in rows]
    items = [x for _, x in rows]
    assert _kernel_pairs(buckets, items, cap) == _loop_pairs(buckets, items, cap)


@pytest.mark.parametrize("cap", [None, 5, 6])
def test_bucket_pairs_cap_boundary(cap):
    # one bucket of 6 distinct items (duplicated rows), one of 5
    buckets = [7] * 12 + [3] * 5
    items = list(range(6)) * 2 + [10, 14, 11, 13, 12]
    got = _kernel_pairs(buckets, items, cap)
    assert got == _loop_pairs(buckets, items, cap)
    n6 = sum(1 for b, _, _ in got if b == 7)
    assert n6 == (5 if cap == 5 else 15)  # n = cap + 1 chains, n = cap does not
    assert sum(1 for b, _, _ in got if b == 3) == 10


def test_bucket_pairs_empty_and_singletons():
    for buckets, items in [([], []), ([1], [2]), ([1, 2, 3], [4, 4, 4]), ([1, 1], [2, 2])]:
        i, j = bucket_pairs(buckets, items, 4)
        assert i.size == 0 and j.size == 0


def test_pair_codec_roundtrip():
    a = np.array([0, 1, (1 << 32) - 1], np.int64)
    b = np.array([(1 << 32) - 1, 2, 0], np.int64)
    k = pack_pairs(a, b)
    assert k.dtype == np.uint64 and len(set(k.tolist())) == 3
    ra, rb = unpack_pairs(k)
    assert ra.tolist() == a.tolist() and rb.tolist() == b.tolist()


def test_union_find_min_int_str_and_unknown():
    assert union_find_min([5, 3, 9, 1, 7], [9, 3, 42], [5, 7, 1]) == [5, 3, 5, 1, 3]
    nodes = ["d", "b", "c", "a", "e"]
    # "zz" is not a node: its pair is skipped, "a" stays a singleton
    assert union_find_min(nodes, ["d", "c", "zz"], ["c", "b", "a"]) == \
        ["b", "b", "b", "a", "e"]
    assert union_find_min([], [1], [2]) == []
