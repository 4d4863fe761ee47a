"""Deduplication operators over document tables (training-data pipeline ops).

All are Dataset→Dataset transforms built from map_batches + groupby with the
same skew discipline as the KG stages: per-batch partial aggregation before
any shuffle, bucket caps with connectivity-preserving chains. Exact-dedup
mirrors the reference's duplicate-sentence multiset matching by serialized key
(scripts/generate_kfold_splits.py:122-131 → SURVEY.md D2), generalized to
content hashes; near-dup families (MinHash-LSH, SimHash, n-gram Jaccard) are
the web-scale additions.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data
from ray.data.aggregate import Count, Min

from .blocking import bucket_pair_keys, bucket_pairs, unpack_pair_table
from .hashing import stable_hash64
from .textfns import (
    band_buckets_batch,
    char_shingles,
    jaccard,
    minhash_signatures_sql_batch,
    simhash64,
    word_ngrams,
)

SHINGLERS = {
    "char3": char_shingles,
    "word3": lambda s: word_ngrams(s, 3),
    "word1": lambda s: word_ngrams(s, 1),
}

_M63 = (1 << 63) - 1


def content_hash63(texts) -> np.ndarray:
    """Per-row content hash ``stable_hash64(text) & (2^63 - 1)`` as int64
    (null → empty text): the exact-dup key of the curation ``state`` table
    and the recrawl capture tie-break."""
    return np.array([stable_hash64(s or "") & _M63 for s in texts.to_pylist()],
                    dtype=np.int64)


def content_hash_rows(t: pa.Table, id_col: str, text_col: str) -> pa.Table:
    """(id_col, h) rows of :func:`content_hash63`: the curation ``state``."""
    return pa.table({id_col: pc.cast(t.column(id_col), pa.int64()),
                     "h": pa.array(content_hash63(t.column(text_col)), pa.int64())})


def band_rows(
    t: pa.Table, id_col: str, text_col: str, *,
    shingle: str = "word3", num_perm: int = 64, n_bands: int = 16,
) -> pa.Table:
    """(doc, bucket) MinHash-LSH band rows, ``n_bands`` per document: the
    blocking key of :func:`lsh_near_dup_pairs` and the curation ``bands``
    table. Batched md5-MinHash: each distinct shingle is hashed once per
    batch, signatures and band buckets fully vectorized (same values as the
    per-doc minhash_signature_sql/band_buckets — pinned by unit test)."""
    shingler = SHINGLERS[shingle]
    ids = pc.cast(t.column(id_col), pa.int64()).to_numpy(zero_copy_only=False)
    sigs = minhash_signatures_sql_batch(
        [shingler(s or "") for s in t.column(text_col).to_pylist()], num_perm)
    buckets = band_buckets_batch(sigs, n_bands)
    return pa.table({"doc": pa.array(np.repeat(ids, n_bands), pa.int64()),
                     "bucket": pa.array(buckets.reshape(-1), pa.int64())})


def md5_digests(texts: "pa.Array | pa.ChunkedArray") -> list[bytes]:
    """The exact-dedup content key: each text's 16-byte md5 (null hashes
    as "")."""
    return [hashlib.md5((v or "").encode("utf-8")).digest()
            for v in texts.to_pylist()]


def add_md5(ds: "ray.data.Dataset", col: str, out: str = "h") -> "ray.data.Dataset":
    """Content hash column (md5 hex — intentionally matches SQL md5())."""

    def fn(t: pa.Table) -> pa.Table:
        hs = [d.hex() for d in md5_digests(t.column(col))]
        return t.append_column(out, pa.array(hs, pa.string()))

    return ds.map_batches(fn, batch_format="pyarrow")


def exact_dedup_groups(
    ds: "ray.data.Dataset", text_col: str, id_col: str
) -> "ray.data.Dataset":
    """hash-partitioned exact dedup: one row per distinct content with the
    kept (min) id and the duplicate count. groupby on the 32-char hash, never
    on the full text, so shuffle rows stay narrow."""
    from ..stages.canonicalize import grouped_aggregate

    hashed = add_md5(ds, text_col).select_columns(["h", id_col])
    # group count == distinct-content count (corpus-scale) → bucketed plan
    return grouped_aggregate(
        hashed, ["h"],
        Min(id_col, alias_name="keep_id"), Count(alias_name="n_dups"),
    )


def exact_dedup_survivors(
    ds: "ray.data.Dataset", text_col: str, id_col: str
) -> "ray.data.Dataset":
    """Exact dedup in ONE exchange: the rows of ``ds`` whose id is the min
    id among the rows with the same content md5 (null text hashes as "",
    as in :func:`exact_dedup_groups`). Rows ship whole, bucketed by their
    md5 % P; each bucket keeps its min-id row per full 16-byte digest, so
    no id table is built and joined back. Equals exact_dedup_groups'
    ``keep_id`` semi-joined to ``ds`` when ids are unique (with a
    repeated id the semi-join would keep every row carrying it)."""
    from ..stages.canonicalize import _compact_blocks

    P = _compact_blocks()

    def add_key(t: pa.Table) -> pa.Table:
        digests = md5_digests(t.column(text_col))
        head = np.frombuffer(b"".join(digests), np.uint8).reshape(-1, 16)[:, :8]
        b = np.ascontiguousarray(head).view(">u8").ravel() % np.uint64(P)
        return t.append_column("__h", pa.array(digests, pa.binary())).append_column(
            "__b", pa.array(b.astype(np.int64), pa.int64()))

    def keep_min(g: pa.Table) -> pa.Table:
        g = g.take(pc.sort_indices(g, [("__h", "ascending"), (id_col, "ascending")]))
        h = g.column("__h").combine_chunks()
        first = np.ones(g.num_rows, bool)
        if g.num_rows > 1:
            first[1:] = pc.not_equal(h[1:], h[:-1]).to_numpy(zero_copy_only=False)
        return g.filter(pa.array(first)).drop_columns(["__h", "__b"])

    # the identity re-batch coalesces the per-group output blocks without a
    # shuffle, as hash_join's compact_output does: every consumer of the
    # survivors pays a task per block
    return (ds.map_batches(add_key, batch_format="pyarrow")
            .groupby("__b").map_groups(keep_min, batch_format="pyarrow")
            .map_batches(lambda t: t, batch_format="pyarrow", batch_size=32768))


def with_simhash(
    ds: "ray.data.Dataset", text_col: str, id_col: str, out: str = "simhash"
) -> "ray.data.Dataset":
    """64-bit SimHash per document (sign-masked to int63 for Arrow int64)."""

    def fn(t: pa.Table) -> pa.Table:
        texts = t.column(text_col).to_pylist()
        hs = [
            simhash64([w.lower() for w in (txt or "").split()]) & 0x7FFFFFFFFFFFFFFF
            for txt in texts
        ]
        return pa.table(
            {id_col: t.column(id_col), out: pa.array(hs, pa.int64())}
        )

    return ds.map_batches(fn, batch_format="pyarrow")


def _pair_texts_joined(
    cands: "ray.data.Dataset",
    docs: "ray.data.Dataset",
    id_col: str,
    text_col: str,
) -> "ray.data.Dataset":
    """At-scale text attach for a candidate-pair table: (id_a, id_b) →
    (id_a, id_b, text_a, text_b) via a Bloom semi-join prefilter (no false
    negatives — only candidate docs' texts leave the corpus scan) and two
    partitioned hash joins. Shared by the LSH and exact set-similarity
    verifiers; never materializes any text on the driver."""
    import ray as _ray

    from .bloom import build_bloom, semi_join_prefilter
    from ..stages.joins import hash_join

    cand_ids = cands.map_batches(
        lambda t: pa.table(
            {"cid": pa.concat_arrays(
                [pc.cast(t.column("id_a"), pa.int64()).combine_chunks(),
                 pc.cast(t.column("id_b"), pa.int64()).combine_chunks()])}
        ),
        batch_format="pyarrow",
    )
    bloom_ref = _ray.put(build_bloom(cand_ids, "cid"))
    docs_f = semi_join_prefilter(
        docs.select_columns([id_col, text_col]), id_col, bloom_ref
    )
    ta = docs_f.map_batches(
        lambda t: pa.table({"id_a": pc.cast(t.column(id_col), pa.int64()),
                            "text_a": t.column(text_col)}),
        batch_format="pyarrow",
    )
    tb = docs_f.map_batches(
        lambda t: pa.table({"id_b": pc.cast(t.column(id_col), pa.int64()),
                            "text_b": t.column(text_col)}),
        batch_format="pyarrow",
    )
    return hash_join(hash_join(cands, ta, on=("id_a",)), tb, on=("id_b",))


def lsh_near_dup_pairs(
    ds: "ray.data.Dataset",
    text_col: str,
    id_col: str,
    *,
    shingle: str = "word3",
    threshold: float = 0.8,
    n_bands: int = 16,
    num_perm: int = 64,
    bucket_cap: int = 64,
    broadcast_limit: int = 100_000,
    prior_bands: "ray.data.Dataset | None" = None,
    prior_docs: "ray.data.Dataset | None" = None,
    bands: "ray.data.Dataset | None" = None,
) -> "ray.data.Dataset":
    """MinHash-LSH near-duplicate candidate pairs, Jaccard-verified.

    shingle→minhash→band→bucket-groupby→verify, the canonical near-dup plan
    (same machinery as entity canonicalization, stages/canonicalize.py).
    Oversized buckets emit a sorted chain (O(n), connectivity-preserving)
    instead of O(n²) pairs — the explicit skew cap.
    Output: (id_a, id_b, jaccard, jaccard_ppm) with id_a < id_b, deduped
    across bands; ``jaccard_ppm = (|∩| * 10^6) // |∪|`` is exact integer
    arithmetic so the DuckDB oracle can hash-match it (no float rounding).
    ``id_col`` must be integer ids < 2^32 (the pair-dedup shuffle packs a
    pair into one uint64 key — pre-map wider id spaces first). A wider id
    fails the plan when it executes: pack_pairs raises in a Ray task, so
    the caller gets Ray's task error whose message carries ``ValueError:
    node ids exceed 32 bits``, not a bare ``ValueError``.
    The whole plan — md5 base hash, uint64 permutations, FNV band polynomial,
    bucket cap with chain fallback, exact-Jaccard verify — is replicated in
    ANSI SQL by ``oracle_sql()['minhash_neardup' / 'ngram_jaccard_neardup']``.

    ``prior_bands`` (doc, bucket) folds in the band rows of an already
    deduplicated FROZEN corpus: they join the blocking as frozen rows, pairs
    of two frozen docs are never emitted (they were decided when that
    corpus was built), and verify fetches texts from ``ds ∪ prior_docs``
    (id_col, text_col) — the incremental update's near-dup step.

    ``bands`` is ``ds``'s own (doc, bucket) rows, already computed by
    :func:`band_rows` with the same shingle/num_perm/n_bands (a caller that
    also writes them reuses one MinHash pass); ``None`` computes them from
    the text.
    """
    from ..stages.canonicalize import _compact_blocks

    shingler = SHINGLERS[shingle]

    # Phase 1 — band explode ships (bucket, doc) ONLY: 16 bytes per band row.
    # Replicating the document text into every band row amplifies the shuffle
    # by n_bands × corpus text bytes — the one true scale-killer at 100 TB —
    # so texts are re-joined for candidate pairs only (phase 3).
    # Phase 2 — in-bucket candidate generation (ids only; no verification
    # yet). Many buckets per Ray group (bucket % P): map_groups pays ~80 μs
    # per group, so one group per bucket would dominate. Pairs leave packed
    # into ONE uint64 key (ids < 2^32 — pack_pairs contract), so the
    # cross-band dedup shuffle is a single-int-column groupby: no synthetic
    # string keys (measured 8 s → ~2 s on 274k pairs at sf0.1).
    P = _compact_blocks()

    def add_part(frozen: bool | None):
        def fn(t: pa.Table) -> pa.Table:
            bucket = pc.cast(t.column("bucket"), pa.int64())
            cols = {"doc": pc.cast(t.column("doc"), pa.int64()), "bucket": bucket,
                    "__part": pa.array(bucket.to_numpy() % P, pa.int64())}
            if frozen is not None:  # tag for bucket_pair_keys' frozen filter
                cols["frozen"] = pa.array(np.full(t.num_rows, frozen))
            return pa.table(cols)
        return fn

    docs = ds.select_columns([id_col, text_col])
    if bands is None:
        bands = docs.map_batches(
            lambda t: band_rows(t, id_col, text_col, shingle=shingle,
                                num_perm=num_perm, n_bands=n_bands),
            batch_format="pyarrow",
        )
    rows = bands.map_batches(add_part(None if prior_bands is None else False),
                             batch_format="pyarrow")
    if prior_bands is not None:
        rows = rows.union(prior_bands.map_batches(add_part(True),
                                                  batch_format="pyarrow"))
        docs = docs.union(prior_docs.select_columns([id_col, text_col]))
    cands_raw = rows.groupby("__part").map_groups(
        lambda g: bucket_pair_keys(g, bucket_cap), batch_format="pyarrow")

    from ..stages.canonicalize import grouped_aggregate as _ga

    cands = (
        _ga(cands_raw, ["k"], Count(alias_name="_nb"))
        .map_batches(unpack_pair_table, batch_format="pyarrow")
        .materialize()
    )
    n_cands = cands.count()
    if n_cands == 0:
        import ray.data as _rd

        return _rd.from_arrow(
            pa.table({"id_a": pa.array([], pa.int64()), "id_b": pa.array([], pa.int64()),
                      "jaccard": pa.array([], pa.float64()),
                      "jaccard_ppm": pa.array([], pa.int64())})
        )

    # Phase 3 — texts for CANDIDATE docs only. Two physical plans, chosen by
    # candidate volume (the S7b broadcast-vs-hash-join switch):
    #   small: broadcast the candidate id set, collect candidate docs' texts
    #          once (bounded by the candidate count, not the corpus), verify
    #          map-side against the broadcast text map — 3 cheap executions;
    #   large: bloom semi-join prefilter (no false negatives) + partitioned
    #          hash joins pair×text — never materializes texts on the driver.
    # Either way the text traffic is proportional to the DUP SET, not
    # n_bands × corpus.
    import ray as _ray

    # The broadcast-vs-join gate is about DISTINCT DOC memory, not pair
    # count: a dense candidate graph (word-1 shingles on a small vocabulary)
    # can have 10× more pairs than docs, and the broadcast text map is
    # bounded by the doc count. If pairs exceed the limit, re-gate on the
    # distinct-doc count before falling back to the heavy two-join plan.
    use_broadcast = n_cands <= broadcast_limit
    if not use_broadcast:
        cand_ids = cands.map_batches(
            lambda t: pa.table(
                {"cid": pc.unique(pa.concat_arrays(
                    [pc.cast(t.column("id_a"), pa.int64()).combine_chunks(),
                     pc.cast(t.column("id_b"), pa.int64()).combine_chunks()]))}
            ),
            batch_format="pyarrow",
        )
        n_cand_docs = _ga(cand_ids, ["cid"], Count(alias_name="_n")).count()
        use_broadcast = n_cand_docs <= broadcast_limit

    def _verify_row(ia, ib, txa, txb, a, b, jc, ppm, memo):
        # memoize per-doc shingle sets across the batch's pairs: a doc in k
        # candidate pairs is shingled once, not k times (word-1 shingles on a
        # small vocabulary produce dense candidate graphs where re-shingling
        # dominated the verify stage)
        sa = memo.get(ia)
        if sa is None:
            sa = memo[ia] = set(shingler(txa or ""))
        sb = memo.get(ib)
        if sb is None:
            sb = memo[ib] = set(shingler(txb or ""))
        inter = len(sa & sb)
        union = len(sa) + len(sb) - inter
        jv = jaccard(sa, sb)
        if jv >= threshold:
            a.append(int(ia))
            b.append(int(ib))
            jc.append(round(jv, 6))
            ppm.append((inter * 1_000_000) // union if union else 1_000_000)

    def _pairs_df(a, b, jc, ppm) -> pd.DataFrame:
        return pd.DataFrame(
            {"id_a": pd.Series(a, dtype="int64"), "id_b": pd.Series(b, dtype="int64"),
             "jaccard": pd.Series(jc, dtype="float64"),
             "jaccard_ppm": pd.Series(ppm, dtype="int64")}
        )

    if use_broadcast:
        from ..stages.materialize import collect_table

        cid_set = set()
        for r in collect_table(cands).to_pylist():
            cid_set.add(int(r["id_a"]))
            cid_set.add(int(r["id_b"]))
        idref = _ray.put(cid_set)

        def pick_texts(t: pa.Table) -> pa.Table:
            ids_in = ray.get(idref) if isinstance(idref, _ray.ObjectRef) else idref
            mask = [int(v) in ids_in for v in t.column(id_col).to_pylist()]
            out = t.filter(pa.array(mask, pa.bool_()))
            return pa.table({"cid": pc.cast(out.column(id_col), pa.int64()),
                             "txt": out.column(text_col)})

        text_map = {
            int(r["cid"]): r["txt"]
            for r in collect_table(
                docs.map_batches(pick_texts, batch_format="pyarrow")).to_pylist()
        }
        tref = _ray.put(text_map)

        def verify_bc(df: pd.DataFrame) -> pd.DataFrame:
            tm = ray.get(tref) if isinstance(tref, _ray.ObjectRef) else tref
            a, b, jc, ppm = [], [], [], []
            memo: dict = {}
            for ia, ib in zip(df["id_a"], df["id_b"]):
                _verify_row(ia, ib, tm.get(int(ia)), tm.get(int(ib)),
                            a, b, jc, ppm, memo)
            return _pairs_df(a, b, jc, ppm)

        return cands.map_batches(verify_bc, batch_format="pandas")

    joined = _pair_texts_joined(cands, docs, id_col, text_col)

    # Phase 4 — exact Jaccard verification on the candidate pairs (identical
    # semantics to the in-bucket verify of the text-shuffling plan)
    def verify(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty or "text_a" not in df.columns:
            return _pairs_df([], [], [], [])
        a, b, jc, ppm = [], [], [], []
        memo: dict = {}
        for ia, ib, txa, txb in zip(df["id_a"], df["id_b"], df["text_a"], df["text_b"]):
            _verify_row(ia, ib, txa, txb, a, b, jc, ppm, memo)
        return _pairs_df(a, b, jc, ppm)

    return joined.map_batches(verify, batch_format="pandas")


def setsim_join_pairs(
    ds: "ray.data.Dataset",
    text_col: str,
    id_col: str,
    *,
    threshold_num: int = 3,
    threshold_den: int = 5,
    shingle: str = "word3",
    broadcast_limit: int = 100_000,
) -> "ray.data.Dataset":
    """EXACT set-similarity self-join: all distinct id pairs whose shingle
    sets have Jaccard ≥ threshold_num/threshold_den — the deterministic
    complement to the probabilistic MinHash-LSH family (no band misses).

    Blocking is prefix filtering (Chaudhuri et al. ICDE'06; PPJoin, Xiao et
    al. WWW'08): under ANY global total order of shingles, sort each doc's
    distinct shingles and emit the first ``p = n − ⌈t·n⌉ + 1`` as block
    keys; for any pair with J ≥ t, the order-smallest COMMON shingle
    provably lies inside BOTH prefixes, so block co-occurrence is a lossless
    candidate generator and the SQL oracle can be the plain all-pairs exact
    Jaccard join — no plan replication needed. The total order used is
    md5(shingle): computable row-locally with ZERO global state (a
    df-ascending order would shrink candidate counts by putting RARE
    shingles in prefixes, at the cost of broadcasting a vocabulary-sized
    ordering table — the documented at-scale tuning knob). No bucket cap:
    the lossless contract forbids dropping pairs; prefix buckets stay small
    when shingles are discriminative (word-3 grams), which is also the
    regime where this operator is the right choice over LSH.

    The verify threshold is the exact rational ``ni·den ≥ union·num`` —
    integer arithmetic end to end, bit-identical to the SQL oracle. Output:
    (id_a, id_b, jaccard_ppm), id_a < id_b, ids must be < 2^32 (pair-key
    packing, as lsh_near_dup_pairs). Docs with EMPTY shingle sets are
    excluded (Jaccard undefined), matching SQL's empty unnest.

    Verify text fetch is size-gated like lsh_near_dup_pairs: candidate-doc
    ids ≤ ``broadcast_limit`` → broadcast id set + map-side text map; above
    it → Bloom semi-join prefilter + two partitioned hash joins
    (:func:`_pair_texts_joined`) so no text ever reaches the driver. Both
    plans produce identical output (tested with broadcast_limit=0).
    """
    import ray as _ray

    from .textfns import md5_hash64

    shingler = SHINGLERS[shingle]

    def prefixes(t: pa.Table) -> pa.Table:
        import numpy as np

        ids = t.column(id_col).to_pylist()
        texts = t.column(text_col).to_pylist()
        hcache: dict[str, int] = {}
        o_b, o_id = [], []
        for i, txt in zip(ids, texts):
            sh = set(shingler(txt or ""))
            n = len(sh)
            if n == 0:
                continue
            p = n - ((threshold_num * n + threshold_den - 1) // threshold_den) + 1
            keys = sorted(
                hcache[s] if s in hcache else hcache.setdefault(s, md5_hash64(s))
                for s in sh
            )[:p]
            o_b.extend(keys)
            o_id.extend([int(i)] * p)
        return pa.table(
            {"bucket": pa.array(np.asarray(o_b, dtype=np.uint64)
                                .astype(np.int64), pa.int64()),
             "doc": pa.array(o_id, pa.int64())}
        )

    from ..stages.canonicalize import _compact_blocks

    P = _compact_blocks()

    def add_part(t: pa.Table) -> pa.Table:
        part = t.column("bucket").to_numpy() % P
        return t.append_column("__part", pa.array(part, pa.int64()))

    # no bucket cap: the lossless contract forbids dropping pairs
    cands = (
        ds.select_columns([id_col, text_col])
        .map_batches(prefixes, batch_format="pyarrow")
        .map_batches(add_part, batch_format="pyarrow")
        .groupby("__part")
        .map_groups(bucket_pair_keys, batch_format="pyarrow")
        .groupby("k")
        .aggregate(Count(alias_name="_nb"))
        .map_batches(unpack_pair_table, batch_format="pyarrow")
        .materialize()
    )

    def _empty_out() -> pa.Table:
        return pa.table({"id_a": pa.array([], pa.int64()),
                         "id_b": pa.array([], pa.int64()),
                         "jaccard_ppm": pa.array([], pa.int64())})

    if cands.count() == 0:
        import ray.data as _rd

        return _rd.from_arrow(_empty_out())

    def _verify_pair(ia, ib, txa, txb, memo, a, b, ppm):
        sa = memo.get(ia)
        if sa is None:
            sa = memo[ia] = set(shingler(txa or ""))
        sb = memo.get(ib)
        if sb is None:
            sb = memo[ib] = set(shingler(txb or ""))
        ni = len(sa & sb)
        union = len(sa) + len(sb) - ni
        if union and ni * threshold_den >= union * threshold_num:
            a.append(int(ia))
            b.append(int(ib))
            ppm.append((ni * 1_000_000) // union)

    def _ppm_df(a, b, ppm) -> pd.DataFrame:
        return pd.DataFrame(
            {"id_a": pd.Series(a, dtype="int64"),
             "id_b": pd.Series(b, dtype="int64"),
             "jaccard_ppm": pd.Series(ppm, dtype="int64")}
        )

    cid_set = set()
    for b in cands.iter_batches(batch_size=65536, batch_format="pyarrow"):
        cid_set.update(b.column("id_a").to_pylist())
        cid_set.update(b.column("id_b").to_pylist())
        if len(cid_set) > broadcast_limit:
            break
    if len(cid_set) > broadcast_limit:
        # at-scale verify: the same Bloom-prefilter + two partitioned
        # hash-join text attach as lsh_near_dup_pairs — texts ride the
        # partitioned path, nothing corpus-sized touches the driver
        joined = _pair_texts_joined(cands, ds, id_col, text_col)

        def verify_joined(df: pd.DataFrame) -> pd.DataFrame:
            if df.empty or "text_a" not in df.columns:
                return _ppm_df([], [], [])
            memo: dict = {}
            a, b, ppm = [], [], []
            for ia, ib, txa, txb in zip(df["id_a"], df["id_b"],
                                        df["text_a"], df["text_b"]):
                _verify_pair(ia, ib, txa, txb, memo, a, b, ppm)
            return _ppm_df(a, b, ppm)

        return joined.map_batches(verify_joined, batch_format="pandas")
    idref = _ray.put(cid_set)

    def pick_texts(t: pa.Table) -> pa.Table:
        ids_in = ray.get(idref)
        mask = [int(v) in ids_in for v in t.column(id_col).to_pylist()]
        out = t.filter(pa.array(mask, pa.bool_()))
        return pa.table({"cid": pc.cast(out.column(id_col), pa.int64()),
                         "txt": out.column(text_col)})

    text_map = {
        int(r["cid"]): r["txt"]
        for b in ds.select_columns([id_col, text_col])
        .map_batches(pick_texts, batch_format="pyarrow")
        .iter_batches(batch_size=65536, batch_format="pyarrow")
        for r in b.to_pylist()
    }
    tref = _ray.put(text_map)

    def verify(df: pd.DataFrame) -> pd.DataFrame:
        tm = ray.get(tref)
        memo: dict = {}
        a, b, ppm = [], [], []
        for ia, ib in zip(df["id_a"], df["id_b"]):
            _verify_pair(ia, ib, tm.get(int(ia)), tm.get(int(ib)),
                         memo, a, b, ppm)
        return _ppm_df(a, b, ppm)

    return cands.map_batches(verify, batch_format="pandas")


def levenshtein(a: str, b: str) -> int:
    """Classic unit-cost Wagner–Fischer — matches SQL ``levenshtein()``."""
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def fuzzy_name_pairs(
    ds: "ray.data.Dataset",
    col: str,
    *,
    max_dist: int = 1,
    bucket_cap: int = 256,
) -> "ray.data.Dataset":
    """DISTINCT value pairs within Levenshtein distance ``max_dist`` (= 1):
    SymSpell-style deletion-neighborhood blocking — each name emits itself plus
    every single-deletion variant as block keys; any two strings at distance
    ≤ 1 share at least one key, so the BLOCKING is exhaustive (no false
    negatives). Blocks larger than ``bucket_cap`` degrade to a sorted
    connectivity-preserving chain (the same skew cap as the LSH family), so
    on skewed data the output is connectivity-complete rather than
    pair-complete — the SQL oracle replicates the cap, so parity holds
    either way. Pairs are deduped across keys before the exact edit-distance
    verify. Shuffle volume = O(rows × name length) narrow key rows, never
    O(pairs). Replicated in SQL by ``oracle_sql()['fuzzy_part_names']``.

    Typo-tolerant entity/alias matching at corpus scale — the fuzzy analog of
    the reference's exact alias lookup (src/augmentation.py:92-95).
    """
    from ..stages.canonicalize import _compact_blocks, grouped_aggregate

    distinct = grouped_aggregate(
        ds.map_batches(
            lambda t: pa.table({"name": pc.unique(t.column(col))}),
            batch_format="pyarrow",
        ),
        ["name"],
        Count(alias_name="_n"),
    ).select_columns(["name"])

    def explode_keys(t: pa.Table) -> pa.Table:
        names, keys = [], []
        for s in t.column("name").to_pylist():
            s = s or ""
            names.append(s)
            keys.append(s)
            for i in range(len(s)):
                names.append(s)
                keys.append(s[:i] + s[i + 1:])
        return pa.table({"key": pa.array(keys, pa.string()),
                         "name": pa.array(names, pa.string())})

    P = _compact_blocks()

    def add_part(t: pa.Table) -> pa.Table:
        import zlib

        part = [zlib.crc32(k.encode()) % P for k in t.column("key").to_pylist()]
        return t.append_column("__part", pa.array(part, pa.int64()))

    def part_cands(g: pa.Table) -> pa.Table:
        i, j = bucket_pairs(g.column("key"), g.column("name"), bucket_cap)
        return pa.table({"name_a": g.column("name").take(i),
                         "name_b": g.column("name").take(j)})

    cands = grouped_aggregate(
        distinct.map_batches(explode_keys, batch_format="pyarrow")
        .map_batches(add_part, batch_format="pyarrow")
        .groupby("__part")
        .map_groups(part_cands, batch_format="pyarrow"),
        ["name_a", "name_b"],
        Count(alias_name="_nk"),
    )

    def verify(t: pa.Table) -> pa.Table:
        na, nb, dd = [], [], []
        for x, y in zip(t.column("name_a").to_pylist(), t.column("name_b").to_pylist()):
            d = levenshtein(x, y)
            if d <= max_dist:
                na.append(x)
                nb.append(y)
                dd.append(d)
        return pa.table({"name_a": pa.array(na, pa.string()),
                         "name_b": pa.array(nb, pa.string()),
                         "dist": pa.array(dd, pa.int64())})

    return cands.map_batches(verify, batch_format="pyarrow")


def near_dup_keep_ids(pairs_ds: "ray.data.Dataset", all_ids_ds: "ray.data.Dataset",
                      id_col: str) -> "ray.data.Dataset":
    """Resolve near-dup pairs to keep/drop decisions via connected components:
    every row of ``all_ids_ds`` gains ``keep_id``, its component's
    representative (min id; its own id if it is in no pair), so keep =
    (id == keep_id). Ids go through CC as they are (it labels integer
    nodes); ``keep_id`` has ``id_col``'s type."""
    from ..stages.canonicalize import attach_components, connected_components

    labels = connected_components(pairs_ds.map_batches(
        lambda t: pa.table({"a": pc.cast(t.column("id_a"), pa.int64()),
                            "b": pc.cast(t.column("id_b"), pa.int64())}),
        batch_format="pyarrow"))
    return attach_components(all_ids_ds, labels, id_col).map_batches(
        lambda t: t.rename_columns(["keep_id" if c == "comp" else c for c in t.column_names]),
        batch_format="pyarrow")


_ALNUM_RE = None  # lazy: shared [a-z0-9]+ tokenization of the curation family


def _alnum():
    global _ALNUM_RE
    if _ALNUM_RE is None:
        import re

        _ALNUM_RE = re.compile(r"[a-z0-9]+")
    return _ALNUM_RE


_MAXD = (1 << 32) - 1  # packed keep-best key: (rank << 32) | (2³²−1 − id)
_FROZEN_RANK = (1 << 31) - 1  # rank of frozen docs: above every token count


def _packed_rank(t: pa.Table, id_col: str, rank: np.ndarray) -> pa.Table:
    """(id_col, key) with ``key = (rank << 32) | (2³²−1 − id)``, so the max
    key has the max rank, then the min id. Raises ``ValueError`` on ids
    outside 32 bits; it runs in a Ray task, so the driver sees Ray's task
    error whose message carries ``ValueError: id/ntok exceed the
    packed-key range``."""
    d = pc.cast(t.column(id_col), pa.int64()).to_numpy(zero_copy_only=False)
    if len(d) and (int(d.min()) < 0 or int(d.max()) > _MAXD):
        raise ValueError("id/ntok exceed the packed-key range")
    return pa.table({id_col: pa.array(d, pa.int64()),
                     "key": pa.array((rank << np.int64(32)) | (np.int64(_MAXD) - d),
                                     pa.int64())})


def near_dup_keep_best_ids(
    pairs_ds: "ray.data.Dataset",
    docs_ds: "ray.data.Dataset",
    id_col: str,
    text_col: str,
    frozen: "ray.data.Dataset | None" = None,
) -> "ray.data.Dataset":
    """Near-dup keep decision with a QUALITY-WEIGHTED representative: within
    each pair-graph component the doc with the MOST tokens survives (tie →
    min id) — the CCNet/RefinedWeb keep-the-longest-version convention.
    Every doc carries one packed-int64 rank (:func:`_packed_rank`) and
    gets its component label in the one left join of
    :func:`near_dup_keep_ids`; one sort-shuffle on comp % P co-locates each
    component, whose argmax is broadcast back to its members in a
    vectorized pass. Output: (id_col, keep_id) for EVERY doc of
    ``docs_ds``.

    ``frozen`` (id_col) lists the docs of an already-curated corpus that
    ``pairs_ds`` may reach. They join the components at a rank above every
    doc of ``docs_ds``: a component that touches the frozen corpus keeps a
    frozen doc and drops all of its new members. Frozen docs leave no
    output row.

    Ids must fit 32 bits and token counts 31 (the packed key): a wider one
    fails the plan when it executes, with Ray's task error carrying
    ``ValueError: id/ntok exceed the packed-key range``, not a bare
    ``ValueError``."""
    from ..stages.canonicalize import _compact_blocks

    P = _compact_blocks()

    def tok_rank(t: pa.Table) -> pa.Table:
        rx = _alnum()
        n = [len(rx.findall((s or "").lower())) for s in t.column(text_col).to_pylist()]
        ntok = np.array(n, dtype=np.int64)
        if len(ntok) and int(ntok.max()) >= _FROZEN_RANK:
            raise ValueError("id/ntok exceed the packed-key range")
        return _packed_rank(t, id_col, ntok)

    ranks = docs_ds.map_batches(tok_rank, batch_format="pyarrow")
    if frozen is not None:
        ranks = ranks.union(frozen.map_batches(
            lambda t: _packed_rank(t, id_col, np.full(t.num_rows, _FROZEN_RANK, np.int64)),
            batch_format="pyarrow",
        ))

    def add_bucket(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "keep_id" not in t.column_names:
            t = pa.table({c: pa.array([], pa.int64()) for c in (id_col, "keep_id", "key")})
        comp = pc.cast(t.column("keep_id"), pa.int64())
        return pa.table({id_col: pc.cast(t.column(id_col), pa.int64()), "comp": comp,
                         "key": pc.cast(t.column("key"), pa.int64()),
                         "__b": pa.array(comp.to_numpy() % P, pa.int64())})

    def keep_best(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "keep_id": pa.array([], pa.int64())})
        d, comp, key = (g.column(c).to_numpy() for c in (id_col, "comp", "key"))
        order = np.lexsort((-key, comp))  # per comp, its max key first
        sc = comp[order]
        start = np.maximum.accumulate(np.where(
            np.concatenate([[True], sc[1:] != sc[:-1]]), np.arange(len(sc)), 0))
        keep = np.empty(len(d), np.int64)
        keep[order] = np.int64(_MAXD) - (key[order][start] & np.int64(_MAXD))
        new = (key >> 32) < _FROZEN_RANK
        return pa.table({id_col: pa.array(d[new], pa.int64()),
                         "keep_id": pa.array(keep[new], pa.int64())})

    members = near_dup_keep_ids(pairs_ds, ranks, id_col)
    return (members.map_batches(add_bucket, batch_format="pyarrow")
            .groupby("__b").map_groups(keep_best, batch_format="pyarrow"))


_SPAN_SCHEMA = pa.schema([("doc", pa.int64()), ("kind", pa.string()),
                          ("text", pa.string()), ("h", pa.int64())])


def span_tagged_rows(
    ds: "ray.data.Dataset",
    id_col: str = "doc_id",
    text_col: str = "text",
    *,
    n: int = 8,
    num_parts: int | None = None,
) -> "ray.data.Dataset":
    """The input of :func:`span_rewrite`: ``ds``'s text rows (kind "t")
    unioned with its SHARED-gram rows (kind "h": one (doc, h) row per
    distinct word-``n``-gram md5 hash ``h`` of the doc that at least one
    other doc also holds), all keyed by ``doc``. Distinct gram hashes ship
    as 16 B (h, doc) rows hash-partitioned on h, so one task sees all
    holders of a gram; traffic ∝ duplicated content for the shared re-emit.
    Grouping the result by ``doc`` co-locates each text with its
    shared-gram set for a row-local rewrite."""
    from ..stages.canonicalize import _compact_blocks
    from .textfns import md5_hash64

    P = int(num_parts or _compact_blocks())

    def grams(t: pa.Table) -> pa.Table:
        rx = _alnum()
        ids = pc.cast(t.column(id_col), pa.int64()).to_pylist()
        hcache: dict[str, int] = {}
        o_h, o_d = [], []
        for did, s in zip(ids, t.column(text_col).to_pylist()):
            toks = rx.findall((s or "").lower())
            ngs = {" ".join(toks[i:i + n]) for i in range(len(toks) - n + 1)}
            o_h.extend(
                hcache[g] if g in hcache else hcache.setdefault(g, md5_hash64(g))
                for g in ngs
            )
            o_d.extend([did] * len(ngs))
        h = np.asarray(o_h, dtype=np.uint64).astype(np.int64)
        return pa.table({"h": pa.array(h, pa.int64()),
                         "doc": pa.array(o_d, pa.int64()),
                         "__part": pa.array(h % P, pa.int64())})

    def shared_rows(g: pa.Table) -> pa.Table:
        h = g.column("h").to_numpy()
        _, inv, holders = np.unique(h, return_inverse=True, return_counts=True)
        out = g.filter(pa.array(holders[inv] >= 2))  # distinct (h, doc) rows
        k = out.num_rows
        return pa.table([out.column("doc"), pa.array(["h"] * k, pa.string()),
                         pa.nulls(k, pa.string()), out.column("h")],
                        schema=_SPAN_SCHEMA)

    shared = (
        ds.map_batches(grams, batch_format="pyarrow")
        .groupby("__part")
        .map_groups(shared_rows, batch_format="pyarrow")
    )

    def text_rows(t: pa.Table) -> pa.Table:
        return pa.table(
            [pc.cast(t.column(id_col), pa.int64()),
             pa.array(["t"] * t.num_rows, pa.string()),
             pc.cast(t.column(text_col), pa.string()),
             pa.array(np.zeros(t.num_rows, np.int64), pa.int64())],
            schema=_SPAN_SCHEMA)

    return ds.map_batches(text_rows, batch_format="pyarrow").union(shared)


def span_rewrite(t: pa.Table, id_col: str = "doc_id", *, n: int = 8) -> pa.Table:
    """Row-local rewrite of :func:`span_tagged_rows` output holding ALL rows
    of its docs: every token covered by a shared word-``n``-gram is dropped.
    Output (id_col, n_tokens, n_removed, kept_text) per doc with a text row
    and ≥ 1 token, in doc order."""
    from .textfns import md5_hash64

    is_t = pc.equal(t.column("kind"), "t")
    texts = t.filter(is_t)
    texts = texts.take(pc.sort_indices(texts.column("doc")))
    sh = t.filter(pc.invert(is_t))
    sd, shv = sh.column("doc").to_numpy(), sh.column("h").to_numpy()
    order = np.argsort(sd, kind="stable")
    sd, shv = sd[order], shv[order]
    td = texts.column("doc").to_numpy()
    lo, hi = np.searchsorted(sd, td, "left"), np.searchsorted(sd, td, "right")

    rx = _alnum()
    hcache: dict[str, int] = {}
    o_doc, o_nt, o_nr, o_txt = [], [], [], []
    for doc, s, a, b in zip(texts.column("doc").to_pylist(),
                            texts.column("text").to_pylist(), lo, hi):
        toks = rx.findall((s or "").lower())
        nt = len(toks)
        if nt == 0:
            continue
        shared_h = set(shv[a:b].tolist())
        covered = np.zeros(nt, dtype=bool)
        if shared_h and nt >= n:
            for i in range(nt - n + 1):
                gstr = " ".join(toks[i:i + n])
                hv = hcache.get(gstr)
                if hv is None:
                    hv = hcache.setdefault(
                        gstr, int(np.uint64(md5_hash64(gstr)).astype(np.int64)))
                if hv in shared_h:
                    covered[i:i + n] = True
        o_doc.append(doc)
        o_nt.append(nt)
        o_nr.append(int(covered.sum()))
        o_txt.append(" ".join(t_ for t_, c in zip(toks, covered) if not c))
    return pa.table({id_col: pa.array(o_doc, pa.int64()),
                     "n_tokens": pa.array(o_nt, pa.int64()),
                     "n_removed": pa.array(o_nr, pa.int64()),
                     "kept_text": pa.array(o_txt, pa.string())})


def span_dedup_rewrite(
    ds: "ray.data.Dataset",
    id_col: str = "doc_id",
    text_col: str = "text",
    *,
    n: int = 8,
    num_parts: int | None = None,
) -> "ray.data.Dataset":
    """RefinedWeb-style exact-substring SPAN REMOVAL (the rewrite): every
    token covered by a word-``n``-gram that also occurs in ≥ 1 OTHER doc is
    dropped; docs re-emit with only kept tokens.

    Scale shape — two narrow shuffles, ONE text shuffle, no joins:
    :func:`span_tagged_rows`, then a shuffle on doc % P feeding
    :func:`span_rewrite`. (A partitioned write runs the rewrite as its
    ``finish`` step instead and saves the doc shuffle — pipelines/curation.)
    Output: (id_col, n_tokens, n_removed, kept_text) for docs with ≥ 1
    token."""
    from ..stages.canonicalize import _compact_blocks

    P = int(num_parts or _compact_blocks())

    def add_db(t: pa.Table) -> pa.Table:
        if "doc" not in t.column_names:
            t = _SPAN_SCHEMA.empty_table()
        d = pc.cast(t.column("doc"), pa.int64()).to_numpy(zero_copy_only=False)
        return t.append_column("__db", pa.array(d % P, pa.int64()))

    return (span_tagged_rows(ds, id_col, text_col, n=n, num_parts=P)
            .map_batches(add_db, batch_format="pyarrow")
            .groupby("__db")
            .map_groups(lambda g: span_rewrite(g, id_col, n=n),
                        batch_format="pyarrow"))
