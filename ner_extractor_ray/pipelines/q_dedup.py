"""Deduplication & entity-resolution query family (split from pipelines/queries.py — its module
docstring holds the catalogue conventions; the queries()/oracle_sql()
catalogue there re-exports every entry in the driver-stable order)."""

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

from ._qcommon import (
    _ALNUM, _gagg, _rp,
)



def q_exact_dedup(sf_dir: str):
    """D2 exact dedup by serialized content key (md5), keep-min-id + count."""
    from ..functions.dedup import exact_dedup_groups

    ds = _rp(sf_dir, "documents", ["doc_id", "text"])
    return exact_dedup_groups(ds, "text", "doc_id")


# --------------------------------------------------------------------------
# Training-data ops without a SQL equivalent (rows-only driver check)
# --------------------------------------------------------------------------

def _project_pairs(pairs):
    """(id_a, id_b, jaccard_ppm) — the exact-integer columns the DuckDB
    oracle replicates (the float jaccard stays internal)."""
    cols = ["id_a", "id_b", "jaccard_ppm"]

    def fn(t: pa.Table) -> pa.Table:
        if t.num_rows:
            return pa.table({c: pc.cast(t.column(c), pa.int64()) for c in cols})
        return pa.table({c: pa.array([], pa.int64()) for c in cols})

    return pairs.map_batches(fn, batch_format="pyarrow")


def q_minhash_neardup(sf_dir: str):
    from ..functions.dedup import lsh_near_dup_pairs

    ds = _rp(sf_dir, "documents", ["doc_id", "text"])
    return _project_pairs(
        lsh_near_dup_pairs(ds, "text", "doc_id", shingle="word3", threshold=0.8)
    )


def q_simhash(sf_dir: str):
    from ..functions.dedup import with_simhash

    return with_simhash(_rp(sf_dir, "documents", ["doc_id", "text"]), "text", "doc_id")


def q_ngram_jaccard_neardup(sf_dir: str):
    from ..functions.dedup import lsh_near_dup_pairs

    ds = _rp(sf_dir, "documents", ["doc_id", "text"])
    return _project_pairs(
        lsh_near_dup_pairs(ds, "text", "doc_id", shingle="word1", threshold=0.9)
    )


def q_setsim_neardup(sf_dir: str):
    """EXACT set-similarity self-join (Jaccard ≥ 3/5 over word-3 shingle
    sets) via hash-ordered prefix filtering — the deterministic complement
    to the MinHash family: blocking is provably lossless under any global
    shingle order, so the oracle is the plain all-pairs exact Jaccard SQL
    (functions/dedup.setsim_join_pairs)."""
    from ..functions.dedup import setsim_join_pairs

    return setsim_join_pairs(
        _rp(sf_dir, "documents", ["doc_id", "text"]), "text", "doc_id",
        threshold_num=3, threshold_den=5, shingle="word3",
    )


def q_paragraph_dedup(sf_dir: str):
    """Sub-document (paragraph-granular) exact dedup — the RefinedWeb/C4
    pass that removes boilerplate chunks repeated ACROSS documents while
    keeping the first occurrence. Paragraph := consecutive 10-token chunk
    (the fixture corpus has no newlines). Plan: flat-map docs → (chunk md5,
    packed keeper key) rows; ONE narrow groupby on the 32-char hash picks
    each content's global keeper (min (doc_id, idx)); per-doc totals and
    kept counts then meet through a side-tagged union + int-key groupby —
    no join, no text ever crosses a shuffle. Output: (doc_id, n_chunks,
    n_kept)."""
    import hashlib

    CH = 10
    KEY_BASE = 1_000_000  # keeper key = doc_id * BASE + chunk_idx
    ds = _rp(sf_dir, "documents", ["doc_id", "text"])

    def chunks(t: pa.Table) -> pa.Table:
        o_doc, o_key, o_h = [], [], []
        for did, s in zip(
            pc.cast(t.column("doc_id"), pa.int64()).to_pylist(),
            t.column("text").to_pylist(),
        ):
            ws = [w for w in re.split(r"\s+", s or "") if w]
            n_chunks = (len(ws) + CH - 1) // CH
            if n_chunks >= KEY_BASE:
                raise ValueError("document exceeds 10M tokens — widen KEY_BASE")
            for i in range(n_chunks):
                chunk = " ".join(ws[i * CH:(i + 1) * CH])
                o_doc.append(did)
                o_key.append(did * KEY_BASE + i)
                o_h.append(hashlib.md5(chunk.encode("utf-8")).hexdigest())
        return pa.table(
            {"doc_id": pa.array(o_doc, pa.int64()),
             "key": pa.array(o_key, pa.int64()),
             "h": pa.array(o_h, pa.string())}
        )

    chunked = ds.map_batches(chunks, batch_format="pyarrow")
    keepers = _gagg(chunked, "h", Min("key", alias_name="k"))

    def totals(t: pa.Table) -> pa.Table:
        df = pd.DataFrame({"doc_id": t.column("doc_id").to_pylist()})
        g = df.groupby("doc_id", as_index=False).size()
        return pa.table(
            {"doc_id": pa.array(g["doc_id"], pa.int64()),
             "n_chunks": pa.array(g["size"].astype("int64"), pa.int64()),
             "n_kept": pa.array(np.zeros(len(g), np.int64), pa.int64())}
        )

    def kept(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "k" not in t.column_names:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "n_chunks": pa.array([], pa.int64()),
                             "n_kept": pa.array([], pa.int64())})
        k = pc.cast(t.column("k"), pa.int64()).to_numpy()
        df = pd.DataFrame({"doc_id": k // KEY_BASE})
        g = df.groupby("doc_id", as_index=False).size()
        return pa.table(
            {"doc_id": pa.array(g["doc_id"], pa.int64()),
             "n_chunks": pa.array(np.zeros(len(g), np.int64), pa.int64()),
             "n_kept": pa.array(g["size"].astype("int64"), pa.int64())}
        )

    return _gagg(
        chunked.map_batches(totals, batch_format="pyarrow")
        .union(keepers.map_batches(kept, batch_format="pyarrow")),
        "doc_id",
        Sum("n_chunks", alias_name="n_chunks"),
        Sum("n_kept", alias_name="n_kept"),
    )


def q_embedding_neardup(sf_dir: str, *, bucket_cap: int = 1024):
    """Embedding-cosine near-dup: brute pairwise per IVF bucket.

    Scale discipline: ``n_centroids`` grows as √n (expected bucket size √n,
    pairwise work n·√n, never quadratic in the corpus), and a bucket that
    still exceeds ``bucket_cap`` falls back to a sorted CHAIN of consecutive
    comparisons (O(n), connectivity-preserving) — the same skew cap as the
    LSH dedup family. Buckets are grouped by COARSE hash partitions; exact
    buckets iterate in pandas inside (map_groups per-group overhead)."""
    from ..functions.similarity import ivf_assign, ivf_build_centroids
    from ..stages.canonicalize import _compact_blocks

    ds = _rp(sf_dir, "embeddings", ["vec_id", "embedding"])
    n = ds.count()
    n_centroids = max(8, min(4096, int(np.sqrt(max(n, 1)))))
    cent = ivf_build_centroids(ds, n_centroids=n_centroids, refine_rounds=1)
    assigned = ivf_assign(ds, cent)
    P = _compact_blocks()

    def add_part(t: pa.Table) -> pa.Table:
        b = pc.cast(t.column("ivf_bucket"), pa.int64()).to_numpy()
        return t.append_column("__part", pa.array(b % P, pa.int64()))

    def part_pairs(g: pd.DataFrame) -> pd.DataFrame:
        out_a, out_b = [], []
        for _, gb in g.groupby("ivf_bucket", sort=False):
            gb = gb.sort_values("vec_id")
            ids = gb["vec_id"].to_numpy()
            if len(ids) < 2:
                continue
            m = np.stack(gb["embedding"].to_numpy()).astype(np.float64)
            norms = np.linalg.norm(m, axis=1)
            norms[norms == 0] = 1.0
            if len(ids) <= bucket_cap:
                sims = (m @ m.T) / np.outer(norms, norms)
                ii, jj = np.where(np.triu(sims > 0.95, k=1))
            else:  # skew cap: consecutive sorted pairs only, O(n)
                mn = m / norms[:, None]
                s = (mn[:-1] * mn[1:]).sum(axis=1)
                ii = np.where(s > 0.95)[0]
                jj = ii + 1
            out_a.extend(ids[ii].astype(np.int64))
            out_b.extend(ids[jj].astype(np.int64))
        return pd.DataFrame(
            {"id_a": pd.Series(out_a, dtype="int64"),
             "id_b": pd.Series(out_b, dtype="int64")}
        )

    return (
        assigned.map_batches(add_part, batch_format="pyarrow")
        .groupby("__part")
        .map_groups(part_pairs, batch_format="pandas")
    )


def q_curation_pipeline(sf_dir: str):
    """The curation FLAGSHIP end-to-end (pipelines/curation.run_curation):
    quality gate → exact dedup (keep-min-id) → near-dup keep-LONGEST →
    exact-substring span removal, over the documents table. Every stage's
    plan is the one its standalone query uses; the SQL oracle composes the
    four stage oracles (quality rule, md5 window dedup, full banded-LSH +
    recursive-CC + ROW_NUMBER argmax, windowed-MAX span coverage) into one
    statement, so the WHOLE pipeline decision + rewrite is hash-checked.
    Output: (doc_id, n_tokens, n_removed, kept_text) for surviving docs."""
    from .curation import run_curation

    res = run_curation(
        _rp(sf_dir, "documents", ["doc_id", "text"]),
        min_tokens=5, max_punct_ratio=0.5, min_stopword_ratio=0.0,
        lsh_threshold=0.8, shingle="word3", span_n=_DUPNG_N,
    )
    return res["curated"]


def q_fuzzy_part_names(sf_dir: str):
    """Fuzzy self-match: distinct part-name pairs within edit distance 1 via
    SymSpell deletion-neighborhood blocking (functions/dedup.fuzzy_name_pairs)."""
    from ..functions.dedup import fuzzy_name_pairs

    return fuzzy_name_pairs(_rp(sf_dir, "part", ["p_name"]), "p_name")


def q_normalized_dedup(sf_dir: str):
    """C4-style exact dedup AFTER text normalization (lowercase + whitespace
    collapse + trim): the first dedup pass of every web-text pipeline. The
    normalization is row-local; downstream is the same 32-char-hash groupby
    as exact_dedup — full text never crosses the shuffle."""
    from ..functions.dedup import exact_dedup_groups

    ds = _rp(sf_dir, "documents", ["doc_id", "text"])

    def norm(t: pa.Table) -> pa.Table:
        texts = [
            re.sub(r"\s+", " ", (s or "").lower()).strip()
            for s in t.column("text").to_pylist()
        ]
        return pa.table(
            {"doc_id": pc.cast(t.column("doc_id"), pa.int64()),
             "text": pa.array(texts, pa.string())}
        )

    return exact_dedup_groups(ds.map_batches(norm, batch_format="pyarrow"),
                              "text", "doc_id")


_DECON_N = 8          # n-gram order for decontamination
_DECON_BENCH_IDS = 20  # docs with doc_id < this form the "benchmark" set


def q_decontamination(sf_dir: str):
    """Benchmark decontamination: flag corpus docs sharing ≥ 1 word-8-gram
    with a (deterministic, corpus-derived) eval set — the pass every
    training-data pipeline runs before a model ever sees the data. Output:
    (doc_id, n_overlap) with n_overlap = distinct shared 8-grams, only for
    contaminated docs.

    Scale shape: the eval side is tiny by definition — its distinct n-gram
    set is aggregated once and broadcast via ray.put; the corpus pass is
    row-local set intersection, no shuffle at all. (For a benchmark too big
    to broadcast, swap in the Bloom prefilter from functions/bloom.py.)"""
    ds = _rp(sf_dir, "documents", ["doc_id", "text"])

    def ngrams(s: str) -> set:
        toks = _ALNUM.findall((s or "").lower())
        return {" ".join(toks[i:i + _DECON_N])
                for i in range(len(toks) - _DECON_N + 1)}

    bench_tbls = (
        ds.map_batches(
            lambda t: t.filter(
                pc.less(pc.cast(t.column("doc_id"), pa.int64()), _DECON_BENCH_IDS)
            ),
            batch_format="pyarrow",
        )
        .map_batches(
            lambda t: pa.table({"ng": pa.array(
                sorted(set().union(*[ngrams(s) for s in t.column("text").to_pylist()])
                       if t.num_rows else set()),
                pa.string())}),
            batch_format="pyarrow",
        )
        .take_all()
    )
    bench = {r["ng"] for r in bench_tbls}
    bref = ray.put(bench)

    def flag(t: pa.Table) -> pa.Table:
        bs = ray.get(bref)
        ids = pc.cast(t.column("doc_id"), pa.int64()).to_pylist()
        o_id, o_n = [], []
        for did, s in zip(ids, t.column("text").to_pylist()):
            if did < _DECON_BENCH_IDS:
                continue
            n = len(ngrams(s) & bs)
            if n:
                o_id.append(did)
                o_n.append(n)
        return pa.table({"doc_id": pa.array(o_id, pa.int64()),
                         "n_overlap": pa.array(o_n, pa.int64())})

    return ds.map_batches(flag, batch_format="pyarrow")


_DUPNG_N = 8  # n-gram order for the duplicated-span fraction


def q_dup_ngram_fraction(sf_dir: str):
    """RefinedWeb/Gopher-style duplicated-n-gram fraction: for every doc, how
    many of its DISTINCT word-8-grams also occur in ≥ 1 OTHER document —
    the standard 'fraction of duplicated n-grams' quality filter applied
    before LLM training.

    Scale shape (one text pass, two narrow shuffles, no joins): each batch
    emits (h, doc) rows — h the md5-top-8-byte hash of the 8-gram, 16 B/row,
    text never shuffled; rows hash-partition on h (__part = h mod P) so one
    ``map_groups`` sees ALL holders of each h and emits per-doc partials
    (n_ngrams-in-part, n-shared-in-part); a final groupby(doc) Sum folds the
    partials. Driver never sees anything gram-sized. Output: (doc_id,
    n_ngrams, n_shared, shared_ppm) for docs with ≥ 1 8-gram, where
    shared_ppm = n_shared·10⁶ // n_ngrams exactly (SQL-hashable integers).
    """
    from ..functions.textfns import md5_hash64
    from ..stages.canonicalize import _compact_blocks

    ds = _rp(sf_dir, "documents", ["doc_id", "text"])
    P = _compact_blocks()

    def grams(t: pa.Table) -> pa.Table:
        ids = pc.cast(t.column("doc_id"), pa.int64()).to_pylist()
        hcache: dict[str, int] = {}
        o_h, o_d = [], []
        for did, s in zip(ids, t.column("text").to_pylist()):
            toks = _ALNUM.findall((s or "").lower())
            ngs = {" ".join(toks[i:i + _DUPNG_N])
                   for i in range(len(toks) - _DUPNG_N + 1)}
            o_h.extend(
                hcache[g] if g in hcache else hcache.setdefault(g, md5_hash64(g))
                for g in ngs
            )
            o_d.extend([did] * len(ngs))
        h = np.asarray(o_h, dtype=np.uint64).astype(np.int64)
        return pa.table(
            {"h": pa.array(h, pa.int64()),
             "doc": pa.array(o_d, pa.int64()),
             "__part": pa.array(h % P, pa.int64())}
        )

    def part_stats(group: pd.DataFrame) -> pd.DataFrame:
        holders = group.groupby("h")["doc"].transform("size")
        tot = group.groupby("doc", as_index=False).size().rename(
            columns={"size": "n_ngrams"})
        sh = group[holders >= 2].groupby("doc", as_index=False).size().rename(
            columns={"size": "n_shared"})
        out = tot.merge(sh, on="doc", how="left")
        out["n_shared"] = out["n_shared"].fillna(0).astype("int64")
        return out

    agg = _gagg(
        ds.map_batches(grams, batch_format="pyarrow")
        .groupby("__part")
        .map_groups(part_stats, batch_format="pandas"),
        "doc",
        Sum("n_ngrams", alias_name="n_ngrams"),
        Sum("n_shared", alias_name="n_shared"),
    )

    def finish(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "doc" not in t.column_names:
            return pa.table({c: pa.array([], pa.int64()) for c in
                             ("doc_id", "n_ngrams", "n_shared", "shared_ppm")})
        ng = pc.cast(t.column("n_ngrams"), pa.int64()).to_numpy()
        ns = pc.cast(t.column("n_shared"), pa.int64()).to_numpy()
        return pa.table(
            {"doc_id": pc.cast(t.column("doc"), pa.int64()),
             "n_ngrams": pa.array(ng, pa.int64()),
             "n_shared": pa.array(ns, pa.int64()),
             "shared_ppm": pa.array(ns * 1_000_000 // ng, pa.int64())}
        )

    return agg.map_batches(finish, batch_format="pyarrow")


def q_dedup_ngram_spans(sf_dir: str):
    """RefinedWeb-style exact-substring SPAN REMOVAL (the rewrite, not just
    the score) — plan in functions/dedup.span_dedup_rewrite: shared grams
    found h-partitioned (16 B rows, text never shuffled there), then a
    side-tagged union on doc co-locates text with its shared-gram set for a
    row-local rewrite — no joins. Output: (doc_id, n_tokens, n_removed,
    kept_text) for docs with ≥ 1 token. The SQL oracle replicates the plan
    (same md5-top-8-byte gram identity — any truncation collision collides
    identically — windowed-MAX coverage, string_agg kept text)."""
    from ..functions.dedup import span_dedup_rewrite

    return span_dedup_rewrite(
        _rp(sf_dir, "documents", ["doc_id", "text"]), "doc_id", "text",
        n=_DUPNG_N,
    )


def q_neardup_keep(sf_dir: str):
    """End-to-end near-dup DEDUP DECISION — the operator a curation pipeline
    actually ships: MinHash-LSH candidate pairs (same plan/params as
    ``minhash_neardup``) resolved to per-doc keep/drop via the connected
    components of the canonicalization stage (driver union-find or
    distributed rounds, by pair count), which label the paired docs only;
    one left join maps every doc to its component representative (min
    doc_id), and unpaired docs to themselves.
    Output: (doc_id, keep_id) for EVERY document — keep row ⟺ doc_id ==
    keep_id. The SQL oracle composes the full banded-LSH plan replication
    with a recursive min-label reachability fixpoint (the graph_components
    oracle shape), so the whole dedup decision is hash-checked."""
    from ..functions.dedup import lsh_near_dup_pairs, near_dup_keep_ids

    ds = _rp(sf_dir, "documents", ["doc_id", "text"])
    pairs = lsh_near_dup_pairs(ds, "text", "doc_id",
                               shingle="word3", threshold=0.8)
    return near_dup_keep_ids(pairs, ds.select_columns(["doc_id"]), "doc_id")


def q_neardup_keep_best(sf_dir: str):
    """Near-dup keep decision with a QUALITY-WEIGHTED representative — what
    production curation actually keeps: within each near-dup component the
    doc with the MOST tokens survives (tie → min doc_id), not the min-id
    doc (CCNet/RefinedWeb keep-the-longest-version convention). Plan in
    functions/dedup.near_dup_keep_best_ids (CC labels left-joined onto each
    doc's packed-int64 rank, then one shuffle by component whose argmax is
    broadcast to its members). SQL oracle = the full LSH + recursive-CC
    replication + a ROW_NUMBER() argmax."""
    from ..functions.dedup import lsh_near_dup_pairs, near_dup_keep_best_ids

    ds = _rp(sf_dir, "documents", ["doc_id", "text"])
    pairs = lsh_near_dup_pairs(ds, "text", "doc_id",
                               shingle="word3", threshold=0.8)
    return near_dup_keep_best_ids(pairs, ds, "doc_id", "text")


def q_domain_dup_rate(sf_dir: str):
    """Per-domain (source) exact-duplicate rate — the web-crawl health
    metric: for every source, how many of its docs are byte-identical to an
    earlier doc anywhere in the corpus (keeper = global min doc_id per md5).
    Plan: one narrow (md5, source, doc_id) shuffle co-located by COARSE
    hash-buckets (every doc with the same md5 lands in one bucket, groups
    stay cluster-sized); keeper resolution and per-source partial counts
    happen inside the bucket, then ONE tiny per-source groupby. No join, no
    text after the first map."""
    import hashlib

    P = 64
    ds = _rp(sf_dir, "documents", ["doc_id", "text", "source"])

    def hashed(t: pa.Table) -> pa.Table:
        texts = t.column("text").to_pylist()
        hs = [hashlib.md5((s or "").encode("utf-8")).hexdigest() for s in texts]
        hb = np.array([int(h[:8], 16) for h in hs], np.int64)
        return pa.table(
            {"h": pa.array(hs, pa.string()),
             "doc_id": pc.cast(t.column("doc_id"), pa.int64()),
             "source": t.column("source"),
             "__part": pa.array(hb % P, pa.int64())}
        )

    def bucket_counts(g: pd.DataFrame) -> pd.DataFrame:
        keeper = g.groupby("h")["doc_id"].transform("min")
        g = g.assign(is_dup=(g["doc_id"] != keeper).astype("int64"))
        out = g.groupby("source", as_index=False).agg(
            n_docs=("doc_id", "size"), n_dups=("is_dup", "sum"))
        out["n_docs"] = out["n_docs"].astype("int64")
        return out

    return (
        ds.map_batches(hashed, batch_format="pyarrow")
        .groupby("__part")
        .map_groups(bucket_counts, batch_format="pandas")
        .groupby("source")
        .aggregate(Sum("n_docs", alias_name="n_docs"),
                   Sum("n_dups", alias_name="n_dups"))
    )


_MB_MAX_BLOCK = 256


def q_meta_blocking(sf_dir: str, *, max_block: int = _MB_MAX_BLOCK):
    """Entity-resolution META-BLOCKING (the SparkER/blocking-graph idea,
    EDBT 2019, from public literature): token blocking over part names, drop
    stop-blocks (size < 2: no pairs; size > max_block: stopword-like tokens
    whose pair explosion buys no precision), then weight each candidate pair
    by its number of COMMON BLOCKS and keep pairs with weight ≥ 2 — the
    cheapest meta-blocking pruning rule, removing pairs that co-occur only
    by one shared token.

    Plan: distinct (token, id) via bucketed aggregate → block sizes at
    vocabulary cardinality, size-filtered DISTRIBUTED (no driver set) →
    partitioned hash join back onto the token rows → per-token pair
    enumeration inside coarse hash buckets (every block lives wholly in one
    bucket; ≤ max_block² pairs per block by construction) → pair-key
    aggregate sums the common-block weight. Shuffles carry (token, id) ints
    and (id, id, w) ints only."""
    from ..stages.canonicalize import _compact_blocks, grouped_aggregate
    from ..stages.joins import hash_join

    ds = _rp(sf_dir, "part", ["p_partkey", "p_name"])

    def tok_rows(t: pa.Table) -> pa.Table:
        seen: set[tuple] = set()
        for pid, s in zip(pc.cast(t.column("p_partkey"), pa.int64()).to_numpy(),
                          t.column("p_name").to_pylist()):
            for w in set(_ALNUM.findall((s or "").lower())):
                seen.add((w, int(pid)))
        if seen:
            ws, ids = zip(*seen)
        else:
            ws, ids = (), ()
        return pa.table({"t": pa.array(list(ws), pa.string()),
                         "id": pa.array(list(ids), pa.int64()),
                         "one": pa.array([1] * len(ws), pa.int64())})

    tok = grouped_aggregate(
        ds.map_batches(tok_rows, batch_format="pyarrow"),
        ["t", "id"], Sum("one", alias_name="c"),
    ).map_batches(lambda t: t.select(["t", "id"]), batch_format="pyarrow")

    sizes = _gagg(
        tok.map_batches(
            lambda t: pa.table({"t": t.column("t"),
                                "n": pa.array(np.ones(t.num_rows, np.int64), pa.int64())}),
            batch_format="pyarrow"),
        "t", Sum("n", alias_name="n"),
    ).map_batches(
        lambda t: t.filter(
            pc.and_(pc.greater_equal(t.column("n"), 2),
                    pc.less_equal(t.column("n"), max_block))
        ).select(["t"]),
        batch_format="pyarrow",
    )

    blocked = hash_join(tok, sizes, on=("t",))
    P = _compact_blocks()

    from ..functions.hashing import stable_hash64

    def add_part(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame({"t": pd.Series([], dtype="string"),
                                 "id": pd.Series([], dtype="int64"),
                                 "__part": pd.Series([], dtype="int64")})
        # stable hash: builtin hash() is per-process salted and would split a
        # block across partitions, silently dropping its cross-part pairs
        h = df["t"].map(lambda s: stable_hash64(s) & 0x7FFFFFFF)
        return df.assign(__part=(h % P).astype("int64"))[["t", "id", "__part"]]

    def block_pairs(g: pd.DataFrame) -> pd.DataFrame:
        out_a, out_b = [], []
        for _, grp in g.groupby("t", sort=False):
            ids = np.sort(grp["id"].to_numpy(dtype=np.int64))
            if len(ids) < 2:
                continue
            i, j = np.triu_indices(len(ids), k=1)
            out_a.append(ids[i])
            out_b.append(ids[j])
        if not out_a:
            return pd.DataFrame({"id_a": pd.Series([], dtype="int64"),
                                 "id_b": pd.Series([], dtype="int64"),
                                 "w": pd.Series([], dtype="int64")})
        df = pd.DataFrame({"id_a": np.concatenate(out_a),
                           "id_b": np.concatenate(out_b)})
        out = df.groupby(["id_a", "id_b"], as_index=False).size().rename(
            columns={"size": "w"})
        return out.astype("int64")

    pairs = (
        blocked.map_batches(add_part, batch_format="pandas")
        .groupby("__part")
        .map_groups(block_pairs, batch_format="pandas")
    )
    agg = grouped_aggregate(pairs, ["id_a", "id_b"], Sum("w", alias_name="w"))
    return agg.map_batches(
        lambda t: t.filter(pc.greater_equal(t.column("w"), 2)),
        batch_format="pyarrow",
    )


def q_golden_records(sf_dir: str):
    """ER SURVIVORSHIP / golden-record construction: one merged record per
    exact-content duplicate cluster, each field resolved by its own rule —
    id = Min (stable representative), n_chars = Max (richest capture),
    lang/source = Min (deterministic tie-break) — the record-merge step
    that follows any dedup decision. ONE keyed aggregate over the 32-char
    content hash carrying five narrow survivor columns; text itself never
    shuffles (extends exact_dedup_groups' keep-min-id to multi-column
    rules, functions/dedup.py)."""
    from ..functions.dedup import add_md5
    from ..stages.canonicalize import grouped_aggregate

    ds = _rp(sf_dir, "documents",
             ["doc_id", "text", "lang", "source", "n_chars"])
    hashed = add_md5(ds, "text").select_columns(
        ["h", "doc_id", "lang", "source", "n_chars"])
    agg = grouped_aggregate(
        hashed, ["h"],
        Min("doc_id", alias_name="rep_id"), Count(alias_name="n_dups"),
        Max("n_chars", alias_name="max_chars"),
        Min("lang", alias_name="lang"), Min("source", alias_name="source"))
    return agg.map_batches(
        lambda t: pa.table(
            {"h": t.column("h"),
             "rep_id": pc.cast(t.column("rep_id"), pa.int64()),
             "n_dups": pc.cast(t.column("n_dups"), pa.int64()),
             "max_chars": pc.cast(t.column("max_chars"), pa.int64()),
             "lang": t.column("lang"), "source": t.column("source")}),
        batch_format="pyarrow")


def q_image_phash_neardup(sf_dir: str):
    """Multimodal image NEAR-DUP (stages/multimodal.py phash_neardup_pairs):
    perceptual-hash banding over decoded payloads — the LSH plan applied to
    pixels instead of shingles. Each doc's 16-char text prefix stands in as
    the binary payload (FakeCodec decode is deterministic per byte string),
    modelling the same stock asset embedded on many pages: prefix
    collisions land at Hamming 0 and make the run non-vacuous;
    planted-pixel unit tests (PatternCodec) pin Hamming-1 recall and the
    skew cap. Rows-only vs SQL (decode not SQL-expressible). Output:
    (id_a, id_b, hamming)."""
    from ..stages.multimodal import phash_neardup_pairs

    ds = _rp(sf_dir, "documents", ["doc_id", "text"])

    def to_payload(t: pa.Table) -> pa.Table:
        texts = t.column("text").to_pylist()
        return pa.table(
            {"id": pc.cast(t.column("doc_id"), pa.int64()),
             "payload": pa.array([(s or "")[:16].encode("utf-8") for s in texts],
                                 pa.binary())}
        )

    return phash_neardup_pairs(ds.map_batches(to_payload, batch_format="pyarrow"))


_SNM_WINDOW = 4


def q_sorted_neighborhood(sf_dir: str):
    """SORTED NEIGHBORHOOD METHOD pair generation (Hernández–Stolfo) —
    the sort-based ER blocking alternative to LSH/meta-blocking: rows are
    ranked by a sort key and every pair within a sliding window of w = 4
    becomes a match candidate. Distributed WITHOUT a global sort: the sort
    key packs each part name's first 8 bytes big-endian into an int64
    (SQL-replicable), range-partitioned global_rank assigns positions, and
    each row lands in OVERLAPPING TILES rank//w and rank//w + 1 — any pair
    closer than w shares a tile (⌊ra/w⌋ and ⌊rb/w⌋ differ by ≤ 1), so
    within-tile vectorized pairing finds every candidate with 2×
    replication and O(w·rows) pair work; a distinct aggregate drops the
    tile-overlap duplicates. Emits (id_a, id_b) with id_a the lower-ranked
    row's key."""
    from ..functions.rank import global_rank
    from ..stages.canonicalize import grouped_aggregate

    ds = _rp(sf_dir, "part", ["p_partkey", "p_name"])
    w = _SNM_WINDOW

    def keyed(t: pa.Table) -> pa.Table:
        keys = []
        for s in t.column("p_name").to_pylist():
            b = (s or "").encode("utf-8")[:8].ljust(8, b"\x01")
            keys.append(int.from_bytes(b, "big") >> 1)  # keep in int64
        return pa.table({"p_partkey": pc.cast(t.column("p_partkey"),
                                              pa.int64()),
                         "sk": pa.array(keys, pa.int64())})

    ranked = global_rank(ds.map_batches(keyed, batch_format="pyarrow"),
                         "sk", "p_partkey", descending=False, n_buckets=32)

    def tiles(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame({"tile": pd.Series([], dtype="int64"),
                                 "rank": pd.Series([], dtype="int64"),
                                 "p_partkey": pd.Series([], dtype="int64")})
        r = df["rank"].to_numpy(dtype=np.int64)
        pk = df["p_partkey"].to_numpy(dtype=np.int64)
        return pd.DataFrame(
            {"tile": np.concatenate([r // w, r // w + 1]),
             "rank": np.concatenate([r, r]),
             "p_partkey": np.concatenate([pk, pk])}).astype("int64")

    def tile_pairs(g: pd.DataFrame) -> pd.DataFrame:
        m = g.merge(g, on="tile", suffixes=("_a", "_b"))
        m = m[(m["rank_a"] < m["rank_b"])
              & (m["rank_b"] - m["rank_a"] < w)]
        if m.empty:
            return pd.DataFrame({"id_a": pd.Series([], dtype="int64"),
                                 "id_b": pd.Series([], dtype="int64")})
        return pd.DataFrame({"id_a": m["p_partkey_a"].astype("int64"),
                             "id_b": m["p_partkey_b"].astype("int64")})

    pairs = (
        ranked.map_batches(tiles, batch_format="pandas")
        .groupby("tile")
        .map_groups(tile_pairs, batch_format="pandas")
    )
    dd = grouped_aggregate(pairs, ["id_a", "id_b"], Count(alias_name="_n"))
    return dd.map_batches(
        lambda t: pa.table({"id_a": pc.cast(t.column("id_a"), pa.int64()),
                            "id_b": pc.cast(t.column("id_b"), pa.int64())}),
        batch_format="pyarrow")


def _snm_sql(w: int = _SNM_WINDOW) -> str:
    """DuckDB replication of q_sorted_neighborhood: identical big-endian
    8-byte packed sort key (>> 1 keeps it in int64; ASCII names, chr(1)
    pad), row_number over (key, partkey), self-join on rank distance < w."""
    expr = "CAST(0 AS HUGEINT)"
    for i in range(1, 9):
        expr = (f"({expr} * 256 + ord(substr(rpad(p_name, 8, chr(1)), "
                f"{i}, 1)))")
    return f"""
        WITH k AS (SELECT p_partkey,
                          CAST({expr} // 2 AS BIGINT) AS sk FROM part),
        r AS (SELECT p_partkey, sk,
                     row_number() OVER (ORDER BY sk, p_partkey) AS rk
              FROM k)
        SELECT a.p_partkey AS id_a, b.p_partkey AS id_b
        FROM r a JOIN r b ON b.rk > a.rk AND b.rk - a.rk < {w}
    """


def q_neardup_cluster_hist(sf_dir: str):
    """Near-dup CLUSTER SIZE HISTOGRAM — the dedup-audit report (how much
    of the corpus sits in 2-doc pairs vs 50-doc pile-ups decides whether a
    keep-one policy is safe): LSH pairs → connected components
    → per-component doc counts → (cluster_size, n_clusters). Composes the
    SAME verified machinery as q_neardup_keep (so the SQL oracle reuses its
    recursive-CC replication) with two vocabulary-sized count aggregates on
    top. Singleton docs count as size-1 clusters — the histogram covers the
    WHOLE corpus and Σ(size × n_clusters) == n_docs."""
    from ray.data.aggregate import Sum

    from ..functions.dedup import lsh_near_dup_pairs, near_dup_keep_ids
    from ..stages.canonicalize import grouped_aggregate

    ds = _rp(sf_dir, "documents", ["doc_id", "text"])
    pairs = lsh_near_dup_pairs(ds, "text", "doc_id",
                               shingle="word3", threshold=0.8)
    labels = near_dup_keep_ids(pairs, ds.select_columns(["doc_id"]), "doc_id")

    sizes = grouped_aggregate(
        labels.map_batches(
            lambda t: pa.Table.from_arrays(
                [pc.cast(t.column("keep_id"), pa.int64()),
                 pa.array(np.ones(t.num_rows, np.int64))],
                names=["keep_id", "cluster_size"]),
            batch_format="pyarrow"),
        ["keep_id"],
        Sum("cluster_size", alias_name="cluster_size"),
    )
    hist = grouped_aggregate(
        sizes.map_batches(
            lambda t: pa.Table.from_arrays(
                [pc.cast(t.column("cluster_size"), pa.int64()),
                 pa.array(np.ones(t.num_rows, np.int64))],
                names=["cluster_size", "n_clusters"]),
            batch_format="pyarrow"),
        ["cluster_size"],
        Sum("n_clusters", alias_name="n_clusters"),
    )
    return hist.sort("cluster_size")
