"""Text analysis / curation / tokenization query family (split from pipelines/queries.py — its module
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
    _ALNUM, _gagg, _min_count_filter, _rp,
)



def q_distinct_langs(sf_dir: str):
    """A1 vocabulary collection: global distinct + sort (tiny result)."""
    langs = sorted(_rp(sf_dir, "documents", ["lang"]).unique("lang"))
    return pa.table({"lang": pa.array(langs, pa.string())})


def q_lang_stats(sf_dir: str):
    """A2/A3 histogram: groupby-count + exact integer sum."""
    ds = _rp(sf_dir, "documents", ["lang", "n_chars"])

    def partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {"lang": t.column("lang").to_pylist(),
             "sum_chars": pc.cast(t.column("n_chars"), pa.int64()).to_numpy()}
        )
        g = df.groupby("lang", as_index=False).agg(
            n_docs=("sum_chars", "size"), sum_chars=("sum_chars", "sum")
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("lang")
        .aggregate(Sum("n_docs", alias_name="n_docs"), Sum("sum_chars", alias_name="sum_chars"))
    )


def q_word_freq(sf_dir: str):
    """A4 word-frequency vocabulary with MIN_FREQ threshold (explode + count)."""
    ds = _rp(sf_dir, "documents", ["text"])

    def partial(t: pa.Table) -> pa.Table:
        counts: dict[str, int] = {}
        for s in t.column("text").to_pylist():
            for w in _ALNUM.findall((s or "").lower()):
                counts[w] = counts.get(w, 0) + 1
        return pa.table(
            {"token": pa.array(list(counts), pa.string()),
             "n": pa.array(list(counts.values()), pa.int64())}
        )

    agg = _gagg(
        ds.map_batches(partial, batch_format="pyarrow"),
        "token", Sum("n", alias_name="n"),
    )
    return agg.map_batches(
        lambda t: t.filter(pc.greater_equal(t.column("n"), 5)), batch_format="pyarrow"
    )


def q_token_stats(sf_dir: str):
    """M13/A3 per-document token statistics (integers only — SQL-exact)."""
    from ..stages.textops import token_stats_batch

    ds = _rp(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(token_stats_batch, batch_format="pyarrow")


def q_langid(sf_dir: str):
    from ..stages.textops import langid_batch

    return _rp(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        langid_batch, batch_format="pyarrow"
    )


def q_quality(sf_dir: str):
    from ..stages.textops import quality_batch

    return _rp(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        quality_batch, batch_format="pyarrow"
    )


def q_compression_ratio(sf_dir: str):
    """Per-doc zlib compression ratio in ppm — the classic cheap web-curation
    signal (boilerplate / template / repeated-spam text compresses far below
    natural prose; cf. Gopher/CCNet-style quality filters). Pure row-local
    map, no shuffle; deterministic for a fixed zlib, pinned by unit tests
    (ordering + batch invariance), rows-only for the driver (no SQL zlib)."""
    import zlib

    ds = _rp(sf_dir, "documents", ["doc_id", "text"])

    def fn(t: pa.Table) -> pa.Table:
        ids = pc.cast(t.column("doc_id"), pa.int64())
        ratios = []
        for txt in t.column("text").to_pylist():
            raw = (txt or "").encode("utf-8")
            ratios.append(
                len(zlib.compress(raw, 6)) * 1_000_000 // len(raw) if raw else 0)
        return pa.table({"doc_id": ids,
                         "compress_ppm": pa.array(ratios, pa.int64())})

    return ds.map_batches(fn, batch_format="pyarrow")


def q_fingerprint(sf_dir: str):
    from ..stages.textops import fingerprint_batch

    return _rp(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        fingerprint_batch, batch_format="pyarrow"
    )


def q_subword_counts(sf_dir: str):
    """Subword token counting: whitespace words → greedy longest-match
    WordPiece against the packaged vocabulary (functions/wordpiece.py —
    vocab loaded once per worker process). Rows-only."""
    ds = _rp(sf_dir, "documents", ["doc_id", "text"])

    def fn(t: pa.Table) -> pa.Table:
        from ..functions.wordpiece import default_vocab, wordpiece_tokenize

        vocab = default_vocab()
        ids = t.column("doc_id").to_pylist()
        texts = t.column("text").to_pylist()
        counts = [
            sum(len(wordpiece_tokenize(w, vocab)) for w in (txt or "").split())
            for txt in texts
        ]
        return pa.table(
            {"doc_id": pa.array(ids, pa.int64()),
             "n_subwords": pa.array(counts, pa.int64())}
        )

    return ds.map_batches(fn, batch_format="pyarrow")


def q_phrase_search(sf_dir: str, *, phrase: tuple = ("stream", "table", "hash")):
    """Exact phrase match via a POSITIONAL inverted index: one corpus pass
    emits (doc_id, token_pos) postings for the query tokens only (the
    \"index probe\" — postings volume ∝ query-token frequency, not corpus
    size), then adjacency is resolved with chained hash-partitioned joins
    on (doc_id, pos+i) and match counts by grouped aggregate. The row-local
    scan (decontamination-style) answers one phrase cheaper; the postings
    join is the batch-of-phrases / index-reuse shape."""
    from ..stages.canonicalize import grouped_aggregate
    from ..stages.joins import hash_join

    ds = _rp(sf_dir, "documents", ["doc_id", "text"])
    qmap = {w: i for i, w in enumerate(phrase)}

    def postings(t: pa.Table) -> pa.Table:
        ids = pc.cast(t.column("doc_id"), pa.int64()).to_numpy()
        texts = t.column("text").to_pylist()
        o_id, o_p, o_ti = [], [], []
        for did, txt in zip(ids, texts):
            for p, w in enumerate(_ALNUM.findall((txt or "").lower())):
                ti = qmap.get(w)
                if ti is not None:
                    o_id.append(int(did)); o_p.append(p); o_ti.append(ti)
        return pa.table({"doc_id": pa.array(o_id, pa.int64()),
                         "p": pa.array(o_p, pa.int64()),
                         "ti": pa.array(o_ti, pa.int64())})

    post = ds.map_batches(postings, batch_format="pyarrow").materialize()

    def term(ti: int):
        # anchor coordinates: term ti at pos p matches anchor p - ti
        def fn(t: pa.Table) -> pa.Table:
            t = t.filter(pc.equal(t.column("ti"), ti))
            return pa.table(
                {"doc_id": t.column("doc_id"),
                 "p": pc.subtract(t.column("p"), ti)})
        return fn

    cur = post.map_batches(term(0), batch_format="pyarrow")
    for i in range(1, len(phrase)):
        nxt = post.map_batches(term(i), batch_format="pyarrow")
        cur = hash_join(cur, nxt, on=("doc_id", "p"))

    return grouped_aggregate(
        cur.map_batches(
            lambda t: pa.table({"doc_id": pc.cast(t.column("doc_id"), pa.int64()),
                                "one": pa.array(np.ones(t.num_rows, np.int64))}),
            batch_format="pyarrow"),
        ["doc_id"], Sum("one", alias_name="n_matches"),
    )


def q_bigram_freq(sf_dir: str):
    """A4 n-gram extension: corpus bigram counts with MIN_FREQ threshold,
    per-batch dict partials before the shuffle (same plan as word_freq)."""
    ds = _rp(sf_dir, "documents", ["text"])

    def partial(t: pa.Table) -> pa.Table:
        counts: dict[str, int] = {}
        for s in t.column("text").to_pylist():
            toks = _ALNUM.findall((s or "").lower())
            for i in range(len(toks) - 1):
                bg = toks[i] + " " + toks[i + 1]
                counts[bg] = counts.get(bg, 0) + 1
        return pa.table(
            {"bigram": pa.array(list(counts), pa.string()),
             "n": pa.array(list(counts.values()), pa.int64())}
        )

    agg = _gagg(
        ds.map_batches(partial, batch_format="pyarrow"),
        "bigram", Sum("n", alias_name="n"),
    )
    return agg.map_batches(
        lambda t: t.filter(pc.greater_equal(t.column("n"), 5)), batch_format="pyarrow"
    )


def q_term_doc_freq(sf_dir: str):
    """Document frequency (the tf-idf denominator): since a document is one
    row, per-doc token DEDUP is row-local (free) — partial df counts per
    batch, one narrow groupby(token) shuffle, MIN_DF filter keeps the result
    vocabulary-sized."""
    ds = _rp(sf_dir, "documents", ["text"])

    def partial(t: pa.Table) -> pa.Table:
        counts: dict[str, int] = {}
        for s in t.column("text").to_pylist():
            for tok in set(_ALNUM.findall((s or "").lower())):
                counts[tok] = counts.get(tok, 0) + 1
        return pa.table(
            {"token": pa.array(list(counts), pa.string()),
             "df": pa.array(list(counts.values()), pa.int64())}
        )

    agg = _gagg(
        ds.map_batches(partial, batch_format="pyarrow"),
        "token", Sum("df", alias_name="df"),
    )
    return agg.map_batches(
        lambda t: t.filter(pc.greater_equal(t.column("df"), 5)), batch_format="pyarrow"
    )


_TFIDF_MIN_DF = 5
_TFIDF_TOP = 3


def q_tfidf_top_terms(sf_dir: str):
    """Per-document top-``_TFIDF_TOP`` salient terms by tf·idf with the
    reciprocal-df idf (score = tf/df): the ranking every keyword-extraction /
    training-data-curation pass needs. Scale shape: the df table is
    VOCABULARY-sized after the MIN_DF filter, so it is aggregated once
    (partial df per batch → one narrow groupby) and broadcast via ray.put;
    per-doc tf and the top-k are then row-local — no second shuffle.

    Float discipline: the score is the single IEEE division tf/df computed
    identically here and in the SQL oracle (both exactly-rounded doubles), so
    ordering ties agree bit-for-bit; the OUTPUT carries only integers."""
    ds = _rp(sf_dir, "documents", ["doc_id", "text"])

    def df_partial(t: pa.Table) -> pa.Table:
        counts: dict[str, int] = {}
        for s in t.column("text").to_pylist():
            for tok in set(_ALNUM.findall((s or "").lower())):
                counts[tok] = counts.get(tok, 0) + 1
        return pa.table(
            {"token": pa.array(list(counts), pa.string()),
             "df": pa.array(list(counts.values()), pa.int64())}
        )

    # MIN_DF filter runs DISTRIBUTED, right after the aggregate — only the
    # filtered (vocabulary-sized, not raw-token-sized) table reaches the
    # driver; collecting the unfiltered vocab first would materialize every
    # hapax of a 100-TB corpus driver-side
    df_kept = _gagg(
        ds.map_batches(df_partial, batch_format="pyarrow"),
        "token", Sum("df", alias_name="df"),
    ).map_batches(_min_count_filter("df", _TFIDF_MIN_DF, "token"),
                  batch_format="pyarrow")
    df_map = {
        r["token"]: int(r["df"])
        for b in df_kept.iter_batches(batch_size=65536, batch_format="pyarrow")
        for r in b.to_pylist()
    }
    dref = ray.put(df_map)

    def score(t: pa.Table) -> pa.Table:
        dm = ray.get(dref)
        o_id, o_term, o_tf, o_df, o_rank = [], [], [], [], []
        for did, s in zip(
            pc.cast(t.column("doc_id"), pa.int64()).to_pylist(),
            t.column("text").to_pylist(),
        ):
            tf: dict[str, int] = {}
            for tok in _ALNUM.findall((s or "").lower()):
                if tok in dm:
                    tf[tok] = tf.get(tok, 0) + 1
            best = sorted(tf.items(), key=lambda kv: (-(kv[1] / dm[kv[0]]), kv[0]))
            for rank, (term, n) in enumerate(best[:_TFIDF_TOP], 1):
                o_id.append(did)
                o_term.append(term)
                o_tf.append(n)
                o_df.append(dm[term])
                o_rank.append(rank)
        return pa.table(
            {"doc_id": pa.array(o_id, pa.int64()),
             "term": pa.array(o_term, pa.string()),
             "tf": pa.array(o_tf, pa.int64()),
             "df": pa.array(o_df, pa.int64()),
             "rank": pa.array(o_rank, pa.int64())}
        )

    return ds.map_batches(score, batch_format="pyarrow")


_PMI_MIN_N = 5
_PMI_TOP = 50


def q_pmi_bigrams(sf_dir: str):
    """Top-``_PMI_TOP`` collocations: bigrams with count ≥ ``_PMI_MIN_N``
    ranked by PMI. With corpus-size terms constant across candidates, the PMI
    order equals n_xy / (n_x·n_y), computed as the identical double expression
    on both sides; output columns are integers only (counts + rank).

    Scale shape: bigram and unigram counts are partial-aggregated per batch
    before their narrow groupbys; the unigram table (vocabulary-sized) is
    broadcast to score bigram batches map-side; the global top-k is a
    per-batch partial top-k → tiny driver merge, never a full sort."""
    ds = _rp(sf_dir, "documents", ["text"])

    def uni_partial(t: pa.Table) -> pa.Table:
        counts: dict[str, int] = {}
        for s in t.column("text").to_pylist():
            for tok in _ALNUM.findall((s or "").lower()):
                counts[tok] = counts.get(tok, 0) + 1
        return pa.table(
            {"token": pa.array(list(counts), pa.string()),
             "n": pa.array(list(counts.values()), pa.int64())}
        )

    # Unigrams with n < _PMI_MIN_N are filtered DISTRIBUTED before the
    # collect: every occurrence of a bigram (x, y) contains one of x and one
    # of y, so n_x ≥ n_xy and n_y ≥ n_xy — a bigram passing n_xy ≥ MIN_N can
    # only reference unigrams that survive the same threshold. The broadcast
    # table is therefore the FILTERED vocabulary, never the raw hapax tail.
    uni_kept = _gagg(
        ds.map_batches(uni_partial, batch_format="pyarrow"),
        "token", Sum("n", alias_name="n"),
    ).map_batches(_min_count_filter("n", _PMI_MIN_N, "token"),
                  batch_format="pyarrow")
    uni = {
        r["token"]: int(r["n"])
        for b in uni_kept.iter_batches(batch_size=65536, batch_format="pyarrow")
        for r in b.to_pylist()
    }
    uref = ray.put(uni)

    def bi_partial(t: pa.Table) -> pa.Table:
        counts: dict[str, int] = {}
        for s in t.column("text").to_pylist():
            toks = _ALNUM.findall((s or "").lower())
            for i in range(len(toks) - 1):
                bg = toks[i] + " " + toks[i + 1]
                counts[bg] = counts.get(bg, 0) + 1
        return pa.table(
            {"bigram": pa.array(list(counts), pa.string()),
             "n_xy": pa.array(list(counts.values()), pa.int64())}
        )

    agg = _gagg(
        ds.map_batches(bi_partial, batch_format="pyarrow"),
        "bigram", Sum("n_xy", alias_name="n_xy"),
    )

    def topk_partial(t: pa.Table) -> pa.Table:
        um = ray.get(uref)
        rows = []
        for bg, nxy in zip(t.column("bigram").to_pylist(),
                           t.column("n_xy").to_pylist()):
            if nxy < _PMI_MIN_N:
                continue
            x, y = bg.split(" ", 1)
            nx, ny = um[x], um[y]
            rows.append((float(nxy) / (float(nx) * float(ny)), bg, nxy, nx, ny))
        rows.sort(key=lambda r: (-r[0], r[1]))
        rows = rows[:_PMI_TOP]
        return pa.table(
            {"score": pa.array([r[0] for r in rows], pa.float64()),
             "bigram": pa.array([r[1] for r in rows], pa.string()),
             "n_xy": pa.array([r[2] for r in rows], pa.int64()),
             "n_x": pa.array([r[3] for r in rows], pa.int64()),
             "n_y": pa.array([r[4] for r in rows], pa.int64())}
        )

    cand = agg.map_batches(topk_partial, batch_format="pyarrow").take_all()
    cand.sort(key=lambda r: (-r["score"], r["bigram"]))
    cand = cand[:_PMI_TOP]
    return pa.table(
        {"bigram": pa.array([r["bigram"] for r in cand], pa.string()),
         "n_xy": pa.array([r["n_xy"] for r in cand], pa.int64()),
         "n_x": pa.array([r["n_x"] for r in cand], pa.int64()),
         "n_y": pa.array([r["n_y"] for r in cand], pa.int64()),
         "rank": pa.array(range(1, len(cand) + 1), pa.int64())}
    )


def q_length_buckets(sf_dir: str):
    """Sequence-length bucketing for training-batch packing: per (lang,
    power-of-two token-count bucket) document counts. Bucket = bit_length−1
    (pure integer on both sides — no log2 float rounding hazard); empty docs
    land in bucket −1. Row-local bucketing + partial counts → narrow groupby."""
    from ..stages.canonicalize import grouped_aggregate

    ds = _rp(sf_dir, "documents", ["lang", "text"])

    def partial(t: pa.Table) -> pa.Table:
        buckets = [
            len(_ALNUM.findall((s or "").lower())).bit_length() - 1
            for s in t.column("text").to_pylist()
        ]
        df = pd.DataFrame({"lang": t.column("lang").to_pylist(),
                           "bucket": np.asarray(buckets, dtype=np.int64)})
        g = df.groupby(["lang", "bucket"], as_index=False).size().rename(
            columns={"size": "n_docs"}
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    return grouped_aggregate(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["lang", "bucket"],
        Sum("n_docs", alias_name="n_docs"),
    )


def q_repetition_stats(sf_dir: str):
    """Gopher-style repetition features, exact integers per doc: token count,
    distinct-token count, and the count of the most frequent bigram — the
    inputs to 'fraction of tokens in top bigram' repetition filters. Pure
    row-local map, no shuffle."""
    ds = _rp(sf_dir, "documents", ["doc_id", "text"])

    def stats(t: pa.Table) -> pa.Table:
        o_id, o_nt, o_nd, o_tb = [], [], [], []
        for did, s in zip(
            pc.cast(t.column("doc_id"), pa.int64()).to_pylist(),
            t.column("text").to_pylist(),
        ):
            toks = _ALNUM.findall((s or "").lower())
            bi: dict[str, int] = {}
            for i in range(len(toks) - 1):
                bg = toks[i] + " " + toks[i + 1]
                bi[bg] = bi.get(bg, 0) + 1
            o_id.append(did)
            o_nt.append(len(toks))
            o_nd.append(len(set(toks)))
            o_tb.append(max(bi.values()) if bi else 0)
        return pa.table(
            {"doc_id": pa.array(o_id, pa.int64()),
             "n_tokens": pa.array(o_nt, pa.int64()),
             "n_distinct": pa.array(o_nd, pa.int64()),
             "top_bigram_n": pa.array(o_tb, pa.int64())}
        )

    return ds.map_batches(stats, batch_format="pyarrow")


def q_oov_rate(sf_dir: str):
    """Per-doc out-of-vocabulary rate (integer ppm) against the corpus's own
    φ-frequent vocabulary (cnt·41 > N, the scale-free heavy-hitter
    threshold) — the CCNet-style lexical quality score. Pass 1 aggregates
    word counts and the token total (tagged marker row on the same narrow
    groupby), filters the vocabulary DISTRIBUTED (before any driver
    collect), broadcasts the bounded result; pass 2 scores each doc
    row-locally."""
    import ray as _ray

    ds = _rp(sf_dir, "documents", ["doc_id", "text"])
    _TOTAL = "\x00__total__"

    def wcounts(t: pa.Table) -> pa.Table:
        local: dict[str, int] = {}
        n = 0
        for s in t.column("text").to_pylist():
            ws = _ALNUM.findall((s or "").lower())
            n += len(ws)
            for w in ws:
                local[w] = local.get(w, 0) + 1
        keys = sorted(local)
        return pa.table(
            {"w": pa.array(keys + [_TOTAL], pa.string()),
             "cnt": pa.array([local[k] for k in keys] + [n], pa.int64())}
        )

    counted = _gagg(
        ds.map_batches(wcounts, batch_format="pyarrow"),
        "w", Sum("cnt", alias_name="cnt"),
    ).materialize()
    total = 0
    for b in counted.iter_batches(batch_size=65536, batch_format="pyarrow"):
        m = pc.equal(b.column("w"), _TOTAL)
        if pc.any(m).as_py():
            total = int(b.filter(m).column("cnt")[0].as_py())
            break

    def vocab_filter(t: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.not_equal(t.column("w"), _TOTAL),
            pc.greater(pc.multiply(pc.cast(t.column("cnt"), pa.int64()),
                                   pa.scalar(41, pa.int64())),
                       pa.scalar(total, pa.int64())),
        )
        return pa.table({"w": t.filter(keep).column("w")})

    vocab: set[str] = set()
    for b in counted.map_batches(vocab_filter, batch_format="pyarrow") \
                    .iter_batches(batch_size=65536, batch_format="pyarrow"):
        vocab.update(b.column("w").to_pylist())
    vref = _ray.put(vocab)

    def score(t: pa.Table) -> pa.Table:
        vs = ray.get(vref)
        ids = pc.cast(t.column("doc_id"), pa.int64()).to_pylist()
        o_id, o_n, o_ppm = [], [], []
        for i, s in zip(ids, t.column("text").to_pylist()):
            ws = _ALNUM.findall((s or "").lower())
            n = len(ws)
            oov = sum(1 for w in ws if w not in vs)
            o_id.append(i)
            o_n.append(n)
            o_ppm.append((oov * 1_000_000) // n if n else 0)
        return pa.table(
            {"doc_id": pa.array(o_id, pa.int64()),
             "n_tokens": pa.array(o_n, pa.int64()),
             "oov_ppm": pa.array(o_ppm, pa.int64())}
        )

    return ds.map_batches(score, batch_format="pyarrow")


def q_word_commonness(sf_dir: str):
    """Unigram-LM document scoring — the cheap deterministic stand-in for a
    model-based quality filter: each doc scores the mean corpus frequency of
    its tokens (rare-token docs score low). The corpus vocabulary is computed
    AND consumed in one plan via a hash-partitioned fact-to-dimension join on
    token — the vocabulary is never broadcast or collected (contrast
    tfidf_top_terms, which may broadcast its MIN_DF-filtered vocab; here
    every token contributes, so the join is the only scale-correct shape).
    Integer-exact: s = Σ_occurrences cnt(token) ≤ corpus_tokens² per doc-term
    — at 10¹⁴ corpus tokens × 10³-token docs ≈ 10¹⁷ < 2⁶³."""
    from ..stages.joins import hash_join

    ds = _rp(sf_dir, "documents", ["doc_id", "text"])

    def doc_tokens(t: pa.Table) -> pa.Table:
        ids = pc.cast(t.column("doc_id"), pa.int64()).to_numpy()
        o_id, o_tok, o_n = [], [], []
        for did, txt in zip(ids, t.column("text").to_pylist()):
            local: dict[str, int] = {}
            for w in _ALNUM.findall((txt or "").lower()):
                local[w] = local.get(w, 0) + 1
            o_id.extend([int(did)] * len(local))
            o_tok.extend(local.keys())
            o_n.extend(local.values())
        return pa.table({"doc_id": pa.array(o_id, pa.int64()),
                         "token": pa.array(o_tok, pa.string()),
                         "n": pa.array(o_n, pa.int64())})

    # (doc, token, n) facts reused by BOTH the vocab aggregate and the join —
    # materialize once so tokenization runs one corpus pass, not two
    toks = ds.map_batches(doc_tokens, batch_format="pyarrow").materialize()
    vocab = _gagg(
        toks.map_batches(
            lambda t: t.select(["token", "n"]), batch_format="pyarrow"),
        "token", Sum("n", alias_name="cnt"),
    )
    joined = hash_join(toks, vocab, on=("token",))

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                                 "s": pd.Series([], dtype="int64"),
                                 "n_toks": pd.Series([], dtype="int64")})
        df = df.assign(s=df["n"].astype("int64") * df["cnt"].astype("int64"),
                       n_toks=df["n"].astype("int64"))
        return df.groupby("doc_id", as_index=False)[["s", "n_toks"]].sum()

    agg = _gagg(
        joined.map_batches(partial, batch_format="pandas"),
        "doc_id", Sum("s", alias_name="s"), Sum("n_toks", alias_name="n_toks"),
    )

    def fin(t: pa.Table) -> pa.Table:
        s = pc.cast(t.column("s"), pa.int64()).to_numpy()
        n = pc.cast(t.column("n_toks"), pa.int64()).to_numpy()
        return pa.table({"doc_id": pc.cast(t.column("doc_id"), pa.int64()),
                         "s": pa.array(s, pa.int64()),
                         "n_toks": pa.array(n, pa.int64()),
                         "commonness": pa.array(s // n, pa.int64())})

    return agg.map_batches(fin, batch_format="pyarrow")


_TOP_TERMS_K = 5


def q_top_terms_per_lang(sf_dir: str, *, k: int = _TOP_TERMS_K):
    """Per-group top-K over an EXPLODED text aggregate: the k most frequent
    tokens per language (ties → token ASC, a total order). Two-level plan:
    per-batch (lang, token) count partials → bucketed grouped_aggregate (the
    high-cardinality pair key never meets Ray's per-group reduce) → per-batch
    LOSSLESS top-K combiner (rows are final counts after the aggregate, so
    any global top-K row is a batch top-K row) → per-lang exact re-rank on
    ≤ k·blocks rows. The corpus-sized exchange is the count aggregate only."""
    from ..stages.canonicalize import grouped_aggregate

    ds = _rp(sf_dir, "documents", ["lang", "text"])

    def partial(t: pa.Table) -> pa.Table:
        counts: dict[tuple, int] = {}
        for lg, s in zip(t.column("lang").to_pylist(), t.column("text").to_pylist()):
            for w in _ALNUM.findall((s or "").lower()):
                key = (lg, w)
                counts[key] = counts.get(key, 0) + 1
        if counts:
            ls, ws = zip(*counts.keys())
        else:
            ls, ws = (), ()
        return pa.table(
            {"lang": pa.array(list(ls), pa.string()),
             "token": pa.array(list(ws), pa.string()),
             "n": pa.array(list(counts.values()), pa.int64())}
        )

    agg = grouped_aggregate(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["lang", "token"], Sum("n", alias_name="n"),
    )

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return df[["lang", "token", "n"]]
        df = df.sort_values(["n", "token"], ascending=[False, True])
        return df.groupby("lang", sort=False).head(k)[["lang", "token", "n"]]

    def final(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["n", "token"], ascending=[False, True]).head(k).copy()
        g["rk"] = np.arange(1, len(g) + 1, dtype=np.int64)
        g["n"] = g["n"].astype("int64")
        return g[["lang", "token", "n", "rk"]]

    return (
        agg.map_batches(combine, batch_format="pandas")
        .groupby("lang")
        .map_groups(final, batch_format="pandas")
    )


def q_source_vocab_jaccard(sf_dir: str):
    """Corpus-comparison: vocabulary Jaccard similarity between every pair of
    sources — the source-overlap diagnostic run before mixing corpora.

    Plan: distinct (token, source) pairs (per-batch set + bucketed aggregate)
    → per-token source BITMASK (each pair contributes exactly once, so a Sum
    of 1<<src_idx IS the OR) → per-batch O(|S|²) pair-intersection partials
    via vectorized popcount-style bit tests → a ≤ |S|²-row final aggregate.
    Nothing vocabulary-sized ever reaches the driver and no stage is
    quadratic in tokens. Partitioning assumption: |sources| ≤ 62 (bitmask in
    one int64) — raise, don't alias, beyond it; a multi-word mask or a
    (token, src_a, src_b) self-join covers wider source sets.
    Output: (source_a, source_b, inter_n, union_n, jaccard_ppm) with
    jaccard_ppm = ⌊inter · 10⁶ / union⌋, integer-exact for hash comparison."""
    from ..stages.canonicalize import grouped_aggregate

    ds = _rp(sf_dir, "documents", ["source", "text"])
    sources = sorted(ds.unique("source"))
    if len(sources) > 62:
        raise ValueError("source bitmask needs ≤ 62 sources — widen the encoding")
    idx = {s: i for i, s in enumerate(sources)}
    S = len(sources)

    def pair_rows(t: pa.Table) -> pa.Table:
        seen: set[tuple] = set()
        for src, s in zip(t.column("source").to_pylist(), t.column("text").to_pylist()):
            b = idx[src]
            for w in set(_ALNUM.findall((s or "").lower())):
                seen.add((w, b))
        if seen:
            ws, bs = zip(*seen)
        else:
            ws, bs = (), ()
        return pa.table(
            {"token": pa.array(list(ws), pa.string()),
             "src": pa.array(list(bs), pa.int64()),
             "one": pa.array([1] * len(ws), pa.int64())}
        )

    dpairs = grouped_aggregate(
        ds.map_batches(pair_rows, batch_format="pyarrow"),
        ["token", "src"], Sum("one", alias_name="c"),
    )

    def to_mask(t: pa.Table) -> pa.Table:
        bit = np.left_shift(
            np.int64(1), pc.cast(t.column("src"), pa.int64()).to_numpy())
        return pa.table({"token": t.column("token"),
                         "mask": pa.array(bit, pa.int64())})

    masks = _gagg(dpairs.map_batches(to_mask, batch_format="pyarrow"),
                  "token", Sum("mask", alias_name="mask"))

    def pair_partials(t: pa.Table) -> pa.Table:
        m = pc.cast(t.column("mask"), pa.int64()).to_numpy()
        ii, jj, nn = [], [], []
        bits = [(m >> np.int64(i)) & np.int64(1) for i in range(S)]
        for i in range(S):
            ii.append(i); jj.append(i); nn.append(int(bits[i].sum()))
            for j in range(i + 1, S):
                c = int(np.sum(bits[i] & bits[j]))
                if c:
                    ii.append(i); jj.append(j); nn.append(c)
        return pa.table({"i": pa.array(ii, pa.int64()),
                         "j": pa.array(jj, pa.int64()),
                         "n": pa.array(nn, pa.int64())})

    agg = grouped_aggregate(
        masks.map_batches(pair_partials, batch_format="pyarrow"),
        ["i", "j"], Sum("n", alias_name="n"),
    ).take_all()  # ≤ |S|² rows — source-pair-, not corpus-, sized
    cnt = {(r["i"], r["j"]): r["n"] for r in agg}

    rows = []
    for i in range(S):
        for j in range(i + 1, S):
            inter = cnt.get((i, j), 0)
            union = cnt.get((i, i), 0) + cnt.get((j, j), 0) - inter
            rows.append((sources[i], sources[j], inter, union,
                         inter * 1_000_000 // union if union else 0))
    sa, sb, it, un, jp = zip(*rows) if rows else ((), (), (), (), ())
    return pa.table(
        {"source_a": pa.array(list(sa), pa.string()),
         "source_b": pa.array(list(sb), pa.string()),
         "inter_n": pa.array(list(it), pa.int64()),
         "union_n": pa.array(list(un), pa.int64()),
         "jaccard_ppm": pa.array(list(jp), pa.int64())}
    )


_CHUNK_K = 64


def q_doc_chunks(sf_dir: str, *, k: int = _CHUNK_K):
    """Fixed-size token chunking — the retrieval-indexing split complementary
    to seq_packing's concatenation: each document becomes ⌈n_tokens/k⌉ rows
    of (doc_id, chunk_id, n_tokens, chunk_text). Purely row-local flat-map
    (no shuffle at all); empty documents emit no chunks. The embarrassingly
    parallel shape every RAG/embedding-index build starts from."""
    ds = _rp(sf_dir, "documents", ["doc_id", "text"])

    def partial(t: pa.Table) -> pa.Table:
        ids, chunks, ntoks, texts = [], [], [], []
        for did, s in zip(pc.cast(t.column("doc_id"), pa.int64()).to_numpy(),
                          t.column("text").to_pylist()):
            toks = _ALNUM.findall((s or "").lower())
            for c in range(0, len(toks), k):
                piece = toks[c:c + k]
                ids.append(int(did))
                chunks.append(c // k)
                ntoks.append(len(piece))
                texts.append(" ".join(piece))
        return pa.table(
            {"doc_id": pa.array(ids, pa.int64()),
             "chunk_id": pa.array(chunks, pa.int64()),
             "n_tokens": pa.array(ntoks, pa.int64()),
             "chunk_text": pa.array(texts, pa.string())}
        )

    return ds.map_batches(partial, batch_format="pyarrow")


_INV_DF_CAP = 32


def q_inverted_index(sf_dir: str):
    """INVERTED-INDEX build over the corpus — the retrieval-index
    materialization: per term, EXACT document frequency plus the posting-
    list HEAD (first 32 docs by doc id, each at its first-occurrence token
    position). Stage 1 is row-local: each doc emits each DISTINCT term
    once, so (term, doc) rows are globally unique and df is a plain sum of
    per-batch partial counts. The per-batch COMBINER is lossless the same
    way top3_events_per_user's is: any doc in the global head-32 of a term
    is in its batch's head-32, so each batch ships ≤ 32 posting rows per
    term plus ONE count row — the shuffle is O(vocab·32·blocks), NOT
    O(index size), and a stopword's corpus-sized posting set never travels
    or materializes. Rows hash-partition on md5(term) so one
    ``map_groups`` bucket finalizes each term. Output: (token, df,
    postings) with postings 'doc:pos,…' sorted by doc id."""
    from ..functions.textfns import md5_hash64
    from ..stages.canonicalize import _compact_blocks

    ds = _rp(sf_dir, "documents", ["doc_id", "text"])
    P = _compact_blocks()

    def postings(t: pa.Table) -> pa.Table:
        heads: dict[str, list] = {}
        cnts: dict[str, int] = {}
        for did, s in zip(pc.cast(t.column("doc_id"), pa.int64()).to_pylist(),
                          t.column("text").to_pylist()):
            first: dict[str, int] = {}
            for i, w in enumerate(_ALNUM.findall((s or "").lower())):
                if w not in first:
                    first[w] = i
            for w, pos in first.items():
                cnts[w] = cnts.get(w, 0) + 1
                h = heads.setdefault(w, [])
                h.append((did, pos))
        o_t, o_d, o_p, o_c = [], [], [], []
        for w, h in heads.items():
            # docs arrive in arbitrary id order within the batch: keep the
            # 32 smallest doc ids (the batch-local head) + one count row
            h.sort()
            for did, pos in h[:_INV_DF_CAP]:
                o_t.append(w); o_d.append(did); o_p.append(pos); o_c.append(0)
            o_t.append(w); o_d.append(-1); o_p.append(0); o_c.append(cnts[w])
        part = np.fromiter((md5_hash64(w) % P for w in o_t),
                           dtype=np.int64, count=len(o_t))
        return pa.table(
            {"token": pa.array(o_t, pa.string()),
             "doc": pa.array(o_d, pa.int64()),
             "pos": pa.array(o_p, pa.int64()),
             "cnt": pa.array(o_c, pa.int64()),
             "__part": pa.array(part, pa.int64())}
        )

    def part_index(g: pd.DataFrame) -> pd.DataFrame:
        dfs = g.groupby("token", as_index=False)["cnt"].sum().rename(
            columns={"cnt": "df"})
        posts = g[g["doc"] >= 0].sort_values(["token", "doc"])
        posts = posts.groupby("token").head(_INV_DF_CAP)
        pairs = posts["doc"].astype(str) + ":" + posts["pos"].astype(str)
        agg = posts.assign(__pp=pairs).groupby("token", as_index=False).agg(
            postings=("__pp", ",".join))
        out = dfs.merge(agg, on="token", how="left")
        out["df"] = out["df"].astype("int64")
        out["postings"] = out["postings"].fillna("")
        return out[["token", "df", "postings"]]

    return (
        ds.map_batches(postings, batch_format="pyarrow")
        .groupby("__part")
        .map_groups(part_index, batch_format="pandas")
    )


_FH_DIMS = 64


def q_feature_hashing(sf_dir: str):
    """HASHING-TRICK featurization (Weinberger et al.): every document maps
    to a fixed 64-dim signed sparse count vector with dim = md5(term) % 64
    and sign = bit 6 of the hash — the signed trick that makes collision
    noise zero-mean. Needs NO vocabulary pass and no state, so the stage is
    entirely ROW-LOCAL with zero shuffle: the property that makes it the
    default featurizer when the vocabulary itself would be a 100-TB-scale
    distributed object. Zero-sum cells (sign cancellation) are dropped to
    keep the output sparse. Output: (doc_id, dim, val)."""
    from ..functions.textfns import md5_hash64

    ds = _rp(sf_dir, "documents", ["doc_id", "text"])

    def featurize(t: pa.Table) -> pa.Table:
        hcache: dict[str, tuple[int, int]] = {}
        o_id, o_dim, o_val = [], [], []
        for did, s in zip(pc.cast(t.column("doc_id"), pa.int64()).to_pylist(),
                          t.column("text").to_pylist()):
            cnt: dict[str, int] = {}
            for w in _ALNUM.findall((s or "").lower()):
                cnt[w] = cnt.get(w, 0) + 1
            cell: dict[int, int] = {}
            for w, c in cnt.items():
                if w in hcache:
                    d, sgn = hcache[w]
                else:
                    h = md5_hash64(w)
                    d, sgn = int(h % _FH_DIMS), (1 if (h // _FH_DIMS) % 2 else -1)
                    hcache[w] = (d, sgn)
                cell[d] = cell.get(d, 0) + sgn * c
            for d in sorted(cell):
                if cell[d]:
                    o_id.append(did); o_dim.append(d); o_val.append(cell[d])
        return pa.table(
            {"doc_id": pa.array(o_id, pa.int64()),
             "dim": pa.array(o_dim, pa.int64()),
             "val": pa.array(o_val, pa.int64())}
        )

    return ds.map_batches(featurize, batch_format="pyarrow")


_VOWEL_RUNS = re.compile(r"[aeiouy]+")
_SENT_ENDS = re.compile(r"[.!?]+")


def q_readability(sf_dir: str):
    """Flesch-style readability per document in integer milli-points —
    the classic curation quality gate alongside `quality`'s ratio checks.
    All three inputs are integer counts from compiled regexes (words =
    alnum runs, sentences = terminal-punctuation runs clamped ≥ 1,
    syllables ≈ vowel runs), and the score composes with integer floor
    divisions only: 206835 − 1015·W//S − 84600·Y//W — no float, so the
    value is engine-exact. Pure row-local map, ZERO shuffle."""
    ds = _rp(sf_dir, "documents", ["doc_id", "text"])

    def score(t: pa.Table) -> pa.Table:
        ids = pc.cast(t.column("doc_id"), pa.int64()).to_numpy()
        words, sents, sylls, scores = [], [], [], []
        for txt in t.column("text").to_pylist():
            low = (txt or "").lower()
            w = len(_ALNUM.findall(low))
            s = max(len(_SENT_ENDS.findall(low)), 1)
            y = len(_VOWEL_RUNS.findall(low))
            wc = max(w, 1)
            words.append(w)
            sents.append(s)
            sylls.append(y)
            scores.append(206_835 - (1_015 * w) // s - (84_600 * y) // wc)
        return pa.table(
            {"doc_id": pa.array(ids, pa.int64()),
             "n_words": pa.array(words, pa.int64()),
             "n_sents": pa.array(sents, pa.int64()),
             "n_sylls": pa.array(sylls, pa.int64()),
             "flesch_milli": pa.array(scores, pa.int64())})

    return ds.map_batches(score, batch_format="pyarrow")


def q_bpe_pair_counts(sf_dir: str):
    """BPE tokenizer training, round 1 — the top-20 adjacent character
    pairs (with the ``</w>`` end-of-word marker) weighted by corpus word
    frequency. The corpus collapses ONCE to the word vocabulary (Heaps'-law
    small), pairs partial-count per batch of the vocabulary, and the global
    pair table is character-alphabet² rows — trivially collectable at any
    corpus size. Ties break (count desc, left asc, right asc)."""
    from ..functions.bpe import _split_word, pair_counts, word_vocab

    vocab = word_vocab(_rp(sf_dir, "documents", ["text"]), "text",
                       _ALNUM).map_batches(
        lambda t: pa.table(
            {"symbols": pa.array([_split_word(w) for w in
                                  t.column("word").to_pylist()],
                                 pa.list_(pa.string())),
             "n": pc.cast(t.column("n"), pa.int64())}),
        batch_format="pyarrow")
    rows = pair_counts(vocab).take_all()
    rows.sort(key=lambda r: (-r["pair_count"], r["left"], r["right"]))
    top = rows[:20]
    return pa.table(
        {"left": pa.array([r["left"] for r in top], pa.string()),
         "right": pa.array([r["right"] for r in top], pa.string()),
         "pair_count": pa.array([int(r["pair_count"]) for r in top],
                                pa.int64())})


def q_bpe_merges(sf_dir: str):
    """Eight full BPE merge rounds over the corpus vocabulary — the
    iterative trainer (functions/bpe.train_bpe): per round a vocabulary-
    dataset pair count, a one-row global argmax, and a broadcast merge
    applied map-side. Not ANSI-SQL-expressible (each round's symbol
    sequences depend on the previous argmax); parity is pinned by
    tests/test_round3_ops.py against an independent single-process BPE
    reference, and determinism by the harness rerun."""
    from ..functions.bpe import train_bpe

    return train_bpe(_rp(sf_dir, "documents", ["text"]), "text", _ALNUM, 8)


def _pii_contact_text(t: pa.Table) -> pa.Table:
    """(c_custkey, text) with deterministic PII-bearing contact strings.

    The testdata tables carry no real PII (documents.text is digit-free), so
    the PII family exercises its regex kernels on text CONSTRUCTED from
    customer keys — integer-exact arithmetic shared verbatim with the SQL
    oracle, with the PII shape varying by c_custkey % 3 (email+phone / IPv4 /
    none) so redaction is non-uniform."""
    ks = pc.cast(t.column("c_custkey"), pa.int64()).to_pylist()
    names = t.column("c_name").to_pylist()
    segs = t.column("c_mktsegment").to_pylist()
    texts = []
    for k, nm, sg in zip(ks, names, segs):
        m = k % 3
        if m == 0:
            texts.append(
                f"reach {nm} at cust{k}@example.com or "
                f"555-{(k * 7) % 1000:03d}-{(k * 13) % 10000:04d}")
        elif m == 1:
            texts.append(
                f"{nm} logged in from 10.{k % 256}.{(k // 256) % 256}."
                f"{k % 250} while browsing {sg}")
        else:
            texts.append(f"no contact on file for {nm} in {sg}")
    return pa.table({"c_custkey": pa.array(ks, pa.int64()),
                     "text": pa.array(texts, pa.string())})


def q_pii_redact(sf_dir: str):
    """PII scrubbing — the pre-training curation stage (ROOTS / Dolma
    position: after dedup, before tokenization) the reference's
    already-anonymized CoNLL corpus never needed. Emails, NANP phone
    numbers and IPv4 addresses are replaced with typed placeholders and
    counted per row by functions/pii.py's vectorized RE2 kernels
    (pyarrow.compute.replace_substring_regex / count_substring_regex — one
    C++ pass per pattern over the whole column, zero Python per row). Pure
    row-local map, NO shuffle, NO state: at 100 TB it pipelines inside
    whatever pass already reads the text. DuckDB's regexp functions are the
    same RE2 engine, so the oracle replicates the kernel exactly.
    Output: (c_custkey, redacted, n_email, n_phone, n_ipv4)."""
    from ..functions.pii import pii_counts, redact

    ds = _rp(sf_dir, "customer", ["c_custkey", "c_name", "c_mktsegment"])

    def fn(t: pa.Table) -> pa.Table:
        built = _pii_contact_text(t)
        text = built.column("text")
        cols = {"c_custkey": built.column("c_custkey"),
                "redacted": redact(text)}
        cols.update(pii_counts(text))
        return pa.table(cols)

    return ds.map_batches(fn, batch_format="pyarrow")


def q_pii_stats(sf_dir: str):
    """Corpus-level PII audit over the same constructed contact text: per
    PII type, how many rows contain it and how many total occurrences — the
    go/no-go report a curation run publishes before releasing a corpus.
    Counts partial-aggregate per batch (3 rows out per batch regardless of
    batch size), then a 3-group groupby finishes — shuffle traffic is
    O(batches), not O(rows). Output: (pii_type, n_docs, n_hits)."""
    from ..functions.pii import pii_counts

    ds = _rp(sf_dir, "customer", ["c_custkey", "c_name", "c_mktsegment"])

    def partial(t: pa.Table) -> pa.Table:
        text = _pii_contact_text(t).column("text")
        counts = pii_counts(text)
        types, docs, hits = [], [], []
        for tag in ("email", "phone", "ipv4"):
            c = counts[f"n_{tag}"].to_numpy(zero_copy_only=False)
            types.append(tag)
            docs.append(int((c > 0).sum()))
            hits.append(int(c.sum()))
        return pa.table({"pii_type": pa.array(types, pa.string()),
                         "n_docs": pa.array(docs, pa.int64()),
                         "n_hits": pa.array(hits, pa.int64())})

    return _gagg(ds.map_batches(partial, batch_format="pyarrow"),
                 "pii_type",
                 Sum("n_docs", alias_name="n_docs"),
                 Sum("n_hits", alias_name="n_hits"))


_QC_BUCKETS = 2001  # weights in [-1000, +1000]


def q_quality_classifier(sf_dir: str):
    """Linear (fastText-style) quality-classifier INFERENCE: mean-pooled
    hashed-bag-of-words score with a sign threshold — the GPT-3/CCNet-shaped
    'does this look like reference text' filter, with the learned weight
    table replaced by a deterministic hash-derived one (md5(token) % 2001 −
    1000) so the oracle can replicate inference bit-for-bit. The shape is
    the real one: per-token weight lookup needs NO vocabulary object (the
    hash IS the embedding index — same trick as feature_hashing), pooling
    is a per-row integer sum, and the stage is row-local with zero shuffle.
    Zero-token docs are dropped (no tokens → no score), matching the SQL
    GROUP BY. Output: (doc_id, n_tokens, score_sum, keep)."""
    from ..functions.textfns import md5_hash64

    ds = _rp(sf_dir, "documents", ["doc_id", "text"])

    def score(t: pa.Table) -> pa.Table:
        wcache: dict[str, int] = {}
        o_id, o_n, o_s, o_k = [], [], [], []
        for did, s in zip(pc.cast(t.column("doc_id"), pa.int64()).to_pylist(),
                          t.column("text").to_pylist()):
            toks = _ALNUM.findall((s or "").lower())
            if not toks:
                continue
            tot = 0
            for w in toks:
                wt = wcache.get(w)
                if wt is None:
                    wt = int(md5_hash64(w) % _QC_BUCKETS) - 1000
                    wcache[w] = wt
                tot += wt
            o_id.append(did); o_n.append(len(toks)); o_s.append(tot)
            o_k.append(1 if tot >= 0 else 0)
        return pa.table({"doc_id": pa.array(o_id, pa.int64()),
                         "n_tokens": pa.array(o_n, pa.int64()),
                         "score_sum": pa.array(o_s, pa.int64()),
                         "keep": pa.array(o_k, pa.int64())})

    return ds.map_batches(score, batch_format="pyarrow")


_LM_MIN_N = 5


def q_lm_score(sf_dir: str, *, broadcast_limit: int = 5_000_000):
    """Bigram language-model doc scoring (the KenLM-shaped perplexity
    filter of CCNet, integer-exact): train conditional bigram counts over
    the corpus, keep bigrams with n ≥ 5 as the model, score every doc by
    Σ over its adjacent token pairs of p(w2|w1) in ppm (n(w1,w2)·10⁶ //
    prefix(w1), floor division — NO floats anywhere, so the oracle matches
    bit-for-bit). Two-pass shape: bigram partial-dicts per batch → ONE
    vocabulary-sized groupby; prefix denominators aggregate from the
    bigram table itself (Σ_w2 n(w1,w2), UNfiltered — the true conditional
    denominator). Up to ``broadcast_limit`` surviving bigrams the model is
    collected and broadcast once via ray.put and scoring is row-local; a
    web-scale filtered model is NOT broadcastable, so above the limit docs
    explode to (doc_id, bigram) rows that meet the model in a partitioned
    LEFT hash_join (one corpus-sized shuffle, model never leaves the
    cluster) and fold back per doc — both plans equality-tested at
    threshold 0. Docs with < 2 tokens have no bigrams and are dropped.
    Output: (doc_id, n_bigrams, n_hits, score_ppm)."""
    ds = _rp(sf_dir, "documents", ["doc_id", "text"])

    def bg_partial(t: pa.Table) -> pa.Table:
        counts: dict[str, int] = {}
        for s in t.column("text").to_pylist():
            toks = _ALNUM.findall((s or "").lower())
            for i in range(len(toks) - 1):
                bgk = toks[i] + " " + toks[i + 1]
                counts[bgk] = counts.get(bgk, 0) + 1
        return pa.table({"bigram": pa.array(list(counts), pa.string()),
                         "n": pa.array(list(counts.values()), pa.int64())})

    bg = _gagg(ds.map_batches(bg_partial, batch_format="pyarrow"),
               "bigram", Sum("n", alias_name="n")).materialize()

    def split_first(t: pa.Table) -> pa.Table:
        w1 = [b.split(" ", 1)[0] for b in t.column("bigram").to_pylist()]
        return pa.table({"w1": pa.array(w1, pa.string()),
                         "n": t.column("n")})

    pre = _gagg(bg.map_batches(split_first, batch_format="pyarrow"),
                "w1", Sum("n", alias_name="d"))

    model = bg.map_batches(
        lambda t: t.filter(pc.greater_equal(t.column("n"), _LM_MIN_N)),
        batch_format="pyarrow").materialize()  # filtered-model-sized

    if model.count() <= broadcast_limit:
        from ..stages.materialize import collect_table

        num = {r["bigram"]: int(r["n"]) for r in collect_table(model).to_pylist()}
        w1s = {b.split(" ", 1)[0] for b in num}

        def pre_filter(t: pa.Table) -> pa.Table:
            m = pa.array([w in w1s for w in t.column("w1").to_pylist()])
            return t.filter(m)

        den = {r["w1"]: int(r["d"])
               for r in collect_table(
                   pre.map_batches(pre_filter, batch_format="pyarrow")).to_pylist()}
        model_ref = ray.put((num, den))

        def score(t: pa.Table) -> pa.Table:
            num_m, den_m = ray.get(model_ref)
            o_id, o_nb, o_nh, o_sc = [], [], [], []
            for did, s in zip(
                    pc.cast(t.column("doc_id"), pa.int64()).to_pylist(),
                    t.column("text").to_pylist()):
                toks = _ALNUM.findall((s or "").lower())
                if len(toks) < 2:
                    continue
                nb, nh, sc = len(toks) - 1, 0, 0
                for i in range(nb):
                    c = num_m.get(toks[i] + " " + toks[i + 1])
                    if c is not None:
                        nh += 1
                        sc += c * 1_000_000 // den_m[toks[i]]
                o_id.append(did); o_nb.append(nb)
                o_nh.append(nh); o_sc.append(sc)
            return pa.table({"doc_id": pa.array(o_id, pa.int64()),
                             "n_bigrams": pa.array(o_nb, pa.int64()),
                             "n_hits": pa.array(o_nh, pa.int64()),
                             "score_ppm": pa.array(o_sc, pa.int64())})

        return ds.map_batches(score, batch_format="pyarrow")

    # model too large to broadcast: meet it in a partitioned join instead
    from ..stages.canonicalize import grouped_aggregate
    from ..stages.joins import hash_join

    # attach prefix denominators to the model ONCE (model-sized join)
    model_wd = hash_join(
        model.map_batches(
            lambda t: pa.table(
                {"bigram": t.column("bigram"),
                 "n": pc.cast(t.column("n"), pa.int64()),
                 "w1": pa.array([b.split(" ", 1)[0]
                                 for b in t.column("bigram").to_pylist()],
                                pa.string())}),
            batch_format="pyarrow"),
        pre, on=("w1",)).map_batches(
            lambda df: pd.DataFrame(
                {"bigram": df["bigram"],
                 "ppm": (df["n"].astype("int64") * 1_000_000
                         // df["d"].astype("int64"))}),
            batch_format="pandas")

    def explode(t: pa.Table) -> pa.Table:
        o_id, o_bg = [], []
        for did, s in zip(pc.cast(t.column("doc_id"), pa.int64()).to_pylist(),
                          t.column("text").to_pylist()):
            toks = _ALNUM.findall((s or "").lower())
            for i in range(len(toks) - 1):
                o_id.append(did)
                o_bg.append(toks[i] + " " + toks[i + 1])
        return pa.table({"doc_id": pa.array(o_id, pa.int64()),
                         "bigram": pa.array(o_bg, pa.string())})

    joined = hash_join(ds.map_batches(explode, batch_format="pyarrow"),
                       model_wd, on=("bigram",), how="left")

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                                 "n_bigrams": pd.Series([], dtype="int64"),
                                 "n_hits": pd.Series([], dtype="int64"),
                                 "score_ppm": pd.Series([], dtype="int64")})
        hit = df["ppm"].notna()
        return pd.DataFrame(
            {"doc_id": df["doc_id"].astype("int64"),
             "n_bigrams": np.ones(len(df), np.int64),
             "n_hits": hit.astype("int64"),
             "score_ppm": df["ppm"].fillna(0).astype("int64")})

    return grouped_aggregate(
        joined.map_batches(fold, batch_format="pandas"),
        ["doc_id"],
        Sum("n_bigrams", alias_name="n_bigrams"),
        Sum("n_hits", alias_name="n_hits"),
        Sum("score_ppm", alias_name="score_ppm"))


_BM25_TERMS = ("table", "spark", "window")
_BM25_K = 10


def q_bm25_search(sf_dir: str):
    """BM25 top-k retrieval for a fixed query — the lexical-search engine
    op that completes the inverted_index / phrase_search family — in an
    INTEGER-EXACT rational form (k1 = 6/5, b = 3/4 cross-multiplied away;
    idf_ppm = 10⁶(2N−2df+1) // (2df+1), the Robertson idf with the log
    dropped — rank-order-equivalent for the monotone part and bit-equal in
    SQL, where ln() would be float-rounding roulette). Physical plan: ONE
    tree-reduced stats pass (N, total corpus length, df per query term —
    a K+2-column scalar aggregate, no shuffle), broadcast scalars, then
    row-local scoring in Python big ints (the idf·tf product overflows
    int64 by design; the SQL side runs HUGEINT) and a LOSSLESS per-batch
    top-k partial → single-block final merge. At 100 TB the only traffic
    is K rows per batch. Output: top-10 (doc_id, score_ppm)."""
    ds = _rp(sf_dir, "documents", ["doc_id", "text"])
    terms = _BM25_TERMS

    def stats(t: pa.Table) -> pa.Table:
        n, totlen = 0, 0
        df = [0] * len(terms)
        for s in t.column("text").to_pylist():
            toks = _ALNUM.findall((s or "").lower())
            n += 1
            totlen += len(toks)
            for i, q in enumerate(terms):
                if q in toks:
                    df[i] += 1
        cols = {"n": pa.array([n], pa.int64()),
                "totlen": pa.array([totlen], pa.int64())}
        for i, q in enumerate(terms):
            cols[f"df_{i}"] = pa.array([df[i]], pa.int64())
        return pa.table(cols)

    agg = ds.map_batches(stats, batch_format="pyarrow").aggregate(
        Sum("n", alias_name="n"), Sum("totlen", alias_name="totlen"),
        *[Sum(f"df_{i}", alias_name=f"df_{i}") for i in range(len(terms))])
    if not agg or agg.get("n") is None or not int(agg["n"]):
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "score_ppm": pa.array([], pa.int64())})
    N, totlen = int(agg["n"]), int(agg["totlen"])
    idf = [1_000_000 * (2 * N - 2 * int(agg[f"df_{i}"]) + 1)
           // (2 * int(agg[f"df_{i}"]) + 1) if int(agg[f"df_{i}"]) else 0
           for i in range(len(terms))]

    def score(t: pa.Table) -> pa.Table:
        o_id, o_sc = [], []
        for did, s in zip(pc.cast(t.column("doc_id"), pa.int64()).to_pylist(),
                          t.column("text").to_pylist()):
            toks = _ALNUM.findall((s or "").lower())
            dl = len(toks)
            sc = 0
            for i, q in enumerate(terms):
                tf = toks.count(q)
                if tf:
                    # Python ints: idf * 22·tf·totlen exceeds int64
                    sc += (idf[i] * (22 * tf * totlen)
                           // (10 * tf * totlen + 3 * totlen + 9 * dl * N))
            if sc:
                o_id.append(did); o_sc.append(sc)
        df = pd.DataFrame({"doc_id": pd.array(o_id, dtype="int64"),
                           "score_ppm": pd.array(o_sc, dtype="int64")})
        return df.sort_values(["score_ppm", "doc_id"],
                              ascending=[False, True]).head(_BM25_K)

    def topk(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(["score_ppm", "doc_id"],
                              ascending=[False, True]).head(_BM25_K)

    return (ds.map_batches(score, batch_format="pyarrow")
            .repartition(1).map_batches(topk, batch_format="pandas"))


_DSIR_BUCKETS = 4096


def q_dsir_importance(sf_dir: str):
    """DSIR-style hashed n-gram importance weighting (Xie et al. 2023,
    "Data Selection for Language Models via Importance Resampling"): score
    every document by how much its hashed-unigram profile resembles the
    TARGET slice (here lang='en') relative to the RAW corpus — the
    data-selection scorer that needs no trained classifier, only two
    counting passes. DSIR proper uses log(p_t/p_r); log is not
    bit-reproducible across engines, so the weight is the same smoothed
    frequency ratio in integer ppm: w(h) = 10⁶·(n_tgt(h)+1) //
    (n_raw(h)+1) — per-bucket monotone in the classic weight.

    Plan: ONE corpus pass builds BOTH tallies (per-batch partial
    (h, n_raw, n_tgt) dicts → a ≤ 4096-row Sum aggregate — bounded
    sketch-sized state at any corpus size, the HLL discipline), the weight
    table broadcasts once via ``ray.put`` (16 KB — never a shuffle side),
    and scoring is a second row-local pass; text never enters an exchange.
    Zero-token docs drop (no tokens → no score), matching the SQL GROUP BY.
    Output: (doc_id, n_tokens, importance_sum). Reference analog: the
    aggregate-then-broadcast entity-pool pattern (src/augmentation.py:59-69)
    with the pool shrunk to a fixed-width hash table."""
    from ..functions.textfns import md5_hash64
    from ..stages.canonicalize import grouped_aggregate

    ds = _rp(sf_dir, "documents", ["doc_id", "text", "lang"])

    def _hash_tokens(s: str, cache: dict) -> list:
        out = []
        for w in _ALNUM.findall((s or "").lower()):
            h = cache.get(w)
            if h is None:
                h = int(md5_hash64(w) % _DSIR_BUCKETS)
                cache[w] = h
            out.append(h)
        return out

    def tally(t: pa.Table) -> pa.Table:
        cache: dict[str, int] = {}
        raw = np.zeros(_DSIR_BUCKETS, np.int64)
        tgt = np.zeros(_DSIR_BUCKETS, np.int64)
        for s, lang in zip(t.column("text").to_pylist(),
                           t.column("lang").to_pylist()):
            hs = _hash_tokens(s, cache)
            is_tgt = lang == "en"
            for h in hs:
                raw[h] += 1
                if is_tgt:
                    tgt[h] += 1
        nz = np.nonzero(raw)[0]
        return pa.table({"h": pa.array(nz, pa.int64()),
                         "n_raw": pa.array(raw[nz], pa.int64()),
                         "n_tgt": pa.array(tgt[nz], pa.int64())})

    counts = grouped_aggregate(
        ds.map_batches(tally, batch_format="pyarrow"), ["h"],
        Sum("n_raw", alias_name="n_raw"), Sum("n_tgt", alias_name="n_tgt"),
    )
    w = np.full(_DSIR_BUCKETS, 1_000_000, np.int64)  # unseen: (0+1)//(0+1)
    for b in counts.iter_batches(batch_size=8192, batch_format="pyarrow"):
        hs = pc.cast(b.column("h"), pa.int64()).to_numpy()
        nr = pc.cast(b.column("n_raw"), pa.int64()).to_numpy()
        nt = pc.cast(b.column("n_tgt"), pa.int64()).to_numpy()
        w[hs] = (nt + 1) * 1_000_000 // (nr + 1)
    wref = ray.put(w)

    def score(t: pa.Table) -> pa.Table:
        wt = ray.get(wref)
        cache: dict[str, int] = {}
        o_id, o_n, o_s = [], [], []
        for did, s in zip(pc.cast(t.column("doc_id"), pa.int64()).to_pylist(),
                          t.column("text").to_pylist()):
            hs = _hash_tokens(s, cache)
            if not hs:
                continue
            o_id.append(did)
            o_n.append(len(hs))
            o_s.append(int(wt[hs].sum()))
        return pa.table({"doc_id": pa.array(o_id, pa.int64()),
                         "n_tokens": pa.array(o_n, pa.int64()),
                         "importance_sum": pa.array(o_s, pa.int64())})

    return ds.map_batches(score, batch_format="pyarrow")
