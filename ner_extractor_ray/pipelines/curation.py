"""The curation flagship: raw documents → filtered, deduplicated,
span-rewritten training corpus — the end-to-end LLM-training-data pipeline
the beyond-reference operator families (SURVEY.md §2.11) compose into:

    quality gate (C4/Gopher rule filter, row-local)
      → exact dedup (md5 content hash, keep-min-id)           functions/dedup.py
      → near-dup dedup (MinHash-LSH pairs → CC → keep the
        LONGEST version per component)                        functions/dedup.py
      → exact-substring span removal (cross-doc-shared
        8-grams dropped from the surviving text)              functions/dedup.py
      → partitioned curated-corpus write with manifests       stages/materialize.py

Scale discipline: each decision runs in the exchange that already holds
its rows. Exact dedup keeps each content's min-id row inside its one
md5-bucketed shuffle; near-dup connected components label only the docs
that are in a pair (union-found on the driver for a small pair graph) and
reach every doc's rank through one left join; the near-dup decision is an
ID-ONLY table (8 B/row) attached back by one hash semi-join; the ``bands`` semi-join and the span
rewrite run inside the doc-partitioned writes (``write_partitioned(finish=)``).
Survivor tables and the MinHash band rows are materialized once at their
stage boundary (each feeds several branches; without the boundary the lazy
lineage re-executes once per consumer), and stage counts come from them.
With ``out_dir`` the state, bands and curated tables are written
concurrently as resumable partitioned Parquet tables. The stage helpers
below are shared with the incremental update
(pipelines/curation_update.py), which runs them with a frozen snapshot
folded in.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..functions.dedup import (
    band_rows,
    content_hash_rows,
    exact_dedup_survivors,
    lsh_near_dup_pairs,
    near_dup_keep_best_ids,
    span_dedup_rewrite,
    span_rewrite,
    span_tagged_rows,
)
from ..stages.joins import hash_join
from ..stages.materialize import read_table, write_tables
from ..state.manifest import table_complete


def _ids_only(ds: "ray.data.Dataset", id_col: str) -> "ray.data.Dataset":
    return ds.map_batches(
        lambda t: pa.table({id_col: pc.cast(t.column(id_col), pa.int64())})
        if t.num_rows else pa.table({id_col: pa.array([], pa.int64())}),
        batch_format="pyarrow",
    )


def quality_exact_dedup(
    docs: "ray.data.Dataset", id_col: str, text_col: str, *,
    min_tokens: int, max_punct_ratio: float, min_stopword_ratio: float,
) -> tuple["ray.data.Dataset", int, int]:
    """S1 quality gate + S2 exact dedup (md5 content hash, keeper = min id)
    → (survivors (id_col, text_col), n_quality, n_exact)."""
    from ..stages.textops import quality_batch

    # The gate is a pure per-row predicate, so it applies as a row-local
    # FILTER carrying (id, text) straight through — no id-table join: a join
    # here would ship the whole corpus through a shuffle to apply a
    # predicate each row can answer locally (fixed round 4).
    def keep_rows(t: pa.Table) -> pa.Table:
        q = quality_batch(t, text_col=text_col, id_col=id_col,
                          min_tokens=min_tokens,
                          max_punct_ratio=max_punct_ratio,
                          min_stopword_ratio=min_stopword_ratio)
        kept = t.filter(q.column("keep"))
        return pa.table({id_col: pc.cast(kept.column(id_col), pa.int64()),
                         text_col: pc.cast(kept.column(text_col), pa.string())})

    # each survivor table is consumed by SEVERAL downstream branches (s1:
    # its count + the dedup exchange; s2: band rows, LSH verify, token
    # counts and the semi-join) — materialize at the stage boundary or the
    # whole upstream lineage re-executes once per consumer (measured 247 s
    # -> ~30 s at sf0.1). At 100 TB this is the documented object-store
    # working set: the survivor table only shrinks stage over stage, and
    # with out_dir the curated result is the durable artifact.
    s1 = docs.select_columns([id_col, text_col]).map_batches(
        keep_rows, batch_format="pyarrow").materialize()
    s2 = exact_dedup_survivors(s1, text_col, id_col).materialize()
    return s2, s1.count(), s2.count()


def near_dup_survivors(
    s2: "ray.data.Dataset", id_col: str, text_col: str, *,
    shingle: str, lsh_threshold: float,
    prior_bands: "ray.data.Dataset | None" = None,
    prior_docs: "ray.data.Dataset | None" = None,
    frozen: "ray.data.Dataset | None" = None,
) -> tuple["ray.data.Dataset", ...]:
    """S3 near-dup keep-best (LSH pairs → CC → longest-version keeper),
    optionally against a frozen corpus (its band rows, source docs and
    ids) → (keep_best, survivor ids, survivors (id_col, text_col), s2's
    (doc, bucket) band rows). The band rows are computed once, feed the
    LSH blocking and are returned for the ``bands`` table."""
    bands = s2.map_batches(
        lambda t: band_rows(t, id_col, text_col, shingle=shingle),
        batch_format="pyarrow").materialize()
    pairs = lsh_near_dup_pairs(s2, text_col, id_col, shingle=shingle,
                               threshold=lsh_threshold, prior_bands=prior_bands,
                               prior_docs=prior_docs, bands=bands)
    kb = near_dup_keep_best_ids(pairs, s2, id_col, text_col, frozen=frozen)
    w_ids = _ids_only(
        kb.map_batches(
            lambda t: t.filter(pc.equal(t.column(id_col), t.column("keep_id")))
            if t.num_rows else t,
            batch_format="pyarrow",
        ),
        id_col,
    ).materialize()
    return kb, w_ids, hash_join(s2, w_ids, on=(id_col,)).materialize(), bands


# ``src`` of the rows written to ``bands``: a band row of a new doc (kept
# only if its doc survived), a survivor mark, a frozen corpus band row
_BAND, _MARK, _FROZEN = 0, 1, 2


def _tagged_bands(t: pa.Table, src: int) -> pa.Table:
    return pa.table({"doc": pc.cast(t.column("doc"), pa.int64()),
                     "bucket": pc.cast(t.column("bucket"), pa.int64()),
                     "src": pa.array(np.full(t.num_rows, src, np.int8))})


def _surviving_bands(t: pa.Table) -> pa.Table:
    """``bands`` write finish: the semi-join of the band rows on the survivor
    marks co-partitioned with them by doc; frozen rows pass through."""
    src = t.column("src")
    alive = pc.is_in(t.column("doc"),
                     value_set=t.filter(pc.equal(src, _MARK)).column("doc").combine_chunks())
    keep = pc.or_(pc.equal(src, _FROZEN), pc.and_(pc.equal(src, _BAND), alive))
    return t.filter(keep).select(["doc", "bucket"])


def write_curation(
    out_dir: str, survivors: "ray.data.Dataset", survivor_ids: "ray.data.Dataset",
    bands: "ray.data.Dataset", rewrite_src: "ray.data.Dataset",
    id_col: str, text_col: str, *,
    span_n: int, n_partitions: int, resume: bool,
    lineage: dict, curated_lineage: dict,
    prior_state: "ray.data.Dataset | None" = None,
    prior_bands: "ray.data.Dataset | None" = None,
) -> "ray.data.Dataset":
    """S4 + S5: the three output tables, written concurrently
    (:func:`write_tables`); returns ``curated`` read back.

    * ``curated`` — the span rewrite of ``rewrite_src``: its text and
      shared-gram rows (:func:`span_tagged_rows`) are partitioned by doc
      and each write task rewrites its partition (:func:`span_rewrite`).
      The rewrite therefore runs in ``n_partitions`` tasks, each holding
      1/``n_partitions`` of the survivors' text and shared-gram rows (the
      SCALE CONTRACT of :func:`write_partitioned`): size ``n_partitions``
      to at least the cluster's CPUs, or the rewrite leaves CPUs idle.
    * ``state`` and ``bands`` — the dedup STATE for incremental updates
      (pipelines/curation_update): per kept doc the ORIGINAL-text content
      hash (exact-dup anti key) and its LSH band rows (near-dup candidate
      key) — 24 B + 16×16 B per doc, so a later batch can dedup against
      this corpus without re-reading its text. ``bands`` is the survivors'
      subset of s2's band rows: band rows and ``survivor_ids`` share the
      doc partitioning and the write task keeps the marked docs' rows.
      ``prior_state``/``prior_bands`` are unioned in."""
    state = survivors.map_batches(
        lambda t: content_hash_rows(t, id_col, text_col), batch_format="pyarrow")
    band_out = bands.map_batches(lambda t: _tagged_bands(t, _BAND),
                                 batch_format="pyarrow").union(
        survivor_ids.map_batches(
            lambda t: _tagged_bands(pa.table({"doc": t.column(id_col),
                                              "bucket": pa.nulls(t.num_rows, pa.int64())}),
                                    _MARK),
            batch_format="pyarrow"))
    if prior_state is not None:
        state = prior_state.select_columns([id_col, "h"]).union(state)
        band_out = prior_bands.map_batches(lambda t: _tagged_bands(t, _FROZEN),
                                           batch_format="pyarrow").union(band_out)
    _, _, curated = write_tables([
        dict(ds=state, table_dir=os.path.join(out_dir, "state"), part_key=id_col,
             n_partitions=n_partitions, sort_key=id_col,
             lineage={"stage": "state", **lineage}),
        dict(ds=band_out, table_dir=os.path.join(out_dir, "bands"), part_key="doc",
             n_partitions=n_partitions, sort_key=["doc", "bucket"],
             lineage={"stage": "bands", **lineage}, finish=_surviving_bands),
        dict(ds=span_tagged_rows(rewrite_src, id_col, text_col, n=span_n),
             table_dir=os.path.join(out_dir, "curated"), part_key="doc",
             n_partitions=n_partitions, sort_key=id_col, lineage=curated_lineage,
             finish=lambda t: span_rewrite(t, id_col, n=span_n)),
    ], resume=resume)
    return curated


def run_curation(
    docs: "ray.data.Dataset",
    out_dir: str | None = None,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    n_partitions: int = 16,
    min_tokens: int = 5,
    max_punct_ratio: float = 0.5,
    min_stopword_ratio: float = 0.0,
    lsh_threshold: float = 0.8,
    shingle: str = "word3",
    span_n: int = 8,
    resume: bool = True,
    redact_pii: bool = False,
) -> dict:
    """Run the curation pipeline; returns stage stats + the curated Dataset.

    ``docs`` must carry ``id_col`` (int64-castable, < 2³², and UNIQUE: each
    stage keeps or drops a doc by its id — exact dedup keeps the min-id row
    of each content, which equals an id semi-join only when no two rows
    share an id) and ``text_col``. A wider id is rejected inside a Ray
    task, so the job fails with Ray's task error whose message carries
    ``ValueError: id/ntok exceed the packed-key range`` (or pack_pairs'
    ``ValueError: node ids exceed 32 bits``), not a bare ``ValueError``.
    Output rows: (id_col, n_tokens, n_removed, kept_text). With ``out_dir``
    the curated table is written partitioned (``part=crc(id) % n``) with
    per-partition manifests, next to the ``state`` and ``bands`` tables of
    :func:`write_curation`; a rerun short-circuits only when all three
    tables are complete.
    With ``redact_pii`` the surviving text is PII-scrubbed in place
    (functions/pii.py vectorized RE2 kernels) at the ROOTS/Dolma pipeline
    position — after dedup, before the corpus ships; row-local, so it
    fuses into the span-rewrite pass with zero extra traffic.
    """
    curated_dir = os.path.join(out_dir, "curated") if out_dir else None
    # the three tables are written concurrently, so a complete curated/
    # does not imply complete state/ and bands/: only a whole snapshot
    # short-circuits (a partial one reruns; write_tables skips its
    # complete tables and write_partitioned its complete partitions)
    if curated_dir and resume and all(
            table_complete(os.path.join(out_dir, sub))
            for sub in ("state", "bands", "curated")):
        curated = read_table(curated_dir)
        return {"curated": curated, "stats": {"resumed": True}}

    stats: dict[str, int] = {"n_input": docs.count()}

    # ---- S1 quality gate (row-local) + S2 exact dedup --------------------
    s2, stats["n_quality"], stats["n_exact"] = quality_exact_dedup(
        docs, id_col, text_col, min_tokens=min_tokens,
        max_punct_ratio=max_punct_ratio, min_stopword_ratio=min_stopword_ratio)

    # ---- S3 near-dup keep-best (LSH pairs → CC → longest-version keeper) -
    kb, w_ids, s3, bands = near_dup_survivors(
        s2, id_col, text_col, shingle=shingle, lsh_threshold=lsh_threshold)
    stats["n_neardup"] = w_ids.count()

    # ---- S3.5 optional PII scrub of the SURVIVING RAW text (row-local) ---
    # must run before the span rewrite: the rewrite's word tokenizer strips
    # the punctuation the PII patterns anchor on (a@b.com → "a b com"), so
    # scrubbing after it would miss everything. After dedup, before
    # tokenization — the ROOTS/Dolma position. Placeholders surface as
    # EMAIL / PHONE / IP tokens in kept_text; the raw values never reach it.
    rewrite_src = s3
    if redact_pii:
        from ..functions.pii import redact

        def _scrub(t: pa.Table) -> pa.Table:
            i = t.schema.get_field_index(text_col)
            return t.set_column(i, text_col, redact(t.column(text_col)))

        rewrite_src = s3.map_batches(_scrub, batch_format="pyarrow")

    # ---- S4 span removal + S5 the state, bands and curated tables -------
    if curated_dir:
        curated = write_curation(
            out_dir, s3, w_ids, bands, rewrite_src, id_col, text_col,
            span_n=span_n, n_partitions=n_partitions, resume=resume,
            lineage=stats,
            curated_lineage={"stage": "curated", "params": {
                "min_tokens": min_tokens, "lsh_threshold": lsh_threshold,
                "shingle": shingle, "span_n": span_n,
                "n_partitions": n_partitions}, **stats})
    else:
        curated = span_dedup_rewrite(rewrite_src, id_col, text_col,
                                     n=span_n).materialize()
    stats["n_curated"] = curated.count()
    return {"curated": curated, "stats": stats,
            "survivor_ids": w_ids, "keep_best": kb}
