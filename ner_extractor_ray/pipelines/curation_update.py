"""Incremental curation update: dedup a NEW document batch against an
existing curated corpus WITHOUT re-reading the corpus text — the
continuously-crawled analog of pipelines/curation.py, mirroring
kg_update's frozen-state contract.

The update IS the batch curation stages (pipelines/curation.py) with the
previous snapshot folded in:

  * quality gate + exact dedup among the new batch — the batch step;
  * exact dedup vs the frozen corpus — an anti-join on the content hash of
    the snapshot's ``state`` table (the one update-only stage);
  * near-dup keep-best — the batch step with the snapshot's ``bands`` rows
    joining the LSH blocking as frozen rows (frozen–frozen pairs are never
    re-emitted), candidate texts fetched by id from the new batch ∪ the
    previous batches' source docs, and the frozen pair participants ranked
    above every new doc, so a component touching the frozen corpus keeps a
    frozen doc and drops all its new members (frozen corpus wins; an
    already-kept doc is never re-decided). New-only components keep the
    LONGEST version, exactly as the batch run would;
  * exact-substring span removal among the new survivors (batch-internal —
    cross-batch span state would require a corpus-sized gram index, the
    documented trade);
  * snapshots are immutable dirs: ``out_dir`` holds the NEW batch's curated
    segment plus the MERGED state/bands tables, and its lineage records
    ``prev_dir`` — consumers read the snapshot chain with
    :func:`read_curated_chain`, and a bad update rolls back by pointing at
    the previous dir. (At 10^12-doc scale the merged-state rewrite would
    itself become segment-append; the chain layout already supports it.)

Caller contract: doc ids are globally unique across batches (< 2^32, the
LSH pair-key bound; wider ids raise ValueError) and the previous batches'
SOURCE doc tables remain readable for candidate text fetch (crawl archives
are immutable).
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..functions.dedup import content_hash63
from ..stages.joins import hash_join
from ..stages.materialize import read_table
from ..state.manifest import table_complete
from .curation import near_dup_survivors, quality_exact_dedup, write_curation


def read_curated_chain(snapshot_dir: str) -> "ray.data.Dataset":
    """Union of the curated segments along the snapshot chain (this dir's
    segment plus every ``prev_dir`` reachable through lineage)."""
    dirs = []
    d = snapshot_dir
    while d:
        dirs.append(os.path.join(d, "curated"))
        manifest = os.path.join(d, "curated", "_TABLE_MANIFEST.json")
        prev = None
        if os.path.exists(manifest):
            with open(manifest) as f:
                prev = (json.load(f).get("lineage") or {}).get("prev_dir")
        d = prev
    ds = read_table(dirs[0])
    for extra in dirs[1:]:
        ds = ds.union(read_table(extra))
    return ds


def update_curation(
    prev_dir: str,
    new_docs: "ray.data.Dataset",
    prev_docs: "ray.data.Dataset",
    out_dir: str,
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
) -> dict:
    """Merge ``new_docs`` into the curated corpus at ``prev_dir``; write the
    new immutable snapshot at ``out_dir`` (must differ from prev_dir)."""
    if os.path.abspath(out_dir) == os.path.abspath(prev_dir):
        raise ValueError("out_dir must be a NEW snapshot dir (immutability)")
    for sub in ("state", "bands"):
        if not table_complete(os.path.join(prev_dir, sub)):
            raise ValueError(f"prev snapshot lacks a complete {sub}/ table — "
                             "was it written by run_curation(out_dir=...)?")

    prior_state = read_table(os.path.join(prev_dir, "state"))
    prior_bands = read_table(os.path.join(prev_dir, "bands"))
    stats: dict[str, int] = {"n_new_input": new_docs.count()}

    # ---- S1 quality gate + exact dedup among the NEW batch ---------------
    s2, _, _ = quality_exact_dedup(
        new_docs, id_col, text_col, min_tokens=min_tokens,
        max_punct_ratio=max_punct_ratio, min_stopword_ratio=min_stopword_ratio)

    # ---- S2 exact dedup vs the FROZEN corpus: anti-join on content hash --
    old_h = prior_state.map_batches(
        lambda t: pa.table({"h": pc.cast(t.column("h"), pa.int64()),
                            "m": pa.array(np.ones(t.num_rows, np.int64), pa.int64())}),
        batch_format="pyarrow",
    )
    j = hash_join(
        s2.map_batches(lambda t: t.append_column(
            "h", pa.array(content_hash63(t.column(text_col)), pa.int64())),
            batch_format="pyarrow"),
        old_h, on=("h",), how="left")
    s2 = j.map_batches(
        lambda t: t.filter(pc.is_null(t.column("m"), nan_is_null=True))
        .drop_columns(["h", "m"])
        if t.num_rows and "m" in t.column_names
        else t.drop_columns([c for c in ("h", "m") if c in t.column_names]),
        batch_format="pyarrow",
    ).materialize()
    stats["n_after_exact"] = s2.count()

    # ---- S3 near-dup keep-best with the frozen corpus folded in ----------
    _, w_ids, s3, bands = near_dup_survivors(
        s2, id_col, text_col, shingle=shingle, lsh_threshold=lsh_threshold,
        prior_bands=prior_bands, prior_docs=prev_docs,
        frozen=prior_state.select_columns([id_col]))
    stats["n_new_kept"] = w_ids.count()

    # ---- S4 span removal among the new survivors (batch-internal), and the
    # new snapshot: curated segment + merged state/bands ------------------
    lineage = {"prev_dir": os.path.abspath(prev_dir), **stats}
    curated_new = write_curation(
        out_dir, s3, w_ids, bands, s3, id_col, text_col, span_n=span_n,
        n_partitions=n_partitions, resume=resume, lineage=lineage,
        curated_lineage=lineage, prior_state=prior_state, prior_bands=prior_bands)
    return {"curated_new": curated_new, "stats": stats}
