"""Incremental curation update: dedup a NEW document batch against an
existing curated corpus WITHOUT re-reading the corpus text — the
continuously-crawled analog of pipelines/curation.py, mirroring
kg_update's frozen-state contract:

  * the previous snapshot's curated rows are IMMUTABLE — an already-kept
    doc is never re-decided, and a new doc that exactly or nearly
    duplicates a kept doc is DROPPED (frozen corpus wins);
  * the previous corpus participates only through its DISTILLED state
    (written by run_curation): per kept doc a content hash (exact-dup anti
    key, 24 B) and its LSH band rows (near-dup candidate key, 16×16 B) —
    nothing corpus-sized is re-read except the texts of actual near-dup
    CANDIDATES, fetched by id through the same Bloom-prefilter + hash-join
    path the batch LSH verifier uses;
  * new-only near-dup components keep the LONGEST version (the batch
    keep-best rule); exact-substring span removal runs among the new
    survivors (batch-internal — cross-batch span state would require a
    corpus-sized gram index, the documented trade);
  * snapshots are immutable dirs: ``out_dir`` holds the NEW batch's curated
    segment plus the MERGED state/bands tables, and its lineage records
    ``prev_dir`` — consumers read the snapshot chain with
    :func:`read_curated_chain`, and a bad update rolls back by pointing at
    the previous dir. (At 10^12-doc scale the merged-state rewrite would
    itself become segment-append; the chain layout already supports it.)

Caller contract: doc ids are globally unique across batches (< 2^32, the
LSH pair-key bound) and the previous batches' SOURCE doc tables remain
readable for candidate text fetch (crawl archives are immutable).
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data
from ray.data.aggregate import Max

from ..functions.blocking import bucket_pairs, pack_pairs, unpack_pair_table
from ..functions.hashing import stable_hash64
from ..stages.canonicalize import _compact_blocks, grouped_aggregate
from ..stages.joins import hash_join
from ..stages.materialize import write_partitioned
from ..state.manifest import table_complete

_M63 = (1 << 63) - 1


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
    ds = ray.data.read_parquet(dirs[0])
    for extra in dirs[1:]:
        ds = ds.union(ray.data.read_parquet(extra))
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
    from ..functions.dedup import (
        SHINGLERS,
        _pair_texts_joined,
        exact_dedup_groups,
        near_dup_keep_ids,
        span_dedup_rewrite,
    )
    from ..functions.textfns import band_buckets_batch, minhash_signatures_sql_batch
    from ..stages.textops import quality_batch

    if os.path.abspath(out_dir) == os.path.abspath(prev_dir):
        raise ValueError("out_dir must be a NEW snapshot dir (immutability)")
    for sub in ("state", "bands"):
        if not table_complete(os.path.join(prev_dir, sub)):
            raise ValueError(f"prev snapshot lacks a complete {sub}/ table — "
                             "was it written by run_curation(out_dir=...)?")

    prev_state = ray.data.read_parquet(os.path.join(prev_dir, "state"))
    prev_bands = ray.data.read_parquet(os.path.join(prev_dir, "bands"))
    stats: dict[str, int] = {"n_new_input": new_docs.count()}

    # ---- S1 quality gate + exact dedup among the NEW batch ---------------
    def keep_ids(t: pa.Table) -> pa.Table:
        q = quality_batch(t, text_col=text_col, id_col=id_col,
                          min_tokens=min_tokens,
                          max_punct_ratio=max_punct_ratio,
                          min_stopword_ratio=min_stopword_ratio)
        kept = q.filter(q.column("keep"))
        return pa.table({id_col: pc.cast(kept.column(id_col), pa.int64())})

    q_ids = new_docs.map_batches(keep_ids, batch_format="pyarrow").materialize()
    s1 = hash_join(new_docs.select_columns([id_col, text_col]), q_ids,
                   on=(id_col,)).materialize()
    e_keep = exact_dedup_groups(s1, text_col, id_col).map_batches(
        lambda t: pa.table({id_col: t.column("keep_id")})
        if t.num_rows else pa.table({id_col: pa.array([], pa.int64())}),
        batch_format="pyarrow",
    ).materialize()
    s2 = hash_join(s1, e_keep, on=(id_col,)).materialize()

    # ---- S2 exact dedup vs the FROZEN corpus: anti-join on content hash --
    def with_h(t: pa.Table) -> pa.Table:
        h = [stable_hash64(s or "") & _M63 for s in t.column(text_col).to_pylist()]
        return t.append_column("h", pa.array(h, pa.int64()))

    old_h = prev_state.map_batches(
        lambda t: pa.table({"h": pc.cast(t.column("h"), pa.int64()),
                            "m": pa.array(np.ones(t.num_rows, np.int64), pa.int64())})
        if t.num_rows else pa.table({"h": pa.array([], pa.int64()),
                                     "m": pa.array([], pa.int64())}),
        batch_format="pyarrow",
    )
    j = hash_join(s2.map_batches(with_h, batch_format="pyarrow"), old_h,
                  on=("h",), how="left")
    s3 = j.map_batches(
        lambda t: t.filter(pc.is_null(t.column("m"), nan_is_null=True))
        .drop_columns(["h", "m"])
        if t.num_rows and "m" in t.column_names
        else t.drop_columns([c for c in ("h", "m") if c in t.column_names]),
        batch_format="pyarrow",
    ).materialize()
    stats["n_after_exact"] = s3.count()

    # ---- S3 near-dup vs frozen corpus + within the new batch -------------
    shingler = SHINGLERS[shingle]

    def new_band_rows(t: pa.Table) -> pa.Table:
        ids = pc.cast(t.column(id_col), pa.int64()).to_numpy(zero_copy_only=False)
        sigs = minhash_signatures_sql_batch(
            [shingler(s or "") for s in t.column(text_col).to_pylist()], 64)
        buckets = band_buckets_batch(sigs, 16)
        return pa.table({"doc": pa.array(np.repeat(ids, 16), pa.int64()),
                         "bucket": pa.array(buckets.reshape(-1), pa.int64()),
                         "side": pa.array(["n"] * (len(ids) * 16), pa.string())})

    old_band_rows = prev_bands.map_batches(
        lambda t: pa.table({"doc": pc.cast(t.column("doc"), pa.int64()),
                            "bucket": pc.cast(t.column("bucket"), pa.int64()),
                            "side": pa.array(["o"] * t.num_rows, pa.string())})
        if t.num_rows else pa.table({"doc": pa.array([], pa.int64()),
                                     "bucket": pa.array([], pa.int64()),
                                     "side": pa.array([], pa.string())}),
        batch_format="pyarrow",
    )
    all_bands = s3.map_batches(new_band_rows, batch_format="pyarrow").union(
        old_band_rows)
    P = _compact_blocks()

    def add_part(t: pa.Table) -> pa.Table:
        part = pc.cast(t.column("bucket"), pa.int64()).to_numpy() % P
        return t.append_column("__part", pa.array(part, pa.int64()))

    def part_cands(group: pa.Table) -> pa.Table:
        # candidate pairs with ≥ 1 NEW member (old-old pairs are already
        # decided — the frozen corpus never re-pairs); same bucket cap /
        # sorted-chain skew fallback as the batch LSH plan
        i, j = bucket_pairs(group.column("bucket"), group.column("doc"), 64)
        old = pc.equal(group.column("side"), "o").to_numpy(zero_copy_only=False)
        keep = ~(old[i] & old[j])
        doc = pc.cast(group.column("doc"), pa.int64()).to_numpy()
        k = pack_pairs(doc[i[keep]], doc[j[keep]])
        return pa.table({"k": pa.array(k, pa.uint64())})

    from ray.data.aggregate import Count

    cand_pairs = (
        all_bands.map_batches(add_part, batch_format="pyarrow")
        .groupby("__part")
        .map_groups(part_cands, batch_format="pyarrow")
        .groupby("k").aggregate(Count(alias_name="_nb"))
        .map_batches(unpack_pair_table, batch_format="pyarrow")
        .materialize()
    )

    # verify candidates with exact Jaccard — texts fetched by id from the
    # (immutable) source tables, new and previous, candidates only
    docs_all = s3.select_columns([id_col, text_col]).union(
        prev_docs.select_columns([id_col, text_col]))
    if cand_pairs.count() > 0:
        with_texts = _pair_texts_joined(cand_pairs, docs_all, id_col, text_col)

        def verify(t: pa.Table) -> pa.Table:
            a_out, b_out = [], []
            memo: dict[int, set] = {}
            num, den = int(lsh_threshold * 1_000_000), 1_000_000
            for ia, ib, ta, tb in zip(t.column("id_a").to_pylist(),
                                      t.column("id_b").to_pylist(),
                                      t.column("text_a").to_pylist(),
                                      t.column("text_b").to_pylist()):
                sa = memo.setdefault(ia, set(shingler(ta or "")))
                sb = memo.setdefault(ib, set(shingler(tb or "")))
                ni = len(sa & sb)
                union = len(sa) + len(sb) - ni
                if union and ni * den >= union * num:
                    a_out.append(ia)
                    b_out.append(ib)
            return pa.table({"id_a": pa.array(a_out, pa.int64()),
                             "id_b": pa.array(b_out, pa.int64())})

        pairs = with_texts.map_batches(verify, batch_format="pyarrow").materialize()
    else:
        pairs = ray.data.from_arrow(pa.table({"id_a": pa.array([], pa.int64()),
                                              "id_b": pa.array([], pa.int64())}))

    # components over verified pairs; frozen-corpus rule then keep-best.
    # ONE label space: CC runs over ALL involved nodes (new ids + every pair
    # participant, old or new) — labeling only the new ids would compute
    # components of the new-restricted subgraph and lose old-contamination
    new_ids = s3.select_columns([id_col]).materialize()
    participants = pairs.map_batches(
        lambda t: pa.table({"node": pa.concat_arrays([
            pc.cast(t.column("id_a"), pa.int64()).combine_chunks(),
            pc.cast(t.column("id_b"), pa.int64()).combine_chunks()])})
        if t.num_rows else pa.table({"node": pa.array([], pa.int64())}),
        batch_format="pyarrow",
    )
    all_nodes = grouped_aggregate(
        new_ids.map_batches(
            lambda t: pa.table({"node": pc.cast(t.column(id_col), pa.int64()),
                                "one": pa.array(np.ones(t.num_rows, np.int64),
                                                pa.int64())}),
            batch_format="pyarrow",
        ).union(participants.map_batches(
            lambda t: t.append_column(
                "one", pa.array(np.ones(t.num_rows, np.int64), pa.int64())),
            batch_format="pyarrow",
        )),
        ["node"],
        Max("one", alias_name="one"),
    )  # distinct node set
    part_labels = near_dup_keep_ids(
        pairs, all_nodes.select_columns(["node"]), "node"
    ).map_batches(
        lambda t: pa.table({"node": t.column("node"), "comp": t.column("keep_id")}),
        batch_format="pyarrow",
    ).materialize()

    new_id_set_small = {r[id_col] for r in new_ids.take_all()} \
        if stats["n_after_exact"] <= 1_000_000 else None
    if new_id_set_small is not None:
        bad_comps = {
            r["comp"] for r in part_labels.take_all()
            if r["node"] not in new_id_set_small
        }
        labels = part_labels.map_batches(
            lambda t, _s=new_id_set_small: t.filter(pa.array(
                [n in _s for n in t.column("node").to_pylist()], pa.bool_()))
            .rename_columns([id_col, "comp"]),
            batch_format="pyarrow",
        )
    else:  # giant batch: distributed variant (anti-join new ids, collect comps)
        tagged = hash_join(
            part_labels,
            new_ids.map_batches(
                lambda t: pa.table({"node": pc.cast(t.column(id_col), pa.int64()),
                                    "m": pa.array(np.ones(t.num_rows, np.int64),
                                                  pa.int64())}),
                batch_format="pyarrow"),
            on=("node",), how="left",
        ).materialize()
        old_nodes = tagged.map_batches(
            lambda t: t.filter(pc.is_null(t.column("m"), nan_is_null=True)),
            batch_format="pyarrow",
        )
        bad_comps = {r["comp"] for r in
                     old_nodes.select_columns(["comp"]).take_all()}
        labels = tagged.map_batches(
            lambda t: t.filter(pc.invert(pc.is_null(t.column("m"),
                                                    nan_is_null=True)))
            .select(["node", "comp"]).rename_columns([id_col, "comp"]),
            batch_format="pyarrow",
        )

    bad_ref = ray.put(bad_comps)

    class _DropOldComps:
        def __init__(self, ref):
            self.bad = ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref

        def __call__(self, t: pa.Table) -> pa.Table:
            mask = [c not in self.bad for c in t.column("comp").to_pylist()]
            return t.filter(pa.array(mask, pa.bool_()))

    survivors_labels = labels.map_batches(_DropOldComps(bad_ref),
                                          batch_format="pyarrow").materialize()

    if survivors_labels.count() == 0:
        # every new doc duplicated the frozen corpus — empty segment
        # (empty datasets have no schema: guard BEFORE any join)
        stats["n_new_kept"] = 0
        winners = ray.data.from_arrow(
            pa.table({id_col: pa.array([], pa.int64())}))
        s4 = ray.data.from_arrow(
            pa.table({id_col: pa.array([], pa.int64()),
                      text_col: pa.array([], pa.string())})).materialize()
        curated_new = ray.data.from_arrow(
            pa.table({id_col: pa.array([], pa.int64()),
                      "n_tokens": pa.array([], pa.int64()),
                      "n_removed": pa.array([], pa.int64()),
                      "kept_text": pa.array([], pa.string())}))
    else:
        # keep-best (longest) among the remaining new-only components
        def tokn(t: pa.Table) -> pa.Table:
            from ..functions.dedup import _alnum

            rx = _alnum()
            n = [len(rx.findall((s_ or "").lower()))
                 for s_ in t.column(text_col).to_pylist()]
            return pa.table({id_col: pc.cast(t.column(id_col), pa.int64()),
                             "ntok": pa.array(n, pa.int64())})

        members = hash_join(survivors_labels,
                            s3.map_batches(tokn, batch_format="pyarrow"),
                            on=(id_col,))
        _MAXD = (1 << 32) - 1

        def packk(t: pa.Table) -> pa.Table:
            if t.num_rows == 0 or id_col not in t.column_names:
                return pa.table({"comp": pa.array([], pa.int64()),
                                 "key": pa.array([], pa.int64())})
            d = pc.cast(t.column(id_col), pa.int64()).to_numpy(zero_copy_only=False)
            ntk = pc.cast(t.column("ntok"), pa.int64()).to_numpy(zero_copy_only=False)
            key = (ntk << np.int64(32)) | (np.int64(_MAXD) - d)
            return pa.table({"comp": pc.cast(t.column("comp"), pa.int64()),
                             "key": pa.array(key, pa.int64())})

        best = grouped_aggregate(
            members.map_batches(packk, batch_format="pyarrow"),
            ["comp"], Max("key", alias_name="key"))
        winners = best.map_batches(
            lambda t: pa.table({
                id_col: pa.array(
                    np.int64(_MAXD) - (pc.cast(t.column("key"), pa.int64())
                                       .to_numpy(zero_copy_only=False)
                                       & np.int64(_MAXD)),
                    pa.int64())})
            if t.num_rows else pa.table({id_col: pa.array([], pa.int64())}),
            batch_format="pyarrow",
        ).materialize()
        stats["n_new_kept"] = winners.count()
        s4 = hash_join(s3, winners, on=(id_col,)).materialize()
        curated_new = None

    # ---- S4 span removal among the new survivors (batch-internal) --------
    if curated_new is None:
        curated_new = span_dedup_rewrite(s4, id_col, text_col, n=span_n)

    # ---- write the new snapshot ------------------------------------------
    lineage = {"prev_dir": os.path.abspath(prev_dir), **stats}
    write_partitioned(curated_new, os.path.join(out_dir, "curated"), id_col,
                      n_partitions=n_partitions, sort_key=id_col,
                      resume=resume, lineage=lineage)

    def new_state(t: pa.Table) -> pa.Table:
        ids = pc.cast(t.column(id_col), pa.int64()).to_numpy(zero_copy_only=False)
        h = [stable_hash64(s or "") & _M63 for s in t.column(text_col).to_pylist()]
        return pa.table({id_col: pa.array(ids, pa.int64()),
                         "h": pa.array(h, pa.int64())})

    def new_bands_out(t: pa.Table) -> pa.Table:
        ids = pc.cast(t.column(id_col), pa.int64()).to_numpy(zero_copy_only=False)
        sigs = minhash_signatures_sql_batch(
            [shingler(s or "") for s in t.column(text_col).to_pylist()], 64)
        buckets = band_buckets_batch(sigs, 16)
        return pa.table({"doc": pa.array(np.repeat(ids, 16), pa.int64()),
                         "bucket": pa.array(buckets.reshape(-1), pa.int64())})

    merged_state = prev_state.select_columns([id_col, "h"]).union(
        s4.map_batches(new_state, batch_format="pyarrow"))
    merged_bands = prev_bands.select_columns(["doc", "bucket"]).union(
        s4.map_batches(new_bands_out, batch_format="pyarrow"))
    write_partitioned(merged_state, os.path.join(out_dir, "state"), id_col,
                      n_partitions=n_partitions, sort_key=id_col,
                      resume=resume, lineage=lineage)
    write_partitioned(merged_bands, os.path.join(out_dir, "bands"), "doc",
                      n_partitions=n_partitions, sort_key=["doc", "bucket"],
                      resume=resume, lineage=lineage)
    return {"curated_new": ray.data.read_parquet(os.path.join(out_dir, "curated")),
            "stats": stats}
