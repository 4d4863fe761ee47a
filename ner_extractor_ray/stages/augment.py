"""Entity-aware augmentation — the reference's two-pass aggregate-then-map
pattern, distribution-ready (SURVEY.md T7/J2/D4/O5).

Reference semantics (DistilBERT-CRF/src/augmentation.py):
  1. build an entity POOL per type over the whole corpus (:59-69) — here a
     Ray aggregate over the tagged/mention rows, collected small and
     broadcast (``ray.put`` once);
  2. per sentence, replace entity spans with same-type donors from the pool
     (:92-95), skipping identity replacements (:96-97), rebuilding BIO tags
     with ``build_bio_tags`` (:143-151); augmented rows carry
     ``loss_weight = 0.5`` (src/data_module.py:172-192);
  3. the reference shuffles with a seeded RNG (:52-53) — we instead derive
     every choice from ``stable_hash64(url, sent_id, span)`` so output is
     identical at any parallelism (SURVEY.md §2.9 determinism rule).
"""

from __future__ import annotations

import pyarrow as pa
import ray
import ray.data

from ..functions.bio import build_bio_tags, extract_entities, fix_bio
from ..functions.hashing import stable_hash64
from .annotate import join_ranges, tagged_spans


def build_entity_pool(tagged: "ray.data.Dataset") -> dict[str, list[str]]:
    """Corpus-wide ``{type: sorted distinct surfaces}`` (the donor table).

    Distributed partial: per-batch (type, surface) sets → groupby-free
    driver merge of the small distinct table (surfaces vocabulary)."""

    def partial(t: pa.Table) -> pa.Table:
        spans, tokens = tagged_spans(t)
        return pa.table({
            "type": spans.type_array(),
            "surface": join_ranges(tokens, spans.start, spans.end),
        }).group_by(["type", "surface"]).aggregate([])

    pool: dict[str, set[str]] = {}
    for row in tagged.map_batches(partial, batch_format="pyarrow").take_all():
        pool.setdefault(row["type"], set()).add(row["surface"])
    return {k: sorted(v) for k, v in pool.items()}


class Augmenter:
    """Map stage: emit original rows plus hash-deterministic augmented rows."""

    def __init__(self, pool_ref, rate: float = 0.5, loss_weight: float = 0.5):
        self.pool = ray.get(pool_ref) if isinstance(pool_ref, ray.ObjectRef) else pool_ref
        self.rate = rate
        self.loss_weight = loss_weight

    def __call__(self, t: pa.Table) -> pa.Table:
        urls = t.column("url").to_pylist()
        sids = t.column("sent_id").to_pylist()
        toks_col = t.column("tokens").to_pylist()
        tags_col = t.column("tags").to_pylist()
        o_url, o_sid, o_tok, o_tag, o_w, o_aug = [], [], [], [], [], []
        for url, sid, tokens, tags in zip(urls, sids, toks_col, tags_col):
            o_url.append(url)
            o_sid.append(sid)
            o_tok.append(tokens)
            o_tag.append(tags)
            o_w.append(1.0)
            o_aug.append(False)
            h = stable_hash64(f"aug:{url}:{sid}")
            if (h % 10_000) / 10_000.0 >= self.rate:
                continue
            spans = extract_entities(fix_bio(list(tags)))
            if not spans:
                continue
            new_tokens: list[str] = []
            new_tags: list[str] = []
            prev_end = 0
            changed = False
            for i, (typ, s, e) in enumerate(spans):
                new_tokens.extend(tokens[prev_end:s])
                new_tags.extend(tags[prev_end:s])
                donors = self.pool.get(typ, [])
                original = " ".join(tokens[s:e])
                if donors:
                    pick = donors[stable_hash64(f"don:{url}:{sid}:{i}") % len(donors)]
                else:
                    pick = original
                if pick == original:  # skip identity replacement (aug.py:96-97)
                    new_tokens.extend(tokens[s:e])
                    new_tags.extend(tags[s:e])
                else:
                    parts = pick.split()
                    new_tokens.extend(parts)
                    new_tags.extend(build_bio_tags(typ, len(parts)))
                    changed = True
                prev_end = e
            new_tokens.extend(tokens[prev_end:])
            new_tags.extend(tags[prev_end:])
            if changed:
                o_url.append(url)
                o_sid.append(sid)
                o_tok.append(new_tokens)
                o_tag.append(new_tags)
                o_w.append(self.loss_weight)
                o_aug.append(True)
        return pa.table(
            {
                "url": pa.array(o_url, pa.string()),
                "sent_id": pa.array(o_sid, pa.int32()),
                "tokens": pa.array(o_tok, pa.list_(pa.string())),
                "tags": pa.array(o_tag, pa.list_(pa.string())),
                "loss_weight": pa.array(o_w, pa.float64()),
                "augmented": pa.array(o_aug, pa.bool_()),
            }
        )


def augment(tagged: "ray.data.Dataset", *, rate: float = 0.5) -> "ray.data.Dataset":
    """Two-pass: aggregate pool → broadcast → map (T7 aggregate-then-consult)."""
    pool = build_entity_pool(tagged)
    pool_ref = ray.put(pool)
    return tagged.map_batches(
        Augmenter(pool_ref, rate=rate), batch_format="pyarrow"
    )
