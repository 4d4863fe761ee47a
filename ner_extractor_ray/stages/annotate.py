"""Fused S5+S6+S7a — one corpus pass: tagged sentences → annotations table.

BIO decode (mentions), relation-pattern matching (raw triples) and surface
normalization/alias resolution happen in a SINGLE map_batches over the tagged
checkpoint, emitting a union-layout table (``kind`` = 'm' | 't'). The corpus
is scanned ONCE; the annotations table is orders of magnitude smaller than
the corpus (a few rows per sentence), so downstream consumers filter IT
instead of re-scanning tagged — this halved the end-to-end wall time vs
separate decode and relation passes (BENCH profile, 50k pages).

The Annotator is columnar: it never turns a sentence into Python lists. It
works on the flattened ``tokens``/``tags`` values and their list offsets:
``functions.bio.decode_spans`` finds every span of the batch with numpy
masks, one ``binary_join`` builds all surfaces and another the gaps between
adjacent spans of a sentence, normalize + alias run once per distinct
surface, and the gaps are matched against ``RELATION_PATTERNS`` with
``index_in``. Rows come out mentions first, then triples, each in sentence
and span order.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from ..functions.bio import BioSpans, decode_spans, list_parts
from ..functions.gazetteer import RELATION_PATTERNS, alias_canonical_map, normalize_surface
from .tagger import default_tagger_concurrency

_GAPS = pa.array(list(RELATION_PATTERNS), pa.string())
_PREDS = pa.array([p[0] for p in RELATION_PATTERNS.values()], pa.string())
_SUBJ_FIRST = np.array([p[1] == "first" for p in RELATION_PATTERNS.values()])
_TYPE1 = [p[2] for p in RELATION_PATTERNS.values()]
_TYPE2 = [p[3] for p in RELATION_PATTERNS.values()]
# a gap phrase with w spaces is the join of at most w + 1 tokens
_MAX_GAP = max(g.count(" ") for g in RELATION_PATTERNS) + 1


def join_ranges(values: pa.Array, lo: np.ndarray, hi: np.ndarray) -> pa.Array:
    """``" ".join(values[lo[k]:hi[k]])`` for every k: one take, one join."""
    lens = hi - lo
    offsets = np.zeros(len(lo) + 1, np.int32)
    np.cumsum(lens, out=offsets[1:])
    idx = np.repeat(lo - offsets[:-1], lens) + np.arange(offsets[-1])
    lists = pa.ListArray.from_arrays(pa.array(offsets), values.take(pa.array(idx)))
    return pc.binary_join(lists, " ")


def tagged_spans(batch: pa.Table) -> tuple[BioSpans, pa.Array]:
    """Spans of a tagged batch and its flat ``tokens`` values, which the
    spans' positions index. Raises ``ValueError`` when a sentence's tokens
    and tags differ in length."""
    offsets, tokens = list_parts(batch.column("tokens"))
    spans = decode_spans(batch.column("tags"))
    if not np.array_equal(offsets, spans.offsets):
        raise ValueError("tokens and tags differ in length in some sentence")
    return spans, tokens


def _type_ids(names: list, types: list[str]) -> np.ndarray:
    """Batch type id per pattern type: -1 for the ``*`` wildcard, -2 for a
    type absent from the batch (never matches)."""
    ids = {t: i for i, t in enumerate(types)}
    return np.array([-1 if n == "*" else ids.get(n, -2) for n in names], np.int64)


def _prov(url: pa.Array, sid: pa.Array) -> pa.Array:
    """``f"{url}#{sid:06d}"`` with Arrow string kernels."""
    sid = sid.cast(pa.int64())
    digits = pc.cast(pc.abs(sid), pa.string())
    num = pc.utf8_lpad(digits, width=6, padding="0")
    if len(sid) and pc.min(sid).as_py() < 0:
        neg = pc.binary_join_element_wise("-", pc.utf8_lpad(digits, width=5, padding="0"), "")
        num = pc.if_else(pc.less(sid, 0), neg, num)
    return pc.binary_join_element_wise(url, num, "#")


# the union layout: mention rows fill url..node, triple rows url, sent_id
# and subj..prov; every other cell is null
ANNOTATION_SCHEMA = pa.schema([
    ("kind", pa.string()), ("url", pa.string()), ("sent_id", pa.int32()),
    ("start", pa.int32()), ("end", pa.int32()), ("type", pa.string()),
    ("surface", pa.string()), ("norm_key", pa.string()), ("node", pa.string()),
    ("subj", pa.string()), ("subj_type", pa.string()), ("subj_node", pa.string()),
    ("pred", pa.string()), ("obj", pa.string()), ("obj_type", pa.string()),
    ("obj_node", pa.string()), ("prov", pa.string()),
])


class Annotator:
    """Actor-pool callable; state = broadcast alias map (once per actor)."""

    def __init__(self, alias_ref=None):
        if alias_ref is None:
            self.alias = alias_canonical_map()
        elif isinstance(alias_ref, ray.ObjectRef):
            self.alias = ray.get(alias_ref)
        else:
            self.alias = alias_ref

    def __call__(self, batch: pa.Table) -> pa.Table:
        spans, tokens = tagged_spans(batch)
        urls = batch.column("url").combine_chunks().cast(pa.string())
        sids = batch.column("sent_id").combine_chunks().cast(pa.int32())
        row, start, end, offsets = spans.row, spans.start, spans.end, spans.offsets

        # ---- mentions
        surface = join_ranges(tokens, start, end)
        distinct = pc.unique(surface)
        alias = self.alias
        norms = [normalize_surface(s) for s in distinct.to_pylist()]
        norm_key = pa.array([alias.get(n, n) for n in norms], pa.string()).take(
            pc.index_in(surface, value_set=distinct))
        typ = spans.type_array()
        node = pc.binary_join_element_wise(typ, norm_key, ":")

        # ---- triples: adjacent spans of one sentence whose gap is a pattern
        gap = start[1:] - end[:-1]
        k = np.flatnonzero((row[1:] == row[:-1]) & (gap > 0) & (gap <= _MAX_GAP))
        pat = pc.index_in(join_ranges(tokens, end[k], start[k + 1]), value_set=_GAPS)
        k = k[pat.is_valid().to_numpy(zero_copy_only=False)]
        pat = pat.drop_null().to_numpy()
        w1 = _type_ids(_TYPE1, spans.types)[pat]
        w2 = _type_ids(_TYPE2, spans.types)[pat]
        t1, t2 = spans.type_id[k], spans.type_id[k + 1]
        ok = ((w1 == -1) | (w1 == t1)) & ((w2 == -1) | (w2 == t2))
        k, pat = k[ok], pat[ok]
        first = _SUBJ_FIRST[pat]
        subj = pa.array(np.where(first, k, k + 1))
        obj = pa.array(np.where(first, k + 1, k))
        t_row = pa.array(row[k])
        t_url, t_sid = urls.take(t_row), sids.take(t_row)

        m_row = pa.array(row)
        nm, nt = len(start), len(k)
        rel = offsets[row]
        m_part = {
            "kind": pa.repeat("m", nm),
            "url": urls.take(m_row),
            "sent_id": sids.take(m_row),
            "start": pa.array((start - rel).astype(np.int32)),
            "end": pa.array((end - rel).astype(np.int32)),
            "type": typ,
            "surface": surface,
            "norm_key": norm_key,
            "node": node,
        }
        t_part = {
            "kind": pa.repeat("t", nt),
            "url": t_url,
            "sent_id": t_sid,
            "subj": surface.take(subj),
            "subj_type": typ.take(subj),
            "subj_node": node.take(subj),
            "pred": _PREDS.take(pa.array(pat)),
            "obj": surface.take(obj),
            "obj_type": typ.take(obj),
            "obj_node": node.take(obj),
            "prov": _prov(t_url, t_sid),
        }
        return pa.Table.from_arrays(
            [pa.concat_arrays([m_part.get(f.name, pa.nulls(nm, f.type)),
                               t_part.get(f.name, pa.nulls(nt, f.type))])
             for f in ANNOTATION_SCHEMA],
            schema=ANNOTATION_SCHEMA,
        )


MENTION_COLS = ["url", "sent_id", "start", "end", "type", "surface", "norm_key", "node"]
TRIPLE_COLS = ["url", "sent_id", "subj", "subj_type", "subj_node",
               "pred", "obj", "obj_type", "obj_node", "prov"]


def kind_filter(kind: str, cols: list[str]):
    """Batch fn: the annotation rows of one ``kind``, projected to ``cols``."""

    def fn(t: pa.Table) -> pa.Table:
        return t.filter(pc.equal(t.column("kind"), kind)).select(cols)

    return fn


def split_annotations(annotations: "ray.data.Dataset"):
    """annotations → (mentions_ds, triples_ds) via cheap filters over the
    small materialized table (no corpus re-scan)."""
    return (annotations.map_batches(kind_filter("m", MENTION_COLS), batch_format="pyarrow"),
            annotations.map_batches(kind_filter("t", TRIPLE_COLS), batch_format="pyarrow"))


def annotate_sentences(tagged: "ray.data.Dataset", *, batch_size: int,
                       use_actors: bool = False, concurrency=None) -> "ray.data.Dataset":
    """Tagged sentences → the annotations table (lazy). ``use_actors`` runs
    the Annotator as an actor pool (``concurrency`` actors, by default
    ``default_tagger_concurrency()``) that fetches the alias map once from
    the object store; otherwise it runs as stateless tasks."""
    alias = alias_canonical_map()
    if not use_actors:
        return tagged.map_batches(Annotator(alias), batch_format="pyarrow",
                                  batch_size=batch_size)
    return tagged.map_batches(
        Annotator, batch_format="pyarrow", batch_size=batch_size,
        fn_constructor_kwargs={"alias_ref": ray.put(alias)},
        concurrency=concurrency or default_tagger_concurrency(),
    )
