"""BIO tag-stream utilities: repair, span decode, span encode.

Semantics parity with the reference:
  * ``fix_bio``   — orphan ``I-X`` becomes ``B-X`` when the previous tag is not
                    ``B-X``/``I-X`` (BiLSTM-CRF/5489Project_trainv2.ipynb cell 3).
  * ``extract_entities`` — B- starts a span, matching I- extends, anything else
                    flushes (BiLSTM-CRF/5489Project_testv2.ipynb cell 7;
                    seqeval ``get_entities`` as used in src/augmentation.py:154-160).
  * ``build_bio_tags`` — type + length → ``[B-X, I-X, ...]``
                    (src/augmentation.py:143-151).
  * ``decode_spans`` — ``extract_entities(fix_bio(tags))`` for every row of
                    an Arrow ``list<string>`` column at once.
Spans are half-open word-index intervals ``[start, end)``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def fix_bio(tags: list[str]) -> list[str]:
    out = list(tags)
    prev = "O"
    for i, tag in enumerate(out):
        if tag.startswith("I-"):
            ent = tag[2:]
            if prev not in (f"B-{ent}", f"I-{ent}"):
                out[i] = f"B-{ent}"
        prev = out[i]
    return out


def extract_entities(tags: list[str]) -> list[tuple[str, int, int]]:
    """Decode a BIO tag stream into ``(type, start, end)`` spans, half-open."""
    spans: list[tuple[str, int, int]] = []
    cur_type = None
    cur_start = 0
    for i, tag in enumerate(tags):
        if tag.startswith("B-"):
            if cur_type is not None:
                spans.append((cur_type, cur_start, i))
            cur_type, cur_start = tag[2:], i
        elif tag.startswith("I-") and cur_type == tag[2:]:
            continue
        else:
            if cur_type is not None:
                spans.append((cur_type, cur_start, i))
                cur_type = None
    if cur_type is not None:
        spans.append((cur_type, cur_start, len(tags)))
    return spans


def extract_entities_fixbio(tags) -> list[tuple[str, int, int]]:
    """One-pass ``extract_entities(fix_bio(tags))`` for a single row: the
    row-at-a-time reference that ``decode_spans`` (the Annotator's decode)
    is tested against.

    Equivalence: fix_bio rewrites an orphan ``I-X`` (previous post-fix tag
    not ``B-X``/``I-X``) to ``B-X``; in the fused decode that is exactly the
    ``I-X with cur_type != X`` case, which flushes the open span and starts
    a new X span — and ``cur_type == X`` holds iff the previous post-fix tag
    was ``B-X``/``I-X``. Pinned equal by the property test in
    test_functions.py."""
    spans: list[tuple[str, int, int]] = []
    cur = None
    start = 0
    for i, tag in enumerate(tags):
        if tag.startswith("B-"):
            if cur is not None:
                spans.append((cur, start, i))
            cur, start = tag[2:], i
        elif tag.startswith("I-"):
            ent = tag[2:]
            if cur != ent:
                if cur is not None:
                    spans.append((cur, start, i))
                cur, start = ent, i
        else:
            if cur is not None:
                spans.append((cur, start, i))
                cur = None
    if cur is not None:
        spans.append((cur, start, len(tags)))
    return spans


class BioSpans(NamedTuple):
    """Spans of a whole list column; positions index its flattened values."""

    row: np.ndarray      # list index (sentence) of each span
    start: np.ndarray    # flat position of the span's first tag
    end: np.ndarray      # flat position one past its last tag
    type_id: np.ndarray  # index into ``types``
    types: list[str]
    offsets: np.ndarray  # row boundaries in the flat values, from 0

    def type_array(self) -> pa.Array:
        """The type string of every span."""
        return pa.array(self.types, pa.string()).take(self.type_id)


def list_parts(arr) -> tuple[np.ndarray, pa.Array]:
    """``(offsets, values)`` of a list array or chunked array: offsets
    rebased to 0 and values cut to the rows it covers, so zero-copy slices
    work."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    offsets = arr.offsets.to_numpy()
    base = int(offsets[0])
    return offsets - base, arr.values.slice(base, int(offsets[-1]) - base)


def decode_spans(tags) -> BioSpans:
    """``extract_entities_fixbio`` over every row of a ``list<string>`` tag
    column at once, in row-then-start order.

    Tags are dictionary-encoded and only the distinct labels are parsed, so
    any ``B-``/``I-`` string decodes as in the oracle. A position continues
    the open span iff it is ``I-X``, not its row's first, and the previous
    tag is ``B-X`` or ``I-X``; every other ``B-``/``I-`` position starts a
    span, and a span ends before the next position that does not continue
    it (or at its row's end). A null tag reads as ``O``."""
    offsets, flat = list_parts(tags)
    enc = pc.dictionary_encode(flat)
    types: dict[str, int] = {}
    labels = enc.dictionary.to_pylist()
    # one slot per label plus a last one (index -1) for null tags
    tid_of = np.full(len(labels) + 1, -1, np.int64)
    is_i_of = np.zeros(len(labels) + 1, bool)
    for k, label in enumerate(labels):
        if label.startswith(("B-", "I-")):
            tid_of[k] = types.setdefault(label[2:], len(types))
            is_i_of[k] = label[0] == "I"
    codes = enc.indices.fill_null(-1).to_numpy()
    del enc
    tid = tid_of[codes]
    n = len(tid)
    cont = np.zeros(n, bool)
    cont[1:] = is_i_of[codes[1:]] & (tid[1:] == tid[:-1])
    firsts = offsets[:-1]
    cont[firsts[firsts < n]] = False
    in_span = tid >= 0
    start = np.flatnonzero(in_span & ~cont)
    in_span[:-1] &= ~cont[1:]  # now: the span's last position
    end = np.flatnonzero(in_span) + 1
    row = np.searchsorted(offsets, start, side="right") - 1
    return BioSpans(row, start, end, tid[start], list(types), offsets)


def build_bio_tags(ent_type: str, length: int) -> list[str]:
    if length <= 0:
        return []
    return [f"B-{ent_type}"] + [f"I-{ent_type}"] * (length - 1)
