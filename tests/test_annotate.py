"""The columnar BIO decode and Annotator against row-at-a-time oracles.

``decode_spans`` must equal ``extract_entities_fixbio`` row by row, and the
Annotator must emit exactly the table of ``_oracle_annotate`` below (the
per-sentence loop it replaced) — same rows, same order, same types — on
whole, sliced and multi-chunk batches."""

import random

import pyarrow as pa
import pytest

from ner_extractor_ray.functions.bio import decode_spans, extract_entities_fixbio
from ner_extractor_ray.functions.gazetteer import (
    RELATION_PATTERNS,
    alias_canonical_map,
    normalize_surface,
)
from ner_extractor_ray.stages.annotate import ANNOTATION_SCHEMA, Annotator

# LABELS plus tags outside them: an unknown type, bare prefixes, a non-BIO tag
_ALPHABET = ["O", "B-PER", "I-PER", "B-ORG", "I-ORG", "B-LOC", "I-LOC",
             "B-FOO", "I-FOO", "B-", "I-", "X-PER", ""]
_CASES = [
    ["I-PER"],                                  # orphan I-X
    ["O", "I-ORG", "I-ORG"],
    ["B-PER", "B-PER"],                         # B-X B-X
    ["B-PER", "I-PER", "I-ORG", "I-ORG"],       # type switch I-X I-Y
    ["I-PER", "I-LOC"],
    ["O", "O", "O"],                            # all O
    [],                                         # empty row
    ["O", "B-LOC"],                             # span ends at the row's end
    ["I-LOC", "I-LOC"],                         # same type as the row before
    ["B-FOO", "I-FOO", "O", "I-", "B-"],        # tags outside LABELS
]


def _random_rows(seed: int, n: int) -> list[list[str]]:
    rng = random.Random(seed)
    return [[rng.choice(_ALPHABET) for _ in range(rng.randrange(0, 9))]
            for _ in range(n)]


def _decoded_rows(tags) -> list[list[tuple[str, int, int]]]:
    spans = decode_spans(tags)
    out = [[] for _ in range(len(spans.offsets) - 1)]
    for r, s, e, t in zip(spans.row, spans.start, spans.end, spans.type_id):
        base = spans.offsets[r]
        out[r].append((spans.types[t], int(s - base), int(e - base)))
    return out


def _layouts(rows: list, typ: pa.DataType):
    """The same rows as one array, as a zero-copy slice of a longer array,
    and as a two-chunk chunked array."""
    arr = pa.array(rows, typ)
    padded = pa.array([["B-PER"]] + rows + [["I-PER"]], typ)
    half = len(rows) // 2
    yield "whole", arr
    yield "sliced", padded.slice(1, len(rows))
    yield "chunked", pa.chunked_array([padded.slice(1, half),
                                       padded.slice(1 + half, len(rows) - half)], typ)


@pytest.mark.parametrize("seed", range(5))
def test_decode_spans_matches_oracle(seed):
    rows = _CASES + _random_rows(seed, 400)
    random.Random(seed).shuffle(rows)
    expected = [extract_entities_fixbio(r) for r in rows]
    for layout, tags in _layouts(rows, pa.list_(pa.string())):
        assert _decoded_rows(tags) == expected, layout


def test_decode_spans_row_boundaries():
    # a span open at a row's end never continues into the next row
    rows = [["B-PER"], ["I-PER", "I-PER"], [], ["I-PER"], ["O"], ["B-ORG", "I-ORG"]]
    assert _decoded_rows(pa.array(rows)) == [extract_entities_fixbio(r) for r in rows]
    assert _decoded_rows(pa.array([], pa.list_(pa.string()))) == []
    # a null tag reads as O
    assert _decoded_rows(pa.array([["B-PER", None, "I-PER"]])) == [
        [("PER", 0, 1), ("PER", 2, 3)]]


def _oracle_annotate(batch: pa.Table, alias: dict) -> pa.Table:
    """Row-at-a-time reference: one Python loop per sentence."""
    def node_of(surface, typ):
        n = normalize_surface(surface)
        n = alias.get(n, n)
        return n, f"{typ}:{n}"

    m_rows, t_rows = [], []
    for url, sid, tokens, tags in zip(*(batch.column(c).to_pylist()
                                        for c in ("url", "sent_id", "tokens", "tags"))):
        spans = extract_entities_fixbio(tags)
        for typ, s, e in spans:
            surface = " ".join(tokens[s:e])
            norm, node = node_of(surface, typ)
            m_rows.append({"kind": "m", "url": url, "sent_id": sid, "start": s, "end": e,
                           "type": typ, "surface": surface, "norm_key": norm, "node": node})
        for (t1, s1, e1), (t2, s2, e2) in zip(spans, spans[1:]):
            pat = RELATION_PATTERNS.get(" ".join(tokens[e1:s2]))
            if pat is None:
                continue
            pred, role, w1, w2 = pat
            if (w1 != "*" and t1 != w1) or (w2 != "*" and t2 != w2):
                continue
            a, b = (" ".join(tokens[s1:e1]), t1), (" ".join(tokens[s2:e2]), t2)
            (subj, styp), (obj, otyp) = (a, b) if role == "first" else (b, a)
            t_rows.append({"kind": "t", "url": url, "sent_id": sid,
                           "subj": subj, "subj_type": styp, "subj_node": node_of(subj, styp)[1],
                           "pred": pred, "obj": obj, "obj_type": otyp,
                           "obj_node": node_of(obj, otyp)[1], "prov": f"{url}#{sid:06d}"})
    return pa.Table.from_pylist(m_rows + t_rows, schema=ANNOTATION_SCHEMA)


_NAMES = [["Bill", "Gates"], ["Microsoft"], ["I.B.M."], ["IBM"], ["the", "Company"],
          ["London"], ["Ada", "Lovelace"]]
_TYPES = ["PER", "ORG", "LOC", "FOO"]
_GAPS = list(RELATION_PATTERNS) + ["and", "was", "in", ""]


def _entity(rng) -> tuple[list[str], list[str]]:
    words = rng.choice(_NAMES)
    typ = rng.choice(_TYPES)
    tags = [f"B-{typ}"] + [f"I-{typ}"] * (len(words) - 1)
    if rng.random() < 0.2:  # orphan I- start or a type switch inside
        tags[rng.randrange(len(tags))] = f"I-{rng.choice(_TYPES)}"
    return list(words), tags


def _sentences(seed: int, n: int) -> pa.Table:
    """Sentences of entity / gap phrase runs, so relation patterns, their
    type filters and both subject roles all fire."""
    rng = random.Random(seed)
    rows = []
    for i in range(n):
        tokens, tags = _entity(rng) if rng.random() < 0.8 else ([], [])
        for _ in range(rng.randrange(0, 3)):
            gap = rng.choice(_GAPS).split()
            words, ent_tags = _entity(rng)
            tokens += gap + words
            tags += ["O"] * len(gap) + ent_tags
        rows.append({"url": f"https://e/{i // 3}", "sent_id": (i % 3) - (i % 7 == 0),
                     "tokens": tokens, "tags": tags})
    return pa.Table.from_pylist(rows)


def test_annotator_matches_row_oracle():
    alias = alias_canonical_map()
    annotator = Annotator(alias)
    batch = _sentences(3, 600)
    expected = _oracle_annotate(batch, alias)
    assert expected.num_rows > 0
    preds = {p for p in expected.column("pred").to_pylist() if p}
    assert preds == {p[0] for p in RELATION_PATTERNS.values()}
    assert any("#-" in p for p in expected.column("prov").to_pylist() if p)
    got = annotator(batch)
    assert got.schema == ANNOTATION_SCHEMA
    assert got.equals(expected)
    # sliced and multi-chunk batches, as Ray hands them to the map
    padded = pa.concat_tables([_sentences(4, 5), batch, _sentences(5, 5)])
    assert annotator(padded.slice(5, batch.num_rows)).equals(expected)
    chunked = pa.concat_tables([padded.slice(5, 250), padded.slice(255, 350)])
    assert annotator(chunked).equals(expected)


def test_annotator_empty_and_triple_free_batches():
    alias = alias_canonical_map()
    annotator = Annotator(alias)
    empty = pa.table({"url": pa.array([], pa.string()), "sent_id": pa.array([], pa.int32()),
                      "tokens": pa.array([], pa.list_(pa.string())),
                      "tags": pa.array([], pa.list_(pa.string()))})
    got = annotator(empty)
    assert got.num_rows == 0 and got.schema == ANNOTATION_SCHEMA
    no_triples = pa.Table.from_pylist([
        {"url": "u", "sent_id": 0, "tokens": ["Bill", "Gates", "and", "IBM"],
         "tags": ["B-PER", "I-PER", "O", "B-ORG"]},
        {"url": "u", "sent_id": 1, "tokens": ["nothing", "here"], "tags": ["O", "O"]},
    ])
    got = annotator(no_triples)
    assert got.column("kind").to_pylist() == ["m", "m"]
    assert got.equals(_oracle_annotate(no_triples, alias))


def test_annotator_rejects_token_tag_length_mismatch():
    batch = pa.Table.from_pylist([
        {"url": "u", "sent_id": 0, "tokens": ["Bill", "Gates"], "tags": ["B-PER", "I-PER", "O"]},
        {"url": "u", "sent_id": 1, "tokens": ["founded", "IBM"], "tags": ["O"]},
    ])
    with pytest.raises(ValueError, match="differ in length"):
        Annotator()(batch)
