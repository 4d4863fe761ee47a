"""Seeded benchmark inputs and their on-disk cache.

Every input is a pure function of ``(seed, index range)``:

* web pages come from the engine's own generator
  (``sources.pages.generate_pages``) with ``text`` nulled, so the pipeline
  really extracts text from HTML; the generator's gold mentions and triples
  travel with them for the output check;
* curation documents come from :func:`docs_batch` below, which plants exact
  duplicates, near duplicates, a shared boilerplate span and short
  low-quality docs, and returns the exact survivor plan.

Inputs are cached under the benchmark's work directory keyed by
``(kind, seed, lo, n)``. A cache entry stores a content digest (over the
decoded rows, not the file bytes) that is recomputed on every reuse, and
:func:`check_reference` pins the digest of a small reference sample so a
change to either generator fails the run instead of reading as a speed
change.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

# sha256 of the reference sample (pages seed 1234 [0, 24) + docs seed 1234
# [0, 64)); recompute with ``python3 kgbench/inputs.py`` after a deliberate
# generator change.
REFERENCE_DIGEST = "9e1483f02312caf6b198d1fa2ec8d209a4be43849b9a7e62077097b74af0ca25"

DOC_GROUP = 8  # documents per planting group; doc ranges align to it


def content_digest(tables: dict[str, pa.Table]) -> str:
    """sha256 over every table's rows in a canonical text form."""
    h = hashlib.sha256()
    for name in sorted(tables):
        t = tables[name]
        h.update(f"<{name}:{t.num_rows}>".encode())
        for col in sorted(t.column_names):
            h.update(f"[{col}]".encode())
            for v in t.column(col).to_pylist():
                h.update(repr(v).encode())
                h.update(b"\x00")
    return h.hexdigest()


# ------------------------------------------------------------------ pages

def page_batch(seed: int, lo: int, n: int) -> dict[str, pa.Table]:
    """Pages ``[lo, lo+n)`` with ``text`` nulled, plus gold tables."""
    from ner_extractor_ray.sources.pages import generate_pages

    pages, gold = generate_pages(n, seed=seed, start_index=lo)
    i = pages.schema.get_field_index("text")
    pages = pages.set_column(i, "text", pa.nulls(n, pa.string()))
    return {"pages": pages,
            "gold_mentions": gold["gold_mentions"],
            "gold_triples": gold["gold_triples"]}


# -------------------------------------------------------------- documents

_SYLLABLES = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]


def _words(rng: np.random.RandomState, n: int) -> list[str]:
    """``n`` words of 2-3 syllables (~350k distinct words)."""
    ks = rng.randint(2, 4, n)
    syl = rng.randint(0, len(_SYLLABLES), int(ks.sum()))
    ends = np.cumsum(ks)
    return ["".join(_SYLLABLES[j] for j in syl[e - k:e]) for k, e in zip(ks, ends)]


def _boilerplate(seed: int) -> list[str]:
    """One 12-token span per seed that many unique docs end with."""
    return _words(_rng(f"bp:{seed}"), 12)


def _rng(key: str) -> np.random.RandomState:
    d = hashlib.md5(key.encode()).digest()
    return np.random.RandomState(int.from_bytes(d[:4], "little"))


def _group(seed: int, g: int) -> list[tuple[str, str, str]]:
    """Families planted in group ``g``: ``DOC_GROUP`` (role, family, text)
    slots, shuffled. Roles: ``u`` unique, ``x`` exact copy, ``n`` near
    variant (its base plus 3 tokens: word-3-gram Jaccard ≥ 0.94), ``s``
    short (< 5 tokens, dropped by the quality gate)."""
    rng = _rng(f"grp:{seed}:{g}")
    bp = _boilerplate(seed)
    slots: list[tuple[str, str, str]] = []
    fam = 0
    while len(slots) < DOC_GROUP:
        room = DOC_GROUP - len(slots)
        kind = rng.choice(["unique", "exact", "near", "short"],
                          p=[0.45, 0.2, 0.25, 0.1])
        base = _words(rng, int(rng.randint(40, 80)))
        tag = f"{g}.{fam}"
        fam += 1
        if room == 1 and kind in ("exact", "near"):
            kind = "unique"
        if kind == "short":
            slots.append(("s", tag, " ".join(_words(rng, 3))))
        elif kind == "unique":
            if rng.uniform() < 0.3:
                base = base + bp
            slots.append(("u", tag, " ".join(base)))
        elif kind == "exact":
            copies = min(room, int(rng.randint(2, 4)))
            slots.extend(("x", tag, " ".join(base)) for _ in range(copies))
        else:
            slots.append(("x", tag, " ".join(base)))
            slots.append(("n", tag, " ".join(base + _words(rng, 3))))
            if room >= 3 and rng.uniform() < 0.3:
                slots.append(("x", tag, " ".join(base)))
    order = rng.permutation(DOC_GROUP)
    return [slots[int(k)] for k in order]


def _tokens(text: str) -> list[str]:
    return re.findall(r"[a-z0-9]+", text.lower())


def _span_kept(texts: dict[int, str], n: int = 8) -> dict[int, str]:
    """RefinedWeb span removal, written plainly: drop every token covered by
    a word-``n``-gram that occurs in at least two documents."""
    toks = {d: _tokens(t) for d, t in texts.items()}
    holders: Counter = Counter()
    for ts in toks.values():
        holders.update({tuple(ts[i:i + n]) for i in range(len(ts) - n + 1)})
    kept = {}
    for d, ts in toks.items():
        cov = [False] * len(ts)
        for i in range(len(ts) - n + 1):
            if holders[tuple(ts[i:i + n])] >= 2:
                cov[i:i + n] = [True] * n
        kept[d] = " ".join(t for t, c in zip(ts, cov) if not c)
    return kept


def docs_batch(seed: int, lo: int, n: int) -> dict[str, pa.Table]:
    """Documents ``[lo, lo+n)`` (``doc_id = index + 1``) and their plan.

    The plan is what ``run_curation`` must return: the survivor of every
    planted family (the near variant if there is one, else the min id) and
    its ``kept_text`` after span removal among the survivors -- the shared
    boilerplate, plus any 8-gram two survivors share by chance."""
    if lo % DOC_GROUP or n % DOC_GROUP:
        raise ValueError(f"doc ranges must align to {DOC_GROUP}")
    ids, texts = [], []
    keep: dict[int, str] = {}
    for g in range(lo // DOC_GROUP, (lo + n) // DOC_GROUP):
        fams: dict[str, list[tuple[int, str, str]]] = {}
        for k, (role, fam, text) in enumerate(_group(seed, g)):
            did = g * DOC_GROUP + k + 1
            ids.append(did)
            texts.append(text)
            fams.setdefault(fam, []).append((did, role, text))
        for members in fams.values():
            roles = {r for _, r, _ in members}
            if roles == {"s"}:
                continue
            if "n" in roles:  # the longer near variant wins its component
                did, _, text = next(m for m in members if m[1] == "n")
            else:  # unique doc or exact copies: min id
                did, _, text = min(members)
            keep[did] = text
    kept = _span_kept(keep)
    plan_ids = sorted(kept)
    return {"docs": pa.table({"doc_id": pa.array(ids, pa.int64()),
                              "text": pa.array(texts, pa.string())}),
            "plan": pa.table({"doc_id": pa.array(plan_ids, pa.int64()),
                              "kept_text": pa.array([kept[d] for d in plan_ids],
                                                    pa.string())})}


_MAKERS = {"pages": page_batch, "docs": docs_batch}


def reference_digest() -> str:
    return content_digest({**{f"p.{k}": v for k, v in page_batch(1234, 0, 24).items()},
                           **{f"d.{k}": v for k, v in docs_batch(1234, 0, 64).items()}})


def check_reference() -> None:
    got = reference_digest()
    if got != REFERENCE_DIGEST:
        raise RuntimeError(
            f"input generator changed: reference digest {got} != pinned "
            f"{REFERENCE_DIGEST}; results would not be comparable")


class InputCache:
    """Parquet cache of generated inputs under ``root``; one directory per
    ``(kind, seed, lo, n)`` holding the tables and a ``DIGEST`` file."""

    def __init__(self, root: str):
        self.root = root

    def get(self, kind: str, seed: int, lo: int, n: int) -> tuple[str, dict[str, pa.Table]]:
        """Return ``(dir, tables)``; generates and stores on a miss, and on a
        hit verifies the stored digest against the re-read rows."""
        d = os.path.join(self.root, f"{kind}-s{seed}-{lo}-{n}")
        meta = os.path.join(d, "DIGEST")
        if os.path.exists(meta):
            with open(meta) as fh:
                want = json.load(fh)
            tables = {name: pq.read_table(os.path.join(d, f"{name}.parquet"))
                      for name in want["tables"]}
            if content_digest(tables) != want["digest"]:
                raise RuntimeError(f"cached input {d} failed its digest check")
            return d, tables
        tables = _MAKERS[kind](seed, lo, n)
        tmp = d + f".tmp{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        for name, t in tables.items():
            pq.write_table(t, os.path.join(tmp, f"{name}.parquet"))
        with open(os.path.join(tmp, "DIGEST"), "w") as fh:
            json.dump({"tables": sorted(tables), "digest": content_digest(tables)}, fh)
        shutil.rmtree(d, ignore_errors=True)
        os.replace(tmp, d)
        return d, tables


if __name__ == "__main__":
    import sys

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    print(reference_digest())
