"""Vocab-file-driven WordPiece tokenizer (greedy longest match).

Real subword tokenization matching the contract of the reference's HF fast
tokenizer (DistilBERT-CRF/src/tokenization.py:11-47): a word decomposes into
1..k pieces via greedy longest-match against a vocabulary file, the first
piece bare, continuations ``##``-prefixed, out-of-alphabet words → ``[UNK]``.
Pure Python — no transformers dependency; the packaged default vocabulary
(``resources/wordpiece_vocab.txt``) is trained deterministically by
``tools/build_wordpiece_vocab.py`` (BPE-style merges over the gazetteer +
template corpus with an ASCII character alphabet, so any ASCII word always
tokenizes without ``[UNK]``).

Token ids are the piece's LINE INDEX in the vocab file — the standard
vocab.txt convention — replacing the round-1 hash-vocab stand-in.
"""

from __future__ import annotations

import functools
import os

UNK = "[UNK]"
SPECIALS = [UNK, "[PAD]", "[CLS]", "[SEP]"]
_DEFAULT_VOCAB = os.path.join(os.path.dirname(__file__), "..", "resources",
                              "wordpiece_vocab.txt")


def load_vocab(path: str | None = None) -> dict[str, int]:
    """vocab.txt → {piece: line_index}."""
    path = path or _DEFAULT_VOCAB
    out: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        for i, line in enumerate(fh):
            out[line.rstrip("\n")] = i
    return out


@functools.lru_cache(maxsize=1)
def default_vocab() -> dict[str, int]:
    """Packaged vocabulary, loaded once per process (worker-local state —
    the once-per-worker checkpoint-load pattern, SURVEY.md T1)."""
    return load_vocab()


def wordpiece_tokenize(
    word: str, vocab: dict[str, int] | None = None, *, max_chars: int = 64
) -> list[str]:
    """Greedy longest-match WordPiece: at each position take the LONGEST
    vocab piece (``##``-prefixed after the first); if no piece matches, the
    whole word is ``[UNK]`` (HF WordPiece semantics, all-or-nothing)."""
    vocab = vocab if vocab is not None else default_vocab()
    if not word or len(word) > max_chars:
        return [UNK]
    pieces: list[str] = []
    start = 0
    n = len(word)
    while start < n:
        end = n
        cur = None
        while start < end:
            sub = word[start:end]
            if start > 0:
                sub = "##" + sub
            if sub in vocab:
                cur = sub
                break
            end -= 1
        if cur is None:
            return [UNK]
        pieces.append(cur)
        start = end
    return pieces


def train_wordpiece_vocab(
    word_counts: dict[str, int], *, n_merges: int = 1200,
    alphabet: str | None = None,
) -> list[str]:
    """Deterministic BPE-style merge learning → WordPiece vocab list.

    Start from a character alphabet (every char as a word-start symbol and a
    ``##`` continuation symbol), repeatedly merge the highest-count adjacent
    symbol pair (ties broken lexicographically — no RNG, no dict-order
    dependence). Returns SPECIALS + sorted alphabet + merges in learned
    order, the layout ``load_vocab`` indexes.
    """
    import string

    alphabet = alphabet or (string.ascii_letters + string.digits + string.punctuation)
    base = sorted(set(alphabet))
    alpha_syms = base + ["##" + c for c in base]

    seqs: dict[str, tuple[list[str], int]] = {}
    for w in sorted(word_counts):
        if not w or any(c not in set(alphabet) for c in w):
            continue
        syms = [w[0]] + ["##" + c for c in w[1:]]
        seqs[w] = (syms, word_counts[w])

    merges: list[str] = []
    vocab_set = set(alpha_syms)
    for _ in range(n_merges):
        pair_counts: dict[tuple[str, str], int] = {}
        for syms, c in seqs.values():
            for a, b in zip(syms, syms[1:]):
                pair_counts[(a, b)] = pair_counts.get((a, b), 0) + c
        if not pair_counts:
            break
        best_pair, best_n = max(
            pair_counts.items(), key=lambda kv: (kv[1], kv[0])
        )
        if best_n < 2:
            break
        a, b = best_pair
        merged = a + (b[2:] if b.startswith("##") else b)
        if merged not in vocab_set:
            vocab_set.add(merged)
            merges.append(merged)
        for w, (syms, c) in seqs.items():
            if len(syms) < 2:
                continue
            out: list[str] = []
            i = 0
            while i < len(syms):
                if i + 1 < len(syms) and syms[i] == a and syms[i + 1] == b:
                    out.append(merged)
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            seqs[w] = (out, c)
    return SPECIALS + alpha_syms + merges
