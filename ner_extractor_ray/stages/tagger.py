"""S4 — NER scoring stage: emissions → Viterbi BIO tags.

The canonical stateful stage (SURVEY.md §2.3 T2/T4). Two interchangeable
scorers behind one interface (``__call__(pa.Table with tokens) -> +tags``),
per SURVEY.md §7.0:

  * ``DeterministicTagger`` — pure-numpy emission function (gazetteer trie +
    shape features) + the shared batched Viterbi; used in this sandbox (no
    torch) and by tests/bench. State pickles in microseconds → run as
    stateless tasks by default (pipelines/kg.py).
  * ``HFTagger`` — HuggingFace token-classification checkpoint; importable
    only when torch/transformers are installed. Heavy weights → run as an
    actor pool: ``map_batches(HFTagger, fn_constructor_kwargs={...},
    concurrency=(n,m), num_gpus=1, batch_size=B)`` — weights load ONCE per
    actor (reference analog: checkpoint load scripts/train_distilbert_crf.py:
    222-234, forward pass src/modeling.py:83-141).
"""

from __future__ import annotations

import pyarrow as pa
import ray

from .. import LABELS
from ..functions.gazetteer import gazetteer_token_trie
from ..functions.tagging import emissions_for_sentence


# distinct-sentence memo, worker-process lifetime (the _WP_CACHE pattern,
# stages/tokenize.py): tagging is a PURE function of the token sequence and
# web corpora repeat boilerplate sentences heavily (nav / footer / template
# text — measured repeat factor 11× on the bench corpus, ~1.3-2× within one
# 2048-row batch), so each distinct sentence is scored once per worker.
# Bounded: inserts stop at the cap; already-cached entries keep serving. At
# the cap the memo holds 200k tuple-of-str keys plus label-list values
# (to_pylist strings are not interned), i.e. hundreds of MB per worker for
# 20-40-token sentences — times the tagger actor count. Valid only for the PACKAGED gazetteer trie —
# gazetteer_token_trie() is lru_cached, so the keyed identity check below
# invalidates the memo if the trie object ever changes (custom gazetteers).
_TAG_MEMO: dict = {}
_TAG_MEMO_CAP = 200_000
_TAG_MEMO_TRIE = None


class DeterministicTagger:
    def __init__(self):
        # once per actor/worker: build the lookup state (the reference loads
        # model weights / tokenizer here — src/tokenization.py:11-47 analog)
        self.trie = gazetteer_token_trie()

    def __call__(self, batch: pa.Table) -> pa.Table:
        import numpy as np

        from ..functions.viterbi import N_LABELS, viterbi_decode_padded

        global _TAG_MEMO_TRIE
        if _TAG_MEMO_TRIE is not self.trie:  # new trie object → stale memo
            _TAG_MEMO.clear()
            _TAG_MEMO_TRIE = self.trie
        memo = _TAG_MEMO

        tokens_col = batch.column("tokens").to_pylist()
        keys = [tuple(t) for t in tokens_col]
        # score only the FIRST occurrence of each distinct unseen sentence
        fresh: dict = {}
        for k in keys:
            if k and k not in memo and k not in fresh:
                fresh[k] = None
        todo = list(fresh)
        if todo:
            emissions = [
                emissions_for_sentence(list(k), self.trie) for k in todo
            ]
            # batched Viterbi in length-sorted chunks: padding cost is
            # O(N × Tmax) per chunk, so one 192-token straggler must not pad
            # a whole batch of ~10-token sentences
            order = sorted(range(len(todo)), key=lambda i: len(todo[i]))
            CHUNK = 256
            for c in range(0, len(todo), CHUNK):
                idx = order[c : c + CHUNK]
                lengths = np.array(
                    [emissions[i].shape[0] for i in idx], dtype=np.int64)
                tmax = int(lengths.max())
                em = np.zeros((len(idx), tmax, N_LABELS), dtype=np.float64)
                for j, i in enumerate(idx):
                    em[j, : lengths[j]] = emissions[i]
                for i, path in zip(idx, viterbi_decode_padded(em, lengths)):
                    fresh[todo[i]] = [LABELS[k] for k in path]
            for k, v in fresh.items():
                if len(memo) < _TAG_MEMO_CAP:
                    memo[k] = v
        tags_out = [
            ([] if not k else memo[k] if k in memo else fresh[k])
            for k in keys
        ]
        return batch.append_column(
            "tags", pa.array(tags_out, pa.list_(pa.string())))


# ---- HFTagger pure parts (importable & testable WITHOUT torch) ------------

def project_emissions(emissions, label_order: list[str]):
    """(T, model_labels) → (T, LABELS) emission matrix in our label order.

    Model labels absent from our vocabulary are dropped; our labels absent
    from the model get −1e4 (never chosen by Viterbi unless nothing else
    fits). Mirrors the label-space adaptation of src/modeling.py:123-132."""
    import numpy as np

    out = np.full((emissions.shape[0], len(LABELS)), -1e4, dtype=np.float64)
    for j, lab in enumerate(label_order):
        if lab in LABELS:
            out[:, LABELS.index(lab)] = emissions[:, j]
    return out


def first_subword_emissions(logits_row, word_ids):
    """(T_subwords, L) logits + HF word_ids (None = special token) →
    (n_words, L): the FIRST subword's logits represent each word
    (src/data_module.py:98-110 alignment convention)."""
    import numpy as np

    first: dict[int, int] = {}
    for pos, w in enumerate(word_ids):
        if w is not None and w not in first:
            first[w] = pos
    if not first:
        return np.zeros((0, logits_row.shape[-1]))
    return np.stack([logits_row[first[w]] for w in sorted(first)])


def decode_projected(em, n_tokens: int) -> list[str]:
    """Projected emissions → BIO tags via the shared structural Viterbi;
    words lost to truncation get "O" (src/modeling.py truncation tail)."""
    from ..functions.viterbi import viterbi_decode

    path = viterbi_decode(em) if len(em) else []
    tags = [LABELS[k] for k in path]
    tags += ["O"] * (n_tokens - len(tags))
    return tags[:n_tokens]


try:  # optional real-model scorer when torch/transformers are installed
    import torch  # noqa: F401
    import transformers  # noqa: F401

    class HFTagger:
        """HF token-classification scorer, same interface as the surrogate.

        Pipeline shape mirrors the reference's inference path: fast tokenizer
        with ``is_split_into_words=True``, forward pass for per-subword
        logits, FIRST-subword emission per word (src/data_module.py:98-110
        alignment convention), then the SAME structural Viterbi as the
        surrogate so BIO validity is enforced identically.
        """

        def __init__(self, checkpoint_path: str, device: str | None = None,
                     max_length: int = 192):
            import torch as _t
            from transformers import AutoModelForTokenClassification, AutoTokenizer

            self.tokenizer = AutoTokenizer.from_pretrained(checkpoint_path, use_fast=True)
            self.model = AutoModelForTokenClassification.from_pretrained(checkpoint_path)
            self.model.eval()
            self.device = device or ("cuda" if _t.cuda.is_available() else "cpu")
            self.model.to(self.device)
            self.max_length = max_length
            id2label = self.model.config.id2label
            # map model label space onto our fixed vocabulary order
            self.label_order = [str(id2label[i]) for i in range(len(id2label))]

        def __call__(self, batch: pa.Table) -> pa.Table:
            import torch as _t

            tokens_col = batch.column("tokens").to_pylist()
            tags_out: list[list[str]] = []
            enc = self.tokenizer(
                tokens_col, is_split_into_words=True, truncation=True,
                max_length=self.max_length, padding=True, return_tensors="pt",
            ).to(self.device)
            with _t.no_grad():
                logits = self.model(**enc).logits.cpu().numpy()
            for i, tokens in enumerate(tokens_col):
                em = first_subword_emissions(logits[i], enc.word_ids(batch_index=i))
                em = project_emissions(em, self.label_order)
                tags_out.append(decode_projected(em, len(tokens)))
            return batch.append_column("tags", pa.array(tags_out, pa.list_(pa.string())))

except ImportError:  # pragma: no cover - torch not installed in this sandbox
    HFTagger = None


def default_tagger_concurrency() -> tuple[int, int]:
    """Size the scorer pool to the cluster, leaving headroom for the read and
    shuffle stages — a pool that reserves every CPU starves the reads and the
    pipeline deadlocks (observed at num_cpus=4 with a fixed pool of 4)."""
    cpus = int(ray.cluster_resources().get("CPU", 4)) if ray.is_initialized() else 4
    hi = max(1, cpus - 2)
    return (1, hi)
