"""Single-process kernel microbench: the hot per-batch kernels, no Ray.

Each kernel runs ``REPS`` times on one fixed seeded batch; the figure is
the median rows per second. Page kernels count pages (extract, sentseg) or
sentences (tagger, annotate, viterbi); document kernels count documents.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import pyarrow.compute as pc

from inputs import docs_batch, page_batch

KERNEL_LO = 90_000_000
PAGES = 400
DOCS = 800
REPS = 3


def _rate(fn, rows: int) -> float:
    times = []
    for _ in range(REPS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return rows / statistics.median(times)


def kernel_metrics(seed: int) -> dict[str, float]:
    from ner_extractor_ray.functions.dedup import SHINGLERS
    from ner_extractor_ray.functions.tagging import emissions_for_sentence
    from ner_extractor_ray.functions.textfns import minhash_signatures_sql_batch
    from ner_extractor_ray.functions.viterbi import N_LABELS, viterbi_decode_padded
    from ner_extractor_ray.stages import tagger as tagger_mod
    from ner_extractor_ray.stages.annotate import Annotator
    from ner_extractor_ray.stages.extract import extract_batch
    from ner_extractor_ray.stages.sentseg import sentseg_batch
    from ner_extractor_ray.stages.textops import quality_batch

    pages = page_batch(seed, KERNEL_LO, PAGES)["pages"]
    docs = docs_batch(seed, KERNEL_LO, DOCS)["docs"]
    out: dict[str, float] = {}

    text = extract_batch(pages)
    text = text.filter(pc.equal(text.column("lang"), "en"))  # run_kg's lang filter
    sents = sentseg_batch(text)
    n_sent = sents.num_rows
    tagger = tagger_mod.DeterministicTagger()

    def tag():
        tagger_mod._TAG_MEMO.clear()  # measure scoring, not memo hits
        return tagger(sents)

    tagged = tag()
    annotator = Annotator()
    out["kernel.extract_rows_per_s"] = _rate(lambda: extract_batch(pages), PAGES)
    out["kernel.sentseg_rows_per_s"] = _rate(lambda: sentseg_batch(text), text.num_rows)
    out["kernel.tagger_rows_per_s"] = _rate(tag, n_sent)
    out["kernel.annotate_rows_per_s"] = _rate(lambda: annotator(tagged), n_sent)

    # Viterbi alone, on the tagger's own length-sorted padded chunks
    toks = sents.column("tokens").to_pylist()
    ems = [emissions_for_sentence(t, tagger.trie) for t in toks]
    order = sorted(range(len(ems)), key=lambda i: len(ems[i]))
    chunks = []
    for c in range(0, len(order), 256):
        idx = order[c:c + 256]
        lengths = np.array([len(ems[i]) for i in idx], dtype=np.int64)
        em = np.zeros((len(idx), int(lengths.max()), N_LABELS))
        for j, i in enumerate(idx):
            em[j, :lengths[j]] = ems[i]
        chunks.append((em, lengths))
    out["kernel.viterbi_rows_per_s"] = _rate(
        lambda: [viterbi_decode_padded(em, ln) for em, ln in chunks], n_sent)
    out["stages.tagger.distinct_sentence_ratio"] = len(set(map(tuple, toks))) / n_sent

    out["kernel.quality_rows_per_s"] = _rate(
        lambda: quality_batch(docs, min_tokens=5, min_stopword_ratio=0.0), DOCS)
    texts = docs.column("text").to_pylist()
    shingle = SHINGLERS["word3"]
    out["kernel.minhash_rows_per_s"] = _rate(
        lambda: minhash_signatures_sql_batch([shingle(t) for t in texts], 64), DOCS)
    return out
