"""Pure-numpy Viterbi decode over a linear-chain CRF.

Semantics mirror the reference's ``crf.viterbi_decode(emissions, mask)``
(DistilBERT-CRF/src/modeling.py:123-132): max-product dynamic program over
(start_transitions, transitions, end_transitions), masked positions skipped,
deterministic argmax tie-break (numpy argmax takes the FIRST maximal index —
ties can therefore never differ between the distributed pipeline and the
single-process oracle because both call THIS function; SURVEY.md §7.3).
"""

from __future__ import annotations

import numpy as np

from .. import LABELS

N_LABELS = len(LABELS)


def default_transitions() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fixed CRF parameters enforcing BIO validity.

    Structural constraints (large negative score instead of -inf to keep the
    DP total-order well defined):
      * ``I-X`` may only follow ``B-X`` or ``I-X``  (orphan I repaired, the
        `fix_bio` invariant — BiLSTM-CRF/5489Project_trainv2.ipynb cell 3).
      * A sequence may not start with ``I-X``.
    """
    neg = -1e4
    start = np.zeros(N_LABELS, dtype=np.float64)
    end = np.zeros(N_LABELS, dtype=np.float64)
    trans = np.zeros((N_LABELS, N_LABELS), dtype=np.float64)
    for j, lab_to in enumerate(LABELS):
        if lab_to.startswith("I-"):
            ent = lab_to[2:]
            start[j] = neg
            for i, lab_from in enumerate(LABELS):
                if lab_from not in (f"B-{ent}", f"I-{ent}"):
                    trans[i, j] = neg
    return start, trans, end


_START, _TRANS, _END = default_transitions()


def viterbi_decode(emissions: np.ndarray, length: int | None = None) -> np.ndarray:
    """Decode one sequence. ``emissions``: (T, N_LABELS) float array.

    Returns int32 array of label ids, length ``length`` (or T).
    """
    T = emissions.shape[0] if length is None else length
    if T == 0:
        return np.empty(0, dtype=np.int32)
    score = _START + emissions[0]
    back = np.empty((T, N_LABELS), dtype=np.int32)
    for t in range(1, T):
        # (from, to): prev score + transition
        total = score[:, None] + _TRANS
        back[t] = np.argmax(total, axis=0)
        score = total[back[t], np.arange(N_LABELS)] + emissions[t]
    score = score + _END
    path = np.empty(T, dtype=np.int32)
    path[T - 1] = int(np.argmax(score))
    for t in range(T - 1, 0, -1):
        path[t - 1] = back[t, path[t]]
    return path


def viterbi_decode_padded(em_batch: np.ndarray, lengths: np.ndarray) -> list[np.ndarray]:
    """Batched Viterbi: (N, Tmax, L) emissions + per-sentence lengths.

    Bit-identical to per-sentence ``viterbi_decode`` (asserted in tests): the
    DP recurrence, mask handling and FIRST-index argmax tie-break are the
    same — only the numpy calls are hoisted from per-(sentence, step) to
    per-step across the whole batch. Short sentences freeze their score once
    t ≥ length, so padding values never influence the result. This removed
    ~2/3 of the fused pass's UDF time (tiny-array numpy overhead).
    """
    em_batch = np.asarray(em_batch, dtype=np.float64)
    N, Tmax, L = em_batch.shape
    lengths = np.asarray(lengths, dtype=np.int64)
    score = _START[None, :] + em_batch[:, 0, :]               # (N, L)
    back = np.zeros((N, Tmax, L), dtype=np.int32)
    for t in range(1, Tmax):
        total = score[:, :, None] + _TRANS[None, :, :]        # (N, from, to)
        bt = total.argmax(axis=1).astype(np.int32)            # (N, L) first max
        new_score = (
            np.take_along_axis(total, bt[:, None, :], axis=1)[:, 0, :] + em_batch[:, t, :]
        )
        active = (t < lengths)[:, None]
        back[:, t, :] = bt
        score = np.where(active, new_score, score)
    final = score + _END[None, :]
    last = final.argmax(axis=1)
    out = []
    for i in range(N):
        T = int(lengths[i])
        if T == 0:
            out.append(np.empty(0, dtype=np.int32))
            continue
        path = np.empty(T, dtype=np.int32)
        path[T - 1] = int(last[i])
        for t in range(T - 1, 0, -1):
            path[t - 1] = back[i, t, path[t]]
        out.append(path)
    return out
