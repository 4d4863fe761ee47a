"""Stable, seed-free hashing used everywhere determinism is required.

The reference derives determinism from global RNG seeds and iteration order
(DistilBERT-CRF/src/utils.py:19-27, src/data_module.py:179-184). A distributed
engine cannot rely on call order, so every "random" or identity-assigning choice
here is a pure function of stable row keys. Python's builtin ``hash`` is salted
per process and MUST NOT be used.
"""

from __future__ import annotations

import hashlib

import numpy as np

def stable_hash64(s: str | bytes) -> int:
    """64-bit stable hash of a string (blake2b). Same value in every process."""
    if isinstance(s, str):
        s = s.encode("utf-8")
    return int.from_bytes(hashlib.blake2b(s, digest_size=8).digest(), "big")


def stable_id(s: str | bytes, prefix: str = "") -> str:
    """Hex entity/doc id, stable across processes and parallelism levels."""
    if isinstance(s, str):
        s = s.encode("utf-8")
    return prefix + hashlib.blake2b(s, digest_size=8).hexdigest()


def crc_bucket(values, n_buckets: int) -> np.ndarray:
    """Fast stable bucket assignment → int32 in [0, n_buckets). Non-string
    keys (int ids) hash via their decimal string so the bucket is a pure
    function of the VALUE, identical in every process and at any width."""
    import zlib

    def enc(v):
        if isinstance(v, str):
            return v.encode("utf-8")
        if isinstance(v, bytes):
            return v
        return str(v).encode("utf-8")

    return np.fromiter(
        (zlib.crc32(enc(v)) % n_buckets for v in values),
        dtype=np.int32,
        count=len(values),
    )
