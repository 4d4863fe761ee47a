"""Multimodal column stages — opaque binary payloads with typed metadata.

Large-scale training-data pipelines carry images/audio/video as ``binary``
columns. The image/audio codec libraries are NOT in this container, so the
codec kernels are pluggable: the default ``FakeCodec`` is a deterministic
stand-in (hash-seeded pixels) and a real codec (PIL/torchvision/ffmpeg) drops
in behind the same interface; ``RealCodec`` raises ``NotImplementedError``
with instructions. The RAY-SIDE PLUMBING — schemas, small batch sizes for fat
rows, actor-pool stage shape, output layout — is real and tested.

Design rules for fat binary rows (prompt "Memory-aware"):
  * small ``batch_size`` (payload bytes × batch_size × concurrency must fit a
    worker heap); callers size it from ``payload_bytes_hint``;
  * payload column dropped as soon as features are extracted, exactly like
    the html column in S1 (SURVEY.md §7.3 "very wide rows");
  * stages are actor pools (``use_actors=True`` path) when the codec holds
    heavy state (model weights), tasks otherwise.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data

from ..functions.hashing import stable_hash64


class FakeCodec:
    """Deterministic codec stand-in: payload bytes → (h, w, 3) uint8 'pixels'
    seeded by the payload hash. Identical output for identical bytes at any
    parallelism — good enough to exercise every downstream kernel."""

    def decode_image(self, payload: bytes, *, size: tuple[int, int] = (32, 32)) -> np.ndarray:
        rng = np.random.RandomState(stable_hash64(payload or b"") % (2**32))
        return rng.randint(0, 256, size=(size[0], size[1], 3), dtype=np.uint8)

    def sample_frames(self, payload: bytes, *, n_frames: int = 4,
                      size: tuple[int, int] = (16, 16)) -> list[np.ndarray]:
        return [
            self.decode_image((payload or b"") + i.to_bytes(4, "big"), size=size)
            for i in range(n_frames)
        ]

    def decode_audio(self, payload: bytes, *, n_samples: int = 4096) -> np.ndarray:
        """payload bytes → int16 PCM 'waveform' seeded by the payload hash —
        length scales with payload size like a real compressed stream."""
        rng = np.random.RandomState(stable_hash64(payload or b"") % (2**32))
        n = max(256, min(n_samples, len(payload or b"") * 32))
        return rng.randint(-(2**15), 2**15, size=n, dtype=np.int16)


class PatternCodec:
    """Test codec with CONTROLLED pixels: the payload's first 8 bytes are an
    8×8 bit pattern; bit (r, c) becomes a 4×4 block of brightness 200 (set)
    or 0 (clear) in a 32×32 image. ImageFeatureStage's phash samples pixel
    (4r, 4c) — exactly cell (r, c) — so planted Hamming distances between
    payloads are exact. Lives in the library (not test code) because Ray
    workers must unpickle the codec."""

    def decode_image(self, payload: bytes, *, size: tuple[int, int] = (32, 32)) -> np.ndarray:
        p = (bytes(payload or b"") + b"\x00" * 8)[:8]
        img = np.zeros((32, 32, 3), np.uint8)
        for r in range(8):
            for c in range(8):
                if (p[r] >> c) & 1:
                    img[4 * r:4 * r + 4, 4 * c:4 * c + 4, :] = 200
        return img


class RealCodec:  # pragma: no cover - requires image libs not in this sandbox
    def __init__(self):
        raise NotImplementedError(
            "Real image/audio decode requires PIL/torchvision/ffmpeg, which are "
            "not installed in this environment. Plug a codec implementing "
            "decode_image/sample_frames into the stage constructors."
        )


def _mean_rgb(img: np.ndarray) -> list[float]:
    return [float(x) for x in img.reshape(-1, 3).mean(axis=0)]


class ImageFeatureStage:
    """(id, payload: binary) → (id, height, width, mean_r/g/b, phash) —
    decode + resize + feature-extract in one pass, payload dropped on output."""

    def __init__(self, codec=None, size: tuple[int, int] = (32, 32),
                 id_col: str = "id", payload_col: str = "payload"):
        self.codec = codec or FakeCodec()
        self.size = size
        self.id_col = id_col
        self.payload_col = payload_col

    def __call__(self, t: pa.Table) -> pa.Table:
        ids = t.column(self.id_col).to_pylist()
        payloads = t.column(self.payload_col).to_pylist()
        h_out, w_out, r, g, b, ph = [], [], [], [], [], []
        for p in payloads:
            img = self.codec.decode_image(p, size=self.size)
            h_out.append(img.shape[0])
            w_out.append(img.shape[1])
            mr, mg, mb = _mean_rgb(img)
            r.append(mr)
            g.append(mg)
            b.append(mb)
            # perceptual-hash stand-in: sign pattern of 8x8 downsample
            small = img[:: max(1, img.shape[0] // 8), :: max(1, img.shape[1] // 8), 0]
            bits = (small[:8, :8] > small[:8, :8].mean()).flatten()
            ph.append(int(sum(int(x) << i for i, x in enumerate(bits))) & 0x7FFFFFFFFFFFFFFF)
        return pa.table(
            {
                self.id_col: t.column(self.id_col),
                "height": pa.array(h_out, pa.int32()),
                "width": pa.array(w_out, pa.int32()),
                "mean_r": pa.array(r, pa.float64()),
                "mean_g": pa.array(g, pa.float64()),
                "mean_b": pa.array(b, pa.float64()),
                "phash": pa.array(ph, pa.int64()),
            }
        )


class FrameSampleStage:
    """(id, payload: binary 'video') → one row per sampled frame with its
    embedding-ready pixel feature (flat-map shaped, like sentseg)."""

    def __init__(self, codec=None, n_frames: int = 4,
                 id_col: str = "id", payload_col: str = "payload"):
        self.codec = codec or FakeCodec()
        self.n_frames = n_frames
        self.id_col = id_col
        self.payload_col = payload_col

    def __call__(self, t: pa.Table) -> pa.Table:
        ids = t.column(self.id_col).to_pylist()
        payloads = t.column(self.payload_col).to_pylist()
        o_id, o_frame, o_feat = [], [], []
        for i, p in zip(ids, payloads):
            for f_idx, frame in enumerate(self.codec.sample_frames(p, n_frames=self.n_frames)):
                o_id.append(i)
                o_frame.append(f_idx)
                o_feat.append(_mean_rgb(frame))
        return pa.table(
            {
                self.id_col: pa.array(o_id),
                "frame_id": pa.array(o_frame, pa.int32()),
                "feature": pa.array(o_feat, pa.list_(pa.float64())),
            }
        )


class AudioChunkStage:
    """(id, payload: binary 'audio') → one row per fixed-length chunk with
    integer energy features (sum |x|, zero-crossing count, n_samples) — the
    VAD/segmentation front-end of an audio curation pipeline. Flat-map
    shaped; integer features so the output is exactly order-independent."""

    def __init__(self, codec=None, chunk_samples: int = 1024,
                 id_col: str = "id", payload_col: str = "payload"):
        self.codec = codec or FakeCodec()
        self.chunk_samples = chunk_samples
        self.id_col = id_col
        self.payload_col = payload_col

    def __call__(self, t: pa.Table) -> pa.Table:
        ids = t.column(self.id_col).to_pylist()
        payloads = t.column(self.payload_col).to_pylist()
        o_id, o_chunk, o_n, o_energy, o_zc = [], [], [], [], []
        for i, p in zip(ids, payloads):
            wave = self.codec.decode_audio(p)
            for c_idx in range(0, len(wave), self.chunk_samples):
                chunk = wave[c_idx:c_idx + self.chunk_samples].astype(np.int64)
                o_id.append(i)
                o_chunk.append(c_idx // self.chunk_samples)
                o_n.append(len(chunk))
                o_energy.append(int(np.abs(chunk).sum()))
                o_zc.append(int((np.diff(np.signbit(chunk)) != 0).sum()))
        return pa.table(
            {
                self.id_col: pa.array(o_id),
                "chunk_id": pa.array(o_chunk, pa.int32()),
                "n_samples": pa.array(o_n, pa.int32()),
                "energy": pa.array(o_energy, pa.int64()),
                "zero_crossings": pa.array(o_zc, pa.int64()),
            }
        )


def image_features(
    ds: "ray.data.Dataset", *, codec=None, batch_size: int = 64,
    use_actors: bool = False, concurrency=(1, 4), **kwargs,
) -> "ray.data.Dataset":
    """Run the image stage; tiny batch_size by default — fat binary rows."""
    if use_actors:
        return ds.map_batches(
            ImageFeatureStage, batch_format="pyarrow", batch_size=batch_size,
            fn_constructor_kwargs={"codec": codec, **kwargs}, concurrency=concurrency,
        )
    return ds.map_batches(
        ImageFeatureStage(codec, **kwargs), batch_format="pyarrow", batch_size=batch_size
    )


def frame_samples(
    ds: "ray.data.Dataset", *, codec=None, batch_size: int = 16,
    n_frames: int = 4, use_actors: bool = False, concurrency=(1, 4),
) -> "ray.data.Dataset":
    if use_actors:
        return ds.map_batches(
            FrameSampleStage, batch_format="pyarrow", batch_size=batch_size,
            fn_constructor_kwargs={"codec": codec, "n_frames": n_frames},
            concurrency=concurrency,
        )
    return ds.map_batches(
        FrameSampleStage(codec, n_frames=n_frames),
        batch_format="pyarrow", batch_size=batch_size,
    )


def audio_chunks(
    ds: "ray.data.Dataset", *, codec=None, batch_size: int = 16,
    chunk_samples: int = 1024, use_actors: bool = False, concurrency=(1, 4),
) -> "ray.data.Dataset":
    if use_actors:
        return ds.map_batches(
            AudioChunkStage, batch_format="pyarrow", batch_size=batch_size,
            fn_constructor_kwargs={"codec": codec, "chunk_samples": chunk_samples},
            concurrency=concurrency,
        )
    return ds.map_batches(
        AudioChunkStage(codec, chunk_samples=chunk_samples),
        batch_format="pyarrow", batch_size=batch_size,
    )


def phash_neardup_pairs(
    ds: "ray.data.Dataset",
    *,
    codec=None,
    max_hamming: int = 3,
    n_bands: int = 4,
    bucket_cap: int = 64,
    batch_size: int = 64,
    id_col: str = "id",
    payload_col: str = "payload",
) -> "ray.data.Dataset":
    """Image NEAR-DUPLICATE pairs by perceptual-hash banding — the
    multimodal analog of functions/dedup.py's MinHash-LSH plan: decode +
    hash once per image (the binary payload NEVER shuffles; band rows are
    24 B), slice the 64-bit phash into ``n_bands`` 16-bit bands
    (pigeonhole: a pair within Hamming distance ``n_bands − 1`` shares at
    least one identical band, so recall is exact for ``max_hamming`` ≤
    n_bands − 1), bucket-groupby with the same sorted-chain skew cap as
    lsh_near_dup_pairs, XOR-popcount verify in-bucket (the phash rides
    along in the band row — no payload re-join), and pair-dedup across
    bands through one packed-uint64 groupby keeping the min distance.
    Rows-only vs SQL (the decode is not SQL-expressible); planted-pixel
    unit tests pin recall and the cap path. Output: (id_a, id_b, hamming),
    id_a < id_b, ids < 2^32 (pack_pairs contract)."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Min

    from ..functions.blocking import bucket_pairs, pack_pairs, unpack_pair_table
    from ..stages.canonicalize import _compact_blocks, grouped_aggregate

    feats = image_features(
        ds, codec=codec, batch_size=batch_size,
        id_col=id_col, payload_col=payload_col,
    )
    P = _compact_blocks()

    def bands(t: pa.Table) -> pa.Table:
        ph = pc.cast(t.column("phash"), pa.int64()).to_numpy().astype(np.uint64)
        ids = pc.cast(t.column(id_col), pa.int64()).to_numpy()
        buckets = [
            ((np.int64(b) << np.int64(16))
             | ((ph >> np.uint64(16 * b)) & np.uint64(0xFFFF)).astype(np.int64))
            for b in range(n_bands)
        ]
        part = np.concatenate(buckets) % P
        return pa.table(
            {"bucket": pa.array(np.concatenate(buckets), pa.int64()),
             "doc": pa.array(np.tile(ids, n_bands), pa.int64()),
             "ph": pa.array(np.tile(ph.astype(np.int64), n_bands), pa.int64()),
             "__part": pa.array(part, pa.int64())}
        )

    def part_cands(group: pa.Table) -> pa.Table:
        i, j = bucket_pairs(group.column("bucket"), group.column("doc"), bucket_cap)
        ids = pc.cast(group.column("doc"), pa.int64()).to_numpy()
        phs = pc.cast(group.column("ph"), pa.int64()).to_numpy().astype(np.uint64)
        x = phs[i] ^ phs[j]
        hd = np.unpackbits(x.view(np.uint8)).reshape(len(x), 64).sum(1)
        keep = hd <= max_hamming
        return pa.table(
            {"k": pa.array(pack_pairs(ids[i[keep]], ids[j[keep]]), pa.uint64()),
             "hamming": pa.array(hd[keep].astype(np.int64), pa.int64())}
        )

    cands = (
        feats.map_batches(bands, batch_format="pyarrow")
        .groupby("__part")
        .map_groups(part_cands, batch_format="pyarrow")
    )
    return grouped_aggregate(
        cands, ["k"], Min("hamming", alias_name="hamming"),
    ).map_batches(unpack_pair_table, batch_format="pyarrow",
                  fn_kwargs={"keep": ("hamming",)})
