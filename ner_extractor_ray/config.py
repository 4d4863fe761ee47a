"""Pipeline configuration — the user-extension surface.

Mirrors the reference's YAML-driven config tree with single-key ablation
overrides (DistilBERT-CRF/configs/default.yaml:1-78, configs/README.md:1-33,
src/config.py:11-50): a dataclass of engine knobs loadable from YAML and a
deep-merge override mechanism. Reserved toggles fail fast
with NotImplementedError exactly like the reference's use_char_features /
use_gazetteer guards (src/modeling.py:70-79).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields


@dataclass
class PipelineConfig:
    # scorer
    tagger: str = "deterministic"          # "deterministic" | "hf" (torch req.)
    hf_checkpoint: str | None = None
    max_seq_length: int = 192              # truncation (configs/default.yaml:12)
    label_all_tokens: bool = False         # alignment variant (data_module.py:104-110)
    batch_size: int = 1024
    use_actors: bool = False
    tagger_concurrency: int | None = None
    # language filter
    lang_filter: str | None = "en"
    # canonicalization
    lsh_threshold: float = 0.6
    lsh_bucket_cap: int = 64
    canon_driver_threshold: int = 200_000
    # layout
    n_partitions: int = 16
    broadcast_limit: int = 2_000_000
    resume: bool = True
    # augmentation (src/data_module.py:172-192)
    augment_rate: float = 0.0
    augment_loss_weight: float = 0.5
    # reserved toggles — reserved-but-unimplemented must fail fast
    use_char_features: bool = False
    use_gazetteer_features: bool = True

    def validate(self) -> "PipelineConfig":
        if self.use_char_features:
            raise NotImplementedError(
                "use_char_features is reserved; see configs extension procedure"
            )
        if self.tagger == "hf" and not self.hf_checkpoint:
            raise ValueError("tagger='hf' requires hf_checkpoint")
        if self.tagger not in ("deterministic", "hf"):
            raise ValueError(f"unknown tagger {self.tagger!r}")
        return self

    @classmethod
    def load(cls, path: str | None = None, overrides: dict | None = None) -> "PipelineConfig":
        """YAML file + dict overrides → validated config (ablation pattern:
        a small override YAML flips one key against the defaults)."""
        data: dict = {}
        if path:
            import yaml

            with open(path) as fh:
                data = yaml.safe_load(fh) or {}
        data.update(overrides or {})
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data).validate()

    def to_dict(self) -> dict:
        return asdict(self)
