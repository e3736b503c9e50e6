"""Run configuration: one JSON-serializable dataclass for every stage.

The JSON round-trip is exact (all fields are ints, floats or lists of
ints), and ``content_hash`` gives a stable fingerprint embedded in
checkpoints and reports so artifacts are traceable to their config.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path


@dataclass
class RunConfig:
    seed: int = 0
    # crop geometry and latent size
    crop_h: int = 96
    crop_w: int = 96
    d: int = 8
    widths: list[int] = field(default_factory=lambda: [8, 16])
    head_width: int = 8
    eps_floor: float = 1e-6
    # segmentation stage
    seg_lr: float = 3e-4
    seg_momentum: float = 0.9
    seg_epochs: int = 4
    seg_batch: int = 8
    # uncertainty stage
    unc_lr: float = 1e-3
    unc_momentum: float = 0.9
    unc_epochs: int = 3
    unc_batch: int = 8
    # data handling
    bbox_jitter: float = 0.10
    # evaluation
    tau: float = 0.0

    def __post_init__(self):
        if self.d < 4:
            raise ValueError(f"d must be >= 4, got {self.d}")
        if self.crop_h % 4 or self.crop_w % 4:
            raise ValueError(f"crop size must be divisible by 4, got "
                             f"{self.crop_h}x{self.crop_w}")
        if len(self.widths) != 2:
            raise ValueError(f"widths must list two stage widths, got {self.widths}")
        if not self.eps_floor > 0.0:
            raise ValueError(f"eps_floor must be > 0, got {self.eps_floor}")
        for name in ("seg_epochs", "seg_batch", "unc_epochs", "unc_batch"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=1) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        data = json.loads(text)
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def load(cls, path: str | Path) -> "RunConfig":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))

    def content_hash(self) -> str:
        canon = json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]

    def arch_hash(self) -> str:
        """Hash of the fields that must match between checkpoints."""
        arch = {"crop_h": self.crop_h, "crop_w": self.crop_w, "d": self.d,
                "widths": list(self.widths), "head_width": self.head_width,
                "eps_floor": self.eps_floor}
        canon = json.dumps(arch, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]
