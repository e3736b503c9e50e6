"""Run configuration: one JSON-serializable dataclass for every stage.

The JSON round-trip is exact (all fields are ints, floats or lists of
ints), and ``content_hash`` gives a stable fingerprint embedded in
checkpoints and reports so artifacts are traceable to their config.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


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
        # types first, so the range checks below and every later stage see
        # ints and finite floats; a JSON int is a valid float field, stored
        # as a float so that 1 and 1.0 hash alike
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int" and not _is_int(value):
                raise ValueError(f"{f.name} must be an int, got {value!r}")
            if f.type == "float":
                if not ((_is_int(value) or isinstance(value, float)) and math.isfinite(value)):
                    raise ValueError(f"{f.name} must be a finite number, got {value!r}")
                setattr(self, f.name, float(value))
        if not (isinstance(self.widths, (list, tuple)) and len(self.widths) == 2
                and all(_is_int(w) and w >= 1 for w in self.widths)):
            raise ValueError(f"widths must list two ints >= 1, got {self.widths!r}")
        for name in ("head_width", "seg_epochs", "seg_batch", "unc_epochs", "unc_batch"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("d", "crop_h", "crop_w"):
            if getattr(self, name) < 4:
                raise ValueError(f"{name} must be >= 4, got {getattr(self, name)}")
        if self.crop_h % 4 or self.crop_w % 4:
            raise ValueError(f"crop size must be divisible by 4, got "
                             f"{self.crop_h}x{self.crop_w}")
        if not self.eps_floor > 0.0:
            raise ValueError(f"eps_floor must be > 0, got {self.eps_floor}")
        if not 0.0 <= self.bbox_jitter <= 0.25:
            raise ValueError(f"bbox_jitter must be in [0, 0.25], got {self.bbox_jitter}")
        for name in ("seg_lr", "unc_lr"):
            if not getattr(self, name) >= 0.0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")

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
