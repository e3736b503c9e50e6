"""Run configuration: one JSON-serializable dataclass for every stage.

The JSON round-trip is exact (all fields are ints or lists of ints),
and ``content_hash`` gives a stable fingerprint embedded in
checkpoints and reports so artifacts are traceable to their config.
Every text file a command reads goes through ``read_text`` / ``read_json``,
and every JSON file one writes through ``json_text``.
A bad input from outside the program raises ``InputError``, directly or
through ``naming``; it is the one error the command line turns into exit 2.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path


class InputError(ValueError):
    """A bad input from outside the program: a file, a flag or a config field."""


@contextmanager
def naming(what: str | Path):
    """Re-raise a ValueError from the block as an InputError that names ``what``."""
    try:
        yield
    except ValueError as e:
        raise InputError(f"{what}: {e}") from None


def read_text(path: str | Path) -> str:
    """The UTF-8 text of ``path``; a file that is not UTF-8 raises InputError naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise InputError(f"{path}: not UTF-8 text: {e}") from None


def read_json(path: str | Path, expect: type, what: str = ""):
    """The JSON value in ``path``, whose top level must be an ``expect`` (dict or
    list); raises InputError naming the file as ``read_text`` does, and on
    text that is not JSON or another top level, which ``what`` words."""
    text = read_text(path)
    try:
        data = json.loads(text)
    # ValueError: an int past Python's digit limit; RecursionError: deep nesting
    except (json.JSONDecodeError, ValueError, RecursionError) as e:
        raise InputError(f"{path}: not valid JSON: {e}") from None
    if not isinstance(data, expect):
        what = what or f"not a JSON {'object' if expect is dict else 'list'}"
        raise InputError(f"{path}: {what}, got {type(data).__name__}")
    return data


def json_text(value) -> str:
    """``value`` as the text of a JSON artifact: sorted keys, one-space
    indent and a final newline."""
    return json.dumps(value, sort_keys=True, indent=1) + "\n"


# bounds on frame and crop sides (a 4096x4096 frame's float64 work arrays take ~134 MB
# each) and conv channels (h4's kernel at 1024 everywhere is 3072x1024x3x3 float64, ~0.2 GB)
MIN_SIDE, MAX_SIDE = 64, 4096
MAX_CHANNELS = 1024


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
    # epochs of each training stage
    seg_epochs: int = 4
    unc_epochs: int = 3

    def __post_init__(self):
        # types first, so the range checks below and every later stage see ints
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int" and not _is_int(value):
                raise ValueError(f"{f.name} must be an int, got {value!r}")
        if not (isinstance(self.widths, (list, tuple)) and len(self.widths) == 2
                and all(_is_int(w) and w >= 1 for w in self.widths)):
            raise ValueError(f"widths must list two ints >= 1, got {self.widths!r}")
        for name, least, most in (("head_width", 1, MAX_CHANNELS), ("seg_epochs", 1, None),
                                  ("unc_epochs", 1, None), ("d", 4, MAX_CHANNELS),
                                  ("crop_h", 4, MAX_SIDE), ("crop_w", 4, MAX_SIDE)):
            value = getattr(self, name)
            if value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")
            if most is not None and value > most:
                raise ValueError(f"{name} must be at most {most}, got {value}")
        if max(self.widths) > MAX_CHANNELS:
            raise ValueError(f"widths must be at most {MAX_CHANNELS}, got {self.widths!r}")
        if self.crop_h % 4 or self.crop_w % 4:
            raise ValueError(f"crop size must be divisible by 4, got "
                             f"{self.crop_h}x{self.crop_w}")

    def to_json(self) -> str:
        return json_text(asdict(self))

    @classmethod
    def from_dict(cls, data) -> "RunConfig":
        if not isinstance(data, dict):
            raise ValueError(f"expected an object of fields, got {type(data).__name__}")
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**data)

    def content_hash(self) -> str:
        canon = json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]

    def arch_hash(self) -> str:
        """Hash of the fields that must match between checkpoints."""
        arch = {"crop_h": self.crop_h, "crop_w": self.crop_w, "d": self.d,
                "widths": list(self.widths), "head_width": self.head_width}
        canon = json.dumps(arch, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]
