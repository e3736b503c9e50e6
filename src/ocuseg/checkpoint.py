"""Checkpoint container: header.json + weights.bin.

``header.json`` holds {format_version, kind, config, arch_hash, config_hash,
tensors: [{name, shape, byte_offset}]}; ``kind`` is ``seg`` (segmentation
model) or ``unc`` (uncertainty head).  ``weights.bin`` is the tensors'
float64 data, little-endian, concatenated in index order.  On load the
header must name a kind (the one expected, if the caller gives it), the
stored arch_hash must match the stored config, the size of ``weights.bin``
must equal the sum of the tensor sizes, no tensor may be named twice, each
``byte_offset`` must be where the tensors before it end, and every value
must be finite in float32.  Writes are byte-deterministic.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .config import RunConfig, read_json

FORMAT_VERSION = 1
KINDS = ("seg", "unc")


class CheckpointError(ValueError):
    pass


def save_checkpoint(directory: str | Path, config: RunConfig,
                    tensors: dict[str, np.ndarray], kind: str) -> None:
    if kind not in KINDS:
        raise ValueError(f"checkpoint kind must be one of {KINDS}, got {kind!r}")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    index = []
    offset = 0
    blobs = []
    for name, arr in tensors.items():
        arr = np.asarray(arr, dtype="<f8")
        index.append({"name": name, "shape": list(arr.shape), "byte_offset": offset})
        blob = arr.tobytes()
        blobs.append(blob)
        offset += len(blob)
    header = {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "config": asdict(config),
        "arch_hash": config.arch_hash(),
        "config_hash": config.content_hash(),
        "tensors": index,
    }
    (directory / "header.json").write_text(
        json.dumps(header, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    (directory / "weights.bin").write_bytes(b"".join(blobs))


def load_checkpoint(directory: str | Path, kind: str | None = None
                    ) -> tuple[RunConfig, dict[str, np.ndarray]]:
    """The config and tensors stored in ``directory``; ``kind``, if given,
    is the kind the caller expects.  A missing file raises the OSError that
    names it."""
    directory = Path(directory)
    header_path = directory / "header.json"
    weights_path = directory / "weights.bin"
    header = read_json(header_path, CheckpointError, dict)
    if header.get("format_version") != FORMAT_VERSION:
        raise CheckpointError(f"{header_path}: unsupported format_version "
                              f"{header.get('format_version')!r}")
    if "kind" not in header:
        raise CheckpointError(f"{header_path}: header has no 'kind' field "
                              f"(one of {', '.join(KINDS)})")
    if kind is not None and header["kind"] != kind:
        raise CheckpointError(f"{directory}: checkpoint kind is {header['kind']!r}, "
                              f"expected {kind!r}")
    try:
        config = RunConfig.from_dict(header.get("config"))
    except (TypeError, ValueError) as e:
        raise CheckpointError(f"{header_path}: invalid config: {e}") from None
    if header.get("arch_hash") != config.arch_hash():
        raise CheckpointError(f"{header_path}: stored arch_hash {header.get('arch_hash')!r} "
                              f"does not match its config ({config.arch_hash()!r})")
    index = header.get("tensors")
    if not (isinstance(index, list) and all(map(_is_tensor_entry, index))):
        raise CheckpointError(f"{header_path}: 'tensors' must be a list of {{name: string, "
                              f"shape: list of counts, byte_offset: count}}, got {index!r}")
    raw = weights_path.read_bytes()
    counts = [math.prod(entry["shape"]) for entry in index]
    expected = 8 * sum(counts)
    if len(raw) != expected:
        problem = "truncated" if len(raw) < expected else "trailing bytes in"
        raise CheckpointError(f"{problem} {weights_path}: {len(raw)} bytes, "
                              f"header describes {expected}")
    tensors = {}
    off = 0
    for entry, count in zip(index, counts):
        if entry["name"] in tensors:
            raise CheckpointError(f"{header_path}: tensor {entry['name']!r} is listed twice")
        if entry["byte_offset"] != off:
            raise CheckpointError(f"{header_path}: tensor {entry['name']!r} has byte_offset "
                                  f"{entry['byte_offset']}, not {off} where those before it end")
        arr = np.frombuffer(raw, dtype="<f8", count=count, offset=off)
        # the model runs its activations in float32, where larger values are inf
        if not (np.abs(arr) <= np.finfo(np.float32).max).all():
            raise CheckpointError(f"{weights_path}: tensor {entry['name']!r} holds "
                                  "non-finite values (in float32)")
        tensors[entry["name"]] = arr.reshape(tuple(entry["shape"])).astype(np.float64)
        off += 8 * count
    return config, tensors


def _is_tensor_entry(entry) -> bool:
    """Whether a ``tensors`` entry has a string ``name``, a ``shape`` list of
    counts and a count ``byte_offset``; a count is an int >= 0, not a bool."""
    return (isinstance(entry, dict) and isinstance(entry.get("name"), str)
            and isinstance(entry.get("shape"), list)
            and all(type(v) is int and v >= 0
                    for v in [*entry["shape"], entry.get("byte_offset")]))


def model_tensor(values: dict[str, np.ndarray], name: str, shape: tuple) -> np.ndarray:
    """A copy of ``values[name]``, which must exist and have ``shape``."""
    if name not in values:
        raise CheckpointError(f"checkpoint has no tensor {name!r}")
    arr = values[name]
    if arr.shape != tuple(shape):
        raise CheckpointError(f"tensor {name!r} has shape {list(arr.shape)}, "
                              f"model expects {list(shape)}")
    return arr.copy()
