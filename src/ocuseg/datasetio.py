"""Dataset container: manifest.json + binary PGM images and label maps.

Layout:
    <dir>/manifest.json     array of {id, bbox, severity, domain, corruption},
                            UTF-8, sorted keys; the reader ignores other
                            keys (the ``image`` and ``label`` paths of
                            older sets among them)
    <dir>/img/<id>.pgm      P5, 8-bit, maxval 255; the image's levels
    <dir>/lbl/<id>.pgm      P5, 8-bit; pixel values exactly 0..3

A sample's image and labels are the uint8 pixels of these files, so
write-then-read is the identity, with no rescale or cast.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

from .config import read_json
from .detect import box_fits
from .metrics import check_labels
from .synth import Sample


class DatasetError(ValueError):
    pass


def write_pgm(path: Path, data: np.ndarray) -> None:
    """Write a uint8 2D array as binary PGM (P5)."""
    if data.dtype != np.uint8:
        raise ValueError(f"{path}: PGM pixels must be uint8, got {data.dtype}")
    h, w = data.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(data.tobytes())


# magic, then width, height and maxval, each after whitespace or
# '#'-to-end-of-line comments, then the one whitespace byte before the pixels;
# each number is positive, with at most 9 digits after its leading zeros (far
# inside what int() converts)
_SEP = rb"(?:\s|#[^\n]*\n)"
_NUMBER = rb"%s+0*([1-9]\d{0,8})" % _SEP
_PGM_HEADER = re.compile(rb"%s*(P\d)" % _SEP + _NUMBER * 3 + rb"\s")


def read_pgm(path: Path) -> np.ndarray:
    raw = Path(path).read_bytes()
    m = _PGM_HEADER.match(raw)
    if m is None:
        raise DatasetError(f"malformed PGM header in {path}")
    magic, w, h, maxval = m[1], int(m[2]), int(m[3]), int(m[4])
    if magic != b"P5" or maxval != 255:
        raise DatasetError(f"{path}: expected binary P5 with maxval 255")
    if len(raw) - m.end() < h * w:
        raise DatasetError(f"{path}: truncated pixel data")
    pixels = np.frombuffer(raw, dtype=np.uint8, count=h * w, offset=m.end())
    return pixels.reshape(h, w).copy()


def _check_sample_labels(sample: str, labels: np.ndarray) -> None:
    try:
        check_labels(labels)
    except ValueError as e:
        raise DatasetError(f"sample {sample}: {e}") from None


def write_dataset(samples: list[Sample], directory: str | Path) -> None:
    """Persist samples; raises DatasetError on invalid labels (names sample)."""
    directory = Path(directory)
    (directory / "img").mkdir(parents=True, exist_ok=True)
    (directory / "lbl").mkdir(parents=True, exist_ok=True)
    records = []
    for s in samples:
        _check_sample_labels(s.sample_id, s.labels)
        write_pgm(directory / "img" / f"{s.sample_id}.pgm", s.image)
        write_pgm(directory / "lbl" / f"{s.sample_id}.pgm", s.labels)
        records.append({
            "id": s.sample_id,
            "bbox": list(s.gt_bbox),
            "severity": s.severity,
            "domain": s.domain_id,
            "corruption": s.corruption,
        })
    text = json.dumps(records, indent=1, sort_keys=True)
    (directory / "manifest.json").write_text(text + "\n", encoding="utf-8")


# An id names files under img/, lbl/ and an inference run's pred/, and is a
# field of scores.csv, so it may not leave those directories, hide as a
# dot-file or split a CSV row.
_ID_FORBIDDEN = ("/", "\\", ",", "\n", "\0")


def _record_problem(rec, seen: set[str]) -> str | None:
    """What makes one manifest record unusable, or None if nothing does;
    ``seen`` holds the ids of the records before it."""
    if not isinstance(rec, dict):
        return f"record is not an object: {rec!r}"
    for key in ("id", "bbox"):
        if key not in rec:
            return f"manifest record missing {key!r}"
    sid = rec["id"]
    if not isinstance(sid, str):
        return f"'id' must be a string, got {sid!r}"
    if not sid or sid.startswith(".") or any(c in sid for c in _ID_FORBIDDEN):
        return (f"bad id {sid!r}: an id is non-empty, does not start with '.' and "
                "holds no '/', '\\', ',', newline or NUL")
    if sid in seen:
        return "duplicated id"
    bbox = rec["bbox"]
    if not (isinstance(bbox, list) and len(bbox) == 4
            and all(type(v) is int for v in bbox)):
        return f"'bbox' must be four ints [l, t, h, w], got {bbox!r}"
    severity = rec.get("severity", 0.0)
    if type(severity) not in (int, float):
        return f"'severity' must be a number, got {severity!r}"
    if not 0.0 <= severity <= 1.0:     # also rejects NaN, which json.loads accepts
        return f"'severity' must be a finite number in [0, 1], got {severity!r}"
    return None


def _read_sample_pgm(manifest: Path, sid: str, path: Path) -> np.ndarray:
    """``read_pgm`` of a file the manifest names; a missing file is the
    manifest's fault, so its DatasetError names the manifest and the id."""
    try:
        return read_pgm(path)
    except FileNotFoundError:
        raise DatasetError(f"{manifest}: sample {sid!r}: no file {path}") from None


def read_dataset(directory: str | Path) -> list[Sample]:
    """The samples of a dataset, each read from ``img/<id>.pgm`` and
    ``lbl/<id>.pgm``; raises DatasetError naming the sample, and the
    manifest or the file at fault, on a malformed record, a duplicated id,
    a bad file, a missing file, a ``bbox`` that is not a box of positive
    size inside its image, or a label map whose shape differs from its
    image.  A file that exists but cannot be read raises the OSError that
    names it."""
    directory = Path(directory)
    manifest = directory / "manifest.json"
    records = read_json(manifest, DatasetError, list, "expected a list of sample records")
    samples = []
    seen: set[str] = set()
    for i, rec in enumerate(records):
        problem = _record_problem(rec, seen)
        if problem:
            sid = rec.get("id") if isinstance(rec, dict) else None
            where = f"sample {sid!r}" if isinstance(sid, str) else f"record {i}"
            raise DatasetError(f"{manifest}: {where}: {problem}")
        sid = rec["id"]
        seen.add(sid)
        img_path = directory / "img" / f"{sid}.pgm"
        lbl_path = directory / "lbl" / f"{sid}.pgm"
        image = _read_sample_pgm(manifest, sid, img_path)
        if not box_fits(rec["bbox"], *image.shape):
            raise DatasetError(f"{manifest}: sample {sid!r}: 'bbox' {rec['bbox']} "
                               "[l, t, h, w] is not a box of positive size inside its "
                               f"{image.shape[0]}x{image.shape[1]} image {img_path}")
        labels = _read_sample_pgm(manifest, sid, lbl_path)
        if labels.shape != image.shape:
            raise DatasetError(f"sample {sid}: label map {lbl_path} is "
                               f"{labels.shape[0]}x{labels.shape[1]}, its image "
                               f"{img_path} is {image.shape[0]}x{image.shape[1]}")
        _check_sample_labels(f"{sid}: {lbl_path}", labels)
        samples.append(Sample(
            image=image, labels=labels, gt_bbox=tuple(rec["bbox"]),
            severity=float(rec.get("severity", 0.0)),
            domain_id=rec.get("domain", "clean"),
            sample_id=sid,
            corruption=rec.get("corruption", "none"),
        ))
    return samples
