"""Dataset container: manifest.json + binary PGM images and label maps.

Layout:
    <dir>/manifest.json     array of {id, image, label, bbox, severity,
                            domain, corruption}, UTF-8, sorted keys
    <dir>/img/<id>.pgm      P5, 8-bit, maxval 255; values are image*255
    <dir>/lbl/<id>.pgm      P5, 8-bit; pixel values exactly 0..3

Readers rescale images by /255, so write-then-read is bit-exact for images
already on the 1/255 grid (the generator quantizes).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .detect import box_fits
from .metrics import check_labels
from .synth import Sample, levels8


class DatasetError(ValueError):
    pass


def write_pgm(path: Path, data: np.ndarray) -> None:
    """Write a uint8 2D array as binary PGM (P5)."""
    h, w = data.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(np.ascontiguousarray(data, dtype=np.uint8).tobytes())


def read_pgm(path: Path) -> np.ndarray:
    with open(path, "rb") as f:
        raw = f.read()
    try:
        fields: list[bytes] = []
        pos = 0
        while len(fields) < 4:
            while raw[pos:pos + 1].isspace():
                pos += 1
            if raw[pos:pos + 1] == b"#":          # comment line
                pos = raw.index(b"\n", pos) + 1
                continue
            end = pos
            while not raw[end:end + 1].isspace():
                end += 1
            fields.append(raw[pos:end])
            pos = end
        pos += 1                                  # single whitespace after maxval
        magic, w, h, maxval = fields[0], int(fields[1]), int(fields[2]), int(fields[3])
    except (ValueError, IndexError) as e:
        raise DatasetError(f"malformed PGM header in {path}: {e}") from None
    if magic != b"P5" or maxval != 255:
        raise DatasetError(f"{path}: expected binary P5 with maxval 255")
    pixels = np.frombuffer(raw, dtype=np.uint8, count=h * w, offset=pos)
    if pixels.size != h * w:
        raise DatasetError(f"{path}: truncated pixel data")
    return pixels.reshape(h, w).copy()


def _check_sample_labels(sample_id: str, labels: np.ndarray) -> None:
    try:
        check_labels(labels)
    except ValueError as e:
        raise DatasetError(f"sample {sample_id}: {e}") from None


def write_dataset(samples: list[Sample], directory: str | Path) -> None:
    """Persist samples; raises DatasetError on invalid labels (names sample)."""
    directory = Path(directory)
    (directory / "img").mkdir(parents=True, exist_ok=True)
    (directory / "lbl").mkdir(parents=True, exist_ok=True)
    records = []
    for s in samples:
        _check_sample_labels(s.sample_id, s.labels)
        write_pgm(directory / "img" / f"{s.sample_id}.pgm", levels8(s.image).astype(np.uint8))
        write_pgm(directory / "lbl" / f"{s.sample_id}.pgm", s.labels.astype(np.uint8))
        records.append({
            "id": s.sample_id,
            "image": f"img/{s.sample_id}.pgm",
            "label": f"lbl/{s.sample_id}.pgm",
            "bbox": list(s.gt_bbox),
            "severity": s.severity,
            "domain": s.domain_id,
            "corruption": s.corruption,
        })
    text = json.dumps(records, indent=1, sort_keys=True)
    (directory / "manifest.json").write_text(text + "\n", encoding="utf-8")


# An id names files under img/, lbl/ and an inference run's pred/, and is a
# field of scores.csv and crops.csv, so it may not leave those directories,
# hide as a dot-file or split a CSV row.
_ID_FORBIDDEN = ("/", "\\", ",", "\n", "\0")


def _record_problem(rec, seen: set[str]) -> str | None:
    """What makes one manifest record unusable, or None if nothing does;
    ``seen`` holds the ids of the records before it."""
    if not isinstance(rec, dict):
        return f"record is not an object: {rec!r}"
    for key in ("id", "image", "label", "bbox"):
        if key not in rec:
            return f"manifest record missing {key!r}"
    for key in ("id", "image", "label"):
        if not isinstance(rec[key], str):
            return f"{key!r} must be a string, got {rec[key]!r}"
    sid = rec["id"]
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
    return None


def read_dataset(directory: str | Path) -> list[Sample]:
    """The samples of a dataset; raises DatasetError naming the sample, and
    the manifest or the file at fault, on a malformed record, a duplicated
    id, a missing or bad file, a ``bbox`` that is not a box of positive
    size inside its image, or a label map whose shape differs from its
    image."""
    directory = Path(directory)
    manifest = directory / "manifest.json"
    if not manifest.exists():
        raise DatasetError(f"missing manifest: {manifest}")
    try:
        records = json.loads(manifest.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise DatasetError(f"malformed manifest {manifest}: {e}") from None
    if not isinstance(records, list):
        raise DatasetError(f"{manifest}: expected a list of sample records, "
                           f"got {type(records).__name__}")
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
        img_path = directory / rec["image"]
        lbl_path = directory / rec["label"]
        for p in (img_path, lbl_path):
            if not p.exists():
                raise DatasetError(f"sample {sid}: missing file {p}")
        image = read_pgm(img_path).astype(np.float64) / 255.0
        if not box_fits(rec["bbox"], *image.shape):
            raise DatasetError(f"{manifest}: sample {sid!r}: 'bbox' {rec['bbox']} "
                               "[l, t, h, w] is not a box of positive size inside its "
                               f"{image.shape[0]}x{image.shape[1]} image {img_path}")
        labels = read_pgm(lbl_path).astype(np.int64)
        if labels.shape != image.shape:
            raise DatasetError(f"sample {sid}: label map {lbl_path} is "
                               f"{labels.shape[0]}x{labels.shape[1]}, its image "
                               f"{img_path} is {image.shape[0]}x{image.shape[1]}")
        _check_sample_labels(sid, labels)
        samples.append(Sample(
            image=image, labels=labels, gt_bbox=tuple(rec["bbox"]),
            severity=float(rec.get("severity", 0.0)),
            domain_id=rec.get("domain", "clean"),
            sample_id=sid,
            corruption=rec.get("corruption", "none"),
        ))
    return samples
