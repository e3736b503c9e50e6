"""Command-line entry point.

Subcommands: gen, train-seg, train-unc, infer, eval, landscape, flops.
Every command is deterministic given (config, seed, inputs).  Exit codes:
0 success, 2 a bad input (also a path that cannot be read or written), 3
numeric failure (a non-finite loss in training, a non-finite score in
inference).  ``config.InputError`` is the one error that means exit 2: a
command raises it for a bad flag or file, and ``config.naming`` turns a
library's ValueError into one that names the input at fault.  Any other
ValueError is a bug and ends in a traceback.
"""

from __future__ import annotations

import os

# honor the thread cap before numpy pulls in its BLAS
_threads = os.environ.get("OCUSEG_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, _threads)

import argparse
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .config import (MAX_SIDE, MIN_SIDE, InputError, RunConfig, json_text, naming, read_json,
                     read_text)
from .datasetio import read_dataset, read_pgm, write_dataset, write_pgm
# no caller here: bench/attribution.py traces crop_resize under this module's name
from .detect import BBox, crop_labels, crop_resize
# no caller here: bench/attribution.py traces rank_and_filter under this module's name
from .evaluate import rank_and_filter, report
from .metrics import confusion_matrix
from .pipeline import DETECTOR_MODES, build_crops, infer_samples
# no caller here: bench/attribution.py traces evaluate_miou under this module's name
from .segnet import SegModel, count_flops, evaluate_miou, train_seg
from .synth import CORRUPTION_KINDS, Sample, generate_dataset
from .uncertainty import UncHead, head_flops, landscape_grid, train_unc


def _load_config(path: str) -> RunConfig:
    data = read_json(path, dict)
    with naming(f"invalid config {path}"):
        return RunConfig.from_dict(data)


def _load_model(cls, directory: str, kind: str):
    """The config and ``cls`` model of the ``kind`` checkpoint in ``directory``."""
    config, tensors = load_checkpoint(directory, kind)
    model = cls(config)
    with naming(directory):
        model.set_params(tensors)
    return config, model


def _read_samples(path: str) -> list[Sample]:
    """The samples of the dataset at ``path``, which must hold at least one."""
    samples = read_dataset(path)
    if not samples:
        raise InputError(f"dataset {path} is empty")
    return samples


def _write_csv(path: Path, header: list[str], rows: list) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(float(c)) if isinstance(c, float) else str(c) for c in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_gen(args) -> int:
    kinds = [k.strip() for k in args.corruptions.split(",") if k.strip()]
    for k in kinds:
        if k != "none" and k not in CORRUPTION_KINDS:
            raise InputError(f"unknown corruption kind {k!r}")
    try:
        lo, hi = (float(x) for x in args.severities.split(","))
    except ValueError:
        raise InputError(f"--severities expects LO,HI, got {args.severities!r}") from None
    if not (0.0 <= lo <= hi <= 1.0):
        raise InputError(f"severity range must satisfy 0 <= lo <= hi <= 1, got {lo},{hi}")
    if args.n < 1:
        raise InputError(f"--n must be >= 1, got {args.n}")
    try:
        h_full, w_full = (int(x) for x in args.size.split("x"))
    except ValueError:
        raise InputError(f"--size expects HxW, got {args.size!r}") from None
    if h_full < MIN_SIDE or w_full < MIN_SIDE:
        raise InputError(f"--size must be at least {MIN_SIDE}x{MIN_SIDE}, got {args.size}")
    if h_full > MAX_SIDE or w_full > MAX_SIDE:
        raise InputError(f"--size must be at most {MAX_SIDE}x{MAX_SIDE}, got {args.size}")
    samples = generate_dataset(args.n, args.seed, kinds, (lo, hi), h_full, w_full)
    write_dataset(samples, args.out)
    by_kind = Counter(s.corruption if s.severity > 0 else "none" for s in samples)
    print(f"wrote {len(samples)} samples to {args.out}")
    for k in sorted(by_kind):
        print(f"  {k}: {by_kind[k]}")
    return 0


def cmd_train_seg(args) -> int:
    config = _load_config(args.config)
    images, labels, _, _ = build_crops(_read_samples(args.data), config, "gt-jitter")
    model, rows = train_seg(images, labels, config)
    save_checkpoint(args.out, config, model.params(), "seg")
    _write_csv(Path(args.out) / "train_log.csv",
               ["epoch", "loss", "miou"], rows)
    print(f"saved segmentation checkpoint to {args.out}")
    print(f"train miou {rows[-1][2]:.4f}")
    return 0


def cmd_train_unc(args) -> int:
    config = _load_config(args.config)
    seg_config, seg = _load_model(SegModel, args.seg, "seg")
    if seg_config.arch_hash() != config.arch_hash():
        raise InputError("config does not match the segmentation checkpoint's "
                         f"architecture ({config.arch_hash()} vs {seg_config.arch_hash()})")
    images, labels, _, _ = build_crops(_read_samples(args.data), config, "gt-jitter")
    head, rows = train_unc(images, labels, seg, args.loss, config)
    save_checkpoint(args.out, config, head.params(), "unc")
    _write_csv(Path(args.out) / "train_log.csv",
               ["epoch", "loss", "target_abs_err"], rows)
    print(f"saved uncertainty checkpoint to {args.out} (loss={args.loss})")
    print(f"final target error {rows[-1][2]:.6f}")
    return 0


def cmd_infer(args) -> int:
    config, seg = _load_model(SegModel, args.seg, "seg")
    unc_config, head = _load_model(UncHead, args.unc, "unc")
    if config.arch_hash() != unc_config.arch_hash():
        raise InputError("checkpoint architectures differ: "
                         f"{config.arch_hash()} vs {unc_config.arch_hash()}")
    images, labels, boxes, ids = build_crops(_read_samples(args.data), config, args.detector)
    del labels  # no ground truth is read here; free the crops before the forward
    y_hat, s_unc = infer_samples(images, seg, head)
    bad = [sid for sid, s in zip(ids, s_unc) if not np.isfinite(s)]
    if bad:
        # the frames are 8-bit, so only the weights can overflow the forward
        raise FloatingPointError(f"s_unc is not finite for {len(bad)} samples "
                                 f"({', '.join(bad[:20])}): the weights of --seg "
                                 f"{args.seg} or --unc {args.unc} overflow the "
                                 "float32 forward")

    out = Path(args.out)
    (out / "pred").mkdir(parents=True, exist_ok=True)
    for sid, labels in zip(ids, y_hat):
        write_pgm(out / "pred" / f"{sid}.pgm", labels)
    _write_csv(out / "scores.csv", ["sample_id", "s_unc", "l", "t", "h", "w"],
               [[sid, s, *box] for sid, s, box in zip(ids, s_unc, boxes)])
    meta = {"config_hash": config.content_hash(), "arch_hash": config.arch_hash(),
            "detector": args.detector, "crop": [config.crop_h, config.crop_w]}
    (out / "meta.json").write_text(json_text(meta), encoding="utf-8")
    print(f"wrote {len(ids)} predictions to {out}")
    return 0


def _read_csv(path: Path, required: tuple[str, ...]) -> list[dict[str, str]]:
    """Rows of a CSV file as dicts keyed by its header, which must name
    every ``required`` column; each row must have one field per column."""
    lines = read_text(path).strip().split("\n")
    header = lines[0].split(",")
    missing = [c for c in required if c not in header]
    if missing:
        raise InputError(f"{path} lacks columns {missing} (header: {lines[0]!r})")
    rows = [ln.split(",") for ln in lines[1:]]
    for i, row in enumerate(rows, start=1):
        if len(row) != len(header):
            raise InputError(f"{path}: row {i} has {len(row)} fields, the header "
                             f"{len(header)}: {lines[i]!r}")
    return [dict(zip(header, row)) for row in rows]


def _check_row_ids(path: Path, row_ids: list[str], dataset_ids) -> None:
    """The CSV ``path`` must list each dataset id exactly once and nothing else."""
    counts = Counter(row_ids)
    bad = {"unknown ids": [sid for sid in counts if sid not in dataset_ids],
           "dataset ids without a row": [sid for sid in dataset_ids if sid not in counts],
           "duplicated ids": [sid for sid, c in counts.items() if c > 1]}
    problems = [f"{len(ids)} {what} ({', '.join(sorted(ids)[:20])})"
                for what, ids in bad.items() if ids]
    if problems:
        raise InputError(f"{path} does not match the dataset: " + "; ".join(problems))


def cmd_eval(args) -> int:
    pred_dir = Path(args.pred)
    meta = read_json(pred_dir / "meta.json", dict)
    crop = meta.get("crop")
    if not (isinstance(crop, list) and len(crop) == 2
            and all(type(v) is int and v > 0 for v in crop)):
        raise InputError(f"{pred_dir / 'meta.json'}: 'crop' must be the [h, w] that infer "
                         f"writes, got {crop!r}; run infer again")
    scores_rows = _read_csv(pred_dir / "scores.csv", ("sample_id", "s_unc", "l", "t", "h", "w"))
    samples = {s.sample_id: s for s in _read_samples(args.data)}
    _check_row_ids(pred_dir / "scores.csv", [r["sample_id"] for r in scores_rows], samples)

    try:
        pcts = [float(x) for x in args.pcts.split(",")]
    except ValueError:
        raise InputError(f"--pcts expects comma-separated numbers, got {args.pcts!r}") from None
    ids, score_list, confs = [], [], []
    for row in scores_rows:
        sid = row["sample_id"]
        try:
            s_unc = float(row["s_unc"])
            box = BBox(int(row["l"]), int(row["t"]), int(row["h"]), int(row["w"]))
        except ValueError:
            raise InputError(f"bad scores.csv row for {sid} in {pred_dir}: {row}") from None
        if not np.isfinite(s_unc):
            raise InputError(f"{pred_dir / 'scores.csv'}: s_unc of {sid} is "
                             f"{row['s_unc']!r}, not a finite number")
        pgm = pred_dir / "pred" / f"{sid}.pgm"
        y_hat = read_pgm(pgm)
        if list(y_hat.shape) != crop:
            raise InputError(f"{pgm} is {y_hat.shape[0]}x{y_hat.shape[1]}, not the "
                             f"{crop[0]}x{crop[1]} crop size in meta.json")
        with naming(f"scores.csv box of {sid} in {pred_dir}"):
            gt = crop_labels(samples[sid].labels, box, *crop)
        with naming(pgm):
            conf = confusion_matrix(y_hat, gt)
        ids.append(sid)
        score_list.append(s_unc)
        confs.append(conf)

    with naming(f"--pcts {args.pcts}"):
        body = report(ids, score_list, confs, pcts)
    out = Path(args.out)
    out.write_text(json_text({"config_hash": meta.get("config_hash", ""),
                              "detector": meta.get("detector", ""), **body}),
                   encoding="utf-8")
    miou, filtered = body["unfiltered"]["miou"], body["tables"]["filtering"]
    header = ["pct", "retained_count", "retained_miou"]
    rows = [[0.0, len(ids), miou]] + [[f[k] for k in header] for f in filtered]
    _write_csv(out.with_suffix(".filtering.csv"), header, rows)
    print(f"unfiltered miou {miou:.4f} over {len(ids)} images")
    for f in filtered:
        print(f"  drop {f['pct']:.0f}%: retained {f['retained_count']}, "
              f"miou {f['retained_miou']:.4f}")
    return 0


def cmd_landscape(args) -> int:
    try:
        v = np.array([float(x) for x in args.v.split(",")])
        lo, hi = (float(x) for x in args.range.split(","))
    except ValueError:
        raise InputError("--v expects F,F and --range expects LO,HI") from None
    with naming(f"--v {args.v} --range {args.range} --n {args.n}"):
        rows = landscape_grid(v, (lo, hi), args.n)
    header = ["w1", "w2", "orig_loss", "orig_gnorm", "surr_loss", "surr_gnorm"]
    _write_csv(Path(args.out), header, [[r[k] for k in header] for r in rows])
    print(f"wrote {len(rows)} grid points to {args.out}")
    return 0


def cmd_flops(args) -> int:
    config = _load_config(args.config)
    seg = count_flops(config, include_head=True)
    unc = head_flops(config)
    print(f"segmentation (backbone + class head): {seg}")
    print(f"uncertainty head: {unc}")
    print(f"total: {seg + unc}")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ocuseg",
        description="uncertainty-aware eye segmentation on synthetic data")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a labeled synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--corruptions", default="none",
                   help="comma list of none|blur|occlusion|domain_shift")
    p.add_argument("--severities", default="0,0", help="LO,HI severity range")
    p.add_argument("--size", default="120x160",
                   help=f"frame size HxW, at least {MIN_SIDE}x{MIN_SIDE} "
                        f"and at most {MAX_SIDE}x{MAX_SIDE}")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train-seg", help="train the segmentation network")
    p.add_argument("--data", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_seg)

    p = sub.add_parser("train-unc", help="train the uncertainty head")
    p.add_argument("--data", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--seg", required=True, help="segmentation checkpoint dir")
    p.add_argument("--out", required=True)
    p.add_argument("--loss", choices=["original", "surrogate"], default="surrogate")
    p.set_defaults(func=cmd_train_unc)

    p = sub.add_parser("infer", help="segment and score a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--seg", required=True)
    p.add_argument("--unc", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--detector", choices=list(DETECTOR_MODES), default="gt-jitter")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("eval", help="score predictions against ground truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--pcts", default="1,2,3,4,5")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("landscape", help="emit the loss-landscape grid CSV")
    p.add_argument("--v", required=True, help="residual vector, F,F")
    p.add_argument("--range", required=True, help="variance grid LO,HI")
    p.add_argument("--n", type=int, default=41)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_landscape)

    p = sub.add_parser("flops", help="print FLOPs for the configured model")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_flops)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except FloatingPointError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
