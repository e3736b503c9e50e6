"""Command-line entry point.

Subcommands: gen, train-seg, train-unc, infer, eval, landscape, flops.
Every command is deterministic given (config, seed, inputs).  Exit codes:
0 success, 2 usage/validation error, 3 numeric failure during training.
"""

from __future__ import annotations

import os

# honor the thread cap before numpy pulls in its BLAS
_threads = os.environ.get("OCUSEG_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, _threads)

import argparse
import json
import sys
from collections import Counter
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .config import RunConfig
from .datasetio import DatasetError, read_dataset, read_pgm, write_dataset, write_pgm
from .detect import crop_resize
from .evaluate import rank_and_filter, threshold_decision
from .metrics import confusion_matrix, metrics_from_confusion
from .pipeline import DETECTOR_MODES, build_crops, infer_samples
# no caller here: bench/attribution.py traces evaluate_miou under this module's name
from .segnet import SegModel, count_flops, evaluate_miou, train_seg
from .synth import CORRUPTION_KINDS, Sample, generate_dataset
from .uncertainty import UncHead, head_flops, landscape_grid, train_unc


class UsageError(ValueError):
    pass


def _fmt(x: float) -> str:
    return repr(float(x))


def _load_config(path: str) -> RunConfig:
    p = Path(path)
    if not p.exists():
        raise UsageError(f"config file not found: {p}")
    try:
        return RunConfig.load(p)
    except (json.JSONDecodeError, TypeError, ValueError) as e:
        raise UsageError(f"invalid config {p}: {e}") from None


def _read_samples(path: str) -> list[Sample]:
    """The samples of the dataset at ``path``, which must hold at least one."""
    samples = read_dataset(path)
    if not samples:
        raise UsageError(f"dataset {path} is empty")
    return samples


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(c) if isinstance(c, float) else str(c)
                              for c in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_gen(args) -> int:
    kinds = [k.strip() for k in args.corruptions.split(",") if k.strip()]
    for k in kinds:
        if k != "none" and k not in CORRUPTION_KINDS:
            raise UsageError(f"unknown corruption kind {k!r}")
    try:
        lo, hi = (float(x) for x in args.severities.split(","))
    except ValueError:
        raise UsageError(f"--severities expects LO,HI, got {args.severities!r}") from None
    if not (0.0 <= lo <= hi <= 1.0):
        raise UsageError(f"severity range must satisfy 0 <= lo <= hi <= 1, got {lo},{hi}")
    if args.n < 1:
        raise UsageError(f"--n must be >= 1, got {args.n}")
    try:
        h_full, w_full = (int(x) for x in args.size.split("x"))
    except ValueError:
        raise UsageError(f"--size expects HxW, got {args.size!r}") from None
    if h_full < 64 or w_full < 64:
        raise UsageError(f"--size must be at least 64x64, got {args.size}")
    samples = generate_dataset(args.n, args.seed, kinds, (lo, hi), h_full, w_full)
    write_dataset(samples, args.out)
    by_kind: dict[str, int] = {}
    for s in samples:
        key = s.corruption if s.severity > 0 else "none"
        by_kind[key] = by_kind.get(key, 0) + 1
    print(f"wrote {len(samples)} samples to {args.out}")
    for k in sorted(by_kind):
        print(f"  {k}: {by_kind[k]}")
    return 0


def cmd_train_seg(args) -> int:
    config = _load_config(args.config)
    samples = _read_samples(args.data)
    images, labels, _, _ = build_crops(samples, config, "gt-jitter")
    del samples     # the decoded frames are not needed once cropped
    log: list = []
    model = train_seg(images, labels, config, log=log)
    save_checkpoint(args.out, config, model.params(), "seg")
    _write_csv(Path(args.out) / "train_log.csv",
               ["epoch", "loss", "miou"], [list(r) for r in log])
    print(f"saved segmentation checkpoint to {args.out}")
    print(f"train miou {log[-1][2]:.4f}")
    return 0


def cmd_train_unc(args) -> int:
    config = _load_config(args.config)
    seg_config, seg_params = load_checkpoint(args.seg, "seg")
    if seg_config.arch_hash() != config.arch_hash():
        raise UsageError("config does not match the segmentation checkpoint's "
                         f"architecture ({config.arch_hash()} vs {seg_config.arch_hash()})")
    seg = SegModel(config)
    seg.set_params(seg_params)
    samples = _read_samples(args.data)
    images, labels, _, _ = build_crops(samples, config, "gt-jitter")
    del samples     # the decoded frames are not needed once cropped
    log: list = []
    head = train_unc(images, labels, seg, args.loss, config, log=log)
    save_checkpoint(args.out, config, head.params(), "unc")
    _write_csv(Path(args.out) / "train_log.csv",
               ["epoch", "loss", "target_abs_err"], [list(r) for r in log])
    print(f"saved uncertainty checkpoint to {args.out} (loss={args.loss})")
    print(f"final target error {log[-1][2]:.6f}")
    return 0


def cmd_infer(args) -> int:
    seg_config, seg_params = load_checkpoint(args.seg, "seg")
    unc_config, unc_params = load_checkpoint(args.unc, "unc")
    if seg_config.arch_hash() != unc_config.arch_hash():
        raise UsageError("checkpoint architectures differ: "
                         f"{seg_config.arch_hash()} vs {unc_config.arch_hash()}")
    config = seg_config
    seg = SegModel(config)
    seg.set_params(seg_params)
    head = UncHead(config)
    head.set_params(unc_params)
    images, _, boxes, ids = build_crops(_read_samples(args.data), config, args.detector)
    y_hat, s_unc = infer_samples(images, seg, head, config)
    accept = [int(threshold_decision(s, config.tau) == "accept") for s in s_unc]

    out = Path(args.out)
    (out / "pred").mkdir(parents=True, exist_ok=True)
    for sid, labels in zip(ids, y_hat):
        write_pgm(out / "pred" / f"{sid}.pgm", labels.astype(np.uint8))
    _write_csv(out / "scores.csv", ["sample_id", "s_unc", "accept_at_tau"],
               [list(row) for row in zip(ids, s_unc, accept)])
    _write_csv(out / "crops.csv", ["sample_id", "l", "t", "h", "w"],
               [[sid, *box.as_tuple()] for sid, box in zip(ids, boxes)])
    meta = {"config_hash": config.content_hash(), "arch_hash": config.arch_hash(),
            "detector": args.detector, "tau": config.tau}
    (out / "meta.json").write_text(json.dumps(meta, sort_keys=True, indent=1) + "\n",
                                   encoding="utf-8")
    print(f"wrote {len(ids)} predictions to {out} ({sum(accept)} accepted at "
          f"tau={config.tau})")
    return 0


def _read_csv(path: Path, required: tuple[str, ...]) -> list[dict[str, str]]:
    """Rows of a CSV file as dicts keyed by its header, which must name
    every ``required`` column."""
    lines = path.read_text(encoding="utf-8").strip().split("\n")
    header = lines[0].split(",")
    missing = [c for c in required if c not in header]
    if missing:
        raise UsageError(f"{path} lacks columns {missing} (header: {lines[0]!r})")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def _check_row_ids(name: str, row_ids: list[str], dataset_ids) -> None:
    """The CSV ``name`` must list each dataset id exactly once and nothing else."""
    counts = Counter(row_ids)
    bad = {"unknown ids": [sid for sid in counts if sid not in dataset_ids],
           "dataset ids without a row": [sid for sid in dataset_ids if sid not in counts],
           "duplicated ids": [sid for sid, c in counts.items() if c > 1]}
    problems = [f"{len(ids)} {what} ({', '.join(sorted(ids)[:20])})"
                for what, ids in bad.items() if ids]
    if problems:
        raise UsageError(f"{name} does not match the dataset: " + "; ".join(problems))


def cmd_eval(args) -> int:
    pred_dir = Path(args.pred)
    for required in ("scores.csv", "crops.csv", "meta.json"):
        if not (pred_dir / required).exists():
            raise UsageError(f"prediction dir missing {required}: {pred_dir}")
    try:
        meta = json.loads((pred_dir / "meta.json").read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise UsageError(f"malformed {pred_dir / 'meta.json'}: {e}") from None
    if not isinstance(meta, dict):
        raise UsageError(f"malformed {pred_dir / 'meta.json'}: not a JSON object")
    samples = {s.sample_id: s for s in _read_samples(args.data)}
    scores_rows = _read_csv(pred_dir / "scores.csv", ("sample_id", "s_unc"))
    crops_list = _read_csv(pred_dir / "crops.csv", ("sample_id", "l", "t", "h", "w"))
    _check_row_ids("scores.csv", [r["sample_id"] for r in scores_rows], samples)
    _check_row_ids("crops.csv", [r["sample_id"] for r in crops_list], samples)
    crops_rows = {r["sample_id"]: r for r in crops_list}

    missing = [sid for sid in samples if not (pred_dir / "pred" / f"{sid}.pgm").exists()]
    if missing:
        raise UsageError("predictions missing for: " + ", ".join(sorted(missing)[:20]))

    try:
        pcts = [float(x) for x in args.pcts.split(",")]
    except ValueError:
        raise UsageError(f"--pcts expects comma-separated numbers, got {args.pcts!r}") from None
    ids, score_list, confs, per_image = [], [], [], []
    for row in scores_rows:
        sid = row["sample_id"]
        crop = crops_rows[sid]
        try:
            s_unc = float(row["s_unc"])
            box = (int(crop["l"]), int(crop["t"]), int(crop["h"]), int(crop["w"]))
        except (KeyError, ValueError):
            raise UsageError(f"bad scores.csv or crops.csv row for {sid} in {pred_dir}: "
                             f"s_unc {row.get('s_unc')!r}, crop {crop}") from None
        if not np.isfinite(s_unc):
            raise UsageError(f"{pred_dir / 'scores.csv'}: s_unc of {sid} is "
                             f"{row['s_unc']!r}, not a finite number")
        pgm = pred_dir / "pred" / f"{sid}.pgm"
        y_hat = read_pgm(pgm).astype(np.int64)
        try:
            gt = crop_resize(samples[sid], box, y_hat.shape[0], y_hat.shape[1]).labels
        except ValueError as e:
            raise UsageError(f"crops.csv row for {sid} in {pred_dir}: {e}") from None
        try:
            conf = confusion_matrix(y_hat, gt)
        except ValueError as e:
            raise UsageError(f"{pgm}: {e}") from None
        m = metrics_from_confusion(conf)
        ids.append(sid)
        score_list.append(s_unc)
        confs.append(conf)
        per_image.append({"id": sid, "s_unc": s_unc, "miou": m["miou"], "acc": m["acc"]})

    overall = metrics_from_confusion(sum(confs))
    try:
        filtered = rank_and_filter(ids, score_list, confs, pcts)
    except ValueError as e:
        raise UsageError(f"--pcts {args.pcts}: {e}") from None
    report = {
        "config_hash": meta.get("config_hash", ""),
        "detector": meta.get("detector", ""),
        "unfiltered": {k: overall[k] for k in ("miou", "e1", "f1", "acc")},
        "per_image": per_image,
        "tables": {
            "filtering": [asdict(f) for f in filtered],
            "ablations": {},
        },
    }
    out = Path(args.out)
    out.write_text(json.dumps(report, sort_keys=True, indent=1) + "\n",
                   encoding="utf-8")
    rows = [[0.0, len(ids), overall["miou"]]]
    rows += [[f.pct, f.retained_count, f.retained_miou] for f in filtered]
    _write_csv(out.with_suffix(".filtering.csv"),
               ["pct", "retained_count", "retained_miou"], rows)
    print(f"unfiltered miou {overall['miou']:.4f} over {len(ids)} images")
    for f in filtered:
        print(f"  drop {f.pct:.0f}%: retained {f.retained_count}, "
              f"miou {f.retained_miou:.4f}")
    return 0


def cmd_landscape(args) -> int:
    try:
        v = np.array([float(x) for x in args.v.split(",")])
        lo, hi = (float(x) for x in args.range.split(","))
    except ValueError:
        raise UsageError("--v expects F,F and --range expects LO,HI") from None
    try:
        rows = landscape_grid(v, (lo, hi), args.n)
    except ValueError as e:
        raise UsageError(f"--v {args.v} --range {args.range} --n {args.n}: {e}") from None
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
    p.add_argument("--size", default="120x160", help="frame size HxW, at least 64x64")
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
    except (UsageError, DatasetError, CheckpointError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except FloatingPointError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
