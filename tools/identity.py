#!/usr/bin/env python3
"""Byte-identity check of every CLI output against another revision.

Run from anywhere inside the repository:

    python3 tools/identity.py --against HEAD      # uncommitted edits vs HEAD
    python3 tools/identity.py --against HEAD~1    # the last commit vs its parent

REV's tracked files are written by ``git archive`` into a temporary
directory, which is removed afterwards; nothing is registered in ``.git``.
The same fixed matrix of ``ocuseg`` commands (``STEPS``) then runs in REV's
tree ("base") and in this working tree ("head"), each command in its own
subprocess, once with 1 and once with 2 BLAS threads.  Each command runs in
its run directory with relative paths, and its exit code, stdout and stderr
are kept as files next to what it wrote, so a changed message is a
difference too.  ``diff -rq`` then compares base and head at each thread
count.

Exit 0 when every file is identical and every command exited as ``STEPS``
expects; otherwise exit 1, listing each differing file relative to the
output root, whose outputs are kept for inspection.  Exit 2 when REV is not
a revision.  Each side's wall time is printed.  A SIGTERM stops the running
command and removes the temporary directory, and the exit code is 143.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREADS = (1, 2)

# configs as JSON objects, so the matrix imports nothing from either tree
CONFIGS = {
    # 24 frames and one epoch: no train-unc step reaches the head's clip norm
    "under.json": {"seed": 3, "crop_h": 48, "crop_w": 48, "d": 6, "widths": [4, 8],
                   "head_width": 4, "seg_epochs": 1, "unc_epochs": 1},
    # 256 frames and four epochs: every surrogate train-unc step is clipped
    # (the original loss's gradient stays under the clip norm)
    "clip.json": {"seed": 7, "crop_h": 96, "crop_w": 96, "d": 8, "widths": [8, 16],
                  "head_width": 8, "seg_epochs": 4, "unc_epochs": 2},
    "zero-epochs.json": {"seed": 3, "crop_h": 48, "crop_w": 48, "d": 6, "widths": [4, 8],
                         "head_width": 4, "seg_epochs": 0, "unc_epochs": 1},
}
KINDS = ["--corruptions", "none,blur,occlusion,domain_shift"]
MIXED = [*KINDS, "--severities", "0.05,1.0"]
DETECTORS = ("gt-jitter", "heuristic", "full")


def _infer(name: str, data: str, seg: str, unc: str, detector: str) -> list[str]:
    return ["infer", "--data", data, "--seg", seg, "--unc", unc, "--out", name,
            "--detector", detector]


def _eval(pred: str, data: str, *extra: str) -> list[str]:
    return ["eval", "--pred", pred, "--data", data, "--out", f"report-{pred}.json", *extra]


# (name, expected exit code, ocuseg argv), run in this order
STEPS = [
    ("gen-clean", 0, ["gen", "--out", "clean", "--n", "256", "--seed", "1001"]),
    ("gen-mixed", 0, ["gen", "--out", "mixed", "--n", "128", "--seed", "2002", *MIXED]),
    ("gen-97x131", 0, ["gen", "--out", "small", "--n", "24", "--seed", "3003", *MIXED,
                       "--size", "97x131"]),
    # 15-tap blurs, deep eyelids and strong domain shifts
    ("gen-high-200x240", 0, ["gen", "--out", "high", "--n", "32", "--seed", "4004", *KINDS,
                             "--severities", "0.9,1.0", "--size", "200x240"]),
    # every kind at severity 0: apply_corruption's identity branch
    ("gen-zero-severity", 0, ["gen", "--out", "zero", "--n", "12", "--seed", "5005",
                              "--corruptions", "blur,occlusion,domain_shift",
                              "--severities", "0,0"]),
    ("train-seg-under", 0, ["train-seg", "--data", "small", "--config", "under.json",
                            "--out", "seg-under"]),
    ("train-unc-under", 0, ["train-unc", "--data", "small", "--config", "under.json",
                            "--seg", "seg-under", "--out", "unc-under", "--loss", "original"]),
    ("train-seg-clip", 0, ["train-seg", "--data", "clean", "--config", "clip.json",
                           "--out", "seg-clip"]),
    *[(f"train-unc-{loss}", 0, ["train-unc", "--data", "mixed", "--config", "clip.json",
                                "--seg", "seg-clip", "--out", f"unc-{loss}", "--loss", loss])
      for loss in ("surrogate", "original")],
    *[(f"infer-{d}", 0, _infer(f"pred-{d}", "mixed", "seg-clip", "unc-surrogate", d))
      for d in DETECTORS],
    *[(f"eval-{d}", 0, _eval(f"pred-{d}", "mixed")) for d in DETECTORS],
    ("infer-original", 0, _infer("pred-original", "mixed", "seg-clip", "unc-original",
                                 "gt-jitter")),
    ("eval-original", 0, _eval("pred-original", "mixed", "--pcts", "5,10,25")),
    ("infer-under", 0, _infer("pred-under", "small", "seg-under", "unc-under", "heuristic")),
    ("eval-under", 0, _eval("pred-under", "small", "--pcts", "10,50")),
    # occluded and blurred 200x240 frames: clamped and fallback heuristic boxes
    ("infer-high", 0, _infer("pred-high", "high", "seg-clip", "unc-surrogate", "heuristic")),
    ("eval-high", 0, _eval("pred-high", "high")),
    ("landscape-a", 0, ["landscape", "--v", "1,2", "--range", "0.5,5.0", "--n", "21",
                        "--out", "landscape-a.csv"]),
    ("landscape-b", 0, ["landscape", "--v", "0.3,-1.7", "--range", "0.01,10",
                        "--out", "landscape-b.csv"]),
    ("flops-under", 0, ["flops", "--config", "under.json"]),
    ("flops-clip", 0, ["flops", "--config", "clip.json"]),
    # bad inputs: each exits 2, and its message is compared like any output
    ("bad-pcts", 2, _eval("pred-full", "mixed", "--pcts", "1,150")),
    ("bad-pcts-text", 2, _eval("pred-full", "mixed", "--pcts", "a,b")),
    ("bad-swapped-kind", 2, _infer("bad-pred", "mixed", "unc-surrogate", "seg-clip",
                                   "gt-jitter")),
    ("bad-arch", 2, ["train-unc", "--data", "small", "--config", "clip.json",
                     "--seg", "seg-under", "--out", "bad-unc"]),
    ("bad-cut-manifest", 2, ["train-seg", "--data", "cut", "--config", "under.json",
                             "--out", "bad-seg"]),
    ("bad-config-field", 2, ["flops", "--config", "zero-epochs.json"]),
    ("bad-config-missing", 2, ["flops", "--config", "none.json"]),
    ("bad-gen-size", 2, ["gen", "--out", "bad-gen", "--n", "1", "--seed", "1",
                         "--size", "10x10"]),
]


def cut_manifest(run: Path) -> None:
    """A copy of the 97x131 set whose manifest.json ends halfway."""
    shutil.copytree(run / "small", run / "cut")
    manifest = run / "cut" / "manifest.json"
    raw = manifest.read_bytes()
    manifest.write_bytes(raw[:len(raw) // 2])


# what a step needs in the run directory before it runs
PREPARE = {"bad-cut-manifest": cut_manifest}


def run_matrix(tree: Path, run: Path, threads: int) -> tuple[float, list[str]]:
    """Run ``STEPS`` with ``tree``'s sources in the fresh directory ``run``;
    returns the wall time and the steps whose exit code is not the expected one."""
    run.mkdir(parents=True)
    (run / "cmd").mkdir()
    for name, config in CONFIGS.items():
        (run / name).write_text(json.dumps(config, sort_keys=True, indent=1) + "\n",
                                encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1",
               OCUSEG_THREADS=str(threads))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    unexpected = []
    start = time.perf_counter()
    for name, expected, argv in STEPS:
        if name in PREPARE:
            PREPARE[name](run)
        done = subprocess.run([sys.executable, "-m", "ocuseg.cli", *argv], cwd=run, env=env,
                              capture_output=True)
        (run / "cmd" / f"{name}.exit").write_text(f"{done.returncode}\n", encoding="utf-8")
        (run / "cmd" / f"{name}.stdout").write_bytes(done.stdout)
        (run / "cmd" / f"{name}.stderr").write_bytes(done.stderr)
        if done.returncode != expected:
            unexpected.append(f"{name} exited {done.returncode}, not {expected}")
    return time.perf_counter() - start, unexpected


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """Write ``rev``'s tracked files into the new directory ``dest``."""
    dest.mkdir()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev], check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def exit_on_sigterm(signum, frame) -> None:
    # SystemExit unwinds through subprocess.run, which kills its child, and
    # through main's cleanup
    sys.exit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    previous = signal.signal(signal.SIGTERM, exit_on_sigterm)
    try:
        return compare(argv)
    finally:
        signal.signal(signal.SIGTERM, previous)


def compare(argv: list[str] | None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, metavar="REV",
                        help="the revision to compare this working tree with")
    args = parser.parse_args(argv)
    try:
        rev = git("rev-parse", "--short", "--verify", f"{args.against}^{{commit}}")
    except subprocess.CalledProcessError as e:
        print(f"error: {args.against!r} is not a revision: {e.stderr.strip()}", file=sys.stderr)
        return 2
    workdir = Path(tempfile.mkdtemp(prefix="ocuseg-identity-"))
    out = workdir / "out"
    base = workdir / "tree"
    try:
        export(rev, base)
        problems = []
        walls: dict[str, list[float]] = {"base": [], "head": []}
        for threads in THREADS:
            for side, tree in (("base", base), ("head", ROOT)):
                wall, unexpected = run_matrix(tree, out / side / f"t{threads}", threads)
                walls[side].append(wall)
                problems += [f"{side}/t{threads}: {u}" for u in unexpected]
            diff = subprocess.run(["diff", "-rq", f"base/t{threads}", f"head/t{threads}"],
                                  cwd=out, capture_output=True, text=True)
            if diff.returncode > 1:
                raise RuntimeError(f"diff failed: {diff.stderr.strip()}")
            problems += diff.stdout.splitlines()
    except BaseException:
        # an interrupted or failed run leaves nothing behind
        shutil.rmtree(workdir)
        raise
    shutil.rmtree(base)
    for side, label in (("base", f"base {rev}"), ("head", "head (working tree)")):
        times = ", ".join(f"{w:.1f} s at {t} thread{'s' * (t > 1)}"
                          for t, w in zip(THREADS, walls[side]))
        print(f"{label}: {len(STEPS)} commands, {times}")
    if problems:
        print(f"{len(problems)} differences; outputs kept in {out}:")
        for line in problems:
            print(f"  {line}")
        return 1
    files = sum(1 for p in (out / "head").rglob("*") if p.is_file())
    shutil.rmtree(workdir)
    print(f"identical: {files} files, at {' and '.join(map(str, THREADS))} BLAS threads")
    return 0


if __name__ == "__main__":
    sys.exit(main())
