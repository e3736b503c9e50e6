#!/usr/bin/env python3
"""Mutation check of the Tier-1 suite: which one-line faults in ``src`` it notices.

Run from anywhere inside the repository:

    python3 tools/mutants.py

``MUTANTS`` is a fixed list of one-line edits.  For each, the tracked and
untracked-but-not-ignored files (``git ls-files --cached --others
--exclude-standard``) are copied into a fresh temporary directory, the edit
is applied there, and Tier-1 runs in that copy with ``-x`` at
``OCUSEG_THREADS=1``.  A mutation whose run fails is "killed", and the first
failing test is printed; one whose run passes "survived".  The working tree
itself is never edited.  Before the mutations, Tier-1 runs once on an
unedited copy, since a failing suite would kill every mutation.

Exit 0 when every mutation that survives is marked ``equivalent`` (it cannot
change any result) or ``no caller`` (no command reaches the code yet).  Exit
1 when one that is expected to be killed survives, or when the unedited
suite fails.  Exit 2, before any run, when an edit's old text does not occur
exactly once in its file.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-rfE", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]


class Mutant(NamedTuple):
    file: str       # relative to src/ocuseg
    old: str
    new: str
    why: str
    expect: str     # "killed", "equivalent" or "no caller"


MUTANTS = [
    Mutant("evaluate.py", "(np.cumsum(counts) - (counts - 1) / 2.0)[group]",
           "np.cumsum(counts)[group]",
           "spearman: a tie group takes its last rank, not the average", "killed"),
    Mutant("evaluate.py", "keep = math.ceil(", "keep = math.floor(",
           "rank_and_filter: the retained count rounds down", "killed"),
    Mutant("evaluate.py", "float((cols + 0.5).mean() / w)", "float(cols.mean() / w)",
           "pupil_centroid: u loses the half-pixel centre", "killed"),
    Mutant("evaluate.py", ".mean() / w), float((rows + 0.5).mean() / h))",
           ".mean() / h), float((rows + 0.5).mean() / w))",
           "pupil_centroid: u and v normalized by the other axis", "killed"),
    Mutant("evaluate.py", "key=lambda i: (-scores[i], sample_ids[i])",
           "key=lambda i: -scores[i]",
           "rank_and_filter: equal scores keep input order, not id order", "killed"),
    Mutant("metrics.py", "np.mean((gt_pred - 2 * tp) / total)",
           "np.mean((gt_pred - tp) / total)",
           "E1 counts each true positive once in its numerator", "killed"),
    Mutant("metrics.py", "present = gt_pred > 0", "present = gt_pred >= 0",
           "a class absent from truth and prediction counts in the macro means", "killed"),
    Mutant("detect.py", "union = ah * aw + bh * bw - inter", "union = ah * aw + bh * bw",
           "iou: the intersection is counted twice in the union", "killed"),
    Mutant("detect.py", "BBOX_JITTER = 0.10", "BBOX_JITTER = 0.12",
           "ground-truth boxes jitter by 12% instead of 10%", "killed"),
    Mutant("optim.py", "MOMENTUM = 0.9\n", "MOMENTUM = 0.91\n",
           "the momentum of both stages", "killed"),
    Mutant("optim.py", "0.9 * step / 100", "0.9 * step / 90",
           "lr_schedule: warmup over 90 steps instead of 100", "killed"),
    Mutant("optim.py", "(1.0 - 0.9 * frac)", "(1.0 - 0.8 * frac)",
           "lr_schedule: decay to 0.2x instead of 0.1x", "killed"),
    Mutant("optim.py", "if norm > max_norm:", "if norm > 1.01 * max_norm:",
           "clip_grad_norm clips only above 1.01 x max_norm", "killed"),
    Mutant("uncertainty.py", "EPS_FLOOR = 1e-6", "EPS_FLOOR = 2e-6",
           "the head's variance floor doubles", "killed"),
    Mutant("evaluate.py", "np.exp(-(s - s.min()) / temperature)",
           "np.exp(-(s - s.min()) / (2.0 * temperature))",
           "fuse_gaze weighs by twice the temperature", "no caller"),
    Mutant("layers.py", "np.maximum(e, x >= 0.0, out=slope)",
           "np.maximum(e, x > 0.0, out=slope)",
           "softplus slope at x = 0: e = 1 there, so max(e, ...) is 1 either way",
           "equivalent"),
    Mutant("layers.py", "np.maximum(out, 0.0, out=out)", "np.maximum(out, -0.01, out=out)",
           "Conv2d's ReLU lets activations down to -0.01 through", "killed"),
    Mutant("layers.py", "grad_out * (self._out > 0.0)", "grad_out * (self._out >= 0.0)",
           "Conv2d's ReLU backward passes the gradient where the output is 0", "killed"),
    Mutant("synth.py", "(np.arange(256) / 255.0) ** gamma",
           "(np.arange(256) / 255.0) ** (1.0 / gamma)",
           "domain shift applies the inverse gamma", "killed"),
    Mutant("synth.py", "radius.flags.writeable = False", "radius.flags.writeable = True",
           "the cached vignette radii can be written", "killed"),
    Mutant("synth.py", "bbox = BBox(l, t, b_excl - t, r_excl - l)",
           "bbox = (l, t, b_excl - t, r_excl - l)",
           "render_eye's box is a plain tuple", "killed"),
    Mutant("synth.py", "return tuple(self)", "return tuple(self)[::-1]",
           "BBox.as_tuple reverses the fields", "killed"),
    Mutant("detect.py", "from .synth import BBox, Sample, levels8",
           "from .synth import Sample, levels8\nfrom typing import NamedTuple\n"
           "BBox = NamedTuple('BBox', [('l', int), ('t', int), ('h', int), ('w', int)])",
           "detect defines a second box type", "killed"),
    Mutant("detect.py", "    l, t, h, w = bbox\n", "    t, l, h, w = bbox\n",
           "_cut reads the box's left and top swapped", "killed"),
    Mutant("detect.py", "if not box_fits(bbox, *frame.shape):",
           "if not box_fits(bbox, *frame.shape[::-1]):",
           "_cut checks the box against the transposed frame", "killed"),
    Mutant("datasetio.py", 'gt_bbox=BBox(*rec["bbox"])', 'gt_bbox=tuple(rec["bbox"])',
           "read_dataset's box is a plain tuple", "killed"),
    Mutant("cli.py", "[[sid, s, *box] for sid, s, box",
           "[[sid, s, box.t, box.l, box.h, box.w] for sid, s, box",
           "infer writes each box's l and t columns swapped", "killed"),
]


def source_files() -> list[str]:
    out = subprocess.run(["git", "-C", str(ROOT), "ls-files", "--cached", "--others",
                          "--exclude-standard"], check=True, capture_output=True, text=True)
    return [f for f in out.stdout.splitlines() if (ROOT / f).is_file()]


def check_edits() -> list[str]:
    """One line per mutation whose old text is not in its file exactly once."""
    problems = []
    for m in MUTANTS:
        path = ROOT / "src" / "ocuseg" / m.file
        count = path.read_text(encoding="utf-8").count(m.old) if path.is_file() else 0
        if count != 1:
            problems.append(f"{m.file}: {m.old!r} occurs {count} times, not once")
    return problems


def run_tier1(files: list[str], mutant: Mutant | None) -> tuple[bool, str, float]:
    """Tier-1 in a fresh copy of ``files`` with ``mutant`` applied; returns
    (passed, first failing test, wall seconds)."""
    with tempfile.TemporaryDirectory(prefix="ocuseg-mutant-") as tmp:
        tree = Path(tmp)
        for f in files:
            (tree / f).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / f, tree / f)
        if mutant is not None:
            path = tree / "src" / "ocuseg" / mutant.file
            path.write_text(path.read_text(encoding="utf-8").replace(mutant.old, mutant.new),
                            encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1",
                   OCUSEG_THREADS="1")
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = "1"
        start = time.perf_counter()
        done = subprocess.run(TIER1, cwd=tree, env=env, capture_output=True, text=True)
        wall = time.perf_counter() - start
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.MULTILINE)
    first = failed.group(1) if failed else (done.stdout.strip().splitlines() or ["?"])[-1]
    return done.returncode == 0, first, wall


def main() -> int:
    problems = check_edits()
    if problems:
        print("error: these edits do not apply:", *problems, sep="\n  ", file=sys.stderr)
        return 2
    files = source_files()
    passed, first, wall = run_tier1(files, None)
    if not passed:
        print(f"error: Tier-1 fails without a mutation ({first}, {wall:.1f} s)",
              file=sys.stderr)
        return 1
    print(f"unmutated Tier-1 passes in {wall:.1f} s")
    unexpected = []
    for m in MUTANTS:
        passed, first, wall = run_tier1(files, m)
        result = "survived" if passed else "killed"
        note = f", expected {m.expect}" if (result == "killed") != (m.expect == "killed") else ""
        print(f"{result:8} {m.file}: {m.why} ({wall:.1f} s{note})")
        if not passed:
            print(f"         first failure: {first}")
        elif m.expect == "killed":
            unexpected.append(m)
    print(f"{len(MUTANTS)} mutations; {len(unexpected)} expected to be killed survived")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
