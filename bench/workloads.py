"""The benchmark's workloads: inputs made from the seed and the timed pipeline.

Import only after ``ocuseg`` is importable from the checkout's ``src``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from ocuseg import cli, datasetio, optim, rng, segnet, synth
from ocuseg.checkpoint import load_checkpoint
from ocuseg.config import RunConfig
from ocuseg.evaluate import spearman
from ocuseg.pipeline import build_crops

KINDS = "none,blur,occlusion,domain_shift"

# Input sizes.  N = 128 frames as in ROADMAP item 1's baseline.  A train
# repetition is n x (seg + unc epochs) sample-passes: unc_epochs is the CLI
# default (3), which sets what a frozen-backbone cache could save, and
# seg_epochs is cut from 4 to 1 so that two repetitions fit in one run (every
# seg epoch repeats the same per-sample work).  A score repetition infers and
# evaluates n frames in 16-frame batches (so the first, buffer-allocating
# batch of each call stays beyond the tail percentile); a render repetition
# is one gen of n frames, read back.
FULL = {
    "train": {"n": 128, "heldout": 32, "seg_epochs": 1, "unc_epochs": 3},
    "score": {"n": 128, "n_train": 16, "seg_epochs": 1, "unc_epochs": 1},
    "render": {"n": 128},
}
SMOKE = {
    "train": {"n": 8, "heldout": 8, "seg_epochs": 1, "unc_epochs": 1},
    "score": {"n": 16, "n_train": 8, "seg_epochs": 1, "unc_epochs": 1},
    "render": {"n": 8},
}


class OpFailure(Exception):
    """An operation of the timed pipeline failed or produced a wrong artifact."""


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Workload:
    """One set of inputs and the timed pipeline run over them.

    ``setup`` makes the inputs under a directory; ``rep`` runs the timed
    pipeline once, writing under ``out``; ``verify`` (untimed) returns the
    artifact digests of a repetition and raises OpFailure on a wrong output.
    ``run_cli(*argv)`` runs one ocuseg command and raises OpFailure if it
    exits non-zero.
    """

    step_unit = ""

    def __init__(self, run_cli, seed: int, size: dict):
        self.cli = run_cli
        self.seed = seed
        self.size = size
        self.config: RunConfig | None = None

    def write_config(self, where: Path, **fields) -> Path:
        self.config = RunConfig(seed=self.seed, **fields)
        path = where / "config.json"
        path.write_text(self.config.to_json(), encoding="utf-8")
        return path

    def gen(self, out: Path, n: int, seed: int, kinds: str, sev: str) -> None:
        self.cli("gen", "--out", str(out), "--n", str(n), "--seed", str(seed),
                 "--corruptions", kinds, "--severities", sev)

    def install_hooks(self, patches, clock) -> None:
        """Hooks that time the workload's step with ``clock`` in the timed loop."""

    def quality(self, out: Path) -> dict:
        return {}


class Train(Workload):
    """train-seg on clean frames, then train-unc (surrogate) on mixed frames."""

    step_unit = "optimizer step (batch of 8)"

    def setup(self, where: Path) -> None:
        s = self.size
        self.config_path = self.write_config(where, seg_epochs=s["seg_epochs"],
                                             unc_epochs=s["unc_epochs"])
        base = 1000 * self.seed
        self.clean, self.mixed, self.heldout = where / "clean", where / "mixed", where / "heldout"
        self.gen(self.clean, s["n"], base + 1, "none", "0,0")
        self.gen(self.mixed, s["n"], base + 2, KINDS, "0.05,1.0")
        self.gen(self.heldout, s["heldout"], base + 3, "none", "0,0")

    @property
    def samples_per_rep(self) -> int:
        return self.size["n"] * (self.size["seg_epochs"] + self.size["unc_epochs"])

    def install_hooks(self, patches, clock) -> None:
        # a step runs from the epoch's shuffle or the previous optimizer step
        # to the end of its own optimizer step, leaving out per-epoch logging
        clock.hook(patches, rng.Rng, "shuffle", after=clock.start)
        clock.hook(patches, optim.SgdMomentum, "step",
                   after=lambda: (clock.stop(), clock.start()))

    def rep(self, out: Path) -> None:
        self.cli("train-seg", "--data", str(self.clean), "--config", str(self.config_path),
                 "--out", str(out / "seg"))
        self.cli("train-unc", "--data", str(self.mixed), "--config", str(self.config_path),
                 "--seg", str(out / "seg"), "--out", str(out / "unc"), "--loss", "surrogate")

    def verify(self, out: Path) -> dict[str, str]:
        return {name: sha256_file(out / name) for name in ("seg/weights.bin", "unc/weights.bin")}

    def quality(self, out: Path) -> dict:
        config, params = load_checkpoint(out / "seg")
        model = segnet.SegModel(config)
        model.set_params(params)
        images, labels, _, _ = build_crops(datasetio.read_dataset(self.heldout), config,
                                           "gt-jitter")
        log = (out / "unc" / "train_log.csv").read_text(encoding="utf-8").strip().split("\n")
        return {"miou": segnet.evaluate_miou(model, images, labels),
                "unc_target_err": float(log[-1].split(",")[2])}


class Score(Workload):
    """infer with the heuristic detector, then eval, over a mixed set."""

    step_unit = "inference batch (16 frames)"

    def setup(self, where: Path) -> None:
        s = self.size
        config = str(self.write_config(where, seg_epochs=s["seg_epochs"],
                                       unc_epochs=s["unc_epochs"]))
        base = 1000 * self.seed
        self.data, self.seg, self.unc = where / "mixed", where / "seg", where / "unc"
        self.gen(where / "clean", s["n_train"], base + 1, "none", "0,0")
        self.gen(where / "mixed_train", s["n_train"], base + 2, KINDS, "0.05,1.0")
        self.gen(self.data, s["n"], base + 4, KINDS, "0.05,1.0")
        self.cli("train-seg", "--data", str(where / "clean"), "--config", config,
                 "--out", str(self.seg))
        self.cli("train-unc", "--data", str(where / "mixed_train"), "--config", config,
                 "--seg", str(self.seg), "--out", str(self.unc), "--loss", "surrogate")

    @property
    def samples_per_rep(self) -> int:
        return self.size["n"]

    def install_hooks(self, patches, clock) -> None:
        # a batch runs from its backbone forward to the next batch's, or to
        # the end of infer_samples; detection comes before the first batch
        clock.hook(patches, segnet.SegModel, "forward_batch",
                   before=lambda: (clock.stop(), clock.start()))
        clock.hook(patches, cli, "infer_samples", after=clock.stop)

    def rep(self, out: Path) -> None:
        self.cli("infer", "--data", str(self.data), "--seg", str(self.seg),
                 "--unc", str(self.unc), "--out", str(out / "pred"), "--detector", "heuristic")
        self.cli("eval", "--pred", str(out / "pred"), "--data", str(self.data),
                 "--pcts", "1,2,3,4,5", "--out", str(out / "report.json"))

    def verify(self, out: Path) -> dict[str, str]:
        scores = out / "pred" / "scores.csv"
        rows = scores.read_text(encoding="utf-8").strip().split("\n")[1:]
        pgms = sorted((out / "pred" / "pred").glob("*.pgm"))
        if len(rows) != self.size["n"] or len(pgms) != self.size["n"]:
            raise OpFailure(f"missing predictions: {len(rows)} scores and {len(pgms)} "
                            f"label maps for {self.size['n']} frames")
        digests = {"pred/scores.csv": sha256_file(scores),
                   "report.json": sha256_file(out / "report.json")}
        digests.update({f"pred/pred/{p.name}": sha256_file(p) for p in pgms})
        return digests

    def quality(self, out: Path) -> dict:
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        miou = report["unfiltered"]["miou"]
        drop5 = next(r for r in report["tables"]["filtering"] if r["pct"] == 5.0)
        severity = {s.sample_id: s.severity for s in datasetio.read_dataset(self.data)}
        per_image = report["per_image"]
        return {"miou": miou,
                "miou_gain_drop5": drop5["retained_miou"] - miou,
                "spearman_sev": spearman([r["s_unc"] for r in per_image],
                                         [severity[r["id"]] for r in per_image])}


class Render(Workload):
    """gen of one mixed set at high severity (0.9-1.0), read straight back.

    The narrow range gives every blur a 15x15 kernel (motion lengths 14-15),
    so the costliest frames, which set the tail, do not hinge on a few draws.
    """

    step_unit = "frame (render_eye to the next frame's, or the end of generate_dataset)"
    sev = "0.9,1.0"

    def setup(self, where: Path) -> None:
        # warm-up: a set of the same size and severities, from another seed
        self.gen(where / "warm", self.size["n"], 1000 * self.seed + 99, KINDS, self.sev)
        datasetio.read_dataset(where / "warm")

    @property
    def samples_per_rep(self) -> int:
        return self.size["n"]

    def install_hooks(self, patches, clock) -> None:
        def capture(original):
            def wrapper(*args, **kwargs):
                samples = original(*args, **kwargs)
                self.captured = samples
                return samples
            return wrapper

        # keep what generate_dataset returned, to check the read-back against
        patches.wrap(cli, "generate_dataset", capture)
        # a frame runs from its render_eye call to the next frame's; corruption
        # and the next frame's scene parameters fall inside it
        clock.hook(patches, synth, "render_eye", before=lambda: (clock.stop(), clock.start()))
        clock.hook(patches, cli, "generate_dataset", after=clock.stop)

    def rep(self, out: Path) -> None:
        self.captured = None
        self.gen(out / "set", self.size["n"], 1000 * self.seed + 100, KINDS, self.sev)
        self.read_back = datasetio.read_dataset(out / "set")

    def verify(self, out: Path) -> dict[str, str]:
        made, read = self.captured or [], self.read_back
        if len(made) != len(read) or not made:
            raise OpFailure(f"read-back has {len(read)} samples, generated {len(made)}")
        for a, b in zip(made, read):
            same = (a.sample_id == b.sample_id and tuple(a.gt_bbox) == tuple(b.gt_bbox)
                    and a.severity == b.severity and a.corruption == b.corruption
                    and a.domain_id == b.domain_id
                    and np.array_equal(a.image, b.image)
                    and np.array_equal(a.labels, b.labels))
            if not same:
                raise OpFailure(f"read-back of sample {a.sample_id} differs from what "
                                "generate_dataset produced")
        return {str(p.relative_to(out)): sha256_file(p)
                for p in sorted(out.rglob("*")) if p.is_file()}


WORKLOAD_TYPES = {"train": Train, "score": Score, "render": Render}
