import contextlib
import filecmp
import hashlib
import io
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import traceback
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ocuseg
from ocuseg import evaluate, segnet, uncertainty
from ocuseg.checkpoint import load_checkpoint
from ocuseg.cli import build_parser, main
from ocuseg.config import InputError, RunConfig
from ocuseg.datasetio import read_dataset, read_pgm, write_pgm
from ocuseg.detect import BBox, crop_resize
from ocuseg.metrics import confusion_matrix
from ocuseg.pipeline import DETECTOR_MODES, build_crops, infer_samples
from ocuseg.segnet import SegModel
from ocuseg.uncertainty import UncHead


@pytest.fixture(scope="module", autouse=True)
def slow_rates():
    """Training in this process runs both stages at a learning rate of 1e-4;
    the subprocesses of the thread test train at the modules' own rates."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(segnet, "SEG_LR", 1e-4)
        mp.setattr(uncertainty, "UNC_LR", 1e-4)
        yield


def tiny_cfg(tmp_path, **overrides) -> Path:
    kwargs = dict(seed=5, crop_h=32, crop_w=32, d=4, widths=[4, 8],
                  head_width=4, seg_epochs=1, unc_epochs=1)
    kwargs.update(overrides)
    cfg = RunConfig(**kwargs)
    p = tmp_path / "config.json"
    p.write_text(cfg.to_json())
    return p


def dirs_equal(a: Path, b: Path) -> bool:
    cmp = filecmp.dircmp(a, b)
    if cmp.left_only or cmp.right_only or cmp.diff_files:
        return False
    _, mismatch, errors = filecmp.cmpfiles(
        a, b, cmp.common_files, shallow=False)
    if mismatch or errors:
        return False
    return all(dirs_equal(a / d, b / d) for d in cmp.common_dirs)


class TestGen:
    def test_byte_identical_reruns(self, tmp_path):
        for sub in ("a", "b"):
            rc = main(["gen", "--out", str(tmp_path / sub), "--n", "10",
                       "--seed", "7", "--corruptions", "none,blur",
                       "--severities", "0.2,0.8"])
            assert rc == 0
        assert dirs_equal(tmp_path / "a", tmp_path / "b")

    def test_zero_severity_means_clean(self, tmp_path):
        rc = main(["gen", "--out", str(tmp_path / "d"), "--n", "6",
                   "--seed", "3", "--corruptions", "blur", "--severities", "0,0"])
        assert rc == 0
        manifest = json.loads((tmp_path / "d" / "manifest.json").read_text())
        assert all(rec["severity"] == 0.0 for rec in manifest)

    def test_severity_histogram_covers_kinds(self, tmp_path):
        rc = main(["gen", "--out", str(tmp_path / "d"), "--n", "60",
                   "--seed", "3", "--corruptions",
                   "none,blur,occlusion,domain_shift", "--severities", "0.1,1.0"])
        assert rc == 0
        manifest = json.loads((tmp_path / "d" / "manifest.json").read_text())
        kinds = {rec["corruption"] for rec in manifest}
        assert kinds == {"none", "blur", "occlusion", "domain_shift"}
        sevs = [rec["severity"] for rec in manifest if rec["corruption"] != "none"]
        assert min(sevs) >= 0.1 and max(sevs) <= 1.0

    def test_bad_args_exit_2(self, tmp_path):
        assert main(["gen", "--out", str(tmp_path / "d"), "--n", "2",
                     "--seed", "1", "--corruptions", "fog"]) == 2
        assert main(["gen", "--out", str(tmp_path / "d"), "--n", "2",
                     "--seed", "1", "--severities", "0.9,0.1"]) == 2


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One tiny end-to-end training shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg_path = tiny_cfg(root)
    assert main(["gen", "--out", str(root / "data"), "--n", "12",
                 "--seed", "9", "--corruptions", "none,blur",
                 "--severities", "0.3,0.9"]) == 0
    assert main(["train-seg", "--data", str(root / "data"),
                 "--config", str(cfg_path), "--out", str(root / "seg")]) == 0
    assert main(["train-unc", "--data", str(root / "data"),
                 "--config", str(cfg_path), "--seg", str(root / "seg"),
                 "--out", str(root / "unc"), "--loss", "surrogate"]) == 0
    return root, cfg_path


class TestTraining:
    def test_checkpoints_reproducible(self, trained, tmp_path):
        root, cfg_path = trained
        assert main(["train-seg", "--data", str(root / "data"),
                     "--config", str(cfg_path), "--out", str(tmp_path / "seg2")]) == 0
        assert (root / "seg" / "weights.bin").read_bytes() \
            == (tmp_path / "seg2" / "weights.bin").read_bytes()

    def test_missing_seg_checkpoint_exit_2(self, trained, tmp_path, capsys):
        root, cfg_path = trained
        assert main(["train-unc", "--data", str(root / "data"),
                     "--config", str(cfg_path), "--seg", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "unc2")]) == 2
        assert f"No such file or directory: '{tmp_path / 'nope' / 'header.json'}'" \
            in capsys.readouterr().err

    def test_corrupt_config_exit_2(self, trained, tmp_path):
        root, _ = trained
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert main(["train-seg", "--data", str(root / "data"),
                     "--config", str(bad), "--out", str(tmp_path / "s")]) == 2


class TestThreadDeterminism:
    def test_weights_identical_for_1_and_2_blas_threads(self, trained, tmp_path):
        """Checkpoints and training logs of both stages, ``infer``'s
        predictions and scores, ``eval``'s report and ``gen``'s files are
        byte-identical at one and two BLAS threads."""
        root, cfg_path = trained
        env = {k: v for k, v in os.environ.items()
               if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
        env["PYTHONPATH"] = str(Path(ocuseg.__file__).resolve().parents[1])
        train = ["--data", str(root / "data"), "--config", str(cfg_path)]
        for threads in ("1", "2"):
            env["OCUSEG_THREADS"] = threads
            out = tmp_path / f"t{threads}"
            for argv in (["train-seg", "--out", str(out / "seg"), *train],
                         ["train-unc", "--seg", str(out / "seg"), "--out", str(out / "unc"),
                          *train],
                         ["infer", "--data", str(root / "data"), "--seg", str(out / "seg"),
                          "--unc", str(out / "unc"), "--out", str(out / "pred")],
                         ["eval", "--pred", str(out / "pred"), "--data", str(root / "data"),
                          "--out", str(out / "report.json")],
                         ["gen", "--out", str(out / "blur"), "--n", "4", "--seed", "5",
                          "--corruptions", "blur", "--severities", "0.1,1.0"]):
                subprocess.run([sys.executable, "-m", "ocuseg.cli", *argv],
                               env=env, check=True, capture_output=True, timeout=300)
        for stage in ("seg", "unc"):
            assert (tmp_path / "t1" / stage / "weights.bin").read_bytes() \
                == (tmp_path / "t2" / stage / "weights.bin").read_bytes()
        pred = sorted((tmp_path / "t1" / "pred" / "pred").glob("*.pgm"))
        assert len(pred) == 12
        blurred = sorted(p for p in (tmp_path / "t1" / "blur").rglob("*") if p.is_file())
        assert len(blurred) > 4
        logs = [tmp_path / "t1" / stage / "train_log.csv" for stage in ("seg", "unc")]
        reports = [tmp_path / "t1" / name for name in ("report.json", "report.filtering.csv")]
        for path in [*logs, *reports, tmp_path / "t1" / "pred" / "scores.csv", *pred, *blurred]:
            rel = path.relative_to(tmp_path / "t1")
            assert (tmp_path / "t1" / rel).read_bytes() == (tmp_path / "t2" / rel).read_bytes()


class TestInferEval:
    def test_infer_deterministic_and_scored(self, trained, tmp_path):
        root, _ = trained
        for sub in ("p1", "p2"):
            assert main(["infer", "--data", str(root / "data"),
                         "--seg", str(root / "seg"), "--unc", str(root / "unc"),
                         "--out", str(tmp_path / sub)]) == 0
        assert (tmp_path / "p1" / "scores.csv").read_bytes() \
            == (tmp_path / "p2" / "scores.csv").read_bytes()
        lines = (tmp_path / "p1" / "scores.csv").read_text().strip().split("\n")
        assert lines[0] == "sample_id,s_unc,l,t,h,w"
        assert len(lines) == 13
        assert all(len(ln.split(",")) == 6 for ln in lines)
        meta = json.loads((tmp_path / "p1" / "meta.json").read_text())
        assert set(meta) == {"config_hash", "arch_hash", "detector", "crop"}
        assert meta["crop"] == [32, 32]
        assert not (tmp_path / "p1" / "crops.csv").exists()

    def test_arch_mismatch_exit_2(self, trained, tmp_path):
        root, _ = trained
        other_cfg = tiny_cfg(tmp_path, d=8)
        assert main(["gen", "--out", str(tmp_path / "d2"), "--n", "4",
                     "--seed", "2"]) == 0
        assert main(["train-seg", "--data", str(tmp_path / "d2"),
                     "--config", str(other_cfg), "--out", str(tmp_path / "seg8")]) == 0
        assert main(["infer", "--data", str(root / "data"),
                     "--seg", str(tmp_path / "seg8"), "--unc", str(root / "unc"),
                     "--out", str(tmp_path / "p")]) == 2

    def test_seg_checkpoint_as_unc_exit_2(self, trained, tmp_path, capsys):
        root, _ = trained
        assert main(["infer", "--data", str(root / "data"),
                     "--seg", str(root / "seg"), "--unc", str(root / "seg"),
                     "--out", str(tmp_path / "p")]) == 2
        assert f"{root / 'seg'}: checkpoint kind is 'seg', expected 'unc'" \
            in capsys.readouterr().err

    def test_eval_report(self, trained, tmp_path):
        root, _ = trained
        pred = tmp_path / "pred"
        assert main(["infer", "--data", str(root / "data"),
                     "--seg", str(root / "seg"), "--unc", str(root / "unc"),
                     "--out", str(pred)]) == 0
        out = tmp_path / "report.json"
        assert main(["eval", "--pred", str(pred), "--data", str(root / "data"),
                     "--pcts", "10,20", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert set(report) == {"config_hash", "detector", "unfiltered",
                               "per_image", "tables"}
        assert len(report["per_image"]) == 12
        assert [row["pct"] for row in report["tables"]["filtering"]] == [10.0, 20.0]
        assert out.with_suffix(".filtering.csv").exists()
        # rerun is byte-identical
        out2 = tmp_path / "report2.json"
        assert main(["eval", "--pred", str(pred), "--data", str(root / "data"),
                     "--pcts", "10,20", "--out", str(out2)]) == 0
        assert out.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("detector", DETECTOR_MODES)
    def test_eval_report_matches_in_memory_path(self, trained, tmp_path, detector):
        root, _ = trained
        pred, out = tmp_path / "pred", tmp_path / "report.json"
        assert main(["infer", "--data", str(root / "data"), "--seg", str(root / "seg"),
                     "--unc", str(root / "unc"), "--out", str(pred),
                     "--detector", detector]) == 0
        assert main(["eval", "--pred", str(pred), "--data", str(root / "data"),
                     "--pcts", "10,25", "--out", str(out)]) == 0
        config, seg_params = load_checkpoint(root / "seg", "seg")
        seg = SegModel(config)
        seg.set_params(seg_params)
        head = UncHead(config)
        head.set_params(load_checkpoint(root / "unc", "unc")[1])
        images, labels, _, ids = build_crops(read_dataset(root / "data"), config, detector)
        y_hat, s_unc = infer_samples(images, seg, head)
        confs = [confusion_matrix(p, t) for p, t in zip(y_hat, labels)]
        assert json.loads(out.read_text()) == {
            "config_hash": config.content_hash(), "detector": detector,
            **evaluate.report(ids, s_unc.tolist(), confs, [10.0, 25.0])}

    def test_eval_missing_predictions_exit_2(self, trained, tmp_path, capsys):
        root, _ = trained
        pred = tmp_path / "pred"
        assert main(["infer", "--data", str(root / "data"),
                     "--seg", str(root / "seg"), "--unc", str(root / "unc"),
                     "--out", str(pred)]) == 0
        (pred / "pred" / "s000003.pgm").unlink()
        capsys.readouterr()
        assert main(["eval", "--pred", str(pred), "--data", str(root / "data"),
                     "--out", str(tmp_path / "r.json")]) == 2
        assert f"No such file or directory: '{pred / 'pred' / 's000003.pgm'}'" \
            in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()


    @pytest.mark.parametrize("edit,expected", [
        (lambda rows: rows + [f"x{i:02d},0.5,0,0,120,160" for i in range(25)],
         "25 unknown ids (" + ", ".join(f"x{i:02d}" for i in range(20)) + ")"),
        (lambda rows: rows[:3] + rows[4:], "1 dataset ids without a row (s000002)"),
        (lambda rows: rows + rows[1:3], "2 duplicated ids (s000000, s000001)"),
    ], ids=["unknown", "missing", "duplicated"])
    def test_eval_score_rows_must_match_dataset(self, trained, tmp_path, capsys,
                                                edit, expected):
        root, _ = trained
        pred = tmp_path / "pred"
        assert main(["infer", "--data", str(root / "data"),
                     "--seg", str(root / "seg"), "--unc", str(root / "unc"),
                     "--out", str(pred)]) == 0
        scores = pred / "scores.csv"
        rows = scores.read_text().strip().split("\n")
        assert rows[1].startswith("s000000,") and rows[3].startswith("s000002,")
        scores.write_text("\n".join(edit(rows)) + "\n")
        capsys.readouterr()
        assert main(["eval", "--pred", str(pred), "--data", str(root / "data"),
                     "--out", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert expected in err and "Traceback" not in err
        assert not (tmp_path / "r.json").exists()

    def test_non_finite_score_exit_3_before_writing(self, trained, tmp_path):
        # finite in float32, but the float32 forward overflows to inf; a
        # subprocess, because the overflow warning fails an in-process test
        root, _ = trained
        seg = tmp_path / "seg"
        shutil.copytree(root / "seg", seg)
        with_first_weight(seg, 3e38)
        env = {**os.environ, "PYTHONPATH": str(Path(ocuseg.__file__).resolve().parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "ocuseg.cli", "infer", "--data", str(root / "data"),
             "--seg", str(seg), "--unc", str(root / "unc"), "--out", str(tmp_path / "p")],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 3, proc.stderr
        assert "numeric failure: s_unc is not finite for 12 samples (s000000, s000001," \
            in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "p").exists()

    @pytest.mark.parametrize("stage, weight", [("seg", -1e38), ("unc", 1e38)])
    def test_large_weight_exit_3_naming_the_checkpoints(self, trained, tmp_path, capsys,
                                                        stage, weight):
        # finite in float32, so the load accepts it, but the float32
        # forward overflows; the frames are 8-bit, so the message blames
        # the weights
        root, _ = trained
        shutil.copytree(root / stage, tmp_path / stage)
        with_first_weight(tmp_path / stage, weight)
        dirs = {"seg": root / "seg", "unc": root / "unc", stage: tmp_path / stage}
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            rc = main(["infer", "--data", str(root / "data"), "--seg", str(dirs["seg"]),
                       "--unc", str(dirs["unc"]), "--out", str(tmp_path / "p")])
        err = capsys.readouterr().err
        assert rc == 3, err
        assert err.startswith("numeric failure: s_unc is not finite for "), err
        assert (f"the weights of --seg {dirs['seg']} or --unc {dirs['unc']} overflow "
                "the float32 forward") in err, err
        assert not (tmp_path / "p").exists()

    @pytest.mark.parametrize("detector", ["gt-jitter", "full"])
    def test_small_frames_need_no_heuristic_detector(self, trained, tmp_path, detector):
        root, _ = trained
        argv = with_detector(infer_on_dataset(small_frame), detector)(tmp_path, root, None)
        assert main(argv) == 0
        assert len((tmp_path / "g" / "scores.csv").read_text().strip().split("\n")) == 13

    def test_edited_checkpoint_config_exit_2(self, trained, tmp_path, capsys):
        root, _ = trained
        seg = tmp_path / "seg"
        shutil.copytree(root / "seg", seg)
        header = json.loads((seg / "header.json").read_text())
        header["config"]["head_width"] += 1
        (seg / "header.json").write_text(json.dumps(header))
        assert main(["infer", "--data", str(root / "data"),
                     "--seg", str(seg), "--unc", str(root / "unc"),
                     "--out", str(tmp_path / "p")]) == 2
        assert "does not match its config" in capsys.readouterr().err


PINNED_SCORES = [3.5, -1.25, 3.5, 1e5, 0.0, 2.0, -7.0, 3.5]


def hand_built_predictions(root: Path, legacy: bool) -> Path:
    """A prediction directory written without a network for the pinned
    ``gen`` set at ``root / "data"``: each label map is its ground-truth crop
    shifted by up to two columns, with a block cleared in every third map;
    even samples keep their manifest box and odd ones take the whole frame.
    ``legacy`` adds the ``accept_at_tau`` column and the ``tau`` key that
    earlier versions of ``infer`` wrote."""
    pred = root / "pred"
    (pred / "pred").mkdir(parents=True)
    rows = ["sample_id,s_unc,accept_at_tau,l,t,h,w" if legacy else "sample_id,s_unc,l,t,h,w"]
    for i, (s, s_unc) in enumerate(zip(read_dataset(root / "data"), PINNED_SCORES)):
        box = s.gt_bbox if i % 2 == 0 else BBox(0, 0, *s.image.shape)
        y_hat = np.roll(crop_resize(s, box, 32, 32)[1], i % 3, axis=1)
        if i % 3 == 0:
            y_hat[4:12, 10:20] = 0
        write_pgm(pred / "pred" / f"{s.sample_id}.pgm", y_hat.astype(np.uint8))
        rows.append(",".join([s.sample_id, repr(s_unc), *(["0"] if legacy else []),
                              *map(str, box)]))
    (pred / "scores.csv").write_text("\n".join(rows) + "\n")
    meta = {"config_hash": "0123456789abcdef", "arch_hash": "fedcba9876543210",
            "detector": "gt-jitter", "crop": [32, 32], **({"tau": 0.0} if legacy else {})}
    (pred / "meta.json").write_text(json.dumps(meta, sort_keys=True, indent=1) + "\n")
    return pred


@pytest.mark.parametrize("legacy", [False, True], ids=["current", "legacy"])
def test_eval_outputs_pinned(tmp_path, capsys, legacy):
    """``eval``'s report, filtering table and stdout on hand-built
    predictions, pinned by sha256; no network runs, so no float depends on
    the BLAS build.  A directory in the format of earlier versions gives
    the same bytes."""
    assert main(["gen", "--out", str(tmp_path / "data"), "--n", str(len(PINNED_SCORES)),
                 "--seed", "13"]) == 0
    pred = hand_built_predictions(tmp_path, legacy)
    out = tmp_path / "report.json"
    capsys.readouterr()
    assert main(["eval", "--pred", str(pred), "--data", str(tmp_path / "data"),
                 "--pcts", "10,25,50", "--out", str(out)]) == 0
    digests = {name: hashlib.sha256(data).hexdigest()[:16] for name, data in (
        ("report", out.read_bytes()),
        ("filtering", out.with_suffix(".filtering.csv").read_bytes()),
        ("stdout", capsys.readouterr().out.encode()))}
    assert digests == {"report": "d40438260342a8ab", "filtering": "4b7cf13470709c7d",
                       "stdout": "f0cc2adad1872bed"}


@pytest.fixture(scope="module")
def predicted(trained):
    root, _ = trained
    pred = root / "pred"
    assert main(["infer", "--data", str(root / "data"), "--seg", str(root / "seg"),
                 "--unc", str(root / "unc"), "--out", str(pred)]) == 0
    return pred


def config_with(tmp_path, field, value) -> Path:
    """A tiny config file with one field set past RunConfig's validation."""
    data = json.loads(tiny_cfg(tmp_path).read_text())
    data[field] = value
    p = tmp_path / "edited.json"
    p.write_text(json.dumps(data))
    return p


def train_with(field, value=0):
    def argv(tmp_path, root, pred):
        stage = ["train-seg"] if field.startswith("seg") else \
            ["train-unc", "--seg", str(root / "seg")]
        return [*stage, "--data", str(root / "data"),
                "--config", str(config_with(tmp_path, field, value)),
                "--out", str(tmp_path / "out")]
    return argv


def eval_with(edit, pcts="1,2"):
    def argv(tmp_path, root, pred):
        copy = tmp_path / "pred"
        shutil.copytree(pred, copy)
        edit(copy)
        return ["eval", "--pred", str(copy), "--data", str(root / "data"),
                "--pcts", pcts, "--out", str(tmp_path / "r.json")]
    return argv


def replace_score(pred, value):
    rows = (pred / "scores.csv").read_text().split("\n")
    fields = rows[1].split(",")
    rows[1] = ",".join([fields[0], value, *fields[2:]])
    (pred / "scores.csv").write_text("\n".join(rows))


def replace_header(name, header):
    def edit(pred):
        rows = (pred / name).read_text().split("\n")
        rows[0] = header
        (pred / name).write_text("\n".join(rows))
    return edit


def write_label(pred, value):
    y_hat = read_pgm(pred / "pred" / "s000000.pgm")
    y_hat[3, 4] = value
    write_pgm(pred / "pred" / "s000000.pgm", y_hat)


def replace_crop(pred, box):
    """Set the box columns of the first scores.csv row (sample s000000)."""
    rows = (pred / "scores.csv").read_text().split("\n")
    assert rows[1].startswith("s000000,")
    rows[1] = ",".join([*rows[1].split(",")[:2], *map(str, box)])
    (pred / "scores.csv").write_text("\n".join(rows))


def append_crop(pred, row):
    with open(pred / "scores.csv", "a") as f:
        f.write(row + "\n")


def two_file_format(pred):
    """Split scores.csv into the earlier scores.csv + crops.csv pair."""
    rows = [ln.split(",") for ln in (pred / "scores.csv").read_text().strip().split("\n")]
    (pred / "scores.csv").write_text("".join(",".join(r[:2]) + "\n" for r in rows))
    (pred / "crops.csv").write_text("".join(",".join([r[0], *r[2:]]) + "\n" for r in rows))


def gen(*extra):
    def argv(tmp_path, root, pred):
        return ["gen", "--out", str(tmp_path / "g"), "--seed", "1", *extra]
    return argv


def infer_with_seg_header(edit, raw=False):
    """infer with a seg checkpoint whose header.json ``edit`` changed: the
    parsed header in place, or with ``raw`` the file's text, which ``edit``
    returns replaced."""
    def argv(tmp_path, root, pred):
        seg = tmp_path / "seg"
        shutil.copytree(root / "seg", seg)
        path = seg / "header.json"
        if raw:
            path.write_text(edit(path.read_text()))
        else:
            header = json.loads(path.read_text())
            edit(header)
            path.write_text(json.dumps(header))
        return ["infer", "--data", str(root / "data"), "--seg", str(seg),
                "--unc", str(root / "unc"), "--out", str(tmp_path / "p")]
    return argv


def infer_with_seg_tensor(name, shape, zeros=False):
    """infer with a seg checkpoint whose header lists one more tensor,
    ``name`` of ``shape``, where the others end; ``zeros`` appends its data
    to weights.bin."""
    def argv(tmp_path, root, pred):
        entry = {"name": name, "shape": shape,
                 "byte_offset": (root / "seg" / "weights.bin").stat().st_size}
        out = infer_with_seg_header(lambda header: header["tensors"].append(entry))(
            tmp_path, root, pred)
        if zeros:
            with open(tmp_path / "seg" / "weights.bin", "ab") as f:
                f.write(bytes(8 * math.prod(shape)))
        return out
    return argv


def with_first_weight(checkpoint: Path, value: float) -> None:
    """Overwrite the first float64 of ``checkpoint``'s weights.bin."""
    raw = bytearray((checkpoint / "weights.bin").read_bytes())
    raw[:8] = np.array([value], dtype="<f8").tobytes()
    (checkpoint / "weights.bin").write_bytes(bytes(raw))


def infer_with_unc_weight(value):
    """infer with an unc checkpoint whose first stored value is ``value``."""
    def argv(tmp_path, root, pred):
        unc = tmp_path / "unc"
        shutil.copytree(root / "unc", unc)
        with_first_weight(unc, value)
        return ["infer", "--data", str(root / "data"), "--seg", str(root / "seg"),
                "--unc", str(unc), "--out", str(tmp_path / "g")]
    return argv


def infer_with_config_field(field, value):
    """infer with a seg checkpoint whose stored config carries ``field``."""
    return infer_with_seg_header(lambda header: header["config"].update({field: value}))


def empty_dataset(tmp_path):
    data = tmp_path / "empty_set"
    data.mkdir()
    (data / "manifest.json").write_text("[]\n")
    return data


def infer_with(seg="seg", unc="unc", empty=False):
    def argv(tmp_path, root, pred):
        data = empty_dataset(tmp_path) if empty else root / "data"
        return ["infer", "--data", str(data), "--seg", str(root / seg),
                "--unc", str(root / unc), "--out", str(tmp_path / "g")]
    return argv


def edited_dataset(tmp_path, root, edit) -> Path:
    """A copy of the dataset: ``edit(data, records)`` may change its files,
    and what it returns is written as its manifest."""
    data = tmp_path / "data"
    shutil.copytree(root / "data", data)
    manifest = data / "manifest.json"
    manifest.write_text(json.dumps(edit(data, json.loads(manifest.read_text()))))
    return data


def infer_on_dataset(edit):
    """infer on a copy of the dataset that ``edit`` changed (``edited_dataset``)."""
    def argv(tmp_path, root, pred):
        return ["infer", "--data", str(edited_dataset(tmp_path, root, edit)),
                "--seg", str(root / "seg"), "--unc", str(root / "unc"),
                "--out", str(tmp_path / "g")]
    return argv


def train_seg_on_dataset(edit):
    """train-seg on a copy of the dataset that ``edit`` changed (``edited_dataset``)."""
    def argv(tmp_path, root, pred):
        return ["train-seg", "--data", str(edited_dataset(tmp_path, root, edit)),
                "--config", str(tiny_cfg(tmp_path)), "--out", str(tmp_path / "g")]
    return argv


def train_unc_with_seg_weight(value):
    """train-unc from a seg checkpoint whose first stored value is ``value``."""
    def argv(tmp_path, root, pred):
        seg = tmp_path / "seg"
        shutil.copytree(root / "seg", seg)
        with_first_weight(seg, value)
        return ["train-unc", "--data", str(root / "data"), "--seg", str(seg),
                "--config", str(tiny_cfg(tmp_path)), "--out", str(tmp_path / "g")]
    return argv


def set_record(i, **fields):
    """An ``infer_on_dataset`` edit that sets fields of manifest record ``i``."""
    def edit(data, records):
        records[i].update(fields)
        return records
    return infer_on_dataset(edit)


def small_frame(data, records):
    """Cut sample 0 to a 48x48 frame, with its box inside it."""
    for sub in ("img", "lbl"):
        path = data / sub / "s000000.pgm"
        write_pgm(path, read_pgm(path)[:48, :48])
    records[0]["bbox"] = [0, 0, 48, 48]
    return records


def with_detector(make_argv, detector):
    def argv(tmp_path, root, pred):
        return [*make_argv(tmp_path, root, pred), "--detector", detector]
    return argv


def empty_label_map(data, records):
    (data / "lbl" / "s000000.pgm").write_bytes(b"")
    return records


def image_as_directory(data, records):
    path = data / "img" / "s000000.pgm"
    path.unlink()
    path.mkdir()
    return records


def no_label_map(data, records):
    (data / "lbl" / "s000002.pgm").unlink()
    return records


def with_legacy_fields(fields: dict) -> None:
    """Add the config fields that earlier versions wrote and that are gone."""
    fields.update(seg_momentum=0.9, unc_momentum=0.9, bbox_jitter=0.1, tau=0.0,
                  seg_lr=3e-4, seg_batch=8, unc_lr=1e-3, unc_batch=8, eps_floor=1e-6)


# sorted, as ``from_dict`` names them
LEGACY_FIELDS = ["bbox_jitter", "eps_floor", "seg_batch", "seg_lr", "seg_momentum", "tau",
                 "unc_batch", "unc_lr", "unc_momentum"]


def legacy_config(tmp_path) -> str:
    fields = json.loads(tiny_cfg(tmp_path).read_text())
    with_legacy_fields(fields)
    path = tmp_path / "legacy.json"
    path.write_text(json.dumps(fields))
    return str(path)


def edit_meta(edit):
    """An ``eval_with`` edit that changes the parsed meta.json in place."""
    def apply(pred):
        meta = json.loads((pred / "meta.json").read_text())
        edit(meta)
        (pred / "meta.json").write_text(json.dumps(meta))
    return apply


def halve_prediction(pred):
    path = pred / "pred" / "s000000.pgm"
    raw = path.read_bytes()
    path.write_bytes(raw[:len(raw) // 2])


def prediction_as_directory(pred):
    path = pred / "pred" / "s000000.pgm"
    path.unlink()
    path.mkdir()


def small_label_map(data, records):
    path = data / "lbl" / "s000000.pgm"
    write_pgm(path, read_pgm(path)[:100, :150])
    return records


def eval_empty(tmp_path, root, pred):
    return ["eval", "--pred", str(pred), "--data", str(empty_dataset(tmp_path)),
            "--out", str(tmp_path / "r.json")]


def landscape(*extra):
    def argv(tmp_path, root, pred):
        return ["landscape", "--v", "1,2", "--range", "0.5,5.0", *extra,
                "--out", str(tmp_path / "g.csv")]
    return argv


def put_0xff(path: Path) -> None:
    """Replace the middle byte of ``path`` with 0xff, which is not UTF-8."""
    raw = path.read_bytes()
    path.write_bytes(raw[:len(raw) // 2] + b"\xff" + raw[len(raw) // 2 + 1:])


def train_seg_on_manifest(edit):
    """train-seg on a copy of the dataset whose manifest.json ``edit`` rewrote."""
    def argv(tmp_path, root, pred):
        data = tmp_path / "data"
        shutil.copytree(root / "data", data)
        edit(data / "manifest.json")
        return ["train-seg", "--data", str(data), "--config", str(tiny_cfg(tmp_path)),
                "--out", str(tmp_path / "g")]
    return argv


def flops_on_0xff_config(tmp_path, root, pred):
    config = tiny_cfg(tmp_path)
    put_0xff(config)
    return ["flops", "--config", str(config)]


def existing(tmp_path, name, directory=False) -> str:
    """A path that already names a file, or with ``directory`` a directory."""
    path = tmp_path / name
    if directory:
        path.mkdir()
    else:
        path.write_text("")
    return str(path)


BAD_INPUTS = {
    "seg_epochs": (train_with("seg_epochs"), "seg_epochs must be >= 1, got 0"),
    "unc_epochs": (train_with("unc_epochs"), "unc_epochs must be >= 1, got 0"),
    "crop_h": (train_with("crop_h", 0), "crop_h must be >= 4, got 0"),
    "crop_w": (train_with("crop_w", 0), "crop_w must be >= 4, got 0"),
    "crop_h-float": (train_with("crop_h", 96.0), "crop_h must be an int, got 96.0"),
    "seg_epochs-float": (train_with("seg_epochs", 1.5), "seg_epochs must be an int, got 1.5"),
    "seg_epochs-bool": (train_with("seg_epochs", True), "seg_epochs must be an int, got True"),
    "widths-str": (train_with("widths", "ab"), "widths must list two ints >= 1, got 'ab'"),
    "widths-negative": (train_with("widths", [8, -1]),
                        "widths must list two ints >= 1, got [8, -1]"),
    "head_width": (train_with("head_width"), "head_width must be >= 1, got 0"),
    # sizes past their caps exit 2 before anything is allocated
    "d-huge": (train_with("d", 1000000000), "d must be at most 1024, got 1000000000"),
    "crop_h-huge": (train_with("crop_h", 400000000),
                    "crop_h must be at most 4096, got 400000000"),
    "widths-huge": (train_with("widths", [100000, 100000]),
                    "widths must be at most 1024, got [100000, 100000]"),
    "flops-d-huge": (lambda tmp_path, root, pred: [
        "flops", "--config", str(config_with(tmp_path, "d", 1000000000))],
        "d must be at most 1024, got 1000000000"),
    "tau-str": (train_with("tau", "x"), "unknown config fields: ['tau']"),
    "train-unc-arch": (train_with("d", 6), "config does not match the segmentation "
                       "checkpoint's architecture"),
    "landscape-n": (landscape("--n", "5"), "--n 5"),
    "landscape-n-501": (landscape("--n", "501"), "--n 501: grid needs n <= 500, got 501"),
    "landscape-v": (landscape("--v", "1,2,3"), "--v 1,2,3"),
    "landscape-v-nan": (landscape("--v", "nan,1"), "--v nan,1 --range 0.5,5.0 --n 41: "
                        "v must be finite, got [nan, 1.0]"),
    "landscape-v-inf": (landscape("--v", "inf,1"), "--v inf,1 --range 0.5,5.0 --n 41: "
                        "v must be finite, got [inf, 1.0]"),
    "landscape-v-1e200": (landscape("--v", "1e200,1"), "--v 1e200,1 --range 0.5,5.0 --n 41: "
                          "non-finite value on the grid"),
    "landscape-range-1e-300": (landscape("--range", "1e-300,1e-299"),
                               "--range 1e-300,1e-299 --n 41: non-finite value on the grid"),
    "landscape-out-directory": (lambda tmp_path, root, pred: [
        "landscape", "--v", "1,2", "--range", "0.5,5.0",
        "--out", existing(tmp_path, "somedir", directory=True)], "somedir'"),
    "gen-out-file": (lambda tmp_path, root, pred: [
        "gen", "--out", existing(tmp_path, "afile"), "--n", "1", "--seed", "1"], "afile/img'"),
    "train-seg-out-file": (lambda tmp_path, root, pred: [
        "train-seg", "--data", str(root / "data"), "--config", str(tiny_cfg(tmp_path)),
        "--out", existing(tmp_path, "afile")], "afile'"),
    "train-seg-config-directory": (lambda tmp_path, root, pred: [
        "train-seg", "--data", str(root / "data"),
        "--config", existing(tmp_path, "cfgdir", directory=True),
        "--out", str(tmp_path / "out")], "cfgdir'"),
    "infer-out-under-file": (lambda tmp_path, root, pred: [
        "infer", "--data", str(root / "data"), "--seg", str(root / "seg"),
        "--unc", str(root / "unc"), "--out", existing(tmp_path, "afile") + "/x"],
        "afile/x/pred'"),
    "eval-out-directory": (lambda tmp_path, root, pred: [
        "eval", "--pred", str(pred), "--data", str(root / "data"),
        "--out", existing(tmp_path, "somedir", directory=True)], "somedir'"),
    "s_unc": (eval_with(lambda p: replace_score(p, "abc")), "'s_unc': 'abc'"),
    "s_unc-nan": (eval_with(lambda p: replace_score(p, "nan")),
                  "scores.csv: s_unc of s000000 is 'nan', not a finite number"),
    "s_unc-inf": (eval_with(lambda p: replace_score(p, "-inf")),
                  "scores.csv: s_unc of s000000 is '-inf', not a finite number"),
    "meta": (eval_with(lambda p: (p / "meta.json").write_text("{broken")), "meta.json"),
    "pcts-negative": (eval_with(lambda p: None, "-5"), "got -5.0"),
    "pcts-100": (eval_with(lambda p: None, "1,100"), "got 100.0"),
    "pcts-150": (eval_with(lambda p: None, "150"), "got 150.0"),
    "pcts-text": (eval_with(lambda p: None, "a,b"), "'a,b'"),
    "pred-label-7": (eval_with(lambda p: write_label(p, 7)), "s000000.pgm: labels outside"),
    "crop-outside-frame": (eval_with(lambda p: replace_crop(p, (150, 10, 60, 60))),
                           "scores.csv box of s000000"),
    "crop-zero-size": (eval_with(lambda p: replace_crop(p, (10, 10, 0, 40))),
                       "scores.csv box of s000000"),
    "crop-text": (eval_with(lambda p: replace_crop(p, ("a", 10, 60, 60))),
                  "bad scores.csv row for s000000 in"),
    "crop-duplicated": (eval_with(lambda p: append_crop(p, "s000000,0.5,0,0,120,160")),
                        "scores.csv does not match the dataset: 1 duplicated ids (s000000)"),
    "crop-unknown": (eval_with(lambda p: append_crop(p, "x00,0.5,0,0,120,160")),
                     "scores.csv does not match the dataset: 1 unknown ids (x00)"),
    "crops-header": (eval_with(replace_header("scores.csv",
                                              "sample_id,s_unc,left,t,h,w")),
                     "scores.csv lacks columns ['l']"),
    "two-file-format": (eval_with(two_file_format),
                        "scores.csv lacks columns ['l', 't', 'h', 'w']"),
    "scores-missing": (eval_with(lambda p: (p / "scores.csv").unlink()), "pred/scores.csv'"),
    "meta-missing": (eval_with(lambda p: (p / "meta.json").unlink()), "pred/meta.json'"),
    "config-missing": (lambda tmp_path, root, pred: [
        "train-seg", "--data", str(root / "data"), "--config", str(tmp_path / "none.json"),
        "--out", str(tmp_path / "out")], "none.json'"),
    "scores-extra-field": (eval_with(lambda p: replace_crop(p, (0, 0, 10, 10, 99))),
                           "pred/scores.csv: row 1 has 7 fields, the header 6: 's000000,"),
    "scores-header": (eval_with(replace_header("scores.csv",
                                               "sample_id,score,l,t,h,w")),
                      "scores.csv lacks columns ['s_unc']"),
    "gen-size-10x10": (gen("--n", "1", "--size", "10x10"), "--size must be at least 64x64"),
    "gen-size-0x0": (gen("--n", "1", "--size", "0x0"), "--size must be at least 64x64"),
    "gen-size-100": (gen("--n", "1", "--size", "100"), "--size expects HxW, got '100'"),
    "gen-size-huge": (gen("--n", "1", "--size", "64x4097"),
                      "--size must be at most 4096x4096, got 64x4097"),
    "gen-n-0": (gen("--n", "0"), "--n must be >= 1, got 0"),
    "gen-n-negative": (gen("--n", "-1"), "--n must be >= 1, got -1"),
    "checkpoint-temperature": (infer_with_config_field("temperature", 1.0),
                               "unknown config fields: ['temperature']"),
    "checkpoint-swapped": (infer_with(seg="unc", unc="seg"),
                           "unc: checkpoint kind is 'unc', expected 'seg'"),
    "checkpoint-no-kind": (infer_with_seg_header(lambda header: header.pop("kind")),
                           "header.json: header has no 'kind' field (one of seg, unc)"),
    "checkpoint-format-version": (infer_with_seg_header(
        lambda header: header.update(format_version=2)),
        "header.json: unsupported format_version 2"),
    "checkpoint-truncated-header": (infer_with_seg_header(lambda text: text[:40], raw=True),
                                    "header.json: not valid JSON"),
    "checkpoint-header-list": (infer_with_seg_header(lambda text: "[1, 2]\n", raw=True),
                               "header.json: not a JSON object"),
    "checkpoint-no-tensors": (infer_with_seg_header(lambda header: header.pop("tensors")),
                              "header.json: 'tensors' must be a list of {name: string, shape: "
                              "list of counts, byte_offset: count}, got None"),
    "checkpoint-tensors-dict": (infer_with_seg_header(lambda header: header.update(tensors={})),
                                "header.json: 'tensors' must be a list of"),
    "checkpoint-tensor-no-name": (infer_with_seg_header(
        lambda header: header["tensors"][0].pop("name")),
        "header.json: 'tensors' must be a list of"),
    "checkpoint-tensor-shape": (infer_with_seg_header(
        lambda header: header["tensors"][0].update(shape="8x1x3x3")),
        "header.json: 'tensors' must be a list of"),
    "checkpoint-tensor-offset": (infer_with_seg_header(
        lambda header: header["tensors"][0].update(byte_offset=-8)),
        "header.json: 'tensors' must be a list of"),
    "checkpoint-tensor-overlap": (infer_with_seg_header(
        lambda header: header["tensors"][1].update(byte_offset=0)),
        "header.json: tensor 'conv1.bias' has byte_offset 0, not 288 where those before it end"),
    "checkpoint-tensor-shape-overflow": (infer_with_seg_tensor("b", [2**32, 2**32]),
                                         "seg/weights.bin: 6304 bytes, header describes "
                                         "147573952589676419232"),
    "checkpoint-tensor-duplicated": (infer_with_seg_tensor("head", [4, 4], zeros=True),
                                     "seg/header.json: tensor 'head' is listed twice"),
    "checkpoint-tensor-nan": (infer_with_unc_weight(float("nan")),
                              "weights.bin: tensor 'h1.kernel' holds non-finite values"),
    "checkpoint-tensor-1e300": (train_unc_with_seg_weight(1e300),
                                "weights.bin: tensor 'conv1.kernel' holds non-finite values"),
    "manifest-object": (infer_on_dataset(lambda data, records: {"a": 1}),
                        "manifest.json: expected a list of sample records, got dict"),
    "manifest-record-list": (infer_on_dataset(lambda data, records: records[:3] + [[1, 2]]),
                             "manifest.json: record 3: record is not an object: [1, 2]"),
    "manifest-no-id": (infer_on_dataset(
        lambda data, records: [{k: v for k, v in records[0].items() if k != "id"}]),
        "manifest.json: record 0: manifest record missing 'id'"),
    "manifest-id-int": (set_record(2, id=5), "manifest.json: record 2: 'id' must be a string"),
    "manifest-bbox-3": (set_record(1, bbox=[1, 2, 3]),
                        "manifest.json: sample 's000001': 'bbox' must be four ints"),
    "manifest-bbox-float": (set_record(1, bbox=[1, 2, 3.5, 4]),
                            "manifest.json: sample 's000001': 'bbox' must be four ints"),
    "manifest-bbox-outside": (set_record(1, bbox=[500, 500, 10, 10]),
                              "manifest.json: sample 's000001': 'bbox' [500, 500, 10, 10] "
                              "[l, t, h, w] is not a box of positive size inside its "
                              "120x160 image"),
    "manifest-bbox-negative": (set_record(1, bbox=[10, 10, -5, 0]),
                               "manifest.json: sample 's000001': 'bbox' [10, 10, -5, 0]"),
    "manifest-severity-text": (set_record(1, severity="x"),
                               "manifest.json: sample 's000001': 'severity' must be a "
                               "number, got 'x'"),
    "manifest-severity-nan": (set_record(1, severity=float("nan")),
                              "manifest.json: sample 's000001': 'severity' must be a "
                              "finite number in [0, 1], got nan"),
    "manifest-severity-7.5": (set_record(1, severity=7.5),
                              "manifest.json: sample 's000001': 'severity' must be a "
                              "finite number in [0, 1], got 7.5"),
    "id-escapes": (set_record(0, id="../../escaped"),
                   "manifest.json: sample '../../escaped': bad id"),
    "id-empty": (set_record(0, id=""), "manifest.json: sample '': bad id"),
    "id-backslash": (set_record(0, id="a\\b"), "manifest.json: sample 'a\\\\b': bad id"),
    "id-comma": (set_record(0, id="a,b"), "manifest.json: sample 'a,b': bad id"),
    "id-newline": (set_record(0, id="a\nb"), "manifest.json: sample 'a\\nb': bad id"),
    "id-dot": (set_record(0, id=".a"), "manifest.json: sample '.a': bad id"),
    "id-duplicated": (set_record(5, id="s000004"),
                      "manifest.json: sample 's000004': duplicated id"),
    "id-no-image": (set_record(3, id="s00000#"),
                    "data/manifest.json: sample 's00000#': no file "),
    "id-no-label": (infer_on_dataset(no_label_map),
                    "data/manifest.json: sample 's000002': no file "),
    "label-shape": (infer_on_dataset(small_label_map),
                    "sample s000000: label map"),
    "label-empty": (train_seg_on_dataset(empty_label_map), "malformed PGM header in"),
    "image-directory": (infer_on_dataset(image_as_directory), "data/img/s000000.pgm'"),
    "pred-truncated": (eval_with(halve_prediction), "s000000.pgm: truncated pixel data"),
    "pred-zero-size": (eval_with(lambda p: (p / "pred" / "s000000.pgm").write_bytes(
        b"P5\n0 0\n255\n")), "malformed PGM header in"),
    "pred-directory": (eval_with(prediction_as_directory), "pred/pred/s000000.pgm'"),
    "pred-8x8": (eval_with(lambda p: write_pgm(p / "pred" / "s000000.pgm",
                                               np.zeros((8, 8), dtype=np.uint8))),
                 "pred/s000000.pgm is 8x8, not the 32x32 crop size in meta.json"),
    "meta-no-crop": (eval_with(edit_meta(lambda meta: meta.pop("crop"))),
                     "meta.json: 'crop' must be the [h, w] that infer writes, got None; "
                     "run infer again"),
    "meta-crop-text": (eval_with(edit_meta(lambda meta: meta.update(crop=["32", 32]))),
                       "meta.json: 'crop' must be the [h, w] that infer writes, "
                       "got ['32', 32]"),
    "legacy-config": (lambda tmp_path, root, pred: [
        "train-seg", "--data", str(root / "data"), "--config", legacy_config(tmp_path),
        "--out", str(tmp_path / "g")],
        f"unknown config fields: {LEGACY_FIELDS}"),
    "legacy-checkpoint": (infer_with_seg_header(lambda h: with_legacy_fields(h["config"])),
                          f"header.json: invalid config: unknown config fields: {LEGACY_FIELDS}"),
    "checkpoint-config-null": (infer_with_seg_header(lambda header: header.update(config=None)),
                               "seg/header.json: invalid config: expected an object of fields, "
                               "got NoneType"),
    "heuristic-small-frame": (with_detector(infer_on_dataset(small_frame), "heuristic"),
                              "sample s000000: heuristic detector: frame must be at "
                              "least 64x64, got 48x48"),
    "infer-empty": (infer_with(empty=True), "empty_set is empty"),
    "eval-empty": (eval_empty, "empty_set is empty"),
    "manifest-0xff": (train_seg_on_manifest(put_0xff), "data/manifest.json: not UTF-8 text: "
                      "'utf-8' codec can't decode byte 0xff"),
    "manifest-nested": (train_seg_on_manifest(lambda path: path.write_text("[" * 100_000)),
                        "data/manifest.json: not valid JSON: maximum recursion depth exceeded"),
    "scores-0xff": (eval_with(lambda p: put_0xff(p / "scores.csv")),
                    "pred/scores.csv: not UTF-8 text: 'utf-8' codec can't decode byte 0xff"),
    "meta-0xff": (eval_with(lambda p: put_0xff(p / "meta.json")),
                  "pred/meta.json: not UTF-8 text: 'utf-8' codec can't decode byte 0xff"),
    "config-0xff": (flops_on_0xff_config, "config.json: not UTF-8 text: 'utf-8' codec "
                    "can't decode byte 0xff in position 67: invalid start byte"),
}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_input_exit_2_naming_it(predicted, tmp_path, capsys, case):
    root = predicted.parent
    make_argv, expected = BAD_INPUTS[case]
    argv = make_argv(tmp_path, root, predicted)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert expected in err and "Traceback" not in err, err
    assert not (tmp_path / "r.json").exists()
    assert not (tmp_path / "g").exists()


# for each module, a BAD_INPUTS case whose command ends in an InputError raised there
EXIT_2_SOURCES = {"datasetio": "manifest-no-id", "checkpoint": "checkpoint-swapped",
                  "pipeline": "heuristic-small-frame", "cli": "gen-n-0"}


@pytest.mark.parametrize("module", list(EXIT_2_SOURCES))
def test_input_error_exits_2_printing_its_message(predicted, tmp_path, capsys, module):
    make_argv, _ = BAD_INPUTS[EXIT_2_SOURCES[module]]
    argv = make_argv(tmp_path, predicted.parent, predicted)
    args = build_parser().parse_args(argv)
    with pytest.raises(InputError) as err:
        args.func(args)
    # the innermost ocuseg frame, past config's naming and readers, is in ``module``
    package = Path(ocuseg.__file__).parent
    frames = [Path(f.filename).name for f in traceback.extract_tb(err.value.__traceback__)
              if Path(f.filename).parent == package and Path(f.filename).name != "config.py"]
    assert frames[-1] == f"{module}.py", frames
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {err.value}\n"
    assert not (tmp_path / "g").exists()


def test_plain_value_error_is_a_bug_not_exit_2(tmp_path, monkeypatch):
    def fail(*args):
        raise ValueError("a bug")
    monkeypatch.setattr(ocuseg.cli, "generate_dataset", fail)
    with pytest.raises(ValueError, match="^a bug$") as err:
        main(["gen", "--out", str(tmp_path / "g"), "--n", "1", "--seed", "1"])
    assert type(err.value) is ValueError


# each file a command reads, with the arguments of a command that reads it;
# paths are relative to a copy of the predicted set's root
READERS = {
    **dict.fromkeys(["data/manifest.json", "data/img/s000000.pgm", "data/lbl/s000000.pgm"],
                    ["train-seg", "--data", "data", "--config", "config.json", "--out", "out"]),
    "config.json": ["flops", "--config", "config.json"],
    **dict.fromkeys(["seg/header.json", "seg/weights.bin", "unc/header.json", "unc/weights.bin"],
                    ["infer", "--data", "data", "--seg", "seg", "--unc", "unc", "--out", "out"]),
    **dict.fromkeys(["pred/scores.csv", "pred/meta.json", "pred/pred/s000000.pgm"],
                    ["eval", "--pred", "pred", "--data", "data", "--out", "out.json"]),
}


@pytest.fixture(scope="module")
def damageable(predicted, tmp_path_factory):
    """A copy of every file in ``READERS``, which a test may damage and must restore."""
    root = tmp_path_factory.mktemp("damage")
    for name in ("data", "seg", "unc", "pred"):
        shutil.copytree(predicted.parent / name, root / name)
    shutil.copy(predicted.parent / "config.json", root)
    return root


def _hung(signum, frame):
    pytest.fail("the command did not finish within 10 s")


@pytest.mark.parametrize("name", list(READERS))
@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_damaged_file_exit_0_or_2_naming_it(damageable, name, data):
    """A file cut at any offset, or with any one byte replaced, ends its
    reader in exit 0 or in exit 2 with a message that names the file or the
    dataset, checkpoint or prediction directory that holds it: a damaged
    file can leave its directory inconsistent (a header that describes more
    bytes than ``weights.bin`` holds, a manifest id with no image), and the
    message then names the file that disagrees.  A weight whose exponent
    byte is replaced can stay finite in float32 and still overflow the
    float32 forward (near 1e34): that is exit 3, the numeric failure, whose
    message names both checkpoints."""
    path = damageable / name
    raw = path.read_bytes()
    at = data.draw(st.integers(0, len(raw) - 1), label="offset")
    if data.draw(st.booleans(), label="cut"):
        damaged = raw[:at]
    else:
        byte = data.draw(st.integers(0, 255).filter(lambda b: b != raw[at]), label="byte")
        damaged = raw[:at] + bytes([byte]) + raw[at + 1:]
    command, *args = READERS[name]
    argv = [command, *(a if a.startswith("-") else str(damageable / a) for a in args)]
    old_handler = signal.signal(signal.SIGALRM, _hung)
    signal.alarm(10)
    try:
        path.write_bytes(damaged)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            # a damaged weight can overflow the float32 forward; numpy's
            # warning does not stop the command line, but pytest's
            # filterwarnings would turn it into an error here
            warnings.simplefilter("ignore", RuntimeWarning)
            rc = main(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old_handler)
        path.write_bytes(raw)
        shutil.rmtree(damageable / "out", ignore_errors=True)
        (damageable / "out.json").unlink(missing_ok=True)
    err = err.getvalue()
    assert "Traceback" not in err, err
    if path.name == "weights.bin" and rc == 3:
        assert err.startswith("numeric failure: s_unc is not finite"), err
    else:
        assert rc in (0, 2), err
    assert rc == 0 or str(damageable / Path(name).parts[0]) in err, err


class TestLandscape:
    def test_grid_csv_minima(self, tmp_path):
        out = tmp_path / "grid.csv"
        assert main(["landscape", "--v", "1,2", "--range", "0.5,5.0",
                     "--n", "10", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "w1,w2,orig_loss,orig_gnorm,surr_loss,surr_gnorm"
        rows = [dict(zip(lines[0].split(","), map(float, ln.split(","))))
                for ln in lines[1:]]
        assert len(rows) == 100
        best = min(rows, key=lambda r: r["surr_loss"])
        assert (best["w1"], best["w2"]) == (1.0, 4.0)
        # deterministic rerun
        out2 = tmp_path / "grid2.csv"
        main(["landscape", "--v", "1,2", "--range", "0.5,5.0",
              "--n", "10", "--out", str(out2)])
        assert out.read_bytes() == out2.read_bytes()

    def test_bad_range_exit_2(self, tmp_path):
        assert main(["landscape", "--v", "1,2", "--range", "5,1",
                     "--out", str(tmp_path / "g.csv")]) == 2


class TestFlops:
    def test_prints_both_parts(self, tmp_path, capsys):
        cfg_path = tiny_cfg(tmp_path)
        assert main(["flops", "--config", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert "segmentation" in out and "uncertainty head" in out

    def test_doubling_d_roughly_doubles_head_flops(self, tmp_path):
        from ocuseg.segnet import count_flops
        a = count_flops(RunConfig(d=8), True) - count_flops(RunConfig(d=8), False)
        b = count_flops(RunConfig(d=16), True) - count_flops(RunConfig(d=16), False)
        assert b == 2 * a

    def test_bad_config_exit_2(self, tmp_path):
        missing = tmp_path / "none.json"
        assert main(["flops", "--config", str(missing)]) == 2
