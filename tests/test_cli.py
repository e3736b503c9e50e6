import filecmp
import json
import os
import shutil
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import ocuseg
from ocuseg.checkpoint import load_checkpoint
from ocuseg.cli import main
from ocuseg.config import RunConfig
from ocuseg.datasetio import read_dataset, read_pgm, write_pgm
from ocuseg.evaluate import rank_and_filter
from ocuseg.metrics import confusion_matrix, metrics_from_confusion
from ocuseg.pipeline import DETECTOR_MODES, build_crops, infer_samples
from ocuseg.segnet import SegModel
from ocuseg.uncertainty import UncHead


def tiny_cfg(tmp_path, **overrides) -> Path:
    kwargs = dict(seed=5, crop_h=32, crop_w=32, d=4, widths=[4, 8],
                  head_width=4, seg_epochs=1, seg_lr=1e-4,
                  unc_epochs=1, unc_lr=1e-4, tau=1e9)
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
        assert f"missing checkpoint file: {tmp_path / 'nope' / 'header.json'}" \
            in capsys.readouterr().err

    def test_float_field_spelled_as_int_matches(self, trained, tmp_path):
        # a JSON int in a float field is the same config as the float
        root, cfg_path = trained
        fields = json.loads(cfg_path.read_text())
        for name, eps_floor in (("as_float", 1.0), ("as_int", 1)):
            (tmp_path / f"{name}.json").write_text(json.dumps({**fields, "eps_floor": eps_floor}))
        assert '"eps_floor": 1,' in (tmp_path / "as_int.json").read_text()
        assert main(["train-seg", "--data", str(root / "data"), "--config",
                     str(tmp_path / "as_float.json"), "--out", str(tmp_path / "seg")]) == 0
        assert main(["train-unc", "--data", str(root / "data"), "--config",
                     str(tmp_path / "as_int.json"), "--seg", str(tmp_path / "seg"),
                     "--out", str(tmp_path / "unc")]) == 0

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
        assert lines[0] == "sample_id,s_unc,accept_at_tau"
        assert len(lines) == 13

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
        report = json.loads(out.read_text())
        config, seg_params = load_checkpoint(root / "seg", "seg")
        seg = SegModel(config)
        seg.set_params(seg_params)
        head = UncHead(config)
        head.set_params(load_checkpoint(root / "unc", "unc")[1])
        images, labels, _, ids = build_crops(read_dataset(root / "data"), config, detector)
        y_hat, s_unc = infer_samples(images, seg, head, config)
        confs = [confusion_matrix(p, t) for p, t in zip(y_hat, labels)]
        overall = metrics_from_confusion(sum(confs))
        assert report["unfiltered"] == {k: overall[k] for k in ("miou", "e1", "f1", "acc")}
        assert report["tables"]["filtering"] == [
            asdict(f) for f in rank_and_filter(ids, s_unc.tolist(), confs, [10.0, 25.0])]

    def test_eval_missing_predictions_exit_2(self, trained, tmp_path):
        root, _ = trained
        pred = tmp_path / "pred"
        assert main(["infer", "--data", str(root / "data"),
                     "--seg", str(root / "seg"), "--unc", str(root / "unc"),
                     "--out", str(pred)]) == 0
        (pred / "pred" / "s000003.pgm").unlink()
        assert main(["eval", "--pred", str(pred), "--data", str(root / "data"),
                     "--out", str(tmp_path / "r.json")]) == 2


    @pytest.mark.parametrize("edit,expected", [
        (lambda rows: rows + [f"x{i:02d},0.5,0" for i in range(25)],
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
    rows[1] = ",".join([rows[1].split(",")[0], value, "1"])
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
    rows = (pred / "crops.csv").read_text().split("\n")
    assert rows[1].startswith("s000000,")
    rows[1] = ",".join(["s000000", *map(str, box)])
    (pred / "crops.csv").write_text("\n".join(rows))


def append_crop(pred, row):
    with open(pred / "crops.csv", "a") as f:
        f.write(row + "\n")


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


def infer_on_dataset(edit):
    """infer on a copy of the dataset: ``edit(data, records)`` may change its
    files, and what it returns is written as its manifest."""
    def argv(tmp_path, root, pred):
        data = tmp_path / "data"
        shutil.copytree(root / "data", data)
        manifest = data / "manifest.json"
        manifest.write_text(json.dumps(edit(data, json.loads(manifest.read_text()))))
        return ["infer", "--data", str(data), "--seg", str(root / "seg"),
                "--unc", str(root / "unc"), "--out", str(tmp_path / "g")]
    return argv


def set_record(i, **fields):
    """An ``infer_on_dataset`` edit that sets fields of manifest record ``i``."""
    def edit(data, records):
        records[i].update(fields)
        return records
    return infer_on_dataset(edit)


def small_label_map(data, records):
    labels = read_pgm(data / records[0]["label"])
    write_pgm(data / records[0]["label"], labels[:100, :150])
    return records


def eval_empty(tmp_path, root, pred):
    return ["eval", "--pred", str(pred), "--data", str(empty_dataset(tmp_path)),
            "--out", str(tmp_path / "r.json")]


def landscape(*extra):
    def argv(tmp_path, root, pred):
        return ["landscape", "--v", "1,2", "--range", "0.5,5.0", *extra,
                "--out", str(tmp_path / "g.csv")]
    return argv


BAD_INPUTS = {
    "seg_epochs": (train_with("seg_epochs"), "seg_epochs must be >= 1, got 0"),
    "seg_batch": (train_with("seg_batch"), "seg_batch must be >= 1, got 0"),
    "unc_epochs": (train_with("unc_epochs"), "unc_epochs must be >= 1, got 0"),
    "unc_batch": (train_with("unc_batch"), "unc_batch must be >= 1, got 0"),
    "eps_floor": (train_with("eps_floor", -5.0), "eps_floor must be > 0, got -5.0"),
    "bbox_jitter": (train_with("bbox_jitter", 0.5), "bbox_jitter must be in [0, 0.25], got 0.5"),
    "seg_lr": (train_with("seg_lr", -1.0), "seg_lr must be >= 0, got -1.0"),
    "unc_lr": (train_with("unc_lr", -1.0), "unc_lr must be >= 0, got -1.0"),
    "crop_h": (train_with("crop_h", 0), "crop_h must be >= 4, got 0"),
    "crop_w": (train_with("crop_w", 0), "crop_w must be >= 4, got 0"),
    "crop_h-float": (train_with("crop_h", 96.0), "crop_h must be an int, got 96.0"),
    "seg_epochs-float": (train_with("seg_epochs", 1.5), "seg_epochs must be an int, got 1.5"),
    "seg_batch-bool": (train_with("seg_batch", True), "seg_batch must be an int, got True"),
    "widths-str": (train_with("widths", "ab"), "widths must list two ints >= 1, got 'ab'"),
    "widths-negative": (train_with("widths", [8, -1]),
                        "widths must list two ints >= 1, got [8, -1]"),
    "head_width": (train_with("head_width"), "head_width must be >= 1, got 0"),
    "tau-str": (train_with("tau", "x"), "tau must be a finite number, got 'x'"),
    "tau-inf": (train_with("tau", float("inf")), "tau must be a finite number, got inf"),
    "landscape-n": (landscape("--n", "5"), "--n 5"),
    "landscape-v": (landscape("--v", "1,2,3"), "--v 1,2,3"),
    "s_unc": (eval_with(lambda p: replace_score(p, "abc")), "s_unc 'abc'"),
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
                           "crops.csv row for s000000"),
    "crop-zero-size": (eval_with(lambda p: replace_crop(p, (10, 10, 0, 40))),
                       "crops.csv row for s000000"),
    "crop-duplicated": (eval_with(lambda p: append_crop(p, "s000000,0,0,120,160")),
                        "crops.csv does not match the dataset: 1 duplicated ids (s000000)"),
    "crop-unknown": (eval_with(lambda p: append_crop(p, "x00,0,0,120,160")),
                     "crops.csv does not match the dataset: 1 unknown ids (x00)"),
    "crops-header": (eval_with(replace_header("crops.csv", "id,l,t,h,w")),
                     "crops.csv lacks columns ['sample_id']"),
    "scores-header": (eval_with(replace_header("scores.csv", "sample_id,score,accept_at_tau")),
                      "scores.csv lacks columns ['s_unc']"),
    "gen-size-10x10": (gen("--n", "1", "--size", "10x10"), "--size must be at least 64x64"),
    "gen-size-0x0": (gen("--n", "1", "--size", "0x0"), "--size must be at least 64x64"),
    "gen-size-100": (gen("--n", "1", "--size", "100"), "--size expects HxW, got '100'"),
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
    "manifest-object": (infer_on_dataset(lambda data, records: {"a": 1}),
                        "manifest.json: expected a list of sample records, got dict"),
    "manifest-record-list": (infer_on_dataset(lambda data, records: records[:3] + [[1, 2]]),
                             "manifest.json: record 3: record is not an object: [1, 2]"),
    "manifest-no-id": (infer_on_dataset(
        lambda data, records: [{k: v for k, v in records[0].items() if k != "id"}]),
        "manifest.json: record 0: manifest record missing 'id'"),
    "manifest-id-int": (set_record(2, id=5), "manifest.json: record 2: 'id' must be a string"),
    "manifest-image-int": (set_record(0, image=5),
                           "manifest.json: sample 's000000': 'image' must be a string, got 5"),
    "manifest-label-null": (set_record(0, label=None),
                            "manifest.json: sample 's000000': 'label' must be a string"),
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
    "id-escapes": (set_record(0, id="../../escaped"),
                   "manifest.json: sample '../../escaped': bad id"),
    "id-empty": (set_record(0, id=""), "manifest.json: sample '': bad id"),
    "id-backslash": (set_record(0, id="a\\b"), "manifest.json: sample 'a\\\\b': bad id"),
    "id-comma": (set_record(0, id="a,b"), "manifest.json: sample 'a,b': bad id"),
    "id-newline": (set_record(0, id="a\nb"), "manifest.json: sample 'a\\nb': bad id"),
    "id-dot": (set_record(0, id=".a"), "manifest.json: sample '.a': bad id"),
    "id-duplicated": (set_record(5, id="s000004"),
                      "manifest.json: sample 's000004': duplicated id"),
    "label-shape": (infer_on_dataset(small_label_map),
                    "sample s000000: label map"),
    "infer-empty": (infer_with(empty=True), "empty_set is empty"),
    "eval-empty": (eval_empty, "empty_set is empty"),
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
