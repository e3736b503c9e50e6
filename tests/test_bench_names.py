"""The bench wraps ocuseg's callables by name from outside ``src``; a rename
of a wrapped name fails here, before a bench run would."""

import importlib
from pathlib import Path

import pytest

from ocuseg import cli, segnet
from ocuseg.checkpoint import save_checkpoint
from ocuseg.config import RunConfig
from ocuseg.datasetio import write_dataset
from ocuseg.rng import Rng
from ocuseg.segnet import SegModel
from ocuseg.synth import generate_dataset
from ocuseg.uncertainty import UncHead

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return {name: importlib.import_module(name)
            for name in ("spans", "attribution", "workloads")}


def test_bench_hooks_install_and_restore(bench, tiny_config):
    spans, attribution, workloads = bench["spans"], bench["attribution"], bench["workloads"]
    forward = segnet.SegModel.forward_batch
    # cli imports these only for the bench to wrap; once it stops, drop the imports
    bench_only = {name: getattr(cli, name)
                  for name in ("rank_and_filter", "evaluate_miou", "crop_resize")}
    tracer, patches = spans.Tracer(), spans.Patches()
    try:
        attribution.install_spans(tracer, attribution.conv_flop_table(RunConfig()))
        for name, kind in workloads.WORKLOAD_TYPES.items():
            kind(None, 1, workloads.SMOKE[name]).install_hooks(patches, spans.StepClock())
        assert segnet.SegModel.forward_batch is not forward
        assert all(getattr(cli, name) is not f for name, f in bench_only.items())
    finally:
        patches.restore()
        tracer.restore()
    assert segnet.SegModel.forward_batch is forward
    assert all(getattr(cli, name) is f for name, f in bench_only.items())
    for cfg in (RunConfig(), tiny_config):
        assert attribution.check_flop_table(cfg) == []


def test_infer_crops_are_traced(bench, tiny_config, tmp_path):
    """``infer`` crops through ``build_crops``, so each frame's crop is a
    ``detect.crop_resize`` span inside the one ``pipeline.build_crops`` span."""
    spans, attribution = bench["spans"], bench["attribution"]
    n = 5
    write_dataset(generate_dataset(n, seed=31, kinds=["none", "occlusion"],
                                   sev_range=(0.5, 1.0)), tmp_path / "data")
    for cls, kind in ((SegModel, "seg"), (UncHead, "unc")):
        model = cls(tiny_config)
        model.init_params(Rng(tiny_config.seed).derive(f"{kind}-init"))
        save_checkpoint(tmp_path / kind, tiny_config, model.params(), kind)
    tracer = spans.Tracer()
    try:
        attribution.install_spans(tracer, attribution.conv_flop_table(tiny_config))
        assert cli.main(["infer", "--data", str(tmp_path / "data"), "--seg",
                         str(tmp_path / "seg"), "--unc", str(tmp_path / "unc"),
                         "--out", str(tmp_path / "pred"), "--detector", "heuristic"]) == 0
    finally:
        tracer.restore()
    names = [span[0] for span in tracer.spans]
    crops = [span for span in tracer.spans if span[0] == "detect.crop_resize"]
    assert names.count("pipeline.build_crops") == 1 and len(crops) == n
    assert all(names[parent] == "pipeline.build_crops" for _, _, _, parent, _ in crops)
