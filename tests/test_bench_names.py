"""The bench wraps ocuseg's callables by name from outside ``src``; a rename
of a wrapped name fails here, before a bench run would."""

import importlib
from pathlib import Path

import pytest

from ocuseg import cli, segnet
from ocuseg.config import RunConfig

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
