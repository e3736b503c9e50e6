"""Runs one workload: set-up, timed repetitions, output checks and the result.

Import only after ``ocuseg`` is importable from the checkout's ``src``.
"""

from __future__ import annotations

import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

import numpy

from ocuseg import cli

from attribution import check_flop_table, conv_flop_table, install_spans, layer_metrics, stage_table
from spans import Patches, StepClock, Tracer
from workloads import FULL, SMOKE, WORKLOAD_TYPES, OpFailure, Workload

SETUP_REPEATS = 3


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten samples beyond it (>= 50)."""
    return max(50, math.floor(100.0 * (1.0 - 10.0 / n))) if n else 50


def environment(seed: int, config) -> dict:
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {v: os.environ.get(v) for v in
                    ("OCUSEG_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu": cpu,
        "seed": seed,
        "config_hash": config.content_hash() if config is not None else None,
    }


class Bench:
    """One workload run: ``run()`` returns the result record and whether it passed."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, smoke: bool,
                 work: Path):
        self.name, self.seed, self.seconds, self.trace, self.smoke = \
            workload, seed, seconds, trace, smoke
        self.work = work
        self.tracer = Tracer()
        self.active: Tracer | None = None      # the tracer during traced repetitions
        self.patches, self.clock = Patches(), StepClock()
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.workload: Workload = WORKLOAD_TYPES[workload](
            self.cli, seed, (SMOKE if smoke else FULL)[workload])

    def cli(self, *argv: str) -> None:
        """One ocuseg command in-process; a non-zero exit is a failed operation."""
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        span = self.active.span(f"cli.{argv[0]}") if self.active else nullcontext()
        with span, redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(argv))
        if code != 0:
            self.failed += 1
            raise OpFailure(f"ocuseg {' '.join(argv)} exited {code}: {err.getvalue().strip()}")

    def run(self) -> tuple[dict, bool]:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        try:
            return self._run()
        finally:
            shutil.rmtree(self.work, ignore_errors=True)

    def _setup(self) -> list[float]:
        times = []
        for i in range(SETUP_REPEATS):
            where = self.work / f"setup{i}"
            where.mkdir()
            t0 = time.perf_counter()
            self.workload.setup(where)
            times.append(time.perf_counter() - t0)
        return times

    def _loop(self, flops: dict[str, int]) -> tuple[dict, list[float], dict]:
        """Repeat the pipeline until ``seconds`` have passed (at least twice).

        With tracing, odd repetitions are traced and even ones are not, so
        both run under the same conditions.  Returns the seconds of each
        repetition by kind, the untraced step durations and the first
        repetition's digests.
        """
        wl = self.workload
        reps: dict[str, list[float]] = {"untraced": [], "traced": []}
        steps: list[float] = []
        first: dict[str, str] = {}
        wl.install_hooks(self.patches, self.clock)
        loop_start = time.perf_counter()
        rep = 0
        try:
            while rep < 2 or time.perf_counter() - loop_start < self.seconds:
                out = self.work / f"rep{rep}"
                traced = self.trace and rep % 2 == 1
                self.clock.durations = []
                if traced:
                    install_spans(self.tracer, flops)
                    self.active = self.tracer
                t0 = time.perf_counter()
                try:
                    wl.rep(out)
                finally:
                    elapsed = time.perf_counter() - t0
                    self.active = None
                    self.tracer.restore()
                self.clock.cancel()
                reps["traced" if traced else "untraced"].append(elapsed)
                if not traced:
                    steps += self.clock.durations
                digests = self._verify(out, rep)
                if rep == 0:
                    first = digests
                    shutil.copytree(out, self.work / "first")
                else:
                    self._compare(first, digests, rep)
                shutil.rmtree(out)
                rep += 1
        except OpFailure as e:
            self.errors.append(str(e))
        finally:
            self.patches.restore()
        return reps, steps, first

    def _run(self) -> tuple[dict, bool]:
        wl = self.workload
        setup_times = self._setup()
        flops = {}
        if wl.config is not None:
            self.errors += check_flop_table(wl.config)
            flops = conv_flop_table(wl.config)
        reps, steps, digests = self._loop(flops)
        quality = wl.quality(self.work / "first") if not self.errors else {}

        untraced, traced = reps["untraced"], reps["traced"]
        ms = [1e3 * d for d in steps]
        tail_p = tail_percentile(len(ms))
        tail = float(numpy.percentile(ms, tail_p)) if ms else 0.0
        e2e = {
            "setup_s": (statistics.median(setup_times), "s"),
            "samples_per_s": (wl.samples_per_rep / statistics.median(untraced)
                              if untraced else 0.0, "1/s"),
            "step_ms_p50": (statistics.median(ms) if ms else 0.0, "ms"),
            "step_ms_tail": (tail, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        result = {
            "workload": self.name, "seed": self.seed, "trace": int(self.trace),
            "smoke": self.smoke, "size": wl.size,
            "environment": environment(self.seed, wl.config),
            "config": json.loads(wl.config.to_json()) if wl.config is not None else None,
            "setup_s_each": setup_times,
            "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
            "steps": {"unit": wl.step_unit, "count": len(ms), "tail_percentile": tail_p,
                      "beyond_tail": sum(1 for d in ms if d > tail),
                      "durations_ms": ms},
            "repetitions": {"samples_per_rep": wl.samples_per_rep,
                            "untraced_s": untraced, "traced_s": traced},
            "attempted": self.attempted, "failed": self.failed,
            "failed_frac": self.failed / max(1, self.attempted),
            "quality": quality, "digests": digests, "errors": self.errors,
        }
        if self.trace and traced and untraced:
            layers = layer_metrics(self.tracer, traced, untraced, wl.samples_per_rep)
            result["per_layer"] = layers
            result["stages"] = stage_table(layers, self.tracer, wl)
        return result, not self.errors and self.failed == 0

    def _verify(self, out: Path, rep: int) -> dict[str, str]:
        try:
            return self.workload.verify(out)
        except (OpFailure, OSError, ValueError) as e:
            self.failed += 1
            raise OpFailure(f"repetition {rep}: {e}") from None

    def _compare(self, first: dict[str, str], digests: dict[str, str], rep: int) -> None:
        changed = sorted(k for k in first.keys() | digests.keys()
                         if first.get(k) != digests.get(k))
        if changed:
            self.failed += 1
            raise OpFailure(f"repetition {rep}: artifact digest differs from repetition 0: "
                            + ", ".join(changed[:10]))
