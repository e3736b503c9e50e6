#!/usr/bin/env python3
"""ocuseg benchmark: the ``train``, ``score`` and ``render`` workloads.

Run from the repository root:

    python3 bench/run.py --workload score --seed 7 --seconds 15 --trace 0
    python3 bench/run.py --smoke            # every workload once, tiny sizes

Each invocation sets up its inputs from ``--seed`` (three times, reporting
the median set-up time), then repeats the workload's timed pipeline through
``ocuseg.cli.main`` for about ``--seconds`` seconds in one process with BLAS
capped at one thread.  Every repetition's artifacts must hash the same as
the first one's.  The last line of standard output is one JSON object:
end-to-end metrics with ``--trace 0``; with ``--trace 1`` the repetitions
alternate untraced and traced and the object holds the per-layer metrics.
A full record goes to ``bench/results/``.  METRICS.md defines every metric.
"""

from __future__ import annotations

import os

# one BLAS thread, fixed before numpy loads (ocuseg.cli reads OCUSEG_THREADS too)
os.environ["OCUSEG_THREADS"] = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("train", "score", "render")
ENV_KEYS = {"numpy", "blas", "threads", "nproc", "python", "cpu", "seed", "config_hash"}


def import_ocuseg() -> None:
    """Make the checkout's ``src/ocuseg`` importable, and no other copy."""
    if not (SRC / "ocuseg" / "__init__.py").is_file():
        sys.exit(f"error: ocuseg sources not found at {SRC / 'ocuseg'}; "
                 "run from the root of a full checkout")
    sys.path.insert(0, str(SRC))
    import ocuseg
    if Path(ocuseg.__file__).resolve().parent != (SRC / "ocuseg").resolve():
        sys.exit(f"error: imported ocuseg from {ocuseg.__file__}, not from {SRC}")


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def final_line(result: dict, ok: bool) -> dict:
    """The result object: end-to-end metrics untraced, per-layer ones traced."""
    if result["trace"]:
        wanted = spec()["per_layer"]
        values = result.get("per_layer", {})
    else:
        wanted = spec()["end_to_end"]
        values = {k: v["value"] for k, v in result["end_to_end"].items()}
    return {"correct": ok, "attempted": max(1, result["attempted"]),
            "failed": result["failed"] if ok else max(1, result["failed"]),
            "metrics": {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
                        for m in wanted}}


def run_one(args) -> int:
    import_ocuseg()
    from harness import Bench

    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke,
                  BENCH / "work" / f"{args.workload}-{os.getpid()}")
    result, ok = bench.run()
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    (results / f"{stem}.json").write_text(json.dumps(result, indent=1, sort_keys=True) + "\n",
                                          encoding="utf-8")
    if args.trace:
        with open(results / f"{stem}.spans.jsonl", "w", encoding="utf-8") as f:
            for span in bench.tracer.dump():
                f.write(json.dumps(span) + "\n")

    for err in result["errors"]:
        print(f"error: {err}", file=sys.stderr)
    reps = result["repetitions"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(reps['untraced_s'])} untraced + {len(reps['traced_s'])} traced "
          f"repetitions of {reps['samples_per_rep']} sample-passes")
    for name, v in result["end_to_end"].items():
        print(f"  {name} {v['value']:.6g} {v['unit']}")
    st = result["steps"]
    print(f"  steps: {st['count']} x {st['unit']}; tail = p{st['tail_percentile']} "
          f"({st['beyond_tail']} beyond)")
    print(f"  failed_frac {result['failed_frac']:.6g} "
          f"({result['failed']} of {result['attempted']} operations)")
    for name, v in result["quality"].items():
        print(f"  quality {name} {v:.6g}")
    for name, v in result.get("stages", {}).items():
        print(f"  stage {name}: {v:.4g}")
    print(json.dumps(final_line(result, ok)))
    return 0 if ok else 1


def check_line(line: str, trace: int) -> list[str]:
    """Schema check of one result line against BENCHMARK.json."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as e:
        return [f"last line is not JSON: {e}"]
    errors = []
    if set(obj) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"keys {sorted(obj)}")
    if obj.get("correct") is not True:
        errors.append("correct is not true")
    if not isinstance(obj.get("attempted"), int) or obj["attempted"] < 1:
        errors.append("attempted must be an integer >= 1")
    if not isinstance(obj.get("failed"), int):
        errors.append("failed must be an integer")
    wanted = {m["name"]: m["unit"] for m in spec()["per_layer" if trace else "end_to_end"]}
    got = obj.get("metrics", {})
    if set(got) != set(wanted):
        errors.append(f"metric names differ: missing {sorted(set(wanted) - set(got))}, "
                      f"extra {sorted(set(got) - set(wanted))}")
    for name, unit in wanted.items():
        v = got.get(name, {})
        if v.get("unit") != unit or not isinstance(v.get("value"), (int, float)) \
                or not math.isfinite(v["value"]):
            errors.append(f"metric {name}: {v}")
    return errors


def smoke() -> int:
    """Run every workload once at minimal size in both modes; check the schema."""
    bad = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
            errors = [] if proc.returncode == 0 else [f"exit {proc.returncode}: {proc.stderr}"]
            errors += check_line(proc.stdout.strip().split("\n")[-1], trace)
            record = BENCH / "results" / f"{workload}-seed1-trace{trace}-smoke.json"
            if not record.exists() or set(json.loads(record.read_text(encoding="utf-8"))
                                          .get("environment", {})) != ENV_KEYS:
                errors.append(f"{record.name} lacks the environment record")
            status = "ok" if not errors else "FAIL " + "; ".join(errors)
            print(f"{workload} trace={trace} {time.perf_counter() - t0:.1f}s {status}")
            bad += bool(errors)
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="minimal sizes; without --workload, check every workload's schema")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.workload is None:
        if not args.smoke:
            p.error("--workload is required unless --smoke is given")
        return smoke()
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
