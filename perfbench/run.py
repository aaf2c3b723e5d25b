#!/usr/bin/env python3
"""Benchmark of lightgrating: end-to-end metrics, or per-layer metrics traced.

Usage (from the repository root, no install needed):

    python3 perfbench/run.py --workload wave-c60 --seed 1 --seconds 40 --trace 0

The workloads are described in ``workloads.py``.  One pass runs every
operation of the workload once, in a closed loop; passes repeat while a
pass of median length still ends within ``--seconds`` of the start,
which the set-up probes also count against.  Every output is checked against the
references in ``refs.npz`` and against the invariants of a pattern.

``--trace 0`` reports the end-to-end metrics, with nothing wrapped:

* ``wall_s``, ``cpu_s``: median over passes of the wall and process CPU
  time of the operations of one pass (checks and set-up excluded), in
  reference seconds: each operation's times are scaled by a fixed kernel
  run on the same thread right before and after it, which takes out the
  speed of the shared host at the time (``calibration.py``).  The info
  line gives the raw medians as ``raw_wall_s`` and ``raw_cpu_s``;
* ``peak_rss_mb``: peak resident memory of a fresh process that sets up
  and runs one pass (``probe.py --pass``);
* ``setup_s``: median of several set-ups, each in a fresh interpreter
  (import, config parsing, output directory), in reference seconds;
* ``ok_frac``: operations that neither raised nor failed a check, over
  operations attempted.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``tracer.METRICS``, medians over the traced passes,
in raw seconds; ``trace.overhead_s`` is the traced minus the untraced
median wall time, in reference seconds.

The last line of standard output is the result object; the line before
it records the environment, the pass count and the largest deviation
from the references.  The exit code is 2 when the library is not there.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import calibration
import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench_out"
SETUP_REPEATS = 9
# After each operation the calibration kernel runs for this share of the
# operation's wall time (see calibration.py).
CALIBRATION_SHARE = 0.1
PROBE_TIMEOUT_S = 120

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s", "ok_frac": "frac"}


@dataclass
class PassResult:
    wall: float = 0.0
    cpu: float = 0.0
    raw_wall: float = 0.0
    raw_cpu: float = 0.0
    calibration: float = 0.0
    attempted: int = 0
    failed: int = 0
    check_failures: int = 0
    gated_dev: float = 0.0
    ungated_dev: float = 0.0
    errors: Counter = field(default_factory=Counter)
    problems: list[str] = field(default_factory=list)
    spans: list = field(default_factory=list)


def run_pass(ops, runner, configs, out_dir, refs, tracer=None, before=None) -> PassResult:
    """Run and check every operation once; time only the operations.

    ``wall`` and ``cpu`` are in reference seconds: each operation's times
    are scaled by the calibration kernel run right before and after it
    (see ``calibration.py``).  ``raw_wall`` and ``raw_cpu`` are as read.
    ``before`` is the kernel time measured last, at the end of the
    previous pass; ``calibration`` is the last one of this pass.  The
    first operation of a run is scaled by the kernel after it alone: run
    before it, right after the set-up probes, the kernel read slower
    than the operation ran, on every run measured.

    A compare whose pattern was not written, because its simulate raised
    in this pass, is not attempted: its failure is already counted.
    """
    result = PassResult()
    unwritten = set()
    for op in ops:
        if op.kind == "compare" and unwritten.intersection(op.pair):
            continue
        result.attempted += 1
        with tracer.installed() if tracer is not None else nullcontext():
            wall0, cpu0 = time.perf_counter(), time.process_time()
            try:
                output = workloads.execute(op, runner, configs, out_dir)
            except Exception as exc:  # a failed operation is a measured outcome
                output = None
                result.errors[f"{op.kind}: {type(exc).__name__}: {exc}"] += 1
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        after = calibration.kernel_seconds(CALIBRATION_SHARE * wall)
        factor = calibration.scale(after if before is None else before, after)
        before = after
        result.wall += wall * factor
        result.cpu += cpu * factor
        result.raw_wall += wall
        result.raw_cpu += cpu
        if output is None:
            result.failed += 1
            if op.kind == "simulate":
                unwritten.add(op.refs[0])
            continue
        check = workloads.check(op, output, refs, configs, out_dir)
        result.gated_dev = max(result.gated_dev, check.gated_dev)
        result.ungated_dev = max(result.ungated_dev, check.ungated_dev)
        if not check.ok:
            result.failed += 1
            result.check_failures += 1
            result.problems.extend(check.problems)
    result.calibration = before
    if tracer is not None:
        result.spans = tracer.take()
    return result


def measure_probes(workload: str, seed: int, run_dir: Path) -> tuple[float, float]:
    """Median set-up reference seconds of fresh interpreters, and the peak
    RSS in MB of one more, which also runs one pass."""

    def probe(index: int, *flags: str) -> float:
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload, str(seed), str(run_dir / f"probe{index}"), *flags],
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
            check=True,
        )
        return float(proc.stdout)

    setups = [probe(index) for index in range(SETUP_REPEATS)]
    return statistics.median(setups), probe(SETUP_REPEATS, "--pass")


def _openblas_threads() -> int | None:
    """Threads OpenBLAS will use, read from the library NumPy loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
        lib = ctypes.CDLL(paths[0])
    except (OSError, IndexError):
        return None
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
        func = getattr(lib, symbol, None)
        if func is not None:
            func.restype = ctypes.c_int
            return int(func())
    return None


def environment() -> dict:
    import numpy as np
    from lightgrating import backend

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_version = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": _openblas_threads(),
        "blas_thread_env": {
            name: os.environ.get(name)
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "backend": backend.backend_name(),
    }


def load_refs():
    import numpy as np

    with np.load(HERE / "refs.npz") as data:
        return {key: data[key] for key in data.files}


def run(workload: str, seed: int, seconds: float, trace: bool, run_dir: Path) -> tuple[dict, dict]:
    ops = workloads.build(workload, seed)
    start = time.perf_counter()
    setup_s, peak_rss_mb = (None, None) if trace else measure_probes(workload, seed, run_dir)

    out_dir = run_dir / "run"
    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        sys.path.insert(0, str(SRC))
        import lightgrating  # noqa: F401  (imported so its functions can be wrapped)
    with tracer.installed() if tracer is not None else nullcontext():
        runner, configs = workloads.setup(ops, SRC, out_dir)
    setup_layers = tracing.layer_metrics(tracer.take()) if tracer is not None else {}
    refs = load_refs()

    passes: list[PassResult] = []
    traced: list[bool] = []
    lengths: list[float] = []
    # A pass starts only if a pass of median length still ends in time.
    while len(passes) < (2 if trace else 1) or (
        time.perf_counter() - start + statistics.median(lengths) <= seconds
    ):
        began = time.perf_counter()
        traced.append(trace and len(passes) % 2 == 1)
        last = passes[-1].calibration if passes else None
        passes.append(run_pass(ops, runner, configs, out_dir, refs, tracer if traced[-1] else None, last))
        lengths.append(time.perf_counter() - began)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    if trace:
        plain = statistics.median(p.wall for p, t in zip(passes, traced) if not t)
        layered = [p for p, t in zip(passes, traced) if t]
        per_pass = [tracing.layer_metrics(p.spans) for p in layered]
        values = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        values["config.parse_s"] = setup_layers["config.parse_s"]
        values["trace.overhead_s"] = statistics.median(p.wall for p in layered) - plain
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in tracing.METRICS.items()}
    else:
        values = {
            "wall_s": statistics.median(p.wall for p in passes),
            "cpu_s": statistics.median(p.cpu for p in passes),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": setup_s,
            "ok_frac": 1.0 - failed / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    errors = Counter()
    for p in passes:
        errors.update(p.errors)
    info = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "passes": len(passes),
        "pass_wall_s": [round(p.wall, 4) for p in passes],
        "pass_raw_wall_s": [round(p.raw_wall, 4) for p in passes],
        "raw_wall_s": statistics.median(p.raw_wall for p in passes),
        "raw_cpu_s": statistics.median(p.raw_cpu for p in passes),
        "operations_per_pass": len(ops),
        "max_deviation_checked": max(p.gated_dev for p in passes),
        "max_deviation_unchecked": max(p.ungated_dev for p in passes),
        "tolerance": workloads.TOLERANCE,
        "errors": dict(errors),
        "check_problems": sorted({msg for p in passes for msg in p.problems})[:10],
        "untraced_functions": tracer.missing if tracer is not None else [],
        "environment": environment(),
    }
    result = {
        "correct": failed < attempted and all(p.check_failures == 0 for p in passes),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return info, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lightgrating" / "__init__.py").is_file():
        print(f"lightgrating sources not found under {SRC}", file=sys.stderr)
        return 2
    # A name of fixed length: the lengths of the paths the library handles
    # shift its heap layout, and with it the peak RSS.
    OUT_ROOT.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_ROOT))
    try:
        info, result = run(args.workload, args.seed, args.seconds, bool(args.trace), run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            OUT_ROOT.rmdir()
        except OSError:
            pass
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
