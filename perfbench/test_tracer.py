"""Tests of the benchmark harness.

Run from the repository root:  python3 -m pytest -q perfbench/test_tracer.py
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import lightgrating  # noqa: E402
from lightgrating import backend, beamline, runner  # noqa: E402

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SMALL_WAVE = """\
[quadrature]
velocity_nodes = 4
vertical_nodes = 2
source_nodes = 2
[numerics]
samples_per_period = 16
[run]
workers = 2
"""


def _originals():
    return {
        "fft": np.fft.fft,
        "interp": np.interp,
        "summarize": runner.summarize,
        "ensemble_runner": runner.ensemble_pattern,
        "ensemble_beamline": beamline.ensemble_pattern,
        "sample_channels": backend.sample_channels,
    }


def test_missing_functions_read_zero(monkeypatch):
    monkeypatch.delattr(backend, "accumulate_weighted_abs2")
    monkeypatch.delattr(beamline, "geometric_envelope")
    tracer = tracing.Tracer()
    with tracer.installed():
        assert "lightgrating.backend.accumulate_weighted_abs2" in tracer.missing
        assert "lightgrating.beamline.geometric_envelope" in tracer.missing
        lightgrating.parse_config("")
    metrics = tracing.layer_metrics(tracer.take())
    assert metrics["backend.accumulate_calls"] == 0
    assert metrics["backend.accumulate_s"] == 0.0
    assert metrics["beamline.envelope_s"] == 0.0
    assert metrics["config.parse_s"] > 0.0


def test_uninstall_restores_every_binding():
    before = _originals()
    tracer = tracing.Tracer()
    with tracer.installed():
        during = _originals()
        assert all(during[name] is not before[name] for name in before)
        assert runner.ensemble_pattern is beamline.ensemble_pattern
    assert _originals() == before


def test_worker_threads_keep_self_time_nonnegative():
    cfg = lightgrating.parse_config(SMALL_WAVE)
    tracer = tracing.Tracer()
    with tracer.installed():
        beamline.ensemble_pattern(cfg)
    spans = tracer.take()
    main = threading.get_ident()
    assert any(s.name == "propagation.fft" and s.thread != main for s in spans)
    metrics = tracing.layer_metrics(spans)
    assert metrics["propagation.fft_calls"] == 4 * 2
    assert metrics["beamline.self_s"] >= 0.0
    assert 0.0 < metrics["beamline.worker_busy_frac"] <= 1.0


def test_overlapping_children_count_once():
    outer = tracing.Span("beamline.ensemble", 1, 0.0, 10.0, counts={"workers": 2})
    children = [
        tracing.Span("propagation.fft", 2, 1.0, 9.0),
        tracing.Span("propagation.fft", 3, 2.0, 9.5),
        tracing.Span("backend.accumulate", 3, 3.0, 4.0),
    ]
    metrics = tracing.layer_metrics([outer, *children])
    assert metrics["propagation.fft_s"] == pytest.approx(15.5)
    assert metrics["beamline.self_s"] == pytest.approx(10.0 - 8.5)
    assert metrics["beamline.worker_busy_frac"] == pytest.approx((8.0 + 7.5) / 20.0)


class _ProbeRunner:
    """Stands in for ``lightgrating.runner``; records what an operation sees."""

    def __init__(self):
        self.seen = []

    def run_orders(self, cfg, out_dir):
        self.seen.append(_originals())
        raise RuntimeError("probe")


@pytest.mark.parametrize("traced", [False, True])
def test_only_traced_passes_install_wrappers(tmp_path, traced):
    before = _originals()
    probe = _ProbeRunner()
    op = workloads.Operation("orders", ("unused",), "cfg")
    tracer = tracing.Tracer() if traced else None
    result = run.run_pass([op], probe, {"cfg": None}, tmp_path, {}, tracer)
    assert result.attempted == result.failed == 1
    (seen,) = probe.seen
    wrapped = {name for name in before if seen[name] is not before[name]}
    assert wrapped == (set(before) if traced else set())
    assert _originals() == before
    # The calibration kernel around each operation runs unwrapped.
    assert tracing.layer_metrics(result.spans)["propagation.fft_calls"] == 0
