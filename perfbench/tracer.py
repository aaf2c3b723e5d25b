"""Per-layer tracing of lightgrating from outside the library.

While installed, a :class:`Tracer` replaces each traced function with a
wrapper that records a span (name, thread id, start, end, parent) and the
work counters of that call.  Replacement is by identity: every
``lightgrating`` module attribute bound to the function, including names
imported with ``from .module import name``, gets the wrapper, so calls
through any module are seen.  Uninstalling restores every binding.

A traced function that does not exist (a later version of the library
may remove it) is skipped, and its metrics read zero.
"""

from __future__ import annotations

import importlib
import math
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# (module, attribute, span name).  ``_atomic_write`` is the one private
# function traced: every file the runner writes goes through it.
TARGETS = (
    ("numpy.fft", "fft", "propagation.fft"),
    ("lightgrating.backend", "accumulate_weighted_abs2", "backend.accumulate"),
    ("lightgrating.backend", "sample_channels", "grating.channels"),
    ("lightgrating.grating", "truncation_order", "grating.truncation"),
    ("lightgrating.orders", "incoherent_order_intensities", "orders.spectrum"),
    ("lightgrating.orders", "absorbed_fraction", "orders.absorbed_fraction"),
    ("lightgrating.beamline", "ensemble_pattern", "beamline.ensemble"),
    ("lightgrating.beamline", "geometric_envelope", "beamline.envelope"),
    ("lightgrating.beamline", "compare_patterns", "beamline.compare"),
    ("lightgrating.beamline", "pattern_metrics", "beamline.metrics"),
    ("numpy", "interp", "beamline.resample"),
    ("numpy", "convolve", "beamline.blur"),
    ("lightgrating.runner", "summarize", "runner.summarize"),
    ("lightgrating.runner", "_atomic_write", "runner.write"),
    ("lightgrating.runner", "read_pattern_csv", "runner.read"),
    ("lightgrating.config", "parse_config", "config.parse"),
    ("lightgrating.distributions", "velocity_quadrature", "distributions.quadrature"),
    ("lightgrating.distributions", "vertical_phi_scales", "distributions.quadrature"),
)

# Per-layer metric name -> unit, in report order.
METRICS = {
    "propagation.fft_s": "s",
    "propagation.fft_calls": "count",
    "propagation.fft_rows": "count",
    "propagation.fft_flop_computed": "flop",
    "propagation.fft_bytes_computed": "B",
    "propagation.fft_batch_bytes_max": "B",
    "backend.accumulate_s": "s",
    "backend.accumulate_calls": "count",
    "backend.accumulate_bytes_computed": "B",
    "grating.channels_s": "s",
    "grating.channel_rows": "count",
    "grating.capped_nodes": "count",
    "grating.dropped_poisson_max": "prob",
    "orders.spectrum_s": "s",
    "orders.spectrum_calls": "count",
    "orders.absorbed_fraction_s": "s",
    "beamline.ensemble_s": "s",
    "beamline.self_s": "s",
    "beamline.worker_busy_frac": "frac",
    "beamline.envelope_s": "s",
    "beamline.compare_s": "s",
    "beamline.metrics_s": "s",
    "beamline.resample_s": "s",
    "beamline.blur_s": "s",
    "runner.summarize_s": "s",
    "runner.write_s": "s",
    "runner.write_bytes": "B",
    "runner.read_s": "s",
    "config.parse_s": "s",
    "distributions.quadrature_s": "s",
    "trace.overhead_s": "s",
}


def poisson_tail(nbar: float, n: int, poisson_weight) -> float:
    """Poisson mass beyond ``n`` at mean ``nbar``, from the library's weights."""
    return max(0.0, 1.0 - sum(poisson_weight(nbar, k) for k in range(n + 1)))


@dataclass
class Span:
    name: str
    thread: int
    start: float
    end: float = 0.0
    parent: int | None = None
    counts: dict = field(default_factory=dict)


def _fft_counts(args, kwargs, result) -> dict:
    rows = result.size // result.shape[-1] if result.ndim else 1
    n = result.shape[-1] if result.ndim else 1
    return {
        "rows": rows,
        "flop": 5.0 * rows * n * math.log2(n) if n > 1 else 0.0,
        # input and output, both complex128
        "bytes": 2 * result.nbytes,
        "batch_bytes": result.nbytes,
    }


def _accumulate_counts(args, kwargs, result) -> dict:
    fields, _, out = args[:3]
    return {"bytes": fields.nbytes + 2 * out.nbytes}  # read rows, read and write out


def _channel_counts(args, kwargs, result) -> dict:
    return {"rows": result.shape[0]}


def _write_counts(args, kwargs, result) -> dict:
    return {"bytes": len(args[1].encode("utf-8"))}


def _ensemble_counts(args, kwargs, result) -> dict:
    run = getattr(args[0] if args else kwargs.get("cfg"), "run", None)
    return {"workers": max(1, int(getattr(run, "workers", 1)))}


def _truncation_counts(args, kwargs, result) -> dict:
    grating = sys.modules["lightgrating.grating"]
    phi = args[0] if args else kwargs["phi"]
    tail_eps = args[1] if len(args) > 1 else kwargs.get("tail_eps", grating.DEFAULT_TAIL_EPS)
    dropped = poisson_tail(4.0 * phi.im, int(result), grating.poisson_weight)
    cap = getattr(grating, "MAX_PHOTON_ORDER", None)
    return {"dropped": dropped, "capped": int(result == cap and dropped >= tail_eps)}


COUNTERS = {
    "propagation.fft": _fft_counts,
    "backend.accumulate": _accumulate_counts,
    "grating.channels": _channel_counts,
    "grating.truncation": _truncation_counts,
    "beamline.ensemble": _ensemble_counts,
    "runner.write": _write_counts,
}


class Tracer:
    """Collects spans from wrapped functions, from any thread."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, func, name: str):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span = Span(name, threading.get_ident(), 0.0, parent=stack[-1] if stack else None)
            stack.append(id(span))
            span.start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
                # Counted inside the span, so the counting cost stays out
                # of the caller's self time.
                if counter is not None:
                    span.counts = counter(args, kwargs, result)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                with self._lock:
                    self.spans.append(span)
            return result

        traced.__wrapped__ = func
        return traced

    def install(self) -> None:
        """Wrap every target that exists; record the ones that do not."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items()) if n == "lightgrating" or n.startswith("lightgrating.")]
        self.missing = []
        for module_name, attr, name in self.targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self.wrap(original, name)
            for holder in {id(m): m for m in [module, *modules]}.values():
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches = []

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def take(self) -> list[Span]:
        """Return the spans recorded so far and start a new list."""
        with self._lock:
            spans, self.spans = self.spans, []
        return spans


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    Times are summed span durations.  ``beamline.self_s`` is the time in
    ``ensemble_pattern`` during which no other traced span ran on any
    thread, so it cannot go negative when workers overlap.
    ``beamline.worker_busy_frac`` sums, per thread, the time covered by
    spans inside an ensemble, over ``workers`` times the ensemble time.
    """
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def seconds(name):
        return sum(s.end - s.start for s in by_name.get(name, ()))

    def total(name, key):
        return sum(s.counts.get(key, 0) for s in by_name.get(name, ()))

    def largest(name, key):
        return max((s.counts.get(key, 0) for s in by_name.get(name, ())), default=0)

    ensemble_time = self_time = busy = capacity = 0.0
    for outer in by_name.get("beamline.ensemble", ()):
        inner = [s for s in spans if s is not outer and outer.start <= s.start and s.end <= outer.end]
        duration = outer.end - outer.start
        ensemble_time += duration
        self_time += duration - _covered((s.start, s.end) for s in inner)
        for thread in {s.thread for s in inner}:
            busy += _covered((s.start, s.end) for s in inner if s.thread == thread)
        capacity += outer.counts.get("workers", 1) * duration

    return {
        "propagation.fft_s": seconds("propagation.fft"),
        "propagation.fft_calls": len(by_name.get("propagation.fft", ())),
        "propagation.fft_rows": total("propagation.fft", "rows"),
        "propagation.fft_flop_computed": total("propagation.fft", "flop"),
        "propagation.fft_bytes_computed": total("propagation.fft", "bytes"),
        "propagation.fft_batch_bytes_max": largest("propagation.fft", "batch_bytes"),
        "backend.accumulate_s": seconds("backend.accumulate"),
        "backend.accumulate_calls": len(by_name.get("backend.accumulate", ())),
        "backend.accumulate_bytes_computed": total("backend.accumulate", "bytes"),
        "grating.channels_s": seconds("grating.channels"),
        "grating.channel_rows": total("grating.channels", "rows"),
        "grating.capped_nodes": total("grating.truncation", "capped"),
        "grating.dropped_poisson_max": largest("grating.truncation", "dropped"),
        "orders.spectrum_s": seconds("orders.spectrum"),
        "orders.spectrum_calls": len(by_name.get("orders.spectrum", ())),
        "orders.absorbed_fraction_s": seconds("orders.absorbed_fraction"),
        "beamline.ensemble_s": ensemble_time,
        "beamline.self_s": self_time,
        "beamline.worker_busy_frac": busy / capacity if capacity > 0.0 else 0.0,
        "beamline.envelope_s": seconds("beamline.envelope"),
        "beamline.compare_s": seconds("beamline.compare"),
        "beamline.metrics_s": seconds("beamline.metrics"),
        "beamline.resample_s": seconds("beamline.resample"),
        "beamline.blur_s": seconds("beamline.blur"),
        "runner.summarize_s": seconds("runner.summarize"),
        "runner.write_s": seconds("runner.write"),
        "runner.write_bytes": total("runner.write", "bytes"),
        "runner.read_s": seconds("runner.read"),
        "config.parse_s": seconds("config.parse"),
        "distributions.quadrature_s": seconds("distributions.quadrature"),
    }
