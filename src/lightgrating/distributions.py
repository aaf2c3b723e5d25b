"""Velocity spread, vertical beam overlap, detector resolution.

Everything here produces deterministic quadrature nodes and weights — no
Monte Carlo — so downstream ensemble averages are bit-reproducible.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .beamline import BeamlineGeometry

# FWHM of a Gaussian = FWHM_TO_SIGMA * sigma
FWHM_TO_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))
# Quadrature windows span this many FWHM either side of the centre.
SPAN_FWHM = 2.5
# The Gaussian velocity rule starts no lower than this share of v_peak.
VELOCITY_FLOOR = 1e-3
# The most points of a detector-plane array: the scan grid, the common grid
# and the detector kernel's taps (8 MB as float64).  A grid that would hold
# more is refused before it is allocated.
MAX_DETECTOR_POINTS = 1 << 20
# The most nodes of a quadrature rule, velocity, vertical or source (64
# times the default 16), and the most rows of a velocity histogram.
MAX_QUADRATURE_NODES = 1 << 10


def check_size(what: str, size: float, limit: int, unit: str = "points") -> None:
    """Raise ValueError if ``what`` would hold more than ``limit`` ``unit`` (or a NaN ``size``)."""
    if not size <= limit:
        raise ValueError(f"{what} would hold {size:.4g} {unit}, more than the {limit} allowed")


def check_nodes(what: str, n_nodes: int) -> None:
    """Raise ValueError unless the rule ``what`` has 1 to ``MAX_QUADRATURE_NODES`` nodes."""
    if n_nodes < 1:
        raise ValueError("n_nodes must be >= 1")
    check_size(what, n_nodes, MAX_QUADRATURE_NODES, "nodes")


@dataclass(frozen=True)
class VelocityDistribution:
    """Forward-velocity distribution of the molecular beam.

    Without a ``histogram`` it is a Gaussian parameterised by the most
    probable velocity and the relative FWHM spread.  A measured histogram
    (two columns: velocity, relative weight), when given, is the rule: it
    is used verbatim as the quadrature, and ``shape`` reads "histogram".
    Its columns must have equal lengths of at most ``MAX_QUADRATURE_NODES``
    rows, its velocities be finite and positive, and its weights be finite
    and nonnegative with a positive sum.
    """

    v_peak: float = 120.0
    fwhm_ratio: float = 0.17
    histogram: tuple[tuple[float, ...], tuple[float, ...]] | None = None

    def __post_init__(self) -> None:
        if self.histogram is not None:
            velocities, weights = self.histogram
            if len(velocities) != len(weights):
                raise ValueError("histogram columns must have equal lengths")
            check_size("the velocity histogram", len(velocities), MAX_QUADRATURE_NODES, "rows")
            velocities = np.asarray(velocities, dtype=np.float64)
            weights = np.asarray(weights, dtype=np.float64)
            if not np.all(np.isfinite(velocities) & (velocities > 0.0)):
                raise ValueError("histogram velocities must be positive")
            if not (np.all(np.isfinite(weights) & (weights >= 0.0)) and weights.sum() > 0.0):
                raise ValueError("histogram weights must be nonnegative with positive sum")
        if not self.v_peak > 0.0:
            raise ValueError("v_peak must be positive")
        if not 0.0 < self.fwhm_ratio < 1.0:
            raise ValueError("fwhm_ratio must be in (0, 1)")

    @property
    def shape(self) -> str:
        """The rule's shape: "histogram" when a histogram is given, else "gaussian"."""
        return "gaussian" if self.histogram is None else "histogram"


@dataclass(frozen=True)
class VerticalProfile:
    """Vertical extent of the molecular beam against the laser profile."""

    beam_fwhm: float = 625e-6
    laser_waist: float = 1.3e-3

    def __post_init__(self) -> None:
        for name in ("beam_fwhm", "laser_waist"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class DetectorModel:
    """Detection resolution (FWHM) and scan step."""

    width: float = 6e-6
    step: float = 2e-6
    kernel_shape: str = "gaussian"

    def __post_init__(self) -> None:
        if self.width < 0.0:
            raise ValueError("width must be >= 0")
        if not self.step > 0.0:
            raise ValueError("step must be positive")
        if self.kernel_shape not in ("gaussian", "tophat"):
            raise ValueError(f"unknown kernel shape {self.kernel_shape!r}")


def _midpoint_cells(lo: float, hi: float, n: int) -> np.ndarray:
    width = (hi - lo) / n
    return lo + (np.arange(n) + 0.5) * width


def velocity_quadrature(
    dist: VelocityDistribution, n_nodes: int
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic nodes and unit-sum weights over the velocity spread.

    Gaussian shape: midpoint cells spanning +-2.5 FWHM around v_peak,
    weighted by the distribution value.  The span starts no lower than
    ``VELOCITY_FLOOR`` * v_peak, and a warning says so when that floor cuts
    it (``fwhm_ratio`` >= 0.4): the grating phase grows as 1/v, so the
    slowest nodes then carry the strongest gratings of the run.  Histogram
    shape: the tabulated rows of nonzero weight are the rule and
    ``n_nodes`` is only checked.  A row of weight 0 adds nothing to a pattern,
    so it costs no node here, while the config digest still hashes it.
    """
    check_nodes("the velocity rule", n_nodes)
    if dist.shape == "histogram":
        assert dist.histogram is not None
        nodes = np.asarray(dist.histogram[0], dtype=np.float64)
        weights = np.asarray(dist.histogram[1], dtype=np.float64)
        kept = weights != 0.0
        return nodes[kept], weights[kept] / weights[kept].sum()
    half_span = SPAN_FWHM * dist.fwhm_ratio * dist.v_peak
    floor = VELOCITY_FLOOR * dist.v_peak
    if dist.v_peak - half_span < floor:
        warnings.warn(
            f"velocity.fwhm_ratio = {dist.fwhm_ratio:g}: the quadrature spans "
            f"+-{SPAN_FWHM:g} FWHM down to {dist.v_peak - half_span:.3g} m/s, but starts at "
            f"the floor {floor:.3g} m/s; its slowest nodes see a grating up to "
            f"{1.0 / VELOCITY_FLOOR:.0f} times stronger than at v_peak",
            stacklevel=2,
        )
    lo = max(dist.v_peak - half_span, floor)
    hi = dist.v_peak + half_span
    nodes = _midpoint_cells(lo, hi, n_nodes)
    sigma = dist.fwhm_ratio * dist.v_peak / FWHM_TO_SIGMA
    weights = np.exp(-0.5 * ((nodes - dist.v_peak) / sigma) ** 2)
    return nodes, weights / weights.sum()


def vertical_phi_scales(
    profile: VerticalProfile, n_nodes: int
) -> tuple[np.ndarray, np.ndarray]:
    """Intensity scale factors sampled over the beam's vertical extent.

    Molecules at height y see the laser intensity reduced by
    exp(-2 y^2 / w_y^2); the complex grating phase scales by the same
    factor.  Returns (scales, weights) with unit-sum weights over midpoint
    cells spanning +-2.5 FWHM of the vertical beam profile.
    """
    check_nodes("the vertical rule", n_nodes)
    half_span = SPAN_FWHM * profile.beam_fwhm
    y = _midpoint_cells(-half_span, half_span, n_nodes)
    sigma = profile.beam_fwhm / FWHM_TO_SIGMA
    weights = np.exp(-0.5 * (y / sigma) ** 2)
    scales = np.exp(-2.0 * (y / profile.laser_waist) ** 2)
    return scales, weights / weights.sum()


def fold_vertical_rule(scales, weights) -> tuple[np.ndarray, np.ndarray]:
    """The ceil(n/2) distinct nodes of the rule of ``vertical_phi_scales``.

    Its midpoint cells are mirror-symmetric in y and the scale depends on
    y^2 only, so node i and node n-1-i carry one scale: the first node of
    each mirror pair keeps the pair's summed weight, and the centre node of
    an odd rule its own.  Raises ValueError unless scales and weights are
    mirror-symmetric to 1e-12.
    """
    scales = np.asarray(scales, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if max(np.max(np.abs(scales - scales[::-1])), np.max(np.abs(weights - weights[::-1]))) > 1e-12:
        raise ValueError("the vertical rule is not mirror-symmetric")
    half = (scales.size + 1) // 2
    folded = weights[:half] + weights[::-1][:half]
    if scales.size % 2 == 1:
        folded[-1] = weights[half - 1]
    return scales[:half], folded


def grid_half(what: str, half: float) -> int:
    """``half``, the points either side of a grid's centre, as an int.

    Raises ValueError when the grid's 2 half + 1 points exceed
    ``MAX_DETECTOR_POINTS`` (or ``half`` is not finite).
    """
    check_size(what, 2.0 * half + 1.0, MAX_DETECTOR_POINTS)
    return int(half)


def _scan_half(geom: "BeamlineGeometry", step: float) -> int:
    """The scan grid's ``grid_half``; ValueError if the grid is too coarse or too fine."""
    n_half = grid_half("the scan grid", np.floor(0.5 * geom.detector_span / step + 1e-9))
    if n_half < 1:
        raise ValueError(
            f"a detector step of {step * 1e6:g} um exceeds half the detector span of "
            f"{geom.detector_span * 1e6:g} um: the scan grid would hold one point"
        )
    return n_half


def _scan_grid(geom: "BeamlineGeometry", step: float) -> np.ndarray:
    n_half = _scan_half(geom, step)
    return np.arange(-n_half, n_half + 1) * step


def _internal_half(geom: "BeamlineGeometry", width: float, step: float) -> int:
    """The common grid's ``grid_half``: 3 detector widths past the span, and 2 um."""
    half_extent = 0.5 * geom.detector_span + 3.0 * max(width, step) + 2e-6
    return grid_half("the common detector grid", np.ceil(half_extent / step))


def _internal_grid(geom: "BeamlineGeometry", width: float, step: float) -> np.ndarray:
    n_half = _internal_half(geom, width, step)
    return np.arange(-n_half, n_half + 1) * step


def aperture_mask(x: np.ndarray, spacing: float, width: float) -> np.ndarray:
    """Fractional overlap of each grid cell with a centred slit."""
    half = 0.5 * width
    lo = np.maximum(x - 0.5 * spacing, -half)
    hi = np.minimum(x + 0.5 * spacing, half)
    return np.clip((hi - lo) / spacing, 0.0, 1.0)


def detector_kernel(model: DetectorModel, grid_step: float) -> np.ndarray:
    """Odd-length unit-sum convolution kernel for the detector resolution.

    A resolution narrower than the grid step degenerates to a single tap.
    """
    if not grid_step > 0.0:
        raise ValueError("grid_step must be positive")
    if model.width < grid_step:
        return np.array([1.0])
    if model.kernel_shape == "gaussian":
        sigma = model.width / FWHM_TO_SIGMA
        half = grid_half("the detector kernel", np.ceil(3.0 * sigma / grid_step))
        offsets = np.arange(-half, half + 1) * grid_step
        taps = np.exp(-0.5 * (offsets / sigma) ** 2)
    else:  # tophat: the cells that meet the slit, each weighted by its overlap
        reach = 0.5 * model.width + 0.5 * grid_step
        half = grid_half("the detector kernel", np.ceil(reach / grid_step))
        taps = aperture_mask(np.arange(-half, half + 1) * grid_step, grid_step, model.width)
    return taps / taps.sum()


def load_velocity_histogram(path: str | Path) -> VelocityDistribution:
    """Read a two-column (velocity m/s, relative weight) text file.

    The rows are sorted by velocity, and ``v_peak`` is the velocity of the
    largest weight; ``VelocityDistribution`` checks the rows.
    """
    text = Path(path).read_text(encoding="utf-8")  # np.loadtxt decompresses a path by suffix
    data = np.loadtxt(text.split("\n"), dtype=np.float64, ndmin=2)
    if data.ndim != 2 or data.shape[1] != 2:
        raise ValueError("histogram file must have exactly two columns")
    v, w = data[:, 0], data[:, 1]
    order = np.argsort(v)
    v, w = v[order], w[order]
    v_peak = float(v[np.argmax(w)])
    return VelocityDistribution(
        v_peak=v_peak,
        histogram=(tuple(float(x) for x in v), tuple(float(x) for x in w)),
    )
