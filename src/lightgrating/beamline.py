"""Source -> collimator -> grating -> detector: the full beamline average.

Wave mode sums the absorption channels and the vertical positions in
closed form: per velocity, the grating is the mixed state of
``grating.grating_coherence``, compressed by ``grating.effective_channels``
into the few field rows it needs.  One call factorizes the states of all
velocity nodes of a run, before the worker threads start; the workers
only propagate.  The rows of each velocity are Fresnel-propagated in one
FFT batch and their intensities add.  A source point only adds a linear
phase ramp, which multiplies each lag of the field autocorrelation by a
phase; so the incoherent average over the source nodes is one kernel on
the lags of that single-source intensity, exact for the midpoint source
rule.  This equals the channel-by-channel, source-by-source quadrature of
``point_source_pattern`` up to the probability the rows drop (at most
``tail_eps`` per grating point).  The autocorrelation of N grating samples
has 2N - 1 lags, so the row batch runs at next_pow2(2N - 1) points
whatever ``numerics.pad_factor`` is; the padding sets only the output
bins, one transform of the folded lags per velocity.  The grid resolves
the orders |m| < ``numerics.samples_per_period``, and a run warns when the
grating state may put more than 1% beyond them.  Orders mode projects the
same effective rows onto the diffraction orders
(``orders.mixed_order_spectra``: one factorization of all velocity nodes
on one grid, sized by the slowest node; no photon cap) and places each
order's weight on the geometric shadow envelope instead of propagating;
it is faster and serves as the cross-check of the wave pipeline's
propagation.

A power scan (``ensemble_patterns``) changes only the grating strength,
so its powers share the velocity, vertical and source quadratures, the
grating window, the detector grid and one pool of worker threads.  In
wave mode one batch factorizes the states of every (power, velocity)
pair, up to ``MAX_BATCH_STATES`` of them, and one worker task per
velocity node builds that node's chirp and source kernel once and
propagates its rows at every power of the batch.  Each power's pattern is
bit-identical to a run at that power alone.  Orders mode sizes its grid
by each power's strongest phase, so it factorizes once per power.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from . import backend
from .distributions import detector_kernel, velocity_quadrature, vertical_phi_scales
from .grating import (
    GratingBeam,
    GridSpec,
    ParityRows,
    TransmissionChannel,
    compute_phi,
    effective_channels,
)
from .orders import mixed_order_spectra, tail_order
from .propagation import next_pow2, propagate_spectral
from .species import HBAR, MoleculeSpecies, de_broglie_wavelength

if TYPE_CHECKING:
    from collections.abc import Iterable, Sequence

    from .config import SimulationConfig

# Wave mode factorizes the (power, velocity) states of a scan in groups of
# powers holding at most this many states, so that the temporaries of one
# batch stay bounded however many powers a scan has.
MAX_BATCH_STATES = 64


@dataclass(frozen=True)
class BeamlineGeometry:
    """Slit widths and flight distances of the two-slit beamline."""

    slit1: float = 7e-6
    slit2: float = 5e-6
    L12: float = 1.13
    L2D: float = 1.2
    detector_span: float = 300e-6

    def __post_init__(self) -> None:
        for name in ("slit1", "slit2", "L12", "L2D", "detector_span"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")


@dataclass
class DiffractionPattern:
    """Detector-plane intensity on a uniform scan grid plus provenance."""

    positions: np.ndarray
    intensity: np.ndarray
    metadata: dict = field(default_factory=dict)

    @property
    def step(self) -> float:
        return float(self.positions[1] - self.positions[0])


@dataclass(frozen=True)
class PatternMetrics:
    """Window-integrated order efficiencies and central visibility."""

    efficiencies: dict[int, float]
    visibility: float
    window: float


def order_slot_spacing(
    species: MoleculeSpecies, velocity: float, beam: GratingBeam, geom: BeamlineGeometry
) -> float:
    """Detector-plane distance between adjacent hbar*k momentum slots."""
    if not velocity > 0.0:
        raise ValueError("velocity must be positive")
    return HBAR * beam.k_laser / (species.mass_kg * velocity) * geom.L2D


def farfield_peak_positions(
    species: MoleculeSpecies,
    velocity: float,
    beam: GratingBeam,
    geom: BeamlineGeometry,
    m_max: int = 5,
) -> np.ndarray:
    """Principal (even-slot) far-field peak positions m*(2 hbar k/Mv)*L2D."""
    spacing = 2.0 * order_slot_spacing(species, velocity, beam, geom)
    return np.arange(-m_max, m_max + 1) * spacing


def geometric_envelope(geom: BeamlineGeometry, x: np.ndarray) -> np.ndarray:
    """Unit-area ray-optics shadow of the two slits at the detector plane.

    A uniform incoherent source across slit1 projected through slit2 gives
    the convolution of two top-hats: widths slit2*(1+r) and slit1*r with
    r = L2D/L12 — a trapezoid.  Evaluated pointwise at ``x``.
    """
    x = np.asarray(x, dtype=np.float64)
    r = geom.L2D / geom.L12
    wide = geom.slit2 * (1.0 + r)
    narrow = geom.slit1 * r
    if narrow > wide:
        wide, narrow = narrow, wide
    if narrow <= 0.0:
        return np.where(np.abs(x) <= 0.5 * wide, 1.0 / wide, 0.0)
    ax = np.abs(x)
    flat = 0.5 * (wide - narrow)
    base = 0.5 * (wide + narrow)
    ramp = (base - ax) / (wide * narrow)
    return np.where(ax <= flat, 1.0 / wide, np.where(ax < base, ramp, 0.0))


def _envelope_sum(
    geom: BeamlineGeometry, x: np.ndarray, centers: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """sum_i weights[i] * geometric_envelope(geom, x - centers[i]) on the uniform grid x.

    Each trapezoid is evaluated only on the grid points it covers, plus one
    on either side, and the terms add in the order of ``centers``.
    """
    r = geom.L2D / geom.L12
    # half the trapezoid's base: ``geometric_envelope`` is zero beyond it
    half = 0.5 * (geom.slit2 * (1.0 + r) + geom.slit1 * r)
    span = np.arange(int(math.ceil(2.0 * half / (x[1] - x[0]))) + 3)
    index = (np.searchsorted(x, centers - half) - 1)[:, None] + span
    inside = (index >= 0) & (index < x.size)
    index = np.clip(index, 0, x.size - 1)
    values = weights[:, None] * geometric_envelope(geom, x[index] - centers[:, None])
    return np.bincount(index[inside], weights=values[inside], minlength=x.size)


def aperture_mask(x: np.ndarray, spacing: float, width: float) -> np.ndarray:
    """Fractional overlap of each grid cell with a centred slit."""
    half = 0.5 * width
    lo = np.maximum(x - 0.5 * spacing, -half)
    hi = np.minimum(x + 0.5 * spacing, half)
    return np.clip((hi - lo) / spacing, 0.0, 1.0)


def grating_window(
    beam: GratingBeam, geom: BeamlineGeometry, samples_per_period: int
) -> tuple[GridSpec, np.ndarray]:
    """Sampling grid over the illuminated part of the grating plane.

    The window covers slit2 plus a 4-wavelength margin, rounded up to an
    even number of grating periods (grid convention), and the slit2
    aperture is a fractional-overlap mask on that grid.
    """
    window = geom.slit2 + 4.0 * beam.wavelength
    periods = int(math.ceil(window / beam.period))
    if periods % 2 == 1:
        periods += 1
    periods = max(periods, 2)
    grid = GridSpec(
        periods=periods, samples_per_period=samples_per_period, wavelength=beam.wavelength
    )
    mask = aperture_mask(grid.positions(), grid.spacing, geom.slit2)
    return grid, mask


def source_quadrature(geom: BeamlineGeometry, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Midpoint nodes across slit1 with uniform weights (incoherent source)."""
    if n_nodes < 1:
        raise ValueError("n_nodes must be >= 1")
    width = geom.slit1 / n_nodes
    nodes = -0.5 * geom.slit1 + (np.arange(n_nodes) + 0.5) * width
    return nodes, np.full(n_nodes, 1.0 / n_nodes)


def point_source_pattern(
    source_x: float,
    wavelength: float,
    channels: list[TransmissionChannel],
    geom: BeamlineGeometry,
    pad_factor: int = 4,
) -> tuple[np.ndarray, np.ndarray]:
    """Detector-plane intensity of one coherent point source.

    The cylindrical wave from ``source_x`` in slit1 reaches the grating
    plane (coplanar with slit2) as a quadratic phase front; it is clipped
    by slit2, multiplied by every absorption-channel transmission, each
    product is Fresnel-propagated over L2D, and the channel intensities
    add incoherently.  Returns the native spectral output grid and the
    intensity per unit length on it.
    """
    if abs(source_x) > 0.5 * geom.slit1:
        raise ValueError("source point outside slit1")
    if not channels:
        raise ValueError("need at least one transmission channel")
    grid = channels[0].grid
    x = grid.positions()
    mask = aperture_mask(x, grid.spacing, geom.slit2)
    k = 2.0 * math.pi / wavelength
    chirp = np.exp(1j * (0.5 * k / geom.L12) * (x - source_x) ** 2)
    total: np.ndarray | None = None
    x_out: np.ndarray | None = None
    for channel in channels:
        if channel.grid is not grid and channel.grid != grid:
            raise ValueError("all channels must share one grid")
        x_out, psi = propagate_spectral(
            chirp * mask * channel.samples,
            grid.spacing,
            wavelength,
            geom.L2D,
            float(x[0]),
            pad_factor,
        )
        contribution = psi.real**2 + psi.imag**2
        total = contribution if total is None else total + contribution
    assert total is not None and x_out is not None
    return x_out, total


def _scan_grid(geom: BeamlineGeometry, step: float) -> np.ndarray:
    n_half = int(math.floor(0.5 * geom.detector_span / step + 1e-9))
    return np.arange(-n_half, n_half + 1) * step


def _internal_grid(geom: BeamlineGeometry, detector_width: float, internal_step: float) -> np.ndarray:
    half_extent = 0.5 * geom.detector_span + 3.0 * max(detector_width, internal_step) + 2e-6
    n_half = int(math.ceil(half_extent / internal_step))
    return np.arange(-n_half, n_half + 1) * internal_step


def _wave_velocity_slice(
    cfg: "SimulationConfig",
    velocity: float,
    grid: GridSpec,
    mask: np.ndarray,
    rows: Sequence[ParityRows],
    src_nodes: np.ndarray,
    src_weights: np.ndarray,
) -> tuple[np.ndarray, list[np.ndarray], float, list[float]]:
    """One velocity node of the wave-mode ensemble, at one or more laser powers.

    ``rows`` holds the node's effective grating rows at each power
    (``grating.effective_channels``), spread over one laser period here.
    The photon channels and vertical scales enter only through their
    summed grating state, which repeats with the laser period (the window
    holds a whole number of them); the rows reproduce it on every period.
    The chirp and the source kernel depend on the velocity alone, so every
    power shares them.  Returns (native positions, native intensity at each
    power, input power, in-span fraction at each power).  Pure function of
    its arguments; safe to run on a worker thread.
    """
    geom = cfg.geometry
    wavelength = de_broglie_wavelength(cfg.species, velocity)
    k = 2.0 * math.pi / wavelength
    x = grid.positions()
    spacing = grid.spacing
    n_fft = next_pow2(grid.size * cfg.numerics.pad_factor)
    laser_period = 2 * grid.samples_per_period

    # Quadratic phases of the incoming cylindrical wave (L12) and of the
    # outgoing Fresnel kernel (L2D) combine into one chirp; each source
    # point then contributes only a linear phase ramp.  Constant phases
    # drop out of |psi|^2.
    base = mask * np.exp(1j * (0.5 * k * (1.0 / geom.L12 + 1.0 / geom.L2D)) * x**2)

    # Every photon channel summed, sum_n |t_n|^2 = 1, so the input norm is
    # that of the slit alone; what the effective rows drop shows as a loss.
    power_in = spacing * float(np.sum(mask**2))
    # |prefactor|^2 of the Fresnel integral; output phases are unimodular.
    out_scale = spacing**2 / (wavelength * geom.L2D)

    # Source point s adds the ramp exp(-i (k/L12) s x), which multiplies lag
    # d of the field autocorrelation by exp(-i (k/L12) s spacing d).  The
    # incoherent source average is therefore one kernel on the lags of the
    # single-source intensity.  The autocorrelation A(d) spans |d| < grid.size,
    # so the rows are transformed at n_lag = next_pow2(2 grid.size - 1), where
    # A does not wrap, whatever pad_factor is.  The averaged lags then fold
    # onto the output grid at d mod n_fft (terms add only when n_fft <
    # 2 grid.size - 1), and one n_fft transform gives the output bins: the
    # same sum_d A(d) c[d] exp(-2 pi i f d / n_fft) at any n_fft.
    n_lag = next_pow2(2 * grid.size - 1)
    # c[d] for d >= 0; the weights are real, so c[-d] = conj(c[d])
    ramp = -1j * (k / geom.L12) * spacing
    kernel = np.einsum(
        "s,sd->d", src_weights, np.exp(ramp * np.multiply.outer(src_nodes, np.arange(grid.size)))
    )
    kernel = np.concatenate([kernel[:0:-1].conj(), kernel])
    lags = np.arange(1 - grid.size, grid.size)
    folds = lags % n_fft
    out_spacing = wavelength * geom.L2D / (n_fft * spacing)
    x_native = (np.arange(n_fft) - n_fft // 2) * out_spacing
    in_span = np.abs(x_native) <= 0.5 * geom.detector_span

    intensities = []
    coverages = []
    for block in rows:
        # each row repeats over the laser periods of the window
        fields = block.period()[:, None, :] * base.reshape(-1, laser_period)
        fields = fields.reshape(block.rank, grid.size)
        single = np.zeros(n_lag)
        backend.accumulate_weighted_abs2(np.fft.fft(fields, n=n_lag, axis=-1), 1.0, single)
        del fields  # before the next power's rows are spread
        folded = np.zeros(n_fft, dtype=np.complex128)
        np.add.at(folded, folds, np.fft.ifft(single)[lags] * kernel)
        intensity = np.fft.fftshift(np.fft.fft(folded).real * out_scale)
        total = float(intensity.sum() * out_spacing)
        intensities.append(intensity)
        coverages.append(
            float(intensity[in_span].sum() * out_spacing) / total if total > 0 else 0.0
        )
    return x_native, intensities, power_in, coverages


def _finalize(
    cfg: "SimulationConfig",
    common_x: np.ndarray,
    accumulated: np.ndarray,
    metadata: dict,
) -> DiffractionPattern:
    kernel = detector_kernel(cfg.detector, cfg.numerics.internal_step)
    blurred = np.convolve(accumulated, kernel, mode="same")
    scan_x = _scan_grid(cfg.geometry, cfg.detector.step)
    scan_intensity = np.interp(scan_x, common_x, blurred)
    scan_intensity = np.maximum(scan_intensity, 0.0)
    if cfg.run.normalization == "peak":
        peak = scan_intensity.max()
        if peak > 0.0:
            scan_intensity = scan_intensity / peak
    else:
        total = scan_intensity.sum()
        if total > 0.0:
            scan_intensity = scan_intensity / total
    metadata["normalization"] = cfg.run.normalization
    metadata["detector_width"] = cfg.detector.width
    metadata["scan_step"] = cfg.detector.step
    return DiffractionPattern(positions=scan_x, intensity=scan_intensity, metadata=metadata)


def ensemble_patterns(
    cfg: "SimulationConfig", powers: Sequence[float]
) -> list[DiffractionPattern]:
    """The ensemble-averaged detector-plane pattern of ``cfg`` at each laser power.

    Pattern i is that of ``cfg`` with ``beam.power = powers[i]``, bit for
    bit: one scan shares the quadratures, the grating window, the worker
    threads and, in wave mode, one factorization of every (power, velocity)
    state and each velocity's chirp and source kernel.  Deterministic:
    quadrature results are reduced in a fixed order no matter how many
    workers compute them, so identical configs give bit-identical patterns.
    When ``cfg.run.convergence_check`` is set the quadrature axes are
    doubled one at a time and the RMS pattern change is recorded in each
    pattern's ``metadata["convergence"]`` (warning above 1%).
    """
    patterns = _ensembles(cfg, powers)
    if not cfg.run.convergence_check:
        return patterns
    from .config import QuadratureSpec  # deferred: avoids import cycle at module load

    quad = cfg.quadrature
    changes: list[dict[str, float]] = [{} for _ in patterns]
    for axis in ("velocity_nodes", "vertical_nodes", "source_nodes"):
        doubled = replace(
            cfg,
            quadrature=QuadratureSpec(
                **{
                    name: getattr(quad, name) * (2 if name == axis else 1)
                    for name in ("velocity_nodes", "vertical_nodes", "source_nodes")
                }
            ),
            run=replace(cfg.run, convergence_check=False),
        )
        for pattern, refined, change in zip(patterns, _ensembles(doubled, powers), changes):
            scale = float(np.sqrt(np.mean(pattern.intensity**2)))
            rms = float(np.sqrt(np.mean((pattern.intensity - refined.intensity) ** 2)))
            change[axis] = rms / scale if scale > 0.0 else 0.0
    for pattern, change in zip(patterns, changes):
        worst = max(change.values())
        pattern.metadata["convergence"] = {"rms_change": change, "converged": worst <= 0.01}
        if worst > 0.01:
            warnings.warn(
                f"quadrature not converged at {pattern.metadata['power_w']} W: doubling "
                f"changes the pattern by {worst:.2%} RMS",
                stacklevel=3,
            )
    return patterns


def ensemble_pattern(cfg: "SimulationConfig") -> DiffractionPattern:
    """Full ensemble-averaged detector-plane pattern for a configuration.

    ``ensemble_patterns`` at the one power ``cfg.beam.power``, convergence
    check included.
    """
    return ensemble_patterns(cfg, [cfg.beam.power])[0]


def _ensembles(cfg: "SimulationConfig", powers: Sequence[float]) -> list[DiffractionPattern]:
    v_nodes, v_weights = velocity_quadrature(cfg.velocity, cfg.quadrature.velocity_nodes)
    scales, scale_weights = vertical_phi_scales(cfg.vertical, cfg.quadrature.vertical_nodes)
    common_x = _internal_grid(cfg.geometry, cfg.detector.width, cfg.numerics.internal_step)
    velocities = v_nodes.tolist()
    weights = v_weights.tolist()
    configs = [replace(cfg, beam=replace(cfg.beam, power=power)) for power in powers]
    phis = [[compute_phi(c.species, c.beam, velocity) for velocity in velocities] for c in configs]
    grid_metadata: dict = {}  # wave mode: the grating samples and the FFT length
    patterns: list[DiffractionPattern] = []

    def node_sums(per_node: Iterable[list[tuple]], count: int) -> list[tuple]:
        """Sum, for each of ``count`` powers, the shares of every velocity node.

        ``per_node`` yields, in node order, each node's share of the
        common-grid intensity, of the probability and of the scan coverage
        at each power; a node's shares are added as it arrives.
        """
        intensity = [np.zeros_like(common_x) for _ in range(count)]
        probability = [0.0] * count
        coverage = [0.0] * count
        for shares in per_node:
            for i, (placed, node_probability, in_span) in enumerate(shares):
                intensity[i] += placed
                probability[i] += node_probability
                coverage[i] += in_span
        return list(zip(intensity, probability, coverage))

    def finish(p: int, sums: tuple, n_channels: list[int], dropped: np.ndarray) -> None:
        accumulated, total_probability, coverage = sums
        c = configs[p]
        phi_peak = compute_phi(c.species, c.beam, c.velocity.v_peak)
        metadata = {
            "mode": c.run.mode,
            "species": c.species.name,
            "power_w": c.beam.power,
            "v_peak": c.velocity.v_peak,
            "phi_re": phi_peak.re,
            "phi_im": phi_peak.im,
            **grid_metadata,
            "phi_per_velocity": [[v, phi.re, phi.im] for v, phi in zip(velocities, phis[p])],
            "channels_per_velocity": n_channels,
            "dropped_probability": float(dropped.max()),
            "total_probability": total_probability,
            "scan_coverage": coverage,
        }
        patterns.append(_finalize(c, common_x, accumulated, metadata))

    pool = ThreadPoolExecutor(max_workers=cfg.run.workers) if cfg.run.workers > 1 else None
    run = map if pool is None else pool.map
    try:
        if cfg.run.mode == "orders":
            orders = np.arange(-cfg.numerics.m_max, cfg.numerics.m_max + 1)

            def place_orders(velocity: float, v_weight: float, slot_weights: np.ndarray):
                slot = order_slot_spacing(cfg.species, velocity, cfg.beam, cfg.geometry)
                placed = _envelope_sum(
                    cfg.geometry, common_x, orders * slot, v_weight * slot_weights
                )
                return [(placed, v_weight * float(slot_weights.sum()), v_weight)]

            # one grid per power, sized by that power's strongest phase
            for p, node_phis in enumerate(phis):
                per_node, n_channels, dropped = mixed_order_spectra(
                    node_phis, cfg.numerics.m_max, scales, scale_weights, cfg.numerics.tail_eps
                )
                (sums,) = node_sums(run(place_orders, velocities, weights, per_node), 1)
                # _finalize renormalizes the pattern, so mass in the orders beyond
                # m_max would otherwise vanish from it without a trace
                lost = 1.0 - sums[1]
                if lost > 0.01:
                    warnings.warn(
                        f"orders beyond numerics.m_max = {cfg.numerics.m_max} hold {lost:.2%} "
                        f"of the molecules at {powers[p]} W; raise numerics.m_max",
                        stacklevel=4,
                    )
                finish(p, sums, n_channels, dropped)
        else:
            spp = cfg.numerics.samples_per_period
            # The grid holds 2 spp samples per laser period, so orders |m| >= spp
            # fold back into the pattern; the slowest node at the largest
            # vertical scale carries the strongest grating.
            slowest = float(v_nodes.min())
            for c in configs:
                strongest = compute_phi(c.species, c.beam, slowest).scaled(float(scales.max()))
                bound = tail_order(strongest, 0.01)
                if bound >= spp:
                    warnings.warn(
                        f"the wave grid resolves orders |m| < numerics.samples_per_period = "
                        f"{spp}, but at {c.beam.power} W and {slowest:.1f} m/s the grating "
                        f"state is bounded below 1% only beyond |m| = {bound}; more than 1% "
                        "may alias into the pattern, raise numerics.samples_per_period",
                        stacklevel=4,
                    )
            grid, mask = grating_window(cfg.beam, cfg.geometry, spp)
            src_nodes, src_weights = source_quadrature(cfg.geometry, cfg.quadrature.source_nodes)
            grid_metadata["grating_samples"] = grid.size
            grid_metadata["fft_length"] = next_pow2(grid.size * cfg.numerics.pad_factor)

            def propagate(velocity: float, v_weight: float, rows: list[ParityRows]):
                x_native, intensities, power_in, coverages = _wave_velocity_slice(
                    cfg, velocity, grid, mask, rows, src_nodes, src_weights
                )
                spacing_native = float(x_native[1] - x_native[0])
                return [
                    (
                        v_weight * np.interp(common_x, x_native, intensity, left=0.0, right=0.0),
                        v_weight * float(intensity.sum() * spacing_native) / power_in,
                        v_weight * in_span,
                    )
                    for intensity, in_span in zip(intensities, coverages)
                ]

            # The (power, velocity) states of a group of powers are factorized
            # in one batch before its workers start; each worker task then
            # propagates one velocity node at every power of the group.
            n_nodes = len(velocities)
            per_group = max(1, MAX_BATCH_STATES // n_nodes)
            for first in range(0, len(configs), per_group):
                group = range(first, min(first + per_group, len(configs)))
                rows, dropped = effective_channels(
                    [phi for p in group for phi in phis[p]],
                    spp,
                    scales,
                    scale_weights,
                    cfg.numerics.tail_eps,
                )
                # state i * n_nodes + j is power group[i] at velocity node j
                per_node = [rows[j::n_nodes] for j in range(n_nodes)]
                sums = node_sums(run(propagate, velocities, weights, per_node), len(group))
                for i, p in enumerate(group):
                    states = slice(i * n_nodes, (i + 1) * n_nodes)
                    n_channels = [block.rank for block in rows[states]]
                    finish(p, sums[i], n_channels, dropped[states])
    finally:
        if pool is not None:
            pool.shutdown()
    return patterns


def pattern_metrics(pattern: DiffractionPattern, spacing: float) -> PatternMetrics:
    """Window-integrated efficiencies on the momentum-slot ladder.

    Windows of width ``spacing`` are centred on every multiple of
    ``spacing`` that fits the scan; efficiency is window counts over total
    counts (normalization-independent).  Visibility is (max-min)/(max+min)
    over the central two slots.
    """
    if not spacing > 0.0:
        raise ValueError("spacing must be positive")
    detector_width = float(pattern.metadata.get("detector_width", 0.0))
    if spacing < detector_width:
        raise ValueError(
            f"metric windows ({spacing * 1e6:.2f} um) narrower than the detector "
            f"resolution ({detector_width * 1e6:.2f} um) would overlap"
        )
    positions = pattern.positions
    intensity = pattern.intensity
    total = float(intensity.sum())
    if total <= 0.0:
        raise ValueError("pattern carries no intensity")
    half_extent = float(positions[-1])
    m_limit = int(math.floor((half_extent + 0.5 * pattern.step - 0.5 * spacing) / spacing))
    efficiencies: dict[int, float] = {}
    for m in range(-m_limit, m_limit + 1):
        center = m * spacing
        window = (positions >= center - 0.5 * spacing) & (positions < center + 0.5 * spacing)
        efficiencies[m] = float(intensity[window].sum()) / total
    central = np.abs(positions) <= 2.0 * spacing
    region = intensity[central]
    high, low = float(region.max()), float(region.min())
    visibility = (high - low) / (high + low) if high + low > 0.0 else 0.0
    return PatternMetrics(efficiencies=efficiencies, visibility=visibility, window=spacing)


def peak_positions(
    pattern: DiffractionPattern, spacing: float, min_efficiency: float = 0.02
) -> dict[int, float]:
    """Sub-grid peak centres near each momentum slot that carries weight.

    A slot is reported only when its window holds a genuine local maximum
    (the in-window argmax is interior, not pinned at a window edge): a
    weak order riding on the flank of a stronger neighbour is a shoulder,
    not a peak.  Centres are refined by quadratic interpolation through
    the three samples around the maximum; slots below ``min_efficiency``
    are omitted.
    """
    metrics = pattern_metrics(pattern, spacing)
    positions = pattern.positions
    intensity = pattern.intensity
    step = pattern.step
    peaks: dict[int, float] = {}
    for m, efficiency in metrics.efficiencies.items():
        if efficiency < min_efficiency:
            continue
        center = m * spacing
        window = np.where(
            (positions >= center - 0.5 * spacing) & (positions < center + 0.5 * spacing)
        )[0]
        if window.size < 3:
            continue
        peak_idx = int(window[np.argmax(intensity[window])])
        if peak_idx in (int(window[0]), int(window[-1])):
            continue
        left, mid, right = intensity[peak_idx - 1 : peak_idx + 2]
        denom = left - 2.0 * mid + right
        offset = 0.5 * (left - right) / denom if denom != 0.0 else 0.0
        peaks[m] = float(positions[peak_idx] + np.clip(offset, -1.0, 1.0) * step)
    return peaks


def compare_patterns(a: DiffractionPattern, b: DiffractionPattern) -> tuple[float, float]:
    """Best integer-step alignment shift of b onto a, and residual NRMSE.

    Both patterns are peak-normalized first, so uniform scaling changes
    nothing.  The returned shift is the displacement of ``b`` relative to
    ``a`` (positive when b's features sit at larger x), a whole multiple
    of the common grid step.
    """
    if a.positions.size == 0 or b.positions.size == 0:
        raise ValueError("cannot compare empty patterns")
    if abs(a.step - b.step) > 1e-9 * max(a.step, b.step):
        raise ValueError(
            f"grid steps differ: {a.step * 1e6:.3f} um vs {b.step * 1e6:.3f} um"
        )
    a_peak = float(a.intensity.max())
    b_peak = float(b.intensity.max())
    if a_peak <= 0.0 or b_peak <= 0.0:
        raise ValueError("cannot compare patterns without intensity")
    a_n = a.intensity / a_peak
    b_n = b.intensity / b_peak
    la, lb = a_n.size, b_n.size
    # scores[i] = sum_j a_n[j + shift] * b_n[j] for shift = i - (lb - 1).
    # Shifts within 1e-12 of the best are re-scored term by term, in
    # increasing order, with the tie-break of a scan over every shift: a
    # later shift wins by more than 1e-15, or within 1e-15 at smaller |shift|.
    scores = np.correlate(a_n, b_n, mode="full")
    candidates = np.flatnonzero(scores >= scores.max() - 1e-12) - (lb - 1)
    best_score = -np.inf
    best_shift = 0
    for shift in candidates.tolist():
        a_lo, b_lo = max(0, shift), max(0, -shift)
        length = min(la - a_lo, lb - b_lo)
        score = float(np.dot(a_n[a_lo : a_lo + length], b_n[b_lo : b_lo + length]))
        if score > best_score + 1e-15 or (
            abs(score - best_score) <= 1e-15 and abs(shift) < abs(best_shift)
        ):
            best_score = score
            best_shift = shift
    a_lo, b_lo = max(0, best_shift), max(0, -best_shift)
    length = min(la - a_lo, lb - b_lo)
    residual = a_n[a_lo : a_lo + length] - b_n[b_lo : b_lo + length]
    nrmse = float(np.sqrt(np.mean(residual**2)))
    return -best_shift * a.step, nrmse
