"""Source -> collimator -> grating -> detector: the full beamline average.

Wave mode sums the absorption channels and the vertical positions in
closed form: per velocity, the grating is a mixed state, compressed by
``grating.effective_channels`` into the few field rows it needs.  Once
per run, before the worker threads start, one call factorizes the states
of all velocity nodes, and ``_SlitLayout`` lays out the slit: the fields
are even about its centre, so only the L nonzero samples right of it are
transformed, at the 5-smooth length M >= 2L (``next_smooth``), and each
sample reads the rows at its |c| index with the sign of its c.  The
workers only propagate (``_wave_velocity_slice``): per velocity, one FFT
per row gives the power spectrum of the whole field (a DCT-II by
Makhoul's method), and one inverse transform its autocorrelation.  A
source point only adds a linear phase ramp, which multiplies each lag of
that autocorrelation by a phase; so the incoherent average over the
source slit's midpoint rule is one real kernel on the lags, in closed
form (``_source_kernel``).  This equals the channel-by-channel,
source-by-source Fresnel quadrature (a test oracle, in ``tests/oracles.py``)
up to the probability the rows drop (at most ``tail_eps`` per grating point).
``numerics.pad_factor`` sets only the output bins of the output
transform, one row per power.
The grid resolves the orders |m| < ``numerics.samples_per_period``, and a
run warns when the grating state may put more than 1% beyond them.
Orders mode reads the order intensities straight off the same closed-form
state (``orders.mixed_order_spectra``: the diagonal of the momentum-basis
density matrix for all velocity nodes on one grid, sized from its
aliasing bound at the slowest node; nothing factorized, no photon cap; a
cosine sum over the values of |cos kx|, no FFT) and places each order's
weight on the geometric shadow envelope instead of propagating; it is
faster and serves as the cross-check of the wave pipeline's
factorization and propagation.  The order weights are even in m and the
detector grid is mirror-symmetric, so one call per power places the
orders m >= 0 of every velocity node and the mirror image adds the rest
(``_place_orders``).  That call is one vectorized pass: one
``geometric_envelope`` evaluation over the spans of every (node, order)
shadow that meets the grid, added onto one row of the grid, exactly up
to about one rounding per point.  The in-span share of each order is the
closed-form mass of its shadow (``_envelope_mass``).  Orders mode runs
on the calling thread; worker threads serve wave mode only.
The vertical midpoint rule is mirror-symmetric and the grating scale
depends on y^2 only, so both modes sum the states over its
ceil(n/2) distinct scales, each mirror pair with its summed weight
(``distributions.fold_vertical_rule``); the run summary keeps the full
rule.

A power scan (``ensemble_patterns``) changes only the grating strength,
so its powers share the velocity, vertical and source quadratures, the
grating window, the detector grid and, in wave mode, one pool of worker
threads.  Wave mode takes the powers in groups of as many as hold at
most ``MAX_BATCH_STATES`` (power, velocity) states and
``MAX_OUTPUT_SAMPLES`` output samples per node, and at least one.  One
batch factorizes a group's states; one worker task per velocity node
builds its chirp and source kernel once, transforms each power's rows,
then all the group's lags and outputs at once.  The row and output
transforms write over their inputs (``out=``, NumPy >= 2.0), which saved
9% of a six-power C70 scan's CPU time.  Each power's pattern is
bit-identical to a run at that power alone.  Orders mode sizes its grid
by each power's strongest phase, so it builds one kernel per power.

The worker pool (``run.workers``) pays off only when the velocity nodes
carry several powers each; README's Power scans section has the timings.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from . import backend
from .distributions import (
    MAX_DETECTOR_POINTS,
    _internal_grid,
    _scan_grid,
    aperture_mask,
    check_nodes,
    check_size,
    detector_kernel,
    fold_vertical_rule,
    velocity_quadrature,
    vertical_phi_scales,
)
from .grating import GratingBeam, GridSpec, ParityRows, compute_phi, effective_channels
from .orders import mixed_order_spectra, tail_order
from .species import HBAR, MoleculeSpecies, check_positive, de_broglie_wavelength

if TYPE_CHECKING:
    from collections.abc import Sequence

    from .config import SimulationConfig

# Wave mode takes the powers of a scan in groups holding at most this many
# (power, velocity) states, so that the temporaries of one factorization
# stay bounded however many powers a scan has,
MAX_BATCH_STATES = 64
# and at most this many output samples (powers x FFT length) per velocity
# node, so that a scan with few velocity nodes holds a bounded output.
MAX_OUTPUT_SAMPLES = 65536
# The longest output transform (``n_fft``, 32 MB per complex row), 256 times the default's.
MAX_FFT_LENGTH = 1 << 21


@dataclass(frozen=True)
class BeamlineGeometry:
    """Slit widths and flight distances of the two-slit beamline.

    Each length is positive and finite, and the widths of the slits' shadow
    (``_trapezoid``) multiply to a normal float, >= 2.2e-308 m^2, which
    ``geometric_envelope`` divides by.
    """

    slit1: float = 7e-6
    slit2: float = 5e-6
    L12: float = 1.13
    L2D: float = 1.2
    detector_span: float = 300e-6

    def __post_init__(self) -> None:
        for name in ("slit1", "slit2", "L12", "L2D", "detector_span"):
            check_positive(name, getattr(self, name))
        wide, narrow = _trapezoid(self)
        if not wide * narrow >= np.finfo(float).tiny:
            raise ValueError(
                f"the slits' shadow is too narrow: its widths, {wide:.3g} and {narrow:.3g} m, "
                f"multiply to less than {np.finfo(float).tiny:.3g} m^2"
            )


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
    check_positive("velocity", velocity)
    return HBAR * beam.k_laser / (species.mass_kg * velocity) * geom.L2D


def _trapezoid(geom: BeamlineGeometry) -> tuple[float, float]:
    """Widths (wide, narrow) of the two top-hats whose convolution is the shadow."""
    r = geom.L2D / geom.L12
    wide = geom.slit2 * (1.0 + r)
    narrow = geom.slit1 * r
    return (narrow, wide) if narrow > wide else (wide, narrow)


def geometric_envelope(geom: BeamlineGeometry, x: np.ndarray) -> np.ndarray:
    """Unit-area ray-optics shadow of the two slits at the detector plane.

    A uniform incoherent source across slit1 projected through slit2 gives
    the convolution of two top-hats: widths slit2*(1+r) and slit1*r with
    r = L2D/L12 — a trapezoid.  Evaluated pointwise at ``x`` as the capped
    ramp clip((base - |x|) / (wide narrow), 0, 1/wide), base = (wide +
    narrow)/2: it reaches the cap 1/wide at |x| = (wide - narrow)/2.
    """
    wide, narrow = _trapezoid(geom)
    envelope = np.array(x, dtype=np.float64)  # the one buffer, also for a scalar x
    np.abs(envelope, out=envelope)
    np.subtract(0.5 * (wide + narrow), envelope, out=envelope)
    envelope /= wide * narrow
    return np.clip(envelope, 0.0, 1.0 / wide, out=envelope)


def _envelope_mass(geom: BeamlineGeometry, y: np.ndarray) -> np.ndarray:
    """The integral of ``geometric_envelope`` from -infinity to ``y``.

    The trapezoid is four ramps, so the mass is
    [R(y + base) - R(y + flat) - R(y - flat) + R(y - base)] / (2 wide narrow)
    with R(t) = max(t, 0)^2.  It is evaluated at t = -|y| in the equivalent
    form R(t + base)/(2 wide narrow) on the outer ramp and 1/2 + t/wide on
    the flat top, and mirrored, mass(y) = 1 - mass(-y): so it is exactly 0,
    1/2 and 1 at -base, 0 and base.
    """
    y = np.asarray(y, dtype=np.float64)
    wide, narrow = _trapezoid(geom)
    t = -np.abs(y)
    flat = 0.5 * (wide - narrow)
    outer = np.maximum(t + 0.5 * (wide + narrow), 0.0) ** 2 / (2.0 * wide * narrow)
    lower = np.where(t <= -flat, outer, 0.5 + t / wide)
    return np.where(y > 0.0, 1.0 - lower, lower)


def _shadow_span(geom: BeamlineGeometry, step: float, points: int) -> int:
    """The points of a shadow on a grid of ``step``, plus one on either side.

    ``_place_orders`` pads a grid of ``points`` by this span on either
    side; ValueError if the padded grid would exceed ``MAX_DETECTOR_POINTS``
    (checked before any width is rounded, so an infinite one is refused).
    """
    wide, narrow = _trapezoid(geom)
    span = np.ceil((wide + narrow) / float(step)) + 3.0
    what = "the padded detector grid of orders mode"
    check_size(what, points + 2.0 * span, MAX_DETECTOR_POINTS)
    return int(span)


def _place_orders(
    geom: BeamlineGeometry, x: np.ndarray, slots: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """The shadows of the orders m = -m_max .. m_max of every node on the grid x.

    Node j puts ``weights[j, m + m_max]`` on ``geometric_envelope`` centred
    at m * ``slots[j]``.  The weights must be nonnegative and even in m bit
    for bit, as ``mixed_order_spectra`` returns them, and x mirror-symmetric,
    as ``_internal_grid`` builds it, so only m = 0 .. m_max are placed, the
    centre at half weight, and the mirror image adds the rest.  Each shadow
    that meets the grid is evaluated on the points it covers, plus one on
    either side, of x padded by its width, in one ``geometric_envelope``
    call (a warning when one's sampled mass is off from 1 by more than 1%).
    Two ``bincount`` passes add them up: their multiples of a power of two,
    exactly, then the remainders, so a point is off by about one rounding
    however many terms it sums.
    """
    m_max = weights.shape[1] // 2
    half_weights = weights[:, m_max:].copy()
    half_weights[:, 0] *= 0.5
    centers = np.multiply.outer(slots, np.arange(m_max + 1))
    wide, narrow = _trapezoid(geom)
    half = 0.5 * (wide + narrow)  # ``geometric_envelope`` is zero beyond it
    step = x[1] - x[0]
    span = np.arange(_shadow_span(geom, step, x.size))
    margin = np.arange(1, span.size) * step
    # the middle of the padded grid is x itself
    padded = np.concatenate([x[0] - margin[::-1], x, x[-1] + margin])
    first = np.searchsorted(padded, centers - half) - 1
    # the shadows whose points [first, first + span.size) meet x
    meets = (first >= 0) & (first < margin.size + x.size)
    index = first[meets][:, None] + span
    values = geometric_envelope(geom, padded[index] - centers[meets][:, None])
    off = float(np.max(np.abs(values.sum(axis=1) * step - 1.0), initial=0.0))
    if off > 0.01:  # each shadow lies whole on the padded grid: its sampled mass should be 1
        coarse = f"numerics.internal_step_um = {step * 1e6:.4g} is too coarse for the slits' shadow"
        warnings.warn(f"{coarse}: its sampled mass is off from 1 by {off:.3g}", stacklevel=5)
    values *= half_weights[meets][:, None]
    # no partial sum reaches the total, below 2^52 q: multiples of q add exactly
    q = math.ldexp(1.0, math.frexp(float(values.sum()))[1] - 52)
    coarse = values * (1.0 / q)
    np.rint(coarse, out=coarse)
    coarse *= q
    values -= coarse
    total = np.bincount(index.ravel(), weights=coarse.ravel(), minlength=padded.size)
    total += np.bincount(index.ravel(), weights=values.ravel(), minlength=padded.size)
    placed = total[margin.size : margin.size + x.size]
    placed += placed[::-1]
    return placed


def window_grid(beam: GratingBeam, geom: BeamlineGeometry, samples_per_period: int) -> GridSpec:
    """Sampling grid over the illuminated part of the grating plane.

    The window covers slit2 plus a 4-wavelength margin, rounded up to an
    even number of grating periods (grid convention).  ValueError unless
    the slit2 aperture covers the first sample right of the centre, which
    it misses only where the rounding of the positions exceeds its half
    width (wavelengths from 7e9 m at the default slit2), and unless the
    periods can be counted: a wavelength whose half underflows to 0, or
    whose window holds more periods than a float can, is refused.
    """
    pairs = math.inf  # half the periods
    if beam.period > 0.0:
        pairs = (geom.slit2 + 4.0 * beam.wavelength) / beam.period / 2
    if not math.isfinite(pairs):
        raise ValueError(
            "the periods of the grating window cannot be counted at a wavelength of "
            f"{beam.wavelength:.4g} m"
        )
    periods = max(2, 2 * math.ceil(pairs))
    grid = GridSpec(periods, samples_per_period, beam.wavelength)
    # the first sample right of the centre, as ``GridSpec.positions`` computes it
    centre = (np.array([grid.size // 2]) + 0.5) * grid.spacing - 0.5 * grid.window
    if not aperture_mask(centre, grid.spacing, geom.slit2).any():
        raise ValueError("the slit2 aperture misses the centre of the grating window")
    return grid


def next_pow2(n: int) -> int:
    return 1 << max(0, (n - 1).bit_length())


def next_smooth(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n: a length at which an FFT is fast."""
    best = next_pow2(n)
    fives = 1
    while fives < best:
        odd = fives  # 3^b 5^c
        while odd < best:
            best = min(best, odd * next_pow2(-(-n // odd)))
            odd *= 3
        fives *= 5
    return best


def _fft_length(grid: GridSpec, pad_factor: int) -> int:
    """The output transform's length; ValueError if above ``MAX_FFT_LENGTH``."""
    n_fft = next_pow2(grid.size * pad_factor)
    check_size("the output transform", n_fft, MAX_FFT_LENGTH)
    return n_fft


def _source_kernel(phase: float, n: int, n_lags: int) -> np.ndarray:
    """The source kernel c[d] of ``_wave_velocity_slice`` at the lags d < ``n_lags``.

    Source point s multiplies lag d by exp(-i phase d s / slit1).  The
    midpoint rule of n cells across slit1 averages that to the Dirichlet
    kernel c[d] = sin(n t)/(n sin t), t = phase d/(2n).  At t = m pi + u,
    |u| <= pi/2, it is (-1)^(m (n - 1)) sin(n u)/(n sin u): both sines share
    the rounding of u near their zeros, and u = 0 (d = 0) takes the limit.
    One node sits at the slit centre and adds no ramp, so its kernel is 1
    at every lag, whatever the phase.  ValueError, before any array is
    built, when t at the last lag is not finite or |m| (n - 1) there
    reaches 2^53, past which the sign's parity is not exact.
    """
    if n == 1:
        return np.ones(n_lags)
    t_last = phase / (2 * n) * (n_lags - 1)
    if not (math.isfinite(t_last) and abs(np.round(t_last / np.pi)) * (n - 1) < 2.0**53):
        raise ValueError(f"the source kernel cannot be resolved: its half angle is {t_last:.3g} rad")
    t = phase / (2 * n) * np.arange(n_lags)
    turns = np.round(t / np.pi)
    u = t - np.pi * turns
    ratio = np.divide(np.sin(n * u), n * np.sin(u), out=np.ones(n_lags), where=u != 0.0)
    return (1.0 - 2.0 * (turns * (n - 1) % 2)) * ratio


class _SlitLayout:
    """The slit as ``_wave_velocity_slice`` transforms it, the same at every velocity.

    Every field is even about the window centre, f(N - 1 - n) = f(n): the
    grid is centred on an antinode, the slit is centred, the chirp depends
    on x^2 and the rows depend on x only through c = cos(k x).  So the
    slit2 aperture is built on the samples right of the centre alone, and
    only the half field g(m) = f(N/2 + m), m < L, is transformed, where L
    is the index of its last nonzero sample plus one, at the 5-smooth
    length M = ``m_len`` >= 2L, with lags |d| < ``n_lags`` = 2L; the
    source rule lays out nothing.  An output transform or source rule
    above its bound raises ``ValueError``.
    """

    def __init__(self, cfg: "SimulationConfig", grid: GridSpec):
        self.n_sources = cfg.quadrature.source_nodes
        check_nodes("the source rule", self.n_sources)
        spp, centre, self.spacing = grid.samples_per_period, grid.size // 2, grid.spacing
        # the samples right of the centre; ``window_grid`` refuses a window
        # whose first one is dark
        x = grid.positions()[centre:]
        mask = aperture_mask(x, grid.spacing, cfg.geometry.slit2)
        support = int(np.flatnonzero(mask)[-1]) + 1
        self.n_lags = 2 * support
        self.m_len = m_len = 2 * next_smooth(support)
        self.n_fft = _fft_length(grid, cfg.numerics.pad_factor)
        # Every photon channel summed, sum_n |t_n|^2 = 1, so the input norm is
        # that of the slit alone, twice its half's; what the effective rows
        # drop shows as a loss.
        self.power_in = 2.0 * grid.spacing * float(np.sum(mask**2))
        bins = np.arange(m_len // 2 + 1)
        self.mirror = -bins % m_len  # M - k, with V(M) = V(0)
        self.twist = np.exp(-1j * np.pi * bins / m_len)  # w^2
        # Makhoul's order, v = [g(0), g(2), ..., 0, ..., g(3), g(1)], in two
        # runs: the even samples ascending, then the odd ones descending, each
        # held as its slice of v and, at its samples, the |c| index into
        # ``ParityRows.values``, the mask over the mask times the sign of c
        # (row p serves rows of parity p), and x^2.  Sample n of the window
        # takes column i = n mod 2 spp of the laser period, as if the period
        # were tiled across it from n = 0; the centre then falls on column 0
        # or spp, and a shift by spp negates c, which negates odd rows only
        # and leaves every intensity unchanged.  Column i has k x = pi (i +
        # 1/2)/spp - pi: |c| is at min(i mod spp, spp - 1 - i mod spp), and
        # c < 0 where |k x| > pi/2.
        self.runs = []
        even, odd = centre + np.arange(0, support, 2), centre + np.arange(1, support, 2)[::-1]
        for into, n in ((slice(0, even.size), even), (slice(m_len - odd.size, None), odd)):
            index = np.minimum(n % spp, spp - 1 - n % spp)
            sign = np.where(np.abs(n % (2 * spp) + 0.5 - spp) > 0.5 * spp, -1.0, 1.0)
            m = n - centre  # into the half arrays
            self.runs.append((into, index, np.stack([mask[m], sign * mask[m]]), x[m] ** 2))


def _wave_velocity_slice(
    cfg: "SimulationConfig", velocity: float, layout: _SlitLayout, rows: Sequence[ParityRows]
) -> tuple[np.ndarray, np.ndarray, list[float], list[float]]:
    """One velocity node of the wave-mode ensemble, at one or more laser powers.

    ``rows`` holds the node's effective grating rows at each power
    (``grating.effective_channels``), read at the |c| index of each slit
    sample of ``layout``.  The photon channels and vertical scales enter
    only through their summed grating state, which repeats with the laser
    period (the window holds a whole number of them); the rows reproduce
    it on every period.  The chirp and the source kernel depend on the
    velocity alone, so every power shares them.  Returns (native
    positions, then at each power the native intensity, its sum and its
    in-span fraction).  Pure function of its arguments; safe to run on a
    worker thread.

    The half field g of ``_SlitLayout`` has, as its even extension, the
    power spectrum S(k) = |w V(k) + w^* V(M - k)|^2 on 2M bins,
    w = exp(-i pi k / 2M), from one FFT V of length M of g in Makhoul's
    order (IEEE Trans. ASSP 28, 27 (1980)), and the inverse transform of S
    is the field autocorrelation A(d), real and even, over all its lags
    |d| < 2L.

    Each power's rows are transformed on their own, since their count
    varies with the power; the spectra S of all powers are then stacked,
    and the lag transform, the source kernel, the fold and the output
    transform run once over them all, one row per power.  ``_ensembles``
    passes one group of powers: as many as hold at most ``MAX_BATCH_STATES``
    states and ``MAX_OUTPUT_SAMPLES`` output samples, and at least one.  A
    transform treats its rows independently, so each power's intensity is
    bit for bit that of a group of one.

    The row transform overwrites the gathered rows with V, and the output
    transform the folded lags with its spectrum, with the same bits as a
    transform into a new array: each new array was a large temporary that
    the allocator handed back to the system and the next node faulted in
    again.
    """
    geom = cfg.geometry
    wavelength = de_broglie_wavelength(cfg.species, velocity)
    k = 2.0 * math.pi / wavelength
    spacing, n_fft, m_len, n_lags = layout.spacing, layout.n_fft, layout.m_len, layout.n_lags
    half, mirror, twist = m_len // 2, layout.mirror, layout.twist

    # Quadratic phases of the incoming cylindrical wave (L12) and of the
    # outgoing Fresnel kernel (L2D) combine into one chirp; each source
    # point then contributes only a linear phase ramp.  Constant phases drop
    # out of |psi|^2.  Each run's chirp base, and its copy with the sign of c
    # for the odd rows: a row of parity p takes bases[p].
    chirp = 0.5 * k * (1.0 / geom.L12 + 1.0 / geom.L2D)
    runs = [(into, at, masks * np.exp(1j * chirp * x2)) for into, at, masks, x2 in layout.runs]
    # |prefactor|^2 of the Fresnel integral; output phases are unimodular.
    out_scale = spacing**2 / (wavelength * geom.L2D)

    # Source point s adds the ramp exp(-i (k/L12) s x), which multiplies lag
    # d of the field autocorrelation by exp(-i (k/L12) s spacing d); their
    # average is the real, even kernel c[d] of ``_source_kernel``.  So the
    # averaged lags B(d) = A(d) c[d] are real and even, fold onto the output
    # grid at d mod n_fft, and one n_fft transform gives the output:
    # sum_d B(d) exp(-2 pi i f d / n_fft) at any n_fft.
    kernel = _source_kernel((k / geom.L12) * spacing * geom.slit1, layout.n_sources, n_lags)
    out_spacing = wavelength * geom.L2D / (n_fft * spacing)
    x_native = (np.arange(n_fft) - n_fft // 2) * out_spacing
    in_span = np.abs(x_native) <= 0.5 * geom.detector_span

    # S on 2M bins, one row per power
    spectra = np.empty((len(rows), m_len + 1))
    for spectrum_2m, block in zip(spectra, rows):
        v = np.zeros((block.rank, m_len), dtype=np.complex128)
        for into, at, bases in runs:
            np.multiply(block.values[:, at], bases[block.odd.astype(np.intp)], out=v[:, into])
        np.fft.fft(v, axis=-1, out=v)  # V, in place of the rows it transforms
        power = np.zeros(m_len)  # P(k) = sum_r |V_r(k)|^2
        backend.accumulate_weighted_abs2(v, 1.0, power)
        # Q(k) = sum_r V_r(k) V_r(M - k)^*, conjugated in place to hold one
        # copy of the mirrored spectrum less
        mirrored = v[:, mirror]
        cross = np.einsum("rk,rk->k", v[:, : half + 1], np.conj(mirrored, out=mirrored))
        del mirrored, v  # before the next power's rows are gathered
        paired = power[: half + 1] + power[mirror]
        twisted = 2.0 * (twist * cross).real
        spectrum_2m[: half + 1] = paired + twisted
        spectrum_2m[half:] = (paired - twisted)[::-1]  # S(M - k)
        spectrum_2m[m_len] = 0.0

    # the output side, one row per power
    lags = np.fft.irfft(spectra, 2 * m_len, axis=-1)[:, :n_lags] * kernel
    # lag -d lands on bin n_fft - d, which overlaps the positive lags only
    # when n_fft < 4L - 1
    # complex though B is real: np.fft.fft took 3x as long on 6 real rows
    folded = np.zeros((len(rows), n_fft), dtype=np.complex128)
    folded[:, :n_lags] = lags
    folded[:, n_fft - n_lags + 1 :] += lags[:, :0:-1]
    del lags
    np.fft.fft(folded, axis=-1, out=folded)
    # fftshift, written straight into the one real output array, which holds
    # one (powers, n_fft) array less than np.fft.fftshift
    shift = n_fft // 2
    intensities = np.empty(folded.shape)
    np.multiply(folded.real[:, n_fft - shift :], out_scale, out=intensities[:, :shift])
    np.multiply(folded.real[:, : n_fft - shift], out_scale, out=intensities[:, shift:])
    del folded
    sums, coverages = [], []
    for intensity in intensities:
        intensity_sum = intensity.sum()
        total = float(intensity_sum * out_spacing)
        sums.append(intensity_sum)
        in_span_sum = float(intensity[in_span].sum() * out_spacing)
        coverages.append(in_span_sum / total if total > 0 else 0.0)
    return x_native, intensities, sums, coverages


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
    bit: one scan shares the quadratures and the grating window and, in
    wave mode, the worker threads, one factorization of every (power,
    velocity) state and each velocity's chirp and source kernel.
    Deterministic: quadrature results are reduced in a fixed order no
    matter how many workers compute them, so identical configs give
    bit-identical patterns.
    When ``cfg.run.convergence_check`` is set the quadrature axes are
    doubled one at a time and the RMS pattern change is recorded in each
    pattern's ``metadata["convergence"]`` (warning above 1%).
    """
    patterns = _ensembles(cfg, powers)
    if not cfg.run.convergence_check:
        return patterns
    quad = cfg.quadrature
    changes: list[dict[str, float]] = [{} for _ in patterns]
    for axis in ("velocity_nodes", "vertical_nodes", "source_nodes"):
        doubled = replace(
            cfg,
            quadrature=replace(quad, **{axis: 2 * getattr(quad, axis)}),
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
    # the grating states need only the distinct scales; the summary keeps the full rule
    scales, scale_weights = fold_vertical_rule(
        *vertical_phi_scales(cfg.vertical, cfg.quadrature.vertical_nodes)
    )
    common_x = _internal_grid(cfg.geometry, cfg.detector.width, cfg.numerics.internal_step)
    velocities = v_nodes.tolist()
    weights = v_weights.tolist()
    configs = [replace(cfg, beam=replace(cfg.beam, power=power)) for power in powers]
    phis = [[compute_phi(c.species, c.beam, velocity) for velocity in velocities] for c in configs]
    patterns: list[DiffractionPattern] = []

    def finish(p: int, sums: tuple, n_channels: list[int] | None, dropped: float) -> None:
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
            "phi_per_velocity": [[v, phi.re, phi.im] for v, phi in zip(velocities, phis[p])],
            "channels_per_velocity": n_channels,
            "dropped_probability": dropped,
            "total_probability": total_probability,
            "scan_coverage": coverage,
        }
        patterns.append(_finalize(c, common_x, accumulated, metadata))

    if cfg.run.mode == "orders":
        m_max = cfg.numerics.m_max
        slots = np.array(
            [order_slot_spacing(cfg.species, v, cfg.beam, cfg.geometry) for v in velocities]
        )
        # the padded grid of _place_orders is sized before any shadow's mass
        _shadow_span(cfg.geometry, common_x[1] - common_x[0], common_x.size)
        # the share of each order's shadow inside the detector span
        centers = np.multiply.outer(slots, np.arange(-m_max, m_max + 1))
        half_span = 0.5 * cfg.geometry.detector_span
        in_span = _envelope_mass(cfg.geometry, half_span - centers)
        in_span -= _envelope_mass(cfg.geometry, -half_span - centers)
        # one grid per power, sized by that power's strongest phase
        for p, node_phis in enumerate(phis):
            intensities = mixed_order_spectra(
                node_phis, m_max, scales, scale_weights, cfg.numerics.tail_eps
            )
            placed = _place_orders(cfg.geometry, common_x, slots, v_weights[:, None] * intensities)
            node_totals = intensities.sum(axis=1)
            shares = np.divide(
                (intensities * in_span).sum(axis=1),
                node_totals,
                out=np.zeros_like(node_totals),
                where=node_totals > 0.0,
            )
            probability = sum(w * t for w, t in zip(weights, node_totals.tolist()))
            coverage = sum(w * share for w, share in zip(weights, shares.tolist()))
            # _finalize renormalizes the pattern, so mass in the orders beyond
            # m_max would otherwise vanish from it without a trace
            lost = 1.0 - probability
            if lost > 0.01:
                warnings.warn(
                    f"orders beyond numerics.m_max = {m_max} hold {lost:.2%} "
                    f"of the molecules at {powers[p]} W; raise numerics.m_max",
                    stacklevel=4,
                )
            # nothing is factorized, so there are no channels and no dropped mass
            finish(p, (placed, probability, coverage), None, 0.0)
        return patterns

    spp = cfg.numerics.samples_per_period
    # The grid holds 2 spp samples per laser period, so orders |m| >= spp
    # fold back into the pattern; the slowest node at the largest
    # vertical scale carries the strongest grating.
    slowest = int(np.argmin(v_nodes))
    for c, node_phis in zip(configs, phis):
        bound = tail_order(node_phis[slowest].scaled(float(scales.max())), 0.01)
        if bound >= spp:
            warnings.warn(
                f"the wave grid resolves orders |m| < numerics.samples_per_period = "
                f"{spp}, but at {c.beam.power} W and {velocities[slowest]:.1f} m/s the grating "
                f"state is bounded below 1% only beyond |m| = {bound}; more than 1% "
                "may alias into the pattern, raise numerics.samples_per_period",
                stacklevel=4,
            )
    grid = window_grid(cfg.beam, cfg.geometry, spp)
    layout = _SlitLayout(cfg, grid)

    def propagate(velocity: float, v_weight: float, rows: list[ParityRows]):
        x_native, intensities, sums, coverages = _wave_velocity_slice(cfg, velocity, layout, rows)
        spacing_native = float(x_native[1] - x_native[0])
        return [
            (
                v_weight * np.interp(common_x, x_native, intensity, left=0.0, right=0.0),
                v_weight * float(intensity_sum * spacing_native) / layout.power_in,
                v_weight * in_span,
            )
            for intensity, intensity_sum, in_span in zip(intensities, sums, coverages)
        ]

    # The (power, velocity) states of a group of powers are factorized in one
    # batch before its workers start; each worker task then propagates one
    # velocity node at every power of the group, and the nodes' shares are
    # added in node order as they arrive.
    n_nodes = len(velocities)
    per_group = max(1, min(MAX_BATCH_STATES // n_nodes, MAX_OUTPUT_SAMPLES // layout.n_fft))
    pool = ThreadPoolExecutor(max_workers=cfg.run.workers) if cfg.run.workers > 1 else None
    run = map if pool is None else pool.map
    try:
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
            # each power's (intensity, probability, coverage), from zeros
            sums = [(np.zeros_like(common_x), 0.0, 0.0)] * len(group)
            for shares in run(propagate, velocities, weights, per_node):
                sums = [tuple(a + b for a, b in zip(*pair)) for pair in zip(sums, shares)]
            for i, p in enumerate(group):
                states = slice(i * n_nodes, (i + 1) * n_nodes)
                n_channels = [block.rank for block in rows[states]]
                finish(p, sums[i], n_channels, float(dropped[states].max()))
    finally:
        if pool is not None:
            pool.shutdown()
    return patterns


def pattern_metrics(pattern: DiffractionPattern, spacing: float) -> PatternMetrics:
    """Window-integrated efficiencies on the momentum-slot ladder.

    Windows of width ``spacing`` are centred on every multiple of
    ``spacing`` that fits the ascending scan; efficiency is window counts
    over total counts (normalization-independent).  Visibility is
    (max-min)/(max+min) over the central two slots.
    """
    check_positive("spacing", spacing)
    detector_width = float(pattern.metadata.get("detector_width", 0.0))
    if spacing < detector_width:
        raise ValueError(
            f"metric windows ({spacing * 1e6:.2f} um) narrower than the detector "
            f"resolution ({detector_width * 1e6:.2f} um) would overlap"
        )
    positions = pattern.positions
    if not np.all(positions[1:] > positions[:-1]):
        raise ValueError("pattern positions must be strictly ascending")
    intensity = pattern.intensity
    total = float(intensity.sum())
    if total <= 0.0:
        raise ValueError("pattern carries no intensity")
    half_extent = float(positions[-1])
    m_limit = int(math.floor((half_extent + 0.5 * pattern.step - 0.5 * spacing) / spacing))
    # window m holds the points m spacing - spacing/2 <= x < m spacing + spacing/2,
    # one slice of the ascending scan
    orders = np.arange(-m_limit, m_limit + 1)
    centers = orders * spacing
    starts = np.searchsorted(positions, centers - 0.5 * spacing).tolist()
    stops = np.searchsorted(positions, centers + 0.5 * spacing).tolist()
    efficiencies = {
        m: float(intensity[start:stop].sum()) / total
        for m, start, stop in zip(orders.tolist(), starts, stops)
    }
    central = np.abs(positions) <= 2.0 * spacing
    region = intensity[central]
    high, low = float(region.max()), float(region.min())
    visibility = (high - low) / (high + low) if high + low > 0.0 else 0.0
    return PatternMetrics(efficiencies=efficiencies, visibility=visibility, window=spacing)


def compare_patterns(a: DiffractionPattern, b: DiffractionPattern) -> tuple[float, float]:
    """Best whole-step alignment shift of b onto a, and residual NRMSE.

    Both patterns are peak-normalized first, so uniform scaling changes
    nothing.  The grids must share their step, and their first positions
    must differ by a whole number of steps.  The returned shift is the
    displacement of ``b``'s features relative to ``a``'s in positions
    (positive when b's sit at larger x), a whole multiple of the step.
    """
    if a.positions.size == 0 or b.positions.size == 0:
        raise ValueError("cannot compare empty patterns")
    step = a.step
    if abs(step - b.step) > 1e-9 * max(step, b.step):
        raise ValueError(f"grid steps differ: {step * 1e6:.3f} um vs {b.step * 1e6:.3f} um")
    origin = float(b.positions[0] - a.positions[0]) / step  # in steps
    if abs(origin - round(origin)) > 1e-9:
        raise ValueError(f"the grids are offset by {origin % 1.0:.3f} of a step")
    origin = round(origin)
    a_peak, b_peak = float(a.intensity.max()), float(b.intensity.max())
    if a_peak <= 0.0 or b_peak <= 0.0:
        raise ValueError("cannot compare patterns without intensity")
    a_n, b_n = a.intensity / a_peak, b.intensity / b_peak
    la, lb = a_n.size, b_n.size
    # scores[i] = sum_j a_n[j + shift] * b_n[j] for shift = i - (lb - 1): b's
    # point j meets a's point j + shift, a displacement of origin - shift
    # steps.  Shifts within 1e-12 of the best are re-scored term by term, in
    # increasing order, with the tie-break of a scan over every shift: a
    # later shift wins by more than 1e-15, or within 1e-15 at a smaller
    # displacement.
    scores = np.correlate(a_n, b_n, mode="full")
    candidates = np.flatnonzero(scores >= scores.max() - 1e-12) - (lb - 1)
    best_score, best_shift, best_overlap = -np.inf, 0, ()
    for shift in candidates.tolist():
        a_lo, b_lo = max(0, shift), max(0, -shift)
        length = min(la - a_lo, lb - b_lo)
        overlap = a_n[a_lo : a_lo + length], b_n[b_lo : b_lo + length]
        score = float(np.dot(*overlap))
        if score > best_score + 1e-15 or (
            abs(score - best_score) <= 1e-15 and abs(origin - shift) < abs(origin - best_shift)
        ):
            best_score, best_shift, best_overlap = score, shift, overlap
    a_part, b_part = best_overlap
    return (origin - best_shift) * step, float(np.sqrt(np.mean((a_part - b_part) ** 2)))
