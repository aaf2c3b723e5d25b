"""The standing-light-wave grating: phase imprint and absorption channels.

A retro-reflected laser beam forms a standing wave with intensity period
half the laser wavelength.  A polarizable molecule crossing it picks up a
position-dependent dipole phase; the imaginary part of the polarizability
makes it absorb photons at a position-dependent Poisson rate.  Molecules
that absorbed exactly ``n`` photons form an independent subensemble with
its own transmission function; these are the "channels" below.

The grating is treated as thin (Raman-Nath regime): it acts purely as a
multiplicative transmission function on the incoming matter wave.  The
``raman_nath_diagnostic`` operation estimates how well that assumption
holds for a given configuration.

The run path never samples the channels one by one: wave mode propagates
the rows into which ``effective_channels`` factorizes their closed-form
sum, and orders mode reads the order intensities off that closed form
(``orders.mixed_order_spectra``).  The sampled channel set and the dense
closed-form state are test oracles, in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import backend
from .distributions import check_size
from .species import C_LIGHT, EPS0, HBAR, MoleculeSpecies

# The per-photon-number outputs (``orders.incoherent_order_intensities``,
# the orders table, the run summary) keep every photon number up to the
# ``truncation_order`` of the requested tail.  Wave and orders mode sum
# every channel in closed form (``effective_channels``).
DEFAULT_TAIL_EPS = 1e-10
# The most samples of a grating window (``GridSpec.size``): 585 times the
# 1792 of the default wave run (28 periods of 64 samples).
MAX_WINDOW_SAMPLES = 1 << 20


@dataclass(frozen=True)
class GratingBeam:
    """Standing-wave laser parameters.

    Parameters
    ----------
    wavelength : float
        Laser wavelength in metres.  The intensity period is half this.
    power : float
        Power of the running wave in watts, finite and >= 0.
    waist_y : float
        1/e^2 intensity radius along the (vertical) molecular beam height, m.
    waist_z : float
        1/e^2 intensity radius along the flight direction, m.  Sets the
        transit time used by the thin-grating diagnostic.
    """

    wavelength: float = 514.5e-9
    power: float = 9.5
    waist_y: float = 1.3e-3
    waist_z: float = 50e-6

    def __post_init__(self) -> None:
        if not math.isfinite(self.power):
            raise ValueError("power must be finite")
        if self.power < 0.0:
            raise ValueError("power must be >= 0")
        for name in ("wavelength", "waist_y", "waist_z"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    @property
    def k_laser(self) -> float:
        """Wavenumber 2*pi/lambda in 1/m."""
        return 2.0 * math.pi / self.wavelength

    @property
    def period(self) -> float:
        """Grating (intensity) period lambda/2 in metres."""
        return 0.5 * self.wavelength


@dataclass(frozen=True)
class ComplexPhase:
    """The complex phase parameter Phi of the grating.

    ``re`` is the peak dipole phase; ``im`` drives absorption (the mean
    photon number at an antinode is ``4*im``, the spatial average ``2*im``).
    """

    re: float
    im: float

    def __post_init__(self) -> None:
        if self.im < 0.0:
            raise ValueError("Im(Phi) must be >= 0 for a passive grating")

    @property
    def as_complex(self) -> complex:
        return complex(self.re, self.im)

    def scaled(self, factor: float) -> "ComplexPhase":
        """Phi for a reduced local intensity (e.g. off the beam axis)."""
        return ComplexPhase(self.re * factor, self.im * factor)


@dataclass(frozen=True)
class GridSpec:
    """Midpoint sampling grid over an integer number of grating periods.

    The window is centred on an intensity antinode and spans
    ``periods * wavelength/2``; samples sit at cell midpoints so that the
    field nodes (where the sign of cos flips) fall exactly on cell
    boundaries, never on samples.

    ``periods`` must be even so the window is also commensurate with the
    full laser wavelength -- the period of the odd diffraction harmonics.
    ``samples_per_period`` must be a multiple of 4 so nodes and antinodes
    align with the cell structure.  The window holds at most
    ``MAX_WINDOW_SAMPLES`` samples.
    """

    periods: int = 2
    samples_per_period: int = 1024
    wavelength: float = 514.5e-9

    def __post_init__(self) -> None:
        if self.periods < 2 or self.periods % 2 != 0:
            raise ValueError("periods must be an even integer >= 2")
        if self.samples_per_period < 4 or self.samples_per_period % 4 != 0:
            raise ValueError("samples_per_period must be a multiple of 4")
        if not self.wavelength > 0.0:
            raise ValueError("wavelength must be positive")
        check_size("the grating window", self.size, MAX_WINDOW_SAMPLES, "samples")

    @property
    def period(self) -> float:
        return 0.5 * self.wavelength

    @property
    def size(self) -> int:
        return self.periods * self.samples_per_period

    @property
    def spacing(self) -> float:
        return self.period / self.samples_per_period

    @property
    def window(self) -> float:
        return self.periods * self.period

    def positions(self) -> np.ndarray:
        n = self.size
        return (np.arange(n) + 0.5) * self.spacing - 0.5 * self.window


def compute_phi(species: MoleculeSpecies, beam: GratingBeam, velocity: float) -> ComplexPhase:
    """Complex phase parameter for a molecule crossing the standing wave.

    Phi = sqrt(2/pi) * P * alpha / (hbar c eps0 w_y v), with alpha the
    complex SI polarizability.  The real part is the peak dipole phase of
    the ``exp(2i Re(Phi) cos^2(kx))`` imprint; the imaginary part sets the
    photon absorption rate.

    Parameters
    ----------
    species : MoleculeSpecies
    beam : GratingBeam
    velocity : float
        Forward molecular velocity in m/s, > 0.
    """
    if not velocity > 0.0:
        raise ValueError("velocity must be positive")
    alpha = species.polarizability.si
    scale = math.sqrt(2.0 / math.pi) * beam.power / (
        HBAR * C_LIGHT * EPS0 * beam.waist_y * velocity
    )
    return ComplexPhase(scale * alpha.real, scale * alpha.imag)


def poisson_weight(nbar, n: int):
    """Poisson probability of exactly n events at mean nbar (vectorised).

    Returns exp(-nbar) * nbar^n / n!, with the nbar -> 0 limit handled
    exactly (1 for n = 0, else 0).
    """
    if n < 0 or n != int(n):
        raise ValueError("photon number must be a non-negative integer")
    nbar_arr = np.asarray(nbar, dtype=np.float64)
    if np.any(nbar_arr < 0.0):
        raise ValueError("mean photon number must be >= 0")
    if n == 0:
        out = np.exp(-nbar_arr)
    else:
        with np.errstate(divide="ignore"):
            out = np.where(nbar_arr > 0.0, np.exp(_log_poisson(nbar_arr, n)), 0.0)
    return float(out) if out.ndim == 0 else out


def _log_poisson(nbar, n):
    """log(exp(-nbar) nbar^n / n!) for nbar >= 0; n an integer or integer array."""
    k = np.add(n, 1)
    log_factorial = np.reshape([math.lgamma(v) for v in np.ravel(k).tolist()], np.shape(k))
    return n * np.log(nbar) - nbar - log_factorial


def truncation_order(phi: ComplexPhase, tail_eps: float = DEFAULT_TAIL_EPS) -> int:
    """Smallest photon number N so the Poisson tail beyond N is < tail_eps.

    Evaluated at the antinode mean ``4*Im(Phi)`` (the worst case over x).
    The tail is summed from its far end in log space, so it resolves any
    ``tail_eps`` > 0; ``1 - sum p_n`` would floor at the rounding of the sum.
    """
    if not tail_eps > 0.0:
        raise ValueError("tail_eps must be positive")
    nbar = 4.0 * phi.im
    if nbar == 0.0:
        return 0
    log_eps = math.log(tail_eps)
    size = int(2.0 * nbar) + 32
    while True:
        log_p = _log_poisson(nbar, np.arange(size))
        # past k = 2 nbar the terms at least halve, so the mass beyond the
        # last term is below it: 40 e-folds under tail_eps is negligible
        if log_p[-1] < log_eps - 40.0:
            break
        size *= 2
    # log_tail[j] = log sum_{k >= j} p_k
    log_tail = np.logaddexp.accumulate(log_p[::-1])[::-1]
    return int(np.argmax(log_tail[1:] < log_eps))


def channel_amplitudes(
    phi: ComplexPhase, n_max: int, k_laser: float, x: np.ndarray
) -> np.ndarray:
    """Transmission amplitudes t_n(x) for n = 0 .. n_max, shape (n_max+1, len(x)).

    t_n combines the dipole phase imprint exp(2i Re(Phi) cos^2(kx)), the
    square root of the Poisson weight at the local mean photon number, and
    one factor sign(cos kx) per absorbed photon (the photon recoil phase).
    The sign factors merge with |cos|^n from the Poisson weight into a
    plain cos^n, so each channel is smooth and exactly periodic.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    return backend.sample_channels(phi.re, phi.im, n_max, k_laser, np.asarray(x, dtype=np.float64))


def scale_weight_arrays(scales, weights) -> tuple[np.ndarray, np.ndarray]:
    """The vertical ``scales`` and their ``weights`` as float arrays.

    Raises ValueError unless both are 1-D, non-empty and of equal length.
    """
    scales = np.asarray(scales, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if scales.ndim != 1 or scales.size == 0 or scales.shape != weights.shape:
        raise ValueError("scales and weights must be non-empty 1-D arrays of equal length")
    return scales, weights


@dataclass(frozen=True)
class ParityRows:
    """The effective rows of one grating state, stored once per value of |c|.

    ``values[j]`` holds row j at the spp/2 values a_i = cos(theta_i) of
    |cos(k x)| on the canonical laser period ``GridSpec(2, spp)``
    (``parity_angles``); ``odd[j]`` is True for a
    row of the odd block.  At a point x an even row is v(|c|) and an odd
    row sign(c) v(|c|): the run path reads the rows straight at the |c|
    index of each slit sample of the grating window
    (``beamline._SlitLayout``), and never spreads them over a period.
    """

    values: np.ndarray
    odd: np.ndarray

    @property
    def rank(self) -> int:
        return self.values.shape[0]


def parity_angles(samples_per_period: int) -> np.ndarray:
    """The spp/2 angles theta_i = pi (i + 1/2)/spp at which ``ParityRows`` stores its rows.

    a_i = cos(theta_i) > 0 runs over the values of |cos(k x)| on the
    canonical laser period ``GridSpec(2, spp)``.
    """
    return np.pi * (np.arange(samples_per_period // 2) + 0.5) / samples_per_period


def effective_channels(
    phis: Sequence[ComplexPhase],
    samples_per_period: int,
    scales,
    weights,
    tail_eps: float = DEFAULT_TAIL_EPS,
) -> tuple[list[ParityRows], np.ndarray]:
    """The fewest rows u_j(x) with sum_j u_j(x) u_j(x')^* ~ the averaged grating state.

    The mixed grating state sums the channels of ``channel_amplitudes``
    over every photon number in closed form: with c = cos(k x),

        R(x, x') = sum_n t_n(x) t_n(x')^*
                 = exp(2i Re(Phi) (c^2 - c'^2) - 2 Im(Phi) (c - c')^2),

    so R(x, x) = 1; Phi is scaled by each vertical ``scales`` entry and the
    states are averaged with ``weights``.  This factorizes R for every
    phase in ``phis`` at once, by one pivoted Cholesky with a leading phase
    axis.  The rows live on the canonical laser period
    ``GridSpec(2, samples_per_period)``: 2 spp midpoints x_i with
    c_i = cos(k x_i); the state repeats with that period.

    R depends on x only through c, and R(-c, -c') = R(c, c').  The 2 spp
    points take only spp/2 values a = |c|, so the state splits into an even
    block E(a, a') = [R(a, a') + R(a, -a')]/2 and an odd block O(a, a') =
    [R(a, a') - R(a, -a')]/2, with R(s a, s' a') = E + s s' O for signs s,
    s'.  The phase table P[s, a] = exp(2i s Re(Phi) a^2) is computed once;
    the column of a block at pivot a_p is then

        sum_s w_s P[s, a_p]^* P[s, a] [exp(-2 s Im(Phi) (a - a_p)^2)
                                        +- exp(-2 s Im(Phi) (a + a_p)^2)] / 2,

    two real exps per (scale, point) whose arguments are <= 0, so they
    cannot overflow at any Phi.  Each step pivots at the point of largest
    full residual diagonal (even plus odd), in the block that holds the
    larger share of it, and a phase stops once every full residual diagonal
    is <= ``tail_eps``: the residual is positive semidefinite, so no grating
    point loses more than that probability.  Negating every c flips the
    sign of odd rows only, which leaves the state unchanged, so the rows
    serve any whole laser period of a midpoint grid.

    Returns (the rows of each phase, in the order of ``phis``, stored per
    |c|; the largest residual diagonal of each phase).
    """
    if not tail_eps > 0.0:
        raise ValueError("tail_eps must be positive")
    scales, weights = scale_weight_arrays(scales, weights)
    spp = GridSpec(samples_per_period=samples_per_period).samples_per_period  # validated
    n_points = spp // 2
    # the spp/2 values of |c| on the canonical period
    a = np.cos(parity_angles(spp))

    re = np.array([phi.re for phi in phis], dtype=np.float64)
    im = np.array([phi.im for phi in phis], dtype=np.float64)
    phase = np.exp(2j * np.multiply.outer(np.multiply.outer(re, scales), a * a))
    damping = -2.0 * np.multiply.outer(im, scales)[:, :, None]
    # the full residual diagonal and its odd share O(a, a); the even share
    # is their difference
    full = np.full((len(phis), n_points), float(np.sum(weights)))
    odd = np.einsum("s,vsj->vj", -0.5 * weights, np.expm1(4.0 * damping * a * a))

    out = [ParityRows(np.empty((0, n_points), np.complex128), np.empty(0, bool))] * len(phis)
    dropped = np.zeros(len(phis))
    live = np.arange(len(phis))  # the phases still factorizing
    rows = np.empty((len(phis), min(2 * n_points, 8), n_points), dtype=np.complex128)
    odd_row = np.empty(rows.shape[:2], dtype=bool)
    at = np.arange(live.size)
    rank = 0
    while True:
        pivot = np.argmax(full, axis=1)
        pivot_full = full[at, pivot]
        done = (pivot_full <= tail_eps) | (rank == 2 * n_points)
        finished = np.flatnonzero(done)
        for v in finished:
            out[live[v]] = ParityRows(rows[v, :rank].copy(), odd_row[v, :rank].copy())
            dropped[live[v]] = max(float(full[v].max()), 0.0)
        if finished.size == live.size:
            break
        if finished.size:
            keep = ~done
            live, phase, damping, full = live[keep], phase[keep], damping[keep], full[keep]
            odd, rows, odd_row, pivot = odd[keep], rows[keep], odd_row[keep], pivot[keep]
            pivot_full = pivot_full[keep]
            at = np.arange(live.size)
        if rank == rows.shape[1]:
            grow = min(rank, 2 * n_points - rank)
            rows = np.concatenate([rows, np.empty((live.size, grow, n_points), rows.dtype)], axis=1)
            odd_row = np.concatenate([odd_row, np.empty((live.size, grow), bool)], axis=1)
        pivot_odd = odd[at, pivot]
        block = pivot_odd > pivot_full - pivot_odd
        pivot_residual = np.where(block, pivot_odd, pivot_full - pivot_odd)
        a_pivot = a[pivot][:, None, None]
        kernel = np.exp(damping * (a + a_pivot) ** 2)
        np.negative(kernel, out=kernel, where=block[:, None, None])
        kernel += np.exp(damping * (a - a_pivot) ** 2)
        # a BLAS product: callers factorize before their worker threads start
        column = (0.5 * weights * phase[at, :, pivot].conj())[:, None, :] @ (kernel * phase)
        earlier = np.where(odd_row[:, :rank] == block[:, None], rows[at, :rank, pivot].conj(), 0.0)
        column -= earlier[:, None, :] @ rows[:, :rank]
        row = column[:, 0] / np.sqrt(pivot_residual)[:, None]
        rows[:, rank] = row
        odd_row[:, rank] = block
        power = row.real**2 + row.imag**2
        full -= power
        odd -= power * block[:, None]
        rank += 1
    return out, dropped


@dataclass(frozen=True)
class RamanNathCheck:
    """Result of the thin-grating validity estimate."""

    ratio: float  # transverse displacement over one grating period
    displacement: float  # metres
    warn: bool


def raman_nath_diagnostic(
    species: MoleculeSpecies,
    beam: GratingBeam,
    velocity: float,
    phi: ComplexPhase,
) -> RamanNathCheck:
    """Estimate the transverse displacement during transit.

    A molecule kicked by Delta_p = 2 hbar k * max(1, |Phi|) during a transit
    time tau = 2 w_z / v drifts sideways by delta = Delta_p tau / (2 M).
    The grating is safely thin while delta is a small fraction of the
    grating period; the warning flag trips above ratio 0.1.
    """
    if not velocity > 0.0:
        raise ValueError("velocity must be positive")
    kick = 2.0 * HBAR * beam.k_laser * max(1.0, abs(phi.as_complex))
    transit = 2.0 * beam.waist_z / velocity
    displacement = kick * transit / (2.0 * species.mass_kg)
    ratio = displacement / beam.period
    return RamanNathCheck(ratio=ratio, displacement=displacement, warn=ratio > 0.1)
