"""Diffraction-order decomposition of the grating transmission.

Far-field peaks sit at transverse momenta m*hbar*k_laser.  A coherent phase
grating only populates even m (the intensity period is half the laser
wavelength); molecules that absorbed an odd number of photons land on odd m.
This module turns sampled transmission channels, or the effective rows of
the mixed grating state, into order intensities, provides the analytic
Bessel result for the pure phase grating as an oracle, and finds the phase
that switches off the zero order.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .grating import (
    DEFAULT_TAIL_EPS,
    ComplexPhase,
    GridSpec,
    channel_amplitudes,
    effective_channels,
    scale_weight_arrays,
    truncation_order,
)

DEFAULT_M_MAX = 20
BESSEL_MAX_X = 50.0


def bessel_j(m: int, x: float) -> float:
    """Bessel function of the first kind J_m(x) for integer m >= 0, |x| <= 50.

    Uses Miller's downward recurrence normalised with the identity
    J_0 + 2*sum_k J_{2k} = 1, which is numerically stable for all orders
    (upward recurrence is not once m exceeds |x|).  Absolute error is well
    below 1e-12 over the admitted range.
    """
    if m < 0:
        raise ValueError("order must be >= 0")
    if abs(x) > BESSEL_MAX_X:
        raise ValueError(f"|x| must be <= {BESSEL_MAX_X}")
    if x == 0.0:
        return 1.0 if m == 0 else 0.0
    sign = -1.0 if (x < 0.0 and m % 2 == 1) else 1.0
    ax = abs(x)
    # For tiny arguments the recurrence factor 2k/x can overflow between
    # rescales; the power series is exact to machine precision there.
    if ax < 0.25:
        return sign * _bessel_series(m, ax)
    # Start the recurrence far enough above both m and |x| that the error in
    # the arbitrary seed has decayed away by the time order m is reached.
    start = int(max(m, ax)) + 40
    if start % 2 == 1:
        start += 1
    j_above = 0.0  # J_{k+1}
    j_k = 1e-30  # J_k, arbitrary seed scale (normalisation removes it)
    norm = 2.0 * j_k  # start is even and > 0
    result = j_k if m == start else 0.0
    for k in range(start, 0, -1):
        j_below = (2.0 * k / ax) * j_k - j_above
        j_above = j_k
        j_k = j_below
        order = k - 1
        if order == 0:
            norm += j_k
        elif order % 2 == 0:
            norm += 2.0 * j_k
        if order == m:
            result = j_k
        if abs(j_k) > 1e100:
            j_k *= 1e-100
            j_above *= 1e-100
            result *= 1e-100
            norm *= 1e-100
    return sign * result / norm


def _bessel_series(m: int, x: float, terms: int = 40) -> float:
    """Power-series evaluation of J_m(x); accurate for small |x| (< ~2).

    Independent cross-check of the recurrence implementation.
    """
    half = 0.5 * x
    term = half**m / math.factorial(m)
    total = term
    for k in range(1, terms):
        term *= -(half * half) / (k * (m + k))
        total += term
    return total


@dataclass
class OrderSpectrum:
    """Diffraction-order intensities on the hbar*k_laser momentum ladder.

    ``intensities[m + m_max]`` is the probability of a transverse momentum
    transfer of m*hbar*k_laser.  ``per_channel`` optionally keeps the same
    array per absorbed-photon number.
    """

    m_max: int
    intensities: np.ndarray
    per_channel: dict[int, np.ndarray] | None = field(default=None)

    def intensity(self, m: int) -> float:
        if abs(m) > self.m_max:
            raise IndexError(f"order {m} outside |m| <= {self.m_max}")
        return float(self.intensities[m + self.m_max])

    @property
    def orders(self) -> np.ndarray:
        return np.arange(-self.m_max, self.m_max + 1)

    @property
    def total(self) -> float:
        return float(self.intensities.sum())

    def parity_total(self, parity: int) -> float:
        """Summed intensity in even (parity=0) or odd (parity=1) slots."""
        mask = (np.abs(self.orders) % 2) == parity
        return float(self.intensities[mask].sum())


# Samples over half a grating period that ``absorbed_fractions`` averages.
_HALF_PERIOD_SAMPLES = 1024
# Strip half-widths sigma over which ``tail_order`` minimises its bound.
_STRIP = np.geomspace(1e-3, 4.0, 200)
# Order mass that ``default_m_max`` leaves beyond its cutoff.
DEFAULT_M_MAX_TAIL = 1e-9


def tail_order(phi: ComplexPhase, tail_eps: float = DEFAULT_TAIL_EPS) -> int:
    """Order B beyond which the grating state at ``phi`` holds less than ``tail_eps``.

    The grating state R(x, x') (``grating.grating_coherence``) is entire in
    k*x.  Shifting x and x' by -/+ i*sigma/k bounds every order intensity,
    channels summed or single, by
    I_m <= exp(2 |Re Phi| sinh(2 sigma) + 8 Im Phi sinh(sigma)^2 - 2 |m| sigma),
    so the mass beyond |m| = B is below ``tail_eps`` for the B minimised
    over sigma.  Pass the largest phase the state holds (vertical scales
    included).
    """
    if not tail_eps > 0.0:
        raise ValueError("tail_eps must be positive")
    log_tail = 2.0 * abs(phi.re) * np.sinh(2.0 * _STRIP) + 8.0 * phi.im * np.sinh(_STRIP) ** 2
    log_tail += np.log(2.0 / -np.expm1(-2.0 * _STRIP)) - math.log(tail_eps)
    return math.ceil(float(np.min(log_tail / (2.0 * _STRIP))))


def default_m_max(phi: ComplexPhase) -> int:
    """Order cutoff beyond which less than ``DEFAULT_M_MAX_TAIL`` of the state lies."""
    return max(DEFAULT_M_MAX, tail_order(phi, DEFAULT_M_MAX_TAIL))


def samples_per_laser_period(
    phi: ComplexPhase, m_max: int, tail_eps: float = DEFAULT_TAIL_EPS
) -> int:
    """Samples per laser period for projecting the grating at ``phi`` onto orders.

    Returns the smallest power of two n >= 4 max(m_max, B), with B the
    ``tail_order`` of ``phi``: the top half of the bins (|m| >= n/4) holds
    less than ``tail_eps``, and the slots |m| <= m_max alias only with
    orders |m| >= 3n/4.  Pass the largest phase the state holds (vertical
    scales included).
    """
    band = max(m_max, tail_order(phi, tail_eps), 2)
    return 1 << (4 * band - 1).bit_length()


def pure_phase_orders(phi_re: float, m_max: int = DEFAULT_M_MAX) -> OrderSpectrum:
    """Analytic order intensities of the lossless phase grating.

    The imprint exp(2i*phi_re*cos^2(kx)) puts J_j(phi_re)^2 into the even
    slot m = 2j and nothing into odd slots.
    """
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    intensities = np.zeros(2 * m_max + 1)
    for j in range(-(m_max // 2), m_max // 2 + 1):
        value = bessel_j(abs(j), phi_re) ** 2
        intensities[2 * j + m_max] = value
    return OrderSpectrum(m_max=m_max, intensities=intensities)


def _order_power(rows: np.ndarray, m_max: int) -> np.ndarray:
    """|u_j(m)|^2 for each row u_j and m = -m_max .. m_max, shape (rows, 2 m_max + 1).

    The rows are sampled at n > 2 m_max points over one laser period; u_j(m)
    is the Fourier coefficient (1/n) sum_x u_j(x) exp(-i m k x), FFT bin
    m mod n.  The midpoint offset of the samples only rotates their phases.
    """
    n = rows.shape[-1]
    spectrum = np.fft.fft(rows, axis=-1)[:, np.arange(-m_max, m_max + 1) % n] / n
    return spectrum.real**2 + spectrum.imag**2


def incoherent_order_intensities(
    phi: ComplexPhase,
    m_max: int | None = None,
    tail_eps: float = DEFAULT_TAIL_EPS,
) -> OrderSpectrum:
    """Order intensities of the full grating, absorption channels included.

    Channels add incoherently: I_m = sum_n |c_m^(n)|^2, over every photon
    number n up to ``grating.truncation_order``.  The channels are sampled
    over one laser wavelength by ``samples_per_laser_period``; the result
    depends on k*x only.
    """
    if m_max is None:
        m_max = default_m_max(phi)
    n = samples_per_laser_period(phi, m_max, tail_eps)
    grid = GridSpec(periods=2, samples_per_period=n // 2)
    k_laser = 2.0 * math.pi / grid.wavelength
    rows = channel_amplitudes(phi, truncation_order(phi, tail_eps), k_laser, grid.positions())
    power = _order_power(rows, m_max)
    return OrderSpectrum(m_max, power.sum(axis=0), per_channel=dict(enumerate(power)))


def mixed_order_spectra(
    phis: Sequence[ComplexPhase],
    m_max: int,
    scales=(1.0,),
    weights=(1.0,),
    tail_eps: float = DEFAULT_TAIL_EPS,
) -> tuple[np.ndarray, list[int], np.ndarray]:
    """Order intensities of the mixed grating state at each phase of ``phis``.

    One ``grating.effective_channels`` call factorizes the vertically
    averaged states of all phases on one laser-period grid, sized by
    ``samples_per_laser_period`` at the largest |Re Phi| and Im Phi of the
    batch times the largest scale, so it resolves every phase.  For each
    phase in turn, its rows u_j are spread over the period and I_m = sum_j
    |u_j(m)|^2, for m = -m_max .. m_max.  This equals the scale-averaged ``incoherent_order_intensities``
    up to the residual of the rows (at most ``tail_eps`` per grating point)
    and the Poisson tail that one leaves out.  Returns (intensities of shape
    (len(phis), 2 m_max + 1), row count of each phase, largest residual
    diagonal of each phase).
    """
    scales, weights = scale_weight_arrays(scales, weights)
    strongest = ComplexPhase(max(abs(phi.re) for phi in phis), max(phi.im for phi in phis))
    n = samples_per_laser_period(strongest.scaled(float(np.max(scales))), m_max, tail_eps)
    rows, dropped = effective_channels(phis, n // 2, scales, weights, tail_eps)
    intensities = np.array([_order_power(block.period(), m_max).sum(axis=0) for block in rows])
    return intensities, [block.rank for block in rows], dropped


def mixed_order_intensities(
    phi: ComplexPhase,
    m_max: int,
    scales=(1.0,),
    weights=(1.0,),
    tail_eps: float = DEFAULT_TAIL_EPS,
) -> tuple[np.ndarray, int, float]:
    """``mixed_order_spectra`` of the one phase ``phi``.

    Returns (intensities, row count, largest residual diagonal).
    """
    intensities, ranks, dropped = mixed_order_spectra([phi], m_max, scales, weights, tail_eps)
    return intensities[0], ranks[0], float(dropped[0])


def zero_order_null() -> float:
    """The grating phase that extinguishes the zero order: first root of J_0.

    Bisection on [2, 3] (J_0 changes sign there) to an interval of 1e-10.
    """
    lo, hi = 2.0, 3.0
    f_lo = bessel_j(0, lo)
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        f_mid = bessel_j(0, mid)
        if (f_lo < 0.0) == (f_mid < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def absorbed_fractions(phi: ComplexPhase, n_max: int, scales=(1.0,), weights=(1.0,)) -> np.ndarray:
    """Fractions of transmitted molecules that absorbed n = 0 .. n_max photons.

    Averages the Poisson weight at the local mean photon number over one
    grating period (uniform illumination, midpoint samples over the half
    period; the other half mirrors it) and over the vertical intensity
    ``scales`` with their ``weights``, normalised to unit sum.  Each Poisson
    weight is evaluated in log space, as ``grating.poisson_weight`` does, so
    none under- or overflows at any mean photon number; log(nbar) is taken
    once for every n.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    scales, weights = scale_weight_arrays(scales, weights)
    weights = weights / weights.sum()
    theta = (np.arange(_HALF_PERIOD_SAMPLES) + 0.5) * (0.5 * math.pi / _HALF_PERIOD_SAMPLES)
    nbar = 4.0 * phi.im * np.multiply.outer(scales, np.cos(theta) ** 2)
    if np.any(nbar < 0.0):
        raise ValueError("mean photon number must be >= 0")
    # where nbar = 0, log(nbar) = -inf and the weight exp(-inf) of n >= 1 is 0
    with np.errstate(divide="ignore"):
        log_nbar = np.log(nbar)
    # row n: the period average at each scale
    means = [np.mean(np.exp(-nbar), axis=-1)]
    for n in range(1, n_max + 1):
        weight = n * log_nbar
        weight -= nbar
        weight -= math.lgamma(n + 1)
        means.append(np.mean(np.exp(weight, out=weight), axis=-1))
    means = np.array(means)
    # a running sum over the scales, in order
    return sum(weight * column for weight, column in zip(weights, means.T))
