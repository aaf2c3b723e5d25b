"""Diffraction-order decomposition of the grating transmission.

Far-field peaks sit at transverse momenta m*hbar*k_laser.  A coherent phase
grating only populates even m (the intensity period is half the laser
wavelength); molecules that absorbed an odd number of photons land on odd m.
This module turns sampled transmission channels, or the effective rows of
the mixed grating state, into order intensities.  For the pure phase
grating they are the Bessel intensities J_j(Re Phi)^2 on the even slots
m = 2j; the tests hold them against that result (a test oracle, in
``tests/oracles.py``).

Both kinds of row depend on x only through c = cos(k x), evenly or oddly
(Hornberger et al., Rev. Mod. Phys. 84, 157 (2012), on absorption
gratings as mixed momentum-space states).  So they are kept at the spp/2
values of |c| of one laser period (``grating.ParityRows``), and their
order amplitudes are real cosine sums over those values, one matrix
product for all rows: no FFT and no spread over the period.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .grating import (
    DEFAULT_TAIL_EPS,
    ComplexPhase,
    ParityRows,
    channel_amplitudes,
    effective_channels,
    parity_angles,
    scale_weight_arrays,
    truncation_order,
)

DEFAULT_M_MAX = 20


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


# Summed error of the rule of ``absorbed_fractions`` that ``_fraction_samples`` aims below.
_FRACTION_EPS = 2.0**-60
# Photon numbers that ``absorbed_fractions`` evaluates in one array.
_FRACTION_BLOCK = 64
# Strip half-widths sigma over which ``tail_order`` and ``_fraction_samples``
# minimise their bounds.
_STRIP = np.geomspace(1e-3, 4.0, 200)
# Order mass that ``default_m_max`` leaves beyond its cutoff.
DEFAULT_M_MAX_TAIL = 1e-9


def tail_order(phi: ComplexPhase, tail_eps: float = DEFAULT_TAIL_EPS) -> int:
    """Order B beyond which the grating state at ``phi`` holds less than ``tail_eps``.

    The grating state R(x, x') = exp(2i Re(Phi) (c^2 - c'^2) - 2 Im(Phi)
    (c - c')^2), c = cos(k x) (``grating.effective_channels``), is entire
    in k*x.  Shifting x and x' by -/+ i*sigma/k bounds every order intensity,
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


def _order_power(rows: ParityRows, m_max: int) -> np.ndarray:
    """|u_j(m)|^2 for each row u_j and m = -m_max .. m_max, shape (rank, 2 m_max + 1).

    u_j(m) = (1/n) sum_x u_j(x) exp(-i m k x) over the n = 2 spp midpoints
    of the canonical laser period, with n > 2 m_max.  A row depends on x
    only through c = cos(k x), evenly or oddly, and the points x, -x,
    pi/k - x and pi/k + x share one |c|.  So u_j(m) vanishes for m of the
    other parity, and for m of the row's own parity it is the cosine sum

        u_j(m) = (1/n_points) sum_i v_j(a_i) cos(m theta_i)

    over the spp/2 stored values (``grating.parity_angles``), real and
    even in m: I_{-m} = I_m.  The midpoint offset of the samples only
    rotates the phases of u_j(m).
    """
    n_points = rows.values.shape[1]
    orders = np.arange(m_max + 1)
    table = np.cos(np.multiply.outer(parity_angles(2 * n_points), orders)) / n_points
    real = rows.values.real @ table
    imag = rows.values.imag @ table
    power = real * real + imag * imag
    power *= rows.odd[:, None] == (orders % 2 == 1)
    return np.concatenate([power[:, :0:-1], power], axis=1)


def incoherent_order_intensities(
    phi: ComplexPhase,
    m_max: int | None = None,
    tail_eps: float = DEFAULT_TAIL_EPS,
) -> OrderSpectrum:
    """Order intensities of the full grating, absorption channels included.

    Channels add incoherently: I_m = sum_n |c_m^(n)|^2, over every photon
    number n up to ``grating.truncation_order``.  Channel n is
    exp((2i Re Phi - 2 Im Phi) c^2) (4 Im Phi)^(n/2) c^n / sqrt(n!) with
    c = cos(k x), so it has the parity of n in c; it is sampled at the
    spp/2 points of ``grating.parity_angles`` where c > 0, with spp half
    of ``samples_per_laser_period``, and projected by ``_order_power``.
    The result depends on k*x only.
    """
    if m_max is None:
        m_max = default_m_max(phi)
    n_max = truncation_order(phi, tail_eps)
    theta = parity_angles(samples_per_laser_period(phi, m_max, tail_eps) // 2)
    # k = 1: the channels see cos(theta) itself
    channels = ParityRows(channel_amplitudes(phi, n_max, 1.0, theta), np.arange(n_max + 1) % 2 == 1)
    power = _order_power(channels, m_max)
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
    batch times the largest scale, so it resolves every phase.  The rows
    of all phases are stacked and projected at once by ``_order_power``,
    a cosine sum over their spp/2 stored values of |c|, with no FFT and
    no spread over the period; I_m = sum_j |u_j(m)|^2 over the rows of
    each phase, for m = -m_max .. m_max.  This equals the scale-averaged
    ``incoherent_order_intensities`` up to the residual of the rows (at
    most ``tail_eps`` per grating point) and the Poisson tail that one
    leaves out.  Returns (intensities of shape (len(phis), 2 m_max + 1),
    row count of each phase, largest residual diagonal of each phase).
    """
    scales, weights = scale_weight_arrays(scales, weights)
    strongest = ComplexPhase(max(abs(phi.re) for phi in phis), max(phi.im for phi in phis))
    n = samples_per_laser_period(strongest.scaled(float(np.max(scales))), m_max, tail_eps)
    rows, dropped = effective_channels(phis, n // 2, scales, weights, tail_eps)
    ranks = np.array([block.rank for block in rows])
    stacked = ParityRows(
        np.concatenate([block.values for block in rows]),
        np.concatenate([block.odd for block in rows]),
    )
    power = _order_power(stacked, m_max)
    intensities = np.zeros((len(rows), 2 * m_max + 1))
    # a phase without rows (weights summing to <= tail_eps) adds nothing
    kept = ranks > 0
    if kept.any():
        intensities[kept] = np.add.reduceat(power, (np.cumsum(ranks) - ranks)[kept], axis=0)
    return intensities, ranks.tolist(), dropped


def _fraction_samples(nbar_max: float) -> int:
    """Midpoints on the half period that average every P(n; nbar cos^2 theta) to ``_FRACTION_EPS``.

    With phi = 2 theta, the Poisson weights are entire functions of
    z = (nbar/2)(1 + cos phi), and sum_n |P(n; z)| = exp(|z| - Re z) is at
    most exp(2 nbar sinh(sigma/2)^2) on the strip |Im phi| <= sigma, the
    largest value sitting at Re phi = pi.  M midpoints on the half period
    are 2M on the full one and alias only the harmonics 2 M j, j != 0, so
    the error summed over all n is below
    exp(2 nbar sinh(sigma/2)^2 - 2 M sigma) * 2 / (1 - exp(-2 sigma)),
    the sum over j bounded for every M >= 1.  Returns the smallest M with
    that bound below ``_FRACTION_EPS`` for the sigma of ``_STRIP``
    minimising it, in closed form; ``nbar_max`` is the largest mean photon
    number at an antinode.  M is 6 at nbar = 0, 17 at 8.1 (C70 at 50 W),
    187 at 1600 and 470 at 10^4.
    """
    log_error = 2.0 * nbar_max * np.sinh(0.5 * _STRIP) ** 2
    log_error += np.log(2.0 / -np.expm1(-2.0 * _STRIP)) - math.log(_FRACTION_EPS)
    return math.ceil(float(np.min(log_error / (2.0 * _STRIP))))


def absorbed_fractions(phi: ComplexPhase, n_max: int, scales=(1.0,), weights=(1.0,)) -> np.ndarray:
    """Fractions of transmitted molecules that absorbed n = 0 .. n_max photons.

    Averages the Poisson weight at the local mean photon number over one
    grating period (uniform illumination, midpoint samples over the half
    period; the other half mirrors it) and over the vertical intensity
    ``scales`` with their ``weights``, normalised to unit sum.  The
    number of samples comes from ``_fraction_samples`` at the strongest
    scale: the aliasing error summed over all n stays below 2^-60, so the
    fractions sit at round-off from the exact period average.  Each
    Poisson weight is evaluated in log space, as ``grating.poisson_weight``
    does, so none under- or overflows at any mean photon number; log(nbar)
    is taken once, and the photons n >= 1 are evaluated in blocks of
    ``_FRACTION_BLOCK`` rows, one array per block.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    scales, weights = scale_weight_arrays(scales, weights)
    weights = weights / weights.sum()
    antinode = 4.0 * phi.im * scales
    if np.any(antinode < 0.0):
        raise ValueError("mean photon number must be >= 0")
    samples = _fraction_samples(float(np.max(antinode)))
    theta = (np.arange(samples) + 0.5) * (0.5 * math.pi / samples)
    nbar = 4.0 * phi.im * np.multiply.outer(scales, np.cos(theta) ** 2)
    # where nbar = 0, log(nbar) = -inf and the weight exp(-inf) of n >= 1 is 0
    with np.errstate(divide="ignore"):
        log_nbar = np.log(nbar)
    # row n: the period average at each scale, the sum over the samples
    # divided by their count, as np.mean computes it
    means = np.empty((n_max + 1, scales.size))
    means[0] = np.exp(-nbar).sum(axis=-1) / samples
    for start in range(1, n_max + 1, _FRACTION_BLOCK):
        photons = np.arange(start, min(start + _FRACTION_BLOCK, n_max + 1))
        weight = np.multiply.outer(photons, log_nbar)
        weight -= nbar
        weight -= np.array([math.lgamma(n + 1) for n in photons.tolist()])[:, None, None]
        means[start : start + photons.size] = np.exp(weight, out=weight).sum(axis=-1) / samples
    # a running sum over the scales, in order
    return sum(weight * column for weight, column in zip(weights, means.T))
