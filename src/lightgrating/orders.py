"""Diffraction-order decomposition of the grating transmission.

Far-field peaks sit at transverse momenta m*hbar*k_laser.  A coherent phase
grating only populates even m (the intensity period is half the laser
wavelength); molecules that absorbed an odd number of photons land on odd m.
This module turns sampled transmission channels, or the closed-form mixed
grating state, into order intensities.  For the pure phase grating they
are the Bessel intensities J_j(Re Phi)^2 on the even slots m = 2j; the
tests hold them against that result (a test oracle, in
``tests/oracles.py``).

Both the channels and the state depend on x only through c = cos(k x),
evenly or oddly (Hornberger et al., Rev. Mod. Phys. 84, 157 (2012), on
absorption gratings as mixed momentum-space states).  So they are taken
at the n/4 values of |c| on a grid of n points per laser period, and the
order amplitudes are real cosine sums over those values: no FFT and no
spread over the period.  A channel's order intensities come from one
matrix product for all channels (``_order_power``); the mixed state's
are the diagonal <m|rho|m> of its momentum-basis density matrix, one
quadratic form of the cosine table per order, read straight off the
closed form with nothing factorized (``mixed_order_spectra``).  The
grid is the smallest whose aliasing bound meets the requested tail
(``samples_per_laser_period``).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .distributions import check_size
from .grating import (
    DEFAULT_TAIL_EPS,
    ComplexPhase,
    ParityRows,
    channel_amplitudes,
    parity_angles,
    scale_weight_arrays,
    truncation_order,
)
from .species import check_count, check_positive

DEFAULT_M_MAX = 20
# The most values of an order table, n/4 stored values of |c| times the
# m_max + 1 orders (``samples_per_laser_period``), 32 MB as float64.  At
# Phi = 0 it admits m_max up to 4089; the default 20 needs 168.
MAX_ORDER_TABLE = 1 << 22
# Bytes that the kernel arrays of ``mixed_order_spectra`` hold at once, so
# that its temporaries stay bounded at any grating strength.
MAX_KERNEL_BYTES = 1 << 21
# Arrays of one block's shape that ``mixed_order_spectra`` holds at once,
# counting the two exponent tables, which have one node's shape.
_KERNEL_ARRAYS = 7


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


def _log_order_bound(phi: ComplexPhase) -> np.ndarray:
    """C(sigma) = 2 |Re Phi| sinh(2 sigma) + 8 Im Phi sinh(sigma)^2 on the sigma of ``_STRIP``.

    Every order intensity of the grating state at ``phi``, channels summed
    or single, obeys I_m <= exp(C(sigma) - 2 |m| sigma) (``tail_order``).
    """
    return 2.0 * abs(phi.re) * np.sinh(2.0 * _STRIP) + 8.0 * phi.im * np.sinh(_STRIP) ** 2


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
    check_positive("tail_eps", tail_eps)
    log_tail = _log_order_bound(phi) + np.log(2.0 / -np.expm1(-2.0 * _STRIP)) - math.log(tail_eps)
    return math.ceil(float(np.min(log_tail / (2.0 * _STRIP))))


def default_m_max(phi: ComplexPhase) -> int:
    """Order cutoff beyond which less than ``DEFAULT_M_MAX_TAIL`` of the state lies."""
    return max(DEFAULT_M_MAX, tail_order(phi, DEFAULT_M_MAX_TAIL))


def samples_per_laser_period(
    phi: ComplexPhase, m_max: int, tail_eps: float = DEFAULT_TAIL_EPS
) -> int:
    """Samples per laser period for projecting the grating at ``phi`` onto orders.

    On n midpoints per laser period (n a multiple of 8) the computed
    amplitude of order m is sum_l (-1)^l u(m + l n), so the alias partners
    of the slots |m| <= m_max sit at |m + l n| >= |l| n - m_max.  For a
    positive semidefinite state |rho(p, q)| <= sqrt(I_p I_q), so the error
    on I_m is at most 2 sqrt(I_m) S + S^2, with S the sum of sqrt(I_p) over
    the partners p.  ``tail_order``'s bound I_p <= exp(C(sigma) - 2 |p|
    sigma) gives S <= exp(C(sigma)/2 - (n - m_max) sigma) 2/(1 - e^(-8 sigma))
    for n >= 8.  Returns the smallest multiple of 8 with S <= tail_eps/2,
    that is

        n - m_max >= [C(sigma) + 2 log(2/(1 - e^(-8 sigma))) - 2 log(tail_eps/2)] / (2 sigma),

    minimised in closed form over the sigma of ``_STRIP``: the error on
    each I_m stays below tail_eps sqrt(I_m) + tail_eps^2/4, and n - m_max
    clears the order where the bound on I_p reaches about tail_eps^2.  The
    rule does not need n > 2 m_max: slots |m| > n/2 share their partners
    with lower ones, but every partner lies beyond n - m_max, where the
    state holds next to nothing.  n is 32 at Phi = 0 and m_max = 20, 64 at
    C60 9.5 W and 120 at C70 50 W (72 m/s).  Pass the largest phase the
    state holds (vertical scales included).  Raises ValueError when the
    order table on that grid, n/4 values of |c| by m_max + 1 orders, would
    hold more than ``MAX_ORDER_TABLE`` values.
    """
    check_positive("tail_eps", tail_eps)
    log_alias = _log_order_bound(phi)
    # log(tail_eps/2), finite also where tail_eps/2 underflows to 0
    log_half_eps = math.log(tail_eps) - math.log(2.0)
    log_alias += 2.0 * (np.log(2.0 / -np.expm1(-8.0 * _STRIP)) - log_half_eps)
    clearance = math.ceil(float(np.min(log_alias / (2.0 * _STRIP))))
    n = 8 * max(1, -(-(m_max + clearance) // 8))
    check_size("the order table", n // 4 * (m_max + 1), MAX_ORDER_TABLE, "values")
    return n


def _order_power(rows: ParityRows, m_max: int) -> np.ndarray:
    """|u_j(m)|^2 for each row u_j and m = -m_max .. m_max, shape (rank, 2 m_max + 1).

    u_j(m) = (1/n) sum_x u_j(x) exp(-i m k x) over the n = 2 spp midpoints
    of the canonical laser period.  n > 2 m_max is not needed: the grid of
    ``samples_per_laser_period`` puts every alias partner of the slots
    |m| <= m_max, those of slots |m| > n/2 included, beyond n - m_max,
    where the state holds next to nothing.  A row depends on x
    only through c = cos(k x), evenly or oddly, and the points x, -x,
    pi/k - x and pi/k + x share one |c|.  So u_j(m) vanishes for m of the
    other parity, and for m of the row's own parity it is the cosine sum

        u_j(m) = (1/n_points) sum_i v_j(a_i) cos(m theta_i)

    over the spp/2 stored values (``grating.parity_angles``), real and
    even in m: I_{-m} = I_m.  The midpoint offset of the samples only
    rotates the phases of u_j(m).
    """
    n_points = rows.values.shape[1]
    table = _order_table(n_points, m_max)
    real = rows.values.real @ table
    imag = rows.values.imag @ table
    power = real * real + imag * imag
    power *= rows.odd[:, None] == (np.arange(m_max + 1) % 2 == 1)
    return np.concatenate([power[:, :0:-1], power], axis=1)


def _order_table(n_points: int, m_max: int) -> np.ndarray:
    """T_im = cos(m theta_i) / n_points for the n_points stored values of |c| and m = 0 .. m_max."""
    return np.cos(np.multiply.outer(parity_angles(2 * n_points), np.arange(m_max + 1))) / n_points


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
) -> np.ndarray:
    """Order intensities of the mixed grating state at each phase of ``phis``.

    I_m is the diagonal <m|rho|m> of the momentum-basis density matrix,
    read straight off the closed-form state R(x, x') = exp(2i Re(Phi)
    (c^2 - c'^2) - 2 Im(Phi) (c - c')^2), c = cos(k x)
    (``grating.effective_channels``), with Phi scaled by each vertical
    ``scales`` entry and the states averaged with ``weights``.  The grid
    holds n = ``samples_per_laser_period`` points per laser period, sized
    at the largest |Re Phi| and Im Phi of the batch times the largest
    scale, so it resolves every phase.  Its points take the n/4 values
    a_i = cos(theta_i) of |c| (``grating.parity_angles``); the even block
    of the state carries the even orders and the odd block the odd ones,
    so for m of parity +/-

        I_m = sum_ij T_im T_jm K+/-(a_i, a_j),   T_im = cos(m theta_i) / (n/4),
        K+/-(a, a') = sum_s w_s [exp(-2 Im Phi_s (a - a')^2)
                                 +/- exp(-2 Im Phi_s (a + a')^2)] / 2
                              * cos(2 Re Phi_s (a^2 - a'^2)).

    The sine of the phase is odd in (a, a') and cancels from the symmetric
    sum; both exponents are <= 0, so nothing overflows at any Phi.  One
    weighted sum over the scales builds K+ and K- for a block of velocity
    nodes, and one real matrix product per parity projects every node of
    the block.  A block's kernel arrays hold at most ``MAX_KERNEL_BYTES``:
    the nodes are split into blocks, and the points of one node too when
    it alone is larger.  Nothing is factorized or dropped, so this equals
    the scale-averaged ``incoherent_order_intensities`` up to aliasing
    (``samples_per_laser_period``) and the Poisson tail that one leaves
    out.  The intensities are clipped at 0, and I_{-m} = I_m bit for bit.
    Returns the intensities, shape (len(phis), 2 m_max + 1).
    """
    scales, weights = scale_weight_arrays(scales, weights)
    strongest = ComplexPhase(max(abs(phi.re) for phi in phis), max(phi.im for phi in phis))
    n_points = samples_per_laser_period(strongest.scaled(float(np.max(scales))), m_max, tail_eps) // 4
    a = np.cos(parity_angles(2 * n_points))
    table = _order_table(n_points, m_max)
    re = np.array([phi.re for phi in phis], dtype=np.float64)
    im = np.array([phi.im for phi in phis], dtype=np.float64)
    half = np.zeros((len(phis), m_max + 1))
    # rows of n_points doubles that each of the block's kernel arrays holds
    block_rows = max(1, MAX_KERNEL_BYTES // (_KERNEL_ARRAYS * 8 * n_points))
    nodes = max(1, block_rows // n_points)
    rows = min(n_points, block_rows)
    for first in range(0, len(phis), nodes):
        block = slice(first, first + nodes)
        for start in range(0, n_points, rows):
            points = slice(start, start + rows)
            half[block] += _block_orders(re[block], im[block], a, points, scales, weights, table)
    np.maximum(half, 0.0, out=half)
    return np.concatenate([half[:, :0:-1], half], axis=1)


def _block_orders(
    re: np.ndarray,
    im: np.ndarray,
    a: np.ndarray,
    points: slice,
    scales: np.ndarray,
    weights: np.ndarray,
    table: np.ndarray,
) -> np.ndarray:
    """The terms i in ``points`` of sum_ij T_im T_jm K+/-(a_i, a_j) for the phases (re, im).

    See ``mixed_order_spectra``.  Returns shape (len(re), m_max + 1); the
    ``_KERNEL_ARRAYS`` arrays it holds at once are freed on return.
    """
    # the exponents per unit Im Phi_s, <= 0
    near_sq = np.subtract.outer(a[points], a)
    near_sq *= near_sq
    near_sq *= -2.0
    far_sq = np.add.outer(a[points], a)
    far_sq *= far_sq
    far_sq *= -2.0
    shape = (re.size, near_sq.shape[0], a.size)
    even = np.zeros(shape)
    odd = np.zeros(shape)
    for scale, weight in zip(scales.tolist(), weights.tolist()):
        phase = np.multiply.outer((2.0 * scale) * re, a * a)
        cos, sin = np.cos(phase), np.sin(phase)
        # cos(2 Re Phi_s (a_i^2 - a_j^2)) w_s / 2
        kernel = cos[:, points, None] * cos[:, None, :]
        # ``near`` holds the sine product first, so that no further array is made
        near = np.multiply(sin[:, points, None], sin[:, None, :])
        kernel += near
        kernel *= 0.5 * weight
        damping = (scale * im)[:, None, None]
        np.exp(np.multiply(damping, near_sq, out=near), out=near)
        near *= kernel
        far = np.multiply(damping, far_sq)
        np.exp(far, out=far)
        far *= kernel
        even += near
        even += far
        odd += near
        odd -= far
    half = np.empty((re.size, table.shape[1]))
    for parity, summed in ((0, even), (1, odd)):
        t = table[:, parity::2]
        half[:, parity::2] = np.einsum("vim,im->vm", summed @ t, t[points])
    return half


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
    check_count("n_max", n_max, 0)
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
