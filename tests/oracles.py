"""Reference implementations that the tests check the run path against.

Nothing here runs from the command line.  These are the slow, transparent
forms of what ``lightgrating`` computes fast:

- the closed-form mixed grating state that ``grating.effective_channels``
  factorizes, and the photon-number channels it sums;
- the effective rows spread over the canonical laser period, and tiled
  across the grating window, which the run path reads straight off the
  stored |c| values instead, and the slit mask over the whole window,
  of which the run path builds the half right of the centre;
- the channel-by-channel, source-by-source Fresnel pipeline that wave mode
  replaces with one FFT batch per velocity, with a direct quadrature as
  the cross-check of the spectral propagator, and the midpoint rule over
  the source slit whose average wave mode takes in closed form;
- the analytic Bessel orders of the lossless phase grating, the far-field
  peak ladder and a sub-grid peak finder;
- the log-Poisson weight with ``np.vectorize``'d log-factorials, and the
  orders table rendered one row at a time.

pytest does not collect this module; tests import it as ``oracles``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.special

from lightgrating.beamline import (
    BeamlineGeometry,
    DiffractionPattern,
    aperture_mask,
    next_pow2,
    order_slot_spacing,
    pattern_metrics,
    window_grid,
)
from lightgrating.distributions import FWHM_TO_SIGMA, VerticalProfile
from lightgrating.grating import (
    DEFAULT_TAIL_EPS,
    ComplexPhase,
    GratingBeam,
    GridSpec,
    ParityRows,
    channel_amplitudes,
    scale_weight_arrays,
    truncation_order,
)
from lightgrating.orders import DEFAULT_M_MAX, OrderSpectrum
from lightgrating.species import MoleculeSpecies, de_broglie_wavelength


# --- the grating --------------------------------------------------------


@dataclass(frozen=True)
class TransmissionChannel:
    """Sampled transmission amplitude for the n-photon subensemble."""

    photon_count: int
    samples: np.ndarray
    grid: GridSpec


def channel_set(
    phi: ComplexPhase, grid: GridSpec, tail_eps: float = DEFAULT_TAIL_EPS
) -> list[TransmissionChannel]:
    """All channels up to the truncation order for the requested tail."""
    n_max = truncation_order(phi, tail_eps)
    k_laser = 2.0 * math.pi / grid.wavelength
    amps = channel_amplitudes(phi, n_max, k_laser, grid.positions())
    return [TransmissionChannel(n, amps[n], grid) for n in range(n_max + 1)]


def mean_photon_number(phi: ComplexPhase, x, k_laser: float):
    """Mean number of absorbed photons at transverse position x.

    nbar(x) = 4 * Im(Phi) * cos^2(k x).  Accepts scalars or arrays.
    """
    c = np.cos(k_laser * np.asarray(x, dtype=np.float64))
    out = 4.0 * phi.im * c * c
    return float(out) if out.ndim == 0 else out


def grating_coherence(
    phi: ComplexPhase,
    k_laser: float,
    x: np.ndarray,
    x_prime: np.ndarray,
    scales=(1.0,),
    weights=(1.0,),
) -> np.ndarray:
    """Mixed grating state R(x, x') = sum_n t_n(x) t_n(x')^*, shape (len(x), len(x')).

    With c = cos(k x) the channel sum is exact over every photon number:

        R = exp(2i Re(Phi) (c^2 - c'^2) - 2 Im(Phi) (c - c')^2),

    so R(x, x) = 1.  Phi is scaled by each vertical ``scales`` entry and
    the states are averaged with ``weights``.  This is the closed form
    that ``grating.effective_channels`` factorizes.
    """
    scales, weights = scale_weight_arrays(scales, weights)
    c = np.cos(k_laser * np.asarray(x, dtype=np.float64))[:, None]
    c_prime = np.cos(k_laser * np.asarray(x_prime, dtype=np.float64))[None, :]
    exponent = 2j * phi.re * (c * c - c_prime * c_prime) - 2.0 * phi.im * (c - c_prime) ** 2
    return np.einsum("s,sij->ij", weights, np.exp(scales[:, None, None] * exponent))


def period_layout(spp: int) -> tuple[np.ndarray, np.ndarray]:
    """The |c| index and the sign of c at each point of the canonical laser period.

    Point i of ``GridSpec(2, spp)`` has k x_i = pi (i + 1/2)/spp - pi and
    |c_i| = a[fold[i]], with a the stored values of ``ParityRows``.
    """
    within_half = np.arange(2 * spp) % spp
    fold = np.minimum(within_half, spp - 1 - within_half)
    sign = np.where(np.cos(np.pi * ((np.arange(2 * spp) + 0.5) / spp - 1.0)) < 0.0, -1.0, 1.0)
    return fold, sign


def period(rows: ParityRows) -> np.ndarray:
    """The rows over the canonical laser period, shape (rank, 2 spp).

    An even row is v(|c|) and an odd row sign(c) v(|c|).
    """
    fold, sign = period_layout(2 * rows.values.shape[1])
    return rows.values[:, fold] * np.where(rows.odd[:, None], sign, 1.0)


def grating_window(
    beam: GratingBeam, geom: BeamlineGeometry, samples_per_period: int
) -> tuple[GridSpec, np.ndarray]:
    """``window_grid`` and the slit2 aperture over the whole window, a fractional-overlap mask.

    The run path builds the aperture on the samples right of the centre
    only (``beamline._SlitLayout``).
    """
    grid = window_grid(beam, geom, samples_per_period)
    return grid, aperture_mask(grid.positions(), grid.spacing, geom.slit2)


def window_fields(cfg, velocity, grid, mask, rows):
    """The fields of the effective rows over the whole grating window.

    The canonical laser period is tiled across the window from its first
    sample, and each row is multiplied by the slit mask and the chirp.
    """
    geom = cfg.geometry
    k = 2.0 * math.pi / de_broglie_wavelength(cfg.species, velocity)
    x = grid.positions()
    base = mask * np.exp(1j * (0.5 * k * (1.0 / geom.L12 + 1.0 / geom.L2D)) * x**2)
    return np.tile(period(rows), (1, grid.size // (2 * grid.samples_per_period))) * base


def pure_phase_orders(phi_re: float, m_max: int = DEFAULT_M_MAX) -> OrderSpectrum:
    """Analytic order intensities of the lossless phase grating.

    The imprint exp(2i*phi_re*cos^2(kx)) puts J_j(phi_re)^2 into the even
    slot m = 2j and nothing into odd slots.
    """
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    j = np.arange(-(m_max // 2), m_max // 2 + 1)
    intensities = np.zeros(2 * m_max + 1)
    intensities[2 * j + m_max] = scipy.special.jv(np.abs(j), phi_re) ** 2
    return OrderSpectrum(m_max=m_max, intensities=intensities)


def log_poisson(nbar, n):
    """log(exp(-nbar) nbar^n / n!) with log n! from ``math.lgamma`` through ``np.vectorize``.

    The form ``grating._log_poisson`` had before it called ``math.lgamma``
    over a list; the two must agree bit for bit.
    """
    return n * np.log(nbar) - nbar - np.vectorize(math.lgamma, otypes=[float])(np.add(n, 1))


def orders_table_by_rows(spectrum: OrderSpectrum) -> str:
    """The text of ``run_orders``' CSV, each row formatted on its own.

    The renderer ``runner._orders_table`` replaced with one format over all
    rows; the two texts must be equal.
    """
    photon_numbers = sorted(spectrum.per_channel)
    header = "m,intensity," + ",".join(f"n{n}" for n in photon_numbers)
    columns = [spectrum.per_channel[n].tolist() for n in photon_numbers]
    row = "%d" + ",%.20f" * (1 + len(columns))
    rows = zip(spectrum.orders.tolist(), spectrum.intensities.tolist(), *columns)
    lines = [header, *(row % values for values in rows)]
    return "\n".join(lines) + "\n"


def mean_vertical_scale(profile: VerticalProfile) -> float:
    """Closed-form average of exp(-2 y^2/w^2) over the vertical Gaussian.

    Equals 1/sqrt(1 + 4 sigma_y^2 / w_y^2); the convergence target of
    ``distributions.vertical_phi_scales``.
    """
    sigma = profile.beam_fwhm / FWHM_TO_SIGMA
    return 1.0 / math.sqrt(1.0 + 4.0 * sigma**2 / profile.laser_waist**2)


# --- Fresnel propagation ------------------------------------------------


class AliasingError(ValueError):
    """The quadratic phase advances by more than pi between input samples."""


def propagate_spectral(
    field: np.ndarray,
    spacing: float,
    wavelength: float,
    distance: float,
    x_start: float,
    pad_factor: int = 4,
) -> tuple[np.ndarray, np.ndarray]:
    """Single-FFT Fresnel propagation of a uniformly sampled field.

    Evaluates

        psi(x') = 1/sqrt(i lambda L) * integral f(x) exp(i k (x'-x)^2 / (2L)) dx

    by factoring the quadratic phase: the remaining linear-phase transform
    is one zero-padded FFT of length ``next_pow2(pad_factor * len(field))``,
    exactly unitary on its native output grid (discrete Parseval).  The
    input samples sit at ``x_start + p*spacing``.  Padding refines the
    output grid (spacing ``wavelength*L/(N*spacing)``) without changing its
    span.

    Returns (output positions, ascending and centred on 0; the complex
    field), with ``sum |field_out|^2 * out_spacing == sum |field|^2 *
    spacing`` to machine precision.
    """
    if not spacing > 0.0:
        raise ValueError("spacing must be positive")
    if not distance > 0.0:
        raise ValueError("distance must be positive")
    if not wavelength > 0.0:
        raise ValueError("wavelength must be positive")
    if pad_factor < 1:
        raise ValueError("pad_factor must be >= 1")
    field = np.asarray(field, dtype=np.complex128)
    n_in = field.size
    n_fft = next_pow2(n_in * pad_factor)
    k = 2.0 * math.pi / wavelength
    x_in = x_start + spacing * np.arange(n_in)
    chirped = np.zeros(n_fft, dtype=np.complex128)
    chirped[:n_in] = field * np.exp(1j * (0.5 * k / distance) * x_in**2)
    transform = np.fft.fftshift(np.fft.fft(chirped))
    out_spacing = wavelength * distance / (n_fft * spacing)
    x_out = (np.arange(n_fft) - n_fft // 2) * out_spacing
    # 1/sqrt(i) = exp(-i pi/4); the constant exp(ikL) plane phase is dropped.
    prefactor = spacing * np.exp(-0.25j * math.pi) / math.sqrt(wavelength * distance)
    phases = np.exp(1j * (0.5 * k / distance) * x_out**2 - 1j * (k / distance) * x_start * x_out)
    return x_out, prefactor * phases * transform


def simpson_weights(n: int, spacing: float) -> np.ndarray:
    """Composite Simpson weights for n (odd) endpoint-type samples."""
    if n < 3 or n % 2 == 0:
        raise ValueError("Simpson rule needs an odd number of samples >= 3")
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (spacing / 3.0)


def propagate_direct(
    field: np.ndarray,
    x_in: np.ndarray,
    weights: np.ndarray,
    wavelength: float,
    distance: float,
    x_out: np.ndarray,
) -> np.ndarray:
    """Brute-force Fresnel quadrature at arbitrary output points.

    Sums w * f * exp(i k (x_out - x_in)^2 / (2L)) one output point at a
    time, so no (len(x_out), len(x_in)) matrix is built.  Raises
    :class:`AliasingError` when the quadratic phase steps by more than pi
    between adjacent input samples anywhere in the requested output range
    (the quadrature would then alias, not merely lose accuracy).
    """
    if not distance > 0.0:
        raise ValueError("distance must be positive")
    x_in = np.asarray(x_in, dtype=np.float64)
    x_out = np.asarray(x_out, dtype=np.float64)
    k = 2.0 * math.pi / wavelength
    spacing = np.diff(x_in).max() if x_in.size > 1 else 0.0
    reach = max(
        abs(x_out.max() - x_in.min()) if x_out.size else 0.0,
        abs(x_in.max() - x_out.min()) if x_out.size else 0.0,
    )
    if k * spacing * reach / distance > math.pi:
        raise AliasingError(
            "quadratic-phase sampling violated: k*dx*span/L = "
            f"{k * spacing * reach / distance:.3f} > pi"
        )
    kfac = 0.5 * k / distance
    wf = np.asarray(weights, dtype=np.float64) * np.asarray(field, dtype=np.complex128)
    out = np.empty(x_out.size, dtype=np.complex128)
    for i, xo in enumerate(x_out):
        d = xo - x_in
        out[i] = np.sum(wf * np.exp(1j * (kfac * d * d)))
    return np.exp(-0.25j * math.pi) / math.sqrt(wavelength * distance) * out


def source_quadrature(geom: BeamlineGeometry, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Midpoint nodes across slit1 with uniform weights (incoherent source)."""
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


# --- the detector pattern -----------------------------------------------


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
