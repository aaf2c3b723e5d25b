"""One-dimensional paraxial Fresnel propagation.

Two routes to the same integral

    psi(x') = 1/sqrt(i lambda L) * integral f(x) exp(i k (x'-x)^2 / (2L)) dx

are provided.  The spectral route factors the quadratic phase and evaluates
the remaining linear-phase transform with a single zero-padded FFT; it is
exactly unitary on its native output grid (discrete Parseval) and is what
the ensemble average uses.  The direct route evaluates the quadrature sum
at arbitrary detector points; it is slow but transparent, and serves as the
cross-check of the spectral path.
"""

from __future__ import annotations

import math

import numpy as np

from . import backend


class AliasingError(ValueError):
    """The quadratic phase advances by more than pi between input samples."""


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


def propagate_spectral(
    field: np.ndarray,
    spacing: float,
    wavelength: float,
    distance: float,
    x_start: float,
    pad_factor: int = 4,
) -> tuple[np.ndarray, np.ndarray]:
    """Single-FFT Fresnel propagation of a uniformly sampled field.

    Parameters
    ----------
    field : complex array
        Input samples f_p at positions ``x_start + p*spacing``.
    spacing : float
        Input sample spacing in metres.
    wavelength : float
        de Broglie wavelength in metres.
    distance : float
        Propagation distance L > 0 in metres.
    x_start : float
        Position of the first sample.
    pad_factor : int
        Zero padding; the FFT length is the next power of two at or above
        ``pad_factor * len(field)``.  Padding refines the output grid
        (spacing ``wavelength*L/(N*spacing)``) without changing its span.

    Returns
    -------
    (x_out, field_out)
        Output positions (ascending, centred on 0) and the complex field.
        ``sum |field_out|^2 * out_spacing == sum |field|^2 * spacing`` to
        machine precision.
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


def midpoint_weights(n: int, spacing: float) -> np.ndarray:
    return np.full(n, spacing)


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

    Raises :class:`AliasingError` when the quadratic phase steps by more
    than pi between adjacent input samples anywhere in the requested
    output range (the quadrature would then alias, not merely lose
    accuracy).
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
    out = backend.direct_fresnel_sum(
        np.asarray(field, dtype=np.complex128),
        x_in,
        np.asarray(weights, dtype=np.float64),
        x_out,
        0.5 * k / distance,
    )
    prefactor = np.exp(-0.25j * math.pi) / math.sqrt(wavelength * distance)
    return prefactor * out


def fresnel_propagate(
    field: np.ndarray,
    x_in: np.ndarray,
    wavelength: float,
    distance: float,
    x_out: np.ndarray | None = None,
    method: str = "spectral",
    pad_factor: int = 4,
    weights: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Dispatch between the spectral and direct Fresnel routes.

    The spectral method returns its native output grid (``x_out`` must be
    None); the direct method evaluates at the caller's ``x_out``.
    """
    x_in = np.asarray(x_in, dtype=np.float64)
    if x_in.size < 2:
        raise ValueError("need at least two input samples")
    spacing = float(x_in[1] - x_in[0])
    if method == "spectral":
        if x_out is not None:
            raise ValueError("spectral method defines its own output grid")
        return propagate_spectral(field, spacing, wavelength, distance, float(x_in[0]), pad_factor)
    if method == "direct":
        if x_out is None:
            raise ValueError("direct method requires explicit output points")
        if weights is None:
            weights = midpoint_weights(x_in.size, spacing)
        return np.asarray(x_out, dtype=np.float64), propagate_direct(
            field, x_in, weights, wavelength, distance, x_out
        )
    raise ValueError(f"unknown method {method!r}")
