"""NumPy implementations of the hot kernels.

Absorption-channel sampling and in-place |psi|^2 accumulation.  The
direct Fresnel quadrature that checks the spectral propagator is a test
oracle, in ``tests/oracles.py``.
"""

from __future__ import annotations

import numpy as np

# Largest 2 Im(Phi) at which exp(-2 Im(Phi)), the antinode value that
# ``sample_channels`` starts its recursion from, is still a normal float.
MAX_ANTINODE_LOSS = -float(np.log(np.finfo(np.float64).tiny))


def backend_name() -> str:
    """The kernel implementation in use; always ``"python"`` (NumPy)."""
    return "python"


def sample_channels(
    phi_re: float, phi_im: float, n_max: int, k_laser: float, x: np.ndarray
) -> np.ndarray:
    """Sample the absorption-channel transmission functions on a grid.

    Returns a complex array of shape ``(n_max + 1, len(x))`` whose row ``n``
    is the amplitude for molecules that absorbed exactly ``n`` photons:

        t_n(x) = exp((2j*phi_re - 2*phi_im) * cos^2(k x))
                 * (4*phi_im)^(n/2) * cos(k x)^n / sqrt(n!)

    Row 0 is the bare dipole phase imprint with its absorption-loss
    envelope; each further photon multiplies by ``2*sqrt(phi_im)*cos(k x)``
    and divides by ``sqrt(n)``, which keeps the recursion stable for any
    ``phi_im >= 0`` (including 0, where all n >= 1 rows vanish).  Above
    2*phi_im = ``MAX_ANTINODE_LOSS`` (about 708) row 0 underflows at the
    antinode and the rows lose the probability there, so that is refused.
    """
    if 2.0 * phi_im > MAX_ANTINODE_LOSS:
        raise ValueError(
            f"2 Im(Phi) = {2.0 * phi_im:.4g} exceeds {MAX_ANTINODE_LOSS:.4g}: "
            "exp(-2 Im(Phi)) underflows at the antinode, so the photon-number "
            "channels cannot be sampled"
        )
    x = np.asarray(x, dtype=np.float64)
    c = np.cos(k_laser * x)
    c2 = c * c
    out = np.empty((n_max + 1, x.size), dtype=np.complex128)
    out[0] = np.exp((2j * phi_re - 2.0 * phi_im) * c2)
    step = 2.0 * np.sqrt(phi_im) * c
    for n in range(1, n_max + 1):
        out[n] = out[n - 1] * (step / np.sqrt(n))
    return out


def accumulate_weighted_abs2(fields: np.ndarray, weight: float, out: np.ndarray) -> None:
    """Add ``weight * sum_rows |fields|^2`` into ``out`` in place.

    The complex rows are read as interleaved (re, im) float64 pairs, so one
    einsum sums re^2 and im^2 down the rows without a temporary per row.
    """
    flat = np.ascontiguousarray(fields, dtype=np.complex128).view(np.float64)
    s = np.einsum("ij,ij->j", flat, flat)
    out += weight * (s[0::2] + s[1::2])

