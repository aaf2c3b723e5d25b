"""Physical constants, molecule data and the unit conversions built on them.

All quantities are SI unless a name says otherwise.  Polarizabilities are
carried around in the "volume" convention (cubic angstroms) customary for
molecular beams, and converted to SI (C m^2/V) only at the point of use.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

# SI defining constants (CODATA 2018).  h is stored as 2*pi*hbar so that the
# pair is exactly consistent in floating point; the stored h differs from the
# defined 6.62607015e-34 by at most one ulp.
HBAR = 6.62607015e-34 / (2.0 * math.pi)  # J s
H = 2.0 * math.pi * HBAR  # J s
C_LIGHT = 2.99792458e8  # m / s
EPS0 = 8.8541878128e-12  # F / m
AMU = 1.66053906660e-27  # kg

# 4*pi*eps0 converts a polarizability volume (m^3) to SI units (C m^2 / V).
FOUR_PI_EPS0 = 4.0 * math.pi * EPS0  # F / m
ANGSTROM3 = 1e-30  # m^3


# A config comment starts at '#' or ';' at a line's start or after whitespace.
COMMENT = re.compile(r"(?:^|(?<=\s))[#;]")


def check_one_line(name: str, value: str) -> None:
    """Raise ValueError unless ``key = value`` reads back as ``value`` from a config file.

    The INI reader strips blanks, ends a value at a line break, and takes
    '#' or ';' after whitespace (the blank after '=' included) for an
    inline comment (``COMMENT``).
    """
    line_break = value.splitlines() not in ([], [value])
    if value != value.strip() or line_break or COMMENT.search(value):
        raise ValueError(
            f"{name} {value!r} would not read back from a config file: it must not "
            "start or end with whitespace, hold a line break, or hold '#' or ';' at "
            "its start or after whitespace"
        )


@dataclass(frozen=True)
class ComplexPolarizability:
    """Complex optical polarizability in the volume convention.

    Parameters
    ----------
    real_volume : float
        Real part in cubic angstroms.  Drives the dipole phase.
    imag_volume : float
        Imaginary part in cubic angstroms, >= 0.  Drives photon absorption.
    """

    real_volume: float
    imag_volume: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.real_volume) and math.isfinite(self.imag_volume)):
            raise ValueError("polarizability must be finite")
        if self.imag_volume < 0.0:
            raise ValueError("imaginary polarizability must be >= 0")

    @property
    def si(self) -> complex:
        """Polarizability in SI units (C m^2 / V)."""
        return FOUR_PI_EPS0 * ANGSTROM3 * complex(self.real_volume, self.imag_volume)


@dataclass(frozen=True)
class MoleculeSpecies:
    """A molecule with the two properties the model needs: mass and alpha."""

    name: str
    mass_amu: float
    polarizability: ComplexPolarizability

    def __post_init__(self) -> None:
        # a config file stores the name as ``name = <name>``
        check_one_line("species.name", self.name)
        if not self.mass_amu > 0.0:
            raise ValueError("mass must be positive")

    @property
    def mass_kg(self) -> float:
        return self.mass_amu * AMU


# Literature values for the fullerene test molecules at 514.5 nm.
C60 = MoleculeSpecies("C60", 720.0, ComplexPolarizability(101.0, 8.0))
C70 = MoleculeSpecies("C70", 840.0, ComplexPolarizability(118.0, 20.0))

CATALOG = {"C60": C60, "C70": C70}


def polarizability_si(pol: ComplexPolarizability) -> complex:
    """Convert a volume-convention polarizability to SI units."""
    return pol.si


def absorption_cross_section(species: MoleculeSpecies, k_laser: float) -> float:
    """Photon absorption cross section sigma = Im(alpha_SI) * k / eps0, in m^2.

    Parameters
    ----------
    species : MoleculeSpecies
    k_laser : float
        Laser wavenumber 2*pi/lambda in 1/m, > 0.
    """
    if not k_laser > 0.0:
        raise ValueError("wavenumber must be positive")
    return species.polarizability.si.imag * k_laser / EPS0


def de_broglie_wavelength(species: MoleculeSpecies, velocity: float) -> float:
    """Matter-wave wavelength h / (M v) in metres for a forward velocity v > 0."""
    if not velocity > 0.0:
        raise ValueError("velocity must be positive")
    return H / (species.mass_kg * velocity)
