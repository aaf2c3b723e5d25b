"""Diffraction of polarizable molecules at a thin standing-light-wave grating.

The model is parameter free: molecule mass, complex optical polarizability,
laser power and geometry fully determine the far-field diffraction pattern,
including the photon-absorption channels that populate odd diffraction
orders.
"""

from .species import (
    C60,
    C70,
    CATALOG,
    ComplexPolarizability,
    MoleculeSpecies,
    absorption_cross_section,
    de_broglie_wavelength,
    polarizability_si,
)
from .grating import (
    ComplexPhase,
    GratingBeam,
    GridSpec,
    compute_phi,
    poisson_weight,
    raman_nath_diagnostic,
    truncation_order,
)
from .orders import OrderSpectrum, absorbed_fractions, incoherent_order_intensities
from .distributions import DetectorModel, VelocityDistribution, VerticalProfile
from .beamline import (
    BeamlineGeometry,
    DiffractionPattern,
    compare_patterns,
    ensemble_pattern,
    ensemble_patterns,
    order_slot_spacing,
    pattern_metrics,
)
from .config import (
    ConfigError,
    SimulationConfig,
    config_digest,
    load_config_file,
    parse_config,
    serialize_config,
)
from .runner import read_pattern_csv, run_simulate, summarize, write_pattern_csv

__version__ = "0.1.0"

__all__ = [
    "C60",
    "C70",
    "CATALOG",
    "ComplexPolarizability",
    "MoleculeSpecies",
    "absorption_cross_section",
    "de_broglie_wavelength",
    "polarizability_si",
    "ComplexPhase",
    "GratingBeam",
    "GridSpec",
    "compute_phi",
    "poisson_weight",
    "raman_nath_diagnostic",
    "truncation_order",
    "OrderSpectrum",
    "absorbed_fractions",
    "incoherent_order_intensities",
    "DetectorModel",
    "VelocityDistribution",
    "VerticalProfile",
    "BeamlineGeometry",
    "DiffractionPattern",
    "compare_patterns",
    "ensemble_pattern",
    "ensemble_patterns",
    "order_slot_spacing",
    "pattern_metrics",
    "ConfigError",
    "SimulationConfig",
    "config_digest",
    "load_config_file",
    "parse_config",
    "serialize_config",
    "read_pattern_csv",
    "run_simulate",
    "summarize",
    "write_pattern_csv",
    "__version__",
]
