"""The three range checks, and the function arguments that go through them."""

import math
import re

import numpy as np
import pytest

from lightgrating.beamline import (
    BeamlineGeometry,
    DiffractionPattern,
    order_slot_spacing,
    pattern_metrics,
)
from lightgrating.distributions import DetectorModel, check_nodes, detector_kernel
from lightgrating.grating import (
    ComplexPhase,
    GratingBeam,
    channel_amplitudes,
    compute_phi,
    effective_channels,
    raman_nath_diagnostic,
    truncation_order,
)
from lightgrating.orders import absorbed_fractions, samples_per_laser_period, tail_order
from lightgrating.species import (
    C60,
    absorption_cross_section,
    check_count,
    check_nonnegative,
    check_positive,
    de_broglie_wavelength,
)

PHI = ComplexPhase(1.0, 0.1)
PATTERN = DiffractionPattern(np.linspace(-10e-6, 10e-6, 11), np.ones(11))


class TestHelpers:
    @pytest.mark.parametrize("value", [1e-320, 1.0, 1.7e308, 3])
    def test_positive_accepts(self, value):
        check_positive("x", value)

    @pytest.mark.parametrize(
        "value, message",
        [
            (0.0, "x must be positive"),
            (-0.0, "x must be positive"),
            (-1.0, "x must be positive"),
            (-math.inf, "x must be positive"),
            (math.nan, "x must be positive"),
            (math.inf, "x must be finite"),
        ],
    )
    def test_positive_refuses(self, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check_positive("x", value)

    @pytest.mark.parametrize("value", [0.0, -0.0, 1e-320, 2.0, 0])
    def test_nonnegative_accepts(self, value):
        check_nonnegative("x", value)

    @pytest.mark.parametrize(
        "value, message",
        [
            (-1e-320, "x must be >= 0"),
            (-math.inf, "x must be finite"),
            (math.nan, "x must be finite"),
            (math.inf, "x must be finite"),
        ],
    )
    def test_nonnegative_refuses(self, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check_nonnegative("x", value)

    @pytest.mark.parametrize("value, least", [(1, 1), (0, 0), (2**70, 1), (np.int64(3), 2)])
    def test_count_accepts_integers(self, value, least):
        check_count("n", value, least)

    @pytest.mark.parametrize("value", [2.5, 3.0, np.float64(3.0), True, False, "3", None])
    def test_count_refuses_what_is_no_integer(self, value):
        message = f"^n must be an integer, not {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=message):
            check_count("n", value, 0)

    @pytest.mark.parametrize("value, least", [(0, 1), (-1, 0), (1, 2)])
    def test_count_refuses_too_few(self, value, least):
        with pytest.raises(ValueError, match=f"^n must be >= {least}$"):
            check_count("n", value, least)


# (name in the message, a call of the argument's value), one per function argument
FLOAT_ARGUMENTS = [
    ("velocity", lambda v: de_broglie_wavelength(C60, v)),
    ("velocity", lambda v: order_slot_spacing(C60, v, GratingBeam(), BeamlineGeometry())),
    ("velocity", lambda v: compute_phi(C60, GratingBeam(), v)),
    ("velocity", lambda v: raman_nath_diagnostic(C60, GratingBeam(), v, PHI)),
    ("tail_eps", lambda eps: truncation_order(PHI, eps)),
    ("tail_eps", lambda eps: effective_channels([PHI], 16, [1.0], [1.0], eps)),
    ("tail_eps", lambda eps: tail_order(PHI, eps)),
    ("tail_eps", lambda eps: samples_per_laser_period(PHI, 20, eps)),
    ("wavenumber", lambda k: absorption_cross_section(C60, k)),
    ("spacing", lambda spacing: pattern_metrics(PATTERN, spacing)),
    ("grid_step", lambda step: detector_kernel(DetectorModel(), step)),
]
COUNT_ARGUMENTS = [
    ("n_max", lambda n: channel_amplitudes(PHI, n, 1e7, np.zeros(3))),
    ("n_max", lambda n: absorbed_fractions(PHI, n)),
    ("n_nodes", lambda n: check_nodes("the rule", n)),
]


class TestFunctionArguments:
    """A length, rate or tolerance argument is finite and positive; a count is an integer."""

    @pytest.mark.parametrize("name, call", FLOAT_ARGUMENTS)
    def test_a_float_argument_out_of_range_is_refused(self, name, call):
        # before, an infinite one ran: 0 m for the wavelength at an infinite velocity
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            call(math.inf)
        for value in (-math.inf, math.nan, 0.0, -1.0):
            with pytest.raises(ValueError, match=f"^{name} must be positive$"):
                call(value)

    @pytest.mark.parametrize("value", [2.5, 3.0])
    @pytest.mark.parametrize("name, call", COUNT_ARGUMENTS)
    def test_a_count_argument_that_is_no_integer_is_refused(self, name, call, value):
        # before, 2.5 nodes ran a rule and 3.0 photons raised a TypeError
        with pytest.raises(ValueError, match=f"^{name} must be an integer, not {value!r}$"):
            call(value)


class TestPhase:
    def test_the_phase_is_passive_and_finite(self):
        with pytest.raises(ValueError, match=r"^Im\(Phi\) must be >= 0 for a passive grating$"):
            ComplexPhase(1.0, -1e-300)
        for im in (math.inf, math.nan):
            with pytest.raises(ValueError, match=r"^Im\(Phi\) must be finite$"):
                ComplexPhase(1.0, im)

    def test_a_power_whose_phase_overflows_is_refused(self):
        # at 1e300 W the phase overflowed to inf, and a run died with an
        # OverflowError in truncation_order
        with pytest.raises(ValueError, match=r"^Im\(Phi\) must be finite$"):
            compute_phi(C60, GratingBeam(power=1e300), 120.0)
