"""The numerical error budget of the default configs, as tests.

Each row of the budget is one approximation.  Its test computes the
pattern's largest deviation, as a fraction of the peak, from a reference
that is converged in that one approximation, with every other setting
unchanged, and asserts that it stays at or below the row's bound.  The
reference is checked too: another reference, one step less refined, must
agree with it to within a tenth of the bound, or the test fails and says
that the reference is not converged.
"""

import functools
from dataclasses import replace

import numpy as np
import pytest

from lightgrating.beamline import ensemble_pattern
from lightgrating.config import SimulationConfig
from lightgrating.grating import GratingBeam
from lightgrating.species import C70

CONFIGS = {
    "c60-9.5W": replace(SimulationConfig(), beam=GratingBeam(power=9.5)),
    "c70-50W": replace(SimulationConfig(), species=C70, beam=GratingBeam(power=50.0)),
}


def deviation(pattern: np.ndarray, reference: np.ndarray) -> float:
    """The largest deviation of ``pattern`` from ``reference``, over its peak."""
    return float(np.max(np.abs(pattern - reference)) / np.max(reference))


@functools.cache
def with_nodes(cfg: SimulationConfig, axis: str, nodes: int) -> np.ndarray:
    """The intensity of ``cfg`` with ``nodes`` nodes on the quadrature ``axis``.

    Cached for the module, so that rows sharing a reference compute it once.
    """
    quadrature = replace(cfg.quadrature, **{axis: nodes})
    return ensemble_pattern(replace(cfg, quadrature=quadrature)).intensity


def check_row(cfg: SimulationConfig, axis: str, nodes: int, references: tuple, bound: float):
    """Assert the budget row of ``axis`` at ``nodes``, against the finest of ``references``."""
    coarser, finest = (with_nodes(cfg, axis, n) for n in references)
    error = deviation(coarser, finest)
    assert error <= 0.1 * bound, (
        f"the reference is not converged: {axis} = {references[0]} and {references[1]} "
        f"differ by {error:.2g} of the peak, above a tenth of the bound {bound:g}"
    )
    assert deviation(with_nodes(cfg, axis, nodes), finest) <= bound


@pytest.mark.parametrize("config, bound", [("c60-9.5W", 4e-4), ("c70-50W", 2e-4)])
def test_source_midpoint_rule_at_16_nodes(config, bound):
    # measured 3.1e-4 and 1.9e-4; the reference agrees with 512 nodes to
    # 2.3e-7 and 1.4e-7
    check_row(CONFIGS[config], "source_nodes", 16, (512, 1024), bound)


def test_velocity_midpoint_rule_at_16_nodes():
    # measured 3.81e-3; the reference agrees with 64 nodes to 1.2e-5.  C60's
    # row (6e-6) is no test: its references at 64, 128 and 256 nodes differ
    # by about 4e-6, more than its 16-node deviation of 3.3e-6
    check_row(CONFIGS["c70-50W"], "velocity_nodes", 16, (64, 128), 4e-3)


@pytest.mark.parametrize("config, bound", [("c60-9.5W", 1e-3), ("c70-50W", 4e-2)])
def test_velocity_midpoint_rule_at_8_nodes(config, bound):
    # the rule of the scan-c70 benchmark: measured 9.92e-4 and 3.3e-2; the
    # references agree to 4.2e-6 and 1.2e-5.  The C60 margin is under 1%:
    # a change that moves that pattern by 1e-5 of its peak may fail here.
    check_row(CONFIGS[config], "velocity_nodes", 8, (64, 128), bound)


@pytest.mark.parametrize(
    "config, references, bound", [("c60-9.5W", (128, 256), 6e-9), ("c70-50W", (64, 128), 3e-4)]
)
def test_vertical_midpoint_rule_at_16_nodes(config, references, bound):
    # measured 5.06e-9 and 2.32e-4; the references agree to 1.3e-10 and 2.7e-9
    check_row(CONFIGS[config], "vertical_nodes", 16, references, bound)
