"""Acceptance gate: ten end-to-end checks against published numbers.

Each test prints one ``ACCEPTANCE <n> PASS/FAIL`` line (run with ``-s`` to
see them) and then asserts.  The expensive ensemble patterns are shared
through module-scoped fixtures, so the whole gate stays well under two
minutes.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.special

from lightgrating.beamline import ensemble_pattern, order_slot_spacing, pattern_metrics
from lightgrating.config import SimulationConfig
from lightgrating.distributions import VerticalProfile, vertical_phi_scales
from lightgrating.grating import (
    ComplexPhase,
    GratingBeam,
    GridSpec,
    ParityRows,
    compute_phi,
    truncation_order,
)
from lightgrating.orders import (
    _order_power,
    absorbed_fractions,
    incoherent_order_intensities,
)
from lightgrating.runner import run_simulate
from lightgrating.species import CATALOG, C60, C70, absorption_cross_section
from oracles import channel_set, mean_photon_number, peak_positions, period


def report(index: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {index:2d} {status} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def null_power() -> float:
    phi_unit = compute_phi(C60, GratingBeam(power=1.0), 120.0)
    return scipy.special.jn_zeros(0, 1)[0] / phi_unit.re


@pytest.fixture(scope="module")
def near_null_pattern(null_power):
    cfg = SimulationConfig()
    cfg = replace(cfg, beam=replace(cfg.beam, power=null_power))
    return cfg, ensemble_pattern(cfg)


@pytest.fixture(scope="module")
def default_patterns():
    """Wave- and orders-mode patterns at the default configuration."""
    out = {}
    for name in ("C60", "C70"):
        cfg = SimulationConfig()
        cfg = replace(cfg, species=CATALOG[name])
        wave = ensemble_pattern(cfg)
        orders = ensemble_pattern(replace(cfg, run=replace(cfg.run, mode="orders")))
        out[name] = (cfg, wave, orders)
    return out


def test_01_bessel_oracle_equivalence():
    worst = 0.0
    for phi_re in (0.5, 1.0, 2.0, 2.40483):
        spectrum = incoherent_order_intensities(ComplexPhase(phi_re, 0.0), 20, 1e-10)
        for j in range(6):
            diff = abs(spectrum.intensity(2 * j) - scipy.special.jv(j, phi_re) ** 2)
            worst = max(worst, diff)
    report(1, worst < 1e-6, f"max |I_2j - J_j^2| = {worst:.3e} (< 1e-6)")


def test_02_zero_order_suppression(near_null_pattern, null_power):
    root = scipy.special.jn_zeros(0, 1)[0]
    root_ok = abs(root - 2.40483) < 1e-4
    cfg, pattern = near_null_pattern
    slot = order_slot_spacing(cfg.species, cfg.velocity.v_peak, cfg.beam, cfg.geometry)
    central = pattern_metrics(pattern, slot).efficiencies[0]
    ok = root_ok and central < 0.05
    report(
        2,
        ok,
        f"null phase {root:.6f}, central efficiency {central:.6f} "
        f"at {null_power:.3f} W (< 0.05)",
    )


def test_03_first_order_efficiency(near_null_pattern):
    cfg, pattern = near_null_pattern
    spacing = 2.0 * order_slot_spacing(
        cfg.species, cfg.velocity.v_peak, cfg.beam, cfg.geometry
    )
    eff = pattern_metrics(pattern, spacing).efficiencies
    ok = 0.20 <= eff[1] <= 0.30 and 0.20 <= eff[-1] <= 0.30
    report(
        3,
        ok,
        f"first-order efficiency {eff[1]:.6f} / {eff[-1]:.6f} (within [0.20, 0.30])",
    )


def test_04_two_photon_absorption_fractions():
    scales, weights = vertical_phi_scales(VerticalProfile(), 16)
    frac60 = absorbed_fractions(compute_phi(C60, GratingBeam(), 120.0), 2, scales, weights)[2]
    frac70 = absorbed_fractions(compute_phi(C70, GratingBeam(), 120.0), 2, scales, weights)[2]
    ok = abs(frac60 - 0.04) <= 0.02 and abs(frac70 - 0.12) <= 0.03
    report(
        4,
        ok,
        f"two-photon fraction C60 {frac60:.4f} (0.04+-0.02), "
        f"C70 {frac70:.4f} (0.12+-0.03)",
    )


def test_05_absorption_cross_sections():
    k_laser = GratingBeam().k_laser
    sigma60 = absorption_cross_section(C60, k_laser) * 1e4  # cm^2
    sigma70 = absorption_cross_section(C70, k_laser) * 1e4
    ok = abs(sigma60 / 1.2e-17 - 1.0) < 0.05 and abs(sigma70 / 3.1e-17 - 1.0) < 0.05
    report(
        5,
        ok,
        f"sigma C60 {sigma60:.3e} cm^2 (1.2e-17 +-5%), "
        f"C70 {sigma70:.3e} cm^2 (3.1e-17 +-5%)",
    )


def test_06_channel_intensity_conservation():
    phis = [
        ComplexPhase(0.5, 0.0),
        ComplexPhase(2.40483, 0.0),
        ComplexPhase(1.0, 0.1),
        compute_phi(C60, GratingBeam(), 120.0),
        compute_phi(C70, GratingBeam(), 120.0),
    ]
    worst = 0.0
    for phi in phis:
        total = incoherent_order_intensities(phi, 20, 1e-10).total
        worst = max(worst, abs(total - 1.0))
    report(6, worst < 1e-6, f"max |sum I - 1| = {worst:.3e} (< 1e-6)")


def test_07_parity_selection_rule():
    phi = compute_phi(C70, GratingBeam(), 120.0)  # strongest absorption
    spp = 64
    grid = GridSpec(periods=2, samples_per_period=spp, wavelength=GratingBeam().wavelength)
    m_max = 20
    orders = np.arange(-m_max, m_max + 1)
    worst = 0.0
    for channel in channel_set(phi, grid):
        # the channel per |c| with the parity of its photon number; the
        # selection rule is read off the FFT of the period it spreads to
        rows = ParityRows(
            channel.samples[None, spp : spp + spp // 2], np.array([channel.photon_count % 2 == 1])
        )
        spread = period(rows)[0]
        assert np.max(np.abs(spread - channel.samples)) < 1e-14
        power = np.abs(np.fft.fft(spread)[orders % spread.size] / spread.size) ** 2
        assert np.max(np.abs(_order_power(rows, m_max)[0] - power)) < 1e-13
        forbidden = (orders % 2) != (channel.photon_count % 2)
        leak = float(np.max(power[forbidden]))
        worst = max(worst, leak)
    report(7, worst < 1e-10, f"max forbidden-parity leakage = {worst:.3e} (< 1e-10)")


def test_08_mode_cross_validation(default_patterns):
    details = []
    ok = True
    for name, (cfg, wave, orders) in default_patterns.items():
        slot = order_slot_spacing(cfg.species, cfg.velocity.v_peak, cfg.beam, cfg.geometry)
        principal = 2.0 * slot

        peaks = peak_positions(wave, principal)
        peak_err = max(abs(pos - m * principal) for m, pos in peaks.items())
        ok = ok and len(peaks) >= 3 and peak_err <= 2e-6

        mw = pattern_metrics(wave, slot).efficiencies
        mo = pattern_metrics(orders, slot).efficiencies
        weight_err = max(abs(mw[m] - mo[m]) for m in set(mw) & set(mo))
        ok = ok and weight_err < 0.05

        details.append(
            f"{name}: peak error {peak_err * 1e6:.3f} um (<= 2), "
            f"weight error {weight_err:.4f} (< 0.05)"
        )
    report(8, ok, "; ".join(details))


def test_09_mean_photon_number_identity():
    grid = GridSpec(periods=4, samples_per_period=64, wavelength=GratingBeam().wavelength)
    k_laser = 2.0 * math.pi / grid.wavelength
    worst = 0.0
    for phi in (
        ComplexPhase(1.0, 0.05),
        compute_phi(C60, GratingBeam(), 120.0),
        compute_phi(C70, GratingBeam(), 120.0),
    ):
        average = float(np.mean(mean_photon_number(phi, grid.positions(), k_laser)))
        worst = max(worst, abs(average - 2.0 * phi.im))
    report(9, worst < 1e-9, f"max |<nbar> - 2 Im(phi)| = {worst:.3e} (< 1e-9)")


def test_10_deterministic_output(tmp_path):
    text = (
        "[geometry]\ndetector_span_um = 120\n\n"
        "[quadrature]\nvelocity_nodes = 4\nvertical_nodes = 2\nsource_nodes = 4\n"
    )
    from lightgrating.config import parse_config

    cfg = parse_config(text)
    blobs = []
    for label, workers in (("first", 1), ("second", 1), ("threaded", 4)):
        out = tmp_path / label
        sub = replace(cfg, run=replace(cfg.run, workers=workers))
        run_simulate(sub, out)
        blobs.append((out / "run_pattern.csv").read_bytes())
    ok = blobs[0] == blobs[1] == blobs[2]
    report(
        10,
        ok,
        f"pattern CSV bit-identical across repeats and worker counts "
        f"({len(blobs[0])} bytes)",
    )
