"""Beamline geometry, single-source patterns, and ensemble averaging."""

import math
import warnings
from contextlib import nullcontext
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import lightgrating.beamline
import lightgrating.grating
import lightgrating.orders
from lightgrating import backend
from lightgrating.beamline import (
    _envelope_sum,
    _finalize,
    _internal_grid,
    _wave_velocity_slice,
    BeamlineGeometry,
    DiffractionPattern,
    aperture_mask,
    compare_patterns,
    ensemble_pattern,
    ensemble_patterns,
    farfield_peak_positions,
    geometric_envelope,
    grating_window,
    order_slot_spacing,
    pattern_metrics,
    peak_positions,
    point_source_pattern,
    source_quadrature,
)
from lightgrating.config import QuadratureSpec, SimulationConfig
from lightgrating.distributions import (
    DetectorModel,
    VelocityDistribution,
    detector_kernel,
    velocity_quadrature,
    vertical_phi_scales,
)
from lightgrating.grating import (
    ComplexPhase,
    GratingBeam,
    channel_set,
    compute_phi,
    effective_channels,
)
from lightgrating.orders import incoherent_order_intensities
from lightgrating.propagation import next_pow2
from lightgrating.species import C60, C70, de_broglie_wavelength

GEOM = BeamlineGeometry()


def fast_config(**overrides):
    """Default configuration with a light quadrature for quick ensembles."""
    cfg = SimulationConfig()
    cfg = replace(cfg, quadrature=QuadratureSpec(4, 2, 4))
    for key, value in overrides.items():
        cfg = replace(cfg, **{key: value})
    return cfg


class TestGeometry:
    def test_validation(self):
        with pytest.raises(ValueError):
            BeamlineGeometry(slit1=0.0)
        with pytest.raises(ValueError):
            BeamlineGeometry(L12=-1.0)
        with pytest.raises(ValueError):
            BeamlineGeometry(detector_span=0.0)

    def test_order_slot_spacing(self):
        slot = order_slot_spacing(C60, 120.0, GratingBeam(), GEOM)
        assert slot == pytest.approx(10.771819226520886e-6, rel=1e-12)

    def test_farfield_positions_are_even_ladder(self):
        positions = farfield_peak_positions(C60, 120.0, GratingBeam(), GEOM, m_max=3)
        slot = order_slot_spacing(C60, 120.0, GratingBeam(), GEOM)
        expected = 2.0 * slot * np.arange(-3, 4)
        assert np.allclose(positions, expected, rtol=1e-12)

    def test_principal_spacing_per_species(self):
        slot60 = order_slot_spacing(C60, 120.0, GratingBeam(), GEOM)
        slot70 = order_slot_spacing(C70, 120.0, GratingBeam(), GEOM)
        assert 2.0 * slot60 == pytest.approx(21.5e-6, abs=0.1e-6)
        assert 2.0 * slot70 == pytest.approx(18.5e-6, abs=0.1e-6)

    def test_spacing_scales_inverse_velocity(self):
        assert order_slot_spacing(C60, 60.0, GratingBeam(), GEOM) == pytest.approx(
            2.0 * order_slot_spacing(C60, 120.0, GratingBeam(), GEOM), rel=1e-12
        )


class TestGeometricEnvelope:
    def fine_grid(self, half=30e-6, step=1e-9):
        return np.arange(-half, half + step / 2, step)

    def test_unit_area(self):
        x = self.fine_grid()
        env = geometric_envelope(GEOM, x)
        assert float(np.trapezoid(env, x)) == pytest.approx(1.0, abs=1e-6)

    def test_penumbra_width(self):
        # full base width = s2 + (s1 + s2) * L2D / L12
        x = self.fine_grid()
        env = geometric_envelope(GEOM, x)
        support = x[env > 0.0]
        expected = 5e-6 + 12e-6 * GEOM.L2D / GEOM.L12
        assert support[-1] - support[0] == pytest.approx(expected, abs=5e-9)
        assert expected == pytest.approx(17.7e-6, abs=0.1e-6)

    def test_umbra_width(self):
        # flat top width = s2 - (s1 - s2) * L2D / L12
        x = self.fine_grid()
        env = geometric_envelope(GEOM, x)
        flat = x[env >= env.max() * (1.0 - 1e-9)]
        expected = 5e-6 - 2e-6 * GEOM.L2D / GEOM.L12
        assert flat[-1] - flat[0] == pytest.approx(expected, abs=5e-9)
        assert expected == pytest.approx(2.9e-6, abs=0.1e-6)

    def test_degenerate_distance_is_tophat(self):
        geom = BeamlineGeometry(L2D=1e-12)
        x = self.fine_grid(half=5e-6)
        env = geometric_envelope(geom, x)
        support = x[env > 0.0]
        assert support[-1] - support[0] == pytest.approx(5e-6, abs=1e-8)
        inner = env[np.abs(x) < 2.4e-6]
        assert np.allclose(inner, inner[0], rtol=1e-6)

    def test_symmetric(self):
        x = self.fine_grid()
        env = geometric_envelope(GEOM, x)
        assert np.allclose(env, env[::-1], atol=1e-15)


class TestApertures:
    def test_mask_interior_and_exterior(self):
        x = np.arange(-16, 17) * 0.5e-6
        mask = aperture_mask(x, 0.5e-6, 5e-6)
        assert np.allclose(mask[np.abs(x) < 2e-6], 1.0, rtol=1e-12)
        assert np.all(mask[np.abs(x) > 3e-6] == 0.0)

    def test_mask_conserves_width(self):
        spacing = 0.3e-6
        x = (np.arange(-40, 41) + 0.121) * spacing  # deliberately offset grid
        mask = aperture_mask(x, spacing, 5e-6)
        assert float(mask.sum() * spacing) == pytest.approx(5e-6, rel=1e-9)
        assert np.all((mask >= 0.0) & (mask <= 1.0))

    def test_grating_window_default(self):
        grid, mask = grating_window(GratingBeam(), GEOM, 64)
        # window must cover slit2 plus two wavelengths margin each side,
        # rounded up to an even number of half-wavelength periods
        assert grid.periods == 28
        assert grid.samples_per_period == 64
        assert grid.window > 5e-6 + 4 * 514.5e-9 - grid.period
        x = grid.positions()
        assert float(mask.sum() * grid.spacing) == pytest.approx(5e-6, rel=1e-9)
        assert np.all(mask[np.abs(x) > 2.6e-6] == 0.0)

    def test_source_quadrature(self):
        nodes, weights = source_quadrature(GEOM, 8)
        assert nodes.size == 8
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.abs(nodes) < 3.5e-6)
        assert np.allclose(nodes, -nodes[::-1], atol=1e-20)


class TestPointSourcePattern:
    WAVELENGTH = de_broglie_wavelength(C60, 120.0)

    def channels(self, phi):
        grid, mask = grating_window(GratingBeam(), GEOM, 64)
        return channel_set(phi, grid), mask

    def test_laser_off_gives_slit_pattern(self):
        channels, _ = self.channels(ComplexPhase(0.0, 0.0))
        x, intensity = point_source_pattern(0.0, self.WAVELENGTH, channels, GEOM)
        assert np.all(intensity >= 0.0)
        # single-slit pattern: one broad central structure, most power within
        # the ballistic shadow + first Fresnel oscillation scale
        total = intensity.sum()
        central = intensity[np.abs(x) < 10e-6].sum()
        assert central / total > 0.9

    def test_on_axis_pattern_even(self):
        channels, _ = self.channels(compute_phi(C60, GratingBeam(), 120.0))
        x, intensity = point_source_pattern(0.0, self.WAVELENGTH, channels, GEOM)
        # native FFT grid has one more negative sample than positive
        sel = np.abs(x) <= 100e-6
        xs, ys = x[sel], intensity[sel]
        assert xs[0] == pytest.approx(-xs[-1], rel=1e-12)
        assert np.max(np.abs(ys - ys[::-1])) / ys.max() < 1e-9

    def test_off_axis_source_rejected(self):
        channels, _ = self.channels(ComplexPhase(0.0, 0.0))
        with pytest.raises(ValueError):
            point_source_pattern(4e-6, self.WAVELENGTH, channels, GEOM)


class TestEnsembleWaveMode:
    def test_pattern_shape_and_grid(self):
        cfg = fast_config()
        pattern = ensemble_pattern(cfg)
        assert pattern.positions[0] == pytest.approx(-150e-6, abs=1e-9)
        assert pattern.positions[-1] == pytest.approx(150e-6, abs=1e-9)
        assert pattern.step == pytest.approx(2e-6, rel=1e-12)
        assert np.all(pattern.intensity >= 0.0)
        assert pattern.intensity.sum() == pytest.approx(1.0, rel=1e-12)

    def test_symmetry(self):
        pattern = ensemble_pattern(fast_config())
        folded = pattern.intensity - pattern.intensity[::-1]
        assert np.max(np.abs(folded)) / pattern.intensity.max() < 1e-6

    def test_probability_conservation(self):
        pattern = ensemble_pattern(fast_config())
        assert abs(pattern.metadata["total_probability"] - 1.0) < 1e-4
        assert pattern.metadata["scan_coverage"] > 0.99

    def test_peak_normalization_flag(self):
        cfg = fast_config()
        cfg = replace(cfg, run=replace(cfg.run, normalization="peak"))
        pattern = ensemble_pattern(cfg)
        assert pattern.intensity.max() == pytest.approx(1.0, rel=1e-12)
        assert pattern.metadata["normalization"] == "peak"

    def test_metadata_records_phi_per_velocity(self):
        cfg = fast_config()
        pattern = ensemble_pattern(cfg)
        rows = pattern.metadata["phi_per_velocity"]
        assert len(rows) == cfg.quadrature.velocity_nodes
        velocities = [row[0] for row in rows]
        assert velocities == sorted(velocities)
        for velocity, phi_re, phi_im in rows:
            phi = compute_phi(cfg.species, cfg.beam, velocity)
            assert phi_re == pytest.approx(phi.re, rel=1e-12)
            assert phi_im == pytest.approx(phi.im, rel=1e-12)

    def test_deterministic_across_worker_counts(self):
        cfg = fast_config()
        serial = ensemble_pattern(cfg)
        threaded = ensemble_pattern(replace(cfg, run=replace(cfg.run, workers=4)))
        assert np.array_equal(serial.intensity, threaded.intensity)
        assert np.array_equal(serial.positions, threaded.positions)

    def test_grid_resolution_doubling(self):
        cfg = fast_config()
        coarse = ensemble_pattern(cfg)
        fine = ensemble_pattern(
            replace(cfg, numerics=replace(cfg.numerics, samples_per_period=128))
        )
        scale = math.sqrt(float(np.mean(coarse.intensity**2)))
        rms = math.sqrt(float(np.mean((coarse.intensity - fine.intensity) ** 2)))
        assert rms / scale < 0.005

    def test_warns_when_grid_aliases_grating_orders(self):
        # C60 at 100 W: the 1% tail bound at the slowest node is |m| = 86,
        # beyond the orders |m| < 64 that 64 samples per period resolve
        strong = replace(SimulationConfig(), beam=GratingBeam(power=100.0))
        with pytest.warns(UserWarning, match=r"numerics\.samples_per_period = 64"):
            ensemble_pattern(strong)
        finer = replace(strong, numerics=replace(strong.numerics, samples_per_period=128))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ensemble_pattern(finer)

    @pytest.mark.parametrize(
        "species, power", [(C60, 9.5), (C70, 50.0)], ids=["c60-default", "c70-50W"]
    )
    def test_no_aliasing_warning_at_paper_powers(self, species, power):
        cfg = replace(SimulationConfig(), species=species, beam=GratingBeam(power=power))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ensemble_pattern(cfg)

    def test_scaling_law_half_velocity(self):
        # halving the velocity doubles both the phase and the peak spacing
        slow_beam = VelocityDistribution(v_peak=60.0)
        cfg_fast = fast_config(quadrature=QuadratureSpec(1, 1, 8))
        cfg_slow = replace(cfg_fast, velocity=slow_beam)
        phi_fast = compute_phi(C60, cfg_fast.beam, 120.0)
        phi_slow = compute_phi(C60, cfg_slow.beam, 60.0)
        assert phi_slow.re == pytest.approx(2.0 * phi_fast.re, rel=1e-12)
        assert phi_slow.im == pytest.approx(2.0 * phi_fast.im, rel=1e-12)

        spacing_fast = 2.0 * order_slot_spacing(C60, 120.0, cfg_fast.beam, GEOM)
        spacing_slow = 2.0 * order_slot_spacing(C60, 60.0, cfg_slow.beam, GEOM)
        assert spacing_slow == pytest.approx(2.0 * spacing_fast, rel=1e-12)

        peaks_fast = peak_positions(ensemble_pattern(cfg_fast), spacing_fast)
        peaks_slow = peak_positions(ensemble_pattern(cfg_slow), spacing_slow)
        assert 1 in peaks_fast and 1 in peaks_slow
        assert peaks_slow[1] == pytest.approx(2.0 * peaks_fast[1], abs=2 * 2e-6)


def channel_by_channel_slice(cfg, velocity, scales, scale_weights, src_nodes, src_weights):
    """Independent oracle: sum of ``point_source_pattern`` over scales, sources and channels."""
    grid, _ = grating_window(cfg.beam, cfg.geometry, cfg.numerics.samples_per_period)
    wavelength = de_broglie_wavelength(cfg.species, velocity)
    phi = compute_phi(cfg.species, cfg.beam, velocity)
    total = 0.0
    for scale, scale_weight in zip(scales, scale_weights):
        channels = channel_set(phi.scaled(float(scale)), grid, cfg.numerics.tail_eps)
        for source_x, source_weight in zip(src_nodes, src_weights):
            x_out, intensity = point_source_pattern(
                source_x, wavelength, channels, cfg.geometry, cfg.numerics.pad_factor
            )
            total = total + scale_weight * source_weight * intensity
    return x_out, total


def per_source_loop_slice(cfg, velocity, grid, mask, rows, src_nodes, src_weights):
    """Native intensity of one velocity node with one FFT batch per source point.

    The direct form of the incoherent source average: every source point's
    linear phase ramp multiplies the effective rows before their own FFT.
    """
    geom = cfg.geometry
    wavelength = de_broglie_wavelength(cfg.species, velocity)
    k = 2.0 * math.pi / wavelength
    x = grid.positions()
    n_fft = next_pow2(grid.size * cfg.numerics.pad_factor)
    laser_period = 2 * grid.samples_per_period
    base = mask * np.exp(1j * (0.5 * k * (1.0 / geom.L12 + 1.0 / geom.L2D)) * x**2)
    fields = np.tile(rows.period(), (1, grid.size // laser_period)) * base
    out_scale = grid.spacing**2 / (wavelength * geom.L2D)
    intensity = np.zeros(n_fft)
    for source_x, source_weight in zip(src_nodes, src_weights):
        ramp = np.exp(-1j * (k / geom.L12) * source_x * x)
        transform = np.fft.fft(fields * ramp, n=n_fft, axis=-1)
        intensity += source_weight * out_scale * np.sum(np.abs(transform) ** 2, axis=0)
    return np.fft.fftshift(intensity)


class CountingNumpy:
    """Stands in for ``np`` inside a module and counts its calls into ``np.fft``.

    ``transforms`` lists (name, length) of every one-dimensional transform
    in call order: the ``n`` it was asked for, else the length of its axis.
    """

    TRANSFORMS = ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft")

    def __init__(self):
        self.fft_calls = 0
        self.transforms = []
        self.fft = SimpleNamespace(
            **{name: self._counted(name, getattr(np.fft, name)) for name in np.fft.__all__}
        )

    def _counted(self, name, func):
        def counted(*args, **kwargs):
            self.fft_calls += 1
            if name in self.TRANSFORMS:
                length = kwargs.get("n", args[1] if len(args) > 1 else None)
                if length is None:
                    length = np.shape(args[0])[kwargs.get("axis", -1)]
                self.transforms.append((name, length))
            return func(*args, **kwargs)

        return counted

    def __getattr__(self, name):
        return getattr(np, name)


class TestWaveVelocitySlice:
    # asymmetric nodes and weights: a sign error in the source ramp shows
    SOURCES = np.array([-3.1e-6, -0.4e-6, 2.2e-6])
    SOURCE_WEIGHTS = np.array([0.5, 0.2, 0.3])
    # pad 1 leaves n_fft below the 2 N - 1 lags of the field autocorrelation,
    # pad 2 makes it the lag length, pad 8 puts it above
    PAD_FACTORS = (1, 2, 4, 8)

    def check_against_oracle(self, cfg, velocity, vertical_nodes):
        scales, scale_weights = vertical_phi_scales(cfg.vertical, vertical_nodes)
        grid, mask = grating_window(cfg.beam, cfg.geometry, cfg.numerics.samples_per_period)
        for pad_factor in self.PAD_FACTORS:
            cfg = replace(cfg, numerics=replace(cfg.numerics, pad_factor=pad_factor))
            phi = compute_phi(cfg.species, cfg.beam, velocity)
            (rows,), (dropped,) = effective_channels(
                [phi], grid.samples_per_period, scales, scale_weights, cfg.numerics.tail_eps
            )
            x, (intensity,), power_in, _ = _wave_velocity_slice(
                cfg, velocity, grid, mask, [rows], self.SOURCES, self.SOURCE_WEIGHTS
            )
            x_ref, reference = channel_by_channel_slice(
                cfg, velocity, scales, scale_weights, self.SOURCES, self.SOURCE_WEIGHTS
            )
            assert x.size == next_pow2(grid.size * pad_factor)
            assert np.array_equal(x, x_ref)
            assert np.max(np.abs(intensity - reference)) <= 1e-9 * reference.max()
            mirrored = channel_by_channel_slice(
                cfg, velocity, scales, scale_weights, -self.SOURCES, self.SOURCE_WEIGHTS
            )[1]
            assert np.max(np.abs(intensity - mirrored)) > 1e-3 * reference.max()
            assert power_in == pytest.approx(
                grid.spacing * float(np.sum(mask**2)), rel=1e-12, abs=0
            )
            assert 1 <= rows.rank < 2 * grid.samples_per_period
            assert dropped <= cfg.numerics.tail_eps
        return phi

    def test_matches_channel_by_channel_oracle(self):
        cfg = SimulationConfig()
        phi = self.check_against_oracle(cfg, 120.0, 3)
        assert 0.0 < phi.im

    def test_matches_uncapped_oracle_at_high_power(self):
        # C70 at 50 W: the antinode absorbs ~14 photons on average and the
        # oracle keeps every photon number up to the truncation order
        cfg = replace(SimulationConfig(), species=C70, beam=GratingBeam(power=50.0))
        slowest = float(velocity_quadrature(cfg.velocity, 4)[0][0])
        phi = self.check_against_oracle(cfg, slowest, 2)
        assert lightgrating.grating.truncation_order(phi, cfg.numerics.tail_eps) > 12

    @pytest.mark.parametrize(
        "species, power, source_nodes, pad_factor",
        [
            pytest.param(species, power, nodes, pad, id=name if pad == 4 else f"{name}-pad{pad}")
            for pad in PAD_FACTORS
            for name, species, power, nodes in (
                ("c60-default", C60, 9.5, 16),
                ("c70-50W-4-sources", C70, 50.0, 4),
            )
        ],
    )
    def test_lag_domain_average_matches_per_source_loop(
        self, species, power, source_nodes, pad_factor
    ):
        cfg = replace(SimulationConfig(), species=species, beam=GratingBeam(power=power))
        cfg = replace(cfg, numerics=replace(cfg.numerics, pad_factor=pad_factor))
        slowest = float(velocity_quadrature(cfg.velocity, cfg.quadrature.velocity_nodes)[0][0])
        scales, scale_weights = vertical_phi_scales(cfg.vertical, cfg.quadrature.vertical_nodes)
        grid, mask = grating_window(cfg.beam, cfg.geometry, cfg.numerics.samples_per_period)
        src_nodes, src_weights = source_quadrature(cfg.geometry, source_nodes)
        phi = compute_phi(cfg.species, cfg.beam, slowest)
        (rows,), _ = effective_channels(
            [phi], grid.samples_per_period, scales, scale_weights, cfg.numerics.tail_eps
        )
        (intensity,) = _wave_velocity_slice(
            cfg, slowest, grid, mask, [rows], src_nodes, src_weights
        )[1]
        reference = per_source_loop_slice(cfg, slowest, grid, mask, rows, src_nodes, src_weights)
        assert np.max(np.abs(intensity - reference)) <= 1e-13 * reference.max()
        # the lag-domain product is real only up to rounding
        assert intensity.min() >= -1e-14 * intensity.max()

    def test_fft_calls_per_velocity_independent_of_source_nodes(self, monkeypatch):
        calls_per_velocity = {}
        for source_nodes in (1, 16):
            counting = CountingNumpy()
            monkeypatch.setattr(lightgrating.beamline, "np", counting)
            ensemble_pattern(fast_config(quadrature=QuadratureSpec(4, 2, source_nodes)))
            assert counting.fft_calls > 0 and counting.fft_calls % 4 == 0
            calls_per_velocity[source_nodes] = counting.fft_calls // 4
        assert calls_per_velocity[1] == calls_per_velocity[16]

    @pytest.mark.parametrize("pad_factor", PAD_FACTORS)
    def test_rows_transformed_at_lag_length(self, monkeypatch, pad_factor):
        # the row batch and the ifft run at the autocorrelation length
        # whatever pad_factor is; only the last transform is n_fft long
        cfg = fast_config()
        cfg = replace(cfg, numerics=replace(cfg.numerics, pad_factor=pad_factor))
        grid, _ = grating_window(cfg.beam, cfg.geometry, cfg.numerics.samples_per_period)
        n_lag = next_pow2(2 * grid.size - 1)
        n_fft = next_pow2(grid.size * pad_factor)
        counting = CountingNumpy()
        monkeypatch.setattr(lightgrating.beamline, "np", counting)
        ensemble_pattern(cfg)
        per_velocity = [("fft", n_lag), ("ifft", n_lag), ("fft", n_fft)]
        assert counting.transforms == per_velocity * cfg.quadrature.velocity_nodes

    def test_wave_mode_uses_no_photon_channel(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("wave mode sampled photon channels")

        for module in (backend, lightgrating.grating, lightgrating.beamline):
            for name in ("sample_channels", "channel_amplitudes", "truncation_order"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, forbidden)
        pattern = ensemble_pattern(fast_config())
        assert pattern.intensity.sum() == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("tail_eps", [1e-10, 1e-4])
    def test_total_probability_counts_dropped_mass(self, tail_eps):
        cfg = replace(
            SimulationConfig(),
            species=C70,
            beam=GratingBeam(power=50.0),
            quadrature=QuadratureSpec(4, 4, 2),
        )
        cfg = replace(cfg, numerics=replace(cfg.numerics, tail_eps=tail_eps))
        pattern = ensemble_pattern(cfg)
        total = pattern.metadata["total_probability"]
        dropped = pattern.metadata["dropped_probability"]
        assert abs(total - 1.0) <= tail_eps
        assert 0.0 <= dropped <= tail_eps
        if tail_eps > 1e-6:
            # the loss is measured against the untruncated input norm
            assert dropped / 100 < 1.0 - total <= dropped
        channels = pattern.metadata["channels_per_velocity"]
        assert len(channels) == 4 and all(isinstance(n, int) for n in channels)
        # slower molecules see a stronger grating and need more rows
        assert channels == sorted(channels, reverse=True)


def per_channel_slot_weights(cfg):
    """Slot weights of the per-channel construction, one row per velocity node.

    Kept as the reference for orders mode: one ``incoherent_order_intensities``
    per (velocity, vertical) node, averaged over the vertical weights.
    """
    v_nodes, _ = velocity_quadrature(cfg.velocity, cfg.quadrature.velocity_nodes)
    scales, scale_weights = vertical_phi_scales(cfg.vertical, cfg.quadrature.vertical_nodes)
    rows = []
    for velocity in v_nodes:
        phi = compute_phi(cfg.species, cfg.beam, velocity)
        rows.append(
            sum(
                weight
                * incoherent_order_intensities(
                    phi.scaled(float(scale)), cfg.numerics.m_max, cfg.numerics.tail_eps
                ).intensities
                for scale, weight in zip(scales, scale_weights)
            )
        )
    return np.array(rows)


def full_grid_envelopes(geom, x, centers, weights):
    """Reference for ``_envelope_sum``: every trapezoid on every grid point."""
    total = np.zeros_like(x)
    for center, weight in zip(centers, weights):
        total += weight * geometric_envelope(geom, x - center)
    return total



class TestEnsemblePatterns:
    POWERS = [9.5, 0.0, 30.0, 2.0]

    @pytest.mark.parametrize(
        "mode, workers", [("wave", 1), ("wave", 2), ("orders", 1), ("orders", 3)]
    )
    def test_each_power_equals_its_own_ensemble(self, mode, workers):
        cfg = fast_config()
        cfg = replace(cfg, run=replace(cfg.run, mode=mode, workers=workers))
        patterns = ensemble_patterns(cfg, self.POWERS)
        assert len(patterns) == len(self.POWERS)
        for power, pattern in zip(self.POWERS, patterns):
            alone = ensemble_pattern(replace(cfg, beam=replace(cfg.beam, power=power)))
            assert np.array_equal(pattern.intensity, alone.intensity)
            assert np.array_equal(pattern.positions, alone.positions)
            assert pattern.metadata == alone.metadata

    def test_one_factorization_and_one_task_per_velocity(self, monkeypatch):
        cfg = fast_config()
        batches, tasks = [], []
        factorize = lightgrating.beamline.effective_channels
        propagate = lightgrating.beamline._wave_velocity_slice

        def counted_factorize(phis, *args):
            batches.append(len(phis))
            return factorize(phis, *args)

        def counted_propagate(cfg, velocity, grid, mask, rows, *args):
            tasks.append((velocity, len(rows)))
            return propagate(cfg, velocity, grid, mask, rows, *args)

        monkeypatch.setattr(lightgrating.beamline, "effective_channels", counted_factorize)
        monkeypatch.setattr(lightgrating.beamline, "_wave_velocity_slice", counted_propagate)
        ensemble_patterns(cfg, self.POWERS)
        nodes = cfg.quadrature.velocity_nodes
        assert batches == [nodes * len(self.POWERS)]
        velocities = velocity_quadrature(cfg.velocity, nodes)[0].tolist()
        assert tasks == [(velocity, len(self.POWERS)) for velocity in velocities]

    @pytest.mark.parametrize("limit, expected", [(8, [8, 8, 4]), (3, [4] * 5)])
    def test_long_scans_factorize_in_groups(self, monkeypatch, limit, expected):
        # 4 velocity nodes: at most limit // 4 powers per batch, and at least one
        cfg = fast_config()
        powers = self.POWERS + [20.0]
        whole = ensemble_patterns(cfg, powers)
        batches = []
        factorize = lightgrating.beamline.effective_channels

        def counted_factorize(phis, *args):
            batches.append(len(phis))
            return factorize(phis, *args)

        monkeypatch.setattr(lightgrating.beamline, "MAX_BATCH_STATES", limit)
        monkeypatch.setattr(lightgrating.beamline, "effective_channels", counted_factorize)
        grouped = ensemble_patterns(cfg, powers)
        assert batches == expected
        for a, b in zip(whole, grouped):
            assert np.array_equal(a.intensity, b.intensity)
            assert a.metadata == b.metadata


class TestEnsembleOrdersMode:
    @pytest.mark.parametrize("species, power", [(C60, 9.5), (C70, 50.0)])
    def test_slot_weights_match_per_channel_oracle(self, monkeypatch, species, power):
        # the oracle needs ~40 photon channels at C70 50 W
        cfg = replace(
            SimulationConfig(),
            species=species,
            beam=GratingBeam(power=power),
            quadrature=QuadratureSpec(4, 4, 1),
        )
        cfg = replace(cfg, run=replace(cfg.run, mode="orders"))
        calls = []

        def spy(geom, x, centers, weights):
            calls.append((x, weights))
            return _envelope_sum(geom, x, centers, weights)

        monkeypatch.setattr(lightgrating.beamline, "_envelope_sum", spy)
        # at 50 W the orders reach past m_max = 20 and orders mode says so
        lost_orders = pytest.warns(UserWarning, match="m_max") if power == 50.0 else nullcontext()
        with lost_orders:
            pattern = ensemble_pattern(cfg)
        v_nodes, v_weights = velocity_quadrature(cfg.velocity, 4)
        reference = per_channel_slot_weights(cfg)
        slot_weights = np.array([weights for _, weights in calls]) / v_weights[:, None]
        assert np.max(np.abs(slot_weights - reference)) <= 1e-10
        # and the pattern is the per-channel one placed on the full grid
        x = calls[0][0]
        orders = np.arange(-cfg.numerics.m_max, cfg.numerics.m_max + 1)
        accumulated = sum(
            full_grid_envelopes(
                cfg.geometry,
                x,
                orders * order_slot_spacing(species, float(v), cfg.beam, cfg.geometry),
                v_weight * weights,
            )
            for v, v_weight, weights in zip(v_nodes, v_weights, reference)
        )
        expected = _finalize(cfg, x, accumulated, {}).intensity
        assert np.max(np.abs(pattern.intensity - expected)) <= 1e-9 * expected.max()
        if power == 50.0:
            # far past the former 12-photon cap of this path
            assert lightgrating.grating.truncation_order(
                compute_phi(species, cfg.beam, float(v_nodes[0])), cfg.numerics.tail_eps
            ) > 12

    def test_run_wide_grid_matches_per_node_grids(self, monkeypatch):
        # C70 at 50 W: the slowest node needs twice the samples of the fastest
        cfg = replace(
            SimulationConfig(),
            species=C70,
            beam=GratingBeam(power=50.0),
            quadrature=QuadratureSpec(6, 4, 1),
        )
        cfg = replace(cfg, run=replace(cfg.run, mode="orders"))
        cfg = replace(cfg, numerics=replace(cfg.numerics, m_max=40))
        pattern = ensemble_pattern(cfg)

        def per_node_grids(phis, *args):
            spectra = [lightgrating.orders.mixed_order_intensities(phi, *args) for phi in phis]
            intensities, ranks, dropped = zip(*spectra)
            return np.array(intensities), list(ranks), np.array(dropped)

        monkeypatch.setattr(lightgrating.beamline, "mixed_order_spectra", per_node_grids)
        reference = ensemble_pattern(cfg)
        # Each grid's rows leave at most tail_eps per point, and may stop at
        # another rank (here 19 against 20 rows at one node): the patterns
        # agree to that tail, not to rounding (they differ by 1.2e-11 of the
        # peak and 5.6e-12 in total probability).
        tail_eps = cfg.numerics.tail_eps
        assert np.max(np.abs(pattern.intensity - reference.intensity)) <= (
            tail_eps * reference.intensity.max()
        )
        assert pattern.metadata["total_probability"] == pytest.approx(
            reference.metadata["total_probability"], abs=2.0 * tail_eps
        )

    def test_deterministic_across_worker_counts(self):
        cfg = fast_config()
        cfg = replace(cfg, run=replace(cfg.run, mode="orders"))
        serial = ensemble_pattern(cfg)
        for workers in (2, 4):
            threaded = ensemble_pattern(replace(cfg, run=replace(cfg.run, workers=workers)))
            assert np.array_equal(serial.intensity, threaded.intensity)
            channels = threaded.metadata["channels_per_velocity"]
            assert channels == serial.metadata["channels_per_velocity"]

    def test_orders_mode_uses_no_photon_channel(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("orders mode used the per-channel spectrum")

        names = (
            "sample_channels",
            "channel_amplitudes",
            "truncation_order",
            "channel_set",
            "incoherent_order_intensities",
        )
        for module in (backend, lightgrating.grating, lightgrating.orders, lightgrating.beamline):
            for name in names:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, forbidden)
        cfg = fast_config()
        pattern = ensemble_pattern(replace(cfg, run=replace(cfg.run, mode="orders")))
        assert pattern.intensity.sum() == pytest.approx(1.0, rel=1e-12)

    def test_support_restricted_envelopes_match_full_grid(self):
        cfg = SimulationConfig()
        geom = cfg.geometry
        x = _internal_grid(geom, cfg.detector.width, cfg.numerics.internal_step)
        r = geom.L2D / geom.L12
        half = 0.5 * (geom.slit2 * (1.0 + r) + geom.slit1 * r)
        edge = float(x[-1])
        rng = np.random.default_rng(11)
        centers = np.concatenate(
            [
                rng.uniform(-edge - 2 * half, edge + 2 * half, 60),
                # straddling either edge, just outside it, on grid points,
                # and with a support boundary on a grid point
                [-edge, edge, edge + 0.5 * half, -edge - 0.9 * half, edge + half, -edge - 3 * half],
                x[[0, 7, x.size // 2, -1]],
                x[[3, -9]] + half,
                x[[3, -9]] - half,
            ]
        )
        weights = rng.uniform(0.0, 1.0, centers.size)
        reference = full_grid_envelopes(geom, x, centers, weights)
        result = _envelope_sum(geom, x, centers, weights)
        assert np.max(np.abs(result - reference)) <= 1e-15 * reference.max()
        # each trapezoid touches only about 2 * half / step of the grid points
        assert 2 * half / (x[1] - x[0]) < 0.1 * x.size

    def test_laser_off_is_blurred_envelope(self):
        cfg = fast_config(quadrature=QuadratureSpec(1, 1, 1))
        cfg = replace(
            cfg,
            beam=GratingBeam(power=0.0),
            run=replace(cfg.run, mode="orders"),
        )
        pattern = ensemble_pattern(cfg)
        # independent construction: envelope blurred by the detector kernel
        # on the same internal grid, resampled to the scan grid
        step = cfg.numerics.internal_step
        half = 0.5 * cfg.geometry.detector_span + 3.0 * max(cfg.detector.width, step) + 2e-6
        n_half = int(math.ceil(half / step))
        x_fine = np.arange(-n_half, n_half + 1) * step
        reference = np.convolve(
            geometric_envelope(cfg.geometry, x_fine),
            detector_kernel(cfg.detector, step),
            mode="same",
        )
        resampled = np.maximum(np.interp(pattern.positions, x_fine, reference), 0.0)
        resampled /= resampled.sum()
        assert np.allclose(pattern.intensity, resampled, atol=1e-12)

    def test_warns_when_orders_beyond_m_max_hold_mass(self):
        cfg = SimulationConfig()
        cfg = replace(cfg, run=replace(cfg.run, mode="orders"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pattern = ensemble_pattern(cfg)
        assert 1.0 - pattern.metadata["total_probability"] < 1e-6
        # C70 at 50 W: about 22% of the molecules land beyond |m| = 20
        strong = replace(cfg, species=C70, beam=GratingBeam(power=50.0))
        with pytest.warns(UserWarning, match=r"numerics\.m_max = 20"):
            pattern = ensemble_pattern(strong)
        assert 1.0 - pattern.metadata["total_probability"] > 0.2

    def test_mode_recorded_and_total_probability(self):
        cfg = fast_config()
        cfg = replace(cfg, run=replace(cfg.run, mode="orders"))
        pattern = ensemble_pattern(cfg)
        assert pattern.metadata["mode"] == "orders"
        assert abs(pattern.metadata["total_probability"] - 1.0) < 1e-4
        channels = pattern.metadata["channels_per_velocity"]
        assert len(channels) == 4 and all(isinstance(n, int) and n >= 1 for n in channels)
        assert 0.0 <= pattern.metadata["dropped_probability"] <= cfg.numerics.tail_eps

    def test_agrees_with_wave_mode_on_window_weights(self):
        cfg = fast_config()
        wave = ensemble_pattern(cfg)
        orders = ensemble_pattern(replace(cfg, run=replace(cfg.run, mode="orders")))
        slot = order_slot_spacing(C60, 120.0, cfg.beam, cfg.geometry)
        mw = pattern_metrics(wave, slot).efficiencies
        mo = pattern_metrics(orders, slot).efficiencies
        for m in set(mw) & set(mo):
            assert abs(mw[m] - mo[m]) < 0.05

    def test_agrees_with_wave_mode_on_total_probability(self):
        # C70 at 50 W with every order up to |m| = 80 kept: both modes lose
        # only what the effective rows drop
        cfg = replace(SimulationConfig(), species=C70, beam=GratingBeam(power=50.0))
        cfg = replace(cfg, numerics=replace(cfg.numerics, m_max=80))
        wave = ensemble_pattern(cfg).metadata["total_probability"]
        orders = ensemble_pattern(replace(cfg, run=replace(cfg.run, mode="orders")))
        assert abs(wave - orders.metadata["total_probability"]) <= 1e-9


class TestConvergenceCheck:
    def test_metadata_reports_quadrature_stability(self):
        cfg = fast_config()
        cfg = replace(cfg, run=replace(cfg.run, convergence_check=True))
        # the deliberately coarse quadrature must be flagged as unconverged
        with pytest.warns(UserWarning, match="not converged"):
            pattern = ensemble_pattern(cfg)
        report = pattern.metadata["convergence"]
        assert not report["converged"]
        assert set(report["rms_change"]) == {
            "velocity_nodes",
            "vertical_nodes",
            "source_nodes",
        }
        assert isinstance(report["converged"], bool)

    def test_default_quadrature_converged(self):
        # doubling any axis at the default 16/16/16 quadrature moves the
        # pattern by well under 0.5% RMS
        cfg = SimulationConfig()
        cfg = replace(cfg, run=replace(cfg.run, convergence_check=True))
        pattern = ensemble_pattern(cfg)
        report = pattern.metadata["convergence"]
        assert report["converged"]
        for axis, change in report["rms_change"].items():
            assert change < 0.005, f"{axis} unconverged: {change}"


class TestPatternMetrics:
    def synthetic(self, intensity, step=2e-6, detector_width=0.0):
        n = intensity.size
        x = (np.arange(n) - n // 2) * step
        return DiffractionPattern(
            positions=x,
            intensity=intensity.astype(float),
            metadata={"detector_width": detector_width},
        )

    def test_two_peak_split(self):
        intensity = np.zeros(101)
        spacing = 10e-6  # slots at x = m * 10 um, 5 samples per window
        intensity[50 + 5] = 3.0  # exactly at +spacing
        intensity[50 - 5] = 3.0
        pattern = self.synthetic(intensity)
        metrics = pattern_metrics(pattern, spacing)
        assert metrics.efficiencies[1] == pytest.approx(0.5)
        assert metrics.efficiencies[-1] == pytest.approx(0.5)
        assert metrics.efficiencies[0] == 0.0

    def test_efficiencies_bounded_by_one(self):
        rng = np.random.default_rng(3)
        pattern = self.synthetic(rng.random(151))
        metrics = pattern_metrics(pattern, 10e-6)
        total = sum(metrics.efficiencies.values())
        assert total <= 1.0 + 1e-9

    def test_window_narrower_than_detector_rejected(self):
        pattern = self.synthetic(np.ones(101), detector_width=6e-6)
        with pytest.raises(ValueError):
            pattern_metrics(pattern, 4e-6)

    def test_visibility_extremes(self):
        flat = self.synthetic(np.ones(101))
        assert pattern_metrics(flat, 10e-6).visibility == pytest.approx(0.0)
        fringes = np.zeros(101)
        fringes[::5] = 1.0
        assert pattern_metrics(self.synthetic(fringes), 10e-6).visibility == 1.0

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            pattern_metrics(self.synthetic(np.zeros(41)), 10e-6)


class TestPeakPositions:
    def test_quadratic_refinement(self):
        step = 2e-6
        x = (np.arange(-50, 51)) * step
        # asymmetric-sample peak whose true vertex lies between grid points
        centre = 20.7e-6
        intensity = np.exp(-((x - centre) ** 2) / (2 * (4e-6) ** 2))
        intensity += np.exp(-(x**2) / (2 * (4e-6) ** 2))
        pattern = DiffractionPattern(positions=x, intensity=intensity, metadata={})
        peaks = peak_positions(pattern, 21e-6, min_efficiency=0.05)
        assert peaks[1] == pytest.approx(centre, abs=0.2e-6)
        assert peaks[0] == pytest.approx(0.0, abs=0.3e-6)

    def test_shoulder_windows_omitted(self):
        step = 2e-6
        x = (np.arange(-50, 51)) * step
        intensity = np.exp(-(x**2) / (2 * (12e-6) ** 2))  # one broad central peak
        pattern = DiffractionPattern(positions=x, intensity=intensity, metadata={})
        peaks = peak_positions(pattern, 20e-6, min_efficiency=0.01)
        assert 0 in peaks
        assert 1 not in peaks and -1 not in peaks


def scan_every_shift(a, b):
    """Reference alignment: score every shift with its own dot product."""
    a_n = a.intensity / a.intensity.max()
    b_n = b.intensity / b.intensity.max()
    la, lb = a_n.size, b_n.size
    best_score, best_shift = -np.inf, 0
    for shift in range(-lb + 1, la):
        a_lo, b_lo = max(0, shift), max(0, -shift)
        length = min(la - a_lo, lb - b_lo)
        score = float(np.dot(a_n[a_lo : a_lo + length], b_n[b_lo : b_lo + length]))
        if score > best_score + 1e-15 or (
            abs(score - best_score) <= 1e-15 and abs(shift) < abs(best_shift)
        ):
            best_score, best_shift = score, shift
    a_lo, b_lo = max(0, best_shift), max(0, -best_shift)
    length = min(la - a_lo, lb - b_lo)
    residual = a_n[a_lo : a_lo + length] - b_n[b_lo : b_lo + length]
    return -best_shift * a.step, float(np.sqrt(np.mean(residual**2)))


class TestComparePatterns:
    def base_pattern(self):
        x = (np.arange(-60, 61)) * 2e-6
        intensity = np.exp(-(x**2) / (2 * (15e-6) ** 2)) * (
            1.0 + 0.6 * np.cos(x / 4e-6)
        )
        return DiffractionPattern(positions=x, intensity=intensity, metadata={})

    def test_self_comparison(self):
        a = self.base_pattern()
        shift, nrmse = compare_patterns(a, a)
        assert shift == 0.0
        assert nrmse == pytest.approx(0.0, abs=1e-15)

    def test_recovers_displacement_with_sign(self):
        a = self.base_pattern()
        shifted = np.roll(a.intensity, 3)  # features move to larger x
        b = DiffractionPattern(positions=a.positions, intensity=shifted, metadata={})
        shift, nrmse = compare_patterns(a, b)
        assert shift == pytest.approx(3 * 2e-6, rel=1e-12)
        assert nrmse < 0.05

    def test_scale_invariance(self):
        a = self.base_pattern()
        b = DiffractionPattern(
            positions=a.positions, intensity=7.3 * a.intensity, metadata={}
        )
        shift, nrmse = compare_patterns(a, b)
        assert shift == 0.0
        assert nrmse == pytest.approx(0.0, abs=1e-12)

    def test_step_mismatch_rejected(self):
        a = self.base_pattern()
        b = DiffractionPattern(
            positions=a.positions * 1.5, intensity=a.intensity, metadata={}
        )
        with pytest.raises(ValueError):
            compare_patterns(a, b)

    def on_grid(self, intensity, step=2e-6):
        intensity = np.asarray(intensity, dtype=float)
        x = (np.arange(intensity.size) - intensity.size // 2) * step
        return DiffractionPattern(positions=x, intensity=intensity, metadata={})

    def test_exact_symmetric_tie(self):
        # b's single peak matches either peak of a equally well at shifts
        # -1 and +1; the earlier (more negative) shift is kept
        a = self.on_grid([0.0, 1.0, 0.0, 1.0, 0.0])
        b = self.on_grid([0.0, 0.0, 1.0, 0.0, 0.0])
        shift, nrmse = compare_patterns(a, b)
        assert (shift, nrmse) == scan_every_shift(a, b)
        assert shift == pytest.approx(2e-6, rel=1e-12)

    def test_tie_prefers_smaller_shift(self):
        a = self.on_grid([1.0, 0.0, 1.0, 0.0, 1.0])
        b = self.on_grid([0.0, 0.0, 1.0, 0.0, 0.0])
        shift, nrmse = compare_patterns(a, b)
        assert (shift, nrmse) == scan_every_shift(a, b)
        assert shift == 0.0

    def test_matches_scan_over_every_shift(self):
        rng = np.random.default_rng(11)
        base = self.base_pattern()
        for trial in range(20):
            la, lb = rng.integers(2, 160, size=2)
            if trial % 2:
                a = self.on_grid(rng.random(la))
                b = self.on_grid(rng.random(lb))
            else:
                a = base
                b = self.on_grid(np.roll(base.intensity, int(rng.integers(-9, 10)))[: int(lb)])
            assert compare_patterns(a, b) == scan_every_shift(a, b)
