"""Fresnel propagation oracles and FFT lengths: unitarity, oracle agreement, grid safety."""

import math

import numpy as np
import pytest
import scipy.integrate

from lightgrating.beamline import next_pow2, next_smooth
from lightgrating.grating import ComplexPhase, GridSpec
from lightgrating.species import C60, de_broglie_wavelength
from oracles import (
    AliasingError,
    channel_set,
    propagate_direct,
    propagate_spectral,
    simpson_weights,
)

LAMBDA_DB = de_broglie_wavelength(C60, 120.0)  # 4.618 pm
DISTANCE = 1.2


def slit_field(width=5e-6, n=500):
    spacing = width / n
    x = (np.arange(n) - (n - 1) / 2.0) * spacing
    return np.ones(n, dtype=complex), x, spacing


def quad_oracle(x_lo, x_hi, wavelength, distance, x_out):
    """Continuous Fresnel integral of a unit slit via adaptive quadrature."""
    k = 2.0 * math.pi / wavelength

    def integrand(x, part):
        value = np.exp(1j * k * (x_out - x) ** 2 / (2.0 * distance))
        return value.real if part == 0 else value.imag

    re, _ = scipy.integrate.quad(integrand, x_lo, x_hi, args=(0,), limit=400)
    im, _ = scipy.integrate.quad(integrand, x_lo, x_hi, args=(1,), limit=400)
    prefactor = np.exp(-1j * math.pi / 4.0) / math.sqrt(wavelength * distance)
    return prefactor * (re + 1j * im)


class TestWeights:
    def test_simpson_integrates_cubic_exactly(self):
        n = 51
        spacing = 1.0 / (n - 1)
        x = np.arange(n) * spacing
        w = simpson_weights(n, spacing)
        assert float(np.dot(w, x**3)) == pytest.approx(0.25, abs=1e-14)

    def test_simpson_requires_odd_count(self):
        with pytest.raises(ValueError):
            simpson_weights(10, 0.1)

    def test_next_pow2(self):
        assert next_pow2(1) == 1
        assert next_pow2(5) == 8
        assert next_pow2(1024) == 1024
        assert next_pow2(1025) == 2048

    def test_next_smooth(self):
        def smooth(m):
            for p in (2, 3, 5):
                while m % p == 0:
                    m //= p
            return m == 1

        expected = [next(m for m in range(n, 2 * n + 1) if smooth(m)) for n in range(1, 3000)]
        assert [next_smooth(n) for n in range(1, 3000)] == expected
        assert next_smooth(622) == 625


class TestSpectralPropagation:
    def test_energy_conservation(self):
        rng = np.random.default_rng(7)
        field, x, spacing = slit_field()
        field = field * (rng.normal(size=x.size) + 1j * rng.normal(size=x.size))
        x_out, out = propagate_spectral(field, spacing, LAMBDA_DB, DISTANCE, x[0])
        power_in = float(np.sum(np.abs(field) ** 2) * spacing)
        power_out = float(np.sum(np.abs(out) ** 2) * (x_out[1] - x_out[0]))
        assert power_out == pytest.approx(power_in, rel=1e-12)

    def test_output_grid_spacing(self):
        field, x, spacing = slit_field()
        x_out, out = propagate_spectral(field, spacing, LAMBDA_DB, DISTANCE, x[0], pad_factor=4)
        n_fft = next_pow2(4 * x.size)
        assert out.size == n_fft
        assert x_out[1] - x_out[0] == pytest.approx(
            LAMBDA_DB * DISTANCE / (n_fft * spacing), rel=1e-12
        )

    def test_matches_continuous_integral(self):
        # the midpoint cells tile the slit exactly, so the matching
        # continuous integral runs between the outer cell edges
        width = 5e-6
        field, x, spacing = slit_field(width=width, n=2000)
        x_out, out = propagate_spectral(field, spacing, LAMBDA_DB, DISTANCE, x[0])
        intensity = np.abs(out) ** 2
        peak = intensity.max()
        # probe across the central diffraction lobe (width ~1.1 um)
        probe = np.where(np.abs(x_out) < 1.1e-6)[0][::32]
        residuals = []
        for idx in probe:
            oracle = quad_oracle(
                -width / 2.0, width / 2.0, LAMBDA_DB, DISTANCE, x_out[idx]
            )
            residuals.append((intensity[idx] - abs(oracle) ** 2) / peak)
        assert math.sqrt(np.mean(np.square(residuals))) < 1e-6

    def test_validation(self):
        field, x, spacing = slit_field(n=16)
        with pytest.raises(ValueError):
            propagate_spectral(field, -spacing, LAMBDA_DB, DISTANCE, x[0])
        with pytest.raises(ValueError):
            propagate_spectral(field, spacing, LAMBDA_DB, 0.0, x[0])


class TestDirectPropagation:
    def test_matches_spectral_on_native_grid(self):
        field, x, spacing = slit_field(n=250)
        weights = np.full(x.size, spacing)  # midpoint rule
        x_out, spectral = propagate_spectral(field, spacing, LAMBDA_DB, DISTANCE, x[0])
        probe = np.where(np.abs(x_out) < 5e-6)[0]
        direct = propagate_direct(
            field, x, weights, LAMBDA_DB, DISTANCE, x_out[probe]
        )
        assert np.allclose(direct, spectral[probe], rtol=1e-9, atol=1e-12)

    def test_aliasing_guard(self):
        field, x, spacing = slit_field()
        x_out = np.linspace(-3e-4, 3e-4, 11)
        with pytest.raises(AliasingError):
            propagate_direct(
                field, x, np.full(x.size, spacing), LAMBDA_DB, DISTANCE, x_out
            )


class TestGratingFarField:
    # At 1.2 m a 10 um illuminated window still has Fresnel number ~5 and
    # the orders are broad near-field lobes (the ensemble average handles
    # that regime); a genuine Fraunhofer check needs W^2/(lambda L) << 1.
    FAR = 500.0

    def far_field(self):
        grid = GridSpec(periods=40, samples_per_period=32)
        channels = channel_set(ComplexPhase(2.404825557692675, 0.0), grid)
        x = grid.positions()
        x_out, out = propagate_spectral(
            channels[0].samples, grid.spacing, LAMBDA_DB, self.FAR, x[0]
        )
        return x_out, np.abs(out) ** 2

    def test_first_order_positions(self):
        # peaks land at +/- wavelength * distance / period
        x_out, intensity = self.far_field()
        step = x_out[1] - x_out[0]
        expected = LAMBDA_DB * self.FAR / (514.5e-9 / 2.0)
        for sign in (-1.0, 1.0):
            window = np.where(np.abs(x_out - sign * expected) < 2e-3)[0]
            peak = x_out[window[np.argmax(intensity[window])]]
            assert abs(peak - sign * expected) <= step

    def test_zero_order_dark_at_null(self):
        x_out, intensity = self.far_field()
        expected = LAMBDA_DB * self.FAR / (514.5e-9 / 2.0)
        centre = np.where(np.abs(x_out) < 0.05 * expected)[0]
        first = np.where(np.abs(x_out - expected) < 0.05 * expected)[0]
        assert intensity[centre].max() < 0.01 * intensity[first].max()
