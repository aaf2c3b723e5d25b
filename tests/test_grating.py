"""Standing-wave grating: dipole phase, absorption channels, transmission."""

import math
import time

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from lightgrating import backend
from lightgrating.beamline import BeamlineGeometry, window_grid
from lightgrating.distributions import VerticalProfile, fold_vertical_rule, vertical_phi_scales
from lightgrating.grating import (
    ComplexPhase,
    GratingBeam,
    GridSpec,
    ParityRows,
    _log_poisson,
    channel_amplitudes,
    compute_phi,
    effective_channels,
    parity_angles,
    poisson_weight,
    raman_nath_diagnostic,
    scale_weight_arrays,
    truncation_order,
)
from lightgrating.species import C60, C70, HBAR, C_LIGHT, EPS0, polarizability_si
from oracles import channel_set, grating_coherence, log_poisson, mean_photon_number, period

HALF_PERIOD_GRID = GridSpec(periods=2, samples_per_period=64)


def reference_phi(species, beam, velocity):
    """Independent evaluation: sqrt(2/pi) P alpha / (hbar c eps0 w_y v)."""
    alpha = polarizability_si(species.polarizability)
    return (
        math.sqrt(2.0 / math.pi)
        * beam.power
        * alpha
        / (HBAR * C_LIGHT * EPS0 * beam.waist_y * velocity)
    )


class TestComputePhi:
    def test_c60_one_watt(self):
        phi = compute_phi(C60, GratingBeam(power=1.0), 120.0)
        assert phi.re == pytest.approx(0.20532878482999398, rel=1e-13)
        assert phi.im == pytest.approx(0.016263666125148037, rel=1e-13)

    def test_c70_default_beam(self):
        phi = compute_phi(C70, GratingBeam(), 120.0)
        assert phi.re == pytest.approx(2.2789462157863687, rel=1e-13)
        assert phi.im == pytest.approx(0.3862620704722658, rel=1e-13)

    def test_matches_reference_formula(self):
        for species in (C60, C70):
            for power in (0.5, 3.3, 11.0):
                for velocity in (80.0, 120.0, 220.0):
                    phi = compute_phi(species, GratingBeam(power=power), velocity)
                    ref = reference_phi(species, GratingBeam(power=power), velocity)
                    assert phi.re == pytest.approx(ref.real, rel=1e-13)
                    assert phi.im == pytest.approx(ref.imag, rel=1e-13)

    def test_zero_power_gives_zero_phase(self):
        phi = compute_phi(C60, GratingBeam(power=0.0), 120.0)
        assert phi.re == 0.0 and phi.im == 0.0

    def test_linear_in_power(self):
        phi1 = compute_phi(C60, GratingBeam(power=1.0), 120.0)
        phi4 = compute_phi(C60, GratingBeam(power=4.0), 120.0)
        assert phi4.re == pytest.approx(4.0 * phi1.re, rel=1e-13)
        assert phi4.im == pytest.approx(4.0 * phi1.im, rel=1e-13)

    def test_inverse_velocity_scaling(self):
        slow = compute_phi(C60, GratingBeam(), 60.0)
        fast = compute_phi(C60, GratingBeam(), 120.0)
        assert slow.re == pytest.approx(2.0 * fast.re, rel=1e-13)
        assert slow.im == pytest.approx(2.0 * fast.im, rel=1e-13)

    def test_negative_imaginary_rejected(self):
        with pytest.raises(ValueError):
            ComplexPhase(1.0, -0.1)

    def test_scaled(self):
        phi = ComplexPhase(1.5, 0.25)
        scaled = phi.scaled(0.5)
        assert scaled.re == 0.75 and scaled.im == 0.125
        assert phi.as_complex == 1.5 + 0.25j


class TestGratingBeam:
    def test_derived_quantities(self):
        beam = GratingBeam()
        assert beam.k_laser == pytest.approx(2.0 * math.pi / 514.5e-9, rel=1e-15)
        assert beam.period == pytest.approx(514.5e-9 / 2.0, rel=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            GratingBeam(wavelength=0.0)
        with pytest.raises(ValueError):
            GratingBeam(power=-1.0)
        with pytest.raises(ValueError):
            GratingBeam(waist_y=0.0)
        with pytest.raises(ValueError):
            GratingBeam(waist_z=-1e-6)


class TestGridSpec:
    def test_midpoint_positions(self):
        grid = GridSpec(periods=2, samples_per_period=8)
        x = grid.positions()
        assert x.size == 16
        assert np.allclose(np.diff(x), grid.spacing, rtol=1e-12)
        # midpoint convention: centred window, no sample at the origin
        assert np.allclose(x[0], -grid.window / 2.0 + grid.spacing / 2.0)
        assert not np.any(np.isclose(x, 0.0, atol=grid.spacing * 1e-6))
        assert np.allclose(x, -x[::-1], atol=1e-20)

    def test_window_spans_periods(self):
        grid = GridSpec(periods=4, samples_per_period=16)
        assert grid.window == pytest.approx(4 * 514.5e-9 / 2.0, rel=1e-15)
        assert grid.size == 64

    def test_odd_period_count_rejected(self):
        with pytest.raises(ValueError):
            GridSpec(periods=3, samples_per_period=8)

    def test_sampling_granularity_rejected(self):
        with pytest.raises(ValueError):
            GridSpec(periods=2, samples_per_period=6)


class TestPoissonWeight:
    def test_against_scipy(self):
        for nbar in (0.05, 0.3, 0.618, 2.0, 5.0):
            for n in range(0, 13):
                assert poisson_weight(nbar, n) == pytest.approx(
                    scipy.stats.poisson.pmf(n, nbar), rel=1e-12
                )

    def test_frozen_example(self):
        assert poisson_weight(0.618, 2) == pytest.approx(0.1029326051742673, rel=1e-13)

    def test_zero_mean(self):
        assert poisson_weight(0.0, 0) == 1.0
        assert poisson_weight(0.0, 3) == 0.0

    def test_vectorized_over_nbar(self):
        nbar = np.array([0.0, 0.5, 2.0])
        out = poisson_weight(nbar, 1)
        assert out.shape == (3,)
        assert out[0] == 0.0
        assert out[1] == pytest.approx(scipy.stats.poisson.pmf(1, 0.5), rel=1e-12)

    def test_normalization(self):
        total = sum(poisson_weight(1.3, n) for n in range(0, 40))
        assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("nbar", [0.0, 1e-300, 1e-3, 0.618, 1.0, 7.5, 200.0, 1e4, 1e300])
    def test_log_poisson_is_the_vectorized_form_bit_for_bit(self, nbar):
        n = np.arange(2001)
        with np.errstate(divide="ignore", invalid="ignore"):
            assert np.array_equal(_log_poisson(nbar, n), log_poisson(nbar, n), equal_nan=True)
            for k in (0, 1, 2, 170, 171, 2000):
                value, expected = _log_poisson(nbar, k), log_poisson(nbar, k)
                assert type(value) is type(expected)
                assert np.array_equal(value, expected, equal_nan=True)

    def test_log_poisson_over_an_array_of_means(self):
        nbar = np.array([0.0, 1e-3, 0.618, 7.5, 200.0, 1e4])
        for n in (0, 1, 13, 2000):
            with np.errstate(divide="ignore", invalid="ignore"):
                assert np.array_equal(
                    _log_poisson(nbar, n), log_poisson(nbar, n), equal_nan=True
                )


class TestMeanPhotonNumber:
    def test_antinode_value(self):
        phi = ComplexPhase(1.0, 0.4)
        nbar = mean_photon_number(phi, np.array([0.0]), 2.0 * math.pi / 514.5e-9)
        assert nbar[0] == pytest.approx(4.0 * 0.4, rel=1e-13)

    def test_node_value(self):
        k = 2.0 * math.pi / 514.5e-9
        node = math.pi / (2.0 * k)  # cos(k x) = 0
        nbar = mean_photon_number(ComplexPhase(1.0, 0.4), np.array([node]), k)
        assert abs(nbar[0]) < 1e-12

    def test_spatial_average_is_twice_imaginary_part(self):
        phi = ComplexPhase(0.7, 0.31)
        grid = GridSpec(periods=2, samples_per_period=256)
        k = 2.0 * math.pi / grid.wavelength
        nbar = mean_photon_number(phi, grid.positions(), k)
        assert np.mean(nbar) == pytest.approx(2.0 * phi.im, rel=1e-12)


class TestTruncationOrder:
    def test_pure_phase_needs_no_absorption_channels(self):
        assert truncation_order(ComplexPhase(2.4, 0.0)) == 0

    def test_monotone_in_absorption(self):
        orders = [truncation_order(ComplexPhase(1.0, im)) for im in (0.01, 0.1, 0.3, 0.8)]
        assert orders == sorted(orders)

    def test_covers_poisson_tail(self):
        phi = ComplexPhase(1.0, 0.2)
        n_max = truncation_order(phi, tail_eps=1e-10)
        # the worst-case mean photon number is at the antinode
        assert scipy.stats.poisson.sf(n_max, 4.0 * phi.im) < 1e-10

    @pytest.mark.parametrize("im", [0.2, 0.8, 50.0])
    @pytest.mark.parametrize("tail_eps", [0.5, 1e-3, 1e-10, 1e-14, 1e-100])
    def test_smallest_order_below_tail_eps(self, im, tail_eps):
        # no cap (nbar = 200 needs hundreds of photon numbers), and the tail
        # is resolved well below the 2e-16 floor of 1 - sum p_n
        n_max = truncation_order(ComplexPhase(1.0, im), tail_eps)
        sf = scipy.stats.poisson.sf
        assert sf(n_max, 4.0 * im) < tail_eps <= sf(n_max - 1, 4.0 * im)

    @pytest.mark.parametrize("im", [0.2, 50.0])
    def test_returns_quickly_at_tiny_tail_eps(self, im):
        start = time.perf_counter()
        n_max = truncation_order(ComplexPhase(1.0, im), tail_eps=1e-300)
        assert time.perf_counter() - start < 1.0
        assert n_max > truncation_order(ComplexPhase(1.0, im), tail_eps=1e-100)

    def test_looser_tolerance_needs_fewer_channels(self):
        phi = ComplexPhase(1.0, 0.4)
        assert truncation_order(phi, tail_eps=1e-4) <= truncation_order(phi, tail_eps=1e-10)


def sqrt_poisson_sign_construction(phi, n_max, k, x):
    """Independent t_n = exp(2i Re cos^2) sqrt(p_nbar(n)) sign(cos)^n, n = 0..n_max."""
    cos = np.cos(k * x)
    nbar = 4.0 * phi.im * cos**2
    return np.array(
        [
            np.exp(2.0j * phi.re * cos**2)
            * np.sqrt(scipy.stats.poisson.pmf(n, nbar))
            * np.sign(cos) ** n
            for n in range(n_max + 1)
        ]
    )


class TestChannelAmplitudes:
    K = 2.0 * math.pi / 514.5e-9

    def test_antinode_zero_photon_value(self):
        # t_0(0) = exp(2i Re - 2 Im) at the antinode where cos^2 = 1
        phi = ComplexPhase(0.20532878482999398, 0.016263666125148037)
        t = channel_amplitudes(phi, 0, self.K, np.array([0.0]))
        assert abs(t[0, 0]) == pytest.approx(math.exp(-2.0 * phi.im), rel=1e-12)
        assert math.atan2(t[0, 0].imag, t[0, 0].real) == pytest.approx(
            2.0 * phi.re, rel=1e-12
        )

    def test_matches_sqrt_poisson_sign_construction(self):
        # independent construction: t_n = exp(2i Re cos^2) sqrt(p_nbar(n)) sign(cos)^n
        phi = ComplexPhase(1.3, 0.22)
        x = HALF_PERIOD_GRID.positions()
        k = 2.0 * math.pi / HALF_PERIOD_GRID.wavelength
        n_max = 6
        t = channel_amplitudes(phi, n_max, k, x)
        expected = sqrt_poisson_sign_construction(phi, n_max, k, x)
        assert np.allclose(t, expected, rtol=1e-12, atol=1e-15)

    def test_strided_positions(self):
        phi = ComplexPhase(1.0, 0.2)
        x = np.linspace(-2.5e-6, 2.5e-6, 1201)[::3]
        assert not x.flags.c_contiguous
        t = channel_amplitudes(phi, 4, self.K, x)
        expected = sqrt_poisson_sign_construction(phi, 4, self.K, x)
        assert np.allclose(t, expected, rtol=1e-12, atol=1e-15)

    def test_even_in_position(self):
        phi = ComplexPhase(0.9, 0.15)
        x = np.linspace(-3e-7, 3e-7, 11)
        t_plus = channel_amplitudes(phi, 4, self.K, x)
        t_minus = channel_amplitudes(phi, 4, self.K, -x)
        assert np.allclose(t_plus, t_minus, rtol=1e-13, atol=1e-18)

    def test_half_period_shift_flips_odd_channels(self):
        phi = ComplexPhase(0.9, 0.15)
        x = HALF_PERIOD_GRID.positions()
        d = 514.5e-9 / 2.0
        t = channel_amplitudes(phi, 5, self.K, x)
        t_shift = channel_amplitudes(phi, 5, self.K, x + d)
        for n in range(6):
            assert np.allclose(t_shift[n], (-1.0) ** n * t[n], rtol=1e-12, atol=1e-15)

    def test_no_laser_is_transparent(self):
        t = channel_amplitudes(ComplexPhase(0.0, 0.0), 0, self.K, np.array([0.0, 1e-7]))
        assert np.allclose(t[0], 1.0, rtol=1e-15)

    def test_conserves_probability_just_below_the_underflow_limit(self):
        phi = ComplexPhase(1.0, 0.49 * backend.MAX_ANTINODE_LOSS)
        t = channel_amplitudes(phi, truncation_order(phi), self.K, np.array([0.0, 1e-7]))
        assert np.max(np.abs(np.sum(np.abs(t) ** 2, axis=0) - 1.0)) < 1e-9

    def test_refuses_where_the_antinode_underflows(self, monkeypatch):
        # C70 at 10 kW and 120 m/s: exp(-2 Im Phi) underflows at the antinode
        phi = compute_phi(C70, GratingBeam(power=10e3), 120.0)
        assert 2.0 * phi.im > backend.MAX_ANTINODE_LOSS
        n_max = truncation_order(phi)

        def forbidden(*args, **kwargs):
            raise AssertionError("allocated the channel rows")

        monkeypatch.setattr(backend.np, "empty", forbidden)
        with pytest.raises(ValueError, match="underflows at the antinode"):
            channel_amplitudes(phi, n_max, self.K, np.array([0.0]))


class TestChannelSet:
    def test_returns_consecutive_channels(self):
        phi = ComplexPhase(2.28, 0.386)
        channels = channel_set(phi, HALF_PERIOD_GRID)
        assert [c.photon_count for c in channels] == list(range(len(channels)))
        assert channels[-1].photon_count == truncation_order(phi)
        assert all(c.samples.shape == (HALF_PERIOD_GRID.size,) for c in channels)

    def test_pure_phase_single_unimodular_channel(self):
        channels = channel_set(ComplexPhase(1.7, 0.0), HALF_PERIOD_GRID)
        assert len(channels) == 1
        assert np.allclose(np.abs(channels[0].samples), 1.0, rtol=1e-13)

    def test_pointwise_conservation_default_grid(self):
        # sum_n |t_n(x)|^2 = 1 up to the truncated Poisson tail
        phi = ComplexPhase(2.28, 0.3)
        channels = channel_set(phi, HALF_PERIOD_GRID, tail_eps=1e-10)
        total = np.zeros(HALF_PERIOD_GRID.size)
        for c in channels:
            total += np.abs(c.samples) ** 2
        assert np.max(np.abs(total - 1.0)) < 1e-9

    @settings(max_examples=60, deadline=None)
    @given(
        re=st.floats(min_value=0.0, max_value=4.0),
        im=st.floats(min_value=0.0, max_value=0.3),
    )
    def test_conservation_property(self, re, im):
        phi = ComplexPhase(re, im)
        channels = channel_set(phi, HALF_PERIOD_GRID, tail_eps=1e-10)
        total = sum(np.abs(c.samples) ** 2 for c in channels)
        assert np.max(np.abs(total - 1.0)) < 1e-9

    @settings(max_examples=30, deadline=None)
    @given(
        re=st.floats(min_value=0.0, max_value=4.0),
        im=st.floats(min_value=1e-4, max_value=0.3),
    )
    def test_even_symmetry_property(self, re, im):
        channels = channel_set(ComplexPhase(re, im), HALF_PERIOD_GRID)
        for c in channels:
            assert np.allclose(c.samples, c.samples[::-1], rtol=1e-12, atol=1e-15)


SPP = 64
LASER_PERIOD_X = GridSpec(periods=2, samples_per_period=SPP).positions()
K_LASER = 2.0 * math.pi / 514.5e-9
SCALES = np.array([1.0, 0.8, 0.45, 0.1])
SCALE_WEIGHTS = np.array([0.4, 0.3, 0.2, 0.1])


class TestGratingCoherence:
    def test_equals_sum_over_photon_channels(self):
        phi = ComplexPhase(1.3, 0.4)
        t = backend.sample_channels(phi.re, phi.im, 40, K_LASER, LASER_PERIOD_X)
        summed = t.T @ t.conj()
        closed = grating_coherence(phi, K_LASER, LASER_PERIOD_X, LASER_PERIOD_X)
        assert np.max(np.abs(closed - summed)) < 1e-12

    def test_unit_diagonal_and_hermitian(self):
        state = grating_coherence(
            ComplexPhase(2.1, 0.7), K_LASER, LASER_PERIOD_X, LASER_PERIOD_X, SCALES, SCALE_WEIGHTS
        )
        assert np.allclose(np.diag(state), 1.0, rtol=0, atol=1e-15)
        assert np.allclose(state, state.conj().T, rtol=0, atol=1e-15)

    def test_vertical_average_of_scaled_states(self):
        phi = ComplexPhase(1.1, 0.3)
        x, xp = LASER_PERIOD_X[::5], LASER_PERIOD_X[::7]
        averaged = grating_coherence(phi, K_LASER, x, xp, SCALES, SCALE_WEIGHTS)
        expected = sum(
            weight * grating_coherence(phi.scaled(scale), K_LASER, x, xp)
            for scale, weight in zip(SCALES, SCALE_WEIGHTS)
        )
        assert np.allclose(averaged, expected, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n_scales, n_weights", [(3, 1), (1, 2), (2, 3)])
    def test_rejects_mismatched_scales_and_weights(self, n_scales, n_weights):
        with pytest.raises(ValueError):
            grating_coherence(
                ComplexPhase(1.3, 0.4),
                K_LASER,
                LASER_PERIOD_X,
                LASER_PERIOD_X,
                SCALES[:n_scales],
                SCALE_WEIGHTS[:n_weights],
            )


def reference_channels(phi, scales, weights, tail_eps):
    """Pivoted Cholesky of the parity blocks on the canonical laser period, in extended precision.

    The half-laser-period shift x -> x + lambda/2 negates c = cos(k x) and
    leaves R unchanged under a joint shift, so the state splits into an
    even and an odd block with columns [R(x, x_p) +- R(x, x_p + lambda/2)]/2
    at pivot x_p.  Each step pivots at the largest full residual diagonal
    (even plus odd), in the block that holds the larger share of it.  The
    columns, from the closed form of ``grating_coherence``, and the
    recurrence run in np.longdouble, so the reference's own rounding is far
    below that of the float64 implementation.

    Returns (rows, pivots as (point, block) pairs, largest full residual diagonal).
    """
    kx = canonical_kx()
    n = kx.size
    rows = np.zeros((n, n), dtype=np.clongdouble)
    full = np.full(n, np.sum(weights, dtype=np.longdouble))
    odd = 0.5 * (full - np.real(np.diag(coherence_longdouble(phi, kx, kx + PI_LONG, scales, weights))))
    pivots = []
    while len(pivots) < n:
        pivot = int(np.argmax(full))
        if full[pivot] <= tail_eps:
            break
        block = int(odd[pivot] > full[pivot] - odd[pivot])
        rank = len(pivots)
        pair = coherence_longdouble(
            phi, kx, np.array([kx[pivot], kx[pivot] + PI_LONG]), scales, weights
        )
        column = 0.5 * (pair[:, 0] + (-1) ** block * pair[:, 1])
        same = [j for j, (_, b) in enumerate(pivots) if b == block]
        column -= rows[same].T @ rows[same, pivot].conj()
        rows[rank] = column / np.sqrt(odd[pivot] if block else full[pivot] - odd[pivot])
        power = rows[rank].real ** 2 + rows[rank].imag ** 2
        full -= power
        if block:
            odd -= power
        pivots.append((pivot, block))
    return rows[: len(pivots)], pivots, max(float(full.max()), 0.0)


PI_LONG = 4 * np.arctan(np.longdouble(1))


def canonical_kx():
    """k x at the 2 SPP midpoints of the canonical laser period, in np.longdouble."""
    return PI_LONG * ((np.arange(2 * SPP, dtype=np.longdouble) + 0.5) / SPP - 1)


def coherence_longdouble(phi, kx, kx_prime, scales, weights):
    """The closed form of ``grating_coherence`` at phases k x, k x', in np.longdouble."""
    c = np.cos(kx)[:, None]
    c_prime = np.cos(kx_prime)[None, :]
    re, im = np.longdouble(phi.re), np.longdouble(phi.im)
    exponent = 2j * re * (c * c - c_prime * c_prime) - 2 * im * (c - c_prime) ** 2
    terms = np.exp(np.asarray(scales, np.longdouble)[:, None, None] * exponent)
    return np.tensordot(np.asarray(weights, np.longdouble), terms, axes=1)


def odd_diagonal(phi, x, scales, weights):
    """The odd block's diagonal [R(x, x) - R(x, x + lambda/2)]/2 on one laser period."""
    shifted = grating_coherence(phi, K_LASER, x, x + math.pi / K_LASER, scales, weights)
    return 0.5 * (float(np.sum(weights)) - np.real(np.diag(shifted)))


def row_parity(rows):
    """1 for each row that changes sign over half a laser period (odd), else 0."""
    half = rows.shape[1] // 2
    return [int(np.array_equal(row[half:], -row[:half])) for row in rows]


def replayed_pivots(rows, total_weight, odd):
    """The (point, block) each row of ``effective_channels`` was taken at.

    Replays the pivot rule on the full residual diagonal, which starts at
    ``total_weight``, and its odd share, which starts at ``odd``.
    """
    full = np.full(rows.shape[1], total_weight)
    odd = np.array(odd, dtype=np.float64)
    parity = row_parity(rows)
    pivots = []
    for row, block in zip(rows, parity):
        pivot = int(np.argmax(full))
        pivots.append((pivot, int(odd[pivot] > full[pivot] - odd[pivot])))
        full -= row.real ** 2 + row.imag ** 2
        if block:
            odd -= row.real ** 2 + row.imag ** 2
    return pivots, parity


def unmirrored(pivots, n):
    """(|c| class, block) of each (point, block) pivot on a laser period of n points.

    R depends on x only through |c| = |cos(k x)| within each block, so the
    four points of one laser period that share |c| have the same residual:
    any of them may be the pivot, as rounding decides, and the rows change
    at most by a sign.
    """
    half = n // 2
    return [(min(p % half, half - 1 - p % half), b) for p, b in pivots]


def stepwise_effective_channels(phis, spp, scales, weights, tail_eps):
    """``effective_channels`` as it was before its loop was trimmed, kept as a reference.

    It rebuilds the phase index and reads the pivot's full residual twice
    on every step, and flips the sign of the odd blocks' kernels by a
    multiplication with 1 - 2 * block.
    """
    scales, weights = scale_weight_arrays(scales, weights)
    n_points = spp // 2
    a = np.cos(parity_angles(spp))
    re = np.array([phi.re for phi in phis])
    im = np.array([phi.im for phi in phis])
    phase = np.exp(2j * np.multiply.outer(np.multiply.outer(re, scales), a * a))
    damping = -2.0 * np.multiply.outer(im, scales)[:, :, None]
    full = np.full((len(phis), n_points), float(np.sum(weights)))
    odd = np.einsum("s,vsj->vj", -0.5 * weights, np.expm1(4.0 * damping * a * a))
    out = [None] * len(phis)
    dropped = np.zeros(len(phis))
    live = np.arange(len(phis))
    rows = np.empty((len(phis), min(2 * n_points, 8), n_points), dtype=np.complex128)
    odd_row = np.empty(rows.shape[:2], dtype=bool)
    rank = 0
    while True:
        pivot = np.argmax(full, axis=1)
        at = np.arange(live.size)
        done = (full[at, pivot] <= tail_eps) | (rank == 2 * n_points)
        for v in np.flatnonzero(done):
            out[live[v]] = ParityRows(rows[v, :rank].copy(), odd_row[v, :rank].copy())
            dropped[live[v]] = max(float(full[v].max()), 0.0)
        if done.all():
            break
        if done.any():
            keep = ~done
            live, phase, damping, full = live[keep], phase[keep], damping[keep], full[keep]
            odd, rows, odd_row, pivot = odd[keep], rows[keep], odd_row[keep], pivot[keep]
            at = np.arange(live.size)
        if rank == rows.shape[1]:
            grow = min(rank, 2 * n_points - rank)
            rows = np.concatenate([rows, np.empty((live.size, grow, n_points), rows.dtype)], axis=1)
            odd_row = np.concatenate([odd_row, np.empty((live.size, grow), bool)], axis=1)
        pivot_full, pivot_odd = full[at, pivot], odd[at, pivot]
        block = pivot_odd > pivot_full - pivot_odd
        pivot_residual = np.where(block, pivot_odd, pivot_full - pivot_odd)
        a_pivot = a[pivot][:, None, None]
        kernel = np.exp(damping * (a + a_pivot) ** 2)
        kernel *= (1.0 - 2.0 * block)[:, None, None]
        kernel += np.exp(damping * (a - a_pivot) ** 2)
        column = (0.5 * weights * phase[at, :, pivot].conj())[:, None, :] @ (kernel * phase)
        earlier = np.where(odd_row[:, :rank] == block[:, None], rows[at, :rank, pivot].conj(), 0.0)
        column -= earlier[:, None, :] @ rows[:, :rank]
        row = column[:, 0] / np.sqrt(pivot_residual)[:, None]
        rows[:, rank] = row
        odd_row[:, rank] = block
        power = row.real**2 + row.imag**2
        full -= power
        odd -= power * block[:, None]
        rank += 1
    return out, dropped


class TestEffectiveChannels:
    @pytest.mark.parametrize("tail_eps", [1e-4, 1e-10])
    @pytest.mark.parametrize(
        "phi",
        [
            ComplexPhase(1.3, 0.4),
            ComplexPhase(12.0, 3.5),
            ComplexPhase(5.0, 150.0),
            ComplexPhase(5.0, 250.0),
            ComplexPhase(60.0, 40.0),
        ],
    )
    def test_residual_bounded_by_tail(self, phi, tail_eps):
        # a damping factor underflowing to 0 is exact; an overflow or a nan is not
        with np.errstate(over="raise", invalid="raise", divide="raise", under="ignore"):
            (block,), (dropped,) = effective_channels([phi], SPP, SCALES, SCALE_WEIGHTS, tail_eps)
            rows = period(block)
        state = grating_coherence(
            phi, K_LASER, LASER_PERIOD_X, LASER_PERIOD_X, SCALES, SCALE_WEIGHTS
        )
        residual = state - rows.T @ rows.conj()
        assert np.max(np.real(np.diag(residual))) <= tail_eps
        assert dropped == pytest.approx(np.max(np.real(np.diag(residual))), abs=1e-14)
        assert np.max(np.abs(residual)) <= tail_eps + 1e-14
        assert rows.shape[0] < LASER_PERIOD_X.size

    @pytest.mark.parametrize("n_nodes", [1, 7, 8, 12, 16])
    def test_folded_vertical_rule_gives_the_same_states(self, n_nodes):
        # the distinct scales of a mirror-symmetric rule, with their pair weights
        scales, weights = vertical_phi_scales(VerticalProfile(), n_nodes)
        phis = [ComplexPhase(1.3, 0.4), ComplexPhase(12.0, 3.5)] + [
            compute_phi(C70, GratingBeam(power=50.0), v) for v in (90.0, 200.0)
        ]
        full, _ = effective_channels(phis, SPP, scales, weights)
        folded, _ = effective_channels(phis, SPP, *fold_vertical_rule(scales, weights))
        for a, b in zip(full, folded):
            assert a.rank == b.rank
            rows_a, rows_b = period(a), period(b)
            assert np.max(np.abs(rows_a.T @ rows_a.conj() - rows_b.T @ rows_b.conj())) < 1e-13

    def test_bit_identical_to_the_stepwise_loop(self):
        # random batches whose phases finish at different ranks, some at once
        rng = np.random.default_rng(1601)
        for _ in range(300):
            n_phis = int(rng.integers(1, 7))
            phis = [
                ComplexPhase(float(re), float(im))
                for re, im in zip(
                    rng.uniform(-30.0, 30.0, n_phis), rng.choice([0.0, 0.3, 5.0, 60.0], n_phis)
                )
            ]
            spp = int(rng.choice([8, 16, 32, 64]))
            n_scales = int(rng.integers(1, 5))
            scales = rng.uniform(0.1, 1.0, n_scales)
            weights = rng.uniform(0.1, 1.0, n_scales)
            tail_eps = float(rng.choice([1e-12, 1e-10, 1e-4]))
            rows, dropped = effective_channels(phis, spp, scales, weights, tail_eps)
            expected, expected_dropped = stepwise_effective_channels(
                phis, spp, scales, weights, tail_eps
            )
            assert np.array_equal(dropped, expected_dropped)
            for block, reference in zip(rows, expected):
                assert np.array_equal(block.values, reference.values)
                assert np.array_equal(block.odd, reference.odd)

    def test_tighter_tail_needs_more_rows(self):
        phi = ComplexPhase(1.3, 0.4)
        (loose,), _ = effective_channels([phi], SPP, SCALES, SCALE_WEIGHTS, 1e-4)
        (tight,), _ = effective_channels([phi], SPP, SCALES, SCALE_WEIGHTS, 1e-10)
        assert loose.rank < tight.rank

    def test_pure_phase_single_scale_is_rank_one(self):
        phi = ComplexPhase(2.4, 0.0)
        (rows,), (dropped,) = effective_channels([phi], SPP, [1.0], [1.0])
        assert rows.rank == 1
        assert dropped <= 1e-15
        # the one row is the dipole phase imprint up to a global phase
        imprint = np.exp(2j * phi.re * np.cos(K_LASER * LASER_PERIOD_X) ** 2)
        overlap = np.vdot(imprint, period(rows)[0]) / LASER_PERIOD_X.size
        assert abs(overlap) == pytest.approx(1.0, abs=1e-14)

    def test_laser_off_is_one_flat_row(self):
        (rows,), (dropped,) = effective_channels(
            [ComplexPhase(0.0, 0.0)], SPP, SCALES, SCALE_WEIGHTS
        )
        assert rows.rank == 1 and dropped == 0.0
        assert np.allclose(period(rows)[0], 1.0, rtol=0, atol=1e-15)

    def test_no_odd_rows_without_absorption(self):
        # a coherent phase grating fills only the even orders
        phis = [ComplexPhase(2.4, 0.0), ComplexPhase(-17.0, 0.0), ComplexPhase(40.0, 0.0)]
        rows, dropped = effective_channels(phis, SPP, SCALES, SCALE_WEIGHTS)
        for block in rows:
            assert block.rank > 1 and not block.odd.any()
            spread = period(block)
            assert np.array_equal(spread[:, SPP:], spread[:, :SPP])
        assert np.all(dropped <= 1e-10)

    def test_batch_matches_one_phase_calls(self):
        phis = [
            ComplexPhase(60.0, 40.0),
            ComplexPhase(0.0, 0.0),
            ComplexPhase(1.3, 0.4),
            ComplexPhase(12.0, 3.5),
            ComplexPhase(2.4, 0.0),
        ]
        rows, dropped = effective_channels(phis, SPP, SCALES, SCALE_WEIGHTS)
        assert len(rows) == len(phis) and dropped.shape == (len(phis),)
        for phi, block, drop in zip(phis, rows, dropped):
            (single,), (single_drop,) = effective_channels([phi], SPP, SCALES, SCALE_WEIGHTS)
            assert block.values.shape == single.values.shape
            assert np.array_equal(block.odd, single.odd)
            assert np.max(np.abs(block.values - single.values), initial=0.0) <= 1e-15
            assert drop == pytest.approx(single_drop, abs=1e-15)

    @pytest.mark.parametrize("slit2, flipped", [(5e-6, True), (5.4e-6, False)])
    @pytest.mark.parametrize("phi", [ComplexPhase(1.3, 0.4), ComplexPhase(12.0, 3.5)])
    def test_rows_serve_the_first_period_of_the_window(self, phi, slit2, flipped):
        # rows of the canonical period against the closed form on the first
        # laser period of a beamline window; with periods/2 even its c is the
        # canonical c times -1, with periods/2 odd it is the canonical c
        beam = GratingBeam()
        grid = window_grid(beam, BeamlineGeometry(slit2=slit2), SPP)
        assert (grid.periods // 2) % 2 == (0 if flipped else 1)
        x = grid.positions()[: 2 * SPP]
        c = np.cos(beam.k_laser * x)
        canonical = np.cos(K_LASER * LASER_PERIOD_X)
        assert np.allclose(c, -canonical if flipped else canonical, rtol=0, atol=1e-9)
        tail_eps = 1e-10
        (block,), _ = effective_channels([phi], SPP, SCALES, SCALE_WEIGHTS, tail_eps)
        rows = period(block)
        assert 1 in row_parity(rows)
        state = grating_coherence(phi, beam.k_laser, x, x, SCALES, SCALE_WEIGHTS)
        assert np.max(np.abs(state - rows.T @ rows.conj())) <= tail_eps + 1e-14

    def test_period_oracle_reads_each_point_at_its_c(self):
        # each point of the period takes the row value at its |c| and, in
        # an odd row, the sign of its c
        c = np.cos(K_LASER * LASER_PERIOD_X)
        a = np.cos(np.pi * (np.arange(SPP // 2) + 0.5) / SPP)
        fold = np.argmin(np.abs(np.abs(c)[:, None] - a), axis=1)
        rows, _ = effective_channels(
            [ComplexPhase(1.3, 0.4), ComplexPhase(12.0, 3.5)], SPP, SCALES, SCALE_WEIGHTS
        )
        for block in rows:
            expected = block.values[:, fold] * np.where(block.odd[:, None], np.sign(c), 1.0)
            assert block.odd.any() and np.array_equal(period(block), expected)

    def test_rejects_non_positive_tail(self):
        with pytest.raises(ValueError):
            effective_channels([ComplexPhase(1.0, 0.1)], SPP, [1.0], [1.0], 0.0)

    @pytest.mark.parametrize("n_scales, n_weights", [(3, 1), (1, 2), (2, 3)])
    def test_rejects_mismatched_scales_and_weights(self, n_scales, n_weights):
        with pytest.raises(ValueError):
            effective_channels(
                [ComplexPhase(1.3, 0.4)],
                SPP,
                SCALES[:n_scales],
                SCALE_WEIGHTS[:n_weights],
            )

    @pytest.mark.parametrize(
        "phi", [ComplexPhase(1.3, 0.4), ComplexPhase(12.0, 3.5), ComplexPhase(60.0, 40.0)]
    )
    def test_matches_cholesky_of_closed_form_columns(self, phi):
        (block,), (dropped,) = effective_channels([phi], SPP, SCALES, SCALE_WEIGHTS)
        rows = period(block)
        expected, pivots, expected_dropped = reference_channels(
            phi, SCALES, SCALE_WEIGHTS, 1e-10
        )
        assert rows.shape == expected.shape
        assert dropped == pytest.approx(expected_dropped, abs=1e-14)
        state = rows.T @ rows.conj()
        assert np.max(np.abs(state - expected.T @ expected.conj())) < 1e-13
        # Row j is divided by the square root of its pivot residual d_j, so it
        # carries the rounding of its column over sqrt(d_j).  Compare while
        # d_j > 1e-5: past that, rounding may break a tie of two pivots the
        # other way, which changes the rows but not the state.
        n = LASER_PERIOD_X.size
        pivot_residual = np.array([expected[j, p].real ** 2 for j, (p, _) in enumerate(pivots)])
        steps = int(np.sum(pivot_residual > 1e-5))
        pivots_found, parity = replayed_pivots(
            rows, float(np.sum(SCALE_WEIGHTS)),
            odd_diagonal(phi, LASER_PERIOD_X, SCALES, SCALE_WEIGHTS),
        )
        # the pivot rule picked each row's block, and the row has that parity
        assert [b for _, b in pivots_found] == parity == block.odd.astype(int).tolist()
        assert unmirrored(pivots_found[:steps], n) == unmirrored(pivots[:steps], n)
        # an odd row taken at a point of the other sign of c is the negative
        # of the reference's: align each row's sign at the reference pivot
        signs = np.array([np.sign(rows[j, p].real) for j, (p, _) in enumerate(pivots[:steps])])
        assert np.max(np.abs(signs[:, None] * rows[:steps] - expected[:steps])) < 1e-12


class TestRamanNathDiagnostic:
    def test_example_displacement(self):
        # C60 crossing a 50 um waist at 120 m/s with |phi| = 2
        beam = GratingBeam(waist_z=50e-6)
        check = raman_nath_diagnostic(C60, beam, 120.0, ComplexPhase(2.0, 0.0))
        assert check.displacement == pytest.approx(1.7953e-9, rel=1e-3)
        assert check.ratio == pytest.approx(0.0069788, rel=1e-3)
        assert not check.warn

    def test_matches_reference_formula(self):
        beam = GratingBeam(power=9.5)
        phi = compute_phi(C70, beam, 120.0)
        kick = 2.0 * HBAR * beam.k_laser * max(1.0, abs(phi.as_complex))
        transit = 2.0 * beam.waist_z / 120.0
        displacement = kick * transit / (2.0 * C70.mass_kg)
        check = raman_nath_diagnostic(C70, beam, 120.0, phi)
        assert check.displacement == pytest.approx(displacement, rel=1e-13)
        assert check.ratio == pytest.approx(displacement / beam.period, rel=1e-13)

    def test_inverse_square_velocity_scaling(self):
        # with |phi| > 1 at both speeds the kick grows as 1/v on top of the
        # 1/v transit time, so the displacement goes as 1/v^2
        beam = GratingBeam(power=30.0)
        checks = {
            v: raman_nath_diagnostic(C60, beam, v, compute_phi(C60, beam, v))
            for v in (120.0, 240.0)
        }
        assert abs(compute_phi(C60, beam, 240.0).as_complex) > 1.0
        assert checks[120.0].displacement == pytest.approx(
            4.0 * checks[240.0].displacement, rel=1e-12
        )

    def test_saturated_kick_scales_inverse_velocity(self):
        # below |phi| = 1 the photon kick saturates at 2 hbar k and only the
        # transit time shrinks with speed
        beam = GratingBeam(power=0.1)
        checks = {
            v: raman_nath_diagnostic(C60, beam, v, compute_phi(C60, beam, v))
            for v in (120.0, 240.0)
        }
        assert checks[120.0].displacement == pytest.approx(
            2.0 * checks[240.0].displacement, rel=1e-12
        )

    def test_warning_for_thick_grating_regime(self):
        beam = GratingBeam(power=2000.0, waist_z=2e-3)
        phi = compute_phi(C70, beam, 20.0)
        check = raman_nath_diagnostic(C70, beam, 20.0, phi)
        assert check.ratio > 0.1
        assert check.warn
