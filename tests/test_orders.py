"""Diffraction-order decomposition, Bessel oracle, and zero-order root."""

import math

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import lightgrating.orders
from lightgrating.grating import (
    ComplexPhase,
    GratingBeam,
    GridSpec,
    channel_set,
    compute_phi,
    effective_channels,
    poisson_weight,
    truncation_order,
)
from lightgrating.orders import (
    DEFAULT_M_MAX,
    OrderSpectrum,
    _order_power,
    absorbed_fractions,
    bessel_j,
    default_m_max,
    incoherent_order_intensities,
    mixed_order_intensities,
    pure_phase_orders,
    samples_per_laser_period,
    zero_order_null,
)
from lightgrating.distributions import VerticalProfile, vertical_phi_scales
from lightgrating.species import C60, C70


class TestBessel:
    def test_against_scipy_dense_grid(self):
        xs = np.linspace(-50.0, 50.0, 401)
        worst = 0.0
        for m in range(0, 41):
            for x in xs:
                worst = max(worst, abs(bessel_j(m, x) - scipy.special.jv(m, x)))
        assert worst < 1e-13

    def test_known_values(self):
        assert bessel_j(0, 0.0) == 1.0
        assert bessel_j(1, 0.0) == 0.0
        assert bessel_j(0, 2.404825557695773) == pytest.approx(0.0, abs=1e-12)
        assert bessel_j(1, 2.404825557695773) == pytest.approx(
            0.5191474972894669, rel=1e-12
        )

    def test_negative_argument_parity(self):
        # J_m(-x) = (-1)^m J_m(x)
        for m in (0, 1, 2, 5):
            assert bessel_j(m, -3.7) == pytest.approx(
                (-1.0) ** m * bessel_j(m, 3.7), rel=1e-13
            )

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            bessel_j(-1, 1.0)
        with pytest.raises(ValueError):
            bessel_j(0, 51.0)

    @settings(max_examples=80, deadline=None)
    @given(
        m=st.integers(min_value=0, max_value=30),
        x=st.floats(min_value=-50.0, max_value=50.0),
    )
    def test_matches_scipy_property(self, m, x):
        assert bessel_j(m, x) == pytest.approx(scipy.special.jv(m, x), abs=1e-13)


class TestOrderSpectrum:
    def test_indexing(self):
        intensities = np.zeros(7)
        intensities[3 + 2] = 0.5
        spec = OrderSpectrum(m_max=3, intensities=intensities)
        assert spec.intensity(2) == 0.5
        assert spec.intensity(-3) == 0.0
        assert list(spec.orders) == list(range(-3, 4))

    def test_parity_totals(self):
        intensities = np.array([0.1, 0.2, 0.3, 0.2, 0.2])
        spec = OrderSpectrum(m_max=2, intensities=intensities)
        assert spec.parity_total(0) == pytest.approx(0.1 + 0.3 + 0.2)
        assert spec.parity_total(1) == pytest.approx(0.2 + 0.2)
        assert spec.total == pytest.approx(1.0)

    def test_default_m_max_floor(self):
        assert default_m_max(ComplexPhase(0.1, 0.0)) == DEFAULT_M_MAX

    def test_default_m_max_grows_with_phase(self):
        big = ComplexPhase(20.0, 2.0)
        assert default_m_max(big) >= math.ceil(2.0 * (20.0 + 4.0 * 2.0)) + 10

    @pytest.mark.parametrize(
        "phi", [ComplexPhase(-42.4, 0.0022), ComplexPhase(12.3, 0.0054)], ids=["re-42", "re12"]
    )
    def test_default_m_max_holds_the_bessel_tail(self, phi):
        # at large |Re Phi| the orders reach well past 2 |Re Phi| + 10
        spectrum = incoherent_order_intensities(phi)
        assert spectrum.m_max == default_m_max(phi) > 2.0 * abs(phi.re) + 10
        assert 1.0 - spectrum.total <= 1e-9


class TestPurePhaseOrders:
    def test_bessel_intensities_on_even_slots(self):
        phi_re = 1.3
        spec = pure_phase_orders(phi_re, m_max=12)
        for j in range(-6, 7):
            assert spec.intensity(2 * j) == pytest.approx(
                scipy.special.jv(j, phi_re) ** 2, rel=1e-12
            )

    def test_odd_slots_empty(self):
        spec = pure_phase_orders(2.0, m_max=11)
        for m in spec.orders:
            if m % 2 != 0:
                assert spec.intensity(m) == 0.0

    def test_unitarity(self):
        for phi_re in (0.5, 1.0, 2.0, 2.404825557695773):
            spec = pure_phase_orders(phi_re, m_max=30)
            assert spec.total == pytest.approx(1.0, abs=1e-12)

    def test_first_order_at_zero_order_null(self):
        root = zero_order_null()
        spec = pure_phase_orders(root, m_max=10)
        assert spec.intensity(0) == pytest.approx(0.0, abs=1e-15)
        # about 27% of the beam lands in each first-order peak at the null
        assert spec.intensity(2) == pytest.approx(
            scipy.special.jv(1, root) ** 2, rel=1e-12
        )
        assert 0.25 < spec.intensity(2) < 0.28


def direct_order_power(rows, m_max):
    """|(1/n) sum_x u(x) exp(-i m k x)|^2 over one laser period, summed term by term."""
    n = rows.shape[-1]
    kx = 2.0 * math.pi * (np.arange(n) + 0.5) / n
    power = np.empty((len(rows), 2 * m_max + 1))
    for j, u in enumerate(rows):
        for m in range(-m_max, m_max + 1):
            terms = (u[i] * complex(math.cos(m * kx[i]), -math.sin(m * kx[i])) for i in range(n))
            power[j, m + m_max] = abs(sum(terms) / n) ** 2
    return power


class TestFourierAmplitudes:
    GRID = GridSpec(periods=2, samples_per_period=1024)

    def test_matches_direct_sum_on_random_rows(self):
        rng = np.random.default_rng(7)
        rows = rng.normal(size=(3, 64)) + 1j * rng.normal(size=(3, 64))
        assert np.max(np.abs(_order_power(rows, 12) - direct_order_power(rows, 12))) < 1e-13

    def test_uniform_transmission(self):
        power = _order_power(np.ones((1, self.GRID.size), dtype=complex), 5)[0]
        assert power[5] == pytest.approx(1.0, rel=1e-14)
        assert np.max(np.delete(power, 5)) < 1e-28

    def test_single_harmonic(self):
        k = 2.0 * math.pi / self.GRID.wavelength
        power = _order_power(np.exp(2.0j * k * self.GRID.positions())[None, :], 4)[0]
        assert power[4 + 2] == pytest.approx(1.0, rel=1e-13)
        assert power[4 - 2] < 1e-28

    def test_square_wave_amplitudes(self):
        # sign(cos kx) has |c_m| = 2/(pi |m|) for odd m, 0 for even m
        k = 2.0 * math.pi / self.GRID.wavelength
        samples = np.sign(np.cos(k * self.GRID.positions())).astype(complex)
        power = _order_power(samples[None, :], 5)[0]
        for m in (-1, 1):
            assert math.sqrt(power[5 + m]) == pytest.approx(2.0 / math.pi, abs=1e-5)
        for m in (-3, 3):
            assert math.sqrt(power[5 + m]) == pytest.approx(2.0 / (3.0 * math.pi), abs=1e-5)
        for m in (-2, 0, 2):
            assert power[5 + m] < 1e-12

    def test_pure_phase_channel_matches_bessel(self):
        # exp(2i phi cos^2) decomposes with |c_2j| = |J_j(phi)| exactly
        phi = ComplexPhase(1.7, 0.0)
        channels = channel_set(phi, self.GRID)
        power = _order_power(channels[0].samples[None, :], 12)[0]
        for j in range(-6, 7):
            assert math.sqrt(power[12 + 2 * j]) == pytest.approx(
                abs(scipy.special.jv(j, phi.re)), abs=1e-12
            )

    def test_coherent_channel_selection_rule(self):
        # the zero-photon channel is half-period periodic: odd slots vanish
        channels = channel_set(ComplexPhase(2.28, 0.386), self.GRID)
        power = _order_power(channels[0].samples[None, :], 9)[0]
        assert max(power[9 + m] for m in range(-9, 10) if m % 2 != 0) < 1e-12

    def test_odd_channel_populates_odd_slots_only(self):
        channels = channel_set(ComplexPhase(2.28, 0.386), self.GRID)
        power = _order_power(channels[1].samples[None, :], 9)[0]
        assert max(power[9 + m] for m in range(-9, 10) if m % 2 == 0) < 1e-12

    def test_incommensurate_window_rejected(self):
        with pytest.raises(ValueError):
            GridSpec(periods=1, samples_per_period=64)


class TestIncoherentSpectrum:
    def test_total_unity_moderate_absorption(self):
        spec = incoherent_order_intensities(ComplexPhase(1.0, 0.1))
        assert abs(1.0 - spec.total) < 1e-10 + 1e-9

    def test_total_unity_c70_default(self):
        phi = compute_phi(C70, GratingBeam(), 120.0)
        spec = incoherent_order_intensities(phi)
        assert abs(1.0 - spec.total) < 1e-10 + 1e-9

    def test_mirror_symmetry(self):
        spec = incoherent_order_intensities(ComplexPhase(2.28, 0.386))
        for m in range(1, spec.m_max + 1):
            assert spec.intensity(m) == pytest.approx(spec.intensity(-m), abs=1e-14)

    def test_matches_bessel_for_pure_phase(self):
        for phi_re in (0.5, 1.0, 2.0):
            spec = incoherent_order_intensities(ComplexPhase(phi_re, 0.0))
            oracle = pure_phase_orders(phi_re, m_max=spec.m_max)
            for m in spec.orders:
                assert spec.intensity(m) == pytest.approx(
                    oracle.intensity(m), abs=1e-10
                )

    def test_per_channel_intensities_recorded(self):
        phi = ComplexPhase(1.5, 0.2)
        spec = incoherent_order_intensities(phi)
        assert spec.per_channel is not None
        assert sorted(spec.per_channel) == list(range(truncation_order(phi) + 1))
        stacked = sum(spec.per_channel.values())
        assert np.allclose(stacked, spec.intensities, atol=1e-15)

    def test_odd_parity_weight_comes_from_absorption(self):
        spec = incoherent_order_intensities(ComplexPhase(2.28, 0.386))
        odd = spec.parity_total(1)
        even_from_odd_channels = sum(
            spec.per_channel[n][spec.m_max :: 2].sum()
            for n in spec.per_channel
            if n % 2 != 0
        )
        assert odd > 0.2  # substantial absorption at this power
        assert even_from_odd_channels < 1e-12

    def test_default_grid_matches_fine_grid(self, monkeypatch):
        phis = (ComplexPhase(1.5, 0.2), compute_phi(C70, GratingBeam(), 120.0), SLOW_C70_50W)
        sized = [incoherent_order_intensities(phi, 20) for phi in phis]
        monkeypatch.setattr(lightgrating.orders, "samples_per_laser_period", lambda *args: 2048)
        for phi, sized in zip(phis, sized):
            reference = incoherent_order_intensities(phi, 20)
            assert sorted(sized.per_channel) == sorted(reference.per_channel)
            for n, column in reference.per_channel.items():
                assert np.max(np.abs(sized.per_channel[n] - column)) <= 1e-13

    @settings(max_examples=25, deadline=None)
    @given(
        re=st.floats(min_value=0.0, max_value=3.0),
        im=st.floats(min_value=0.0, max_value=0.3),
    )
    def test_conservation_property(self, re, im):
        spec = incoherent_order_intensities(ComplexPhase(re, im))
        assert abs(1.0 - spec.total) < 1e-10 + 1e-9


# C60 at 9.5 W and C70 at 50 W, slowest of 16 velocity nodes (72 m/s)
SLOW_C60 = ComplexPhase(3.2425948357567873, 0.2568391949114287)
SLOW_C70_50W = ComplexPhase(19.938832236545124, 3.379463090939851)
SCALES = np.array([1.0, 0.62, 0.21])
SCALE_WEIGHTS = np.array([0.45, 0.35, 0.2])


class TestSamplesPerLaserPeriod:
    @pytest.mark.parametrize(
        "phi",
        [ComplexPhase(0.0, 0.0), ComplexPhase(2.3, 0.2), SLOW_C60, SLOW_C70_50W,
         ComplexPhase(-30.0, 0.5), ComplexPhase(40.0, 8.0)],
    )
    def test_top_bins_hold_less_than_tail_eps(self, phi):
        n = samples_per_laser_period(phi, 20)
        assert n & (n - 1) == 0 and n >= 4 * 20
        # the state's spectrum on four times finer sampling
        fine = GridSpec(periods=2, samples_per_period=2 * n)
        (rows,), _ = effective_channels([phi], 2 * n, (1.0,), (1.0,), 1e-10)
        power = np.abs(np.fft.fft(rows.period(), axis=-1) / fine.size) ** 2
        m = np.abs(np.fft.fftfreq(fine.size, 1.0 / fine.size))
        assert power[:, m >= n // 4].sum() < 1e-10

    def test_grows_with_phase_order_cap_and_precision(self):
        assert samples_per_laser_period(ComplexPhase(1.0, 0.1), 20) == 128
        assert samples_per_laser_period(ComplexPhase(1.0, 0.1), 40) == 256
        assert samples_per_laser_period(SLOW_C70_50W, 20) == 512
        assert samples_per_laser_period(SLOW_C70_50W, 20, 1e-4) == 256


class TestMixedOrderIntensities:
    @pytest.mark.parametrize("phi", [SLOW_C60, compute_phi(C60, GratingBeam(), 120.0), SLOW_C70_50W])
    def test_matches_scale_weighted_per_channel_spectra(self, phi):
        # the per-channel oracle needs ~40 photon channels at C70 50 W
        intensities, rank, dropped = mixed_order_intensities(phi, 20, SCALES, SCALE_WEIGHTS)
        reference = sum(
            w * incoherent_order_intensities(phi.scaled(float(s)), 20).intensities
            for s, w in zip(SCALES, SCALE_WEIGHTS)
        )
        assert np.max(np.abs(intensities - reference)) <= 1e-10
        assert 1 <= rank < 64 and 0.0 <= dropped <= 1e-10

    @pytest.mark.parametrize("phi", [SLOW_C60, SLOW_C70_50W])
    def test_doubling_the_sampling_changes_nothing(self, monkeypatch, phi):
        intensities = mixed_order_intensities(phi, 20, SCALES, SCALE_WEIGHTS)[0]
        sized = lightgrating.orders.samples_per_laser_period
        monkeypatch.setattr(
            lightgrating.orders, "samples_per_laser_period", lambda *args: 2 * sized(*args)
        )
        doubled = mixed_order_intensities(phi, 20, SCALES, SCALE_WEIGHTS)[0]
        assert np.max(np.abs(doubled - intensities)) <= 1e-12

    def test_per_channel_and_mixed_totals_agree(self):
        # ~40 photon numbers at the antinode; both keep every one of them
        per_channel = incoherent_order_intensities(SLOW_C70_50W, 80)
        mixed = mixed_order_intensities(SLOW_C70_50W, 80)[0].sum()
        assert len(per_channel.per_channel) > 13
        assert abs(per_channel.total - mixed) < 1e-9 and abs(mixed - 1.0) < 1e-9

    @settings(max_examples=30, deadline=None)
    @given(
        re=st.floats(min_value=-25.0, max_value=25.0),
        im=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=3.0)),
        m_max=st.integers(min_value=1, max_value=40),
    )
    def test_conservation_and_parity_property(self, re, im, m_max):
        tail_eps = 1e-10
        phi = ComplexPhase(re, im)
        intensities, _, _ = mixed_order_intensities(phi, m_max, SCALES, SCALE_WEIGHTS, tail_eps)
        assert intensities.min() >= 0.0
        assert intensities.sum() <= 1.0 + 1e-12
        if im == 0.0:
            # no absorbed photon, no odd momentum transfer
            assert intensities[(m_max + 1) % 2 :: 2].max(initial=0.0) < tail_eps


class TestMixedOrderSpectra:
    @pytest.mark.parametrize("species, power", [(C60, 30.0), (C70, 50.0)])
    def test_run_wide_grid_matches_per_node_grids(self, species, power):
        # one grid sized by the slowest node against one grid per node; at
        # C70 a grid sized by the fastest node is off by 2.4e-4
        beam = GratingBeam(power=power)
        phis = [compute_phi(species, beam, v) for v in (30.0, 72.0, 400.0)]
        intensities, ranks, dropped = lightgrating.orders.mixed_order_spectra(
            phis, 20, SCALES, SCALE_WEIGHTS
        )
        assert intensities.shape == (len(phis), 41)
        assert len({samples_per_laser_period(phi, 20) for phi in phis}) == 3
        for phi, row, rank, drop in zip(phis, intensities, ranks, dropped):
            single, _, single_drop = mixed_order_intensities(phi, 20, SCALES, SCALE_WEIGHTS)
            assert np.max(np.abs(row - single)) <= 1e-12
            assert rank >= 1 and 0.0 <= drop <= 1e-10 and 0.0 <= single_drop <= 1e-10


class TestZeroOrderNull:
    def test_root_value(self):
        root = zero_order_null()
        assert root == pytest.approx(2.40483, abs=1e-4)
        assert abs(scipy.special.jv(0, root)) < 1e-9

    def test_bracketed(self):
        assert 2.0 < zero_order_null() < 3.0

    def test_null_power_for_c60(self):
        phi_unit = compute_phi(C60, GratingBeam(power=1.0), 120.0)
        p_null = zero_order_null() / phi_unit.re
        assert p_null == pytest.approx(11.712072224475481, rel=1e-10)


class TestAbsorbedFraction:
    def test_no_absorption(self):
        assert absorbed_fractions(ComplexPhase(1.0, 0.0), 2).tolist() == [1.0, 0.0, 0.0]

    def test_matches_poisson_average_oracle(self):
        # independent oracle: average scipy pmf over one standing-wave period
        phi = ComplexPhase(1.0, 0.25)
        x = (np.arange(4096) + 0.5) / 4096.0  # phase fraction of one period
        nbar = 4.0 * phi.im * np.cos(math.pi * x) ** 2
        fractions = absorbed_fractions(phi, 3)
        for n in (0, 1, 2, 3):
            oracle = float(np.mean(scipy.stats.poisson.pmf(n, nbar)))
            assert fractions[n] == pytest.approx(oracle, abs=1e-9)

    def test_matches_the_weighted_sum_of_period_averages(self):
        # the per-n average of the summary before the one-pass table
        phi = compute_phi(C70, GratingBeam(power=20.0), 120.0)
        scales, weights = vertical_phi_scales(VerticalProfile(), 16)
        n_max = truncation_order(phi)
        theta = (np.arange(2048) + 0.5) * (math.pi / 2048)
        expected = [
            sum(w * float(np.mean(poisson_weight(4.0 * phi.im * s * np.cos(theta) ** 2, n)))
                for s, w in zip(scales, weights))
            for n in range(n_max + 1)
        ]
        assert np.max(np.abs(absorbed_fractions(phi, n_max, scales, weights) - expected)) < 1e-14

    @staticmethod
    def per_n_poisson_weight_loop(phi, n_max, scales, weights):
        """The fractions from one ``poisson_weight`` call per n, summed as the summary does."""
        weights = weights / weights.sum()
        theta = (np.arange(1024) + 0.5) * (0.5 * math.pi / 1024)
        nbar = 4.0 * phi.im * np.multiply.outer(scales, np.cos(theta) ** 2)
        means = np.array([np.mean(poisson_weight(nbar, n), axis=-1) for n in range(n_max + 1)])
        return sum(weight * column for weight, column in zip(weights, means.T))

    @pytest.mark.parametrize("species", [C60, C70], ids=["C60", "C70"])
    @pytest.mark.parametrize("power", [0.0, 9.5, 50.0, 1000.0])
    def test_bit_identical_to_per_n_poisson_weight(self, species, power):
        phi = compute_phi(species, GratingBeam(power=power), 120.0)
        n_max = truncation_order(phi)
        for nodes in range(1, 40):
            scales, weights = vertical_phi_scales(VerticalProfile(), nodes)
            expected = self.per_n_poisson_weight_loop(phi, n_max, scales, weights)
            assert np.array_equal(absorbed_fractions(phi, n_max, scales, weights), expected)

    def test_negative_mean_photon_number_rejected(self):
        with pytest.raises(ValueError, match="mean photon number"):
            absorbed_fractions(ComplexPhase(1.0, 0.1), 2, [-1.0], [1.0])

    def test_c70_two_photon_fraction(self):
        phi = compute_phi(C70, GratingBeam(), 120.0)
        assert absorbed_fractions(phi, 2)[2] == pytest.approx(0.13, abs=0.01)

    def test_c60_two_photon_with_vertical_averaging(self):
        phi = compute_phi(C60, GratingBeam(), 120.0)
        scales, weights = vertical_phi_scales(VerticalProfile(), 16)
        assert absorbed_fractions(phi, 2, scales, weights)[2] == pytest.approx(0.04, abs=0.02)

    def test_fractions_sum_to_one(self):
        phi = ComplexPhase(1.5, 0.3)
        assert absorbed_fractions(phi, 13).sum() == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("im", [3.38, 50.0, 400.0])
    def test_sum_within_tail_eps_at_strong_absorption(self, im):
        # every n up to the truncation order, at and past the mean photon
        # numbers where exp(-nbar) underflows
        phi = ComplexPhase(1.0, im)
        scales, weights = vertical_phi_scales(VerticalProfile(), 16)
        fractions = absorbed_fractions(phi, truncation_order(phi), scales, weights)
        assert np.all(np.isfinite(fractions)) and fractions.min() >= 0.0
        assert abs(fractions.sum() - 1.0) < 1e-10

    def test_vertical_averaging_reduces_absorption(self):
        phi = compute_phi(C70, GratingBeam(), 120.0)
        scales, weights = vertical_phi_scales(VerticalProfile(), 16)
        assert absorbed_fractions(phi, 2, scales, weights)[2] < absorbed_fractions(phi, 2)[2]

    def test_negative_photon_count_rejected(self):
        with pytest.raises(ValueError):
            absorbed_fractions(ComplexPhase(1.0, 0.1), -1)
