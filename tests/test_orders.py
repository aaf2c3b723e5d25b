"""Diffraction-order decomposition against the Bessel result and the zero-order root."""

import functools
import math
import tracemalloc

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
    ParityRows,
    compute_phi,
    parity_angles,
    poisson_weight,
    truncation_order,
)
from lightgrating.orders import (
    DEFAULT_M_MAX,
    OrderSpectrum,
    _FRACTION_BLOCK,
    _fraction_samples,
    _order_power,
    absorbed_fractions,
    default_m_max,
    incoherent_order_intensities,
    mixed_order_spectra,
    samples_per_laser_period,
)
from lightgrating.distributions import VerticalProfile, vertical_phi_scales
from lightgrating.species import C60, C70
from oracles import channel_set, grating_coherence, period, pure_phase_orders


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
        root = scipy.special.jn_zeros(0, 1)[0]
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


def fft_order_power(period, m_max):
    """|u(m)|^2 of rows sampled over one laser period, by FFT, m = -m_max .. m_max."""
    n = period.shape[-1]
    spectrum = np.fft.fft(period, axis=-1)[:, np.arange(-m_max, m_max + 1) % n] / n
    return spectrum.real**2 + spectrum.imag**2


def channel_rows(channels):
    """The channels of ``channel_set`` on GridSpec(2, spp) as ``ParityRows``, n mod 2 odd.

    Point spp + i of the canonical period sits at k x = theta_i, the i-th
    stored value of ``ParityRows``; ``oracles.period`` must give the samples back.
    """
    grid = channels[0].grid
    spp = grid.samples_per_period
    samples = np.array([channel.samples for channel in channels])
    rows = ParityRows(
        samples[:, spp : spp + spp // 2],
        np.array([channel.photon_count % 2 == 1 for channel in channels]),
    )
    assert np.max(np.abs(period(rows) - samples)) < 1e-14
    return rows


class TestFourierAmplitudes:
    GRID = GridSpec(periods=2, samples_per_period=1024)
    A = np.cos(parity_angles(1024))  # the stored values of |cos(k x)|

    def test_matches_direct_sum_on_random_rows(self):
        rng = np.random.default_rng(7)
        rows = ParityRows(
            rng.normal(size=(3, 64)) + 1j * rng.normal(size=(3, 64)), np.array([False, True, False])
        )
        direct = direct_order_power(period(rows), 12)
        assert np.max(np.abs(_order_power(rows, 12) - direct)) < 1e-13

    def test_uniform_transmission(self):
        rows = ParityRows(np.ones((1, self.A.size), dtype=complex), np.array([False]))
        power = _order_power(rows, 5)[0]
        assert power[5] == pytest.approx(1.0, rel=1e-14)
        assert np.max(np.delete(power, 5)) < 1e-28

    def test_single_harmonic(self):
        # cos(2 k x) = 2 c^2 - 1 = (exp(2ikx) + exp(-2ikx))/2
        rows = ParityRows((2.0 * self.A**2 - 1.0)[None, :].astype(complex), np.array([False]))
        power = _order_power(rows, 4)[0]
        for m in (-2, 2):
            assert power[4 + m] == pytest.approx(0.25, rel=1e-13)
        assert np.max(np.delete(power, [4 - 2, 4 + 2])) < 1e-28

    def test_square_wave_amplitudes(self):
        # sign(cos kx) has |c_m| = 2/(pi |m|) for odd m, 0 for even m
        rows = ParityRows(np.ones((1, self.A.size), dtype=complex), np.array([True]))
        power = _order_power(rows, 5)[0]
        for m in (-1, 1):
            assert math.sqrt(power[5 + m]) == pytest.approx(2.0 / math.pi, abs=1e-5)
        for m in (-3, 3):
            assert math.sqrt(power[5 + m]) == pytest.approx(2.0 / (3.0 * math.pi), abs=1e-5)
        for m in (-2, 0, 2):
            assert power[5 + m] < 1e-12

    def test_pure_phase_channel_matches_bessel(self):
        # exp(2i phi cos^2) decomposes with |c_2j| = |J_j(phi)| exactly
        phi = ComplexPhase(1.7, 0.0)
        power = _order_power(channel_rows(channel_set(phi, self.GRID)), 12)[0]
        for j in range(-6, 7):
            assert math.sqrt(power[12 + 2 * j]) == pytest.approx(
                abs(scipy.special.jv(j, phi.re)), abs=1e-12
            )

    # The selection rules are checked on the FFT of each channel over the
    # period, not through the parity of the projection.
    def test_coherent_channel_selection_rule(self):
        # the zero-photon channel is half-period periodic: odd slots vanish
        rows = channel_rows(channel_set(ComplexPhase(2.28, 0.386), self.GRID))
        power = fft_order_power(period(rows)[:1], 9)[0]
        assert max(power[9 + m] for m in range(-9, 10) if m % 2 != 0) < 1e-12
        assert np.max(np.abs(_order_power(rows, 9)[0] - power)) < 1e-13

    def test_odd_channel_populates_odd_slots_only(self):
        rows = channel_rows(channel_set(ComplexPhase(2.28, 0.386), self.GRID))
        power = fft_order_power(period(rows)[1:2], 9)[0]
        assert max(power[9 + m] for m in range(-9, 10) if m % 2 == 0) < 1e-12
        assert np.max(np.abs(_order_power(rows, 9)[1] - power)) < 1e-13

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


def with_samples(monkeypatch, factor):
    """Make ``samples_per_laser_period`` return ``factor`` times its own n."""
    sized = lightgrating.orders.samples_per_laser_period
    monkeypatch.setattr(
        lightgrating.orders, "samples_per_laser_period", lambda *args: factor * sized(*args)
    )


def alias_bound_samples(phi, m_max, tail_eps):
    """The smallest multiple of 8 whose alias sum S meets tail_eps / 2, by search.

    S(n) = exp(C(sigma)/2 - (n - m_max) sigma) 2/(1 - exp(-n sigma)),
    minimised over sigma on a dense grid: the sum over l != 0 of the
    bound sqrt(I_p) <= exp(C(sigma)/2 - |p| sigma) at the partners
    |p| >= |l| n - m_max.
    """
    sigma = np.geomspace(1e-3, 4.0, 4000)
    log_c = 2.0 * abs(phi.re) * np.sinh(2.0 * sigma) + 8.0 * phi.im * np.sinh(sigma) ** 2
    n = 8
    while True:
        log_s = 0.5 * log_c - (n - m_max) * sigma + np.log(2.0 / -np.expm1(-n * sigma))
        if np.min(log_s) <= math.log(0.5 * tail_eps):
            return n
        n += 8


def dense_order_intensities(phi, n, m_max, scales, weights):
    """<m|rho|m> of the dense closed-form state on n midpoints of one laser period."""
    kx = 2.0 * math.pi * (np.arange(n) + 0.5) / n - math.pi
    state = grating_coherence(phi, 1.0, kx, kx, scales, weights)
    waves = np.exp(1j * np.multiply.outer(np.arange(-m_max, m_max + 1), kx)) / n
    return np.einsum("mi,ij,mj->m", waves.conj(), state, waves).real


class TestSamplesPerLaserPeriod:
    @pytest.mark.parametrize("tail_eps", [1e-10, 1e-4])
    @pytest.mark.parametrize(
        "phi",
        [ComplexPhase(0.0, 0.0), ComplexPhase(2.3, 0.2), SLOW_C60, SLOW_C70_50W,
         ComplexPhase(-30.0, 0.5), ComplexPhase(40.0, 8.0)],
    )
    def test_sized_grid_matches_four_times_the_samples(self, monkeypatch, phi, tail_eps):
        n = samples_per_laser_period(phi, 20, tail_eps)
        assert n % 8 == 0
        sized = mixed_order_spectra([phi], 20, tail_eps=tail_eps)
        with_samples(monkeypatch, 4)
        fine = mixed_order_spectra([phi], 20, tail_eps=tail_eps)
        assert np.max(np.abs(sized - fine)) <= 2.0 * tail_eps

    def test_closed_form_pins(self):
        # n - m_max clears the order where the bound on I_p reaches tail_eps^2
        assert samples_per_laser_period(ComplexPhase(0.0, 0.0), 20) == 32
        assert samples_per_laser_period(SLOW_C60, 20) == 64
        assert samples_per_laser_period(SLOW_C70_50W, 20) == 120

    def test_grows_with_phase_order_cap_and_precision(self):
        assert samples_per_laser_period(ComplexPhase(1.0, 0.1), 20) == 48
        assert samples_per_laser_period(ComplexPhase(1.0, 0.1), 40) == 72
        assert samples_per_laser_period(SLOW_C70_50W, 20, 1e-4) == 96
        # no n > 2 m_max is needed: every alias partner lies beyond n - m_max
        assert samples_per_laser_period(ComplexPhase(0.0, 0.0), 1) == 8
        assert samples_per_laser_period(ComplexPhase(0.0, 0.0), 200) == 208

    @pytest.mark.parametrize("m_max", [1, 20, 60])
    @pytest.mark.parametrize("tail_eps", [1e-10, 1e-4])
    @pytest.mark.parametrize(
        "phi", [ComplexPhase(0.0, 0.0), SLOW_C60, SLOW_C70_50W, ComplexPhase(-400.0, 68.0)]
    )
    def test_closed_form_is_the_smallest_multiple_of_8(self, phi, tail_eps, m_max):
        # the search's finer sigma grid may find an n one step lower (it
        # does at Phi = -400 + 68i and tail_eps 1e-4)
        n = samples_per_laser_period(phi, m_max, tail_eps)
        assert n - alias_bound_samples(phi, m_max, tail_eps) in (0, 8)

    def test_rejects_nonpositive_tail(self):
        with pytest.raises(ValueError):
            samples_per_laser_period(SLOW_C60, 20, 0.0)

    def test_the_smallest_tail_is_sized(self):
        # tail_eps / 2 underflows to 0 at the smallest double
        assert samples_per_laser_period(ComplexPhase(0.0, 0.0), 20, 5e-324) == 208


class TestMixedOrderIntensities:
    @pytest.mark.parametrize(
        "phi",
        [SLOW_C60, compute_phi(C60, GratingBeam(), 120.0), SLOW_C70_50W, ComplexPhase(-7.0, 1.2)],
    )
    def test_matches_scale_weighted_per_channel_spectra(self, monkeypatch, phi):
        # the per-channel oracle on four times the samples, its Poisson tail
        # cut at 1e-16; nothing is dropped from the mixed state
        intensities = mixed_order_spectra([phi], 20, SCALES, SCALE_WEIGHTS)[0]
        with_samples(monkeypatch, 4)
        reference = sum(
            w * incoherent_order_intensities(phi.scaled(float(s)), 20, 1e-16).intensities
            for s, w in zip(SCALES, SCALE_WEIGHTS)
        )
        assert np.max(np.abs(intensities - reference)) <= 1e-12

    @pytest.mark.parametrize("n", [8, 24, 64])
    @pytest.mark.parametrize("phi", [SLOW_C60, ComplexPhase(-7.0, 1.2), ComplexPhase(2.0, 0.0)])
    def test_matches_the_dense_state_on_the_same_grid(self, monkeypatch, phi, n):
        # the same grid: aliasing included, the two agree to round-off
        monkeypatch.setattr(lightgrating.orders, "samples_per_laser_period", lambda *args: n)
        intensities = mixed_order_spectra([phi], 20, SCALES, SCALE_WEIGHTS)[0]
        dense = dense_order_intensities(phi, n, 20, SCALES, SCALE_WEIGHTS)
        assert np.max(np.abs(intensities - np.maximum(dense, 0.0))) <= 1e-14

    @pytest.mark.parametrize("phi", [SLOW_C60, SLOW_C70_50W])
    def test_doubling_the_sampling_changes_nothing(self, monkeypatch, phi):
        intensities = mixed_order_spectra([phi], 20, SCALES, SCALE_WEIGHTS)[0]
        with_samples(monkeypatch, 2)
        doubled = mixed_order_spectra([phi], 20, SCALES, SCALE_WEIGHTS)[0]
        assert np.max(np.abs(doubled - intensities)) <= 1e-12

    def test_per_channel_and_mixed_totals_agree(self):
        # ~40 photon numbers at the antinode; both keep every one of them
        per_channel = incoherent_order_intensities(SLOW_C70_50W, 80)
        mixed = mixed_order_spectra([SLOW_C70_50W], 80)[0].sum()
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
        (intensities,) = mixed_order_spectra([phi], m_max, SCALES, SCALE_WEIGHTS, tail_eps)
        assert intensities.min() >= 0.0
        assert intensities.sum() <= 1.0 + 1e-12
        if im == 0.0:
            # no absorbed photon, no odd momentum transfer
            assert intensities[(m_max + 1) % 2 :: 2].max(initial=0.0) < tail_eps

    @settings(max_examples=40, deadline=None)
    @given(
        phases=st.lists(
            st.tuples(
                st.floats(min_value=-60.0, max_value=60.0),
                st.floats(min_value=0.0, max_value=10.0),
            ),
            min_size=1,
            max_size=5,
        ),
        rule=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1.0),
                st.floats(min_value=0.0, max_value=1.0),
            ),
            min_size=1,
            max_size=6,
        ).filter(lambda rule: sum(w for _, w in rule) > 0.0),
        m_max=st.integers(min_value=1, max_value=60),
    )
    def test_nonnegative_even_and_bounded_property(self, phases, rule, m_max):
        scales, weights = (np.array(column) for column in zip(*rule))
        weights = weights / weights.sum()
        phis = [ComplexPhase(re, im) for re, im in phases]
        intensities = mixed_order_spectra(phis, m_max, scales, weights)
        assert intensities.shape == (len(phis), 2 * m_max + 1)
        assert intensities.min() >= 0.0
        # I_{-m} = I_m bit for bit, as _place_orders assumes
        assert np.array_equal(intensities, intensities[:, ::-1])
        assert intensities.sum(axis=1).max() <= 1.0 + 1e-12


class TestMixedOrderSpectra:
    @pytest.mark.parametrize("species, power", [(C60, 30.0), (C70, 50.0)])
    def test_run_wide_grid_matches_per_node_grids(self, species, power):
        # one grid sized by the slowest node against one grid per node; at
        # C70 a grid sized by the fastest node is off by 2.4e-4
        beam = GratingBeam(power=power)
        phis = [compute_phi(species, beam, v) for v in (30.0, 72.0, 400.0)]
        intensities = lightgrating.orders.mixed_order_spectra(phis, 20, SCALES, SCALE_WEIGHTS)
        assert intensities.shape == (len(phis), 41)
        assert len({samples_per_laser_period(phi, 20) for phi in phis}) == 3
        for phi, row in zip(phis, intensities):
            (single,) = mixed_order_spectra([phi], 20, SCALES, SCALE_WEIGHTS)
            assert np.max(np.abs(row - single)) <= 1e-12

    def test_small_weights_scale_the_orders(self):
        # nothing is dropped: weights summing below tail_eps still give
        # their share of every order
        phis = [ComplexPhase(1.3, 0.4), ComplexPhase(2.0, 0.1)]
        unit = lightgrating.orders.mixed_order_spectra(phis, 5, [1.0], [1.0])
        small = lightgrating.orders.mixed_order_spectra(phis, 5, [1.0], [1e-12])
        assert small.shape == (2, 11) and small.any()
        assert np.max(np.abs(small - 1e-12 * unit)) <= 1e-27

    @pytest.mark.parametrize("rows", [1, 40, 2 * 256, 5 * 256])
    def test_kernel_budget_splits_nodes_and_points(self, monkeypatch, rows):
        # C70 at 1 kW: 256 stored points per node, 5 nodes; the budgets give
        # blocks of one point row, of 40 rows, of 2 nodes and of all 5 nodes
        budget = lightgrating.orders._KERNEL_ARRAYS * 8 * 256 * rows
        beam = GratingBeam(power=1000.0)
        phis = [compute_phi(C70, beam, v) for v in (72.0, 100.0, 140.0, 200.0, 300.0)]
        assert samples_per_laser_period(phis[0].scaled(1.0), 20) == 1024
        whole = mixed_order_spectra(phis, 20, SCALES, SCALE_WEIGHTS)
        monkeypatch.setattr(lightgrating.orders, "MAX_KERNEL_BYTES", budget)
        split = mixed_order_spectra(phis, 20, SCALES, SCALE_WEIGHTS)
        assert np.max(np.abs(split - whole)) <= 1e-15
        assert np.array_equal(split, split[:, ::-1])

    def test_kernel_arrays_stay_within_the_budget(self, monkeypatch):
        # unsplit, the kernel arrays of 16 nodes at 256 points would take
        # 58 MB; beyond the budget lie the ufunc buffers and small tables
        beam = GratingBeam(power=1000.0)
        phis = [compute_phi(C70, beam, v) for v in np.linspace(72.0, 300.0, 16)]
        budget = 1 << 22
        monkeypatch.setattr(lightgrating.orders, "MAX_KERNEL_BYTES", budget)
        tracemalloc.start()
        try:
            mixed_order_spectra(phis, 20, SCALES, SCALE_WEIGHTS)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * budget


class TestZeroOrderNull:
    def test_null_power_for_c60(self):
        phi_unit = compute_phi(C60, GratingBeam(power=1.0), 120.0)
        p_null = scipy.special.jn_zeros(0, 1)[0] / phi_unit.re
        assert p_null == pytest.approx(11.712072224475481, rel=1e-10)


# Im Phi of the phases whose absorbed fractions meet the scipy oracle
ORACLE_PHASES = (0.01, 1.0, 10.0, 50.0, 400.0)


@functools.cache
def scipy_fraction_oracle(im):
    """Period averages of scipy's Poisson pmf at 4 Im Phi cos^2, n = 0 .. truncation order.

    Midpoint rule on 8192 points of one standing-wave period.
    """
    x = (np.arange(8192) + 0.5) / 8192.0  # phase fraction of one period
    nbar = 4.0 * im * np.cos(math.pi * x) ** 2
    n_max = truncation_order(ComplexPhase(1.0, im))
    return np.array([np.mean(scipy.stats.poisson.pmf(n, nbar)) for n in range(n_max + 1)])


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
    def per_n_poisson_weight_loop(phi, n_max, scales, weights, samples=None):
        """The fractions from one ``poisson_weight`` call per n, summed as the summary does.

        The rule has ``samples`` midpoints on the half period, by default
        as many as ``absorbed_fractions`` takes at the strongest scale.
        """
        if samples is None:
            samples = _fraction_samples(4.0 * phi.im * float(np.max(scales)))
        weights = weights / weights.sum()
        theta = (np.arange(samples) + 0.5) * (0.5 * math.pi / samples)
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

    @pytest.mark.parametrize("n_max", [63, 64, 65, 128, 129, 200])
    def test_blocks_of_photon_numbers(self, n_max):
        # the rows n >= 1 are evaluated in blocks of 64: one block, one
        # row past it, two blocks, and more
        assert _FRACTION_BLOCK == 64
        phi = ComplexPhase(1.0, 30.0)
        scales, weights = vertical_phi_scales(VerticalProfile(), 5)
        expected = self.per_n_poisson_weight_loop(phi, n_max, scales, weights)
        fractions = absorbed_fractions(phi, n_max, scales, weights)
        assert fractions.size == n_max + 1 and np.array_equal(fractions, expected)
        assert expected[-1] > 0.0

    @pytest.mark.parametrize("species", [C60, C70], ids=["C60", "C70"])
    def test_zero_power_equals_the_1024_point_loop(self, species):
        # at nbar = 0 each fraction is the running sum of the vertical
        # weights, whatever the sample count, so the summary's probability
        # check at 0 W sees the values it saw on 1024 samples
        phi = compute_phi(species, GratingBeam(power=0.0), 120.0)
        assert phi.im == 0.0
        n_max = truncation_order(phi)
        for nodes in range(1, 40):
            scales, weights = vertical_phi_scales(VerticalProfile(), nodes)
            expected = self.per_n_poisson_weight_loop(phi, n_max, scales, weights, 1024)
            assert np.array_equal(absorbed_fractions(phi, n_max, scales, weights), expected)

    def test_fraction_samples(self):
        sizes = [_fraction_samples(nbar) for nbar in (0.0, 1.3, 8.1, 100.0, 1600.0, 1e4)]
        assert sizes == [6, 9, 17, 48, 187, 470]

    @pytest.mark.parametrize("im", ORACLE_PHASES)
    def test_matches_the_scipy_pmf_average_to_round_off(self, im):
        # Both sides evaluate exp(n log nbar - nbar - log n!), whose exponent
        # carries a round-off of about eps times its terms: at Im Phi = 400
        # the pmf average itself sits 2.3e-15 from one in extended precision,
        # so a flat 1e-15 holds only while those terms are small.
        oracle = scipy_fraction_oracle(im)
        n = np.arange(oracle.size)
        terms = n * abs(math.log(4.0 * im)) + 4.0 * im + scipy.special.gammaln(n + 1)
        bound = 1e-15 + np.finfo(float).eps * terms * oracle
        fractions = absorbed_fractions(ComplexPhase(1.0, im), n.size - 1)
        assert np.all(np.abs(fractions - oracle) <= bound)

    @pytest.mark.parametrize("im", ORACLE_PHASES)
    def test_sized_rule_matches_a_dense_rule(self, monkeypatch, im):
        # the aliasing alone: the same evaluation on 8192 midpoints of the period
        phi = ComplexPhase(1.0, im)
        n_max = truncation_order(phi)
        fractions = absorbed_fractions(phi, n_max)
        monkeypatch.setattr(lightgrating.orders, "_fraction_samples", lambda nbar_max: 4096)
        assert np.max(np.abs(fractions - absorbed_fractions(phi, n_max))) <= 1e-15

    def test_fraction_samples_are_not_loose(self, monkeypatch):
        # half the rule sized at nbar = 1600 misses the oracle far beyond round-off
        phi = ComplexPhase(1.0, 400.0)
        samples = _fraction_samples(1600.0)
        monkeypatch.setattr(lightgrating.orders, "_fraction_samples", lambda nbar_max: samples // 2)
        fractions = absorbed_fractions(phi, truncation_order(phi))
        assert np.max(np.abs(fractions - scipy_fraction_oracle(400.0))) > 1e-12

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
