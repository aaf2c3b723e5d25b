"""Velocity spread, vertical beam overlap, and detector resolution models."""

import math
import warnings

import numpy as np
import pytest

from lightgrating.config import parse_config
from lightgrating.distributions import (
    FWHM_TO_SIGMA,
    DetectorModel,
    VelocityDistribution,
    VerticalProfile,
    detector_kernel,
    fold_vertical_rule,
    load_velocity_histogram,
    velocity_quadrature,
    vertical_phi_scales,
)
from lightgrating.runner import run_simulate
from oracles import mean_vertical_scale


class TestVelocityDistribution:
    def test_defaults(self):
        dist = VelocityDistribution()
        assert dist.v_peak == 120.0
        assert dist.fwhm_ratio == 0.17
        assert dist.shape == "gaussian"

    def test_validation(self):
        with pytest.raises(ValueError):
            VelocityDistribution(v_peak=0.0)
        with pytest.raises(ValueError):
            VelocityDistribution(fwhm_ratio=0.0)
        with pytest.raises(ValueError):
            VelocityDistribution(fwhm_ratio=1.0)

    def test_histogram_shape_requires_data(self):
        # the shape is read off the histogram, never given
        with pytest.raises(TypeError):
            VelocityDistribution(shape="histogram")
        assert VelocityDistribution().shape == "gaussian"

    def test_a_histogram_given_is_the_rule(self):
        rows = ((100.0, 130.0), (1.0, 3.0))
        dist = VelocityDistribution(v_peak=100.0, histogram=rows)
        assert dist.shape == "histogram"
        nodes, weights = velocity_quadrature(dist, 16)
        assert (nodes.tolist(), weights.tolist()) == ([100.0, 130.0], [0.25, 0.75])

    @pytest.mark.parametrize(
        "histogram, message",
        [
            (((100.0, 120.0), (-1.0, 3.0)), "weights must be nonnegative with positive sum"),
            (((100.0, 120.0), (0.0, 0.0)), "weights must be nonnegative with positive sum"),
            (((100.0, 120.0), (1.0, math.nan)), "weights must be nonnegative with positive sum"),
            (((100.0, 120.0), (1.0, math.inf)), "weights must be nonnegative with positive sum"),
            (((), ()), "weights must be nonnegative with positive sum"),
            (((100.0, -120.0), (1.0, 3.0)), "velocities must be positive"),
            (((0.0, 120.0), (1.0, 3.0)), "velocities must be positive"),
            (((100.0, math.nan), (1.0, 3.0)), "velocities must be positive"),
            (((100.0, math.inf), (1.0, 3.0)), "velocities must be positive"),
            (((100.0, 120.0), (1.0,)), "columns must have equal lengths"),
        ],
    )
    def test_histogram_rows_checked_when_built_directly(self, histogram, message):
        with pytest.raises(ValueError, match=f"^histogram {message}$"):
            VelocityDistribution(histogram=histogram)


class TestVelocityQuadrature:
    def test_single_node_is_peak(self):
        nodes, weights = velocity_quadrature(VelocityDistribution(), 1)
        assert nodes.tolist() == [120.0]
        assert weights.tolist() == [1.0]

    def test_weights_sum_to_one(self):
        for n in (2, 7, 16, 33):
            _, weights = velocity_quadrature(VelocityDistribution(), n)
            assert weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_nodes_sorted_and_positive(self):
        nodes, _ = velocity_quadrature(VelocityDistribution(), 16)
        assert np.all(np.diff(nodes) > 0)
        assert np.all(nodes > 0)

    def test_span_covers_two_and_a_half_fwhm(self):
        dist = VelocityDistribution()
        nodes, _ = velocity_quadrature(dist, 64)
        fwhm = dist.fwhm_ratio * dist.v_peak
        assert nodes[0] == pytest.approx(120.0 - 2.5 * fwhm, abs=fwhm / 10)
        assert nodes[-1] == pytest.approx(120.0 + 2.5 * fwhm, abs=fwhm / 10)

    def test_reconstructed_spread(self):
        # weighted second moment reproduces the 17% FWHM within 2%
        dist = VelocityDistribution()
        for n in (16, 32):
            nodes, weights = velocity_quadrature(dist, n)
            mean = float(np.dot(weights, nodes))
            sigma = math.sqrt(float(np.dot(weights, (nodes - mean) ** 2)))
            fwhm = FWHM_TO_SIGMA * sigma
            assert abs(fwhm - 0.17 * 120.0) / (0.17 * 120.0) < 0.02
            assert mean == pytest.approx(120.0, rel=1e-6)

    def test_slow_beam_truncated_at_positive_velocity(self):
        dist = VelocityDistribution(v_peak=1.0, fwhm_ratio=0.9)
        with pytest.warns(UserWarning, match="floor"):
            nodes, weights = velocity_quadrature(dist, 32)
        assert np.all(nodes > 0)
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "fwhm_ratio, cut", [(0.17, False), (0.39, False), (0.4, True), (0.6, True)]
    )
    def test_warns_when_the_floor_cuts_the_span(self, fwhm_ratio, cut):
        dist = VelocityDistribution(fwhm_ratio=fwhm_ratio)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            nodes, _ = velocity_quadrature(dist, 16)
        floor_warnings = [w for w in caught if "floor" in str(w.message)]
        assert len(floor_warnings) == (1 if cut else 0)
        if cut:
            # the first cell starts at the floor, not at v_peak - 2.5 FWHM
            width = nodes[1] - nodes[0]
            assert nodes[0] - 0.5 * width == pytest.approx(1e-3 * dist.v_peak, rel=1e-9)

    def test_default_configs_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for text in ("", "[species]\nname = C70\n[beam]\npower_w = 50\n"):
                cfg = parse_config(text)
                velocity_quadrature(cfg.velocity, cfg.quadrature.velocity_nodes)

    def test_histogram_passthrough(self):
        rows = ((100.0, 130.0, 160.0), (1.0, 2.0, 1.0))
        dist = VelocityDistribution(histogram=rows)
        nodes, weights = velocity_quadrature(dist, 99)  # node count ignored
        assert nodes.tolist() == [100.0, 130.0, 160.0]
        assert weights.tolist() == [0.25, 0.5, 0.25]

    def test_histogram_rows_of_zero_weight_cost_no_node(self):
        rows = ((0.5, 100.0, 130.0, 145.0, 160.0), (0.0, 1.0, 2.0, 0.0, 1.0))
        dist = VelocityDistribution(histogram=rows)
        nodes, weights = velocity_quadrature(dist, 1)
        assert nodes.tolist() == [100.0, 130.0, 160.0]
        assert weights.tolist() == [0.25, 0.5, 0.25]


class TestVerticalProfile:
    def test_scales_in_unit_interval(self):
        scales, weights = vertical_phi_scales(VerticalProfile(), 16)
        assert np.all(scales > 0.0)
        assert np.all(scales <= 1.0)
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_mean_scale_closed_form(self):
        # Gaussian beam sampling a Gaussian intensity profile has mean
        # overlap 1/sqrt(1 + 4 sigma_y^2 / w_y^2)
        profile = VerticalProfile()
        sigma = profile.beam_fwhm / FWHM_TO_SIGMA
        expected = 1.0 / math.sqrt(1.0 + 4.0 * sigma**2 / profile.laser_waist**2)
        assert mean_vertical_scale(profile) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.9258, abs=1e-4)

    def test_quadrature_mean_matches_closed_form(self):
        profile = VerticalProfile()
        scales, weights = vertical_phi_scales(profile, 16)
        assert float(np.dot(scales, weights)) == pytest.approx(
            mean_vertical_scale(profile), abs=1e-6
        )

    def test_wide_laser_limit(self):
        profile = VerticalProfile(beam_fwhm=625e-6, laser_waist=1.0)
        scales, _ = vertical_phi_scales(profile, 8)
        assert np.allclose(scales, 1.0, atol=1e-4)
        assert mean_vertical_scale(profile) == pytest.approx(1.0, abs=1e-4)

    def test_single_node_is_beam_centre(self):
        scales, weights = vertical_phi_scales(VerticalProfile(), 1)
        assert scales.tolist() == [1.0]
        assert weights.tolist() == [1.0]

    def test_rule_is_mirror_symmetric(self):
        for n in range(1, 65):
            scales, weights = vertical_phi_scales(VerticalProfile(), n)
            assert np.max(np.abs(scales - scales[::-1])) <= 1e-12
            assert np.max(np.abs(weights - weights[::-1])) <= 1e-12

    @pytest.mark.parametrize("n", [1, 7, 8])
    def test_fold_keeps_one_node_per_mirror_pair(self, n):
        scales, weights = vertical_phi_scales(VerticalProfile(), n)
        folded_scales, folded_weights = fold_vertical_rule(scales, weights)
        half = (n + 1) // 2
        assert folded_scales.tolist() == scales[:half].tolist()
        expected = [weights[i] + weights[n - 1 - i] for i in range(n // 2)] + [weights[n // 2]] * (
            n % 2
        )
        assert folded_weights.tolist() == expected
        # any function of the scale integrates as on the full rule
        for power in (1, 3):
            assert np.dot(folded_scales**power, folded_weights) == pytest.approx(
                np.dot(scales**power, weights), abs=1e-15
            )

    def test_fold_rejects_an_asymmetric_rule(self):
        with pytest.raises(ValueError, match="mirror-symmetric"):
            fold_vertical_rule([1.0, 0.5], [0.5, 0.5])
        with pytest.raises(ValueError, match="mirror-symmetric"):
            fold_vertical_rule([0.5, 0.5], [0.4, 0.6])

    def test_validation(self):
        with pytest.raises(ValueError):
            VerticalProfile(beam_fwhm=0.0)
        with pytest.raises(ValueError):
            VerticalProfile(laser_waist=-1.0)


class TestDetectorKernel:
    def test_unit_sum(self):
        for shape in ("gaussian", "tophat"):
            kernel = detector_kernel(DetectorModel(6e-6, 2e-6, shape), 2e-6)
            assert kernel.sum() == pytest.approx(1.0, abs=1e-12)
            assert kernel.size % 2 == 1

    def test_narrow_detector_single_tap(self):
        kernel = detector_kernel(DetectorModel(1e-6, 2e-6, "gaussian"), 2e-6)
        assert kernel.tolist() == [1.0]

    def test_tophat_exact_cover(self):
        kernel = detector_kernel(DetectorModel(6e-6, 2e-6, "tophat"), 2e-6)
        inner = kernel[kernel > 0.0]
        assert np.allclose(inner, 1.0 / 3.0, atol=1e-12)

    def test_tophat_fractional_edges(self):
        kernel = detector_kernel(DetectorModel(5e-6, 2e-6, "tophat"), 2e-6)
        trimmed = np.trim_zeros(kernel)
        assert np.allclose(trimmed, [0.3, 0.4, 0.3], atol=1e-12)

    def test_gaussian_symmetric_peaked(self):
        kernel = detector_kernel(DetectorModel(6e-6, 2e-6, "gaussian"), 2e-6)
        assert np.allclose(kernel, kernel[::-1], atol=1e-15)
        assert np.argmax(kernel) == kernel.size // 2

    def test_gaussian_width_is_fwhm(self):
        # tap at one half-width off-centre is half the central tap
        model = DetectorModel(8e-6, 2e-6, "gaussian")
        kernel = detector_kernel(model, 2e-6)
        mid = kernel.size // 2
        taps_off = round(0.5 * model.width / 2e-6)
        assert kernel[mid + taps_off] / kernel[mid] == pytest.approx(0.5, rel=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            DetectorModel(width=-1e-6)
        with pytest.raises(ValueError):
            DetectorModel(step=0.0)
        with pytest.raises(ValueError):
            DetectorModel(kernel_shape="triangle")
        with pytest.raises(ValueError):
            detector_kernel(DetectorModel(), 0.0)


class TestLoadVelocityHistogram:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "velocities.txt"
        path.write_text("# v  weight\n80 1.0\n120 3.0\n160 0.5\n")
        dist = load_velocity_histogram(path)
        assert dist.shape == "histogram"
        assert dist.v_peak == 120.0  # node with the largest weight
        nodes, weights = velocity_quadrature(dist, 16)
        assert nodes.tolist() == [80.0, 120.0, 160.0]
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_nonpositive_velocity(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1.0\n120 2.0\n")
        with pytest.raises(ValueError):
            load_velocity_histogram(path)

    def test_rejects_negative_weight(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("80 1.0\n120 -2.0\n")
        with pytest.raises(ValueError):
            load_velocity_histogram(path)

    def test_rejects_all_zero_weights(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("80 0.0\n120 0.0\n")
        with pytest.raises(ValueError):
            load_velocity_histogram(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0 1.0\n120 2.0\n", "histogram velocities must be positive"),
            # the row of the largest weight sets v_peak: the rows are checked first
            ("80 1.0\n-120 2.0\n", "histogram velocities must be positive"),
            ("80 1.0\n120 -2.0\n", "histogram weights must be nonnegative with positive sum"),
            ("80 0.0\n120 0.0\n", "histogram weights must be nonnegative with positive sum"),
            ("80 1.0\n120 nan\n", "histogram weights must be nonnegative with positive sum"),
        ],
    )
    def test_rejections_keep_their_messages(self, tmp_path, text, message):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{message}$"):
            load_velocity_histogram(path)

    def test_sorts_rows_on_load(self, tmp_path):
        path = tmp_path / "unsorted.txt"
        path.write_text("120 1.0\n80 2.0\n")
        dist = load_velocity_histogram(path)
        nodes, weights = velocity_quadrature(dist, 1)
        assert nodes.tolist() == [80.0, 120.0]
        assert weights.tolist() == [2.0 / 3.0, 1.0 / 3.0]
        assert dist.v_peak == 80.0

    @pytest.mark.parametrize("mode", ["wave", "orders"])
    def test_zero_weight_row_leaves_the_pattern_unchanged(self, tmp_path, mode):
        # the 0.5 m/s row would set orders mode's grid for every node
        rows = "100 0.2\n120 0.5\n140 0.3\n"
        written = []
        for name, text in (("kept", rows), ("zero", "0.5 0\n" + rows)):
            (tmp_path / f"{name}.txt").write_text(text)
            cfg = parse_config(
                f"[species]\nname = C70\n[velocity]\nhistogram_file = {name}.txt\n"
                f"[quadrature]\nvertical_nodes = 4\nsource_nodes = 4\n"
                f"[run]\nmode = {mode}\nprefix = {name}\n",
                base_dir=tmp_path,
            )
            pattern, _ = run_simulate(cfg, tmp_path)
            assert len(pattern.metadata["phi_per_velocity"]) == 3
            written.append((tmp_path / f"{name}_pattern.csv").read_bytes())
        assert written[0] == written[1]

    def test_rejects_wrong_column_count(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("80 1.0 7\n120 2.0 7\n")
        with pytest.raises(ValueError):
            load_velocity_histogram(path)
