"""Config parsing, validation diagnostics, serialization, and digests."""

import hashlib
import math
import re
import string
import tempfile
import tracemalloc
from dataclasses import replace
from operator import attrgetter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lightgrating import config
from lightgrating.beamline import (
    MAX_FFT_LENGTH,
    _fft_length,
    _internal_grid,
    _scan_grid,
    ensemble_patterns,
    window_grid,
)
from lightgrating.distributions import (
    MAX_DETECTOR_POINTS,
    MAX_QUADRATURE_NODES,
    DetectorModel,
    VelocityDistribution,
    VerticalProfile,
    detector_kernel,
    velocity_quadrature,
    vertical_phi_scales,
)
from lightgrating.grating import MAX_WINDOW_SAMPLES, ComplexPhase, GridSpec
from lightgrating.orders import mixed_order_spectra, samples_per_laser_period
from lightgrating.config import (
    ConfigError,
    SimulationConfig,
    config_digest,
    load_config_file,
    parse_config,
    serialize_config,
)
from lightgrating.species import CATALOG, ComplexPolarizability, MoleculeSpecies

README = Path(__file__).resolve().parents[1] / "README.md"
HISTOGRAM = "# velocity  weight\n100 0.2\n120 0.5\n140 0.3\n"


class TestDefaults:
    def test_empty_text_is_complete_config(self):
        cfg = parse_config("")
        assert cfg == SimulationConfig()

    def test_reference_apparatus_values(self):
        cfg = parse_config("")
        assert cfg.species.name == "C60"
        assert cfg.beam.wavelength == pytest.approx(514.5e-9)
        assert cfg.beam.power == pytest.approx(9.5)
        assert cfg.beam.waist_y == pytest.approx(1.3e-3)
        assert cfg.beam.waist_z == pytest.approx(50e-6)
        assert cfg.geometry.slit1 == pytest.approx(7e-6)
        assert cfg.geometry.slit2 == pytest.approx(5e-6)
        assert cfg.geometry.L12 == pytest.approx(1.13)
        assert cfg.geometry.L2D == pytest.approx(1.2)
        assert cfg.velocity.v_peak == pytest.approx(120.0)
        assert cfg.velocity.fwhm_ratio == pytest.approx(0.17)
        assert cfg.vertical.beam_fwhm == pytest.approx(625e-6)
        assert cfg.vertical.laser_waist == pytest.approx(1.3e-3)
        assert cfg.detector.width == pytest.approx(6e-6)
        assert cfg.detector.step == pytest.approx(2e-6)
        assert cfg.run.mode == "wave"

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config(
            "# leading comment\n\n[beam]\npower_w = 4.0  ; inline note\n"
        )
        assert cfg.beam.power == pytest.approx(4.0)
        assert cfg == parse_config("[beam]\npower_w = 4.0\n")


class TestRejections:
    def test_unknown_section_names_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[beam]\npower_w = 1\n\n[lasers]\nx = 1\n")
        assert "unknown section" in str(err.value)
        assert err.value.line == 4

    def test_unknown_key_names_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[beam]\npower_watts = 1\n")
        assert "unknown key" in str(err.value)
        assert err.value.key == "beam.power_watts"
        assert err.value.line == 2

    def test_negative_power_names_key(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[beam]\npower_w = -1\n")
        assert "beam.power_w" in str(err.value)
        assert ">= 0" in str(err.value)

    def test_non_numeric_value(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[geometry]\nl12_m = twelve\n")
        assert "not a number" in str(err.value)
        assert err.value.key == "geometry.l12_m"

    def test_non_finite_value(self):
        with pytest.raises(ConfigError):
            parse_config("[beam]\npower_w = inf\n")

    def test_zero_velocity(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[velocity]\nv_peak = 0\n")
        assert "velocity.v_peak" in str(err.value)

    def test_fwhm_ratio_bounds(self):
        with pytest.raises(ConfigError):
            parse_config("[velocity]\nfwhm_ratio = 1.5\n")
        with pytest.raises(ConfigError):
            parse_config("[velocity]\nfwhm_ratio = 0\n")

    def test_samples_per_period_multiple_of_four(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[numerics]\nsamples_per_period = 30\n")
        assert "multiple of 4" in str(err.value)

    def test_tail_eps_bounds(self):
        with pytest.raises(ConfigError):
            parse_config("[numerics]\ntail_eps = 0\n")
        with pytest.raises(ConfigError):
            parse_config("[numerics]\ntail_eps = 2\n")

    def test_bad_mode_choice(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[run]\nmode = raytrace\n")
        assert "one of wave, orders" in str(err.value)

    def test_bad_kernel_choice(self):
        with pytest.raises(ConfigError):
            parse_config("[detector]\nkernel = lorentzian\n")

    def test_bad_boolean(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[run]\nconvergence_check = maybe\n")
        assert "not a boolean" in str(err.value)

    def test_malformed_ini(self):
        with pytest.raises(ConfigError):
            parse_config("power_w = 1\n")  # key before any section header


class TestSpecies:
    def test_catalog_lookup(self):
        cfg = parse_config("[species]\nname = C70\n")
        assert cfg.species == CATALOG["C70"]

    def test_unknown_name_lists_catalog(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[species]\nname = C₆₀₀\n")
        assert "C60" in str(err.value) and "C70" in str(err.value)

    def test_custom_species(self):
        cfg = parse_config(
            "[species]\nname = testmol\nmass_amu = 100\n"
            "alpha_re_a3 = 50\nalpha_im_a3 = 1\n"
        )
        assert cfg.species.name == "testmol"
        assert cfg.species.mass_amu == pytest.approx(100.0)
        assert cfg.species.polarizability.real_volume == pytest.approx(50.0)
        assert cfg.species.polarizability.imag_volume == pytest.approx(1.0)

    def test_partial_custom_species_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[species]\nname = testmol\nmass_amu = 100\n")
        assert "alpha_re_a3" in str(err.value)

    def test_custom_species_validation(self):
        with pytest.raises(ConfigError):
            parse_config(
                "[species]\nname = x\nmass_amu = -5\n"
                "alpha_re_a3 = 50\nalpha_im_a3 = 1\n"
            )
        with pytest.raises(ConfigError):
            parse_config(
                "[species]\nname = x\nmass_amu = 100\n"
                "alpha_re_a3 = 50\nalpha_im_a3 = -1\n"
            )


class TestSerialization:
    def test_round_trip_defaults(self):
        cfg = parse_config("")
        text = serialize_config(cfg)
        assert parse_config(text) == cfg

    def test_round_trip_survives_awkward_floats(self):
        source = (
            "[beam]\npower_w = 11.712072224475481\nwavelength_nm = 514.5\n"
            "[velocity]\nv_peak = 117.3\nfwhm_ratio = 0.1234567890123456\n"
            "[numerics]\ntail_eps = 3.7e-11\n"
        )
        cfg = parse_config(source)
        assert parse_config(serialize_config(cfg)) == cfg

    def test_round_trip_custom_species(self):
        cfg = parse_config(
            "[species]\nname = testmol\nmass_amu = 123.456\n"
            "alpha_re_a3 = 77.7\nalpha_im_a3 = 0.111\n"
        )
        again = parse_config(serialize_config(cfg))
        assert again.species == cfg.species

    def test_serialization_is_idempotent(self):
        cfg = parse_config("[run]\nmode = orders\nworkers = 3\n")
        once = serialize_config(cfg)
        twice = serialize_config(parse_config(once))
        assert once == twice

    def test_all_sections_present(self):
        text = serialize_config(parse_config(""))
        for section in (
            "species",
            "beam",
            "geometry",
            "velocity",
            "vertical",
            "detector",
            "quadrature",
            "numerics",
            "run",
        ):
            assert f"[{section}]" in text


class TestDigest:
    def test_digest_is_sha256_hex(self):
        digest = config_digest(parse_config(""))
        assert len(digest) == 64
        assert all(c in "0123456789abcdef" for c in digest)

    def test_digest_stable_for_equal_configs(self):
        a = parse_config("[beam]\npower_w = 9.5\n")
        b = parse_config("")  # same physical config via defaults
        assert config_digest(a) == config_digest(b)

    def test_digest_sensitive_to_any_field(self):
        base = config_digest(parse_config(""))
        assert config_digest(parse_config("[beam]\npower_w = 9.6\n")) != base
        assert config_digest(parse_config("[run]\nworkers = 2\n")) != base

    def test_digest_covers_histogram_weights(self, tmp_path):
        # two files of one name and one peak velocity: equal serializations
        configs = []
        for weights in ((0.2, 0.5, 0.3), (0.1, 0.5, 0.4)):
            rows = "".join(f"{v} {w}\n" for v, w in zip((100, 120, 140), weights))
            (tmp_path / "v.txt").write_text(rows, encoding="utf-8")
            configs.append(parse_config("[velocity]\nhistogram_file = v.txt\n", base_dir=tmp_path))
        a, b = configs
        assert a.velocity.histogram != b.velocity.histogram
        assert serialize_config(a) == serialize_config(b)
        assert config_digest(a) != config_digest(b)


class TestHistogramWiring:
    def write_histogram(self, tmp_path, name="beamvel.txt"):
        path = tmp_path / name
        path.write_text(
            "# velocity  weight\n100 0.2\n120 0.5\n140 0.3\n", encoding="utf-8"
        )
        return path

    def test_relative_path_resolved_against_base_dir(self, tmp_path):
        self.write_histogram(tmp_path)
        cfg = parse_config(
            "[velocity]\nhistogram_file = beamvel.txt\n", base_dir=tmp_path
        )
        assert cfg.velocity.shape == "histogram"
        assert cfg.velocity.v_peak == pytest.approx(120.0)
        assert cfg.velocity_histogram_file == "beamvel.txt"

    def test_load_config_file_anchors_at_config_dir(self, tmp_path):
        self.write_histogram(tmp_path)
        config_path = tmp_path / "sim.cfg"
        config_path.write_text(
            "[velocity]\nhistogram_file = beamvel.txt\n", encoding="utf-8"
        )
        cfg = load_config_file(config_path)
        assert cfg.velocity.histogram == ((100.0, 120.0, 140.0), (0.2, 0.5, 0.3))

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            parse_config(
                "[velocity]\nhistogram_file = nope.txt\n", base_dir=tmp_path
            )
        assert err.value.key == "velocity.histogram_file"

    def test_bad_file_contents_is_config_error(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("100 0.2 7\n", encoding="utf-8")
        with pytest.raises(ConfigError) as err:
            parse_config(
                f"[velocity]\nhistogram_file = {path}\n", base_dir=tmp_path
            )
        assert "two columns" in str(err.value)

    def test_fwhm_ratio_override_applies_to_histogram(self, tmp_path):
        self.write_histogram(tmp_path)
        cfg = parse_config(
            "[velocity]\nhistogram_file = beamvel.txt\nfwhm_ratio = 0.25\n",
            base_dir=tmp_path,
        )
        assert cfg.velocity.fwhm_ratio == pytest.approx(0.25)

    def test_round_trip_keeps_histogram_reference(self, tmp_path):
        self.write_histogram(tmp_path)
        cfg = parse_config(
            "[velocity]\nhistogram_file = beamvel.txt\n", base_dir=tmp_path
        )
        text = serialize_config(cfg)
        assert "histogram_file = beamvel.txt" in text
        assert parse_config(text, base_dir=tmp_path) == cfg


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def histogram_rows(text):
    """The lines a digest adds for a histogram file's text: 'repr(v) repr(w)', by velocity."""
    rows = sorted(
        tuple(float(field) for field in line.split())
        for line in text.splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    )
    return "".join(f"{v!r} {w!r}\n" for v, w in rows)


def pinned_digest(cfg, serialization_digest):
    """The digest ``cfg`` must have, given the pinned SHA-256 of its serialization.

    The two are one for every config but a histogram one, whose digest also
    hashes the rows of its file, the ``HISTOGRAM`` text here.
    """
    if cfg.velocity.shape != "histogram":
        return serialization_digest
    text = serialize_config(cfg)
    assert sha256(text) == serialization_digest
    return sha256(text + histogram_rows(HISTOGRAM))


# SHA-256 of the serialization of a config that sets one key, recorded
# before the config became a table of keys; the config_digest too, except
# for the histogram file (see ``pinned_digest``).  The text is
# '[section]\nkey = value\n'.
ONE_KEY_DIGESTS = {
    ("species", "name", "C70"):
        "71428e65925979768fab44808a6c96adb386955981b50e940368cd76973d267f",
    ("beam", "wavelength_nm", "532"):
        "549fc60fcb87b84e1b9ac4ef5662ac3e1d68d863c6f0149ad5304526c943856e",
    ("beam", "power_w", "11.712072224475481"):
        "108032cc4b5b28ae44ddeda0326d0f931e3c37617cbe95724853e1b0a77df7b4",
    ("beam", "waist_y_mm", "1.1"):
        "61e63b8cb18fd0419c51d428c886e809ab1863e65bc362d22ea0caf737aafeac",
    ("beam", "waist_z_um", "45.5"):
        "51e63871346117583819b43fab1dfbcfb54af4cbd627e0622db6bd00691c2c9a",
    ("geometry", "slit1_um", "8"):
        "12f6e174f31382ae5337d45e1fab07267227b7a1a821f233326d7d0f4ffd6abc",
    ("geometry", "slit2_um", "4.5"):
        "592b661a7f84c2566926b24bfb3839e06ffa9db4c7e08ee62458d0b682358445",
    ("geometry", "l12_m", "1.0"):
        "789bef605eabefd315d8179a7d78e1c81331ebe1ab538fa183904d157c70edb9",
    ("geometry", "l2d_m", "1.25"):
        "ecdffd097345434d756af8e9b160544744edccb2482c5cafd74d6a5e35d485a2",
    ("geometry", "detector_span_um", "250"):
        "5974fe012132c1572c13ca68fed6482d28a0514c3b5bb2759983d24f2ebff145",
    ("velocity", "v_peak", "117.3"):
        "171748fd4065e10d71a732aa7b236e17d7a6b0dc35a79ef08d3d4bc69970587b",
    ("velocity", "fwhm_ratio", "0.25"):
        "98f43b5c7675fe9b9cd56b330d24c89780e9c4b851117b765ace4df6c631deb5",
    ("velocity", "histogram_file", "hist.txt"):
        "f8fe05d4897993c7d3be616c7344cb5d1c45ae752fad66c79babb489f7cb56e6",
    ("vertical", "beam_fwhm_um", "600"):
        "9a049c3239782e733a489fd79ab9ccce4db2f83897740d4393023cfb28477ab3",
    ("detector", "width_um", "0"):
        "60a86bf6c56e4d16f0a15e6f3f6a2bd9a3dd82a736be21ca05f52f44ff1fb7af",
    ("detector", "step_um", "1.5"):
        "e517f3a0b3b365852ce076fd2e70b9b8dd9686340d6b683da00d078f2222e390",
    ("detector", "kernel", "tophat"):
        "0c53cce1d82478291ddf982abe7deab38ff250a07ac9889b6d6665b58da3dbe1",
    ("quadrature", "velocity_nodes", "8"):
        "8b0e8528e9a1848cd32f4d2950d616f4b0c21b25c3f5542cc1ee11ab57422305",
    ("quadrature", "vertical_nodes", "12"):
        "ae599f75d64e75d58c803b13c5ee7f07f249da6cdc1fc4606e8febd2f4cc9c11",
    ("quadrature", "source_nodes", "4"):
        "6e1656bd49dff46e2ac1821b88bf955d64725427d44828ec3a9ab84f62c27828",
    ("numerics", "samples_per_period", "32"):
        "271c92d9e1e7d3229159c13999d8e3d245117a5017c264615b4782c087326529",
    ("numerics", "pad_factor", "2"):
        "060471090e14a61615a901060a5eeff8acd90e7c3bbed35b92ad9c4aae7bcc32",
    ("numerics", "tail_eps", "3.7e-11"):
        "85c7f0f8f9dff053fc76271461ebf3fdd6a9952accf8f0633ee63279e0fc7b4c",
    ("numerics", "m_max", "12"):
        "507033d1c5e4ac4361d936a723dfa750c187e42cc81f817d29c9ffea6a7d46f5",
    ("numerics", "internal_step_um", "0.125"):
        "127f5e2f356f787719a39d9885dc9532f328e0ea9f018e574f20e1fd17692316",
    ("run", "mode", "orders"):
        "814ab8b7a235fcf139662ee968288ded03709f8997cf46b59e5bc7eb3c6ec2a7",
    ("run", "normalization", "peak"):
        "d6bd397b35137624e41d5f80da728591f6d2d75425f07c8f2fbf2f1f25628ea9",
    ("run", "workers", "2"):
        "fea994024073d7492bbc6385b06fc2bed962d2dd6f9f57683ed4d0c6215618f1",
    ("run", "convergence_check", "true"):
        "75f7dc28d1a594e27c51eb1d5345929e6c9002ddfd786e88011e81bc46513614",
    ("run", "out_dir", "outs"):
        "4842685f4ea2c83e19ea285787451400adfdaa7de52f06c9715194edd3678759",
    ("run", "prefix", "foo"):
        "2da352e9c3758d6ab2e75512986c9fd865a3e161ef64f0517e0b3f1c353eef39",
}

# The ConfigError text of one bad value: its parser's, or that of the
# dataclass that holds its field.  The bad key sits on line 5, after a
# valid section (see ``bad_value_text``).
ONE_KEY_ERRORS = [
    ("beam", "wavelength_nm", "abc", "not a number: 'abc'"),
    ("beam", "wavelength_nm", "0", "wavelength must be positive"),
    ("beam", "wavelength_nm", "-514", "wavelength must be positive"),
    ("beam", "wavelength_nm", "inf", "not finite: 'inf'"),
    ("beam", "power_w", "abc", "not a number: 'abc'"),
    ("beam", "power_w", "-1", "power must be >= 0"),
    ("beam", "power_w", "nan", "not finite: 'nan'"),
    ("beam", "waist_y_mm", "x", "not a number: 'x'"),
    ("beam", "waist_y_mm", "0", "waist_y must be positive"),
    ("beam", "waist_z_um", "x", "not a number: 'x'"),
    ("beam", "waist_z_um", "-3", "waist_z must be positive"),
    ("geometry", "slit1_um", "x", "not a number: 'x'"),
    ("geometry", "slit1_um", "0", "slit1 must be positive"),
    ("geometry", "slit2_um", "x", "not a number: 'x'"),
    ("geometry", "slit2_um", "0", "slit2 must be positive"),
    ("geometry", "l12_m", "twelve", "not a number: 'twelve'"),
    ("geometry", "l12_m", "0", "L12 must be positive"),
    ("geometry", "l2d_m", "x", "not a number: 'x'"),
    ("geometry", "l2d_m", "-1", "L2D must be positive"),
    ("geometry", "detector_span_um", "x", "not a number: 'x'"),
    ("geometry", "detector_span_um", "0", "detector_span must be positive"),
    ("velocity", "v_peak", "x", "not a number: 'x'"),
    ("velocity", "v_peak", "0", "v_peak must be positive"),
    ("velocity", "fwhm_ratio", "x", "not a number: 'x'"),
    ("velocity", "fwhm_ratio", "0", "fwhm_ratio must be in (0, 1)"),
    ("velocity", "fwhm_ratio", "1", "fwhm_ratio must be in (0, 1)"),
    ("velocity", "fwhm_ratio", "1.5", "fwhm_ratio must be in (0, 1)"),
    ("vertical", "beam_fwhm_um", "x", "not a number: 'x'"),
    ("vertical", "beam_fwhm_um", "0", "beam_fwhm must be positive"),
    ("detector", "width_um", "x", "not a number: 'x'"),
    ("detector", "width_um", "-1", "width must be >= 0"),
    ("detector", "step_um", "x", "not a number: 'x'"),
    ("detector", "step_um", "0", "step must be positive"),
    ("detector", "kernel", "lorentzian", "unknown kernel shape 'lorentzian'"),
    ("quadrature", "velocity_nodes", "x", "not an integer: 'x'"),
    ("quadrature", "velocity_nodes", "0", "velocity_nodes must be >= 1"),
    ("quadrature", "velocity_nodes", "1.5", "not an integer: '1.5'"),
    ("quadrature", "vertical_nodes", "x", "not an integer: 'x'"),
    ("quadrature", "vertical_nodes", "-1", "vertical_nodes must be >= 1"),
    ("quadrature", "source_nodes", "x", "not an integer: 'x'"),
    ("quadrature", "source_nodes", "0", "source_nodes must be >= 1"),
    ("numerics", "samples_per_period", "x", "not an integer: 'x'"),
    ("numerics", "samples_per_period", "0", "samples_per_period must be a positive multiple of 4"),
    ("numerics", "samples_per_period", "30", "samples_per_period must be a positive multiple of 4"),
    ("numerics", "samples_per_period", "-4", "samples_per_period must be a positive multiple of 4"),
    ("numerics", "pad_factor", "x", "not an integer: 'x'"),
    ("numerics", "pad_factor", "0", "pad_factor must be >= 1"),
    ("numerics", "tail_eps", "x", "not a number: 'x'"),
    ("numerics", "tail_eps", "0", "tail_eps must be in (0, 1)"),
    ("numerics", "tail_eps", "2", "tail_eps must be in (0, 1)"),
    ("numerics", "m_max", "x", "not an integer: 'x'"),
    ("numerics", "m_max", "0", "m_max must be >= 1"),
    ("numerics", "internal_step_um", "x", "not a number: 'x'"),
    ("numerics", "internal_step_um", "0", "internal_step must be positive"),
    ("run", "mode", "raytrace", "mode must be one of wave, orders, not 'raytrace'"),
    ("run", "normalization", "max", "normalization must be one of sum, peak, not 'max'"),
    ("run", "workers", "x", "not an integer: 'x'"),
    ("run", "workers", "0", "workers must be >= 1"),
    ("run", "convergence_check", "maybe", "not a boolean: 'maybe'"),
]

# config_digest of every orders-sweep config (species, power_w, vertical_nodes)
ORDERS_SWEEP_DIGESTS = {
    ("C60", 0, 8): "f7c42054093647f787b74e455af52879b98ec2901a70b6c1e8cd9ce815de18a4",
    ("C60", 0, 12): "85313daa7ad181dbc54e973e7a9dfc3254aaea1352ae9a824b795a9131f536f3",
    ("C60", 1, 8): "9aba4eec7fb1238a69fb2a57c19d9192156765dd0d143c98f20f5fcdab1ce536",
    ("C60", 1, 12): "c1557eded6ac5ec4680c2e91ee19dd245a5b04ada540052c7f5d984b0b065e1d",
    ("C60", 2, 8): "a881ce5a55fece31c98ad95c0b40d5ff692594fa25aabb982911dc351c55501f",
    ("C60", 2, 12): "ba80c9b9c74d581fb128dafacb315cf88b4210ba2c22f4a76f0415dd045f3742",
    ("C60", 6, 8): "daeb0a754742a9d8b595ad7b74024e4882d039a4879244a106917a301572c46a",
    ("C60", 6, 12): "121963c9822a19620d018e3a35dbc9252a215a138ead59540310db3ff898e1ff",
    ("C60", 10, 8): "411a63a10033988cdcfcaab1d716f6e0d707f39dbc8ea4c1877fea7a20f54445",
    ("C60", 10, 12): "d4a2d27ee85ca86e2055ea0f0a1373fbe187fc25e801d46a3beebbddab98efce",
    ("C60", 11, 8): "c783983a8fab0378714f5b800fd5f2dcbea07dea72d6581a0bf85e2254d24de3",
    ("C60", 11, 12): "634c5d7ce8815d612d90e9fe947c69a95726f9e62571e8eab0df18614251c1da",
    ("C60", 15, 8): "20080d1d42e94352b248f6fe7b1cdb8f2b5cb957ececa137c0b142fa8020f9fa",
    ("C60", 15, 12): "90ef6968da3879f7c29d34d6acf0b90dd540f638cc29c928b500d2d86229d6a9",
    ("C60", 17, 8): "91c157823421cfbfce3cf0afdb88829b9cfb3319bc831d21eb2279854e9a796c",
    ("C60", 17, 12): "19076d311e77688d14f93253c35326f0dbc417ebfa46dd3014c7d942264d97ad",
    ("C60", 18, 8): "4eff59e8a270a35f4f27eebd2a27d12e08adb4daf5752d63ac1934c0cbc2b0a3",
    ("C60", 18, 12): "d3403802261e09c304edf7741e25ed6439478adb3772e30605aafda35f77a4c4",
    ("C70", 0, 8): "ef00069e628cdb150891a8fc47463ce8be644c3269be964d73244282ae317f51",
    ("C70", 0, 12): "123a3f139af5e1f3756ac06fc624ec91a0145f2e834eab7060126a50c7d33beb",
    ("C70", 1, 8): "9f0161f192363b43b3548ffd075e24e2ce6c6e1f84ce1f14df0fc45d017fd0da",
    ("C70", 1, 12): "27e14e2b56c4f38206f4941aa27044fe5ecc9eaa57341c63a2e91f77c540a35c",
    ("C70", 2, 8): "f080454247b9408158df8556db02f70860de5456023d2ba7eb726f6cdcf00a2b",
    ("C70", 2, 12): "26425369be1defdcd9f413f59198f331df2dea5864027764380b49c0d89c677f",
    ("C70", 3, 8): "880d6c558dfe76834688c4077616f443617094848b66e6ea44b31adfce4e4fb8",
    ("C70", 3, 12): "10e083ad6c6f877db16cc875ba66cdfadc4ccdcc14f556c46b3bef7af0fe2eca",
    ("C70", 8, 8): "b1bac011facab773c7f0cf2811e9a56eff83ec360b309a2aba1ceea12103dbad",
    ("C70", 8, 12): "d17a5f97d4509b2b7aa7694a3cec2ee2e2314e1b370dbddbce3865145ea41288",
    ("C70", 9, 8): "a79231e2e70bf1383be583ca2f774aa4808c0c1bcba4d132d9252f192e366829",
    ("C70", 9, 12): "07d082f1a5aba4f32621bdc87c933800783036644efb492ee9778f8b22ca3c0b",
    ("C70", 10, 8): "8206779cb303df117f9e8af60278df1b7fcbff432ce88a93c9f77dd611c8b100",
    ("C70", 10, 12): "f0c7bf2c946f0af1e7daf18df2c090bb7d77dcc1c7e239f92f67110c42ec0c99",
    ("C70", 13, 8): "6229b1c120d1af266050b5d61aeb64746a74567063b0713dc04d5a19a35b4a4d",
    ("C70", 13, 12): "a94676f691891252707612efb816325c3a4530a32a5b3dca40ecdf78c9c9b8ac",
    ("C70", 14, 8): "82103ae939a9a379d29170708f90078be9afebce9de805ffdc632f9177bba822",
    ("C70", 14, 12): "c2a82d3229dbc194dc102c94b72b8f453287e81447ee2b29b82a1ee7801f2bd9",
    ("C70", 19, 8): "746179cf814f2c2c1073bbd1d9fb53494cfb12860490c89f79e708bff13d1258",
    ("C70", 19, 12): "cff7d7c53392dc3ad108b136c8d0124feabe957097774a9130634d54fdfc0004",
    ("C70", 20, 8): "fd7ec890be1578a1cec2c85847f9c5f42fac537ad64d19d0c1efc614b9494cd1",
    ("C70", 20, 12): "728ee739a2053c535c8dc04835cfe8f70cedab48f5b057616c8debdea0bfbb8d",
}


def bad_value_text(section, key, value):
    lead = "[run]\nprefix = p\n" if section == "beam" else "[beam]\npower_w = 5\n"
    return f"{lead}\n[{section}]\n{key} = {value}\n"


def orders_sweep_text(species, power, nodes):
    """The config that the orders-sweep benchmark workload builds."""
    prefix = f"{species.lower()}_p{power:02d}_v{nodes:02d}"
    return (
        f"[species]\nname = {species}\n[beam]\npower_w = {power}\n"
        f"[quadrature]\nvertical_nodes = {nodes}\n"
        f"[run]\nmode = orders\nprefix = {prefix}\n"
    )


class TestPinnedDigests:
    """The serialization, and so the digest, of each config is frozen."""

    def test_histogram_digest_adds_the_rows(self):
        assert histogram_rows(HISTOGRAM) == "100.0 0.2\n120.0 0.5\n140.0 0.3\n"

    @pytest.fixture
    def base_dir(self, tmp_path):
        (tmp_path / "hist.txt").write_text(HISTOGRAM, encoding="utf-8")
        return tmp_path

    def test_default(self):
        digest = "0901e29237a1643a5312e2d9eb8b6354fff0d47ca62fe68d1056fbbe66ac5209"
        assert config_digest(parse_config("")) == digest
        assert config_digest(SimulationConfig()) == digest

    @pytest.mark.parametrize("section, key, value", list(ONE_KEY_DIGESTS))
    def test_one_key(self, base_dir, section, key, value):
        cfg = parse_config(f"[{section}]\n{key} = {value}\n", base_dir=base_dir)
        assert config_digest(cfg) == pinned_digest(cfg, ONE_KEY_DIGESTS[section, key, value])

    def test_every_key_is_pinned(self):
        pinned = {(section, key) for section, key, _ in ONE_KEY_DIGESTS}
        assert pinned == {(row.section, row.key) for row in config._KEYS} | {("species", "name")}

    @pytest.mark.parametrize(
        "text, digest",
        [
            (
                "[species]\nname = testmol\nmass_amu = 123.456\n"
                "alpha_re_a3 = 77.7\nalpha_im_a3 = 0.111\n",
                "80c30e2ea7d3c799fd00c953d03ef3ea2fbb82d951e3ad65d1464ece68578078",
            ),
            (  # a catalog name with custom fields is a custom species
                "[species]\nname = C70\nmass_amu = 840\nalpha_re_a3 = 102\nalpha_im_a3 = 1\n",
                "6d37a215bf888ff76f954b4a9a3f04a3d7891fa8810e7cb96e8eddf20355226f",
            ),
            (
                "[velocity]\nhistogram_file = hist.txt\nfwhm_ratio = 0.25\nv_peak = 99\n",
                "f416cc3b4371db237e6894280e78601ec9cb9aece5c834d885b099a4eeb5af5d",
            ),
            (  # the scan-c70 benchmark workload
                "[species]\nname = C70\n[quadrature]\nvelocity_nodes = 8\nvertical_nodes = 16\n"
                "source_nodes = 4\n[run]\nworkers = 2\nprefix = scan\n",
                "2348fd76eacf4a608d200ba65ce0c536ba942f37449b7f3b7ab06703de0164c7",
            ),
            (  # the wave-c60 benchmark workload
                "[run]\nprefix = wave\n",
                "3161c2f246e43947c12309339a33c70683dbc2672ef84d81b7a6203bddde72ba",
            ),
            (
                "[beam]\npower_w = 20\nwavelength_nm = 514.5\n[geometry]\nslit1_um = 7.5\n"
                "[quadrature]\nvelocity_nodes = 4\n[numerics]\ntail_eps = 1e-12\n"
                "[run]\nprefix = x y\n",
                "a5fb84229bf6954d8be985fb1bf349fd8e12bb2053eb3e9d4e800f65891c6082",
            ),
        ],
    )
    def test_whole_configs(self, base_dir, text, digest):
        cfg = parse_config(text, base_dir=base_dir)
        assert config_digest(cfg) == pinned_digest(cfg, digest)

    @pytest.mark.parametrize("species, power, nodes", list(ORDERS_SWEEP_DIGESTS))
    def test_orders_sweep(self, species, power, nodes):
        cfg = parse_config(orders_sweep_text(species, power, nodes))
        assert config_digest(cfg) == ORDERS_SWEEP_DIGESTS[species, power, nodes]


class TestPinnedErrors:
    """Each single fault keeps its message, key and line."""

    @pytest.mark.parametrize("section, key, value, message", ONE_KEY_ERRORS)
    def test_one_bad_value(self, section, key, value, message):
        with pytest.raises(ConfigError) as err:
            parse_config(bad_value_text(section, key, value))
        assert str(err.value) == f"{section}.{key} (line 5): {message}"
        assert (err.value.key, err.value.line) == (f"{section}.{key}", 5)

    def test_every_key_has_a_pinned_error(self):
        pinned = {(section, key) for section, key, _, _ in ONE_KEY_ERRORS}
        rows = {(row.section, row.key) for row in config._KEYS}
        # out_dir and prefix refuse only text that 'key = value' cannot hold
        # (test_species_and_schema_faults); test_bad_histogram_file has the file
        unpinned = {("run", "out_dir"), ("run", "prefix"), ("velocity", "histogram_file")}
        assert pinned == rows - unpinned

    @pytest.mark.parametrize(
        "text, message, key, line",
        [
            (
                "[species]\nname = testmol\nmass_amu = 100\n",
                "custom species needs alpha_re_a3, alpha_im_a3 as well",
                "species.mass_amu",
                3,
            ),
            (
                "[species]\nname = testmol\nalpha_im_a3 = 1\n",
                "custom species needs mass_amu, alpha_re_a3 as well",
                "species.alpha_im_a3",
                3,
            ),
            (
                "[species]\nname = x\nmass_amu = -5\nalpha_re_a3 = 50\nalpha_im_a3 = 1\n",
                "mass must be positive",
                "species.mass_amu",
                3,
            ),
            (
                "[species]\nname = x\nmass_amu = 100\nalpha_re_a3 = 50\nalpha_im_a3 = -1\n",
                "imaginary polarizability must be >= 0",
                "species.alpha_im_a3",
                5,
            ),
            (
                "[species]\nname = x\nmass_amu = nan\nalpha_re_a3 = 50\nalpha_im_a3 = 1\n",
                "not finite: 'nan'",
                "species.mass_amu",
                3,
            ),
            (
                "[species]\nname = C600\n",
                "unknown species 'C600'; catalog has C60, C70 "
                "(or define mass_amu/alpha_re_a3/alpha_im_a3 inline)",
                "species.name",
                2,
            ),
            # a continuation line puts a line break into the name
            (
                "[species]\nname = a\n  b\nmass_amu = 100\nalpha_re_a3 = 50\nalpha_im_a3 = 1\n",
                "species.name 'a\\nb' would not read back from a config file: it must not "
                "start or end with whitespace, hold a line break, or hold '#' or ';' at its "
                "start or after whitespace",
                "species.name",
                2,
            ),
            ("[beam]\npower_w = 1\n\n[lasers]\nx = 1\n", "unknown section [lasers]", "lasers", 4),
            ("[beam]\npower_watts = 1\n", "unknown key", "beam.power_watts", 2),
            ("[DEFAULT]\nfoo = 1\npower_w = 3\n", "unknown section [DEFAULT]", "DEFAULT", 1),
            # its keys do not leak into the other sections
            ("[DEFAULT]\nfoo = 1\n[beam]\npower_w = 3\n", "unknown section [DEFAULT]", "DEFAULT", 1),
            ("[beam]\npower_w = 3\n\n[DEFAULT]\n", "unknown section [DEFAULT]", "DEFAULT", 4),
            # the INI reader keeps the blanks inside a header's brackets
            ("[ beam ]\npower_w = 3\n", "unknown section [ beam ]", " beam ", 1),
            ("[beam]\npower_w = 3\n\n[beam ]  \n", "unknown section [beam ]", "beam ", 4),
            # and ends a header line at an inline comment
            ("[beam] # laser\npower_w = x\n", "not a number: 'x'", "beam.power_w", 2),
            ("[beam]  # note\npower_w = x\n", "not a number: 'x'", "beam.power_w", 2),
            # but the INI reader would drop any other text after the ']'
            (
                "[run]\nworkers = 1\n[beam] extra words\npower_w = 3\n",
                "text 'extra words' after the section header [beam]",
                "beam",
                3,
            ),
            ("[beam]x\npower_w = 3\n", "text 'x' after the section header [beam]", "beam", 1),
            # a comment starts only at the line's start or after whitespace
            ("[beam];x\npower_w = 3\n", "text ';x' after the section header [beam]", "beam", 1),
            (
                "[run]\nprefix =#x\n",
                "run.prefix '#x' would not read back from a config file: it must not start "
                "or end with whitespace, hold a line break, or hold '#' or ';' at its start "
                "or after whitespace",
                "run.prefix",
                2,
            ),
            (
                "[run]\nout_dir =;x\n",
                "run.out_dir ';x' would not read back from a config file: it must not start "
                "or end with whitespace, hold a line break, or hold '#' or ';' at its start "
                "or after whitespace",
                "run.out_dir",
                2,
            ),
        ],
    )
    def test_species_and_schema_faults(self, text, message, key, line):
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert str(err.value) == f"{key} (line {line}): {message}"
        assert (err.value.key, err.value.line) == (key, line)

    @pytest.mark.parametrize(
        "name, message",
        [
            ("bad.txt", "histogram file must have exactly two columns"),
            ("nope.txt", "[Errno 2] No such file or directory: '{base_dir}/nope.txt'"),
        ],
    )
    def test_bad_histogram_file(self, tmp_path, name, message):
        (tmp_path / "bad.txt").write_text("100 0.2 7\n", encoding="utf-8")
        with pytest.raises(ConfigError) as err:
            parse_config(bad_value_text("velocity", "histogram_file", name), base_dir=tmp_path)
        message = message.format(base_dir=tmp_path)
        assert str(err.value) == f"velocity.histogram_file (line 5): {message}"
        assert (err.value.key, err.value.line) == ("velocity.histogram_file", 5)

    @pytest.mark.parametrize(
        "text, key",
        [
            # [numerics] lists pad_factor before tail_eps
            ("[numerics]\ntail_eps = 0\npad_factor = 0\n", "numerics.pad_factor"),
            # the histogram file loads after every table row is read
            ("[velocity]\nhistogram_file = nope.txt\n[run]\nworkers = 0\n", "run.workers"),
        ],
    )
    def test_two_faults_report_the_first_in_table_order(self, tmp_path, text, key):
        with pytest.raises(ConfigError) as err:
            parse_config(text, base_dir=tmp_path)
        assert err.value.key == key


def refused_at_its_key_before_allocating(text, key, match):
    """``parse_config(text)`` raises a ConfigError matching ``match`` at ``key``'s line.

    The refusal comes before any large array is allocated: tracemalloc's
    peak stays under 1 MB.
    """
    name = key.split(".")[1]
    line = 1 + next(n for n, raw in enumerate(text.splitlines()) if raw.startswith(name))
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=match) as err:
            parse_config(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (err.value.key, err.value.line) == (key, line)
    assert peak < 1 << 20


def refused_values(row):
    """The values of ``row`` in ONE_KEY_ERRORS that its parser reads and its dataclass refuses.

    For ``out_dir`` and ``prefix``, a continuation line that puts a line break into the value.
    """
    values = [
        value
        for section, key, value, message in ONE_KEY_ERRORS
        if (section, key) == (row.section, row.key) and not message.startswith("not ")
    ]
    return values + ["a\n  b"] if row.key in ("out_dir", "prefix") else values


class TestOneRulePerField:
    """Each field's rule lives in the dataclass that holds it, which the file parser calls."""

    @pytest.mark.parametrize("row", config._KEYS, ids=lambda row: f"{row.section}.{row.key}")
    def test_the_dataclass_refuses_what_the_file_parser_refuses(self, row):
        values = refused_values(row)
        # every boolean is a convergence_check; a histogram file is refused as it loads
        assert bool(values) != (row.key in ("convergence_check", "histogram_file"))
        for value in values:
            text = bad_value_text(row.section, row.key, value)
            with pytest.raises(ConfigError) as err:
                parse_config(text)
            group, attr = row.path.split(".")
            parsed = row.codec[0](config._read_ini(text)[0][row.section, row.key])
            with pytest.raises(ValueError) as direct:
                replace(getattr(SimulationConfig(), group), **{attr: parsed})
            assert str(err.value) == f"{row.section}.{row.key} (line 5): {direct.value}"
            assert (err.value.key, err.value.line) == (f"{row.section}.{row.key}", 5)

    @pytest.mark.parametrize(
        "group, name, value",
        [
            ("run", "mode", "order"),
            ("run", "normalization", "Peak"),
            ("run", "workers", 0),
            ("numerics", "tail_eps", 2.0),
            ("numerics", "m_max", 0),
            ("numerics", "pad_factor", 0),
            ("numerics", "samples_per_period", 30),
            ("numerics", "internal_step", 0.0),
            ("quadrature", "vertical_nodes", 0),
            ("beam", "power", math.nan),
        ],
    )
    def test_a_bad_value_set_from_python_names_its_field(self, group, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            replace(getattr(SimulationConfig(), group), **{name: value})

    @pytest.mark.parametrize(
        "group, name",
        [("geometry", name) for name in ("slit1", "slit2", "L12", "L2D", "detector_span")]
        + [("beam", name) for name in ("wavelength", "waist_y", "waist_z")],
    )
    def test_a_length_set_from_python_must_be_finite(self, group, name):
        # an infinite length passed the positivity check: a wave run then gave
        # a NaN pattern at slit1 = inf and an all-zero one at L2D = inf
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            replace(getattr(SimulationConfig(), group), **{name: math.inf})
        with pytest.raises(ValueError, match=f"^{name} must be positive$"):
            replace(getattr(SimulationConfig(), group), **{name: -math.inf})

    def test_the_laser_has_one_waist(self):
        cfg = SimulationConfig()
        message = r"^vertical\.laser_waist 0\.0013 != beam\.waist_y 0\.0005$"
        with pytest.raises(ValueError, match=message):
            replace(cfg, beam=replace(cfg.beam, waist_y=0.5e-3))
        beam = replace(cfg.beam, waist_y=0.5e-3)
        vertical = replace(cfg.vertical, laser_waist=0.5e-3)
        from_file = parse_config("[beam]\nwaist_y_mm = 0.5\n")
        assert from_file == replace(cfg, beam=beam, vertical=vertical)

    @pytest.mark.parametrize("power", [math.nan, math.inf, -math.inf])
    def test_ensemble_patterns_refuses_a_power_that_is_not_finite(self, power):
        with pytest.raises(ValueError, match="^power must be finite$"):
            ensemble_patterns(SimulationConfig(), [5.0, power])


class TestDetectorArrayBound:
    """No detector-plane array may hold more than MAX_DETECTOR_POINTS points."""

    @pytest.mark.parametrize(
        "text, key, what",
        [
            ("[numerics]\ninternal_step_um = 0.000001\n", "numerics.internal_step_um", "common"),
            ("[detector]\nwidth_um = 1000000\n", "detector.width_um", "common"),
            ("[geometry]\ndetector_span_um = 1e9\n", "geometry.detector_span_um", "scan grid"),
            ("[detector]\nstep_um = 0.000001\n", "detector.step_um", "scan grid"),
            # the file sets both: the internal step is blamed
            (
                "[detector]\nwidth_um = 1000000\n[numerics]\ninternal_step_um = 0.1\n",
                "numerics.internal_step_um",
                "common",
            ),
        ],
    )
    def test_refused_at_its_key_before_allocating(self, text, key, what):
        refused_at_its_key_before_allocating(text, key, f"{what}.* more than the")

    @pytest.mark.parametrize("shape", ["gaussian", "tophat"])
    def test_library_callers_get_a_value_error(self, shape):
        # each a few times the bound: 3.0e6, 3.4e6 and 2.0e6 or 5.1e6 points
        geom = SimulationConfig().geometry
        with pytest.raises(ValueError, match="the scan grid would hold"):
            _scan_grid(geom, 1e-10)
        with pytest.raises(ValueError, match="the common detector grid would hold"):
            _internal_grid(geom, 6e-6, 1e-10)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="the detector kernel would hold"):
                detector_kernel(DetectorModel(width=0.2, kernel_shape=shape), 1e-7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_every_array_of_the_default_config_fits(self):
        cfg = SimulationConfig()
        for size in (
            _scan_grid(cfg.geometry, cfg.detector.step).size,
            _internal_grid(cfg.geometry, cfg.detector.width, cfg.numerics.internal_step).size,
            detector_kernel(cfg.detector, cfg.numerics.internal_step).size,
        ):
            assert 1 < size <= MAX_DETECTOR_POINTS

    def test_the_largest_grid_within_the_bound_is_accepted(self):
        # grids hold an odd number of points: 2^20 - 1 is accepted, 2^20 + 1 not
        geom = SimulationConfig().geometry
        half = (MAX_DETECTOR_POINTS - 1) // 2
        assert _scan_grid(geom, geom.detector_span / (2 * half)).size == MAX_DETECTOR_POINTS - 1
        with pytest.raises(ValueError, match="scan grid"):
            _scan_grid(geom, geom.detector_span / (2 * half + 2))


PADDED = "the padded detector grid of orders mode"
ORDERS = "[run]\nmode = orders\n"


class TestRunArrayBounds:
    """The arrays that the numerics and quadrature keys size are bounded too.

    Each bound is checked where its size is computed: the window in
    ``GridSpec``, the output transform with the slit layout, the node
    counts in the quadrature rules (the source rule's with the slit layout)
    and the order table with ``m_max`` (``samples_per_laser_period``).
    """

    PHI_0 = ComplexPhase(0.0, 0.0)

    @pytest.mark.parametrize(
        "text, key, what",
        [
            ("[numerics]\npad_factor = 1000000\n", "numerics.pad_factor", "the output transform"),
            (
                "[numerics]\nsamples_per_period = 4000000\n",
                "numerics.samples_per_period",
                "the grating window",
            ),
            ("[geometry]\nslit2_um = 1000000\n", "geometry.slit2_um", "the grating window"),
            (
                "[quadrature]\nsource_nodes = 100000000\n",
                "quadrature.source_nodes",
                "the source rule",
            ),
            (
                "[quadrature]\nvelocity_nodes = 100000000\n",
                "quadrature.velocity_nodes",
                "the velocity rule",
            ),
            (
                "[quadrature]\nvertical_nodes = 100000000\n",
                "quadrature.vertical_nodes",
                "the vertical rule",
            ),
            ("[numerics]\nm_max = 100000\n", "numerics.m_max", "the order table"),
            # orders mode pads the common grid by a shadow's span either side
            (f"[geometry]\nslit1_um = 1.7e308\n{ORDERS}", "geometry.slit1_um", PADDED),
            (f"[geometry]\nslit1_um = 1e300\n{ORDERS}", "geometry.slit1_um", PADDED),
            (f"[geometry]\nslit2_um = 1e6\n{ORDERS}", "geometry.slit2_um", PADDED),
            (f"[geometry]\nl2d_m = 1e6\n{ORDERS}", "geometry.l2d_m", PADDED),
            (f"[geometry]\nl12_m = 1e-300\n{ORDERS}", "geometry.l12_m", PADDED),
            # the file sets several: the first of slit1, slit2, L2D, L12 is blamed
            (
                "[geometry]\nl12_m = 1e-300\nl2d_m = 1.2\n[numerics]\ninternal_step_um = 0.1\n"
                "[run]\nmode = orders\n",
                "geometry.l2d_m",
                PADDED,
            ),
            (
                "[numerics]\nm_max = 100000\n[run]\nmode = orders\n",
                "numerics.m_max",
                "the order table",
            ),
            # the file sets both: the more direct key is blamed
            (
                "[numerics]\nsamples_per_period = 128\npad_factor = 2000\n",
                "numerics.pad_factor",
                "the output transform",
            ),
            # a convergence check doubles each rule
            (
                "[quadrature]\nvelocity_nodes = 600\n[run]\nconvergence_check = true\n",
                "quadrature.velocity_nodes",
                "the velocity rule",
            ),
            (
                "[run]\nconvergence_check = true\n[quadrature]\nsource_nodes = 1000\n",
                "quadrature.source_nodes",
                "the source rule",
            ),
        ],
    )
    def test_refused_at_its_key_before_allocating(self, text, key, what):
        refused_at_its_key_before_allocating(text, key, f"^{key} \\(line \\d\\): {what} would hold")

    def test_a_velocity_histogram_is_a_rule_too(self, tmp_path):
        rows = "".join(f"{100 + 0.01 * n} 1\n" for n in range(MAX_QUADRATURE_NODES + 1))
        (tmp_path / "v.txt").write_text(rows, encoding="utf-8")
        with pytest.raises(ConfigError, match="the velocity histogram would hold 1025 rows") as err:
            parse_config("[velocity]\nhistogram_file = v.txt\n", base_dir=tmp_path)
        assert (err.value.key, err.value.line) == ("velocity.histogram_file", 2)

    @pytest.mark.parametrize(
        "text, key",
        [
            ("[beam]\nwavelength_nm = 1e290\n", "beam.wavelength_nm"),
            # the aperture covers only the sample left of the centre; the
            # window's most direct key is blamed
            (
                "[beam]\nwavelength_nm = 1.1343933995811807e+260\n"
                "[numerics]\nsamples_per_period = 4\n",
                "numerics.samples_per_period",
            ),
        ],
    )
    def test_an_aperture_that_misses_the_window_centre_is_refused(self, text, key):
        match = "the slit2 aperture misses the centre of the grating window"
        refused_at_its_key_before_allocating(text, key, match)

    def test_the_wave_window_is_sized_without_building_it(self):
        # 28 periods of 24000 samples and an output transform of 2^21 points:
        # the window's positions and aperture would hold 5.4 MB each
        text = "[numerics]\nsamples_per_period = 24000\npad_factor = 2\n"
        tracemalloc.start()
        try:
            cfg = parse_config(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        grid = window_grid(cfg.beam, cfg.geometry, cfg.numerics.samples_per_period)
        assert grid.size == 672000
        assert peak < 1 << 20

    def test_the_source_rule_sizes_no_array(self):
        # 1024 nodes at 128 samples per period: 2 x 2488 lags each, which a
        # table of the source ramps per node and lag could not hold
        text = "[quadrature]\nsource_nodes = 1024\n[numerics]\nsamples_per_period = 128\n"
        assert parse_config(text).quadrature.source_nodes == 1024

    @pytest.mark.parametrize("text", ["5e316", "1e-306", "5e-315"])
    def test_window_periods_that_cannot_be_counted_are_refused(self, text):
        key = "beam.wavelength_nm"
        match = f"^{key} \\(line 2\\): the periods of the grating window cannot be counted"
        refused_at_its_key_before_allocating(f"[beam]\nwavelength_nm = {text}\n", key, match)

    def test_a_fine_internal_step_pads_past_the_bound(self):
        # a common grid of 1000001 points, which fits, padded by 52 190
        # points either side, which does not
        text = "[numerics]\ninternal_step_um = 0.00034\n[run]\nmode = orders\n"
        match = f"^numerics.internal_step_um \\(line 2\\): {PADDED} would hold 1.104e\\+06 points"
        refused_at_its_key_before_allocating(text, "numerics.internal_step_um", match)

    def test_the_common_grid_is_sized_without_building_it(self):
        # wave mode accepts the 1000001-point grid (8 MB) of the step above
        tracemalloc.start()
        try:
            cfg = parse_config("[numerics]\ninternal_step_um = 0.00034\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cfg.numerics.internal_step == 3.4e-10
        assert peak < 1 << 20

    def test_wave_mode_pads_no_shadow(self):
        # wave mode refuses such a slit1 when it builds the source kernel
        assert parse_config("[geometry]\nslit1_um = 1.7e308\n").geometry.slit1 == 1.7e302

    def test_orders_mode_sizes_no_wave_arrays(self):
        cfg = parse_config("[numerics]\npad_factor = 1000000\n[run]\nmode = orders\n")
        assert cfg.numerics.pad_factor == 1000000

    def test_library_callers_get_a_value_error_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="the grating window would hold"):
                GridSpec(periods=2, samples_per_period=MAX_WINDOW_SAMPLES)
            largest = GridSpec(periods=2, samples_per_period=MAX_WINDOW_SAMPLES // 2)
            with pytest.raises(ValueError, match="the output transform would hold"):
                _fft_length(largest, 4)
            with pytest.raises(ValueError, match="the order table would hold"):
                samples_per_laser_period(self.PHI_0, 100000)
            # a phase no grid of the bound resolves, before any kernel is built
            with pytest.raises(ValueError, match="the order table would hold"):
                mixed_order_spectra([ComplexPhase(1e6, 1.0)], 20)
            for what, rule in (
                ("velocity", lambda n: velocity_quadrature(VelocityDistribution(), n)),
                ("vertical", lambda n: vertical_phi_scales(VerticalProfile(), n)),
            ):
                message = f"^the {what} rule would hold 1e\\+08 nodes, more than the 1024 allowed$"
                with pytest.raises(ValueError, match=message):
                    rule(10**8)
                assert rule(MAX_QUADRATURE_NODES)[0].size == MAX_QUADRATURE_NODES
            # the source rule sizes no array; a run checks it with the slit layout
            cfg = SimulationConfig()
            cfg = replace(cfg, quadrature=replace(cfg.quadrature, source_nodes=10**8))
            message = "^the source rule would hold 1e\\+08 nodes, more than the 1024 allowed$"
            with pytest.raises(ValueError, match=message):
                ensemble_patterns(cfg, [0.0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_the_default_run_sits_inside_every_bound_by_its_stated_margin(self):
        cfg = SimulationConfig()
        grid = window_grid(cfg.beam, cfg.geometry, cfg.numerics.samples_per_period)
        assert (grid.size, MAX_WINDOW_SAMPLES // grid.size) == (1792, 585)
        n_fft = _fft_length(grid, cfg.numerics.pad_factor)
        assert (n_fft, MAX_FFT_LENGTH // n_fft) == (8192, 256)
        assert MAX_QUADRATURE_NODES // cfg.quadrature.velocity_nodes == 64
        n = samples_per_laser_period(self.PHI_0, cfg.numerics.m_max)
        assert n // 4 * (cfg.numerics.m_max + 1) == 168
        # the largest m_max that parses
        assert samples_per_laser_period(self.PHI_0, 4089)
        with pytest.raises(ValueError, match="the order table"):
            samples_per_laser_period(self.PHI_0, 4090)


class TestScanGrid:
    """A detector step above half the detector span leaves one scan point."""

    MESSAGE = "the scan grid would hold one point"

    @pytest.mark.parametrize(
        "text, key, line",
        [
            ("[detector]\nstep_um = 160\n", "detector.step_um", 2),
            ("[detector]\nstep_um = 400\n", "detector.step_um", 2),
            ("[geometry]\ndetector_span_um = 3.9\n", "geometry.detector_span_um", 2),
            # the file sets both: the step is blamed
            ("[detector]\nstep_um = 3\n[geometry]\ndetector_span_um = 5\n", "detector.step_um", 2),
        ],
    )
    def test_one_point_grid_is_refused_at_the_key_the_file_sets(self, text, key, line):
        with pytest.raises(ConfigError, match=self.MESSAGE) as err:
            parse_config(text)
        assert (err.value.key, err.value.line) == (key, line)

    @pytest.mark.parametrize(
        "text", ["[detector]\nstep_um = 150\n", "[geometry]\ndetector_span_um = 4\n"]
    )
    def test_three_points_are_accepted(self, text):
        cfg = parse_config(text)
        assert len(_scan_grid(cfg.geometry, cfg.detector.step)) == 3

    def test_library_callers_get_a_value_error(self):
        with pytest.raises(ValueError, match=self.MESSAGE):
            _scan_grid(SimulationConfig().geometry, 160e-6)


class TestIniSyntaxErrorLines:
    """The reader's own faults name their line and no key."""

    @pytest.mark.parametrize(
        "text, line, message",
        [
            (
                "[beam]\npower_w = 1\npower_w = 2\n",
                3,
                "option 'power_w' in section 'beam' already exists",
            ),
            (
                "[beam]\npower_w = 1\n[run]\n[beam]\nwaist_y_mm = 1\n",
                4,
                "section 'beam' already exists",
            ),
            ("power_w = 1\n", 1, "File contains no section headers."),
            ("[beam]\nwaist_y_mm\n", 2, "no 'key = value' or [section] in 'waist_y_mm'"),
            ("[beam]\n = 3\n", 2, "no 'key = value' or [section] in '= 3'"),
        ],
        ids=["duplicate-option", "duplicate-section", "missing-section-header", "no-equals", "no-key"],
    )
    def test_line_of_syntax_error(self, text, line, message):
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.line == line
        assert err.value.key is None
        assert message in str(err.value)
        assert str(err.value).startswith(f"line {line}: ")

    @pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
    def test_line_breaks_other_than_lf_do_not_shift_lines(self, char):
        # str.splitlines() breaks at these; the reader breaks at '\n' only
        with pytest.raises(ConfigError) as err:
            parse_config(f"# note{char}x\n[beam]\npower_w = z\n")
        assert (err.value.key, err.value.line) == ("beam.power_w", 3)

    @pytest.mark.parametrize(
        "text, raw",
        [
            ("[beam]\nPower_W=5\n", {("beam", "power_w"): "5"}),
            # '#' and ';' open a comment only at a line's start or after whitespace
            ("[run]\nprefix = a#b;c ;d #e\n", {("run", "prefix"): "a#b;c"}),
            # deeper lines continue the value; blank lines do too, comment lines not
            ("[run]\nprefix = a\n\n  # c\n  b\n\n", {("run", "prefix"): "a\n\nb"}),
            ("[run]\nprefix = a\n  [beam]\n", {("run", "prefix"): "a\n[beam]"}),
            (" [run]\n prefix = a\n out_dir = b\n", {("run", "prefix"): "a", ("run", "out_dir"): "b"}),
        ],
    )
    def test_raw_values(self, text, raw):
        assert config._read_ini(text)[0] == raw

    def test_crlf_text_parses_like_lf_text(self):
        text = "[species]\nname = C70\n\n[beam]  # laser\npower_w = 5\n[run]\nprefix = scan\n"
        crlf = text.replace("\n", "\r\n")
        assert parse_config(crlf) == parse_config(text) != SimulationConfig()
        with pytest.raises(ConfigError) as err:
            parse_config(crlf + "workers = 0\r\n")
        assert (err.value.key, err.value.line) == ("run.workers", 8)


# Non-default values that each kind of row accepts.  Text never holds " #"
# or " ;", which the INI reader takes for an inline comment, nor leading or
# trailing blanks, which it strips.
_TEXT = st.text(
    st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")), min_size=1, max_size=12
).filter(lambda s: s == s.strip() and " #" not in f" {s}" and " ;" not in f" {s}")
_CHOICES = {"kernel": ("tophat",), "mode": ("orders",), "normalization": ("peak",)}
# The keys that size arrays, drawn where the default config's arrays stay
# within their bounds (checked by ``parse_config``) and the scan grid holds a
# point either side of its centre (span 300 um, step 2 um): floats in m,
# integers as (lowest, highest, step).  Keys with rule (0, 1) are drawn there.
_FLOAT_RANGES = {
    "wavelength_nm": (1e-7, 1e-3),
    "slit2_um": (1e-8, 1e-4),
    "detector_span_um": (4e-6, 0.1),
    "step_um": (1e-9, 150e-6),
    "width_um": (0.0, 0.01),
    "internal_step_um": (1e-9, 1e-3),
    "fwhm_ratio": (0.0, 1.0),
    "tail_eps": (0.0, 1.0),
}
_INT_RANGES = {
    "samples_per_period": (4, 6000, 4),
    "pad_factor": (1, 1000, 1),
    "m_max": (1, 4000, 1),
    **dict.fromkeys(("velocity_nodes", "vertical_nodes", "source_nodes"), (1, 1024, 1)),
}


def _values(row):
    if row.key in _CHOICES:
        return st.sampled_from(_CHOICES[row.key])
    if row.codec is config._BOOL:
        return st.booleans()
    if row.codec is config._TEXT:
        return _TEXT
    if row.codec is config._PATH:
        return st.text("abcxyz019_-. ", min_size=1, max_size=12).filter(
            lambda s: s == s.strip() and s not in (".", "..")
        )
    if row.codec is config._INT:
        lo, hi, step = _INT_RANGES.get(row.key, (1, 10**6, 1))
        return st.integers(lo // step, hi // step).map(lambda n: step * n)
    return st.floats(*_FLOAT_RANGES.get(row.key, (0.0, None)), allow_infinity=False)


def _with_value(row, value):
    """The default config with ``row``'s field set to ``value`` by ``replace``.

    ``waist_y_mm`` sets the laser's one waist: ``beam.waist_y`` and
    ``vertical.laser_waist`` together.
    """
    group, attr = row.path.split(".")
    cfg = SimulationConfig()
    fields = {group: replace(getattr(cfg, group), **{attr: value})}
    if row.path == "beam.waist_y":
        fields["vertical"] = replace(cfg.vertical, laser_waist=value)
    return replace(cfg, **fields)


def _valid(row, value):
    """Whether ``value`` is not ``row``'s default, its dataclass accepts it, and the arrays fit."""
    try:
        text = serialize_config(_with_value(row, value))
    except ValueError:  # the dataclass refuses it
        return False
    try:
        parse_config(text)
    except ConfigError as err:  # only an array's bound refuses what the dataclass accepts
        assert " would hold " in str(err), err
        return False
    return value != attrgetter(row.path)(SimulationConfig())


_HISTOGRAM_ROW = next(row for row in config._KEYS if row.key == "histogram_file")


@pytest.mark.parametrize(
    "row",
    [row for row in config._KEYS if row is not _HISTOGRAM_ROW],
    ids=lambda row: f"{row.section}.{row.key}",
)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_every_key_round_trips(row, data):
    value = data.draw(_values(row).filter(lambda v: _valid(row, v)))
    cfg = _with_value(row, value)
    again = parse_config(serialize_config(cfg))
    assert again == cfg
    assert serialize_config(again) == serialize_config(cfg)


@settings(max_examples=40, deadline=None)
@given(name=_values(_HISTOGRAM_ROW))
@example(name="0.xz")  # a plain-text file under a compressed suffix
@example(name="a.gz")
def test_every_histogram_file_name_round_trips(name):
    with tempfile.TemporaryDirectory() as base_dir:
        (Path(base_dir) / name).write_text(HISTOGRAM, encoding="utf-8")
        cfg = parse_config(f"[velocity]\nhistogram_file = {name}\n", base_dir=base_dir)
        assert cfg.velocity_histogram_file == name
        assert parse_config(serialize_config(cfg), base_dir=base_dir) == cfg


@pytest.mark.parametrize("key", ["prefix", "out_dir"])
@pytest.mark.parametrize("value", ["a #b", "a ;b", "a\t#b", "#a", ";a", " a", "a ", "a\nb", "a\r"])
def test_text_that_would_not_read_back_is_refused(key, value):
    with pytest.raises(ValueError, match=f"run.{key} .* would not read back"):
        replace(SimulationConfig().run, **{key: value})


@pytest.mark.parametrize("key", ["prefix", "out_dir"])
@settings(max_examples=200, deadline=None)
@given(value=st.text(st.sampled_from(string.printable)) | st.text())
@example(value="a #b")
@example(value="a#b;c")
@example(value=" a")
@example(value="")
def test_text_values_round_trip_or_are_refused(key, value):
    cfg = SimulationConfig()
    try:
        cfg = replace(cfg, run=replace(cfg.run, **{key: value}))
    except ValueError:
        return
    assert parse_config(serialize_config(cfg)) == cfg


@settings(max_examples=200, deadline=None)
@given(name=st.text(st.sampled_from(string.printable)) | st.text())
@example(name="a #b")
@example(name="a#b;c")
@example(name=" a")
def test_species_names_round_trip_or_are_refused(name):
    try:
        species = MoleculeSpecies(name, 123.5, ComplexPolarizability(77.7, 0.1))
    except ValueError:
        return
    cfg = replace(SimulationConfig(), species=species)
    assert parse_config(serialize_config(cfg)) == cfg


class TestReadmeExample:
    @pytest.fixture(scope="class")
    def block(self):
        return re.search(r"```ini\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)

    def test_parses_to_the_defaults(self, block):
        assert parse_config(block) == SimulationConfig()

    def test_names_every_key(self, block):
        for section, keys in config._SCHEMA.items():
            assert f"[{section}]" in block
            for key in keys:
                assert re.search(rf"^#?{key} *=", block, re.M), key
