"""End-to-end command-line runs on small configurations."""

import gzip
import json
import lzma
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import lightgrating
from lightgrating.cli import build_parser, main
from lightgrating.config import config_digest, parse_config
from lightgrating.distributions import vertical_phi_scales
from lightgrating.grating import GratingBeam, compute_phi, truncation_order
from lightgrating.orders import absorbed_fractions
from lightgrating.runner import (
    ConvergenceError,
    read_pattern_csv,
    run_power_scan,
    run_simulate,
    write_pattern_csv,
)
from lightgrating.species import CATALOG

TINY = """\
[geometry]
detector_span_um = 120

[quadrature]
velocity_nodes = 2
vertical_nodes = 1
source_nodes = 2

[numerics]
samples_per_period = 32
"""


def write_config(tmp_path, text=TINY, name="sim.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestParser:
    def test_requires_subcommand(self, capsys):
        with pytest.raises(SystemExit) as err:
            build_parser().parse_args([])
        assert err.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            build_parser().parse_args(["--version"])
        assert err.value.code == 0
        assert "lightgrating" in capsys.readouterr().out

    def test_subcommands_registered(self):
        parser = build_parser()
        args = parser.parse_args(["simulate", "x.cfg", "--out-dir", "od"])
        assert args.command == "simulate" and args.out_dir == "od"
        args = parser.parse_args(["scan", "x.cfg", "--powers", "0,1,2"])
        assert args.powers == "0,1,2"
        args = parser.parse_args(["compare", "a.csv", "b.csv"])
        assert args.pattern_a == "a.csv"


class TestSimulate:
    def test_writes_pattern_and_summary(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        code = main(["simulate", str(cfg), "--out-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "run_pattern.csv" in out

        pattern = read_pattern_csv(tmp_path / "run_pattern.csv")
        assert pattern.positions[0] == pytest.approx(-60e-6, abs=1e-9)
        assert pattern.positions[-1] == pytest.approx(60e-6, abs=1e-9)
        assert np.all(pattern.intensity >= 0.0)

        summary = json.loads((tmp_path / "run_summary.json").read_text())
        assert summary["species"] == "C60"
        assert summary["mode"] == "wave"
        phi = compute_phi(CATALOG["C60"], GratingBeam(), 120.0)
        assert summary["phi_re"] == pytest.approx(phi.re, rel=1e-12)
        assert summary["phi_im"] == pytest.approx(phi.im, rel=1e-12)
        assert summary["mean_absorbed_photons"] == pytest.approx(
            2 * phi.im, rel=1e-12
        )
        assert len(summary["config_digest"]) == 64
        assert summary["total_probability"] == pytest.approx(1.0, abs=1e-3)

    def test_config_digest_computed_once_per_run(self, tmp_path, monkeypatch):
        calls = []

        def counted(cfg):
            calls.append(cfg)
            return config_digest(cfg)

        monkeypatch.setattr(lightgrating.runner, "config_digest", counted)
        cfg = parse_config(TINY)
        pattern, summary = run_simulate(cfg, tmp_path)
        assert len(calls) == 1
        assert summary["config_digest"] == pattern.metadata["config_digest"] == config_digest(cfg)

    def test_summary_reports_effective_channels(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["simulate", str(cfg), "--out-dir", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "run_summary.json").read_text())
        channels = summary["channels_per_velocity"]
        assert len(channels) == 2 and all(isinstance(n, int) and n >= 1 for n in channels)
        assert 0.0 <= summary["dropped_probability"] <= 1e-10
        # the diagnostics stay out of the config digest and the pattern CSV
        assert summary["config_digest"] == config_digest(parse_config(TINY))
        csv = (tmp_path / "run_pattern.csv").read_text()
        assert csv.splitlines()[0] == "position_um,intensity"
        assert "channels" not in csv and "dropped" not in csv

    def test_summary_reports_no_channels_in_orders_mode(self, tmp_path):
        # orders mode reads the order intensities off the closed-form state
        cfg = write_config(tmp_path, TINY + "\n[run]\nmode = orders\n")
        assert main(["simulate", str(cfg), "--out-dir", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "run_summary.json").read_text())
        assert summary["channels_per_velocity"] is None
        assert summary["dropped_probability"] == 0.0
        assert summary["total_probability"] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("mode", ["wave", "orders"])
    @pytest.mark.parametrize("nodes", [7, 8])
    def test_summary_fractions_average_the_full_vertical_rule(self, tmp_path, mode, nodes):
        # the patterns use the folded rule; the summary keeps every node
        cfg = parse_config(
            f"[species]\nname = C70\n[beam]\npower_w = 20\n[quadrature]\nvelocity_nodes = 2\n"
            f"vertical_nodes = {nodes}\nsource_nodes = 2\n[run]\nmode = {mode}\n"
        )
        _, summary = run_simulate(cfg, tmp_path)
        phi = compute_phi(cfg.species, cfg.beam, cfg.velocity.v_peak)
        scales, weights = vertical_phi_scales(cfg.vertical, nodes)
        n_max = truncation_order(phi, cfg.numerics.tail_eps)
        expected = absorbed_fractions(phi, n_max, scales, weights).tolist()
        assert summary["absorbed_fractions"] == expected
        written = json.loads((tmp_path / "run_summary.json").read_text())
        assert written["absorbed_fractions"] == expected

    def test_csv_round_trip_precision(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["simulate", str(cfg), "--out-dir", str(tmp_path)]) == 0
        pattern = read_pattern_csv(tmp_path / "run_pattern.csv")
        again = tmp_path / "copy.csv"
        write_pattern_csv(again, pattern)
        copy = read_pattern_csv(again)
        # fixed-decimal format: 20 decimals on intensity, 1e-6 um positions
        assert np.array_equal(copy.intensity, pattern.intensity)
        assert np.array_equal(copy.positions, pattern.positions)
        big = pattern.intensity > 1e-6
        assert big.any()

    @pytest.mark.parametrize(
        "rows, line",
        [
            ("\n\n-1.0,0.5\n0.0,oops\n", 5),
            ("-1.0,0.5\n\n  \n0.0,1.0,2.0\n", 5),
            ("\n-1.0,0.5\n\n0.0,0.5\n\n1.0,nan?\n", 7),
        ],
    )
    def test_bad_row_reported_at_its_file_line(self, tmp_path, rows, line):
        bad = tmp_path / "bad.csv"
        bad.write_text("position_um,intensity\n" + rows, encoding="utf-8")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(bad))}:{line}: "):
            read_pattern_csv(bad)

    def test_blank_lines_are_skipped(self, tmp_path):
        csv = tmp_path / "blank.csv"
        csv.write_text("\nposition_um,intensity\n\n-1.0,0.5\n\n1.0,0.25\n\n", encoding="utf-8")
        pattern = read_pattern_csv(csv)
        assert np.array_equal(pattern.positions, [-1e-6, 1e-6])
        assert np.array_equal(pattern.intensity, [0.5, 0.25])

    def test_deterministic_bytes(self, tmp_path):
        cfg = write_config(tmp_path)
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            assert main(["simulate", str(cfg), "--out-dir", str(tmp_path / sub)]) == 0
        assert (tmp_path / "a" / "run_pattern.csv").read_bytes() == (
            tmp_path / "b" / "run_pattern.csv"
        ).read_bytes()
        assert (tmp_path / "a" / "run_summary.json").read_bytes() == (
            tmp_path / "b" / "run_summary.json"
        ).read_bytes()

    def test_deterministic_across_worker_counts(self, tmp_path):
        base = write_config(tmp_path)
        threaded = write_config(tmp_path, TINY + "\n[run]\nworkers = 4\n", "mt.cfg")
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        assert main(["simulate", str(base), "--out-dir", str(tmp_path / "a")]) == 0
        assert main(["simulate", str(threaded), "--out-dir", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "run_pattern.csv").read_bytes() == (
            tmp_path / "b" / "run_pattern.csv"
        ).read_bytes()

    def test_out_dir_from_environment(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path)
        env_dir = tmp_path / "fromenv"
        monkeypatch.setenv("LIGHTGRATING_OUTDIR", str(env_dir))
        assert main(["simulate", str(cfg)]) == 0
        assert (env_dir / "run_pattern.csv").exists()

    def test_flag_overrides_environment(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path)
        monkeypatch.setenv("LIGHTGRATING_OUTDIR", str(tmp_path / "env"))
        flag_dir = tmp_path / "flag"
        assert main(["simulate", str(cfg), "--out-dir", str(flag_dir)]) == 0
        assert (flag_dir / "run_pattern.csv").exists()
        assert not (tmp_path / "env").exists()

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[beam]\npower_watts = 1\n")
        assert main(["simulate", str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["hist.xz", "hist.gz"])
    def test_histogram_read_as_text_whatever_its_name(self, tmp_path, name):
        (tmp_path / name).write_text("100 0.2\n120 0.3\n140 0.5\n", encoding="utf-8")
        cfg = write_config(tmp_path, TINY + f"\n[velocity]\nhistogram_file = {name}\n")
        assert main(["simulate", str(cfg), "--out-dir", str(tmp_path)]) == 0
        assert json.loads((tmp_path / "run_summary.json").read_text())["v_peak"] == 140.0

    @pytest.mark.parametrize(
        "name, compress", [("hist.xz", lzma.compress), ("hist.gz", gzip.compress)], ids=["xz", "gz"]
    )
    def test_compressed_histogram_is_a_config_error(self, tmp_path, capsys, name, compress):
        (tmp_path / name).write_bytes(compress(b"100 0.2\n120 0.3\n140 0.5\n"))
        cfg = write_config(tmp_path, TINY + f"\n[velocity]\nhistogram_file = {name}\n")
        assert main(["simulate", str(cfg), "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: velocity.histogram_file (line 13): 'utf-8' codec")

    @pytest.mark.parametrize("slit1_um", ["1.7e308", "1e300"])
    def test_unresolvable_source_kernel_is_an_error(self, tmp_path, capsys, slit1_um):
        text = TINY.replace("[geometry]\n", f"[geometry]\nslit1_um = {slit1_um}\n")
        cfg = write_config(tmp_path, text)
        # refused before any NumPy warning, which would end the run first here
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", str(cfg), "--out-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: the source kernel cannot be resolved")
        assert not (tmp_path / "run_pattern.csv").exists()

    @pytest.mark.parametrize("slit1_um", ["1.7e308", "1e300"])
    def test_orders_mode_refuses_a_shadow_span_it_cannot_hold(self, tmp_path, capsys, slit1_um):
        text = TINY.replace("[geometry]\n", f"[geometry]\nslit1_um = {slit1_um}\n")
        cfg = write_config(tmp_path, text + "\n[run]\nmode = orders\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", str(cfg), "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: geometry.slit1_um (line 2): the padded detector grid")
        assert "Traceback" not in err
        assert not (tmp_path / "run_pattern.csv").exists()

    def test_orders_mode_refuses_slits_whose_shadow_widths_underflow(self, tmp_path, capsys):
        # 1e-160 um slits: the shadow's widths multiply to 2e-332 m^2, which
        # is 0 in a float, and its in-span share was written as NaN
        text = TINY.replace("[geometry]\n", "[geometry]\nslit1_um = 1e-160\nslit2_um = 1e-160\n")
        cfg = write_config(tmp_path, text + "\n[run]\nmode = orders\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", str(cfg), "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: geometry.slit2_um (line 3): the slits' shadow is too")
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == [cfg]

    def test_a_summary_that_is_not_strict_json_writes_nothing(self, tmp_path, capsys, monkeypatch):
        summarize = lightgrating.runner.summarize

        def nan_coverage(*args):
            summary = summarize(*args)
            summary["scan_coverage"] = math.nan
            return summary

        monkeypatch.setattr(lightgrating.runner, "summarize", nan_coverage)
        cfg = write_config(tmp_path, TINY + "\n[run]\nmode = orders\n")
        assert main(["simulate", str(cfg), "--out-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: Out of range float values")
        assert list(tmp_path.iterdir()) == [cfg]

    def test_missing_config_exit_code(self, tmp_path, capsys):
        assert main(["simulate", str(tmp_path / "nope.cfg")]) == 1
        assert "error" in capsys.readouterr().err

    def test_probability_bound_failure_is_a_clean_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(lightgrating.runner, "absorbed_fractions", lambda *_: np.array([1.5]))
        cfg = write_config(tmp_path, TINY + "\n[run]\nmode = orders\n")
        assert main(["simulate", str(cfg), "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err == "error: absorbed fractions violate probability bounds\n"

    def test_convergence_failure_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY + "\n[run]\nconvergence_check = true\n")
        with pytest.warns(UserWarning, match="not converged"):
            code = main(["simulate", str(cfg), "--out-dir", str(tmp_path)])
        assert code == 3
        assert "convergence failure" in capsys.readouterr().err
        # outputs are still written so the run can be inspected
        assert (tmp_path / "run_pattern.csv").exists()
        assert (tmp_path / "run_summary.json").exists()


class TestOrders:
    def test_orders_table(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["orders", str(cfg), "--out-dir", str(tmp_path)]) == 0
        assert "zero order" in capsys.readouterr().out
        lines = (tmp_path / "run_orders.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[:2] == ["m", "intensity"]
        channels = header[2:]
        assert channels[0] == "n0"
        rows = [line.split(",") for line in lines[1:]]
        orders = [int(row[0]) for row in rows]
        assert orders == sorted(orders)
        assert orders[0] == -orders[-1]
        total = sum(float(row[1]) for row in rows)
        assert total == pytest.approx(1.0, abs=1e-8)
        for row in rows:
            assert float(row[1]) == pytest.approx(
                sum(float(cell) for cell in row[2:]), abs=1e-15
            )
        # C70 at 20 W: one column per photon number up to the truncation order
        text = TINY + "[species]\nname = C70\n[beam]\npower_w = 20\n"
        strong = write_config(tmp_path, text, "c70.cfg")
        assert main(["orders", str(strong), "--out-dir", str(tmp_path / "c70")]) == 0
        header = (tmp_path / "c70" / "run_orders.csv").read_text().splitlines()[0].split(",")
        cfg = parse_config(text)
        n_max = lightgrating.truncation_order(
            compute_phi(cfg.species, cfg.beam, cfg.velocity.v_peak), cfg.numerics.tail_eps
        )
        assert n_max > 12 and header[2:] == [f"n{n}" for n in range(n_max + 1)]

    def test_orders_respects_env_out_dir(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path)
        monkeypatch.setenv("LIGHTGRATING_OUTDIR", str(tmp_path / "env"))
        assert main(["orders", str(cfg)]) == 0
        assert (tmp_path / "env" / "run_orders.csv").exists()


class TestScan:
    def test_phase_linear_in_power(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        code = main(
            ["scan", str(cfg), "--powers", "2,4,8", "--out-dir", str(tmp_path)]
        )
        assert code == 0
        lines = (tmp_path / "run_scan_summary.csv").read_text().splitlines()
        assert lines[0].startswith("power_w,phi_re,phi_im")
        rows = [list(map(float, line.split(","))) for line in lines[1:]]
        assert len(rows) == 3
        ratios = [row[1] / row[0] for row in rows]  # phi_re / power
        assert ratios[0] == pytest.approx(ratios[1], rel=1e-9)
        assert ratios[1] == pytest.approx(ratios[2], rel=1e-9)
        # per-power artifacts and the combined table both exist
        for index in range(3):
            assert (tmp_path / f"run_p{index:02d}_pattern.csv").exists()
        scan_lines = (tmp_path / "run_scan.csv").read_text().splitlines()
        assert scan_lines[0] == "power_w,position_um,intensity"
        assert len(scan_lines) == 1 + 3 * 61  # 61 detector steps per power

    def test_zero_power_allowed(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["scan", str(cfg), "--powers", "0", "--out-dir", str(tmp_path)]) == 0
        lines = (tmp_path / "run_scan_summary.csv").read_text().splitlines()
        row = lines[1].split(",")
        assert float(row[1]) == 0.0  # phi_re
        assert float(row[2]) == 0.0  # phi_im

    def test_bad_powers_list(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["scan", str(cfg), "--powers", "1,abc"]) == 2
        assert "bad --powers" in capsys.readouterr().err

    def test_negative_power_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["scan", str(cfg), "--powers", "-2"]) == 2
        assert ">= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("powers", [",", "", " , "])
    def test_empty_powers_list_is_a_config_error(self, tmp_path, capsys, powers):
        cfg = write_config(tmp_path)
        assert main(["scan", str(cfg), "--powers", powers, "--out-dir", str(tmp_path)]) == 2
        assert "bad --powers list" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("powers", ["nan", "2,inf", "1,-inf", "1e999"])
    def test_non_finite_power_is_a_config_error(self, tmp_path, capsys, powers):
        cfg = write_config(tmp_path)
        assert main(["scan", str(cfg), "--powers", powers, "--out-dir", str(tmp_path)]) == 2
        assert "not finite" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_run_power_scan_rejects_non_finite_power(self, tmp_path, bad):
        cfg = parse_config(TINY)
        with pytest.raises(ValueError, match="finite"):
            run_power_scan(cfg, [2.0, bad], tmp_path)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "powers, message", [([2.0, -1.0], "power must be >= 0"), ([], "at least one power")]
    )
    def test_run_power_scan_rejects_negative_or_no_power(self, tmp_path, powers, message):
        with pytest.raises(ValueError, match=message):
            run_power_scan(parse_config(TINY), powers, tmp_path)
        assert list(tmp_path.iterdir()) == []

    @staticmethod
    def orders_scan(tmp_path, v_peak):
        text = f"[velocity]\nv_peak = {v_peak}\n[quadrature]\nvelocity_nodes = 4\n"
        text += "vertical_nodes = 4\nsource_nodes = 4\n[run]\nmode = orders\n"
        rows = run_power_scan(parse_config(text), [0.0, 5.0], tmp_path)
        lines = (tmp_path / "run_scan_summary.csv").read_text().splitlines()
        summary = json.loads((tmp_path / "run_p01_summary.json").read_text())
        return rows, [line.split(",")[3:] for line in lines[1:]], summary

    def test_slot_narrower_than_the_detector_reads_nan(self, tmp_path):
        # at 400 m/s the 3.2 um order slot is narrower than the 6 um detector
        rows, columns, summary = self.orders_scan(tmp_path, 400)
        assert summary["order_efficiencies"] == {} and summary["visibility"] is None
        assert columns == [["nan"] * 4] * 2
        assert all(row[key] is None for row in rows for key in ("eff_0", "eff_1", "visibility"))

    def test_order_pair_with_one_side_missing_reads_nan(self, tmp_path):
        # at 20 m/s the window holds the orders -1, 0 and 1 only
        rows, columns, summary = self.orders_scan(tmp_path, 20)
        assert sorted(summary["order_efficiencies"]) == ["-1", "0", "1"]
        assert [row["eff_2"] for row in rows] == [None, None]
        assert [column[2] for column in columns] == ["nan", "nan"]
        assert rows[1]["eff_1"] == pytest.approx(2 * summary["order_efficiencies"]["1"])



class TestScanMatchesSimulate:
    """Every per-power file of a scan equals that of ``run_simulate`` at the power."""

    POWERS = [5.0, 0.0, 9.5]

    def sub_config(self, cfg, index, power):
        return replace(
            cfg,
            beam=replace(cfg.beam, power=power),
            run=replace(cfg.run, prefix=f"{cfg.run.prefix}_p{index:02d}"),
        )

    def simulate_each(self, cfg, powers, out):
        """``run_simulate`` per power until one raises; returns that index or None."""
        for index, power in enumerate(powers):
            try:
                run_simulate(self.sub_config(cfg, index, power), out)
            except ConvergenceError:
                return index
        return None

    def assert_same_power_files(self, scan_dir, simulate_dir):
        names = sorted(path.name for path in simulate_dir.iterdir())
        assert names
        assert sorted(p.name for p in scan_dir.iterdir() if "_scan" not in p.name) == names
        for name in names:
            assert (scan_dir / name).read_bytes() == (simulate_dir / name).read_bytes(), name

    @pytest.mark.parametrize(
        "mode, workers", [("wave", 1), ("wave", 2), ("orders", 1), ("orders", 2)]
    )
    def test_byte_identical_per_power_outputs(self, tmp_path, mode, workers):
        cfg = parse_config(TINY + f"[run]\nmode = {mode}\nworkers = {workers}\n")
        rows = run_power_scan(cfg, self.POWERS, tmp_path / "scan")
        assert self.simulate_each(cfg, self.POWERS, tmp_path / "simulate") is None
        self.assert_same_power_files(tmp_path / "scan", tmp_path / "simulate")
        assert [row["power_w"] for row in rows] == self.POWERS

    @pytest.mark.parametrize("mode", ["wave", "orders"])
    def test_scan_table_rows_are_the_pattern_rows(self, tmp_path, mode):
        # each row of the combined table is the power, then that power's
        # pattern row, byte for byte
        cfg = parse_config(TINY + f"[run]\nmode = {mode}\n")
        run_power_scan(cfg, self.POWERS, tmp_path)
        expected = [b"power_w,position_um,intensity"]
        for index, power in enumerate(self.POWERS):
            rows = (tmp_path / f"run_p{index:02d}_pattern.csv").read_bytes().splitlines()[1:]
            assert len(rows) == 61
            expected += [f"{power:.6f},".encode() + row for row in rows]
        assert (tmp_path / "run_scan.csv").read_bytes() == b"\n".join(expected) + b"\n"

    @pytest.mark.parametrize("mode", ["wave", "orders"])
    def test_convergence_failure_at_the_same_power(self, tmp_path, mode):
        # 0 W passes the check, 5 W does not: the scan stops after writing
        # the 5 W files, as the per-power simulate runs do
        text = TINY.replace("source_nodes = 2", "source_nodes = 4")
        cfg = parse_config(text + f"[run]\nmode = {mode}\nconvergence_check = true\n")
        powers = [0.0, 5.0, 9.5]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert self.simulate_each(cfg, powers, tmp_path / "simulate") == 1
            with pytest.raises(ConvergenceError):
                run_power_scan(cfg, powers, tmp_path / "scan")
        self.assert_same_power_files(tmp_path / "scan", tmp_path / "simulate")
        assert not (tmp_path / "scan" / "run_p02_pattern.csv").exists()
        assert not (tmp_path / "scan" / "run_scan.csv").exists()


class TestCompare:
    def run_once(self, tmp_path, name, extra=""):
        cfg = write_config(tmp_path, TINY + extra, f"{name}.cfg")
        out = tmp_path / name
        out.mkdir()
        assert main(["simulate", str(cfg), "--out-dir", str(out)]) == 0
        return out / "run_pattern.csv"

    def test_self_comparison(self, tmp_path, capsys):
        csv = self.run_once(tmp_path, "a")
        assert main(["compare", str(csv), str(csv)]) == 0
        out = capsys.readouterr().out
        assert "shift = 0.000 um" in out
        assert "nrmse = 0.000000" in out

    def test_laser_on_vs_off_differ(self, tmp_path, capsys):
        on = self.run_once(tmp_path, "on")
        off = self.run_once(tmp_path, "off", "\n[beam]\npower_w = 0\n")
        assert main(["compare", str(on), str(off)]) == 0
        nrmse = float(capsys.readouterr().out.split("nrmse = ")[1])
        assert nrmse > 0.1

    def test_missing_file(self, tmp_path, capsys):
        assert main(["compare", str(tmp_path / "a.csv"), str(tmp_path / "b.csv")]) == 1

    def test_malformed_csv(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n1,2\n", encoding="utf-8")
        assert main(["compare", str(bad), str(bad)]) == 1
        assert "expected header" in capsys.readouterr().err


class TestConstants:
    def test_prints_constants_and_catalog(self, capsys):
        assert main(["constants"]) == 0
        out = capsys.readouterr().out
        assert "hbar = 1.054571817" in out
        assert "C60" in out and "C70" in out
        assert "sigma" in out


# The directory that holds the imported package (``src`` in a checkout) and
# the checkout's pyproject.toml, found from the package itself so that the
# subprocess tests check this checkout whatever the cwd or other installs.
IMPORT_ROOT = Path(lightgrating.__file__).resolve().parent.parent
PYPROJECT = IMPORT_ROOT.parent / "pyproject.toml"
ENTRY_POINT = re.compile(r"^(\w+(?:\.\w+)*):(\w+(?:\.\w+)*)$")


def subprocess_env(bin_dir=None):
    """Environment whose ``python`` imports the package from IMPORT_ROOT."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(IMPORT_ROOT), env.get("PYTHONPATH")])
    )
    if bin_dir is not None:
        env["PATH"] = os.pathsep.join(filter(None, [str(bin_dir), env.get("PATH")]))
    return env


def read_pyproject():
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    assert PYPROJECT.is_file(), f"no pyproject.toml next to {IMPORT_ROOT}"
    with PYPROJECT.open("rb") as fh:
        return tomllib.load(fh)


def write_console_script(bin_dir, name, entry_point):
    """Write the wrapper an installer generates for a console-script entry."""
    match = ENTRY_POINT.match(entry_point)
    assert match, f"entry point {entry_point!r} is not of the form module:attr"
    module, attr = match.groups()
    script = bin_dir / name
    script.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {attr.split('.')[0]}\n"
        "if __name__ == '__main__':\n"
        f"    sys.exit({attr}())\n",
        encoding="utf-8",
    )
    script.chmod(0o755)


class TestSubprocessEntryPoints:
    def test_python_dash_m(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "lightgrating", "constants"],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env=subprocess_env(),
        )
        assert result.returncode == 0
        assert "species catalog" in result.stdout

    def test_console_script(self, tmp_path):
        # Runs the script by name from a wrapper built from [project.scripts],
        # as pip would write it, rather than whatever `lightgrating` is on
        # PATH: that may be missing or belong to another checkout.
        project = read_pyproject()["project"]
        scripts = project.get("scripts", {})
        assert "lightgrating" in scripts, "[project.scripts] has no lightgrating"
        bin_dir = tmp_path / "bin"
        bin_dir.mkdir()
        write_console_script(bin_dir, "lightgrating", scripts["lightgrating"])

        result = subprocess.run(
            ["lightgrating", "--version"],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env=subprocess_env(bin_dir),
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == f"lightgrating {project['version']}"
