"""The run's files: the atomic write path and the orders table's text."""

import os
import stat
import sys
import threading
from dataclasses import replace

import pytest

from lightgrating.config import SimulationConfig
from lightgrating.grating import GratingBeam, compute_phi
from lightgrating.orders import incoherent_order_intensities
from lightgrating.runner import _atomic_write, _orders_table, run_orders, run_power_scan
from lightgrating.species import C70
from oracles import orders_table_by_rows


def temporary_name(path):
    """The temporary file ``_atomic_write`` opens for ``path`` on this thread."""
    return path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")


def leftovers(directory):
    return sorted(p.name for p in directory.rglob("*.tmp"))


class TestAtomicWrite:
    def test_writes_the_text_as_utf8_bytes(self, tmp_path):
        text = "position_um,intensity\n-1.000000,0.5\nλ = 514.5 nm\n"
        _atomic_write(tmp_path / "a.csv", text)
        assert (tmp_path / "a.csv").read_bytes() == text.encode("utf-8")
        assert leftovers(tmp_path) == []

    def test_replaces_an_existing_target(self, tmp_path):
        target = tmp_path / "a.csv"
        target.write_text("old and longer than the new text\n")
        _atomic_write(target, "new\n")
        assert target.read_text() == "new\n"

    def test_empty_text(self, tmp_path):
        _atomic_write(tmp_path / "empty.csv", "")
        assert (tmp_path / "empty.csv").read_bytes() == b""

    def test_files_have_mode_0600(self, tmp_path):
        _atomic_write(tmp_path / "a.csv", "x\n")
        assert stat.S_IMODE((tmp_path / "a.csv").stat().st_mode) == 0o600

    def test_missing_directories_are_created(self, tmp_path):
        target = tmp_path / "one" / "two" / "a.csv"
        _atomic_write(target, "x\n")
        assert target.read_text() == "x\n"
        assert leftovers(tmp_path) == []

    def test_failed_rename_keeps_the_old_target(self, tmp_path, monkeypatch):
        target = tmp_path / "a.csv"
        target.write_text("old\n")

        def refuse(src, dst):
            raise PermissionError("rename refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(PermissionError, match="rename refused"):
            _atomic_write(target, "new\n")
        assert target.read_text() == "old\n"
        assert leftovers(tmp_path) == []

    def test_failed_write_closes_and_removes_the_temporary_file(self, tmp_path, monkeypatch):
        opened = []
        real_open = os.open

        def recording_open(*args, **kwargs):
            opened.append(real_open(*args, **kwargs))
            return opened[-1]

        def full(fd, data):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "open", recording_open)
        monkeypatch.setattr(os, "write", full)
        with pytest.raises(OSError, match="No space left"):
            _atomic_write(tmp_path / "a.csv", "x\n")
        monkeypatch.undo()
        assert len(opened) == 1
        with pytest.raises(OSError):
            os.fstat(opened[0])  # closed
        assert not (tmp_path / "a.csv").exists()
        assert leftovers(tmp_path) == []

    def test_short_writes_are_resumed(self, tmp_path, monkeypatch):
        real_write = os.write
        monkeypatch.setattr(os, "write", lambda fd, data: real_write(fd, data[:3]))
        _atomic_write(tmp_path / "a.csv", "0123456789\n")
        monkeypatch.undo()
        assert (tmp_path / "a.csv").read_text() == "0123456789\n"

    def test_unencodable_text_creates_no_file(self, tmp_path):
        with pytest.raises(UnicodeEncodeError):
            _atomic_write(tmp_path / "a.csv", "\ud800")
        assert list(tmp_path.iterdir()) == []

    def test_stale_temporary_file_is_replaced(self, tmp_path):
        target = tmp_path / "a.csv"
        stale = temporary_name(target)
        stale.write_text("left by a killed run\n")
        _atomic_write(target, "new\n")
        assert target.read_text() == "new\n"
        assert stat.S_IMODE(target.stat().st_mode) == 0o600
        assert leftovers(tmp_path) == []

    def test_stale_hard_link_is_not_truncated(self, tmp_path):
        other = tmp_path / "other.txt"
        other.write_text("another file's text\n")
        target = tmp_path / "a.csv"
        os.link(other, temporary_name(target))
        _atomic_write(target, "new\n")
        assert other.read_text() == "another file's text\n"
        assert target.read_text() == "new\n"

    def test_planted_symlink_is_not_followed(self, tmp_path):
        victim = tmp_path / "victim.txt"
        victim.write_text("must not change\n")
        target = tmp_path / "a.csv"
        temporary_name(target).symlink_to(victim)
        _atomic_write(target, "new\n")
        assert victim.read_text() == "must not change\n"
        assert target.read_text() == "new\n"
        assert not target.is_symlink()
        assert leftovers(tmp_path) == []

    def test_threads_writing_to_one_directory_do_not_collide(self, tmp_path):
        names = [f"{letter}.csv" for letter in "abcd"]  # more threads than the CI's two cores
        start = threading.Barrier(len(names))
        errors = []

        def write(name):
            try:
                start.wait(timeout=10)
                for i in range(100):
                    _atomic_write(tmp_path / name, f"{name} {i}\n" * 50)
            except BaseException as exc:  # reported below, from the main thread
                errors.append(exc)

        threads = [threading.Thread(target=write, args=(name,)) for name in names]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        for name in names:
            assert (tmp_path / name).read_text() == f"{name} 99\n" * 50
        assert leftovers(tmp_path) == []

    def test_runs_leave_no_temporary_files(self, tmp_path):
        cfg = SimulationConfig()
        cfg = replace(cfg, run=replace(cfg.run, mode="orders"))
        run_power_scan(cfg, [0.0, 5.0], tmp_path)
        run_orders(cfg, tmp_path)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [
            "run_orders.csv",
            "run_p00_pattern.csv",
            "run_p00_summary.json",
            "run_p01_pattern.csv",
            "run_p01_summary.json",
            "run_scan.csv",
            "run_scan_summary.csv",
        ]
        assert all(stat.S_IMODE((tmp_path / n).stat().st_mode) == 0o600 for n in names)


class TestOrdersTable:
    """One format over all rows gives the text of one format per row."""

    def spectrum(self, cfg, m_max=None):
        phi = compute_phi(cfg.species, cfg.beam, cfg.velocity.v_peak)
        m_max = cfg.numerics.m_max if m_max is None else m_max
        return incoherent_order_intensities(phi, m_max, cfg.numerics.tail_eps)

    def test_zero_order_only(self):
        spectrum = self.spectrum(SimulationConfig(), m_max=0)
        assert spectrum.orders.tolist() == [0]
        assert _orders_table(spectrum) == orders_table_by_rows(spectrum)

    def test_default_settings(self):
        spectrum = self.spectrum(SimulationConfig())
        assert _orders_table(spectrum) == orders_table_by_rows(spectrum)

    def test_c70_at_1_kw_with_hundreds_of_photon_columns(self):
        cfg = replace(SimulationConfig(), species=C70, beam=GratingBeam(power=1000.0))
        spectrum = self.spectrum(cfg)
        assert len(spectrum.per_channel) > 200
        assert _orders_table(spectrum) == orders_table_by_rows(spectrum)

    def test_run_orders_writes_the_table(self, tmp_path):
        cfg = SimulationConfig()
        run_orders(cfg, tmp_path)
        text = (tmp_path / "run_orders.csv").read_text(encoding="utf-8")
        assert text == orders_table_by_rows(self.spectrum(cfg))
