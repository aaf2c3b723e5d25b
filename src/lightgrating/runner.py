"""Simulation orchestration and file output.

Writes are atomic and deterministic: fixed-decimal CSV and sorted JSON
keys.  Each file is written whole to a temporary file beside it,
``.<name>.<pid>.<thread id>.tmp``, opened exclusively (never following a
symlink) at mode 0600, and renamed onto the target; a failed write
removes its temporary file.  The pattern CSV holds only
``position_um,intensity``; the config digest, which traces a pattern back
to the exact configuration that produced it, is in the summary JSON and
in ``pattern.metadata``.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import replace
from itertools import chain
from pathlib import Path

import numpy as np

from .beamline import (
    DiffractionPattern,
    compare_patterns,
    ensemble_pattern,
    ensemble_patterns,
    order_slot_spacing,
    pattern_metrics,
)
from .config import SimulationConfig, config_digest
from .distributions import vertical_phi_scales
from .grating import compute_phi, raman_nath_diagnostic, truncation_order
from .orders import OrderSpectrum, absorbed_fractions, incoherent_order_intensities

PATTERN_HEADER = "position_um,intensity"


class ConvergenceError(RuntimeError):
    """Quadrature convergence check failed (doubling moved the pattern > 1%)."""


# O_NOFOLLOW where the platform has it: a symlink planted at the name fails the open
_TEMPORARY = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_NOFOLLOW", 0)


def _open_temporary(tmp: Path) -> int:
    """A new file at ``tmp``, mode 0600; its directory is made if missing.

    A file or symlink already there is left by a killed process whose pid
    this one reuses: it is unlinked, never followed or truncated, and the
    open retried once.
    """
    try:
        return os.open(tmp, _TEMPORARY, 0o600)
    except FileNotFoundError:
        tmp.parent.mkdir(parents=True, exist_ok=True)
    except FileExistsError:
        os.unlink(tmp)
    return os.open(tmp, _TEMPORARY, 0o600)


def _atomic_write(path: Path, text: str) -> None:
    data = text.encode("utf-8")
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    fd = _open_temporary(tmp)
    try:
        try:
            written = 0
            while written < len(data):
                written += os.write(fd, data[written:])
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise


def _pattern_rows(pattern: DiffractionPattern) -> list[str]:
    """The data rows of the pattern CSV, one ``position_um,intensity`` per sample."""
    # Python floats format faster than NumPy scalars, to the same text
    return [
        f"{x * 1e6:.6f},{value:.20f}"
        for x, value in zip(pattern.positions.tolist(), pattern.intensity.tolist())
    ]


def _write_pattern_rows(path: Path, rows: list[str]) -> None:
    _atomic_write(path, "\n".join([PATTERN_HEADER, *rows]) + "\n")


def write_pattern_csv(path: str | Path, pattern: DiffractionPattern) -> None:
    """Fixed-decimal two-column CSV (positions in um), LF line endings."""
    _write_pattern_rows(Path(path), _pattern_rows(pattern))


def read_pattern_csv(path: str | Path) -> DiffractionPattern:
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    # blank lines are skipped; errors name the line of the file
    lines = [(n, line) for n, line in enumerate(text.splitlines(), start=1) if line.strip()]
    if not lines or lines[0][1].strip() != PATTERN_HEADER:
        raise ValueError(f"{path}: expected header {PATTERN_HEADER!r}")
    positions = []
    intensity = []
    for lineno, line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected two comma-separated columns")
        try:
            positions.append(float(parts[0]) * 1e-6)
            intensity.append(float(parts[1]))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
    if len(positions) < 2:
        raise ValueError(f"{path}: pattern needs at least two rows")
    return DiffractionPattern(
        positions=np.asarray(positions),
        intensity=np.asarray(intensity),
        metadata={"source": str(path)},
    )


def summarize(cfg: SimulationConfig, pattern: DiffractionPattern) -> dict:
    """Physics summary of a run: phases, absorption budget, efficiencies."""
    phi = compute_phi(cfg.species, cfg.beam, cfg.velocity.v_peak)
    scales, weights = vertical_phi_scales(cfg.vertical, cfg.quadrature.vertical_nodes)
    n_max = truncation_order(phi, cfg.numerics.tail_eps)
    fractions = absorbed_fractions(phi, n_max, scales, weights).tolist()
    total_fraction = float(sum(fractions))
    if not all(0.0 <= f <= 1.0 for f in fractions) or total_fraction > 1.0 + 1e-9:
        raise RuntimeError("absorbed fractions violate probability bounds")
    check = raman_nath_diagnostic(cfg.species, cfg.beam, cfg.velocity.v_peak, phi)
    slot = order_slot_spacing(cfg.species, cfg.velocity.v_peak, cfg.beam, cfg.geometry)
    try:
        metrics = pattern_metrics(pattern, slot)
        efficiencies = {
            str(m): metrics.efficiencies[m]
            for m in sorted(metrics.efficiencies)
            if abs(m) <= 6
        }
        visibility = metrics.visibility
    except ValueError:
        efficiencies = {}
        visibility = None
    summary = {
        "config_digest": config_digest(cfg),
        "species": cfg.species.name,
        "mode": cfg.run.mode,
        "normalization": cfg.run.normalization,
        "power_w": cfg.beam.power,
        "v_peak": cfg.velocity.v_peak,
        "phi_re": phi.re,
        "phi_im": phi.im,
        "mean_absorbed_photons": 2.0 * phi.im,
        "truncation_order": n_max,
        "absorbed_fractions": fractions,
        "order_window_um": slot * 1e6,
        "order_efficiencies": efficiencies,
        "visibility": visibility,
        "raman_nath_ratio": check.ratio,
        "raman_nath_warn": check.warn,
        "total_probability": pattern.metadata.get("total_probability"),
        "scan_coverage": pattern.metadata.get("scan_coverage"),
        "convergence": pattern.metadata.get("convergence"),
        # effective grating channels per velocity and the largest
        # probability they drop at any grating point
        "channels_per_velocity": pattern.metadata.get("channels_per_velocity"),
        "dropped_probability": pattern.metadata.get("dropped_probability"),
    }
    return summary


def _resolve_out_dir(cfg: SimulationConfig, out_dir: str | Path | None) -> Path:
    return Path(out_dir) if out_dir is not None else Path(cfg.run.out_dir)


def run_simulate(
    cfg: SimulationConfig, out_dir: str | Path | None = None
) -> tuple[DiffractionPattern, dict]:
    """Simulate one configuration; write pattern CSV and summary JSON.

    Raises :class:`ConvergenceError` after writing the outputs when the
    optional convergence check fails, so the caller can report a distinct
    exit status while the artifacts remain inspectable.
    """
    pattern = ensemble_pattern(cfg)
    out = _resolve_out_dir(cfg, out_dir)
    return pattern, _write_run(cfg, pattern, out, _pattern_rows(pattern))


def _write_run(
    cfg: SimulationConfig, pattern: DiffractionPattern, out: Path, rows: list[str]
) -> dict:
    """Stamp, summarize and write the pattern of ``cfg``; return its summary.

    ``rows`` are the pattern's ``_pattern_rows``.  Raises
    :class:`ConvergenceError` after writing when the pattern's convergence
    check failed.
    """
    summary = summarize(cfg, pattern)
    pattern.metadata["config_digest"] = summary["config_digest"]
    # strict JSON: a NaN or an infinity is a ValueError before any file is written
    text = json.dumps(summary, indent=2, sort_keys=True, allow_nan=False) + "\n"
    _write_pattern_rows(out / f"{cfg.run.prefix}_pattern.csv", rows)
    _atomic_write(out / f"{cfg.run.prefix}_summary.json", text)
    convergence = pattern.metadata.get("convergence")
    if convergence is not None and not convergence["converged"]:
        worst = max(convergence["rms_change"].values())
        raise ConvergenceError(
            f"quadrature doubling changes the pattern by {worst:.2%} RMS (> 1%)"
        )
    return summary


def run_orders(cfg: SimulationConfig, out_dir: str | Path | None = None) -> dict:
    """Diffraction-order spectrum only (no propagation); writes one CSV.

    The spectrum is evaluated at the peak velocity on the beam axis;
    vertical averaging enters the full patterns and the absorbed-fraction
    summary, not this quick-look table.
    """
    out = _resolve_out_dir(cfg, out_dir)
    phi = compute_phi(cfg.species, cfg.beam, cfg.velocity.v_peak)
    spectrum = incoherent_order_intensities(phi, cfg.numerics.m_max, cfg.numerics.tail_eps)
    _atomic_write(out / f"{cfg.run.prefix}_orders.csv", _orders_table(spectrum))
    return {
        "config_digest": config_digest(cfg),
        "phi_re": phi.re,
        "phi_im": phi.im,
        "total": spectrum.total,
        "even_total": spectrum.parity_total(0),
        "odd_total": spectrum.parity_total(1),
        "zero_order": spectrum.intensity(0),
    }


def _orders_table(spectrum: OrderSpectrum) -> str:
    """The text of ``run_orders``' CSV: per order, its intensity and each photon number's."""
    assert spectrum.per_channel is not None
    photon_numbers = sorted(spectrum.per_channel)
    header = "m,intensity," + ",".join(f"n{n}" for n in photon_numbers)
    orders = spectrum.orders.tolist()
    columns = [spectrum.per_channel[n].tolist() for n in photon_numbers]
    rows = zip(orders, spectrum.intensities.tolist(), *columns)
    # one format over every row
    template = "\n".join(["%d" + ",%.20f" * (1 + len(columns))] * len(orders))
    return f"{header}\n{template % tuple(chain.from_iterable(rows))}\n"


def run_power_scan(
    cfg: SimulationConfig, powers: list[float], out_dir: str | Path | None = None
) -> list[dict]:
    """One simulation per laser power plus combined scan tables.

    The patterns come from one ``ensemble_patterns`` call, and each power
    writes the files ``run_simulate`` writes for its configuration, with
    the prefix ``<prefix>_pNN``.  A failed convergence check raises
    :class:`ConvergenceError` after that power's files are written.  A
    power that ``GratingBeam`` refuses raises its ValueError before any
    file is written.
    """
    if not powers:
        raise ValueError("power scan needs at least one power")
    out = _resolve_out_dir(cfg, out_dir)
    powers = [float(power) for power in powers]
    patterns = ensemble_patterns(cfg, powers)
    combined = ["power_w,position_um,intensity"]
    rows = []
    for index, (power, pattern) in enumerate(zip(powers, patterns)):
        sub = replace(
            cfg,
            beam=replace(cfg.beam, power=power),
            run=replace(cfg.run, prefix=f"{cfg.run.prefix}_p{index:02d}"),
        )
        pattern_rows = _pattern_rows(pattern)
        summary = _write_run(sub, pattern, out, pattern_rows)
        # each number is formatted once: the scan row is the pattern row
        # after the power
        lead = f"{power:.6f},"
        combined.extend([lead + row for row in pattern_rows])
        efficiencies = summary["order_efficiencies"]
        rows.append(
            {
                "power_w": float(power),
                "phi_re": summary["phi_re"],
                "phi_im": summary["phi_im"],
                "eff_0": efficiencies.get("0"),
                "eff_1": _pair(efficiencies, 1),
                "eff_2": _pair(efficiencies, 2),
                "visibility": summary["visibility"],
            }
        )
    _atomic_write(out / f"{cfg.run.prefix}_scan.csv", "\n".join(combined) + "\n")
    table = ["power_w,phi_re,phi_im,eff_0,eff_1,eff_2,visibility"]
    for row in rows:
        table.append(
            ",".join(
                "nan" if row[key] is None else f"{row[key]:.12f}"
                for key in ("power_w", "phi_re", "phi_im", "eff_0", "eff_1", "eff_2", "visibility")
            )
        )
    _atomic_write(out / f"{cfg.run.prefix}_scan_summary.csv", "\n".join(table) + "\n")
    return rows


def _pair(efficiencies: dict[str, float], m: int) -> float | None:
    pos, neg = efficiencies.get(str(m)), efficiencies.get(str(-m))
    if pos is None or neg is None:
        return None
    return pos + neg


def run_compare(path_a: str | Path, path_b: str | Path) -> dict:
    """Alignment shift and residual mismatch between two pattern CSVs."""
    a = read_pattern_csv(path_a)
    b = read_pattern_csv(path_b)
    shift, nrmse = compare_patterns(a, b)
    return {"shift_um": shift * 1e6, "nrmse": nrmse}
