"""Command-line interface.

Subcommands: simulate, orders, scan, compare, constants.  Exit codes:
0 success, 2 configuration error, 3 convergence-check failure, 1 anything
else.  The output directory resolves as: --out-dir flag, then the
LIGHTGRATING_OUTDIR environment variable, then the config's run.out_dir.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .config import ConfigError, _parse_float, load_config_file
from .grating import GratingBeam
from .runner import ConvergenceError, run_compare, run_orders, run_power_scan, run_simulate
from .species import (
    AMU,
    C_LIGHT,
    CATALOG,
    EPS0,
    H,
    HBAR,
    absorption_cross_section,
    de_broglie_wavelength,
)

ENV_OUT_DIR = "LIGHTGRATING_OUTDIR"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lightgrating",
        description="Diffraction of polarizable molecules at a standing-light-wave grating.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser("simulate", help="run a full simulation from a config file")
    simulate.add_argument("config", help="path to the INI configuration")
    simulate.add_argument("--out-dir", default=None, help="output directory override")

    orders = sub.add_parser("orders", help="diffraction-order spectrum only (no propagation)")
    orders.add_argument("config")
    orders.add_argument("--out-dir", default=None)

    scan = sub.add_parser("scan", help="repeat the simulation over a list of laser powers")
    scan.add_argument("config")
    scan.add_argument(
        "--powers",
        required=True,
        help="comma-separated powers in watts, e.g. 0,1.4,9.5",
    )
    scan.add_argument("--out-dir", default=None)

    compare = sub.add_parser("compare", help="align two pattern CSVs and report the mismatch")
    compare.add_argument("pattern_a")
    compare.add_argument("pattern_b")

    sub.add_parser("constants", help="print physical constants and the species catalog")
    return parser


def _out_dir(args: argparse.Namespace) -> str | None:
    if getattr(args, "out_dir", None):
        return args.out_dir
    return os.environ.get(ENV_OUT_DIR) or None


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = load_config_file(args.config)
    pattern, summary = run_simulate(cfg, _out_dir(args))
    print(f"pattern: {len(pattern.positions)} points, mode={summary['mode']}")
    print(
        f"phi = {summary['phi_re']:.4f} + {summary['phi_im']:.4f}i, "
        f"mean absorbed photons = {summary['mean_absorbed_photons']:.4f}"
    )
    print(f"wrote {cfg.run.prefix}_pattern.csv and {cfg.run.prefix}_summary.json")
    return 0


def _cmd_orders(args: argparse.Namespace) -> int:
    cfg = load_config_file(args.config)
    report = run_orders(cfg, _out_dir(args))
    print(
        f"phi = {report['phi_re']:.4f} + {report['phi_im']:.4f}i; "
        f"zero order {report['zero_order']:.4f}; "
        f"odd-slot weight {report['odd_total']:.4f}"
    )
    print(f"wrote {cfg.run.prefix}_orders.csv")
    return 0


def _cmd_scan(args: argparse.Namespace) -> int:
    cfg = load_config_file(args.config)
    try:
        # the rule of a config value: a number, and finite
        powers = [_parse_float(p) for p in args.powers.split(",") if p.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"bad --powers list {args.powers!r}: {exc}")
    rows = run_power_scan(cfg, powers, _out_dir(args))
    for row in rows:
        eff0 = "-" if row["eff_0"] is None else f"{row['eff_0']:.4f}"
        print(f"P = {row['power_w']:6.2f} W  phi_re = {row['phi_re']:.4f}  eff_0 = {eff0}")
    print(f"wrote {cfg.run.prefix}_scan.csv and {cfg.run.prefix}_scan_summary.csv")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    report = run_compare(args.pattern_a, args.pattern_b)
    print(f"shift = {report['shift_um']:.3f} um, nrmse = {report['nrmse']:.6f}")
    return 0


def _cmd_constants(_: argparse.Namespace) -> int:
    print(f"lightgrating {__version__}")
    print(f"hbar = {HBAR:.12e} J s")
    print(f"h    = {H:.12e} J s")
    print(f"c    = {C_LIGHT:.12e} m/s")
    print(f"eps0 = {EPS0:.12e} F/m")
    print(f"amu  = {AMU:.12e} kg")
    beam = GratingBeam()
    print(f"\nspecies catalog (sigma at {beam.wavelength * 1e9:.1f} nm, lambda_dB at 120 m/s):")
    for name in sorted(CATALOG):
        species = CATALOG[name]
        pol = species.polarizability
        sigma = absorption_cross_section(species, beam.k_laser)
        lam = de_broglie_wavelength(species, 120.0)
        print(
            f"  {name}: {species.mass_amu:.0f} amu, alpha = ({pol.real_volume:g} + "
            f"{pol.imag_volume:g}i) A^3, sigma = {sigma * 1e4:.3e} cm^2, "
            f"lambda_dB = {lam * 1e12:.3f} pm"
        )
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "orders": _cmd_orders,
    "scan": _cmd_scan,
    "compare": _cmd_compare,
    "constants": _cmd_constants,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
