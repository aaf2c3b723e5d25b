#!/usr/bin/env python3
"""Write ``refs.npz``: the library's outputs for every input a workload can pick.

Usage: python3 perfbench/make_refs.py

The committed file was made at commit 5ae74c4.  Making it again at a later
commit would hide any change in the outputs, so it is only remade when a
workload gains inputs, and then at that commit.  Each reference also
stores ``dropped/<key>``, the largest Poisson mass that the photon cap of
that commit dropped for the input; ``workloads.check`` gates on it.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import numpy as np

import workloads
from tracer import poisson_tail

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import lightgrating  # noqa: E402
from lightgrating import runner  # noqa: E402
from lightgrating.distributions import velocity_quadrature, vertical_phi_scales  # noqa: E402


def dropped(cfg, ensemble: bool = True) -> float:
    """Largest Poisson mass beyond the truncation order the runs used."""
    points = [(cfg.velocity.v_peak, 1.0)]
    if ensemble:
        velocities, _ = velocity_quadrature(cfg.velocity, cfg.quadrature.velocity_nodes)
        scales, _ = vertical_phi_scales(cfg.vertical, cfg.quadrature.vertical_nodes)
        points += [(float(v), float(s)) for v in velocities for s in scales]
    worst = 0.0
    for velocity, scale in points:
        phi = lightgrating.compute_phi(cfg.species, cfg.beam, velocity).scaled(scale)
        n = lightgrating.truncation_order(phi, cfg.numerics.tail_eps)
        worst = max(worst, poisson_tail(4.0 * phi.im, n, lightgrating.poisson_weight))
    return worst


def main() -> None:
    refs: dict[str, np.ndarray] = {}

    def store_pattern(key, positions, intensity, cfg):
        # Every pattern is on the one scan grid of the default detector.
        grid = refs.setdefault("x", np.asarray(positions, dtype=np.float64))
        assert np.array_equal(grid, positions), key
        refs[key + "/intensity"] = np.asarray(intensity, dtype=np.float64)
        refs["dropped/" + key] = np.float64(dropped(cfg))

    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        out = Path(tmp)

        cfg = lightgrating.parse_config("")
        pattern, _ = runner.run_simulate(cfg, out)
        store_pattern("wave", pattern.positions, pattern.intensity, cfg)

        powers = list(workloads.SCAN_FIXED_POWERS) + [p for b in workloads.SCAN_POWER_BINS for p in b]
        cfg = lightgrating.parse_config(workloads.SCAN_CONFIG)
        runner.run_power_scan(cfg, powers, out)
        for index, power in enumerate(powers):
            table = np.loadtxt(out / f"{cfg.run.prefix}_p{index:02d}_pattern.csv", delimiter=",", skiprows=1)
            at_power = lightgrating.parse_config(workloads.SCAN_CONFIG + f"[beam]\npower_w = {power}\n")
            store_pattern(workloads.scan_key(power), table[:, 0] * 1e-6, table[:, 1], at_power)

        orders_powers = [0] + [p for b in workloads.ORDERS_POWER_BINS for p in b]
        for species in workloads.ORDERS_SPECIES:
            for power in orders_powers:
                keys = []
                for nodes in workloads.ORDERS_VERTICAL_NODES:
                    key = workloads.orders_key(species, power, nodes)
                    cfg = lightgrating.parse_config(workloads.orders_config(species, power, nodes))
                    try:
                        pattern, _ = runner.run_simulate(cfg, out)
                    except AssertionError:
                        # summarize rejects a zero-photon fraction rounded
                        # above 1 at 0 W for some vertical-node counts.
                        continue
                    store_pattern(key, pattern.positions, pattern.intensity, cfg)
                    keys.append(key)
                    orders = runner.run_orders(cfg, out)
                    okey = f"{species.lower()}_p{power:02d}_orders"
                    refs[okey] = np.array([orders[f] for f in workloads.ORDERS_FIELDS])
                    refs["dropped/" + okey] = np.float64(dropped(cfg, ensemble=False))
                if len(keys) == 2:
                    a, b = keys
                    compared = runner.run_compare(out / f"{a}_pattern.csv", out / f"{b}_pattern.csv")
                    ckey = f"{a}_vs_{b}"
                    refs[ckey] = np.array([compared[f] for f in workloads.COMPARE_FIELDS])
                    refs["dropped/" + ckey] = max(refs["dropped/" + a], refs["dropped/" + b])

    np.savez_compressed(HERE / "refs.npz", **refs)
    print(f"wrote {len(refs)} arrays to {HERE / 'refs.npz'}")


if __name__ == "__main__":
    main()
