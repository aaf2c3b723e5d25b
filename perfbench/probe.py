"""Set up the benchmark in a fresh interpreter; or run one pass there.

Usage: python3 perfbench/probe.py WORKLOAD SEED OUT_DIR [--pass]

Prints the set-up seconds: the import of ``lightgrating`` from ``src/``,
the parsing of every config of the workload and the creation of the
output directory, in reference seconds (``calibration.py``; the kernel
runs twice after the set-up, as NumPy must not be imported before it).
A fresh process is needed because an import is paid once per process.

With ``--pass`` it instead runs every operation of the workload once
after the set-up, unchecked, and prints the peak resident memory of the
process in MB: what one run of the workload holds at most.  A fresh
process gives the same peak on every run; a process that has already
run passes and checks does not, because of how its heap was reused.
The calibration kernel does not run then, as it would add to the peak.
"""

import resource
import sys
import time
from pathlib import Path

import calibration
import workloads


def main() -> None:
    workload, seed, out_dir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    ops = workloads.build(workload, seed)
    src = Path(__file__).resolve().parent.parent / "src"
    start = time.perf_counter()
    runner, configs = workloads.setup(ops, src, out_dir)
    setup = time.perf_counter() - start
    if "--pass" not in sys.argv[4:]:
        print(setup * calibration.scale(calibration.kernel_seconds(), calibration.kernel_seconds()))
    else:
        for op in ops:
            try:
                workloads.execute(op, runner, configs, out_dir)
            except Exception:  # the timed passes count and report failures
                pass
        print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6)


if __name__ == "__main__":
    main()
