"""A fixed reference kernel that measures how fast the host runs just now.

The cores of the host are shared with other tenants.  For spells of
seconds to minutes the same work takes up to twice as long, on each core
independently, and no statistic over one run removes a spell that lasts
the whole run.  Each timed interval is therefore scaled by this kernel:
it runs on the same thread right before and right after the interval,
and the interval is multiplied by ``REFERENCE_S`` over the mean of the
two kernel times.  After a long interval the kernel runs repeatedly for
a share of its length, as one run would catch the host in a passing
state that the interval averages over.  The result is in seconds on a
core that runs the kernel in ``REFERENCE_S``.  The kernel mixes
interpreted Python with a NumPy FFT because the library's time is spent
in both.

``REFERENCE_S`` is a constant, so a change of the library moves the
scaled times exactly as it moves the raw ones.  It is about the kernel's
time on an uncontended core of a 2-vCPU Intel Xeon (Sapphire Rapids)
VM, so scaled and raw seconds are alike there.

NumPy is imported on the first call and not at the top: the set-up probe
imports this module before it times the import of the library.
"""

from __future__ import annotations

import time

REFERENCE_S = 0.006

_PYTHON_STEPS = 30_000
_FFT_SIZE = 1 << 14
_FFT_REPEATS = 12
# Untimed runs before the first timed one, which plan the FFT and fill
# the caches.
_WARM_UP_RUNS = 10
_signal = None


def _kernel() -> None:
    import numpy as np

    total = 0
    for step in range(_PYTHON_STEPS):
        total += step * step
    for _ in range(_FFT_REPEATS):
        np.fft.fft(_signal)


def kernel_seconds(at_least: float = 0.0) -> float:
    """Mean wall seconds of one run of the reference kernel on this thread,
    over as many runs as take ``at_least`` seconds, and one at least."""
    global _signal
    if _signal is None:
        import numpy as np

        _signal = np.random.default_rng(0).standard_normal(_FFT_SIZE) + 0j
        for _ in range(_WARM_UP_RUNS):
            _kernel()
    start = time.perf_counter()
    runs = 0
    while True:
        _kernel()
        runs += 1
        elapsed = time.perf_counter() - start
        if elapsed >= at_least:
            return elapsed / runs


def scale(before: float, after: float) -> float:
    """Factor that turns seconds measured between two kernel runs that
    took ``before`` and ``after`` seconds into reference seconds."""
    return 2.0 * REFERENCE_S / (before + after)
