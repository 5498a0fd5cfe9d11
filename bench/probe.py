"""Host-speed probe: a fixed pure-Python loop timed alongside every measurement.

The machines this benchmark runs on are shared, and their speed for the same
work drifts in steps of up to 1.7x that last tens of seconds, longer than a
run. Raw wall-clock medians of consecutive runs then spread by 15-40%.

Each timing is therefore reported in reference-core seconds: the measured
time divided by the probe's time measured next to it, times the probe's time
on an uncontended core (``PROBE_REFERENCE_S``). The probe shares no code
with spincavity, so a faster or slower program moves the ratio and never the
probe. Raw wall-clock figures are reported next to the scaled ones.

Set-up time is mostly process start and imports, which the loop tracks
poorly, so it is scaled the same way by a fresh interpreter that imports
numpy, the package's one dependency, started next to each sample.
"""

from __future__ import annotations

import subprocess
import sys
from time import perf_counter

#: Median probe time on an uncontended core of the 2-vCPU VM (CPython 3.11)
#: where the benchmark was defined.
PROBE_REFERENCE_S = 3.0e-4
#: Median ``startup_seconds()`` on the same machine.
STARTUP_REFERENCE_S = 0.12


def _loop() -> float:
    # Dict updates and float arithmetic, like the simulator's inner loops.
    # One dict is the only container it creates, so it almost never sets
    # off the cyclic garbage collector.
    table = dict.fromkeys(range(64), 0.0)
    total = 0.0
    for i in range(2400):
        key = i & 63
        table[key] += i * 0.5
        total += table[key]
    return total


def probe_seconds() -> float:
    start = perf_counter()
    _loop()
    return perf_counter() - start


def bracketed(probes: list[float], index: int) -> float:
    """Host speed during operation ``index``: the mean of the probes just before and after it.

    ``probes[0]`` precedes the first operation and ``probes[i + 1]`` follows
    operation ``i``.
    """
    return (probes[index] + probes[index + 1]) / 2.0


def startup_seconds(timeout: float) -> float:
    """Wall time of a fresh interpreter that imports numpy and exits."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=timeout)
    return perf_counter() - start
