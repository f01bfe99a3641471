"""Host-speed probe: puts the benchmark's times on a common scale.

The benchmark runs on a shared 2-core machine whose speed drifts: a fixed
pure-Python task takes from about 0.6 to 1.7 times its fast-mode time,
in windows of a fraction of a second up to minutes, and every stage of
the program slows together (see ``steadiness`` in catalogue.json).  Raw
wall times of two sets of runs of the same code then differ by more than
any bound a regression gate can use.

A session therefore times a fixed task of the benchmark's own at several
points outside its timed windows, and the end-to-end times are reported
as ``wall time * NOMINAL_S / probe time``: seconds on a host that runs
the task in ``NOMINAL_S``.  A change to the program cannot move the
probe: it calls nothing of the program, and the cyclic garbage collector
is off while it runs, so the size of the program's heap does not leak in.
Raw wall times are printed beside the scaled ones.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import List

#: Probe time the scaled figures refer to: about the median probe time
#: of the machine the bounds were set on.
NOMINAL_S = 0.0035
#: Samples per probe point and the pause between them, which spreads a
#: point over about 0.08 s of the host's fluctuations.
SAMPLES = 12
PAUSE_S = 0.004

_KEYS = [f"host-{i}" for i in range(512)]


def _task() -> List[str]:
    """Dict, string and sort work, like the program's crawl and serving."""
    counts: dict = {}
    for _ in range(40):
        for key in _KEYS:
            counts[key] = counts.get(key, 0) + len(key.upper())
    return sorted(counts, key=counts.__getitem__)


def probe() -> List[float]:
    """``SAMPLES`` timings of the task, in seconds."""
    out = []
    for _ in range(SAMPLES):
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            _task()
            out.append(time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()
        time.sleep(PAUSE_S)
    return out


def scale(points: List[List[float]]) -> float:
    """Factor from wall seconds to nominal-host seconds, from probe points
    spread over a run.  Each point's median drops preemption spikes; the
    mean over points follows the share of time the host spent in each of
    its speed modes, where a median would jump from one mode to the other."""
    return NOMINAL_S / statistics.mean(statistics.median(p) for p in points)
