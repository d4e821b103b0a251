"""Host-speed references: fixed loops that owe nothing to sideinfo.

The small virtual machines this benchmark runs on change speed by up to 2x
over seconds to minutes, as other tenants of the host come and go; within
one 30 s run, same-seed passes of `bayes-numeric` took from 4.9 s to 9.0 s.
Raw wall times therefore measure the host as much as the program.  The
harness times a reference loop next to every stretch of work it measures
and reports *reference seconds*:

    reference seconds = wall seconds * (loop speed measured around the work) / NOMINAL_SPEED[kind]

so a run on a host that is momentarily 30% slow reads about the same as one
on a fast host.  A slowdown does not hit all code alike, so each workload
is scaled by the loop that resembles its hot path (workloads.REFERENCE):

* `interp`: small-array numpy calls, float conversions and dict updates,
  like the Bayes-risk tiers, the candidate scans and module imports;
* `array`: axis reductions over a 2 MB float64 tensor, like the marginal
  sums of the causality measures.

Neither loop calls anything of sideinfo, so a change to the program cannot
move them.
"""

from __future__ import annotations

import time

import numpy as np

# Units per second of each loop at the host speed that reference seconds are
# quoted at: about its median on the 2-vCPU Intel Xeon VM the bounds in
# BENCHMARK.json were set on (Python 3.11, numpy 2.4).
NOMINAL_SPEED = {"interp": 8000.0, "array": 560.0}

_V = np.random.default_rng(0).random((64, 3))
_T = np.random.default_rng(1).random((4,) * 9)


def _interp_unit() -> float:
    s = 0.0
    for i in range(40):
        q = _V[i % 64]
        s += float((q * q).sum() - 2.0 * q[i % 3])
    d: dict[int, int] = {}
    for i in range(200):
        d[i % 97] = d.get(i % 97, 0) + i
    return s


def _array_unit() -> float:
    return float(_T.sum(axis=(0, 5)).flat[0] + _T.sum(axis=8).flat[0])


_UNITS = {"interp": _interp_unit, "array": _array_unit}


def speed(seconds: float, kind: str = "interp") -> float:
    """Units per second of the `kind` reference loop, run for at least `seconds`."""
    unit = _UNITS[kind]
    n = 0
    start = time.perf_counter()
    while True:
        unit()
        n += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return n / elapsed


def scale(wall_s: float, speed_before: float, speed_after: float, kind: str = "interp") -> float:
    """Reference seconds of a stretch of wall time bracketed by two speed samples."""
    return wall_s * (speed_before + speed_after) / (2.0 * NOMINAL_SPEED[kind])
