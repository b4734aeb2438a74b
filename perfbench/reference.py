"""Fixed reference work that measures how fast the host runs right now.

The benchmark runs on a few cores of a shared host whose speed changes by
up to half for spells that last from under a second to many minutes.  The
worker times this module's reference work next to the program's, and
``run.py`` scales each run's times by ``reference time / mean(measured
reference times)``: the times the run would have taken with the host at the
speed at which the reference work takes its reference time.

Two kinds of reference work, one for each kind of measured time:

* ``reference_loop`` stands in for the passes.  It does the kinds of work
  fringelab's commands do, in similar proportions: small objects built and
  read in Python, float arithmetic, ``repr`` of floats joined into text,
  dictionary updates and numpy calls on short arrays.
* ``LAUNCH_CODE`` stands in for set-up: a fresh interpreter that imports
  numpy, as ``fringelab.cli`` does, then runs ``reference_loop`` a few
  times, about as long as fringelab's own modules take to import.

Neither touches fringelab, so no change to the program moves them.
"""

from __future__ import annotations

import gc
import math
import time
from pathlib import Path

import numpy as np

# The reference times: about the fastest per-run means of ``reference_loop``
# and of a ``LAUNCH_CODE`` launch on a 2-vCPU x86-64 host shared with other
# tenants (Python 3.11.7, numpy 2.4.6).
LOOP_S = 0.020
LAUNCH_S = 0.200
# Launched as ``python -c LAUNCH_CODE``; it prints one line when done.
LAUNCH_CODE = (f"import sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); "
               "import reference; [reference.reference_loop() for _ in range(2)]; "
               "print('done', flush=True)")


class _Point:
    __slots__ = ("t", "x")

    def __init__(self, t: float, x: float) -> None:
        self.t = t
        self.x = x


def reference_loop() -> float:
    """Run the loop once and return its wall time in seconds."""
    gc.collect()
    gc.disable()  # a collection would scan the caller's heap, not the loop's
    try:
        return _timed_loop()
    finally:
        gc.enable()


def _timed_loop() -> float:
    start = time.perf_counter()
    points = []
    acc = 0.0
    for i in range(20_000):
        p = _Point(i * 0.5, math.sqrt(i + 1.0))
        points.append(p)
        acc += p.x * p.x - p.t * p.t
    text = ",".join(repr(p.x) for p in points[:5_000])
    sums: dict[int, float] = {}
    for i, p in enumerate(points):
        sums[i & 255] = sums.get(i & 255, 0.0) + p.x
    a = np.linspace(0.0, 1.0, 256)
    for _ in range(300):
        a = np.cos(a) * 0.5 + np.abs(a)
    elapsed = time.perf_counter() - start
    if not (math.isfinite(acc) and text and len(sums) == 256
            and np.isfinite(a).all()):
        raise RuntimeError("reference loop computed a wrong result")
    return elapsed
