"""Machine-speed gauge: scales measured rates to a nominal machine speed.

The reference machine is a shared VM.  Its CPU speed drifts by a third
and more from one half-minute to the next as other tenants load the
host, and ten runs of the same code have spread by up to a third in raw
throughput.  So the benchmark times a fixed reference job, which uses
no dccl code, in short bursts spread over its timed operations, and
reports rates as they would read on a machine where one reference unit
takes `NOMINAL_UNIT_S`:

    scale = mean burst time per unit / NOMINAL_UNIT_S
    rate at nominal speed = measured rate * scale

The reference unit is the same kind of work as a training step: small
matrix products and elementwise numpy calls driven from Python.  A
burst of `BURST_UNITS` units runs at most every `INTERVAL_S` seconds,
before the calls that `watch()` names, and its time is taken out of the
operation it ran in.  Together the bursts cost about 0.5 % of the run.
A change to dccl moves the measured rate but not the scale, since the
reference job does not use dccl.
"""

from __future__ import annotations

import functools
import statistics
import time

import numpy as np

NOMINAL_UNIT_S = 50e-6
BURST_UNITS = 20
INTERVAL_S = 0.2
OUTLIER_FACTOR = 2.0

_X = np.random.default_rng(0).standard_normal((24, 32))
_W = np.random.default_rng(1).standard_normal((32, 32)) * 0.1


def reference_unit():
    h = _X
    for _ in range(4):
        h = np.maximum(h @ _W, 0.0) + 0.5
    counts = {}
    for i in range(40):
        counts[i % 7] = counts.get(i % 7, 0) + i
    return float(h.sum()) + counts[0]


class Gauge:
    """Bursts of the reference job taken in one process.  A forked worker
    inherits the gauge and its wrappers; what it samples there stays in
    the worker, so workers hand their bursts over with `since()`."""

    def __init__(self):
        self.units = []         # seconds per reference unit, one per burst
        self.spent = 0.0        # seconds spent in bursts
        self._due = 0.0
        self._undo = []

    def poll(self):
        """Take a burst of `BURST_UNITS` reference units if the last one
        ended `INTERVAL_S` or more ago."""
        started = time.perf_counter()
        if started < self._due:
            return
        for _ in range(BURST_UNITS):
            reference_unit()
        ended = time.perf_counter()
        self.units.append((ended - started) / BURST_UNITS)
        self.spent += ended - started
        self._due = ended + INTERVAL_S

    def watch(self, owner, attr):
        """Poll before every call of `owner.attr`, until `unwatch()`."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            self.poll()
            return original(*args, **kwargs)

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def unwatch(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def since(self, mark):
        """The (units, spent) recorded after `mark = (len(units), spent)`."""
        count, spent = mark
        return self.units[count:], self.spent - spent

    def mark(self):
        return len(self.units), self.spent

    def add(self, units):
        """Take in bursts sampled in another process; `spent` stays the
        time spent in this one."""
        self.units.extend(units)

    def scale(self):
        """Mean time per reference unit over the run ÷ the nominal time:
        above 1 when the machine ran slower than nominal.  A burst that
        took over twice the median was preempted, which says nothing of
        the CPU's speed, and is left out."""
        if not self.units:
            raise SystemExit("error: the speed gauge took no sample")
        limit = OUTLIER_FACTOR * statistics.median(self.units)
        return statistics.fmean(u for u in self.units if u <= limit) / NOMINAL_UNIT_S
