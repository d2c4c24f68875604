"""Measure the host's speed during a request, to take its drift out of timings.

The benchmark's host is a shared virtual machine whose speed drifts, from
second to second and from minute to minute: the same request can take 1.5x
as long a minute later, and its CPU time grows with its wall time, so the
process is not waiting for a CPU, the CPU itself runs slower.  A plain wall
time therefore measures the host as much as the program.

`Sampler` interrupts the worker every `PERIOD_S` of wall time (SIGALRM) and
runs one short burst of fixed pure-Python work: exact `Fraction` arithmetic
on the breakpoints of a piecewise-linear function, the kind of work the
solver does.  Bursts sample the whole request window evenly, so their mean
duration tracks the host's mean speed over exactly the time the request ran.
For a phase (set-up or request) of the worker, the benchmark reports

    adjusted_s = (wall_s - burst_s) * REFERENCE_BURST_S / mean burst duration

that is, the phase's own work time scaled to the host speed at which a burst
takes `REFERENCE_BURST_S`.  The bursts import nothing from the program, so a
change to the program does not change them; they add about 4% to the wall
time of a worker and are subtracted from the work time.
"""
from __future__ import annotations

import gc
import signal
from fractions import Fraction
from time import perf_counter

PERIOD_S = 0.01
# Mean burst duration on the reference host at its usual speed; a constant,
# so adjusted times read as seconds at that speed.
REFERENCE_BURST_S = 0.0004

# Breakpoints of a fixed piecewise-linear function.
_POINTS = [(Fraction(i, 8) + Fraction(i % 3, 5), Fraction((i * 37) % 23, 4)) for i in range(24)]


def _burst(t: Fraction) -> Fraction:
    """The largest value of the segments' lines at a fraction t of each."""
    best = None
    for (x0, y0), (x1, y1) in zip(_POINTS, _POINTS[1:]):
        slope = (y1 - y0) / (x1 - x0)
        y = y0 + slope * (x1 - x0) * t
        if best is None or y > best:
            best = y
    return best


def adjusted_s(phase: dict, fallback: dict | None = None) -> float:
    """The phase's work time at reference host speed.  A phase too short to
    hold a burst is scaled by the bursts of `fallback` (the whole worker)."""
    speed_from = phase if phase["bursts"] else fallback
    work_s = phase["wall_s"] - phase["burst_s"]
    if not speed_from or not speed_from["bursts"]:
        return work_s
    mean_burst = speed_from["burst_s"] / speed_from["bursts"]
    return work_s * REFERENCE_BURST_S / mean_burst


class Sampler:
    """Runs and times one burst every PERIOD_S of wall time while started."""

    def __init__(self):
        self.burst_s = 0.0
        self.bursts = 0
        self._busy = False

    def _handler(self, signum, frame) -> None:
        if self._busy:  # a burst outlasted the period; never nest
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()  # collect the program's garbage in the program's time
        t0 = perf_counter()
        _burst(Fraction(self.bursts % 8, 8))
        self.burst_s += perf_counter() - t0
        self.bursts += 1
        if collecting:
            gc.enable()
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[float, float, int]:
        return perf_counter(), self.burst_s, self.bursts

    def since(self, mark: tuple[float, float, int]) -> dict:
        """Wall time, burst time and bursts from `mark` to now."""
        t0, burst_s, bursts = mark
        return {
            "wall_s": perf_counter() - t0,
            "burst_s": self.burst_s - burst_s,
            "bursts": self.bursts - bursts,
        }


def combined(*phases: dict) -> dict:
    return {key: sum(p[key] for p in phases) for key in ("wall_s", "burst_s", "bursts")}
