"""Independent brute-force validation: a time-stepped fluid simulation of
evacuation, grid enumeration of the two-varying scenario families, a dense
sweep for the minmax-regret location, and random weight-shift monotonicity
checks.  Everything here stays deliberately naive so it can vouch for the
closed forms."""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Union

from .evacuation import optimal_sink, theta
from .path_model import (
    PathInstance,
    PathModelError,
    Point,
    RationalLike,
    Scenario,
    as_point,
    prefix_weight,
    shift,
    to_fraction,
    two_varying,
)


# Largest counts accepted, so a fine step or a huge count is refused before any
# work instead of running for an unbounded time: simulation steps up to the
# drain bound x_n + W/c_min, grid points per weight axis, two-varying grid
# scenarios, shift trials and sweep samples.  A simulation still running at
# MAX_SIM_TIME times out.
MAX_SIM_STEPS = 10**7
MAX_SIM_TIME = 10_000
MAX_GRID_STEPS = 1024
MAX_GRID_SCENARIOS = 2**18
MAX_SHIFT_TRIALS = 10**5
MAX_SWEEP_SAMPLES = 4096


class OracleTimeout(RuntimeError):
    """The simulation did not drain by MAX_SIM_TIME."""


def _positive(step: RationalLike, message: str) -> Fraction:
    step = to_fraction(step)
    if step <= 0:
        raise PathModelError(message)
    return step


# Fluid simulation ---------------------------------------------------------------


def _simulate_chain(
    buffers: list[Fraction],
    capacities: list[Fraction],
    lengths: list[Fraction],
    dt: Fraction,
    max_steps: int,
) -> Fraction:
    """Simulate one directed chain of buffers feeding edge 0, 1, ... toward the
    sink at the far end; returns the arrival time of the last unit of flow.

    Per step, each edge admits min(buffer, capacity*dt) at its entry; admitted
    flow arrives (edge length) later, queued exactly.  All quantities are
    rescaled to integers so mass conservation is exact and fast.
    """
    if not buffers or all(b == 0 for b in buffers):
        return Fraction(0)
    # scale mass so buffers and per-step admissions are integers
    mass_scale = lcm(
        *(b.denominator for b in buffers),
        *((c * dt).denominator for c in capacities),
    )
    # scale time so dt and edge lengths are integers
    time_scale = lcm(dt.denominator, *(d.denominator for d in lengths))
    buf = [int(b * mass_scale) for b in buffers]
    quota = [int(c * dt * mass_scale) for c in capacities]
    travel = [int(d * time_scale) for d in lengths]
    dt_int = int(dt * time_scale)

    m = len(capacities)
    queues: list[list[tuple[int, int]]] = [[] for _ in range(m)]  # (arrival, amount)
    heads = [0] * m
    last_arrival = 0
    remaining = sum(buf)
    now = 0
    for _ in range(max_steps):
        # deliveries first: flow arriving now may be admitted downstream now
        for e in range(m):
            q, h = queues[e], heads[e]
            while h < len(q) and q[h][0] <= now:
                if e + 1 < m:
                    buf[e + 1] += q[h][1]
                else:
                    remaining -= q[h][1]
                    last_arrival = max(last_arrival, q[h][0])
                h += 1
            heads[e] = h
        if remaining == 0 and all(heads[e] == len(queues[e]) for e in range(m)):
            break
        for e in range(m):
            take = min(buf[e], quota[e])
            if take > 0:
                buf[e] -= take
                queues[e].append((now + travel[e], take))
        now += dt_int
    else:
        raise OracleTimeout(f"simulation did not drain within time {MAX_SIM_TIME}")
    return Fraction(last_arrival, time_scale)


def simulate_evacuation(
    instance: PathInstance,
    x: Union[Point, RationalLike],
    s: Scenario,
    dt: RationalLike,
) -> Fraction:
    """Fluid-model evacuation time to x, first-order accurate in dt.

    The two sides of the sink drain independently; the result is rounded up to
    a step boundary.  The left chain holds every vertex t with x_t < x, in
    order, with capacity c_t and length min(x_{t+1}, x) - x_t; the right chain
    every t with x_t > x, from x_n down, with capacity c_{t-1} and length
    x_t - max(x_{t-1}, x).
    """
    dt = _positive(dt, "dt must be positive")
    x = as_point(instance, x).value
    total = prefix_weight(s, 0, instance.n)
    if total == 0:
        return Fraction(0)
    pos, cap, w = instance.positions, instance.capacities, s.weights
    if instance.n:
        drain = pos[-1] + total / min(cap)
        if drain > MAX_SIM_STEPS * dt:
            raise PathModelError(f"dt {dt} needs more than {MAX_SIM_STEPS} steps to drain")
    max_steps = int(MAX_SIM_TIME / dt) + 1
    left = [t for t in range(len(pos)) if pos[t] < x]
    right = [t for t in reversed(range(len(pos))) if pos[t] > x]
    raw = max(
        _simulate_chain(
            [w[t] for t in left], [cap[t] for t in left],
            [min(pos[t + 1], x) - pos[t] for t in left], dt, max_steps,
        ),
        _simulate_chain(
            [w[t] for t in right], [cap[t - 1] for t in right],
            [pos[t] - max(pos[t - 1], x) for t in right], dt, max_steps,
        ),
    )
    steps, rem = divmod(raw, dt)
    return (steps + (1 if rem else 0)) * dt


# Grid enumeration ----------------------------------------------------------------


def _axis_grid(lo: Fraction, hi: Fraction, h: Fraction) -> list[Fraction]:
    values = {lo, hi}
    if lo <= 0 <= hi:
        values.add(Fraction(0))
    step = lo
    while step < hi:
        values.add(step)
        step += h
    return sorted(values)


def _widest(instance: PathInstance) -> Fraction:
    widths = (hi - lo for lo, hi in zip(instance.weight_lo, instance.weight_hi))
    return max(widths, default=Fraction(0))


def _grid_axes(instance: PathInstance, h: Fraction) -> list[list[Fraction]]:
    return [_axis_grid(lo, hi, h) for lo, hi in zip(instance.weight_lo, instance.weight_hi)]


def _scenario_count(axes: list[list[Fraction]]) -> int:
    """Two-varying grid scenarios, repeats included: |A_i| for each i, and
    |A_i| |A_j| for each pair i < j."""
    sizes = [len(axis) for axis in axes]
    total = sum(sizes)
    return total + (total * total - sum(m * m for m in sizes)) // 2


def default_grid(instance: PathInstance) -> Fraction:
    """The widest weight interval over 64 (1/64 when every interval is a
    point), doubled while the grid has more than MAX_GRID_SCENARIOS scenarios
    and a coarser step still thins it."""
    widest = _widest(instance)
    h = widest / 64 if widest > 0 else Fraction(1, 64)
    while h < widest and _scenario_count(_grid_axes(instance, h)) > MAX_GRID_SCENARIOS:
        h *= 2
    return h


class GridOracle:
    """Enumerates all two-varying grid scenarios of an instance once, with
    grid spacing h and the interval ends and zero as anchors, caching each
    scenario's optimal evacuation time, so max-regret queries at several sinks
    stay cheap."""

    def __init__(self, instance: PathInstance, h: RationalLike):
        h = _positive(h, "grid spacing must be positive")
        if _widest(instance) > MAX_GRID_STEPS * h:
            raise PathModelError(
                f"grid spacing {h} gives more than {MAX_GRID_STEPS} points per axis"
            )
        axes = _grid_axes(instance, h)
        if _scenario_count(axes) > MAX_GRID_SCENARIOS:
            raise PathModelError(
                f"grid spacing {h} gives more than {MAX_GRID_SCENARIOS} scenarios"
            )
        self.instance = instance
        self.scenarios: list[tuple[Scenario, Fraction]] = []
        seen: set[tuple[Fraction, ...]] = set()
        count = instance.vertex_count
        for i in range(count):
            for j in range(i, count):
                for a in axes[i]:
                    betas = [a] if i == j else axes[j]
                    for b in betas:
                        s = two_varying(instance, i, j, a, b)
                        if s.weights in seen:
                            continue
                        seen.add(s.weights)
                        self.scenarios.append((s, optimal_sink(instance, s).value))

    def max_regret(self, x: Union[Point, RationalLike]) -> Fraction:
        point = as_point(self.instance, x)
        best = Fraction(0)
        for s, opt in self.scenarios:
            value = theta(self.instance, point, s).theta - opt
            if value > best:
                best = value
        return best


def grid_rmax(instance: PathInstance, x: Union[Point, RationalLike], h: RationalLike) -> Fraction:
    """Max regret at x over the gridded two-varying scenario families."""
    return GridOracle(instance, h).max_regret(x)


def sweep_ropt(instance: PathInstance, h: RationalLike, x_samples: int) -> tuple[Point, Fraction]:
    """Min over vertices plus uniform interior samples of the gridded max
    regret; a lower-bounds check for the exact search."""
    h = _positive(h, "grid spacing must be positive")
    if x_samples < instance.vertex_count:
        raise PathModelError("x_samples must be at least the vertex count")
    if x_samples > MAX_SWEEP_SAMPLES:
        raise PathModelError(f"x_samples must be at most {MAX_SWEEP_SAMPLES}")
    oracle = GridOracle(instance, h)
    points = set(instance.positions)
    total = instance.positions[-1] - instance.positions[0]
    for t in range(1, x_samples):
        points.add(instance.positions[0] + total * Fraction(t, x_samples))
    best_point: Optional[Fraction] = None
    best_value: Optional[Fraction] = None
    for p in sorted(points):
        value = oracle.max_regret(p)
        if best_value is None or value < best_value:
            best_point, best_value = p, value
    return as_point(instance, best_point), best_value


# Random weight-shift monotonicity -------------------------------------------------


def _random_rational(rng: random.Random, lo: Fraction, hi: Fraction, denom: int = 16) -> Fraction:
    span = hi - lo
    return lo + span * Fraction(rng.randint(0, denom), denom)


def random_legal_scenario(
    instance: PathInstance, rng: random.Random, denom: int = 16
) -> Scenario:
    return Scenario(
        [
            _random_rational(rng, lo, hi, denom)
            for lo, hi in zip(instance.weight_lo, instance.weight_hi)
        ]
    )


@dataclass(frozen=True)
class ShiftReport:
    trials: int
    performed: int
    violations: int


def check_shift(instance: PathInstance, trials: int, seed: int = 0) -> ShiftReport:
    """Random valid weight shifts between two vertices: moving weight toward
    the far side of the sink never increases the evacuation time.  Checks both
    orientations; reports the violation count (expected zero)."""
    if not 0 <= trials <= MAX_SHIFT_TRIALS:
        raise PathModelError(f"trials must be between 0 and {MAX_SHIFT_TRIALS}")
    rng = random.Random(seed)
    performed = 0
    violations = 0
    count = instance.vertex_count
    if count < 2:
        return ShiftReport(trials, 0, 0)
    for _ in range(trials):
        s = random_legal_scenario(instance, rng)
        a, b = rng.sample(range(count), 2)
        toward_right = rng.random() < 0.5
        src, dst = (min(a, b), max(a, b)) if toward_right else (max(a, b), min(a, b))
        room = min(
            s.weights[src] - instance.weight_lo[src],
            instance.weight_hi[dst] - s.weights[dst],
        )
        delta = room * Fraction(rng.randint(0, 8), 8)
        shifted = shift(instance, s, src, dst, delta)
        performed += 1
        # sinks on the far side of the receiving vertex
        if toward_right:
            sink_lo = instance.positions[dst]
            sink = _random_rational(rng, sink_lo, instance.positions[-1], 8)
        else:
            sink = _random_rational(rng, instance.positions[0], instance.positions[dst], 8)
        before = theta(instance, sink, s).theta
        after = theta(instance, sink, shifted).theta
        if after > before:
            violations += 1
    return ShiftReport(trials, performed, violations)
