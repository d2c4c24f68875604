"""Shared fixtures and brute-force helpers for the test suite."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest

from evacregret import PathInstance, RegretSolver, Scenario, theta
from evacregret.pwl import PwlFunction


@pytest.fixture
def t1() -> PathInstance:
    """The reference instance: positions [0,1,2], capacities [1,2], all weight
    intervals [0,2]."""
    return PathInstance([0, 1, 2], [1, 2], [0, 0, 0], [2, 2, 2])


@pytest.fixture
def evaluated_vertices(monkeypatch) -> set[int]:
    """The vertices any RegretSolver's vertex_regret is asked for during the
    test, whether its result is memoized or not."""
    evaluated: set[int] = set()
    original = RegretSolver.vertex_regret

    def spied(self, m):
        evaluated.add(m)
        return original(self, m)

    monkeypatch.setattr(RegretSolver, "vertex_regret", spied)
    return evaluated


def rational(rng: random.Random, lo, hi, denom: int = 8) -> Fraction:
    lo, hi = Fraction(lo), Fraction(hi)
    return lo + (hi - lo) * Fraction(rng.randint(0, denom), denom)


def random_instance(
    rng: random.Random,
    max_n: int = 5,
    zero_lower: bool = False,
    cap_range=(Fraction(1, 2), 4),
    weight_hi_range=(Fraction(1, 4), 2),
) -> PathInstance:
    """A small random instance with controlled ranges (keeps oracles cheap)."""
    n = rng.randint(1, max_n)
    positions = [Fraction(0)]
    for _ in range(n):
        positions.append(positions[-1] + rational(rng, Fraction(1, 4), 2, 4))
    capacities = [rational(rng, *cap_range, 4) for _ in range(n)]
    weight_lo, weight_hi = [], []
    for _ in range(n + 1):
        hi = rational(rng, *weight_hi_range, 4)
        if zero_lower:
            lo = Fraction(0)
        else:
            lo = rational(rng, Fraction(1, 4), min(hi, Fraction(2)), 4)
            lo = min(lo, hi)
        weight_lo.append(lo)
        weight_hi.append(max(lo, hi))
    return PathInstance(positions, capacities, weight_lo, weight_hi)


def random_scenario(rng: random.Random, instance: PathInstance, denom: int = 8) -> Scenario:
    return Scenario(
        [
            rational(rng, lo, hi, denom)
            for lo, hi in zip(instance.weight_lo, instance.weight_hi)
        ]
    )


def random_positive_pwl(
    rng: random.Random, lo, hi, max_pieces: int = 6, start_lo=0, start_hi=3
) -> PwlFunction:
    """A random strictly increasing piecewise-linear function on [lo, hi]."""
    lo, hi = Fraction(lo), Fraction(hi)
    pieces = rng.randint(1, max_pieces)
    cuts = sorted({lo, hi} | {rational(rng, lo, hi, 16) for _ in range(pieces - 1)})
    values = [rational(rng, start_lo, start_hi, 8)]
    for q1, q2 in zip(cuts, cuts[1:]):
        slope = rational(rng, Fraction(1, 8), 4, 8)
        values.append(values[-1] + slope * (q2 - q1))
    return PwlFunction(tuple(cuts), tuple(values))


def random_convex_pwl(
    rng: random.Random, lo, hi, max_pieces: int = 5, start_lo=0, start_hi=3
) -> PwlFunction:
    """Random positive function with strictly increasing slopes."""
    lo, hi = Fraction(lo), Fraction(hi)
    pieces = rng.randint(1, max_pieces)
    cuts = sorted({lo, hi} | {rational(rng, lo, hi, 16) for _ in range(pieces - 1)})
    slope = rational(rng, Fraction(1, 8), 1, 8)
    values = [rational(rng, start_lo, start_hi, 8)]
    for q1, q2 in zip(cuts, cuts[1:]):
        values.append(values[-1] + slope * (q2 - q1))
        slope = slope + rational(rng, Fraction(1, 8), 2, 8)
    return PwlFunction(tuple(cuts), tuple(values))


def _slice_candidates(f_left, f_right, alpha, lo, hi, level_shifts) -> list[Fraction]:
    """Slice endpoints, breakpoint projections, and every point where the
    difference fR(alpha-a) - fL(a) crosses a level in level_shifts.  Between
    consecutive candidates both curves are linear, so any piecewise-linear
    objective in (fL, fR) is minimized at one of them."""
    points = {lo, hi}
    for q in f_left.breakpoints:
        if lo <= q <= hi:
            points.add(q)
    for q in f_right.breakpoints:
        if lo <= alpha - q <= hi:
            points.add(alpha - q)
    ordered = sorted(points)
    for level in level_shifts:
        for q1, q2 in zip(ordered, ordered[1:]):
            d1 = f_right(alpha - q1) - f_left(q1) - level
            d2 = f_right(alpha - q2) - f_left(q2) - level
            if (d1 > 0 > d2) or (d1 < 0 < d2):
                points.add(q1 + (q2 - q1) * d1 / (d1 - d2))
    return sorted(points)


def grid_min_max_split(f_left, f_right, box, alpha: Fraction, h=None) -> Fraction:
    """Exact brute force: min over the alpha-slice of max(fL, fR), enumerating
    every candidate split (endpoints, breakpoints, curve crossings).  An
    optional h adds plain grid points on top."""
    lo = max(box.a1, alpha - box.b2)
    hi = min(box.a2, alpha - box.b1)
    assert lo <= hi
    points = set(_slice_candidates(f_left, f_right, alpha, lo, hi, [Fraction(0)]))
    if h is not None:
        step = lo
        while step < hi:
            points.add(step)
            step += h
    return min(max(f_left(a), f_right(alpha - a)) for a in points)


def grid_min_max_offset(f_left, f_right, box, y_range, alpha: Fraction) -> Fraction:
    """Exact brute force for the offset variant: the inner offset optimum for a
    fixed split is the clamped midpoint, and the split candidates include the
    clamp-boundary crossings, so the enumeration is exact."""
    y_lo, y_hi = Fraction(y_range[0]), Fraction(y_range[1])
    lo = max(box.a1, alpha - box.b2)
    hi = min(box.a2, alpha - box.b1)
    assert lo <= hi
    levels = [2 * y_lo, 2 * y_hi, y_lo + y_hi]
    best = None
    for a in _slice_candidates(f_left, f_right, alpha, lo, hi, levels):
        va, vb = f_left(a), f_right(alpha - a)
        y = min(max((vb - va) / 2, y_lo), y_hi)
        value = max(va + y, vb - y)
        if best is None or value < best:
            best = value
    return best


def dense_theta_min(instance: PathInstance, k: int, s: Scenario, samples: int = 64):
    """Dense sampling reference for the per-edge evacuation minimum."""
    xk, xk1 = instance.positions[k], instance.positions[k + 1]
    best_val, best_pt = None, None
    for t in range(samples + 1):
        y = xk + (xk1 - xk) * Fraction(t, samples)
        value = theta(instance, y, s).theta
        if best_val is None or value < best_val:
            best_val, best_pt = value, y
    return best_pt, best_val
