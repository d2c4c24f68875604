"""Closed-form evacuation times, critical vertices, optimal sink, and regret."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Callable, Optional, Union

from .path_model import (
    PathInstance,
    PathModelError,
    Point,
    RationalLike,
    Scenario,
    as_point,
    prefix_weight,
    reflect_instance,
    reflect_scenario,
)

ZERO = Fraction(0)


@dataclass(frozen=True)
class EvacResult:
    """Left/right/total evacuation time at a point plus the critical vertices."""

    theta_left: Fraction
    theta_right: Fraction
    theta: Fraction
    lcv: Optional[int]
    rcv: Optional[int]


@dataclass(frozen=True)
class OptSink:
    location: Point
    value: Fraction


def _left_time_at_vertex(
    instance: PathInstance, j: int, s: Scenario
) -> tuple[Fraction, Optional[int]]:
    """Max over i < j of the left arrival times, with the critical vertex.

    Ties break toward the index closest to the sink, so the scan runs outward.
    """
    best = ZERO
    critical: Optional[int] = None
    pos = instance.positions
    xj = pos[j]
    cap = None
    for i in range(j - 1, -1, -1):
        cap = instance.capacities[i] if cap is None else min(cap, instance.capacities[i])
        weight = prefix_weight(s, 0, i)
        if weight == 0:
            continue
        t = (xj - pos[i]) + weight / cap
        if t > best:
            best, critical = t, i
    return best, critical


def _right_time_at_vertex(
    instance: PathInstance, j: int, s: Scenario
) -> tuple[Fraction, Optional[int]]:
    """_left_time_at_vertex on the mirror image of the path, with the critical
    vertex mapped back."""
    n = instance.n
    best, critical = _left_time_at_vertex(reflect_instance(instance), n - j, reflect_scenario(s))
    return best, None if critical is None else n - critical


def _vertex_times(instance: PathInstance, j: int, s: Scenario) -> tuple[Fraction, Fraction]:
    """The (left, right) one-sided times at x_j."""
    return _left_time_at_vertex(instance, j, s)[0], _right_time_at_vertex(instance, j, s)[0]


def theta(
    instance: PathInstance, x: Union[Point, RationalLike], s: Scenario
) -> EvacResult:
    """Evacuation time to x: the max of the left and right one-sided times.

    At a vertex, the weight sitting on the sink itself needs no move and is
    counted on neither side.  Strictly inside an edge, both sides reduce to the
    flanking-vertex values minus the travel offset.
    """
    point = as_point(instance, x)
    if point.vertex_index is not None:
        j = point.vertex_index
        tl, lcv = _left_time_at_vertex(instance, j, s)
        tr, rcv = _right_time_at_vertex(instance, j, s)
    else:
        k = instance.locate(point.value)[1]
        tl_next, lcv = _left_time_at_vertex(instance, k + 1, s)
        tr_prev, rcv = _right_time_at_vertex(instance, k, s)
        tl = tl_next - (instance.positions[k + 1] - point.value) if tl_next > 0 else ZERO
        tr = tr_prev - (point.value - instance.positions[k]) if tr_prev > 0 else ZERO
    return EvacResult(tl, tr, max(tl, tr), lcv, rcv)


def theta_min_on_edge(
    instance: PathInstance, k: int, s: Scenario
) -> tuple[Point, Fraction]:
    """Minimum of the evacuation time over edge [x_k, x_{k+1}], in closed form.

    The interior is the max of two crossing lines (left time rising at slope 1,
    right time falling at slope 1); the answer is the min of the two vertex
    values and that interior minimum, location ties resolved leftmost.
    """
    if not (0 <= k < instance.n):
        raise PathModelError(f"edge index out of range: {k}")
    times = _vertex_times(instance, k, s) + _vertex_times(instance, k + 1, s)
    value, y = _edge_min_from_times(instance, k, times)
    return as_point(instance, y), value


def _edge_min_from_times(instance: PathInstance, k: int, times) -> tuple[Fraction, Fraction]:
    """theta_min_on_edge's (value, position) from the one-sided times
    (left, right) at x_k and then at x_{k+1}.  The times may be negative (the
    regret side maxima of RegretSolver.min_max_regret); the position always
    lies in [x_k, x_{k+1}]."""
    tl_k, tr_k, tl_k1, tr_k1 = times
    xk, xk1 = instance.positions[k], instance.positions[k + 1]
    # interior: max(tl_k1 - (xk1 - y), tr_k - (y - xk)), floored at 0
    cross = (xk + xk1 + tr_k - tl_k1) / 2
    y_star = min(max(cross, xk), xk1)
    interior = max(tl_k1 - (xk1 - y_star), tr_k - (y_star - xk), ZERO)
    if interior == 0:
        # zero is attained on a segment; report its leftmost point
        y_star = xk + max(tr_k, ZERO)
    # least value first, then leftmost position
    return min((max(tl_k, tr_k), xk), (max(tl_k1, tr_k1), xk1), (interior, y_star))


def _first_crossing(
    sides: Callable[[int], tuple[Optional[Fraction], Optional[Fraction]]], n: int
) -> int:
    """The least vertex j in 0..n whose left value reaches its right value,
    where `sides(j)` is the pair (left, right) at x_j and None counts as
    below every value.

    Each left value is a max over the vertices left of x_j of arrival times
    at x_j (minus a sink-independent optimum, for regrets).  As j grows,
    each arrival time gains the added distance, its bottleneck capacity can
    only fall, and new vertices join the max, so left values never fall; by
    reflection right values never rise.  So "left reaches right" turns true
    once and stays true, and bisection finds j in O(log n) calls.  Inside an
    edge the left part rises and the right part falls at slope 1; at a vertex
    the left part can only jump up and the right part down.  So the max of
    the two exceeds its value at x_{j-1} left of it and is at least its value
    at x_j right of it: its leftmost minimum lies on edge j - 1, or at x_0
    when j = 0."""
    lo, hi = 0, n
    while lo < hi:
        mid = (lo + hi) // 2
        left, right = sides(mid)
        if right is None or (left is not None and left >= right):
            hi = mid
        else:
            lo = mid + 1
    return lo


def optimal_sink(instance: PathInstance, s: Scenario) -> OptSink:
    """Global minimizer of the evacuation time, leftmost on ties.

    Bisection on the one-sided vertex times (_first_crossing) finds the
    vertex j at which the left time first reaches the right time; the
    closed-form minimum over edge j - 1 then finishes from the four times
    already probed.  When j = 0 the right time at x_0 is 0, so x_0 is
    optimal with value 0; this covers n = 0 and the all-zero scenario.
    """
    sides = cache(lambda j: _vertex_times(instance, j, s))
    j = _first_crossing(sides, instance.n)
    if j == 0:
        return OptSink(Point(instance.positions[0], 0), ZERO)
    value, y = _edge_min_from_times(instance, j - 1, sides(j - 1) + sides(j))
    return OptSink(as_point(instance, y), value)


def regret(
    instance: PathInstance, x: Union[Point, RationalLike], s: Scenario
) -> Fraction:
    """Evacuation time to x minus the scenario's optimal evacuation time."""
    return theta(instance, x, s).theta - optimal_sink(instance, s).value
