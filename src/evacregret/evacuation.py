"""Closed-form evacuation times, critical vertices, optimal sink, and regret."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Union

from .path_model import (
    PathInstance,
    PathModelError,
    Point,
    RationalLike,
    Scenario,
    as_point,
    min_capacity,
    prefix_weight,
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


def left_vertex_time(
    instance: PathInstance, i: int, x: Union[Point, RationalLike], s: Scenario
) -> Fraction:
    """Time for all weight on v_0..v_i to finish arriving at x from the left:
    travel plus congestion through the bottleneck capacity, zero if that weight
    is zero."""
    pt = x.value if isinstance(x, Point) else Fraction(x)
    if instance.positions[i] >= pt:
        raise PathModelError(f"left_vertex_time requires x_{i} < x")
    weight = prefix_weight(s, 0, i)
    if weight == 0:
        return ZERO
    cap = min_capacity(instance, instance.positions[i], pt)
    return (pt - instance.positions[i]) + weight / cap


def right_vertex_time(
    instance: PathInstance, i: int, x: Union[Point, RationalLike], s: Scenario
) -> Fraction:
    """Mirror of left_vertex_time for weight on v_i..v_n arriving from the right."""
    pt = x.value if isinstance(x, Point) else Fraction(x)
    if instance.positions[i] <= pt:
        raise PathModelError(f"right_vertex_time requires x < x_{i}")
    weight = prefix_weight(s, i, instance.n)
    if weight == 0:
        return ZERO
    cap = min_capacity(instance, pt, instance.positions[i])
    return (instance.positions[i] - pt) + weight / cap


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
    best = ZERO
    critical: Optional[int] = None
    pos = instance.positions
    xj = pos[j]
    cap = None
    for i in range(j + 1, instance.vertex_count):
        cap = instance.capacities[i - 1] if cap is None else min(cap, instance.capacities[i - 1])
        weight = prefix_weight(s, i, instance.n)
        if weight == 0:
            continue
        t = (pos[i] - xj) + weight / cap
        if t > best:
            best, critical = t, i
    return best, critical


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
        if tl == 0:
            lcv = None
        if tr == 0:
            rcv = None
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
    times = [f(instance, v, s)[0] for v in (k, k + 1)
             for f in (_left_time_at_vertex, _right_time_at_vertex)]
    value, y = _edge_min_from_times(instance, k, times)
    return as_point(instance, y), value


def _edge_min_from_times(instance: PathInstance, k: int, times) -> tuple[Fraction, Fraction]:
    """theta_min_on_edge's (value, position) from the one-sided times
    (left, right) at x_k and then at x_{k+1}."""
    tl_k, tr_k, tl_k1, tr_k1 = times
    xk, xk1 = instance.positions[k], instance.positions[k + 1]
    theta_k = max(tl_k, tr_k)
    theta_k1 = max(tl_k1, tr_k1)

    # interior: max(tl_k1 - (xk1 - y), tr_k - (y - xk)), floored at 0
    candidates: list[tuple[Fraction, Fraction]] = [(theta_k, xk), (theta_k1, xk1)]
    cross = (xk + xk1 + tr_k - tl_k1) / 2
    y_star = min(max(cross, xk), xk1)
    interior = max(tl_k1 - (xk1 - y_star), tr_k - (y_star - xk), ZERO)
    if interior == 0:
        # zero is attained on a segment; report its leftmost point
        y_star = xk + tr_k
    candidates.append((interior, y_star))
    return min(candidates, key=lambda c: (c[0], c[1]))


def _unimodal_edge_search(
    edge_minimum: Callable[[int], tuple], n_edges: int
) -> tuple:
    """The least `edge_minimum(k)` over a weakly-unimodal sequence of edges,
    where each entry starts with (minimum value, leftmost minimizing position).

    Standard halving on comparisons of adjacent values; ties move left, which
    is sound because non-bottom plateaus cannot occur (interior slopes are
    exactly +-1, never flat).  The located edge and both neighbours are then
    compared directly, which also guards the jump discontinuities at
    vertices; ties go to the leftmost position.  Each edge is evaluated once.
    """
    entries: dict[int, tuple] = {}

    def entry(k: int) -> tuple:
        if k not in entries:
            entries[k] = edge_minimum(k)
        return entries[k]

    lo, hi = 0, n_edges - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if entry(mid)[0] <= entry(mid + 1)[0]:
            hi = mid
        else:
            lo = mid + 1
    nearby = [entry(k) for k in range(max(0, lo - 1), min(n_edges, lo + 2))]
    return min(nearby, key=lambda e: (e[0], e[1]))


def optimal_sink(instance: PathInstance, s: Scenario) -> OptSink:
    """Global minimizer of the evacuation time.

    The time is unimodal in the sink position, so a binary search over
    per-edge closed-form minima locates the optimal edge with O(log n)
    evaluations; the located edge and both neighbors are then checked
    directly, which also guards the jump discontinuities at vertices.
    Ties return the leftmost minimizer; the all-zero scenario returns x_0.
    """
    if prefix_weight(s, 0, instance.n) == 0:
        return OptSink(Point(instance.positions[0], 0), ZERO)
    if instance.n == 0:
        return OptSink(Point(instance.positions[0], 0), ZERO)

    def edge_minimum(k: int) -> tuple[Fraction, Fraction, Point]:
        point, value = theta_min_on_edge(instance, k, s)
        return value, point.value, point

    value, _, point = _unimodal_edge_search(edge_minimum, instance.n)
    return OptSink(point, value)


def regret(
    instance: PathInstance, x: Union[Point, RationalLike], s: Scenario
) -> Fraction:
    """Evacuation time to x minus the scenario's optimal evacuation time."""
    return theta(instance, x, s).theta - optimal_sink(instance, s).value
