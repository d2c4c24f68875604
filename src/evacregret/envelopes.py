"""Evacuation time at a vertex as a piecewise-linear function of one varying weight.

The one-sided evacuation time at a fixed vertex, with a single vertex weight
treated as the variable, is the max of one arrival time per contributing
vertex, and arrival_envelope is the one place those times are written as
lines: the vertices whose prefix weight carries the variable give the lines,
and the vertices before the variable give one constant, their true time under
the exact zero-weight rule.  The envelope is therefore the linear extension
of the one-sided time: it agrees with the true time everywhere except
possibly at a single boundary value of the variable where every weight behind
one of its lines vanishes (where that vertex's true arrival time drops to
zero while its line keeps the extension).  A one-point range pins a single
scenario, so there the true time applies instead; this module is the one
place that rule is decided.  The right side is the left side of the mirror
image of the path.

Envelopes, like the profiles built on them, depend on the instance and their
vertex and weight arguments but never on the sink, so a solver memoizes them
in a SolveCache: an object it creates and passes down the call path, whose
entries live exactly as long as the solver.  No state is kept at module level.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Callable, Hashable, Optional, TypeVar

from . import pwl
from .evacuation import _left_time_at_vertex
from .path_model import (
    PathInstance,
    PathModelError,
    RationalLike,
    Scenario,
    min_capacity,
    prefix_weight,
    reflect_instance,
    reflect_scenario,
    substitute,
    to_fraction,
)
from .pwl import Line, PwlFunction

T = TypeVar("T")
_MISSING = object()


class SolveCache:
    """The memo of one instance's sink-independent envelopes and profiles:
    values of pure builders, keyed by a tuple naming the builder and its
    remaining arguments.

    Hashes and compares by identity, so it can be passed as an argument of a
    call that is itself traced or memoized.  Not locked: threads sharing one
    (through a shared `RegretSolver`) may build an entry twice, which is
    harmless because builders are pure, and each dictionary operation on its
    own is atomic.
    """

    __slots__ = ("instance", "_memo")

    def __init__(self, instance: PathInstance):
        self.instance = instance
        self._memo: dict[Hashable, object] = {}

    def get(self, key: Hashable, build: Callable[[], T]) -> T:
        """The value stored under `key`, built by `build()` on the first call."""
        value = self._memo.get(key, _MISSING)
        if value is _MISSING:
            value = self._memo[key] = build()
        return value  # type: ignore[return-value]


def cache_for(instance: PathInstance, cache: Optional[SolveCache]) -> SolveCache:
    """`cache`, or a fresh private one when it is None; a cache built for
    another instance is refused, since its entries would not apply."""
    if cache is None:
        return SolveCache(instance)
    if cache.instance is not instance:
        raise ValueError("SolveCache belongs to a different PathInstance")
    return cache


def left_envelope_raw(
    instance: PathInstance,
    varying: int,
    vertex: int,
    base: Scenario,
    lo: RationalLike,
    hi: RationalLike,
) -> PwlFunction:
    """Left evacuation time at x_vertex as a function of the weight at
    v_varying: the arrival_envelope of v_varying..v_{vertex-1}, raised to the
    true time of the vertices before v_varying.  Size and build time O(n).
    A one-point range [lo, lo] gives the true time with that weight at lo.
    Indices outside 0..n are refused."""
    if not (0 <= varying <= instance.n and 0 <= vertex <= instance.n):
        raise PathModelError(f"envelope indices out of range: {varying}, {vertex}")
    lo, hi = to_fraction(lo), to_fraction(hi)
    if lo == hi or vertex == 0 or varying >= vertex:
        # a pinned weight, no contributing terms, or the variable sits at or
        # right of the vertex: the time is one true value
        scenario = substitute(base, varying, lo) if lo == hi else base
        value, _ = _left_time_at_vertex(instance, vertex, scenario)
        return pwl.constant(value, lo, hi)

    x = instance.positions[vertex]
    # v_varying..v_{vertex-1} carry the variable in their prefix weights
    moving = arrival_envelope(
        instance, varying, vertex - 1, x, substitute(base, varying, 0), lo, hi
    )
    if varying == 0:
        return moving
    # the vertices left of v_varying do not move: their true, zero-aware time
    fixed = arrival_envelope(instance, 0, varying - 1, x, base, Fraction(0), Fraction(0))
    return pwl.merge_max(moving, pwl.constant(fixed.values[0], lo, hi))


def arrival_envelope(
    instance: PathInstance,
    first: int,
    last: int,
    x: Fraction,
    base: Scenario,
    lo: Fraction,
    hi: Fraction,
) -> PwlFunction:
    """Upper envelope of the arrival-time lines at sink x (x_last < x) of the
    vertices first..last, as a weight alpha in [lo, hi] is added to every one
    of their prefix weights over `base`.  A one-point range gives the true
    maximum, in which a vertex whose prefix weight is zero arrives at time 0.
    Size and build time O(last - first + 1).  Anything but
    0 <= first <= last < n and x_last < x is refused."""
    pos = instance.positions
    if not (0 <= first <= last < instance.n and pos[last] < x):
        raise PathModelError(
            f"arrival_envelope needs 0 <= first <= last < n and x_last < x, got {first}, {last}, {x}"
        )
    cap = min_capacity(instance, pos[last], x)
    lines: list[Line] = []
    weights: list[Fraction] = []
    for t in range(last, first - 1, -1):
        cap = min(cap, instance.capacities[t])
        weights.append(prefix_weight(base, 0, t))
        lines.append(Line(1 / cap, (x - pos[t]) + weights[-1] / cap))
    if lo == hi:
        value = max(
            (line.at(lo) for line, w in zip(lines, weights) if w + lo != 0),
            default=Fraction(0),
        )
        return pwl.constant(value, lo, hi)
    return pwl.upper_envelope(lines, (lo, hi))


def right_envelope_raw(
    instance: PathInstance,
    varying: int,
    vertex: int,
    base: Scenario,
    lo: RationalLike,
    hi: RationalLike,
) -> PwlFunction:
    """Right evacuation time at x_vertex as a function of the weight at
    v_varying: left_envelope_raw on the mirror image of the path.  Indices
    outside 0..n are refused as given, before they are mirrored."""
    n = instance.n
    if not (0 <= varying <= n and 0 <= vertex <= n):
        raise PathModelError(f"envelope indices out of range: {varying}, {vertex}")
    return left_envelope_raw(
        reflect_instance(instance), n - varying, n - vertex, reflect_scenario(base), lo, hi
    )


def cached_envelope(
    cache: SolveCache,
    side: str,
    varying: int,
    vertex: int,
    base: Scenario,
    lo: Fraction,
    hi: Fraction,
) -> PwlFunction:
    """left_envelope_raw or right_envelope_raw (by `side`) over the cache's
    instance, built once per cache."""
    build = left_envelope_raw if side == "left" else right_envelope_raw
    return cache.get(
        (side, varying, vertex, base, lo, hi),
        lambda: build(cache.instance, varying, vertex, base, lo, hi),
    )
