"""Exact piecewise-linear function algebra on closed rational intervals.

Functions are stored as breakpoints plus the values there, so continuity holds
by construction.  All arithmetic is over fractions.Fraction; every operation
documents its output-size bound.  restrict, add, merge_max, max_difference_all
and merge_min_to_total all evaluate their inputs on one grid, `_cuts`: the
interval ends and every input breakpoint between them.  Every pointwise min
or max of functions finds its crossings in merge_max.  Merges and sums are
canonical (no two neighbouring pieces on one line).
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Sequence

from .path_model import RationalLike, to_fraction


class PwlError(ValueError):
    """Raised when a piecewise-linear operation's precondition is violated."""


@dataclass(frozen=True)
class Line:
    """A line slope*x + intercept."""

    slope: Fraction
    intercept: Fraction

    def __init__(self, slope: RationalLike, intercept: RationalLike):
        object.__setattr__(self, "slope", to_fraction(slope))
        object.__setattr__(self, "intercept", to_fraction(intercept))

    def at(self, x: Fraction) -> Fraction:
        return self.slope * x + self.intercept


@dataclass(frozen=True)
class PwlFunction:
    """Continuous piecewise-linear function on [breakpoints[0], breakpoints[-1]].

    breakpoints are strictly increasing; values[t] is the function value at
    breakpoints[t].  A single-point domain (one breakpoint, no pieces) is
    allowed.  The function is *good* when all piece slopes are >= 0 and
    *positive* when they are all > 0 (vacuously true on a point domain).
    """

    breakpoints: tuple[Fraction, ...]
    values: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.breakpoints or len(self.breakpoints) != len(self.values):
            raise PwlError("breakpoints/values length mismatch or empty")
        for a, b in zip(self.breakpoints, self.breakpoints[1:]):
            if a >= b:
                raise PwlError("breakpoints must be strictly increasing")

    @property
    def lo(self) -> Fraction:
        return self.breakpoints[0]

    @property
    def hi(self) -> Fraction:
        return self.breakpoints[-1]

    @property
    def size(self) -> int:
        """Number of linear pieces."""
        return len(self.breakpoints) - 1

    def slopes(self) -> tuple[Fraction, ...]:
        return tuple(
            (v2 - v1) / (q2 - q1)
            for q1, q2, v1, v2 in zip(
                self.breakpoints, self.breakpoints[1:], self.values, self.values[1:]
            )
        )

    def is_good(self) -> bool:
        return all(m >= 0 for m in self.slopes())

    def is_positive(self) -> bool:
        return all(m > 0 for m in self.slopes())

    def __call__(self, x: RationalLike) -> Fraction:
        return evaluate(self, x)


def from_points(points: Sequence[tuple[Fraction, Fraction]]) -> PwlFunction:
    return PwlFunction(tuple(p for p, _ in points), tuple(v for _, v in points))


def constant(value: RationalLike, lo: RationalLike, hi: RationalLike) -> PwlFunction:
    value, lo, hi = to_fraction(value), to_fraction(lo), to_fraction(hi)
    if lo == hi:
        return PwlFunction((lo,), (value,))
    return PwlFunction((lo, hi), (value, value))


def canonical(f: PwlFunction) -> PwlFunction:
    """Merge consecutive co-linear pieces so sizes compare deterministically."""
    if f.size <= 1:
        return f
    qs = [f.breakpoints[0], f.breakpoints[1]]
    vs = [f.values[0], f.values[1]]
    for q, v in zip(f.breakpoints[2:], f.values[2:]):
        prev_slope = (vs[-1] - vs[-2]) / (qs[-1] - qs[-2])
        if v - vs[-1] == prev_slope * (q - qs[-1]):
            qs[-1], vs[-1] = q, v
        else:
            qs.append(q)
            vs.append(v)
    return PwlFunction(tuple(qs), tuple(vs))


def evaluate(f: PwlFunction, x: RationalLike) -> Fraction:
    """Exact value at x via binary search over breakpoints."""
    x = to_fraction(x)
    if x < f.lo or x > f.hi:
        raise PwlError(f"{x} outside domain [{f.lo}, {f.hi}]")
    idx = bisect_right(f.breakpoints, x) - 1
    if idx == len(f.breakpoints) - 1:
        return f.values[idx]
    q1, q2 = f.breakpoints[idx], f.breakpoints[idx + 1]
    v1, v2 = f.values[idx], f.values[idx + 1]
    return v1 + (v2 - v1) * (x - q1) / (q2 - q1)


def restrict(f: PwlFunction, lo: RationalLike, hi: RationalLike) -> PwlFunction:
    """Restriction to [lo, hi], which must lie within the domain."""
    lo, hi = to_fraction(lo), to_fraction(hi)
    if not f.lo <= lo <= hi <= f.hi:
        raise PwlError(f"restriction [{lo}, {hi}] is empty or outside [{f.lo}, {f.hi}]")
    qs = _cuts((f,), lo, hi)
    return PwlFunction(tuple(qs), tuple(_values_on(f, qs)))


# Envelope construction --------------------------------------------------------


def upper_envelope(
    lines: Sequence[Line], interval: tuple[RationalLike, RationalLike]
) -> PwlFunction:
    """Pointwise max of slope-sorted lines restricted to the interval.

    Equal-slope lines are pre-filtered keeping the max intercept; a single
    left-to-right stack sweep then builds the envelope.  Output size is at most
    the number of distinct slopes.
    """
    if not lines:
        raise PwlError("upper_envelope of an empty line set")
    lo, hi = to_fraction(interval[0]), to_fraction(interval[1])
    if lo > hi:
        raise PwlError("upper_envelope interval is empty")
    filtered: list[Line] = []
    for line in lines:
        if filtered and line.slope < filtered[-1].slope:
            raise PwlError("upper_envelope requires slopes in nondecreasing order")
        if filtered and line.slope == filtered[-1].slope:
            if line.intercept > filtered[-1].intercept:
                filtered[-1] = line
        else:
            filtered.append(line)

    if lo == hi:
        return PwlFunction((lo,), (max(line.at(lo) for line in filtered),))

    # stack of (line, start): line is the envelope from `start` onward
    stack: list[tuple[Line, Fraction]] = []
    for line in filtered:
        start = lo
        while stack:
            top, top_start = stack[-1]
            # beyond this point `line` (steeper) dominates `top`
            cross = (top.intercept - line.intercept) / (line.slope - top.slope)
            if cross <= top_start:
                stack.pop()
            else:
                start = cross
                break
        if start < hi:
            stack.append((line, start))

    points = [(lo, stack[0][0].at(lo))]
    for line, start in stack[1:]:
        points.append((start, line.at(start)))
    points.append((hi, stack[-1][0].at(hi)))
    return canonical(from_points(points))


# Pointwise algebra ------------------------------------------------------------


def _cuts(parts: Sequence[PwlFunction], lo: Fraction, hi: Fraction) -> list[Fraction]:
    """lo, hi and every breakpoint of the parts strictly between them,
    ascending (just [lo] when lo == hi)."""
    return sorted({lo, hi, *(q for p in parts for q in p.breakpoints if lo < q < hi)})


def _values_on(f: PwlFunction, qs: list[Fraction]) -> list[Fraction]:
    """Values of f at an ascending list of points inside its domain, by a
    single left-to-right walk."""
    bp, vals = f.breakpoints, f.values
    out = []
    i = 0
    last = len(bp) - 1
    for q in qs:
        while i < last and bp[i + 1] <= q:
            i += 1
        if bp[i] == q:
            out.append(vals[i])
        else:
            out.append(
                vals[i] + (vals[i + 1] - vals[i]) * (q - bp[i]) / (bp[i + 1] - bp[i])
            )
    return out


def add(f: PwlFunction, g: PwlFunction) -> PwlFunction:
    """Exact pointwise sum on the domain intersection."""
    lo, hi = max(f.lo, g.lo), min(f.hi, g.hi)
    if lo > hi:
        raise PwlError("add: disjoint domains")
    qs = _cuts((f, g), lo, hi)
    fv = _values_on(f, qs)
    gv = _values_on(g, qs)
    return canonical(from_points([(q, a + b) for q, a, b in zip(qs, fv, gv)]))


def add_const(f: PwlFunction, c: RationalLike) -> PwlFunction:
    c = to_fraction(c)
    return PwlFunction(f.breakpoints, tuple(v + c for v in f.values))


def scale(f: PwlFunction, c: RationalLike) -> PwlFunction:
    """Positive scaling c*f."""
    c = to_fraction(c)
    if c <= 0:
        raise PwlError("scale requires c > 0")
    return PwlFunction(f.breakpoints, tuple(c * v for v in f.values))


def shift_arg(f: PwlFunction, c: RationalLike) -> PwlFunction:
    """Argument translation: result(x) = f(x - c)."""
    c = to_fraction(c)
    return PwlFunction(tuple(q + c for q in f.breakpoints), f.values)


def inverse(f: PwlFunction) -> PwlFunction:
    """Inverse of a positive function; domain becomes [f(lo), f(hi)]."""
    if not f.is_positive():
        raise PwlError("inverse requires a positive function (all slopes > 0)")
    return PwlFunction(f.values, f.breakpoints)


def merge_max(f: PwlFunction, g: PwlFunction) -> PwlFunction:
    """Pointwise max on the domain intersection.

    Output breakpoints are the merged input breakpoints plus at most one
    crossing per merged piece.
    """
    lo, hi = max(f.lo, g.lo), min(f.hi, g.hi)
    if lo > hi:
        raise PwlError("merge_max: disjoint domains")
    qs = _cuts((f, g), lo, hi)
    fv = _values_on(f, qs)
    gv = _values_on(g, qs)
    points: list[tuple[Fraction, Fraction]] = [(qs[0], max(fv[0], gv[0]))]
    for t in range(len(qs) - 1):
        d1 = fv[t] - gv[t]
        d2 = fv[t + 1] - gv[t + 1]
        if (d1 > 0 > d2) or (d1 < 0 < d2):
            q1, q2 = qs[t], qs[t + 1]
            ratio = d1 / (d1 - d2)
            cross = q1 + (q2 - q1) * ratio
            if q1 < cross < q2:
                points.append((cross, fv[t] + (fv[t + 1] - fv[t]) * ratio))
        points.append((qs[t + 1], max(fv[t + 1], gv[t + 1])))
    return canonical(from_points(points))


def merge_min_total(f: PwlFunction, g: PwlFunction) -> PwlFunction:
    """Pointwise min on the domain intersection."""
    neg_f = PwlFunction(f.breakpoints, tuple(-v for v in f.values))
    neg_g = PwlFunction(g.breakpoints, tuple(-v for v in g.values))
    m = merge_max(neg_f, neg_g)
    return PwlFunction(m.breakpoints, tuple(-v for v in m.values))


def max_difference_all(f: PwlFunction, g: PwlFunction) -> tuple[Fraction, list[Fraction]]:
    """Max of f - g on the domain intersection and every breakpoint where it is
    attained, ascending.  The difference is linear between merged breakpoints,
    so endpoint evaluation per segment suffices (O(size_f + size_g))."""
    lo, hi = max(f.lo, g.lo), min(f.hi, g.hi)
    if lo > hi:
        raise PwlError("max_difference: disjoint domains")
    qs = _cuts((f, g), lo, hi)
    diffs = [a - b for a, b in zip(_values_on(f, qs), _values_on(g, qs))]
    best = max(diffs)
    return best, [q for q, d in zip(qs, diffs) if d == best]


# Min-merge over partial domains ------------------------------------------------


def merge_min_to_total(
    parts: Sequence[PwlFunction], lo: RationalLike, hi: RationalLike
) -> PwlFunction:
    """Pointwise min over [lo, hi] of functions defined on sub-intervals, which
    must be one continuous function there.

    Sweeps the merged breakpoints inside [lo, hi] once; inside each elementary
    interval the covering parts are plain segments, whose exact minimum is
    their pairwise merge_min_total.
    Raises PwlError at a gap, at a jump at an interior breakpoint, or where a
    single-point part dips below both sides of an interior breakpoint.  The
    values at lo and hi are those of the adjacent interval, so a dip exactly
    there is ignored; a one-point [lo, hi] takes the min of the parts there.
    """
    lo, hi = to_fraction(lo), to_fraction(hi)
    if lo > hi:
        raise PwlError(f"min-merge over an empty interval [{lo}, {hi}]")
    if lo == hi:
        vals = [evaluate(p, lo) for p in parts if p.lo <= lo <= p.hi]
        if not vals:
            raise PwlError(f"min-merge leaves {lo} uncovered")
        return PwlFunction((lo,), (min(vals),))
    singles = [p for p in parts if p.size == 0]
    cuts = _cuts(parts, lo, hi)
    # each part's values at the cuts it spans, by one walk per part
    walks = []
    for p in parts:
        a, b = bisect_left(cuts, p.lo), bisect_right(cuts, p.hi)
        if b - a > 1:
            walks.append((a, b, _values_on(p, cuts[a:b])))
    points: list[tuple[Fraction, Fraction]] = []
    for t, (q1, q2) in enumerate(zip(cuts, cuts[1:])):
        pairs = {(vals[t - a], vals[t + 1 - a]) for a, b, vals in walks if a <= t < b - 1}
        if not pairs:
            raise PwlError(f"min-merge leaves a gap in [{q1}, {q2}]")
        segment = reduce(merge_min_total, [PwlFunction((q1, q2), pair) for pair in pairs])
        if points:
            left = points.pop()[1]
            if left != segment.values[0]:
                raise PwlError(f"min-merge jumps at {q1}: {left} to {segment.values[0]}")
            if any(p.lo == q1 and p.values[0] < left for p in singles):
                raise PwlError(f"min-merge dips below {left} at {q1}")
        points.extend(zip(segment.breakpoints, segment.values))
    return canonical(from_points(points))
