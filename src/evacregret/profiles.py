"""Min-evacuation profiles: minimum of max-of-two-monotone-curves over a box
slice, with or without a transferable offset, and the vertex/edge evacuation
profiles built from them.

The two public constructions, min_max_profile and min_max_y_profile, compute
as functions of the total alpha, for curves nondecreasing on the box sides:

  min over (a1,a2) splits of alpha inside a box of max(fL(a1), fR(a2))
  min over splits and an offset y in [lo,hi] of max(fL(a1)+y, fR(a2)-y)

Each is assembled as the min-merge of a small set of witness functions, one
per structural condition a minimizer can satisfy (a pinned box coordinate, a
balanced crossing, a pinned offset endpoint, or a breakpoint of one curve
matched against slope-bracketed pieces of the other).  Every witness is the
value of some feasible choice, hence an upper bound pointwise, and at least
one witness is tight at every alpha, so the min-merge is exact.  All outputs
are good functions of size O(n).  A pinned coordinate's witness, `_pinned`,
is also the whole profile of a box with a one-point side.  The offset variant
is symmetric under y -> -y with the sides swapped, so the pieces that pin a
breakpoint of the right curve are the left rule, `_pinned_pieces`, applied to
(fR, fL) over (-y_hi, -y_lo).
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Iterator, Optional

from . import pwl
from .envelopes import SolveCache, cache_for, cached_envelope
from .path_model import (
    PathInstance,
    PathModelError,
    RationalLike,
    Scenario,
    to_fraction,
    two_varying,
)
from .pwl import PwlFunction


class ProfileError(ValueError):
    """Raised when a profile construction's precondition is violated."""


@dataclass(frozen=True)
class Box:
    """The rectangle [a1,a2] x [b1,b2] of feasible coordinate pairs."""

    a1: Fraction
    a2: Fraction
    b1: Fraction
    b2: Fraction

    def __init__(self, a1: RationalLike, a2: RationalLike, b1: RationalLike, b2: RationalLike):
        object.__setattr__(self, "a1", to_fraction(a1))
        object.__setattr__(self, "a2", to_fraction(a2))
        object.__setattr__(self, "b1", to_fraction(b1))
        object.__setattr__(self, "b2", to_fraction(b2))
        if self.a1 > self.a2 or self.b1 > self.b2:
            raise ProfileError("box sides must be nonempty intervals")

    @property
    def alpha_lo(self) -> Fraction:
        return self.a1 + self.b1

    @property
    def alpha_hi(self) -> Fraction:
        return self.a2 + self.b2


# Decomposition of flat-bottomed inputs ----------------------------------------


def _flat_split(f: PwlFunction) -> tuple[Optional[Fraction], Optional[PwlFunction]]:
    """Split a nondecreasing f into max(constant, strictly-increasing part).

    Returns (const, positive) where either may be None.  The positive part is
    the strictly increasing tail extended linearly down to the left domain
    edge, so max(const, positive) == f exactly.  Requires any flat run of f to
    be a single leading piece (true for canonical upper envelopes of lines).
    """
    f = pwl.canonical(f)
    slopes = f.slopes()
    if all(m > 0 for m in slopes):
        return None, f
    if slopes[0] != 0 or any(m <= 0 for m in slopes[1:]):
        raise ProfileError("input is not flat-bottomed nondecreasing")
    if len(slopes) == 1:
        return f.values[0], None
    # extend the first increasing piece leftward over the flat run
    head = f.values[1] - slopes[1] * (f.breakpoints[1] - f.lo)
    return f.values[0], PwlFunction((f.lo, *f.breakpoints[1:]), (head, *f.values[1:]))


def _require_within(f: PwlFunction, lo: Fraction, hi: Fraction, name: str):
    if f.lo > lo or f.hi < hi:
        raise ProfileError(
            f"{name} domain [{f.lo}, {f.hi}] does not cover [{lo}, {hi}]"
        )


# Core: min over box slices of max(fL, fR) --------------------------------------


def _min_against_const_left(f_right: PwlFunction, box: Box) -> PwlFunction:
    """min over the alpha-slice of fR(a2), the left side being a constant:
    fR is minimized by pushing a1 as high as feasible."""
    head = pwl.constant(f_right(box.b1), box.alpha_lo, box.a2 + box.b1)
    tail = pwl.shift_arg(pwl.restrict(f_right, box.b1, box.b2), box.a2)
    return pwl.merge_min_to_total([head, tail], box.alpha_lo, box.alpha_hi)


def _pinned(value: Fraction, moving: PwlFunction, shift: Fraction) -> PwlFunction:
    """max(value, moving(alpha - shift)): the witness of a box coordinate pinned
    at `shift`, where the pinned side's curve reads `value`."""
    return pwl.merge_max(
        pwl.shift_arg(moving, shift),
        pwl.constant(value, moving.lo + shift, moving.hi + shift),
    )


def _five_witness_profile(fl: PwlFunction, fr: PwlFunction, box: Box) -> PwlFunction:
    """The witness construction for strictly increasing fL, fR, given on the
    box sides: each side pinned at either end, and the balanced crossing."""
    witnesses = [
        _pinned(pinned.values[t], moving, pinned.breakpoints[t])
        for pinned, moving in ((fl, fr), (fr, fl))
        for t in (0, -1)
    ]
    # balanced crossing: invert both curves and re-invert their sum
    t_lo = max(fl.values[0], fr.values[0])
    t_hi = min(fl.values[-1], fr.values[-1])
    if t_lo <= t_hi:
        g = pwl.add(pwl.inverse(fl), pwl.inverse(fr))
        witnesses.append(pwl.inverse(pwl.restrict(g, t_lo, t_hi)))
    return pwl.merge_min_to_total(witnesses, box.alpha_lo, box.alpha_hi)


def min_max_profile(f_left: PwlFunction, f_right: PwlFunction, box: Box) -> PwlFunction:
    """min over (a1,a2) in the alpha-slice of the box of max(fL(a1), fR(a2)),
    for fL, fR nondecreasing on the box sides with any flat run one leading
    piece: good, of size at most 5*(size_fL + size_fR) + 8, in linear time."""
    a1, a2, b1, b2 = box.a1, box.a2, box.b1, box.b2
    _require_within(f_left, a1, a2, "f_left")
    _require_within(f_right, b1, b2, "f_right")
    if a1 == a2:
        return _pinned(f_left(a1), pwl.restrict(f_right, b1, b2), a1)
    if b1 == b2:
        return min_max_profile(f_right, f_left, Box(b1, b2, a1, a2))

    const_l, pos_l = _flat_split(pwl.restrict(f_left, a1, a2))
    const_r, pos_r = _flat_split(pwl.restrict(f_right, b1, b2))
    consts = [c for c in (const_l, const_r) if c is not None]

    if pos_l is None and pos_r is None:
        return pwl.constant(max(consts), box.alpha_lo, box.alpha_hi)
    # the min over splits of max(c, g) is max(c, min over splits of g)
    if pos_l is None:
        result = _min_against_const_left(pos_r, box)
    elif pos_r is None:
        result = _min_against_const_left(pos_l, Box(b1, b2, a1, a2))
    else:
        result = _five_witness_profile(pos_l, pos_r, box)
    for c in consts:
        result = pwl.merge_max(result, pwl.constant(c, result.lo, result.hi))
    return result


# Core: the offset variant ------------------------------------------------------


def _crossing(f: PwlFunction, t: int, v: Fraction) -> Fraction:
    """The x on f's piece t (from breakpoint t to t + 1) where f reads v."""
    q1, q2 = f.breakpoints[t], f.breakpoints[t + 1]
    v1, v2 = f.values[t], f.values[t + 1]
    return q1 + (v - v1) * (q2 - q1) / (v2 - v1)


def _preimage_interval(
    f: PwlFunction, v_lo: Fraction, v_hi: Fraction
) -> Optional[tuple[Fraction, Fraction]]:
    """[leftmost x with f(x) >= v_lo, rightmost x with f(x) <= v_hi] for
    nondecreasing f, or None when empty."""
    vals = f.values
    if v_lo > v_hi or vals[-1] < v_lo or vals[0] > v_hi:
        return None
    first, stop = bisect_left(vals, v_lo), bisect_right(vals, v_hi)
    lo = f.lo if first == 0 else _crossing(f, first - 1, v_lo)
    hi = f.hi if stop == len(vals) else _crossing(f, stop - 1, v_hi)
    return lo, hi


def _pinned_pieces(
    anchor: PwlFunction, moving: PwlFunction, y_lo: Fraction, y_hi: Fraction
) -> Iterator[PwlFunction]:
    """Witness pieces for minimizers that pin the anchor's argument at one of
    its breakpoints, crit, where it reads v: (v + moving)/2, shifted by crit,
    wherever the balanced offset (moving - v)/2 lies in [y_lo, y_hi].  At
    either end of the anchor's domain the whole moving curve may balance it;
    at an interior breakpoint only the run of moving pieces whose slopes lie
    between the two anchor slopes meeting there."""
    slopes_a, slopes_m = anchor.slopes(), moving.slopes()
    for k, (crit, v) in enumerate(zip(anchor.breakpoints, anchor.values)):
        first, stop = 0, moving.size
        if 0 < k < anchor.size:
            first = bisect_left(slopes_m, slopes_a[k - 1])
            stop = bisect_right(slopes_m, slopes_a[k])
        if first >= stop:
            continue  # no moving slope lies between the two anchor slopes
        window = _preimage_interval(moving, v + 2 * y_lo, v + 2 * y_hi)
        if window is None:
            continue
        lo, hi = max(window[0], moving.breakpoints[first]), min(window[1], moving.breakpoints[stop])
        if lo <= hi:
            piece = pwl.scale(pwl.add_const(pwl.restrict(moving, lo, hi), v), Fraction(1, 2))
            yield pwl.shift_arg(piece, crit)


def min_max_y_profile(
    f_left: PwlFunction,
    f_right: PwlFunction,
    box: Box,
    y_range: tuple[RationalLike, RationalLike],
) -> PwlFunction:
    """min over slices and y in y_range of max(fL(a1)+y, fR(a2)-y), for fL, fR
    nondecreasing on the box sides with strictly increasing slopes: good, with
    O(size_fL + size_fR) pieces."""
    y_lo, y_hi = to_fraction(y_range[0]), to_fraction(y_range[1])
    a1, a2, b1, b2 = box.a1, box.a2, box.b1, box.b2
    _require_within(f_left, a1, a2, "f_left")
    _require_within(f_right, b1, b2, "f_right")
    if y_lo > y_hi:
        raise ProfileError("offset range is empty")
    fl = pwl.canonical(pwl.restrict(f_left, a1, a2))
    fr = pwl.canonical(pwl.restrict(f_right, b1, b2))
    for f, name in ((fl, "f_left"), (fr, "f_right")):
        slopes = f.slopes()
        if any(m < 0 for m in slopes):
            raise ProfileError(f"{name} must be nondecreasing")
        if any(m2 <= m1 for m1, m2 in zip(slopes, slopes[1:])):
            raise ProfileError(f"{name} slope sequence must be strictly increasing")

    if a1 == a2:
        moved = pwl.shift_arg(fr, a1)
        return reduce(pwl.merge_max, [
            pwl.constant(fl(a1) + y_lo, moved.lo, moved.hi),
            pwl.scale(pwl.add_const(moved, fl(a1)), Fraction(1, 2)),
            pwl.add_const(moved, -y_hi),
        ])
    if b1 == b2:
        # y -> -y swaps the roles of the two sides
        return min_max_y_profile(fr, fl, Box(b1, b2, a1, a2), (-y_hi, -y_lo))

    # an offset pinned at either end, then a breakpoint of either curve pinned
    witnesses = [
        min_max_profile(pwl.add_const(fl, y), pwl.add_const(fr, -y), box) for y in (y_lo, y_hi)
    ]
    witnesses += _pinned_pieces(fl, fr, y_lo, y_hi)
    witnesses += _pinned_pieces(fr, fl, -y_hi, -y_lo)
    result = pwl.merge_min_to_total(witnesses, box.alpha_lo, box.alpha_hi)
    if not result.is_good():
        raise ProfileError("offset profile came out non-monotone; witness bug")
    return result


# Vertex and edge evacuation profiles -------------------------------------------
#
# The builders below take the SolveCache of their instance and memoize every
# part a neighbouring vertex or edge reuses: one-sided envelopes and vertex
# profiles.


def _vertex_profile_core(
    base: Scenario, vi: int, vj: int, k: int, box: Box, cache: SolveCache
) -> PwlFunction:
    def build() -> PwlFunction:
        f_left = cached_envelope(cache, "left", vi, k, base, box.a1, box.a2)
        f_right = cached_envelope(cache, "right", vj, k, base, box.b1, box.b2)
        return min_max_profile(f_left, f_right, box)

    return cache.get(("vertex_profile", base, vi, vj, k, box), build)


def _edge_profile_core(
    base: Scenario, vi: int, vj: int, k: int, box: Box, cache: SolveCache
) -> PwlFunction:
    at_left = _vertex_profile_core(base, vi, vj, k, box, cache)
    at_right = _vertex_profile_core(base, vi, vj, k + 1, box, cache)
    xk = cache.instance.positions[k]
    xk1 = cache.instance.positions[k + 1]
    f_left = pwl.add_const(
        cached_envelope(cache, "left", vi, k + 1, base, box.a1, box.a2), -xk1
    )
    f_right = pwl.add_const(
        cached_envelope(cache, "right", vj, k, base, box.b1, box.b2), xk
    )
    interior = min_max_y_profile(f_left, f_right, box, (xk, xk1))
    # a side with no weight contributes zero, not its (negative) line value
    interior = pwl.merge_max(interior, pwl.constant(0, interior.lo, interior.hi))
    return pwl.merge_min_total(pwl.merge_min_total(at_left, at_right), interior)


def vertex_min_profile(
    instance: PathInstance, i: int, j: int, k: int, box: Box
) -> PwlFunction:
    """Min over box slices of the evacuation time at x_k under two-varying
    scenarios with free weights at i and j (i <= k <= j)."""
    if not (0 <= i <= k <= j < instance.vertex_count):
        raise PathModelError(f"vertex_min_profile requires i <= k <= j, got {i},{k},{j}")
    base = two_varying(instance, i, j, 0, 0)
    return _vertex_profile_core(base, i, j, k, box, SolveCache(instance))


def edge_min_profile(
    instance: PathInstance,
    i: int,
    j: int,
    k: int,
    box: Box,
    *,
    cache: Optional[SolveCache] = None,
) -> PwlFunction:
    """Min over box slices and sink positions on edge [x_k, x_{k+1}] of the
    evacuation time under two-varying scenarios (i <= k < j).  `cache`, when
    given, is the instance's SolveCache; it changes no result."""
    if not (0 <= i <= k < j < instance.vertex_count):
        raise PathModelError(f"edge_min_profile requires i <= k < j, got {i},{k},{j}")
    base = two_varying(instance, i, j, 0, 0)
    return _edge_profile_core(base, i, j, k, box, cache_for(instance, cache))


def edge_min_profile_single(
    instance: PathInstance,
    j: int,
    k: int,
    base: Scenario,
    alpha_range: tuple[RationalLike, RationalLike],
    *,
    cache: Optional[SolveCache] = None,
) -> PwlFunction:
    """Min over sink positions on edge [x_k, x_{k+1}] of the evacuation time
    with only the weight at v_j varying, all others fixed by `base`.

    Built as the two-varying edge profile with a second coordinate pinned at
    its base weight w: the weight at v_n for j <= k, at v_0 for j > k.  The
    pinned vertex is the far end of the path, not a neighbour of the edge, so
    neighbouring edges share their vertex profiles in `cache`.  `cache`, when
    given, is the instance's SolveCache; it changes no result.
    """
    lo, hi = to_fraction(alpha_range[0]), to_fraction(alpha_range[1])
    if not (0 <= k < instance.n and 0 <= j < instance.vertex_count):
        raise PathModelError(f"edge_min_profile_single indices out of range: {j},{k}")
    cache = cache_for(instance, cache)
    n = instance.n
    if j <= k:
        w = base.weights[n]
        core = _edge_profile_core(base, j, n, k, Box(lo, hi, w, w), cache)
    else:
        w = base.weights[0]
        core = _edge_profile_core(base, 0, j, k, Box(w, w, lo, hi), cache)
    return pwl.shift_arg(core, -w)
