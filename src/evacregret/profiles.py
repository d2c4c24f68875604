"""Min-evacuation profiles: minimum of max-of-two-monotone-curves over a box
slice, with or without a transferable offset, and the vertex/edge evacuation
profiles built from them.

The two public constructions, min_max_profile and min_max_y_profile, compute
as functions of the total alpha, for curves nondecreasing on the box sides:

  min over (a1,a2) splits of alpha inside a box of max(fL(a1), fR(a2))
  min over splits and an offset y in [lo,hi] of max(fL(a1)+y, fR(a2)-y)

min_max_profile is one level-set inverse: at level t the feasible a1 are
[a1, gL(t)], gL the largest argument where fL is at most t, and likewise a2,
so after a flat head the profile is the inverse of gL + gR; a one-point,
all-flat or flat-bottomed side needs no code of its own.  The offset variant
is the min-merge of three witnesses over the whole alpha range, each the
value of some feasible choice: the offset pinned at either end of its range,
and the balanced witness, `_balanced_witness`, one walk over both curves'
pieces in ascending slope order (their least-sum splits) with the offset
balancing the two curves clamped into its range.  One witness is tight at
every alpha, so the min-merge is exact and good, of size O(n); a one-point
side or box is a walk like any other.  An edge profile is one min-merge of
its two vertex profiles and the balanced witness.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

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


def _require_within(f: PwlFunction, lo: Fraction, hi: Fraction, name: str):
    if f.lo > lo or f.hi < hi:
        raise ProfileError(
            f"{name} domain [{f.lo}, {f.hi}] does not cover [{lo}, {hi}]"
        )


# Core: min over box slices of max(fL, fR) --------------------------------------


def _largest_argument(f: PwlFunction, lo: Fraction, hi: Fraction, top: Fraction) -> PwlFunction:
    """t -> max{a in [lo, hi] : f(a) <= t} on [f(lo), top], for top >= f(hi)
    and f nondecreasing on [lo, hi] with any flat run one leading piece: the
    inverse of f's strictly rising part, then the constant hi up to top."""
    f = pwl.canonical(pwl.restrict(f, lo, hi))
    slopes = f.slopes()
    flat = 1 if slopes and slopes[0] == 0 else 0
    if any(m <= 0 for m in slopes[flat:]):
        raise ProfileError("input is not flat-bottomed nondecreasing")
    g = pwl.inverse(PwlFunction(f.breakpoints[flat:], f.values[flat:]))
    return g if top == g.hi else PwlFunction((*g.breakpoints, top), (*g.values, hi))


def min_max_profile(f_left: PwlFunction, f_right: PwlFunction, box: Box) -> PwlFunction:
    """min over (a1,a2) in the alpha-slice of the box of max(fL(a1), fR(a2)),
    for fL, fR nondecreasing on the box sides with any flat run one leading
    piece: good, of size at most size_fL + size_fR + 3, in linear time.

    At level t the a1 with fL(a1) <= t are [a1, gL(t)], gL the largest
    argument, and likewise for a2, so the profile at alpha is the least
    t >= t0 = max(fL(a1), fR(b1)) with gL(t) + gR(t) >= alpha: t0 up to
    alpha = gL(t0) + gR(t0), then the inverse of gL + gR, which rises strictly
    below the top level max(fL(a2), fR(b2)) because one side still rises."""
    _require_within(f_left, box.a1, box.a2, "f_left")
    _require_within(f_right, box.b1, box.b2, "f_right")
    top = max(f_left(box.a2), f_right(box.b2))
    rise = pwl.inverse(pwl.add(
        _largest_argument(f_left, box.a1, box.a2, top),
        _largest_argument(f_right, box.b1, box.b2, top),
    ))
    if rise.lo == box.alpha_lo:
        return rise
    return PwlFunction((box.alpha_lo, *rise.breakpoints), (rise.values[0], *rise.values))


# Core: the offset variant ------------------------------------------------------


def _balanced_witness(
    f_left: PwlFunction, f_right: PwlFunction, box: Box, y_lo: Fraction, y_hi: Fraction
) -> PwlFunction:
    """The offset variant's witness over the whole alpha range, after
    checking its preconditions: the least-sum split with its best offset.
    The least-sum splits are one walk over both curves' pieces in ascending
    slope order, the left first on ties (the inf-convolution of two convex
    curves); with L = fL(a1) and R = fR(a2) at a walked split, the best y
    is the balancing offset (R - L)/2 clamped into [y_lo, y_hi], of value
    max((L + R)/2, L + y_lo, R - y_hi).  L and R are linear along a step,
    so the value is too, except where the balancing offset crosses y_lo or
    y_hi, which become breakpoints.

    Exact with the end-pinned witnesses: for a fixed split the best y is the
    balancing offset when in range, giving (fL + fR)/2, else the nearer end
    of the range.  Along the alpha-slice (fL + fR)/2 is convex and the
    balancing offset falls as a1 grows, so the best in-range split is the
    least-sum split with the largest a1 (the one walked), and there this
    witness is tight.  Elsewhere it is the value of a feasible choice with
    the offset at an end of its range, never below what the end-pinned
    profiles hold there (min_max_y_profile's two min_max_profiles, or the
    vertex profiles in _edge_profile_core), and one of those is tight."""
    _require_within(f_left, box.a1, box.a2, "f_left")
    _require_within(f_right, box.b1, box.b2, "f_right")
    if y_lo > y_hi:
        raise ProfileError("offset range is empty")
    fl = pwl.canonical(pwl.restrict(f_left, box.a1, box.a2))
    fr = pwl.canonical(pwl.restrict(f_right, box.b1, box.b2))
    slopes_l, slopes_r = fl.slopes(), fr.slopes()
    for slopes, name in ((slopes_l, "f_left"), (slopes_r, "f_right")):
        if any(m < 0 for m in slopes):
            raise ProfileError(f"{name} must be nondecreasing")
        if any(m2 <= m1 for m1, m2 in zip(slopes, slopes[1:])):
            raise ProfileError(f"{name} slope sequence must be strictly increasing")
    i = j = 0
    points = [(box.alpha_lo, fl.values[0], fr.values[0])]
    for _, side in sorted([(m, 0) for m in slopes_l] + [(m, 1) for m in slopes_r]):
        i, j = (i + 1, j) if side == 0 else (i, j + 1)
        x0, l0, r0 = points[-1]
        x1, l1, r1 = end = (fl.breakpoints[i] + fr.breakpoints[j], fl.values[i], fr.values[j])
        # twice the balancing offset, R - L, is linear along the step
        drift = (r1 - l1) - (r0 - l0)
        if drift:
            for t in sorted({(2 * y - (r0 - l0)) / drift for y in (y_lo, y_hi)}):
                if 0 < t < 1:
                    points.append((x0 + t * (x1 - x0), l0 + t * (l1 - l0), r0 + t * (r1 - r0)))
        points.append(end)
    return PwlFunction(
        tuple(x for x, _, _ in points),
        tuple(max((l + r) / 2, l + y_lo, r - y_hi) for _, l, r in points),
    )


def min_max_y_profile(
    f_left: PwlFunction,
    f_right: PwlFunction,
    box: Box,
    y_range: tuple[RationalLike, RationalLike],
) -> PwlFunction:
    """min over slices and y in y_range of max(fL(a1)+y, fR(a2)-y), for fL, fR
    nondecreasing on the box sides with strictly increasing slopes: good, with
    O(size_fL + size_fR) pieces.  The min-merge of the balanced witness and the
    two profiles with y pinned at y_lo and at y_hi; where the balanced
    witness clamps its offset, one of the pinned profiles is tight."""
    y_lo, y_hi = to_fraction(y_range[0]), to_fraction(y_range[1])
    result = _balanced_witness(f_left, f_right, box, y_lo, y_hi)
    for y in (y_lo, y_hi):
        pinned = min_max_profile(pwl.add_const(f_left, y), pwl.add_const(f_right, -y), box)
        result = pwl.merge_min_total(result, pinned)
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
    """The least time over sinks y on [x_k, x_{k+1}]: one min-merge of the two
    vertex profiles and the balanced witness, floored at 0 (a side with no
    weight contributes zero).  Where the balanced witness clamps the sink to
    x_k or x_{k+1}, it is never below the vertex profile there: at
    y = x_k the left curve, the left envelope at x_{k+1} less the edge length,
    is line by line at or above the left envelope at x_k (each bottleneck
    capacity can only fall, and v_k adds a line), and the right curve is the
    right envelope at x_k itself; by reflection, the same holds at x_{k+1}."""
    xk, xk1 = cache.instance.positions[k : k + 2]
    f_left = pwl.add_const(cached_envelope(cache, "left", vi, k + 1, base, box.a1, box.a2), -xk1)
    f_right = pwl.add_const(cached_envelope(cache, "right", vj, k, base, box.b1, box.b2), xk)
    least = _balanced_witness(f_left, f_right, box, xk, xk1)
    for t in (k, k + 1):
        least = pwl.merge_min_total(least, _vertex_profile_core(base, vi, vj, t, box, cache))
    return pwl.merge_max(least, pwl.constant(0, least.lo, least.hi))


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
