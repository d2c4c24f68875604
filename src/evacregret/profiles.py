"""Min-evacuation profiles: minimum of max-of-two-monotone-curves over a box
slice, with or without a transferable offset, and the vertex/edge evacuation
profiles built from them.

The two core constructions compute, as functions of the total alpha:

  min over (a1,a2) splits of alpha inside a box of max(fL(a1), fR(a2))
  min over splits and an offset y in [lo,hi] of max(fL(a1)+y, fR(a2)-y)

Each is assembled as the min-merge of a small set of witness functions, one
per structural condition a minimizer can satisfy (a pinned box coordinate, a
balanced crossing, a pinned offset endpoint, or a breakpoint of one curve
matched against slope-bracketed pieces of the other).  Every witness is the
value of some feasible choice, hence an upper bound pointwise, and at least
one witness is tight at every alpha, so the min-merge is exact.  All outputs
are good functions of size O(n).  A pinned coordinate's witness, `_pinned`,
is also the whole profile of a box with a one-point side.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
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
    if not slopes:
        return f.values[0], None
    if all(m > 0 for m in slopes):
        return None, f
    if slopes[0] != 0 or any(m <= 0 for m in slopes[1:]):
        raise ProfileError("input is not flat-bottomed nondecreasing")
    if len(slopes) == 1:
        return f.values[0], None
    # extend the first increasing piece leftward over the flat run
    const = f.values[0]
    qs = list(f.breakpoints[1:])
    vs = list(f.values[1:])
    lead_q, lead_v = qs[0], vs[0]
    slope = (vs[1] - vs[0]) / (qs[1] - qs[0])
    qs.insert(0, f.lo)
    vs.insert(0, lead_v - slope * (lead_q - f.lo))
    return const, PwlFunction(tuple(qs), tuple(vs))


def _require_within(f: PwlFunction, lo: Fraction, hi: Fraction, name: str):
    if f.lo > lo or f.hi < hi:
        raise ProfileError(
            f"{name} domain [{f.lo}, {f.hi}] does not cover [{lo}, {hi}]"
        )


def _require_positive(f_left: PwlFunction, f_right: PwlFunction, box: Box, caller: str):
    sides = ((f_left, box.a1, box.a2, "f_left"), (f_right, box.b1, box.b2, "f_right"))
    for f, lo, hi, name in sides:
        if lo < hi and not pwl.restrict(f, lo, hi).is_positive():
            raise ProfileError(f"{caller} requires positive {name}")


# Core: min over box slices of max(fL, fR) --------------------------------------


def _min_against_const_left(c: Fraction, f_right: PwlFunction, box: Box) -> PwlFunction:
    """min over the alpha-slice of max(c, fR(a2)): fR is minimized by pushing
    a1 as high as feasible."""
    head = pwl.constant(f_right(box.b1), box.alpha_lo, box.a2 + box.b1)
    tail = pwl.shift_arg(pwl.restrict(f_right, box.b1, box.b2), box.a2)
    joined = pwl.merge_min_to_total([head, tail], box.alpha_lo, box.alpha_hi)
    return pwl.merge_max(joined, pwl.constant(c, joined.lo, joined.hi))


def _pinned(value: Fraction, moving: PwlFunction, shift: Fraction) -> PwlFunction:
    """max(value, moving(alpha - shift)): the witness of a box coordinate pinned
    at `shift`, where the pinned side's curve reads `value`."""
    return pwl.merge_max(
        pwl.shift_arg(moving, shift),
        pwl.constant(value, moving.lo + shift, moving.hi + shift),
    )


def _five_witness_profile(f_left: PwlFunction, f_right: PwlFunction, box: Box) -> PwlFunction:
    """The witness construction for strictly increasing fL, fR."""
    a1, a2, b1, b2 = box.a1, box.a2, box.b1, box.b2
    witnesses = [
        _pinned(f_left(a1), pwl.restrict(f_right, b1, b2), a1),
        _pinned(f_left(a2), pwl.restrict(f_right, b1, b2), a2),
        _pinned(f_right(b1), pwl.restrict(f_left, a1, a2), b1),
        _pinned(f_right(b2), pwl.restrict(f_left, a1, a2), b2),
    ]

    # balanced crossing: invert both curves and re-invert their sum
    t_lo = max(f_left(a1), f_right(b1))
    t_hi = min(f_left(a2), f_right(b2))
    if t_lo <= t_hi:
        g = pwl.add(pwl.inverse(pwl.restrict(f_left, a1, a2)),
                    pwl.inverse(pwl.restrict(f_right, b1, b2)))
        witnesses.append(pwl.inverse(pwl.restrict(g, t_lo, t_hi)))

    return pwl.merge_min_to_total(witnesses, box.alpha_lo, box.alpha_hi)


def _min_max_core(f_left: PwlFunction, f_right: PwlFunction, box: Box) -> PwlFunction:
    """min over slices of max(fL(a1), fR(a2)) for flat-bottomed good inputs."""
    a1, a2, b1, b2 = box.a1, box.a2, box.b1, box.b2
    _require_within(f_left, a1, a2, "f_left")
    _require_within(f_right, b1, b2, "f_right")
    if a1 == a2:
        return _pinned(f_left(a1), pwl.restrict(f_right, b1, b2), a1)
    if b1 == b2:
        return _min_max_core(f_right, f_left, Box(b1, b2, a1, a2))

    const_l, pos_l = _flat_split(pwl.restrict(f_left, a1, a2))
    const_r, pos_r = _flat_split(pwl.restrict(f_right, b1, b2))
    consts = [c for c in (const_l, const_r) if c is not None]

    if pos_l is None and pos_r is None:
        return pwl.constant(max(consts), box.alpha_lo, box.alpha_hi)
    if pos_l is None:
        result = _min_against_const_left(const_l, pos_r, box)
    elif pos_r is None:
        result = _min_against_const_left(const_r, pos_l, Box(b1, b2, a1, a2))
    else:
        result = _five_witness_profile(pos_l, pos_r, box)
    for c in consts:
        result = pwl.merge_max(result, pwl.constant(c, result.lo, result.hi))
    return result


def min_max_profile(f_left: PwlFunction, f_right: PwlFunction, box: Box) -> PwlFunction:
    """min over (a1,a2) in the alpha-slice of the box of max(fL(a1), fR(a2)).

    Inputs must be positive (strictly increasing) on the box sides; the result
    is good, of size at most 5*(size_fL + size_fR) + 8, built in linear time.
    """
    _require_positive(f_left, f_right, box, "min_max_profile")
    return _min_max_core(f_left, f_right, box)


# Core: the offset variant ------------------------------------------------------


def _preimage_interval(
    f: PwlFunction, v_lo: Fraction, v_hi: Fraction
) -> Optional[tuple[Fraction, Fraction]]:
    """[leftmost x with f(x) >= v_lo, rightmost x with f(x) <= v_hi] for
    nondecreasing f, or None when empty."""
    if v_lo > v_hi or f.values[-1] < v_lo or f.values[0] > v_hi:
        return None
    if f.values[0] >= v_lo:
        lo = f.lo
    else:
        idx = next(i for i, v in enumerate(f.values) if v >= v_lo)
        q1, q2 = f.breakpoints[idx - 1], f.breakpoints[idx]
        v1, v2 = f.values[idx - 1], f.values[idx]
        lo = q1 + (v_lo - v1) * (q2 - q1) / (v2 - v1)
    if f.values[-1] <= v_hi:
        hi = f.hi
    else:
        ridx = max(i for i, v in enumerate(f.values) if v <= v_hi)
        q1, q2 = f.breakpoints[ridx], f.breakpoints[ridx + 1]
        v1, v2 = f.values[ridx], f.values[ridx + 1]
        hi = q1 + (v_hi - v1) * (q2 - q1) / (v2 - v1)
    if lo > hi:
        return None
    return lo, hi


def _balanced_piece(
    pinned_value: Fraction,
    moving: PwlFunction,
    arg_shift: Fraction,
    arg_window: Optional[tuple[Fraction, Fraction]],
    y_lo: Fraction,
    y_hi: Fraction,
    moving_is_right: bool,
) -> Optional[PwlFunction]:
    """Witness piece (pinned + moving)/2 on the sub-domain where the balanced
    offset (moving - pinned)/2 (sign per side) stays within [y_lo, y_hi]."""
    if moving_is_right:
        window = _preimage_interval(moving, pinned_value + 2 * y_lo, pinned_value + 2 * y_hi)
    else:
        window = _preimage_interval(moving, pinned_value - 2 * y_hi, pinned_value - 2 * y_lo)
    if window is None:
        return None
    lo, hi = window
    if arg_window is not None:
        lo, hi = max(lo, arg_window[0]), min(hi, arg_window[1])
        if lo > hi:
            return None
    piece = pwl.scale(pwl.add_const(pwl.restrict(moving, lo, hi), pinned_value), Fraction(1, 2))
    return pwl.shift_arg(piece, arg_shift)


def _min_max_offset_core(
    f_left: PwlFunction,
    f_right: PwlFunction,
    box: Box,
    y_lo: Fraction,
    y_hi: Fraction,
) -> PwlFunction:
    """min over slices and y in [y_lo, y_hi] of max(fL(a1)+y, fR(a2)-y)."""
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
        return _min_max_offset_core(fr, fl, Box(b1, b2, a1, a2), -y_hi, -y_lo)

    witnesses: list[PwlFunction] = [
        _min_max_core(pwl.add_const(fl, y_lo), pwl.add_const(fr, -y_lo), box),
        _min_max_core(pwl.add_const(fl, y_hi), pwl.add_const(fr, -y_hi), box),
    ]
    for pinned, moving, pinned_arg, is_right in (
        (fl, fr, a1, True),
        (fl, fr, a2, True),
        (fr, fl, b1, False),
        (fr, fl, b2, False),
    ):
        piece = _balanced_piece(
            pinned(pinned_arg), moving, pinned_arg, None, y_lo, y_hi, is_right
        )
        if piece is not None:
            witnesses.append(piece)

    # breakpoint-matching witness: each interior breakpoint of one curve paired
    # with the slope-bracketed run of the other
    witnesses += _matching_witness(fl, fr, y_lo, y_hi, left_side=True)
    witnesses += _matching_witness(fl, fr, y_lo, y_hi, left_side=False)

    result = pwl.merge_min_to_total(witnesses, box.alpha_lo, box.alpha_hi)
    if not result.is_good():
        raise ProfileError("offset profile came out non-monotone; witness bug")
    return result


def _matching_witness(
    fl: PwlFunction, fr: PwlFunction, y_lo: Fraction, y_hi: Fraction, left_side: bool
) -> list[PwlFunction]:
    """Witness pieces for minimizers pinning a breakpoint of one curve: the
    matched run of the other curve is the contiguous block of pieces whose
    slopes fall between the two slopes meeting at the breakpoint."""
    anchor, moving = (fl, fr) if left_side else (fr, fl)
    slopes_a = anchor.slopes()
    slopes_m = moving.slopes()
    pieces: list[PwlFunction] = []
    for k in range(1, len(slopes_a)):
        m_lo, m_hi = slopes_a[k - 1], slopes_a[k]
        s_first = next((s for s, m in enumerate(slopes_m) if m >= m_lo), None)
        if s_first is None or slopes_m[s_first] > m_hi:
            continue
        s_last = max(s for s, m in enumerate(slopes_m) if m <= m_hi)
        window = (moving.breakpoints[s_first], moving.breakpoints[s_last + 1])
        crit = anchor.breakpoints[k]
        piece = _balanced_piece(
            anchor(crit), moving, crit, window, y_lo, y_hi, moving_is_right=left_side
        )
        if piece is not None:
            pieces.append(piece)
    return pieces


def min_max_y_profile(
    f_left: PwlFunction,
    f_right: PwlFunction,
    box: Box,
    y_range: tuple[RationalLike, RationalLike],
) -> PwlFunction:
    """Offset variant: min over slices and y of max(fL(a1)+y, fR(a2)-y).

    Requires positive inputs with strictly increasing slope sequences; output
    is good with O(size_fL + size_fR) pieces.
    """
    y_lo, y_hi = to_fraction(y_range[0]), to_fraction(y_range[1])
    _require_positive(f_left, f_right, box, "min_max_y_profile")
    return _min_max_offset_core(f_left, f_right, box, y_lo, y_hi)


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
        return _min_max_core(f_left, f_right, box)

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
    interior = _min_max_offset_core(f_left, f_right, box, xk, xk1)
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
