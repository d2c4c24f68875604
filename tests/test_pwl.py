"""Exact piecewise-linear algebra: envelopes, inverses, merges, differences."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evacregret import pwl
from evacregret.pwl import Line, PwlError, PwlFunction

from conftest import random_positive_pwl, rational


def line(m, b):
    return Line(Fraction(m), Fraction(b))


def test_envelope_crossing():
    e = pwl.upper_envelope([line(0, 1), line(1, 0)], (0, 2))
    assert e.breakpoints == (0, 1, 2)
    assert e.values == (1, 1, 2)


def test_envelope_single_line():
    e = pwl.upper_envelope([line(2, 1)], (0, 3))
    assert e.values == (1, 7)


def test_envelope_hidden_line():
    e = pwl.upper_envelope([line(0, 0), line(1, -10)], (0, 2))
    assert e.values == (0, 0)


def test_envelope_empty_raises():
    with pytest.raises(PwlError):
        pwl.upper_envelope([], (0, 1))


def test_envelope_on_empty_and_one_point_intervals():
    lines = [line(0, 1), line(1, 0)]
    with pytest.raises(PwlError, match="interval is empty"):
        pwl.upper_envelope(lines, (2, 1))
    e = pwl.upper_envelope(lines, (3, 3))
    assert e.breakpoints == (3,) and e.values == (3,)
    e = pwl.upper_envelope(lines, (0, 0))
    assert e.breakpoints == (0,) and e.values == (1,)


def test_envelope_unsorted_raises():
    with pytest.raises(PwlError):
        pwl.upper_envelope([line(1, 0), line(0, 0)], (0, 1))


def test_envelope_equal_slope_dedup():
    e = pwl.upper_envelope([line(1, 0), line(1, 5)], (0, 2))
    assert e.values == (5, 7)


def test_envelope_random_pointwise():
    rng = random.Random(11)
    for _ in range(30):
        lines = sorted(
            (
                Line(rational(rng, 0, 4, 8), rational(rng, -4, 4, 8))
                for _ in range(rng.randint(1, 10))
            ),
            key=lambda l: (l.slope, l.intercept),
        )
        lo, hi = Fraction(-2), Fraction(3)
        env = pwl.upper_envelope(lines, (lo, hi))
        assert env.size <= len({l.slope for l in lines})
        for _ in range(35):
            x = rational(rng, lo, hi, 64)
            assert env(x) == max(l.at(x) for l in lines)
        for q in env.breakpoints:
            assert env(q) == max(l.at(q) for l in lines)


def test_inverse_affine():
    f = pwl.from_points([(Fraction(0), Fraction(1)), (Fraction(3), Fraction(7))])
    inv = pwl.inverse(f)
    assert inv.breakpoints == (1, 7)
    assert inv.values == (0, 3)
    assert pwl.inverse(inv) == f


def test_inverse_two_piece_roundtrip():
    f = pwl.from_points(
        [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(1)), (Fraction(2), Fraction(3))]
    )
    inv = pwl.inverse(f)
    for q in inv.breakpoints:
        assert f(inv(q)) == q
    assert inv(2) == Fraction(3, 2)


def test_inverse_requires_positive():
    with pytest.raises(PwlError):
        pwl.inverse(pwl.constant(1, 0, 1))


def test_inverse_random_roundtrip():
    rng = random.Random(17)
    for _ in range(25):
        f = random_positive_pwl(rng, 0, 3)
        inv = pwl.inverse(f)
        for q in f.breakpoints:
            assert inv(f(q)) == q
        x = rational(rng, f.lo, f.hi, 32)
        assert inv(f(x)) == x


def test_add_scale_shift():
    f = pwl.from_points([(Fraction(0), Fraction(0)), (Fraction(2), Fraction(2))])
    g = pwl.constant(1, 0, 2)
    assert pwl.add(f, g)(1) == 2
    assert pwl.shift_arg(f, 1).breakpoints == (1, 3)
    assert pwl.shift_arg(f, 1)(2) == 1
    with pytest.raises(PwlError):
        pwl.add(f, pwl.constant(0, 5, 6))


def test_merge_max_examples():
    f = pwl.from_points([(Fraction(0), Fraction(0)), (Fraction(2), Fraction(2))])
    m = pwl.merge_max(f, pwl.constant(1, 0, 2))
    assert m.breakpoints == (0, 1, 2)
    assert m.values == (1, 1, 2)


GRID = st.integers(0, 16).map(lambda q: Fraction(q, 4))
VALUES = st.integers(-8, 8).map(lambda v: Fraction(v, 2))


@st.composite
def total_functions(draw) -> PwlFunction:
    """A function on [0, 4] with up to three inner breakpoints on the grid."""
    inner = draw(st.sets(st.integers(1, 15), max_size=3))
    qs = [Fraction(q, 4) for q in sorted({0, 16, *inner})]
    vs = draw(st.lists(VALUES, min_size=len(qs), max_size=len(qs)))
    return pwl.from_points(list(zip(qs, vs)))


def _cuts_and_midpoints(lo, hi, *functions):
    """lo, hi and every breakpoint of the functions strictly between them, in
    order, followed by the midpoint of each pair of neighbours."""
    cuts = sorted({lo, hi, *(q for f in functions for q in f.breakpoints if lo < q < hi)})
    return cuts, [(q1 + q2) / 2 for q1, q2 in zip(cuts, cuts[1:])]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(total_functions(), total_functions(), GRID, GRID, GRID, GRID)
def test_merge_min_to_total_matches_pointwise_min(f0, g0, a, b, c, d):
    """merge_min_total of two functions, each whole on a drawn sub-interval:
    on the intersection of their domains it is the pointwise min at every
    cut, at every crossing of the two and at samples between, and it comes
    out canonical; disjoint domains raise."""
    f = pwl.restrict(f0, *sorted((a, b)))
    g = pwl.restrict(g0, *sorted((c, d)))
    lo, hi = max(f.lo, g.lo), min(f.hi, g.hi)
    if lo > hi:
        with pytest.raises(PwlError):
            pwl.merge_min_total(f, g)
        return
    merged = pwl.merge_min_total(f, g)
    assert (merged.lo, merged.hi) == (lo, hi)
    assert merged == pwl.canonical(merged)
    cuts, _ = _cuts_and_midpoints(lo, hi, f, g)
    crossings = []
    for q1, q2 in zip(cuts, cuts[1:]):
        d1, d2 = f(q1) - g(q1), f(q2) - g(q2)
        if d1 * d2 < 0:
            crossings.append(q1 + (q2 - q1) * d1 / (d1 - d2))
    assert set(crossings) <= set(merged.breakpoints)
    samples = {lo + (hi - lo) * Fraction(t, 64) for t in range(65)}
    for x in samples.union(cuts, crossings, merged.breakpoints):
        assert merged(x) == min(f(x), g(x))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(total_functions(), total_functions(), GRID, GRID, GRID, GRID)
def test_pointwise_operations_match_their_definitions(f0, g0, a, b, c, d):
    """restrict, add, merge_max and max_difference_all on functions restricted
    to drawn sub-intervals, so their breakpoint sets differ and one-point
    domains occur: each equals its definition at every breakpoint of either
    input, at every midpoint between them and at both ends."""
    f = pwl.restrict(f0, *sorted((a, b)))
    g = pwl.restrict(g0, *sorted((c, d)))
    for part, whole in ((f, f0), (g, g0)):
        cuts, mids = _cuts_and_midpoints(part.lo, part.hi, whole)
        assert list(part.breakpoints) == cuts
        assert all(part(x) == whole(x) for x in cuts + mids)
    lo, hi = max(f.lo, g.lo), min(f.hi, g.hi)
    if lo > hi:
        for op in (pwl.add, pwl.merge_max, pwl.max_difference_all):
            with pytest.raises(PwlError):
                op(f, g)
        return
    cuts, mids = _cuts_and_midpoints(lo, hi, f, g)
    total, top = pwl.add(f, g), pwl.merge_max(f, g)
    for h in (total, top):
        assert (h.lo, h.hi) == (lo, hi)
        assert h == pwl.canonical(h)
    assert all(total(x) == f(x) + g(x) for x in cuts + mids)
    assert all(top(x) == max(f(x), g(x)) for x in [*cuts, *top.breakpoints, *mids])
    best, args = pwl.max_difference_all(f, g)
    assert best == max(f(x) - g(x) for x in cuts)
    assert all(f(x) - g(x) <= best for x in mids)
    assert args == [x for x in cuts if f(x) - g(x) == best]
    with pytest.raises(PwlError):
        pwl.restrict(f, f.lo - 1, f.hi)


def test_max_difference_examples():
    f = pwl.from_points([(Fraction(0), Fraction(0)), (Fraction(2), Fraction(2))])
    one = pwl.constant(1, 0, 2)
    value, args = pwl.max_difference_all(f, one)
    assert (value, args[0]) == (1, 2)
    value, args = pwl.max_difference_all(f, f)
    assert (value, args[0]) == (0, 0)
    env = pwl.upper_envelope([line(0, 1), line(1, 0)], (0, 2))
    half = pwl.from_points([(Fraction(0), Fraction(0)), (Fraction(2), Fraction(1))])
    value, args = pwl.max_difference_all(env, half)
    assert (value, args[0]) == (1, 0)
    assert args == [0, 2]


def test_evaluate_examples():
    env = pwl.upper_envelope([line(0, 1), line(1, 0)], (0, 2))
    assert env(1) == 1
    assert env(2) == 2
    assert env(Fraction(1, 2)) == 1
    with pytest.raises(PwlError):
        env(3)


def test_canonical_merges_colinear():
    f = pwl.from_points(
        [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(1)), (Fraction(2), Fraction(2))]
    )
    assert pwl.canonical(f).breakpoints == (0, 2)


def test_unchanged_function_is_not_copied():
    """restrict to f's own domain and canonical of a canonical f return f
    itself; a proper restriction and a co-linear merge still build anew."""
    f = pwl.from_points(
        [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(1)), (Fraction(2), Fraction(3))]
    )
    assert pwl.restrict(f, 0, 2) is f
    assert pwl.canonical(f) is f
    point = PwlFunction((Fraction(1),), (Fraction(5),))
    assert pwl.restrict(point, 1, 1) is point and pwl.canonical(point) is point
    assert pwl.restrict(f, 0, 1).breakpoints == (0, 1)
    colinear = pwl.from_points([(Fraction(q), Fraction(q + 1)) for q in range(3)])
    merged = pwl.canonical(colinear)
    assert merged.breakpoints == (0, 2) and merged.values == (1, 3)


def test_pwl_function_refuses_malformed_breakpoints():
    zero, one = Fraction(0), Fraction(1)
    for breakpoints, values, message in (
        ((), (), "empty"),
        ((zero, one), (zero,), "length mismatch"),
        ((zero, zero), (zero, one), "strictly increasing"),
        ((one, zero), (zero, one), "strictly increasing"),
    ):
        with pytest.raises(PwlError, match=message):
            PwlFunction(breakpoints, values)


def test_good_positive_classification():
    f = pwl.from_points([(Fraction(0), Fraction(0)), (Fraction(1), Fraction(1))])
    assert f.is_good() and f.is_positive()
    g = pwl.constant(2, 0, 1)
    assert g.is_good() and not g.is_positive()
    point = PwlFunction((Fraction(1),), (Fraction(5),))
    assert point.is_good() and point.is_positive()


def test_good_preserved_by_algebra():
    rng = random.Random(29)
    for _ in range(20):
        f = random_positive_pwl(rng, 0, 2)
        g = random_positive_pwl(rng, 0, 2)
        assert pwl.add(f, g).is_positive()
        assert pwl.merge_max(f, g).is_good()
        assert pwl.merge_min_total(f, g).is_good()
