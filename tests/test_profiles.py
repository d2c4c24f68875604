"""Min-evacuation profiles against exact brute-force split enumeration."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given

from evacregret import PathModelError, Scenario, profiles, pwl, theta, worst_case
from evacregret.envelopes import SolveCache, cached_envelope
from evacregret.evacuation import theta_min_on_edge
from evacregret.path_model import reflect_instance, two_varying
from evacregret.profiles import (
    Box,
    ProfileError,
    edge_min_profile,
    edge_min_profile_single,
    min_max_profile,
    min_max_y_profile,
    vertex_min_profile,
)

from conftest import (
    dense_theta_min,
    grid_min_max_offset,
    grid_min_max_split,
    random_convex_pwl,
    random_instance,
    random_positive_pwl,
    random_scenario,
    rational,
)
from test_mirror import DERANDOMIZED, instances


def aff(points):
    return pwl.from_points([(Fraction(a), Fraction(b)) for a, b in points])


def test_min_max_profile_example():
    f = aff([(0, 0), (1, 1)])
    g = aff([(0, 0), (1, 2)])
    m = min_max_profile(f, g, Box(0, 1, 0, 1))
    assert m.breakpoints == (0, Fraction(3, 2), 2)
    assert m.values == (0, 1, 2)


def test_min_max_profile_symmetric():
    f = aff([(0, 0), (1, 1)])
    m = min_max_profile(f, f, Box(0, 1, 0, 1))
    assert m.breakpoints == (0, 2)
    assert m.values == (0, 1)


def test_min_max_profile_degenerate_box():
    f = aff([(0, 0), (1, 1)])
    g = aff([(0, 0), (1, 2)])
    m = min_max_profile(f, g, Box(Fraction(1, 2), Fraction(1, 2), 0, 1))
    for alpha in (Fraction(1, 2), 1, Fraction(3, 2)):
        assert m(alpha) == max(f(Fraction(1, 2)), g(alpha - Fraction(1, 2)))


def flat_bottomed(rng: random.Random, f: pwl.PwlFunction) -> pwl.PwlFunction:
    """max(c, f) for a level c drawn from below f's range to above it, so the
    result is f itself, f with a flat leading piece, or a constant."""
    c = rational(rng, f.values[0] - 1, f.values[-1] + 1, 8)
    return pwl.merge_max(f, pwl.constant(c, f.lo, f.hi))


def test_min_max_profile_flat_bottomed_exact():
    """Flat leading pieces, as the solver's envelopes have, on either side."""
    rng = random.Random(239)
    box = Box(0, 3, 0, 2)
    for _ in range(60):
        fl = flat_bottomed(rng, random_positive_pwl(rng, 0, 3))
        fr = flat_bottomed(rng, random_positive_pwl(rng, 0, 2))
        m = min_max_profile(fl, fr, box)
        assert m.is_good()
        for _ in range(8):
            alpha = rational(rng, box.alpha_lo, box.alpha_hi, 32)
            assert m(alpha) == grid_min_max_split(fl, fr, box, alpha)


def test_min_max_y_profile_flat_bottomed_exact():
    """max(c, convex) is still convex, so the offset variant takes it."""
    rng = random.Random(241)
    box = Box(0, 2, 0, 2)
    for _ in range(40):
        fl = flat_bottomed(rng, random_convex_pwl(rng, 0, 2))
        fr = flat_bottomed(rng, random_convex_pwl(rng, 0, 2))
        y_lo = rational(rng, -1, 1, 4)
        y_hi = y_lo + rational(rng, 0, 2, 4)
        m = min_max_y_profile(fl, fr, box, (y_lo, y_hi))
        assert m.is_good()
        for _ in range(6):
            alpha = rational(rng, box.alpha_lo, box.alpha_hi, 32)
            assert m(alpha) == grid_min_max_offset(fl, fr, box, (y_lo, y_hi), alpha)


def test_min_max_profiles_refuse_malformed_inputs():
    rising = aff([(0, 0), (1, 1)])
    late_flat = aff([(0, 0), (1, 1), (2, 1)])
    with pytest.raises(ProfileError, match="flat-bottomed"):
        min_max_profile(late_flat, rising, Box(0, 2, 0, 1))
    falling = aff([(0, 1), (1, 0)])
    with pytest.raises(ProfileError, match="nondecreasing"):
        min_max_profile(rising, falling, Box(0, 1, 0, 1))
    with pytest.raises(ProfileError, match="nondecreasing"):
        min_max_y_profile(rising, falling, Box(0, 1, 0, 1), (0, 1))
    with pytest.raises(ProfileError, match="does not cover"):
        min_max_profile(rising, rising, Box(0, 2, 0, 1))


def test_min_max_profile_random_exact():
    """Exact agreement with full candidate enumeration, plus goodness and the
    linear size bound.  After the first 100 draws, 60 have a one-point side,
    Box(p, p, 0, 2) or Box(0, 3, p, p), and 60 pass flat_bottomed sides (a
    flat leading piece or a constant), 20 of them with a one-point side."""
    rng = random.Random(211)
    draws = [(None, False)] * 100 + [("a", False), ("b", False)] * 30
    draws += [(None, True)] * 40 + [("a", True), ("b", True)] * 10
    for point, flat in draws:
        fl = random_positive_pwl(rng, 0, 3)
        fr = random_positive_pwl(rng, 0, 2)
        if flat:
            fl, fr = flat_bottomed(rng, fl), flat_bottomed(rng, fr)
        box = Box(0, 3, 0, 2)
        if point:
            p = rational(rng, 0, 2, 8)
            box = Box(p, p, 0, 2) if point == "a" else Box(0, 3, p, p)
        m = min_max_profile(fl, fr, box)
        assert m.is_good()
        assert m.size <= fl.size + fr.size + 3
        for _ in range(12):
            alpha = rational(rng, box.alpha_lo, box.alpha_hi, 32)
            assert m(alpha) == grid_min_max_split(fl, fr, box, alpha)
        assert m(box.alpha_lo) == max(fl(box.a1), fr(box.b1))
        assert m(box.alpha_hi) == max(fl(box.a2), fr(box.b2))


def test_min_max_profile_grid_tolerance():
    """The coarse-grid comparison: within max-slope * h, never below."""
    rng = random.Random(223)
    h = Fraction(1, 64)
    for _ in range(30):
        fl = random_positive_pwl(rng, 0, 2)
        fr = random_positive_pwl(rng, 0, 2)
        box = Box(0, 2, 0, 2)
        m = min_max_profile(fl, fr, box)
        lip = max(max(fl.slopes()), max(fr.slopes()))
        for _ in range(6):
            alpha = rational(rng, box.alpha_lo, box.alpha_hi, 16)
            coarse = grid_min_max_split(fl, fr, box, alpha, h=h)
            assert m(alpha) <= coarse <= m(alpha) + lip * h


def test_min_max_y_profile_degenerate_range_reduces():
    rng = random.Random(227)
    for _ in range(20):
        fl = random_convex_pwl(rng, 0, 2)
        fr = random_convex_pwl(rng, 0, 2)
        box = Box(0, 2, 0, 2)
        plain = min_max_profile(fl, fr, box)
        offset = min_max_y_profile(fl, fr, box, (0, 0))
        for _ in range(8):
            alpha = rational(rng, box.alpha_lo, box.alpha_hi, 16)
            assert plain(alpha) == offset(alpha)


def test_min_max_y_profile_symmetric_fixture():
    f = aff([(0, 0), (1, 1)])
    m = min_max_y_profile(f, f, Box(0, 1, 0, 1), (-1, 1))
    assert m.breakpoints == (0, 2)
    assert m.values == (0, 1)


def test_min_max_y_profile_single_point_box():
    f = aff([(0, 0), (2, 2)])
    g = aff([(0, 1), (2, 5)])
    m = min_max_y_profile(f, g, Box(1, 1, 1, 1), (0, Fraction(1, 2)))
    # min over y of max(1 + y, 3 - y): midpoint 1 clamped to 1/2
    assert m.values == (Fraction(5, 2),)


def test_min_max_y_profile_random_exact():
    """Exact agreement with split enumeration.  Draws 101-120 take criterion
    4's square box and narrower offset range; like the first 100, they
    include breakpoints whose balanced window misses the slope-bracketed run
    of the other curve (an empty witness piece).  The last 60 have a
    one-point side, Box(a, a, 0, 2) or Box(0, 2, b, b), which takes no branch
    of its own: a one-point curve balances the other's end breakpoints."""
    rng = random.Random(229)
    draws = [(3, None, Fraction(1), 2)] * 100 + [(2, None, Fraction(1, 2), 1)] * 20
    draws += [(2, "a", Fraction(1), 2), (2, "b", Fraction(1), 2)] * 30
    for a2, point, y_lo_max, y_width in draws:
        fl = random_convex_pwl(rng, 0, a2)
        fr = random_convex_pwl(rng, 0, 2)
        box = Box(0, a2, 0, 2)
        if point:
            p = rational(rng, 0, 2, 8)
            box = Box(p, p, 0, 2) if point == "a" else Box(0, 2, p, p)
        y_lo = rational(rng, -1, y_lo_max, 4)
        y_hi = y_lo + rational(rng, 0, y_width, 4)
        m = min_max_y_profile(fl, fr, box, (y_lo, y_hi))
        assert m.is_good()
        assert m.size <= 12 * (fl.size + fr.size) + 24
        for _ in range(10):
            alpha = rational(rng, box.alpha_lo, box.alpha_hi, 32)
            assert m(alpha) == grid_min_max_offset(fl, fr, box, (y_lo, y_hi), alpha)


def test_min_max_y_profile_rejects_repeated_slopes():
    f = aff([(0, 0), (1, 1), (2, 2)])  # canonicalizes to one piece, fine
    bad = pwl.PwlFunction((Fraction(0), Fraction(1), Fraction(2)), (Fraction(0), Fraction(2), Fraction(4)))
    # equal slopes across pieces collapse under canonicalization, so build a
    # genuinely non-convex one
    wiggle = pwl.PwlFunction(
        (Fraction(0), Fraction(1), Fraction(2)), (Fraction(0), Fraction(2), Fraction(3))
    )
    with pytest.raises(ProfileError):
        min_max_y_profile(wiggle, f, Box(0, 2, 0, 2), (0, 1))


def test_vertex_min_profile_fixture(t1):
    m = vertex_min_profile(t1, 0, 2, 1, Box(0, 2, 0, 2))
    assert m.breakpoints == (0, 3, 4)
    assert m.values == (1, 2, 3)


def test_vertex_min_profile_single_point_box(t1):
    m = vertex_min_profile(t1, 0, 2, 1, Box(1, 1, 1, 1))
    s = two_varying(t1, 0, 2, 1, 1)
    assert m.values == (theta(t1, 1, s).theta,)


def test_vertex_min_profile_weight_at_sink(t1):
    # pair (0, 1): nothing strictly inside, right coordinate pinned at zero,
    # sink at the varying vertex itself: the profile is identically zero
    m = vertex_min_profile(t1, 0, 1, 0, Box(0, 2, 0, 0))
    assert m.values == (0, 0)


def test_profiles_refuse_bad_indices_and_empty_boxes(t1):
    box, base = Box(0, 2, 0, 2), t1.lower_scenario()
    for build, error, message in (
        (lambda: vertex_min_profile(t1, 0, 2, 3, box), PathModelError, "i <= k <= j"),
        (lambda: vertex_min_profile(t1, 2, 0, 1, box), PathModelError, "i <= k <= j"),
        (lambda: edge_min_profile(t1, 0, 2, 2, box), PathModelError, "i <= k < j"),
        (lambda: edge_min_profile(t1, 1, 1, 1, box), PathModelError, "i <= k < j"),
        (lambda: edge_min_profile_single(t1, 0, 2, base, (0, 2)), PathModelError, "range"),
        (lambda: edge_min_profile_single(t1, 3, 0, base, (0, 2)), PathModelError, "range"),
        (lambda: Box(1, 0, 0, 2), ProfileError, "nonempty"),
        (lambda: Box(0, 2, 2, 1), ProfileError, "nonempty"),
    ):
        with pytest.raises(error, match=message):
            build()


def test_vertex_min_profile_random_exact():
    rng = random.Random(233)
    from evacregret.envelopes import left_envelope_raw, right_envelope_raw
    from conftest import _slice_candidates

    for _ in range(40):
        inst = random_instance(rng, max_n=5, zero_lower=rng.random() < 0.3)
        n = inst.n
        i = rng.randint(0, n - 1)
        j = rng.randint(i + 1, n)
        k = rng.randint(i, j)
        box = Box(
            inst.weight_lo[i], inst.weight_hi[i], inst.weight_lo[j], inst.weight_hi[j]
        )
        m = vertex_min_profile(inst, i, j, k, box)
        assert m.is_good()
        base = two_varying(inst, i, j, 0, 0)
        fl = left_envelope_raw(inst, i, k, base, box.a1, box.a2)
        fr = right_envelope_raw(inst, j, k, base, box.b1, box.b2)
        for _ in range(6):
            alpha = rational(rng, box.alpha_lo, box.alpha_hi, 16)
            lo = max(box.a1, alpha - box.b2)
            hi = min(box.a2, alpha - box.b1)
            cuts = _slice_candidates(fl, fr, alpha, lo, hi, [Fraction(0)])
            best = min(
                theta(inst, inst.positions[k], two_varying(inst, i, j, a, alpha - a)).theta
                for a in cuts
            )
            # the construction minimizes the linear extension, an upper bound
            # on the true time, exact wherever both sides stay weighted
            assert m(alpha) >= best
            if box.a1 > 0 and box.b1 > 0:
                assert m(alpha) == best


def test_edge_min_profile_fixture(t1):
    box = Box(0, 2, 0, 2)
    m = edge_min_profile(t1, 0, 2, 0, box)
    assert m.is_good()
    # compare against dense sampling over splits and sink positions
    for alpha in (Fraction(1, 2), 1, 2, 3):
        lo = max(box.a1, alpha - box.b2)
        hi = min(box.a2, alpha - box.b1)
        best = None
        for t in range(25):
            a = lo + (hi - lo) * Fraction(t, 24)
            s = two_varying(t1, 0, 2, a, alpha - a)
            _, value = theta_min_on_edge(t1, 0, s)
            best = value if best is None else min(best, value)
        assert m(alpha) <= best


def test_edge_min_profile_degenerate_box_matches_edge_min():
    """Cross-module oracle: a single-scenario box reproduces the closed-form
    per-edge minimum exactly."""
    rng = random.Random(239)
    for _ in range(40):
        inst = random_instance(rng, max_n=5, zero_lower=rng.random() < 0.5)
        n = inst.n
        k = rng.randrange(n)
        i = rng.randint(0, k)
        j = rng.randint(k + 1, n)
        s = random_scenario(rng, inst)
        base = two_varying(inst, i, j, s.weights[i], s.weights[j])
        box = Box(s.weights[i], s.weights[i], s.weights[j], s.weights[j])
        m = edge_min_profile(inst, i, j, k, box)
        expected = theta_min_on_edge(inst, k, base)[1]
        alpha = s.weights[i] + s.weights[j]
        assert m(alpha) == expected


def test_edge_min_profile_single_matches_direct():
    """Single-varying edge profile equals the per-edge closed form at samples
    (exactly, when all other weights are positive)."""
    rng = random.Random(241)
    for _ in range(30):
        inst = random_instance(rng, max_n=5)
        n = inst.n
        varying = rng.randint(0, n)
        k = rng.randrange(n)
        base = random_scenario(rng, inst)
        lo, hi = inst.weight_lo[varying], inst.weight_hi[varying]
        profile = edge_min_profile_single(inst, varying, k, base, (lo, hi))
        assert profile.lo == lo and profile.hi == hi
        for _ in range(5):
            alpha = rational(rng, lo, hi, 8)
            from evacregret.path_model import substitute

            s = substitute(base, varying, alpha)
            assert profile(alpha) == theta_min_on_edge(inst, k, s)[1]


def test_edge_min_profile_single_fixture(t1):
    base = two_varying(t1, 0, 0, 0, 0)
    profile = edge_min_profile_single(t1, 0, 1, base, (0, 2))
    # min over y in [1,2] of theta(y, (alpha,0,0)): sink at x_1 gives 1+alpha
    # for alpha > 0; the linear extension keeps 1+alpha at alpha=0
    assert profile.values[0] == profile(0) == 1
    assert profile(2) == 3


def test_edge_min_profile_all_zero(t1):
    zero_inst = type(t1)([0, 1, 2], [1, 2], [0, 0, 0], [0, 0, 0])
    m = edge_min_profile(zero_inst, 0, 2, 0, Box(0, 0, 0, 0))
    assert m.values == (0,)


def test_profile_monotone_nondecreasing():
    rng = random.Random(251)
    for _ in range(20):
        inst = random_instance(rng, max_n=4, zero_lower=rng.random() < 0.5)
        n = inst.n
        k = rng.randrange(n)
        i = rng.randint(0, k)
        j = rng.randint(k + 1, n)
        box = Box(
            inst.weight_lo[i], inst.weight_hi[i], inst.weight_lo[j], inst.weight_hi[j]
        )
        assert edge_min_profile(inst, i, j, k, box).is_good()


def test_shared_cache_changes_no_profile():
    """Profiles built through one SolveCache equal those built without one,
    and a cache built for another instance is refused."""
    from evacregret.envelopes import SolveCache
    from evacregret.path_model import reflect_instance

    rng = random.Random(257)
    inst = random_instance(rng, max_n=5, zero_lower=False)
    cache = SolveCache(inst)
    n = inst.n
    for i in range(n):
        for j in range(i + 1, n + 1):
            box = Box(
                inst.weight_lo[i], inst.weight_hi[i], inst.weight_lo[j], inst.weight_hi[j]
            )
            base = two_varying(inst, i, j, 0, inst.weight_hi[j])
            for k in range(i, j):
                assert edge_min_profile(inst, i, j, k, box, cache=cache) == \
                    edge_min_profile(inst, i, j, k, box)
                # the varying weight at or left of the edge (i), and right of it (j)
                for v in (i, j):
                    span = (inst.weight_lo[v], inst.weight_hi[v])
                    assert edge_min_profile_single(inst, v, k, base, span, cache=cache) == \
                        edge_min_profile_single(inst, v, k, base, span)
    with pytest.raises(ValueError):
        edge_min_profile(reflect_instance(inst), 0, n, 0, box, cache=cache)


def clipped_composition(base, vi, vj, k, box, cache):
    """The edge profile with the offset variant's clipped witnesses: the min
    of the vertex profiles at x_k and x_{k+1} and the whole offset variant
    over the edge, floored at 0."""
    xk, xk1 = cache.instance.positions[k : k + 2]
    f_left = cached_envelope(cache, "left", vi, k + 1, base, box.a1, box.a2)
    f_right = cached_envelope(cache, "right", vj, k, base, box.b1, box.b2)
    interior = min_max_y_profile(
        pwl.add_const(f_left, -xk1), pwl.add_const(f_right, xk), box, (xk, xk1)
    )
    interior = pwl.merge_max(interior, pwl.constant(0, interior.lo, interior.hi))
    at_left, at_right = (
        profiles._vertex_profile_core(base, vi, vj, t, box, cache) for t in (k, k + 1)
    )
    return pwl.merge_min_total(pwl.merge_min_total(at_left, at_right), interior)


@DERANDOMIZED
@given(instances(min_n=1))
def test_edge_core_needs_no_clipped_witness(inst):
    """Every edge profile a family term requests, on the instance and on its
    mirror (where the right families run), equals the composition with the
    offset clipped at either end of the edge: both-free boxes, boxes with a
    one-point side from a pinned interval, and the single-varying profiles,
    whose second coordinate is pinned."""
    core = profiles._edge_profile_core
    for side in (inst, reflect_instance(inst)):
        cache, requested = SolveCache(side), []

        def spy(*args):
            requested.append(args)
            return core(*args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(profiles, "_edge_profile_core", spy)
            for key, _ in worst_case._term_bounds(cache, side.n):
                term = worst_case._left_term(cache, *key)
                for u in term.edges:
                    term.profile(u)
        assert requested
        for args in requested:
            assert core(*args) == clipped_composition(*args)
