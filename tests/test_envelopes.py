"""Scenario-parameterized envelopes: exact agreement with the closed forms."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest

from evacregret import PathInstance, PathModelError, Scenario, pwl, theta
from evacregret.envelopes import arrival_envelope, left_envelope_raw, right_envelope_raw
from evacregret.evacuation import _left_time_at_vertex, _right_time_at_vertex
from evacregret.path_model import prefix_weight, reflect_instance, substitute, two_varying

from conftest import random_instance, random_scenario, rational


def vertex_time_envelope(inst, vertex, varying, base, lo, hi):
    """Evacuation time at x_vertex as a function of the weight at v_varying:
    the max of the two one-sided envelopes."""
    return pwl.merge_max(
        left_envelope_raw(inst, varying, vertex, base, lo, hi),
        right_envelope_raw(inst, varying, vertex, base, lo, hi),
    )


def test_lue_example_two_lines(t1):
    base = two_varying(t1, 0, 2, 0, 0)
    env = left_envelope_raw(t1, 0, 2, base, 0, 2)
    assert env.breakpoints == (0, 2)
    assert env.values == (2, 4)  # 2 + alpha dominates 2 + alpha/2


def test_lue_varying_right_of_vertex_constant(t1):
    base = Scenario([1, 1, 1])
    env = left_envelope_raw(t1, 2, 1, base, 0, 2)
    assert env.values == (2, 2)  # theta_left at x_1 fixed by w_0 = 1


def test_lue_single_line(t1):
    env = left_envelope_raw(t1, 0, 1, Scenario([0, 0, 0]), 0, 2)
    assert env.values == (1, 3)


def test_rue_example_resolved_by_oracle(t1):
    """The closer line 1 + (2+alpha)/1 dominates 2 + alpha: envelope 3+alpha."""
    base = two_varying(t1, 0, 2, 0, 0)
    env = right_envelope_raw(t1, 2, 0, base, 0, 2)
    assert env.values == (3, 5)
    for alpha in (Fraction(1, 4), 1, 2):
        truth = _right_time_at_vertex(t1, 0, substitute(base, 2, alpha))[0]
        assert env(alpha) == truth


def test_rue_varying_left_constant(t1):
    base = Scenario([1, 0, 1])
    env = right_envelope_raw(t1, 0, 1, base, 0, 2)
    assert env.values == (Fraction(3, 2), Fraction(3, 2))


def test_rue_all_zero_single_line(t1):
    env = right_envelope_raw(t1, 2, 1, Scenario([0, 0, 0]), 0, 2)
    assert env.values == (1, 2)  # 1 + alpha/2


def test_arrival_envelope_refuses_bad_arguments(t1):
    """Anything but 0 <= first <= last < n and x_last < x is refused: a sink
    at x_last, a last vertex at x_n, and first > last."""
    s = Scenario([1, 1, 1])
    for first, last, x, lo, hi in ((1, 1, 1, 0, 0), (0, 2, 2, 0, 0), (2, 1, 2, 0, 2)):
        with pytest.raises(PathModelError):
            arrival_envelope(t1, first, last, Fraction(x), s, Fraction(lo), Fraction(hi))


def test_theta_of_alpha_example(t1):
    f = vertex_time_envelope(t1, 1, 0, Scenario([0, 0, 1]), 0, 2)
    assert f.breakpoints == (0, Fraction(1, 2), 2)
    assert f.values == (Fraction(3, 2), Fraction(3, 2), 3)


def test_theta_of_alpha_weight_at_sink_constant(t1):
    f = vertex_time_envelope(t1, 1, 1, Scenario([0, 0, 0]), 0, 2)
    assert f.values == (0, 0)


def test_theta_of_alpha_interior_point(t1):
    """Inside edge 0 the time is the flanking vertices' envelopes minus the
    travel offset, floored at zero."""
    x = Fraction(1, 2)
    base = Scenario([0, 0, 1])
    left = left_envelope_raw(t1, 0, 1, base, 0, 2)
    right = right_envelope_raw(t1, 0, 0, base, 0, 2)
    for alpha in (Fraction(1, 2), 1, 2):
        s = substitute(base, 0, alpha)
        from_left = left(alpha) - (t1.positions[1] - x)
        from_right = right(alpha) - (x - t1.positions[0])
        assert max(from_left, from_right, 0) == theta(t1, x, s).theta


def test_envelopes_agree_with_closed_form():
    """Exact equality against the evacuation module at every breakpoint and
    piece midpoint where the cumulative weight behind the varying vertex
    (v_0..v_varying on the left, v_varying..v_n on the right) is positive.
    Ranges are [0, hi], [lo, hi] and [lo, lo]; the base's varying weight is 0
    or not, and in a quarter of the cases other weights are zeroed."""
    rng = random.Random(101)
    for case in range(240):
        inst = random_instance(rng, max_n=7, zero_lower=rng.random() < 0.5)
        varying = rng.randint(0, inst.n)
        vertex = rng.randint(0, inst.n)
        base = random_scenario(rng, inst)
        if case % 4 == 0:
            base = Scenario([0 if rng.random() < 0.4 else w for w in base.weights])
        base = substitute(base, varying, 0 if case % 2 else inst.weight_hi[varying])
        hi = inst.weight_hi[varying] + 1
        lo = rational(rng, Fraction(1, 16), hi / 2, 16) if case % 3 else Fraction(0)
        if case % 3 == 2:
            hi = lo
        sides = (
            (left_envelope_raw, _left_time_at_vertex, 0, varying),
            (right_envelope_raw, _right_time_at_vertex, varying, inst.n),
        )
        for build, true_time, first, last in sides:
            env = build(inst, varying, vertex, base, lo, hi)
            q = env.breakpoints
            for alpha in q + tuple((a + b) / 2 for a, b in zip(q, q[1:])):
                s = substitute(base, varying, alpha)
                if prefix_weight(s, first, last) > 0:
                    assert env(alpha) == true_time(inst, vertex, s)[0]
            assert env.is_good()
            assert all(m <= 1 / min(inst.capacities) for m in env.slopes())


def test_theta_of_alpha_nondecreasing():
    rng = random.Random(103)
    for _ in range(30):
        inst = random_instance(rng, zero_lower=rng.random() < 0.5)
        base = random_scenario(rng, inst)
        varying = rng.randint(0, inst.n)
        vertex = rng.randint(0, inst.n)
        f = vertex_time_envelope(inst, vertex, varying, base, 0, 3)
        assert f.is_good()


def test_zero_weight_clamp():
    """When every contributing weight vanishes at alpha = 0 the true time is 0
    while the envelope keeps the linear extension; they agree for alpha > 0.
    A one-point range pins the scenario, so there the envelope is the true
    time, 0 included."""
    rng = random.Random(107)
    inst = random_instance(rng, max_n=4, zero_lower=True)
    zero = Scenario([0] * inst.vertex_count)
    vertex = inst.n
    env = left_envelope_raw(inst, 0, vertex, zero, 0, 2)
    assert _left_time_at_vertex(inst, vertex, zero)[0] == 0
    assert env(0) == inst.positions[vertex] - inst.positions[0]  # linear extension
    for alpha in (Fraction(1, 8), 1, 2):
        s = substitute(zero, 0, alpha)
        assert env(alpha) == _left_time_at_vertex(inst, vertex, s)[0]
    env_r = right_envelope_raw(inst, inst.n, 0, zero, 0, 2)
    assert _right_time_at_vertex(inst, 0, zero)[0] == 0
    for alpha in (Fraction(1, 8), 1, 2):
        s = substitute(zero, inst.n, alpha)
        assert env_r(alpha) == _right_time_at_vertex(inst, 0, s)[0]
    for alpha in (0, Fraction(1, 8)):
        s = substitute(zero, 0, alpha)
        point = left_envelope_raw(inst, 0, vertex, zero, alpha, alpha)
        assert point.values == (_left_time_at_vertex(inst, vertex, s)[0],)
        s = substitute(zero, inst.n, alpha)
        point = right_envelope_raw(inst, inst.n, 0, zero, alpha, alpha)
        assert point.values == (_right_time_at_vertex(inst, 0, s)[0],)
    pinned = PathInstance([0, 1, 2], [1, 2], [0, 0, 0], [0, 2, 2])
    assert left_envelope_raw(pinned, 0, 1, pinned.lower_scenario(), 0, 0).values == (0,)
    mirror = reflect_instance(pinned)
    assert right_envelope_raw(mirror, 2, 1, mirror.lower_scenario(), 0, 0).values == (0,)
