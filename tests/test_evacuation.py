"""Closed-form evacuation times, edge minima, optimal sink, regret."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest

from evacregret import (
    PathInstance,
    PathModelError,
    RegretSolver,
    Scenario,
    optimal_sink,
    regret,
    theta,
)
from evacregret.envelopes import arrival_envelope
from evacregret.evacuation import _edge_min_from_times, theta_min_on_edge
from evacregret.path_model import reflect_instance, reflect_scenario

from conftest import dense_theta_min, random_instance, random_scenario, rational


def left_arrival(inst, i, x, s):
    """Time for all weight on v_0..v_i to reach x > x_i from the left, zero
    if that weight is zero: a one-point arrival envelope."""
    return arrival_envelope(inst, i, i, Fraction(x), s, Fraction(0), Fraction(0)).values[0]


def right_arrival(inst, i, x, s):
    """Mirror of left_arrival for weight on v_i..v_n reaching x < x_i."""
    end = inst.positions[-1]
    return left_arrival(reflect_instance(inst), inst.n - i, end - x, reflect_scenario(s))


def test_left_arrival_time_examples(t1):
    assert left_arrival(t1, 0, 1, Scenario([1, 0, 1])) == 2
    assert left_arrival(t1, 0, 1, Scenario([0, 0, 1])) == 0
    assert left_arrival(t1, 1, 2, Scenario([1, 1, 0])) == 2


def test_right_arrival_time_examples(t1):
    assert right_arrival(t1, 2, 1, Scenario([1, 0, 1])) == Fraction(3, 2)
    assert right_arrival(t1, 1, 0, Scenario([1, 1, 1])) == 3
    assert right_arrival(t1, 2, 0, Scenario([1, 0, 0])) == 0


def test_theta_examples(t1):
    r = theta(t1, 1, Scenario([1, 0, 1]))
    assert (r.theta_left, r.theta_right, r.theta) == (2, Fraction(3, 2), 2)
    assert (r.lcv, r.rcv) == (0, 2)
    r0 = theta(t1, 0, Scenario([1, 0, 1]))
    assert (r0.theta_left, r0.theta_right, r0.theta) == (0, 3, 3)
    z = theta(t1, Fraction(1, 2), Scenario([0, 0, 0]))
    assert (z.theta_left, z.theta_right, z.theta) == (0, 0, 0)


def test_theta_min_on_edge_examples(t1):
    point, value = theta_min_on_edge(t1, 0, Scenario([2, 2, 0]))
    assert (point.value, value) == (Fraction(1, 2), Fraction(5, 2))
    point, value = theta_min_on_edge(t1, 1, Scenario([1, 0, 1]))
    assert (point.value, value) == (1, 2)
    point, value = theta_min_on_edge(t1, 1, Scenario([0, 0, 0]))
    assert (point.value, value) == (1, 0)
    for k in (-1, 2):
        with pytest.raises(PathModelError, match="edge index out of range"):
            theta_min_on_edge(t1, k, Scenario([0, 0, 0]))


def test_theta_min_on_edge_dense_oracle():
    rng = random.Random(41)
    for _ in range(20):
        inst = random_instance(rng, max_n=4, zero_lower=rng.random() < 0.5)
        s = random_scenario(rng, inst)
        k = rng.randrange(inst.n)
        _, value = theta_min_on_edge(inst, k, s)
        _, dense = dense_theta_min(inst, k, s, samples=48)
        assert value <= dense
        # closed form is exact at its reported point
        pt, v2 = theta_min_on_edge(inst, k, s)
        assert theta(inst, pt, s).theta == v2


def test_edge_min_from_negative_sides_stays_on_the_edge():
    """Regret side maxima can be negative, unlike one-sided times: here the
    right side at x_1 is -7/16, and the edge's zero minimum is at x_1, not
    left of the edge at x_1 + (-7/16)."""
    inst = PathInstance(
        [0, Fraction(25, 16), Fraction(57, 16)],
        [Fraction(1, 2), Fraction(9, 4)],
        [Fraction(11, 16), Fraction(29, 32), Fraction(9, 8)],
        [Fraction(9, 8)] * 3,
    )
    assert RegretSolver(inst).vertex_regret(1).h_value == Fraction(-7, 16)
    sides = (0, Fraction(-7, 16), 2, 0)
    assert _edge_min_from_times(inst, 1, sides) == (0, Fraction(25, 16))
    rng = random.Random(47)
    for _ in range(200):
        k = rng.randrange(2)
        sides = [rational(rng, -3, 3) for _ in range(4)]
        _, y = _edge_min_from_times(inst, k, sides)
        assert inst.positions[k] <= y <= inst.positions[k + 1]


def test_optimal_sink_examples(t1):
    opt = optimal_sink(t1, Scenario([1, 0, 1]))
    assert (opt.location.value, opt.value) == (1, 2)
    opt = optimal_sink(t1, Scenario([2, 2, 0]))
    assert (opt.location.value, opt.value) == (Fraction(1, 2), Fraction(5, 2))
    opt = optimal_sink(t1, Scenario([0, 3, 0]))
    assert (opt.location.value, opt.value) == (1, 0)


def test_optimal_sink_exhaustive_oracle():
    """optimal_sink is the leftmost minimum over every vertex and every
    edge's closed form, also when weights are zeroed at random."""
    rng = random.Random(43)
    for _ in range(150):
        inst = random_instance(rng, max_n=6, zero_lower=rng.random() < 0.5)
        s = random_scenario(rng, inst)
        if rng.random() < 0.4:
            s = Scenario([0 if rng.random() < 0.5 else w for w in s.weights])
        opt = optimal_sink(inst, s)
        candidates = [(theta(inst, p, s).theta, p) for p in inst.positions]
        for k in range(inst.n):
            point, value = theta_min_on_edge(inst, k, s)
            candidates.append((value, point.value))
        assert (opt.value, opt.location.value) == min(candidates)
        assert theta(inst, opt.location, s).theta == opt.value


def test_regret_examples(t1):
    assert regret(t1, 0, Scenario([1, 0, 1])) == 1
    assert regret(t1, 2, Scenario([2, 0, 0])) == 4
    s = Scenario([2, 2, 0])
    assert regret(t1, Fraction(1, 2), s) == 0


def test_scenario_of_wrong_length_rejected(t1):
    """theta, regret, optimal_sink and theta_min_on_edge refuse a scenario
    with one weight too many or too few per vertex of the instance."""
    for s in (Scenario([1, 1, 1, 5]), Scenario([1, 1])):
        for call in (
            lambda: theta(t1, 1, s),
            lambda: regret(t1, 1, s),
            lambda: optimal_sink(t1, s),
            lambda: theta_min_on_edge(t1, 0, s),
        ):
            with pytest.raises(PathModelError, match="scenario length does not match instance"):
                call()


def test_regret_nonnegative():
    rng = random.Random(47)
    for _ in range(40):
        inst = random_instance(rng, zero_lower=rng.random() < 0.5)
        s = random_scenario(rng, inst)
        x = rational(rng, 0, inst.positions[-1], 16)
        assert regret(inst, x, s) >= 0


def test_one_sided_monotonicity():
    """Left time nondecreasing past its first positive point; right mirrored."""
    rng = random.Random(53)
    for _ in range(20):
        inst = random_instance(rng, zero_lower=rng.random() < 0.5)
        s = random_scenario(rng, inst)
        samples = [
            inst.positions[-1] * Fraction(t, 24) for t in range(25)
        ]
        lefts = [theta(inst, x, s).theta_left for x in samples]
        positives = [v for v in lefts if v > 0]
        assert all(a <= b for a, b in zip(positives, positives[1:]))
        rights = [theta(inst, x, s).theta_right for x in samples]
        positives_r = [v for v in rights if v > 0]
        assert all(a >= b for a, b in zip(positives_r, positives_r[1:]))


def test_theta_unimodal_in_x():
    rng = random.Random(59)
    for _ in range(20):
        inst = random_instance(rng, zero_lower=rng.random() < 0.5)
        s = random_scenario(rng, inst)
        samples = [inst.positions[-1] * Fraction(t, 24) for t in range(25)]
        values = [theta(inst, x, s).theta for x in samples]
        for a in range(len(values)):
            for b in range(a + 1, len(values)):
                for c in range(b + 1, len(values)):
                    assert not (values[a] < values[b] > values[c])


def test_one_sided_continuity_identities():
    """Left time is left-continuous at vertices: the interior formula from the
    right vertex reproduces the vertex value exactly."""
    rng = random.Random(61)
    for _ in range(20):
        inst = random_instance(rng, zero_lower=rng.random() < 0.5)
        s = random_scenario(rng, inst)
        for j in range(1, inst.vertex_count):
            at_vertex = theta(inst, inst.positions[j], s).theta_left
            eps = inst.edge_length(j - 1) / 64
            just_left = theta(inst, inst.positions[j] - eps, s).theta_left
            expected = at_vertex - eps if at_vertex > 0 else Fraction(0)
            assert just_left == expected
        for j in range(inst.vertex_count - 1):
            at_vertex = theta(inst, inst.positions[j], s).theta_right
            eps = inst.edge_length(j) / 64
            just_right = theta(inst, inst.positions[j] + eps, s).theta_right
            expected = at_vertex - eps if at_vertex > 0 else Fraction(0)
            assert just_right == expected


def test_max_of_unimodal_scenarios_unimodal():
    """Pointwise max of several scenario curves stays unimodal at samples."""
    rng = random.Random(67)
    inst = random_instance(rng, max_n=4)
    scenarios = [random_scenario(rng, inst) for _ in range(5)]
    samples = [inst.positions[-1] * Fraction(t, 20) for t in range(21)]
    values = [max(theta(inst, x, s).theta for s in scenarios) for x in samples]
    for a in range(len(values)):
        for b in range(a + 1, len(values)):
            for c in range(b + 1, len(values)):
                assert not (values[a] < values[b] > values[c])


def test_mirror_symmetry():
    rng = random.Random(71)
    for _ in range(15):
        inst = random_instance(rng, zero_lower=rng.random() < 0.5)
        s = random_scenario(rng, inst)
        mirror = reflect_instance(inst)
        ms = reflect_scenario(s)
        x = rational(rng, 0, inst.positions[-1], 16)
        a = theta(inst, x, s)
        b = theta(mirror, inst.positions[-1] - x, ms)
        assert (a.theta_left, a.theta_right) == (b.theta_right, b.theta_left)
        assert optimal_sink(inst, s).value == optimal_sink(mirror, ms).value
