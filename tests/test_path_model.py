"""Path model: validation, prefix weights, range-min capacities, scenarios."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest

from evacregret import PathInstance, PathModelError, Scenario, validate
from evacregret.path_model import (
    min_capacity,
    parse_instance,
    parse_scenario,
    prefix_weight,
    reflect_instance,
    reflect_scenario,
    shift,
    substitute,
    to_fraction,
    two_varying,
)

from conftest import random_instance, random_scenario


def test_validate_ok(t1):
    assert validate(t1) == []


def test_validate_nonpositive_capacity():
    bad = PathInstance([0, 1, 2], [1, 0], [0, 0, 0], [2, 2, 2])
    assert any("capacity 1 not positive" in e for e in validate(bad))


def test_validate_positions_not_increasing():
    bad = PathInstance([0, 1, 1], [1, 2], [0, 0, 0], [2, 2, 2])
    assert any("not strictly increasing" in e for e in validate(bad))


def test_validate_origin_and_intervals():
    bad = PathInstance([1, 2], [1], [3, 0], [2, 2])
    errors = validate(bad)
    assert any("expected 0" in e for e in errors)
    assert any("interval 0 empty" in e for e in errors)
    # no document can give this: weights come from the vertices
    short = PathInstance([0, 1], [1], [0], [2, 2])
    assert "weight interval arrays must have one entry per vertex" in validate(short)


def test_prefix_weight(t1):
    s = Scenario([1, 0, 1])
    assert prefix_weight(s, 0, 1) == 1
    assert prefix_weight(s, 0, 2) == 2
    assert prefix_weight(s, 1, 1) == 0
    with pytest.raises(PathModelError):
        prefix_weight(s, 0, 3)


def test_prefix_weight_total_random():
    rng = random.Random(7)
    for _ in range(25):
        inst = random_instance(rng)
        s = random_scenario(rng, inst)
        assert prefix_weight(s, 0, inst.n) == sum(s.weights)


def test_min_capacity_examples(t1):
    assert min_capacity(t1, Fraction(1, 2), Fraction(3, 2)) == 1
    assert min_capacity(t1, 1, 2) == 2
    assert min_capacity(t1, 0, 2) == 1


def test_min_capacity_empty_range_sentinel(t1):
    assert min_capacity(t1, 1, 1) is None


def test_min_capacity_refuses_points_off_the_path():
    inst = PathInstance([0, 1, 2, 3, 4], [5, 1, 3, 4], [0] * 5, [1] * 5)
    assert min_capacity(inst, 0, 4) == 1
    with pytest.raises(PathModelError):
        min_capacity(inst, -1, 1)
    with pytest.raises(PathModelError):
        min_capacity(inst, 0, 5)


def range_min_scan(data, start, stop):
    """Minimum of data[start:stop], or None when the range is empty: the
    contract of min_capacity on edge indices, written apart from it."""
    return min(data[start:stop]) if start < stop else None


def min_capacity_scan(instance, a, b):
    """Linear-scan reference for min_capacity on points of the path."""
    i = instance.last_vertex_at_or_left(a)
    j = instance.first_vertex_at_or_right(b)
    return range_min_scan(instance.capacities, i, j)


def test_min_capacity_matches_scan():
    rng = random.Random(13)
    for _ in range(40):
        inst = random_instance(rng, max_n=8)
        span = inst.positions[-1]
        for _ in range(20):
            a = span * Fraction(rng.randint(0, 16), 16)
            b = span * Fraction(rng.randint(0, 16), 16)
            a, b = min(a, b), max(a, b)
            assert min_capacity(inst, a, b) == min_capacity_scan(inst, a, b)


def test_two_varying_examples(t1):
    assert two_varying(t1, 0, 2, 1, 1).weights == (1, 2, 1)
    assert two_varying(t1, 0, 0, 2, 2).weights == (2, 0, 0)
    assert two_varying(t1, 1, 2, 0, 2).weights == (0, 0, 2)
    with pytest.raises(PathModelError):
        two_varying(t1, 1, 1, 0, 2)


def test_two_varying_legal_inside_bounds():
    rng = random.Random(3)
    for _ in range(30):
        inst = random_instance(rng)
        n = inst.n
        i = rng.randint(0, n)
        j = rng.randint(i, n)
        alpha = inst.weight_lo[i] + (inst.weight_hi[i] - inst.weight_lo[i]) / 2
        beta = alpha if i == j else inst.weight_hi[j]
        s = two_varying(inst, i, j, alpha, beta)
        assert len(s.weights) == inst.vertex_count
        assert all(lo <= w <= hi for lo, w, hi in zip(inst.weight_lo, s.weights, inst.weight_hi))


def test_substitute():
    s = Scenario([1, 0, 1])
    assert substitute(s, 1, 5).weights == (1, 5, 1)
    assert substitute(s, 0, 1).weights == (1, 0, 1)
    assert substitute(Scenario([0, 0, 0]), 2, 2).weights == (0, 0, 2)


def test_shift(t1):
    s = Scenario([2, 0, 0])
    assert shift(t1, s, 0, 1, 1).weights == (1, 1, 0)
    assert shift(t1, s, 0, 1, 0).weights == (2, 0, 0)
    with pytest.raises(PathModelError):
        shift(t1, Scenario([0, 0, 0]), 0, 1, 1)


def test_reflection_roundtrip():
    rng = random.Random(5)
    for _ in range(10):
        inst = random_instance(rng)
        back = reflect_instance(reflect_instance(inst))
        assert back == inst
        s = random_scenario(rng, inst)
        assert reflect_scenario(reflect_scenario(s)) == s


def test_instance_json_roundtrip(t1):
    # a hand-written document, parsed from text, gives back t1 and the scenario
    doc = """{"capacities": ["1", "2"], "vertices": [
        {"position": "0", "w_max": "2", "w_min": "0"},
        {"position": "1", "w_max": "2", "w_min": "0"},
        {"position": "2", "w_max": "2", "w_min": "0"}]}"""
    assert parse_instance(doc) == t1
    s = Scenario([1, Fraction(1, 3), 0])
    assert parse_scenario('{"weights": ["1", "1/3", "0"]}') == s


def test_instance_edge_lengths():
    inst = parse_instance(
        {
            "vertices": [{"w_min": "0", "w_max": "1"}] * 3,
            "edge_lengths": ["1/2", "3/2"],
            "capacities": ["1", "2"],
        }
    )
    assert inst.positions == (0, Fraction(1, 2), 2)


def test_decimal_exponent_bound():
    assert to_fraction("1e-1000") == Fraction(1, 10**1000)
    assert to_fraction("25E+3") == 25000
    for literal in ("1e-1001", "1E1_001", "1e+100000000", "1e" + "0" * 40 + "5000", "1/0"):
        with pytest.raises(PathModelError):
            to_fraction(literal)


def test_malformed_instance():
    with pytest.raises(PathModelError):
        parse_instance({"vertices": [{"w_min": "0"}], "capacities": []})
