"""Brute-force oracles: fluid simulation, grid enumeration, shift checks."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest

from evacregret import PathModelError, PathInstance, Scenario, theta
from evacregret.oracle import (
    GridOracle,
    ShiftReport,
    check_shift,
    default_grid,
    grid_rmax,
    simulate_evacuation,
    sweep_ropt,
)
from evacregret.path_model import reflect_instance, shift

from conftest import random_instance, random_scenario, rational


def test_simulation_matches_formula_fixture(t1):
    s = Scenario([1, 0, 1])
    dt = Fraction(1, 1024)
    sim = simulate_evacuation(t1, 1, s, dt)
    assert abs(sim - 2) <= 3 * 2 * dt


def test_simulation_zero_scenario(t1):
    assert simulate_evacuation(t1, 1, Scenario([0, 0, 0]), Fraction(1, 64)) == 0


def test_simulation_unit_weight_converges():
    from evacregret import PathInstance

    inst = PathInstance([0, 1], [1], [0, 0], [1, 1])
    s = Scenario([1, 0])
    e1 = abs(simulate_evacuation(inst, 1, s, Fraction(1, 128)) - 2)
    e2 = abs(simulate_evacuation(inst, 1, s, Fraction(1, 256)) - 2)
    assert e2 <= e1
    assert e2 <= Fraction(2, 256)


def test_simulation_interior_sink(t1):
    s = Scenario([1, 0, 1])
    dt = Fraction(1, 512)
    x = Fraction(3, 2)
    sim = simulate_evacuation(t1, x, s, dt)
    exact = theta(t1, x, s).theta
    assert abs(sim - exact) <= 3 * 3 * dt


def test_simulation_convergence_random():
    """First-order convergence: halving dt roughly halves the gap to the
    closed form, and the gap stays within C*n*dt."""
    rng = random.Random(401)
    for _ in range(15):
        inst = random_instance(
            rng, max_n=4, zero_lower=rng.random() < 0.5,
            cap_range=(Fraction(1, 2), 4), weight_hi_range=(Fraction(1, 4), 1),
        )
        s = random_scenario(rng, inst, denom=4)
        x = inst.positions[rng.randint(0, inst.n)]
        exact = theta(inst, x, s).theta
        dt = Fraction(1, 128)
        e1 = abs(simulate_evacuation(inst, x, s, dt) - exact)
        e2 = abs(simulate_evacuation(inst, x, s, dt / 2) - exact)
        n = inst.n
        assert e2 <= e1
        assert e1 <= 4 * n * dt
        assert e2 <= 4 * n * dt / 2


def test_grid_rmax_fixtures(t1):
    assert grid_rmax(t1, 2, Fraction(1, 16)) == 4
    assert grid_rmax(t1, 1, Fraction(1, 16)) == 3


def test_grid_rmax_degenerate_intervals():
    from evacregret import PathInstance, regret

    inst = PathInstance([0, 1, 2], [1, 2], [1, 0, 1], [1, 0, 1])
    value = grid_rmax(inst, 2, Fraction(1, 8))
    assert value == regret(inst, 2, Scenario([1, 0, 1]))


def test_default_grid_fits_the_scenario_bound(t1):
    """The widest interval over 64, doubled while the grid has more than
    MAX_GRID_SCENARIOS scenarios.  On a 12-vertex path with [0, 1] intervals
    1/64 gives 279,630 and 1/32 gives 72,270; that grid is not built here."""
    assert default_grid(t1) == Fraction(1, 32)  # widest interval 2, as before
    assert default_grid(PathInstance([0, 1], [1], [0, 0], [0, 0])) == Fraction(1, 64)
    path12 = PathInstance(list(range(12)), [1] * 11, [0] * 12, [1] * 12)
    assert default_grid(path12) == Fraction(1, 32)
    # no spacing fits 400 vertices; the doubling stops at the widest interval
    path400 = PathInstance(list(range(400)), [1] * 399, [0] * 400, [1] * 400)
    assert default_grid(path400) == 1
    with pytest.raises(PathModelError, match="grid spacing 1 gives more than 262144 scenarios"):
        GridOracle(path400, 1)


def test_grid_rmax_below_exact(t1):
    from evacregret import max_regret

    oracle = GridOracle(t1, Fraction(1, 8))
    for x in (0, 1, 2, Fraction(1, 2)):
        assert oracle.max_regret(x) <= max_regret(t1, x).value


def test_sweep_ropt_fixture(t1):
    point, value = sweep_ropt(t1, Fraction(1, 16), 64)
    assert (point.value, value) == (1, 3)


def test_sweep_ropt_zero_intervals():
    from evacregret import PathInstance

    inst = PathInstance([0, 1, 2], [1, 2], [0, 0, 0], [0, 0, 0])
    point, value = sweep_ropt(inst, Fraction(1, 8), 8)
    assert (point.value, value) == (0, 0)


def test_sweep_ropt_mirrored(t1):
    mirror = reflect_instance(t1)
    point, value = sweep_ropt(mirror, Fraction(1, 16), 64)
    assert (point.value, value) == (1, 3)


def test_check_shift_clean(t1):
    report = check_shift(t1, 1000, seed=5)
    assert report.violations == 0
    assert report.performed > 0


def test_check_shift_random_instances():
    rng = random.Random(409)
    for _ in range(5):
        inst = random_instance(rng, zero_lower=rng.random() < 0.5)
        assert check_shift(inst, 200, seed=rng.randint(0, 999)).violations == 0


def test_shift_zero_delta_equality(t1):
    s = Scenario([1, 1, 0])
    shifted = shift(t1, s, 0, 1, 0)
    for x in (0, 1, 2):
        assert theta(t1, x, shifted).theta == theta(t1, x, s).theta
