"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria and their pinned tolerances:
  1. T1 end-to-end exact values, under 1 second.
  2. Closed form vs simulation: first-order convergence, C measured at
     dt = 1/256 and the error bound re-verified (halved dt) at dt = 1/512,
     100 random instances, under 2 minutes.
  3. Grid agreement: 0 <= exact - grid <= 2h/c_min at h = 1/64, 30 random
     instances x 5 sinks, under 10 minutes.
  4. Profile constructions vs brute-force split enumeration: exact at anchor
     candidates, within max-slope * h on plain grids, 100 random pairs,
     under 2 minutes.
  5. Structural invariants: unimodality, shift monotonicity (1000 trials),
     vertex-line inequalities, envelope/inverse/merge exactness, witness
     replay.
  6. Size bounds on all profile outputs plus a full n = 40 solve under
     5 minutes, with its pinned answer and a witness that replays exactly.
"""
from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

from evacregret import (
    PathInstance,
    Scenario,
    max_regret,
    min_max_regret,
    optimal_sink,
    pwl,
    regret,
    theta,
)
from evacregret.oracle import GridOracle, check_shift, simulate_evacuation
from evacregret.path_model import two_varying
from evacregret.profiles import Box, min_max_profile, min_max_y_profile
from evacregret.pwl import Line
from evacregret.worst_case import RegretSolver

from conftest import (
    grid_min_max_offset,
    grid_min_max_split,
    random_convex_pwl,
    random_instance,
    random_positive_pwl,
    random_scenario,
    rational,
)


def report(name: str, ok: bool, detail: str = ""):
    marker = "PASS" if ok else "FAIL"
    print(f"[{marker}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_criterion_1_t1_end_to_end(t1):
    start = time.time()
    solver = RegretSolver(t1)
    vertex_values = tuple(solver.vertex_regret(m).value for m in range(3))
    opt = solver.min_max_regret()
    elapsed = time.time() - start
    ok = (
        vertex_values == (4, 3, 4)
        and opt.value == 3
        and opt.location.value == 1
        and elapsed < 1.0
    )
    report(
        "criterion 1: T1 vertex regrets (4,3,4), R_OPT = 3 at x = 1",
        ok,
        f"values={vertex_values}, R_OPT={opt.value} at {opt.location.value}, {elapsed:.2f}s",
    )


def test_criterion_2_simulation_convergence():
    start = time.time()
    rng = random.Random(20_000)
    cases = []
    for _ in range(100):
        inst = random_instance(
            rng,
            max_n=6,
            zero_lower=False,
            cap_range=(Fraction(1, 2), 4),
            weight_hi_range=(Fraction(1, 4), 1),
        )
        s = random_scenario(rng, inst, denom=4)
        x = inst.positions[rng.randint(0, inst.n)]
        cases.append((inst, s, x, theta(inst, x, s).theta))

    dt = Fraction(1, 256)
    errors = [
        abs(simulate_evacuation(inst, x, s, dt) - exact)
        for inst, s, x, exact in cases
    ]
    c_measured = max(
        err / (inst.n * dt) for err, (inst, _, _, _) in zip(errors, cases)
    )
    c_measured = max(c_measured, Fraction(1, 4))

    half = dt / 2
    ok = True
    worst = Fraction(0)
    for inst, s, x, exact in cases:
        err = abs(simulate_evacuation(inst, x, s, half) - exact)
        bound = c_measured * inst.n * half
        worst = max(worst, err - bound)
        if err > bound:
            ok = False
    elapsed = time.time() - start
    ok = ok and elapsed < 120
    report(
        "criterion 2: |theta - sim| <= C*n*dt, C stable under dt halving",
        ok,
        f"C={float(c_measured):.3f}, worst slack={float(worst):.5f}, {elapsed:.1f}s",
    )


def test_criterion_3_grid_agreement():
    start = time.time()
    rng = random.Random(30_000)
    h = Fraction(1, 64)
    checked = 0
    worst_gap = Fraction(0)
    for idx in range(30):
        zero_lower = idx % 5 == 4
        if zero_lower:
            inst = random_instance(
                rng, max_n=5, zero_lower=True, weight_hi_range=(Fraction(1, 8), Fraction(1, 4))
            )
        else:
            inst = random_instance(
                rng,
                max_n=5,
                zero_lower=False,
                weight_hi_range=(Fraction(1, 4), Fraction(1, 2)),
            )
        oracle = GridOracle(inst, h)
        solver = RegretSolver(inst)
        slack = 2 * h / min(inst.capacities)
        total = inst.positions[-1]
        sinks = {inst.positions[0], total, total / 3, total / 2, 2 * total / 3}
        for x in sorted(sinks):
            exact = solver.max_regret(x).value
            coarse = oracle.max_regret(x)
            gap = exact - coarse
            worst_gap = max(worst_gap, gap)
            assert 0 <= gap <= slack, f"gap {gap} outside [0, {slack}] at x={x}"
            checked += 1
    elapsed = time.time() - start
    ok = checked == 150 and elapsed < 600
    report(
        "criterion 3: 0 <= exact - grid <= 2h/c_min over 30 instances x 5 sinks",
        ok,
        f"{checked} checks, worst gap={float(worst_gap):.4f}, {elapsed:.1f}s",
    )


def test_criterion_4_profile_oracles():
    start = time.time()
    rng = random.Random(40_000)
    h = Fraction(1, 32)
    for _ in range(100):
        fl = random_positive_pwl(rng, 0, 2)
        fr = random_positive_pwl(rng, 0, 2)
        box = Box(0, 2, 0, 2)
        m = min_max_profile(fl, fr, box)
        lip = max(max(fl.slopes()), max(fr.slopes()))
        for _ in range(5):
            alpha = rational(rng, box.alpha_lo, box.alpha_hi, 16)
            exact = grid_min_max_split(fl, fr, box, alpha)
            coarse = grid_min_max_split(fl, fr, box, alpha, h=h)
            assert m(alpha) == exact
            assert m(alpha) <= coarse <= m(alpha) + lip * h
    for _ in range(100):
        fl = random_convex_pwl(rng, 0, 2)
        fr = random_convex_pwl(rng, 0, 2)
        box = Box(0, 2, 0, 2)
        y_lo = rational(rng, -1, Fraction(1, 2), 4)
        y_hi = y_lo + rational(rng, 0, 1, 4)
        m = min_max_y_profile(fl, fr, box, (y_lo, y_hi))
        for _ in range(5):
            alpha = rational(rng, box.alpha_lo, box.alpha_hi, 16)
            assert m(alpha) == grid_min_max_offset(fl, fr, box, (y_lo, y_hi), alpha)
    elapsed = time.time() - start
    ok = elapsed < 120
    report(
        "criterion 4: profile constructions exact vs split enumeration",
        ok,
        f"200 pairs, {elapsed:.1f}s",
    )


def test_criterion_5_structural_invariants(t1):
    rng = random.Random(50_000)
    # shift monotonicity, 1000 random trials
    shift_report = check_shift(t1, 1000, seed=9)
    assert shift_report.violations == 0

    # unimodality of theta and of the worst-case regret at vertices
    for _ in range(5):
        inst = random_instance(rng, max_n=4, zero_lower=rng.random() < 0.5)
        s = random_scenario(rng, inst)
        samples = [inst.positions[-1] * Fraction(t, 16) for t in range(17)]
        values = [theta(inst, x, s).theta for x in samples]
        solver = RegretSolver(inst)
        vertex_vals = [solver.vertex_regret(m).value for m in range(inst.vertex_count)]
        for seq in (values, vertex_vals):
            for a in range(len(seq)):
                for b in range(a + 1, len(seq)):
                    for c in range(b + 1, len(seq)):
                        assert not (seq[a] < seq[b] > seq[c])
        # vertex-line inequalities between neighboring sinks, exact
        reports = [solver.vertex_regret(m) for m in range(inst.vertex_count)]
        for u in range(inst.n):
            d = inst.edge_length(u)
            if reports[u].g_value is not None:
                assert reports[u].g_value <= reports[u + 1].g_value - d
            if reports[u + 1].h_value is not None:
                assert reports[u + 1].h_value <= reports[u].h_value - d
        # witness replay, exact
        for m in range(inst.vertex_count):
            rep = solver.max_regret(inst.positions[m])
            assert rep.value == reports[m].value
            assert rep.witness is not None
            assert regret(inst, inst.positions[m], rep.witness.scenario) == rep.value

    # envelope / inverse / merge exactness spot checks
    env = pwl.upper_envelope([Line(0, 1), Line(1, 0)], (0, 2))
    assert (env(Fraction(1, 2)), env(2)) == (1, 2)
    f = random_positive_pwl(rng, 0, 2)
    inv = pwl.inverse(f)
    for q in f.breakpoints:
        assert inv(f(q)) == q
    g = random_positive_pwl(rng, 0, 2)
    merged = pwl.merge_max(f, g)
    for t in range(9):
        x = Fraction(t, 4)
        assert merged(x) == max(f(x), g(x))
    report("criterion 5: structural invariants all exact", True)


def test_criterion_6_size_bounds_and_desk_scale():
    rng = random.Random(60_000)
    for _ in range(40):
        fl = random_positive_pwl(rng, 0, 2)
        fr = random_positive_pwl(rng, 0, 2)
        box = Box(0, 2, 0, 2)
        m = min_max_profile(fl, fr, box)
        assert m.size <= 5 * (fl.size + fr.size) + 8
        fl2 = random_convex_pwl(rng, 0, 2)
        fr2 = random_convex_pwl(rng, 0, 2)
        m2 = min_max_y_profile(fl2, fr2, box, (Fraction(-1, 2), Fraction(1, 2)))
        assert m2.size <= 12 * (fl2.size + fr2.size) + 24

    start = time.time()
    inst = random_instance(rng, max_n=40)
    while inst.n < 40:
        inst = random_instance(rng, max_n=40)
    opt = min_max_regret(inst)
    elapsed = time.time() - start
    w = opt.witness
    replay = theta(inst, opt.location.value, w.scenario).theta - optimal_sink(inst, w.scenario).value
    ok = (
        elapsed < 300
        and (opt.value, opt.location.value) == (Fraction(83, 8), Fraction(187, 8))
        and (w.family, w.i, w.j, w.edge) == ("right_pair", 40, 24, 21)
        and w.alpha == w.beta == Fraction(11, 16)
        and replay == opt.value
    )
    report(
        "criterion 6: size bounds hold; n=40 solve under 5 minutes, its witness replays",
        ok,
        f"R_OPT={opt.value} at {opt.location.value}, {w.family} i={w.i} j={w.j} edge={w.edge}"
        f" alpha={w.alpha} beta={w.beta}, replay {replay}, {elapsed:.1f}s",
    )
