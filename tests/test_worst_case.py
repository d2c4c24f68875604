"""Family evaluators, max-regret aggregation, and the minmax search."""
from __future__ import annotations

import gc
import os
import random
import subprocess
import sys
import weakref
from fractions import Fraction

import pytest
from hypothesis import given

import evacregret
from evacregret import (
    PathInstance,
    PathModelError,
    Scenario,
    max_regret,
    min_max_regret,
    optimal_sink,
    regret,
    theta,
)
from evacregret import worst_case
from evacregret.envelopes import SolveCache, left_envelope_raw, right_envelope_raw
from evacregret.oracle import GridOracle
from evacregret.path_model import reflect_instance, two_varying
from evacregret.worst_case import (
    RegretSolver,
    eval_left_pair,
    eval_left_pair_inner,
    eval_left_single,
    left_arrival_envelope,
)

from conftest import _slice_candidates, random_instance, random_scenario, rational
from test_mirror import DERANDOMIZED, instances


def test_left_single_fixtures(t1):
    assert eval_left_single(t1, 0, 2).value == 4
    assert eval_left_single(t1, 1, 2).value == 2
    assert eval_left_single(t1, 0, 1).value == 3


def test_left_single_degenerate_interval():
    # single scenario: the term is that scenario's line value minus the exact
    # min over [x_1, x_n] (here attained by the global optimum)
    inst = PathInstance([0, 1, 2], [1, 2], [0, 1, 0], [0, 1, 0])
    term = eval_left_single(inst, 1, 2)
    s = two_varying(inst, 1, 1, 1, 1)
    assert term.value == theta(inst, 2, s).theta_left - optimal_sink(inst, s).value


def test_left_pair_fixture_linear_extension(t1):
    """At the zero lower bound the machinery keeps the one-sided limit; the
    boundary scenario's larger true value is covered by the single family."""
    term = eval_left_pair(t1, 0, 1, 2)
    assert term.value == 1
    boundary = Scenario([0, 2, 0])
    assert regret(t1, 2, boundary) == 2
    assert eval_left_single(t1, 1, 2).value == 2
    assert max_regret(t1, 2).value >= regret(t1, 2, boundary)


def test_left_pair_exact_on_positive_bounds():
    """With positive lower bounds the pair evaluator equals the true family
    maximum: at least every sampled value, and exactly reproduced when the
    reported argmax is replayed through the closed forms."""
    from evacregret.envelopes import arrival_envelope
    from evacregret.evacuation import theta_min_on_edge

    rng = random.Random(307)
    for _ in range(10):
        inst = random_instance(rng, max_n=4)
        n = inst.n
        if n < 2:
            continue
        j = rng.randint(1, n - 1)
        i = rng.randint(0, j - 1)
        x = inst.positions[rng.randint(j + 1, n)]
        term = eval_left_pair(inst, i, j, x)
        lo, hi = inst.weight_lo[i], inst.weight_hi[i]

        def direct(alpha):
            s = two_varying(inst, i, j, alpha, inst.weight_hi[j])
            subtrahend = min(
                theta_min_on_edge(inst, u, s)[1] for u in range(j, n)
            )
            return arrival_envelope(inst, j, j, x, s, 0, 0).values[0] - subtrahend

        for t in range(33):
            alpha = lo + (hi - lo) * Fraction(t, 32)
            assert term.value >= direct(alpha)
        assert term.value == direct(term.alphas[0])


def test_left_pair_inner_fixture(t1):
    term = eval_left_pair_inner(t1, 0, 1, 2)
    assert term.value == 1
    # the right-side mirror at x_0 is the left side of the reflection at x_2
    # (value 7/2); the aggregate there keeps only the side maximum, h = 4
    # from a single term, so it prunes this pair
    assert eval_left_pair_inner(reflect_instance(t1), 0, 1, 2).value == Fraction(7, 2)
    solver = RegretSolver(t1)
    left = worst_case._left_terms(solver._cache, 0)
    mirrored = worst_case._left_terms(solver._reflected_cache, t1.n)
    assert left == [] and max(t.value for t in mirrored) == solver.vertex_regret(0).h_value == 4


def test_arrival_envelope_single_line(t1):
    env = left_arrival_envelope(t1, 0, 1, 2)
    assert env.values == (1, 3)  # 1 + alpha/2 on [0, 4]


def test_candidate_splits_include_the_envelope_crossing():
    """On one edge with both weights in [0, 2], the left envelope 1 + a1 and
    the right one 1 + a2 cross inside the slice a1 + a2 = 1/2, at a1 = 1/4,
    between the slice ends 0 and 1/2."""
    inst = PathInstance([0, 1], [1], [0, 0], [2, 2])
    term = worst_case._left_term(SolveCache(inst), worst_case.FAMILY_LEFT_PAIR_INNER, 0, 1)
    alpha, cross = Fraction(1, 2), Fraction(1, 4)
    assert worst_case._candidate_splits(term, 0, alpha) == [0, cross, alpha]
    base = two_varying(inst, 0, 1, 0, 0)
    fl = left_envelope_raw(inst, 0, 1, base, 0, 2)
    fr = right_envelope_raw(inst, 1, 0, base, 0, 2)
    assert fl(cross) == fr(alpha - cross)


@DERANDOMIZED
@given(instances(min_n=2))
def test_candidate_splits_match_slice_candidates(inst):
    """_candidate_splits equals conftest's slice candidates, written apart from
    it, on every inner-pair term and edge of the instance and of its mirror,
    at the ends of the free range and at every seventh of it."""
    for side in (inst, reflect_instance(inst)):
        cache = SolveCache(side)
        for j in range(1, side.n):
            for i in range(j):
                term = worst_case._left_term(cache, worst_case.FAMILY_LEFT_PAIR_INNER, i, j)
                box = term.box
                for u in term.edges:
                    fl = left_envelope_raw(side, i, u + 1, term.base, box.a1, box.a2)
                    fr = right_envelope_raw(side, j, u, term.base, box.b1, box.b2)
                    for t in range(8):
                        alpha = term.lo + (term.hi - term.lo) * Fraction(t, 7)
                        lo, hi = max(box.a1, alpha - box.b2), min(box.a2, alpha - box.b1)
                        expected = _slice_candidates(fl, fr, alpha, lo, hi, [Fraction(0)])
                        assert worst_case._candidate_splits(term, u, alpha) == expected


def test_pinned_families_read_the_true_time():
    """A zero-width interval pins one scenario, so the arrival envelope and the
    single family read its true time: 0 where no weight has to move, not the
    linear extension's travel time."""
    inst = PathInstance([0, 1, 2], [1, 2], [0, 0, 0], [0, 0, 2])
    assert left_arrival_envelope(inst, 0, 1, 2).values == (0,)
    assert eval_left_single(inst, 0, 2).value == 0
    assert eval_left_pair(inst, 0, 1, 2).value == 0
    loaded = PathInstance([0, 1, 2], [1, 2], [1, 0, 0], [1, 0, 2])
    assert left_arrival_envelope(loaded, 0, 1, 2).values == (Fraction(3, 2),)


def test_right_side_evaluators_fixtures(t1):
    """The right-side families at x_0 are the left-side evaluators on the
    mirror image, at its far end x_n (vertex k maps to n - k)."""
    mirror = reflect_instance(t1)
    end = t1.positions[-1]
    assert eval_left_single(mirror, 0, end).value == 4
    assert eval_left_single(mirror, 1, end).value == 3
    assert eval_left_pair(mirror, 0, 1, end).value == 3
    assert eval_left_pair_inner(mirror, 0, 1, end).value == Fraction(7, 2)
    term = worst_case._mirror_term(t1, eval_left_single(mirror, 0, end))
    assert (term.family, term.j, term.edge) == ("right_single", 2, 1)


def test_left_families_reject_sink_at_or_left_of_vertex(t1):
    """A left family needs its vertex strictly left of the sink."""
    with pytest.raises(PathModelError):
        eval_left_single(t1, 2, 2)
    with pytest.raises(PathModelError):
        eval_left_single(t1, 1, Fraction(1, 2))
    with pytest.raises(PathModelError):
        eval_left_pair(t1, 0, 2, 2)
    with pytest.raises(PathModelError):
        eval_left_pair_inner(t1, 1, 1, 2)
    with pytest.raises(PathModelError):
        eval_left_single(t1, 0, 3)  # beyond x_n


def test_min_max_regret_without_asserts(t1):
    """No result depends on an assert: under python -O the t1 answer holds."""
    src = os.path.dirname(os.path.dirname(evacregret.__file__))
    code = (
        "from evacregret import PathInstance, min_max_regret\n"
        "r = min_max_regret(PathInstance([0, 1, 2], [1, 2], [0, 0, 0], [2, 2, 2]))\n"
        "print(r.value, r.location.value)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    assert out.stdout.split() == ["3", "1"]


def test_single_vertex_instance():
    inst = PathInstance([0], [], [1], [2])
    report = min_max_regret(inst)
    assert (report.value, report.location.value) == (0, 0)
    assert max_regret(inst, 0).value == 0


def test_max_regret_vertex_fixtures(t1):
    assert max_regret(t1, 2).value == 4
    assert max_regret(t1, 1).value == 3
    assert max_regret(t1, 0).value == 4


def test_max_regret_witnesses_replay(t1):
    for x in (0, 1, 2):
        report = max_regret(t1, x)
        w = report.witness
        assert w is not None
        assert regret(t1, x, w.scenario) == report.value


def test_max_regret_witness_examples(t1):
    assert max_regret(t1, 2).witness.scenario.weights == (2, 0, 0)
    assert max_regret(t1, 1).witness.scenario.weights == (2, 0, 0)
    assert max_regret(t1, 0).witness.scenario.weights == (0, 0, 2)


def test_max_regret_soundness_lower_bound():
    rng = random.Random(311)
    for _ in range(8):
        inst = random_instance(rng, max_n=4, zero_lower=rng.random() < 0.5)
        solver = RegretSolver(inst)
        x = inst.positions[rng.randint(0, inst.n)]
        value = solver.max_regret(x).value
        for _ in range(10):
            s = random_scenario(rng, inst)
            assert value >= regret(inst, x, s)


def test_max_regret_interior_point(t1):
    report = max_regret(t1, Fraction(3, 2))
    # max(G(x_2) - 1/2, H(x_1) - 1/2) = max(7/2, 3/2)
    assert report.value == Fraction(7, 2)
    assert regret(t1, Fraction(3, 2), report.witness.scenario) == report.value


def test_ghcont_inequalities():
    rng = random.Random(313)
    instances = [random_instance(rng, max_n=4, zero_lower=z) for z in (False, True, False)]
    instances.append(PathInstance([0, 1, 2], [1, 2], [0, 0, 0], [2, 2, 2]))
    for inst in instances:
        solver = RegretSolver(inst)
        reports = [solver.vertex_regret(m) for m in range(inst.vertex_count)]
        for u in range(inst.n):
            d = inst.edge_length(u)
            g_here, g_next = reports[u].g_value, reports[u + 1].g_value
            if g_here is not None:
                assert g_next is not None and g_here <= g_next - d
            h_here, h_next = reports[u].h_value, reports[u + 1].h_value
            if h_next is not None:
                assert h_here is not None and h_next <= h_here - d


def test_max_regret_unimodal_over_vertices():
    rng = random.Random(317)
    for _ in range(6):
        inst = random_instance(rng, max_n=4, zero_lower=rng.random() < 0.5)
        solver = RegretSolver(inst)
        values = [solver.vertex_regret(m).value for m in range(inst.vertex_count)]
        for a in range(len(values)):
            for b in range(a + 1, len(values)):
                for c in range(b + 1, len(values)):
                    assert not (values[a] < values[b] > values[c])


def test_min_max_regret_t1(t1):
    report = min_max_regret(t1)
    assert report.value == 3
    assert report.location.value == 1
    assert regret(t1, report.location, report.witness.scenario) == 3


def test_min_max_regret_all_zero():
    inst = PathInstance([0, 1, 2], [1, 2], [0, 0, 0], [0, 0, 0])
    report = min_max_regret(inst)
    assert report.value == 0
    assert report.location.value == 0


def test_min_max_regret_mirrored(t1):
    mirror = reflect_instance(t1)
    report = min_max_regret(mirror)
    assert report.value == 3
    assert report.location.value == t1.positions[-1] - 1


def test_min_max_regret_not_above_vertices():
    rng = random.Random(331)
    for _ in range(6):
        inst = random_instance(rng, max_n=4, zero_lower=rng.random() < 0.5)
        solver = RegretSolver(inst)
        report = solver.min_max_regret()
        for m in range(inst.vertex_count):
            assert report.value <= solver.vertex_regret(m).value
        assert solver.max_regret(report.location).value == report.value


def test_solver_frees_its_instance():
    """No module-level state keeps an instance alive after its solver is gone."""
    inst = random_instance(random.Random(5), max_n=4)
    solver = RegretSolver(inst)
    solver.min_max_regret()
    ref = weakref.ref(inst)
    del solver, inst
    gc.collect()
    assert ref() is None


def test_solve_builds_each_edge_profile_once(monkeypatch, evaluated_vertices):
    """Across the vertices one solve evaluates, every edge profile the family
    evaluators request, pinned (lo == hi) ones included, is built once.  The
    end weights are pinned at [2, 2] so that pinned terms survive pruning."""
    inst = PathInstance(
        [0, 1, 3, 4, 6, 7], [2, 1, 3, 1, 2], [2, 1, 0, 1, 0, 2], [2, 1, 1, 2, 1, 2]
    )
    calls: dict[str, list] = {"edge_min_profile": [], "edge_min_profile_single": []}
    for name, seen in calls.items():
        original = getattr(worst_case, name)

        def counted(instance, *args, _original=original, _seen=seen, **kwargs):
            _seen.append((id(instance),) + args)
            return _original(instance, *args, **kwargs)

        monkeypatch.setattr(worst_case, name, counted)
    RegretSolver(inst).min_max_regret()
    assert len(evaluated_vertices) > 2
    single = calls["edge_min_profile_single"]
    assert calls["edge_min_profile"] and any(lo == hi for *_, (lo, hi) in single)
    for seen in calls.values():
        assert len(seen) == len(set(seen))


def test_max_regret_against_grid_oracle():
    """0 <= exact - grid <= 2h/c_min on small random instances."""
    rng = random.Random(337)
    h = Fraction(1, 32)
    for _ in range(5):
        inst = random_instance(
            rng, max_n=3, zero_lower=rng.random() < 0.4, weight_hi_range=(Fraction(1, 4), 1)
        )
        oracle = GridOracle(inst, h)
        solver = RegretSolver(inst)
        slack = 2 * h / min(inst.capacities)
        for m in range(inst.vertex_count):
            exact = solver.vertex_regret(m).value
            coarse = oracle.max_regret(inst.positions[m])
            assert 0 <= exact - coarse <= slack
