"""The branch-and-bound over the family terms is exact.

`RegretSolver.vertex_regret` evaluates only the units (a term and one
subtrahend edge u) whose bound can reach the side's maximum.  It refines a
unit's bound in stages: max(A) minus the least time over edge u under the
all-lower scenario (the coarse floor), then minus the least time under
least(lo), the least weights of the term's scenarios (its own floor), then,
for a free both-free pair, on each quarter [p, q] of the free weight range,
A(q) minus the least time under least(p).  These tests compare the solver
with a full evaluation of every term through the public evaluators; check
that the coarse floor is at most every term's own floor; check, on every unit
and every eighth [p, q] of its free weight range (which covers the quarters),
the max of A there minus the least time over edge u under least(p); check the
coarser max(A) - OPT(s_lo) on every term; and check that a solve really
prunes, with no more work than a recorded count."""
from __future__ import annotations

from fractions import Fraction
from functools import partial

from hypothesis import given

from evacregret import PathInstance, RegretSolver, optimal_sink, pwl
from evacregret import worst_case
from evacregret.envelopes import SolveCache, arrival_envelope
from evacregret.evacuation import theta_min_on_edge
from evacregret.path_model import reflect_instance, substitute, two_varying
from evacregret.profiles import Box, edge_min_profile, edge_min_profile_single
from evacregret.worst_case import (
    eval_left_pair,
    eval_left_pair_inner,
    eval_left_single,
    left_arrival_envelope,
)

from test_mirror import DERANDOMIZED, instances


def full_left_terms(inst: PathInstance, m: int, cache: SolveCache) -> list:
    """(term, A, s_lo) for every left family term at x_m, in family order."""
    x = inst.positions[m]
    lo, hi = inst.weight_lo, inst.weight_hi
    out = []
    for j in range(m):
        base = two_varying(inst, j, j, 0, 0)
        line = arrival_envelope(inst, j, j, x, base, lo[j], hi[j])
        s_lo = substitute(base, j, lo[j])
        out.append((eval_left_single(inst, j, x, cache=cache), line, s_lo))
    for j in range(1, m):
        for i in range(j):
            base = two_varying(inst, i, j, 0, hi[j])
            line = arrival_envelope(inst, j, j, x, base, lo[i], hi[i])
            s_lo = two_varying(inst, i, j, lo[i], hi[j])
            out.append((eval_left_pair(inst, i, j, x, cache=cache), line, s_lo))
            envelope = left_arrival_envelope(inst, i, j, x)
            s_lo = two_varying(inst, i, j, lo[i], lo[j])
            out.append((eval_left_pair_inner(inst, i, j, x, cache=cache), envelope, s_lo))
    return out


def side_maximum(terms: list) -> tuple:
    """The side's maximum and the terms tied with it, as vertex_regret keeps them."""
    best = max((t.value for t in terms), default=None)
    return best, tuple(t for t in terms if t.value == best)


def check_against_full_evaluation(inst: PathInstance) -> None:
    solver = RegretSolver(inst)
    reflected = reflect_instance(inst)
    caches = {id(inst): SolveCache(inst), id(reflected): SolveCache(reflected)}
    for m in range(inst.vertex_count):
        report = solver.vertex_regret(m)
        sides = ((inst, m, report.g_value, report.g_candidates),
                 (reflected, inst.n - m, report.h_value, report.h_candidates))
        for side, vertex, value, candidates in sides:
            full = full_left_terms(side, vertex, caches[id(side)])
            for term, line, s_lo in full:
                assert term.value <= max(line.values) - optimal_sink(side, s_lo).value
            assert (value, candidates) == side_maximum([t for t, _, _ in full])


@DERANDOMIZED
@given(instances())
def test_pruned_vertex_regret_equals_full_evaluation(inst):
    """g, h and their tied candidates equal a full evaluation of every term,
    and every term is at most its bound, on the instance and its mirror."""
    check_against_full_evaluation(inst)
    check_against_full_evaluation(reflect_instance(inst))


def left_units(inst: PathInstance, m: int, cache: SolveCache):
    """(A, P_u, least, u) for every left family unit at x_m: the arrival line
    or envelope, the profile over edge u, and the least scenario at a free
    weight, each built here from the family definitions."""
    x = inst.positions[m]
    lo, hi = inst.weight_lo, inst.weight_hi
    for j in range(m):
        base = two_varying(inst, j, j, 0, 0)
        line = arrival_envelope(inst, j, j, x, base, lo[j], hi[j])
        for u in range(j, inst.n):
            profile = edge_min_profile_single(inst, j, u, base, (lo[j], hi[j]), cache=cache)
            yield line, profile, partial(substitute, base, j), u
    for j in range(1, m):
        for i in range(j):
            base = two_varying(inst, i, j, 0, hi[j])
            line = arrival_envelope(inst, j, j, x, base, lo[i], hi[i])
            for u in range(j, inst.n):
                profile = edge_min_profile_single(inst, i, u, base, (lo[i], hi[i]), cache=cache)
                yield line, profile, partial(substitute, base, i), u

            def least(alpha, i=i, j=j):
                return two_varying(inst, i, j, max(lo[i], alpha - hi[j]), max(lo[j], alpha - hi[i]))

            envelope = left_arrival_envelope(inst, i, j, x)
            for u in range(i, j):
                profile = edge_min_profile(inst, i, j, u, Box(lo[i], hi[i], lo[j], hi[j]), cache=cache)
                yield envelope, profile, least, u


def check_unit_bounds(inst: PathInstance) -> None:
    """On each eighth [p, q] of a unit's free weight range (the whole range
    when pinned), max (A - P_u) <= max A - theta_min_on_edge(u, least(p))."""
    cache = SolveCache(inst)
    for m in range(inst.vertex_count):
        for line, profile, least, u in left_units(inst, m, cache):
            cuts = [line.lo + (line.hi - line.lo) * Fraction(t, 8) for t in range(9)]
            for p, q in zip(cuts, cuts[1:]):
                part = pwl.restrict(line, p, q), pwl.restrict(profile, p, q)
                value = pwl.max_difference_all(*part)[0]
                top = max(pwl.restrict(line, p, q).values)
                assert value <= top - theta_min_on_edge(inst, u, least(p))[1]


@DERANDOMIZED
@given(instances())
def test_unit_bound_holds_on_every_part(inst):
    """The bound the search prunes by holds on every unit and every part of
    its range, on the instance and on its mirror."""
    check_unit_bounds(inst)
    check_unit_bounds(reflect_instance(inst))


def own_floor_scenarios(inst: PathInstance):
    """(family, i, j, least(lo), edges) for every left family term of inst,
    built here from the family definitions."""
    lo, hi = inst.weight_lo, inst.weight_hi
    for j in range(inst.n):
        s_lo = substitute(two_varying(inst, j, j, 0, 0), j, lo[j])
        yield worst_case.FAMILY_LEFT_SINGLE, None, j, s_lo, range(j, inst.n)
    for j in range(1, inst.n):
        for i in range(j):
            s_lo = two_varying(inst, i, j, lo[i], hi[j])
            yield worst_case.FAMILY_LEFT_PAIR, i, j, s_lo, range(j, inst.n)
            s_lo = two_varying(inst, i, j, lo[i], lo[j])
            yield worst_case.FAMILY_LEFT_PAIR_INNER, i, j, s_lo, range(i, j)


def check_coarse_floors(inst: PathInstance) -> None:
    """The solver's own floor of each term on each of its edges is the least
    time over the edge under least(lo), and the coarse floor under the
    all-lower scenario is at most it."""
    cache = SolveCache(inst)
    lower = inst.lower_scenario()
    for family, i, j, s_lo, edges in own_floor_scenarios(inst):
        term = worst_case._left_term(cache, family, i, j)
        assert term.edges == edges
        for u in edges:
            own = term.floor(u, term.lo)
            assert own == theta_min_on_edge(inst, u, s_lo)[1]
            assert worst_case._edge_floor(cache, lower, u) <= own


@DERANDOMIZED
@given(instances())
def test_coarse_floor_is_at_most_every_own_floor(inst):
    """The first stage's bound is at or above the second's on every unit, on
    the instance and on its mirror."""
    check_coarse_floors(inst)
    check_coarse_floors(reflect_instance(inst))


# an instance whose solve prunes, with both-free pairs reaching the part stage
PRUNED = PathInstance(
    [0, 1, 3, 4, 6, 7, 9, 10, 12],
    [2, 1, 3, 1, 2, 3, 1, 2],
    [0, 1, 0, 1, 0, 0, 1, 0, 1],
    [2, 1, 1, 2, 1, 2, 3, 1, 2],
)


def test_each_unit_has_one_heap_entry(monkeypatch):
    """Within one vertex's search no unit is pushed twice at one stage, so it
    never has two live heap entries, and some unit is pushed at the part
    stage, so the check is not vacuous; on PRUNED and on its mirror."""
    pushed: list = []
    original = worst_case.heappush

    def counted(heap, item):
        pushed.append(item[1:])  # (term, edge, stage)
        original(heap, item)

    monkeypatch.setattr(worst_case, "heappush", counted)
    part_stage = 0
    for inst in (PRUNED, reflect_instance(PRUNED)):
        cache = SolveCache(inst)
        for m in range(inst.vertex_count):
            pushed.clear()
            worst_case._left_terms(cache, m)
            assert len(pushed) == len(set(pushed)), m
            part_stage += sum(stage == 2 for *_, stage in pushed)
    assert part_stage > 0


def test_solve_prunes_profile_builds(monkeypatch, evaluated_vertices):
    """A solve builds strictly fewer edge profiles than a full evaluation of
    every term requests at the vertices the solve evaluates, and no more
    edge profiles or floor vertex times than recorded with lazily refined
    bounds (10 and 24; computing every term's own floors up front made 10
    and 125), so a looser bound fails here."""
    inst = PRUNED
    built: list = []
    for name in ("edge_min_profile", "edge_min_profile_single"):
        original = getattr(worst_case, name)

        def counted(instance, *args, _original=original, **kwargs):
            built.append((id(instance),) + args)
            return _original(instance, *args, **kwargs)

        monkeypatch.setattr(worst_case, name, counted)
    vertex_times: list = []
    original_times = worst_case._vertex_times

    def counted_times(*args):
        vertex_times.append(args)
        return original_times(*args)

    monkeypatch.setattr(worst_case, "_vertex_times", counted_times)
    RegretSolver(inst).min_max_regret()
    pruned = len(built)
    vertices = sorted(evaluated_vertices)
    assert len(vertices) > 2
    assert pruned <= 10 and len(vertex_times) <= 24, (pruned, len(vertex_times))

    built.clear()
    reflected = reflect_instance(inst)
    for side, cache in ((inst, SolveCache(inst)), (reflected, SolveCache(reflected))):
        for m in vertices:
            full_left_terms(side, m if side is inst else inst.n - m, cache)
    full = len(built)
    assert 0 < pruned < full, (pruned, full)
