"""Properties on generated small instances, including the degenerate ones:
zero-width intervals, zero lower bounds, all-zero weights and one capacity
on every edge, and wide intervals whose lower bounds are off the quarter
grid.  The solver derives the right side of the path from the left by
reflection; these properties check that the solver on the mirror image gives
mirrored answers, that a single-varying profile matches the closed form on
either side of its edge, that scaling lengths and weights by c scales every
regret by c, that widening an interval never lowers a max regret, that a max
regret is never negative and its witness replays to it, that the grid oracle
falls below it by at most 2h/c_min, and that the minmax search returns the
leftmost minimum over every vertex and edge."""
from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from evacregret import PathInstance, RegretSolver, Scenario, regret
from evacregret.evacuation import _edge_min_from_times, _first_crossing, theta_min_on_edge
from evacregret.oracle import GridOracle
from evacregret.path_model import reflect_instance, substitute
from evacregret.profiles import edge_min_profile_single

QUARTERS = st.integers(1, 8).map(lambda q: Fraction(q, 4))
WEIGHTS = st.integers(0, 8).map(lambda q: Fraction(q, 4))
DERANDOMIZED = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def instances(draw, min_n: int = 0) -> PathInstance:
    n = draw(st.integers(min_n, 5))
    positions = [Fraction(0)]
    for length in draw(st.lists(QUARTERS, min_size=n, max_size=n)):
        positions.append(positions[-1] + length)
    capacities = draw(st.lists(QUARTERS, min_size=n, max_size=n))
    if draw(st.integers(0, 9)) < 3:
        # one capacity on every edge, the case the earlier literature assumes
        capacities = capacities[:1] * n
    all_zero = draw(st.integers(0, 9)) == 0
    weight_lo, weight_hi = [], []
    for _ in range(n + 1):
        lo, hi = sorted((draw(WEIGHTS), draw(WEIGHTS)))
        # a wide interval makes the full evaluations costly: half the others' rate
        kind = draw(st.sampled_from(["free", "zero_lower", "pinned"] * 2 + ["wide"]))
        if all_zero:
            lo = hi = Fraction(0)
        elif kind == "zero_lower":
            lo = Fraction(0)
        elif kind == "pinned":
            hi = lo
        elif kind == "wide":
            # off the quarter grid and several units wide: the all-lower
            # scenario is far below the term's, so the coarse bound is loose
            lo = Fraction(draw(st.sampled_from([1, 2, 4, 5])), 3)
            hi = lo + draw(st.integers(2, 4))
        weight_lo.append(lo)
        weight_hi.append(hi)
    return PathInstance(positions, capacities, weight_lo, weight_hi)


def vertices_and_midpoints(inst: PathInstance) -> list[Fraction]:
    pos = inst.positions
    return list(pos) + [(a + b) / 2 for a, b in zip(pos, pos[1:])]


@DERANDOMIZED
@given(instances())
def test_max_regret_mirror_symmetric(inst):
    """max_regret(reflect(I), L - x) == max_regret(I, x) at every vertex and
    at one interior point per edge."""
    solver = RegretSolver(inst)
    mirrored = RegretSolver(reflect_instance(inst))
    end = inst.positions[-1]
    points = list(inst.positions)
    points += [(inst.positions[k] + 2 * inst.positions[k + 1]) / 3 for k in range(inst.n)]
    for x in points:
        assert mirrored.max_regret(end - x).value == solver.max_regret(x).value


@DERANDOMIZED
@given(st.data())
def test_single_profile_matches_edge_minimum(data):
    """The single-varying edge profile, with the varying weight on either side
    of the edge (the pair profile with v_n pinned when it lies at or left of
    the edge, with v_0 pinned when right of it), is the closed-form edge
    minimum wherever the varying weight is positive, and everywhere on a
    pinned range."""
    inst = data.draw(instances(min_n=1))
    k = data.draw(st.integers(0, inst.n - 1))
    j = data.draw(st.integers(0, inst.n))
    base = Scenario(
        [data.draw(st.sampled_from((lo, hi))) for lo, hi in zip(inst.weight_lo, inst.weight_hi)]
    )
    lo, hi = inst.weight_lo[j], inst.weight_hi[j]
    profile = edge_min_profile_single(inst, j, k, base, (lo, hi))
    assert (profile.lo, profile.hi) == (lo, hi)
    for t in range(5):
        alpha = lo + (hi - lo) * Fraction(t, 4)
        if alpha > 0 or lo == hi:
            expected = theta_min_on_edge(inst, k, substitute(base, j, alpha))[1]
            assert profile(alpha) == expected


@DERANDOMIZED
@given(instances(), QUARTERS)
def test_regret_scales_with_lengths_and_weights(inst, c):
    """Multiplying positions and weight bounds by c multiplies every time,
    hence max_regret at every vertex and edge midpoint and min_max_regret's
    value and location, by c."""
    scaled = PathInstance(
        [c * p for p in inst.positions],
        inst.capacities,
        [c * w for w in inst.weight_lo],
        [c * w for w in inst.weight_hi],
    )
    solver, scaled_solver = RegretSolver(inst), RegretSolver(scaled)
    for x in vertices_and_midpoints(inst):
        assert scaled_solver.max_regret(c * x).value == c * solver.max_regret(x).value
    best, scaled_best = solver.min_max_regret(), scaled_solver.min_max_regret()
    assert scaled_best.value == c * best.value
    assert scaled_best.location.value == c * best.location.value


@DERANDOMIZED
@given(st.data())
def test_widening_an_interval_never_lowers_max_regret(data):
    """A wider interval at one vertex admits every scenario of the narrower
    one, so max_regret at every vertex and edge midpoint cannot fall."""
    inst = data.draw(instances())
    v = data.draw(st.integers(0, inst.n))
    weight_lo, weight_hi = list(inst.weight_lo), list(inst.weight_hi)
    weight_lo[v] = max(Fraction(0), weight_lo[v] - data.draw(WEIGHTS))
    weight_hi[v] += data.draw(WEIGHTS)
    wider = PathInstance(inst.positions, inst.capacities, weight_lo, weight_hi)
    solver, wider_solver = RegretSolver(inst), RegretSolver(wider)
    for x in vertices_and_midpoints(inst):
        assert wider_solver.max_regret(x).value >= solver.max_regret(x).value


@DERANDOMIZED
@given(instances())
def test_max_regret_is_nonnegative_and_replays(inst):
    """At every vertex and edge midpoint the max regret is at least 0, and a
    reported witness scenario replays through the evacuation module to it."""
    solver = RegretSolver(inst)
    for x in vertices_and_midpoints(inst):
        report = solver.max_regret(x)
        assert report.value >= 0
        if report.witness is not None:
            assert regret(inst, x, report.witness.scenario) == report.value


@DERANDOMIZED
@given(instances(min_n=1))
def test_grid_oracle_within_two_sided_bound(inst):
    """At every vertex and edge midpoint the grid oracle's max regret, over
    two-varying scenarios on a grid of spacing h, is at most the exact one
    and short of it by at most 2h/c_min."""
    h = Fraction(1, 4)
    solver, oracle = RegretSolver(inst), GridOracle(inst, h)
    slack = 2 * h / min(inst.capacities)
    for x in vertices_and_midpoints(inst):
        assert 0 <= solver.max_regret(x).value - oracle.max_regret(x) <= slack


@DERANDOMIZED
@given(instances())
def test_min_max_regret_is_leftmost_minimum_over_vertices_and_edges(inst):
    """min_max_regret's value and location are the leftmost minimum over
    every vertex's max regret and every edge's exact minimum, and the side
    maxima at the vertices make "g reaches h" false up to one vertex and
    true from it, which _first_crossing then finds."""
    solver = RegretSolver(inst)
    sides = [(r.g_value, r.h_value) for r in map(solver.vertex_regret, range(inst.n + 1))]
    reaches = [h is None or (g is not None and g >= h) for g, h in sides]
    assert reaches == sorted(reaches)
    assert _first_crossing(sides.__getitem__, inst.n) == reaches.index(True)
    candidates = [(solver.max_regret(x).value, x) for x in inst.positions]
    zero = Fraction(0)
    for u in range(inst.n):
        times = [zero if v is None else v for v in sides[u] + sides[u + 1]]
        value, y = _edge_min_from_times(inst, u, times)
        assert inst.positions[u] <= y <= inst.positions[u + 1]
        assert solver.max_regret(y).value == value
        candidates.append((value, y))
    best = solver.min_max_regret()
    assert (best.value, best.location.value) == min(candidates)
