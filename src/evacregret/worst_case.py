"""Worst-case regret at a point and the minmax-regret sink location.

The worst case over all legal scenarios reduces to six families of structured
scenarios, each leaving at most two vertex weights free.  Every family's
contribution at a sink is the max of a difference of two piecewise-linear
functions of the free total weight: an arrival-time line (or envelope of
lines) minus a min-evacuation profile.  The left-to-right families are
evaluated directly and the mirrored families by the same code on the
reflected instance.  Each left term, a family at fixed vertex indices, is one
`_LeftTerm` built once per solve, which holds everything that defines it.

Only each side's maximum and the terms tied with it reach a report, so the
per-vertex search is an exact branch-and-bound over units, one per term and
subtrahend edge u; the unpruned public evaluators take the best of a term's
units.  A unit's value is max_alpha (A(alpha) - P_u(alpha)), where A is the
arrival line or envelope and P_u(alpha) is a min-evacuation time over edge u
and the family's scenarios with free weight alpha (its envelopes can only
overstate the true time).  Write least(p) for the least weights, vertex by
vertex, of the family's scenarios with free weight at least p.  Adding weight
never speeds an evacuation, so on a part [p, q] of the free range P_u is at
least the floor under least(p), the least time over edge u, and A, which is
nondecreasing, is at most A(q).  A unit's bound is refined in stages: max(A)
less the floor under the all-lower scenario, at or below every least(lo)
(coarse), then under least(lo) (own), then for a free both-free pair the
largest over the equal parts [p, q] of [lo, hi] of A(q) less the floor under
least(p) (part).  A single's least(lo) is the all-lower scenario, so its
coarse bound is its own and it starts at the own stage.  Before any of that,
each term has one bound at or above all of its units' coarse bounds, from
per-vertex prefix passes in O(1) a term (_term_bounds), and the term, its A
and its units are built only once that bound is reached.  As term >= coarse
>= own >= part >= value, a unit whose bound is strictly below a value
already found can be neither the side's maximum nor tied with it, nor can a
term whose bound is.  The floors do not depend on the sink and are memoized
per solve.

The max regret at a sink is max(g, h, 0), where g is the left families' max
and h the right families'.  Inside an edge each family's arrival time moves
at slope 1 and its optimum not at all, so g and h there are the end vertices'
less the distance, and min_max_regret is optimal_sink's search on (g, h).  A
witness is built by replay once, for the reported point only, a both-free
pair's split at its side envelopes' breakpoints and crossings (pwl.merge_max).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import accumulate
from operator import sub
from typing import Optional, Union

from . import pwl
from .envelopes import SolveCache, arrival_envelope, cache_for, cached_envelope
from .evacuation import (
    _edge_min_from_times,
    _first_crossing,
    _vertex_times,
    optimal_sink,
    theta,
    theta_min_on_edge,
)
from .path_model import (
    PathInstance,
    PathModelError,
    Point,
    RationalLike,
    Scenario,
    as_point,
    reflect_instance,
    reflect_scenario,
    substitute,
    to_fraction,
    two_varying,
)
from .profiles import Box, edge_min_profile, edge_min_profile_single
from .pwl import PwlFunction

FAMILY_LEFT_SINGLE = "left_single"
FAMILY_LEFT_PAIR = "left_pair"
FAMILY_LEFT_PAIR_INNER = "left_pair_inner"
FAMILY_RIGHT_SINGLE = "right_single"
FAMILY_RIGHT_PAIR = "right_pair"
FAMILY_RIGHT_PAIR_INNER = "right_pair_inner"
_PARTS = 4  # equal parts of a free both-free pair's range, each bounded alone

_MIRROR = {
    FAMILY_LEFT_SINGLE: FAMILY_RIGHT_SINGLE,
    FAMILY_LEFT_PAIR: FAMILY_RIGHT_PAIR,
    FAMILY_LEFT_PAIR_INNER: FAMILY_RIGHT_PAIR_INNER,
}


@dataclass(frozen=True)
class Witness:
    """The maximizing family, its indices, free weights, and the resulting
    scenario; replaying the scenario through the evacuation module reproduces
    the reported value whenever the worst case is attained."""

    family: str
    i: Optional[int]
    j: int
    edge: int
    alpha: Fraction
    beta: Optional[Fraction]
    scenario: Scenario


@dataclass(frozen=True)
class RegretReport:
    value: Fraction
    location: Point
    witness: Optional[Witness]


@dataclass(frozen=True)
class _Term:
    """One family's contribution at a vertex: its max value and argmax data."""

    value: Fraction
    family: str
    i: Optional[int]
    j: int
    edge: int
    alphas: tuple[Fraction, ...]


@dataclass(frozen=True)
class VertexRegret:
    """The side maxima at a vertex, g over the left families and h over the
    right, each None when its side has no term, and the terms attaining each
    (mirror-side terms in reflected coordinates) for max_regret's witness."""

    g_value: Optional[Fraction]
    h_value: Optional[Fraction]
    g_candidates: tuple[_Term, ...]
    h_candidates: tuple[_Term, ...]

    @property
    def value(self) -> Fraction:
        """The max regret at the vertex: the larger side, 0 when n = 0."""
        sides = (self.g_value, self.h_value)
        return max((v for v in sides if v is not None), default=Fraction(0))


# Left-side family evaluators ----------------------------------------------------


def _edge_floor(cache: SolveCache, s: Scenario, u: int) -> Fraction:
    """The least evacuation time over edge u under s, from one-sided vertex
    times memoized per scenario, so neighbouring edges share them."""

    def times(k: int) -> tuple[Fraction, Fraction]:
        return cache.get(("vertex_times", s, k), lambda: _vertex_times(cache.instance, k, s))

    return _edge_min_from_times(cache.instance, u, times(u) + times(u + 1))[0]


@dataclass(frozen=True)
class _LeftTerm:
    """One left family term over the cache's instance, for every sink: the
    base scenario of its arrival lines and the free weight range [lo, hi]
    added to it, and the subtrahend's edges.  A single-varying family frees
    the weight at v_varying; a both-free pair frees v_i and v_j within box."""

    cache: SolveCache
    family: str
    i: Optional[int]
    j: int
    base: Scenario
    lo: Fraction
    hi: Fraction
    edges: range
    varying: Optional[int] = None
    box: Optional[Box] = None

    def arrival(self, x: Fraction) -> PwlFunction:
        """A at sink x: the arrival line of v_j, or for a both-free pair the
        envelope of v_j..the last vertex left of x (left_arrival_envelope)."""
        instance = self.cache.instance
        last = self.j if self.box is None else instance.first_vertex_at_or_right(x) - 1
        return arrival_envelope(instance, self.j, last, x, self.base, self.lo, self.hi)

    def profile(self, u: int) -> PwlFunction:
        """P_u, the min-evacuation profile over edge u, built once per cache."""
        cache, instance = self.cache, self.cache.instance
        if self.box is None:
            v, base, lo, hi = self.varying, self.base, self.lo, self.hi
            return cache.get(
                ("edge_min_profile_single", v, u, base, lo, hi),
                lambda: edge_min_profile_single(instance, v, u, base, (lo, hi), cache=cache),
            )
        i, j, box = self.i, self.j, self.box
        return cache.get(
            ("edge_min_profile", i, j, u, box),
            lambda: edge_min_profile(instance, i, j, u, box, cache=cache),
        )

    def least(self, alpha: Fraction) -> Scenario:
        """The least weights, vertex by vertex, of the term's scenarios with
        free weight at least alpha."""
        box = self.box
        if box is None:
            return substitute(self.base, self.varying, alpha)
        a, b = max(box.a1, alpha - box.b2), max(box.b1, alpha - box.a2)
        return two_varying(self.cache.instance, self.i, self.j, a, b)

    def floor(self, u: int, alpha: Fraction) -> Fraction:
        """The least time over edge u under least(alpha), which is built once
        per cache."""
        key = ("least", self.family, self.i, self.j, alpha)
        return _edge_floor(self.cache, self.cache.get(key, lambda: self.least(alpha)), u)

    def unit(self, line: PwlFunction, u: int) -> _Term:
        """The unit over edge u: max_alpha (A(alpha) - P_u(alpha)), where A
        is `line`, and its argmax."""
        value, args = pwl.max_difference_all(line, self.profile(u))
        return _Term(value, self.family, self.i, self.j, u, tuple(args))


def _left_term(cache: SolveCache, family: str, i: Optional[int], j: int) -> _LeftTerm:
    """A left family term, built once per cache."""

    def build() -> _LeftTerm:
        instance = cache.instance
        lo, hi = instance.weight_lo, instance.weight_hi
        if family == FAMILY_LEFT_PAIR_INNER:
            box = Box(lo[i], hi[i], lo[j], hi[j])
            base = two_varying(instance, i, j, 0, 0)
            return _LeftTerm(
                cache, family, i, j, base, box.alpha_lo, box.alpha_hi, range(i, j), box=box
            )
        if family == FAMILY_LEFT_SINGLE:
            v, base = j, two_varying(instance, j, j, 0, 0)
        else:
            v, base = i, two_varying(instance, i, j, 0, hi[j])
        return _LeftTerm(cache, family, i, j, base, lo[v], hi[v], range(j, instance.n), varying=v)

    return cache.get(("left_term", family, i, j), build)


def _left_sink(instance: PathInstance, i: Optional[int], j: int, x: RationalLike) -> Fraction:
    """x, once a left family is defined at indices (i, j) and sink x:
    0 <= j < n, 0 <= i < j for a pair, and x_j < x <= x_n."""
    x = to_fraction(x)
    if not (0 <= j < instance.n and (i is None or 0 <= i < j)):
        raise PathModelError(f"left family indices out of range: {i}, {j}")
    if not instance.positions[j] < x <= instance.positions[-1]:
        raise PathModelError(f"left family sink out of range: needs x_{j} < x <= x_n, got {x}")
    return x


def _eval_left(
    instance: PathInstance, family: str, i: Optional[int], j: int, x: RationalLike, cache
) -> _Term:
    """The term's best unit at sink x, first edge on ties (see _left_sink)."""
    x = _left_sink(instance, i, j, x)
    term = _left_term(cache_for(instance, cache), family, i, j)
    line = term.arrival(x)
    return max((term.unit(line, u) for u in term.edges), key=lambda unit: unit.value)


def eval_left_single(
    instance: PathInstance, j: int, x: RationalLike, *, cache: Optional[SolveCache] = None
) -> _Term:
    """Family: only the weight at v_j varies, everything else at lower bounds;
    sink candidates for the subtrahend range over [x_j, x_n].  `cache`, when
    given, is the instance's SolveCache; it changes no result."""
    return _eval_left(instance, FAMILY_LEFT_SINGLE, None, j, x, cache)


def eval_left_pair(
    instance: PathInstance,
    i: int,
    j: int,
    x: RationalLike,
    *,
    cache: Optional[SolveCache] = None,
) -> _Term:
    """Family: pair (i, j) with the weight at v_j pinned to its upper bound
    and the weight at v_i free.  `cache` as for eval_left_single."""
    return _eval_left(instance, FAMILY_LEFT_PAIR, i, j, x, cache)


def left_arrival_envelope(
    instance: PathInstance, i: int, j: int, x: RationalLike
) -> PwlFunction:
    """Upper envelope, in the pair's total free weight, of the arrival-time
    lines of every vertex between x_j and the sink (the true maximum when
    both weights are pinned).  The indices and sink are those of
    eval_left_pair_inner (see _left_sink)."""
    x = _left_sink(instance, i, j, x)
    return _left_term(SolveCache(instance), FAMILY_LEFT_PAIR_INNER, i, j).arrival(x)


def eval_left_pair_inner(
    instance: PathInstance,
    i: int,
    j: int,
    x: RationalLike,
    *,
    cache: Optional[SolveCache] = None,
) -> _Term:
    """Family: pair (i, j) with both weights free and the subtrahend's sink
    ranging over [x_i, x_j].  `cache` as for eval_left_single."""
    return _eval_left(instance, FAMILY_LEFT_PAIR_INNER, i, j, x, cache)


def _coarse_floors(cache: SolveCache) -> list[Fraction]:
    """The least time over each edge under the all-lower scenario, once per cache."""

    def build() -> list[Fraction]:
        low = cache.instance.lower_scenario()
        return [_edge_floor(cache, low, u) for u in range(cache.instance.n)]

    return cache.get(("coarse",), build)


def _term_bounds(cache: SolveCache, m: int) -> list[tuple[tuple, Fraction]]:
    """Every left family term at vertex x_m of the cache's instance, as its
    `_left_term` key, in family order, with a bound at or above each of its
    units' coarse bounds, from O(m) prefix passes and O(1) work per term.

    With cap_t the least capacity over edges t..m-1, a_t = (x_m - x_t) +
    L(0..t)/cap_t (L the all-lower prefix weight) and D(i, j) the summed
    widths of the intervals at i..j, max(A) is a_j + D(j, j)/cap_j for a
    single and a_j + D(i, j)/cap_j for a pair (at most that on a pinned
    range, where A is the zero-aware true time), and at most
    max_{j <= t < m} a_t + D(i, j)/cap_j for an inner pair, as cap_j <= cap_t.
    Less the least coarse floor over the term's edges, that bounds each unit."""
    inst, x = cache.instance, cache.instance.positions[m]
    low, width = cache.get(("prefixes",), lambda: tuple(
        tuple(accumulate(w, initial=Fraction(0)))
        for w in (inst.weight_lo, map(sub, inst.weight_hi, inst.weight_lo))
    ))
    coarse = _coarse_floors(cache)
    caps = list(accumulate(inst.capacities[:m][::-1], min))[::-1]
    arrive = [x - inst.positions[t] + low[t + 1] / cap for t, cap in enumerate(caps)]
    top = list(accumulate(arrive[::-1], max))[::-1]  # max_{j <= t < m} a_t
    tail = list(accumulate(coarse[::-1], min))[::-1]  # least over edges j..n-1
    out = [((FAMILY_LEFT_SINGLE, None, j), a + (width[j + 1] - width[j]) / cap - least)
           for j, (a, cap, least) in enumerate(zip(arrive, caps, tail))]
    for j in range(1, m):
        span = list(accumulate(coarse[:j][::-1], min))[::-1]  # least over edges i..j-1
        for i in range(j):
            d = (width[j + 1] - width[i]) / caps[j]
            out += [((FAMILY_LEFT_PAIR, i, j), arrive[j] + d - tail[j]),
                    ((FAMILY_LEFT_PAIR_INNER, i, j), top[j] + d - span[i])]
    return out


def _left_terms(cache: SolveCache, m: int) -> list[_Term]:
    """The left-side family terms at vertex x_m of the cache's instance that
    can reach the side's maximum, in family order; every other term is pruned.

    Entries are popped from a heap by descending bound, then by term and
    edge, until a bound falls strictly below the best value found.  Each term
    first has one entry with its O(1) bound (_term_bounds); only when that is
    popped are the term, its arrival A and its units built, each unit pushed
    with its coarse bound, at or below the term's.  A unit's one heap entry
    is pushed back with the next stage's bound (see the module docstring)
    until its last stage, when the unit is evaluated.  So every unit
    attaining the side maximum is evaluated, and a term keeps its best
    evaluated unit, first edge on ties: the maximum and its ties are exact.
    A term's index is its position in family order, which fixes the order of
    the tied terms and so the witness."""
    x = cache.instance.positions[m]
    bounds = _term_bounds(cache, m)
    heap = [(-bound, k, -1, -1) for k, (_, bound) in enumerate(bounds)]
    heapify(heap)
    coarse = _coarse_floors(cache)
    built: dict[int, tuple[_LeftTerm, PwlFunction, Fraction]] = {}
    best: Optional[Fraction] = None
    kept: dict[int, _Term] = {}
    while heap:
        negative_bound, k, u, stage = heappop(heap)
        if best is not None and -negative_bound < best:
            break
        if stage < 0:
            term = _left_term(cache, *bounds[k][0])
            line = term.arrival(x)
            peak = max(line.values)
            built[k] = term, line, peak
            first = int(term.family == FAMILY_LEFT_SINGLE)
            for u in term.edges:
                heappush(heap, (coarse[u] - peak, k, u, first))
            continue
        term, line, peak = built[k]
        if stage == 0:
            heappush(heap, (term.floor(u, term.lo) - peak, k, u, 1))
        elif stage == 1 and term.box is not None and term.lo < term.hi:
            cuts = [term.lo + (term.hi - term.lo) * Fraction(t, _PARTS) for t in range(_PARTS + 1)]
            parts = (term.floor(u, p) - line(q) for p, q in zip(cuts, cuts[1:]))
            heappush(heap, (min(parts), k, u, 2))
        else:
            unit, held = term.unit(line, u), kept.get(k)
            if held is None or (unit.value, -u) > (held.value, -held.edge):
                kept[k] = unit
            best = unit.value if best is None else max(best, unit.value)
    return [kept[k] for k in sorted(kept)]


def _mirror_term(instance: PathInstance, term: _Term) -> _Term:
    n = instance.n
    return _Term(
        term.value,
        _MIRROR[term.family],
        None if term.i is None else n - term.i,
        n - term.j,
        n - 1 - term.edge,
        term.alphas,
    )


# Witness reconstruction ---------------------------------------------------------


def _candidate_splits(term: _LeftTerm, u: int, alpha: Fraction) -> list[Fraction]:
    """Candidate a1 for the both-free pair split alpha = a1 + a2: the slice's ends,
    and on it both side envelopes' breakpoints in a1 and their crossings (merge_max)."""
    cache, box, base = term.cache, term.box, term.base
    lo = max(box.a1, alpha - box.b2)
    hi = min(box.a2, alpha - box.b1)
    fl = pwl.restrict(cached_envelope(cache, "left", term.i, u + 1, base, box.a1, box.a2), lo, hi)
    fr = cached_envelope(cache, "right", term.j, u, base, box.b1, box.b2)
    fr = PwlFunction(tuple(alpha - q for q in reversed(fr.breakpoints)), fr.values[::-1])
    fr = pwl.restrict(fr, lo, hi)
    return sorted({*fl.breakpoints, *fr.breakpoints, *pwl.merge_max(fl, fr).breakpoints})


def _witness_scenarios(
    cache: SolveCache, term: _Term
) -> list[tuple[Scenario, Fraction, Optional[Fraction]]]:
    """Scenario candidates realizing a term's argmax over the cache's
    instance, best split first."""
    left = _left_term(cache, term.family, term.i, term.j)
    if left.box is None:
        beta = None if left.varying == left.j else left.base.weights[left.j]
        return [(left.least(alpha), alpha, beta) for alpha in term.alphas]
    instance = cache.instance
    out: list[tuple[Scenario, Fraction, Optional[Fraction]]] = []
    for alpha in term.alphas:
        scored = []
        for a1 in _candidate_splits(left, term.edge, alpha):
            s = two_varying(instance, term.i, term.j, a1, alpha - a1)
            scored.append((theta_min_on_edge(instance, term.edge, s)[1], a1, s))
        scored.sort(key=lambda t: (t[0], t[1]))
        for _, a1, s in scored:
            out.append((s, a1, alpha - a1))
    return out


# Aggregation ---------------------------------------------------------------------


class RegretSolver:
    """Evaluates the worst-case regret at sinks and searches for its minimizer.

    Holds one SolveCache per side, the right side's over the reflected
    instance so the right-side families reuse the left-side evaluators.  They
    build every sink-independent profile once per solver, and the left one
    also keeps the per-vertex results for the outer search.  All of it is
    freed with the solver.
    """

    def __init__(self, instance: PathInstance):
        self.instance = instance
        self._cache = SolveCache(instance)
        self._reflected_cache = SolveCache(reflect_instance(instance))

    # -- per-vertex side maxima

    def vertex_regret(self, m: int) -> VertexRegret:
        def build() -> VertexRegret:
            left = _left_terms(self._cache, m)
            mirrored = _left_terms(self._reflected_cache, self.instance.n - m)
            g = max((t.value for t in left), default=None)
            h = max((t.value for t in mirrored), default=None)
            g_terms = tuple(t for t in left if t.value == g)
            h_terms = tuple(t for t in mirrored if t.value == h)
            return VertexRegret(g, h, g_terms, h_terms)

        return self._cache.get(("vertex_regret", m), build)

    def _replay_pick(
        self,
        x: Fraction,
        value: Fraction,
        candidates: list[tuple[_Term, bool]],
    ) -> Optional[Witness]:
        """Choose a witness among candidate terms, preferring one whose exact
        replay through the evacuation module reproduces `value` at `x`."""
        fallback: Optional[Witness] = None
        for term, is_mirror in candidates:
            source = self._reflected_cache if is_mirror else self._cache
            mapped = _mirror_term(self.instance, term) if is_mirror else term
            for scenario, alpha, beta in _witness_scenarios(source, term):
                if is_mirror:
                    scenario = reflect_scenario(scenario)
                witness = Witness(
                    mapped.family, mapped.i, mapped.j, mapped.edge, alpha, beta, scenario
                )
                if fallback is None:
                    fallback = witness
                replay = theta(self.instance, x, scenario).theta - optimal_sink(
                    self.instance, scenario
                ).value
                if replay == value:
                    return witness
        return fallback

    # -- arbitrary points

    def max_regret(self, x: Union[Point, RationalLike]) -> RegretReport:
        """max(g, h, 0) over the side maxima at x, with a witness among the
        terms attaining it.  At a vertex the sides are its own; strictly
        inside edge k they are x_{k+1}'s g and x_k's h, each less the
        distance to x (see the module docstring)."""
        point = as_point(self.instance, x)
        x, positions = point.value, self.instance.positions
        left = right = point.vertex_index
        if left is None:
            left = self.instance.locate(x)[1]
            right = left + 1
        g_side, h_side = self.vertex_regret(right), self.vertex_regret(left)
        g = None if g_side.g_value is None else g_side.g_value - (positions[right] - x)
        h = None if h_side.h_value is None else h_side.h_value - (x - positions[left])
        value = max(v for v in (g, h, Fraction(0)) if v is not None)
        candidates = [(t, False) for t in g_side.g_candidates if g == value]
        candidates += [(t, True) for t in h_side.h_candidates if h == value]
        return RegretReport(value, point, self._replay_pick(x, value, candidates))

    # -- the outer search

    def min_max_regret(self) -> RegretReport:
        """Minmax regret over the whole path, leftmost minimizer: the vertex
        j at which g first reaches h (_first_crossing), then the closed-form
        minimum over edge j - 1 (_edge_min_from_times) from the sides already
        probed, a missing side read as 0.  j = 0 only when n = 0."""
        inst = self.instance
        if all(hi == 0 for hi in inst.weight_hi):
            return RegretReport(Fraction(0), Point(inst.positions[0], 0), None)

        def sides(m: int) -> tuple[Optional[Fraction], Optional[Fraction]]:
            report = self.vertex_regret(m)
            return report.g_value, report.h_value

        j = _first_crossing(sides, inst.n)
        if j == 0:
            return self.max_regret(inst.positions[0])
        times = [Fraction(0) if v is None else v for v in sides(j - 1) + sides(j)]
        return self.max_regret(_edge_min_from_times(inst, j - 1, times)[1])


def max_regret(instance: PathInstance, x: Union[Point, RationalLike]) -> RegretReport:
    return RegretSolver(instance).max_regret(x)


def min_max_regret(instance: PathInstance) -> RegretReport:
    return RegretSolver(instance).min_max_regret()
