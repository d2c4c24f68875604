"""Path instances, scenarios, and the exact-arithmetic primitives they support."""
from __future__ import annotations

import json
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Optional, Union

RationalLike = Union[Fraction, int, str]

# Largest decimal exponent accepted in a string literal: "1e-N" builds a
# (N+1)-digit integer, so an unbounded N would stall parsing for minutes.
MAX_DECIMAL_EXPONENT = 1000
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)")


class PathModelError(ValueError):
    """Raised when an operation's precondition on the path model is violated."""


def to_fraction(value: RationalLike) -> Fraction:
    """Parse a rational given as a Fraction, int, "p/q" string, or decimal literal."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        # a JSON true/false would otherwise pass as the int 1/0
        raise PathModelError(f"not an exact rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        match = _EXPONENT.search(value)
        if match:
            digits = match.group(1).replace("_", "").lstrip("0")
            too_long = len(digits) > len(str(MAX_DECIMAL_EXPONENT))
            if too_long or int(digits or 0) > MAX_DECIMAL_EXPONENT:
                raise PathModelError(
                    f"decimal exponent beyond {MAX_DECIMAL_EXPONENT}: {value[:40]!r}"
                )
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            # a malformed literal, or one with a zero denominator such as "1/0"
            raise PathModelError(f"not an exact rational: {value[:40]!r}") from None
    raise PathModelError(f"not an exact rational: {value!r}")


@dataclass(frozen=True)
class PathInstance:
    """An embedded path: vertex positions, edge capacities, per-vertex weight intervals.

    positions[0] must be 0 and positions strictly increasing; capacities has one
    entry per edge (one fewer than positions).  Construction only coerces types;
    call validate() to check the invariants.
    """

    positions: tuple[Fraction, ...]
    capacities: tuple[Fraction, ...]
    weight_lo: tuple[Fraction, ...]
    weight_hi: tuple[Fraction, ...]

    def __init__(
        self,
        positions: Iterable[RationalLike],
        capacities: Iterable[RationalLike],
        weight_lo: Iterable[RationalLike],
        weight_hi: Iterable[RationalLike],
    ):
        object.__setattr__(self, "positions", tuple(to_fraction(v) for v in positions))
        object.__setattr__(self, "capacities", tuple(to_fraction(v) for v in capacities))
        object.__setattr__(self, "weight_lo", tuple(to_fraction(v) for v in weight_lo))
        object.__setattr__(self, "weight_hi", tuple(to_fraction(v) for v in weight_hi))

    def __hash__(self) -> int:
        # hashing tuples of Fractions is costly; cache it.  The package never
        # hashes an instance (a SolveCache belongs to one and hashes by
        # identity); perfbench's tracer does, to count distinct argument tuples
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash(
                (self.positions, self.capacities, self.weight_lo, self.weight_hi)
            )
            object.__setattr__(self, "_hash", cached)
        return cached

    @property
    def n(self) -> int:
        """Number of edges."""
        return len(self.capacities)

    @property
    def vertex_count(self) -> int:
        return len(self.positions)

    def edge_length(self, k: int) -> Fraction:
        return self.positions[k + 1] - self.positions[k]

    def lower_scenario(self) -> "Scenario":
        return Scenario(self.weight_lo)

    def locate(self, value: Fraction) -> tuple[str, int]:
        """Classify a point: ("vertex", j) if it coincides with x_j, else ("edge", k)
        for the edge whose open interior contains it."""
        if value < self.positions[0] or value > self.positions[-1]:
            raise PathModelError(f"point {value} outside [{self.positions[0]}, {self.positions[-1]}]")
        idx = bisect_left(self.positions, value)
        if self.positions[idx] == value:
            return ("vertex", idx)
        return ("edge", idx - 1)

    def last_vertex_at_or_left(self, value: Fraction) -> int:
        """max { i : x_i <= value }."""
        return bisect_right(self.positions, value) - 1

    def first_vertex_at_or_right(self, value: Fraction) -> int:
        """min { j : x_j >= value }."""
        return bisect_left(self.positions, value)


@dataclass(frozen=True)
class Scenario:
    """A concrete nonnegative weight assignment over the vertices."""

    weights: tuple[Fraction, ...]
    _prefix: tuple[Fraction, ...] = field(init=False, repr=False, compare=False)

    def __init__(self, weights: Iterable[RationalLike]):
        object.__setattr__(self, "weights", tuple(to_fraction(v) for v in weights))
        object.__setattr__(
            self, "_prefix", tuple(accumulate(self.weights, initial=Fraction(0)))
        )

    def __hash__(self) -> int:
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash(self.weights)
            object.__setattr__(self, "_hash", cached)
        return cached


@dataclass(frozen=True)
class Point:
    """A point on the embedded path, optionally tagged with its vertex index."""

    value: Fraction
    vertex_index: Optional[int] = None

    def __init__(self, value: RationalLike, vertex_index: Optional[int] = None):
        object.__setattr__(self, "value", to_fraction(value))
        object.__setattr__(self, "vertex_index", vertex_index)


def as_point(instance: PathInstance, x: Union[Point, RationalLike]) -> Point:
    """Coerce to a Point within the path, resolving the vertex index if any."""
    value = x.value if isinstance(x, Point) else to_fraction(x)
    kind, idx = instance.locate(value)
    return Point(value, idx if kind == "vertex" else None)


# Validation ------------------------------------------------------------------


def validate(instance: PathInstance) -> list[str]:
    """Return all invariant violations (empty list means the instance is valid)."""
    errors: list[str] = []
    pos = instance.positions
    if not pos:
        errors.append("positions empty")
        return errors
    if pos[0] != 0:
        errors.append(f"positions[0] is {pos[0]}, expected 0")
    for i in range(len(pos) - 1):
        if pos[i] >= pos[i + 1]:
            errors.append(f"positions not strictly increasing at index {i}")
    if len(instance.capacities) != len(pos) - 1:
        errors.append(
            f"{len(instance.capacities)} capacities for {len(pos)} vertices "
            f"(expected {len(pos) - 1})"
        )
    for i, c in enumerate(instance.capacities):
        if c <= 0:
            errors.append(f"capacity {i} not positive")
    if len(instance.weight_lo) != len(pos) or len(instance.weight_hi) != len(pos):
        errors.append("weight interval arrays must have one entry per vertex")
    for i, (lo, hi) in enumerate(zip(instance.weight_lo, instance.weight_hi)):
        if lo < 0:
            errors.append(f"weight_lo[{i}] negative")
        if lo > hi:
            errors.append(f"weight interval {i} empty ({lo} > {hi})")
    return errors


# Scenario operations ---------------------------------------------------------


def prefix_weight(s: Scenario, i: int, j: int) -> Fraction:
    """W_{i,j}: the total weight on vertices i..j inclusive."""
    if not (0 <= i <= j < len(s.weights)):
        raise PathModelError(f"prefix_weight indices out of range: {i}, {j}")
    return s._prefix[j + 1] - s._prefix[i]


def min_capacity(instance: PathInstance, x: RationalLike, x2: RationalLike) -> Optional[Fraction]:
    """Minimum edge capacity on the subpath spanning x..x2 (x_0 <= x <= x2 <= x_n),
    by a scan of the spanned edges.

    The spanned edge range is [max{i: x_i <= x}, min{j: x_j >= x2}).  When that
    range is empty (both points under the same vertex) the capacity is
    undefined; None is returned as the +infinity sentinel and callers must not
    divide by it.  Points off the path raise PathModelError.
    """
    a, b = to_fraction(x), to_fraction(x2)
    if a > b:
        raise PathModelError(f"min_capacity requires x <= x', got {a} > {b}")
    if a < instance.positions[0] or b > instance.positions[-1]:
        raise PathModelError(f"min_capacity points {a}, {b} are off the path")
    i = instance.last_vertex_at_or_left(a)
    j = instance.first_vertex_at_or_right(b)
    return min(instance.capacities[i:j], default=None)


def two_varying(
    instance: PathInstance, i: int, j: int, alpha: RationalLike, beta: RationalLike
) -> Scenario:
    """The scenario with free weights alpha at i and beta at j, lower bounds
    outside [i, j], and upper bounds strictly inside."""
    alpha = to_fraction(alpha)
    beta = to_fraction(beta)
    count = instance.vertex_count
    if not (0 <= i <= j < count):
        raise PathModelError(f"two_varying indices out of range: {i}, {j}")
    if i == j and alpha != beta:
        raise PathModelError("two_varying with i == j requires alpha == beta")
    if alpha < 0 or beta < 0:
        raise PathModelError("two_varying weights must be nonnegative")
    weights = list(instance.weight_lo)
    for t in range(i + 1, j):
        weights[t] = instance.weight_hi[t]
    weights[i] = alpha
    weights[j] = beta
    return Scenario(weights)


def substitute(s: Scenario, i: int, alpha: RationalLike) -> Scenario:
    """Copy of s with the weight at vertex i replaced by alpha."""
    alpha = to_fraction(alpha)
    if not (0 <= i < len(s.weights)):
        raise PathModelError(f"substitute index out of range: {i}")
    if alpha < 0:
        raise PathModelError("substitute weight must be nonnegative")
    if s.weights[i] == alpha:
        return s
    weights = list(s.weights)
    weights[i] = alpha
    return Scenario(weights)


def shift(
    instance: PathInstance, s: Scenario, i: int, j: int, delta: RationalLike
) -> Scenario:
    """Move delta units of weight from vertex i to vertex j.

    Valid only while w_i stays >= its lower bound and w_j stays <= its upper
    bound; oracle-side use only.
    """
    delta = to_fraction(delta)
    if delta < 0:
        raise PathModelError("shift requires delta >= 0")
    if not (0 <= i < len(s.weights) and 0 <= j < len(s.weights)):
        raise PathModelError(f"shift indices out of range: {i}, {j}")
    if s.weights[i] - delta < instance.weight_lo[i]:
        raise PathModelError(f"shift would push w_{i} below its lower bound")
    if s.weights[j] + delta > instance.weight_hi[j]:
        raise PathModelError(f"shift would push w_{j} above its upper bound")
    weights = list(s.weights)
    weights[i] -= delta
    weights[j] += delta
    return Scenario(weights)


# Mirror symmetry -------------------------------------------------------------


def reflect_instance(instance: PathInstance) -> PathInstance:
    """The left-right mirror image of the path (vertex k maps to n-k), built
    once per instance and kept on it, like its hash."""
    cached = instance.__dict__.get("_mirror")
    if cached is None:
        end = instance.positions[-1]
        cached = PathInstance(
            positions=tuple(end - p for p in reversed(instance.positions)),
            capacities=tuple(reversed(instance.capacities)),
            weight_lo=tuple(reversed(instance.weight_lo)),
            weight_hi=tuple(reversed(instance.weight_hi)),
        )
        object.__setattr__(instance, "_mirror", cached)
    return cached


def reflect_scenario(s: Scenario) -> Scenario:
    """The scenario on the mirror image of the path, built once per scenario
    and kept on it, as reflect_instance does."""
    cached = s.__dict__.get("_mirror")
    if cached is None:
        cached = Scenario(tuple(reversed(s.weights)))
        object.__setattr__(s, "_mirror", cached)
    return cached


# JSON instance / scenario formats --------------------------------------------


def _load_json(text: str, kind: str):
    try:
        return json.loads(text)
    except RecursionError as exc:
        raise PathModelError(f"malformed {kind} document: nested too deeply") from exc


def parse_instance(data: Union[str, dict]) -> PathInstance:
    """Parse the JSON instance format.

    Vertices either carry explicit "position" fields or the document provides
    an "edge_lengths" array, in which case positions are its prefix sums; a
    document giving both is refused.
    """
    if isinstance(data, str):
        data = _load_json(data, "instance")
    try:
        vertices = data["vertices"]
        capacities = [to_fraction(c) for c in data["capacities"]]
        weight_lo = [to_fraction(v["w_min"]) for v in vertices]
        weight_hi = [to_fraction(v["w_max"]) for v in vertices]
        placed = ["position" in v for v in vertices]
        if any(placed) and "edge_lengths" in data:
            raise PathModelError("give vertex positions or edge_lengths, not both")
        if all(placed):
            positions = [to_fraction(v["position"]) for v in vertices]
        elif "edge_lengths" in data:
            lengths = [to_fraction(d) for d in data["edge_lengths"]]
            positions = list(accumulate(lengths, initial=Fraction(0)))
        else:
            raise PathModelError("vertices lack positions and no edge_lengths given")
    except (KeyError, TypeError) as exc:
        raise PathModelError(f"malformed instance document: {exc}") from exc
    return PathInstance(positions, capacities, weight_lo, weight_hi)


def parse_scenario(data: Union[str, dict]) -> Scenario:
    if isinstance(data, str):
        data = _load_json(data, "scenario")
    try:
        return Scenario([to_fraction(w) for w in data["weights"]])
    except (KeyError, TypeError) as exc:
        raise PathModelError(f"malformed scenario document: {exc}") from exc
