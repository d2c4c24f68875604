"""Seeded inputs for the benchmark's workloads.

Everything here is plain `fractions` arithmetic and JSON text: the program
under test is never imported, so the generated documents reach it only
through `parse_instance`, exactly as a CLI input file would.

Two instance shapes:

* ``mixed``: edge lengths in [1/4, 2], capacities in [1/2, 4], upper bounds
  in [1/4, 2] (all on a quarter grid of their range), and lower bounds drawn
  beneath the upper bounds, so about a third of the intervals have zero
  width.  Same distribution as the acceptance tests' random instances, but
  with exactly the requested n.
* ``zero_lower``: the same, with every lower bound 0, so no interval is
  pinned.
"""
from __future__ import annotations

import random
from fractions import Fraction

SHAPES = ("mixed", "zero_lower")


def _on_grid(rng: random.Random, lo, hi, steps: int) -> Fraction:
    lo, hi = Fraction(lo), Fraction(hi)
    return lo + (hi - lo) * Fraction(rng.randint(0, steps), steps)


def instance_doc(shape: str, n: int, seed: int) -> dict:
    """The instance document (the CLI's JSON format) with exactly n edges."""
    if shape not in SHAPES:
        raise ValueError(f"unknown shape {shape!r}")
    rng = random.Random(f"{shape}:{n}:{seed}")
    positions = [Fraction(0)]
    for _ in range(n):
        positions.append(positions[-1] + _on_grid(rng, Fraction(1, 4), 2, 4))
    capacities = [_on_grid(rng, Fraction(1, 2), 4, 4) for _ in range(n)]
    vertices = []
    for p in positions:
        hi = _on_grid(rng, Fraction(1, 4), 2, 4)
        if shape == "zero_lower":
            lo = Fraction(0)
        else:
            lo = _on_grid(rng, Fraction(1, 4), hi, 4)
        vertices.append({"position": str(p), "w_min": str(lo), "w_max": str(hi)})
    return {"capacities": [str(c) for c in capacities], "vertices": vertices}


def scenario_query(doc: dict, seed: int) -> dict:
    """A legal scenario (each weight on an eighth grid of its interval) and a
    sink that is a vertex or an edge-interior point, with equal odds."""
    rng = random.Random(f"query:{seed}")
    weights = [
        _on_grid(rng, Fraction(v["w_min"]), Fraction(v["w_max"]), 8)
        for v in doc["vertices"]
    ]
    positions = [Fraction(v["position"]) for v in doc["vertices"]]
    if rng.random() < 0.5:
        sink = positions[rng.randrange(len(positions))]
    else:
        k = rng.randrange(len(positions) - 1)
        step = Fraction(rng.randint(1, 7), 8)
        sink = positions[k] + (positions[k + 1] - positions[k]) * step
    return {"weights": [str(w) for w in weights], "sink": str(sink)}
