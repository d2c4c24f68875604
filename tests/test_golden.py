"""min_max_regret against answers recorded before the solver's outer layer
was rebuilt on the side maxima, so a later change to the search or its
witnesses is checked against answers it did not produce.

`tests/data/golden_minmax.json` holds, for each seeded draw of
`golden_instance`, the instance and min_max_regret's value, location and
witness (family, indices, edge, free weights and scenario)."""
from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

from conftest import random_instance
from evacregret import PathInstance, Scenario, min_max_regret, optimal_sink, theta

GOLDEN = Path(__file__).parent / "data" / "golden_minmax.json"


def golden_instance(k: int) -> PathInstance:
    """Draw k: n <= 8, zero lower bounds on odd draws, and on every third
    draw some intervals pinned at 0 or at their upper bound."""
    rng = random.Random(f"golden:{k}")
    inst = random_instance(rng, max_n=8, zero_lower=k % 2 == 1)
    if k % 3 == 0:
        lo, hi = list(inst.weight_lo), list(inst.weight_hi)
        for v in range(inst.vertex_count):
            r = rng.random()
            if r < 0.25:
                lo[v] = hi[v] = Fraction(0)
            elif r < 0.5:
                lo[v] = hi[v]
        inst = PathInstance(inst.positions, inst.capacities, lo, hi)
    return inst


def instance_json(inst: PathInstance) -> dict:
    return {
        key: [str(v) for v in getattr(inst, key)]
        for key in ("positions", "capacities", "weight_lo", "weight_hi")
    }


def answer_json(inst: PathInstance) -> dict:
    report = min_max_regret(inst)
    w = report.witness
    witness = None if w is None else {
        "family": w.family,
        "i": w.i,
        "j": w.j,
        "edge": w.edge,
        "alpha": str(w.alpha),
        "beta": None if w.beta is None else str(w.beta),
        "weights": [str(v) for v in w.scenario.weights],
    }
    return {
        "value": str(report.value),
        "location": str(report.location.value),
        "witness": witness,
    }


def check_recorded(inst: PathInstance, entry: dict) -> None:
    """The instance and report equal the recorded entry, and the witness
    replays exactly to the reported value through theta and optimal_sink."""
    assert instance_json(inst) == entry["instance"]
    answer = answer_json(inst)
    assert answer == entry["answer"]
    value, location = Fraction(answer["value"]), Fraction(answer["location"])
    scenario = Scenario(Fraction(w) for w in answer["witness"]["weights"])
    assert theta(inst, location, scenario).theta - optimal_sink(inst, scenario).value == value


def test_min_max_regret_matches_recorded_answers():
    entries = json.loads(GOLDEN.read_text())["entries"]
    assert len(entries) >= 40
    for entry in entries:
        inst = golden_instance(entry["draw"])
        assert instance_json(inst) == entry["instance"]
        assert answer_json(inst) == entry["answer"], entry["draw"]
