"""min_max_regret at n = 40, 60 and 80 against answers recorded before the
branch-and-bound refined its bounds lazily, so the solver is checked at scale
against answers it did not produce.

Opt-in: marked `large`, which the default `addopts` deselects.  Run with

    PYTHONPATH=src python -m pytest -m large tests/test_large.py

`tests/data/large_minmax.json` holds, for each named draw, the instance and
min_max_regret's value, location and witness (as `tests/test_golden.py`
records them): criterion 6's n = 40 instance, and `random_instance` seed 1
redrawn until n reaches 40, 60 and 80."""
from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import random_convex_pwl, random_instance, random_positive_pwl
from evacregret import PathInstance, Scenario, optimal_sink, theta
from test_golden import answer_json, instance_json

LARGE = Path(__file__).parent / "data" / "large_minmax.json"


def redraw(rng: random.Random, n: int) -> PathInstance:
    """random_instance drawn from rng again and again until it has n edges."""
    inst = random_instance(rng, max_n=n)
    while inst.n < n:
        inst = random_instance(rng, max_n=n)
    return inst


def criterion_6_instance() -> PathInstance:
    """The n = 40 instance of test_acceptance's criterion 6, after the draws
    its size checks take from the same generator."""
    rng = random.Random(60_000)
    for _ in range(40):
        random_positive_pwl(rng, 0, 2), random_positive_pwl(rng, 0, 2)
        random_convex_pwl(rng, 0, 2), random_convex_pwl(rng, 0, 2)
    return redraw(rng, 40)


DRAWS = {
    "criterion_6": criterion_6_instance,
    **{f"seed_1_n{n}": (lambda n=n: redraw(random.Random(1), n)) for n in (40, 60, 80)},
}


@pytest.mark.large
@pytest.mark.parametrize("name", sorted(DRAWS))
def test_large_min_max_regret_matches_recorded_answer(name):
    """The report equals the recorded one, and its witness replays exactly to
    the reported value through theta and optimal_sink."""
    entry = {e["name"]: e for e in json.loads(LARGE.read_text())["entries"]}[name]
    inst = DRAWS[name]()
    assert instance_json(inst) == entry["instance"]
    answer = answer_json(inst)
    assert answer == entry["answer"]
    value, location = Fraction(answer["value"]), Fraction(answer["location"])
    scenario = Scenario(Fraction(w) for w in answer["witness"]["weights"])
    assert theta(inst, location, scenario).theta - optimal_sink(inst, scenario).value == value
