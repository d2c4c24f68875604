"""min_max_regret on structured inputs that defeat the pruning, against
answers recorded before the branch-and-bound gave each unit one heap entry.

Each shape has positions 0..n and unit edge lengths:
- `wide`: every capacity 1, every interval [1, 100];
- `zigzag`: capacities 5, 1, 5, ..., and interval k is [0, (k mod 7) + 1];
- `uniform`: every capacity 1, every interval [0, 1];
- `bottleneck`: capacities 10, except 1 on edge n/2, and every interval [0, 3].

`tests/data/structured_minmax.json` holds each shape's n = 12 instance and
answer, as `tests/test_golden.py` records them; the n = 40 and n = 60 answers
are in `tests/data/large_minmax.json`, checked by `tests/test_large.py`."""
from __future__ import annotations

import json
from pathlib import Path

import pytest

from evacregret import PathInstance
from test_golden import check_recorded

STRUCTURED = Path(__file__).parent / "data" / "structured_minmax.json"
SHAPES = ("wide", "zigzag", "uniform", "bottleneck")


def structured_instance(shape: str, n: int) -> PathInstance:
    """The shape's instance with n edges (see the module docstring)."""
    capacities = {
        "wide": [1] * n,
        "zigzag": [5 if k % 2 == 0 else 1 for k in range(n)],
        "uniform": [1] * n,
        "bottleneck": [1 if k == n // 2 else 10 for k in range(n)],
    }[shape]
    intervals = {
        "wide": [(1, 100)] * (n + 1),
        "zigzag": [(0, k % 7 + 1) for k in range(n + 1)],
        "uniform": [(0, 1)] * (n + 1),
        "bottleneck": [(0, 3)] * (n + 1),
    }[shape]
    lo, hi = zip(*intervals)
    return PathInstance(list(range(n + 1)), capacities, list(lo), list(hi))


@pytest.mark.parametrize("shape", SHAPES)
def test_structured_min_max_regret_matches_recorded_answer(shape):
    entry = {e["name"]: e for e in json.loads(STRUCTURED.read_text())["entries"]}[f"{shape}_n12"]
    check_recorded(structured_instance(shape, 12), entry)
