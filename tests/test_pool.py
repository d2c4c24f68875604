"""Every pool entry of the benchmark's two solver workloads against the exact
answers recorded in `perfbench/reference.json`, with each witness replayed
as `perfbench/worker.py` replays it.

Opt-in: marked `large`, which the default `addopts` deselects.  Run with

    PYTHONPATH=src python -m pytest -m large tests/test_pool.py

The test only reads `perfbench/`: its workload table and request inputs come
from `perfbench/workloads.py`, loaded by path."""
from __future__ import annotations

import importlib.util
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import evacregret as ev

PERFBENCH = Path(__file__).parent.parent / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(PERFBENCH))  # workloads.py imports generate
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", PERFBENCH / "workloads.py"
        )
        module = importlib.util.module_from_spec(spec)
        patch.setitem(sys.modules, spec.name, module)  # for its dataclass
        spec.loader.exec_module(module)
    return module


@pytest.mark.large
@pytest.mark.parametrize("name", ["minmax-mixed-n12", "maxregret-cold-n14"])
def test_pool_matches_reference(workloads, name):
    workload = workloads.WORKLOADS[name]
    reference = json.loads((PERFBENCH / "reference.json").read_text())[name]
    wrong = []
    for index in range(workload.pool):
        request = workloads.request_input(workload, index)
        expected = reference[str(index)]
        assert expected["input"] == workloads.fingerprint(request), index
        instance = ev.parse_instance(request["instance"])
        solver = ev.RegretSolver(instance)
        if workload.kind == "minmax":
            report = solver.min_max_regret()
        else:
            report = solver.max_regret(Fraction(request["sink"]))
        witness = report.witness
        replay_ok = witness is not None and (
            ev.regret(instance, report.location, witness.scenario) == report.value
        )
        got = (str(report.value), str(report.location.value), replay_ok)
        if got != (expected["value"], expected["location"], True):
            wrong.append((index, got))
    assert not wrong, wrong
