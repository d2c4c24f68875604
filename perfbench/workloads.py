"""The benchmark's workloads and the requests a run sends for a seed.

Every workload draws its requests from a fixed pool of seeded inputs, and
`reference.json` holds the exact answer for every pool entry, so a run can
check any seed's outputs exactly.  The run seed picks which pool entries are
sent and in which order.

Solve times at a fixed n still differ by more than 2x between inputs, and a run
can afford only a few dozen solver requests, so a plain random pick would
make a run's median partly a matter of which inputs it drew.  The pick is
therefore stratified: the pool is ordered by the request time recorded with
the references, cut into as many equal strata as the run has requests, and
the seed draws one entry from each stratum.
"""
from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

from generate import instance_doc, scenario_query


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # worker request kind
    shape: str
    n: int
    pool: int  # pool entries with recorded references
    # wall seconds per request (worker start, set-up, request and check) on
    # the reference host; fixes how many distinct requests a run sends
    nominal_s: float
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "minmax-mixed-n12", "minmax", "mixed", 12, 120, 1.95,
            "RegretSolver(instance).min_max_regret(), the CLI's minmax-regret: the "
            "outer search rebuilds sink-independent profiles at each vertex it "
            "evaluates; a third of the intervals are pinned (lo == hi)",
        ),
        Workload(
            "maxregret-cold-n14", "maxregret", "zero_lower", 14, 120, 1.45,
            "RegretSolver(instance).max_regret(x) at the middle vertex, the CLI's "
            "maxregret: one vertex, so nothing is reused across vertices, and no "
            "interval is pinned",
        ),
        Workload(
            "scenario-queries-n200", "regret", "mixed", 200, 1000, 0.27,
            "regret(instance, x, s) on one n = 200 instance, the CLI's regret / "
            "evacuate / optimal-sink: only the O(n) evacuation scans run",
        ),
    )
}


def request_count(workload: Workload, seconds: float) -> int:
    """Distinct requests per run: about `seconds` of work on the reference
    host, fixed by the arguments so that two versions of the program serve
    exactly the same requests."""
    return max(1, min(workload.pool, round(seconds / workload.nominal_s)))


def pool_indices(
    workload: Workload, seed: int, seconds: float, costs: dict[int, float]
) -> list[int]:
    """One pool entry from each cost stratum, in a seeded order; `costs` maps
    each entry to its recorded request time."""
    rng = random.Random(f"{workload.name}:{seed}")
    order = sorted(range(workload.pool), key=lambda i: (costs[i], i))
    count = request_count(workload, seconds)
    picks = [
        rng.choice(order[k * len(order) // count:(k + 1) * len(order) // count])
        for k in range(count)
    ]
    rng.shuffle(picks)
    return picks


def request_input(workload: Workload, index: int) -> dict:
    """The request's input documents for pool entry `index`."""
    if workload.kind == "regret":
        doc = instance_doc(workload.shape, workload.n, 0)
        query = scenario_query(doc, index)
        return {
            "instance": json.dumps(doc),
            "sink": query["sink"],
            "scenario": json.dumps({"weights": query["weights"]}),
        }
    doc = instance_doc(workload.shape, workload.n, index)
    out = {"instance": json.dumps(doc)}
    if workload.kind == "maxregret":
        out["sink"] = doc["vertices"][workload.n // 2]["position"]
    return out


def fingerprint(request: dict) -> str:
    """Digest of a request's inputs, stored with its reference so that a
    changed generator is caught instead of compared against stale answers."""
    text = json.dumps(request, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]
