"""The evacregret benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload minmax-mixed-n12 --seed 1 --seconds 30 --trace 0

Run it from the root of a source tree (it imports the package from ./src).
It sends the seed's requests one at a time, each in a fresh worker process
(a closed loop with one client and one request in flight), checks every
answer exactly against `reference.json`, prints each metric by name with its
unit and sample count, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 every
worker traces the solver's layers (see spans.py) and the metrics are the
per-layer ones, and the spans are written under .perfbench_out/.
See NOTES.md for the workloads and what each metric should move.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
from workloads import WORKLOADS, fingerprint, pool_indices, request_input  # noqa: E402

SETUP_PROBES = 5  # set-up-only workers per run, on top of one per request
RUN_LIMIT_S = 170  # no worker starts, or keeps running, past this


def run_worker(job: dict, timeout: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py")],
            input=json.dumps(job),
            capture_output=True,
            text=True,
            env=env,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"worker timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"worker exited {proc.returncode}: {proc.stderr.strip()[-400:]}"}
    return json.loads(lines[-1])


def check(out: dict, reference: dict, digest: str):
    """None if the worker's answer is exactly the recorded one and its
    witness replays; otherwise what is wrong."""
    if "error" in out:
        return out["error"]
    if "value" not in reference:
        return f"no reference answer recorded for this request: {reference.get('error')}"
    if reference.get("input") != digest:
        return "request input differs from the one the reference was recorded for"
    result = out["result"]
    for key in ("value", "location"):
        if key in reference and result.get(key) != reference[key]:
            return f"{key} {result.get(key)} != reference {reference[key]}"
    if result.get("replay_ok") is False:
        return "witness scenario does not replay to the reported value"
    return None


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def request_s(sample: dict) -> float:
    """The request's time at reference host speed (see hostspeed.py)."""
    worker = hostspeed.combined(sample["setup"], sample["request"])
    return hostspeed.adjusted_s(sample["request"], fallback=worker)


def setup_s(sample: dict) -> float:
    return hostspeed.adjusted_s(sample["setup"])


def end_to_end(samples: list[dict], setups: list[dict]) -> dict:
    times = [request_s(s) for s in samples]
    return {
        "request_s_p50": (median(times), "s"),
        "requests_per_s": (len(times) / sum(times), "1/s"),
        "setup_s": (median([setup_s(s) for s in setups]), "s"),
        "peak_rss_mb": (median([s["peak_rss_kb"] / 1024 for s in samples]), "MB"),
    }


def unadjusted(samples: list[dict], setups: list[dict]) -> dict:
    """The same times unadjusted, and the host's speed, for the printout."""
    walls = [s["request"]["wall_s"] - s["request"]["burst_s"] for s in samples]
    bursts = hostspeed.combined(*(s["setup"] for s in setups), *(s["request"] for s in samples))
    return {
        "unadjusted.request_s_p50": (median(walls), "s"),
        "unadjusted.requests_per_s": (len(walls) / sum(walls), "1/s"),
        "unadjusted.setup_s": (median([s["setup"]["wall_s"] - s["setup"]["burst_s"] for s in setups]), "s"),
        "host.speed": (hostspeed.REFERENCE_BURST_S * bursts["bursts"] / bursts["burst_s"], "ratio"),
    }


def per_layer(samples: list[dict]) -> dict:
    """Layer metrics over all requests of the run (sums, and ratios of sums).
    A ratio over a layer that made no calls reads 0."""
    tot: dict[str, dict] = {}
    for s in samples:
        for metric, row in s["layers"].items():
            acc = tot.setdefault(metric, {})
            for key, value in row.items():
                if key == "pieces_max":
                    acc[key] = max(acc.get(key, 0), value)
                else:
                    acc[key] = acc.get(key, 0) + value

    def get(metric: str, key: str):
        value = tot.get(metric, {}).get(key, 0)
        return float(value) if key.endswith("_s") else value

    out = {"trace.request_s_p50": (median([request_s(s) for s in samples]), "s")}
    out["worst_case.vertex_regret.distinct"] = (get("worst_case.vertex_regret", "distinct"), "count")
    out["worst_case.vertex_regret.self_s"] = (get("worst_case.vertex_regret", "self_s"), "s")
    for f in ("eval_left_single", "eval_left_pair", "eval_left_pair_inner", "replay"):
        out[f"worst_case.{f}.calls"] = (get(f"worst_case.{f}", "calls"), "count")
        out[f"worst_case.{f}.total_s"] = (get(f"worst_case.{f}", "total_s"), "s")
    for f in ("edge_min_profile", "edge_min_profile_single"):
        m = f"profiles.{f}"
        out[f"{m}.calls"] = (get(m, "calls"), "count")
        out[f"{m}.distinct_ratio"] = (ratio(get(m, "distinct"), get(m, "calls")), "ratio")
        out[f"{m}.total_s"] = (get(m, "total_s"), "s")
    m = "profiles.edge_min_profile"
    out[f"{m}.pieces_mean"] = (ratio(get(m, "pieces_sum"), get(m, "calls")), "pieces")
    out[f"{m}.pieces_max"] = (get(m, "pieces_max"), "pieces")
    m = "profiles.edge_min_profile_single"
    out[f"{m}.pinned_share"] = (ratio(get(m, "pinned"), get(m, "calls")), "ratio")
    m = "envelopes.envelope_raw"
    out[f"{m}.calls"] = (get(m, "calls"), "count")
    out[f"{m}.distinct_ratio"] = (ratio(get(m, "distinct"), get(m, "calls")), "ratio")
    out[f"{m}.self_s"] = (get(m, "self_s"), "s")
    for f in ("max_difference_all", "merge_max", "merge_min_total", "upper_envelope", "canonical"):
        out[f"pwl.{f}.calls"] = (get(f"pwl.{f}", "calls"), "count")
        out[f"pwl.{f}.self_s"] = (get(f"pwl.{f}", "self_s"), "s")
    for f in ("theta_min_on_edge", "optimal_sink", "theta"):
        out[f"evacuation.{f}.calls"] = (get(f"evacuation.{f}", "calls"), "count")
        out[f"evacuation.{f}.total_s"] = (get(f"evacuation.{f}", "total_s"), "s")
    out["evacuation.edges_per_optimal_sink"] = (
        ratio(get("evacuation.optimal_sink", "edges"), get("evacuation.optimal_sink", "calls")),
        "count",
    )
    out["path_model.parse_instance.total_s"] = (get("path_model.parse_instance", "total_s"), "s")
    out["path_model.prefix_weight.calls"] = (get("path_model.prefix_weight", "calls"), "count")
    out["path_model.min_capacity.calls"] = (get("path_model.min_capacity", "calls"), "count")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "evacregret", "__init__.py")):
        print(f"error: no evacregret package under {SRC}", file=sys.stderr)
        return 2
    started = time.monotonic()
    workload = WORKLOADS[args.workload]
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        references = json.load(fh)[workload.name]
    costs = {int(i): entry["cost_s"] for i, entry in references.items()}
    indices = pool_indices(workload, args.seed, args.seconds, costs)
    requests = [(i, request_input(workload, i)) for i in indices]
    trace = bool(args.trace)
    spans_dir = os.path.join(OUT_DIR, workload.name)
    if trace:
        shutil.rmtree(spans_dir, ignore_errors=True)
        os.makedirs(spans_dir)

    def serve(job: dict) -> dict:
        remaining = started + RUN_LIMIT_S - time.monotonic()
        if remaining <= 0:
            return {"error": "run time limit reached before the request started"}
        return run_worker(job, remaining)

    setups: list[dict] = []  # workers whose set-up succeeded
    if not trace:
        for _ in range(SETUP_PROBES):
            out = serve({"kind": "setup", "src": SRC, "request_id": -1, "trace": False,
                         **requests[0][1]})
            if "error" in out:
                print(f"set-up failed: {out['error']}", file=sys.stderr)
                return 1
            setups.append(out)

    samples: list[dict] = []
    failures: list[str] = []
    attempted = 0
    passes = 0
    loop_start = time.monotonic()
    while True:
        pass_start = time.monotonic()
        for index, request in requests:
            job = {
                "kind": workload.kind, "src": SRC, "request_id": attempted, "trace": trace,
                "spans_path": os.path.join(spans_dir, f"spans-{attempted}.tsv.gz") if trace else None,
                **request,
            }
            attempted += 1
            out = serve(job)
            error = check(out, references.get(str(index), {}), fingerprint(request))
            if error is None:
                samples.append(out)
                setups.append(out)
            else:
                failures.append(f"pool entry {index}: {error}")
        passes += 1
        # repeat whole passes over the same requests only while another fits
        elapsed = time.monotonic() - loop_start
        if trace or elapsed + (time.monotonic() - pass_start) > args.seconds:
            break

    for line in failures:
        print(f"FAILED {line}")
    if not samples:
        print("error: no request succeeded", file=sys.stderr)
        return 1
    metrics = per_layer(samples) if trace else end_to_end(samples, setups)
    print(
        f"workload {workload.name} seed {args.seed} trace {args.trace}: "
        f"{len(requests)} distinct requests x {passes} pass(es), {attempted} attempted"
    )
    shown = dict(metrics)
    if not trace:
        shown.update(unadjusted(samples, setups))
    for name, (value, unit) in shown.items():
        count = len(setups) if "setup_s" in name else len(samples)
        print(f"  {name:48s} {value:>14.6g} {unit:7s} (n={count})")
    print(f"  {'error_rate':48s} {len(failures) / attempted:>14.6g} share   "
          f"({len(failures)} of {attempted} failed)")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
