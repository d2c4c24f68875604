"""Serve one benchmark request in a fresh process, as one CLI call would.

Reads a JSON job on stdin and prints one JSON line on stdout.  A fresh
process per request means no solver cache holds entries for the instance
when the timed region starts.

    job = {"kind": "minmax" | "maxregret" | "regret" | "setup" (set-up only),
           "src": directory the package must be imported from,
           "instance": instance JSON text,
           "sink": "p/q" (maxregret, regret), "scenario": JSON text (regret),
           "request_id": int, "trace": bool, "spans_path": str | null}
"""
from __future__ import annotations

import json
import os
import resource
import sys
import traceback
from fractions import Fraction


def _request(ev, kind: str, instance, job: dict):
    """The timed call and what it returns, for the kind of request."""
    if kind == "minmax":
        return lambda: ev.RegretSolver(instance).min_max_regret()
    if kind == "maxregret":
        sink = Fraction(job["sink"])
        return lambda: ev.RegretSolver(instance).max_regret(sink)
    if kind == "regret":
        sink = Fraction(job["sink"])
        scenario = ev.parse_scenario(job["scenario"])
        return lambda: ev.regret(instance, sink, scenario)
    raise ValueError(f"unknown request kind {kind!r}")


def _check_data(ev, kind: str, instance, result) -> dict:
    """The returned values as reduced p/q strings, plus the witness replay
    (run after the timed region)."""
    if kind == "regret":
        return {"value": str(result)}
    witness = result.witness
    replay_ok = witness is not None and (
        ev.regret(instance, result.location, witness.scenario) == result.value
    )
    return {
        "value": str(result.value),
        "location": str(result.location.value),
        "replay_ok": replay_ok,
    }


def main() -> int:
    job = json.loads(sys.stdin.read())
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import hostspeed

    sys.path.insert(0, job["src"])
    sampler = hostspeed.Sampler()
    sampler.start()
    mark = sampler.mark()
    import evacregret as ev
    import_phase = sampler.since(mark)
    expected = os.path.join(os.path.realpath(job["src"]), "evacregret")
    if os.path.dirname(os.path.realpath(ev.__file__)) != expected:
        sampler.stop()
        print(f"evacregret imported from {ev.__file__}, not {expected}", file=sys.stderr)
        return 1

    tracer = None
    if job["trace"]:
        from spans import Tracer

        tracer = Tracer(job["request_id"])
        tracer.install()

    out: dict = {"request_id": job["request_id"]}
    try:
        mark = sampler.mark()
        instance = ev.parse_instance(job["instance"])
        errors = ev.validate(instance)
        out["setup"] = hostspeed.combined(import_phase, sampler.since(mark))
        if errors:
            raise ValueError("invalid instance: " + "; ".join(errors))
        if job["kind"] == "setup":
            print(json.dumps(out))
            return 0
        call = _request(ev, job["kind"], instance, job)
        mark = sampler.mark()
        result = tracer.request(call) if tracer else call()
        out["request"] = sampler.since(mark)
        sampler.stop()
        out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer:
            tracer.uninstall()
            out["layers"] = tracer.summary()
            if job.get("spans_path"):
                tracer.write(job["spans_path"])
        out["result"] = _check_data(ev, job["kind"], instance, result)
    except Exception as exc:  # reported to the benchmark as a failed request
        traceback.print_exc()
        out["error"] = f"{type(exc).__name__}: {exc}"
    finally:
        sampler.stop()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
