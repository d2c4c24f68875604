"""Command-line front end: parse instances and scenarios, run the solvers and
oracles, and emit deterministic JSON (or CSV dumps of named profiles)."""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Optional, Union

from . import oracle
from .envelopes import left_envelope_raw, right_envelope_raw
from .evacuation import optimal_sink, regret, theta
from .path_model import (
    PathInstance,
    PathModelError,
    Scenario,
    parse_instance,
    parse_scenario,
    to_fraction,
    validate,
)
from .profiles import Box, edge_min_profile, vertex_min_profile
from .pwl import PwlFunction
from .worst_case import RegretReport, RegretSolver, left_arrival_envelope

# the fields of each profile name dump-pwl accepts, after its kind
_PROFILE_FIELDS = {"lue": "i:j", "rue": "i:j", "mk": "i:j:k", "medge": "i:j:k", "F": "i:j:x"}


def _load_instance(path: str) -> PathInstance:
    with open(path, "r", encoding="utf-8") as fh:
        instance = parse_instance(fh.read())
    errors = validate(instance)
    if errors:
        raise PathModelError("; ".join(errors))
    return instance


def _load_scenario(path: str, instance: PathInstance) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        scenario = parse_scenario(fh.read())
    if len(scenario.weights) != instance.vertex_count:
        raise PathModelError("scenario length does not match instance")
    if any(w < 0 for w in scenario.weights):
        raise PathModelError("scenario weights must be nonnegative")
    return scenario


def _emit(payload: Union[dict, str]) -> None:
    """Write a command's result: a JSON object, or dump-pwl's CSV text as is."""
    if isinstance(payload, str):
        sys.stdout.write(payload)
        return
    json.dump(payload, sys.stdout, sort_keys=True, separators=(",", ": "), indent=1)
    sys.stdout.write("\n")


def _exact(**values: Fraction) -> dict:
    """Each value as a reduced p/q string, with its float under "approx"."""
    payload: dict = {key: str(v) for key, v in values.items()}
    payload["approx"] = {key: float(v) for key, v in values.items()}
    return payload


def _report(report: RegretReport) -> dict:
    w = report.witness
    witness = None if w is None else {
        "alpha": str(w.alpha),
        "beta": None if w.beta is None else str(w.beta),
        "edge": w.edge,
        "family": w.family,
        "i": w.i,
        "j": w.j,
        "scenario": [str(v) for v in w.scenario.weights],
    }
    return {**_exact(location=report.location.value, value=report.value), "witness": witness}


def _csv(f: PwlFunction) -> str:
    slopes = [str(m) for m in f.slopes()] + [""]
    return "".join(f"{q},{v},{m}\n" for q, v, m in zip(f.breakpoints, f.values, slopes))


def _named_profile(name: str, instance: PathInstance, scenario: Optional[Scenario]) -> PwlFunction:
    kind, *fields = name.split(":")
    if kind not in _PROFILE_FIELDS:
        raise PathModelError(f"unknown profile name {name!r}")
    if len(fields) != len(_PROFILE_FIELDS[kind].split(":")):
        raise PathModelError(f"profile name {name!r} is not {kind}:{_PROFILE_FIELDS[kind]}")
    if scenario is not None and kind not in ("lue", "rue"):
        raise PathModelError(f"--scenario applies to lue and rue only, not {kind}")
    if kind == "F":
        i, j, x = int(fields[0]), int(fields[1]), to_fraction(fields[2])
        return left_arrival_envelope(instance, i, j, x)

    def interval(t: int) -> tuple[Fraction, Fraction]:
        # a vertex off the path looks up no weight; the builder refuses it
        if 0 <= t < instance.vertex_count:
            return instance.weight_lo[t], instance.weight_hi[t]
        return Fraction(0), Fraction(0)

    if kind in ("lue", "rue"):
        i, j = int(fields[0]), int(fields[1])
        base = scenario if scenario is not None else instance.lower_scenario()
        builder = left_envelope_raw if kind == "lue" else right_envelope_raw
        return builder(instance, i, j, base, *interval(i))
    i, j, k = int(fields[0]), int(fields[1]), int(fields[2])
    box = Box(*interval(i), *interval(j))
    builder = vertex_min_profile if kind == "mk" else edge_min_profile
    return builder(instance, i, j, k, box)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evacregret",
        description="Minmax-regret sink location on dynamic path networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(group, name: str, *options: tuple[str, dict]) -> None:
        p = group.add_parser(name)
        p.add_argument("--instance", required=True)
        for flag, settings in options:
            p.add_argument(flag, **settings)

    required = {"required": True}
    scenario = ("--scenario", required)
    sink = ("--sink", {"required": True, "help": "sink position (rational)"})
    add(sub, "validate")
    add(sub, "evacuate", scenario, sink)
    add(sub, "optimal-sink", scenario)
    add(sub, "regret", scenario, sink)
    add(sub, "maxregret", sink)
    add(sub, "minmax-regret")

    osub = sub.add_parser("oracle").add_subparsers(dest="oracle_command", required=True)
    add(osub, "simulate", scenario, ("--sink", required), ("--dt", {}))
    add(osub, "grid-rmax", ("--sink", required), ("--grid", {}))
    add(osub, "sweep-ropt", ("--grid", {}), ("--samples", {"type": int, "default": 64}))
    add(osub, "check-shift", ("--trials", {"type": int, "default": 1000}),
        ("--seed", {"type": int, "default": 0}))

    names = " ".join(f"{kind}:{fields}" for kind, fields in _PROFILE_FIELDS.items())
    add(sub, "dump-pwl", ("--name", {"required": True, "help": names}),
        ("--scenario", {"help": "base scenario for lue/rue"}))
    return parser


def _default_dt(instance: PathInstance) -> Fraction:
    shortest = min((instance.edge_length(k) for k in range(instance.n)), default=Fraction(1))
    return shortest / 1024


def _answer(args: argparse.Namespace, instance: PathInstance) -> Union[dict, str]:
    """The command's JSON payload, or dump-pwl's CSV text.  Each input is
    parsed in the order its errors are reported: the scenario file first,
    then a step (--dt or --grid), then the sink."""
    command = args.oracle_command if args.command == "oracle" else args.command
    if command == "validate":
        return {"errors": [], "ok": True}
    if command == "maxregret":
        return _report(RegretSolver(instance).max_regret(to_fraction(args.sink)))
    if command == "minmax-regret":
        return _report(RegretSolver(instance).min_max_regret())
    if command == "check-shift":
        return vars(oracle.check_shift(instance, args.trials, args.seed))
    if command == "grid-rmax":
        h = to_fraction(args.grid) if args.grid else oracle.default_grid(instance)
        return _exact(h=h, value=oracle.grid_rmax(instance, to_fraction(args.sink), h))
    if command == "sweep-ropt":
        h = to_fraction(args.grid) if args.grid else oracle.default_grid(instance)
        if args.samples < 1:
            raise PathModelError("--samples must be at least 1")
        point, value = oracle.sweep_ropt(instance, h, max(args.samples, instance.vertex_count))
        return _exact(h=h, location=point.value, value=value)
    if command == "dump-pwl":
        scenario = _load_scenario(args.scenario, instance) if args.scenario else None
        return _csv(_named_profile(args.name, instance, scenario))
    # evacuate, optimal-sink, regret and simulate take a scenario
    scenario = _load_scenario(args.scenario, instance)
    if command == "optimal-sink":
        best = optimal_sink(instance, scenario)
        return _exact(location=best.location.value, value=best.value)
    if command == "simulate":
        dt = to_fraction(args.dt) if args.dt else _default_dt(instance)
        return _exact(
            dt=dt, value=oracle.simulate_evacuation(instance, to_fraction(args.sink), scenario, dt)
        )
    if command == "regret":
        return _exact(value=regret(instance, to_fraction(args.sink), scenario))
    result = theta(instance, to_fraction(args.sink), scenario)
    return {
        **_exact(theta=result.theta, theta_left=result.theta_left, theta_right=result.theta_right),
        "lcv": result.lcv,
        "rcv": result.rcv,
    }


def run(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _emit(_answer(args, _load_instance(args.instance)))
    except (OSError, ValueError, IndexError, oracle.OracleTimeout) as exc:
        # only loading the instance can fail validate; it lists the errors
        if args.command == "validate" and isinstance(exc, PathModelError):
            _emit({"errors": str(exc).split("; "), "ok": False})
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
