"""Command-line front end: parse instances and scenarios, run the solvers and
oracles, and emit deterministic JSON (or CSV dumps of named profiles)."""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Optional

from . import oracle
from .envelopes import left_envelope_raw, right_envelope_raw
from .evacuation import optimal_sink, regret, theta
from .path_model import (
    PathInstance,
    PathModelError,
    Scenario,
    format_fraction,
    parse_instance,
    parse_scenario,
    to_fraction,
    validate,
)
from .profiles import Box, edge_min_profile, vertex_min_profile
from .pwl import PwlFunction
from .worst_case import RegretReport, RegretSolver, Witness, left_arrival_envelope


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


def _emit(payload: dict) -> None:
    json.dump(payload, sys.stdout, sort_keys=True, separators=(",", ": "), indent=1)
    sys.stdout.write("\n")


def _with_approx(payload: dict) -> dict:
    approx = {}
    for key, value in payload.items():
        if isinstance(value, str):
            try:
                approx[key] = float(Fraction(value))
            except ValueError:
                continue
    out = dict(payload)
    out["approx"] = approx
    return out


def _witness_json(witness: Optional[Witness]) -> Optional[dict]:
    if witness is None:
        return None
    return {
        "alpha": format_fraction(witness.alpha),
        "beta": None if witness.beta is None else format_fraction(witness.beta),
        "edge": witness.edge,
        "family": witness.family,
        "i": witness.i,
        "j": witness.j,
        "scenario": [format_fraction(w) for w in witness.scenario.weights],
    }


def _report_json(report: RegretReport) -> dict:
    payload = _with_approx(
        {
            "location": format_fraction(report.location.value),
            "value": format_fraction(report.value),
        }
    )
    payload["witness"] = _witness_json(report.witness)
    return payload


def _dump_pwl(f: PwlFunction) -> None:
    slopes = f.slopes()
    for idx, (q, v) in enumerate(zip(f.breakpoints, f.values)):
        right = format_fraction(slopes[idx]) if idx < len(slopes) else ""
        sys.stdout.write(f"{format_fraction(q)},{format_fraction(v)},{right}\n")


def _named_profile(name: str, instance: PathInstance, scenario: Optional[Scenario]) -> PwlFunction:
    parts = name.split(":")
    kind = parts[0]
    if kind in ("lue", "rue"):
        i, j = int(parts[1]), int(parts[2])
        base = scenario if scenario is not None else instance.lower_scenario()
        lo = instance.weight_lo[i]
        hi = instance.weight_hi[i]
        builder = left_envelope_raw if kind == "lue" else right_envelope_raw
        return builder(instance, i, j, base, lo, hi)
    if kind in ("mk", "medge"):
        i, j, k = int(parts[1]), int(parts[2]), int(parts[3])
        box = Box(
            instance.weight_lo[i], instance.weight_hi[i],
            instance.weight_lo[j], instance.weight_hi[j],
        )
        if kind == "mk":
            return vertex_min_profile(instance, i, j, k, box)
        return edge_min_profile(instance, i, j, k, box)
    if kind == "F":
        i, j, x = int(parts[1]), int(parts[2]), to_fraction(parts[3])
        return left_arrival_envelope(instance, i, j, x)
    raise PathModelError(f"unknown profile name {name!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evacregret",
        description="Minmax-regret sink location on dynamic path networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, scenario: bool = False, sink: bool = False):
        p = sub.add_parser(name)
        p.add_argument("--instance", required=True)
        if scenario:
            p.add_argument("--scenario", required=True)
        if sink:
            p.add_argument("--sink", required=True, help="sink position (rational)")
        return p

    add("validate")
    add("evacuate", scenario=True, sink=True)
    add("optimal-sink", scenario=True)
    add("regret", scenario=True, sink=True)
    add("maxregret", sink=True)
    add("minmax-regret")

    o = sub.add_parser("oracle")
    osub = o.add_subparsers(dest="oracle_command", required=True)
    sim = osub.add_parser("simulate")
    sim.add_argument("--instance", required=True)
    sim.add_argument("--scenario", required=True)
    sim.add_argument("--sink", required=True)
    sim.add_argument("--dt", default=None)
    grid = osub.add_parser("grid-rmax")
    grid.add_argument("--instance", required=True)
    grid.add_argument("--sink", required=True)
    grid.add_argument("--grid", default=None)
    sweep = osub.add_parser("sweep-ropt")
    sweep.add_argument("--instance", required=True)
    sweep.add_argument("--grid", default=None)
    sweep.add_argument("--samples", type=int, default=64)
    shift_p = osub.add_parser("check-shift")
    shift_p.add_argument("--instance", required=True)
    shift_p.add_argument("--trials", type=int, default=1000)
    shift_p.add_argument("--seed", type=int, default=0)

    dump = sub.add_parser("dump-pwl")
    dump.add_argument("--instance", required=True)
    dump.add_argument("--name", required=True, help="lue:i:j rue:i:j mk:i:j:k medge:i:j:k F:i:j:x")
    dump.add_argument("--scenario", default=None, help="base scenario for lue/rue")
    return parser


def _default_grid(instance: PathInstance) -> Fraction:
    width = max(
        (hi - lo for lo, hi in zip(instance.weight_lo, instance.weight_hi)),
        default=Fraction(0),
    )
    return width / 64 if width > 0 else Fraction(1, 64)


def _default_dt(instance: PathInstance) -> Fraction:
    shortest = min(
        (instance.edge_length(k) for k in range(instance.n)), default=Fraction(1)
    )
    return shortest / 1024


def run(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        instance = _load_instance(args.instance)
    except (OSError, ValueError) as exc:
        if args.command == "validate" and isinstance(exc, PathModelError):
            _emit({"errors": str(exc).split("; "), "ok": False})
            return 1
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        if args.command == "validate":
            _emit({"errors": [], "ok": True})
            return 0
        if args.command == "evacuate":
            scenario = _load_scenario(args.scenario, instance)
            result = theta(instance, to_fraction(args.sink), scenario)
            _emit(
                _with_approx(
                    {
                        "lcv": result.lcv,
                        "rcv": result.rcv,
                        "theta": format_fraction(result.theta),
                        "theta_left": format_fraction(result.theta_left),
                        "theta_right": format_fraction(result.theta_right),
                    }
                )
            )
            return 0
        if args.command == "optimal-sink":
            scenario = _load_scenario(args.scenario, instance)
            sink = optimal_sink(instance, scenario)
            _emit(
                _with_approx(
                    {
                        "location": format_fraction(sink.location.value),
                        "value": format_fraction(sink.value),
                    }
                )
            )
            return 0
        if args.command == "regret":
            scenario = _load_scenario(args.scenario, instance)
            value = regret(instance, to_fraction(args.sink), scenario)
            _emit(_with_approx({"value": format_fraction(value)}))
            return 0
        if args.command == "maxregret":
            report = RegretSolver(instance).max_regret(to_fraction(args.sink))
            _emit(_report_json(report))
            return 0
        if args.command == "minmax-regret":
            report = RegretSolver(instance).min_max_regret()
            _emit(_report_json(report))
            return 0
        if args.command == "dump-pwl":
            scenario = (
                _load_scenario(args.scenario, instance) if args.scenario else None
            )
            _dump_pwl(_named_profile(args.name, instance, scenario))
            return 0
        if args.command == "oracle":
            return _run_oracle(args, instance)
    except (OSError, ValueError, IndexError, oracle.OracleTimeout) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2


def _run_oracle(args: argparse.Namespace, instance: PathInstance) -> int:
    if args.oracle_command == "simulate":
        scenario = _load_scenario(args.scenario, instance)
        dt = to_fraction(args.dt) if args.dt else _default_dt(instance)
        value = oracle.simulate_evacuation(instance, to_fraction(args.sink), scenario, dt)
        _emit(_with_approx({"dt": format_fraction(dt), "value": format_fraction(value)}))
        return 0
    if args.oracle_command == "grid-rmax":
        h = to_fraction(args.grid) if args.grid else _default_grid(instance)
        value = oracle.grid_rmax(instance, to_fraction(args.sink), h)
        _emit(_with_approx({"h": format_fraction(h), "value": format_fraction(value)}))
        return 0
    if args.oracle_command == "sweep-ropt":
        h = to_fraction(args.grid) if args.grid else _default_grid(instance)
        if args.samples < 1:
            raise PathModelError("--samples must be at least 1")
        point, value = oracle.sweep_ropt(
            instance, h, max(args.samples, instance.vertex_count)
        )
        _emit(
            _with_approx(
                {
                    "h": format_fraction(h),
                    "location": format_fraction(point.value),
                    "value": format_fraction(value),
                }
            )
        )
        return 0
    if args.oracle_command == "check-shift":
        report = oracle.check_shift(instance, args.trials, args.seed)
        _emit(
            {
                "performed": report.performed,
                "trials": report.trials,
                "violations": report.violations,
            }
        )
        return 0
    return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
