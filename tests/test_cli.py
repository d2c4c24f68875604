"""Command-line interface: JSON output, exit codes, determinism, dumps."""
from __future__ import annotations

import json

import pytest

from evacregret.cli import run


@pytest.fixture
def t1_file(tmp_path):
    doc = {
        "vertices": [
            {"position": "0", "w_min": "0", "w_max": "2"},
            {"position": "1", "w_min": "0", "w_max": "2"},
            {"position": "2", "w_min": "0", "w_max": "2"},
        ],
        "capacities": ["1", "2"],
    }
    path = tmp_path / "t1.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "sA.json"
    path.write_text(json.dumps({"weights": ["1", "0", "1"]}))
    return str(path)


def test_validate_ok(t1_file, capsys):
    assert run(["validate", "--instance", t1_file]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"errors": [], "ok": True}


def test_validate_bad(tmp_path, capsys):
    two = [{"position": str(p), "w_min": "0", "w_max": "2"} for p in range(2)]
    unplaced = [{"w_min": "0", "w_max": "2"}] * 2
    for doc, message in (
        ({"vertices": two, "capacities": ["0"]}, "capacity"),
        ({"vertices": [], "capacities": []}, "positions empty"),
        ({"vertices": two, "capacities": ["1", "1"]}, "2 capacities for 2 vertices"),
        ({"vertices": [two[0], {**two[1], "w_min": "-1"}], "capacities": ["1"]}, "negative"),
        ({"vertices": unplaced, "capacities": ["1"]}, "lack positions"),
        # positions come from the vertices or from edge_lengths, never both,
        # even when only some vertices have one
        ({"vertices": two, "edge_lengths": ["1"], "capacities": ["1"]}, "not both"),
        ({"vertices": [two[0], unplaced[1]], "edge_lengths": ["1"], "capacities": ["1"]},
         "not both"),
        # a string or an object where an array belongs is not read item by item
        ({"vertices": two, "capacities": "1"}, "malformed instance document"),
        ({"vertices": two, "capacities": {"1": 0}}, "malformed instance document"),
        ({"vertices": unplaced, "edge_lengths": "1", "capacities": ["1"]}, "'edge_lengths'"),
        ({"vertices": {"0": two[0]}, "capacities": ["1"]}, "'vertices' is not an array"),
    ):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run(["validate", "--instance", str(bad)]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["ok"] is False
        assert any(message in e for e in out["errors"])


def test_unknown_flag_usage_error(t1_file):
    with pytest.raises(SystemExit) as exc:
        run(["validate", "--instance", t1_file, "--bogus"])
    assert exc.value.code == 2


def test_evacuate(t1_file, scenario_file, capsys):
    assert run([
        "evacuate", "--instance", t1_file, "--scenario", scenario_file, "--sink", "1",
    ]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["theta_left"] == "2"
    assert out["theta_right"] == "3/2"
    assert out["theta"] == "2"
    assert out["approx"]["theta_right"] == 1.5


def test_optimal_sink(t1_file, scenario_file, capsys):
    assert run(["optimal-sink", "--instance", t1_file, "--scenario", scenario_file]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["location"], out["value"]) == ("1", "2")


def test_regret(t1_file, scenario_file, capsys):
    assert run([
        "regret", "--instance", t1_file, "--scenario", scenario_file, "--sink", "0",
    ]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == "1"


def test_maxregret(t1_file, capsys):
    assert run(["maxregret", "--instance", t1_file, "--sink", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value"] == "4"
    assert out["witness"]["scenario"] == ["2", "0", "0"]


def test_maxregret_all_zero_weights_is_zero(tmp_path, capsys):
    # inside an edge the vertex values shifted by the travel offset fall
    # below 0 when no weight can move; a regret never does
    doc = {
        "vertices": [
            {"position": p, "w_min": "0", "w_max": "0"} for p in ("0", "1", "3")
        ],
        "capacities": ["1", "2"],
    }
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(doc))
    for sink in ("1/2", "2"):
        assert run(["maxregret", "--instance", str(path), "--sink", sink]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == "0"


def test_minmax_regret(t1_file, capsys):
    assert run(["minmax-regret", "--instance", t1_file]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["location"], out["value"]) == ("1", "3")
    assert out["witness"] is not None


def test_deterministic_output(t1_file, capsys):
    run(["minmax-regret", "--instance", t1_file])
    first = capsys.readouterr().out
    run(["minmax-regret", "--instance", t1_file])
    second = capsys.readouterr().out
    assert first == second


def test_oracle_subcommands(t1_file, scenario_file, capsys):
    assert run([
        "oracle", "simulate", "--instance", t1_file, "--scenario", scenario_file,
        "--sink", "1", "--dt", "1/128",
    ]) == 0
    sim = json.loads(capsys.readouterr().out)
    assert abs(sim["approx"]["value"] - 2.0) < 0.1

    assert run([
        "oracle", "grid-rmax", "--instance", t1_file, "--sink", "2", "--grid", "1/16",
    ]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == "4"

    assert run([
        "oracle", "sweep-ropt", "--instance", t1_file, "--grid", "1/16", "--samples", "16",
    ]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["location"], out["value"]) == ("1", "3")

    assert run([
        "oracle", "check-shift", "--instance", t1_file, "--trials", "50", "--seed", "3",
    ]) == 0
    assert json.loads(capsys.readouterr().out)["violations"] == 0


def test_dump_pwl(t1_file, scenario_file, capsys):
    assert run(["dump-pwl", "--instance", t1_file, "--name", "mk:0:2:1"]) == 0
    rows = capsys.readouterr().out.strip().split("\n")
    assert rows[0] == "0,1,1/3"
    assert rows[-1].startswith("4,3,")

    assert run(["dump-pwl", "--instance", t1_file, "--name", "F:0:1:2"]) == 0
    rows = capsys.readouterr().out.strip().split("\n")
    assert rows[0] == "0,1,1/2"

    assert run(["dump-pwl", "--instance", t1_file, "--name", "medge:0:2:1"]) == 0
    assert capsys.readouterr().out == "0,1,1/4\n2,3/2,1/2\n3,2,1\n4,3,\n"

    # --scenario replaces the all-lower base of lue and rue: with one unit
    # at v_0 the left time at x_2 starts at 3, and the weight at v_1 adds none
    argv = ["dump-pwl", "--instance", t1_file, "--name", "lue:1:2"]
    assert run(argv) == 0
    assert capsys.readouterr().out == "0,1,1/2\n2,2,\n"
    assert run([*argv, "--scenario", scenario_file]) == 0
    assert capsys.readouterr().out == "0,3,0\n2,3,\n"


def test_dump_pwl_refuses_out_of_range_envelope_indices(t1_file, scenario_file, capsys):
    # the message names the indices as given, on either side
    refused = [
        (name, "envelope indices out of range: " + name[4:].replace(":", ", "))
        for name in (
            "lue:-1:2", "lue:-3:1", "lue:0:-1", "rue:-1:0", "lue:1:5", "lue:5:1", "rue:5:1",
            "rue:0:-1", "rue:1:5",
        )
    ]
    # an index is checked before its weight interval is looked up
    refused += [
        ("mk:0:9:1", "vertex_min_profile requires i <= k <= j"),
        ("mk:9:2:1", "vertex_min_profile requires i <= k <= j"),
        ("medge:0:9:1", "edge_min_profile requires i <= k < j"),
    ]
    # a name carries exactly the fields --name's help lists
    refused += [
        ("mk:0:2", "is not mk:i:j:k"),
        ("mk:0:2:1:9", "is not mk:i:j:k"),
        ("lue:0:1:7", "is not lue:i:j"),
        ("F:0:1:2:junk", "is not F:i:j:x"),
        ("zz:0:1", "unknown profile name"),
    ]
    # F:i:j:x is refused exactly where eval_left_pair_inner is: i == j, and
    # a sink right of x_n or at x_j
    refused += [
        ("F:1:1:2", "left family indices out of range"),
        ("F:0:1:3", "left family sink out of range"),
        ("F:0:1:1", "left family sink out of range"),
        ("F:0:1:1/0", "not an exact rational"),
    ]
    for name, message in refused:
        assert run(["dump-pwl", "--instance", t1_file, "--name", name]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
    # only the one-sided envelopes take a base scenario
    for name in ("mk:0:2:1", "medge:0:2:1", "F:0:1:2"):
        argv = ["dump-pwl", "--instance", t1_file, "--name", name, "--scenario", scenario_file]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--scenario applies to lue and rue only" in captured.err


def test_missing_file_is_validation_error(capsys):
    assert run(["maxregret", "--instance", "/nonexistent.json", "--sink", "0"]) == 1


def test_boolean_capacity_rejected(tmp_path):
    # JSON true is not the number 1
    doc = {
        "vertices": [
            {"position": "0", "w_min": "0", "w_max": "2"},
            {"position": "1", "w_min": "0", "w_max": "2"},
        ],
        "capacities": [True],
    }
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(doc))
    assert run(["minmax-regret", "--instance", str(path)]) == 1


def test_huge_decimal_exponent_rejected(tmp_path, capsys):
    # parsing "1e-3000000" would build a 3-million-digit integer first; "1/0"
    # and "abc" have no value at all
    for literal, message in (
        ("1e-3000000", "exponent"),
        ("1/0", "not an exact rational"),
        ("abc", "not an exact rational"),
    ):
        doc = {
            "vertices": [
                {"position": "0", "w_min": "0", "w_max": literal},
                {"position": "1", "w_min": "0", "w_max": "2"},
            ],
            "capacities": ["1"],
        }
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        assert run(["validate", "--instance", str(path)]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["ok"] is False
        assert message in out["errors"][0]


def test_oracle_refuses_unbounded_step_counts(t1_file, scenario_file, capsys):
    # a dt or grid this fine, or a count this large, would run for days; each
    # is refused before any work, as is a negative count
    for argv, message in (
        (["simulate", "--scenario", scenario_file, "--sink", "1", "--dt", "1e-12"], "steps"),
        (["grid-rmax", "--sink", "1", "--grid", "1e-12"], "points per axis"),
        (["grid-rmax", "--sink", "1", "--grid", "1/512"], "scenarios"),
        (["sweep-ropt", "--grid", "1e-12"], "points per axis"),
        (["sweep-ropt", "--samples", "100000000"], "x_samples must be at most"),
        (["sweep-ropt", "--samples", "-5"], "--samples must be at least 1"),
        (["check-shift", "--trials", "1000000000"], "trials must be between"),
        (["check-shift", "--trials", "-5"], "trials must be between"),
    ):
        assert run(["oracle", argv[0], "--instance", t1_file, *argv[1:]]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


def test_oracle_timeout_is_an_error(tmp_path, capsys):
    # 20000 units over one capacity-1 edge take longer than the simulated cap
    doc = {
        "vertices": [
            {"position": "0", "w_min": "0", "w_max": "20000"},
            {"position": "1", "w_min": "0", "w_max": "0"},
        ],
        "capacities": ["1"],
    }
    path = tmp_path / "heavy.json"
    path.write_text(json.dumps(doc))
    scenario = tmp_path / "heavy_s.json"
    scenario.write_text(json.dumps({"weights": ["20000", "0"]}))
    assert run([
        "oracle", "simulate", "--instance", str(path), "--scenario", str(scenario),
        "--sink", "1", "--dt", "1",
    ]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: simulation did not drain")


def test_bad_scenario_file_rejected(t1_file, tmp_path, capsys):
    for weights, message in (
        (["1", "0"], "scenario length does not match instance"),
        (["1", "-1", "1"], "scenario weights must be nonnegative"),
        (5, "malformed scenario document"),
        ("111", "'weights' is not an array"),
        ({"0": "1", "1": "0", "2": "1"}, "malformed scenario document"),
        # a JSON number such as 0.5 is a binary float, not an exact rational
        (["1", 0.5, "1"], "not an exact rational: 0.5"),
    ):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"weights": weights}))
        assert run([
            "evacuate", "--instance", t1_file, "--scenario", str(path), "--sink", "1",
        ]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


def test_sink_outside_path_rejected(t1_file, scenario_file, capsys):
    for sink, message in (("9", "outside"), ("1/0", "not an exact rational")):
        assert run([
            "evacuate", "--instance", t1_file, "--scenario", scenario_file, "--sink", sink,
        ]) == 1
        assert message in capsys.readouterr().err


def test_oracle_simulate_default_dt_without_edges(tmp_path, capsys):
    # one vertex has no edge to take the default step from; 1/1024 stands in
    path = tmp_path / "single.json"
    path.write_text(json.dumps({
        "vertices": [{"position": "0", "w_min": "0", "w_max": "2"}], "capacities": [],
    }))
    scenario = tmp_path / "single_s.json"
    scenario.write_text(json.dumps({"weights": ["1"]}))
    assert run([
        "oracle", "simulate", "--instance", str(path), "--scenario", str(scenario),
        "--sink", "0",
    ]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["dt"], out["value"]) == ("1/1024", "0")


def test_deeply_nested_json_is_a_validation_error(tmp_path, t1_file, capsys):
    deep = "[" * 100_000 + "]" * 100_000
    path = tmp_path / "deep.json"
    path.write_text(deep)
    assert run(["validate", "--instance", str(path)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is False
    assert "nested too deeply" in out["errors"][0]

    assert run([
        "evacuate", "--instance", t1_file, "--scenario", str(path), "--sink", "1",
    ]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "nested too deeply" in captured.err
