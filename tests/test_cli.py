import csv
import hashlib
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from edue import cli
from edue.cli import (
    EXIT_INPUT_ERROR,
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    FLOWS_HEADER,
    ScenarioError,
    load_scenario,
    main,
    read_flows_csv,
    write_flows_csv,
)
from edue.grid import ExtendedPoint
from edue.solver import SolverConfig
from edue.verify import FEASIBILITY_RTOL

from oracles import bisect_demand


def uncongested_scenario(n=64):
    """Single uncongested path; on-time departures land on a cell boundary."""
    return {
        "units": {
            "time": "hours",
            "flow": "vehicles_per_hour",
            "demand": "vehicles",
        },
        "horizon": {"t0": 0.0, "tf": 2.0, "arrival_target": 7 / 6},
        "network": {
            "links": [
                {
                    "id": "a",
                    "from": "O",
                    "to": "D",
                    "free_flow_time": 1 / 6,
                    "exit_capacity": 1e6,
                }
            ],
            "paths": [
                {"id": "p1", "links": ["a"], "origin": "O", "destination": "D"}
            ],
        },
        "penalty": {"early": 0.5, "late": 2.0},
        "demand": [
            {"origin": "O", "destination": "D", "intercept": 1.0, "slope": 1 / 120}
        ],
        "solver": {
            "n": n,
            "alpha": 400.0,
            "max_iters": 4000,
            "gap_rtol": 1e-6,
            "halve_on_stall": 25,
        },
    }


def congested_scenario(n=4):
    doc = uncongested_scenario(n=n)
    doc["horizon"] = {"t0": 0.0, "tf": 1.0, "arrival_target": 0.6}
    doc["network"]["links"][0].update(free_flow_time=0.1, exit_capacity=1000.0)
    doc["demand"][0].update(intercept=1.0, slope=0.002, cap=450.0)
    return doc


def tiny_scenario():
    doc = uncongested_scenario(n=2)
    doc["horizon"] = {"t0": 0.0, "tf": 1.0, "arrival_target": 0.5}
    doc["network"]["links"][0].update(free_flow_time=0.2, exit_capacity=1e6)
    doc["demand"][0].update(intercept=1.0, slope=0.01, cap=80.0)
    return doc


def fixed_scenario(demands):
    """The congested scenario with a second OD pair O2->D on its own link,
    each OD's demand pinned at the given volume."""
    doc = congested_scenario()
    doc["network"]["links"].append(
        {"id": "b", "from": "O2", "to": "D", "free_flow_time": 0.1, "exit_capacity": 1000.0}
    )
    doc["network"]["paths"].append(
        {"id": "p2", "links": ["b"], "origin": "O2", "destination": "D"}
    )
    doc["demand"] = [
        {"origin": origin, "destination": "D", "fixed_demand": q}
        for origin, q in zip(("O", "O2"), demands)
    ]
    return doc


def _links(*rows):
    return [{"id": lid, "from": tail, "to": head, "free_flow_time": fft, "exit_capacity": cap}
            for lid, tail, head, fft, cap in rows]


def _paths_and_demands(doc, rows, slope, cap):
    """Set one path (id, links, origin, destination, intercept) per OD pair,
    each with an elastic demand entry."""
    doc["network"]["paths"] = [{"id": pid, "links": links, "origin": o, "destination": d}
                               for pid, links, o, d, _ in rows]
    doc["demand"] = [{"origin": o, "destination": d, "intercept": intercept, "slope": slope,
                      "cap": cap} for _, _, o, d, intercept in rows]


def corridor_scenario():
    """Two OD pairs whose feeders, loaded as one batch, share the bottleneck
    bn, which queues."""
    doc = congested_scenario(n=8)
    doc["horizon"] = {"t0": 0.0, "tf": 1.6, "arrival_target": 0.8}
    doc["solver"]["max_iters"] = 60
    doc["network"]["links"] = _links(
        ("in1", "O1", "A", 0.01, 1e5), ("in2", "O2", "A", 0.01, 1e5), ("bn", "A", "B", 0.1, 300.0),
        ("out1", "B", "D1", 0.01, 1e5), ("out2", "B", "D2", 0.01, 1e5))
    _paths_and_demands(doc, [("a1", ["in1", "bn", "out1"], "O1", "D1", 1.2),
                             ("a2", ["in2", "bn", "out2"], "O2", "D2", 1.3)], 0.004, 250.0)
    return doc


def bypass_corridor_scenario(k=3, n=8):
    """K OD pairs, each with path a{i} through feeder in{i}, the shared
    bottleneck bn and feeder out{i}, and path b{i} on its own bypass by{i}:
    the corridor of tests/conftest.py with the solver settings of the
    benchmark's corridor workload."""
    doc = congested_scenario(n=n)
    doc["horizon"] = {"t0": 0.0, "tf": 1.6, "arrival_target": 0.8}
    doc["solver"].update(alpha=300.0, max_iters=400, gap_rtol=4e-2, halve_on_stall=25)
    doc["network"]["links"] = _links(("bn", "A", "B", 0.1, 1500.0), *(
        row for i in range(k) for row in ((f"in{i}", f"O{i}", "A", 0.01, 1e5),
                                          (f"out{i}", "B", f"D{i}", 0.01, 1e5),
                                          (f"by{i}", f"O{i}", f"D{i}", 0.3, 300.0))))
    doc["network"]["paths"] = [
        path for i in range(k) for path in (
            {"id": f"a{i}", "links": [f"in{i}", "bn", f"out{i}"], "origin": f"O{i}",
             "destination": f"D{i}"},
            {"id": f"b{i}", "links": [f"by{i}"], "origin": f"O{i}", "destination": f"D{i}"})]
    doc["demand"] = [{"origin": f"O{i}", "destination": f"D{i}", "intercept": 1.2,
                      "slope": 0.004, "cap": 250.0} for i in range(k)]
    return doc


def ring_scenario():
    """Three links that feed each other, so they load in passes; r2 is tight
    enough to queue."""
    doc = congested_scenario(n=8)
    doc["horizon"]["arrival_target"] = 0.5
    doc["solver"]["max_iters"] = 60
    doc["network"]["links"] = _links(("r1", "A", "B", 0.1, 300.0), ("r2", "B", "C", 0.15, 100.0),
                                     ("r3", "C", "A", 0.12, 400.0))
    _paths_and_demands(doc, [("p12", ["r1", "r2"], "A", "C", 1.0),
                             ("p23", ["r2", "r3"], "B", "A", 1.0),
                             ("p31", ["r3", "r1"], "C", "B", 1.0)], 0.002, 450.0)
    return doc


# solve, load and check of every scenario in argv[1], each writing to its own
# directory under argv[2], then the oracle at two cells on the scenario
# argv[1]/argv[3], writing to argv[2]/oracle, with the exit codes in
# argv[2]/exit_codes.json
SOLVE_LOAD_CHECK = """
import json, sys
from pathlib import Path
from edue.cli import main
scenarios, root = Path(sys.argv[1]), Path(sys.argv[2])
codes = {}
for scenario in sorted(scenarios.glob("*.json")):
    out = root / scenario.stem
    flows = str(out / "flows.csv")
    codes[scenario.stem] = [main([*command, "--out", str(out)]) for command in (
        ["solve", str(scenario)], ["load", str(scenario), flows], ["check", str(scenario), flows])]
codes["oracle"] = [main(["oracle", str(scenarios / sys.argv[3]), "--n", "2",
                         "--out", str(root / "oracle")])]
(root / "exit_codes.json").write_text(json.dumps(codes))
"""


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


class TestScenarioParsing:
    def test_valid_scenario_loads(self, tmp_path):
        sc = load_scenario(write_scenario(tmp_path, uncongested_scenario()))
        assert sc.n == 64
        assert sc.inv_demand is not None

    def test_missing_units_rejected(self, tmp_path):
        doc = uncongested_scenario()
        del doc["units"]
        path = write_scenario(tmp_path, doc)
        assert main(["solve", str(path), "--out", str(tmp_path)]) == EXIT_INPUT_ERROR

    def test_wrong_units_rejected(self, tmp_path):
        doc = uncongested_scenario()
        doc["units"]["time"] = "minutes"
        path = write_scenario(tmp_path, doc)
        assert main(["solve", str(path), "--out", str(tmp_path)]) == EXIT_INPUT_ERROR

    def test_malformed_json_gives_line_diagnostics(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "units": }\n')
        assert main(["solve", str(path), "--out", str(tmp_path)]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert "line 2" in err

    def test_mixed_demand_modes_rejected(self, tmp_path):
        doc = congested_scenario()
        doc["network"]["links"].append(
            {"id": "b", "from": "O2", "to": "D", "free_flow_time": 0.1,
             "exit_capacity": 500.0}
        )
        doc["network"]["paths"].append(
            {"id": "p2", "links": ["b"], "origin": "O2", "destination": "D"}
        )
        doc["demand"].append(
            {"origin": "O2", "destination": "D", "fixed_demand": 100.0}
        )
        path = write_scenario(tmp_path, doc)
        assert main(["solve", str(path), "--out", str(tmp_path)]) == EXIT_INPUT_ERROR

    def test_negative_fixed_demand_rejected_naming_the_od_pair(self, tmp_path, capsys):
        path = write_scenario(tmp_path, fixed_scenario([200.0, -5.0]))
        assert main(["solve", str(path), "--out", str(tmp_path)]) == EXIT_INPUT_ERROR
        assert ("field 'fixed_demand' of OD O2->D must be nonnegative, got -5.0"
                in capsys.readouterr().err)

    def test_invalid_network_rejected(self, tmp_path):
        doc = uncongested_scenario()
        doc["network"]["links"][0]["exit_capacity"] = 0.0
        path = write_scenario(tmp_path, doc)
        assert main(["solve", str(path), "--out", str(tmp_path)]) == EXIT_INPUT_ERROR

    def test_empty_path_list_rejected(self, tmp_path, capsys):
        doc = uncongested_scenario()
        doc["network"]["paths"] = []
        doc["demand"] = []
        path = write_scenario(tmp_path, doc)
        assert main(["solve", str(path), "--out", str(tmp_path)]) == EXIT_INPUT_ERROR
        assert "invalid network: network has no paths" in capsys.readouterr().err

    def test_arrival_target_at_horizon_end_rejected(self, tmp_path, capsys):
        doc = uncongested_scenario()
        doc["horizon"]["arrival_target"] = 2.0
        path = write_scenario(tmp_path, doc)
        assert main(["solve", str(path), "--out", str(tmp_path)]) == EXIT_INPUT_ERROR
        assert ("horizon.arrival_target must precede horizon.tf 2.0, got 2.0"
                in capsys.readouterr().err)

    def test_solver_defaults_come_from_solver_config(self, tmp_path):
        doc = uncongested_scenario()
        for key in ("gap_rtol", "halve_on_stall"):
            doc["solver"].pop(key, None)
        sc = load_scenario(write_scenario(tmp_path, doc))
        assert sc.config == SolverConfig(alpha=400.0, max_iters=4000)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("block, field", [
        (("network", "links", 0), "exit_capacity"),
        (("network", "links", 0), "free_flow_time"),
        (("penalty",), "early"),
        (("demand", 0), "cap"),
        (("solver",), "alpha"),
        (("solver",), "gap_rtol"),
    ])
    def test_non_finite_number_rejected_naming_the_field(self, tmp_path, capsys, block,
                                                         field, value):
        doc = congested_scenario()
        target = doc
        for key in block:
            target = target[key]
        target[field] = value
        path = write_scenario(tmp_path, doc)  # json writes NaN / Infinity
        assert main(["solve", str(path), "--out", str(tmp_path)]) == EXIT_INPUT_ERROR
        assert repr(field) in capsys.readouterr().err

    @pytest.mark.parametrize("block, key, value, where", [
        (("solver",), "gap_tol", float("nan"), "solver"),  # a retired key
        (("solver",), "gap_rotl", 1e-9, "solver"),
        (("demand", 0), "capp", 300.0, "demand entry for OD O->D"),
        ((), "solvers", {}, "the scenario"),
        (("units",), "distance", "km", "units"),
        (("horizon",), "arrival_targt", 0.6, "horizon"),
        (("network",), "nodes", [], "network"),
        (("penalty",), "lte", 9.0, "penalty"),
        (("network", "links", 0), "capacity", 1000.0, "entry 0 of network.links"),
        (("network", "paths", 0), "via", [], "entry 0 of network.paths"),
    ], ids=["gap_tol", "gap_rotl", "capp", "top level", "units", "horizon", "network",
            "penalty", "link", "path"])
    def test_unknown_key_rejected_naming_it(self, tmp_path, capsys, block, key, value, where):
        doc = congested_scenario()
        target = doc
        for k in block:
            target = target[k]
        target[key] = value
        path = write_scenario(tmp_path, doc)
        assert main(["solve", str(path), "--out", str(tmp_path)]) == EXIT_INPUT_ERROR
        assert f"input error: unknown field {key!r} in {where}\n" == capsys.readouterr().err

    @pytest.mark.parametrize("block, where", [
        (("demand",), "demand"),
        (("network", "links"), "network.links"),
        (("network", "paths"), "network.paths"),
    ], ids=["demand", "links", "paths"])
    @pytest.mark.parametrize("entry, kind", [(5, "int"), ("p1", "str"), ([], "list")])
    def test_entry_that_is_no_object_rejected_naming_it(self, tmp_path, capsys, block, where,
                                                        entry, kind):
        # a bare number once reached a `key in entry` test and raised TypeError
        doc = congested_scenario()
        target = doc
        for k in block:
            target = target[k]
        target.append(entry)
        path = write_scenario(tmp_path, doc)
        assert main(["solve", str(path), "--out", str(tmp_path)]) == EXIT_INPUT_ERROR
        assert (f"input error: entry 1 of {where} must be a JSON object, got {kind}\n"
                == capsys.readouterr().err)

    def test_fixed_demand_entry_may_keep_its_elastic_keys(self, tmp_path):
        doc = fixed_scenario([300.0, 200.0])
        doc["demand"][0].update(intercept=1.0, slope=0.002, cap=450.0)
        sc = load_scenario(write_scenario(tmp_path, doc))
        assert sc.inv_demand is None and sc.pinned_demand.tolist() == [300.0, 200.0]

    @pytest.mark.parametrize("edit, message", [
        pytest.param(lambda doc: doc["demand"].append(dict(doc["demand"][0])),
                     "duplicate demand entry for OD O->D", id="duplicate"),
        pytest.param(lambda doc: doc["demand"][0].update(origin="X"),
                     "demand entries must match the OD pairs exactly; "
                     "missing=[('O', 'D')] extra=[('X', 'D')]", id="unmatched"),
        pytest.param(lambda doc: doc.update(units=["hours"]),
                     "field 'units' has wrong type list", id="wrong type"),
        pytest.param(lambda doc: doc["horizon"].pop("t0"),
                     "missing numeric field 't0'", id="missing number"),
        pytest.param(lambda doc: doc["solver"].update(alpha="400"),
                     "field 'alpha' must be a number, got '400'", id="string"),
        pytest.param(lambda doc: doc["penalty"].update(late=True),
                     "field 'late' must be a number, got True", id="bool"),
        # both finite, but the gap's term intercept * cap overflows: the
        # solve used to report converged at an inf gap
        pytest.param(lambda doc: doc["demand"][0].update(intercept=1e300, cap=1e300),
                     "OD pair index 0: intercept * cap must be finite", id="overflowing scale"),
    ])
    def test_malformed_scenario_rejected_naming_the_problem(self, tmp_path, capsys, edit,
                                                            message):
        doc = congested_scenario()
        edit(doc)
        path = write_scenario(tmp_path, doc)
        assert main(["solve", str(path), "--out", str(tmp_path)]) == EXIT_INPUT_ERROR
        assert f"input error: {message}\n" == capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        (None, "input error: cannot read scenario file: "),
        ("[]", "input error: scenario root must be a JSON object\n"),
    ], ids=["unreadable", "not an object"])
    def test_unusable_scenario_file_rejected(self, tmp_path, capsys, text, message):
        path = tmp_path / "scenario.json"
        if text is not None:
            path.write_text(text)
        assert main(["solve", str(path), "--out", str(tmp_path / "out")]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err.startswith(message)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field, value, message", [
        pytest.param(field, 2.7, f"field {field!r} must be an integer", id=field)
        for field in ("n", "max_iters", "halve_on_stall")
    ] + [
        pytest.param("halve_on_stall", value, "halve_on_stall must be an integer >= 1",
                     id=f"halve_on_stall={value}")
        for value in (0, -3)
    ] + [
        pytest.param("halve_on_stall", None, "field 'halve_on_stall' must be a number, got None",
                     id="halve_on_stall=null")
    ])
    def test_non_integer_count_rejected_naming_the_field(self, tmp_path, capsys, field, value,
                                                         message):
        doc = congested_scenario()
        doc["solver"][field] = value
        path = write_scenario(tmp_path, doc)
        assert main(["solve", str(path), "--out", str(tmp_path)]) == EXIT_INPUT_ERROR
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [",", "\n", "\u2028"], ids=["comma", "newline", "u2028"])
    @pytest.mark.parametrize("kind", ["path", "link"])
    def test_id_that_would_split_a_csv_row_rejected(self, tmp_path, capsys, kind, bad):
        doc = congested_scenario()
        value = f"x{bad}1"
        if kind == "path":
            doc["network"]["paths"][0]["id"] = value
        else:
            doc["network"]["links"][0]["id"] = value
            doc["network"]["paths"][0]["links"] = [value]
        path = write_scenario(tmp_path, doc)
        assert main(["solve", str(path), "--out", str(tmp_path)]) == EXIT_INPUT_ERROR
        assert (f"field 'id' of a {kind} must not contain a comma or a line break, "
                f"got {value!r}" in capsys.readouterr().err)


class TestUsageErrors:
    """argparse's usage errors exit 1, the input-error code, with argparse's
    message on stderr; 2 stays "ran but did not converge"."""

    @pytest.mark.parametrize("args, message", [
        (["solve", "{s}", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
        (["solve", "{s}", "--n", "x"], "argument --n: invalid int value: 'x'"),
        (["solve", "{s}", "--max-iters", "1.5"], "argument --max-iters: invalid int value"),
        (["solve", "{s}", "--alpha", "1"], "unrecognized arguments: --alpha 1"),
        (["solve", "{s}", "--gap-tol", "0.1"], "unrecognized arguments: --gap-tol 0.1"),
        (["check", "{s}"], "the following arguments are required: flows"),
        (["bogus", "{s}"], "invalid choice: 'bogus'"),
        ([], "the following arguments are required: command"),
    ], ids=["unknown option", "n", "max-iters", "alpha", "gap-tol", "no flows",
            "unknown command", "no command"])
    def test_usage_error_exits_1_with_argparse_message(self, tmp_path, monkeypatch, capsys, args,
                                                       message):
        monkeypatch.chdir(tmp_path)  # the default --out, should a run start
        path = write_scenario(tmp_path, congested_scenario())
        with pytest.raises(SystemExit) as info:
            main([arg.format(s=path) for arg in args])
        assert info.value.code == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("usage: edue") and message in err

    @pytest.mark.parametrize("args", [["--help"], ["solve", "--help"]])
    def test_help_exits_0(self, capsys, args):
        with pytest.raises(SystemExit) as info:
            main(args)
        assert info.value.code == EXIT_OK
        assert capsys.readouterr().out.startswith("usage: edue")


class TestSolveCommand:
    def test_solve_converges_and_writes_outputs(self, tmp_path):
        path = write_scenario(tmp_path, uncongested_scenario())
        out = tmp_path / "out"
        assert main(["solve", str(path), "--out", str(out)]) == EXIT_OK
        for name in ("flows.csv", "costs.csv", "gap.csv", "summary.txt"):
            assert (out / name).exists()
        rows = read_csv(out / "flows.csv")
        q = sum(float(r["flow"]) for r in rows) * (2.0 / 64)
        q_star = bisect_demand(theta0=1.0, theta1=1 / 120, v_min=1 / 6 + 0.0,
                               q_hi=114.0)
        # loose agreement here; the tight tolerance lives in the acceptance suite
        assert q == pytest.approx(q_star, rel=0.02)

    def test_fixed_mode_solve_carries_each_pinned_demand(self, tmp_path):
        demands = {"p1": 200.0, "p2": 0.0}  # one path per OD pair
        path = write_scenario(tmp_path, fixed_scenario(list(demands.values())))
        out = tmp_path / "out"
        assert main(["solve", str(path), "--out", str(out)]) == EXIT_OK
        summary = (out / "summary.txt").read_text().splitlines()
        assert "mode: fixed" in summary
        assert "active demand caps (OD indices): []" in summary
        rows = read_csv(out / "flows.csv")
        dt = 1.0 / 4
        for pid, q in demands.items():
            vol = sum(float(r["flow"]) for r in rows if r["path_id"] == pid) * dt
            assert abs(vol - q) <= FEASIBILITY_RTOL * max(q, 1.0)

    def test_fixed_mode_residuals_read_positive_zero(self, tmp_path):
        """In fixed mode theta is each OD's least cost, so r2 is an exact
        tie: it reads 0.0, as theta - min(psi) gives, never -0.0."""
        path = write_scenario(tmp_path, fixed_scenario([300.0, 200.0]))
        out = tmp_path / "out"
        assert main(["solve", str(path), "--out", str(out)]) == EXIT_OK
        summary = (out / "summary.txt").read_text()
        number = r"=(\S+)"
        values = re.findall(r"\b(?:r1|r2|demand_gap)" + number, summary)
        assert len(values) == 6 and "-0.0" not in values
        assert re.findall(r"\br2" + number, summary) == ["0.0", "0.0"]
        assert {r["max_r2"] for r in read_csv(out / "gap.csv")} == {"0.0"}

    def test_forced_nonconvergence_exits_2_with_one_gap_row(self, tmp_path):
        path = write_scenario(tmp_path, congested_scenario())
        out = tmp_path / "out"
        code = main(["solve", str(path), "--out", str(out), "--max-iters", "1"])
        assert code == EXIT_NOT_CONVERGED
        rows = read_csv(out / "gap.csv")
        assert len(rows) == 1

    def test_stalled_solve_exits_2_with_every_report(self, tmp_path, capsys):
        # alpha halves on every stall until the step can move no flow
        doc = congested_scenario(n=8)
        doc["solver"].update(alpha=800.0, max_iters=3000, halve_on_stall=1)
        path = write_scenario(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["solve", str(path), "--out", str(out)]) == EXIT_NOT_CONVERGED
        assert "input error" not in capsys.readouterr().err
        summary = (out / "summary.txt").read_text().splitlines()
        assert "converged: False" in summary
        assert any(line.startswith("stopped: step too small") for line in summary)
        for name in ("flows.csv", "costs.csv", "gap.csv"):
            assert (out / name).exists()

    def test_error_raised_by_the_run_is_not_an_input_error(self, tmp_path, monkeypatch,
                                                          capsys):
        def fail(*args, **kwargs):
            raise ValueError("raised while solving")

        monkeypatch.setattr(cli.solver, "solve", fail)
        path = write_scenario(tmp_path, congested_scenario())
        with pytest.raises(ValueError, match="raised while solving"):
            main(["solve", str(path), "--out", str(tmp_path / "out")])
        assert "input error" not in capsys.readouterr().err

    def test_flag_overrides_take_effect(self, tmp_path):
        path = write_scenario(tmp_path, uncongested_scenario())
        out = tmp_path / "out"
        main(["solve", str(path), "--out", str(out), "--n", "8", "--max-iters", "50"])
        rows = read_csv(out / "flows.csv")
        assert len({r["cell_index"] for r in rows}) == 8

    def test_calls_in_one_process_each_behave_as_alone(self, tmp_path, monkeypatch, capsys):
        # main builds its parser on its first call and keeps it: a usage
        # error, an override and a plain run leave nothing for the next call
        builds = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
        cli._parser.cache_clear()
        doc = congested_scenario()
        doc["solver"]["max_iters"] = 7
        path = write_scenario(tmp_path, doc)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as info:
            main(["solve", str(path), "--out", str(out), "--max-iters", "x"])
        assert info.value.code == EXIT_INPUT_ERROR and not out.exists()
        assert main(["solve", str(path), "--out", str(out), "--max-iters", "3"]) \
            == EXIT_NOT_CONVERGED
        assert len(read_csv(out / "gap.csv")) == 3
        assert main(["solve", str(path), "--out", str(out)]) == EXIT_NOT_CONVERGED
        assert len(read_csv(out / "gap.csv")) == 7
        assert main(["check", str(path), str(out / "flows.csv"), "--out", str(out)]) \
            == EXIT_NOT_CONVERGED
        assert (out / "check.txt").exists()
        assert "input error" not in capsys.readouterr().err
        assert builds == [1]

    def test_corridor_solve_matches_the_recorded_bytes(self, tmp_path):
        # the bypasses carry nothing at first, so dead paths are loaded end
        # to end; recorded on the loader that dispatched each link by its
        # live users on every call
        path = write_scenario(tmp_path, bypass_corridor_scenario())
        out = tmp_path / "out"
        assert main(["solve", str(path), "--out", str(out)]) == EXIT_OK
        assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in ("flows.csv", "gap.csv")} == {
            "flows.csv": "7ed5d0d1150ffe5d5715868eae3a41c2bc66f083be353bddd7e7b32d28dad103",
            "gap.csv": "a043a0747ba6b66e5512226ebaff095b04bb9d30bd4937eee26868b52ad3b9cf"}

    def test_determinism_byte_identical(self, tmp_path):
        path = write_scenario(tmp_path, congested_scenario())
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        main(["solve", str(path), "--out", str(out1)])
        main(["solve", str(path), "--out", str(out2)])
        for name in ("flows.csv", "costs.csv", "gap.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_outputs_do_not_depend_on_the_hash_seed(self, tmp_path):
        # one interpreter per hash seed: reruns in one process share its seed,
        # so they cannot catch a result that follows the order of a set
        scenarios = tmp_path / "scenarios"
        scenarios.mkdir()
        for name, doc in [("elastic", congested_scenario()),
                          ("fixed", fixed_scenario([300.0, 200.0])),
                          ("corridor", corridor_scenario()), ("ring", ring_scenario())]:
            write_scenario(scenarios, doc, f"{name}.json")
        src = str(Path(cli.__file__).resolve().parents[1])
        roots = [tmp_path / f"hash{seed}" for seed in (1, 2)]
        for seed, root in zip((1, 2), roots):
            env = {**os.environ, "PYTHONHASHSEED": str(seed),
                   "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
            command = [sys.executable, "-c", SOLVE_LOAD_CHECK, str(scenarios), str(root),
                       "elastic.json"]
            run = subprocess.run(command, env=env, capture_output=True, text=True)
            assert run.returncode == 0, run.stderr

        outputs = ["costs.csv", "flows.csv", "gap.csv", "summary.txt", "curves.csv", "check.txt"]
        files = sorted(str(f.relative_to(roots[0])) for f in roots[0].rglob("*") if f.is_file())
        assert files == sorted(["exit_codes.json", "oracle/flows.csv", "oracle/oracle.txt"] + [
            f"{name}/{output}" for name in ("corridor", "elastic", "fixed", "ring")
            for output in outputs])
        for f in files:
            assert (roots[0] / f).read_bytes() == (roots[1] / f).read_bytes(), f
        codes = json.loads((roots[0] / "exit_codes.json").read_text())
        assert codes["elastic"] == codes["fixed"] == [EXIT_OK] * 3
        # the oracle's gap table is a dict keyed by each point's bytes
        assert codes["oracle"] == [EXIT_OK]
        assert (roots[0] / "oracle" / "oracle.txt").read_text() == (
            "gap: 1.4224732503012403e-12\ncertified: True\nevaluations: 336\n")
        assert EXIT_INPUT_ERROR not in codes["corridor"] + codes["ring"]
        for name, links in (("corridor", {"bn"}), ("ring", {"r1", "r2", "r3"})):
            assert any(row["link_id"] in links and float(row["queue"]) > 0.0
                       for row in read_csv(roots[0] / name / "curves.csv")), name


class TestCheckAndLoad:
    def test_check_round_trip_on_solver_output(self, tmp_path):
        path = write_scenario(tmp_path, congested_scenario())
        out = tmp_path / "out"
        assert main(["solve", str(path), "--out", str(out)]) == EXIT_OK
        code = main(["check", str(path), str(out / "flows.csv"), "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "check.txt").exists()

    def test_check_rejects_bad_flows(self, tmp_path):
        path = write_scenario(tmp_path, congested_scenario())
        out = tmp_path / "out"
        main(["solve", str(path), "--out", str(out)])
        rows = read_csv(out / "flows.csv")
        # concentrate all flow in the first cell: far from equilibrium
        total = sum(float(r["flow"]) for r in rows)
        for i, r in enumerate(rows):
            r["flow"] = repr(total if i == 0 else 0.0)
        bad = out / "bad_flows.csv"
        with open(bad, "w", newline="") as f:
            w = csv.DictWriter(f, fieldnames=rows[0].keys())
            w.writeheader()
            w.writerows(rows)
        assert main(["check", str(path), str(bad), "--out", str(out)]) == EXIT_NOT_CONVERGED

    def test_check_of_demand_above_its_cap_is_an_input_error(self, tmp_path, capsys):
        path = write_scenario(tmp_path, congested_scenario())
        scenario = load_scenario(path)
        grid = scenario.grid()
        flows = np.full((1, grid.n), 2000.0)  # 2000 veh against a cap of 450
        write_flows_csv(tmp_path / "flows.csv", scenario.network,
                        ExtendedPoint.from_matrix(grid, flows, np.array([2000.0])))
        code = main(["check", str(path), str(tmp_path / "flows.csv"), "--out", str(tmp_path)])
        assert code == EXIT_INPUT_ERROR
        assert "input error: flow file: demand above its cap for OD pair indices [0]" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("cap", [37.3, 61.7])
    def test_check_of_a_capped_solve_is_not_an_input_error(self, tmp_path, capsys, cap):
        """A capped solve converges and writes rates whose rebuilt demand
        meets its cap; nudged ulps above the cap, within the conservation
        slack, the file still checks without an input error."""
        doc = uncongested_scenario(n=16)
        doc["demand"][0]["cap"] = cap
        path = write_scenario(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["solve", str(path), "--out", str(out)]) == EXIT_OK
        assert "active demand caps (OD indices): [0]" in (out / "summary.txt").read_text()
        scenario = load_scenario(path)
        point = read_flows_csv(out / "flows.csv", scenario.network, scenario.grid())
        nudged = ExtendedPoint.from_matrix(point.grid, point.flows * (1.0 + 1e-12), point.demands)
        write_flows_csv(tmp_path / "nudged.csv", scenario.network, nudged)
        assert read_flows_csv(tmp_path / "nudged.csv", scenario.network,
                              scenario.grid()).demands[0] > cap
        for flows in (out / "flows.csv", tmp_path / "nudged.csv"):
            capsys.readouterr()
            code = main(["check", str(path), str(flows), "--out", str(out)])
            assert code != EXIT_INPUT_ERROR
            assert "input error" not in capsys.readouterr().err

    def test_check_of_a_solve_held_at_its_cap_exits_2(self, tmp_path):
        """A demand cap is a technical device, not an equilibrium property: at
        an active cap theta(cap) exceeds the least used cost v, so the capped
        point is no elastic equilibrium. The solve converges (its gap is over
        the capped set) and exits 0; check reports r2 = demand_gap = theta - v
        and exits 2, as the solve's own summary does under converged: True."""
        doc = congested_scenario(n=16)
        doc["demand"][0]["cap"] = 50.0
        path = write_scenario(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["solve", str(path), "--out", str(out)]) == EXIT_OK
        summary = (out / "summary.txt").read_text().splitlines()
        assert "converged: True" in summary
        assert "active demand caps (OD indices): [0]" in summary
        code = main(["check", str(path), str(out / "flows.csv"), "--out", str(out)])
        assert code == EXIT_NOT_CONVERGED
        line = (out / "check.txt").read_text().strip()
        assert line in summary
        fields = dict(f.split("=") for f in line.split(": ", 1)[1].split())
        v, theta, r1, r2, gap = (float(fields[k]) for k in
                                 ("v", "theta", "r1", "r2", "demand_gap"))
        assert theta == 1.0 - 0.002 * 50.0 and v == pytest.approx(0.115625)
        assert r1 == 0.0 and r2 == gap == pytest.approx(theta - v) == pytest.approx(0.784375)

    def test_check_of_a_fixed_solve_passes(self, tmp_path):
        path = write_scenario(tmp_path, fixed_scenario([300.0, 200.0]))
        out = tmp_path / "out"
        assert main(["solve", str(path), "--out", str(out)]) == EXIT_OK
        assert main(["check", str(path), str(out / "flows.csv"), "--out", str(out)]) == EXIT_OK

    @pytest.mark.parametrize("scale, ods", [(0.5, [0, 1]), (1.0 + 1e-6, [0, 1])])
    def test_check_of_flows_off_their_fixed_demand_is_an_input_error(self, tmp_path, capsys,
                                                                     scale, ods):
        """In fixed mode every OD is priced at its least cost, so the
        residuals read 0 for any volume; a volume off the pinned demand must
        be caught as it is read."""
        path = write_scenario(tmp_path, fixed_scenario([300.0, 200.0]))
        out = tmp_path / "out"
        assert main(["solve", str(path), "--out", str(out)]) == EXIT_OK
        rows = read_csv(out / "flows.csv")
        for r in rows:
            r["flow"] = repr(float(r["flow"]) * scale)
        with open(tmp_path / "off.csv", "w", newline="") as f:
            w = csv.DictWriter(f, fieldnames=rows[0].keys())
            w.writeheader()
            w.writerows(rows)
        capsys.readouterr()
        code = main(["check", str(path), str(tmp_path / "off.csv"), "--out", str(out)])
        assert code == EXIT_INPUT_ERROR
        assert (f"input error: flow file: demand differs from its fixed_demand for OD pair "
                f"indices {ods}") in capsys.readouterr().err

    def test_check_of_demand_beyond_the_conservation_slack_is_an_input_error(self, tmp_path,
                                                                            capsys):
        path = write_scenario(tmp_path, congested_scenario())
        scenario = load_scenario(path)
        grid = scenario.grid()
        demand = 450.0 * (1.0 + 1e-6)  # cap 450, far beyond FEASIBILITY_RTOL
        flows = np.full((1, grid.n), demand / (grid.n * grid.dt))
        write_flows_csv(tmp_path / "flows.csv", scenario.network,
                        ExtendedPoint.from_matrix(grid, flows, np.array([demand])))
        code = main(["check", str(path), str(tmp_path / "flows.csv"), "--out", str(tmp_path)])
        assert code == EXIT_INPUT_ERROR
        assert "input error: flow file: demand above its cap for OD pair indices [0]" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        pytest.param(None, "cannot read flow file: ", id="unreadable"),
        pytest.param(lambda lines: [], "flow file must start with the flows.csv header",
                     id="empty"),
        pytest.param(lambda lines: ["path,cell,flow"] + lines[1:],
                     "flow file must start with the flows.csv header", id="header"),
        pytest.param(lambda lines: lines[:1], "flow file does not cover every (path, cell)",
                     id="header only"),
        pytest.param(lambda lines: lines[:-1], "flow file does not cover every (path, cell)",
                     id="missing cell"),
    ])
    def test_flow_file_errors_of_the_whole_file(self, tmp_path, capsys, edit, message):
        path = write_scenario(tmp_path, congested_scenario())
        scenario = load_scenario(path)
        grid = scenario.grid()
        flows = np.full((1, grid.n), 100.0)
        flow_file = tmp_path / "flows.csv"
        write_flows_csv(flow_file, scenario.network,
                        ExtendedPoint.from_matrix(grid, flows, np.array([100.0])))
        lines = flow_file.read_text().splitlines()
        assert lines[0] == FLOWS_HEADER and len(lines) == 1 + grid.n
        if edit is None:
            flow_file.unlink()
        else:
            flow_file.write_text("".join(f"{line}\n" for line in edit(lines)))
        out = tmp_path / "out"
        code = main(["check", str(path), str(flow_file), "--out", str(out)])
        assert code == EXIT_INPUT_ERROR
        assert capsys.readouterr().err.startswith(f"input error: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("bad", ["nan", "inf", "-1.0"])
    def test_flow_file_rejects_non_finite_and_negative_values(self, tmp_path, capsys, bad):
        path = write_scenario(tmp_path, congested_scenario())
        out = tmp_path / "out"
        main(["solve", str(path), "--out", str(out)])
        lines = (out / "flows.csv").read_text().splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0] + "," + bad
        (out / "bad_flows.csv").write_text("\n".join(lines) + "\n")
        code = main(["check", str(path), str(out / "bad_flows.csv"), "--out", str(out)])
        assert code == EXIT_INPUT_ERROR
        assert "line 4" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        pytest.param(lambda lines: lines[3].replace(",", ",,", 1),
                     "line 4: expected 5 columns", id="columns"),
        pytest.param(lambda lines: "nope" + lines[3][2:],
                     "line 4: unknown path id 'nope'", id="path id"),
        pytest.param(lambda lines: lines[3].rsplit(",", 1)[0] + ",1.5x",
                     "line 4: could not convert", id="flow"),
        pytest.param(lambda lines: "p1,x" + lines[3][4:],
                     "line 4: invalid literal for int()", id="cell"),
        pytest.param(lambda lines: "p1,9" + lines[3][4:],
                     "line 4: cell index 9 out of range", id="cell range"),
        pytest.param(lambda lines: lines[1],
                     "line 4: path 'p1' cell 0 repeats line 2", id="duplicate"),
    ])
    def test_flow_file_errors_name_the_line(self, tmp_path, capsys, edit, message):
        path = write_scenario(tmp_path, congested_scenario())
        out = tmp_path / "out"
        main(["solve", str(path), "--out", str(out)])
        lines = (out / "flows.csv").read_text().splitlines()
        lines[3] = edit(lines)
        (out / "bad_flows.csv").write_text("\n".join(lines) + "\n")
        code = main(["check", str(path), str(out / "bad_flows.csv"), "--out", str(out)])
        assert code == EXIT_INPUT_ERROR
        assert message in capsys.readouterr().err

    def test_column_check_is_exact_per_line(self, tmp_path, capsys):
        """Line 4 gets a sixth field and line 5 loses one, so the file's
        field count is right; the reader names line 4 all the same."""
        path = write_scenario(tmp_path, congested_scenario())
        out = tmp_path / "out"
        main(["solve", str(path), "--out", str(out)])
        lines = (out / "flows.csv").read_text().splitlines()
        lines[3] += ",0.0"
        lines[4] = lines[4].rsplit(",", 1)[0]
        (out / "bad_flows.csv").write_text("\n".join(lines) + "\n")
        code = main(["check", str(path), str(out / "bad_flows.csv"), "--out", str(out)])
        assert code == EXIT_INPUT_ERROR
        assert "line 4: expected 5 columns" in capsys.readouterr().err

    @pytest.mark.parametrize("chunk", [cli.FLOWS_CHUNK, 3])
    def test_rows_in_any_order_read_the_same_point(self, tmp_path, monkeypatch, chunk):
        """Shuffled body rows with \\r\\n line endings, read in one chunk or
        in several, give the same point bit for bit."""
        path = write_scenario(tmp_path, fixed_scenario([300.0, 200.0]))
        out = tmp_path / "out"
        assert main(["solve", str(path), "--out", str(out)]) == EXIT_OK
        scenario = load_scenario(path)
        original = read_flows_csv(out / "flows.csv", scenario.network, scenario.grid())
        header, *body = (out / "flows.csv").read_text().splitlines()
        shuffled = random.Random(0).sample(body, len(body))
        assert shuffled != body
        shuffled_file = tmp_path / "shuffled.csv"
        shuffled_file.write_bytes("".join(f"{line}\r\n" for line in [header] + shuffled).encode())
        monkeypatch.setattr(cli, "FLOWS_CHUNK", chunk)
        point = read_flows_csv(shuffled_file, scenario.network, scenario.grid())
        assert point.flows.tobytes() == original.flows.tobytes()
        assert point.demands.tobytes() == original.demands.tobytes()

    @pytest.mark.parametrize("scenario", [congested_scenario(), fixed_scenario([300.0, 200.0])],
                             ids=["elastic", "fixed"])
    def test_reports_print_plain_floats(self, tmp_path, scenario):
        """summary.txt and check.txt read the same under every NumPy version:
        each number is a Python float's repr, never np.float64(...)."""
        path = write_scenario(tmp_path, scenario)
        out = tmp_path / "out"
        assert main(["solve", str(path), "--out", str(out)]) == EXIT_OK
        assert main(["check", str(path), str(out / "flows.csv"), "--out", str(out)]) == EXIT_OK
        for name in ("summary.txt", "check.txt"):
            text = (out / name).read_text()
            assert "np." not in text
            values = re.findall(r"=(\S+)", text) + re.findall(
                r"^(?:initial gap|final gap|flow bound 3\S+|max cell flow): (\S+)$", text, re.M)
            assert len(values) >= 5 * len(scenario["demand"])
            for value in values:
                assert repr(float(value)) == value

    def test_load_writes_cumulative_curves(self, tmp_path):
        path = write_scenario(tmp_path, congested_scenario())
        out = tmp_path / "out"
        main(["solve", str(path), "--out", str(out)])
        assert main(["load", str(path), str(out / "flows.csv"), "--out", str(out)]) == EXIT_OK
        rows = read_csv(out / "curves.csv")
        assert rows
        assert set(rows[0].keys()) == {"time", "link_id", "cum_in", "cum_out", "queue"}
        for r in rows:
            assert float(r["queue"]) >= 0.0
            assert float(r["cum_out"]) <= float(r["cum_in"]) + 1e-9


# cell and flow fields that int() and float() treat in every way they can:
# accept with a value, reject, or accept a value the reader must refuse
EDGE_FIELDS = [" 3", "+3", "3_0", "１２", " 1.5 ", "infinity", "0x10", "1d5", "",
               "-0", "٣", "1e400", "-2", "9" * 30]


class TestFlowFieldConversion:
    """The reader accepts a cell or flow field exactly when int() or float()
    does, with the value it gives; a rejection names the line."""

    @pytest.fixture
    def flow_file(self, tmp_path):
        scenario = load_scenario(write_scenario(tmp_path, uncongested_scenario(n=64)))
        grid = scenario.grid()
        h = np.random.default_rng(0).uniform(0.0, 100.0, size=(1, grid.n))
        point = ExtendedPoint.from_matrix(grid, h, scenario.network.od_sum(h.sum(axis=1)) * grid.dt)
        path = tmp_path / "flows.csv"
        write_flows_csv(path, scenario.network, point)
        return scenario, path, h

    @staticmethod
    def edit(path, cell, column, text):
        """Set one field of the line of the given cell; return its line number."""
        lines = path.read_text().splitlines()
        fields = lines[cell + 1].split(",")
        fields[column] = text
        lines[cell + 1] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        return cell + 2

    @pytest.mark.parametrize("text", EDGE_FIELDS)
    def test_cell_field_reads_as_int_does(self, flow_file, text):
        scenario, path, h = flow_file
        try:
            value, error = int(text), None
        except ValueError as exc:
            value, error = None, str(exc)
        in_range = value is not None and 0 <= value < scenario.n
        ln = self.edit(path, value if in_range else 5, 1, text)
        if in_range:
            point = read_flows_csv(path, scenario.network, scenario.grid())
            assert point.flows.tobytes() == h.tobytes()
            return
        if error is None:
            error = f"cell index {value} out of range"
        with pytest.raises(ScenarioError) as info:
            read_flows_csv(path, scenario.network, scenario.grid())
        assert str(info.value) == f"flow file line {ln}: {error}"

    @pytest.mark.parametrize("text", EDGE_FIELDS)
    def test_flow_field_reads_as_float_does(self, flow_file, text):
        scenario, path, h = flow_file
        try:
            value, error = float(text), None
        except ValueError as exc:
            value, error = None, str(exc)
        ln = self.edit(path, 5, 4, text)
        if value is not None and 0.0 <= value < float("inf"):
            point = read_flows_csv(path, scenario.network, scenario.grid())
            expected = h.copy()
            expected[0, 5] = value
            assert point.flows.tobytes() == expected.tobytes()
            return
        if error is None:
            error = f"flow must be finite and nonnegative, got {text!r}"
        with pytest.raises(ScenarioError) as info:
            read_flows_csv(path, scenario.network, scenario.grid())
        assert str(info.value) == f"flow file line {ln}: {error}"


def overflowing_two_od_scenario():
    """The fixed-demand scenario made elastic with a demand whose terms
    intercept * cap are each finite (1.5e308) and sum to inf."""
    doc = fixed_scenario([300.0, 200.0])
    for entry in doc["demand"]:
        del entry["fixed_demand"]
        entry.update(intercept=1e8, slope=0.0, cap=1.5e300)
    return doc


@pytest.mark.parametrize("args", [["solve"], ["oracle", "--n", "1"]])
def test_demand_scale_that_overflows_only_in_sum_is_an_input_error(tmp_path, capsys, args):
    # the solve used to report converged at an inf gap, and the oracle's
    # lattice search found no incumbent
    path = write_scenario(tmp_path, overflowing_two_od_scenario())
    out = tmp_path / "out"
    assert main([args[0], str(path), *args[1:], "--out", str(out)]) == EXIT_INPUT_ERROR
    assert capsys.readouterr().err == ("input error: demand entries: inverse demand: intercept "
                                       "* cap summed over the OD pairs is inf, and must be "
                                       "finite\n")
    assert not out.exists()


class TestOracleCommand:
    def test_oversized_instance_is_an_input_error(self, tmp_path, capsys):
        path = write_scenario(tmp_path, tiny_scenario())
        out = tmp_path / "out"
        assert main(["oracle", str(path), "--n", "8", "--out", str(out)]) == EXIT_INPUT_ERROR
        assert "5^8 = 390625 points exceeds the search budget" in capsys.readouterr().err
        assert not out.exists()

    def test_fixed_demand_is_an_input_error(self, tmp_path, capsys):
        path = write_scenario(tmp_path, fixed_scenario([300.0, 200.0]))
        out = tmp_path / "out"
        assert main(["oracle", str(path), "--out", str(out)]) == EXIT_INPUT_ERROR
        assert (capsys.readouterr().err
                == "input error: the oracle subcommand needs an elastic-demand scenario\n")
        assert not out.exists()

    def test_overflowing_demand_scale_is_an_input_error(self, tmp_path, capsys):
        # every gap would be inf, and the lattice search found no incumbent
        doc = tiny_scenario()
        doc["demand"][0].update(intercept=1e300, cap=1e300)
        path = write_scenario(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["oracle", str(path), "--n", "1", "--out", str(out)]) == EXIT_INPUT_ERROR
        assert (capsys.readouterr().err
                == "input error: OD pair index 0: intercept * cap must be finite\n")
        assert not out.exists()

    def test_oracle_output_verifies_clean(self, tmp_path):
        path = write_scenario(tmp_path, tiny_scenario())
        out = tmp_path / "out"
        assert main(["oracle", str(path), "--out", str(out)]) == EXIT_OK
        assert (out / "oracle.txt").exists()
        code = main(["check", str(path), str(out / "flows.csv"), "--out", str(out)])
        assert code == EXIT_OK
