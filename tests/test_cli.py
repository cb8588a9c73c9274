import csv
import json

import pytest

from edue.cli import (
    EXIT_INPUT_ERROR,
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    load_scenario,
    main,
)
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

    @pytest.mark.parametrize("halve_on_stall", ["absent", None])
    def test_solver_defaults_come_from_solver_config(self, tmp_path, halve_on_stall):
        doc = uncongested_scenario()
        for key in ("gap_tol", "gap_rtol", "halve_on_stall"):
            doc["solver"].pop(key, None)
        if halve_on_stall is None:
            doc["solver"]["halve_on_stall"] = None
        sc = load_scenario(write_scenario(tmp_path, doc))
        assert sc.config == SolverConfig(alpha=400.0, max_iters=4000)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("block, field", [
        (("network", "links", 0), "exit_capacity"),
        (("network", "links", 0), "free_flow_time"),
        (("penalty",), "early"),
        (("demand", 0), "cap"),
        (("solver",), "alpha"),
        (("solver",), "gap_tol"),
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

    @pytest.mark.parametrize("field, value, message", [
        pytest.param(field, 2.7, f"field {field!r} must be an integer", id=field)
        for field in ("n", "max_iters", "halve_on_stall")
    ] + [
        pytest.param("halve_on_stall", value, "halve_on_stall must be an integer >= 1",
                     id=f"halve_on_stall={value}")
        for value in (0, -3)
    ])
    def test_non_integer_count_rejected_naming_the_field(self, tmp_path, capsys, field, value,
                                                         message):
        doc = congested_scenario()
        doc["solver"][field] = value
        path = write_scenario(tmp_path, doc)
        assert main(["solve", str(path), "--out", str(tmp_path)]) == EXIT_INPUT_ERROR
        assert message in capsys.readouterr().err


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

    def test_forced_nonconvergence_exits_2_with_one_gap_row(self, tmp_path):
        path = write_scenario(tmp_path, congested_scenario())
        out = tmp_path / "out"
        code = main(["solve", str(path), "--out", str(out), "--max-iters", "1"])
        assert code == EXIT_NOT_CONVERGED
        rows = read_csv(out / "gap.csv")
        assert len(rows) == 1

    def test_flag_overrides_take_effect(self, tmp_path):
        path = write_scenario(tmp_path, uncongested_scenario())
        out = tmp_path / "out"
        main(["solve", str(path), "--out", str(out), "--n", "8", "--max-iters", "50"])
        rows = read_csv(out / "flows.csv")
        assert len({r["cell_index"] for r in rows}) == 8

    def test_determinism_byte_identical(self, tmp_path):
        path = write_scenario(tmp_path, congested_scenario())
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        main(["solve", str(path), "--out", str(out1)])
        main(["solve", str(path), "--out", str(out2)])
        for name in ("flows.csv", "costs.csv", "gap.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


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


class TestOracleCommand:
    def test_oracle_output_verifies_clean(self, tmp_path):
        path = write_scenario(tmp_path, tiny_scenario())
        out = tmp_path / "out"
        assert main(["oracle", str(path), "--out", str(out)]) == EXIT_OK
        assert (out / "oracle.txt").exists()
        code = main(["check", str(path), str(out / "flows.csv"), "--out", str(out)])
        assert code == EXIT_OK
