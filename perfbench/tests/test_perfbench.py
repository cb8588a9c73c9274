"""The benchmark's own tests: every per-layer span expected on a workload
fires there (a missed rebinding fails this), an untraced run installs no
wrapper, the generated inputs depend on the seed alone, and the checks
catch a wrong output or a failing exit code.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import sys
from argparse import Namespace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import edue.cli  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

EVERYWHERE = {"cli.parse", "dnl.load", "cost.effective_delay", "network.path_links",
              "grid.from_matrix", "demand.theta"}
SOLVE = EVERYWHERE | {"cli.write", "solver.solve", "solver.f_map", "solver.compute_gap",
                      "solver.fixed_point_step", "verify.due_residuals"}
EXPECTED = {
    "uncongested-n64": SOLVE,
    "corridor-k4-n16": SOLVE,
    "oracle-tiny": EVERYWHERE | {"cli.write", "oracle.brute_force", "oracle.f_map",
                                 "solver.compute_gap"},
    "check-k32-n64": EVERYWHERE | {"cli.read_flows", "solver.f_map", "verify.due_residuals"},
}
# every span of a solve fires in its first iterations, so solves are cut short
SHORT_SOLVE = ["--max-iters", "3"]


def test_every_workload_has_expectations():
    assert set(EXPECTED) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_expected_spans_fire(name, tmp_path):
    inputs = workloads.write_inputs(name, 1, tmp_path)
    argvs = [a + SHORT_SOLVE if a[0] == "solve" else a for a in inputs.argvs]
    tracer = spans.Tracer()
    _, codes, error = run.run_operation(argvs, inputs.out_dirs, tracer)
    assert error is None, error
    fired = {n for n, st in tracer.stats.items() if st.calls}
    assert EXPECTED[name] <= fired, f"spans that never fired: {EXPECTED[name] - fired}"
    assert spans.installed_wrappers() == []


def test_untraced_run_builds_no_tracer(monkeypatch):
    def refuse():
        raise AssertionError("an untraced run built a Tracer")

    monkeypatch.setattr(spans, "Tracer", refuse)
    args = Namespace(workload="check-k32-n64", seed=1, seconds=0, trace=0)
    result = run.measure(args)
    assert result["failed"] == 0 and "per_layer" not in result
    assert result["end_to_end"]["op_rel"] > 0
    assert spans.installed_wrappers() == []


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_inputs_depend_on_the_seed_alone(name, tmp_path):
    def files(seed, sub):
        workloads.write_inputs(name, seed, tmp_path / sub)
        return {p.name: p.read_bytes() for p in sorted((tmp_path / sub).iterdir())}

    assert files(7, "a") == files(7, "b")
    assert files(7, "a") != files(8, "c")


def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()}
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (k, run.END_TO_END[k]) for k in run.CONTRACT_END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(spans.PER_LAYER.items())


def test_diff_fingerprints_names_each_change():
    old = {"iterations": 34, "demands": [1.0, 2.0], "sha256": {"flows.csv": "a"}}
    new = {"iterations": 30, "demands": [1.0, 2.5], "sha256": {"flows.csv": "b"}}
    changes = checks.diff_fingerprints(old, new)
    assert len(changes) == 3
    assert changes[0].startswith("demands[1]: 2.0 -> 2.5") and "relative +2.500e-01" in changes[0]
    assert changes[1].startswith("iterations: 34 -> 30")
    assert changes[2] == "sha256.flows.csv: 'a' -> 'b'"
    assert checks.diff_fingerprints(old, old) == []


def test_compare_reports_a_changed_fingerprint_without_failing(tmp_path, capsys):
    saved = tmp_path / "base.json"
    argv = ["--workload", "check-k32-n64", "--seed", "2", "--seconds", "0"]
    assert run.main(argv + ["--save", str(saved)]) == 0
    doc = json.loads(saved.read_text())
    doc["fingerprint"]["demands"][0] += 1.0
    saved.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run.main(argv + ["--compare", str(saved)]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert "1 field(s) changed" in out[0] and out[1].startswith("#   demands[0]: ")
    assert json.loads(out[-1])["correct"] is True


def test_check_outputs_are_held_to_the_reference_model(tmp_path):
    inputs = workloads.write_inputs("check-k32-n64", 3, tmp_path)
    checker = checks.make_checker("check-k32-n64", inputs)
    _, codes, error = run.run_operation(inputs.argvs, inputs.out_dirs)
    assert error is None, error
    assert checker(codes, inputs.out_dirs)[0] == []
    check_txt = inputs.out_dirs[0] / "check.txt"
    lines = check_txt.read_text().splitlines()
    m = checks.CHECK_LINE.match(lines[5])  # group 4 is r1
    lines[5] = lines[5][:m.start(4)] + repr(float(m[4]) * (1 + 1e-6)) + lines[5][m.end(4):]
    check_txt.write_text("\n".join(lines) + "\n")
    problems, _ = checker(codes, inputs.out_dirs)
    assert any("check.txt r1 off the reference" in p for p in problems)
    problems, _ = checker([checks.EXIT_OK], inputs.out_dirs)
    assert any(p.startswith("exit code 0") for p in problems)


def test_an_input_error_exit_fails_the_operation_without_stopping_the_run(monkeypatch):
    monkeypatch.setattr(edue.cli, "main", lambda argv: 1)
    args = Namespace(workload="corridor-k4-n16", seed=1, seconds=0, trace=0)
    result = run.measure(args)
    assert result["attempted"] >= 1 and result["failed"] == result["attempted"]
    assert "exit code 1" in result["failures"][0][0]

