"""Independent output checks and result fingerprints, one checker per workload.

A checker is built once per run, before the timed operations (it may run
reference computations), and is then called after every operation on the
files that operation wrote. It returns the problems it found (empty when
the operation is correct) and the operation's fingerprint: the numbers that
define its answer plus the sha256 of every output file. The fingerprint is
None when the operation wrote no outputs to check. ``counts`` reads from a
fingerprint the cost-mapping evaluations per operation (solver iterations,
oracle gap evaluations, or the single one of a check) and the
workload-specific end-to-end counts, None where a workload has none.

Effective delays and equilibrium residuals are checked against
reference.py, a point-queue model that does not use the program's loader.
"""

from __future__ import annotations

import hashlib
import re
from pathlib import Path

import numpy as np

import reference
from edue import cli, dnl, solver, verify
from edue.cli import EXIT_NOT_CONVERGED, EXIT_OK

REF_DEMAND_RTOL = 5e-3  # uncongested demand vs the scalar reference
GAP_RECOMPUTE_RTOL = 1e-9  # reported vs recomputed gap, of the problem scale
REFERENCE_RTOL = 1e-9  # program vs reference model, of the field's largest value
CONSERVATION_MAX = 1e-9
# a value is a float's repr, bare or as numpy 2 prints a scalar: np.float64(...)
_VALUE = r"(?:np\.float64\()?([^\s()]+)\)?"
CHECK_LINE = re.compile(rf"od (\d+): v={_VALUE} theta={_VALUE} r1={_VALUE} r2={_VALUE} "
                        rf"demand_gap={_VALUE}$")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _summary_fields(path: Path) -> dict[str, str]:
    fields = {}
    for line in path.read_text().splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            fields[key] = value
    return fields


def _gap_at(scenario: cli.Scenario, point) -> float:
    grid = scenario.grid()
    costs = solver.f_map(scenario.network, point, scenario.penalty, scenario.inv_demand, grid)
    return solver.compute_gap(point, costs, scenario.network, scenario.inv_demand.cap)


def _off_reference(name: str, got: np.ndarray, ref: np.ndarray) -> list[str]:
    err = float(np.abs(got - ref).max())
    scale = max(1.0, float(np.abs(ref).max()))
    if err <= REFERENCE_RTOL * scale:
        return []
    return [f"{name} off the reference model by up to {err:.3e} (scale {scale:.3g})"]


def uncongested_reference_demand(doc: dict) -> float:
    """Equilibrium demand of the single uncongested link, from the scenario
    file alone: capacity never binds, so every cell's effective delay is the
    free-flow time plus the cell-averaged schedule penalty, and the demand
    solves intercept - slope * Q = (least cell cost)."""
    (link,), (entry,) = doc["network"]["links"], doc["demand"]
    tau = link["free_flow_time"]
    early, late = doc["penalty"]["early"], doc["penalty"]["late"]
    h = doc["horizon"]
    bounds = np.linspace(h["t0"], h["tf"], doc["solver"]["n"] + 1)
    x = bounds + tau - h["arrival_target"]
    psi = tau + early * np.maximum(0.0, -x) + late * np.maximum(0.0, x)
    v_min = float((0.5 * (psi[:-1] + psi[1:])).min())
    return (entry["intercept"] - v_min) / entry["slope"]


class SolveCheck:
    """`edue solve`: converged exit code; the effective delays in costs.csv
    match the reference model at the written flows; the gap recomputed from
    the written flows meets gap_rtol times the zero-flow gap. With
    ``equilibrium`` set, the recomputed residuals must also pass the
    library's equilibrium test and the demand must match the scalar
    reference."""

    def __init__(self, scenario_file: Path, doc: dict, equilibrium: bool):
        self.doc = doc
        self.scenario = cli.load_scenario(scenario_file)
        grid = self.scenario.grid()
        self.target = doc["solver"]["gap_rtol"] * _gap_at(
            self.scenario, solver.zero_point(self.scenario.network, grid)
        )
        self.equilibrium = equilibrium
        self.q_ref = uncongested_reference_demand(doc) if equilibrium else None

    def __call__(self, codes: list[int], out_dirs: list[Path]) -> tuple[list[str], dict | None]:
        (code,), (out,) = codes, out_dirs
        if code not in (EXIT_OK, EXIT_NOT_CONVERGED):
            return [f"exit code {code}, expected {EXIT_OK}"], None
        problems = [] if code == EXIT_OK else [f"exit code {code}, expected {EXIT_OK}"]
        summary = _summary_fields(out / "summary.txt")
        sc = self.scenario
        grid = sc.grid()
        point = cli.read_flows_csv(out / "flows.csv", sc.network, grid)
        rates = reference.read_rates((out / "flows.csv").read_text(), self.doc)
        rows = [line.split(",") for line in (out / "costs.csv").read_text().splitlines()[1:]]
        written = np.array([float(r[2]) for r in rows]).reshape(rates.shape)
        problems += _off_reference("costs.csv eff_delay", written,
                                   reference.effective_delays(self.doc, rates))
        costs = solver.f_map(sc.network, point, sc.penalty, sc.inv_demand, grid)
        gap = solver.compute_gap(point, costs, sc.network, sc.inv_demand.cap)
        if not gap <= self.target * (1.0 + 1e-9):
            problems.append(f"recomputed gap {gap!r} misses the target {self.target!r}")
        if self.equilibrium:
            if not verify.due_residuals(point, costs, sc.network).is_equilibrium():
                problems.append("recomputed residuals fail the equilibrium test")
            err = abs(float(point.demands[0]) - self.q_ref) / self.q_ref
            if err > REF_DEMAND_RTOL:
                problems.append(f"demand off the scalar reference by {err:.3e}")
        iterations = int(summary["iterations"])
        initial, final = float(summary["initial gap"]), float(summary["final gap"])
        fingerprint = {
            "iterations": iterations,
            "initial_gap": initial,
            "final_gap": final,
            "demands": [float(q) for q in point.demands],
            "sha256": {f: sha256(out / f) for f in ("flows.csv", "costs.csv", "gap.csv", "summary.txt")},
        }
        return problems, fingerprint

    @staticmethod
    def counts(fingerprint: dict) -> dict:
        return {
            "evaluations": fingerprint["iterations"],
            "iterations": fingerprint["iterations"],
            "gap_ratio": fingerprint["final_gap"] / fingerprint["initial_gap"],
            "oracle_evaluations": None,
        }


class OracleCheck:
    """`edue oracle`: each instance wrote a result (certified or not) and the
    gap it reports equals the gap recomputed from its written flows."""

    def __init__(self, scenario_files: list[Path]):
        self.scenarios = [cli.load_scenario(f) for f in scenario_files]

    def __call__(self, codes: list[int], out_dirs: list[Path]) -> tuple[list[str], dict | None]:
        bad = [f"instance {i}: exit code {c}" for i, c in enumerate(codes)
               if c not in (EXIT_OK, EXIT_NOT_CONVERGED)]
        if bad:
            return bad, None
        problems, instances = [], []
        for i, (out, sc) in enumerate(zip(out_dirs, self.scenarios)):
            report = _summary_fields(out / "oracle.txt")
            point = cli.read_flows_csv(out / "flows.csv", sc.network, sc.grid())
            gap, reported = _gap_at(sc, point), float(report["gap"])
            scale = float(np.dot(sc.inv_demand.intercept, sc.inv_demand.cap))
            if abs(gap - reported) > GAP_RECOMPUTE_RTOL * scale:
                problems.append(f"instance {i}: reported gap {reported!r}, recomputed {gap!r}")
            instances.append({
                "gap": reported,
                "certified": report["certified"] == "True",
                "evaluations": int(report["evaluations"]),
                "demands": [float(q) for q in point.demands],
                "sha256": {f: sha256(out / f) for f in ("flows.csv", "oracle.txt")},
            })
        return problems, {"instances": instances}

    @staticmethod
    def counts(fingerprint: dict) -> dict:
        evaluations = sum(inst["evaluations"] for inst in fingerprint["instances"])
        return {"evaluations": evaluations, "iterations": None, "gap_ratio": None,
                "oracle_evaluations": evaluations}


class CheckCheck:
    """`edue check` of a generated (non-equilibrium) flow file: every value
    of check.txt matches the residuals of the reference model, and the exit
    code matches the equilibrium test applied to those residuals. The
    program's loading of the flow file must conserve vehicles; that loading
    is deterministic, and every operation's check.txt must hash-equal the
    first's, so it is made once, here, rather than after every operation."""

    def __init__(self, scenario_file: Path, doc: dict, flows_file: Path):
        sc = cli.load_scenario(scenario_file)
        self.point = cli.read_flows_csv(flows_file, sc.network, sc.grid())
        self.conservation_residual = dnl.load(sc.network, self.point.flows,
                                              sc.grid()).conservation_residual
        self.ref = reference.residuals(doc, reference.read_rates(flows_file.read_text(), doc))
        report = verify.ResidualReport(
            **{f: getattr(self.ref, f) for f in reference.Residuals.FIELDS}, demand=self.ref.demand)
        self.expected_code = EXIT_OK if report.is_equilibrium() else EXIT_NOT_CONVERGED

    def __call__(self, codes: list[int], out_dirs: list[Path]) -> tuple[list[str], dict | None]:
        (code,), (out,) = codes, out_dirs
        if code not in (EXIT_OK, EXIT_NOT_CONVERGED):
            return [f"exit code {code}"], None
        problems = [] if code == self.expected_code else [
            f"exit code {code}, the reference residuals give {self.expected_code}"]
        if not self.conservation_residual <= CONSERVATION_MAX:
            problems.append(f"conservation residual {self.conservation_residual!r} "
                            f"> {CONSERVATION_MAX}")
        text = (out / "check.txt").read_text()
        matches = [CHECK_LINE.match(line) for line in text.splitlines()]
        n_od = len(self.ref.v)
        if len(matches) != n_od or not all(m and int(m[1]) == w for w, m in enumerate(matches)):
            return problems + [f"check.txt is not one residual line per OD pair ({n_od})"], None
        written = np.array([[float(x) for x in m.groups()[1:]] for m in matches])
        for i, name in enumerate(reference.Residuals.FIELDS):
            problems += _off_reference(f"check.txt {name}", written[:, i], getattr(self.ref, name))
        fingerprint = {
            "equilibrium": code == EXIT_OK,
            "demands": [float(q) for q in self.point.demands],
            "max_r1": float(written[:, 2].max()),
            "max_r2": float(written[:, 3].max()),
            "conservation_residual": self.conservation_residual,
            "sha256": {"check.txt": sha256(out / "check.txt")},
        }
        return problems, fingerprint

    @staticmethod
    def counts(fingerprint: dict) -> dict:
        return {"evaluations": 1, "iterations": None, "gap_ratio": None,
                "oracle_evaluations": None}


def make_checker(name: str, inputs):
    files = [Path(a[1]) for a in inputs.argvs]
    if name == "uncongested-n64":
        return SolveCheck(files[0], inputs.scenarios[0], equilibrium=True)
    if name == "corridor-k4-n16":
        return SolveCheck(files[0], inputs.scenarios[0], equilibrium=False)
    if name == "oracle-tiny":
        return OracleCheck(files)
    if name == "check-k32-n64":
        return CheckCheck(files[0], inputs.scenarios[0], Path(inputs.argvs[0][2]))
    raise ValueError(f"unknown workload {name!r}")


def diff_fingerprints(old, new, path: str = "") -> list[str]:
    """Every field that differs between two fingerprints, with the size of
    the change for numbers."""
    if isinstance(old, dict) and isinstance(new, dict):
        out = []
        for key in sorted(set(old) | set(new)):
            sub = f"{path}.{key}" if path else key
            if key not in old or key not in new:
                out.append(f"{sub}: {'added' if key not in old else 'removed'}")
            else:
                out.extend(diff_fingerprints(old[key], new[key], sub))
        return out
    if isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            return [f"{path}: length {len(old)} -> {len(new)}"]
        out = []
        for i, (a, b) in enumerate(zip(old, new)):
            out.extend(diff_fingerprints(a, b, f"{path}[{i}]"))
        return out
    if old == new:
        return []
    if isinstance(old, (int, float)) and isinstance(new, (int, float)) \
            and not isinstance(old, bool) and not isinstance(new, bool):
        rel = (new - old) / abs(old) if old else float("inf")
        return [f"{path}: {old!r} -> {new!r} (change {new - old:+.6g}, relative {rel:+.3e})"]
    return [f"{path}: {old!r} -> {new!r}"]
