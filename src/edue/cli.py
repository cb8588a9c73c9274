"""Batch front end: JSON scenario in, CSV and plain-text reports out.

Exit codes: 0 converged/verified, 2 ran but did not meet tolerance (reports
still written), 1 malformed input.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from itertools import repeat
from pathlib import Path

import numpy as np

from . import dnl, network as net_mod, oracle as oracle_mod, solver, verify
from .cost import SchedulePenalty
from .demand import InverseDemand
from .grid import ExtendedPoint, TimeGrid
from .network import Link, Network, Path as NetPath
from .solver import SolverConfig

__all__ = ["main", "Scenario", "ScenarioError"]

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_NOT_CONVERGED = 2

REQUIRED_UNITS = {"time": "hours", "flow": "vehicles_per_hour", "demand": "vehicles"}


class ScenarioError(ValueError):
    """The scenario file is malformed or inconsistent."""


class Scenario:
    """Parsed and validated scenario: network, horizon, penalty, demand, solver."""

    def __init__(self, doc: dict):
        units = _require(doc, "units", dict)
        for key, expected in REQUIRED_UNITS.items():
            if units.get(key) != expected:
                raise ScenarioError(
                    f"units.{key} must be {expected!r}, got {units.get(key)!r}"
                )
        horizon = _require(doc, "horizon", dict)
        self.t0 = _number(horizon, "t0")
        self.tf = _number(horizon, "tf")
        self.arrival_target = _number(horizon, "arrival_target")

        net = _require(doc, "network", dict)
        links = tuple(
            Link(
                id=str(_require(l, "id", (str, int))),
                tail=str(_require(l, "from", (str, int))),
                head=str(_require(l, "to", (str, int))),
                free_flow_time=_number(l, "free_flow_time"),
                exit_capacity=_number(l, "exit_capacity"),
            )
            for l in _require(net, "links", list)
        )
        paths = tuple(
            NetPath(
                id=str(_require(p, "id", (str, int))),
                link_ids=tuple(str(x) for x in _require(p, "links", list)),
                origin=str(_require(p, "origin", (str, int))),
                destination=str(_require(p, "destination", (str, int))),
            )
            for p in _require(net, "paths", list)
        )
        self.network = Network(links=links, paths=paths, arrival_target=self.arrival_target)

        sol = _require(doc, "solver", dict)
        self.n = _integer(sol, "n")  # grid cells
        # SolverConfig's defaults stand for the keys the scenario leaves out;
        # "halve_on_stall": null counts as left out
        given = {"alpha": _number(sol, "alpha"), "max_iters": _integer(sol, "max_iters")}
        given.update((key, _number(sol, key)) for key in ("gap_tol", "gap_rtol") if key in sol)
        if sol.get("halve_on_stall") is not None:
            given["halve_on_stall"] = _integer(sol, "halve_on_stall")
        self.config = SolverConfig(**given)

        pen = _require(doc, "penalty", dict)
        self.penalty = SchedulePenalty(early=_number(pen, "early"), late=_number(pen, "late"))

        entries = _require(doc, "demand", list)
        by_od: dict[tuple[str, str], dict] = {}
        for e in entries:
            od = (str(_require(e, "origin", (str, int))), str(_require(e, "destination", (str, int))))
            if od in by_od:
                raise ScenarioError(f"duplicate demand entry for OD {od[0]}->{od[1]}")
            by_od[od] = e
        missing = [od for od in self.network.od_pairs if od not in by_od]
        extra = [od for od in by_od if od not in self.network.od_pairs]
        if missing or extra:
            raise ScenarioError(
                f"demand entries must match the OD pairs exactly; "
                f"missing={missing} extra={extra}"
            )
        fixed_flags = ["fixed_demand" in by_od[od] for od in self.network.od_pairs]
        if any(fixed_flags) and not all(fixed_flags):
            raise ScenarioError("either all OD pairs have fixed_demand or none")
        self.pinned_demand: np.ndarray | None = None
        self.inv_demand: InverseDemand | None = None
        if all(fixed_flags) and fixed_flags:
            self.pinned_demand = np.array(
                [_number(by_od[od], "fixed_demand") for od in self.network.od_pairs]
            )
            for od, q in zip(self.network.od_pairs, self.pinned_demand.tolist()):
                if q < 0.0:
                    raise ScenarioError(f"field 'fixed_demand' of OD {od[0]}->{od[1]} must be "
                                        f"nonnegative, got {q!r}")
        else:
            intercept, slope, cap = [], [], []
            for od in self.network.od_pairs:
                e = by_od[od]
                intercept.append(_number(e, "intercept"))
                slope.append(_number(e, "slope"))
                cap.append(_number(e, "cap") if "cap" in e else None)
            self.inv_demand = InverseDemand.build(intercept, slope, cap)

    def grid(self) -> TimeGrid:
        return TimeGrid(self.t0, self.tf, self.n)


def _require(doc: dict, key: str, kind) -> object:
    if key not in doc:
        raise ScenarioError(f"missing field {key!r}")
    value = doc[key]
    if not isinstance(value, kind):
        raise ScenarioError(f"field {key!r} has wrong type {type(value).__name__}")
    return value


def _number(doc: dict, key: str) -> float:
    if key not in doc:
        raise ScenarioError(f"missing numeric field {key!r}")
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"field {key!r} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ScenarioError(f"field {key!r} must be finite, got {value!r}")
    return float(value)


def _integer(doc: dict, key: str) -> int:
    value = _number(doc, key)
    if not value.is_integer():
        raise ScenarioError(f"field {key!r} must be an integer, got {value!r}")
    return int(value)


def load_scenario(path: Path) -> Scenario:
    try:
        doc = json.loads(path.read_text())
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ScenarioError("scenario root must be a JSON object")
    scenario = Scenario(doc)
    violations = net_mod.validate(scenario.network, scenario.grid())
    if violations:
        raise ScenarioError("invalid network: " + "; ".join(violations))
    return scenario


def _fmt(x: float) -> str:
    return repr(float(x))


FLOWS_HEADER = "path_id,cell_index,t_start,t_end,flow"
FLOWS_CHUNK = 1024  # flow file lines parsed at once; bounds the parser's scratch memory


def write_flows_csv(path: Path, network: Network, point: ExtendedPoint) -> None:
    b = point.grid.boundaries.tolist()
    cells = [f"{j},{_fmt(b[j])},{_fmt(b[j + 1])}," for j in range(point.grid.n)]
    lines = [FLOWS_HEADER] + [
        f"{p.id},{cell}{_fmt(value)}"
        for p, row in zip(network.paths, point.flows.tolist())
        for cell, value in zip(cells, row)
    ]
    path.write_text("\n".join(lines) + "\n")


def _flow_file_error(ln: int, problem: str) -> ScenarioError:
    return ScenarioError(f"flow file line {ln}: {problem}")


def _parse_flow_lines(
    lines: list[str], first_ln: int, path_ids: dict[str, int], n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Path indices, cell indices and flows of flows.csv body lines, the
    first being file line first_ln. Each check runs over all the lines at
    once and names the first line that fails it."""
    m = len(lines)
    bad = np.fromiter(map(str.count, lines, repeat(",")), dtype=np.intp, count=m) != 4
    if bad.any():
        raise _flow_file_error(first_ln + int(np.argmax(bad)), "expected 5 columns")
    fields = ",".join(lines).split(",")
    pids, cell_strs, flow_strs = fields[0::5], fields[1::5], fields[4::5]
    rows = np.fromiter(map(path_ids.get, pids, repeat(-1)), dtype=np.intp, count=m)
    if (rows < 0).any():
        i = int(np.argmax(rows < 0))
        raise _flow_file_error(first_ln + i, f"unknown path id {pids[i]!r}")
    try:
        cells = list(map(int, cell_strs))
        values = np.fromiter(map(float, flow_strs), dtype=float, count=m)
    except ValueError:
        for i, (j_str, flow) in enumerate(zip(cell_strs, flow_strs)):
            try:
                int(j_str)
                float(flow)
            except ValueError as exc:
                raise _flow_file_error(first_ln + i, str(exc)) from exc
        raise
    bad = ~((values >= 0.0) & (values < math.inf))
    if bad.any():
        i = int(np.argmax(bad))
        raise _flow_file_error(first_ln + i, f"flow must be finite and nonnegative, "
                                             f"got {flow_strs[i]!r}")
    if not 0 <= min(cells) <= max(cells) < n:
        i = next(i for i, j in enumerate(cells) if not 0 <= j < n)
        raise _flow_file_error(first_ln + i, f"cell index {cells[i]} out of range")
    return rows, np.array(cells, dtype=np.intp), values


def read_flows_csv(path: Path, network: Network, grid: TimeGrid) -> ExtendedPoint:
    """Parse a flows.csv file into a point; every (path, cell) must appear
    exactly once."""
    try:
        lines = path.read_text().strip().splitlines()
    except OSError as exc:
        raise ScenarioError(f"cannot read flow file: {exc}") from exc
    if not lines or lines[0].strip() != FLOWS_HEADER:
        raise ScenarioError("flow file must start with the flows.csv header")
    coverage = ScenarioError("flow file does not cover every (path, cell)")
    if len(lines) < 2:
        raise coverage
    path_ids = {p.id: i for i, p in enumerate(network.paths)}
    chunks = [_parse_flow_lines(lines[i:i + FLOWS_CHUNK], i + 1, path_ids, grid.n)
              for i in range(1, len(lines), FLOWS_CHUNK)]
    rows, cells, values = (np.concatenate(parts) for parts in zip(*chunks))
    key = rows * grid.n + cells
    size = len(network.paths) * grid.n
    if np.bincount(key, minlength=size).max() > 1:
        first: dict[int, int] = {}
        for i, k in enumerate(key.tolist()):
            if first.setdefault(k, i) != i:
                raise _flow_file_error(i + 2, f"path {network.paths[rows[i]].id!r} cell "
                                              f"{cells[i]} repeats line {first[k] + 2}")
    if key.size != size:
        raise coverage
    h = np.empty(size)
    h[key] = values
    h = h.reshape(len(network.paths), grid.n)
    return ExtendedPoint.from_matrix(grid, h, network.od_sum(h.sum(axis=1)) * grid.dt)


def write_costs_csv(path: Path, network: Network, costs) -> None:
    rc = solver.reduced_costs(costs, network)
    lines = ["path_id,cell_index,eff_delay,reduced_cost"] + [
        f"{p.id},{j},{_fmt(psi)},{_fmt(r)}"
        for p, psi_row, rc_row in zip(network.paths, costs.psi.tolist(), rc.tolist())
        for j, (psi, r) in enumerate(zip(psi_row, rc_row))
    ]
    path.write_text("\n".join(lines) + "\n")


def write_gap_csv(path: Path, history) -> None:
    lines = ["iter,gap,max_r1,max_r2,alpha"]
    for it, gap, r1, r2, alpha in history:
        lines.append(f"{it},{_fmt(gap)},{_fmt(r1)},{_fmt(r2)},{_fmt(alpha)}")
    path.write_text("\n".join(lines) + "\n")


def write_curves_csv(path: Path, result: dnl.LoadingResult) -> None:
    lines = ["time,link_id,cum_in,cum_out,queue"]
    for link in result.network.links:
        for t, cin, cout, q in result.states[link.id].curve_samples():
            lines.append(f"{_fmt(t)},{link.id},{_fmt(cin)},{_fmt(cout)},{_fmt(q)}")
    path.write_text("\n".join(lines) + "\n")


def _cmd_solve(scenario: Scenario, out_dir: Path) -> int:
    grid = scenario.grid()
    report = solver.solve(
        scenario.network,
        scenario.penalty,
        scenario.inv_demand,
        scenario.config,
        grid=grid,
        pinned_demand=scenario.pinned_demand,
    )
    write_flows_csv(out_dir / "flows.csv", scenario.network, report.point)
    write_costs_csv(out_dir / "costs.csv", scenario.network, report.costs)
    write_gap_csv(out_dir / "gap.csv", report.gap_history)
    summary = report.summary_lines()
    (out_dir / "summary.txt").write_text("\n".join(summary) + "\n")
    print("\n".join(summary))
    return EXIT_OK if report.converged else EXIT_NOT_CONVERGED


def _cmd_load(scenario: Scenario, flows_file: Path, out_dir: Path) -> int:
    grid = scenario.grid()
    point = read_flows_csv(flows_file, scenario.network, grid)
    result = dnl.load(scenario.network, point.flows, grid)
    write_curves_csv(out_dir / "curves.csv", result)
    print(f"loaded {_fmt(result.total_in)} veh, conservation residual "
          f"{_fmt(result.conservation_residual)}")
    return EXIT_OK


def _cmd_check(scenario: Scenario, flows_file: Path, out_dir: Path) -> int:
    grid = scenario.grid()
    point = read_flows_csv(flows_file, scenario.network, grid)
    costs = solver.f_map(
        scenario.network, point, scenario.penalty, scenario.inv_demand, grid
    )
    residuals = verify.due_residuals(point, costs, scenario.network)
    lines = residuals.summary_lines()
    (out_dir / "check.txt").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    return EXIT_OK if residuals.is_equilibrium() else EXIT_NOT_CONVERGED


def _cmd_oracle(scenario: Scenario, out_dir: Path) -> int:
    if scenario.inv_demand is None:
        raise ScenarioError("the oracle subcommand needs an elastic-demand scenario")
    inst = oracle_mod.TinyInstance(
        network=scenario.network,
        grid=scenario.grid(),
        penalty=scenario.penalty,
        inv_demand=scenario.inv_demand,
    )
    result = oracle_mod.brute_force_equilibrium(inst)
    write_flows_csv(out_dir / "flows.csv", scenario.network, result.point)
    lines = [
        f"gap: {_fmt(result.gap)}",
        f"certified: {result.certified}",
        f"evaluations: {result.evaluations}",
    ]
    (out_dir / "oracle.txt").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    return EXIT_OK if result.certified else EXIT_NOT_CONVERGED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edue",
        description="Dynamic user equilibrium with elastic demand: solve, load, check, oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, needs_flows in (
        ("solve", False),
        ("load", True),
        ("check", True),
        ("oracle", False),
    ):
        p = sub.add_parser(name)
        p.add_argument("scenario", type=Path, help="scenario JSON file")
        if needs_flows:
            p.add_argument("flows", type=Path, help="flows.csv input file")
        p.add_argument("--out", type=Path, default=Path("."), help="output directory")
        p.add_argument("--n", type=int, default=None, help="override grid resolution")
        if name == "solve":
            p.add_argument("--alpha", type=float, default=None, help="override step size")
            p.add_argument("--max-iters", type=int, default=None, help="override iteration cap")
            p.add_argument("--gap-tol", type=float, default=None,
                           help="override absolute gap target")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scenario = load_scenario(args.scenario)
        if args.n is not None:
            scenario.n = args.n
        if args.command == "solve":
            overrides = {
                name: value
                for name, value in (("alpha", args.alpha), ("max_iters", args.max_iters),
                                    ("gap_tol", args.gap_tol))
                if value is not None
            }
            scenario.config = dataclasses.replace(scenario.config, **overrides)
        out_dir = args.out
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "solve":
            return _cmd_solve(scenario, out_dir)
        if args.command == "load":
            return _cmd_load(scenario, args.flows, out_dir)
        if args.command == "check":
            return _cmd_check(scenario, args.flows, out_dir)
        if args.command == "oracle":
            return _cmd_oracle(scenario, out_dir)
        raise AssertionError(f"unhandled command {args.command}")
    except ValueError as exc:
        # ScenarioError and every component validation error derive from
        # ValueError; all of them are input problems
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
