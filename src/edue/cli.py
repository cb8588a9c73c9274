"""Batch front end: JSON scenario in, CSV and plain-text reports out.

Exit codes: 0 converged/verified, 2 ran but did not meet tolerance (reports
still written), 1 input that fails to parse or build. An error raised while
the command runs is not an input error and propagates.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from itertools import repeat
from pathlib import Path
from typing import Callable

import numpy as np

from . import dnl, oracle as oracle_mod, solver, verify
from .cost import SchedulePenalty
from .demand import InverseDemand
from .grid import ExtendedPoint, TimeGrid
from .network import Link, Network, Path as NetPath, StructureError
from .solver import SolverConfig

__all__ = ["main", "Scenario", "ScenarioError"]

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_NOT_CONVERGED = 2

REQUIRED_UNITS = {"time": "hours", "flow": "vehicles_per_hour", "demand": "vehicles"}
# the keys a block may hold; any other is rejected, so a misspelt optional key
# cannot fall back to its default unnoticed, nor a misspelt required key be
# reported only as missing
SCENARIO_KEYS = frozenset({"units", "horizon", "network", "penalty", "demand", "solver"})
UNITS_KEYS = frozenset(REQUIRED_UNITS)
HORIZON_KEYS = frozenset({"t0", "tf", "arrival_target"})
NETWORK_KEYS = frozenset({"links", "paths"})
LINK_KEYS = frozenset({"id", "from", "to", "free_flow_time", "exit_capacity"})
PATH_KEYS = frozenset({"id", "links", "origin", "destination"})
PENALTY_KEYS = frozenset({"early", "late"})
SOLVER_KEYS = frozenset({"n", "alpha", "max_iters", "gap_rtol", "halve_on_stall"})
DEMAND_KEYS = frozenset({"origin", "destination", "intercept", "slope", "cap", "fixed_demand"})


class ScenarioError(ValueError):
    """The scenario file is malformed or inconsistent."""


class Scenario:
    """Parsed and validated scenario: network, horizon, penalty, demand, solver."""

    def __init__(self, doc: dict):
        _known_keys(doc, SCENARIO_KEYS, "the scenario")
        units = _block(doc, "units", UNITS_KEYS)
        for key, expected in REQUIRED_UNITS.items():
            if units.get(key) != expected:
                raise ScenarioError(
                    f"units.{key} must be {expected!r}, got {units.get(key)!r}"
                )
        horizon = _block(doc, "horizon", HORIZON_KEYS)
        self.t0 = _number(horizon, "t0")
        self.tf = _number(horizon, "tf")
        self.arrival_target = _number(horizon, "arrival_target")
        if not self.arrival_target < self.tf:
            raise ScenarioError(f"horizon.arrival_target must precede horizon.tf {self.tf!r}, "
                                f"got {self.arrival_target!r}")

        net = _block(doc, "network", NETWORK_KEYS)
        links = tuple(
            Link(
                id=_csv_id(l, "link"),
                tail=str(_require(l, "from", (str, int))),
                head=str(_require(l, "to", (str, int))),
                free_flow_time=_number(l, "free_flow_time"),
                exit_capacity=_number(l, "exit_capacity"),
            )
            for l in _entries(net, "links", LINK_KEYS, "network.links")
        )
        paths = tuple(
            NetPath(
                id=_csv_id(p, "path"),
                link_ids=tuple(str(x) for x in _require(p, "links", list)),
                origin=str(_require(p, "origin", (str, int))),
                destination=str(_require(p, "destination", (str, int))),
            )
            for p in _entries(net, "paths", PATH_KEYS, "network.paths")
        )
        try:
            self.network = Network(links=links, paths=paths, arrival_target=self.arrival_target)
        except StructureError as exc:
            raise ScenarioError(f"invalid network: {exc}") from exc

        sol = _block(doc, "solver", SOLVER_KEYS)
        self.n = _integer(sol, "n")  # grid cells
        # SolverConfig's defaults stand for the keys the scenario leaves out
        given = {"alpha": _number(sol, "alpha"), "max_iters": _integer(sol, "max_iters")}
        if "gap_rtol" in sol:
            given["gap_rtol"] = _number(sol, "gap_rtol")
        if "halve_on_stall" in sol:
            given["halve_on_stall"] = _integer(sol, "halve_on_stall")
        self.config = SolverConfig(**given)

        pen = _block(doc, "penalty", PENALTY_KEYS)
        self.penalty = SchedulePenalty(early=_number(pen, "early"), late=_number(pen, "late"))

        by_od: dict[tuple[str, str], dict] = {}
        for e in _entries(doc, "demand", None, "demand"):
            od = (str(_require(e, "origin", (str, int))), str(_require(e, "destination", (str, int))))
            if od in by_od:
                raise ScenarioError(f"duplicate demand entry for OD {od[0]}->{od[1]}")
            _known_keys(e, DEMAND_KEYS, f"demand entry for OD {od[0]}->{od[1]}")
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
            self.inv_demand = InverseDemand(intercept, slope, cap)
            try:
                self.inv_demand.gap_scale()
            except ValueError as exc:
                raise ScenarioError(f"demand entries: {exc}") from None

    def grid(self) -> TimeGrid:
        return TimeGrid(self.t0, self.tf, self.n)


def _require(doc: dict, key: str, kind) -> object:
    if key not in doc:
        raise ScenarioError(f"missing field {key!r}")
    value = doc[key]
    if not isinstance(value, kind):
        raise ScenarioError(f"field {key!r} has wrong type {type(value).__name__}")
    return value


def _known_keys(doc: dict, keys: frozenset[str], where: str) -> None:
    if not keys.issuperset(doc):  # one C call per object of a long list
        unknown = [key for key in doc if key not in keys]
        raise ScenarioError(f"unknown field {', '.join(map(repr, unknown))} in {where}")


def _block(doc: dict, key: str, keys: frozenset[str]) -> dict:
    """The object ``doc[key]``, holding none but the given keys."""
    block = _require(doc, key, dict)
    _known_keys(block, keys, key)
    return block


def _entries(doc: dict, key: str, keys: frozenset[str] | None, where: str) -> list[dict]:
    """The list ``doc[key]`` of objects, each holding none but the given
    keys (unchecked with ``keys`` None); ``where`` names the list."""
    entries = _require(doc, key, list)
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ScenarioError(f"entry {i} of {where} must be a JSON object, "
                                f"got {type(entry).__name__}")
        if keys is not None and not keys.issuperset(entry):  # name it only when needed
            _known_keys(entry, keys, f"entry {i} of {where}")
    return entries


def _csv_id(doc: dict, kind: str) -> str:
    """The "id" field of a link or path. The CSV outputs write it as one
    field of one line, and read_flows_csv splits lines with str.splitlines,
    so it may hold no comma and nothing that splitlines breaks at."""
    value = str(_require(doc, "id", (str, int)))
    if "," in value or value.splitlines() not in ([value], []):
        raise ScenarioError(f"field 'id' of a {kind} must not contain a comma or a line "
                            f"break, got {value!r}")
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
    return Scenario(doc)


def _fmt(x: float) -> str:
    return repr(float(x))


FLOWS_HEADER = "path_id,cell_index,t_start,t_end,flow"
# flow file lines parsed at once, joined with a ",\n," marker and split once
# (see _parse_flow_lines); bounds the parser's scratch memory
FLOWS_CHUNK = 1024


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
    first being file line first_ln. The lines are joined with a ",\n,"
    marker and split once: no line holds a "\n", so every line has 5 columns
    exactly when the split has 6m - 1 fields and every 6th is the marker.
    Each check runs over all the lines at once; only when one fails does a
    per-line scan name the first line that fails it."""
    m = len(lines)
    fields = ",\n,".join(lines).split(",")
    if len(fields) != 6 * m - 1 or fields[5::6].count("\n") != m - 1:
        bad = np.fromiter(map(str.count, lines, repeat(",")), dtype=np.intp, count=m) != 4
        raise _flow_file_error(first_ln + int(np.argmax(bad)), "expected 5 columns")
    pids, cell_strs, flow_strs = fields[0::6], fields[1::6], fields[4::6]
    rows = np.fromiter(map(path_ids.get, pids, repeat(-1)), dtype=np.intp, count=m)
    if (rows < 0).any():
        i = int(np.argmax(rows < 0))
        raise _flow_file_error(first_ln + i, f"unknown path id {pids[i]!r}")
    try:
        # NumPy converts a str element with int() and float(): same values,
        # same rejections, except that an int beyond intp overflows
        cells = np.array(cell_strs, dtype=np.intp)
        values = np.array(flow_strs, dtype=float)
    except (ValueError, OverflowError):
        # name the line that int() or float() rejects; a cell index clipped to
        # [-1, n] stays out of range without overflowing intp
        cell_list, value_list = [], []
        for i, (j_str, flow) in enumerate(zip(cell_strs, flow_strs)):
            try:
                cell_list.append(min(max(int(j_str), -1), n))
                value_list.append(float(flow))
            except ValueError as exc:
                raise _flow_file_error(first_ln + i, str(exc)) from exc
        cells, values = np.array(cell_list, dtype=np.intp), np.array(value_list)
    bad = ~((values >= 0.0) & (values < math.inf))
    if bad.any():
        i = int(np.argmax(bad))
        raise _flow_file_error(first_ln + i, f"flow must be finite and nonnegative, "
                                             f"got {flow_strs[i]!r}")
    bad = (cells < 0) | (cells >= n)
    if bad.any():
        i = int(np.argmax(bad))
        raise _flow_file_error(first_ln + i, f"cell index {int(cell_strs[i])} out of range")
    return rows, cells, values


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
    rc = verify.reduced_costs(costs, network)
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


def _cmd_solve(scenario: Scenario, grid: TimeGrid, out_dir: Path) -> int:
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


def _cmd_load(scenario: Scenario, grid: TimeGrid, point: ExtendedPoint, out_dir: Path) -> int:
    result = dnl.load(scenario.network, point.flows, grid)
    write_curves_csv(out_dir / "curves.csv", result)
    print(f"loaded {_fmt(result.total_in)} veh, conservation residual "
          f"{_fmt(result.conservation_residual)}")
    return EXIT_OK


def _cmd_check(scenario: Scenario, grid: TimeGrid, point: ExtendedPoint, out_dir: Path) -> int:
    costs = solver.f_map(
        scenario.network, point, scenario.penalty, scenario.inv_demand, grid
    )
    residuals = verify.due_residuals(point, costs, scenario.network)
    lines = residuals.summary_lines()
    (out_dir / "check.txt").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    return EXIT_OK if residuals.is_equilibrium() else EXIT_NOT_CONVERGED


def _cmd_oracle(inst: oracle_mod.TinyInstance, out_dir: Path) -> int:
    result = oracle_mod.brute_force_equilibrium(inst)
    write_flows_csv(out_dir / "flows.csv", inst.network, result.point)
    lines = [
        f"gap: {_fmt(result.gap)}",
        f"certified: {result.certified}",
        f"evaluations: {result.evaluations}",
    ]
    (out_dir / "oracle.txt").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    return EXIT_OK if result.certified else EXIT_NOT_CONVERGED


def _build(args: argparse.Namespace) -> Callable[[Path], int]:
    """Parse and build every input of the command: the scenario with its
    overrides, the grid, and the flow file or the oracle's instance. Returns
    the run, a function of the output directory."""
    scenario = load_scenario(args.scenario)
    if args.n is not None:
        scenario.n = args.n
    grid = scenario.grid()
    if args.command == "solve":
        if args.max_iters is not None:
            scenario.config = dataclasses.replace(scenario.config, max_iters=args.max_iters)
        return lambda out_dir: _cmd_solve(scenario, grid, out_dir)
    if args.command == "oracle":
        if scenario.inv_demand is None:
            raise ScenarioError("the oracle subcommand needs an elastic-demand scenario")
        inst = oracle_mod.TinyInstance(scenario.network, grid, scenario.penalty,
                                       scenario.inv_demand)
        return lambda out_dir: _cmd_oracle(inst, out_dir)
    point = read_flows_csv(args.flows, scenario.network, grid)
    if args.command == "load":
        return lambda out_dir: _cmd_load(scenario, grid, point, out_dir)
    if scenario.pinned_demand is not None:
        # pinned mode prices every OD at its least cost, so the residuals
        # cannot see a volume that misses the pinned demand: reject it here
        pinned = scenario.pinned_demand
        miss = np.abs(point.demands - pinned) > verify.FEASIBILITY_RTOL * np.maximum(pinned, 1.0)
        if miss.any():
            raise ScenarioError(f"flow file: demand differs from its fixed_demand for OD pair "
                                f"indices {np.flatnonzero(miss).tolist()}")
    else:
        # a capped solve writes rates whose demand, rebuilt as od_sum(h) * dt,
        # can land ulps above the cap: clip overshoots within the conservation
        # slack of verify.is_feasible, reject larger ones
        cap = scenario.inv_demand.cap
        overshoot = point.demands - cap
        over = overshoot > verify.FEASIBILITY_RTOL * np.maximum(cap, 1.0)
        if over.any():
            raise ScenarioError(f"flow file: demand above its cap for OD pair indices "
                                f"{np.flatnonzero(over).tolist()}")
        if (overshoot > 0.0).any():
            point = ExtendedPoint(grid, point.flows, np.minimum(point.demands, cap))
    return lambda out_dir: _cmd_check(scenario, grid, point, out_dir)


class _ArgumentParser(argparse.ArgumentParser):
    """argparse's parser, but a usage error exits with EXIT_INPUT_ERROR:
    argparse's own code 2 is this CLI's "did not converge"."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
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
            p.add_argument("--max-iters", type=int, default=None, help="override iteration cap")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser()'s parser, built on the first main call and kept: not at
    import, which would slow every import of the module."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        run = _build(args)
    except ValueError as exc:
        # ScenarioError and every component validation error derive from
        # ValueError; raised while the inputs are built, they are input
        # problems. What the run raises propagates.
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    args.out.mkdir(parents=True, exist_ok=True)
    return run(args.out)


if __name__ == "__main__":
    raise SystemExit(main())
