"""Seeded scenario and flow-file generators for the four benchmark workloads.

Every input is a pure function of the seed: the same seed writes the same
bytes. The program under test only ever sees the written files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

UNITS = {"time": "hours", "flow": "vehicles_per_hour", "demand": "vehicles"}
JITTER = 0.03  # relative half-width of the seeded perturbations


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # edue subcommand every operation runs
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "uncongested-n64", "solve",
            "criterion 1's instance (one link, n=64): scalar exit-time calls make "
            "cost.effective_delay dominate; no queue forms, so loader work should not move it",
        ),
        Workload(
            "corridor-k4-n16", "solve",
            "4 OD pairs through one shared bottleneck with short feeders: dnl.load dominates, "
            "and a better step rule shows as fewer iterations to the stated gap",
        ),
        Workload(
            "oracle-tiny", "oracle",
            "brute-force oracle on the two one-path criterion-2 instances: hundreds of tiny "
            "cost evaluations, so fixed per-call cost in dnl and cost dominates",
        ),
        Workload(
            "check-k32-n64", "check",
            "edue check of a seeded flow file on a 32-OD corridor: one large loading "
            "(tens of thousands of queue segments) plus the CSV read path, no solver loop",
        ),
    )
}


def _jitter(rng: np.random.Generator) -> float:
    return float(1.0 + rng.uniform(-JITTER, JITTER))


def _scenario(horizon, links, paths, penalty, demand, solver) -> dict:
    return {
        "units": dict(UNITS),
        "horizon": horizon,
        "network": {"links": links, "paths": paths},
        "penalty": penalty,
        "demand": demand,
        "solver": solver,
    }


def _link(lid, tail, head, tau, cap) -> dict:
    return {"id": lid, "from": tail, "to": head, "free_flow_time": tau, "exit_capacity": cap}


def uncongested_scenario(rng: np.random.Generator) -> dict:
    """Criterion 1's single link with its acceptance-test solver settings,
    with only the demand curve jittered so that the scalar reference stays
    exact."""
    return _scenario(
        horizon={"t0": 0.0, "tf": 2.0, "arrival_target": 7 / 6},
        links=[_link("a", "O", "D", 1 / 6, 1e6)],
        paths=[{"id": "p1", "links": ["a"], "origin": "O", "destination": "D"}],
        penalty={"early": 0.5, "late": 2.0},
        demand=[{"origin": "O", "destination": "D",
                 "intercept": _jitter(rng), "slope": _jitter(rng) / 120.0}],
        solver={"n": 64, "alpha": 400.0, "max_iters": 4000,
                "gap_rtol": 1e-6, "halve_on_stall": 25},
    )


def corridor_scenario(rng: np.random.Generator, k: int, n: int, solver: dict) -> dict:
    """K OD pairs. Path a: feeder -> shared bottleneck -> feeder; path b: bypass.
    Demand intercepts and bypass capacities are jittered per OD pair."""
    links = [_link("bn", "A", "B", 0.1, 1500.0)]
    paths, demand = [], []
    for i in range(k):
        o, d = f"O{i}", f"D{i}"
        links += [
            _link(f"in{i}", o, "A", 0.01, 1e5),
            _link(f"out{i}", "B", d, 0.01, 1e5),
            _link(f"by{i}", o, d, 0.3, 300.0 * _jitter(rng)),
        ]
        paths += [
            {"id": f"a{i}", "links": [f"in{i}", "bn", f"out{i}"], "origin": o, "destination": d},
            {"id": f"b{i}", "links": [f"by{i}"], "origin": o, "destination": d},
        ]
        demand.append({"origin": o, "destination": d,
                       "intercept": 1.2 * _jitter(rng), "slope": 0.004, "cap": 250.0})
    return _scenario(
        horizon={"t0": 0.0, "tf": 1.6, "arrival_target": 0.8},
        links=links,
        paths=paths,
        penalty={"early": 0.5, "late": 2.0},
        demand=demand,
        solver=dict(solver, n=n),
    )


def tiny_scenarios(rng: np.random.Generator) -> list[dict]:
    """The one-path criterion-2 instances (two cells, uncongested and
    congested), with the demand intercepts jittered. The two-path instance is
    left out: one oracle call on it takes about a second, too long to time
    steadily on a shared host (see README.md)."""

    def tiny(links, intercept, slope, cap):
        return _scenario(
            horizon={"t0": 0.0, "tf": 1.0, "arrival_target": 0.5},
            links=links,
            paths=[{"id": f"p{i + 1}", "links": [l["id"]], "origin": "O", "destination": "D"}
                   for i, l in enumerate(links)],
            penalty={"early": 0.5, "late": 2.0},
            demand=[{"origin": "O", "destination": "D", "intercept": intercept * _jitter(rng),
                     "slope": slope, "cap": cap}],
            solver={"n": 2, "alpha": 400.0, "max_iters": 6000, "gap_rtol": 1e-8,
                    "halve_on_stall": 25},
        )

    return [
        tiny([_link("a", "O", "D", 0.2, 1e6)], 1.0, 0.01, 80.0),
        tiny([_link("a", "O", "D", 0.2, 80.0)], 1.0, 0.01, 80.0),
    ]


def random_flows_csv(rng: np.random.Generator, doc: dict) -> str:
    """A feasible flow file in the flows.csv format: each OD carries a random
    share (40-90%) of its cap, spread over its paths and cells at random."""
    n = doc["solver"]["n"]
    t0, tf = doc["horizon"]["t0"], doc["horizon"]["tf"]
    dt = (tf - t0) / n
    bounds = np.linspace(t0, tf, n + 1)
    paths = doc["network"]["paths"]
    caps = {(e["origin"], e["destination"]): e["cap"] for e in doc["demand"]}
    weights = rng.uniform(0.0, 1.0, size=(len(paths), n))
    lines = ["path_id,cell_index,t_start,t_end,flow"]
    for od, cap in caps.items():
        rows = [i for i, p in enumerate(paths) if (p["origin"], p["destination"]) == od]
        volume = cap * rng.uniform(0.4, 0.9)
        rates = weights[rows] * (volume / (weights[rows].sum() * dt))
        for i, row in zip(rows, rates):
            for j, rate in enumerate(row):
                lines.append(f"{paths[i]['id']},{j},{bounds[j]!r},{bounds[j + 1]!r},{float(rate)!r}")
    return "\n".join(lines) + "\n"


CORRIDOR_SOLVER = {"alpha": 300.0, "max_iters": 400, "gap_rtol": 4e-2, "halve_on_stall": 25}
# `edue check` never runs the solver, but every scenario needs a solver block
CHECK_SOLVER = {"alpha": 300.0, "max_iters": 1000, "gap_rtol": 1e-6, "halve_on_stall": 25}


@dataclass
class Inputs:
    """The generated files of one workload: one CLI argument list per call of
    an operation (an operation is one call, except for oracle-tiny, which
    runs both instances) and the scenario documents behind them."""

    argvs: list[list[str]]
    scenarios: list[dict]
    out_dirs: list[Path] = field(default_factory=list)


def write_inputs(name: str, seed: int, root: Path) -> Inputs:
    """Generate the workload's inputs from the seed and write them under root."""
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(name)])
    root.mkdir(parents=True, exist_ok=True)
    command = WORKLOADS[name].command
    if name == "uncongested-n64":
        docs = [uncongested_scenario(rng)]
    elif name == "corridor-k4-n16":
        docs = [corridor_scenario(rng, 4, 16, CORRIDOR_SOLVER)]
    elif name == "oracle-tiny":
        docs = tiny_scenarios(rng)
    elif name == "check-k32-n64":
        docs = [corridor_scenario(rng, 32, 64, CHECK_SOLVER)]
    else:
        raise ValueError(f"unknown workload {name!r}")
    inputs = Inputs(argvs=[], scenarios=docs)
    for i, doc in enumerate(docs):
        scenario = root / f"scenario{i}.json"
        scenario.write_text(json.dumps(doc, indent=1, sort_keys=True))
        out = root / f"out{i}"
        args = [command, str(scenario)]
        if command == "check":
            flows = root / f"flows{i}.csv"
            flows.write_text(random_flows_csv(rng, doc))
            args.append(str(flows))
        inputs.argvs.append(args + ["--out", str(out)])
        inputs.out_dirs.append(out)
    return inputs
