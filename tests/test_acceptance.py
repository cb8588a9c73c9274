"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line so the run reads as a checklist.
Tolerances are pinned here, not imported from the library under test.
"""

import dataclasses
import json

import numpy as np
import pytest

from edue.cli import EXIT_OK, main
from edue.cost import SchedulePenalty
from edue.demand import InverseDemand
from edue.dnl import load
from edue.grid import ExtendedPoint, TimeGrid
from edue.network import Link, Network, Path
from edue.oracle import TinyInstance, brute_force_equilibrium
from edue.solver import SolverConfig, f_map, solve, zero_point, lemma2_bound
from edue.verify import best_response, due_residuals, random_probe, vi_lhs

from conftest import grid_of
from oracles import bisect_demand
from test_dnl import random_loading


def report(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'}  {name}  {detail}")
    assert ok, f"{name}: {detail}"


def solve_inst(inst, n=None):
    grid = grid_of(inst, n)
    cfg, n0 = inst["config"], inst["n"]
    if n is not None and n != n0:
        # the per-cell step shrinks with the cell width, so the step size and
        # the iteration budget scale with n to keep the contraction comparable
        scale = max(1, n // n0)
        cfg = dataclasses.replace(cfg, alpha=cfg.alpha * n / n0,
                                  max_iters=cfg.max_iters * scale, halve_on_stall=50)
    return grid, solve(inst["network"], inst["penalty"], inst["inv_demand"], cfg,
                       grid=grid)


def test_criterion_1_uncongested_demand_vs_bisection(uncongested_elastic):
    inst = uncongested_elastic
    # oracle: theta(Q) = v_min scalar equation; with unbounded capacity the
    # minimum effective delay is flow-independent, so v_min is computed once
    results = {}
    for n, tol in ((64, 0.02), (256, 0.005)):
        grid, rep = solve_inst(inst, n)
        costs0 = f_map(inst["network"], zero_point(inst["network"], grid),
                       inst["penalty"], inst["inv_demand"], grid)
        v_min = float(costs0.psi[0].min())
        q_star = bisect_demand(theta0=1.0, theta1=1 / 120.0, v_min=v_min, q_hi=114.0)
        err = abs(float(rep.point.demands[0]) - q_star) / q_star
        gap_ok = rep.final_gap <= 1e-6 * rep.initial_gap
        results[n] = (err, tol, gap_ok, rep.converged)
    ok = all(err <= tol and gap_ok and conv for err, tol, gap_ok, conv in results.values())
    detail = "; ".join(
        f"n={n}: rel err {err:.2e} (tol {tol}), gap ratio ok={g}" for n, (err, tol, g, _) in results.items()
    )
    report("criterion 1: uncongested Q* matches bisection oracle", ok, detail)


def tiny_instances():
    uncongested = TinyInstance(
        network=Network(
            links=(Link("a", "O", "D", 0.2, 1e6),),
            paths=(Path("p1", ("a",), "O", "D"),),
            arrival_target=0.5,
        ),
        grid=TimeGrid(0.0, 1.0, 2),
        penalty=SchedulePenalty(0.5, 2.0),
        inv_demand=InverseDemand([1.0], [0.01], [80.0]),
    )
    congested = TinyInstance(
        network=Network(
            links=(Link("a", "O", "D", 0.2, 80.0),),
            paths=(Path("p1", ("a",), "O", "D"),),
            arrival_target=0.5,
        ),
        grid=TimeGrid(0.0, 1.0, 2),
        penalty=SchedulePenalty(0.5, 2.0),
        inv_demand=InverseDemand([1.0], [0.01], [80.0]),
    )
    two_path = TinyInstance(
        network=Network(
            links=(Link("a1", "O", "D", 0.2, 60.0), Link("a2", "O", "D", 0.2, 60.0)),
            paths=(Path("p1", ("a1",), "O", "D"), Path("p2", ("a2",), "O", "D")),
            arrival_target=0.5,
        ),
        grid=TimeGrid(0.0, 1.0, 2),
        penalty=SchedulePenalty(0.5, 2.0),
        inv_demand=InverseDemand([1.0], [0.005], [150.0]),
    )
    return [("uncongested", uncongested), ("congested bottleneck", congested),
            ("two parallel paths", two_path)]


def test_criterion_2_solver_agrees_with_brute_force_oracle():
    details = []
    ok = True
    for name, inst in tiny_instances():
        oracle_res = brute_force_equilibrium(inst)
        cfg = SolverConfig(alpha=400.0, max_iters=6000, gap_rtol=1e-8, halve_on_stall=25)
        rep = solve(inst.network, inst.penalty, inst.inv_demand, cfg, grid=inst.grid)
        q_o = float(oracle_res.point.demands[0])
        q_s = float(rep.point.demands[0])
        q_err = abs(q_s - q_o) / q_o
        total_demand_rate = q_o / (inst.grid.tf - inst.grid.t0)
        cell_err = float(
            np.abs(rep.point.flows - oracle_res.point.flows).max()
        ) / total_demand_rate
        this_ok = q_err <= 0.01 and cell_err <= 0.02
        ok = ok and this_ok
        details.append(f"{name}: Q err {q_err:.2e}, cell err {cell_err:.2e}")
    report("criterion 2: oracle agreement on 3 tiny instances", ok, "; ".join(details))


def converged_solves(unc, con, two):
    out = []
    for inst in (unc, con, two):
        grid, rep = solve_inst(inst)
        out.append((inst, grid, rep))
    return out


def test_criterion_3_equilibrium_residuals(uncongested_elastic, congested_bottleneck,
                                           two_parallel_elastic):
    details = []
    ok = True
    for inst, grid, rep in converged_solves(uncongested_elastic, congested_bottleneck,
                                            two_parallel_elastic):
        res = rep.residuals
        scale1 = res.demand * res.theta
        r1_ok = bool(np.all(res.r1 <= 1e-4 * scale1))
        r2_ok = bool(np.all(res.r2 <= 1e-4 * res.theta))
        v_ok = bool(np.all(np.abs(res.v - res.theta) <= 1e-3 * res.theta))
        ok = ok and rep.converged and r1_ok and r2_ok and v_ok
        details.append(
            f"r1={res.max_r1():.2e} r2={res.max_r2():.2e} "
            f"dv={float(np.abs(res.v - res.theta).max()):.2e}"
        )
    report("criterion 3: complementarity residuals at every converged solve", ok,
           "; ".join(details))


def test_criterion_4_vi_probe_battery(uncongested_elastic, congested_bottleneck,
                                      two_parallel_elastic):
    rng = np.random.default_rng(2024)
    details = []
    ok = True
    for inst, grid, rep in converged_solves(uncongested_elastic, congested_bottleneck,
                                            two_parallel_elastic):
        net = inst["network"]
        caps = inst["inv_demand"].cap
        scale = float(np.dot(inst["inv_demand"].intercept, caps))
        worst = np.inf
        for _ in range(400):
            probe = random_probe(rng, net, caps, grid)
            worst = min(worst, vi_lhs(rep.point, probe, rep.costs, net))
        br = best_response(rep.costs, net, caps, grid)
        worst = min(worst, vi_lhs(rep.point, br, rep.costs, net))
        this_ok = worst >= -1e-6 * scale
        # a deliberately perturbed point must fail: shove all flow early
        h = rep.point.flows.copy()
        h[:, 0] += h.sum(axis=1)
        h[:, 1:] = 0.0
        bad = ExtendedPoint.from_matrix(grid, h, rep.point.demands)
        bad_costs = f_map(net, bad, inst["penalty"], inst["inv_demand"], grid)
        bad_res = due_residuals(bad, bad_costs, net)
        bad_br = best_response(bad_costs, net, caps, grid)
        bad_fails = (not bad_res.is_equilibrium()) and vi_lhs(bad, bad_br, bad_costs, net) < 0.0
        ok = ok and this_ok and bad_fails
        details.append(f"worst lhs {worst:.2e} vs -{1e-6 * scale:.1e}, perturbed fails={bad_fails}")
    report("criterion 4: solution passes 1200+ probes, perturbations fail",
           ok, "; ".join(details))


def test_criterion_5_cell_flow_bound():
    # low capacity + strong demand: the unconstrained best response would put
    # the whole cap volume in one cell, far above the bound; the equilibrium
    # spreads out and stays below it
    net = Network(
        links=(Link("a", "O", "D", 0.1, 100.0),),
        paths=(Path("p1", ("a",), "O", "D"),),
        arrival_target=0.6,
    )
    penalty = SchedulePenalty(0.5, 2.0)
    dem = InverseDemand([1.0], [0.002], [200.0])
    grid = TimeGrid(0.0, 1.0, 4)
    bound = lemma2_bound(net, penalty)  # 3 * 100 / 0.5 = 600 veh/h
    cfg = SolverConfig(alpha=400.0, max_iters=6000, gap_rtol=1e-6)
    rep = solve(net, penalty, dem, cfg, grid=grid)
    costs0 = f_map(net, zero_point(net, grid), penalty, dem, grid)
    br = best_response(costs0, net, dem.cap, grid)
    br_max = float(br.flows.max())
    ok = rep.converged and br_max > bound and rep.max_cell_flow <= bound
    report(
        "criterion 5: equilibrium cell flows below 3*Mmax/(Delta+1)",
        ok,
        f"bound {bound:.0f}, best-response peak {br_max:.0f}, "
        f"equilibrium peak {rep.max_cell_flow:.0f}",
    )


def test_criterion_6_loading_invariants_battery():
    fifo_viol = rate_viol = cons_viol = 0
    runs = 110
    for seed in range(runs):
        net, grid, flows = random_loading(seed, positive=True)
        res = load(net, flows, grid)
        if res.conservation_residual > 1e-9:
            cons_viol += 1
        for p in range(len(net.paths)):
            exits = res.exit_times(p, grid.boundaries)
            if not np.all(np.diff(exits) > 0.0):
                fifo_viol += 1
        for link in net.links:
            samples = res.states[link.id].curve_samples()
            if samples.shape[0] < 2:
                continue
            rates = np.diff(samples[:, 2]) / np.diff(samples[:, 0])
            if np.any(rates > link.exit_capacity + 1e-9):
                rate_viol += 1
    ok = fifo_viol == 0 and rate_viol == 0 and cons_viol == 0
    report(
        f"criterion 6: {runs} random loadings keep FIFO/capacity/conservation",
        ok,
        f"violations: fifo={fifo_viol} rate={rate_viol} conservation={cons_viol}",
    )


def test_criterion_7_parallel_link_symmetry(two_parallel_elastic):
    inst = two_parallel_elastic
    grid, rep = solve_inst(inst)
    h = rep.point.flows
    diff = float(np.abs(h[0] - h[1]).max())
    tol = 1e-6 * float(h.max())
    ok = rep.converged and diff <= tol
    report("criterion 7: identical parallel links carry identical flows", ok,
           f"max diff {diff:.2e} vs tol {tol:.2e}")


def test_criterion_8_fixed_demand_degeneration(congested_bottleneck):
    inst = congested_bottleneck
    grid = grid_of(inst)
    # elastic solve fixes the reference cost and demand
    _, rep_e = solve_inst(inst)
    q_star = float(rep_e.point.demands[0])
    v_star = float(rep_e.residuals.v[0])
    # fixed mode pinned at the elastic equilibrium volume
    rep_f = solve(inst["network"], inst["penalty"], None, inst["config"], grid=grid,
                  pinned_demand=np.array([q_star]))
    res_f = rep_f.residuals
    r1_ok = bool(np.all(res_f.r1 <= 1e-4 * res_f.demand * res_f.theta))
    # cross-mode: the fixed run's equilibrium cost must match the elastic
    # cost that generated its volume
    v_fixed = float(res_f.v[0])
    cross_ok = abs(v_fixed - v_star) <= 0.01 * v_star
    flow_diff = float(
        np.abs(rep_e.point.flows - rep_f.point.flows).max()
    )
    flows_ok = flow_diff <= 0.01 * float(rep_e.point.flows.max())
    ok = rep_f.converged and r1_ok and cross_ok and flows_ok
    report(
        "criterion 8: pinned-demand mode reproduces the elastic solution",
        ok,
        f"cost diff {abs(v_fixed - v_star):.2e} vs {0.01 * v_star:.2e}, "
        f"flow diff {flow_diff:.2e}, r1 {res_f.max_r1():.2e}",
    )


def test_criterion_9_determinism_and_round_trip(tmp_path):
    doc = {
        "units": {"time": "hours", "flow": "vehicles_per_hour", "demand": "vehicles"},
        "horizon": {"t0": 0.0, "tf": 1.0, "arrival_target": 0.6},
        "network": {
            "links": [{"id": "a", "from": "O", "to": "D",
                       "free_flow_time": 0.1, "exit_capacity": 1000.0}],
            "paths": [{"id": "p1", "links": ["a"], "origin": "O", "destination": "D"}],
        },
        "penalty": {"early": 0.5, "late": 2.0},
        "demand": [{"origin": "O", "destination": "D",
                    "intercept": 1.0, "slope": 0.002, "cap": 450.0}],
        "solver": {"n": 4, "alpha": 400.0, "max_iters": 4000,
                   "gap_rtol": 1e-6, "halve_on_stall": 25},
    }
    scn = tmp_path / "scenario.json"
    scn.write_text(json.dumps(doc))
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    code1 = main(["solve", str(scn), "--out", str(out1)])
    code2 = main(["solve", str(scn), "--out", str(out2)])
    identical = all(
        (out1 / f).read_bytes() == (out2 / f).read_bytes()
        for f in ("flows.csv", "costs.csv", "gap.csv", "summary.txt")
    )
    check_code = main(["check", str(scn), str(out1 / "flows.csv"), "--out", str(out1)])
    # residual lines in check.txt must reproduce those from the solve summary
    check_lines = (out1 / "check.txt").read_text().splitlines()
    summary_lines = (out1 / "summary.txt").read_text().splitlines()
    reproduced = all(line in summary_lines for line in check_lines)
    ok = code1 == code2 == EXIT_OK and identical and check_code == EXIT_OK and reproduced
    report("criterion 9: byte-identical reruns and check round trip", ok,
           f"identical={identical}, residuals reproduced={reproduced}")
