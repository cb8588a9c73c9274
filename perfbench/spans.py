"""Per-layer spans recorded from outside the program.

The traced run rebinds the module and class attributes that edue's callers
look up at call time, wrapping each in a timer. Callers that imported a
function by name hold their own reference, so each such name is rebound
where it is looked up (``edue.solver.effective_delay``, not
``edue.cost.effective_delay``). The untraced run never builds a Tracer.

Spans are aggregated in memory per name (calls, busy time, time of direct
child spans, names of parent spans): the network lookups inside the cost
layer run hundreds of thousands of times per operation, too many to keep
one record each.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import edue.cli
import edue.demand
import edue.dnl
import edue.grid
import edue.network
import edue.oracle
import edue.solver
import edue.verify

MARK = "__perfbench_span__"

PER_LAYER = {  # metric -> unit, as the traced run reports them
    "dnl.load.calls": "count",
    "dnl.load.busy_s": "s",
    "dnl.load.ms_per_call": "ms",
    "dnl.segments_per_load": "count",
    "dnl.us_per_segment": "us",
    "cost.effective_delay.busy_s": "s",
    "cost.effective_delay.self_s": "s",
    "cost.boundary_evals": "count",
    "cost.ns_per_boundary_eval": "ns",
    "network.path_links.calls": "count",
    "network.path_links.busy_s": "s",
    "solver.f_map.busy_s": "s",
    "solver.compute_gap.busy_s": "s",
    "solver.fixed_point_step.busy_s": "s",
    "solver.self_s": "s",
    "solver.alpha_halvings": "count",
    "solver.improving_iter_ratio": "ratio",
    "verify.due_residuals.busy_s": "s",
    "grid.from_matrix.busy_s": "s",
    "demand.theta.busy_s": "s",
    "oracle.f_map.busy_s": "s",
    "oracle.self_s": "s",
    "cli.parse_s": "s",
    "cli.read_flows_s": "s",
    "cli.write_s": "s",
    "trace.overhead_s": "s",
}

# (owner, attribute, span name): every binding the traced run replaces
TARGETS = (
    (edue.cli, "load_scenario", "cli.parse"),
    (edue.cli, "read_flows_csv", "cli.read_flows"),
    (edue.cli, "write_flows_csv", "cli.write"),
    (edue.cli, "write_costs_csv", "cli.write"),
    (edue.cli, "write_gap_csv", "cli.write"),
    (edue.cli, "write_curves_csv", "cli.write"),
    (edue.solver, "solve", "solver.solve"),
    (edue.solver, "f_map", "solver.f_map"),
    (edue.solver, "effective_delay", "cost.effective_delay"),
    (edue.solver, "compute_gap", "solver.compute_gap"),
    (edue.solver, "fixed_point_step", "solver.fixed_point_step"),
    (edue.oracle, "brute_force_equilibrium", "oracle.brute_force"),
    (edue.oracle, "f_map", "oracle.f_map"),
    (edue.oracle, "compute_gap", "solver.compute_gap"),
    (edue.dnl, "load", "dnl.load"),
    (edue.verify, "due_residuals", "verify.due_residuals"),
    (edue.network.Network, "path_links", "network.path_links"),
    (edue.grid.ExtendedPoint, "from_matrix", "grid.from_matrix"),
    (edue.demand.InverseDemand, "theta", "demand.theta"),
)


@dataclass
class SpanStats:
    calls: int = 0
    busy: float = 0.0
    child: float = 0.0  # time inside direct child spans
    parents: set = field(default_factory=set)

    @property
    def self_time(self) -> float:
        return self.busy - self.child


def _count_segments(counters, args, kwargs, result) -> None:
    counters["dnl.segments"] += sum(len(s.segments) for s in result.states.values())


def _count_boundaries(counters, args, kwargs, result) -> None:
    loading = args[0] if args else kwargs["result"]
    counters["cost.boundary_evals"] += len(loading.network.paths) * (loading.grid.n + 1)


def _count_solver(counters, args, kwargs, report) -> None:
    best = None
    prev_alpha = None
    for _, gap, _, _, alpha in report.gap_history:
        # the solver's own improvement rule, including its relative slack
        if best is None or gap < best - 1e-15 * max(1.0, abs(best)):
            best = gap
            counters["solver.improving_iters"] += 1
        if prev_alpha is not None and alpha < prev_alpha:
            counters["solver.alpha_halvings"] += 1
        prev_alpha = alpha
    counters["solver.iterations"] += len(report.gap_history)


AFTER = {
    "dnl.load": _count_segments,
    "cost.effective_delay": _count_boundaries,
    "solver.solve": _count_solver,
}


class Tracer:
    """Installs timing wrappers on TARGETS and aggregates their spans."""

    def __init__(self) -> None:
        self.stats: dict[str, SpanStats] = {}
        self.counters: dict[str, float] = {
            "dnl.segments": 0,
            "cost.boundary_evals": 0,
            "solver.improving_iters": 0,
            "solver.alpha_halvings": 0,
            "solver.iterations": 0,
        }
        self._stack: list[list] = []  # [name, child time] per open span
        self._saved: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.stats.clear()
        for key in self.counters:
            self.counters[key] = 0

    def _wrap(self, name: str, fn):
        stack = self._stack
        stats_of = self.stats
        counters = self.counters
        after = AFTER.get(name)
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - t0
                stack.pop()
                stats = stats_of.get(name)
                if stats is None:
                    stats = stats_of[name] = SpanStats()
                stats.calls += 1
                stats.busy += elapsed
                stats.child += frame[1]
                stats.parents.add(parent)
                if stack:
                    stack[-1][1] += elapsed
            if after is not None:
                after(counters, args, kwargs, result)
            return result

        setattr(wrapper, MARK, name)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span of the given name (the per-operation root)."""
        return self._wrap(name, fn)(*args, **kwargs)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in TARGETS:
            raw = owner.__dict__[attr]
            static = isinstance(raw, staticmethod)
            wrapped = self._wrap(name, raw.__func__ if static else raw)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, staticmethod(wrapped) if static else wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def depth(self, name: str) -> int:
        """Nesting depth of a span name: 0 for a root, else one more than its
        deepest parent."""
        seen: set[str] = set()

        def walk(n: str) -> int:
            if n in seen:
                return 0
            seen.add(n)
            parents = [p for p in self.stats[n].parents if p is not None]
            return 1 + max((walk(p) for p in parents), default=-1)

        return walk(name)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer values of one traced operation (PER_LAYER but the overhead)."""

    def s(name):
        return tracer.stats.get(name, SpanStats())

    def ratio(a, b, scale=1.0):
        return scale * a / b if b else 0.0

    c = tracer.counters
    load, cost = s("dnl.load"), s("cost.effective_delay")
    return {
        "dnl.load.calls": load.calls,
        "dnl.load.busy_s": load.busy,
        "dnl.load.ms_per_call": ratio(load.busy, load.calls, 1e3),
        "dnl.segments_per_load": ratio(c["dnl.segments"], load.calls),
        "dnl.us_per_segment": ratio(load.busy, c["dnl.segments"], 1e6),
        "cost.effective_delay.busy_s": cost.busy,
        "cost.effective_delay.self_s": cost.self_time,
        "cost.boundary_evals": c["cost.boundary_evals"],
        "cost.ns_per_boundary_eval": ratio(cost.busy, c["cost.boundary_evals"], 1e9),
        "network.path_links.calls": s("network.path_links").calls,
        "network.path_links.busy_s": s("network.path_links").busy,
        "solver.f_map.busy_s": s("solver.f_map").busy,
        "solver.compute_gap.busy_s": s("solver.compute_gap").busy,
        "solver.fixed_point_step.busy_s": s("solver.fixed_point_step").busy,
        "solver.self_s": s("solver.solve").self_time,
        "solver.alpha_halvings": c["solver.alpha_halvings"],
        "solver.improving_iter_ratio": ratio(c["solver.improving_iters"], c["solver.iterations"]),
        "verify.due_residuals.busy_s": s("verify.due_residuals").busy,
        "grid.from_matrix.busy_s": s("grid.from_matrix").busy,
        "demand.theta.busy_s": s("demand.theta").busy,
        "oracle.f_map.busy_s": s("oracle.f_map").busy,
        "oracle.self_s": s("oracle.brute_force").self_time,
        "cli.parse_s": s("cli.parse").busy,
        "cli.read_flows_s": s("cli.read_flows").busy,
        "cli.write_s": s("cli.write").busy,
    }


def dominant_layer(tracer: Tracer) -> tuple[str, float]:
    """The innermost span holding at least half of the operation's time (the
    longest span when none does), with its share."""
    total = tracer.stats["op"].busy
    inner = {n: st for n, st in tracer.stats.items() if n != "op"}
    heavy = [n for n, st in inner.items() if st.busy >= 0.5 * total]
    if heavy:
        name = max(heavy, key=lambda n: (tracer.depth(n), -inner[n].busy))
    else:
        name = max(inner, key=lambda n: inner[n].busy)
    return name, inner[name].busy / total


def span_table(tracer: Tracer) -> list[str]:
    total = tracer.stats["op"].busy
    lines = [f"# {'span':<26} {'calls':>9} {'busy_s':>10} {'self_s':>10} {'busy%':>6}"]
    for name, st in sorted(tracer.stats.items(), key=lambda kv: -kv[1].busy):
        lines.append(f"# {name:<26} {st.calls:>9} {st.busy:>10.4f} {st.self_time:>10.4f} "
                     f"{100 * st.busy / total:>5.1f}%")
    return lines


def installed_wrappers() -> list[str]:
    """Names of the TARGETS bindings that currently hold a tracing wrapper."""
    out = []
    for owner, attr, name in TARGETS:
        raw = owner.__dict__[attr]
        fn = raw.__func__ if isinstance(raw, staticmethod) else raw
        if hasattr(fn, MARK):
            out.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    return out
