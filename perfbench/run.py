#!/usr/bin/env python3
"""Benchmark for edue: times CLI operations on seeded inputs and checks them.

One run, as the benchmark contract runs it, from the repository root:

    python3 perfbench/run.py --workload corridor-k4-n16 --seed 1 --seconds 25 --trace 0

generates the workload's scenario (and flow) files from the seed, times
repeated in-process `edue.cli.main([...])` operations for --seconds, checks
every operation's outputs, prints a table of all metrics and, as the last
line, a JSON object {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the JSON holds the end-to-end metrics; with --trace 1 it holds the
per-layer metrics of a traced run (see spans.py).

Other modes (see README.md): --workload all runs every workload, one child
process each, and prints their tables; --steadiness N runs each workload N
times with seeds seed..seed+N-1 and prints median, quartiles and spread per
metric; --save FILE writes the full result with its fingerprint and machine;
--compare FILE prints each fingerprint field that differs from a saved run
of the same seed; a difference is only reported, never fails the run.
"""

from __future__ import annotations

import os

# one thread per process, set before numpy is imported
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DEFAULT_SEED = 1
SETUP_REPEATS = 5
SETUP_EVERY_S = 1.0  # one more set-up sample between operations, at most this often
WARM_UP_SOLVE = ["--max-iters", "2"]
IMPORT_PROBE = "import time; t = time.perf_counter(); import edue.cli; print(time.perf_counter() - t)"

END_TO_END = {  # name -> unit
    "op_s": "s",
    "iter_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "iterations": "count",
    "gap_ratio": "ratio",
    "evals_per_s": "1/s",
    "failed_frac": "ratio",
    "op_rel": "x",
    "iter_rel": "x",
}
# The contract line reports operation and set-up time relative to the
# reference loop (yardstick.py). On a shared host, other tenants slow the
# process by up to 2x for stretches of seconds to minutes, so seconds,
# medians and minima alike follow the host from run to run (see README.md).
CONTRACT_END_TO_END = ("op_rel", "iter_rel", "setup_s", "peak_rss_mb")


def _import_program():
    """Put the checkout's src/ first on the path and import edue from it;
    refuse any other copy."""
    if not (SRC / "edue" / "__init__.py").is_file():
        sys.exit(f"perfbench: no edue sources under {SRC}")
    sys.path[:0] = [p for p in (str(SRC), str(HERE)) if p not in sys.path]
    import edue

    if not Path(edue.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: imported edue from {edue.__file__}, not from {SRC}")


def machine() -> dict:
    import numpy

    model = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def setup(name: str, seed: int, work: Path, repeats: int = SETUP_REPEATS):
    """Generate and write the inputs `repeats` times, each time also timing a
    fresh interpreter's import of the program. A sample is import time plus
    generation time, in seconds and relative to the reference loop passes
    just before and after it. Returns the inputs, the samples and the loop
    times."""
    import workloads
    import yardstick

    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples, rels, loops = [], [], []
    for _ in range(repeats):
        before = yardstick.seconds()
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                               capture_output=True, text=True, check=True, timeout=120)
        t0 = time.perf_counter()
        inputs = workloads.write_inputs(name, seed, work)
        samples.append(float(probe.stdout) + time.perf_counter() - t0)
        loops += [before, yardstick.seconds()]
        rels.append(samples[-1] / (0.5 * (before + loops[-1])))
    return inputs, samples, rels, loops


def run_operation(argvs: list[list[str]], out_dirs: list[Path], tracer=None):
    """One timed operation: every CLI call of the workload, in process, with
    its stdout captured. Returns (seconds, exit codes, error text or None)."""
    import edue.cli

    for out in out_dirs:
        shutil.rmtree(out, ignore_errors=True)

    def calls():
        return [edue.cli.main(list(a)) for a in argvs]

    codes, error = [], None
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                codes = calls()
            else:
                with tracer:
                    codes = tracer.span("op", calls)
        except Exception:  # an operation that raises counts as failed; keep measuring
            error = traceback.format_exc()
        elapsed = time.perf_counter() - t0
    return elapsed, codes, error


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def measure(args) -> dict:
    """One benchmark run of one workload; returns the full result."""
    import checks
    import spans
    import yardstick

    work = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        inputs, setup_samples, setup_rels, loop_times = setup(args.workload, args.seed, work)
        checker = checks.make_checker(args.workload, inputs)
        tracer = spans.Tracer() if args.trace else None
        op_times, traced_times, failures, fingerprint = [], [], [], None
        op_rels = []  # untraced operation time / reference loop time around it
        layers: list[dict[str, float]] = []
        # untimed warm-up: the first operation in a process runs measurably
        # slower (lazy imports, allocator growth); solves are cut short
        run_operation([a + WARM_UP_SOLVE if a[0] == "solve" else a for a in inputs.argvs],
                      inputs.out_dirs)
        t_start = last_setup = time.perf_counter()
        while True:
            op_start = time.perf_counter()
            # a traced run alternates untraced and traced operations; the
            # difference of their medians is the tracing overhead
            traced = tracer is not None and len(op_times) > len(traced_times)
            if traced:
                elapsed, codes, error = run_operation(inputs.argvs, inputs.out_dirs, tracer)
                traced_times.append(elapsed)
            else:
                before = yardstick.seconds()
                elapsed, codes, error = run_operation(inputs.argvs, inputs.out_dirs)
                loop_times += [before, yardstick.seconds()]
                op_rels.append(elapsed / (0.5 * (before + loop_times[-1])))
                op_times.append(elapsed)
            problems = [error] if error else []
            if not error:
                try:
                    found, fp = checker(codes, inputs.out_dirs)
                except Exception:  # e.g. an output file is missing
                    found, fp = [traceback.format_exc()], None
                problems += found
                if fingerprint is None:
                    fingerprint = fp
                elif fp is not None and fp != fingerprint:
                    problems += ["output differs from the run's first operation:"]
                    problems += checks.diff_fingerprints(fingerprint, fp)
            if traced:
                layers.append(spans.layer_metrics(tracer))
                dominant, table = spans.dominant_layer(tracer), spans.span_table(tracer)
                tracer.reset()
            if problems:
                failures.append(problems)
                print(f"# operation {len(op_times) + len(traced_times)} failed: "
                      + "; ".join(problems), file=sys.stderr)
            # set-up samples spread over the run see the same host as its
            # operations; the inputs they write are not used
            if time.perf_counter() - last_setup >= SETUP_EVERY_S:
                _, samples, rels, loops = setup(args.workload, args.seed, work / "setup", 1)
                setup_samples += samples
                setup_rels += rels
                loop_times += loops
                last_setup = time.perf_counter()
            # stop before an operation that would end past the deadline
            now = time.perf_counter()
            if now + (now - op_start) > t_start + args.seconds and (tracer is None or traced_times):
                break
        attempted = len(op_times) + len(traced_times)
        op_s, op_rel = statistics.median(op_times), statistics.median(op_rels)
        # every operation raising leaves no fingerprint and no counts
        counts = checker.counts(fingerprint) if fingerprint else dict.fromkeys(
            ("evaluations", "iterations", "gap_ratio", "oracle_evaluations"))
        per_eval = 1e3 / counts["evaluations"] if counts["evaluations"] else None
        end_to_end = {
            "op_s": op_s,
            "iter_ms": per_eval * op_s if per_eval else None,
            # in seconds at the run's fastest reference loop pass: the loop is
            # a few milliseconds long, so its fastest pass falls in a quiet moment
            "setup_s": statistics.median(setup_rels) * min(loop_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "iterations": counts["iterations"],
            "gap_ratio": counts["gap_ratio"],
            "evals_per_s": (counts["oracle_evaluations"] / op_s
                            if counts["oracle_evaluations"] else None),
            "failed_frac": len(failures) / attempted,
            "op_rel": op_rel,
            "iter_rel": op_rel / counts["evaluations"] if counts["evaluations"] else None,
        }
        result = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "machine": machine(),
            "attempted": attempted,
            "failed": len(failures),
            "failures": failures,
            "op_s_samples": op_times,
            "op_rel_samples": op_rels,
            "setup_s_samples": setup_samples,
            "setup_rel_samples": setup_rels,
            "loop_s_samples": loop_times,
            "end_to_end": end_to_end,
            "fingerprint": fingerprint,
        }
        if tracer is not None:
            per_layer = {k: statistics.median(d[k] for d in layers) for k in layers[0]}
            per_layer["trace.overhead_s"] = statistics.median(traced_times) - op_s
            result["per_layer"] = per_layer
            result["traced_op_s_samples"] = traced_times
            result["dominant_layer"] = dominant  # of the last traced operation
            result["span_table"] = table
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def print_table(result: dict) -> None:
    import spans

    e2e = result["end_to_end"]
    n = len(result["op_s_samples"])
    print(f"# workload {result['workload']}  seed {result['seed']}  "
          f"attempted {result['attempted']}  failed {result['failed']}")
    print(f"# machine {json.dumps(result['machine'], sort_keys=True)}")
    for name, unit in END_TO_END.items():
        note = ""
        if name in ("op_s", "op_rel"):
            q1, _, q3 = quartiles(result[f"{name}_samples"])
            note = f"  (median of {n}; quartiles {q1:.6g}..{q3:.6g})"
        elif name == "setup_s":
            note = (f"  (median of {len(result['setup_s_samples'])} set-ups, relative to"
                    f" the reference loop, x its fastest pass {min(result['loop_s_samples']):.6g} s)")
        print(f"  {name:<14} {_fmt(e2e[name]):>14} {unit}{note}")
    if "per_layer" in result:
        print(f"# per layer, median of {len(result['traced_op_s_samples'])} traced operations")
        for name, unit in spans.PER_LAYER.items():
            print(f"  {name:<30} {_fmt(result['per_layer'][name]):>14} {unit}")
        name, share = result["dominant_layer"]
        print(f"# dominant layer: {name} ({100 * share:.1f}% of the last traced operation)")
        for line in result["span_table"]:
            print(line)


def contract_line(result: dict, trace: bool, correct: bool) -> str:
    import spans

    if trace:
        metrics = {k: {"value": result["per_layer"][k], "unit": u}
                   for k, u in spans.PER_LAYER.items()}
    else:
        metrics = {k: {"value": result["end_to_end"][k], "unit": END_TO_END[k]}
                   for k in CONTRACT_END_TO_END}
    return json.dumps({"correct": correct, "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def child_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """Run one workload in a child process and return its saved result."""
    results = WORK / f"children-p{os.getpid()}"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{workload}-s{seed}.json"
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--save", str(out)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0 or not out.exists():
            raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
        return json.loads(out.read_text())
    finally:
        out.unlink(missing_ok=True)
        results.rmdir()
        with contextlib.suppress(OSError):
            WORK.rmdir()


def steadiness(workloads: list[str], args) -> None:
    """Repeat each workload with consecutive seeds and report, per metric,
    median, quartiles and spread = (q3 - q1) / median; the spread is judged
    against a third of the metric's bound in BENCHMARK.json."""
    bounds = {}
    spec = ROOT / "BENCHMARK.json"
    if spec.exists():
        bounds = {m["name"]: m["bound"] for m in json.loads(spec.read_text())["end_to_end"]}
    for workload in workloads:
        results = [child_run(workload, args.seed + i, args.seconds, 0)
                   for i in range(args.steadiness)]
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"# {workload}: {len(results)} runs, seeds {args.seed}..{args.seed + len(results) - 1}, "
              f"{failed}/{attempted} operations failed")
        for name, unit in END_TO_END.items():
            values = [r["end_to_end"][name] for r in results]
            if any(v is None for v in values):
                continue
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            verdict = ""
            if name in bounds:
                verdict = f"  bound {bounds[name]}: " + (
                    "steady" if spread < bounds[name] / 3 else "NOT steady")
            print(f"  {name:<14} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread:.4f} {unit}{verdict}")
        print("  values: " + json.dumps({k: [r["end_to_end"][k] for r in results]
                                         for k in CONTRACT_END_TO_END}))
        sys.stdout.flush()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="uncongested-n64, corridor-k4-n16, oracle-tiny, check-k32-n64 or all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run, report per-layer metrics")
    parser.add_argument("--save", type=Path, help="write the full result (JSON) here")
    parser.add_argument("--compare", type=Path,
                        help="diff this run's fingerprint against a saved result of the same seed")
    parser.add_argument("--steadiness", type=int, default=0, metavar="N",
                        help="run each workload N times with seeds seed..seed+N-1 and print spreads")
    args = parser.parse_args(argv)

    _import_program()
    import checks
    import workloads

    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}")
    if args.steadiness:
        steadiness(names, args)
        return 0
    if len(names) > 1:
        for name in names:
            print_table(child_run(name, args.seed, args.seconds, args.trace))
            sys.stdout.flush()
        return 0

    result = measure(args)
    if args.compare:
        # a changed fingerprint is only reported: the checks gate correctness
        saved = json.loads(args.compare.read_text())
        if (saved["workload"], saved["seed"]) != (result["workload"], result["seed"]):
            parser.error("--compare needs a saved run of the same workload and seed")
        changes = checks.diff_fingerprints(saved["fingerprint"], result["fingerprint"])
        print(f"# fingerprint vs {args.compare}: "
              + (f"{len(changes)} field(s) changed" if changes else "unchanged"))
        for line in changes:
            print(f"#   {line}")
    if args.save:
        args.save.write_text(json.dumps(result, indent=1))
    print_table(result)
    print(contract_line(result, bool(args.trace), result["failed"] == 0), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
