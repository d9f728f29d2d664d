#!/usr/bin/env python3
"""End-to-end benchmark of the auto-indexing closed loop.

Two ways to call it:

``run.py --workload W --seed S --seconds T --trace 0|1``
    One measured run in this process.  The last line of standard output
    is ``{"correct", "attempted", "failed", "metrics"}``; the line before
    it carries the details (output digest, exact counts, sample counts).
    ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` wraps the
    layers (see ``trace.py``) and reports the per-layer metrics.

``run.py [--workload W ...] [--reps N] [--seed S] [--quick] [--no-trace]
[--out FILE] [--trace-out FILE]``
    Runs the calls above, each in a fresh child process, one child at a
    time, ``N`` untraced repetitions per workload interleaved round-robin
    and then one traced run per workload; checks that repetitions agree;
    prints every metric with unit, direction, median, quartiles, sample
    count and bound.

Metric names, units, directions and bounds come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SOURCE = ROOT / "src"
#: Switches that select a non-default engine path; a benchmark of "the
#: program at its defaults" must not inherit one from the shell.
FORBIDDEN_ENV = ("REPRO_EXECUTOR", "REPRO_WHATIF")
DEFAULT_SEED = 11
DEFAULT_SECONDS = 10.0
QUICK_SECONDS = 0.5
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3


def load_sibling(name: str):
    """Import ``<name>.py`` from this directory by path (``trace`` is also
    a standard-library module, so the name alone is ambiguous)."""
    qualified = f"e2e_{name}"
    if qualified not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            qualified, HERE / f"{name}.py"
        )
        module = importlib.util.module_from_spec(spec)
        sys.modules[qualified] = module
        spec.loader.exec_module(module)
    return sys.modules[qualified]


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def refuse_engine_switches() -> None:
    found = [name for name in FORBIDDEN_ENV if os.environ.get(name)]
    if found:
        sys.exit(
            f"refusing to start: {', '.join(found)} is set; the benchmark "
            "measures the program at its defaults"
        )


def quartiles(values: Sequence[float]) -> tuple:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is all three."""
    if len(values) < 2:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


# ----------------------------------------------------------------------
# One measured run (the driver contract)


def _timed_region(workload, host, units: int, recorder=None) -> List[tuple]:
    """Run ``units`` client operations; one ``(start, end, cpu)`` each,
    with the calibration walk sampled between them."""
    rows = []
    for index in range(units):
        host.maybe_sample()
        cpu = workload.cpu_seconds()
        started = time.perf_counter()
        if recorder is None:
            workload.run_unit(index)
        else:
            recorder.root(lambda: workload.run_unit(index))
        ended = time.perf_counter()
        rows.append((started, ended, workload.cpu_seconds() - cpu))
    host.sample()
    return rows


def _reference_seconds(host, rows: Sequence[tuple]) -> tuple:
    """(CPU, wall per unit) of a timed region at the reference speed."""
    factors = [host.factor(start, end) for start, end, _cpu in rows]
    cpu = sum(row[2] * f for row, f in zip(rows, factors))
    walls = [(row[1] - row[0]) * f for row, f in zip(rows, factors)]
    return cpu, walls


def _setup(workload_cls, host, seed: int, traced: bool, setups: int):
    """Set up ``setups`` times, keep the last; reference-speed CPU each."""
    costs = []
    workload = None
    for _ in range(setups):
        if workload is not None:
            workload.close()
        workload = workload_cls()
        host.sample()
        cpu = workload.cpu_seconds()
        started = time.perf_counter()
        workload.setup(seed, traced)
        ended = time.perf_counter()
        cost = workload.cpu_seconds() - cpu
        host.sample()
        costs.append(cost * host.factor(started, ended))
    return workload, costs


def run_one(args: argparse.Namespace) -> int:
    refuse_engine_switches()
    if not (SOURCE / "repro").is_dir():
        sys.exit(f"no program to measure: {SOURCE / 'repro'} is missing")
    # The tree outside this directory stays untouched by a run.
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SOURCE))
    hostspeed = load_sibling("hostspeed")
    trace = load_sibling("trace")
    WORKLOADS = load_sibling("workloads").WORKLOADS

    spec = load_spec()
    traced = bool(args.trace)
    workload_cls = WORKLOADS[args.workload]
    host = hostspeed.HostSpeed()
    # A traced run does not report set-up time, so it sets up once.
    workload, setup_costs = _setup(
        workload_cls, host, args.seed, traced, 1 if traced else args.setups
    )
    units = workload.units_for(args.seconds)
    recorder = tally = None
    try:
        if traced:
            recorder, tally = trace.Recorder(), trace.Tally()
            trace.install(recorder, tally)
        before = workload.counters()
        work = -workload.work_done()
        rows = _timed_region(workload, host, units, recorder)
        work += workload.work_done()
        if recorder is not None:
            recorder.uninstall()
        after = workload.counters()
        outcome = workload.outcome()
        extras = workload.layer_extras()
    finally:
        workload.close()
    cpu_s, walls = _reference_seconds(host, rows)
    tail_pct = trace.highest_supported_percentile(len(walls))
    # The tail is reported, not gated: across seeds its quartiles sit up
    # to 20% apart (README, "Noise floor"), wider than any bound allowed.
    tail_ms = 1e3 * trace.percentile(walls, tail_pct)
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "units": units,
        "work": work,
        "work_unit": workload.work_unit,
        "operation": workload.operation,
        "tail_percentile": tail_pct,
        "op_tail_ms": tail_ms,
        "output_sha256": outcome.output_sha256,
        "exact": outcome.exact,
        "deferred": outcome.deferred,
        "problems": outcome.problems,
        "setup_costs": setup_costs,
        "host_factor": cpu_s / sum(row[2] for row in rows),
    }
    if not traced:
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {
            "setup_s": statistics.median(setup_costs),
            "work_per_cpu_s": work / cpu_s,
            "op_p50_ms": 1e3 * trace.percentile(walls, 50),
            "peak_rss_mb": (own + children) / 1024.0,
        }
        wanted = spec["end_to_end"]
    else:
        scale = detail["host_factor"]
        values = trace.per_layer_metrics(
            recorder.spans,
            tally,
            {key: after[key] - before.get(key, 0.0) for key in after},
            scale,
            db_days=work / 24.0 if workload.work_unit == "db-hour" else 0.0,
            span_cost_s=trace.empty_span_cost(),
        )
        values["trace.work_per_cpu_s"] = work / cpu_s
        values["client.op_tail_ms"] = tail_ms
        values["client.tail_percentile"] = tail_pct
        values.update(
            {k: v * scale if k.endswith("_s") else v for k, v in extras.items()}
        )
        if workload_cls.reference is not None:
            # The same seed gives the reference the same inputs.
            reference, _costs = _setup(
                workload_cls.reference, host, args.seed, False, 1
            )
            try:
                ref_rows = _timed_region(reference, host, units)
            finally:
                reference.close()
            ref_cpu, ref_walls = _reference_seconds(host, ref_rows)
            values["parallel.cpu_overhead_ratio"] = cpu_s / ref_cpu
            values["parallel.speedup_wall"] = sum(ref_walls) / sum(walls)
        if args.trace_out:
            trace.write_trace(args.trace_out, recorder.spans)
        wanted = spec["per_layer"]
    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in wanted
    }
    print(json.dumps(detail, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": not outcome.problems,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


# ----------------------------------------------------------------------
# The orchestrator: children, repetitions, agreement, the table


def _child(workload: str, seed: int, seconds: float, traced: bool,
           setups: int, trace_out: Optional[str]) -> tuple:
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(traced)),
        "--setups", str(setups),
    ]
    if trace_out:
        command += ["--trace-out", trace_out]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True
    )
    if done.returncode != 0:
        sys.exit(f"{workload}: child exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def _disagreements(details: Sequence[dict], results: Sequence[dict]) -> List[str]:
    """Why the repetitions of one workload do not describe one output."""
    problems = [p for detail in details for p in detail["problems"]]
    problems += ["a run reported itself incorrect"
                 for result in results if not result["correct"]]
    first = details[0]
    for detail in details[1:]:
        if detail["output_sha256"] != first["output_sha256"]:
            problems.append("output_sha256 differs between repetitions")
        for key, value in first["exact"].items():
            if detail["exact"].get(key) != value:
                problems.append(f"{key} differs between repetitions")
    return problems


def _summarise(spec: dict, details, results, traced) -> dict:
    end_to_end = {}
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        q1, q2, q3 = quartiles(values)
        end_to_end[metric["name"]] = {
            "unit": metric["unit"], "better": metric["better"],
            "bound": metric["bound"], "n": len(values),
            "q1": q1, "median": q2, "q3": q3,
            "spread": spread(values), "values": values,
        }
    summary = {
        "output_sha256": details[0]["output_sha256"],
        "exact": details[0]["exact"],
        "units_per_run": details[0]["units"],
        "work_unit": details[0]["work_unit"],
        "operation": details[0]["operation"],
        "tail_percentile": details[0]["tail_percentile"],
        "op_tail_ms": dict(
            zip(("q1", "median", "q3"),
                quartiles([d["op_tail_ms"] for d in details]))
        ),
        "attempted": results[0]["attempted"],
        "failed": max(r["failed"] for r in results),
        "deferred": details[0]["deferred"],
        "end_to_end": end_to_end,
    }
    if traced is not None:
        _detail, result = traced
        layers = {k: v["value"] for k, v in result["metrics"].items()}
        summary["per_layer"] = layers
        summary["trace_overhead_measured"] = (
            end_to_end["work_per_cpu_s"]["median"]
            / layers["trace.work_per_cpu_s"]
        )
    return summary


def _print_table(spec: dict, name: str, summary: dict) -> None:
    print(f"\n== {name}: {summary['units_per_run']} x {summary['operation']}")
    print(f"   output_sha256 {summary['output_sha256']}")
    print(
        f"   attempted {summary['attempted']}  failed {summary['failed']}  "
        f"deferred analyses {summary['deferred']}"
    )
    tail = summary["op_tail_ms"]
    print(
        f"   op p{summary['tail_percentile']} {tail['median']:.1f} ms "
        f"(quartiles {tail['q1']:.1f}-{tail['q3']:.1f}; reported, not gated)"
    )
    print(f"   {'end-to-end metric':<18}{'unit':>6} {'better':>7}"
          f"{'median':>12}{'q1':>12}{'q3':>12}{'n':>4}{'spread':>8}{'bound':>7}")
    for metric, row in summary["end_to_end"].items():
        print(
            f"   {metric:<18}{row['unit']:>6} {row['better']:>7}"
            f"{row['median']:>12.4f}{row['q1']:>12.4f}{row['q3']:>12.4f}"
            f"{row['n']:>4}{row['spread']:>8.3f}{row['bound']:>7.2f}"
        )
    layers = summary.get("per_layer")
    if layers is None:
        return
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    # Self times of the single-process layers partition the timed region
    # (with the unattributed rest), so their shares add up.
    timed = [
        name for name, value in layers.items()
        if units[name] == "s" and value
        and not name.startswith("parallel.")
        and name != "controlplane.tuning_cpu_s_per_db_day"
    ]
    busy = sum(layers[name] for name in timed)
    print(f"   {'per-layer metric (traced run)':<40}{'unit':>6}"
          f"{'value':>14}{'share':>8}")
    for metric, value in layers.items():
        if not value:
            continue
        share = f"{value / busy:>8.1%}" if metric in timed else ""
        print(f"   {metric:<40}{units[metric]:>6}{value:>14.4f}{share}")
    idle = [metric for metric, value in layers.items() if not value]
    print(f"   0: {', '.join(idle)}")
    print(f"   traced run cost {summary['trace_overhead_measured']:.3f}x "
          "the untraced median (work_per_cpu_s)")


def orchestrate(args: argparse.Namespace) -> int:
    refuse_engine_switches()
    spec = load_spec()
    names = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = QUICK_SECONDS if args.quick else args.seconds
    reps = 1 if args.quick else args.reps
    setups = 1 if args.quick else SETUPS
    runs: Dict[str, list] = {name: [] for name in names}
    for _rep in range(reps):
        for name in names:  # round-robin, so drift hits every workload
            runs[name].append(
                _child(name, args.seed, seconds, False, setups, None)
            )
    failed = False
    report = {
        "schema": 1, "seed": args.seed, "seconds": seconds, "reps": reps,
        "host": {"cpus": os.cpu_count(), "python": platform.python_version(),
                 "machine": platform.machine()},
        "workloads": {},
    }
    for name in names:
        details = [d for d, _r in runs[name]]
        results = [r for _d, r in runs[name]]
        traced = None
        if not args.no_trace:
            trace_out = None
            if args.trace_out:
                path = pathlib.Path(args.trace_out)
                trace_out = str(path.with_name(f"{path.stem}.{name}{path.suffix}"))
            traced = _child(name, args.seed, seconds, True, setups, trace_out)
            details.append(traced[0])
            results.append(traced[1])
        problems = _disagreements(details, results)
        if problems:
            failed = True
            print(f"\n== {name}: INCORRECT, no numbers")
            for problem in sorted(set(problems)):
                print(f"   {problem}")
            continue
        summary = _summarise(spec, details[:reps], results[:reps], traced)
        report["workloads"][name] = summary
        _print_table(spec, name, summary)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
            handle.write("\n")
    return 1 if failed else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    spec_names = [w["name"] for w in load_spec()["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=spec_names)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="size of the timed region, in seconds of work "
                             "on the sizing host")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="measure once in this process: 0 end-to-end, "
                             "1 per-layer")
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--quick", action="store_true",
                        help="smoke: 1 repetition of a tiny timed region")
    parser.add_argument("--no-trace", action="store_true")
    parser.add_argument("--out", help="write the result JSON here")
    parser.add_argument("--trace-out",
                        help="write Chrome/Perfetto trace_event JSON here")
    parser.add_argument("--setups", type=int, default=SETUPS,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.trace is None:
        return orchestrate(args)
    if not args.workload or len(args.workload) != 1:
        parser.error("--trace needs exactly one --workload")
    args.workload = args.workload[0]
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
