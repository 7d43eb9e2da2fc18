"""One benchmark worker: set up a workload, run its fixed work, print JSON.

Started by run.py in a fresh process with BLAS threads capped, so that the
cap is in place before numpy loads.  `--started` is the parent's
`time.monotonic()` just before the process was spawned; set-up time runs
from there to the first timed op.  The last line of stdout is the result.

With `--trace 0` the worker times the fixed work with nothing patched.
With `--trace 1` it first makes a short memory pass with tracemalloc on,
which gives the peaks; it is kept apart because tracemalloc slows text I/O
several-fold.  It then runs the fixed work twice, op by op in lock-step:
untraced, and traced with spans only (self times, counts and the tracing
overhead).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import itertools
import json
import os
import resource
import sys
import time

from hostspeed import SpeedMeter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

LAYERS = ("cli", "fileio", "noise", "interferometer", "analysis", "repeater",
          "presets", "errors")


def import_layers() -> dict:
    """Import fiberphase from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    modules = {name: importlib.import_module(f"fiberphase.{name}") for name in LAYERS}
    origin = os.path.dirname(os.path.abspath(modules["cli"].__file__))
    if origin != os.path.join(SRC, "fiberphase"):
        raise SystemExit(f"fiberphase imported from {origin}, not from {SRC}")
    return modules


def run_lanes(fp, lanes: list) -> list[dict]:
    """Run the ops of each lane, a (workload, tracer or None) pair, in
    lock-step, so that a traced and an untraced lane see the same machine
    state.  Lanes take turns by unit (one op, or one mc_sweep sweep, which
    allocates and frees its own memory), alternating which lane goes first.
    A tracer is installed only around its own lane's units.

    A lone untraced lane probes the host speed before its first unit, after
    every unit and between the steps of an op (hostspeed.py); lanes in
    lock-step share the machine state and are not corrected."""
    fiberphase_error = fp["errors"].FiberPhaseError
    correct = len(lanes) == 1 and lanes[0][1] is None
    results = [{"meter": SpeedMeter(correct), "failed": set(), "errors": []} for _ in lanes]
    unit = lanes[0][0].unit_ops
    for u, first in enumerate(range(0, lanes[0][0].n_ops, unit)):
        order = list(zip(lanes, results))
        for (workload, tracer), res in (order if u % 2 == 0 else order[::-1]):
            # Every unit starts from an empty collector, as a fresh CLI
            # process would; otherwise full collections during the 1e6-row
            # CSV parse land on whichever lane the allocation history picks.
            gc.collect()
            if tracer is not None:
                tracer.install(fp)
            try:
                for i in range(first, min(first + unit, workload.n_ops)):
                    _run_op(workload, tracer, i, fiberphase_error, res)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            res["meter"].checkpoint()
    for (workload, _), res in zip(lanes, results):
        workload.close()
        meter = res.pop("meter")
        res.update({
            "wall_s": meter.wall, "cpu_s": meter.cpu,
            "raw_wall_s": meter.raw_wall, "raw_cpu_s": meter.raw_cpu,
            "op_times": [meter.op_wall[i] for i in sorted(meter.op_raw) if i >= 0],
            "raw_op_times": [meter.op_raw[i] for i in sorted(meter.op_raw) if i >= 0],
            "speed_first": meter.first_speed(), "probes_s": meter.probes,
        })
        res["correct"] = not any(workload.has_oracle(i) for i in res["failed"])
        res["failed"] = sorted(res["failed"])
        res["errors"] += workload.errors
    return results


def _run_op(workload, tracer, i: int, fiberphase_error, res: dict) -> None:
    """Run op `i`, then the work after it; the meter books the op's steps
    under `i` and the work after it under -1."""
    meter = res["meter"]

    def checkpoint():
        meter.stop(i)
        meter.checkpoint()
        meter.start()

    workload.checkpoint = checkpoint
    meter.start()
    try:
        with _span(tracer, "bench.op", i):
            ok = workload.op(i)
    except fiberphase_error as exc:
        ok = False
        res["errors"].append(f"op {i}: {type(exc).__name__}: {exc}")
    meter.stop(i)
    meter.start()
    with _span(tracer, "bench.after", -1):
        res["failed"].update(workload.after(i))
    meter.stop(-1)
    if not ok:
        res["failed"].add(i)


def _span(tracer, name: str, op: int):
    if tracer is None:
        return contextlib.nullcontext()
    tracer.op = op
    return tracer.span(name)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--started", type=float, required=True)
    p.add_argument("--out", required=True, help="directory for work files and spans")
    args = p.parse_args(argv)

    fp = import_layers()
    from workloads import WORKLOADS, n_ops_for

    cls = WORKLOADS[args.workload]
    n_ops = n_ops_for(cls, args.seconds, args.smoke)
    instance = itertools.count(1)

    def build():
        workdir = os.path.join(args.out, f"work-{os.getpid()}-{next(instance)}")
        return cls(fp, args.seed, n_ops, args.smoke, workdir)

    workload = build()
    result = {"raw_setup_s": time.monotonic() - args.started}
    if args.setup_only:
        workload.close()
        result["speed_first"] = SpeedMeter().first_speed()
    elif args.trace == 0:
        result.update(run_lanes(fp, [(workload, None)])[0])
        result["quality"] = workload.quality()
        result["n_ops"] = workload.n_ops
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        result.update(traced_run(fp, workload, build, args))
    result["setup_s"] = result["raw_setup_s"] * result.get("speed_first", 1.0)
    result["describe"] = workload.describe()
    print(json.dumps(result))
    return 0


def traced_run(fp, workload, build, args) -> dict:
    from metrics import per_layer
    from tracer import Tracer

    # The memory pass goes first: it also pays the process's first-op costs
    # (page faults of a fresh heap), which would otherwise fall on one lane.
    memory_tracer = Tracer(memory=True)
    memory_workload = build()
    memory_workload.n_ops = memory_workload.memory_ops
    run_lanes(fp, [(memory_workload, memory_tracer)])

    tracer = Tracer()
    timed_workload = build()
    if workload.traced_ops is not None:
        workload.n_ops = timed_workload.n_ops = min(workload.n_ops, workload.traced_ops)
    untraced, traced = run_lanes(fp, [(workload, None), (timed_workload, tracer)])
    spans_path = os.path.join(args.out, f"spans-{args.workload}-seed{args.seed}.jsonl")
    tracer.dump(spans_path, tracer.spans[0]["start"] if tracer.spans else 0.0)

    timed = tracer.self_times()
    commands: dict[str, dict] = {}
    for span in tracer.spans:
        if span["name"] == "cli.main":
            row = commands.setdefault(span["label"], {"s": 0.0, "peak_b": 0})
            row["s"] += (span["end"] - span["start"]) / timed_workload.n_ops
    for span in memory_tracer.spans:
        if span["name"] == "cli.main":
            row = commands.setdefault(span["label"], {"s": 0.0, "peak_b": 0})
            row["peak_b"] = max(row["peak_b"], span["peak_b"])
    overhead = traced["wall_s"] / untraced["wall_s"] - 1.0
    layers = per_layer(timed, memory_tracer.self_times(), tracer.counts, overhead, commands)
    return {
        "untraced_wall_s": untraced["wall_s"],
        "traced_wall_s": traced["wall_s"],
        "self_time_sum_s": sum(row["self_s"] for row in timed.values()),
        "per_layer": layers,
        "calls": {name: row["calls"] for name, row in timed.items()},
        "commands": commands,
        "correct": traced["correct"],
        "failed": traced["failed"],
        "errors": traced["errors"],
        "n_ops": timed_workload.n_ops,
        "spans_file": os.path.relpath(spans_path, ROOT),
    }


if __name__ == "__main__":
    sys.exit(main())
