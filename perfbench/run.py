"""fiberphase benchmark: three workloads, 12 end-to-end metrics, traced layers.

    python3 perfbench/run.py --workload cli_chain --seed 1 --seconds 25 --trace 0

`--workload` is cli_chain, mc_sweep, sagnac_budget or all.  `--trace 0`
prints all 12 end-to-end metrics with units; `--trace 1` prints the
per-layer metrics of a traced run.  The last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"} whose metrics are the
ones BENCHMARK.json lists for that mode.  `--smoke` runs tiny sizes with no
timing meaning, for the benchmark's own test.

Each measurement runs in a fresh worker process (worker.py) with BLAS
threads capped at 1.  The work per run is fixed: an op count chosen so that
it takes about `--seconds` on the reference 2-core machine.  End-to-end
times are corrected for the shared host's speed, probed next to the work
(hostspeed.py); the uncorrected times are printed and recorded too.  Run records
(environment, input sizes, every metric) and trace spans are written to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
BLAS_THREADS = "1"
SETUP_PROBES = 4  # extra set-up-only workers; setup_s is the median of 5
TIME_LIMIT_S = 175.0
DEV_SEED = 1  # seed used while writing changes
HOLDOUT_SEED = 20071205  # seed for checking a claim on unseen inputs

sys.path.insert(0, HERE)
from hostspeed import PROBE_REF_S  # noqa: E402
from metrics import END_TO_END, PER_LAYER, op_time_stats  # noqa: E402

WORKLOAD_NAMES = ("cli_chain", "mc_sweep", "sagnac_budget")


class BenchError(Exception):
    """The benchmark could not run or a worker failed."""


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env.pop("FIBERPHASE_OUT_DIR", None)
    return env


def spawn_worker(args, workload: str, deadline: float, setup_only: bool = False) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", OUT]
    if args.smoke:
        cmd.append("--smoke")
    if setup_only:
        cmd.append("--setup-only")
    started = time.monotonic()
    cmd += ["--started", repr(started)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=worker_env(), cwd=ROOT, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} worker exceeded the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited with {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def environment() -> dict:
    sha = "unknown (not a git checkout)"
    if os.path.exists(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        sha = done.stdout.strip() or sha
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = "missing"
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        **versions,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(BLAS_THREADS),
    }


def end_to_end(result: dict, setups: list[float], timing: dict) -> dict:
    """The 12 end-to-end metrics; None where a metric is not defined."""
    n_ops = result["n_ops"]
    wall = result["wall_s"]
    spo = result["describe"].get("samples_per_op")
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "cpu_s": result["cpu_s"],
        "ops_per_s": n_ops / wall,
        "samples_per_s": spo * n_ops / wall if spo else None,
        "peak_rss_mb": result["peak_rss_mb"],
        "fail_frac": len(result["failed"]) / n_ops,
        **result["quality"],
    }
    metrics["op_s.p50"] = timing["op_s.p50"]
    metrics["op_s.tail"] = timing["op_s.tail"]
    return {name: metrics[name] for name in END_TO_END}


def print_table(title: str, rows: list[tuple[str, object, str, str]]) -> None:
    print(f"== {title}")
    for name, value, unit, note in rows:
        shown = "n/a" if value is None else (
            f"{value:.6g}" if isinstance(value, float) else str(value))
        print(f"  {name:<44} {shown:>14} {unit:<8} {note}")


def run_workload(args, workload: str, spec: dict, env: dict, deadline: float) -> dict:
    result = spawn_worker(args, workload, deadline)
    record = {"workload": workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "environment": env,
              "input": result["describe"], "n_ops": result["n_ops"]}
    if args.trace == 0:
        probes = [spawn_worker(args, workload, deadline, setup_only=True)
                  for _ in range(SETUP_PROBES)]
        setups = [result["setup_s"]] + [r["setup_s"] for r in probes]
        raw_setups = [result["raw_setup_s"]] + [r["raw_setup_s"] for r in probes]
        timing = op_time_stats(result["op_times"])
        metrics = end_to_end(result, setups, timing)
        record["setup_samples_s"] = setups
        record["op_timing"] = timing
        record["uncorrected"] = {
            "setup_samples_s": raw_setups,
            "wall_s": result["raw_wall_s"],
            "cpu_s": result["raw_cpu_s"],
            "op_timing": op_time_stats(result["raw_op_times"]),
            "host_probes_s": result["probes_s"],
        }
        print_table(f"{workload}: end-to-end, {result['n_ops']} ops, seed {args.seed}", [
            (name, metrics[name], unit,
             "not defined for this workload" if metrics[name] is None else note)
            for name, (unit, note) in END_TO_END.items()
        ])
        print(f"  op_s.tail is p{timing['op_s.tail_pct']:.1f} of {timing['op_count']} ops")
        print(f"  uncorrected for host speed: setup_s {statistics.median(raw_setups):.4g}, "
              f"wall_s {result['raw_wall_s']:.4g}, cpu_s {result['raw_cpu_s']:.4g}; "
              f"median host probe {statistics.median(result['probes_s']) * 1e3:.3g} ms "
              f"(reference {PROBE_REF_S * 1e3:.3g} ms)")
        gated = [m["name"] for m in spec["end_to_end"]]
    else:
        metrics = result["per_layer"]
        record.update({k: result[k] for k in (
            "untraced_wall_s", "traced_wall_s", "self_time_sum_s", "calls",
            "commands", "spans_file")})
        print_table(f"{workload}: per layer (traced), {result['n_ops']} ops, seed {args.seed}", [
            (name, metrics[name], unit, f"moves {moves}")
            for name, (unit, _, moves) in PER_LAYER.items()
        ])
        print(f"  self times sum to {result['self_time_sum_s']:.4f} s; untraced wall "
              f"{result['untraced_wall_s']:.4f} s, traced wall {result['traced_wall_s']:.4f} s")
        gated = [m["name"] for m in spec["per_layer"]]
    for line in result["errors"]:
        print(f"  failure: {line}")
    missing = [name for name in gated if not _is_number(metrics.get(name))]
    if missing:
        raise BenchError(f"{workload}: no value for {', '.join(missing)}")
    failed = result["failed"]
    record["metrics"] = metrics
    record["failed_ops"] = failed
    record["errors"] = result["errors"]
    smoke = "-smoke" if args.smoke else ""
    path = os.path.join(OUT, f"{workload}-seed{args.seed}-trace{args.trace}{smoke}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return {
        "correct": result["correct"],
        "attempted": result["n_ops"],
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": _unit(spec, name)}
                    for name in gated},
    }


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def _unit(spec: dict, name: str) -> str:
    for metric in spec["end_to_end"] + spec["per_layer"]:
        if metric["name"] == name:
            return metric["unit"]
    raise BenchError(f"{name} is not in BENCHMARK.json")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True,
                   help=f"workload seed >= 0 (development {DEV_SEED}, hold-out {HOLDOUT_SEED})")
    p.add_argument("--seconds", type=int, default=25,
                   help="sizes the fixed work to about this long on the reference machine")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, no timing meaning")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    try:
        if not os.path.isfile(os.path.join(ROOT, "src", "fiberphase", "__init__.py")):
            raise BenchError(f"no fiberphase sources under {os.path.join(ROOT, 'src')}")
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        os.makedirs(OUT, exist_ok=True)
        env = environment()
        print("# environment: " + json.dumps(env))
        names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
        deadline = time.monotonic() + TIME_LIMIT_S * len(names)
        results = {name: run_workload(args, name, spec, env, deadline) for name in names}
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        final = results[args.workload]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {name: r["metrics"] for name, r in results.items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
