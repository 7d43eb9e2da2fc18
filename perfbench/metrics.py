"""Metric definitions: the 12 end-to-end metrics and the per-layer metrics.

BENCHMARK.json lists the end-to-end metrics that are gated (never zero and
steady enough across seeds) and the per-layer metrics a traced run reports.
Every end-to-end time is corrected for the shared host's speed
(hostspeed.py), so it reads as seconds on the reference machine in its fast
mode.
The remaining end-to-end metrics are printed by every untraced run but not
gated: `samples_per_s` and the accuracy metrics exist only on some
workloads, `fail_frac` is zero on two of them, the estimator errors change
with the realization, i.e. with the seed, `ops_per_s` is the op count over
`wall_s`, which is gated, and the op-time percentiles jump between the two
speed modes of the shared host.

The last field of each PER_LAYER entry names the end-to-end metric and
workload that the per-layer metric should move.  A later change that
claims a gain cites these names.
"""

from __future__ import annotations

import statistics

# name -> (unit, description)
END_TO_END = {
    "setup_s": ("s", "worker start to first timed op, median of 5 set-ups"),
    "wall_s": ("s", "wall time of the run's fixed work"),
    "cpu_s": ("s", "user + sys CPU time of the same work"),
    "ops_per_s": ("1/s", "ops completed per second of wall time"),
    "samples_per_s": ("1/s", "trace samples carried through per second"),
    "op_s.p50": ("s", "median op time"),
    "op_s.tail": ("s", "highest percentile with >= 10 ops beyond it"),
    "peak_rss_mb": ("MB", "worker ru_maxrss"),
    "fail_frac": ("ratio", "ops that raised or failed their check / ops attempted"),
    "tau01_rel_err": ("ratio", "|tau_0.1 - 350 us| / 350 us, night preset"),
    "hurst_abs_err": ("rad/rad", "median over trials of |fitted exponent - 0.8|"),
    "diffusion_rel_err": ("ratio", "median |D_hat - D| / D over ops that passed"),
}

CLI = "wall_s on cli_chain"
CLI_IO = "wall_s, samples_per_s and peak_rss_mb on cli_chain"
MC = "ops_per_s on mc_sweep"
MC_CLI = "ops_per_s on mc_sweep and wall_s on cli_chain"
MEM = "peak_rss_mb on mc_sweep and cli_chain"
SAGNAC = "wall_s on sagnac_budget"
FAIL = "fail_frac on sagnac_budget"
FIXED = "nothing: closed forms, shown not to move (sagnac_budget)"

# name -> (unit, better, moves)
PER_LAYER = {
    "cli.main.self_s": ("s", "lower", CLI),
    "cli.parse_cli.self_s": ("s", "lower", CLI),
    "fileio.write_trace.self_s": ("s", "lower", CLI_IO),
    "fileio.read_trace.self_s": ("s", "lower", CLI_IO),
    "fileio.write_dphi_curve.self_s": ("s", "lower", CLI_IO),
    "fileio.read_dphi_curve.self_s": ("s", "lower", CLI_IO),
    "fileio.write_report.self_s": ("s", "lower", CLI_IO),
    "fileio.sha256_of_file.self_s": ("s", "lower", CLI_IO),
    "fileio.read_trace.peak_mb": ("MB", "lower", CLI_IO),
    "fileio.bytes_written": ("B", "lower", CLI_IO),
    "fileio.bytes_read": ("B", "lower", CLI_IO),
    "noise.sample_trace.self_s": ("s", "lower", MC),
    "noise.sample_trace.peak_mb": ("MB", "lower", MC),
    "noise.steps": ("count", "lower", MC),
    "interferometer.simulate_mz_trace.self_s": ("s", "lower", MC_CLI),
    "interferometer.simulate_fringe_scan.self_s": ("s", "lower", SAGNAC),
    "interferometer.pulses": ("count", "lower", SAGNAC),
    "analysis.extract_phase.self_s": ("s", "lower", MC_CLI),
    "analysis.extract_phase.valid_frac": ("ratio", "higher", MC_CLI),
    "analysis.segments": ("count", "lower", MC_CLI),
    "analysis.increment_sets.self_s": ("s", "lower", MC_CLI),
    "analysis.increment_sets.peak_mb": ("MB", "lower", MEM),
    "analysis.increments": ("count", "lower", MEM),
    "analysis.increment_bytes": ("B", "lower", MEM),
    "analysis.pool_stats.self_s": ("s", "lower", MC),
    "analysis.pool_stats.peak_mb": ("MB", "lower", MEM),
    "analysis.mean_phase_change.self_s": ("s", "lower", MC_CLI),
    "analysis.gaussian_widths.self_s": ("s", "lower", MC_CLI),
    "analysis.tau_threshold.self_s": ("s", "lower", MC_CLI),
    "analysis.fit_scaling_exponent.self_s": ("s", "lower", MC),
    "analysis.fit_fringe.self_s": ("s", "lower", FAIL),
    "analysis.errors": ("count", "lower", FAIL),
    "repeater.budget_per_segment.self_s": ("s", "lower", FIXED),
    "repeater.monte_carlo_fidelity.self_s": ("s", "lower", FIXED),
    "repeater.mc_samples": ("count", "lower", FIXED),
    "bench.self_s": ("s", "lower", "nothing: the benchmark's own glue and checks"),
    "trace.overhead_frac": ("ratio", "lower", "nothing: traced / untraced wall_s - 1"),
}

# The four CLI commands of cli_chain: time (traced pass) and peak memory
# (memory pass) of each, reproducing the ROADMAP's per-command chain row.
COMMANDS = ("simulate mz", "analyze phase", "analyze dphi", "analyze tau-threshold")
for _cmd in COMMANDS:
    _key = "cli.cmd." + _cmd.replace(" ", "_")
    PER_LAYER[_key + ".s"] = ("s", "lower", CLI)
    PER_LAYER[_key + ".peak_mb"] = ("MB", "lower", CLI_IO)

MB = 2.0**20


def op_time_stats(op_times: list[float]) -> dict:
    """Median op time and the tail: the highest percentile with at least ten
    ops beyond it (the slowest op when there are ten ops or fewer)."""
    ordered = sorted(op_times)
    n = len(ordered)
    rank = max(n - 11, 0) if n > 10 else n - 1
    return {
        "op_s.p50": statistics.median(ordered),
        "op_s.tail": ordered[rank],
        "op_s.tail_pct": 100.0 * (rank + 1) / n,
        "op_count": n,
    }


def per_layer(timed: dict, memory: dict, counts: dict, overhead_frac: float,
              commands: dict) -> dict:
    """Per-layer metric values from the traced pass (`timed` self times,
    `counts`) and the memory pass (`memory` peaks); layers a workload never
    calls read zero."""
    out = {}
    for name in PER_LAYER:
        span, _, field = name.rpartition(".")
        if field == "self_s" and span != "bench":
            out[name] = timed.get(span, {}).get("self_s", 0.0)
        elif field == "peak_mb" and not name.startswith("cli.cmd."):
            out[name] = memory.get(span, {}).get("peak_b", 0) / MB
    out["bench.self_s"] = sum(timed.get(n, {}).get("self_s", 0.0)
                              for n in ("bench.op", "bench.after"))
    for name in ("fileio.bytes_written", "fileio.bytes_read", "noise.steps",
                 "interferometer.pulses", "analysis.segments", "analysis.increments",
                 "analysis.errors", "repeater.mc_samples"):
        out[name] = counts.get(name, 0)
    attempted = counts.get("analysis.extract_phase.attempted", 0)
    out["analysis.extract_phase.valid_frac"] = (
        counts.get("analysis.extract_phase.valid", 0) / attempted if attempted else 0.0
    )
    out["analysis.increment_bytes"] = 8 * out["analysis.increments"]
    out["trace.overhead_frac"] = overhead_frac
    for cmd in COMMANDS:
        key = "cli.cmd." + cmd.replace(" ", "_")
        row = commands.get(cmd, {})
        out[key + ".s"] = row.get("s", 0.0)
        out[key + ".peak_mb"] = row.get("peak_b", 0) / MB
    return out
