"""Command-line interface tying simulation, analysis and budgeting together.

Flags take field-friendly units (us, ms, km, rad); files always carry SI
seconds and radians; conversion happens here and nowhere else.  Every
run is deterministic: the seed defaults to DEFAULT_SEED and identical
(config, seed, input files) produce byte-identical outputs.

Subcommands::

    simulate noise|fringe|mz
    analyze  fringe|phase|dphi|tau-threshold|exponent|diffusion
    repeater budget|fidelity

Set FIBERPHASE_OUT_DIR to redirect relative output paths.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

from . import analysis, fileio, interferometer, repeater
from .errors import DomainError, FiberPhaseError
from .fileio import ReportDocument
from .noise import DEFAULT_GROUP_INDEX, NoiseParams, PhaseTrace, build_process
from .presets import preset_params

DEFAULT_SEED = 12345

__all__ = ["DEFAULT_SEED", "RunConfig", "parse_cli", "run", "main"]


@dataclasses.dataclass
class RunConfig:
    """Fully-resolved configuration of one CLI run (SI units)."""

    command: tuple[str, str]
    params: dict
    seed: int | None = None
    inputs: dict = dataclasses.field(default_factory=dict)
    outputs: dict = dataclasses.field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "command": " ".join(self.command),
            "params": self.params,
            "seed": self.seed,
            "inputs": dict(self.inputs),
            "outputs": dict(self.outputs),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        group, _, command = data["command"].partition(" ")
        return cls(
            command=(group, command),
            params=data["params"],
            seed=data["seed"],
            inputs=dict(data.get("inputs", {})),
            outputs=dict(data.get("outputs", {})),
        )


def _positive(flag: str, value: float) -> float:
    if value is None or not (value > 0):
        raise DomainError(f"{flag} must be positive, got {value}")
    return value


def _non_negative(flag: str, value: float) -> float:
    if value is None or value < 0:
        raise DomainError(f"{flag} must be >= 0, got {value}")
    return value


def _resolve_out(path: str) -> str:
    base = os.environ.get("FIBERPHASE_OUT_DIR")
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


# ---------------------------------------------------------------------------
# parser construction

def _add_process_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("noise process")
    g.add_argument("--sigma-ref", type=float, help="phase std-dev at the reference lag (rad)")
    g.add_argument("--tau-ref-us", type=float, help="reference lag (us)")
    g.add_argument("--hurst", type=float, default=0.5, help="scaling exponent in (0,1)")
    g.add_argument("--drift-rate", type=float, default=0.0, help="linear phase drift (rad/s)")
    g.add_argument("--length-km", type=float, help="fiber length the calibration refers to (km)")
    g.add_argument("--group-index", type=float, default=DEFAULT_GROUP_INDEX)
    preset = g.add_mutually_exclusive_group()
    preset.add_argument("--day", action="store_true",
                        help="daytime urban-fiber calibration preset")
    preset.add_argument("--night", action="store_true",
                        help="nighttime urban-fiber calibration preset")


def _add_grid_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--duration-ms", type=float, required=True, help="trace duration (ms)")
    p.add_argument("--dt-us", type=float, required=True, help="sample interval (us)")


def _add_seed(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"random seed (default {DEFAULT_SEED})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fiberphase",
        description="Simulate and analyze phase noise in long fiber interferometers.",
    )
    top = parser.add_subparsers(dest="group", required=True)

    sim = top.add_parser("simulate", help="generate synthetic records")
    sim_sub = sim.add_subparsers(dest="command", required=True)

    p = sim_sub.add_parser("noise", help="sample a phase trace")
    _add_process_flags(p)
    _add_grid_flags(p)
    _add_seed(p)
    p.add_argument("--out", required=True, help="phase trace CSV to write")
    p.add_argument("--report", help="JSON report to write")

    p = sim_sub.add_parser("mz", help="simulate a Mach-Zehnder intensity trace")
    _add_process_flags(p)
    _add_grid_flags(p)
    _add_seed(p)
    p.add_argument("--i-max", type=float, default=1.0)
    p.add_argument("--i-min", type=float, default=0.0)
    p.add_argument("--phi0", type=float, default=math.pi / 2,
                   help="static arm phase offset (rad); default pi/2 (mid-fringe)")
    p.add_argument("--out", required=True, help="intensity trace CSV to write")
    p.add_argument("--report")

    p = sim_sub.add_parser("fringe", help="scan a Sagnac fringe")
    _add_process_flags(p)
    _add_seed(p)
    p.add_argument("--loop-km", type=float, required=True, help="Sagnac loop length (km)")
    p.add_argument("--points", type=int, default=50, help="scan points over one fringe")
    p.add_argument("--pulses-per-point", type=int, default=1000)
    p.add_argument("--detector-noise", type=float, default=0.0)
    p.add_argument("--i0", type=float, default=1.0, help="mean full intensity")
    p.add_argument("--out", required=True, help="fringe scan CSV to write")
    p.add_argument("--report")

    ana = top.add_parser("analyze", help="reduce measured or simulated records")
    ana_sub = ana.add_subparsers(dest="command", required=True)

    p = ana_sub.add_parser("fringe", help="sinusoidal fit of a fringe scan")
    p.add_argument("--in", dest="infile", required=True, help="fringe scan CSV")
    p.add_argument("--report")

    p = ana_sub.add_parser("phase", help="extract phase from an intensity trace")
    p.add_argument("--in", dest="infile", required=True, help="intensity trace CSV")
    p.add_argument("--band-lo", type=float, default=0.2,
                   help="lower edge of the usable normalized-intensity band")
    p.add_argument("--band-hi", type=float, default=0.8)
    p.add_argument("--out", required=True, help="phase trace CSV to write")
    p.add_argument("--report")

    p = ana_sub.add_parser("dphi", help="mean phase change vs lag")
    p.add_argument("--in", dest="infile", required=True, help="phase trace CSV")
    p.add_argument("--tau-max-us", type=float, required=True, help="largest lag (us)")
    p.add_argument("--max-lags", type=int, default=analysis.DEFAULT_MAX_LAGS)
    p.add_argument("--histogram-tau-us", type=float,
                   help="also export the increment histogram at this lag (us)")
    p.add_argument("--histogram-out", help="histogram CSV (with --histogram-tau-us)")
    p.add_argument("--out", required=True, help="dphi curve CSV to write")
    p.add_argument("--report")

    p = ana_sub.add_parser("tau-threshold", help="lag at which dphi reaches a target")
    p.add_argument("--in", dest="infile", required=True, help="dphi curve CSV")
    p.add_argument("--dphi", type=float, default=0.1, help="target mean phase change (rad)")
    p.add_argument("--report")

    p = ana_sub.add_parser("exponent", help="scaling exponent of dphi(tau)")
    p.add_argument("--in", dest="infile", required=True, help="dphi curve CSV")
    p.add_argument("--tau-min-us", type=float, required=True)
    p.add_argument("--tau-max-us", type=float, required=True)
    p.add_argument("--report")

    p = ana_sub.add_parser("diffusion", help="diffusion coefficient from sigma or visibility")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--visibility", type=float)
    src.add_argument("--sigma", type=float)
    p.add_argument("--length-km", type=float, required=True)
    p.add_argument("--report")

    rep = top.add_parser("repeater", help="phase budgets for repeater chains")
    rep_sub = rep.add_subparsers(dest="command", required=True)

    p = rep_sub.add_parser("budget", help="per-segment phase allowance")
    p.add_argument("--total-km", type=float, required=True)
    p.add_argument("--links", type=int, required=True)
    p.add_argument("--fidelity", type=float, required=True)
    p.add_argument("--segment-km", type=float, required=True)
    p.add_argument("--report")

    p = rep_sub.add_parser("fidelity", help="fidelity from phase noise")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--sigma", type=float, help="total phase-noise width (rad)")
    src.add_argument("--visibility", type=float)
    src.add_argument("--diffusion", type=float, help="rad^2/km, with --link-km")
    p.add_argument("--link-km", help="comma-separated link lengths (km)")
    p.add_argument("--monte-carlo", type=int,
                   help="also estimate by Monte Carlo with this many samples")
    _add_seed(p)
    p.add_argument("--report")

    return parser


# ---------------------------------------------------------------------------
# args -> RunConfig

def _process_from_args(args) -> dict:
    preset = "day" if args.day else "night" if args.night else None
    if preset is not None:
        if args.sigma_ref is not None or args.tau_ref_us is not None:
            raise DomainError(
                f"--{preset} cannot be combined with --sigma-ref/--tau-ref-us"
            )
        params = preset_params(preset, hurst=args.hurst)
        params = dataclasses.replace(
            params,
            drift_rate=args.drift_rate,
            group_index=args.group_index,
            length_km=args.length_km if args.length_km is not None else params.length_km,
        )
    else:
        if args.sigma_ref is None:
            raise DomainError("--sigma-ref is required without --day/--night")
        if args.tau_ref_us is None:
            raise DomainError("--tau-ref-us is required without --day/--night")
        _non_negative("--sigma-ref", args.sigma_ref)
        _positive("--tau-ref-us", args.tau_ref_us)
        params = NoiseParams(
            sigma_ref=args.sigma_ref,
            tau_ref=args.tau_ref_us * 1e-6,
            hurst=args.hurst,
            drift_rate=args.drift_rate,
            length_km=args.length_km,
            group_index=args.group_index,
        )
    return {
        "sigma_ref": params.sigma_ref,
        "tau_ref_s": params.tau_ref,
        "hurst": params.hurst,
        "drift_rate": params.drift_rate,
        "length_km": params.length_km,
        "group_index": params.group_index,
    }


def _params_to_process(block: dict):
    return build_process(NoiseParams(
        sigma_ref=block["sigma_ref"],
        tau_ref=block["tau_ref_s"],
        hurst=block["hurst"],
        drift_rate=block["drift_rate"],
        length_km=block["length_km"],
        group_index=block["group_index"],
    ))


def _grid_from_args(args) -> dict:
    _positive("--duration-ms", args.duration_ms)
    _positive("--dt-us", args.dt_us)
    return {"duration_s": args.duration_ms * 1e-3, "dt_s": args.dt_us * 1e-6}


def parse_cli(argv=None) -> RunConfig:
    """Parse and validate argv into a fully-resolved RunConfig.

    Unknown flags or subcommands exit with code 2 (argparse usage error);
    invalid values raise DomainError, which main() maps to exit code 1.
    """
    args = build_parser().parse_args(argv)
    command = (args.group, args.command)
    params: dict = {}
    inputs: dict = {}
    outputs: dict = {}
    seed = None

    if command == ("simulate", "noise"):
        params["process"] = _process_from_args(args)
        params.update(_grid_from_args(args))
        seed = args.seed
        outputs["trace"] = args.out
    elif command == ("simulate", "mz"):
        params["process"] = _process_from_args(args)
        params.update(_grid_from_args(args))
        if not (args.i_max > args.i_min):
            raise DomainError(
                f"--i-max must exceed --i-min, got {args.i_max} and {args.i_min}"
            )
        params.update({"i_max": args.i_max, "i_min": args.i_min, "phi0_rad": args.phi0})
        seed = args.seed
        outputs["trace"] = args.out
    elif command == ("simulate", "fringe"):
        params["process"] = _process_from_args(args)
        params["loop_km"] = _positive("--loop-km", args.loop_km)
        if args.points < 4:
            raise DomainError(f"--points must be >= 4, got {args.points}")
        if args.pulses_per_point < 1:
            raise DomainError(
                f"--pulses-per-point must be >= 1, got {args.pulses_per_point}"
            )
        params.update({
            "n_points": args.points,
            "pulses_per_point": args.pulses_per_point,
            "detector_noise": args.detector_noise,
            "i0": _positive("--i0", args.i0),
        })
        seed = args.seed
        outputs["scan"] = args.out
    elif command == ("analyze", "fringe"):
        inputs["scan"] = args.infile
    elif command == ("analyze", "phase"):
        if not (0 < args.band_lo < args.band_hi < 1):
            raise DomainError(
                f"--band-lo/--band-hi must satisfy 0 < lo < hi < 1, "
                f"got {args.band_lo} and {args.band_hi}"
            )
        params.update({"band_lo": args.band_lo, "band_hi": args.band_hi})
        inputs["trace"] = args.infile
        outputs["phase"] = args.out
    elif command == ("analyze", "dphi"):
        params["tau_max_s"] = _positive("--tau-max-us", args.tau_max_us) * 1e-6
        if args.max_lags < 1:
            raise DomainError(f"--max-lags must be >= 1, got {args.max_lags}")
        params["max_lags"] = args.max_lags
        if args.histogram_tau_us is not None:
            _positive("--histogram-tau-us", args.histogram_tau_us)
            if not args.histogram_out:
                raise DomainError("--histogram-out is required with --histogram-tau-us")
            params["histogram_tau_s"] = args.histogram_tau_us * 1e-6
            outputs["histogram"] = args.histogram_out
        else:
            params["histogram_tau_s"] = None
        inputs["phase"] = args.infile
        outputs["curve"] = args.out
    elif command == ("analyze", "tau-threshold"):
        params["target_rad"] = _positive("--dphi", args.dphi)
        inputs["curve"] = args.infile
    elif command == ("analyze", "exponent"):
        lo = _positive("--tau-min-us", args.tau_min_us)
        hi = _positive("--tau-max-us", args.tau_max_us)
        if not (lo < hi):
            raise DomainError(
                f"--tau-min-us must be below --tau-max-us, got {lo} and {hi}"
            )
        params.update({"tau_min_s": lo * 1e-6, "tau_max_s": hi * 1e-6})
        inputs["curve"] = args.infile
    elif command == ("analyze", "diffusion"):
        if args.visibility is not None and not (0 < args.visibility <= 1):
            raise DomainError(f"--visibility must be in (0, 1], got {args.visibility}")
        if args.sigma is not None:
            _non_negative("--sigma", args.sigma)
        params.update({
            "visibility": args.visibility,
            "sigma_rad": args.sigma,
            "length_km": _positive("--length-km", args.length_km),
        })
    elif command == ("repeater", "budget"):
        params.update({
            "total_km": _positive("--total-km", args.total_km),
            "n_links": args.links,
            "target_fidelity": args.fidelity,
            "segment_km": _positive("--segment-km", args.segment_km),
        })
        if args.links < 1:
            raise DomainError(f"--links must be >= 1, got {args.links}")
        if not (0.5 < args.fidelity < 1):
            raise DomainError(f"--fidelity must be in (0.5, 1), got {args.fidelity}")
        if args.segment_km > args.total_km / args.links:
            raise DomainError(
                f"--segment-km must not exceed one link "
                f"({args.total_km / args.links:g} km), got {args.segment_km}"
            )
    elif command == ("repeater", "fidelity"):
        link_km = None
        if args.diffusion is not None:
            _non_negative("--diffusion", args.diffusion)
            if not args.link_km:
                raise DomainError("--link-km is required with --diffusion")
            try:
                link_km = [float(x) for x in args.link_km.split(",") if x.strip()]
            except ValueError:
                raise DomainError(f"--link-km must be comma-separated numbers, got {args.link_km!r}")
            for x in link_km:
                _positive("--link-km", x)
        if args.visibility is not None and not (0 < args.visibility <= 1):
            raise DomainError(f"--visibility must be in (0, 1], got {args.visibility}")
        if args.sigma is not None:
            _non_negative("--sigma", args.sigma)
        if args.monte_carlo is not None and args.monte_carlo < 1:
            raise DomainError(f"--monte-carlo must be >= 1, got {args.monte_carlo}")
        params.update({
            "sigma_rad": args.sigma,
            "visibility": args.visibility,
            "diffusion": args.diffusion,
            "link_km": link_km,
            "monte_carlo_samples": args.monte_carlo,
        })
        seed = args.seed if args.monte_carlo is not None else None
    else:  # pragma: no cover - argparse enforces the command set
        raise DomainError(f"unknown command {command}")

    if "report" in vars(args) and args.report:
        outputs["report"] = args.report
    return RunConfig(command=command, params=params, seed=seed,
                     inputs=inputs, outputs=outputs)


# ---------------------------------------------------------------------------
# execution

def _summarize(block_name: str, values: dict) -> str:
    parts = []
    for key, val in values.items():
        if isinstance(val, float):
            parts.append(f"{key}={val:.6g}")
        elif isinstance(val, (str, int, bool)) or val is None:
            parts.append(f"{key}={val}")
    return f"{block_name}: " + " ".join(parts)


def run(config: RunConfig) -> int:
    """Execute a RunConfig: compute, write outputs, print one summary per block."""
    report = ReportDocument(config=config.to_dict())
    out = {k: _resolve_out(v) for k, v in config.outputs.items()}
    handler = _HANDLERS[config.command]
    blocks = handler(config, report, out)
    for name, values in blocks.items():
        report.results[name] = values
        print(_summarize(name, values))
    if "report" in out:
        fileio.write_report(out["report"], report)
    written = [path for role, path in out.items()]
    if written:
        print("wrote: " + " ".join(written))
    return 0


def _run_simulate_noise(config, report, out):
    process = _params_to_process(config.params["process"])
    trace = process.sample_trace(
        config.params["duration_s"], config.params["dt_s"], config.seed
    )
    fileio.write_trace(out["trace"], trace)
    return {"trace": {
        "kind": "phase",
        "n_samples": trace.n_samples,
        "dt_s": trace.dt,
        "duration_s": config.params["duration_s"],
    }}


def _run_simulate_mz(config, report, out):
    p = config.params
    process = _params_to_process(p["process"])
    trace = interferometer.simulate_mz_trace(
        process, p["duration_s"], p["dt_s"],
        i_max=p["i_max"], i_min=p["i_min"], phi0=p["phi0_rad"], seed=config.seed,
    )
    fileio.write_trace(out["trace"], trace)
    return {"trace": {
        "kind": "intensity",
        "n_samples": trace.n_samples,
        "dt_s": trace.dt,
        "i_max": trace.i_max,
        "i_min": trace.i_min,
    }}


def _run_simulate_fringe(config, report, out):
    p = config.params
    process = _params_to_process(p["process"])
    scan = interferometer.simulate_fringe_scan(
        process, p["loop_km"], p["n_points"], p["pulses_per_point"],
        detector_noise=p["detector_noise"], seed=config.seed, i0=p["i0"],
    )
    fileio.write_fringe_scan(out["scan"], scan)
    sigma = interferometer.sagnac_effective_sigma(process, p["loop_km"])
    return {"fringe_scan": {
        "loop_km": p["loop_km"],
        "effective_sigma_rad": sigma,
        "expected_visibility": interferometer.visibility_from_sigma(sigma),
        "n_points": p["n_points"],
    }}


def _run_analyze_fringe(config, report, out):
    path = config.inputs["scan"]
    scan = fileio.read_fringe_scan(path)
    report.add_input(path)
    fit = analysis.fit_fringe(scan)
    sigma = (
        interferometer.sigma_from_visibility(fit.visibility)
        if 0 < fit.visibility <= 1
        else None
    )
    return {"fringe_fit": {
        "offset": fit.offset,
        "cos_amp": fit.cos_amp,
        "sin_amp": fit.sin_amp,
        "visibility": fit.visibility,
        "residual_rms": fit.residual_rms,
        "sigma_rad": sigma,
    }}


def _run_analyze_phase(config, report, out):
    path = config.inputs["trace"]
    trace = fileio.read_trace(path)
    report.add_input(path)
    if not isinstance(trace, interferometer.IntensityTrace):
        raise DomainError(f"{path} is not an intensity trace")
    band = (config.params["band_lo"], config.params["band_hi"])
    phase = analysis.extract_phase(trace, band=band)
    fileio.write_trace(out["phase"], phase)
    n_valid = sum(b - a for a, b in phase.segments)
    return {"phase_extraction": {
        "n_segments": len(phase.segments),
        "n_valid_samples": n_valid,
        "fraction_valid": n_valid / max(phase.n_samples, 1),
    }}


def _run_analyze_dphi(config, report, out):
    path = config.inputs["phase"]
    trace = fileio.read_trace(path)
    report.add_input(path)
    if not isinstance(trace, PhaseTrace):
        raise DomainError(f"{path} is not a phase trace")
    taus = analysis.default_lag_grid(
        trace.dt, config.params["tau_max_s"], config.params["max_lags"]
    )
    stats = analysis.increment_sets(trace, taus)
    blocks = {}
    hist_tau = config.params.get("histogram_tau_s")
    if hist_tau is not None:
        hist_tau = float(stats.taus[stats.lag_index(hist_tau)])
        hist = analysis.fit_gaussian(analysis.increments_at(trace, hist_tau))
        fileio.write_histogram(out["histogram"], hist)
        blocks["histogram"] = {
            "tau_s": hist_tau,
            "sigma_rad": hist.sigma,
            "fit_sigma_rad": hist.fit_sigma,
            "n_bins": int(hist.counts.size),
            "degenerate": hist.degenerate,
        }
    fileio.write_dphi_curve(out["curve"], stats)
    blocks["dphi_curve"] = {
        "n_lags": int(stats.taus.size),
        "tau_min_s": float(stats.taus[0]),
        "tau_max_s": float(stats.taus[-1]),
        "dphi_at_tau_max_rad": float(stats.mean_abs_change[-1]),
    }
    return blocks


def _run_analyze_tau_threshold(config, report, out):
    path = config.inputs["curve"]
    stats = fileio.read_dphi_curve(path)
    report.add_input(path)
    tau = analysis.tau_threshold(stats, config.params["target_rad"])
    return {"tau_threshold": {
        "target_rad": config.params["target_rad"],
        "tau_threshold_s": tau,
    }}


def _run_analyze_exponent(config, report, out):
    path = config.inputs["curve"]
    stats = fileio.read_dphi_curve(path)
    report.add_input(path)
    lo, hi = config.params["tau_min_s"], config.params["tau_max_s"]
    exponent = analysis.fit_scaling_exponent(stats, (lo, hi))
    n_used = int(((stats.taus >= lo) & (stats.taus <= hi)).sum())
    return {"scaling_exponent": {
        "exponent": exponent,
        "tau_min_s": lo,
        "tau_max_s": hi,
        "n_lags": n_used,
    }}


def _run_analyze_diffusion(config, report, out):
    p = config.params
    diffusion = analysis.estimate_diffusion(
        p["length_km"], visibility=p["visibility"], sigma=p["sigma_rad"]
    )
    return {"diffusion": {
        "diffusion_rad2_per_km": diffusion,
        "length_km": p["length_km"],
        "visibility": p["visibility"],
        "sigma_rad": p["sigma_rad"],
    }}


def _run_repeater_budget(config, report, out):
    p = config.params
    budget = repeater.budget_per_segment(
        p["total_km"], p["n_links"], p["target_fidelity"], p["segment_km"]
    )
    return {"budget": {
        "total_km": p["total_km"],
        "n_links": p["n_links"],
        "target_fidelity": budget.fidelity,
        "segment_km": p["segment_km"],
        "total_sigma_rad": budget.total_sigma,
        "visibility": budget.visibility,
        "segment_sigma_limit_rad": budget.per_segment_sigma_limit,
        "dphi_limit_rad": budget.per_segment_dphi_limit,
    }}


def _run_repeater_fidelity(config, report, out):
    p = config.params
    if p["sigma_rad"] is not None:
        sigma = p["sigma_rad"]
    elif p["visibility"] is not None:
        sigma = interferometer.sigma_from_visibility(p["visibility"])
    else:
        chain = repeater.RepeaterChain(
            link_lengths=tuple(p["link_km"]), diffusion=p["diffusion"]
        )
        sigma = repeater.chain_sigma(chain)
    fidelity = repeater.fidelity_from_sigma(sigma)
    block = {
        "sigma_rad": sigma,
        "fidelity": fidelity,
        "visibility": repeater.fidelity_visibility_convert(fidelity, "to_visibility"),
    }
    if p["monte_carlo_samples"]:
        block["monte_carlo_fidelity"] = repeater.monte_carlo_fidelity(
            sigma, p["monte_carlo_samples"], seed=config.seed
        )
        block["monte_carlo_samples"] = p["monte_carlo_samples"]
    return {"fidelity": block}


_HANDLERS = {
    ("simulate", "noise"): _run_simulate_noise,
    ("simulate", "mz"): _run_simulate_mz,
    ("simulate", "fringe"): _run_simulate_fringe,
    ("analyze", "fringe"): _run_analyze_fringe,
    ("analyze", "phase"): _run_analyze_phase,
    ("analyze", "dphi"): _run_analyze_dphi,
    ("analyze", "tau-threshold"): _run_analyze_tau_threshold,
    ("analyze", "exponent"): _run_analyze_exponent,
    ("analyze", "diffusion"): _run_analyze_diffusion,
    ("repeater", "budget"): _run_repeater_budget,
    ("repeater", "fidelity"): _run_repeater_fidelity,
}


def main(argv=None) -> int:
    """Console entry point: exit 0 on success, 1 on invalid values or
    propagated module errors, 2 on usage errors (from argparse)."""
    try:
        config = parse_cli(argv)
        return run(config)
    except FiberPhaseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
