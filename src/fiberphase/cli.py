"""Command-line interface tying simulation, analysis and budgeting together.

Flags take field-friendly units (us, ms, km, rad); files always carry SI
seconds and radians; conversion happens here and nowhere else.  Every
run is deterministic: the seed defaults to DEFAULT_SEED and identical
(config, seed, input files) produce byte-identical outputs.

Subcommands::

    simulate noise|fringe|mz
    analyze  fringe|phase|dphi|tau-threshold|exponent|diffusion
    repeater budget|fidelity

Exit codes: 0 on success; 1 on an invalid value or file, with the flag or
file named; 2 on a usage error.  Non-finite values are rejected, and paired
flags (--histogram-tau-us/--histogram-out, --diffusion/--link-km) must be
given together.  Set FIBERPHASE_OUT_DIR to redirect relative output paths.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import math
import os
import sys
from typing import Callable, NamedTuple

from . import analysis, fileio, interferometer, noise, repeater
from .errors import DomainError, FiberPhaseError
from .fileio import ReportDocument
from .noise import DEFAULT_GROUP_INDEX, NoiseParams, PhaseTrace
from .presets import DPHI_TARGET, preset_params

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


def _resolve_out(path: str) -> str:
    base = os.environ.get("FIBERPHASE_OUT_DIR")
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


# ---------------------------------------------------------------------------
# flag table: each flag is declared once, with the RunConfig entry it fills,
# the factor that takes it to SI units and the check it must pass

_POSITIVE = (lambda v: v > 0, "must be positive")
_NON_NEGATIVE = (lambda v: v >= 0, "must be >= 0")
_VISIBILITY = (lambda v: 0 < v <= 1, "must be in (0, 1]")


def _at_least(n: int) -> tuple:
    return (lambda v: v >= n, f"must be >= {n}")


@dataclasses.dataclass(frozen=True)
class _Flag:
    """One command-line flag.

    `key` is a params key, ``process.<key>`` (the noise-process block),
    ``inputs.<role>``, ``outputs.<role>`` or ``seed``.  `type` is float, int,
    str, bool (a switch) or list (comma-separated floats).  `check` is a
    (predicate, wording) pair on the value as given; `scale` then takes it to
    SI.  `needs` names the flag without which this one has no effect.
    """

    name: str
    key: str
    type: type = float
    scale: float | None = None
    check: tuple | None = None
    default: object = None
    required: bool = False
    help: str | None = None
    needs: str | None = None

    @property
    def dest(self) -> str:
        return "infile" if self.name == "--in" else self.name[2:].replace("-", "_")

    def read(self, args):
        """The parsed value; an empty optional string (--report '') counts as absent."""
        value = getattr(args, self.dest)
        return None if value == "" and not self.required else value

    def convert(self, value):
        """Parsed value -> RunConfig value; DomainError naming the flag if invalid."""
        if value is None or self.type in (str, bool):
            return value
        if self.type is list:
            try:
                items = [float(x) for x in value.split(",") if x.strip()]
            except ValueError:
                raise DomainError(f"{self.name} must be comma-separated numbers, got {value!r}")
            return [self._checked(x) for x in items]
        return self._checked(value)

    def _checked(self, value):
        if isinstance(value, float) and not math.isfinite(value):
            raise DomainError(f"{self.name} must be finite, got {value}")
        if self.check is not None and not self.check[0](value):
            raise DomainError(f"{self.name} {self.check[1]}, got {value}")
        return value * self.scale if self.scale is not None else value


_Section = NamedTuple("_Section", [("title", str), ("flags", list)])  # own --help heading
_OneOf = NamedTuple("_OneOf", [("required", bool), ("flags", list)])  # mutually exclusive


class _Command(NamedTuple):
    """A subcommand: its --help line, handler, flags and cross-flag rule."""

    help: str
    run: Callable
    flags: list
    check: tuple | None = None  # (holds(args), message(args)) for a rule joining flags


_REPORT = _Flag("--report", "outputs.report", str)
_SEED = _Flag("--seed", "seed", int, default=DEFAULT_SEED,
              help=f"random seed (default {DEFAULT_SEED})")
_PROCESS = _Section("noise process", [
    _Flag("--sigma-ref", "process.sigma_ref", check=_NON_NEGATIVE,
          help="phase std-dev at the reference lag (rad)"),
    _Flag("--tau-ref-us", "process.tau_ref_s", scale=1e-6, check=_POSITIVE,
          help="reference lag (us)"),
    _Flag("--hurst", "process.hurst", default=0.5, help="scaling exponent in (0,1)"),
    _Flag("--drift-rate", "process.drift_rate", default=0.0, help="linear phase drift (rad/s)"),
    _Flag("--length-km", "process.length_km", help="fiber length the calibration refers to (km)"),
    _Flag("--group-index", "process.group_index", default=DEFAULT_GROUP_INDEX),
    _OneOf(False, [
        _Flag("--day", "process.day", bool, help="daytime urban-fiber calibration preset"),
        _Flag("--night", "process.night", bool, help="nighttime urban-fiber calibration preset"),
    ]),
])
_GRID = [
    _Flag("--duration-ms", "duration_s", scale=1e-3, check=_POSITIVE, required=True,
          help="trace duration (ms)"),
    _Flag("--dt-us", "dt_s", scale=1e-6, check=_POSITIVE, required=True,
          help="sample interval (us)"),
]


def _add_flags(container, entries) -> None:
    for entry in entries:
        if isinstance(entry, _Section):
            _add_flags(container.add_argument_group(entry.title), entry.flags)
        elif isinstance(entry, _OneOf):
            _add_flags(container.add_mutually_exclusive_group(required=entry.required),
                       entry.flags)
        elif entry.type is bool:
            container.add_argument(entry.name, action="store_true", help=entry.help)
        else:
            container.add_argument(
                entry.name, dest=entry.dest, default=entry.default, required=entry.required,
                type=entry.type if entry.type in (int, float) else None, help=entry.help,
            )


def _flags(entries):
    for entry in entries:
        if isinstance(entry, _Flag):
            yield entry
        else:
            yield from _flags(entry.flags)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fiberphase",
        description="Simulate and analyze phase noise in long fiber interferometers.",
    )
    top = parser.add_subparsers(dest="group", required=True)
    groups = {
        group: top.add_parser(group, help=text).add_subparsers(dest="command", required=True)
        for group, text in _GROUPS.items()
    }
    for (group, name), command in _COMMANDS.items():
        _add_flags(groups[group].add_parser(name, help=command.help), command.flags)
    return parser


# ---------------------------------------------------------------------------
# args -> RunConfig

def _process_block(values: dict) -> dict:
    """Resolve the noise-process flags into the echoed process block."""
    day, night = values.pop("day"), values.pop("night")
    preset = "day" if day else "night" if night else None
    if preset is not None:
        if values["sigma_ref"] is not None or values["tau_ref_s"] is not None:
            raise DomainError(f"--{preset} cannot be combined with --sigma-ref/--tau-ref-us")
        calibration = preset_params(preset)
        values["sigma_ref"], values["tau_ref_s"] = calibration.sigma_ref, calibration.tau_ref
        if values["length_km"] is None:
            values["length_km"] = calibration.length_km
    for flag, key in (("--sigma-ref", "sigma_ref"), ("--tau-ref-us", "tau_ref_s")):
        if values[key] is None:
            raise DomainError(f"{flag} is required without --day/--night")
    try:
        process = _params_to_process(values)
    except DomainError as exc:  # NoiseParams messages open with the field name
        names = {flag.key: flag.name for flag in _flags(_PROCESS.flags)}
        flag = names.get("process." + str(exc).split(" ", 1)[0])
        if flag is None:
            raise
        raise DomainError(f"{flag}: {exc}") from exc
    block = dataclasses.asdict(process)
    block["tau_ref_s"] = block.pop("tau_ref")
    return block


def _params_to_process(block: dict) -> NoiseParams:
    fields = dict(block)
    fields["tau_ref"] = fields.pop("tau_ref_s")
    return NoiseParams(**fields)


def parse_cli(argv=None) -> RunConfig:
    """Parse and validate argv into a fully-resolved RunConfig.

    Unknown flags or subcommands exit with code 2 (argparse usage error);
    invalid values raise DomainError, which main() maps to exit code 1.
    """
    args = build_parser().parse_args(argv)
    command = (args.group, args.command)
    flags = list(_flags(_COMMANDS[command].flags))
    given = {flag.name: flag.read(args) for flag in flags}
    found = {"": {}, "process": {}, "inputs": {}, "outputs": {}}
    for flag in flags:
        block, _, key = flag.key.rpartition(".")
        found[block][key] = flag.convert(given[flag.name])
        if flag.needs and given[flag.name] is not None and given[flag.needs] is None:
            raise DomainError(f"{flag.needs} is required with {flag.name}")
    params = found[""]
    if found["process"]:
        params["process"] = _process_block(found["process"])
    check = _COMMANDS[command].check
    if check is not None and not check[0](args):
        raise DomainError(check[1](args))
    seed = params.pop("seed", None)
    if command == ("repeater", "fidelity") and args.monte_carlo is None:
        seed = None  # only the Monte Carlo estimate draws random numbers
    outputs = {role: path for role, path in found["outputs"].items() if path is not None}
    return RunConfig(command=command, params=params, seed=seed,
                     inputs=found["inputs"], outputs=outputs)


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
    for path in config.inputs.values():
        report.add_input(path)
    blocks = _COMMANDS[config.command].run(config, out)
    for name, values in blocks.items():
        report.results[name] = values
        print(_summarize(name, values))
    if "report" in out:
        fileio.write_report(out["report"], report)
    if out:
        print("wrote: " + " ".join(out.values()))
    return 0


@contextlib.contextmanager
def _grid_flags():
    """Name --duration-ms and --dt-us in the library's `duration >= dt` error."""
    try:
        yield
    except DomainError as exc:
        if not str(exc).startswith("duration "):
            raise
        raise DomainError(f"--duration-ms/--dt-us: {exc}") from exc


def _run_simulate_noise(config, out):
    process = _params_to_process(config.params["process"])
    with _grid_flags():
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


def _run_simulate_mz(config, out):
    p = config.params
    process = _params_to_process(p["process"])
    with _grid_flags():
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


def _run_simulate_fringe(config, out):
    p = config.params
    process = _params_to_process(p["process"])
    scan = interferometer.simulate_fringe_scan(
        process, p["loop_km"], p["n_points"], p["pulses_per_point"],
        detector_noise=p["detector_noise"], seed=config.seed, i0=p["i0"],
    )
    fileio.write_fringe_scan(out["scan"], scan)
    sigma = noise.sagnac_effective_sigma(process, p["loop_km"])
    return {"fringe_scan": {
        "loop_km": p["loop_km"],
        "effective_sigma_rad": sigma,
        "expected_visibility": noise.visibility_from_sigma(sigma),
        "n_points": p["n_points"],
    }}


def _run_analyze_fringe(config, out):
    scan = fileio.read_fringe_scan(config.inputs["scan"])
    fit = analysis.fit_fringe(scan)
    sigma = (
        noise.sigma_from_visibility(fit.visibility)
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


def _run_analyze_phase(config, out):
    path = config.inputs["trace"]
    trace = fileio.read_trace(path)
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


def _run_analyze_dphi(config, out):
    path = config.inputs["phase"]
    trace = fileio.read_trace(path)
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


def _run_analyze_tau_threshold(config, out):
    stats = fileio.read_dphi_curve(config.inputs["curve"])
    tau = analysis.tau_threshold(stats, config.params["target_rad"])
    return {"tau_threshold": {
        "target_rad": config.params["target_rad"],
        "tau_threshold_s": tau,
    }}


def _run_analyze_exponent(config, out):
    stats = fileio.read_dphi_curve(config.inputs["curve"])
    lo, hi = config.params["tau_min_s"], config.params["tau_max_s"]
    exponent = analysis.fit_scaling_exponent(stats, (lo, hi))
    n_used = int(((stats.taus >= lo) & (stats.taus <= hi)).sum())
    return {"scaling_exponent": {
        "exponent": exponent,
        "tau_min_s": lo,
        "tau_max_s": hi,
        "n_lags": n_used,
    }}


def _run_analyze_diffusion(config, out):
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


def _run_repeater_budget(config, out):
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


def _run_repeater_fidelity(config, out):
    p = config.params
    if p["sigma_rad"] is not None:
        sigma = p["sigma_rad"]
    elif p["visibility"] is not None:
        sigma = noise.sigma_from_visibility(p["visibility"])
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


# ---------------------------------------------------------------------------
# command table

_GROUPS = {
    "simulate": "generate synthetic records",
    "analyze": "reduce measured or simulated records",
    "repeater": "phase budgets for repeater chains",
}

_COMMANDS = {
    ("simulate", "noise"): _Command("sample a phase trace", _run_simulate_noise, [
        _PROCESS, *_GRID, _SEED,
        _Flag("--out", "outputs.trace", str, required=True, help="phase trace CSV to write"),
        _Flag("--report", "outputs.report", str, help="JSON report to write"),
    ]),
    ("simulate", "mz"): _Command("simulate a Mach-Zehnder intensity trace", _run_simulate_mz, [
        _PROCESS, *_GRID, _SEED,
        _Flag("--i-max", "i_max", default=1.0),
        _Flag("--i-min", "i_min", default=0.0),
        _Flag("--phi0", "phi0_rad", default=math.pi / 2,
              help="static arm phase offset (rad); default pi/2 (mid-fringe)"),
        _Flag("--out", "outputs.trace", str, required=True, help="intensity trace CSV to write"),
        _REPORT,
    ], check=(lambda a: a.i_max > a.i_min,
              lambda a: f"--i-max must exceed --i-min, got {a.i_max} and {a.i_min}")),
    ("simulate", "fringe"): _Command("scan a Sagnac fringe", _run_simulate_fringe, [
        _PROCESS, _SEED,
        _Flag("--loop-km", "loop_km", check=_POSITIVE, required=True,
              help="Sagnac loop length (km)"),
        _Flag("--points", "n_points", int, check=_at_least(4), default=50,
              help="scan points over one fringe"),
        _Flag("--pulses-per-point", "pulses_per_point", int, check=_at_least(1), default=1000),
        _Flag("--detector-noise", "detector_noise", default=0.0),
        _Flag("--i0", "i0", check=_POSITIVE, default=1.0, help="mean full intensity"),
        _Flag("--out", "outputs.scan", str, required=True, help="fringe scan CSV to write"),
        _REPORT,
    ]),
    ("analyze", "fringe"): _Command("sinusoidal fit of a fringe scan", _run_analyze_fringe, [
        _Flag("--in", "inputs.scan", str, required=True, help="fringe scan CSV"),
        _REPORT,
    ]),
    ("analyze", "phase"): _Command("extract phase from an intensity trace", _run_analyze_phase, [
        _Flag("--in", "inputs.trace", str, required=True, help="intensity trace CSV"),
        _Flag("--band-lo", "band_lo", default=analysis.DEFAULT_BAND[0],
              help="lower edge of the usable normalized-intensity band"),
        _Flag("--band-hi", "band_hi", default=analysis.DEFAULT_BAND[1]),
        _Flag("--out", "outputs.phase", str, required=True, help="phase trace CSV to write"),
        _REPORT,
    ], check=(lambda a: 0 < a.band_lo < a.band_hi < 1, lambda a: (
        f"--band-lo/--band-hi must satisfy 0 < lo < hi < 1, got {a.band_lo} and {a.band_hi}"))),
    ("analyze", "dphi"): _Command("mean phase change vs lag", _run_analyze_dphi, [
        _Flag("--in", "inputs.phase", str, required=True, help="phase trace CSV"),
        _Flag("--tau-max-us", "tau_max_s", scale=1e-6, check=_POSITIVE, required=True,
              help="largest lag (us)"),
        _Flag("--max-lags", "max_lags", int, check=_at_least(1),
              default=analysis.DEFAULT_MAX_LAGS),
        _Flag("--histogram-tau-us", "histogram_tau_s", scale=1e-6, check=_POSITIVE,
              help="also export the increment histogram at this lag (us)",
              needs="--histogram-out"),
        _Flag("--histogram-out", "outputs.histogram", str,
              help="histogram CSV (with --histogram-tau-us)", needs="--histogram-tau-us"),
        _Flag("--out", "outputs.curve", str, required=True, help="dphi curve CSV to write"),
        _REPORT,
    ]),
    ("analyze", "tau-threshold"): _Command(
        "lag at which dphi reaches a target", _run_analyze_tau_threshold, [
        _Flag("--in", "inputs.curve", str, required=True, help="dphi curve CSV"),
        _Flag("--dphi", "target_rad", check=_POSITIVE, default=DPHI_TARGET,
              help="target mean phase change (rad)"),
        _REPORT,
    ]),
    ("analyze", "exponent"): _Command("scaling exponent of dphi(tau)", _run_analyze_exponent, [
        _Flag("--in", "inputs.curve", str, required=True, help="dphi curve CSV"),
        _Flag("--tau-min-us", "tau_min_s", scale=1e-6, check=_POSITIVE, required=True),
        _Flag("--tau-max-us", "tau_max_s", scale=1e-6, check=_POSITIVE, required=True),
        _REPORT,
    ], check=(lambda a: a.tau_min_us < a.tau_max_us, lambda a: (
        f"--tau-min-us must be below --tau-max-us, got {a.tau_min_us} and {a.tau_max_us}"))),
    ("analyze", "diffusion"): _Command(
        "diffusion coefficient from sigma or visibility", _run_analyze_diffusion, [
        _OneOf(True, [
            _Flag("--visibility", "visibility", check=_VISIBILITY),
            _Flag("--sigma", "sigma_rad", check=_NON_NEGATIVE),
        ]),
        _Flag("--length-km", "length_km", check=_POSITIVE, required=True),
        _REPORT,
    ]),
    ("repeater", "budget"): _Command("per-segment phase allowance", _run_repeater_budget, [
        _Flag("--total-km", "total_km", check=_POSITIVE, required=True),
        _Flag("--links", "n_links", int, check=_at_least(1), required=True),
        _Flag("--fidelity", "target_fidelity", required=True,
              check=(lambda v: 0.5 < v < 1, "must be in (0.5, 1)")),
        _Flag("--segment-km", "segment_km", check=_POSITIVE, required=True),
        _REPORT,
    ], check=(lambda a: a.segment_km <= a.total_km / a.links, lambda a: (
        f"--segment-km must not exceed one link ({a.total_km / a.links:g} km), "
        f"got {a.segment_km}"))),
    ("repeater", "fidelity"): _Command("fidelity from phase noise", _run_repeater_fidelity, [
        _OneOf(True, [
            _Flag("--sigma", "sigma_rad", check=_NON_NEGATIVE,
                  help="total phase-noise width (rad)"),
            _Flag("--visibility", "visibility", check=_VISIBILITY),
            _Flag("--diffusion", "diffusion", check=_NON_NEGATIVE,
                  help="rad^2/km, with --link-km", needs="--link-km"),
        ]),
        _Flag("--link-km", "link_km", list, check=_POSITIVE,
              help="comma-separated link lengths (km)", needs="--diffusion"),
        _Flag("--monte-carlo", "monte_carlo_samples", int, check=_at_least(1),
              help="also estimate by Monte Carlo with this many samples"),
        _SEED,
        _REPORT,
    ]),
}


def main(argv=None) -> int:
    """Console entry point: exit 0 on success, 1 on invalid values or
    propagated module errors, 2 on usage errors (from argparse)."""
    try:
        config = parse_cli(argv)
        return run(config)
    except (FiberPhaseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
