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
file named; 2 on a usage error.  A library message, in SI units, gets the
flags of its fields in front (``--points: n_points must be >= 4, got 3``).
Non-finite values are rejected, and paired flags
(--histogram-tau-us/--histogram-out, --diffusion/--link-km) must be given
together.  Set FIBERPHASE_OUT_DIR to redirect relative output paths.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import math
import os
import sys
from typing import Callable, NamedTuple

from . import analysis, fileio, interferometer, noise, repeater
from .errors import Adopted, DomainError, FiberPhaseError, InsufficientDataError
from .noise import DEFAULT_GROUP_INDEX, NoiseParams, PhaseTrace
from .presets import DPHI_TARGET, preset_params

DEFAULT_SEED = 12345

__all__ = ["DEFAULT_SEED", "parse_cli", "run", "main"]


def _resolve_out(path: str) -> str:
    base = os.environ.get("FIBERPHASE_OUT_DIR")
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


# ---------------------------------------------------------------------------
# flag table: each flag is declared once, with the config entry it fills,
# the factor that takes it to SI units and the checks the library cannot make

_POSITIVE = (lambda v: v > 0, "must be positive")
_AT_LEAST_ONE = (lambda v: v >= 1, "must be >= 1")


@dataclasses.dataclass(frozen=True)
class _Flag:
    """One command-line flag.

    `key` is a params key, ``process.<key>`` (the noise-process block),
    ``inputs.<role>``, ``outputs.<role>`` or ``seed``; its last part less an
    ``_s``/``_rad`` unit is the parameter.  A library check names the fields
    it rejects (`FiberPhaseError.fields`), and the flags of those fields go in
    front of its message; an error whose fields no flag carries stays bare,
    as ``... steps exceed the limit of ...`` (no field, as ``dt`` may come
    from a file) does for a --tau-max-us past the lag grid's step limit.
    `type` is float, int, str, bool (a switch) or list (comma-separated
    floats).  `check` is a (predicate, wording) pair on the value as given,
    for a rule the library checks late, under another name or not at all;
    `scale` then takes it to seconds, and a nonzero value that underflows
    to 0 there is refused.  `needs` names the flag without which this
    one has no effect.
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
        """Parsed value -> config value; DomainError naming the flag if invalid."""
        if value is None or self.type in (str, bool):
            return value
        if self.type is list:
            try:
                items = [float(x) for x in value.split(",") if x.strip()]
            except ValueError:
                items = []
            if not items:
                raise DomainError(f"{self.name} must be comma-separated numbers, got {value!r}")
            return [self._checked(x) for x in items]
        return self._checked(value)

    def _checked(self, value):
        if isinstance(value, float) and not math.isfinite(value):
            raise DomainError(f"{self.name} must be finite, got {value}")
        if self.check is not None and not self.check[0](value):
            raise DomainError(f"{self.name} {self.check[1]}, got {value}")
        if self.scale is None:
            return value
        if value != 0 and value * self.scale == 0:
            raise DomainError(f"{self.name} {value} is 0 once converted to seconds")
        return value * self.scale


_Section = NamedTuple("_Section", [("title", str), ("flags", list)])  # own --help heading
_OneOf = NamedTuple("_OneOf", [("required", bool), ("flags", list)])  # mutually exclusive


class _Command(NamedTuple):
    """A subcommand: its --help line, handler, flags and cross-flag rule.

    The handler takes the config, the output paths by role and a hashlib
    object by input role, empty without a report, that its readers update.
    """

    help: str
    run: Callable
    flags: list
    check: tuple | None = None  # (holds(args), message(args)) for a rule joining flags


_REPORT = _Flag("--report", "outputs.report", str, help="JSON report to write")
_SEED = _Flag("--seed", "seed", int, default=DEFAULT_SEED,
              help=f"random seed (default {DEFAULT_SEED})")
# The noise-process flags of every simulate command; each adds the one only its model reads.
_PROCESS = [
    _Flag("--sigma-ref", "process.sigma_ref", help="phase std-dev at the reference lag (rad)"),
    _Flag("--tau-ref-us", "process.tau_ref_s", scale=1e-6, help="reference lag (us)"),
    _Flag("--hurst", "process.hurst", default=0.5, help="scaling exponent in (0,1)"),
    _OneOf(False, [
        _Flag("--day", "process.day", bool, help="daytime urban-fiber calibration preset"),
        _Flag("--night", "process.night", bool, help="nighttime urban-fiber calibration preset"),
    ]),
]
_DRIFT = _Flag("--drift-rate", "process.drift_rate", default=0.0,
               help="linear phase drift (rad/s)")
_GRID = [
    _Flag("--duration-ms", "duration_s", scale=1e-3, required=True, help="trace duration (ms)"),
    _Flag("--dt-us", "dt_s", scale=1e-6, required=True, help="sample interval (us)"),
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
    for key, command in _COMMANDS.items():
        group, name = key.split()
        _add_flags(groups[group].add_parser(name, help=command.help), command.flags)
    return parser


# ---------------------------------------------------------------------------
# args -> config

def _process_block(values: dict) -> dict:
    """Resolve the noise-process flags into the echoed process block."""
    day, night = values.pop("day"), values.pop("night")
    preset = "day" if day else "night" if night else None
    if preset is not None:
        if values["sigma_ref"] is not None or values["tau_ref_s"] is not None:
            raise DomainError(f"--{preset} cannot be combined with --sigma-ref/--tau-ref-us")
        calibration = preset_params(preset)
        values["sigma_ref"], values["tau_ref_s"] = calibration.sigma_ref, calibration.tau_ref
    for flag, key in (("--sigma-ref", "sigma_ref"), ("--tau-ref-us", "tau_ref_s")):
        if values[key] is None:
            raise DomainError(f"{flag} is required without --day/--night")
    return values


@contextlib.contextmanager
def _naming(entries):
    """Prefix a library error with the flags whose parameter (see _Flag) is
    one of its fields; an error with no such field stays bare."""
    try:
        yield
    except FiberPhaseError as exc:
        names = [flag.name for flag in _flags(entries) if flag.key.rpartition(".")[2]
                 .removesuffix("_s").removesuffix("_rad") in exc.fields]
        if not names:
            raise
        raise type(exc)(f"{'/'.join(names)}: {exc}") from exc


def _params_to_process(block: dict) -> NoiseParams:
    fields = dict(block)
    fields["tau_ref"] = fields.pop("tau_ref_s")
    unknown = sorted(fields.keys() - {field.name for field in dataclasses.fields(NoiseParams)})
    if unknown:
        raise DomainError(f"unknown noise-process key {unknown[0]!r}", unknown[0])
    return NoiseParams(**fields)


def parse_cli(argv=None) -> dict:
    """Parse argv into the fully-resolved config that a report echoes:
    ``{"command": "analyze dphi", "params", "seed", "inputs", "outputs"}``.

    Unknown flags or subcommands exit with code 2 (argparse usage error).
    The table's checks, finiteness, list syntax, flag pairs and the preset
    conflict raise DomainError here; the other values, the noise-process
    fields included, raise it from the library in run(), with the flag
    named.  main() maps both to exit code 1.
    """
    args = build_parser().parse_args(argv)
    command = f"{args.group} {args.command}"
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
    if command == "repeater fidelity" and args.monte_carlo is None:
        seed = None  # only the Monte Carlo estimate draws random numbers
    outputs = {role: path for role, path in found["outputs"].items() if path is not None}
    return {"command": command, "params": params, "seed": seed,
            "inputs": found["inputs"], "outputs": outputs}


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


def run(config: dict) -> int:
    """Execute a config from parse_cli() or a report's ``config``: compute,
    write outputs, print one summary per block.

    The config carries all five keys, as every report does.  For a report,
    each input is hashed from the bytes its reader reads, so a pipe or FIFO
    is read once; without one, nothing is hashed.
    """
    command = _COMMANDS.get(config["command"])
    if command is None:
        raise DomainError(f"unknown command {config['command']!r}", "command")
    out = {k: _resolve_out(v) for k, v in config["outputs"].items()}
    digests = {role: hashlib.sha256() for role in config["inputs"]} if "report" in out else {}
    with _naming(command.flags):
        blocks = command.run(config, out, digests)
    for name, values in blocks.items():
        print(_summarize(name, values))
    if "report" in out:
        inputs = [{"path": str(config["inputs"][role]), "sha256": digest.hexdigest()}
                  for role, digest in digests.items()]
        fileio.write_report(out["report"], config, inputs, blocks)
    if out:
        print("wrote: " + " ".join(out.values()))
    return 0


def _run_simulate_noise(config, out, digests):
    p = config["params"]
    process = _params_to_process(p["process"])
    trace = process.sample_trace(p["duration_s"], p["dt_s"], config["seed"])
    fileio.write_trace(out["trace"], trace)
    return {"trace": {
        "kind": "phase",
        "n_samples": trace.n_samples,
    }}


def _run_simulate_mz(config, out, digests):
    p = config["params"]
    process = _params_to_process(p["process"])
    trace = interferometer.simulate_mz_trace(
        process, p["duration_s"], p["dt_s"],
        i_max=p["i_max"], i_min=p["i_min"], phi0=p["phi0_rad"], seed=config["seed"],
    )
    fileio.write_trace(out["trace"], trace)
    return {"trace": {
        "kind": "intensity",
        "n_samples": trace.n_samples,
    }}


def _run_simulate_fringe(config, out, digests):
    p = config["params"]
    process = _params_to_process(p["process"])
    scan = interferometer.simulate_fringe_scan(
        process, p["loop_km"], p["n_points"], p["pulses_per_point"],
        detector_noise=p["detector_noise"], seed=config["seed"], i0=p["i0"],
    )
    fileio.write_fringe_scan(out["scan"], scan)
    sigma = noise.sagnac_effective_sigma(process, p["loop_km"])
    return {"fringe_scan": {
        "effective_sigma_rad": sigma,
        "expected_visibility": noise.visibility_from_sigma(sigma),
    }}


def _run_analyze_fringe(config, out, digests):
    scan = fileio.read_fringe_scan(config["inputs"]["scan"], digest=digests.get("scan"))
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


def _run_analyze_phase(config, out, digests):
    # The intensity trace is handed over: its buffer becomes the phase, and
    # no name keeps the trace, so the command holds one trace buffer.
    band = (config["params"]["band_lo"], config["params"]["band_hi"])
    phase = analysis.extract_phase(Adopted(fileio.read_trace(
        config["inputs"]["trace"], digest=digests.get("trace"),
        expect=interferometer.IntensityTrace)), band=band)
    fileio.write_trace(out["phase"], phase)
    n_valid = sum(b - a for a, b in phase.segments)
    return {"phase_extraction": {
        "n_segments": len(phase.segments),
        "n_valid_samples": n_valid,
        "fraction_valid": n_valid / max(phase.n_samples, 1),
    }}


def _run_analyze_dphi(config, out, digests):
    trace = fileio.read_trace(config["inputs"]["phase"], digest=digests.get("phase"),
                              expect=PhaseTrace)
    taus = analysis.default_lag_grid(
        trace.dt, config["params"]["tau_max_s"], config["params"]["max_lags"]
    )
    hist_tau = config["params"].get("histogram_tau_s")
    # The histogram reads the trace first, so that the curve can consume it.
    try:
        hist = (None if hist_tau is None
                else analysis.fit_gaussian(analysis.increments_at(trace, hist_tau)))
    except FiberPhaseError as exc:  # every fault of the lag names its flag
        at = f" at tau = {hist_tau:g} s" if isinstance(exc, InsufficientDataError) else ""
        raise type(exc)(f"{exc}{at}", "histogram_tau") from exc
    stats = analysis.increment_sets(Adopted(trace), taus)
    blocks = {}
    if hist is not None:
        fileio.write_histogram(out["histogram"], hist)
        blocks["histogram"] = {
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


def _run_analyze_tau_threshold(config, out, digests):
    stats = fileio.read_dphi_curve(config["inputs"]["curve"], digest=digests.get("curve"))
    tau = analysis.tau_threshold(stats, config["params"]["target_rad"])
    return {"tau_threshold": {"tau_threshold_s": tau}}


def _run_analyze_exponent(config, out, digests):
    stats = fileio.read_dphi_curve(config["inputs"]["curve"], digest=digests.get("curve"))
    lo, hi = config["params"]["tau_min_s"], config["params"]["tau_max_s"]
    exponent = analysis.fit_scaling_exponent(stats, (lo, hi))
    n_used = int(((stats.taus >= lo) & (stats.taus <= hi)).sum())
    return {"scaling_exponent": {
        "exponent": exponent,
        "n_lags": n_used,
    }}


def _run_analyze_diffusion(config, out, digests):
    p = config["params"]
    diffusion = analysis.estimate_diffusion(
        p["length_km"], visibility=p["visibility"], sigma=p["sigma_rad"]
    )
    return {"diffusion": {"diffusion_rad2_per_km": diffusion}}


def _run_repeater_budget(config, out, digests):
    p = config["params"]
    budget = repeater.budget_per_segment(
        p["total_km"], p["n_links"], p["target_fidelity"], p["segment_km"]
    )
    return {"budget": {
        "total_sigma_rad": budget.total_sigma,
        "visibility": budget.visibility,
        "segment_sigma_limit_rad": budget.per_segment_sigma_limit,
        "dphi_limit_rad": budget.per_segment_dphi_limit,
    }}


def _run_repeater_fidelity(config, out, digests):
    p = config["params"]
    if p["sigma_rad"] is not None:
        sigma = p["sigma_rad"]
    elif p["visibility"] is not None:
        sigma = noise.sigma_from_visibility(p["visibility"])
    else:
        sigma = repeater.chain_sigma(p["link_km"], diffusion=p["diffusion"])
    block = {
        "sigma_rad": sigma,
        "fidelity": repeater.fidelity_from_sigma(sigma),
        "visibility": noise.visibility_from_sigma(sigma),
    }
    if p["monte_carlo_samples"] is not None:
        block["monte_carlo_fidelity"] = repeater.monte_carlo_fidelity(
            sigma, p["monte_carlo_samples"], seed=config["seed"]
        )
    return {"fidelity": block}


# ---------------------------------------------------------------------------
# command table

_GROUPS = {
    "simulate": "generate synthetic records",
    "analyze": "reduce measured or simulated records",
    "repeater": "phase budgets for repeater chains",
}

_COMMANDS = {
    "simulate noise": _Command("sample a phase trace", _run_simulate_noise, [
        _Section("noise process", [*_PROCESS, _DRIFT]), *_GRID, _SEED,
        _Flag("--out", "outputs.trace", str, required=True, help="phase trace CSV to write"),
    ]),
    "simulate mz": _Command("simulate a Mach-Zehnder intensity trace", _run_simulate_mz, [
        _Section("noise process", [*_PROCESS, _DRIFT]), *_GRID, _SEED,
        _Flag("--i-max", "i_max", default=1.0),
        _Flag("--i-min", "i_min", default=0.0),
        _Flag("--phi0", "phi0_rad", default=math.pi / 2,
              help="static arm phase offset (rad); default pi/2 (mid-fringe)"),
        _Flag("--out", "outputs.trace", str, required=True, help="intensity trace CSV to write"),
    ]),
    "simulate fringe": _Command("scan a Sagnac fringe", _run_simulate_fringe, [
        _Section("noise process", [*_PROCESS, _Flag(
            "--group-index", "process.group_index", default=DEFAULT_GROUP_INDEX,
            help=f"fiber group index; it sets the loop delay (default {DEFAULT_GROUP_INDEX})")]),
        _SEED,
        _Flag("--loop-km", "loop_km", required=True, help="Sagnac loop length (km)"),
        _Flag("--points", "n_points", int, default=50, help="scan points over one fringe"),
        _Flag("--pulses-per-point", "pulses_per_point", int, default=1000),
        _Flag("--detector-noise", "detector_noise", default=0.0),
        _Flag("--i0", "i0", default=1.0, help="mean full intensity"),
        _Flag("--out", "outputs.scan", str, required=True, help="fringe scan CSV to write"),
    ]),
    "analyze fringe": _Command("sinusoidal fit of a fringe scan", _run_analyze_fringe, [
        _Flag("--in", "inputs.scan", str, required=True, help="fringe scan CSV"),
    ]),
    "analyze phase": _Command("extract phase from an intensity trace", _run_analyze_phase, [
        _Flag("--in", "inputs.trace", str, required=True, help="intensity trace CSV"),
        _Flag("--band-lo", "band_lo", default=analysis.DEFAULT_BAND[0],
              help="lower edge of the usable normalized-intensity band"),
        _Flag("--band-hi", "band_hi", default=analysis.DEFAULT_BAND[1]),
        _Flag("--out", "outputs.phase", str, required=True, help="phase trace CSV to write"),
    ], check=(lambda a: 0 < a.band_lo < a.band_hi < 1, lambda a: (
        f"--band-lo/--band-hi must satisfy 0 < lo < hi < 1, got {a.band_lo} and {a.band_hi}"))),
    "analyze dphi": _Command("mean phase change vs lag", _run_analyze_dphi, [
        _Flag("--in", "inputs.phase", str, required=True, help="phase trace CSV"),
        _Flag("--tau-max-us", "tau_max_s", scale=1e-6, check=_POSITIVE, required=True,
              help="largest lag (us)"),
        _Flag("--max-lags", "max_lags", int, check=_AT_LEAST_ONE,
              default=analysis.DEFAULT_MAX_LAGS),
        _Flag("--histogram-tau-us", "histogram_tau_s", scale=1e-6, check=_POSITIVE,
              help="also export the increment histogram at this lag (us)",
              needs="--histogram-out"),
        _Flag("--histogram-out", "outputs.histogram", str,
              help="histogram CSV (with --histogram-tau-us)", needs="--histogram-tau-us"),
        _Flag("--out", "outputs.curve", str, required=True, help="dphi curve CSV to write"),
    ]),
    "analyze tau-threshold": _Command(
        "lag at which dphi reaches a target", _run_analyze_tau_threshold, [
        _Flag("--in", "inputs.curve", str, required=True, help="dphi curve CSV"),
        _Flag("--dphi", "target_rad", check=_POSITIVE, default=DPHI_TARGET,
              help="target mean phase change (rad)"),
    ]),
    "analyze exponent": _Command("scaling exponent of dphi(tau)", _run_analyze_exponent, [
        _Flag("--in", "inputs.curve", str, required=True, help="dphi curve CSV"),
        _Flag("--tau-min-us", "tau_min_s", scale=1e-6, check=_POSITIVE, required=True),
        _Flag("--tau-max-us", "tau_max_s", scale=1e-6, check=_POSITIVE, required=True),
    ], check=(lambda a: a.tau_min_us < a.tau_max_us, lambda a: (
        f"--tau-min-us must be below --tau-max-us, got {a.tau_min_us} and {a.tau_max_us}"))),
    "analyze diffusion": _Command(
        "diffusion coefficient from sigma or visibility", _run_analyze_diffusion, [
        _OneOf(True, [
            _Flag("--visibility", "visibility"),
            _Flag("--sigma", "sigma_rad"),
        ]),
        _Flag("--length-km", "length_km", required=True),
    ]),
    "repeater budget": _Command("per-segment phase allowance", _run_repeater_budget, [
        _Flag("--total-km", "total_km", required=True),
        _Flag("--links", "n_links", int, required=True),
        _Flag("--fidelity", "target_fidelity", required=True),
        _Flag("--segment-km", "segment_km", required=True),
    ]),
    "repeater fidelity": _Command("fidelity from phase noise", _run_repeater_fidelity, [
        _OneOf(True, [
            _Flag("--sigma", "sigma_rad", help="total phase-noise width (rad)"),
            _Flag("--visibility", "visibility"),
            _Flag("--diffusion", "diffusion", help="rad^2/km, with --link-km", needs="--link-km"),
        ]),
        _Flag("--link-km", "link_km", list,
              help="comma-separated link lengths (km)", needs="--diffusion"),
        _Flag("--monte-carlo", "monte_carlo_samples", int, check=_AT_LEAST_ONE,
              help="also estimate by Monte Carlo with this many samples"),
        _SEED,
    ]),
}
# Every command can write a report, as its last flag.
_COMMANDS = {key: command._replace(flags=[*command.flags, _REPORT])
             for key, command in _COMMANDS.items()}


def main(argv=None) -> int:
    """Console entry point: exit 0 on success, 1 on invalid values,
    propagated module errors or an allocation the machine refuses, 2 on
    usage errors (from argparse)."""
    try:
        config = parse_cli(argv)
        return run(config)
    except (FiberPhaseError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
