"""End-to-end tests of the fiberphase command-line interface."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
import warnings
import weakref
from unittest import mock

import numpy as np
import pytest

from fiberphase import (DomainError, FringeScan, PhaseStats, PhaseTrace, analysis, fileio,
                        read_trace)
from fiberphase.cli import _COMMANDS, DEFAULT_SEED, _flags, _naming, main, parse_cli, run


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def load_report(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


_NOISE = "simulate noise --sigma-ref 0.1 --tau-ref-us 100 --out {d}/x.csv"
_MZ = "simulate mz --night --duration-ms 1 --dt-us 1 --out {d}/x.csv"
_FRINGE = "simulate fringe --sigma-ref 0.3 --tau-ref-us 100 --out {d}/x.csv"
_PHASE = "analyze phase --in {d}/mz.csv --out {d}/p.csv"
_DPHI = "analyze dphi --in {d}/p.csv --out {d}/c.csv"
_EXPONENT = "analyze exponent --in {d}/c.csv"
_BUDGET = "repeater budget --links 8 --fidelity 0.9"

# Nonzero values that are 0 once converted to seconds: (argv, their flag).
UNDERFLOW_VALUES = [
    (_NOISE + " --duration-ms 1 --dt-us 1e-320", "--dt-us"),
    ("simulate noise --sigma-ref 0.1 --tau-ref-us 1e-320 --duration-ms 1 --dt-us 1 "
     "--out {d}/x.csv", "--tau-ref-us"),
    (_DPHI + " --tau-max-us 1e-320", "--tau-max-us"),
]

# One bad value per case, one case per value check of the CLI: (argv, flag
# that the error message must name).
INVALID_VALUES = [
    ("simulate noise --night --sigma-ref 0.2 --duration-ms 1 --dt-us 1 "
     "--out {d}/x.csv", "--night"),
    ("simulate noise --tau-ref-us 100 --duration-ms 1 --dt-us 1 --out {d}/x.csv",
     "--sigma-ref"),
    ("simulate noise --sigma-ref 0.1 --duration-ms 1 --dt-us 1 --out {d}/x.csv",
     "--tau-ref-us"),
    ("simulate noise --sigma-ref -0.1 --tau-ref-us 100 --duration-ms 1 --dt-us 1 "
     "--out {d}/x.csv", "--sigma-ref"),
    ("simulate noise --sigma-ref 0.1 --tau-ref-us 0 --duration-ms 1 --dt-us 1 "
     "--out {d}/x.csv", "--tau-ref-us"),
    (_NOISE + " --duration-ms 0 --dt-us 1", "--duration-ms/--dt-us"),
    (_NOISE + " --duration-ms 1 --dt-us 1 --hurst 1.5", "--hurst"),
    (_NOISE + " --duration-ms 1 --dt-us 1 --hurst 0", "--hurst"),
    (_NOISE + " --duration-ms 1 --dt-us -1", "--dt-us"),
    (_MZ + " --i-max 0.5 --i-min 0.5", "--i-max/--i-min"),
    (_FRINGE + " --loop-km 0", "--loop-km"),
    (_FRINGE + " --loop-km 40 --points 3", "--points"),
    (_FRINGE + " --loop-km 40 --pulses-per-point 0", "--pulses-per-point"),
    (_FRINGE + " --loop-km 40 --i0 0", "--i0"),
    (_FRINGE + " --loop-km 40 --group-index 1", "--group-index"),
    (_PHASE + " --band-lo 0.8 --band-hi 0.2", "--band-lo/--band-hi"),
    (_DPHI + " --tau-max-us 0", "--tau-max-us"),
    (_DPHI + " --tau-max-us 100 --max-lags 0", "--max-lags"),
    (_DPHI + " --tau-max-us 100 --histogram-tau-us -1 --histogram-out {d}/h.csv",
     "--histogram-tau-us"),
    (_DPHI + " --tau-max-us 100 --histogram-tau-us 20", "--histogram-out"),
    ("analyze tau-threshold --in {d}/c.csv --dphi 0", "--dphi"),
    (_EXPONENT + " --tau-min-us 0 --tau-max-us 100", "--tau-min-us"),
    (_EXPONENT + " --tau-min-us 2 --tau-max-us -1", "--tau-max-us"),
    (_EXPONENT + " --tau-min-us 200 --tau-max-us 100", "--tau-min-us"),
    ("analyze diffusion --visibility 1.5 --length-km 10", "--visibility"),
    ("analyze diffusion --sigma -0.1 --length-km 10", "--sigma"),
    ("analyze diffusion --sigma 0.1 --length-km 0", "--length-km"),
    ("analyze diffusion --visibility 0.5 --length-km 1e-320 --report {d}/d.json",
     "--visibility/--length-km"),  # overflows
    ("analyze diffusion --sigma 1e200 --length-km 1e-200 --report {d}/d.json",
     "--sigma/--length-km"),  # overflows
    (_BUDGET + " --total-km 0 --segment-km 36.5", "--total-km"),
    ("repeater budget --total-km 1000 --links 0 --fidelity 0.9 --segment-km 36.5",
     "--links"),
    ("repeater budget --total-km 1000 --links 8 --fidelity 0.5 --segment-km 36.5",
     "--fidelity"),
    (_BUDGET + " --total-km 1000 --segment-km 0", "--segment-km"),
    (_BUDGET + " --total-km 1000 --segment-km 200", "--segment-km"),
    ("repeater fidelity --diffusion -1 --link-km 35", "--diffusion"),
    ("repeater fidelity --diffusion 1e300 --link-km 1e300", "--diffusion/--link-km"),  # overflows
    ("repeater fidelity --diffusion 8e-4", "--link-km"),
    ("repeater fidelity --diffusion 8e-4 --link-km 35,x", "--link-km"),
    ("repeater fidelity --diffusion 8e-4 --link-km ,", "--link-km"),
    ("repeater fidelity --diffusion 8e-4 --link-km 35,-1", "--link-km"),
    ("repeater fidelity --visibility 0", "--visibility"),
    ("repeater fidelity --sigma -0.1", "--sigma"),
    ("repeater fidelity --sigma 0.3 --monte-carlo 0", "--monte-carlo"),
    *UNDERFLOW_VALUES,
]

# Values that parse as floats but are not finite.
NON_FINITE_VALUES = [
    (_NOISE + " --duration-ms inf --dt-us 1", "--duration-ms"),
    (_DPHI + " --tau-max-us inf", "--tau-max-us"),
    ("repeater fidelity --sigma nan", "--sigma"),
    ("repeater fidelity --diffusion 8e-4 --link-km 35,inf", "--link-km"),
]

# Input files that an analyze command must reject with exit 1: (file bytes,
# command reading {f}, start of the error message, in which {f} stands for the
# file).
MALFORMED_INPUTS = [
    (b"# fiberphase-trace v1\n# kind: phase\n# t0: 0.0\n# dt: 1e-06\n# segments: 0:2\n"
     b"time_s,value\n0.0,0.1\n1e-06,0.\xff2\n",
     "analyze dphi --in {f} --tau-max-us 1 --out {d}/c.csv", "line 8: "),
    (b"# fiberphase-fringe v1\n# i0: 1.0\n# detector_noise: 0.0\n"
     b"applied_phase_rad,pulse_area\n0.0,1.0\n1.0,0.7\nnan,0.3\n3.0,0.1\n4.0,0.4\n",
     "analyze fringe --in {f}", "line 7: {f}: applied_phase[2] is not finite"),
    (b"# fiberphase-dphi v1\n# dt: 1e-06\ntau_s,dphi_rad,sigma_rad,n_increments\n"
     b"1e-06,0.05,0.06,9\nnan,0.2,0.25,8\n",
     "analyze tau-threshold --in {f} --dphi 0.1", "line 5: {f}: taus[1] is not finite"),
    (b"# fiberphase-dphi v1\n# dt: 1e-06\ntau_s,dphi_rad,sigma_rad,n_increments\n"
     b"1e-06,0.05,0.06,9\n2e-06,0.2,0.25,nan\n",
     "analyze tau-threshold --in {f} --dphi 0.1", "line 5: "),
    (b"# fiberphase-trace v1\n# kind: intensity\n# t0: 0.0\n# dt: 1e-06\n# i_max: 1.0\n"
     b"# i_min: 0.0\ntime_s,value\n0.0,0.5\n1e-06,0.6\n2e-06,nan\n3e-06,0.4\n",
     "analyze phase --in {f} --out {d}/c.csv", "line 10: {f}: samples[2] is not finite: nan"),
    (b"# fiberphase-trace v1\n# kind: phase\n# t0: nan\n# dt: 1e-06\n# segments: 0:3\n"
     b"time_s,value\n0.0,0.1\n1e-06,0.2\n2e-06,0.3\n",
     "analyze dphi --in {f} --tau-max-us 1 --out {d}/c.csv", "line 3: {f}: t0 must be finite"),
    (b"# fiberphase-fringe v1\n# i0: nan\n# detector_noise: 0.0\n"
     b"applied_phase_rad,pulse_area\n0.0,1.0\n1.0,0.7\n2.0,0.3\n3.0,0.1\n4.0,0.4\n",
     "analyze fringe --in {f}", "line 2: {f}: i0 must be > 0, got nan"),
    (b"# fiberphase-dphi v1\n# dt: inf\ntau_s,dphi_rad,sigma_rad,n_increments\n"
     b"1e-06,0.05,0.06,9\n2e-06,0.2,0.25,8\n",
     "analyze tau-threshold --in {f} --dphi 0.1", "line 2: {f}: dt must be finite, got inf"),
    (b"# fiberphase-dphi v1\n# dt: 1e-06\ntau_s,dphi_rad,sigma_rad,n_increments\n"
     b"1e-06,0.05,0.06,9\n2e-06,nan,0.25,8\n3e-06,0.1,0.12,7\n4e-06,0.2,0.2,6\n",
     "analyze exponent --in {f} --tau-min-us 1 --tau-max-us 4",
     "line 5: {f}: mean_abs_change[1] is not finite: nan"),
    (b"# fiberphase-dphi v1\n# dt: 1e-06\ntau_s,dphi_rad,sigma_rad,n_increments\n"
     b"1e-06,0.05,0.06,9\n2e-06,inf,0.25,8\n3e-06,0.1,0.12,7\n4e-06,0.2,0.2,6\n",
     "analyze tau-threshold --in {f} --dphi 0.08",
     "line 5: {f}: mean_abs_change[1] is not finite: inf"),
    (b"# fiberphase-dphi v1\n# dt: 1e-06\ntau_s,dphi_rad,sigma_rad,n_increments\n"
     b"1e-06,0.05,0.06,9\n2e-06,0.07,0.08,8\n3e-06,0.1,0.12,7\n",
     "analyze exponent --in {f} --tau-min-us 2 --tau-max-us 4",
     "--tau-min-us/--tau-max-us: need >= 3 lags in [2e-06, 4e-06] s, have 2\n"),
    (b"# fiberphase-dphi v1\n# dt: 1e-06\ntau_s,dphi_rad,sigma_rad,n_increments\n"
     b"-2e-06,0.05,0.06,9\n-1e-06,0.07,0.08,8\n0.0,0.1,0.12,7\n",
     "analyze tau-threshold --in {f} --dphi 0.08", "line 4: {f}: lags must be > 0\n"),
    (b"# fiberphase-trace v1\n# kind: phase\n# t0: 0.0\n# dt: 1e-300\n# segments: 0:3\n"
     b"time_s,value\n0.0,0.1\n1e-300,0.2\n2e-300,0.3\n",
     "analyze dphi --in {f} --tau-max-us 100 --out {d}/c.csv",
     "9.999999999999998e+295 steps exceed the limit of 17592186044416\n"),
    (b"# fiberphase-trace v1\n# kind: phase\n# t0: 0.0\n# dt: 5e-324\n# segments: 0:3\n"
     b"time_s,value\n0.0,0.1\n5e-324,0.2\n1e-323,0.3\n",
     "analyze dphi --in {f} --tau-max-us 100 --out {d}/c.csv",
     "inf steps exceed the limit of 17592186044416\n"),
]

# A flag that only takes effect together with another one.
UNPAIRED_FLAGS = [
    (_DPHI + " --tau-max-us 100 --histogram-out {d}/h.csv",
     ("--histogram-out", "--histogram-tau-us")),
    ("repeater fidelity --sigma 0.3 --link-km 35", ("--link-km", "--diffusion")),
]


class TestParseCli:
    def test_budget_config(self):
        config = parse_cli(
            "repeater budget --total-km 1000 --links 8 --fidelity 0.9 "
            "--segment-km 36.5".split()
        )
        assert config["command"] == "repeater budget"
        assert config["params"]["total_km"] == 1000.0
        assert config["params"]["n_links"] == 8
        assert config["seed"] is None

    def test_default_seed_documented_constant(self):
        config = parse_cli(
            "simulate noise --sigma-ref 0.2 --tau-ref-us 100 "
            "--duration-ms 1 --dt-us 2 --out x.csv".split()
        )
        assert config["seed"] == DEFAULT_SEED == 12345

    def test_units_converted_to_si(self):
        config = parse_cli(
            "simulate noise --sigma-ref 0.2 --tau-ref-us 178.75 "
            "--duration-ms 2 --dt-us 2 --out x.csv".split()
        )
        assert config["params"]["process"]["tau_ref_s"] == pytest.approx(178.75e-6)
        assert config["params"]["duration_s"] == pytest.approx(2e-3)
        assert config["params"]["dt_s"] == pytest.approx(2e-6)

    def test_process_fields_checked_by_run(self, capsys, tmp_path):
        # parse_cli resolves the process block; NoiseParams checks it in run()
        argv = f"simulate mz --night --hurst 1.5 --duration-ms 1 --dt-us 1 --out {tmp_path}/x.csv"
        config = parse_cli(argv.split())
        assert config["params"]["process"]["hurst"] == 1.5
        assert main(argv.split()) == 1
        assert capsys.readouterr().err == "error: --hurst: hurst out of range (0, 1): got 1.5\n"
        assert not list(tmp_path.iterdir())

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            parse_cli(["simulate", "everything"])
        assert excinfo.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            parse_cli(["repeater", "budget", "--bogus", "1"])
        assert excinfo.value.code == 2

    def test_preset_conflicts_with_explicit_sigma(self):
        code = main(
            "simulate noise --night --sigma-ref 0.2 --duration-ms 1 --dt-us 2 "
            "--out x.csv".split()
        )
        assert code == 1


class TestValidationExitCodes:
    @pytest.mark.parametrize("template,flag", UNDERFLOW_VALUES)
    def test_value_that_underflows_to_zero_seconds(self, capsys, tmp_path, template, flag):
        assert main(template.format(d=tmp_path).split()) == 1
        assert capsys.readouterr().err == (
            f"error: {flag} 1e-320 is 0 once converted to seconds\n")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv,code", [
        ("repeater fidelity --sigma 0.3", 0),
        ("repeater fidelity --sigma -0.1", 1),
        ("repeater fidelity --sigma 0.3 --no-such-flag", 2),
    ], ids=["valid", "invalid_value", "unknown_flag"])
    def test_process_exit_code(self, argv, code):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        done = subprocess.run([sys.executable, "-m", "fiberphase.cli", *argv.split()],
                              env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == code, done.stderr
        if code == 0:
            assert done.stdout.startswith("fidelity: ") and done.stderr == ""
        elif code == 1:
            assert done.stderr.startswith("error: --sigma: ") and done.stderr.count("\n") == 1
        else:
            assert "unrecognized arguments: --no-such-flag" in done.stderr

    def test_negative_tau_max_names_flag(self, capsys, tmp_path):
        code = main(
            f"analyze dphi --in {tmp_path/'p.csv'} --tau-max-us -5 "
            f"--out {tmp_path/'c.csv'}".split()
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "--tau-max-us" in err

    def test_bad_fidelity(self, capsys):
        code = main(
            "repeater budget --total-km 1000 --links 8 --fidelity 1.5 "
            "--segment-km 36.5".split()
        )
        assert code == 1
        assert "--fidelity" in capsys.readouterr().err

    def test_band_must_exclude_extrema(self, capsys, tmp_path):
        for lo, hi in ((0, 0.8), (0.2, 1)):
            code = main(
                f"analyze phase --in {tmp_path/'mz.csv'} --band-lo {lo} --band-hi {hi} "
                f"--out {tmp_path/'p.csv'}".split()
            )
            assert code == 1
            assert "--band-lo/--band-hi" in capsys.readouterr().err

    def test_histogram_lag_off_grid(self, capsys, tmp_path):
        phase = tmp_path / "phase.csv"
        assert main(
            f"simulate noise --sigma-ref 0.2 --tau-ref-us 100 --duration-ms 4 "
            f"--dt-us 2 --seed 3 --out {phase}".split()
        ) == 0
        code = main(
            f"analyze dphi --in {phase} --tau-max-us 100 --histogram-tau-us 21 "
            f"--histogram-out {tmp_path/'h.csv'} --out {tmp_path/'c.csv'}".split()
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "error: --histogram-tau-us: lag 2.1e-05 s is not a positive multiple of "
            "dt = 2e-06 s\n")
        assert sorted(os.listdir(tmp_path)) == ["phase.csv"]

    @pytest.mark.parametrize("tau_us,have", [(5000, 0), (1950, 51)])
    def test_histogram_lag_with_too_few_increments(self, capsys, tmp_path, tau_us, have):
        phase = tmp_path / "phase.csv"
        assert main(
            f"simulate noise --sigma-ref 0.1 --tau-ref-us 100 --duration-ms 2 "
            f"--dt-us 1 --out {phase}".split()
        ) == 0
        capsys.readouterr()
        code = main(
            f"analyze dphi --in {phase} --tau-max-us 100 --histogram-tau-us {tau_us} "
            f"--histogram-out {tmp_path/'h.csv'} --out {tmp_path/'c.csv'}".split()
        )
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: --histogram-tau-us: need >= 100 increments, have {have} "
            f"at tau = {tau_us * 1e-6:g} s\n")
        assert sorted(os.listdir(tmp_path)) == ["phase.csv"]

    def test_histogram_lag_off_the_curve_grid(self, tmp_path):
        # 600 steps of 1 us thinned to --max-lags 100 hold 98 and 105 us but
        # not 100 us: the histogram's lag is one of the trace's, not the curve's.
        phase, hist = tmp_path / "phase.csv", tmp_path / "h.csv"
        assert main(
            f"simulate noise --sigma-ref 0.1 --tau-ref-us 100 --duration-ms 2 "
            f"--dt-us 1 --seed 3 --out {phase}".split()
        ) == 0
        assert main(
            f"analyze dphi --in {phase} --tau-max-us 600 --histogram-tau-us 100 "
            f"--histogram-out {hist} --out {tmp_path/'c.csv'}".split()
        ) == 0
        steps = set(np.round(fileio.read_dphi_curve(str(tmp_path / "c.csv")).taus / 1e-6))
        assert {98, 105} <= steps and 100 not in steps
        expected = tmp_path / "expected.csv"
        fileio.write_histogram(str(expected), analysis.fit_gaussian(
            analysis.increments_at(read_trace(str(phase)), 1e-4)))
        assert read_bytes(hist) == read_bytes(expected)

    @pytest.mark.parametrize("fields,prefix", [(("duration",), "--duration-ms: "), ((), "")],
                             ids=["field", "no_field"])
    def test_flags_come_from_fields_not_words(self, fields, prefix):
        message = "hurst and dt are words here, not fields"
        with pytest.raises(DomainError) as excinfo, _naming(_COMMANDS["simulate noise"].flags):
            raise DomainError(message, *fields)
        assert str(excinfo.value) == prefix + message

    def test_nan_inside_phase_segment(self, capsys, tmp_path):
        phase = tmp_path / "p.csv"
        values = ["0.1", "0.2", "nan", "0.4", "0.5"]
        rows = "".join(f"{k}e-06,{v}\n" for k, v in enumerate(values))
        phase.write_text(
            "# fiberphase-trace v1\n# kind: phase\n# t0: 0.0\n# dt: 1e-06\n"
            "# segments: 0:5\ntime_s,value\n" + rows
        )
        code = main(
            f"analyze dphi --in {phase} --tau-max-us 2 --out {tmp_path/'c.csv'}".split()
        )
        assert code == 1
        assert "sample 2 " in capsys.readouterr().err
        assert not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize(
        "data,template,fragment", MALFORMED_INPUTS,
        ids=["non_utf8_trace", "nan_fringe_phase", "nan_curve_lag", "nan_curve_count",
             "nan_intensity_sample", "nan_trace_t0", "nan_fringe_i0", "inf_curve_dt",
             "nan_curve_dphi", "inf_curve_dphi", "too_few_lags_in_range",
             "non_positive_curve_lags", "tiny_trace_dt", "subnormal_trace_dt"],
    )
    def test_malformed_input_file(self, capsys, tmp_path, data, template, fragment):
        path = tmp_path / "in.csv"
        path.write_bytes(data)
        assert main(template.format(f=path, d=tmp_path).split()) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: " + fragment.format(f=path))
        assert not (tmp_path / "c.csv").exists()

    def test_wrong_trace_kind_names_no_flag(self, capsys, tmp_path):
        # the directory shares its name with the parameter of --tau-max-us
        mz = tmp_path / "tau_max" / "mz.csv"
        mz.parent.mkdir()
        assert main(f"simulate mz --night --duration-ms 1 --dt-us 1 --out {mz}".split()) == 0
        capsys.readouterr()
        code = main(f"analyze dphi --in {mz} --tau-max-us 100 --out {tmp_path/'c.csv'}".split())
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: line 2: {mz}: expected PhaseTrace, got kind 'intensity'\n")

    def test_phase_trace_is_no_intensity_trace(self, capsys, tmp_path):
        phase = tmp_path / "phase.csv"
        assert main(f"simulate noise --sigma-ref 0.1 --tau-ref-us 100 --duration-ms 1 "
                    f"--dt-us 1 --out {phase}".split()) == 0
        capsys.readouterr()
        assert main(f"analyze phase --in {phase} --out {tmp_path/'p.csv'}".split()) == 1
        assert capsys.readouterr().err == (
            f"error: line 2: {phase}: expected IntensityTrace, got kind 'phase'\n")

    def test_missing_input_file(self, capsys, tmp_path):
        code = main(f"analyze fringe --in {tmp_path/'missing.csv'}".split())
        assert code == 1

    @pytest.mark.parametrize("template,flag", INVALID_VALUES + NON_FINITE_VALUES)
    def test_invalid_value_names_flag(self, capsys, tmp_path, template, flag):
        # {d} holds no input file: every value check runs before any read
        code = main(template.format(d=tmp_path).split())
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith((f"error: {flag}: ", f"error: {flag} ")) and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["simulate noise --sigma-ref 0.1 --tau-ref-us 100",
                                         "simulate mz --night"])
    def test_duration_shorter_than_step_names_both_flags(self, capsys, tmp_path, command):
        argv = f"{command} --duration-ms 0.0005 --dt-us 1 --out {tmp_path}/x.csv".split()
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "error: --duration-ms/--dt-us: duration must be >= dt, "
            "got duration=5e-07, dt=1e-06\n"
        )
        assert not list(tmp_path.iterdir())

    def test_monte_carlo_overflow_names_sigma(self, capsys, tmp_path):
        # 1e308 passes every range check, but a draw sigma * z overflows
        argv = (f"repeater fidelity --sigma 1e308 --monte-carlo 100 "
                f"--report {tmp_path}/r.json").split()
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "error: --sigma: a phase draw sigma * z is not finite at sigma=1e+308\n"
        )
        assert not list(tmp_path.iterdir())

    def test_link_lengths_are_checked_by_the_library(self, capsys, tmp_path):
        argv = (f"repeater fidelity --diffusion 8e-4 --link-km 35,-1 "
                f"--report {tmp_path}/r.json").split()
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "error: --link-km: link lengths must be > 0, got (35.0, -1.0)\n")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("template,flag,message", [
        ("simulate noise --sigma-ref 1e308 --tau-ref-us 1 --duration-ms 1 --dt-us 1 "
         "--out {d}/n.csv", "--sigma-ref", "the phase is not finite at sigma_ref=1e+308"),
        ("simulate mz --sigma-ref 1e308 --tau-ref-us 1 --duration-ms 1 --dt-us 1 "
         "--out {d}/m.csv", "--sigma-ref", "the phase is not finite at sigma_ref=1e+308"),
        ("simulate fringe --sigma-ref 1e308 --tau-ref-us 100 --loop-km 40 --out {d}/f.csv",
         "--sigma-ref", "a pulse jitter sigma * z is not finite at sigma=1e+308"),
        ("simulate noise --sigma-ref 0.1 --tau-ref-us 100 --drift-rate 1e308 "
         "--duration-ms 10000 --dt-us 1000000 --out {d}/d.csv",
         "--drift-rate", "the drift is not finite at drift_rate=1e+308"),
        ("simulate fringe --sigma-ref 0.1 --tau-ref-us 100 --loop-km 40 --i0 1e308 "
         "--out {d}/i.csv", "--i0", "a sum of pulse areas is not finite at i0=1e+308"),
        ("simulate mz --night --duration-ms 1 --dt-us 1 --i-max=1.7e308 --i-min=-1.7e308 "
         "--out {d}/s.csv", "--i-max/--i-min",
         "the span i_max - i_min is not finite at i_max=1.7e+308, i_min=-1.7e+308"),
        ("simulate noise --sigma-ref 1e307 --tau-ref-us 1000000 --duration-ms 3000 "
         "--dt-us 1000000 --drift-rate 5.5e307 --seed 1 --out {d}/w.csv",
         "--sigma-ref/--drift-rate",
         "the phase plus the drift is not finite at sigma_ref=1e+307, drift_rate=5.5e+307"),
        ("simulate fringe --sigma-ref 0.1 --tau-ref-us 100 --loop-km 40 --i0 1.7e308 "
         "--detector-noise 1.7e308 --pulses-per-point 1 --out {d}/f.csv",
         "--detector-noise/--i0", "a pulse area plus the detector floor is not finite at "
         "i0=1.7e+308, detector_noise=1.7e+308"),
        # one step, whose width sigma_at(dt) is already past float range
        ("simulate noise --sigma-ref 1e300 --tau-ref-us 1e-24 --duration-ms 1000 "
         "--dt-us 1000000 --seed 1 --out {d}/x.csv",
         "--sigma-ref", "the phase is not finite at sigma_ref=1e+300"),
        # one step of dt = 1 s over a subnormal tau_ref: the lag ratio overflows
        ("simulate noise --sigma-ref 0.1 --tau-ref-us 1e-310 --duration-ms 1000 "
         "--dt-us 1000000 --out {d}/y.csv",
         "--tau-ref-us", "the lag ratio tau / tau_ref is not finite at tau=1.0, tau_ref=1e-316"),
        ("simulate fringe --sigma-ref 0.1 --tau-ref-us 100 --loop-km 1e306 --group-index 1e10 "
         "--out {d}/x.csv", "--group-index/--loop-km",
         "the loop delay is not finite at loop_km=1e+306, group_index=10000000000.0"),
        ("repeater fidelity --diffusion 1e300 --link-km 1e300 --report {d}/r.json",
         "--diffusion/--link-km", "the chain's phase variance is not finite at diffusion=1e+300"),
    ], ids=["noise", "mz", "fringe", "drift", "i0", "span", "walk_drift", "floor", "one_step",
            "lag_ratio", "loop_delay", "chain_variance"])
    def test_overflowing_result_names_its_flag(self, capsys, tmp_path, template, flag,
                                               message):
        # 1e308 passes every range check, but a result computed from it leaves float range
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(template.format(d=tmp_path).split()) == 1
        assert caught == []
        assert capsys.readouterr().err == f"error: {flag}: {message}\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("template,message", [
        ("analyze dphi --in {i}/p.csv --tau-max-us 5 --out {o}/c.csv",
         "the dphi curve is not finite at tau_max=4.9999999999999996e-06"),
        ("analyze dphi --in {i}/p.csv --tau-max-us 5 --out {o}/c.csv --histogram-tau-us 1 "
         "--histogram-out {o}/h.csv", "--histogram-tau-us: the increment histogram is not "
         "finite at min=-1.6e+308, max=1.6e+308"),
        ("analyze tau-threshold --in {i}/c.csv --dphi 1e300 --report {o}/t.json",
         "--dphi: the threshold crossing is not finite at target=1e+300"),
        ("analyze fringe --in {i}/f.csv --report {o}/f.json",
         "the fit's residual rms is not finite at max_area=1.40000001e+308"),
        ("analyze fringe --in {i}/g.csv --report {o}/g.json", "line 3: {i}/g.csv: a pulse "
         "area less the detector floor is not finite at detector_noise=-1.7e+308"),
    ], ids=["dphi_curve", "histogram", "tau_threshold", "fringe_residual", "fringe_floor"])
    def test_overflowing_file_result_exits_with_one_line(self, capsys, tmp_path, template,
                                                         message):
        # Every value in these files is finite; a result computed from them is not.
        (tmp_path / "in").mkdir()
        (tmp_path / "out").mkdir()
        d = {"i": tmp_path / "in", "o": tmp_path / "out"}
        phi = np.linspace(0.0, 2.0 * math.pi, 8)
        fileio.write_trace(f"{d['i']}/p.csv", PhaseTrace(
            t0=0.0, dt=1e-6, samples=np.resize([8e307, -8e307], 300)))
        fileio.write_dphi_curve(f"{d['i']}/c.csv", PhaseStats(
            taus=[1e-6, 1e10], n_increments=[5, 5], dt=1e-6, mean_abs_change=[0.0, 2e300],
            sigma_per_tau=[0.0, 1.0]))
        fileio.write_fringe_scan(f"{d['i']}/f.csv",
                                 FringeScan(phi, 0.7e308 * (1.0 + np.cos(phi)) + 1e300))
        (d["i"] / "g.csv").write_text(
            "# fiberphase-fringe v1\n# i0: 1.0\n# detector_noise: -1.7e308\n"
            "applied_phase_rad,pulse_area\n" + "".join(f"{p!r},1.7e308\n" for p in phi.tolist()))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(template.format(**d).split()) == 1
        assert caught == []
        assert capsys.readouterr().err == f"error: {message.format(**d)}\n"
        assert not list(d["o"].iterdir())

    @pytest.mark.parametrize("template,flags", UNPAIRED_FLAGS)
    def test_unpaired_flag_names_both(self, capsys, tmp_path, template, flags):
        code = main(template.format(d=tmp_path).split())
        assert code == 1
        err = capsys.readouterr().err
        assert all(flag in err for flag in flags)
        assert not list(tmp_path.iterdir())


    def test_replayed_library_error_names_flag(self, tmp_path):
        report = tmp_path / "budget.json"
        assert main(
            f"repeater budget --total-km 1000 --links 8 --fidelity 0.9 "
            f"--segment-km 36.5 --report {report}".split()
        ) == 0
        replay = load_report(report)["config"]
        replay["params"]["total_km"] = 0.0
        replay["outputs"] = {}
        with pytest.raises(DomainError) as excinfo:
            run(replay)
        assert str(excinfo.value).startswith("--total-km: ")

    def test_replayed_unknown_command(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = {"command": "analyze nope", "params": {}, "seed": None, "inputs": {},
                  "outputs": {"report": "r.json"}}
        with pytest.raises(DomainError, match="^unknown command 'analyze nope'$") as excinfo:
            run(config)
        assert excinfo.value.fields == ("command",)
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("key", ["length_km", "bogus"])
    def test_replayed_unknown_process_key(self, tmp_path, monkeypatch, key):
        # The config of a report written while the process block had length_km
        monkeypatch.chdir(tmp_path)
        config = {"command": "simulate mz", "inputs": {},
                  "outputs": {"report": "r.json", "trace": "trace.csv"},
                  "params": {"dt_s": 2e-06, "duration_s": 0.001, "i_max": 1.0, "i_min": 0.0,
                             "phi0_rad": 1.5707963267948966,
                             "process": {"drift_rate": 0.0, "group_index": 1.5, "hurst": 0.5,
                                         "length_km": 36.5, "sigma_ref": 0.12533141373155002,
                                         "tau_ref_s": 0.00035}},
                  "seed": 5}
        if key == "bogus":
            config["params"]["process"]["bogus"] = config["params"]["process"].pop("length_km")
        with pytest.raises(DomainError, match=f"^unknown noise-process key '{key}'$") as excinfo:
            run(config)
        assert excinfo.value.fields == (key,)
        assert not list(tmp_path.iterdir())
        del config["params"]["process"][key]
        assert run(config) == 0


# Per calibration flag of the simulate commands: a base value, its default
# where it has one, and another valid value.
CALIBRATION_VALUES = {"--sigma-ref": ("0.1", "0.2"), "--tau-ref-us": ("100", "50"),
                      "--hurst": ("0.5", "0.7"), "--drift-rate": ("0.0", "300"),
                      "--group-index": ("1.5", "1.6")}
SIMULATE_GRIDS = {
    "simulate noise": "--duration-ms 1 --dt-us 1",
    "simulate mz": "--duration-ms 1 --dt-us 1",
    "simulate fringe": "--loop-km 20 --points 8 --pulses-per-point 100",
}
CALIBRATION_FLAGS = [(command, flag) for command in SIMULATE_GRIDS
                     for flag in _flags(_COMMANDS[command].flags)
                     if flag.key.startswith("process.") and flag.type is float]
# Flags that a simulate command no longer takes, as its model reads none of them.
REMOVED_FLAGS = [("simulate noise", "--length-km"), ("simulate mz", "--length-km"),
                 ("simulate fringe", "--length-km"), ("simulate noise", "--group-index"),
                 ("simulate mz", "--group-index"), ("simulate fringe", "--drift-rate")]


class TestCalibrationFlags:
    """A simulate command takes only the calibration flags its model reads."""

    @pytest.mark.parametrize("command,flag", CALIBRATION_FLAGS,
                             ids=[f"{c[9:]}{f.name}" for c, f in CALIBRATION_FLAGS])
    def test_flag_changes_the_output(self, tmp_path, command, flag):
        assert flag.name in CALIBRATION_VALUES, f"no values for {flag.name}"
        base, other = CALIBRATION_VALUES[flag.name]
        assert flag.default in (None, float(base))
        # the two flags without a default at their base, the rest at theirs
        given = {name: CALIBRATION_VALUES[name][0] for name in ("--sigma-ref", "--tau-ref-us")}
        written = []
        for value in (base, other):
            given[flag.name] = value
            argv = (f"{command} {SIMULATE_GRIDS[command]} --out {tmp_path}/x.csv " +
                    " ".join(f"{name} {v}" for name, v in given.items()))
            assert main(argv.split()) == 0
            written.append(read_bytes(tmp_path / "x.csv"))
        assert written[0] != written[1]

    @pytest.mark.parametrize("command,flag", REMOVED_FLAGS,
                             ids=[f"{c[9:]}{f}" for c, f in REMOVED_FLAGS])
    def test_removed_flag_is_a_usage_error(self, capsys, tmp_path, command, flag):
        with pytest.raises(SystemExit) as excinfo:
            parse_cli(f"{command} --night {SIMULATE_GRIDS[command]} {flag} 1.5 "
                      f"--out {tmp_path}/x.csv".split())
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag} 1.5" in capsys.readouterr().err


class TestRepeaterCommands:
    def test_budget_report_value(self, tmp_path, capsys):
        report_path = tmp_path / "budget.json"
        code = main(
            f"repeater budget --total-km 1000 --links 8 --fidelity 0.9 "
            f"--segment-km 36.5 --report {report_path}".split()
        )
        assert code == 0
        assert "budget:" in capsys.readouterr().out
        data = load_report(report_path)
        assert data["results"]["budget"]["dphi_limit_rad"] == pytest.approx(
            0.1018, abs=0.0005
        )
        assert data["schema_version"] == "v1"
        assert data["config"]["command"] == "repeater budget"

    def test_empty_report_path_writes_no_report(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = "repeater budget --total-km 1000 --links 8 --fidelity 0.9 --segment-km 36.5"
        assert main(argv.split() + ["--report", ""]) == 0
        assert not list(tmp_path.iterdir())

    def test_fidelity_from_chain(self, tmp_path):
        report_path = tmp_path / "fid.json"
        code = main(
            f"repeater fidelity --diffusion 8e-4 --link-km 35,36.5 "
            f"--report {report_path}".split()
        )
        assert code == 0
        block = load_report(report_path)["results"]["fidelity"]
        assert block["sigma_rad"] == pytest.approx(np.sqrt(0.0572), rel=1e-9)

    def test_fidelity_monte_carlo(self, tmp_path):
        report_path = tmp_path / "fid.json"
        code = main(
            f"repeater fidelity --sigma 0.36 --monte-carlo 200000 --seed 3 "
            f"--report {report_path}".split()
        )
        assert code == 0
        block = load_report(report_path)["results"]["fidelity"]
        assert block["fidelity"] == pytest.approx(0.9686274478063388, rel=1e-9)
        assert block["monte_carlo_fidelity"] == pytest.approx(0.96863, abs=0.002)

    def test_replayed_zero_monte_carlo_samples_rejected(self, tmp_path):
        report = tmp_path / "fid.json"
        assert main(
            f"repeater fidelity --sigma 0.36 --monte-carlo 10 --report {report}".split()
        ) == 0
        replay = load_report(report)["config"]
        replay["params"]["monte_carlo_samples"] = 0
        replay["outputs"] = {}
        with pytest.raises(DomainError, match="n_samples must be >= 1"):
            run(replay)


class TestSimulateCommands:
    def test_constant_phase_trace(self, tmp_path):
        out = tmp_path / "quiet.csv"
        code = main(
            f"simulate noise --sigma-ref 0 --tau-ref-us 100 --duration-ms 0.1 "
            f"--dt-us 10 --out {out}".split()
        )
        assert code == 0
        trace = read_trace(str(out))
        assert np.all(trace.samples == 0.0)

    def test_zero_width_process_at_a_subnormal_reference_lag(self, capsys, tmp_path):
        # dt / tau_ref = 1e316 is past float range, but a zero width stays zero
        out = tmp_path / "quiet.csv"
        assert main(f"simulate noise --sigma-ref 0 --tau-ref-us 1e-310 --duration-ms 1000 "
                    f"--dt-us 1000000 --out {out}".split()) == 0
        assert capsys.readouterr().err == ""
        trace = read_trace(str(out))
        assert trace.samples.tolist() == [0.0, 0.0]

    def test_mz_trace_written(self, tmp_path):
        out = tmp_path / "mz.csv"
        code = main(
            f"simulate mz --night --duration-ms 2 --dt-us 2 --seed 4 "
            f"--out {out}".split()
        )
        assert code == 0
        trace = read_trace(str(out))
        assert trace.n_samples == 1001
        assert trace.i_max == 1.0

    def test_fringe_scan_and_fit(self, tmp_path):
        scan = tmp_path / "scan.csv"
        report = tmp_path / "fit.json"
        assert main(
            f"simulate fringe --sigma-ref 0.36 --tau-ref-us 178.75 --loop-km 71.5 "
            f"--points 50 --pulses-per-point 2000 --seed 8 --out {scan}".split()
        ) == 0
        assert main(f"analyze fringe --in {scan} --report {report}".split()) == 0
        fit = load_report(report)["results"]["fringe_fit"]
        assert fit["visibility"] == pytest.approx(0.9372548956126777, abs=0.02)
        inputs = load_report(report)["inputs"]
        assert inputs[0]["path"] == str(scan)
        assert len(inputs[0]["sha256"]) == 64

    def test_fringe_fit_above_one_has_no_sigma(self, tmp_path):
        # A fitted visibility just above 1, inside the fit's allowance, maps
        # to no phase width; the scan's minimum stays above the floor.
        scan, report = tmp_path / "scan.csv", tmp_path / "fit.json"
        phi = np.linspace(0, 2 * np.pi, 50)
        fileio.write_fringe_scan(str(scan), FringeScan(phi, 0.5 * (1 + (1 + 5e-7) * np.cos(phi))))
        assert main(f"analyze fringe --in {scan} --report {report}".split()) == 0
        fit = load_report(report)["results"]["fringe_fit"]
        assert (fit["visibility"], fit["sigma_rad"]) == (1.0000005, None)


CURVE = (b"# fiberphase-dphi v1\n# dt: 1e-06\ntau_s,dphi_rad,sigma_rad,n_increments\n"
         b"1e-06,0.005,0.006,499\n2e-06,0.02,0.025,498\n")

# Runs `analyze tau-threshold --in <fifo> --report <report>` in a fresh
# interpreter, fed by a thread; the arguments are the curve's bytes in hex,
# the FIFO's path and the report's path.
FIFO_REPORT = """
import os, sys, threading
from fiberphase.cli import main
data, fifo, report = bytes.fromhex(sys.argv[1]), sys.argv[2], sys.argv[3]
os.mkfifo(fifo)
def feed():
    with open(fifo, "wb") as fh:
        fh.write(data)
threading.Thread(target=feed).start()
sys.exit(main(["analyze", "tau-threshold", "--in", fifo, "--dphi", "0.01", "--report", report]))
"""


class TestInputDigests:
    """A report records the SHA-256 of each input, taken from the bytes its
    reader reads; without a report nothing is hashed."""

    @pytest.mark.parametrize("report", [True, False])
    def test_hashed_once_and_only_for_a_report(self, tmp_path, report):
        curve, out = tmp_path / "c.csv", tmp_path / "t.json"
        curve.write_bytes(CURVE)
        argv = f"analyze tau-threshold --in {curve} --dphi 0.01".split()
        with mock.patch.object(fileio, "read_dphi_curve", wraps=fileio.read_dphi_curve) as read, \
                mock.patch.object(fileio, "sha256_of_file", side_effect=AssertionError):
            assert main(argv + ["--report", str(out)] * report) == 0
        digest = read.call_args.kwargs["digest"]
        assert (digest is None) != report
        if report:
            assert load_report(out)["inputs"] == [
                {"path": str(curve), "sha256": hashlib.sha256(CURVE).hexdigest()}]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    def test_fifo_with_report(self, tmp_path):
        fifo, out = tmp_path / "in.fifo", tmp_path / "t.json"
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        done = subprocess.run(
            [sys.executable, "-c", FIFO_REPORT, CURVE.hex(), str(fifo), str(out)],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=30)
        assert done.returncode == 0, done.stderr
        assert load_report(out)["inputs"] == [
            {"path": str(fifo), "sha256": hashlib.sha256(CURVE).hexdigest()}]
        assert load_report(out)["results"]["tau_threshold"]["tau_threshold_s"] == pytest.approx(
            1e-6 + 1e-6 * (0.01 - 0.005) / (0.02 - 0.005))


class TestFullPipeline:
    def run_pipeline(self, tmp_path, preset, duration_ms, tau_max_us, seed):
        mz = tmp_path / "mz.csv"
        phase = tmp_path / "phase.csv"
        curve = tmp_path / "curve.csv"
        report = tmp_path / "thresh.json"
        assert main(
            f"simulate mz --{preset} --duration-ms {duration_ms} --dt-us 2 "
            f"--seed {seed} --out {mz}".split()
        ) == 0
        assert main(f"analyze phase --in {mz} --out {phase}".split()) == 0
        assert main(
            f"analyze dphi --in {phase} --tau-max-us {tau_max_us} --out {curve}".split()
        ) == 0
        assert main(
            f"analyze tau-threshold --in {curve} --dphi 0.1 --report {report}".split()
        ) == 0
        return load_report(report)["results"]["tau_threshold"]["tau_threshold_s"]

    def test_night_threshold_few_hundred_us(self, tmp_path):
        # single measurements scatter widely; the pooled statistics live in
        # the acceptance suite
        tau = self.run_pipeline(tmp_path, "night", 10, 600, seed=1)
        assert 200e-6 <= tau <= 600e-6

    def test_day_threshold_near_100_us(self, tmp_path):
        tau = self.run_pipeline(tmp_path, "day", 4, 250, seed=5)
        assert 50e-6 <= tau <= 200e-6

    def test_exponent_command(self, tmp_path):
        mz = tmp_path / "mz.csv"
        phase = tmp_path / "phase.csv"
        curve = tmp_path / "curve.csv"
        report = tmp_path / "exp.json"
        assert main(
            f"simulate noise --sigma-ref 0.2 --tau-ref-us 100 --hurst 0.5 "
            f"--duration-ms 60 --dt-us 2 --seed 2 --out {phase}".split()
        ) == 0
        assert main(
            f"analyze dphi --in {phase} --tau-max-us 128 --out {curve}".split()
        ) == 0
        assert main(
            f"analyze exponent --in {curve} --tau-min-us 2 --tau-max-us 128 "
            f"--report {report}".split()
        ) == 0
        x = load_report(report)["results"]["scaling_exponent"]["exponent"]
        assert x == pytest.approx(0.5, abs=0.08)

    def test_histogram_export(self, tmp_path):
        phase = tmp_path / "phase.csv"
        curve = tmp_path / "curve.csv"
        hist = tmp_path / "hist.csv"
        assert main(
            f"simulate noise --sigma-ref 0.2 --tau-ref-us 100 --duration-ms 4 "
            f"--dt-us 2 --seed 3 --out {phase}".split()
        ) == 0
        assert main(
            f"analyze dphi --in {phase} --tau-max-us 100 --histogram-tau-us 20 "
            f"--histogram-out {hist} --out {curve}".split()
        ) == 0
        lines = hist.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "# fiberphase-histogram v1"

    def test_diffusion_command(self, tmp_path):
        report = tmp_path / "d.json"
        assert main(
            f"analyze diffusion --visibility 0.98 --length-km 71.5 "
            f"--report {report}".split()
        ) == 0
        d = load_report(report)["results"]["diffusion"]["diffusion_rad2_per_km"]
        assert d == pytest.approx(5.651106941963487e-4, rel=1e-9)

    def test_analyze_phase_frees_the_intensity_before_the_write(self, tmp_path, monkeypatch):
        # The intensity trace is handed over to extract_phase, whose phase
        # takes its buffer, and no name keeps the trace: nothing of it is
        # alive while the phase is written.
        mz, phase = tmp_path / "mz.csv", tmp_path / "phase.csv"
        assert main(f"simulate mz --night --duration-ms 1 --dt-us 1 --out {mz}".split()) == 0
        read, write, refs, alive = fileio.read_trace, fileio.write_trace, [], []

        def read_trace(path, **kwargs):
            trace = read(path, **kwargs)
            refs.append(weakref.ref(trace))
            return trace

        def write_trace(path, trace):
            alive.append([ref() is not None for ref in refs])
            write(path, trace)

        monkeypatch.setattr(fileio, "read_trace", read_trace)
        monkeypatch.setattr(fileio, "write_trace", write_trace)
        assert main(f"analyze phase --in {mz} --out {phase}".split()) == 0
        assert alive == [[False]]

    def test_analyze_phase_holds_one_trace_buffer(self, tmp_path, traced_peak):
        # 8 B per sample from read to write, plus the write's block scratch:
        # 4 * _BLOCK bytes of padded cells and the cell kernel's temporaries,
        # 14.2 * _BLOCK at 2^20 samples.  Copying the intensity for the phase
        # peaked at 16.4 B per sample.
        from fiberphase import preset_params, simulate_mz_trace

        n = 1 << 20
        mz, phase = str(tmp_path / "mz.csv"), str(tmp_path / "phase.csv")
        trace = simulate_mz_trace(preset_params("night"), (n - 1) * 1e-6, 1e-6,
                                  phi0=np.pi / 2, seed=1)
        assert trace.n_samples == n
        fileio.write_trace(mz, trace)
        del trace
        peak = traced_peak(main, f"analyze phase --in {mz} --out {phase}".split())
        assert peak <= 8 * n + 16 * fileio._BLOCK

    def test_analyze_dphi_packs_the_phase(self, tmp_path, traced_peak):
        # 8 B per sample and the read's block scratch while the trace is
        # read; the curve is then reduced over the in-segment samples packed
        # into that buffer, shrunk to them: 24 B per in-segment sample, 45%
        # of the samples here.  That peaked at 8 B per sample plus 12.4 *
        # _BLOCK; reducing beside the padded trace peaked at 29.7 * _BLOCK.
        from fiberphase import extract_phase, preset_params, simulate_mz_trace

        def phase_csv(n):
            path = str(tmp_path / f"phase{n}.csv")
            fileio.write_trace(path, extract_phase(simulate_mz_trace(
                preset_params("night"), (n - 1) * 1e-6, 1e-6, phi0=np.pi / 2, seed=1)))
            return f"analyze dphi --in {path} --tau-max-us 600 --out {tmp_path}/c.csv".split()

        n = 1 << 20
        main(phase_csv(1 << 12))  # its first run imports modules
        argv = phase_csv(n)
        assert traced_peak(main, argv) <= 8 * n + 16 * fileio._BLOCK

    def test_file_analyze_phase_matches_in_memory(self, tmp_path):
        # running analyze phase on a written MZ trace reproduces the
        # in-memory extraction exactly
        from fiberphase import NoiseParams, extract_phase, simulate_mz_trace

        mz = tmp_path / "mz.csv"
        phase = tmp_path / "phase.csv"
        assert main(
            f"simulate mz --sigma-ref 0.1418 --tau-ref-us 182.5 --duration-ms 2 "
            f"--dt-us 2 --seed 6 --out {mz}".split()
        ) == 0
        assert main(f"analyze phase --in {mz} --out {phase}".split()) == 0
        proc = NoiseParams(sigma_ref=0.1418, tau_ref=182.5e-6)
        expected = extract_phase(
            simulate_mz_trace(proc, 2e-3, 2e-6, phi0=np.pi / 2, seed=6)
        )
        assert read_trace(str(phase)) == expected


class TestDeterminism:
    @pytest.mark.parametrize(
        "template",
        [
            "simulate noise --sigma-ref 0.2 --tau-ref-us 100 --hurst 0.7 "
            "--duration-ms 1 --dt-us 2 --seed 7 --out {out} --report {report}",
            "simulate mz --night --duration-ms 1 --dt-us 2 --seed 7 "
            "--out {out} --report {report}",
            "simulate fringe --sigma-ref 0.3 --tau-ref-us 100 --loop-km 40 "
            "--points 20 --pulses-per-point 200 --seed 7 --out {out} --report {report}",
        ],
    )
    def test_byte_identical_reruns(self, tmp_path, template):
        out = tmp_path / "x.csv"
        report = tmp_path / "x.json"
        argv = template.format(out=out, report=report).split()
        assert main(argv) == 0
        first = (read_bytes(out), read_bytes(report))
        assert main(argv) == 0
        assert (read_bytes(out), read_bytes(report)) == first
        # a different output path changes only the echoed config, not results
        out2 = tmp_path / "y.csv"
        report2 = tmp_path / "y.json"
        assert main(template.format(out=out2, report=report2).split()) == 0
        assert read_bytes(out2) == first[0]
        assert load_report(report2)["results"] == load_report(report)["results"]

    def test_identical_full_invocations_byte_identical(self, tmp_path):
        out = tmp_path / "x.csv"
        argv = (
            f"simulate mz --day --duration-ms 1 --dt-us 2 --seed 1 --out {out}".split()
        )
        assert main(argv) == 0
        first = read_bytes(out)
        assert main(argv) == 0
        assert read_bytes(out) == first

    def test_replaying_echoed_simulate_config(self, tmp_path):
        # sigma with >12 significant digits survives the config echo
        out1 = tmp_path / "t1.csv"
        report1 = tmp_path / "t1.json"
        assert main(
            f"simulate noise --sigma-ref 0.12533141373155002 --tau-ref-us 100 "
            f"--duration-ms 1 --dt-us 2 --seed 21 --out {out1} "
            f"--report {report1}".split()
        ) == 0
        replay = load_report(report1)["config"]
        replay["outputs"] = {
            "trace": str(tmp_path / "t2.csv"),
            "report": str(tmp_path / "t2.json"),
        }
        assert run(replay) == 0
        assert read_bytes(out1) == read_bytes(tmp_path / "t2.csv")

    def test_replaying_echoed_config_reproduces_results(self, tmp_path):
        curve = tmp_path / "curve.csv"
        phase = tmp_path / "phase.csv"
        report = tmp_path / "r1.json"
        assert main(
            f"simulate noise --sigma-ref 0.15 --tau-ref-us 120 --duration-ms 2 "
            f"--dt-us 2 --seed 11 --out {phase}".split()
        ) == 0
        assert main(
            f"analyze dphi --in {phase} --tau-max-us 100 --out {curve} "
            f"--report {report}".split()
        ) == 0
        echoed = load_report(report)["config"]

        replay = echoed
        replay["outputs"] = {
            "curve": str(tmp_path / "curve2.csv"),
            "report": str(tmp_path / "r2.json"),
        }
        assert run(replay) == 0
        first = load_report(report)["results"]
        second = load_report(tmp_path / "r2.json")["results"]
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
        assert read_bytes(curve) == read_bytes(tmp_path / "curve2.csv")


class TestReportGolden:
    """The bytes of two reports, written with relative paths: a change to the
    report's layout, rounding or provenance shows here."""

    def test_report_bytes(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("FIBERPHASE_OUT_DIR", raising=False)
        for argv in (
            "repeater budget --total-km 1000 --links 8 --fidelity 0.9 --segment-km 36.5 "
            "--report budget.json",
            "simulate noise --sigma-ref 0.1 --tau-ref-us 100 --duration-ms 1 --dt-us 1 "
            "--seed 5 --out p.csv",
            "analyze dphi --in p.csv --tau-max-us 20 --out c.csv",
            "analyze tau-threshold --in c.csv --dphi 0.01 --report tau.json",
        ):
            assert main(argv.split()) == 0
        assert {name: hashlib.sha256(read_bytes(name)).hexdigest()
                for name in ("budget.json", "tau.json")} == {
            "budget.json": "92d80bd8861221bdcf7849c1edf34894fbfdab8aa3924da60e0e962b6647978e",
            "tau.json": "935b8d2099251c18464a1ca7a4ef8b2846081a4310ae5f73032d2129093a0326",
        }

    def test_fidelity_report_bytes(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("FIBERPHASE_OUT_DIR", raising=False)
        for argv in (
            "repeater fidelity --sigma 0.447 --monte-carlo 1000 --report fid.json",
            "repeater fidelity --diffusion 8e-4 --link-km 35,36.5 --report chain.json",
            "repeater fidelity --visibility 0.3 --report vis.json",
        ):
            assert main(argv.split()) == 0
        assert {name: hashlib.sha256(read_bytes(name)).hexdigest()
                for name in ("fid.json", "chain.json", "vis.json")} == {
            "fid.json": "cb820441b7c1a4ce1c9138a2db72ab5ef6b9696ecc46d334c2beadb87cb523ee",
            "chain.json": "6116956d4a3a29a805505f21911b65e49f63fb9e0c3f02edf986445dd5eae378",
            "vis.json": "f4d8a40f0facca8851e356be00c26c4f103118d61530413697271e963df1c32f",
        }

    @pytest.mark.parametrize("sigma,visibility", [(6, 1.52299797447e-08),
                                                  (9, 2.57675710915e-18)])
    def test_fidelity_report_visibility_is_the_washout(self, tmp_path, sigma, visibility):
        # exp(-sigma^2/2) to the report's 12 digits, where 2F - 1 has lost them.
        assert visibility == float(f"{math.exp(-sigma * sigma / 2):.12g}")
        report = tmp_path / "r.json"
        assert main(f"repeater fidelity --sigma {sigma} --report {report}".split()) == 0
        assert load_report(report)["results"]["fidelity"]["visibility"] == visibility


# One small valid run per command, writing into {d} and reading from {i}.
REPLAYS = {
    "simulate noise": "simulate noise --sigma-ref 0.1 --tau-ref-us 100 --duration-ms 1 "
                      "--dt-us 2 --seed 5 --out {d}/trace.csv",
    "simulate mz": "simulate mz --night --duration-ms 1 --dt-us 2 --seed 5 --out {d}/trace.csv",
    "simulate fringe": "simulate fringe --sigma-ref 0.3 --tau-ref-us 100 --loop-km 40 "
                       "--points 8 --pulses-per-point 100 --seed 5 --out {d}/scan.csv",
    "analyze fringe": "analyze fringe --in {i}/scan.csv",
    "analyze phase": "analyze phase --in {i}/mz.csv --out {d}/phase.csv",
    "analyze dphi": "analyze dphi --in {i}/phase.csv --tau-max-us 100 --histogram-tau-us 20 "
                    "--histogram-out {d}/hist.csv --out {d}/curve.csv",
    "analyze tau-threshold": "analyze tau-threshold --in {i}/curve.csv --dphi 0.05",
    "analyze exponent": "analyze exponent --in {i}/curve.csv --tau-min-us 10 --tau-max-us 100",
    "analyze diffusion": "analyze diffusion --visibility 0.9 --length-km 36.5",
    "repeater budget": _BUDGET + " --total-km 1000 --segment-km 36.5",
    "repeater fidelity": "repeater fidelity --sigma 0.3 --monte-carlo 1000 --seed 3",
}


# The blocks and keys of each REPLAYS report's results: only what the command
# computed, as every input is in its config.
RESULT_KEYS = {
    "simulate noise": {"trace": {"kind", "n_samples"}},
    "simulate mz": {"trace": {"kind", "n_samples"}},
    "simulate fringe": {"fringe_scan": {"effective_sigma_rad", "expected_visibility"}},
    "analyze fringe": {"fringe_fit": {"offset", "cos_amp", "sin_amp", "visibility",
                                      "residual_rms", "sigma_rad"}},
    "analyze phase": {"phase_extraction": {"n_segments", "n_valid_samples", "fraction_valid"}},
    "analyze dphi": {"histogram": {"sigma_rad", "fit_sigma_rad", "n_bins", "degenerate"},
                     "dphi_curve": {"n_lags", "tau_min_s", "tau_max_s", "dphi_at_tau_max_rad"}},
    "analyze tau-threshold": {"tau_threshold": {"tau_threshold_s"}},
    "analyze exponent": {"scaling_exponent": {"exponent", "n_lags"}},
    "analyze diffusion": {"diffusion": {"diffusion_rad2_per_km"}},
    "repeater budget": {"budget": {"total_sigma_rad", "visibility", "segment_sigma_limit_rad",
                                   "dphi_limit_rad"}},
    "repeater fidelity": {"fidelity": {"sigma_rad", "fidelity", "visibility",
                                       "monte_carlo_fidelity"}},
}


@pytest.fixture(scope="module")
def replay_inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("inputs")
    for argv in (
        REPLAYS["simulate fringe"],
        "simulate mz --night --duration-ms 1 --dt-us 2 --out {d}/mz.csv",
        "simulate noise --sigma-ref 0.1 --tau-ref-us 100 --duration-ms 2 --dt-us 1 "
        "--out {d}/phase.csv",
        "analyze dphi --in {d}/phase.csv --tau-max-us 100 --out {d}/curve.csv",
    ):
        assert main(argv.format(d=d).split()) == 0
    return d


class TestReplay:
    def test_every_command_has_a_case(self):
        assert set(REPLAYS) == set(RESULT_KEYS) == set(_COMMANDS)

    @pytest.mark.parametrize("command", REPLAYS)
    def test_help_lists_report(self, capsys, command):
        with pytest.raises(SystemExit) as excinfo:
            main(command.split() + ["--help"])
        assert excinfo.value.code == 0
        assert re.search(r"\n  --report REPORT\s+JSON report to write\n", capsys.readouterr().out)

    @pytest.mark.parametrize("command", REPLAYS)
    def test_report_config_replays(self, tmp_path, replay_inputs, command):
        first, second = tmp_path / "first", tmp_path / "second"
        first.mkdir()
        second.mkdir()
        argv = REPLAYS[command].format(d=first, i=replay_inputs) + f" --report {first}/r.json"
        assert main(argv.split()) == 0
        report = load_report(first / "r.json")
        assert {block: set(values) for block, values in report["results"].items()} == (
            RESULT_KEYS[command])
        config = report["config"]
        assert config["command"] == command
        config["outputs"] = {role: str(second / os.path.basename(path))
                             for role, path in config["outputs"].items()}
        assert run(config) == 0
        replayed = load_report(second / "r.json")
        assert replayed["results"] == report["results"]
        assert replayed["inputs"] == report["inputs"]
        written = sorted(os.listdir(first))
        assert sorted(os.listdir(second)) == written
        for name in written:
            if name != "r.json":
                assert read_bytes(first / name) == read_bytes(second / name), name


_HUGE = 10**30

# A size that no array can hold, at least one case per flag whose value sizes
# an array or a step count: (argv, that flag, the flags the message starts
# with).  {d} holds the phase trace p.csv.  --monte-carlo fills the parameter
# monte_carlo_samples, not the n_samples that the limit names, and the lag
# grid's limit names no field, as its dt may come from a file.
_SPAN = "--duration-ms/--dt-us: "
OVERSIZE_VALUES = [
    (_NOISE + " --duration-ms 1e300 --dt-us 1", "--duration-ms", _SPAN),
    (_NOISE + " --duration-ms 100000000000 --dt-us 1", "--duration-ms", _SPAN),
    (_NOISE + " --duration-ms 1 --dt-us 1e-300", "--dt-us", _SPAN),
    ("simulate mz --night --duration-ms 1e300 --dt-us 1 --out {d}/x.csv", "--duration-ms", _SPAN),
    ("simulate mz --night --duration-ms 1 --dt-us 1e-300 --out {d}/x.csv", "--dt-us", _SPAN),
    (_FRINGE + f" --loop-km 10 --points {_HUGE}", "--points", "--points: "),
    (_FRINGE + f" --loop-km 10 --pulses-per-point {_HUGE}", "--pulses-per-point",
     "--pulses-per-point: "),
    (f"repeater fidelity --sigma 0.1 --monte-carlo {_HUGE}", "--monte-carlo", ""),
    (_DPHI + " --tau-max-us 1e300", "--tau-max-us", ""),
    (_DPHI + " --tau-max-us 1 --histogram-tau-us 1e300 --histogram-out {d}/h.csv",
     "--histogram-tau-us", "--histogram-tau-us: "),
]

# The count and time-span flags that size nothing, each with its reason.
SIZES_NOTHING = {
    "--seed": "taken mod 2^64 as the generator's key",
    "--max-lags": "thins the lags, whose steps --tau-max-us bounds",
    "--links": "divides the budget; nothing is allocated per link",
    "--tau-ref-us": "a calibration lag",
    "--tau-min-us": "bounds the fit window on the curve's own lags",
    "analyze exponent --tau-max-us": "bounds the fit window on the curve's own lags",
}

PHASE_CSV = (b"# fiberphase-trace v1\n# kind: phase\n# t0: 0.0\n# dt: 1e-06\n# segments: 0:3\n"
             b"time_s,value\n0.0,0.1\n1e-06,0.2\n2e-06,0.3\n")


class TestOversize:
    def test_every_sizing_flag_has_a_case(self):
        covered = {(" ".join(argv.split()[:2]), flag) for argv, flag, _ in OVERSIZE_VALUES}
        for command, spec in _COMMANDS.items():
            for flag in _flags(spec.flags):
                if flag.type is int or flag.scale is not None:
                    assert ((command, flag.name) in covered or flag.name in SIZES_NOTHING
                            or f"{command} {flag.name}" in SIZES_NOTHING), (command, flag.name)

    @pytest.mark.parametrize("template,flag,prefix", OVERSIZE_VALUES,
                             ids=[f"{argv}-{flag}" for argv, flag, _ in OVERSIZE_VALUES])
    def test_oversize_value_exits_1(self, capsys, tmp_path, template, flag, prefix):
        (tmp_path / "p.csv").write_bytes(PHASE_CSV)
        assert main(template.format(d=tmp_path).split()) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: " + prefix) and err[len("error: " + prefix)].isdigit()
        assert err.endswith(f" exceed the limit of {2**44}\n")
        assert err.count("\n") == 1
        assert sorted(os.listdir(tmp_path)) == ["p.csv"]

    def test_memory_error_exits_1(self, capsys, tmp_path, monkeypatch):
        # A size under the limit that the machine still cannot allocate,
        # raised here without allocating it.
        def refuse(*args):
            raise MemoryError("Unable to allocate 128. TiB for an array")

        (tmp_path / "p.csv").write_bytes(PHASE_CSV)
        monkeypatch.setattr(analysis, "default_lag_grid", refuse)
        assert main(_DPHI.format(d=tmp_path).split() + ["--tau-max-us", "2"]) == 1
        assert capsys.readouterr().err == "error: Unable to allocate 128. TiB for an array\n"
        assert sorted(os.listdir(tmp_path)) == ["p.csv"]


class TestOutputDirOverride:
    def test_relative_outputs_redirected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FIBERPHASE_OUT_DIR", str(tmp_path))
        assert main(
            "simulate noise --sigma-ref 0 --tau-ref-us 100 --duration-ms 0.1 "
            "--dt-us 10 --out redirected.csv".split()
        ) == 0
        assert (tmp_path / "redirected.csv").exists()
