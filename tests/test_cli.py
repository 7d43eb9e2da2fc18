"""End-to-end tests of the fiberphase command-line interface."""

import json

import numpy as np
import pytest

from fiberphase import read_trace
from fiberphase.cli import DEFAULT_SEED, RunConfig, main, parse_cli, run


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
    (_NOISE + " --duration-ms 0 --dt-us 1", "--duration-ms"),
    (_NOISE + " --duration-ms 1 --dt-us 1 --hurst 1.5", "--hurst"),
    (_NOISE + " --duration-ms 1 --dt-us 1 --hurst 0", "--hurst"),
    (_NOISE + " --duration-ms 1 --dt-us 1 --group-index 1", "--group-index"),
    (_NOISE + " --duration-ms 1 --dt-us 1 --length-km -1", "--length-km"),
    (_NOISE + " --duration-ms 1 --dt-us -1", "--dt-us"),
    (_MZ + " --i-max 0.5 --i-min 0.5", "--i-max"),
    (_FRINGE + " --loop-km 0", "--loop-km"),
    (_FRINGE + " --loop-km 40 --points 3", "--points"),
    (_FRINGE + " --loop-km 40 --pulses-per-point 0", "--pulses-per-point"),
    (_FRINGE + " --loop-km 40 --i0 0", "--i0"),
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
    (_BUDGET + " --total-km 0 --segment-km 36.5", "--total-km"),
    ("repeater budget --total-km 1000 --links 0 --fidelity 0.9 --segment-km 36.5",
     "--links"),
    ("repeater budget --total-km 1000 --links 8 --fidelity 0.5 --segment-km 36.5",
     "--fidelity"),
    (_BUDGET + " --total-km 1000 --segment-km 0", "--segment-km"),
    (_BUDGET + " --total-km 1000 --segment-km 200", "--segment-km"),
    ("repeater fidelity --diffusion -1 --link-km 35", "--diffusion"),
    ("repeater fidelity --diffusion 8e-4", "--link-km"),
    ("repeater fidelity --diffusion 8e-4 --link-km 35,x", "--link-km"),
    ("repeater fidelity --diffusion 8e-4 --link-km 35,-1", "--link-km"),
    ("repeater fidelity --visibility 0", "--visibility"),
    ("repeater fidelity --sigma -0.1", "--sigma"),
    ("repeater fidelity --sigma 0.3 --monte-carlo 0", "--monte-carlo"),
]

# Values that parse as floats but are not finite.
NON_FINITE_VALUES = [
    (_NOISE + " --duration-ms inf --dt-us 1", "--duration-ms"),
    (_DPHI + " --tau-max-us inf", "--tau-max-us"),
    ("repeater fidelity --sigma nan", "--sigma"),
    ("repeater fidelity --diffusion 8e-4 --link-km 35,inf", "--link-km"),
]

# Input files that every analyze command must reject with exit 1: (file
# bytes, command reading {f}, text the error must contain).
MALFORMED_INPUTS = [
    (b"# fiberphase-trace v1\n# kind: phase\n# t0: 0.0\n# dt: 1e-06\n# segments: 0:2\n"
     b"time_s,value\n0.0,0.1\n1e-06,0.\xff2\n",
     "analyze dphi --in {f} --tau-max-us 1 --out {d}/c.csv", "line 8: "),
    (b"# fiberphase-fringe v1\n# i0: 1.0\n# detector_noise: 0.0\n"
     b"applied_phase_rad,pulse_area\n0.0,1.0\n1.0,0.7\nnan,0.3\n3.0,0.1\n4.0,0.4\n",
     "analyze fringe --in {f}", "applied_phase[2] is not finite"),
    (b"# fiberphase-dphi v1\n# dt: 1e-06\ntau_s,dphi_rad,sigma_rad,n_increments\n"
     b"1e-06,0.05,0.06,9\nnan,0.2,0.25,8\n",
     "analyze tau-threshold --in {f} --dphi 0.1", "taus[1] is not finite"),
    (b"# fiberphase-dphi v1\n# dt: 1e-06\ntau_s,dphi_rad,sigma_rad,n_increments\n"
     b"1e-06,0.05,0.06,9\n2e-06,0.2,0.25,nan\n",
     "analyze tau-threshold --in {f} --dphi 0.1", "line 5: "),
    (b"# fiberphase-trace v1\n# kind: intensity\n# t0: 0.0\n# dt: 1e-06\n# i_max: 1.0\n"
     b"# i_min: 0.0\ntime_s,value\n0.0,0.5\n1e-06,0.6\n2e-06,nan\n3e-06,0.4\n",
     "analyze phase --in {f} --out {d}/c.csv", "samples[2] is not finite: nan"),
    (b"# fiberphase-trace v1\n# kind: phase\n# t0: nan\n# dt: 1e-06\n# segments: 0:3\n"
     b"time_s,value\n0.0,0.1\n1e-06,0.2\n2e-06,0.3\n",
     "analyze dphi --in {f} --tau-max-us 1 --out {d}/c.csv", "t0 must be finite"),
    (b"# fiberphase-fringe v1\n# i0: nan\n# detector_noise: 0.0\n"
     b"applied_phase_rad,pulse_area\n0.0,1.0\n1.0,0.7\n2.0,0.3\n3.0,0.1\n4.0,0.4\n",
     "analyze fringe --in {f}", "i0 must be > 0, got nan"),
    (b"# fiberphase-dphi v1\n# dt: inf\ntau_s,dphi_rad,sigma_rad,n_increments\n"
     b"1e-06,0.05,0.06,9\n2e-06,0.2,0.25,8\n",
     "analyze tau-threshold --in {f} --dphi 0.1", "dt must be finite, got inf"),
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
        assert config.command == ("repeater", "budget")
        assert config.params["total_km"] == 1000.0
        assert config.params["n_links"] == 8
        assert config.seed is None

    def test_default_seed_documented_constant(self):
        config = parse_cli(
            "simulate noise --sigma-ref 0.2 --tau-ref-us 100 "
            "--duration-ms 1 --dt-us 2 --out x.csv".split()
        )
        assert config.seed == DEFAULT_SEED == 12345

    def test_units_converted_to_si(self):
        config = parse_cli(
            "simulate noise --sigma-ref 0.2 --tau-ref-us 178.75 "
            "--duration-ms 2 --dt-us 2 --out x.csv".split()
        )
        assert config.params["process"]["tau_ref_s"] == pytest.approx(178.75e-6)
        assert config.params["duration_s"] == pytest.approx(2e-3)
        assert config.params["dt_s"] == pytest.approx(2e-6)

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
        assert "no stored lag near" in capsys.readouterr().err

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
             "nan_intensity_sample", "nan_trace_t0", "nan_fringe_i0", "inf_curve_dt"],
    )
    def test_malformed_input_file(self, capsys, tmp_path, data, template, fragment):
        path = tmp_path / "in.csv"
        path.write_bytes(data)
        assert main(template.format(f=path, d=tmp_path).split()) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and fragment in err
        assert not (tmp_path / "c.csv").exists()

    def test_missing_input_file(self, capsys, tmp_path):
        code = main(f"analyze fringe --in {tmp_path/'missing.csv'}".split())
        assert code == 1

    @pytest.mark.parametrize("template,flag", INVALID_VALUES + NON_FINITE_VALUES)
    def test_invalid_value_names_flag(self, capsys, tmp_path, template, flag):
        # {d} holds no input file: every value check runs before any read
        code = main(template.format(d=tmp_path).split())
        assert code == 1
        assert flag in capsys.readouterr().err

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

    @pytest.mark.parametrize("template,flags", UNPAIRED_FLAGS)
    def test_unpaired_flag_names_both(self, capsys, tmp_path, template, flags):
        code = main(template.format(d=tmp_path).split())
        assert code == 1
        err = capsys.readouterr().err
        assert all(flag in err for flag in flags)
        assert not list(tmp_path.iterdir())


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

    def test_file_analyze_phase_matches_in_memory(self, tmp_path):
        # running analyze phase on a written MZ trace reproduces the
        # in-memory extraction exactly
        from fiberphase import NoiseParams, build_process, extract_phase, simulate_mz_trace

        mz = tmp_path / "mz.csv"
        phase = tmp_path / "phase.csv"
        assert main(
            f"simulate mz --sigma-ref 0.1418 --tau-ref-us 182.5 --duration-ms 2 "
            f"--dt-us 2 --seed 6 --out {mz}".split()
        ) == 0
        assert main(f"analyze phase --in {mz} --out {phase}".split()) == 0
        proc = build_process(NoiseParams(sigma_ref=0.1418, tau_ref=182.5e-6))
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
        replay = RunConfig.from_dict(load_report(report1)["config"])
        replay.outputs = {
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

        replay = RunConfig.from_dict(echoed)
        replay.outputs = {
            "curve": str(tmp_path / "curve2.csv"),
            "report": str(tmp_path / "r2.json"),
        }
        assert run(replay) == 0
        first = load_report(report)["results"]
        second = load_report(tmp_path / "r2.json")["results"]
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
        assert read_bytes(curve) == read_bytes(tmp_path / "curve2.csv")


class TestOutputDirOverride:
    def test_relative_outputs_redirected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FIBERPHASE_OUT_DIR", str(tmp_path))
        assert main(
            "simulate noise --sigma-ref 0 --tau-ref-us 100 --duration-ms 0.1 "
            "--dt-us 10 --out redirected.csv".split()
        ) == 0
        assert (tmp_path / "redirected.csv").exists()
