"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import math

import numpy as np
import pytest

import fiberphase as fp
from fiberphase.cli import main

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num:2d} ({name}): {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_01_visibility_sigma_fixed_points():
    day = fp.sigma_from_visibility(0.936)
    night = fp.sigma_from_visibility(0.98)
    ok = abs(day - 0.3637) <= 0.001 and abs(night - 0.2007) <= 0.001
    report(1, "visibility-sigma fixed points", ok,
           f"sigma(V=0.936)={day:.4f} (want 0.3637+-0.001), "
           f"sigma(V=0.98)={night:.4f} (want 0.2007+-0.001)")


def test_criterion_02_repeater_budget():
    budget = fp.budget_per_segment(1000.0, 8, 0.9, 36.5)
    value = budget.per_segment_dphi_limit
    ok = abs(value - 0.1018) <= 0.0005
    report(2, "1000 km / 8 links / F=0.9 budget", ok,
           f"dphi_lim={value:.6f} rad (want 0.1018+-0.0005)")


def test_criterion_03_250_km_visibility():
    value = fp.predict_visibility(8e-4, 250.0)
    ok = abs(value - 0.9048) <= 5e-5 and value > 0.90
    report(3, "250 km visibility inference", ok,
           f"V(D=8e-4, L=250)={value:.6f} (want 0.9048, > 0.90)")


def test_criterion_04_monte_carlo_fringe():
    proc = fp.NoiseParams(sigma_ref=0.36, tau_ref=fp.travel_time(71.5) / 2)
    scan = fp.simulate_fringe_scan(proc, 71.5, n_points=50, pulses_per_point=10_000, seed=11)
    fitted = fp.fit_fringe(scan).visibility
    target = math.exp(-0.36**2 / 2)

    quiet = fp.NoiseParams(sigma_ref=0.0, tau_ref=1e-4)
    quiet_scan = fp.simulate_fringe_scan(quiet, 71.5, 50, 100, seed=1)
    quiet_v = fp.fit_fringe(quiet_scan).visibility

    ok = abs(fitted - target) <= 0.01 and abs(quiet_v - 1.0) <= 1e-12
    report(4, "Monte Carlo fringe fit", ok,
           f"V(sigma=0.36)={fitted:.5f} (want {target:.5f}+-0.01), "
           f"V(sigma=0)={quiet_v!r} (want 1.0 exactly)")


def test_criterion_05_mz_pipeline_round_trip():
    # 36.5 km night calibration, 300 independent realizations (>= 200)
    proc = fp.NoiseParams(sigma_ref=0.1418, tau_ref=182.5e-6, hurst=0.5)
    stats = []
    for seed in range(300):
        trace = fp.simulate_mz_trace(
            proc, duration=2e-3, dt=2e-6, i_max=1.0, i_min=0.0,
            phi0=math.pi / 2, seed=seed,
        )
        phase = fp.extract_phase(trace)
        stats.append(fp.increment_sets(phase, [182e-6]))
    pooled = fp.pool_stats(stats)
    dphi = pooled.mean_abs_change[0]
    expected = SQRT_2_OVER_PI * 0.1418 * math.sqrt(182.0 / 182.5)
    ok = abs(dphi - expected) / expected <= 0.05
    report(5, "MZ simulate->extract round trip", ok,
           f"dphi(182us)={dphi:.5f} rad (want {expected:.5f}+-5%, "
           f"n={pooled.n_increments[0]})")


def test_criterion_06_scaling_exponent_recovery():
    dt = 2e-6
    results = []
    for hurst in (0.5, 0.75, 0.9):
        proc = fp.NoiseParams(sigma_ref=0.2, tau_ref=1e-4, hurst=hurst)
        trace = proc.sample_trace(2**16 * dt, dt, seed=5)
        stats = fp.increment_sets(trace, fp.default_lag_grid(dt, 64 * dt))
        x = fp.fit_scaling_exponent(stats, (dt, 64 * dt))
        results.append((hurst, x))
    ok = all(abs(x - h) <= 0.05 for h, x in results)
    report(6, "scaling exponent recovery", ok,
           "  ".join(f"H={h}: x={x:.3f}" for h, x in results) + " (want |x-H|<=0.05)")


def test_criterion_07_gaussian_mean_abs_relation():
    rng = np.random.Generator(np.random.Philox(key=77))
    inc = 0.2 * rng.standard_normal(10**4)
    stats = fp.PhaseStats(
        taus=np.array([1e-4]), n_increments=np.array([inc.size]), dt=1e-4,
        mean_abs_change=[np.mean(np.abs(inc))], sigma_per_tau=[np.std(inc, ddof=1)],
    )
    deviation = fp.check_gaussian_relation(stats, 1e-4)
    ok = deviation < 0.02
    report(7, "mean-abs/sigma gaussian relation", ok,
           f"relative deviation={deviation * 100:.3f}% on 1e4 increments (want < 2%)")


def test_criterion_08_fidelity_oracle():
    estimate = fp.monte_carlo_fidelity(0.36, 10**6, seed=13)
    exact = fp.fidelity_from_sigma(0.36)
    ok = abs(estimate - exact) <= 0.001 and abs(exact - 0.9686) <= 5e-5
    report(8, "Monte Carlo fidelity oracle", ok,
           f"MC={estimate:.6f} closed-form={exact:.6f} (want agreement +-0.001)")


def test_criterion_09_diffusion_identity():
    worst = 0.0
    for diffusion in (5.65e-4, 8e-4, 1.8e-3):
        for loop_km in (25.0, 71.5, 250.0):
            proc = fp.from_sagnac_calibration(diffusion, loop_km)
            sigma = fp.sagnac_effective_sigma(proc, loop_km)
            back = fp.estimate_diffusion(loop_km, sigma=sigma)
            worst = max(worst, abs(back - diffusion) / diffusion)
    ok = worst <= 1e-12
    report(9, "diffusion round-trip identity", ok,
           f"worst relative error {worst:.2e} over D x L grid (want <= 1e-12)")


def test_criterion_10_day_night_preset_thresholds():
    windows = {"day": (80e-6, 150e-6), "night": (250e-6, 450e-6)}
    setups = {"day": (2e-3, 250e-6), "night": (4e-3, 600e-6)}
    measured = {}
    for name in ("day", "night"):
        proc = fp.preset_params(name)
        duration, tau_max = setups[name]
        taus = fp.default_lag_grid(2e-6, tau_max)
        stats = []
        for seed in range(150):
            trace = fp.simulate_mz_trace(proc, duration, 2e-6, phi0=math.pi / 2, seed=seed)
            stats.append(fp.increment_sets(fp.extract_phase(trace), taus))
        pooled = fp.pool_stats(stats)
        measured[name] = fp.tau_threshold(pooled, 0.1)
    ok = all(windows[n][0] <= measured[n] <= windows[n][1] for n in measured)
    report(10, "day/night preset thresholds", ok,
           f"day tau_0.1={measured['day'] * 1e6:.1f} us (want 80-150), "
           f"night tau_0.1={measured['night'] * 1e6:.1f} us (want 250-450)")


def test_criterion_11_cli_determinism(tmp_path):
    commands = [
        "simulate mz --night --duration-ms 2 --dt-us 2 --seed 1 "
        "--out {d}/mz.csv --report {d}/mz.json",
        "analyze phase --in {d}/mz.csv --out {d}/phase.csv --report {d}/phase.json",
        "analyze dphi --in {d}/phase.csv --tau-max-us 400 --out {d}/curve.csv "
        "--report {d}/curve.json",
        "analyze tau-threshold --in {d}/curve.csv --dphi 0.1 --report {d}/tau.json",
        "repeater budget --total-km 1000 --links 8 --fidelity 0.9 "
        "--segment-km 36.5 --report {d}/budget.json",
    ]
    snapshots = []
    for attempt in range(2):
        for template in commands:
            assert main(template.format(d=tmp_path).split()) == 0
        snapshot = {
            p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())
        }
        snapshots.append(snapshot)
    ok = snapshots[0] == snapshots[1]
    report(11, "CLI byte-identical determinism", ok,
           f"{len(snapshots[0])} artifacts identical across two invocations")
