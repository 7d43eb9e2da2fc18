"""One copy of the samples per trace.

An array a caller passes to a value object is copied, so the caller can
go on changing it.  A buffer the library has just built is adopted: the
trace flags it read-only and keeps it without a copy.
"""

import dataclasses
import logging
import math
from unittest import mock

import numpy as np
import pytest

from fiberphase import (
    DomainError,
    FringeScan,
    GaussianHistogram,
    IntensityTrace,
    NoiseParams,
    PhaseStats,
    PhaseTrace,
    analysis,
    extract_phase,
    preset_params,
    read_trace,
    simulate_mz_trace,
    write_trace,
)
from fiberphase.errors import Adopted, frozen


def caller_arrays():
    """Fresh writeable arrays that own their data, as a caller builds them."""
    return {
        "ramp": np.linspace(0.0, 1.0, 8),
        "taus": np.arange(1.0, 9.0) * 1e-6,
        "counts": np.arange(10, 18),
        "edges": np.linspace(-1.0, 1.0, 9),
    }


BUILDERS = {
    "PhaseTrace": lambda a: PhaseTrace(t0=0.0, dt=1e-6, samples=a["ramp"]),
    "IntensityTrace": lambda a: IntensityTrace(t0=0.0, dt=1e-6, samples=a["ramp"],
                                               i_max=1.0, i_min=0.0),
    "FringeScan": lambda a: FringeScan(a["edges"][:8], a["ramp"]),
    "PhaseStats": lambda a: PhaseStats(a["taus"], a["counts"], 1e-6,
                                       mean_abs_change=a["ramp"], sigma_per_tau=a["ramp"]),
    "GaussianHistogram": lambda a: GaussianHistogram(0.5, a["edges"], a["counts"][:8],
                                                     0.5, False),
}


def array_fields(obj):
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)
            if isinstance(getattr(obj, f.name), np.ndarray)}


def read_only(array):
    array.setflags(write=False)
    return array


class TestCallerArraysCopied:
    @pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS.keys())
    def test_mutating_the_passed_arrays_leaves_the_object(self, build):
        passed = caller_arrays()
        obj = build(passed)
        for array in passed.values():
            array[...] = 7
        expected = array_fields(build(caller_arrays()))
        kept = array_fields(obj)
        assert kept.keys() == expected.keys() and kept
        for name, value in kept.items():
            assert np.array_equal(value, expected[name]), name
            assert not value.flags.writeable, name
            assert not any(np.shares_memory(value, a) for a in passed.values()), name


class TestAdoptedBuffers:
    def test_owned_writeable_buffer_is_kept(self):
        buffer = np.arange(10.0)
        kept = frozen("samples", Adopted(buffer), float)
        assert kept is buffer
        assert not kept.flags.writeable

    @pytest.mark.parametrize("make", [
        lambda: np.arange(10.0)[2:],  # a view: its base may be shared
        lambda: np.arange(10),  # not float64
        lambda: read_only(np.arange(10.0)),
    ], ids=["view", "int", "read_only"])
    def test_other_buffers_are_copied(self, make):
        buffer = make()
        writeable = buffer.flags.writeable
        kept = frozen("samples", Adopted(buffer), float)
        assert not np.shares_memory(kept, buffer)
        assert np.array_equal(kept, buffer)
        assert not kept.flags.writeable and kept.dtype == np.float64
        assert buffer.flags.writeable == writeable

    def test_adopted_buffer_must_be_one_dimensional(self):
        buffer = np.zeros((2, 3))
        with pytest.raises(DomainError, match=r"^samples must be one-dimensional, got shape "
                           r"\(2, 3\)$"):
            frozen("samples", Adopted(buffer), float)
        assert buffer.flags.writeable

    def test_library_traces_own_read_only_samples(self, tmp_path):
        params = preset_params("night")
        phase = params.sample_trace(5e-3, 1e-6, seed=3)
        mz = simulate_mz_trace(params, 5e-3, 1e-6, phi0=math.pi / 2, seed=3)
        extracted = extract_phase(mz)
        path = str(tmp_path / "mz.csv")
        write_trace(path, mz)
        read = read_trace(path)
        assert read == mz
        for trace in (phase, mz, extracted, read):
            assert not trace.samples.flags.writeable
            assert trace.samples.base is None  # no view that keeps a larger buffer alive
            with pytest.raises(ValueError):
                trace.samples[0] = 0.0
        assert not np.shares_memory(mz.samples, phase.samples)
        assert not np.shares_memory(extracted.samples, mz.samples)
        assert not np.shares_memory(read.samples, mz.samples)


def busy_mz():
    """An intensity trace whose phase has many segments and one-sample runs."""
    proc = NoiseParams(sigma_ref=0.1418, tau_ref=20e-6, hurst=0.5)
    return simulate_mz_trace(proc, 20e-3, 1e-6, phi0=math.pi / 2, seed=4)


class TestAdoptedTrace:
    """extract_phase(Adopted(trace)) consumes the trace: the phase is
    computed in its samples buffer, bit for bit as from a copy."""

    @staticmethod
    def extracted(trace, caplog):
        """The phase's samples as int64 bits, its segments and the DEBUG record."""
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="fiberphase.analysis"):
            phase = extract_phase(trace)
        return (phase.samples.view(np.int64).tolist(), phase.segments,
                [r.getMessage() for r in caplog.records])

    @pytest.mark.parametrize("chunk", [1, 3, 4096, analysis._EDGE_CHUNK])
    @pytest.mark.parametrize("source", ["simulated", "csv"])
    def test_same_as_the_copy(self, tmp_path, caplog, chunk, source):
        make = busy_mz
        if source == "csv":
            path = str(tmp_path / "mz.csv")
            write_trace(path, busy_mz())
            make = lambda: read_trace(path)  # noqa: E731
        with mock.patch.object(analysis, "_EDGE_CHUNK", chunk):
            copied = self.extracted(make(), caplog)
            adopted = self.extracted(Adopted(make()), caplog)
        assert len(copied[1]) > 50 and "one-sample runs" in copied[2][0]
        assert adopted == copied

    def test_buffer_becomes_the_phase(self):
        mz = busy_mz()
        buffer = mz.samples
        phase = extract_phase(Adopted(mz))
        assert phase.samples is buffer
        assert not phase.samples.flags.writeable

    def test_plain_call_leaves_the_trace(self):
        mz = busy_mz()
        before = mz.samples.tobytes()
        phase = extract_phase(mz)
        assert mz.samples.tobytes() == before
        assert not mz.samples.flags.writeable
        assert not np.shares_memory(phase.samples, mz.samples)

    @pytest.mark.parametrize("make", [
        lambda: PhaseTrace(t0=0.0, dt=1e-6, samples=np.linspace(0.0, 1.0, 8)),
        lambda: np.linspace(0.0, 1.0, 8),
        lambda: FringeScan(np.linspace(0.0, 6.0, 8), np.linspace(0.2, 1.0, 8)),
    ], ids=["phase_trace", "array", "fringe_scan"])
    def test_only_an_intensity_trace_can_be_handed_over(self, make):
        with pytest.raises(DomainError, match="only an IntensityTrace"):
            extract_phase(Adopted(make()))


def night_phase():
    return extract_phase(busy_mz())


def csv_phase(tmp_path):
    path = str(tmp_path / "phase.csv")
    write_trace(path, night_phase())
    return read_trace(path)


class TestAdoptedPhase:
    """increment_sets(Adopted(trace)) consumes the trace: its segments are
    packed into its samples buffer, and the curve is the plain call's."""

    # (trace, largest lag): the last grid runs past every segment.
    CASES = {
        "one_segment": (lambda tmp: preset_params("night").sample_trace(5e-3, 1e-6, 3), 600e-6),
        "many_segments": (lambda tmp: night_phase(), 600e-6),
        "csv": (csv_phase, 600e-6),
        "dropped_lags": (lambda tmp: night_phase(), 20e-3),
    }

    @staticmethod
    def curve(trace, tau_max, caplog):
        """The curve and the DEBUG records of increment_sets."""
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="fiberphase.analysis"):
            stats = analysis.increment_sets(trace, analysis.default_lag_grid(1e-6, tau_max))
        return stats, [r.getMessage() for r in caplog.records]

    @pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
    def test_same_as_the_plain_call(self, tmp_path, caplog, case):
        make, tau_max = case
        plain = self.curve(make(tmp_path), tau_max, caplog)
        adopted = self.curve(Adopted(make(tmp_path)), tau_max, caplog)
        assert adopted == plain
        assert any("dropped" in m for m in plain[1]) == (tau_max > 1e-3)

    def test_buffer_is_packed_and_shrunk(self):
        phase = night_phase()
        buffer = phase.samples
        in_segments = np.concatenate([buffer[a:b] for a, b in phase.segments])
        assert len(phase.segments) > 50 and in_segments.size < buffer.size
        analysis.increment_sets(Adopted(phase), [1e-6, 2e-6])
        assert phase.samples is buffer
        assert buffer.tobytes() == in_segments.tobytes()

    def test_plain_call_leaves_the_trace(self):
        phase = night_phase()
        before, segments = phase.samples.tobytes(), phase.segments
        analysis.increment_sets(phase, [1e-6, 2e-6])
        assert phase.samples.tobytes() == before and phase.segments == segments
        assert not phase.samples.flags.writeable

    @pytest.mark.parametrize("make", [busy_mz, lambda: np.linspace(0.0, 1.0, 8)],
                             ids=["intensity_trace", "array"])
    def test_only_a_phase_trace_can_be_handed_over(self, make):
        with pytest.raises(DomainError, match="only a PhaseTrace"):
            analysis.increment_sets(Adopted(make()), [1e-6])


class TestTraceMemory:
    """A trace the library builds holds one float64 buffer of its samples
    and needs at most one more of scratch while it is built.

    At 2^20 steps the copying design peaked at 18.0 (sample_trace), 25.0
    (simulate_mz_trace) and 35.2 (extract_phase) bytes per sample.
    """

    BYTES_PER_SAMPLE = 16  # two float64 buffers
    DURATION = (1 << 20) * 1e-6
    DT = 1e-6

    def test_sample_trace(self, traced_peak):
        params = preset_params("night")
        peak = traced_peak(params.sample_trace, self.DURATION, self.DT, 1)
        assert peak <= self.BYTES_PER_SAMPLE * ((1 << 20) + 1)
        # A drift is added from one float64 scratch ramp, while the generator
        # is still held: the int64 ramp and its two float64 temporaries
        # peaked at 24.06 bytes per sample.
        drifting = dataclasses.replace(params, drift_rate=300.0)
        peak = traced_peak(drifting.sample_trace, self.DURATION, self.DT, 1)
        assert peak <= self.BYTES_PER_SAMPLE * ((1 << 20) + 1) + (1 << 16)

    def test_sample_trace_checks_one_segment_at_a_time(self, traced_peak):
        # The samples plus one bool per sample for the finiteness check.  The
        # whole-trace masks of the earlier check peaked at 10 bytes per sample.
        params = preset_params("night")
        params.sample_trace(4 * self.DT, self.DT, 1)  # its first call imports modules
        peak = traced_peak(params.sample_trace, self.DURATION, self.DT, 1)
        assert peak <= 9 * ((1 << 20) + 1) + (1 << 16)

    def test_simulate_mz_trace(self, traced_peak):
        peak = traced_peak(simulate_mz_trace, preset_params("night"), self.DURATION, self.DT,
                           1.0, 0.0, math.pi / 2, 1)
        assert peak <= self.BYTES_PER_SAMPLE * ((1 << 20) + 1)

    def test_extract_phase(self, traced_peak):
        mz = simulate_mz_trace(preset_params("night"), self.DURATION, self.DT,
                               phi0=math.pi / 2, seed=1)
        # The phase overwrites its one float64 buffer, and the run edges are
        # found one chunk at a time: whole-trace masks peaked at 11.0 B/sample.
        assert traced_peak(extract_phase, mz) <= 8 * mz.n_samples + 512 * 1024

    def test_extract_phase_adopted(self, traced_peak):
        # A handed-over trace's buffer becomes the phase: only the run edges'
        # chunk scratch is allocated.
        mz = simulate_mz_trace(preset_params("night"), self.DURATION, self.DT,
                               phi0=math.pi / 2, seed=1)
        assert traced_peak(extract_phase, Adopted(mz)) <= 512 * 1024
