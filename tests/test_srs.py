"""SRS engines, breakpoint specs, dB errors, and spectrum file I/O."""

import importlib
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import foh_srs, smooth_noise
from shocksynth import (
    Signal,
    SignalFormatError,
    SrsCurve,
    SrsSpec,
    db_error,
    read_spec,
    spec_interpolate,
    srs,
    synth_reference,
    write_curve,
)
from shocksynth.filterbank import BankLayout, make_layout
from shocksynth.signal_core import _MAX_ROWS, _SEGMENT_ROWS, _run, _write_table
from shocksynth.srs import _ring_down_samples, _sdof_coeffs


def test_spec_validation():
    with pytest.raises(ValueError):
        SrsSpec([[100.0, 300.0]])
    with pytest.raises(ValueError):
        SrsSpec([[100.0, 300.0], [100.0, 400.0]])
    with pytest.raises(ValueError):
        SrsSpec([[200.0, 300.0], [100.0, 400.0]])
    with pytest.raises(ValueError):
        SrsSpec([[100.0, -1.0], [200.0, 400.0]])
    with pytest.raises(ValueError):
        SrsSpec([[100.0, 300.0], [200.0, float("inf")]])
    with pytest.raises(ValueError):
        SrsSpec([[100.0, 300.0], [200.0, 400.0]], tolerance_db=0.0)


def test_spec_accessors():
    spec = SrsSpec([[100.0, 300.0], [1800.0, 10_000.0], [10_000.0, 10_000.0]])
    np.testing.assert_array_equal(spec.freqs, [100.0, 1800.0, 10_000.0])
    np.testing.assert_array_equal(spec.peaks, [300.0, 10_000.0, 10_000.0])
    assert spec.tolerance_db == 3.0
    with pytest.raises(ValueError):
        spec.breakpoints[0, 0] = 1.0


def test_curve_validation():
    with pytest.raises(ValueError):
        SrsCurve([100.0, 100.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        SrsCurve([100.0, 200.0], [1.0, -2.0])
    with pytest.raises(ValueError):
        SrsCurve([], [])
    with pytest.raises(ValueError):
        SrsCurve([100.0], [1.0], q_srs=0.3)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="freqs must be finite"):
            SrsCurve([100.0, bad], [1.0, 2.0])


def test_spec_interpolate_loglog():
    spec = SrsSpec([[100.0, 300.0], [1800.0, 10_000.0], [10_000.0, 10_000.0]])
    # geometric midpoint of a log-log segment carries the geometric mean value
    f_mid = np.sqrt(100.0 * 1800.0)
    curve = spec_interpolate(spec, [100.0, f_mid, 1800.0, 10_000.0])
    assert curve.values[0] == pytest.approx(300.0, rel=1e-12)
    assert curve.values[1] == pytest.approx(np.sqrt(300.0 * 10_000.0), rel=1e-12)
    assert curve.values[2] == pytest.approx(10_000.0, rel=1e-12)
    assert curve.values[3] == pytest.approx(10_000.0, rel=1e-12)


def test_spec_interpolate_clamps_with_warning():
    spec = SrsSpec([[100.0, 300.0], [1000.0, 600.0]])
    with pytest.warns(UserWarning, match="clamped"):
        curve = spec_interpolate(spec, [50.0, 2000.0])
    np.testing.assert_allclose(curve.values, [300.0, 600.0], rtol=1e-12)
    with pytest.raises(ValueError):
        spec_interpolate(spec, [-1.0])


def test_db_error_values():
    target = SrsCurve([100.0, 200.0], [1.0, 1.0])
    actual = SrsCurve([100.0, 200.0], [2.0, 0.5])
    rep = db_error(actual, target, 3.0)
    np.testing.assert_allclose(rep.per_freq_db, [6.0205999, -6.0205999], rtol=1e-7)
    assert rep.max_abs_db == pytest.approx(6.0205999, rel=1e-7)
    assert not rep.passed
    rep2 = db_error(SrsCurve([100.0, 200.0], [1.1, 0.9]), target, 3.0)
    assert rep2.passed


def test_db_error_floor():
    target = SrsCurve([100.0, 200.0], [1.0, 1.0])
    rep = db_error(SrsCurve([100.0, 200.0], [1.0, 0.0]), target, 3.0)
    assert rep.floor_hit
    assert not rep.passed
    assert np.isneginf(rep.per_freq_db[1])


def test_db_error_past_the_float_range_of_the_ratio():
    # 1e3 / 1e-306 overflows; the error is the finite difference of the logs
    rep = db_error(SrsCurve([100.0, 200.0], [1e3, 1e3]), SrsCurve([100.0, 200.0], [1e-306, 1.0]))
    np.testing.assert_allclose(rep.per_freq_db, [6180.0, 60.0], rtol=1e-12)
    assert rep.max_abs_db == rep.per_freq_db[0] and not rep.passed and not rep.floor_hit
    # 5e-324 / 1e3 underflows to 0, an SRS of 0 stays -inf
    rep = db_error(SrsCurve([100.0, 200.0], [5e-324, 0.0]), SrsCurve([100.0, 200.0], [1e3, 1.0]))
    assert np.isfinite(rep.per_freq_db[0]) and rep.per_freq_db[0] < -6000.0
    assert np.isneginf(rep.per_freq_db[1]) and rep.floor_hit and not rep.passed


def test_db_error_validation():
    a = SrsCurve([100.0, 200.0], [1.0, 1.0])
    b = SrsCurve([100.0, 300.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        db_error(a, b, 3.0)
    with pytest.raises(ValueError):
        db_error(a, SrsCurve([100.0, 200.0], [1.0, 0.0]), 3.0)
    with pytest.raises(ValueError):
        db_error(a, a, 0.0)


def _half_sine(amp=500.0, width=1e-3, fs=100_000.0):
    t = np.arange(int(width * fs) + 1) / fs
    return Signal(fs, amp * np.sin(np.pi * t / width))


def test_srs_high_frequency_asymptote():
    # rigid oscillators track the base: the spectrum flattens to the input peak
    sig = _half_sine()
    for fn in (8000.0, 10_000.0):
        val = srs(sig, [fn]).values[0]
        assert val == pytest.approx(500.0, rel=0.05)


def test_srs_low_frequency_velocity_regime():
    # soft oscillators respond to the velocity change: srs ~ wn * dv
    sig = _half_sine()
    dv = 2.0 * 500.0 * 1e-3 / np.pi
    for fn in (10.0, 20.0):
        val = srs(sig, [fn]).values[0]
        assert 0.8 <= val / (2.0 * np.pi * fn * dv) <= 1.05


def test_srs_resonant_tone_amplification():
    fs, fn = 20_000.0, 500.0
    t = np.arange(int(50.0 * fs / fn) + 1) / fs
    tone = Signal(fs, np.sin(2.0 * np.pi * fn * t))
    assert srs(tone, [fn], 10.0).values[0] == pytest.approx(10.0, rel=0.05)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 2000),
    fn=st.floats(100.0, 9000.0),
    scale=st.floats(1e-3, 1e3),
    negative=st.booleans(),
)
@example(seed=1, n=600, fn=700.0, scale=2.5, negative=False)
@example(seed=1, n=600, fn=3000.0, scale=3.0, negative=True)
def test_srs_homogeneity(seed, n, fn, scale, negative):
    # srs(c x) = |c| srs(x): scaling commutes with the linear filter and the peak
    sig = Signal(20_000.0, np.random.default_rng(seed).normal(size=n))
    c = -scale if negative else scale
    base = srs(sig, [fn]).values
    scaled = srs(sig.with_samples(c * sig.samples), [fn]).values
    np.testing.assert_allclose(scaled, abs(c) * base, rtol=1e-12, atol=0.0)


def test_srs_matches_ode_oracle():
    # the recursion and scipy's matrix-exponential lsim share nothing but the
    # input, and both are exact for a base acceleration linear between samples
    rng = np.random.default_rng(11)
    fs = 20_000.0
    for _ in range(8):
        sig = smooth_noise(rng, 1500 + int(rng.uniform(0, 500)), fs)
        fn = float(np.exp(rng.uniform(np.log(60.0), np.log(7000.0))))
        fast = srs(sig, [fn]).values[0]
        exact = foh_srs(sig, fn)
        assert abs(fast - exact) / exact <= 1e-9, fn


def test_srs_validation():
    sig = Signal(10_000.0, np.ones(32))
    with pytest.raises(ValueError, match="Nyquist"):
        srs(sig, [6000.0])
    with pytest.raises(ValueError):
        srs(sig, [-5.0])
    with pytest.raises(ValueError):
        srs(sig, [100.0], q_srs=0.2)


_GRID_RULE = "must be finite, positive and strictly increasing, in a non-empty 1-D list"


@pytest.mark.parametrize("grid", [
    [], [1000.0, 100.0], [100.0, 100.0], [0.0, 100.0], [-5.0], [100.0, float("nan")], [100.0, float("inf")],
    [[100.0, 200.0]],
], ids=["empty", "descending", "duplicated", "zero", "negative", "nan", "inf", "2-D"])
def test_every_frequency_list_is_refused_by_one_rule_before_any_work(monkeypatch, grid):
    # srs used to run every oscillator before SrsCurve refused a descending
    # grid, and an empty grid failed in numpy's min; spec_interpolate warned
    # of clamping before refusing
    def oscillator(*args):
        raise AssertionError("an oscillator ran before the grid was checked")

    monkeypatch.setattr(importlib.import_module("shocksynth.srs"), "_segments", oscillator)
    sig = Signal(10_000.0, np.ones(32))
    spec = SrsSpec([[150.0, 300.0], [300.0, 600.0]])
    callers = {
        "freqs": [lambda: srs(sig, grid), lambda: SrsCurve(grid, np.ones(np.shape(grid))),
                  lambda: spec_interpolate(spec, grid)],
        "centers": [lambda: BankLayout(100.0, 1000.0, 6, grid)],
    }
    if np.shape(grid) == (2,):
        callers["breakpoint frequencies"] = [lambda: SrsSpec(np.column_stack([grid, [300.0, 400.0]]))]
    for name, calls in callers.items():
        for call in calls:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError) as info:
                    call()
            assert str(info.value) == f"{name} {_GRID_RULE}"


def test_spec_accelerations_are_checked_after_the_frequencies():
    with pytest.raises(ValueError, match="^breakpoint accelerations must be finite and positive$"):
        SrsSpec([[100.0, 300.0], [200.0, float("nan")]])
    with pytest.raises(ValueError, match=f"^breakpoint frequencies {_GRID_RULE}$"):
        SrsSpec([[200.0, 300.0], [100.0, -1.0]])


_S = _SEGMENT_ROWS


def _whole_run_peaks(sig, freqs, q_srs):
    """The SRS as one filter over the whole zero-padded run per frequency."""
    peaks = []
    for fn in freqs:
        padded = np.zeros(len(sig) + int(_ring_down_samples(fn, q_srs, sig.sample_rate)))
        padded[: len(sig)] = sig.samples
        peaks.append(np.max(np.abs(_run(*_sdof_coeffs(fn, q_srs, sig.dt), padded)[0])))
    return np.array(peaks)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([1, 700, _S - 1, _S, _S + 1, 2 * _S + 1]),
    # run lengths (record plus pad) at and next to segment edges
    edge=st.sampled_from([_S - 1, _S, _S + 1, 2 * _S, 2 * _S + 1, 3 * _S + 5]),
    q_srs=st.floats(2.0, 40.0),
    fn=st.floats(150.0, 20_000.0),
    lead=st.sampled_from([0.0, 0.3, 1.0]),
    trail=st.sampled_from([0.0, 0.5]),
    spike=st.sampled_from([0, 1, 2, 25]),
)
@example(seed=3, n=_S - 1, edge=2 * _S + 1, q_srs=10.0, fn=300.0, lead=0.0, trail=0.0, spike=0)
@example(seed=4, n=2 * _S + 1, edge=3 * _S + 5, q_srs=10.0, fn=5000.0, lead=0.3, trail=0.5, spike=2)
def test_segmented_srs_is_the_whole_run_peak_bit_for_bit(seed, n, edge, q_srs, fn, lead, trail, spike):
    # leading and trailing runs of exact zeros (lead=1.0 zeroes the record),
    # and a spike ``spike`` rows before the first segment edge or the record's
    # end, whose ring-down peak the next segment only sees through its seed
    fs = 100_000.0
    x = np.random.default_rng(seed).normal(size=n)
    x[: int(lead * n)] = 0.0
    x[n - int(trail * n) :] = 0.0
    if 0 < spike <= min(n, _S):
        x[min(n, _S) - spike] = 1e4
    sig = Signal(fs, x)
    freqs = [fn]
    pad = edge - n  # the frequency whose ring-down ends the run at ``edge``
    if pad > 0:
        f_edge = 7.0 * 2.0 * q_srs / (2.0 * np.pi * (pad - 0.5)) * fs
        if f_edge < 0.45 * fs:
            assert n + _ring_down_samples(f_edge, q_srs, fs) == edge
            freqs.append(f_edge)
    freqs = np.unique(freqs)
    got = srs(sig, freqs, q_srs).values
    want = _whole_run_peaks(sig, freqs, q_srs)
    assert got.tobytes() == want.tobytes()


def test_srs_memory_does_not_grow_with_the_pad():
    # 1 Hz at Q = 10 pads a 5,001-sample record at 100 kHz to 2,233,208 rows;
    # as one run that is 17.9 MB per array, in segments a few of 131 kB
    sig = synth_reference()
    tracemalloc.start()
    try:
        srs(sig, [1.0], 10.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000, peak


def test_srs_work_is_bounded_before_filtering():
    sig = Signal(100_000.0, np.ones(5001))
    for q_srs, freqs in [(1e12, [100.0]), (1e300, [1e-300]), (10.0, [1e-3, 1.0])]:
        with pytest.raises(ValueError) as info:
            srs(sig, freqs, q_srs)
        assert str(info.value).endswith(
            f"row limit; lower q_srs ({q_srs:.6g}) or raise the lowest frequency ({freqs[0]:.6g} Hz)"
        )
    # the limit leaves room for --fmin 0.1 on the default grid at Q = 10
    centers = make_layout(0.1, 10_000.0).centers
    assert np.sum(len(sig) + _ring_down_samples(centers, 10.0, 100_000.0)) < _MAX_ROWS / 4


def test_spec_csv_roundtrip(tmp_path):
    path = tmp_path / "spec.csv"
    path.write_text(
        "freq_hz,peak_accel_m_s2\n100,300\n1800,1e4\n10000,1e4\n", encoding="utf-8"
    )
    spec = read_spec(path, tolerance_db=2.5)
    np.testing.assert_allclose(spec.freqs, [100.0, 1800.0, 10_000.0])
    np.testing.assert_allclose(spec.peaks, [300.0, 10_000.0, 10_000.0])
    assert spec.tolerance_db == 2.5


def test_spec_csv_skips_utf8_byte_order_mark(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbffreq_hz,peak_accel_m_s2\r\n100,300\r\n1800,1e4\r\n")
    spec = read_spec(path)
    np.testing.assert_array_equal(spec.freqs, [100.0, 1800.0])
    np.testing.assert_array_equal(spec.peaks, [300.0, 10_000.0])


def test_spec_csv_errors(tmp_path):
    cases = [
        ("freq_hz,peak_accel_m_s2\n100,300\n", "at least 2"),
        ("100,300\n200\n", "expected 2"),
        ("100,300\n200,abc\n", "non-numeric"),
        ("200,300\n100,400\n", "strictly increasing"),
        ("100,300\n200,inf\n", "non-finite value on line 2"),
        ("100,300\n200,400,1\n300\n", "expected 2 comma-separated fields on line 2"),
    ]
    for i, (content, fragment) in enumerate(cases):
        path = tmp_path / f"spec{i}.csv"
        path.write_text(content, encoding="utf-8")
        with pytest.raises(SignalFormatError, match=fragment):
            read_spec(path)


_breakpoint = st.one_of(st.floats(-1e3, 1e5, allow_nan=False), st.sampled_from([0.0, -0.0, 1e-300]))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    freqs=st.lists(_breakpoint, max_size=8),
    peaks=st.lists(_breakpoint, min_size=8, max_size=8),
    shape=st.sampled_from(["as drawn", "sorted", "valid"]),
)
def test_read_spec_checks_random_tables(tmp_path_factory, freqs, peaks, shape):
    if shape != "as drawn":
        freqs = sorted(set(freqs))
    if shape == "valid":  # valid unless %.12g merges two frequencies
        freqs = sorted({abs(f) + 1.0 for f in freqs})
        peaks = [abs(a) + 1.0 for a in peaks]
    table = np.array(list(zip(freqs, peaks)), dtype=float).reshape(-1, 2)
    path = tmp_path_factory.mktemp("spec") / "s.csv"
    _write_table(path, "freq_hz,peak_accel_m_s2", table.T)
    rows = [[float(f"{v:.12g}") for v in row] for row in table]
    f, a = [r[0] for r in rows], [r[1] for r in rows]
    if len(rows) < 2:
        message = "need at least 2 breakpoints"
    elif min(f) <= 0.0 or any(hi <= lo for lo, hi in zip(f, f[1:])):
        message = "breakpoint frequencies must be finite, positive and strictly increasing, in a non-empty 1-D list"
    elif min(a) <= 0.0:
        message = "breakpoint accelerations must be finite and positive"
    else:
        spec = read_spec(path)
        assert spec.breakpoints.tobytes() == np.array(rows).tobytes()
        return
    with pytest.raises(SignalFormatError) as info:
        read_spec(path)
    assert str(info.value) == f"{path.name}: {message}"


def test_write_curve(tmp_path):
    curve = SrsCurve([100.0, 200.0], [123.456, 789.0])
    path = tmp_path / "curve.csv"
    write_curve(curve, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "freq_hz,srs_m_s2"
    assert lines[1] == "100,123.456"
    assert len(lines) == 3
