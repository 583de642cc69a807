"""Signal container, integration, residual checks, CSV I/O, surrogate."""

import dataclasses
import hashlib
import math
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import integrate as sci_integrate
from scipy import signal as sci_signal

from shocksynth import (
    BankLayout,
    BasisMatrix,
    DigitalNzdf,
    GammatoneParams,
    NzdfParams,
    PsoConfig,
    Signal,
    SignalFormatError,
    SrsCurve,
    SrsSpec,
    db_error,
    discretize,
    integrate,
    make_layout,
    motion_of,
    objective,
    pso_minimize,
    read_signal,
    read_spec,
    residual_motion,
    srs,
    synth_reference,
    write_signal,
)
from shocksynth import signal_core, synthesis
from shocksynth.signal_core import (
    _SEGMENT_ROWS,
    TWO_PI,
    _bilinear_biquad,
    _cumulative_trapezoid,
    _frozen,
    _linear_filter,
    _load_linear_filter,
    _median,
    _read_pairs,
    _run,
    _scalar,
    _segments,
    _values,
    _whole,
    _write_table,
)
from shocksynth.srs import _sdof_coeffs


def test_signal_validation():
    with pytest.raises(ValueError):
        Signal(0.0, [1.0, 2.0])
    with pytest.raises(ValueError):
        Signal(-100.0, [1.0, 2.0])
    with pytest.raises(ValueError):
        Signal(float("nan"), [1.0, 2.0])
    with pytest.raises(ValueError):
        Signal(100.0, [])
    with pytest.raises(ValueError):
        Signal(100.0, [[1.0, 2.0]])
    with pytest.raises(ValueError):
        Signal(100.0, [1.0, float("inf")])
    with pytest.raises(ValueError):
        Signal(100.0, [1.0, float("nan")])


def test_signal_properties():
    sig = Signal(1000.0, [1.0, 2.0, 3.0], t0=0.5)
    assert len(sig) == 3
    assert sig.dt == pytest.approx(1e-3)
    assert sig.duration == pytest.approx(2e-3)
    np.testing.assert_allclose(sig.times(), [0.5, 0.501, 0.502])
    with pytest.raises(ValueError):
        sig.samples[0] = 9.0  # stored array is read-only
    sig2 = sig.with_samples([4.0, 5.0, 6.0])
    assert sig2.sample_rate == sig.sample_rate
    assert sig2.t0 == sig.t0
    np.testing.assert_array_equal(sig2.samples, [4.0, 5.0, 6.0])


def test_integrate_cosine_oracle():
    # trapezoid integral of cos(wt) must track sin(wt)/w within the
    # classical T*dt^2*w^2/12 error bound
    fs, f = 20_000.0, 50.0
    w = 2.0 * np.pi * f
    t = np.arange(401) / fs
    vel = integrate(Signal(fs, np.cos(w * t)))
    bound = t[-1] * (1.0 / fs) ** 2 * w * w / 12.0
    assert np.max(np.abs(vel.samples - np.sin(w * t) / w)) <= 2.0 * bound


def test_integrate_initial_value():
    sig = Signal(100.0, np.ones(11))
    vel = integrate(sig, initial_value=3.0)
    assert vel.samples[0] == pytest.approx(3.0)
    assert vel.samples[-1] == pytest.approx(3.0 + 0.1)
    assert len(vel) == len(sig)


def test_motion_of_consistency():
    rng = np.random.default_rng(0)
    sig = Signal(5000.0, rng.normal(size=256))
    m = motion_of(sig)
    np.testing.assert_array_equal(m.velocity.samples, integrate(sig).samples)
    np.testing.assert_array_equal(
        m.displacement.samples, integrate(integrate(sig)).samples
    )
    assert m.acceleration is sig


def test_residual_motion_gaussian_doublet():
    # second derivative of a gaussian bump integrates back to the bump:
    # both terminal motions vanish
    fs = 50_000.0
    t = np.arange(2001) / fs
    c, s = 0.02, 0.002
    arg = (t - c) / s
    acc = (4.0 * arg * arg - 2.0) / (s * s) * np.exp(-arg * arg)
    rep = residual_motion(Signal(fs, acc))
    assert rep.passed
    assert rep.residual_velocity_ratio < 1e-6
    assert rep.residual_displacement_ratio < 1e-6


def test_residual_motion_detects_drift():
    # one full sine period: velocity returns to zero but displacement
    # accumulates t/w of drift
    fs, f = 50_000.0, 100.0
    t = np.arange(int(fs / f) + 1) / fs
    rep = residual_motion(Signal(fs, np.sin(2.0 * np.pi * f * t)))
    assert rep.residual_velocity_ratio < 1e-2
    assert rep.residual_displacement_ratio > 0.5
    assert not rep.passed


def test_residual_motion_zero_signal():
    rep = residual_motion(Signal(100.0, np.zeros(16)))
    assert rep.residual_velocity_ratio == 0.0
    assert rep.residual_displacement_ratio == 0.0
    assert rep.passed


def test_residual_motion_tolerance_validation():
    sig = Signal(100.0, np.ones(4))
    with pytest.raises(ValueError):
        residual_motion(sig, tolerance=0.0)
    with pytest.raises(ValueError):
        residual_motion(sig, tolerance=-1e-3)


def test_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    sig = Signal(100_000.0, 1e3 * rng.normal(size=500), t0=0.25)
    path = tmp_path / "sig.csv"
    write_signal(sig, path)
    back = read_signal(path)
    assert back.sample_rate == pytest.approx(sig.sample_rate, rel=1e-9)
    assert back.t0 == pytest.approx(sig.t0, rel=1e-12)
    np.testing.assert_allclose(back.samples, sig.samples, rtol=1e-11, atol=1e-8)
    header = path.read_text(encoding="utf-8").splitlines()[0]
    assert header == "time_s,accel_m_s2"


def test_read_signal_malformed(tmp_path):
    cases = [
        ("time_s,accel_m_s2\n", "no samples"),
        ("0,1\n", "at least 2 samples"),
        ("0,1\n1e-5,2,3\n", "expected 2"),
        ("0,1\n1e-5,abc\n", "non-numeric"),
        ("0,1\n1e-5,inf\n", "inf on line 2 is outside"),
        ("0,1\n1e-5,2\n3e-5,3\n", "non-uniform"),
        ("0,1\n-1e-5,2\n-2e-5,3\n", "increasing"),
    ]
    for i, (content, fragment) in enumerate(cases):
        path = tmp_path / f"bad{i}.csv"
        path.write_text(content, encoding="utf-8")
        with pytest.raises(SignalFormatError, match=fragment):
            read_signal(path)


def test_read_signal_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time_s,accel_m_s2\n0,1\n1e-5,oops\n", encoding="utf-8")
    with pytest.raises(SignalFormatError, match="line 3"):
        read_signal(path)


def test_read_signal_first_fault_in_line_order(tmp_path):
    cases = [
        # a 3-field line then a 1-field line: 4 tokens over 2 lines, still wrong
        ("0,1\n1e-5,2,3\n2e-5\n", "expected 2 comma-separated fields on line 2, got 3"),
        ("0,1\n1e-5,inf\n2e-5,2,3\n", "inf on line 2 is outside -1e+100 to 1e+100"),
        ("0,1\n1e-5,nan\n2e-5,abc\n", "nan on line 2 is outside -1e+100 to 1e+100"),
        ("0,1\n1e-5,1e101\n2e-5,abc\n", "1e+101 on line 2 is outside -1e+100 to 1e+100"),
        ("0,1\n2e12,1\n", "2000000000000.0 on line 2 is outside -1e+12 to 1e+12 s"),
        ("0,1\n1e-5,2,3\n2e-5,abc\n", "expected 2 comma-separated fields on line 2, got 3"),
        ("0,1\n1e-5,abc\n2e-5,inf\n", "non-numeric value on line 2: '1e-5,abc'"),
        ("0,1\n1e-5,{x}\n", "non-numeric value on line 2: '1e-5,{x}'"),
        ("0,1\n\n \n1e-5,oops\n", "non-numeric value on line 4: '1e-5,oops'"),
        # the header is recognized on line 1 only
        ("\ntime_s,accel_m_s2\n0,1\n1e-5,2\n", "non-numeric value on line 2: 'time_s,accel_m_s2'"),
    ]
    for i, (content, message) in enumerate(cases):
        path = tmp_path / f"bad{i}.csv"
        path.write_text(content, encoding="utf-8")
        with pytest.raises(SignalFormatError) as info:
            read_signal(path)
        assert str(info.value) == f"{path.name}: {message}"


def test_read_signal_line_endings_and_blank_lines(tmp_path):
    for i, content in enumerate(
        ["Time_S, Accel_M_S2\r\n0,1\r\n\r\n0.001,2\r\n", "0,1\r0.001,2\r", " 0 , 1 \n\n0.001,2"]
    ):
        path = tmp_path / f"ok{i}.csv"
        path.write_bytes(content.encode("utf-8"))
        sig = read_signal(path)
        np.testing.assert_array_equal(sig.samples, [1.0, 2.0])
        assert sig.sample_rate == pytest.approx(1000.0)


def test_read_signal_skips_utf8_byte_order_mark(tmp_path):
    # Excel's "CSV UTF-8" starts the file with a byte-order mark
    for i, content in enumerate(["time_s,accel_m_s2\r\n0,1\r\n0.001,2\r\n", "0,1\n0.001,2\n"]):
        path = tmp_path / f"bom{i}.csv"
        path.write_bytes(b"\xef\xbb\xbf" + content.encode("utf-8"))
        sig = read_signal(path)
        np.testing.assert_array_equal(sig.samples, [1.0, 2.0])
        assert sig.sample_rate == pytest.approx(1000.0)
        assert sig.t0 == 0.0


_HEADER = "time_s,accel_m_s2"
_ADVICE = "shorten or decimate the record"
_finite = st.floats(allow_nan=False, allow_infinity=False)
# the time and amplitude ranges, which a record's two columns must be in
_CSV_RANGES = [(-1e12, 1e12, "-1e+12 to 1e+12 s"), (-1e100, 1e100, "-1e+100 to 1e+100")]


@settings(derandomize=True, max_examples=50, deadline=None)
@given(table=st.lists(st.tuples(st.floats(-1e12, 1e12), st.floats(-1e100, 1e100)), max_size=40))
def test_write_table_reads_back_at_12_digits(tmp_path_factory, table):
    path = tmp_path_factory.mktemp("table") / "t.csv"
    _write_table(path, _HEADER, np.array(table, dtype=float).reshape(-1, 2).T)
    expected = np.array([[float(f"{v:.12g}") for v in row] for row in table]).reshape(-1, 2)
    assert _read_pairs(path, _HEADER, _ADVICE).tobytes() == expected.tobytes()


def _csv_oracle(data: bytes, header: str):
    """Plain line-by-line reading of a 2-column CSV: (rows, None) or (None, message)."""
    # universal newlines, as read_text: \r\n and a lone \r are line breaks
    text = data.decode("utf-8").removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n")
    rows = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line or (lineno == 1 and line.lower().replace(" ", "") == header):
            continue
        fields = line.split(",")
        if len(fields) != 2:
            return None, f"expected 2 comma-separated fields on line {lineno}, got {len(fields)}"
        try:
            pair = [float(field) for field in fields]
        except ValueError:
            return None, f"non-numeric value on line {lineno}: {line!r}"
        for value, (low, high, text) in zip(pair, _CSV_RANGES):
            if not low <= value <= high:
                return None, f"{value!r} on line {lineno} is outside {text}"
        rows.append(pair)
    return rows, None


_number = st.one_of(
    _finite.map(repr),
    _finite.map("{:.12g}".format),
    st.integers(-(10**6), 10**6).map(str),
    st.sampled_from([" 1.5 ", "+2", "-0", "1E3"]),
)
_non_numeric = st.sampled_from(["abc", "", "1e", "--1", "0x10", "1.2.3", "1\u00e9"])
_non_finite = st.sampled_from(["inf", "-inf", "nan", "NaN", "-Infinity", "1e999"])
_good_line = st.builds("{},{}".format, _number, _number)
_fault_line = st.one_of(
    st.builds("{},{},{}".format, _number, _number, _number),
    st.builds("{},{},".format, _number, _number),
    _number,
    st.sampled_from(["", "  ", _HEADER, "Time_S, Accel_M_S2"]),
    st.builds("{},{}".format, _number, _non_numeric),
    st.builds("{},{}".format, _non_numeric, _number),
    st.builds("{},{}".format, _number, _non_finite),
    st.builds("{},{}".format, _non_finite, _non_numeric),
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    lines=st.lists(_good_line, max_size=12),
    faults=st.lists(st.tuples(st.integers(0, 12), _fault_line), max_size=3),
    header=st.booleans(),
    bom=st.booleans(),
    crlf=st.booleans(),
    final_newline=st.booleans(),
)
def test_read_pairs_matches_line_by_line_oracle(
    tmp_path_factory, lines, faults, header, bom, crlf, final_newline
):
    for at, line in faults:
        lines.insert(at, line)
    if header:
        lines.insert(0, _HEADER)
    newline = "\r\n" if crlf else "\n"
    text = ("\ufeff" if bom else "") + newline.join(lines) + (newline if final_newline else "")
    data = text.encode("utf-8")
    path = tmp_path_factory.mktemp("faults") / "f.csv"
    path.write_bytes(data)
    rows, message = _csv_oracle(data, _HEADER)
    if message is None:
        np.testing.assert_array_equal(_read_pairs(path, _HEADER, _ADVICE), np.array(rows).reshape(-1, 2))
    else:
        with pytest.raises(SignalFormatError) as info:
            _read_pairs(path, _HEADER, _ADVICE)
        assert str(info.value) == f"{path.name}: {message}"


# float() reads these and numpy's text reader does not, so they take the
# per-line pass; so do the lines below, which numpy rejects as a whole file.
_float_only = st.sampled_from(["1_000", "-2_5.0_1", "\u0661\u0662", "\u0967.\u0968", "\uff13e2"])
_numpy_rejects = st.sampled_from(
    ["   ", "\t", " \t ", "# comment", "#1,2", '"1",2', '1,"2"', "1,2,", "1,2,,", "\u3000"]
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    lines=st.lists(st.builds("{},{}".format, st.one_of(_number, _float_only), _number), max_size=12),
    extras=st.lists(st.tuples(st.integers(0, 12), st.one_of(_numpy_rejects, _fault_line)), max_size=3),
    breaks=st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=16, max_size=16),
    header=st.booleans(),
    bom=st.booleans(),
)
def test_read_pairs_matches_oracle_where_numpy_and_float_differ(
    tmp_path_factory, lines, extras, breaks, header, bom
):
    for at, line in extras:
        lines.insert(at, line)
    if header:
        lines.insert(0, _HEADER)
    text = ("\ufeff" if bom else "") + "".join(line + end for line, end in zip(lines, breaks))
    data = text.encode("utf-8")
    path = tmp_path_factory.mktemp("mixed") / "m.csv"
    path.write_bytes(data)
    rows, message = _csv_oracle(data, _HEADER)
    if message is None:
        assert _read_pairs(path, _HEADER, _ADVICE).tobytes() == np.array(rows, dtype=float).reshape(-1, 2).tobytes()
    else:
        with pytest.raises(SignalFormatError) as info:
            _read_pairs(path, _HEADER, _ADVICE)
        assert str(info.value) == f"{path.name}: {message}"


def test_long_valid_record_never_reaches_the_per_line_pass(tmp_path, monkeypatch):
    rng = np.random.default_rng(5)
    path = tmp_path / "long.csv"
    write_signal(Signal(100_000.0, rng.normal(size=100_001) * 10.0 ** rng.integers(-6, 6, 100_001)), path)
    with path.open(encoding="utf-8") as fh:
        per_line = signal_core._parse_lines(fh, True, path.name)

    def refuse(*args):
        raise AssertionError("the per-line pass ran on a valid file")

    monkeypatch.setattr(signal_core, "_parse_lines", refuse)
    assert _read_pairs(path, _HEADER, _ADVICE).tobytes() == per_line.tobytes()
    assert len(read_signal(path)) == 100_001


def test_malformed_file_reaches_the_per_line_pass(tmp_path, monkeypatch):
    seen = []
    parse_lines = signal_core._parse_lines
    monkeypatch.setattr(signal_core, "_parse_lines", lambda *args: seen.append(args[2]) or parse_lines(*args))
    cases = [("u.csv", "0,1_000\n1e-5,2\n"), ("w.csv", "0,1\n \n1e-5,2\n"), ("e.csv", "")]
    for name, content in cases:
        (tmp_path / name).write_text(content, encoding="utf-8")
    np.testing.assert_array_equal(_read_pairs(tmp_path / "u.csv", _HEADER, _ADVICE), [[0.0, 1000.0], [1e-5, 2.0]])
    np.testing.assert_array_equal(_read_pairs(tmp_path / "w.csv", _HEADER, _ADVICE), [[0.0, 1.0], [1e-5, 2.0]])
    assert _read_pairs(tmp_path / "e.csv", _HEADER, _ADVICE).shape == (0, 2)
    bad = tmp_path / "bad.csv"
    bad.write_text("0,1\n1e-5,2,3\n", encoding="utf-8")
    with pytest.raises(SignalFormatError, match="expected 2 comma-separated fields on line 2, got 3"):
        read_signal(bad)
    assert seen == ["u.csv", "w.csv", "e.csv", "bad.csv"]


def test_per_line_pass_holds_a_flat_buffer_not_the_text(tmp_path, monkeypatch):
    # one whitespace-only line sends a 100,001-row record to the per-line
    # pass, which keeps 16 bytes a row, not the file's text and a tuple a row
    path = tmp_path / "spaced.csv"
    write_signal(Signal(100_000.0, np.random.default_rng(8).normal(size=100_001)), path)
    with path.open("a", encoding="utf-8") as fh:
        fh.write(" \n")
    seen = []
    parse_lines = signal_core._parse_lines
    monkeypatch.setattr(signal_core, "_parse_lines", lambda *args: seen.append(args[2]) or parse_lines(*args))
    tracemalloc.start()
    try:
        pairs = _read_pairs(path, _HEADER, _ADVICE)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert seen == ["spaced.csv"] and pairs.shape == (100_001, 2)
    assert peak <= 48 * len(pairs), peak / len(pairs)


def test_short_lines_are_read_within_their_charge(tmp_path, monkeypatch):
    # 1,000,001 lines "i,0" of 8.9 bytes: 2 bytes a file byte undercounts
    # what the parse holds a line, the 40 bytes a line it is charged do not
    path = tmp_path / "short.csv"
    path.write_text("".join(f"{i},0\n" for i in range(1_000_001)), encoding="utf-8")
    asked = []
    monkeypatch.setattr(signal_core, "_budget", lambda what, rows=0, nbytes=0, advice="": asked.append(nbytes))
    tracemalloc.start()
    try:
        sig = read_signal(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(sig) == 1_000_001 and sig.sample_rate == 1.0
    assert asked[-1] == 40 * 1_000_002
    assert peak <= asked[-1], (peak, asked)


@pytest.mark.parametrize(
    "head, lineno",
    [(b"", 1), (b"time_s,accel_m_s2\r\n0,1\r\n", 3), (b"0,1\r" + b"1" * 900_000 + b"\n", 3)],
    ids=["alone", "after-crlf-lines", "after-a-line-across-a-block"],
)
def test_a_line_longer_than_a_block_is_refused_before_the_parse(tmp_path, head, lineno):
    # numpy's reader would hold about 6 bytes a byte of the line; the line
    # count reads the file a block at a time, into one buffer
    path = tmp_path / "one.csv"
    path.write_bytes(head + b"1" * 5_000_000)
    tracemalloc.start()
    try:
        with pytest.raises(SignalFormatError, match=rf"^one\.csv: line {lineno} is longer than 1,048,576 characters$"):
            read_signal(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * signal_core._TEXT_BLOCK, peak


def test_each_csv_read_opens_its_file_once(tmp_path, monkeypatch):
    # the line count and the parse read one handle
    write_signal(Signal(1000.0, [1.0, 2.0, 3.0]), tmp_path / "r.csv")
    (tmp_path / "s.csv").write_text("freq_hz,peak_accel_m_s2\n100,10\n1000,100\n", encoding="utf-8")
    opened, path_open = [], Path.open
    monkeypatch.setattr(Path, "open", lambda self, *args, **kw: opened.append(self.name) or path_open(self, *args, **kw))
    assert len(read_signal(tmp_path / "r.csv")) == 3
    assert len(read_spec(tmp_path / "s.csv").freqs) == 2
    assert opened == ["r.csv", "s.csv"]


def test_read_pairs_refuses_an_over_budget_file_before_numpys_reader(tmp_path, monkeypatch):
    # 200,000 lines "0" in 400 kB are within the size charge but refused on
    # their count, with the parse not begun
    path = tmp_path / "big.csv"
    path.write_bytes(b"0\n" * 200_000)
    need, limit = 40 * 200_001, 1 << 20
    monkeypatch.setattr(signal_core, "_MAX_BYTES", limit)

    def parse(*args, **kwargs):
        raise AssertionError("the file was parsed before the budget was checked")

    monkeypatch.setattr(np, "loadtxt", parse)
    monkeypatch.setattr(signal_core, "_parse_lines", parse)
    with pytest.raises(ValueError, match=re.escape(
        f"reading big.csv would hold {need:.3g} bytes, over the {limit:,}-byte limit; {_ADVICE}"
    )):
        _read_pairs(path, _HEADER, _ADVICE)


def test_median_is_numpys_bit_for_bit():
    rng = np.random.default_rng(21)
    for n in (1, 2, 3, 4, 7, 10, 101, 1000):
        for values in (
            rng.normal(size=n) * 10.0 ** rng.integers(-8, 8, n),
            rng.integers(-2, 3, n) * 0.5,  # many duplicates
            rng.choice([-0.0, 0.0, 1e-5], n),
        ):
            assert _median(values).tobytes() == np.median(values).tobytes(), (n, values)


def test_write_signal_matches_per_value_format(tmp_path):
    # the old per-line writer, kept as the byte-level reference
    rng = np.random.default_rng(8)
    values = np.concatenate(
        [rng.normal(size=200) * 10.0 ** rng.integers(-12, 12, 200), [0.0, -0.0, 1.0, 1e21, -123456789.0]]
    )
    sig = Signal(48_000.0, values, t0=-0.01)
    path = tmp_path / "sig.csv"
    write_signal(sig, path)
    expected = "time_s,accel_m_s2\n" + "".join(
        f"{ti:.12g},{ai:.12g}\n" for ti, ai in zip(sig.times(), sig.samples)
    )
    assert path.read_bytes() == expected.encode("utf-8")
    table = tmp_path / "table.csv"
    _write_table(table, "a,b,c", values[:201].reshape(67, 3).T)
    rows = values[:201].reshape(67, 3)
    assert table.read_text(encoding="utf-8") == "a,b,c\n" + "".join(
        ",".join(f"{v:.12g}" for v in row) + "\n" for row in rows
    )


def test_write_table_formats_a_segment_at_a_time(tmp_path):
    # across block edges the bytes are the per-value format's, and the
    # formatting allocates for one block of rows, not for the table
    values = np.random.default_rng(9).normal(size=(3 * _SEGMENT_ROWS + 3, 2)) * 1e3
    values[_SEGMENT_ROWS - 1 : _SEGMENT_ROWS + 1] = [[-0.0, 0.0], [1e-300, -1e21]]
    path = tmp_path / "t.csv"
    tracemalloc.start()
    try:
        _write_table(path, "a,b", values.T)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert path.read_text(encoding="utf-8") == "a,b\n" + "".join(f"{a:.12g},{b:.12g}\n" for a, b in values)
    # about 105 B a row as floats, tuple and text; the whole table would be 5.2 MB
    assert peak < 160 * _SEGMENT_ROWS, peak


def test_write_table_blocks_are_cells_not_rows(tmp_path):
    # a table wider than a block writes one row at a time, and a narrow one
    # two segments' cells at a time, with the per-value format's bytes
    for shape in [(3, 2 * _SEGMENT_ROWS + 5), (_SEGMENT_ROWS + 7, 5)]:
        values = np.random.default_rng(10).normal(size=shape) * 1e3
        path = tmp_path / "t.csv"
        _write_table(path, "h", list(values.T))
        assert path.read_text(encoding="utf-8") == "h\n" + "".join(
            ",".join(f"{v:.12g}" for v in row) + "\n" for row in values
        )


def test_write_signal_holds_one_block_not_the_record(tmp_path):
    # the times are made a block at a time too, so nothing the size of the
    # record is allocated: its samples are 3.1 MB, the bound 2.6 MB
    sig = Signal(48_000.0, np.random.default_rng(12).normal(size=24 * _SEGMENT_ROWS) * 1e3, t0=-0.01)
    path = tmp_path / "s.csv"
    tracemalloc.start()
    try:
        write_signal(sig, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 160 * _SEGMENT_ROWS < sig.samples.nbytes, peak
    reference = tmp_path / "r.csv"
    np.savetxt(reference, np.column_stack([sig.times(), sig.samples]), fmt="%.12g", delimiter=",",
               header="time_s,accel_m_s2", comments="")
    assert path.read_bytes() == reference.read_bytes()


def test_read_signal_header_optional(tmp_path):
    path = tmp_path / "noheader.csv"
    path.write_text("0,1\n0.001,2\n0.002,3\n", encoding="utf-8")
    sig = read_signal(path)
    assert len(sig) == 3
    assert sig.sample_rate == pytest.approx(1000.0)


def test_synth_reference_deterministic():
    a = synth_reference(seed=7)
    b = synth_reference(seed=7)
    c = synth_reference(seed=8)
    np.testing.assert_array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)


def test_synth_reference_contract():
    sig = synth_reference(seed=0)
    assert len(sig) == 5001
    assert sig.sample_rate == 100_000.0
    assert np.max(np.abs(sig.samples)) == pytest.approx(1000.0, rel=1e-12)
    rep = residual_motion(sig)
    assert rep.passed
    assert rep.residual_velocity_ratio < 1e-3
    assert rep.residual_displacement_ratio < 1e-3


def test_synth_reference_srs_spread():
    sig = synth_reference(seed=0)
    curve = srs(sig, [50.0, 100.0, 500.0, 2000.0, 10_000.0])
    # meaningful energy everywhere in the band, not just numerically nonzero
    assert np.all(curve.values > 1.0)


def test_synth_reference_other_shapes():
    sig = synth_reference(fs=50_000.0, duration=0.02, fmax=5000.0, seed=3)
    assert len(sig) == 1001
    assert np.max(np.abs(sig.samples)) == pytest.approx(1000.0, rel=1e-12)
    assert residual_motion(sig).passed


def test_synth_reference_validation():
    with pytest.raises(ValueError):
        synth_reference(fs=50_000.0, fmax=10_000.0)
    with pytest.raises(ValueError):
        synth_reference(duration=0.0)
    with pytest.raises(ValueError):
        synth_reference(fmax=150.0)


def test_synth_reference_needs_two_samples_under_the_correction_pulses():
    # the pulses span 0.28 to 0.60 of the record: at 100 kHz a 50 us record
    # has one sample strictly inside, a 60 us record two
    for duration in (1e-5, 5e-5):
        with pytest.raises(ValueError, match=f"duration {duration:.6g} s at fs 100000 Hz"):
            synth_reference(duration=duration)
    sig = synth_reference(duration=6e-5)
    assert len(sig) == 7
    assert np.max(np.abs(sig.samples)) == pytest.approx(1000.0, rel=1e-12)


def test_synth_reference_is_sized_before_it_starts(monkeypatch):
    # a 0.1 s record, 10,001 samples, refused one byte over the limit before
    # any array of the record is made, and made at the limit
    need = 96 * 10_001
    monkeypatch.setattr(signal_core, "_MAX_BYTES", need - 1)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=re.escape(
            f"demo-ref would hold {need:.3g} bytes, over the {need - 1:,}-byte limit; lower fs or duration"
        )):
            synth_reference(duration=0.1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 10_001, peak
    monkeypatch.setattr(signal_core, "_MAX_BYTES", need)
    assert len(synth_reference(duration=0.1)) == 10_001


def test_synth_reference_sample_count_that_overflows_is_refused_by_the_budget():
    # 1e300 s at 10 GHz overflowed the sample count to inf: the rate range refuses it now,
    # and the largest count in range, 1e6 s at 1 GHz, is an exact int the budget refuses
    with pytest.raises(ValueError, match=r"^fs must be finite and between 1e-06 and 1e\+09 Hz, got 1e\+10$"):
        synth_reference(fs=1e10, duration=1e300, fmax=1e9)
    with pytest.raises(ValueError, match=re.escape(
        "demo-ref would filter 1e+15 rows, over the 1,000,000,000-row limit; lower fs or duration"
    )):
        synth_reference(fs=1e9, duration=1e6, fmax=1e8)


@pytest.mark.parametrize("duration", [0.2, 1.0])
def test_synth_reference_peak_is_within_its_budget_estimate(monkeypatch, duration):
    asked = []
    monkeypatch.setattr(signal_core, "_budget", lambda what, rows=0, nbytes=0, advice="": asked.append(nbytes))
    tracemalloc.start()
    try:
        sig = synth_reference(duration=duration, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    [nbytes] = asked
    assert nbytes == 96 * len(sig)
    assert peak <= nbytes, (peak, nbytes)


def test_scalar_rule_names_the_parameter_and_the_value():
    assert _scalar("q", 5) == 5.0 and type(_scalar("q", 5)) is float
    assert _scalar("fmax", 200.0, at_least=200.0) == 200.0
    for value, bounds, message in [
        (float("nan"), {}, "x must be finite, got nan"),
        (-math.inf, {}, "x must be finite, got -inf"),
        (0.5, {"above": 0.5}, "x must be finite and > 0.5, got 0.5"),
        (150.0, {"at_least": 200.0}, "x must be finite and >= 200, got 150"),
    ]:
        with pytest.raises(ValueError, match=re.escape(message)):
            _scalar("x", value, **bounds)


_CURVE = SrsCurve([100.0, 200.0], [1.0, 2.0])

# Every scalar parameter of each value type and checked function, by arity.
_SCALAR_TAKERS = {
    "Signal": (2, lambda rate, t0: Signal(rate, [0.0, 1.0, 0.0], t0)),
    "NzdfParams": (2, lambda fc, q: NzdfParams(fc, q)),
    "GammatoneParams": (4, lambda fc, b, a, phi: GammatoneParams(fc, b, amplitude=a, phase=phi)),
    "SrsSpec": (1, lambda tol: SrsSpec([[100.0, 300.0], [200.0, 400.0]], tol)),
    "SrsCurve": (1, lambda q: SrsCurve([100.0, 200.0], [1.0, 2.0], q)),
    "make_layout": (2, lambda fmin, fmax: make_layout(fmin, fmax)),
    "residual_motion": (1, lambda tol: residual_motion(Signal(100.0, [0.0, 1.0, 0.0]), tol)),
    "db_error": (1, lambda tol: db_error(_CURVE, _CURVE, tol)),
}


def _assert_finite_or_value_error(build, args):
    """``build(*args)`` raises ValueError or returns an object with finite float fields."""
    try:
        obj = build(*args)
    except ValueError:
        return
    for field in dataclasses.fields(obj):
        value = getattr(obj, field.name)
        if isinstance(value, (float, np.ndarray)):
            assert np.isfinite(value).all(), (field.name, value)


@pytest.mark.parametrize("name", sorted(_SCALAR_TAKERS))
@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_scalars_are_finite_or_rejected_with_value_error(name, data):
    arity, build = _SCALAR_TAKERS[name]
    args = data.draw(st.tuples(*[st.floats(allow_nan=True, allow_infinity=True)] * arity))
    _assert_finite_or_value_error(build, args)


def test_whole_rule_names_the_parameter_and_the_value():
    assert _whole("n", 5) == 5 and type(_whole("n", np.int64(5))) is int and type(_whole("n", 5.0)) is int
    for value, bound, message in [
        (10.7, -math.inf, "n must be a whole number, got 10.7"),
        (math.inf, -math.inf, "n must be a whole number, got inf"),
        ("5", -math.inf, "n must be a whole number, got '5'"),
        (-1, 0, "n must be >= 0, got -1"),
        (9.0, 10, "n must be >= 10, got 9"),
    ]:
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            _whole("n", value, bound)


def _pso_dim(dim):
    """The ``dim`` pso_minimize kept, as its bounds check names it: bounds of no rows fit no dim."""
    try:
        pso_minimize(dim, None, np.empty((0, 2)), PsoConfig())
    except ValueError as exc:
        kept = re.fullmatch(r"bounds must have shape \((\d+), 2\), got \(0, 2\)", str(exc))
        if kept is None:
            raise
        return int(kept.group(1))


class _Seeded(Exception):
    pass


def _reference_seed(seed):
    """The seed synth_reference hands numpy's generator, which stops it there."""
    def stop(s):
        raise _Seeded(s)

    with mock.patch.object(np.random, "default_rng", stop), pytest.raises(_Seeded) as info:
        synth_reference(seed=seed)
    return info.value.args[0]


# Every whole-number parameter: the names its refusals may give, and what a build with it keeps.
_WHOLE_TAKERS = {
    "PsoConfig.swarm_size": ("swarm_size", lambda n: PsoConfig(swarm_size=n).swarm_size),
    "PsoConfig.max_iters": ("max_iters", lambda n: PsoConfig(max_iters=n).max_iters),
    "PsoConfig.seed": ("seed", lambda n: PsoConfig(seed=n).seed),
    "pso_minimize.dim": ("dim", _pso_dim),
    "make_layout.ppo": ("points_per_octave|ppo", lambda n: make_layout(100.0, 1000.0, n).points_per_octave),
    "BankLayout.points_per_octave": ("points_per_octave", lambda n: BankLayout(100.0, 200.0, n, [100.0, 200.0]).points_per_octave),
    "NzdfParams.order": ("order", lambda n: NzdfParams(1000.0, order=n).order),
    "NzdfParams.numerator_power": ("numerator_power", lambda n: NzdfParams(1000.0, numerator_power=n).numerator_power),
    "GammatoneParams.order": ("order", lambda n: GammatoneParams(1000.0, 100.0, order=n).order),
    "synth_reference.seed": ("seed", _reference_seed),
}

_WHOLE_DRAWS = st.one_of(
    st.integers(-(2**80), 2**80),
    st.integers(-3, 12),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(-3, 12).map(float),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.5, 10.7, -1e300, 1e300, sys.float_info.max]),
    st.text(max_size=3),
)


@pytest.mark.parametrize("taker", sorted(_WHOLE_TAKERS))
@settings(derandomize=True, max_examples=200, deadline=None)
@given(value=_WHOLE_DRAWS)
def test_whole_numbers_are_kept_exactly_or_rejected_with_value_error(taker, value):
    name, build = _WHOLE_TAKERS[taker]
    try:
        kept = build(value)
    except ValueError as exc:
        assert re.search(rf"\b({name})\b", str(exc)), (value, str(exc))
        return
    assert type(kept) is int and kept == value, (value, kept)


def test_values_rule_names_the_parameter_and_the_value():
    kept = _values("v", [1, 2])
    assert kept.dtype == np.float64 and kept.tolist() == [1.0, 2.0]
    frozen = _frozen(np.ones((3, 2)))
    assert _values("v", frozen, (None, 2)) is frozen  # kept without a copy
    for args, message in [
        (("v", "abc"), "v must be an array of numbers of shape (n,)"),
        (("v", [[1.0], [1.0, 2.0]], (None, 2)), "v must be an array of numbers of shape (n, 2)"),
        (("v", ["1", "2"]), "v must be an array of numbers of shape (n,)"),
        (("v", []), "v must have shape (n,), got (0,)"),
        (("v", np.float64(1.0)), "v must have shape (n,), got ()"),
        (("v", np.ones(3), (2, 3)), "v must have shape (2, 3), got (3,)"),
        (("v", [1.0, np.nan]), "v must be finite, got nan at [1]"),
        (("v", [[1.0, 2.0], [3.0, 0.0]], (None, 2), 0.0), "v must be finite and > 0, got 0 at [1, 1]"),
        (("v", [1.0, -1.0], (2,), -math.inf, 0.0), "v must be finite and >= 0, got -1 at [1]"),
    ]:
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            _values(*args)


def test_values_rule_holds_nothing_the_size_of_the_array():
    # the values are checked through their min and max, not a mask of the array
    x = _frozen(np.ones(1_000_000))
    tracemalloc.start()
    try:
        _values("x", x, above=0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < x.nbytes // 100, peak


def _first_positions(dim, bounds, initial):
    """The swarm's first positions for ``bounds`` and ``initial_positions``: its first batch, which stops it there."""
    def stop(block):
        raise _Seeded(block)

    with pytest.raises(_Seeded) as info:
        pso_minimize(dim, stop, bounds, PsoConfig(), initial)
    return info.value.args[0]


def _pso_bounds(bounds):
    """The ``bounds`` pso_minimize kept: its first two positions, seeded at every lo and every hi."""
    try:
        seeds = np.asarray(bounds, dtype=float).T
    except ValueError:  # no table of numbers: refused before the seeds are read
        seeds = None
    return _first_positions(3, bounds, seeds)[:2].T


def _objective_samples(x):
    """The record objective hands the SRS for ``x``: A @ x, with A the identity."""
    def stop(sig, *args):
        raise _Seeded(sig.samples)

    basis = BasisMatrix(_LAYOUT_2, 1000.0, np.eye(2), [1.0, 1.0])
    with mock.patch.object(synthesis, "srs", stop), pytest.raises(_Seeded) as info:
        objective(x, basis, _CURVE)
    return info.value.args[0]


_LAYOUT_2 = BankLayout(100.0, 200.0, 1, [100.0, 200.0])
_BOX_3 = np.full((3, 2), [-1e7, 1e7])
_ONE_DIM = ("valid", "list", "values", "non-finite", "length", "empty")

# Every array parameter: the names its refusals may give, what a build with it keeps, a valid value, and the
# draws it takes.  SrsSpec's accelerations are the second column of its table, so they are drawn as 1-D numbers.
_VALUES_TAKERS = {
    "Signal.samples": ("samples", lambda v: Signal(1000.0, v).samples, [0.0, 1.5, -2.0], None),
    "SrsSpec accelerations": (
        "breakpoint accelerations|breakpoints",
        lambda v: SrsSpec(np.column_stack([100.0 * np.arange(1, len(v) + 1), v])).peaks, [300.0, 400.0, 5.0], _ONE_DIM),
    "SrsCurve.values": ("values", lambda v: SrsCurve([100.0, 200.0, 300.0], v).values, [1.0, 2.0, 0.0], None),
    "BasisMatrix.columns": (
        "columns", lambda v: BasisMatrix(_LAYOUT_2, 1000.0, v, [1.0, 1.0]).columns, [[0.5, -1.0], [1.0, 0.0]], None),
    "BasisMatrix.norms": ("norms", lambda v: BasisMatrix(_LAYOUT_2, 1000.0, np.eye(2), v).norms, [2.0, 3.0], None),
    # the a0 and pole tests follow the rule, on values it kept
    "DigitalNzdf.sos": ("sos|pole", lambda v: DigitalNzdf(NzdfParams(1000.0), 1e5, v).sos,
                        discretize(NzdfParams(1000.0), 1e5).sos, None),
    "pso_minimize.bounds": ("bounds", _pso_bounds, [[-1.0, 1.0], [0.0, 2.0], [-5.0, 5.0]], None),
    "pso_minimize.initial_positions": (
        "initial_positions", lambda v: _first_positions(3, _BOX_3, v)[: len(v)], [[0.1, 0.2, 0.3], [1.0, 2.0, 3.0]], None),
    "objective.x": ("x", _objective_samples, [0.5, -2.0], None),
}


@st.composite
def _array_draw(draw, good, kinds=None):
    """A value for an array parameter whose valid value is ``good``: that value, other numbers of its
    shape, one value not finite, another length, another rank, empty, ragged, a string or a numpy scalar."""
    good = np.array(good, dtype=float)
    kind = draw(st.sampled_from(kinds or _ONE_DIM + ("rank", "ragged", "string", "scalar")))
    if kind == "valid":
        return good
    if kind == "list":
        return good.tolist()
    if kind == "values":
        return draw(hnp.arrays(np.float64, good.shape, elements=st.floats(-1e6, 1e6)))
    if kind == "non-finite":
        good.flat[draw(st.integers(0, good.size - 1))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        return good
    if kind == "length":
        shape = list(good.shape)
        shape[draw(st.integers(0, good.ndim - 1))] += draw(st.sampled_from([-1, 1, 40]))
        return np.resize(good, shape)
    if kind == "empty":
        return draw(st.sampled_from([[], np.empty((0,) + good.shape[1:])]))
    if kind == "rank":
        return draw(st.sampled_from([good[None], good[..., None], good.ravel() if good.ndim > 1 else good[0]]))
    if kind == "ragged":
        return draw(st.sampled_from([[[1.0], [1.0, 2.0]], [1.0, [2.0]], [1.0, None]]))
    if kind == "string":
        return draw(st.one_of(st.text(max_size=3), st.just(["1", "2"])))
    return draw(st.one_of(st.floats(allow_nan=True, allow_infinity=True).map(np.float64), st.integers(-3, 3).map(np.int64)))


@pytest.mark.parametrize("taker", sorted(_VALUES_TAKERS))
@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data())
def test_array_values_are_kept_or_rejected_with_value_error(taker, data):
    name, build, good, kinds = _VALUES_TAKERS[taker]
    value = data.draw(_array_draw(good, kinds))
    try:
        kept = build(value)
    except ValueError as exc:
        assert re.search(rf"\b({name})\b", str(exc)), (value, str(exc))
        return
    drawn = np.asarray(value, dtype=float)
    assert type(kept) is np.ndarray and kept.dtype == np.float64, (value, kept)
    assert kept.shape == drawn.shape and np.array_equal(kept, drawn), (value, kept)


def test_layout_over_the_whole_float_range_is_finite_or_rejected():
    # fmax / fmin overflowed here, and so did the top center 2**(k / ppo): the
    # frequency range refuses the end past it by name, with no numpy overflow warning
    tiny, huge = 5e-324, sys.float_info.max
    for fmin, fmax in [(tiny, huge), (1e-300, 1e300), (1.0, huge), (tiny, 1e10), (1e300, huge)]:
        _assert_finite_or_value_error(make_layout, (fmin, fmax))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            name, value = ("fmin", fmin) if not 1e-6 <= fmin <= 1e9 else ("fmax", fmax)
            message = f"{name} must be finite and between 1e-06 and 1e+09 Hz, got {value:.6g}"
            with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
                make_layout(fmin, fmax)


def test_cumulative_trapezoid_is_scipys():
    rng = np.random.default_rng(4)
    for n in (1, 2, 3, 1000, 100_001):
        y = rng.normal(size=n) * 1e3
        ref = sci_integrate.cumulative_trapezoid(y, dx=1e-5, initial=0.0)
        np.testing.assert_array_equal(_cumulative_trapezoid(y, 1e-5), ref)


def _sdof_bank(fs):
    return [_sdof_coeffs(fn, 10.0, 1.0 / fs) for fn in np.geomspace(100.0, 0.45 * fs, 13)]


@pytest.mark.parametrize("zeros", [0, 1, 2])
def test_bilinear_biquad_is_scipys_prewarped_bilinear(zeros):
    # scipy's bilinear maps s to 2 fs' (z - 1) / (z + 1), so fs' = c / 2 is the
    # map pre-warped at w; every row agrees to a few ulps of its largest coefficient
    for fs in (1e3, 25_600.0, 1e5, 1e6):
        for ratio in np.geomspace(1e-4, 0.45, 9):
            for q in (0.6, 1.0 / np.sqrt(2.0), 5.0, 1e4):
                w = TWO_PI * ratio * fs
                gain = w ** (2 - zeros) / q
                b, a = sci_signal.bilinear(np.r_[gain, np.zeros(zeros)], [1.0, w / q, w * w], fs=w / np.tan(w / fs / 2.0) / 2.0)
                want = np.r_[b, a]
                np.testing.assert_allclose(_bilinear_biquad(w, q, fs, zeros, gain), want, rtol=0.0,
                                           atol=4.0 * np.finfo(float).eps * np.abs(want).max(), err_msg=str((fs, ratio, q)))


@pytest.mark.parametrize("fs", [2e3, 25_600.0, 1e5, 1e6])
def test_reference_drift_high_pass_is_a_45_hz_butterworth(fs):
    sections = []

    def spy(sos, x, rows):
        sections.append(np.array(sos))
        return _segments(sos, x, rows)

    with mock.patch.object(signal_core, "_segments", spy):
        synth_reference(fs=fs, duration=0.01, fmax=200.0)
    [want] = sci_signal.butter(2, 45.0, "highpass", fs=fs, output="sos")
    [got] = sections
    np.testing.assert_allclose(got, want, rtol=0.0, atol=4.0 * np.finfo(float).eps * np.abs(want).max())


def test_iir2_matches_lfilter():
    # one call of scipy's compiled lfilter kernel, so scipy.signal.lfilter's
    # bits, on records as long as the default reference shock (5,001 samples
    # at 100 kHz), 1-D and 2-D
    fs = 100_000.0
    rng = np.random.default_rng(6)
    impulse = np.zeros(5001)
    impulse[0] = 1.0
    inputs = [impulse, rng.normal(size=5001), rng.normal(size=(5001, 41))]
    for b, a in _sdof_bank(fs):
        for x in inputs:
            got, _ = _run(b, a, x)
            assert got.shape == x.shape
            np.testing.assert_array_equal(_bits(got), _bits(sci_signal.lfilter(b, a, x, axis=0)))


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="needs an extended long double"
)
def test_iir2_at_least_as_accurate_as_lfilter():
    # Over longer records at the lowest, most resonant frequencies, against a
    # long-double recursion with the same coefficients, the kernel stays
    # within 1e-12 of the peak: the SRS oscillators at 100 and 300 Hz and each
    # section of the default NZDF at 100 Hz.  The kernel is lfilter's, so the
    # two errors are one.
    fs = 100_000.0
    x = np.random.default_rng(9).normal(size=20_001)
    sections = [_sdof_coeffs(fn, 10.0, 1.0 / fs) for fn in (100.0, 300.0)]
    sections += [(s[:3], s[3:]) for s in discretize(NzdfParams(100.0), fs).sos]
    for b, a in sections:
        bl, al, xl = b.astype(np.longdouble), a.astype(np.longdouble), x.astype(np.longdouble)
        exact = np.zeros(x.size, dtype=np.longdouble)
        for i in range(x.size):
            acc = bl[0] * xl[i]
            for k in (1, 2):
                if i >= k:
                    acc += bl[k] * xl[i - k] - al[k] * exact[i - k]
            exact[i] = acc
        peak = float(np.max(np.abs(exact)))
        ours = float(np.max(np.abs(_run(b, a, x)[0] - exact))) / peak
        theirs = float(np.max(np.abs(sci_signal.lfilter(b, a, x) - exact))) / peak
        assert ours == theirs and ours <= 1e-12, (b, a, ours, theirs)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 2000),
    fn=st.floats(100.0, 45_000.0),
    scale_x=st.floats(-3.0, 3.0),
    scale_y=st.floats(-3.0, 3.0),
    spike=st.booleans(),
)
def test_iir2_superposition(seed, n, fn, scale_x, scale_y, spike):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n) * 10.0**scale_x
    y = rng.normal(size=n) * 10.0**scale_y
    if spike:
        y[rng.integers(n)] += 1e3
    b, a = _sdof_coeffs(fn, 10.0, 1e-5)
    (fx, _), (fy, _) = _run(b, a, x), _run(b, a, y)
    err = np.max(np.abs(_run(b, a, x + y)[0] - (fx + fy)))
    assert err <= 1e-12 * (np.max(np.abs(fx)) + np.max(np.abs(fy)))


def _bits(values):
    return np.ascontiguousarray(values).view(np.int64)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    radius=st.floats(0.0, 0.9999),
    angle=st.floats(0.0, np.pi),
    b=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3).map(np.array),
    m=st.integers(0, 6),
    k=st.integers(16, 600),
    step=st.sampled_from([1, 2, 7]),
    zeros=st.sampled_from([0.0, 0.3, 0.9]),
    data=st.data(),
)
def test_run_state_carry_property(seed, radius, angle, b, m, k, step, zeros, data):
    # a stable pole pair r exp(+-j angle), over k rows of m columns (m = 0:
    # 1-D); some inputs are exact signed zeros
    a = np.array([1.0, -2.0 * radius * np.cos(angle), radius * radius])
    shape = (k,) if m == 0 else (k, m)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape)
    x[rng.random(shape) < zeros] = 0.0
    x *= np.where(rng.random(shape) < 0.5, -1.0, 1.0)
    whole, zf = _run(b, a, x)
    assert zf.shape == (2,) + shape[1:]
    # split at any row, the second piece run from the state the first left:
    # the whole run's rows and final state, signed zeros too
    cut = data.draw(st.integers(1, k - 1), label="split row")
    head, z = _run(b, a, x[:cut])
    tail, z_end = _run(b, a, x[cut:], z)
    np.testing.assert_array_equal(_bits(np.concatenate([head, tail])), _bits(whole))
    np.testing.assert_array_equal(_bits(z_end), _bits(zf))
    # split at kept row r, as the response cache's chunks are: each piece's
    # every step-th row are the whole run's
    r = data.draw(st.integers(1, (k - 1) // step), label="split kept row")
    head, z = _run(b, a, x[: r * step])
    tail, _ = _run(b, a, x[r * step :], z)
    np.testing.assert_array_equal(_bits(np.concatenate([head[::step], tail[::step]])), _bits(whole[::step]))


def _whole_run(sos, x, rows):
    """The oracle of ``_segments``: one ``_run`` from rest section by section over the zero-padded record."""
    y = np.zeros(rows)
    y[: len(x)] = x
    for section in sos:
        y, _ = _run(section[:3], section[3:], y)
    return y


_S = _SEGMENT_ROWS
# a stable section: a pole pair r exp(+-j angle), or two real poles, under random taps
_poles = st.one_of(
    st.tuples(st.floats(0.0, 0.9999), st.floats(0.0, np.pi)).map(lambda p: (-2.0 * p[0] * np.cos(p[1]), p[0] ** 2)),
    st.tuples(st.floats(-0.9999, 0.9999), st.floats(-0.9999, 0.9999)).map(lambda p: (-(p[0] + p[1]), p[0] * p[1])),
)
_section = st.tuples(st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3), _poles).map(
    lambda s: [*s[0], 1.0, *s[1]]
)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    sos=st.lists(_section, min_size=1, max_size=3).map(np.array),
    rows=st.sampled_from([1, 2, 700, _S - 1, _S, _S + 1, 2 * _S + 1]),
    zeros=st.sampled_from([0.0, 0.3, 1.0]),
    lead=st.sampled_from([0.0, 0.5, 1.0]),
    sign=st.sampled_from([None, 1.0, -1.0]),
    negative_zero_first=st.booleans(),
    data=st.data(),
)
def test_segments_are_the_whole_run_bit_for_bit(seed, sos, rows, zeros, lead, sign, negative_zero_first, data):
    # inputs hold exact zeros of one sign or of random signs, a leading run of
    # them (lead=1.0 covers the whole record) and, maybe, a -0.0 first sample
    n = data.draw(st.sampled_from([k for k in (1, 2, 700, _S - 1, _S, _S + 1, 2 * _S + 1) if k <= rows]))
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    x[rng.random(n) < zeros] = 0.0
    x[: int(lead * n)] = 0.0
    x *= np.where(rng.random(n) < 0.5, -1.0, 1.0) if sign is None else sign
    if negative_zero_first:
        x[0] = -0.0
    pieces = list(_segments(sos, x, rows))
    assert [len(p) for p in pieces] == [min(_S, rows - r0) for r0 in range(0, rows, _S)]
    np.testing.assert_array_equal(_bits(np.concatenate(pieces)), _bits(_whole_run(sos, x, rows)))


def test_segments_keep_signed_zeros_across_segment_edges():
    # a first sample -0.0 comes out as one run of scipy's lfilter gives it
    section = np.concatenate(_sdof_coeffs(100.0, 10.0, 1e-5))
    [y] = _segments(section, np.array([-0.0, 1.0]), 3)
    np.testing.assert_array_equal(_bits(y), _bits(sci_signal.lfilter(section[:3], section[3:], [-0.0, 1.0, 0.0])))
    # a record of -0.0 over two segment edges, each segment run from the
    # state the last one left: the whole run's bits, signed zeros too
    for a in ([1.0, -1.98, 0.99], [1.0, -0.5, -0.2]):
        sos = np.array([[1.0, 0.0, 0.0, *a]])
        x = np.full(2 * _S + 5, -0.0)
        got = np.concatenate(list(_segments(sos, x, 2 * _S + 9)))
        np.testing.assert_array_equal(_bits(got), _bits(_whole_run(sos, x, 2 * _S + 9)))


def test_loaded_linear_filter_matches_scipy_signal_lfilter():
    rng = np.random.default_rng(11)
    b, a = np.array([0.3, -0.2, 0.1]), np.array([1.0, -1.99, 0.995])
    for shape in [(5001,), (5001, 41)]:
        x = rng.normal(size=shape)
        zi = rng.normal(size=(2,) + shape[1:])
        ours, zf = _linear_filter(b, a, x, 0, zi)
        ref, ref_zf = sci_signal.lfilter(b, a, x, axis=0, zi=zi)
        assert ours.tobytes() == ref.tobytes() and zf.tobytes() == ref_zf.tobytes()
        assert _linear_filter(b, a, x, 0).tobytes() == sci_signal.lfilter(b, a, x, axis=0).tobytes()


_FILTER_BITS = """
import hashlib, sys
import numpy as np
{before}
from shocksynth.signal_core import _run
from shocksynth.srs import _sdof_coeffs
{after}
x = np.random.default_rng(12).normal(size=(5001, 41))
b, a = _sdof_coeffs(100.0, 10.0, 1e-5)
y = np.concatenate([_run(b, a, x)[0].ravel(), _run(b, a, x[:, 7])[0]])
print(hashlib.sha256(y.tobytes()).hexdigest())
"""


def test_filter_bits_do_not_depend_on_import_order(cli_env):
    # loading _sigtools before scipy.signal, or after it, gives the same
    # kernel, and scipy.signal imported after it still filters
    digests = []
    later = "import scipy.signal; scipy.signal.lfilter([1.0], [1.0, 0.5], [1.0, 2.0])"
    for before, after in [("import scipy.signal", ""), ("", later)]:
        code = _FILTER_BITS.format(before=before, after=after)
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=cli_env)
        assert r.returncode == 0, r.stderr
        digests.append(r.stdout.strip())
    x = np.random.default_rng(12).normal(size=(5001, 41))
    b, a = _sdof_coeffs(100.0, 10.0, 1e-5)
    here = np.concatenate([_run(b, a, x)[0].ravel(), _run(b, a, x[:, 7])[0]])
    assert digests == [hashlib.sha256(here.tobytes()).hexdigest()] * 2


def test_load_linear_filter_names_the_directory_without_sigtools(tmp_path):
    with pytest.raises(ImportError, match=re.escape(str(tmp_path))):
        _load_linear_filter(str(tmp_path))
