"""Uniformly sampled acceleration histories and their integrated motion.

Everything downstream works on the :class:`Signal` container defined here:
a read-only acceleration array tagged with its sample rate and start time.
The module provides cumulative trapezoidal integration to velocity and
displacement, net-zero residual checks on the terminal motion, CSV
import/export, and a deterministic synthetic reference generator used when
no measured shock is available.

It also holds the one recursive kernel, ``_run``: one second-order section
through scipy's compiled lfilter, from a given state, returning the state it
leaves.  ``_segments`` runs a cascade of sections over a record a segment at
a time; every SRS oscillator, every NZDF cascade and the reference's drift
high-pass run through it, the response cache runs ``_run`` a chunk at a
time.
"""

from __future__ import annotations

import dataclasses
import importlib.machinery
import importlib.util
import math
import sys
import warnings
from pathlib import Path

import numpy as np

__all__ = [
    "Signal",
    "MotionTriple",
    "ResidualReport",
    "SignalFormatError",
    "integrate",
    "motion_of",
    "residual_motion",
    "read_signal",
    "write_signal",
    "synth_reference",
]

TWO_PI = 2.0 * np.pi

# Relative tolerance on time-step jitter when importing CSV data.
_DT_REL_TOL = 1e-6

# Rows of one filter segment: its input and each section's output stay in
# cache, where a whole padded record's would not.  A block of CSV text is two segments' cells.
_SEGMENT_ROWS = 16_384

# The longest line of a CSV file the parse accepts, in characters; its lines
# are counted before the parse a sixteenth of that at a time.
_TEXT_BLOCK = 1 << 20

# What one call may ask for, checked by ``_budget`` before any work: rows
# filtered, which bound its time (1e9 take about 16 s on one core of a 2-core
# x86-64 VM), and bytes of arrays held at once, which bound its memory.
_MAX_ROWS = 1_000_000_000
_MAX_BYTES = 1 << 30


class SignalFormatError(ValueError):
    """Raised when a signal CSV file cannot be parsed."""


def _frozen(values) -> np.ndarray:
    """A read-only float64 array of ``values``: the arrays of every value type.

    A read-only float64 ndarray that owns its data is frozen already, and is
    returned as it is; anything else is copied.
    """
    if type(values) is np.ndarray and values.dtype == np.float64 and values.flags.owndata and not values.flags.writeable:
        return values
    out = np.array(values, dtype=float)
    out.setflags(write=False)
    return out


# The physical range of each kind of quantity, checked by the four rules below where a value enters (a parameter
# or a CSV cell) so that no arithmetic downstream leaves float range.  Frequencies (rates, centers, evaluation
# frequencies, decay constants): the bilinear warp constant, about 2 fs, squares to under 5e18, and the reference's
# drift high-pass passes Jury's test up to 1.6e10 Hz.  Q: underdamped, up to beta_to_q's ceiling.  Durations: at
# most 1e15 samples at any rate, which the budget refuses.  Times: epoch stamps fit.  Amplitudes (every other number):
# two running sums of 1e9 of them over 1e6 s steps stay finite; subnormals are data.  _MAX_ORDER is the largest N
# for which K = w^(2N - M) / q^N and (s^2 + (w/q) s + w^2)^N stay finite for w, |s| <= 2 pi 1e9 and q > 0.5.
_RANGES = {"frequency": (1e-6, 1e9, " Hz"), "q": (0.5, 1e4, ""), "duration": (1e-9, 1e6, " s"),
           "time": (-1e12, 1e12, " s"), "amplitude": (-1e100, 1e100, "")}
_MAX_ORDER = 15


def _scalar(name: str, value, above: float = -math.inf, at_least: float = -math.inf, kind: str = "amplitude") -> float:
    """``value`` as a float, checked by the package's one rule for scalar parameters.

    Raises ``ValueError`` naming ``name`` and the value unless it is finite,
    greater than ``above`` and at least ``at_least``: :func:`_values`' rule, at shape ().
    """
    try:
        value = float(value)
    except (TypeError, ValueError, OverflowError):  # a string, an object that is no number, an int past float range
        raise ValueError(f"{name} must be a finite real number, got {value!r}") from None
    return float(_values(name, value, (), above, at_least, kind))


def _values(name: str, values, shape=(None,), above: float = -math.inf, at_least: float = -math.inf,
            kind: str = "amplitude") -> np.ndarray:
    """``values`` as a float array of ``shape``, checked by the package's one rule for array parameters.

    A ``None`` in ``shape`` is any length of at least 1.  Raises ``ValueError`` naming ``name`` unless
    ``values`` is an array of numbers of that shape whose values are greater than ``above``, at least
    ``at_least`` and in ``kind``'s range; the message names the first value that is not, and where, at
    ``.6g`` or, where that text would pass, by its ``repr``.
    Its min and max, in which a NaN propagates, check them: nothing the size of the array is held.
    """
    want = str(tuple("n" if s is None else s for s in shape)).replace("'", "")
    try:
        x = np.asarray(values)
    except ValueError:  # a ragged list
        x = None
    if x is None or x.dtype.kind not in "biuf":
        raise ValueError(f"{name} must be an array of numbers of shape {want}")
    x = x.astype(float, copy=False)
    if x.ndim != len(shape) or any(n < 1 if s is None else n != s for n, s in zip(x.shape, shape)):
        raise ValueError(f"{name} must have shape {want}, got {x.shape}")
    lo, hi = x.min(), x.max()
    floor, ceiling, unit = _RANGES[kind]
    if floor <= lo and hi <= ceiling and lo > above and lo >= at_least:  # False for a NaN or an inf
        return x
    ok = lambda v: np.isfinite(v) & (v > above) & (v >= at_least)
    bound = f" and > {above:.6g}" if above > -math.inf else ""
    bound += f" and >= {at_least:.6g}" if at_least > -math.inf else ""
    if ok(x).all():  # finite and bounded, but out of kind's range
        ok, bound = lambda v: (v >= floor) & (v <= ceiling), f" and between {floor:.6g} and {ceiling:.6g}{unit}"
    at = [int(i) for i in np.argwhere(~ok(x))[0]]
    value = float(x[tuple(at)])
    shown = repr(value) if ok(float(text := f"{value:.6g}")) else text
    raise ValueError(f"{name} must be finite{bound}, got {shown}" + (f" at {at}" if at else ""))


def _whole(name: str, value, at_least: float = -math.inf, at_most: float = math.inf) -> int:
    """``value`` as an int, checked by the package's one rule for whole-number parameters.

    Raises ``ValueError`` naming ``name`` and the value unless ``int(value)``
    equals it (an int, a numpy int or a float with no fraction) and is at
    least ``at_least`` and at most ``at_most``.
    """
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):  # NaN, +-inf, a string that is no int
        n = None
    if n is None or n != value:
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    if not at_least <= n <= at_most:
        raise ValueError(f"{name} must be " + (f">= {at_least}" if n < at_least else f"<= {at_most}") + f", got {n}")
    return n


def _grid(name: str, values) -> np.ndarray:
    """``values`` as a 1-D float array, checked by the package's one rule for a frequency list.

    Raises ``ValueError`` naming ``name`` unless it holds at least one value and its
    values are strictly increasing frequencies in range; a scalar is a list of one.
    """
    x = np.atleast_1d(np.asarray(values, dtype=float))
    if x.ndim == 1 and x.size and np.isfinite(x).all() and x[0] > 0.0 and (x[1:] > x[:-1]).all():
        return _values(name, x, kind="frequency")
    raise ValueError(f"{name} must be finite, positive and strictly increasing, in a non-empty 1-D list")


def _budget(what: str, rows=0, nbytes=0, advice: str = "") -> None:
    """The package's one rule for the work a call may ask for: ``ValueError`` before any of it, unless
    ``rows`` to filter are at most ``_MAX_ROWS`` and ``nbytes`` held at once at most ``_MAX_BYTES``.

    The message names what would take how much, the limit, and ``advice``: the parameters that shrink it.
    """
    for amount, limit, verb, unit in ((rows, _MAX_ROWS, "filter", "row"), (nbytes, _MAX_BYTES, "hold", "byte")):
        if not amount <= limit:
            raise ValueError(f"{what} would {verb} {amount:.3g} {unit}s, over the {limit:,}-{unit} limit; {advice}")


def _ring_down_factor(order: int) -> float:
    """The package's one ring-down rule, in time constants tau = 2 Q / w.

    N pole pairs at w with quality factor Q ring down under the envelope
    t^(N-1) exp(-t / tau).  The factor is the time at which that envelope
    has fallen 60 dB below its peak, rounded up to half a time constant: 7
    for one pair (the SRS oscillator), 10.5 for two (the default NZDF).
    """
    # Past the envelope's peak at k = N - 1, t / tau = k (1 + x) where
    # h(x) = x - ln(1 + x) - ln(1000) / k = 0.  h is convex and rises for x > 0,
    # so Newton's steps fall monotonically onto the root from any start right
    # of it, and this start is one: x - ln(1 + x) >= x^2 / (2 (1 + x)).
    k = order - 1
    if not k:
        return math.ceil(2.0 * math.log(1000.0)) / 2.0
    a = math.log(1000.0) / k
    x = a + math.sqrt(a * (a + 2.0))
    while 0.0 < (nxt := x - (x - math.log1p(x) - a) * (1.0 + x) / x) < x:
        x = nxt
    return math.ceil(2.0 * k * (1.0 + x)) / 2.0


@dataclasses.dataclass(frozen=True)
class Signal:
    """A uniformly sampled time history.

    Parameters
    ----------
    sample_rate : float
        Sampling rate in Hz, in the frequency range.
    samples : ndarray
        1-D array of sample values (acceleration in m/s^2 unless noted).
        Stored as a read-only float64 copy; each in the amplitude range.
    t0 : float, optional
        Time of the first sample in seconds, in the time range.
    """

    sample_rate: float
    samples: np.ndarray
    t0: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "sample_rate", _scalar("sample_rate", self.sample_rate, above=0.0, kind="frequency"))
        object.__setattr__(self, "samples", _frozen(_values("samples", self.samples)))
        object.__setattr__(self, "t0", _scalar("t0", self.t0, kind="time"))

    def __len__(self) -> int:
        return self.samples.size

    @property
    def dt(self) -> float:
        """Time step in seconds."""
        return 1.0 / self.sample_rate

    @property
    def duration(self) -> float:
        """Time spanned from the first to the last sample, in seconds."""
        return (self.samples.size - 1) / self.sample_rate

    def times(self) -> np.ndarray:
        """Sample times in seconds."""
        return self.t0 + np.arange(self.samples.size) / self.sample_rate

    def with_samples(self, samples: np.ndarray) -> "Signal":
        """A copy of this signal with new sample values on the same clock."""
        return Signal(self.sample_rate, samples, self.t0)


@dataclasses.dataclass(frozen=True)
class MotionTriple:
    """Acceleration plus its integrated velocity and displacement.

    All three signals share the same sample rate, length, and start time.
    """

    acceleration: Signal
    velocity: Signal
    displacement: Signal

    def __post_init__(self):
        a, v, d = self.acceleration, self.velocity, self.displacement
        for other in (v, d):
            if other.sample_rate != a.sample_rate or len(other) != len(a):
                raise ValueError("motion components must share rate and length")


@dataclasses.dataclass(frozen=True)
class ResidualReport:
    """Terminal motion residuals relative to the motion peaks.

    ``residual_velocity_ratio`` is ``|v[-1]| / max|v|`` and likewise for
    displacement.  ``passed`` is true when both ratios are at or below
    ``tolerance``.  A ratio is defined as 0 when the corresponding motion
    is identically zero.
    """

    residual_velocity_ratio: float
    residual_displacement_ratio: float
    tolerance: float
    passed: bool


def integrate(sig: Signal, initial_value: float = 0.0) -> Signal:
    """Cumulative trapezoidal integral of a signal.

    The result has the same rate and length; its first sample equals
    ``initial_value``.
    """
    return sig.with_samples(_cumulative_trapezoid(sig.samples, sig.dt) + _scalar("initial_value", initial_value))


def _cumulative_trapezoid(y: np.ndarray, dx: float) -> np.ndarray:
    """Running trapezoid-rule integral of ``y`` from 0, same length as ``y``.

    The same operations in the same order as scipy's
    ``cumulative_trapezoid(y, dx=dx, initial=0)``, so the same bits.
    """
    return np.concatenate([[0.0], np.cumsum(dx * (y[1:] + y[:-1]) / 2.0)])


def motion_of(accel: Signal) -> MotionTriple:
    """Integrate acceleration to velocity and displacement (both start at 0)."""
    vel = integrate(accel)
    disp = integrate(vel)
    return MotionTriple(accel, vel, disp)


def _terminal_ratio(sig: Signal) -> float:
    peak = float(np.max(np.abs(sig.samples)))
    if peak == 0.0:
        return 0.0
    return abs(float(sig.samples[-1])) / peak


def residual_motion(accel: Signal, tolerance: float = 1e-3) -> ResidualReport:
    """Check how close the terminal velocity and displacement are to zero.

    A shock that imparts no net motion should integrate to velocity and
    displacement histories that return to zero once the transient has rung
    down.  The ratios compare the final sample of each motion against its
    own peak magnitude, so the check is amplitude invariant.
    """
    tolerance = _scalar("tolerance", tolerance, above=0.0)
    motion = motion_of(accel)
    rv = _terminal_ratio(motion.velocity)
    rd = _terminal_ratio(motion.displacement)
    return ResidualReport(rv, rd, tolerance, rv <= tolerance and rd <= tolerance)


def _read_pairs(path: Path, header: str, advice: str, kinds=("time", "amplitude")) -> np.ndarray:
    """Parse a two-column numeric CSV file into an (n, 2) float array, charged to ``_budget`` first.

    The parse holds about 40 bytes a line at once (numpy's reader and the
    checks after it), and about 6 bytes a byte of one long line.  The file's
    size is charged first, at 2 bytes a byte; then one pass over its text,
    64 Ki characters at a time, counts the lines, and the larger of the two
    charges is checked, naming ``advice``.  :class:`SignalFormatError` names
    the first line longer than ``_TEXT_BLOCK`` characters.

    Blank lines are skipped, and line 1 may be ``header`` (compared without
    case or spaces).  Every other line must hold exactly two numbers, each in its
    column's range of ``kinds``; :class:`SignalFormatError` names the first line that does not.

    numpy's compiled text reader parses every file it accepts whole: two
    columns, at least one row, every value in its column's range.  Anything
    else, whitespace-only lines and numbers only ``float`` reads (``1_000``)
    among them, goes to the per-line pass :func:`_parse_lines`, which finds the first fault.
    """
    what, size = f"reading {path.name}", path.stat().st_size
    _budget(what, nbytes=2 * size, advice=advice)
    # utf-8-sig drops the byte-order mark that Excel's "CSV UTF-8" writes;
    # universal newlines make every line break, LF, CR or CRLF, one \n for
    # the count, numpy and the per-line pass.  numpy reads the open handle:
    # given the path, it would open the file again through its DataSource,
    # which imports gzip.
    with path.open(encoding="utf-8-sig") as fh:
        breaks, run = 0, 0  # line breaks so far, characters since the last
        while piece := fh.read(_TEXT_BLOCK >> 4):
            first, last = piece.find("\n"), piece.rfind("\n")
            if run + (len(piece) if first < 0 else first) > _TEXT_BLOCK:
                raise SignalFormatError(f"{path.name}: line {breaks + 1} is longer than {_TEXT_BLOCK:,} characters")
            breaks += piece.count("\n")
            run = run + len(piece) if last < 0 else len(piece) - 1 - last
        _budget(what, nbytes=max(2 * size, 40 * (breaks + 1)), advice=advice)
        fh.seek(0)
        skip = fh.readline().strip().lower().replace(" ", "") == header
        fh.seek(0)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # an empty file only warns
                pairs = np.loadtxt(fh, delimiter=",", comments=None, skiprows=int(skip), ndmin=2)
            low, high = np.array([_RANGES[kind][:2] for kind in kinds]).T
            if pairs.shape[1] == 2 and ((low <= pairs) & (pairs <= high)).all():  # False for a NaN
                return pairs
        except (ValueError, Warning):
            pass
        fh.seek(0)
        return _parse_lines(fh, skip, path.name, kinds)


def _parse_lines(lines, skip_header: bool, name: str, kinds=("time", "amplitude")) -> np.ndarray:
    """The line-by-line reading of :func:`_read_pairs` into one flat buffer, 16 bytes a row; raises on the first fault."""
    import array  # an extension module: loaded only for the files numpy's reader refuses

    values = array.array("d")
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or (lineno == 1 and skip_header):
            continue
        fields = line.split(",")
        if len(fields) != 2:
            raise SignalFormatError(
                f"{name}: expected 2 comma-separated fields on line {lineno}, got {len(fields)}"
            )
        try:
            pair = (float(fields[0]), float(fields[1]))
        except ValueError:
            raise SignalFormatError(f"{name}: non-numeric value on line {lineno}: {line!r}") from None
        for value, (low, high, unit) in zip(pair, map(_RANGES.get, kinds)):
            if not low <= value <= high:  # a NaN or an inf too
                raise SignalFormatError(f"{name}: {value!r} on line {lineno} is outside {low:.6g} to {high:.6g}{unit}")
        values.extend(pair)
    return np.frombuffer(values, dtype=float).reshape(-1, 2)


def _write_table(path, header: str, columns) -> None:
    """Write columns as CSV under a header line: ``%.12g``, LF, UTF-8, about ``2 * _SEGMENT_ROWS`` cells at a time.

    Columns are 1-D arrays or functions (r0, r1) of rows r0 up to r1, never held whole, or rows of one 2-D array.
    """
    n = min(len(c) for c in columns if not callable(c))
    step = max(2 * _SEGMENT_ROWS // len(columns), 1)
    row = ",".join(["%.12g"] * len(columns)) + "\n"
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for r0 in range(0, n, step):
            r1 = min(r0 + step, n)
            block = columns[:, r0:r1] if isinstance(columns, np.ndarray) else np.array(
                [c(r0, r1) if callable(c) else c[r0:r1] for c in columns], dtype=float)
            fh.write((row * (r1 - r0)) % tuple(block.T.ravel().tolist()))


def read_signal(path) -> Signal:
    """Read a signal from a two-column CSV file (``time_s,accel_m_s2``).

    The time column must be uniformly spaced to within a relative jitter of
    1e-6 of the median step.  Raises :class:`SignalFormatError` on malformed
    rows, values out of range, empty files, or non-uniform time steps; the
    message names the file and the offending line.  Raises ``ValueError`` for
    a sample rate out of range, before parsing when the file is over ``_budget``,
    and with :class:`SignalFormatError` on a line longer than ``_TEXT_BLOCK`` characters.
    """
    path = Path(path)
    pairs = _read_pairs(path, "time_s,accel_m_s2", advice="shorten or decimate the record")
    if not len(pairs):
        raise SignalFormatError(f"{path.name}: no samples found")
    if len(pairs) == 1:
        raise SignalFormatError(f"{path.name}: need at least 2 samples to fix a rate")
    t_arr = pairs[:, 0]
    steps = np.diff(t_arr)
    dt = float(_median(steps))
    if dt <= 0.0:
        raise SignalFormatError(f"{path.name}: time column must be increasing")
    np.abs(np.subtract(steps, dt, out=steps), out=steps)  # each step's jitter, in place
    bad = np.nonzero(steps > _DT_REL_TOL * dt)[0]
    del steps  # before Signal copies the samples: the parse peaks at the median, 32 bytes a sample
    if bad.size:
        # +2: diff index -> second row of the offending pair, 1-based with header.
        i = int(bad[0])
        raise SignalFormatError(
            f"{path.name}: non-uniform time step near line {i + 3} "
            f"(step {t_arr[i + 1] - t_arr[i]:.6g} s vs median {dt:.6g} s)"
        )
    return Signal(1.0 / dt, pairs[:, 1], t0=float(t_arr[0]))


def _median(values: np.ndarray) -> np.float64:
    """``np.median`` of a 1-D array without NaNs, bit for bit.

    The same partition and the same mean of the middle one or two values;
    ``np.median`` itself imports ``numpy.ma`` for its NaN check.
    """
    lo, hi = (values.size - 1) // 2, values.size // 2
    return np.partition(values, [lo, hi])[lo : hi + 1].mean()


def write_signal(sig: Signal, path) -> None:
    """Write a signal as a two-column CSV file (``time_s,accel_m_s2``).

    Values are formatted with ``%.12g``, LF line endings, UTF-8.
    """
    # the times a block at a time, each block sig.times()[r0:r1] bit for bit
    _write_table(path, "time_s,accel_m_s2", [lambda r0, r1: sig.t0 + np.arange(r0, r1) / sig.sample_rate, sig.samples])


def _load_linear_filter(directory: str):
    """scipy's compiled lfilter kernel, ``_linear_filter``, from the ``_sigtools`` extension in ``directory``.

    ``scipy.signal.lfilter`` runs this same function, but importing it runs
    ``scipy/signal/__init__.py``: about a second of start-up for one
    function.  The extension is loaded straight from its file instead and
    left out of ``sys.modules``, so a later ``import scipy.signal`` runs
    unchanged.  It links only libc, libm and libgcc, so no BLAS or Fortran
    runtime of scipy's is mapped with it.
    """
    name = "scipy.signal._sigtools"
    loaders = (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES)
    spec = importlib.machinery.FileFinder(directory, loaders).find_spec(name)
    if spec is None:
        raise ImportError(f"no filter extension {name} in {directory}")
    imported = name in sys.modules
    sigtools = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sigtools)
    if not imported:
        # CPython files a single-phase extension in sys.modules as it loads
        # it; without this, a later ``import scipy.signal`` would find it
        # there and never bind it as the package's ``_sigtools`` attribute.
        sys.modules.pop(name, None)
    return sigtools._linear_filter


# A top-level find_spec runs no package code; ``scipy/__init__.py`` does
# (subprocess, scipy._lib._testutils and more) before it finds a submodule.
_linear_filter = _load_linear_filter(
    str(Path(importlib.util.find_spec("scipy").submodule_search_locations[0], "signal"))
)


def _run(b, a, x, zi=None):
    """One second-order section along axis 0 of an (n,) or (n, m) ``x``: its output and final state.

    y[n] = b0 x[n] + b1 x[n-1] + b2 x[n-2] - a1 y[n-1] - a2 y[n-2], with
    a0 = ``a[0]`` = 1, in scipy's direct form II transposed from the state
    ``zi`` (from rest when None).  Returns ``(y, zf)``: the pieces of a split
    ``x``, each run from the state the one before left, are one run over the
    whole, bit for bit.  n must be at least 1: scipy returns an unset ``zf``
    for an empty ``x``.
    """
    x = np.asarray(x, dtype=float)
    return _linear_filter(b, a, x, 0, np.zeros((2,) + x.shape[1:]) if zi is None else zi)


def _segments(sos, x: np.ndarray, rows: int):
    """Second-order sections over ``x`` and then zeros, ``rows`` rows in all, ``_SEGMENT_ROWS`` at a time.

    ``sos`` rows are (b0, b1, b2, 1, a1, a2).  Each section runs a segment
    from the state it left at the end of the last one, so the pieces, joined,
    are one :func:`_run` from rest section by section over the zero-padded record, bit for bit.
    """
    sos = np.atleast_2d(sos)
    states = [None] * len(sos)
    for r0 in range(0, rows, _SEGMENT_ROWS):
        r1 = min(r0 + _SEGMENT_ROWS, rows)
        y = x[r0:r1]
        if len(y) < r1 - r0:  # zeros past the record
            y = np.concatenate([y, np.zeros(r1 - r0 - len(y))])
        for i, s in enumerate(sos):
            y, states[i] = _run(s[:3], s[3:], y, states[i])
        yield y


# The bilinear image of s^m, over (1 + 1/z)^2 and c^m: (1 + 1/z)^(2 - m) (1 - 1/z)^m, for m = 0, 1, 2.
_BILINEAR_TAPS = np.array([[1.0, 2.0, 1.0], [1.0, 0.0, -1.0], [1.0, -2.0, 1.0]])


def _bilinear_biquad(w: float, q: float, fs: float, zeros: int, gain: float) -> np.ndarray:
    """One second-order section (b0, b1, b2, 1, a1, a2): gain s^zeros / (s^2 + (w/q) s + w^2) at rate ``fs``.

    The bilinear transform s = c (1 - 1/z) / (1 + 1/z), pre-warped by c = w / tan(w / (2 fs)), maps j*w exactly
    onto exp(j w / fs); ``zeros`` is 0, 1 or 2.  The poles are not tested here: far below fs, they round onto z = 1.
    """
    c = w / np.tan(w / fs / 2.0)
    den = np.array([c * c + (w / q) * c + w * w, 2.0 * (w * w - c * c), c * c - (w / q) * c + w * w])
    for _ in range(zeros):  # ((gain c) c) taps: the products in one order for every caller
        gain *= c
    return np.hstack([gain * _BILINEAR_TAPS[zeros] / den[0], den / den[0]])


def synth_reference(
    fs: float = 100_000.0,
    duration: float = 0.05,
    fmax: float = 10_000.0,
    seed: int = 0,
) -> Signal:
    """Deterministic broadband surrogate for a measured pyroshock record.

    The record is a single oscillatory burst whose instantaneous frequency
    sweeps exponentially from 45 Hz to just past ``fmax`` while its envelope
    grows, then rings out fast once the sweep completes.  A narrowband slice
    anywhere in [50 Hz, fmax] therefore sees one short, clean wave packet:
    energy is spread over the whole band (the SRS is nonzero across it)
    without the beating and mutual cancellation that a sum of fixed carriers
    produces.  Random phase and a gentle random coloring of the envelope,
    drawn from ``numpy.random.default_rng(seed)``, vary the record from seed
    to seed.

    A second order 45 Hz high-pass removes drift, then two compact interior
    pulses are fitted so the terminal velocity and displacement vanish to
    machine precision.  The result is peak-normalized to 1000 m/s^2.

    Raises ``ValueError`` when ``seed`` is not a whole number >= 0, when ``fs``, ``fmax`` or ``duration``
    is out of range, when ``fs < 10 * fmax`` (the sweep needs headroom below Nyquist), when ``fmax < 200``
    Hz (the sweep starts at 45 Hz and must cover at least a couple of octaves), when fewer than two samples
    fall inside the correction pulses' window, 0.28 to 0.60 of ``duration``, or, before any work, when the
    record is over ``_budget``.
    """
    seed = _whole("seed", seed, at_least=0)
    fs = _scalar("fs", fs, kind="frequency")
    fmax = _scalar("fmax", fmax, at_least=200.0, kind="frequency")
    duration = _scalar("duration", duration, above=0.0, kind="duration")
    if fs < 10.0 * fmax:
        raise ValueError(f"fs must be at least 10*fmax ({10.0 * fmax:.6g} Hz), got {fs:.6g}")
    n = round(duration * fs) + 1
    # tracemalloc reads 57 to 64 bytes a sample held at once (6.4 MB for
    # 100,001 samples): seven or eight float64 arrays of the record and temporaries.
    _budget("demo-ref", rows=n, nbytes=96 * n, advice="lower fs or duration")
    t = np.arange(n) / fs
    t1, t2 = 0.28 * duration, 0.60 * duration
    window = (t > t1) & (t < t2)
    if np.count_nonzero(window) < 2:
        raise ValueError(
            f"duration {duration:.6g} s at fs {fs:.6g} Hz leaves fewer than 2 samples "
            f"between {t1:.6g} and {t2:.6g} s for the net-zero correction pulses"
        )
    rng = np.random.default_rng(seed)

    f_lo = 45.0
    sweep_end = 0.88 * duration
    # Overshoot fmax by one sixth octave so the top of the range is crossed
    # well inside the sweep rather than at its very edge.
    f_hi = fmax * 2.0 ** (1.0 / 6.0)
    rate = np.log(f_hi / f_lo) / sweep_end
    t_sweep = np.minimum(t, sweep_end)
    theta = TWO_PI * f_lo * np.expm1(rate * t_sweep) / rate
    theta += TWO_PI * f_hi * np.maximum(t - sweep_end, 0.0)
    theta += rng.uniform(0.0, TWO_PI)

    # The envelope rises with the sweep (amplitude ~ f^0.6) so that the
    # early low-frequency content stays weak; what little drift it causes
    # is cheap to correct.  Past the sweep it decays in a few percent of
    # the record, leaving the tail quiet: one exp of a piecewise exponent.
    growth = 0.6 * rate
    ring_out = 75.0 / duration
    env = t - sweep_end
    env *= np.where(env <= 0.0, growth, -ring_out)
    np.exp(env, out=env)
    env *= -np.expm1(-((t / (0.04 * duration)) ** 2))  # smooth turn-on

    # Gentle random coloring: a few slow cosines on the log envelope.
    n_modes = 6
    c = rng.normal(0.0, 0.10 / np.sqrt(n_modes), n_modes)
    ph = rng.uniform(0.0, TWO_PI, n_modes)
    color = np.zeros(n)
    for m in range(n_modes):
        color += c[m] * np.cos(TWO_PI * (m + 1) * t_sweep / sweep_end + ph[m])
    env *= np.exp(color, out=color)
    env *= np.cos(theta, out=theta)
    del t_sweep, theta, color  # only the burst goes through the high-pass

    # The drift high-pass s^2 / (s^2 + (w/q) s + w^2), q = 1/sqrt(2): its double zero at z = 1 makes the
    # output's zeroth and first moments vanish, so the reference integrates back to no net velocity or displacement.
    x = np.concatenate(list(_segments(_bilinear_biquad(TWO_PI * 45.0, 1.0 / np.sqrt(2.0), fs, 2, 1.0), env, n)))
    del env

    # Cancel the terminal velocity and displacement exactly with an even and
    # an odd smooth bump over the middle of the record (2x2 linear solve).
    bump = np.where(window, ((t - t1) * (t2 - t)) ** 2, 0.0)
    bump /= np.max(bump)
    tilt = bump * (t - 0.5 * (t1 + t2)) / (0.5 * (t2 - t1))

    def _end_moments(y):
        v = _cumulative_trapezoid(y, 1.0 / fs)
        u = _cumulative_trapezoid(v, 1.0 / fs)
        return v[-1], u[-1]

    vx, ux = _end_moments(x)
    v1, u1 = _end_moments(bump)
    v2, u2 = _end_moments(tilt)
    coeff = np.linalg.solve(np.array([[v1, v2], [u1, u2]]), np.array([vx, ux]))
    x -= coeff[0] * bump + coeff[1] * tilt

    x *= 1000.0 / np.max(np.abs(x))
    return Signal(fs, x)
