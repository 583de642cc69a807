"""Shock response spectra and dB error metrics against breakpoint specs.

The maximax absolute-acceleration SRS is computed with the ramp-invariant
recursive filter of Smallwood (1980), the standard digital method in shock
testing (see also ISO 18431-4).

Specifications are piecewise log-log linear breakpoint curves; errors are
reported in amplitude dB, 20*log10(actual/target).
"""

from __future__ import annotations

import dataclasses
import warnings
from pathlib import Path

import numpy as np

from .signal_core import (
    TWO_PI, Signal, SignalFormatError, _budget, _frozen, _grid, _read_pairs, _ring_down_factor, _scalar, _segments,
    _write_table,
)

__all__ = [
    "SrsSpec",
    "SrsCurve",
    "DbErrorReport",
    "srs",
    "spec_interpolate",
    "db_error",
    "read_spec",
    "write_curve",
]

@dataclasses.dataclass(frozen=True)
class SrsSpec:
    """Breakpoint SRS specification with a pass/fail tolerance in dB.

    ``breakpoints`` is an (n, 2) array of (frequency Hz, peak acceleration
    m/s^2) rows, n >= 2: the frequencies a list by ``signal_core._grid``'s
    rule, the accelerations finite and positive.
    """

    breakpoints: np.ndarray
    tolerance_db: float = 3.0

    def __post_init__(self):
        bp = np.atleast_2d(np.asarray(self.breakpoints, dtype=float))
        if bp.ndim != 2 or bp.shape[1] != 2 or bp.shape[0] < 2:
            raise ValueError(f"breakpoints must be an (n>=2, 2) array, got shape {bp.shape}")
        _grid("breakpoint frequencies", bp[:, 0])
        if not (np.isfinite(bp[:, 1]).all() and (bp[:, 1] > 0.0).all()):
            raise ValueError("breakpoint accelerations must be finite and positive")
        object.__setattr__(self, "breakpoints", _frozen(bp))
        object.__setattr__(self, "tolerance_db", _scalar("tolerance_db", self.tolerance_db, above=0.0))

    @property
    def freqs(self) -> np.ndarray:
        return self.breakpoints[:, 0]

    @property
    def peaks(self) -> np.ndarray:
        return self.breakpoints[:, 1]


@dataclasses.dataclass(frozen=True)
class SrsCurve:
    """Maximax absolute-acceleration SRS samples on a frequency grid."""

    freqs: np.ndarray
    values: np.ndarray
    q_srs: float = 10.0

    def __post_init__(self):
        freqs = _grid("freqs", self.freqs)
        values = np.atleast_1d(np.asarray(self.values, dtype=float))
        if values.shape != freqs.shape:
            raise ValueError("freqs and values must have matching shapes")
        if not np.all(np.isfinite(values)) or np.any(values < 0.0):
            raise ValueError("values must be finite and non-negative")
        object.__setattr__(self, "freqs", _frozen(freqs))
        object.__setattr__(self, "values", _frozen(values))
        object.__setattr__(self, "q_srs", _scalar("q_srs", self.q_srs, above=0.5))


@dataclasses.dataclass(frozen=True)
class DbErrorReport:
    """Per-frequency amplitude dB errors of an SRS against a target.

    ``floor_hit`` flags grid points where the actual SRS was zero; those
    entries are -inf dB and force a failure.
    """

    per_freq_db: np.ndarray
    max_abs_db: float
    tolerance_db: float
    passed: bool
    floor_hit: bool = False

    def __post_init__(self):
        object.__setattr__(self, "per_freq_db", _frozen(self.per_freq_db))


def _sdof_coeffs(fn: float, q_srs: float, dt: float):
    """Ramp-invariant recursion for the SDOF absolute-acceleration response.

    Smallwood's filter: exact for base accelerations that are piecewise
    linear between samples.
    """
    zeta = 0.5 / q_srs
    wn = TWO_PI * fn
    wd = wn * np.sqrt(1.0 - zeta * zeta)
    e = np.exp(-zeta * wn * dt)
    c = e * np.cos(wd * dt)
    s = e * np.sin(wd * dt)
    sp = s / (wd * dt)
    b = np.array([1.0 - sp, 2.0 * (sp - c), e * e - sp])
    a = np.array([1.0, -2.0 * c, e * e])
    return b, a


def _ring_down_samples(fn, q_srs: float, fs: float):
    """Samples of free decay after the record, by the package's one ring-down rule.

    ``_ring_down_factor(1)`` = 7 time constants of 2 q_srs / wn: 60 dB down.
    A whole number as a float, element-wise over ``fn``; inf where it overflows.
    """
    with np.errstate(over="ignore"):
        return np.ceil(_ring_down_factor(1) * 2.0 * q_srs / (TWO_PI * np.asarray(fn)) * fs)


def _srs_rows(n: int, freqs, q_srs: float, fs: float) -> tuple[np.ndarray, np.ndarray]:
    """``freqs`` checked by ``signal_core._grid`` and below Nyquist, and each oscillator's rows, n samples plus its ring-down pad, after ``_budget`` of their sum."""
    _scalar("q_srs", q_srs, above=0.5)
    freqs = _grid("freqs", freqs)
    if freqs[-1] >= fs / 2.0:
        raise ValueError(f"natural frequency {freqs[-1]:.6g} Hz is at or above Nyquist ({fs / 2.0:.6g} Hz)")
    rows = n + _ring_down_samples(freqs, q_srs, fs)
    advice = f"lower q_srs ({q_srs:.6g}) or raise the lowest frequency ({freqs[0]:.6g} Hz)"
    _budget("SRS", rows=rows.sum(), advice=advice)
    return freqs, rows


def srs(sig: Signal, freqs, q_srs: float = 10.0) -> SrsCurve:
    """Maximax absolute-acceleration SRS via the ramp-invariant recursion.

    Each natural frequency's oscillator runs over the record plus the
    ring-down pad of :func:`_ring_down_samples`, 7 * 2 * q_srs / wn
    seconds, so late response peaks of lightly damped oscillators are not
    cut off.

    Each run goes through ``signal_core._segments``, so the peak is that of
    the whole run, bit for bit, and memory does not grow with the pad.  Their
    rows in all are checked by ``signal_core._budget`` before any filtering.
    """
    freqs, rows = _srs_rows(len(sig), freqs, q_srs, sig.sample_rate)
    values = [
        max(np.abs(y).max() for y in _segments(np.concatenate(_sdof_coeffs(fn, q_srs, sig.dt)), sig.samples, total))
        for fn, total in zip(freqs, rows.astype(int).tolist())
    ]
    return SrsCurve(freqs, values, q_srs)


def spec_interpolate(spec: SrsSpec, freqs) -> SrsCurve:
    """Log-log linear interpolation of a breakpoint spec onto a grid.

    Frequencies outside the breakpoint range are clamped to the end values
    with a warning.
    """
    freqs = _grid("freqs", freqs)
    lo, hi = spec.freqs[0], spec.freqs[-1]
    if freqs[0] < lo or freqs[-1] > hi:
        warnings.warn(
            f"interpolation frequencies outside spec range [{lo:.6g}, {hi:.6g}] Hz "
            f"are clamped to the end values",
            stacklevel=2,
        )
    clamped = np.clip(freqs, lo, hi)
    log_vals = np.interp(np.log10(clamped), np.log10(spec.freqs), np.log10(spec.peaks))
    return SrsCurve(freqs, 10.0 ** log_vals)


def db_error(actual: SrsCurve, target: SrsCurve, tolerance_db: float = 3.0) -> DbErrorReport:
    """Per-frequency 20*log10(actual/target) with a max-abs pass verdict."""
    if actual.freqs.shape != target.freqs.shape or not np.allclose(
        actual.freqs, target.freqs, rtol=1e-12, atol=0.0
    ):
        raise ValueError("actual and target curves must share the same frequency grid")
    if np.any(target.values <= 0.0):
        raise ValueError("target SRS values must be positive")
    tolerance_db = _scalar("tolerance_db", tolerance_db, above=0.0)
    floor_hit = bool(np.any(actual.values == 0.0))
    with np.errstate(divide="ignore", over="ignore"):
        ratio = actual.values / target.values
        per_db = 20.0 * np.log10(ratio)
    off = (actual.values > 0.0) & ((ratio == 0.0) | np.isinf(ratio))  # the ratio left float range: a difference of logs
    per_db[off] = 20.0 * (np.log10(actual.values[off]) - np.log10(target.values[off]))
    max_abs = float(np.max(np.abs(per_db)))
    passed = (not floor_hit) and max_abs <= tolerance_db
    return DbErrorReport(per_db, max_abs, tolerance_db, passed, floor_hit)


def read_spec(path, tolerance_db: float = 3.0) -> SrsSpec:
    """Read a breakpoint spec CSV (``freq_hz,peak_accel_m_s2``), charged to ``_budget`` before the parse as a record is."""
    # Before the file: the file's own faults are reported under its name.
    tolerance_db = _scalar("tolerance_db", tolerance_db, above=0.0)
    path = Path(path)
    rows = _read_pairs(path, "freq_hz,peak_accel_m_s2", advice="list fewer breakpoints")
    if len(rows) < 2:
        raise SignalFormatError(f"{path.name}: need at least 2 breakpoints")
    try:
        return SrsSpec(rows, tolerance_db)
    except ValueError as exc:
        raise SignalFormatError(f"{path.name}: {exc}") from None


def write_curve(curve: SrsCurve, path) -> None:
    """Write an SRS curve as CSV (``freq_hz,srs_m_s2``), %.12g, LF, UTF-8."""
    _write_table(path, "freq_hz,srs_m_s2", [curve.freqs, curve.values])
