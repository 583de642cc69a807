"""Shock response spectra and dB error metrics against breakpoint specs.

The production path computes the maximax absolute-acceleration SRS with the
ramp-invariant recursive filter of Smallwood (1980), the standard digital
method in shock testing (see also ISO 18431-4).  An independent fixed-step
4th order ODE integrator over the relative-coordinate SDOF equation serves
as a cross-check oracle: the two share nothing but the input samples, so
mutual agreement validates both.

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
    "srs_oracle",
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


def _check_freqs(freqs, fs: float, q_srs: float) -> np.ndarray:
    """``freqs`` checked by ``signal_core._grid``, and with ``q_srs`` by what the SRS can use, before any filtering."""
    _scalar("q_srs", q_srs, above=0.5)
    freqs = _grid("freqs", freqs)
    if freqs[-1] >= fs / 2.0:
        raise ValueError(f"natural frequency {freqs[-1]:.6g} Hz is at or above Nyquist ({fs / 2.0:.6g} Hz)")
    return freqs


def _ring_down_samples(fn, q_srs: float, fs: float):
    """Samples of free decay after the record, by the package's one ring-down rule.

    ``_ring_down_factor(1)`` = 7 time constants of 2 q_srs / wn: 60 dB down.
    A whole number as a float, element-wise over ``fn``; inf where it overflows.
    """
    with np.errstate(over="ignore"):
        return np.ceil(_ring_down_factor(1) * 2.0 * q_srs / (TWO_PI * np.asarray(fn)) * fs)


def _srs_rows(n: int, freqs, q_srs: float, fs: float) -> tuple[np.ndarray, np.ndarray]:
    """``freqs`` checked by ``_check_freqs``, and each oscillator's rows, n samples plus its ring-down pad, after ``_budget`` of their sum."""
    freqs = _check_freqs(freqs, fs, q_srs)
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


def srs_oracle(sig: Signal, fn: float, q_srs: float = 10.0) -> float:
    """Maximax absolute acceleration from direct ODE integration.

    Integrates the relative-coordinate SDOF equation

        z'' + (wn/q_srs) z' + wn^2 z = -a_base(t)

    with classical fixed-step RK4 at >= 20 steps per period, treating the
    base acceleration as piecewise linear between samples (the same input
    model the ramp-invariant recursion assumes).  The absolute
    acceleration -( (wn/q_srs) z' + wn^2 z ) is recorded on the signal's
    own sample grid over the record plus ring-down pad.  Its steps, and
    the arrays it holds (tracemalloc reads 70 to 89 bytes a step), are
    charged to ``signal_core._budget`` at 96 bytes a step before any of
    them is allocated.
    """
    fn = float(fn)
    _check_freqs(fn, sig.sample_rate, q_srs)
    dt = sig.dt
    sub = max(1, int(np.ceil(20.0 * fn * dt)))
    h = dt / sub

    pad = _ring_down_samples(fn, q_srs, sig.sample_rate)  # a float, inf where it overflows, until charged
    steps = (len(sig) - 1 + pad) * sub
    _budget("SRS oracle", rows=steps, nbytes=96 * (steps + 1), advice=f"lower q_srs ({q_srs:.6g}) or raise fn ({fn:.6g} Hz)")
    u = np.concatenate([sig.samples, np.zeros(int(pad))])
    n_steps = (u.size - 1) * sub
    t_fine = np.arange(n_steps + 1) * h
    u_fine = np.interp(t_fine, np.arange(u.size) * dt, u)

    zeta = 0.5 / q_srs
    wn = TWO_PI * fn
    f_mat = np.array([[0.0, 1.0], [-wn * wn, -2.0 * zeta * wn]])

    eye = np.eye(2)
    f2 = f_mat @ f_mat
    f3 = f2 @ f_mat
    f4 = f3 @ f_mat
    phi = eye + h * f_mat + h * h / 2.0 * f2 + h ** 3 / 6.0 * f3 + h ** 4 / 24.0 * f4
    # Forcing weights of one RK4 step for g sampled at t, t+h/2, t+h.
    a0 = h / 6.0 * (eye + h * f_mat + h * h / 2.0 * f2 + h ** 3 / 4.0 * f3)
    ah = h / 6.0 * (4.0 * eye + 2.0 * h * f_mat + h * h / 2.0 * f2)
    a1 = h / 6.0 * eye

    # g(t) = [0, -u(t)]: only the second column of each weight matrix acts.
    u0 = u_fine[:-1]
    u1 = u_fine[1:]
    uh = 0.5 * (u0 + u1)  # midpoint of a piecewise-linear segment
    wz = -(a0[0, 1] * u0 + ah[0, 1] * uh + a1[0, 1] * u1)
    wv = -(a0[1, 1] * u0 + ah[1, 1] * uh + a1[1, 1] * u1)

    p00, p01 = phi[0]
    p10, p11 = phi[1]
    zs = np.empty(n_steps + 1)
    vs = np.empty(n_steps + 1)
    z = v = 0.0
    zs[0] = vs[0] = 0.0
    for n in range(n_steps):
        z, v = p00 * z + p01 * v + wz[n], p10 * z + p11 * v + wv[n]
        zs[n + 1] = z
        vs[n + 1] = v
    acc = -(2.0 * zeta * wn * vs[::sub] + wn * wn * zs[::sub])
    return float(np.max(np.abs(acc)))


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
    with np.errstate(divide="ignore"):
        per_db = 20.0 * np.log10(actual.values / target.values)
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
