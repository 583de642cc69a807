"""Net-zero displacement band-pass filters and their gammatone ancestry.

The analog prototype is

    H(s) = K s^M / (s^2 + (w/Q) s + w^2)^N,     w = 2*pi*fc

an N-fold repeated resonant pole pair with an M-fold zero at the origin.
With M >= 2 the transfer function carries a double (or higher) zero at
s = 0, so the impulse response integrates to zero net velocity *and* zero
net displacement; with M <= 2N - 1 the high-frequency magnitude still
rolls off.  K = w^(2N - M) / Q^N sets the magnitude at the center
frequency to exactly one.

The default shape (N=2, M=2, Q=5) is a squared unity-peak band-pass
biquad.  Discretization maps each analog section through the bilinear
transform, pre-warped so the digital response at fc equals the analog
response there.  The bilinear image keeps the zeros at z = 1, which is
what preserves the net-zero property in discrete time: the output's
zeroth and first moments vanish identically.

A gammatone impulse a * t^(N-1) * exp(-b t) * cos(wc t + phi) shares the
same pole layout (w = sqrt(wc^2 + b^2), Q = w / (2 b)) but lacks the
origin zeros, so it leaves behind a net velocity offset.  The gammatone
helpers here exist mainly to demonstrate that contrast.
"""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np

from .signal_core import (
    TWO_PI, _SEGMENT_ROWS, Signal, _bilinear_pole_pair, _budget, _frozen, _ring_down_factor, _scalar, _segments, _whole,
)

__all__ = [
    "NzdfParams",
    "DigitalNzdf",
    "GammatoneParams",
    "validate_order",
    "nzdf_gain",
    "q_to_beta",
    "beta_to_q",
    "group_delay",
    "discretize",
    "apply_filter",
    "impulse_response",
    "gammatone_impulse",
]

# The q range over which beta_to_q inverts q_to_beta.
_Q_LO = 0.8
_Q_HI = 1.0e4

# The default shape's relative 3 dB bandwidth times q: sqrt(sqrt(2) - 1).
_BETA_Q = np.sqrt(np.sqrt(2.0) - 1.0)

def validate_order(numerator_power: int, order: int) -> bool:
    """True when the zero multiplicity keeps both net-zero motion and decay.

    ``numerator_power`` (the multiplicity M of the zero at s = 0) must be
    at least 2 so velocity and displacement both return to zero, and at
    most 2*order - 1 so the magnitude still falls off above the band.
    """
    m, n = _whole("numerator_power", numerator_power), _whole("order", order, at_least=1)
    return 2 <= m <= 2 * n - 1


@dataclasses.dataclass(frozen=True)
class NzdfParams:
    """Analog filter parameters.

    Parameters
    ----------
    center_freq : float
        Center frequency fc in Hz, > 0.
    q : float, optional
        Quality factor of each pole pair, > 0.5 (underdamped).
    order : int, optional
        Pole-pair multiplicity N, >= 1.
    numerator_power : int, optional
        Zero multiplicity M at the origin; must satisfy
        2 <= M <= 2*N - 1.
    """

    center_freq: float
    q: float = 5.0
    order: int = 2
    numerator_power: int = 2

    def __post_init__(self):
        fc = _scalar("center_freq", self.center_freq, above=0.0)
        q = _scalar("q", self.q, above=0.5)  # underdamped
        if not validate_order(self.numerator_power, self.order):
            raise ValueError(
                f"numerator_power={self.numerator_power} with order={self.order} "
                f"violates 2 <= M <= 2*N - 1"
            )
        object.__setattr__(self, "center_freq", fc)
        object.__setattr__(self, "q", q)
        for name in ("order", "numerator_power"):
            object.__setattr__(self, name, _whole(name, getattr(self, name)))

    @property
    def omega(self) -> float:
        """Center frequency in rad/s."""
        return TWO_PI * self.center_freq

    @property
    def gain(self) -> float:
        """Numerator constant K giving unity magnitude at the center."""
        return self.omega ** (2 * self.order - self.numerator_power) / self.q ** self.order

    @property
    def ring_down_time(self) -> float:
        """Seconds for the envelope to decay below 1/1000 of its peak.

        ``_ring_down_factor(order)`` time constants of 2 Q / w (10.5 at N = 2).
        """
        return _ring_down_factor(self.order) * 2.0 * self.q / self.omega


def nzdf_gain(f_eval, params: NzdfParams):
    """Complex frequency response H(j 2 pi f).

    ``f_eval`` may be a scalar or an array of frequencies in Hz.
    """
    s = 1j * TWO_PI * np.asarray(f_eval, dtype=float)
    w = params.omega
    den = (s * s + (w / params.q) * s + w * w) ** params.order
    h = params.gain * s ** params.numerator_power / den
    if np.isscalar(f_eval):
        return complex(h)
    return h


def q_to_beta(q: float) -> float:
    """Relative 3 dB bandwidth (f_hi - f_lo)/fc of the default magnitude shape.

    For N=2, M=2 the full magnitude crosses 2^(-1/2) where one section's
    squared magnitude does, at the x = f / fc where |1 - x^2| =
    sqrt(sqrt(2) - 1) x / q.  The two edges have x_hi x_lo = 1, so the
    bandwidth x_hi - x_lo is exactly sqrt(sqrt(2) - 1) / q.
    """
    return float(_BETA_Q / _scalar("q", q, above=0.5))


def beta_to_q(beta: float) -> float:
    """The exact inverse of :func:`q_to_beta`, for q in [0.8, 1e4]."""
    beta = float(beta)
    b_hi = q_to_beta(_Q_LO)
    b_lo = q_to_beta(_Q_HI)
    if not (b_lo <= beta <= b_hi):
        raise ValueError(
            f"beta={beta:.6g} outside invertible range [{b_lo:.6g}, {b_hi:.6g}]"
        )
    return float(_BETA_Q / beta)


def group_delay(params: NzdfParams) -> float:
    """Group delay -dphi/domega at the center frequency, in seconds.

    Each pole pair contributes 2 Q / w of delay at resonance and the
    origin zeros contribute none, so the total is 2 N Q / w.
    """
    return 2.0 * params.order * params.q / params.omega


def _numerator_powers(params: NzdfParams) -> list[int]:
    """Split the M origin zeros across N biquad sections, most even first."""
    base, extra = divmod(params.numerator_power, params.order)
    return [base + 1] * extra + [base] * (params.order - extra)


@dataclasses.dataclass(frozen=True)
class DigitalNzdf:
    """Bilinear-transform image of :class:`NzdfParams` at a fixed rate.

    ``sos`` holds the cascade's second-order sections, one per row, as
    (b0, b1, b2, a0, a1, a2) with a0 = 1 (scipy's ``sos`` layout).
    Construction validates a0 = 1 and that every pole lies strictly inside
    the unit circle.
    """

    params: NzdfParams
    sample_rate: float
    sos: np.ndarray

    def __post_init__(self):
        sos = _frozen(self.sos)
        if sos.ndim != 2 or sos.shape[1] != 6:
            raise ValueError(f"sos must have shape (n_sections, 6), got {sos.shape}")
        if np.any(sos[:, 3] != 1.0):
            raise ValueError("every section's a0 (sos[:, 3]) must be 1")
        _check_poles(sos[:, 4], sos[:, 5])
        object.__setattr__(self, "sos", sos)
        object.__setattr__(self, "sample_rate", float(self.sample_rate))

    def frequency_response(self, freqs) -> np.ndarray:
        """Complex response of the cascade at the given frequencies in Hz."""
        w = TWO_PI * np.asarray(freqs, dtype=float) / self.sample_rate
        return _sos_response(self.sos, w)


def _check_poles(a1, a2) -> None:
    """Jury's test: ``ValueError`` unless every z^2 + a1 z + a2 has both roots strictly inside the
    unit circle, which holds iff |a2| < 1 and |a1| < 1 + a2.  A NaN fails it."""
    if not np.all((np.abs(a2) < 1.0) & (np.abs(a1) < 1.0 + a2)):
        raise ValueError("discretized section has a pole on or outside the unit circle")


def _sos_response(sos: np.ndarray, w) -> np.ndarray:
    """Complex response of a second-order-section cascade at ``w`` rad/sample.

    The product of every section's b(z^-1) / a(z^-1), each polynomial
    evaluated by Horner's rule at z^-1 = exp(-jw).
    """
    zm1 = np.exp(-1j * np.asarray(w, dtype=float))
    h = np.ones_like(zm1)
    for b0, b1, b2, a0, a1, a2 in sos:
        h *= (b0 + (b1 + b2 * zm1) * zm1) / (a0 + (a1 + a2 * zm1) * zm1)
    return h


def discretize(params: NzdfParams, fs: float) -> DigitalNzdf:
    """Map the analog filter to second-order sections at sample rate ``fs``.

    Uses the bilinear transform pre-warped at the center frequency, then
    rescales so the digital magnitude at fc is exactly one.  Raises for
    fs <= 2*fc and warns when fs < 10*fc, where the bilinear frequency
    compression noticeably reshapes the upper skirt.
    """
    fc = params.center_freq
    fs = _scalar("fs", fs, above=2.0 * fc)
    if fs < 10.0 * fc:
        warnings.warn(
            f"fs={fs:.6g} is below 10*fc={10.0 * fc:.6g}; expect bilinear warping "
            f"distortion on the upper skirt",
            stacklevel=2,
        )
    w = params.omega
    q = params.q
    c, den = _bilinear_pole_pair(w, q, fs)
    _check_poles(den[1] / den[0], den[2] / den[0])  # every section's, before the pin divides by the response at fc

    sections = []
    for m in _numerator_powers(params):
        g = w ** (2 - m) / q
        if m == 0:
            num = g * np.array([1.0, 2.0, 1.0])
        elif m == 1:
            num = g * c * np.array([1.0, 0.0, -1.0])
        else:
            num = g * c * c * np.array([1.0, -2.0, 1.0])
        sections.append(np.hstack([num / den[0], den / den[0]]))
    sos = np.asarray(sections)

    # Pin exact unity gain at the center against accumulated rounding.
    sos[0, :3] /= np.abs(_sos_response(sos, [w / fs])[0])
    return DigitalNzdf(params, fs, sos)


def _run_size(params: NzdfParams, fs: float, n: int) -> tuple[int, int]:
    """Rows :func:`apply_filter` returns for n samples at ``fs`` through ``params``, pad included, and bytes it holds.

    The output and its ``Signal`` copy, 16 bytes a row, and one segment of
    input and each section's output of it, 8 bytes a segment row each.
    """
    rows = n + int(np.ceil(params.ring_down_time * fs))
    return rows, 16 * rows + 8 * _SEGMENT_ROWS * (params.order + 1)


def apply_filter(filt: DigitalNzdf, sig: Signal) -> Signal:
    """Filter a signal and append the ring-down pad.

    The input is extended with ``params.ring_down_time`` seconds of zeros
    so the transient excited by the final samples can decay inside the
    record; ``signal_core._segments`` runs the cascade.  What it holds at
    its peak, the output and its ``Signal`` copy (16 bytes a row) and the
    cascade's segments, is checked by ``signal_core._budget`` before
    filtering.
    """
    if not np.isclose(sig.sample_rate, filt.sample_rate, rtol=1e-9, atol=0.0):
        raise ValueError(
            f"signal rate {sig.sample_rate:.6g} Hz does not match filter rate "
            f"{filt.sample_rate:.6g} Hz"
        )
    p = filt.params
    rows, nbytes = _run_size(p, sig.sample_rate, len(sig))
    _budget(f"filter at center_freq={p.center_freq:.6g} Hz with q={p.q:.6g}", nbytes=nbytes,
            advice="lower q or raise center_freq")
    y = np.concatenate(list(_segments(filt.sos, sig.samples, rows)))
    return Signal(sig.sample_rate, y, t0=sig.t0)


def impulse_response(filt: DigitalNzdf, duration: float) -> Signal:
    """Response to a unit-area discrete impulse (amplitude fs at t = 0).

    ``duration`` sets the pre-pad record length; :func:`apply_filter`
    appends its usual ring-down on top.  The impulse, its ``Signal`` copy
    and the filter's run are checked by ``signal_core._budget`` before any
    of them is allocated.
    """
    n = round(_scalar("duration", duration, above=0.0) * filt.sample_rate, 0) + 1  # a float until charged
    p = filt.params
    _budget(f"impulse response at center_freq={p.center_freq:.6g} Hz with q={p.q:.6g}",
            nbytes=16 * n + _run_size(p, filt.sample_rate, n)[1], advice="shorten duration, lower q or raise center_freq")
    x = np.zeros(int(n))
    x[0] = filt.sample_rate
    return apply_filter(filt, Signal(filt.sample_rate, x))


@dataclasses.dataclass(frozen=True)
class GammatoneParams:
    """Gammatone envelope-and-carrier description.

    ``bandwidth`` is the exponential decay constant b in rad/s.  The
    corresponding filter pole layout has w = sqrt(wc^2 + b^2) and
    Q = w / (2 b).
    """

    center_freq: float
    bandwidth: float
    order: int = 2
    amplitude: float = 1.0
    phase: float = 0.0

    def __post_init__(self):
        for name, above in (("center_freq", 0.0), ("bandwidth", 0.0), ("amplitude", -np.inf), ("phase", -np.inf)):
            object.__setattr__(self, name, _scalar(name, getattr(self, name), above))
        object.__setattr__(self, "order", _whole("order", self.order, at_least=1))


def gammatone_impulse(gp: GammatoneParams, fs: float, duration: float) -> Signal:
    """Sample a * t^(N-1) * exp(-b t) * cos(wc t + phi) on a uniform grid.

    tracemalloc reads 32 bytes a sample held at once (the times and three
    temporaries); ``signal_core._budget`` is charged 40 before any of them.
    """
    fs = _scalar("fs", fs, above=0.0)
    n = round(_scalar("duration", duration, above=0.0) * fs, 0) + 1  # a float until charged
    _budget("gammatone impulse", nbytes=40 * n, advice="lower fs or shorten duration")
    t = np.arange(int(n)) / fs
    wc = TWO_PI * gp.center_freq
    env = gp.amplitude * t ** (gp.order - 1) * np.exp(-gp.bandwidth * t)
    return Signal(fs, env * np.cos(wc * t + gp.phase))
