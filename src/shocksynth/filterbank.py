"""Sixth-octave filter bank layout and the normalized basis matrix.

A reference shock is passed through one band-pass filter per grid center,
every filtered column is padded to a common length and scaled to unit peak,
and the columns are assembled side by side.  Linear combinations of the
columns then inherit the per-column net-zero property, which is the whole
point of building the basis this way.
"""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np

from .nzdf import NzdfParams, _run_size, apply_filter, discretize
from .signal_core import TWO_PI, Signal, _budget, _frozen, _grid, _scalar, _values, _whole, motion_of

__all__ = [
    "BankLayout",
    "BasisMatrix",
    "NoBandEnergyError",
    "make_layout",
    "build_basis",
    "four_coordinate_check",
]

# Columns whose peak falls below this fraction of the reference peak carry
# no usable band energy.
_ENERGY_FLOOR = 1e-12

# Most points a grid, or one of its octaves, may have: far more than any SRS
# or bank needs (1/1000 octave over 20 Hz to 20 kHz is about 10,000 points).
_MAX_GRID_POINTS = 100_000


class NoBandEnergyError(ValueError):
    """Raised when the reference has no usable energy in some band."""

    def __init__(self, center_freq: float, message: str):
        super().__init__(message)
        self.center_freq = center_freq


@dataclasses.dataclass(frozen=True)
class BankLayout:
    """Geometric frequency grid with ``points_per_octave`` points per octave.

    ``centers[k] = fmin * 2**(k / points_per_octave)``; the last center is
    the first grid point at or above ``fmax``.  The centers are a frequency
    list by ``signal_core._grid``'s rule, and ``fmin`` and ``fmax`` frequencies.
    """

    fmin: float
    fmax: float
    points_per_octave: int
    centers: np.ndarray

    def __post_init__(self):
        for name in ("fmin", "fmax"):
            object.__setattr__(self, name, _scalar(name, getattr(self, name), kind="frequency"))
        object.__setattr__(self, "points_per_octave", _whole("points_per_octave", self.points_per_octave, at_least=1))
        object.__setattr__(self, "centers", _frozen(_grid("centers", self.centers)))


def make_layout(fmin: float, fmax: float, ppo: int = 6) -> BankLayout:
    """Build the grid covering [fmin, fmax] at 2**(1/ppo) spacing.

    Raises ``ValueError`` before allocating when ppo, or the grid's
    ppo * log2(fmax / fmin) steps, exceed ``_MAX_GRID_POINTS``.
    """
    fmin = _scalar("fmin", fmin, above=0.0, kind="frequency")
    fmax = _scalar("fmax", fmax, kind="frequency")
    if fmax <= fmin:
        raise ValueError(f"fmax must exceed fmin, got fmin={fmin}, fmax={fmax}")
    ppo = _whole("points_per_octave", ppo, at_least=1)
    octaves = np.log2(fmax) - np.log2(fmin)
    if ppo > _MAX_GRID_POINTS or ppo * octaves > _MAX_GRID_POINTS:  # no float overflows for any int ppo
        raise ValueError(
            f"ppo={ppo} points per octave from fmin={fmin:.6g} to fmax={fmax:.6g} is over the "
            f"{_MAX_GRID_POINTS:,}-point limit on the grid and on ppo; lower ppo or narrow fmin to fmax"
        )
    # Small backoff so an fmax exactly on the grid does not gain an extra point.
    k_last = int(np.ceil(ppo * octaves - 1e-9))
    return BankLayout(fmin, fmax, ppo, fmin * 2.0 ** (np.arange(k_last + 1) / ppo))


@dataclasses.dataclass(frozen=True)
class BasisMatrix:
    """Unit-peak filtered columns of the reference, one per bank center.

    ``columns`` has shape (n_samples, n_centers); column i is the reference
    filtered at ``layout.centers[i]``, padded to the common length and
    divided by its own peak.  ``norms`` holds those peaks in m/s^2 so
    physical amplitudes stay recoverable.
    """

    layout: BankLayout
    sample_rate: float
    columns: np.ndarray
    norms: np.ndarray

    def __post_init__(self):
        m = self.layout.centers.size
        object.__setattr__(self, "columns", _frozen(_values("columns", self.columns, (None, m))))
        object.__setattr__(self, "norms", _frozen(_values("norms", self.norms, (m,), above=0.0)))
        object.__setattr__(self, "sample_rate", _scalar("sample_rate", self.sample_rate, above=0.0, kind="frequency"))

    @property
    def n_columns(self) -> int:
        return self.columns.shape[1]

    def column_signal(self, i: int) -> Signal:
        return Signal(self.sample_rate, self.columns[:, i])


def _basis_rows(n: int, centers, fs: float) -> tuple[int, list[int]]:
    """The basis's common length for n reference samples, and the zeros each center's filter input gets to reach it."""
    pads = [_run_size(NzdfParams(fc), fs, 0)[0] for fc in centers]  # each filter's ring-down rows
    return n + max(pads), [max(pads) - pad for pad in pads]


def build_basis(reference: Signal, layout: BankLayout) -> BasisMatrix:
    """Filter the reference at every bank center and assemble the matrix.

    Every filter is the default NZDF, ``NzdfParams(fc)`` (Q = 5, N = 2,
    M = 2).  Each column gets the filter's own ring-down pad,
    ``ring_down_time``: 10.5 time constants of 2 Q / w, where the envelope
    t exp(-w t / (2 Q)) has fallen 60 dB (``signal_core._ring_down_factor``).
    All columns are then brought to the common length set by the lowest
    center (the longest ring-down) by pre-extending the filter input, so
    every tail is the filter's natural decay rather than a truncation.
    The matrix and one column's run, its padded input and what
    :func:`apply_filter` holds, are checked by ``signal_core._budget``
    before the matrix is allocated.
    """
    top = float(layout.centers[-1])
    fs = reference.sample_rate
    if fs < 2.5 * top:
        raise ValueError(f"reference rate {fs:.6g} Hz is below 2.5x the top center {top:.6g} Hz")
    if fs < 10.0 * top:
        warnings.warn(
            f"reference rate {fs:.6g} Hz is below 10x the top center {top:.6g} Hz; "
            f"upper-band filters operate close to Nyquist",
            stacklevel=2,
        )

    n_common, extensions = _basis_rows(len(reference), layout.centers, fs)
    # the lowest center's run is the longest: the reference, unextended, and the longest ring-down
    run = _run_size(NzdfParams(layout.centers[0]), fs, len(reference))[1]
    _budget("basis", nbytes=8 * n_common * (layout.centers.size + 1) + run,
            advice=f"raise the lowest center ({layout.centers[0]:.6g} Hz) or lower ppo ({layout.points_per_octave})")

    ref_peak = float(np.max(np.abs(reference.samples)))
    if ref_peak == 0.0:
        raise NoBandEnergyError(float(layout.centers[0]), "reference signal is identically zero")
    cols = np.empty((n_common, layout.centers.size))
    norms = np.empty(layout.centers.size)
    with warnings.catch_warnings():
        # The bank-level warning above already covers near-Nyquist centers.
        warnings.simplefilter("ignore")
        for i, (fc, extra) in enumerate(zip(layout.centers, extensions)):
            p = NzdfParams(fc)
            filt = discretize(p, fs)
            out = apply_filter(filt, Signal(fs, np.concatenate([reference.samples, np.zeros(extra)]), reference.t0))
            peak = float(np.max(np.abs(out.samples)))
            if peak <= _ENERGY_FLOOR * ref_peak:  # a zero column has none, also where the floor underflows to 0
                raise NoBandEnergyError(
                    p.center_freq,
                    f"reference has no energy at {p.center_freq:.6g} Hz "
                    f"(column peak {peak:.3g} vs reference peak {ref_peak:.3g})",
                )
            cols[:, i] = out.samples / peak
            norms[i] = peak
    cols.setflags(write=False)  # frozen in place, so BasisMatrix holds it without a copy
    norms.setflags(write=False)
    return BasisMatrix(layout, fs, cols, norms)


def four_coordinate_check(column: Signal, fc: float) -> tuple[float, float]:
    """Peak-amplitude ratios linking acceleration, velocity, displacement.

    For a narrowband signal at fc the three peak amplitudes are tied by
    the carrier frequency: max|a| = w max|v| = w^2 max|u|.  Returns
    (max|a| / (w max|v|), max|a| / (w^2 max|u|)); both near 1 when the
    narrowband assumption holds.
    """
    w = TWO_PI * _scalar("fc", fc, above=0.0, kind="frequency")
    m = motion_of(column)
    peak_a = float(np.max(np.abs(m.acceleration.samples)))
    peak_v = float(np.max(np.abs(m.velocity.samples)))
    peak_d = float(np.max(np.abs(m.displacement.samples)))
    if peak_v == 0.0 or peak_d == 0.0:
        raise ValueError("velocity and displacement peaks must be nonzero")
    return peak_a / (w * peak_v), peak_a / (w * w * peak_d)

