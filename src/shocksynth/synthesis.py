"""Coefficient search: log-SRS objective, seeded PSO, and verification.

The synthesized signal is the basis matrix times a coefficient vector,
A @ x.  The objective is the Euclidean norm of log10(SRS(A @ x)) -
log10(target) over the verification grid (bank centers plus spec
breakpoints).  A deterministic global-best particle swarm minimizes it,
warm-started from the per-band diagonal estimate target(fc_i)/SRS(a_i)(fc_i).

Inside the swarm loop the SRS is evaluated through a precomputed bank of
SDOF-filtered basis responses: SRS(A @ x) at grid frequency f is the
segment-wise peak of R_f @ x, where R_f holds the f-oscillator response of
every basis column.  Filtering is linear, so the mix needs no refiltering;
the cache is approximate only where it drops samples (the decimation and
the short free-decay tail), and all reported numbers are recomputed
afterwards through the canonical full-rate path.

The peak search skips most of the cache exactly.  Each block is cut into
fixed chunks of rows, and the cache keeps each chunk's per-column envelope
env[c, j] = max |R[r, j]| over its rows r.  By the triangle inequality
|R_r @ x| <= env[c] @ |x| for every row r of chunk c, so a chunk whose bound
does not exceed a peak already found in its block cannot hold the block's
maximum.  Every other chunk is multiplied out on its own, and its bound
replaced by its exact peak, so the largest of a block's bounds is its peak.

The swarm's batches change little from one to the next, so the cache also
keeps the last batch x_prev and each chunk's peak for it, and bounds a
batch of the same shape by that peak plus env[c] @ |x - x_prev| where this
is tighter.  On the launcher spec this cuts the rows multiplied out after
each block's first chunk from 22,000-36,000 to about 9,500 a batch.

A chunk is filtered from its seed the first time it is multiplied out, so
memory is committed only for those chunks: about a fifth (0.19) of the rows
on the acceptance specs.
"""

from __future__ import annotations

import dataclasses
import json
import mmap
from pathlib import Path

import numpy as np

from .filterbank import BankLayout, BasisMatrix, _basis_rows, build_basis, make_layout
from .signal_core import ResidualReport, Signal, _allpole, _budget, _fir3, _frozen, _scalar, residual_motion
from .srs import DbErrorReport, SrsCurve, SrsSpec, _sdof_coeffs, _srs_rows, db_error, spec_interpolate, srs

__all__ = [
    "PsoConfig",
    "SynthesisResult",
    "objective",
    "pso_minimize",
    "synthesize",
    "verify",
    "verification_grid",
    "build_report",
    "write_report",
]

# SRS floor relative to the target peak, applied before taking logs so the
# objective stays finite for degenerate coefficient vectors.
_SRS_FLOOR_REL = 1e-9

# Maximax of the free SDOF decay after the drive ends always falls inside
# the next two oscillation periods (the envelope loses e^(-2*pi*0.05) per
# period at q_srs >= 10, less than the worst sampling loss at >= 10
# samples per period), so the in-loop response cache only needs this much
# tail per frequency.  It is a peak-search tail, not a ring-down rule; the
# canonical SRS runs the full ring-down of ``signal_core._ring_down_factor``.
_CACHE_TAIL_PERIODS = 2.0

# In-loop peak search decimates each frequency's response by
# step = max(int(fs / (20 * fn)), 1), which keeps 20 to 40 samples per
# oscillator period below fs/20 (5 kHz at 100 kHz).  Above fs/20 the step
# is 1 and every sample is kept, which is fewer than 20 per period (10 at
# 10 kHz).  Sampling a sinusoid at fn with 20 points per period under-reads
# its peak by at most 1 - cos(pi/20), about 1.2% or 0.11 dB, far inside
# what the swarm needs.  Drive content well above fn is sampled more
# coarsely, so a response dominated by such content under-reads more.  The
# canonical full-rate SRS is recomputed after the search.
_CACHE_SAMPLES_PER_PERIOD = 20.0

# Rows per chunk of the cache's peak envelope: about a thousand chunks on
# the launcher spec, each still a gemm of useful size when it is not skipped.
_CHUNK_ROWS = 512

# Relative slack on a chunk's envelope bound.  Rounding moves the bound and
# each row's product by at most about n_columns * 2**-53 times the bound
# (under 1e-13 for a few hundred columns), so a chunk whose bound times
# 1 + slack does not exceed the running peak holds no larger computed value.
_BOUND_SLACK = 1e-9


@dataclasses.dataclass(frozen=True)
class PsoConfig:
    """Swarm hyperparameters; all invented knobs, frozen for determinism."""

    swarm_size: int = 32
    max_iters: int = 220
    inertia: float = 0.72
    cognitive: float = 1.49
    social: float = 1.49
    bounds_scale: float = 4.0
    seed: int = 0
    stall_iters: int = 60
    stall_tol: float = 1e-4

    def __post_init__(self):
        if int(self.swarm_size) < 10:
            raise ValueError(f"swarm_size must be >= 10, got {self.swarm_size}")
        if int(self.max_iters) < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        for name in ("inertia", "cognitive", "social", "bounds_scale", "stall_tol"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.bounds_scale <= 0.0:
            raise ValueError(f"bounds_scale must be positive, got {self.bounds_scale}")
        if int(self.stall_iters) < 1:
            raise ValueError(f"stall_iters must be >= 1, got {self.stall_iters}")
        object.__setattr__(self, "swarm_size", int(self.swarm_size))
        object.__setattr__(self, "max_iters", int(self.max_iters))
        object.__setattr__(self, "stall_iters", int(self.stall_iters))
        object.__setattr__(self, "seed", int(self.seed))


@dataclasses.dataclass(frozen=True)
class SynthesisResult:
    """Everything the optimizer produced, plus the canonical verification."""

    coefficients: np.ndarray
    synthesized: Signal
    srs_report: DbErrorReport
    residuals: ResidualReport
    objective_value: float
    iterations_used: int
    achieved: SrsCurve
    target: SrsCurve

    def __post_init__(self):
        object.__setattr__(self, "coefficients", _frozen(self.coefficients))


def verification_grid(spec: SrsSpec, layout: BankLayout) -> np.ndarray:
    """Union of the bank centers and the spec breakpoint frequencies, sorted.

    ``np.unique``'s result, without the ``numpy.ma`` import it makes.
    """
    freqs = np.sort(np.concatenate([layout.centers, spec.freqs]))
    return freqs[np.r_[True, freqs[1:] != freqs[:-1]]]


def _target_curve(spec: SrsSpec, layout: BankLayout) -> SrsCurve:
    """The spec interpolated onto the verification grid (the curve's ``freqs``).

    The one call of ``spec_interpolate`` on that grid, so Python's default
    filter (once per source line) shows its clamping warning once per process.
    """
    return spec_interpolate(spec, verification_grid(spec, layout))


def objective(x, basis: BasisMatrix, target: SrsCurve, q_srs: float = 10.0) -> float:
    """Euclidean norm of the log10 SRS error of A @ x on the target grid."""
    x = np.asarray(x, dtype=float)
    if x.shape != (basis.n_columns,):
        raise ValueError(f"x must have shape ({basis.n_columns},), got {x.shape}")
    sig = Signal(basis.sample_rate, basis.columns @ x)
    return _log_error_norm(srs(sig, target.freqs, q_srs).values, target)


def _log_error_norm(values, target: SrsCurve) -> float:
    """Norm of log10(values) - log10(target), values floored below the target peak."""
    floor = _SRS_FLOOR_REL * float(np.max(target.values))
    vals = np.maximum(values, floor)
    return float(np.linalg.norm(np.log10(vals) - np.log10(target.values)))


def pso_minimize(dim, eval_batch, bounds, cfg: PsoConfig, initial_positions=None):
    """Global-best PSO over a box, deterministic for a given seed.

    ``eval_batch`` maps an (n_particles, dim) position block to a vector of
    objective values; non-finite values are treated as +inf.  Each particle
    owns a counter-based RNG stream (Philox, jumped per particle), drawn in
    fixed order, so trajectories are reproducible bit for bit.  Velocities
    are clamped to 20% of the box width per dimension.  Returns
    (best position, best value, evaluation sweeps used).
    """
    dim = int(dim)
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    bounds = np.asarray(bounds, dtype=float)
    if bounds.shape != (dim, 2):
        raise ValueError(f"bounds must have shape ({dim}, 2), got {bounds.shape}")
    lo, hi = bounds[:, 0], bounds[:, 1]
    if not np.all(np.isfinite(bounds)) or np.any(hi <= lo):
        raise ValueError("bounds must be finite with hi > lo")

    n = cfg.swarm_size
    base = np.random.Philox(cfg.seed)
    streams = [np.random.Generator(base.jumped(i)) for i in range(n)]

    pos = np.empty((n, dim))
    for i, g in enumerate(streams):
        pos[i] = lo + (hi - lo) * g.random(dim)
    if initial_positions is not None:
        init = np.atleast_2d(np.asarray(initial_positions, dtype=float))
        if init.shape[1] != dim or init.shape[0] > n:
            raise ValueError(
                f"initial_positions must be (k <= {n}, {dim}), got {init.shape}"
            )
        pos[: init.shape[0]] = np.clip(init, lo, hi)
    vel = np.zeros((n, dim))
    v_max = 0.2 * (hi - lo)

    def evaluate(p):
        vals = np.asarray(eval_batch(p), dtype=float)
        if vals.shape != (p.shape[0],):
            raise ValueError(
                f"eval_batch must return shape ({p.shape[0]},), got {vals.shape}"
            )
        return np.where(np.isfinite(vals), vals, np.inf)

    fitness = evaluate(pos)
    pbest_pos = pos.copy()
    pbest_val = fitness.copy()
    g_idx = int(np.argmin(pbest_val))
    gbest_pos = pbest_pos[g_idx].copy()
    gbest_val = float(pbest_val[g_idx])
    history = [gbest_val]
    iters = 1

    while iters < cfg.max_iters:
        r1 = np.empty((n, dim))
        r2 = np.empty((n, dim))
        for i, g in enumerate(streams):
            r1[i] = g.random(dim)
            r2[i] = g.random(dim)
        vel = (
            cfg.inertia * vel
            + cfg.cognitive * r1 * (pbest_pos - pos)
            + cfg.social * r2 * (gbest_pos - pos)
        )
        np.clip(vel, -v_max, v_max, out=vel)
        pos = np.clip(pos + vel, lo, hi)

        fitness = evaluate(pos)
        iters += 1
        improved = fitness < pbest_val
        pbest_pos[improved] = pos[improved]
        pbest_val[improved] = fitness[improved]
        g_idx = int(np.argmin(pbest_val))
        if pbest_val[g_idx] < gbest_val:
            gbest_val = float(pbest_val[g_idx])
            gbest_pos = pbest_pos[g_idx].copy()
        history.append(gbest_val)

        if len(history) > cfg.stall_iters:
            if history[-1 - cfg.stall_iters] - history[-1] < cfg.stall_tol:
                break
    return gbest_pos.copy(), gbest_val, iters


def _cache_rows(n: int, grid, fs: float) -> tuple[list[int], list[int], list[int]]:
    """Per grid frequency: the response cache's tail, its decimation step and its rows, over n basis rows."""
    tails = [int(np.ceil(_CACHE_TAIL_PERIODS * fs / fn)) for fn in grid]
    steps = [max(int(fs / (_CACHE_SAMPLES_PER_PERIOD * fn)), 1) for fn in grid]
    return tails, steps, [-(-(n + tail) // step) for tail, step in zip(tails, steps)]


class _BandResponseCache:
    """Per-frequency SDOF responses of every basis column, stacked.

    Row block k (rows ``starts[k]`` up to the next start) holds the
    q_srs-oscillator response at grid frequency k to each basis column
    (driven samples plus a two-period free-decay tail), decimated to the
    ``_CACHE_SAMPLES_PER_PERIOD`` step; SRS(A @ x) on the grid is then the
    per-block peak of |R_k @ x|.  Stored float64 in one Fortran-order
    matrix: on OpenBLAS the skinny (particles x columns) products run
    faster in dgemm than in sgemm, and each block's transpose is a strided
    view that BLAS takes without a copy.

    Each block is split into ``_CHUNK_ROWS``-row chunks, and ``_env`` holds
    every chunk's column-wise peak magnitude.  ``_env @ |x|`` then bounds
    |R_r @ x| over each chunk's rows, and ``srs_values`` multiplies out, one
    at a time, only the chunks whose bound, with a rounding slack, beats the
    peak of the best-bounded chunk of their block, writing their exact peaks
    over their bounds; the per-block max of the bounds is the full scan's.
    ``_carry`` keeps the last batch, every chunk's peak for it (or the
    bound, where skipped) and its ``_env @ |x|``, which bound the next batch
    of its shape more tightly; the eye probe and the first batch of a new
    shape use the envelope alone.

    ``matrix`` reserves every row, but commits a chunk only once written.
    The build solves each block's all-pole part in one workspace sized for
    the longest block, then takes each chunk's seed (the all-pole state w of
    the two samples before it), rows and envelope from it a chunk at a time,
    and stores the chunks holding a column's peak, which the diagonal probe
    reads.  ``_peak`` filters any other chunk from its seed, bit for bit as
    in the whole block, when the search first multiplies it out.
    """

    def __init__(self, basis: BasisMatrix, grid: np.ndarray, q_srs: float):
        fs = basis.sample_rate
        n, m = basis.columns.shape
        tails, steps, rows = _cache_rows(n, grid, fs)
        edges = np.concatenate([[0], np.cumsum(rows)]).astype(np.intp)
        n_bytes = int(edges[-1]) * m * 8
        # Chunks of _CHUNK_ROWS rows; a block's last chunk takes any one-row
        # remainder, since numpy sends a one-row operand to gemv, which
        # rounds differently from the gemm of the full block.
        chunks = [np.arange(s, e - 1, _CHUNK_ROWS) for s, e in zip(edges[:-1], edges[1:])]
        counts = [c.size for c in chunks]
        self._chunk_edges = np.append(np.concatenate(chunks), edges[-1])
        self._block_chunks = np.concatenate([[0], np.cumsum(counts)])
        self._chunk_block = np.repeat(np.arange(grid.size), counts)
        self._env = np.empty((self._chunk_block.size, m))
        self._seeds = np.zeros((self._chunk_block.size, 2, m))
        self._filled = np.zeros(self._chunk_block.size, dtype=bool)
        self._carry = None  # the last batch, its chunk peaks and env @ |x|
        self._filters = [_sdof_coeffs(fn, q_srs, 1.0 / fs) for fn in grid]
        self._steps, self.starts, self.grid = steps, edges[:-1], grid
        # Anonymous memory, committed a page at a time on first write, without
        # the 2 MiB huge pages numpy asks for on arrays of 4 MiB and more.
        try:
            buf = mmap.mmap(-1, n_bytes)
        except OSError as exc:
            raise ValueError(f"could not reserve {n_bytes:,} bytes for the response cache: {exc}") from None
        if hasattr(mmap, "MADV_NOHUGEPAGE"):
            buf.madvise(mmap.MADV_NOHUGEPAGE)
        self.matrix = np.ndarray((edges[-1], m), buffer=buf, order="F")
        self._columns = basis.columns
        work = np.empty((n + max(tails)) * m)  # every block's all-pole solve, in turn
        for k, ((_, a), tail) in enumerate(zip(self._filters, tails)):
            c0, c1 = self._block_chunks[k], self._block_chunks[k + 1]
            w = _allpole(a, basis.columns, out=work[: (n + tail) * m].reshape(-1, m, order="F"))
            self._seeds[c0 + 1 : c1] = w[(self._chunk_edges[c0 + 1 : c1, None] - edges[k]) * steps[k] - [2, 1]]
            for c in range(c0, c1):
                np.abs(self._rows(c, w)).max(axis=0, out=self._env[c])
            for c in set(np.argmax(self._env[c0:c1], axis=0).tolist()):
                self._store(c0 + c, self._rows(c0 + c, w))

    def _rows(self, c, w=None):
        """Chunk c's rows, from its block's whole all-pole output w or else from its seed."""
        k = self._chunk_block[c]
        r0, r1 = self._chunk_edges[c : c + 2] - self.starts[k]
        (b, a), step, lead = self._filters[k], self._steps[k], 2 if r0 else 0
        span = slice(r0 * step - lead, (r1 - 1) * step + 1)
        if w is None:  # the seed, then the basis rows and zeros past its end
            w = np.empty((span.stop - span.start, self._columns.shape[1]), order="F")
            w = _allpole(a, self._columns[span.start + lead : span.stop], self._seeds[c] if lead else None, w)
            span = slice(None)
        return _fir3(b, w[span], step, lead)

    def _store(self, c, rows):
        self.matrix[self._chunk_edges[c] : self._chunk_edges[c + 1]] = rows
        self._filled[c] = True

    def srs_values(self, coeff_block: np.ndarray) -> np.ndarray:
        """(n_particles, dim) coefficients -> (n_grid, n_particles) SRS.

        Equal to the per-block peak of |matrix @ x| over every row, but only
        the chunks whose bound can still beat a peak already found are
        multiplied out.  Every particle's values are bit-identical whatever
        batch it comes in: a lone particle is evaluated as a two-row block,
        because numpy sends a one-row product to gemv, which rounds
        differently from gemm.

        A batch of the previous batch's shape is bounded through that batch
        as well: |R_r x| <= |R_r x_prev| + |R_r| |x - x_prev| for every row
        r, so each chunk's bound is at most its peak for x_prev plus
        env @ |x - x_prev|, which is small while the swarm converges.
        """
        x = np.array(coeff_block, dtype=float)  # a copy: the next batch reads it
        n_particles = x.shape[0]
        if n_particles == 1:
            x = np.vstack([x, x])
        reach = self._env @ np.abs(x).T
        bound = reach * (1.0 + _BOUND_SLACK)
        if self._carry is not None and self._carry[0].shape == x.shape:
            # Each carried peak P is within n_columns * 2**-53 of
            # env @ |x_prev| of the exact one, or is a bound that already
            # holds its own slack; the difference term and this product
            # round by as little relative to env @ (|x| + |x_prev|), which
            # the slack covers as it covers the plain bound.  fmin takes
            # the plain bound where a NaN in x_prev made the carried one NaN.
            x_prev, peaks_prev, reach_prev = self._carry
            carried = peaks_prev + self._env @ np.abs(x - x_prev).T + _BOUND_SLACK * (reach + reach_prev)
            np.fmin(bound, carried, out=bound)
        # Pass 1: each block's chunk with the largest bound is multiplied out,
        # and its exact peak is the block's running peak.  Multiplying a chunk
        # out overwrites its bound with its exact peaks, which the next batch
        # carries.
        score = bound.max(axis=1)
        pairs = zip(self._block_chunks[:-1], self._block_chunks[1:])
        lead = np.array([c0 + np.argmax(score[c0:c1]) for c0, c1 in pairs])
        for c in lead:
            self._peak(x, c, bound)
        # Pass 2: every other chunk whose bound beats its block's lead peak
        # for some particle.  A NaN coefficient makes the lead peak NaN, and
        # NaN compares False against every bound, so its chunks stay skipped.
        live = np.any(bound > bound[lead][self._chunk_block], axis=1)
        for c in np.flatnonzero(live):
            self._peak(x, c, bound)
        self._carry = (x, bound, reach)
        # Each chunk holds its exact peaks, or a bound no larger than its lead
        # peak for every particle, so each block's max is its peak (or NaN).
        return np.maximum.reduceat(bound, self._block_chunks[:-1], axis=0)[:, :n_particles]

    def _peak(self, x, c, peaks):
        """Chunk c's row max of |x @ R.T| into peaks[c], filling the chunk from its seed on first use."""
        if not self._filled[c]:
            self._store(c, self._rows(c))
        y = x @ self.matrix[self._chunk_edges[c] : self._chunk_edges[c + 1]].T
        np.abs(y, out=y).max(axis=1, out=peaks[c])


def _diag_refine(cache, warm, s_target, center_idx, steps=12, relax=0.7):
    """Deterministic per-band fixed-point polish of a coefficient vector.

    Repeatedly rescales each coefficient by (target/achieved)^relax at its
    own center frequency.  Cheap, and lands close enough to the optimum
    that the swarm only has to do local work.
    """
    x = warm.copy()
    for _ in range(steps):
        ach = cache.srs_values(x[None, :])[center_idx, 0]
        x *= (s_target / np.maximum(ach, 1e-30)) ** relax
    return x


def synthesize(
    spec: SrsSpec,
    reference: Signal,
    layout: BankLayout,
    cfg: PsoConfig,
    q_srs: float = 10.0,
) -> SynthesisResult:
    """End-to-end synthesis: basis, warm start, swarm, canonical verification.

    Per-dimension bounds are +-bounds_scale times the warm-start estimate
    target(fc_i)/SRS(a_i)(fc_i); one particle is seeded at the positive
    warm start itself (coefficients may go negative, the bases being
    sign-symmetric oscillations).  Failure to meet the tolerance is not an
    error; it is reported through ``srs_report.passed``.  A ``q_srs`` or a
    grid the SRS cannot use is rejected before the basis and cache are built.  So is work over ``signal_core._budget``:
    the final SRS's rows, or the bytes of the basis (columns, frozen copy, a filter's input and output) and cache.
    """
    target = _target_curve(spec, layout)
    grid, fs = target.freqs, reference.sample_rate
    n, m = _basis_rows(len(reference), layout.centers, fs)[0], layout.centers.size
    _srs_rows(n, grid, q_srs, fs)
    advice = f"raise the lowest center ({layout.centers[0]:.6g} Hz) or lower ppo ({layout.points_per_octave})"
    _budget("synthesis", nbytes=16 * n * (m + 1) + 8 * m * sum(_cache_rows(n, grid, fs)[2]), advice=advice)
    basis = build_basis(reference, layout)
    cache = _BandResponseCache(basis, grid, q_srs)

    # Per-band diagonal estimate: each column's SRS at its own center.
    center_idx = np.searchsorted(grid, layout.centers)
    diag = cache.srs_values(np.eye(basis.n_columns))[center_idx, np.arange(basis.n_columns)]
    if np.any(diag <= 0.0):
        raise ValueError("basis column with zero SRS at its own center")
    s_target = target.values[center_idx]
    warm = s_target / diag
    half_width = cfg.bounds_scale * warm
    bounds = np.column_stack([-half_width, half_width])

    floor = _SRS_FLOOR_REL * float(np.max(target.values))
    log_target = np.log10(target.values)[:, None]

    def eval_batch(block):
        vals = np.maximum(cache.srs_values(block), floor)
        return np.linalg.norm(np.log10(vals) - log_target, axis=0)

    seeds = np.vstack([warm, _diag_refine(cache, warm, s_target, center_idx)])
    x_best, _, iters = pso_minimize(basis.n_columns, eval_batch, bounds, cfg, seeds)

    synthesized = Signal(basis.sample_rate, basis.columns @ x_best, reference.t0)
    achieved = srs(synthesized, grid, q_srs)
    report = db_error(achieved, target, spec.tolerance_db)
    residuals = residual_motion(synthesized, 1e-3)
    return SynthesisResult(
        coefficients=x_best, synthesized=synthesized, srs_report=report, residuals=residuals, iterations_used=iters,
        objective_value=_log_error_norm(achieved.values, target), achieved=achieved, target=target,
    )


def verify(
    sig: Signal,
    spec: SrsSpec,
    q_srs: float = 10.0,
    net_zero_tol: float = 1e-3,
    ppo: int = 6,
) -> tuple[DbErrorReport, ResidualReport]:
    """Standalone re-verification of any signal against a spec."""
    net_zero_tol = _scalar("net_zero_tol", net_zero_tol, above=0.0)  # before the SRS runs
    target = _target_curve(spec, make_layout(spec.freqs[0], spec.freqs[-1], ppo))
    achieved = srs(sig, target.freqs, q_srs)
    return db_error(achieved, target, spec.tolerance_db), residual_motion(sig, net_zero_tol)


def _json_num(value):
    value = float(value)
    return value if np.isfinite(value) else None


def build_report(
    achieved: SrsCurve,
    target: SrsCurve,
    srs_report: DbErrorReport,
    residuals: ResidualReport,
    objective_value=None,
    iterations=None,
    seed=None,
) -> dict:
    """Assemble the JSON-ready verification report dictionary.

    Non-finite numbers (the -inf dB of a zeroed band) serialize as null to
    keep the output strict JSON.
    """
    per_freq = [
        {"freq_hz": float(f), "srs": float(s), "target": float(t), "err_db": _json_num(e)}
        for f, s, t, e in zip(achieved.freqs, achieved.values, target.values, srs_report.per_freq_db)
    ]
    return {
        "pass_srs": bool(srs_report.passed),
        "pass_net_zero": bool(residuals.passed),
        "max_abs_db": _json_num(srs_report.max_abs_db),
        "per_freq": per_freq,
        "residual_velocity_ratio": float(residuals.residual_velocity_ratio),
        "residual_displacement_ratio": float(residuals.residual_displacement_ratio),
        "objective": None if objective_value is None else float(objective_value),
        "iterations": None if iterations is None else int(iterations),
        "seed": None if seed is None else int(seed),
    }


def write_report(report: dict, path) -> None:
    """Write a report dictionary as UTF-8 JSON with a trailing newline."""
    Path(path).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
