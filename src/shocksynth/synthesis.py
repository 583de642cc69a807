"""Coefficient search: log-SRS objective, seeded PSO, and verification.

The synthesized signal is the basis matrix times a coefficient vector,
A @ x.  The objective is the Euclidean norm of log10(SRS(A @ x)) -
log10(target) over the verification grid (bank centers plus spec
breakpoints).  A deterministic global-best particle swarm minimizes it,
warm-started from the per-band diagonal estimate target(fc_i)/SRS(a_i)(fc_i).

Inside the swarm loop the SRS is evaluated through a precomputed bank of
SDOF-filtered basis responses: SRS(A @ x) at grid frequency f is the
segment-wise peak of R_f @ x, where R_f holds the f-oscillator response of
every basis column.  Filtering is linear, so the mix needs no refiltering.
The cache stores float32 and multiplies it by the batch in float32: it only
steers the swarm, being approximate where it rounds and where it drops
samples (the decimation, and the free decay past the basis's own
ring-down), and all reported numbers are recomputed afterwards through the
canonical float64 full-rate path.  The search reads a float32 copy of the
basis, and no float64 basis is held while it runs: ``build_basis`` is
deterministic, so ``synthesize`` builds the basis again for the mix A @ x.

The peak search skips most of the cache exactly, for the stored rows.
Each block is cut into fixed chunks of rows, and the cache keeps each
chunk's per-column envelope env[c, j] = max |R[r, j]| over its rows r.
By the triangle inequality |R_r @ x| <= env[c] @ |x| for every row r of
chunk c, up to a float32 rounding slack, so a chunk whose bound does not
exceed a peak already found in its block cannot hold the block's maximum.
Every other chunk is multiplied out on its own, and its bound replaced by
its exact peak, so the largest of a block's bounds is its peak.

The swarm's batches change little from one to the next, so the cache also
keeps the last batch x_prev and each chunk's peak for it, and bounds a
batch of the same shape by that peak plus env[c] @ |x - x_prev| where this
is tighter.  On the launcher spec this cuts the rows multiplied out after
each block's first chunk from 22,000-36,000 to about 9,500 a batch.

A chunk is filtered from its seed the first time it is multiplied out, and
each chunk is one contiguous run of memory, so only the pages of those
chunks are committed: about a seventh (0.15) of the cache on the acceptance
specs, within one page per filled chunk.
"""

from __future__ import annotations

import dataclasses
import json
import mmap
import warnings
from pathlib import Path

import numpy as np

from .filterbank import BankLayout, BasisMatrix, _basis_rows, build_basis, make_layout
from .signal_core import ResidualReport, Signal, _budget, _frozen, _run, _scalar, _whole, residual_motion
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

# float32's unit roundoff.  A stored chunk row R_r (float32, |R_r| <= env
# column by column) times x32, the coefficient row x rounded to float32,
# |x32 - x| <= u |x|, is summed in m float32 multiply-adds, which round it
# by at most gamma_m |R_r| @ |x32|, gamma_m = m u / (1 - m u), in any order
# and with or without FMA (Higham, "Accuracy and Stability of Numerical
# Algorithms", 2nd ed., 3.1).  As (1 + gamma_m)(1 + u) <= 1 + gamma_{m+1},
# the computed |R_r x32| is at most (1 + gamma_{m+1}) env @ |x|.  The bounds
# take gamma_{m+2}: the extra u covers the float64 products and sums that
# form them, each within (m + 3) 2**-53 relative.  Below float32's normal
# range a cast or a product is off by up to 2**-150 (half the smallest
# subnormal) instead, so each bound also adds m (1 + max env) 2**-148: m
# products and m casts, for each of the two batches a carried bound spans.
_U32 = 2.0**-24

# The swarm's inertia, its pulls to each particle's best and the swarm's, and its
# box, +-_BOUNDS_SCALE times the warm start: invented knobs, fixed for determinism.
_INERTIA = 0.72
_COGNITIVE = 1.49
_SOCIAL = 1.49
_BOUNDS_SCALE = 4.0

# _diag_refine's per-band scaling passes, and the power of target/achieved each applies.
_REFINE_STEPS = 12
_REFINE_RELAX = 0.7


@dataclasses.dataclass(frozen=True)
class PsoConfig:
    """Swarm size, iteration cap and seed; frozen for determinism."""

    swarm_size: int = 32
    max_iters: int = 220
    seed: int = 0
    # The stall rule, a class constant: stop once the best has gained less
    # than stall_tol over the last stall_iters iterations.
    stall_iters = 60
    stall_tol = 1e-4

    def __post_init__(self):
        for name, at_least in (("swarm_size", 10), ("max_iters", 1), ("seed", 0)):
            object.__setattr__(self, name, _whole(name, getattr(self, name), at_least))


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
    objective values; non-finite values are treated as +inf.  Particle i owns
    the counter-based RNG stream ``Generator(Philox(seed).jumped(i))``, drawn
    in fixed order, so trajectories are reproducible bit for bit.  The streams
    are numpy's, drawn in lockstep blocks by ``_philox.PhiloxStreams``.  Velocities
    are clamped to 20% of the box width per dimension.  Returns
    (best position, best value, evaluation sweeps used).
    """
    dim = _whole("dim", dim, at_least=1)
    bounds = np.asarray(bounds, dtype=float)
    if bounds.shape != (dim, 2):
        raise ValueError(f"bounds must have shape ({dim}, 2), got {bounds.shape}")
    lo, hi = bounds[:, 0], bounds[:, 1]
    if not np.all(np.isfinite(bounds)) or np.any(hi <= lo):
        raise ValueError("bounds must be finite with hi > lo")

    # Imported here: a command that runs no swarm neither compiles nor holds it.
    from ._philox import PhiloxStreams

    n = cfg.swarm_size
    streams = PhiloxStreams(cfg.seed, n)
    pos = lo + (hi - lo) * streams.random(dim)
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
        r = streams.random(2 * dim)  # each stream's r1, then its r2
        r1, r2 = r[:, :dim], r[:, dim:]
        vel = (
            _INERTIA * vel
            + _COGNITIVE * r1 * (pbest_pos - pos)
            + _SOCIAL * r2 * (gbest_pos - pos)
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


def _cache_rows(n: int, grid, fs: float) -> tuple[list[int], list[int]]:
    """Per grid frequency: the response cache's decimation step and its rows, over n basis rows."""
    steps = [max(int(fs / (_CACHE_SAMPLES_PER_PERIOD * fn)), 1) for fn in grid]
    # A block is the basis rows decimated, with no free-decay tail: every
    # basis column already ends in its own filter's 60 dB ring-down, and the
    # oscillator's free decay after that can only fall.
    return steps, [-(-n // step) for step in steps]


class _BandResponseCache:
    """Per-frequency SDOF responses of every basis column, stacked.

    Row block k (rows ``starts[k]`` up to the next start) holds the
    q_srs-oscillator response at grid frequency k to each of the ``columns``
    (the basis, which ``synthesize`` hands over rounded to float32) over
    their rows, decimated to the ``_CACHE_SAMPLES_PER_PERIOD`` step;
    SRS(A @ x) on the grid is then the per-block peak of |R_k @ x|.  Rows are
    filtered in float64 by ``_rows`` and stored float32, rounded once, in one
    C-order ``matrix``, and a batch is cast to float32 for the products:
    half dgemm's bytes and time.  Each chunk (below) is one contiguous run
    of rows that holds the chunk's columns one after another; ``_views``
    holds each as the C-contiguous (columns, rows) operand that sgemm takes
    without a copy.  A product's bits depend on its operands' shapes.

    Each block is split into ``_CHUNK_ROWS``-row chunks, and ``_env`` holds
    every chunk's column-wise peak stored magnitude (in float64).
    ``_env @ |x|`` then bounds |R_r @ x| over each chunk's rows, and
    ``srs_values`` multiplies out, one at a time, only the chunks whose
    bound, with ``_U32``'s rounding slack, beats the peak of the
    best-bounded chunk of their block, writing their exact peaks over their
    bounds; the per-block max of the bounds is the full scan's, for
    coefficients within float32's range.
    ``_carry`` keeps the last batch, every chunk's peak for it (or the
    bound, where skipped) and its ``_env @ |x|``, which bound the next batch
    of its shape more tightly; the first batch of a new shape uses the
    envelope alone.

    ``matrix`` reserves every row, but commits a chunk's pages only once it
    is written, sharing at most one page with each neighbour.  The build
    keeps only each chunk's envelope and seed (the filter's state before its
    first raw row), and ``_peaks`` fills a chunk from its seed the first time
    the search multiplies it out.
    """

    def __init__(self, columns: np.ndarray, fs: float, grid: np.ndarray, q_srs: float):
        n, m = columns.shape
        steps, rows = _cache_rows(n, grid, fs)
        edges = np.concatenate([[0], np.cumsum(rows)]).astype(np.intp)
        n_bytes = int(edges[-1]) * m * 4
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
        self.matrix = np.ndarray((edges[-1], m), dtype=np.float32, buffer=buf)
        self._views = [self.matrix[s:e].reshape(m, -1) for s, e in zip(self._chunk_edges[:-1], self._chunk_edges[1:])]
        self._columns = columns
        for c in range(self._env.shape[0]):  # each chunk seeds the next
            rows = self._rows(c)
            np.maximum(rows.max(axis=0), -rows.min(axis=0), out=self._env[c])
        # Rounding is monotone and odd, so the largest stored magnitude is the
        # float64 envelope rounded once: what an identity batch reads back.
        # The abs clears the sign that max(max, -min) leaves on a zero column.
        self._env[...] = np.abs(self._env.astype(np.float32))
        # The bounds' rounding slack and absolute term, as _U32's comment derives them
        self._slack = (m + 2) * _U32 / (1.0 - (m + 2) * _U32)
        self._tiny = m * (1.0 + float(self._env.max())) * 2.0**-148

    def _rows(self, c):
        """Chunk c's rows, filtered from its seed (a block's first from rest) a piece at a time.

        A piece is at most ``_CHUNK_ROWS`` raw rows, or one kept row at a longer
        step, of which every step-th is kept.  The run goes over the basis rows
        up to chunk c + 1's first raw row and leaves the filter's state there
        in ``_seeds`` as that chunk's seed: the bits of one run over the whole
        block, every time.
        """
        k = self._chunk_block[c]
        r0, r1 = self._chunk_edges[c : c + 2] - self.starts[k]
        (b, a), step = self._filters[k], self._steps[k]
        y = np.empty((r1 - r0, self._columns.shape[1]))
        seed = self._seeds[c] if r0 else None
        piece = max(_CHUNK_ROWS // step, 1)  # rows kept from each piece
        for q0 in range(r0, r1, piece):
            q1 = min(q0 + piece, r1)
            out, seed = _run(b, a, self._columns[q0 * step : q1 * step], seed)
            y[q0 - r0 : q1 - r0] = out[::step]
        if c + 1 < len(self._seeds):
            self._seeds[c + 1] = seed
        return y

    def _store(self, c, rows):
        self._views[c][...] = rows.T  # rounded to float32
        self._filled[c] = True

    def srs_values(self, coeff_block: np.ndarray) -> np.ndarray:
        """(n_particles, dim) coefficients -> (n_grid, n_particles) SRS.

        Equal to the per-block peak of |matrix @ x| over every row, but only
        the chunks whose bound can still beat a peak already found are
        multiplied out.  Each product is float32: the stored chunk times
        the batch rounded to float32.  A lone particle is evaluated as a
        two-row block, because numpy sends a one-row product to gemv, which
        rounds differently from gemm.

        A batch of the previous batch's shape is bounded through that batch
        as well: |R_r x| <= |R_r x_prev| + |R_r| |x - x_prev| for every row
        r, so each chunk's bound is at most its peak for x_prev plus
        env @ |x - x_prev|, which is small while the swarm converges.
        """
        x = np.array(coeff_block, dtype=float)  # a copy: the next batch reads it
        n_particles = x.shape[0]
        if n_particles == 1:
            x = np.vstack([x, x])
        x32 = x.astype(np.float32)
        reach = self._env @ np.abs(x).T
        bound = reach * (1.0 + self._slack)
        bound += self._tiny
        if self._carry is not None and self._carry[0].shape == x.shape:
            # Each carried peak P is a computed peak for x_prev, within
            # slack * env @ |x_prev| of the exact one, or a bound on it.  The
            # row values for x differ from those for x_prev by at most
            # env @ |x - x_prev| exactly, plus the rounding of both batches'
            # casts and products, which the slack bounds relative to
            # env @ (|x| + |x_prev|).  fmin takes the plain bound where a
            # NaN in x_prev made the carried one NaN.  The carry's arrays
            # are the last batch's, so the sums go into them in place.
            x_prev, carried, slack = self._carry
            carried += self._env @ np.abs(x - x_prev).T
            slack += reach
            slack *= self._slack
            slack += self._tiny
            carried += slack
            np.fmin(bound, carried, out=bound)
        # Pass 1: each block's chunk with the largest bound is multiplied out,
        # and its exact peak is the block's running peak.  Multiplying a chunk
        # out overwrites its bound with its exact peaks, which the next batch
        # carries.
        lead = _first_max(bound.max(axis=1), self._block_chunks[:-1])
        self._peaks(x32, lead, bound)
        # Pass 2: every other chunk whose bound beats its block's lead peak
        # for some particle.  A NaN coefficient makes the lead peak NaN, and
        # NaN compares False against every bound, so its chunks stay skipped.
        live = np.any(bound > bound[lead][self._chunk_block], axis=1)
        self._peaks(x32, np.flatnonzero(live), bound)
        self._carry = (x, bound, reach)
        # Each chunk holds its exact peaks, or a bound no larger than its lead
        # peak for every particle, so each block's max is its peak (or NaN).
        return np.maximum.reduceat(bound, self._block_chunks[:-1], axis=0)[:, :n_particles]

    def _peaks(self, x, chunks, peaks):
        """Each listed chunk c's row max of |x @ R.T| into peaks[c], filling a chunk from its seed on first use.

        The max is taken in float32 and then widened, which is exact.
        """
        views, filled = self._views, self._filled
        for c in chunks.tolist():
            if not filled[c]:
                self._store(c, self._rows(c))
            y = x @ views[c]
            np.abs(y, out=y)
            peaks[c] = y.max(axis=1)


def _first_max(score, starts):
    """Per segment of ``score`` (the segments begin at ``starts``), the index of its first maximum.

    ``np.argmax``'s pick in each segment: the first of tied maxima, and the
    first NaN where there is one.
    """
    top = np.maximum.reduceat(score, starts)  # NaN where the segment holds one
    seg = np.repeat(np.arange(starts.size), np.diff(np.append(starts, score.size)))
    hit = np.flatnonzero((score == top[seg]) | np.isnan(score))
    return hit[np.r_[True, seg[hit[1:]] != seg[hit[:-1]]]]


def _diag_refine(cache, warm, s_target, center_idx):
    """Deterministic per-band fixed-point polish of a coefficient vector.

    Repeatedly rescales each coefficient by (target/achieved)^_REFINE_RELAX at
    its own center frequency.  Cheap, and lands close enough to the optimum
    that the swarm only has to do local work.
    """
    x = warm.copy()
    for _ in range(_REFINE_STEPS):
        ach = cache.srs_values(x[None, :])[center_idx, 0]
        x *= (s_target / np.maximum(ach, 1e-30)) ** _REFINE_RELAX
    return x


def _optimize_bytes(n: int, m: int, grid, fs: float) -> int:
    """Bytes ``_optimize`` reserves for its response cache over n basis rows of m columns."""
    return 4 * m * sum(_cache_rows(n, grid, fs)[1])


def _optimize(columns: np.ndarray, fs: float, target: SrsCurve, center_idx, cfg: PsoConfig, q_srs: float):
    """Coefficients whose mix of the basis ``columns`` (at rate ``fs``) tracks ``target``, and the swarm iterations used.

    The swarm searches the response cache on ``target.freqs`` over +-``_BOUNDS_SCALE`` times the
    estimate target(fc_i)/SRS(a_i)(fc_i), column i's center being ``target.freqs[center_idx[i]]``,
    seeded at that estimate and at ``_diag_refine``'s polish of it (the bases being sign-symmetric
    oscillations, coefficients may go negative).
    """
    # The search runs on the target over the power of two at its peak, which keeps the cache's float32
    # products near 1 for any spec, and its result is scaled back.  Both scalings are exact, so a
    # target scaled by a power of two gives the same search and the scaled coefficients.
    exp = int(np.frexp(np.max(target.values))[1])
    values = np.ldexp(target.values, -exp)  # peaks in [0.5, 1)
    cache = _BandResponseCache(columns, fs, target.freqs, q_srs)
    # Each column's SRS at its own center, its largest chunk envelope there: srs_values(np.eye(m))'s bits.
    m = columns.shape[1]
    diag = np.maximum.reduceat(cache._env, cache._block_chunks[:-1])[center_idx, np.arange(m)]
    if np.any(diag <= 0.0):
        raise ValueError("basis column with zero SRS at its own center")
    s_target = values[center_idx]
    warm = s_target / diag
    bounds = np.column_stack([-_BOUNDS_SCALE * warm, _BOUNDS_SCALE * warm])
    floor = _SRS_FLOOR_REL * float(np.max(values))
    log_target = np.log10(values)[:, None]

    def eval_batch(block):
        vals = np.maximum(cache.srs_values(block), floor)
        return np.linalg.norm(np.log10(vals) - log_target, axis=0)

    seeds = np.vstack([warm, _diag_refine(cache, warm, s_target, center_idx)])
    x_best, _, iters = pso_minimize(m, eval_batch, bounds, cfg, seeds)
    return np.ldexp(x_best, exp), iters


def synthesize(
    spec: SrsSpec,
    reference: Signal,
    layout: BankLayout,
    cfg: PsoConfig,
    q_srs: float = 10.0,
) -> SynthesisResult:
    """End-to-end synthesis: budget, basis, ``_optimize``, canonical verification.

    A ``q_srs`` or a grid the SRS cannot use is rejected before any work, and so is work over
    ``signal_core._budget``: the final SRS's rows, or the bytes of the basis (the float64 columns and
    the search's float32 copy of them, a filter's input and output) and of what ``_optimize`` reserves.
    The search reads only the float32 copy, and the float64 basis is built again for the mix once the
    search is done.  The mix is then checked through the canonical full-rate SRS and residual motion;
    missing the tolerance is reported, not raised.
    """
    target = _target_curve(spec, layout)
    grid, fs = target.freqs, reference.sample_rate
    n, m = _basis_rows(len(reference), layout.centers, fs)[0], layout.centers.size
    _srs_rows(n, grid, q_srs, fs)
    advice = f"raise the lowest center ({layout.centers[0]:.6g} Hz) or lower ppo ({layout.points_per_octave})"
    _budget("synthesis", nbytes=16 * n * (m + 1) + _optimize_bytes(n, m, grid, fs), advice=advice)
    # The search reads a float32 copy of the basis, and no float64 basis is held while it runs.
    search = build_basis(reference, layout).columns.astype(np.float32)
    x_best, iters = _optimize(search, fs, target, np.searchsorted(grid, layout.centers), cfg, q_srs)
    del search
    # build_basis is deterministic, so the mix multiplies the columns the search was rounded from.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the first build has shown its warnings
        basis = build_basis(reference, layout)
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
