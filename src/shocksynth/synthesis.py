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
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
from scipy import signal as _sci_signal

from .filterbank import BankLayout, BasisMatrix, build_basis, make_layout
from .signal_core import ResidualReport, Signal, residual_motion
from .srs import DbErrorReport, SrsCurve, SrsSpec, _sdof_coeffs, db_error, spec_interpolate, srs

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
# tail per frequency.
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
        coeffs = np.asarray(self.coefficients, dtype=float).copy()
        coeffs.setflags(write=False)
        object.__setattr__(self, "coefficients", coeffs)


def verification_grid(spec: SrsSpec, layout: BankLayout) -> np.ndarray:
    """Union of the bank centers and the spec breakpoint frequencies."""
    return np.unique(np.concatenate([layout.centers, spec.freqs]))


def objective(x, basis: BasisMatrix, target: SrsCurve, q_srs: float = 10.0) -> float:
    """Euclidean norm of the log10 SRS error of A @ x on the target grid."""
    x = np.asarray(x, dtype=float)
    if x.shape != (basis.n_columns,):
        raise ValueError(f"x must have shape ({basis.n_columns},), got {x.shape}")
    sig = Signal(basis.sample_rate, basis.columns @ x)
    vals = srs(sig, target.freqs, q_srs).values
    floor = _SRS_FLOOR_REL * float(np.max(target.values))
    vals = np.maximum(vals, floor)
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
    """

    def __init__(self, basis: BasisMatrix, grid: np.ndarray, q_srs: float):
        fs = basis.sample_rate
        dt = 1.0 / fs
        n = basis.columns.shape[0]
        tails = [int(np.ceil(_CACHE_TAIL_PERIODS * fs / fn)) for fn in grid]
        steps = [max(int(fs / (_CACHE_SAMPLES_PER_PERIOD * fn)), 1) for fn in grid]
        rows = [-(-(n + tail) // step) for tail, step in zip(tails, steps)]
        edges = np.concatenate([[0], np.cumsum(rows)]).astype(np.intp)
        self.matrix = np.empty((edges[-1], basis.n_columns), order="F")
        for fn, tail, step, s, e in zip(grid, tails, steps, edges[:-1], edges[1:]):
            b, a = _sdof_coeffs(fn, q_srs, dt)
            drive = np.vstack([basis.columns, np.zeros((tail, basis.n_columns))])
            self.matrix[s:e] = _sci_signal.lfilter(b, a, drive, axis=0)[::step]
        self.starts = edges[:-1]
        self._ends = edges[1:]
        self.grid = grid

    def srs_values(self, coeff_block: np.ndarray) -> np.ndarray:
        """(n_particles, dim) coefficients -> (n_grid, n_particles) SRS.

        Every particle's values are bit-identical whatever batch it comes
        in: a lone particle is evaluated as a two-row block, because numpy
        sends a one-row product to gemv, which rounds differently from
        gemm.
        """
        x = np.asarray(coeff_block, dtype=float)
        n_particles = x.shape[0]
        if n_particles == 1:
            x = np.vstack([x, x])
        out = np.empty((self.starts.size, x.shape[0]))
        for k, (s, e) in enumerate(zip(self.starts, self._ends)):
            y = x @ self.matrix[s:e].T
            np.abs(y, out=y)
            y.max(axis=1, out=out[k])
        return out[:, :n_particles]


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
    error; it is reported through ``srs_report.passed``.
    """
    basis = build_basis(reference, layout)
    grid = verification_grid(spec, layout)
    target = spec_interpolate(spec, grid)
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
    obj_value = objective(x_best, basis, target, q_srs)
    return SynthesisResult(
        coefficients=x_best,
        synthesized=synthesized,
        srs_report=report,
        residuals=residuals,
        objective_value=obj_value,
        iterations_used=iters,
        achieved=achieved,
        target=target,
    )


def verify(
    sig: Signal,
    spec: SrsSpec,
    q_srs: float = 10.0,
    net_zero_tol: float = 1e-3,
    ppo: int = 6,
) -> tuple[DbErrorReport, ResidualReport]:
    """Standalone re-verification of any signal against a spec."""
    layout = make_layout(spec.freqs[0], spec.freqs[-1], ppo)
    grid = verification_grid(spec, layout)
    target = spec_interpolate(spec, grid)
    achieved = srs(sig, grid, q_srs)
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
        {
            "freq_hz": float(f),
            "srs": float(s),
            "target": float(t),
            "err_db": _json_num(e),
        }
        for f, s, t, e in zip(
            achieved.freqs, achieved.values, target.values, srs_report.per_freq_db
        )
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
