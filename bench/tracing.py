"""In-memory spans around calls into shocksynth's modules.

The benchmark installs wrappers on module attributes (the names in
``TRACED``) before it calls the CLI in-process, and removes them after.
Nothing inside ``src/`` is edited: every binding of a traced object in any
``shocksynth`` module is replaced, so calls through ``cli``, ``synthesis``
or ``filterbank`` all land in the same span name.  A name that no longer
exists is reported as absent rather than failing the run.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import time
from pathlib import Path

import numpy as np

# The six modules and the names wrapped in each.  Functions get one span
# per call; the response cache class gets a span around construction and
# around each ``srs_values`` batch.
TRACED = {
    "cli": ["_atomic"],
    "signal_core": ["read_signal", "write_signal", "synth_reference", "residual_motion"],
    "nzdf": ["apply_filter", "discretize"],
    "filterbank": ["build_basis"],
    "srs": ["srs", "read_spec"],
    "synthesis": [
        "synthesize", "verify", "_BandResponseCache", "pso_minimize", "_diag_refine", "objective",
    ],
}

@dataclasses.dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    attrs: dict

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans of one run in memory; ``spans`` is written out at the end."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def start(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), float("nan"), parent, self.run_id, {})
        self.spans.append(span)
        self._stack.append(span)
        return span

    def finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_time(span: Span, spans) -> float:
    """Span duration minus the part of it that its direct children cover."""
    children = [(s.start, s.end) for s in spans if s.parent == span.id]
    return span.duration - covered(children, span.start, span.end)


def outermost(spans, name: str) -> list[Span]:
    """Spans called ``name`` that have no ancestor of the same name."""
    by_id = {s.id: s for s in spans}
    out = []
    for s in spans:
        if s.name != name:
            continue
        p = s.parent
        while p is not None and by_id[p].name != name:
            p = by_id[p].parent
        if p is None:
            out.append(s)
    return out


def total(spans, name: str) -> float:
    return sum(s.duration for s in outermost(spans, name))


def attr_sum(spans, name: str, key: str) -> float:
    return sum(s.attrs.get(key, 0) for s in spans if s.name == name)


def _srs_steps(srs_mod, sig, freqs, q_srs) -> int:
    """Recursion steps of one ``srs`` call: padded record length per frequency."""
    pad = getattr(srs_mod, "_ring_down_samples", None)
    if pad is None:
        return int(len(sig) * freqs.size)
    return int(sum(len(sig) + pad(f, q_srs, sig.sample_rate) for f in freqs))


class _PsoObserver:
    """Wraps ``eval_batch`` to count evaluations that improve the global best."""

    def __init__(self, eval_batch, stall_tol: float):
        self._eval_batch = eval_batch
        self.stall_tol = stall_tol
        self.best = float("inf")
        self.evals = 0
        self.improving = 0
        self.iteration = 0
        self.last_gain_iter = 0

    def __call__(self, block):
        vals = self._eval_batch(block)
        self.iteration += 1
        before = self.best
        for v in np.asarray(vals, dtype=float):
            self.evals += 1
            if np.isfinite(v) and v < self.best:
                self.best = float(v)
                self.improving += 1
        if before - self.best > self.stall_tol:
            self.last_gain_iter = self.iteration
        return vals


class Installed:
    """Wrappers installed on the package; ``restore()`` puts the originals back."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.absent: list[str] = []
        self._undo: list[tuple[object, str, object]] = []
        self._mods = {m: importlib.import_module(f"shocksynth.{m}") for m in TRACED}
        for mod_name, names in TRACED.items():
            for name in names:
                self._install(mod_name, name)

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _install(self, mod_name: str, name: str) -> None:
        home = self._mods[mod_name]
        obj = getattr(home, name, None)
        if obj is None:
            self.absent.append(f"{mod_name}.{name}")
            return
        span_name = f"{mod_name}.{name}"
        if isinstance(obj, type):
            self._install_cache(obj, span_name)
            return
        hook = name.lstrip("_")
        wrapper = self._wrap(
            obj, span_name,
            getattr(self, f"_prepare_{hook}", None), getattr(self, f"_observe_{hook}", None),
        )
        for mod in self._mods.values():
            for attr, value in list(vars(mod).items()):
                if value is obj:
                    self._patch(mod, attr, wrapper)

    def _wrap(self, fn, span_name, prepare, observe):
        tracer = self.tracer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.start(span_name)
            try:
                if prepare is not None:
                    args, kwargs = prepare(span, args, kwargs)
                result = fn(*args, **kwargs)
            finally:
                tracer.finish(span)
            if observe is not None:
                observe(span, args, kwargs, result)
            return result

        return wrapper

    def _install_cache(self, cls, span_name: str) -> None:
        tracer = self.tracer
        init, srs_values = cls.__init__, cls.srs_values

        def traced_init(obj, *args, **kwargs):
            span = tracer.start(span_name)
            try:
                init(obj, *args, **kwargs)
                span.attrs["bytes"] = int(obj.matrix.nbytes + obj.starts.nbytes)
            finally:
                tracer.finish(span)

        def traced_srs_values(obj, coeff_block):
            span = tracer.start(span_name.rsplit(".", 1)[0] + ".srs_values")
            try:
                rows, cols = obj.matrix.shape
                particles = int(np.shape(coeff_block)[0])
                span.attrs["particles"] = particles
                # Computed from shapes: matmul multiply-adds plus the abs and
                # segmented max passes over the (rows, particles) product.
                span.attrs["flops"] = 2 * rows * cols * particles + 2 * rows * particles
                return srs_values(obj, coeff_block)
            finally:
                tracer.finish(span)

        self._patch(cls, "__init__", traced_init)
        self._patch(cls, "srs_values", traced_srs_values)

    @staticmethod
    def _prepare_pso_minimize(span, args, kwargs):
        # synthesize() calls pso_minimize(dim, eval_batch, bounds, cfg, seeds).
        dim, eval_batch, bounds, cfg, *rest = args
        observer = _PsoObserver(eval_batch, float(cfg.stall_tol))
        span.attrs["observer"] = observer
        return (dim, observer, bounds, cfg, *rest), kwargs

    @staticmethod
    def _observe_pso_minimize(span, args, kwargs, result):
        observer = span.attrs.pop("observer")
        span.attrs.update(
            iterations=int(result[2]), evals=observer.evals, improving=observer.improving,
            last_gain_iter=observer.last_gain_iter,
        )

    @staticmethod
    def _observe_atomic(span, args, kwargs, result):
        span.attrs["bytes"] = Path(args[0]).stat().st_size

    @staticmethod
    def _observe_read_signal(span, args, kwargs, result):
        span.attrs["samples"] = len(result)

    @staticmethod
    def _observe_build_basis(span, args, kwargs, result):
        span.attrs["bytes"] = int(result.columns.nbytes)

    def _observe_srs(self, span, args, kwargs, result):
        span.attrs["steps"] = _srs_steps(self._mods["srs"], args[0], result.freqs, result.q_srs)

    def restore(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()


# Per-layer metric -> (wrapped name it needs, span name, measure, unit).
# Measures: "time" sums the outermost spans, "calls" counts them, "self"
# sums their self time; any other word sums that key of the spans' attrs.
_CACHE = "synthesis._BandResponseCache"
_BATCH = "synthesis.srs_values"
_PSO = "synthesis.pso_minimize"
LAYER_METRICS = {
    "cli.write_s": ("cli._atomic", "cli._atomic", "time", "s"),
    "cli.bytes_written": ("cli._atomic", "cli._atomic", "bytes", "B"),
    "signal_core.read_signal_s": ("signal_core.read_signal", "signal_core.read_signal", "time", "s"),
    "signal_core.read_signal_samples": ("signal_core.read_signal", "signal_core.read_signal", "samples", "count"),
    "signal_core.write_signal_s": ("signal_core.write_signal", "signal_core.write_signal", "time", "s"),
    "signal_core.synth_reference_s": ("signal_core.synth_reference", "signal_core.synth_reference", "time", "s"),
    "signal_core.residual_motion_s": ("signal_core.residual_motion", "signal_core.residual_motion", "time", "s"),
    "nzdf.apply_filter_s": ("nzdf.apply_filter", "nzdf.apply_filter", "time", "s"),
    "nzdf.apply_filter_calls": ("nzdf.apply_filter", "nzdf.apply_filter", "calls", "count"),
    "nzdf.discretize_s": ("nzdf.discretize", "nzdf.discretize", "time", "s"),
    "filterbank.build_basis_s": ("filterbank.build_basis", "filterbank.build_basis", "time", "s"),
    "filterbank.basis_bytes": ("filterbank.build_basis", "filterbank.build_basis", "bytes", "B"),
    "srs.srs_s": ("srs.srs", "srs.srs", "time", "s"),
    "srs.srs_calls": ("srs.srs", "srs.srs", "calls", "count"),
    "srs.srs_steps": ("srs.srs", "srs.srs", "steps", "count"),
    "srs.read_spec_s": ("srs.read_spec", "srs.read_spec", "time", "s"),
    "synthesis.cache_build_s": (_CACHE, _CACHE, "time", "s"),
    "synthesis.cache_bytes": (_CACHE, _CACHE, "bytes", "B"),
    "synthesis.batch_s": (_CACHE, _BATCH, "time", "s"),
    "synthesis.batch_calls": (_CACHE, _BATCH, "calls", "count"),
    "synthesis.batch_particles": (_CACHE, _BATCH, "particles", "count"),
    "synthesis.batch_flops": (_CACHE, _BATCH, "flops", "flop"),
    "synthesis.optimizer_s": (_PSO, _PSO, "time", "s"),
    "synthesis.optimizer_self_s": (_PSO, _PSO, "self", "s"),
    "synthesis.iterations": (_PSO, _PSO, "iterations", "count"),
    "synthesis.last_gain_iter": (_PSO, _PSO, "last_gain_iter", "count"),
    "synthesis.diag_refine_s": ("synthesis._diag_refine", "synthesis._diag_refine", "time", "s"),
    "synthesis.objective_s": ("synthesis.objective", "synthesis.objective", "time", "s"),
    "synthesis.synthesize_s": ("synthesis.synthesize", "synthesis.synthesize", "time", "s"),
    "synthesis.verify_s": ("synthesis.verify", "synthesis.verify", "time", "s"),
}


def layer_metrics(spans, absent=()) -> dict:
    """Per-layer metrics (name -> (value, unit)) from one traced pass.

    Metrics of a wrapped name listed in ``absent`` are left out.
    """
    out = {}
    for metric, (needs, name, measure, unit) in LAYER_METRICS.items():
        if needs in absent:
            continue
        if measure == "time":
            value = total(spans, name)
        elif measure == "calls":
            value = len(outermost(spans, name))
        elif measure == "self":
            value = sum(self_time(s, spans) for s in outermost(spans, name))
        else:
            value = attr_sum(spans, name, measure)
        out[metric] = (value, unit)
    if _PSO not in absent:
        evals = attr_sum(spans, _PSO, "evals")
        out["synthesis.useful_evals_frac"] = (attr_sum(spans, _PSO, "improving") / max(evals, 1), "ratio")
    return out


def span_table(spans) -> list[dict]:
    """Per span name: calls, total seconds and self seconds, largest first."""
    rows = {}
    for s in spans:
        row = rows.setdefault(s.name, {"name": s.name, "calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += self_time(s, spans)
    for name, row in rows.items():
        row["total_s"] = total(spans, name)
    return sorted(rows.values(), key=lambda r: -r["total_s"])


def spans_json(spans) -> list[dict]:
    return [
        {
            "id": s.id, "name": s.name, "start": s.start, "end": s.end,
            "parent": s.parent, "run": s.run,
            "attrs": {k: v for k, v in s.attrs.items() if isinstance(v, (int, float, str))},
        }
        for s in spans
    ]
