"""Swarm optimizer, response cache, end-to-end synthesis, and reports."""

import errno
import json
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shocksynth import (
    PsoConfig,
    Signal,
    SrsCurve,
    SrsSpec,
    build_basis,
    build_report,
    db_error,
    make_layout,
    objective,
    pso_minimize,
    srs,
    synth_reference,
    synthesize,
    verification_grid,
    verify,
    write_report,
)
from shocksynth import signal_core, synthesis
from shocksynth.signal_core import _iir2
from shocksynth.srs import _sdof_coeffs
from shocksynth.synthesis import _BandResponseCache


def test_pso_config_validation():
    with pytest.raises(ValueError):
        PsoConfig(swarm_size=5)
    with pytest.raises(ValueError):
        PsoConfig(max_iters=0)
    with pytest.raises(ValueError):
        PsoConfig(inertia=float("nan"))
    with pytest.raises(ValueError):
        PsoConfig(bounds_scale=0.0)
    with pytest.raises(ValueError):
        PsoConfig(stall_iters=0)


_SPHERE_CENTER = np.array([1.3, -2.1, 0.4, 3.2, -0.7])
_BOX = np.column_stack([-5.0 * np.ones(5), 5.0 * np.ones(5)])


def _sphere(block):
    return np.sum((block - _SPHERE_CENTER) ** 2, axis=1)


def test_pso_sphere_converges():
    cfg = PsoConfig(swarm_size=24, max_iters=150, stall_iters=150, stall_tol=0.0, seed=3)
    pos, val, iters = pso_minimize(5, _sphere, _BOX, cfg)
    assert val < 1e-6
    assert np.linalg.norm(pos - _SPHERE_CENTER) < 1e-2
    assert 1 <= iters <= 150


def test_pso_bit_determinism():
    cfg = PsoConfig(swarm_size=24, max_iters=50, seed=3)
    a = pso_minimize(5, _sphere, _BOX, cfg)
    b = pso_minimize(5, _sphere, _BOX, cfg)
    assert np.array_equal(a[0], b[0])
    assert a[1] == b[1] and a[2] == b[2]
    c = pso_minimize(5, _sphere, _BOX, PsoConfig(swarm_size=24, max_iters=50, seed=4))
    assert not np.array_equal(a[0], c[0])


def test_pso_seeded_optimum_sticks():
    # the global best can only improve, so a seeded optimum is never lost
    cfg = PsoConfig(swarm_size=12, max_iters=5, seed=0)
    _, val, _ = pso_minimize(5, _sphere, _BOX, cfg, initial_positions=_SPHERE_CENTER[None, :])
    assert val <= 1e-12


def test_pso_nonfinite_fitness_treated_as_worst():
    def holed(block):
        v = _sphere(block)
        v[np.linalg.norm(block, axis=1) > 4.5] = np.nan
        return v

    cfg = PsoConfig(swarm_size=24, max_iters=150, stall_iters=150, stall_tol=0.0, seed=3)
    _, val, _ = pso_minimize(5, holed, _BOX, cfg)
    assert np.isfinite(val) and val < 1e-6


def test_pso_validation():
    cfg = PsoConfig(swarm_size=12, max_iters=5)
    with pytest.raises(ValueError):
        pso_minimize(0, _sphere, np.empty((0, 2)), cfg)
    with pytest.raises(ValueError):
        pso_minimize(5, _sphere, _BOX[:, :1], cfg)
    with pytest.raises(ValueError):
        pso_minimize(5, _sphere, np.fliplr(_BOX), cfg)
    with pytest.raises(ValueError):
        pso_minimize(5, _sphere, _BOX, cfg, initial_positions=np.zeros((1, 4)))
    with pytest.raises(ValueError):
        pso_minimize(5, _sphere, _BOX, cfg, initial_positions=np.zeros((13, 5)))
    with pytest.raises(ValueError):
        pso_minimize(5, lambda block: np.zeros(3), _BOX, cfg)


@pytest.fixture(scope="module")
def small_problem():
    ref = synth_reference(fs=5e4, duration=0.02, fmax=5000.0, seed=2)
    layout = make_layout(1000.0, 4000.0, 3)
    spec = SrsSpec([[1000.0, 500.0], [2000.0, 800.0], [4000.0, 600.0]])
    return ref, layout, spec, build_basis(ref, layout)


def test_verification_grid_is_np_unique_bit_for_bit():
    rng = np.random.default_rng(4)
    for n in (1, 2, 3, 8, 41, 200):
        for pool in (
            rng.uniform(50.0, 1e4, n),
            rng.choice(rng.uniform(50.0, 1e4, 5), n),  # duplicates
            rng.integers(1, 4, n) * 100.0,
        ):
            k = int(rng.integers(0, n + 1))
            grid = verification_grid(SimpleNamespace(freqs=pool[:k]), SimpleNamespace(centers=pool[k:]))
            assert grid.tobytes() == np.unique(pool).tobytes(), (n, k, pool)


def test_verification_grid_union(small_problem):
    _, layout, _, _ = small_problem
    spec = SrsSpec([[900.0, 500.0], [2000.0, 800.0], [4100.0, 600.0]])
    grid = verification_grid(spec, layout)
    assert np.all(np.diff(grid) > 0.0)
    for f in (900.0, 4100.0, 2000.0):
        assert f in grid
    for c in layout.centers:
        assert c in grid
    # 2000 Hz is both a breakpoint and a center; the union holds it once
    assert grid.size == layout.centers.size + 2


def test_objective_validation_and_floor(small_problem):
    _, layout, spec, basis = small_problem
    target = SrsCurve(layout.centers, np.full(layout.centers.size, 100.0))
    with pytest.raises(ValueError):
        objective(np.zeros(3), basis, target)
    # all-zero coefficients hit the SRS floor but stay finite
    assert np.isfinite(objective(np.zeros(basis.n_columns), basis, target))


def test_cache_tracks_canonical_srs(small_problem):
    _, layout, spec, basis = small_problem
    grid = verification_grid(spec, layout)
    cache = _BandResponseCache(basis, grid, 10.0)
    rng = np.random.default_rng(7)
    for _ in range(4):
        x = rng.normal(size=basis.n_columns) * 50.0
        fast = cache.srs_values(x[None, :])[:, 0]
        slow = srs(Signal(basis.sample_rate, basis.columns @ x), grid).values
        assert np.max(np.abs(fast - slow) / slow) < 2.5e-2


def test_cache_batch_matches_single(small_problem):
    _, layout, spec, basis = small_problem
    grid = verification_grid(spec, layout)
    cache = _BandResponseCache(basis, grid, 10.0)
    rng = np.random.default_rng(8)
    block = rng.normal(size=(5, basis.n_columns))
    batch = cache.srs_values(block)
    for j in range(5):
        np.testing.assert_array_equal(batch[:, j], cache.srs_values(block[j][None, :])[:, 0])


@pytest.fixture(scope="module")
def small_cache(small_problem):
    _, layout, spec, basis = small_problem
    return _BandResponseCache(basis, verification_grid(spec, layout), 10.0)


@pytest.fixture(scope="module")
def eager(small_problem, small_cache):
    """The cache's full layout as one uninterrupted ``_iir2`` per block computes it.

    The cache itself commits only the chunks its peak search reads, so its
    ``matrix`` is no reference for the rows it never filled.
    """
    basis, grid = small_problem[3], small_cache.grid
    fs, n = basis.sample_rate, basis.columns.shape[0]
    blocks = []
    for fn in grid:
        tail = int(np.ceil(synthesis._CACHE_TAIL_PERIODS * fs / fn))
        step = max(int(fs / (synthesis._CACHE_SAMPLES_PER_PERIOD * fn)), 1)
        drive = np.zeros((n + tail, basis.n_columns))
        drive[:n] = basis.columns
        blocks.append(_iir2(*_sdof_coeffs(fn, 10.0, 1.0 / fs), drive, step))
    np.testing.assert_array_equal(np.cumsum([0] + [len(b) for b in blocks[:-1]]), small_cache.starts)
    return np.asfortranarray(np.concatenate(blocks))


def test_cache_matches_unfused_peak(small_problem, small_cache, eager):
    # the per-block peak equals the segmented max of the whole product
    basis, cache = small_problem[3], small_cache
    block = np.random.default_rng(9).normal(size=(32, basis.n_columns)) * 50.0
    unfused = np.maximum.reduceat(np.abs(eager @ block.T), cache.starts, axis=0)
    np.testing.assert_allclose(cache.srs_values(block), unfused, rtol=1e-12, atol=0.0)


def test_cache_batch_slices_exact(small_problem, small_cache):
    basis, cache = small_problem[3], small_cache
    block = np.random.default_rng(10).normal(size=(64, basis.n_columns))
    full = cache.srs_values(block)
    for n_particles in (1, 2, 41):
        np.testing.assert_array_equal(cache.srs_values(block[:n_particles]), full[:, :n_particles])
    # the diagonal probe that synthesize() makes, against one column at a time
    eye = np.eye(basis.n_columns)
    diag = cache.srs_values(eye)
    for j in range(basis.n_columns):
        np.testing.assert_array_equal(diag[:, j], cache.srs_values(eye[j : j + 1])[:, 0])


def _full_scan(matrix, cache, block):
    return np.maximum.reduceat(np.abs(matrix @ block.T), cache.starts, axis=0)


def _block_peaks(matrix, cache, block):
    """Unpruned reference: every row of every block multiplied out."""
    x = np.vstack([block, block]) if len(block) == 1 else block
    edges = np.append(cache.starts, matrix.shape[0])
    peaks = [np.abs(x @ matrix[s:e].T).max(axis=1) for s, e in zip(edges[:-1], edges[1:])]
    return np.array(peaks)[:, : len(block)]


def _bits(values):
    return np.ascontiguousarray(values).view(np.int64)


@pytest.mark.parametrize("chunk_rows", [512, 22])
def test_forcing_every_chunk_gives_eager_rows(small_problem, small_cache, eager, chunk_rows, monkeypatch):
    monkeypatch.setattr(synthesis, "_CHUNK_ROWS", chunk_rows)
    cache = _BandResponseCache(small_problem[3], small_cache.grid, 10.0)
    stored = cache._filled.copy()
    assert stored.any() and not stored.all()
    # the build stores each block's chunks that hold some column's peak
    for k in range(cache.starts.size):
        c0, c1 = cache._block_chunks[k : k + 2]
        peaks = c0 + np.argmax(cache._env[c0:c1], axis=0)
        assert set(np.flatnonzero(stored[c0:c1]) + c0) == set(peaks)
    for c in np.flatnonzero(~stored):
        cache._store(c, cache._rows(c))
    assert cache._filled.all()
    np.testing.assert_array_equal(_bits(cache.matrix), _bits(eager))
    np.testing.assert_array_equal(
        cache._env, np.maximum.reduceat(np.abs(eager), cache._chunk_edges[:-1], axis=0)
    )


def test_query_fills_a_chunk_the_build_did_not_store(small_problem, small_cache, eager, monkeypatch):
    # 22-row chunks, as in fine_cache: a 512-row chunk is most of a block here
    monkeypatch.setattr(synthesis, "_CHUNK_ROWS", 22)
    cache = _BandResponseCache(small_problem[3], small_cache.grid, 10.0)
    stored = cache._filled.copy()
    block = np.random.default_rng(12).normal(size=(6, small_problem[3].n_columns)) * 50.0
    vals = cache.srs_values(block)
    new = np.flatnonzero(cache._filled & ~stored)
    assert new.size
    np.testing.assert_array_equal(vals, _block_peaks(eager, cache, block))
    np.testing.assert_allclose(vals, _full_scan(eager, cache, block), rtol=1e-12, atol=0.0)
    for c in new:
        rows = slice(cache._chunk_edges[c], cache._chunk_edges[c + 1])
        np.testing.assert_array_equal(_bits(cache.matrix[rows]), _bits(eager[rows]))


@pytest.fixture(scope="module")
def fine_cache(small_problem, small_cache):
    # 22-row chunks put 44 to 87 chunks in each block, so pass 2 does real
    # work, and the first block's 969 rows (44 x 22 + 1) end on a one-row
    # remainder
    assert small_cache.starts[1] % 22 == 1
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(synthesis, "_CHUNK_ROWS", 22)
        return _BandResponseCache(small_problem[3], small_cache.grid, 10.0)


def test_fine_cache_has_no_one_row_chunk(fine_cache):
    # numpy sends a one-row operand to gemv, which rounds unlike gemm
    assert np.diff(fine_cache._chunk_edges).min() >= 2


def _block_of_kind(n, kind, rows=None):
    """1 to 33 coefficient rows, or ``rows`` of them, all of one kind."""
    unit = st.floats(-1.0, 1.0, allow_subnormal=False)
    row = {
        "sparse": st.dictionaries(st.integers(0, n - 1), unit, max_size=3).map(
            lambda d: [d.get(j, 0.0) for j in range(n)]
        ),
        "one_hot": st.tuples(st.integers(0, n - 1), st.sampled_from([-1.0, 1.0])).map(
            lambda t: [t[1] if j == t[0] else 0.0 for j in range(n)]
        ),
        "sign_mixed": st.lists(unit, min_size=n, max_size=n),
        "zero": st.just([0.0] * n),
    }[kind]
    return st.lists(row, min_size=rows or 1, max_size=rows or 33)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(data=st.data())
def test_pruned_peak_matches_full_scan_property(small_problem, small_cache, fine_cache, eager, data):
    # skipping chunks whose envelope bound cannot win is exact
    kind = data.draw(st.sampled_from(["sparse", "one_hot", "sign_mixed", "zero"]))
    n = small_problem[3].n_columns
    block = 50.0 * np.array(data.draw(_block_of_kind(n, kind)))
    for cache in (small_cache, fine_cache):
        vals = cache.srs_values(block)
        np.testing.assert_allclose(vals, _full_scan(eager, cache, block), rtol=1e-12, atol=0.0)
        np.testing.assert_array_equal(vals, _block_peaks(eager, cache, block))


@settings(derandomize=True, max_examples=25, deadline=None)
@given(data=st.data())
def test_carried_bound_matches_full_scan_property(small_problem, small_cache, fine_cache, eager, data):
    # a batch of the last one's shape is bounded through it as well; skipping
    # stays exact whatever came before, down to the bit
    n = small_problem[3].n_columns
    blocks = []
    for _ in range(data.draw(st.integers(2, 6))):
        shape = data.draw(st.sampled_from([1, 2, 41, "eye", "again"] if blocks else [1, 2, 41, "eye"]))
        if shape == "again":  # the last batch once more, or nudged
            block = blocks[-1] * (1.0 + data.draw(st.sampled_from([0.0, 2.0**-52, 1e-6])))
        elif shape == "eye":
            block = np.eye(n) * 10.0 ** data.draw(st.integers(-6, 6))
        else:
            kind = data.draw(st.sampled_from(["sparse", "one_hot", "sign_mixed", "zero"]))
            block = np.array(data.draw(_block_of_kind(n, kind, shape))) * 10.0 ** data.draw(st.integers(-6, 6))
        blocks.append(block)
        for cache in (small_cache, fine_cache):
            vals = cache.srs_values(block)
            np.testing.assert_array_equal(_bits(vals), _bits(_block_peaks(eager, cache, block)))
            # what the next batch is bounded through: each chunk's peak or more
            x, peaks = cache._carry[:2]
            exact = np.maximum.reduceat(np.abs(x @ eager.T), cache._chunk_edges[:-1], axis=1)
            assert np.all(peaks >= exact.T)


@pytest.mark.parametrize("cache_name", ["small_cache", "fine_cache"])
@pytest.mark.parametrize("n_particles", [1, 4])
def test_batch_after_a_nan_batch_of_its_shape_is_exact(small_problem, eager, cache_name, n_particles, request):
    # the carried bound is NaN for a particle that was NaN last batch; it
    # must fall back to the envelope bound, not skip every chunk
    cache = request.getfixturevalue(cache_name)
    rng = np.random.default_rng(13)
    block = rng.normal(size=(n_particles, small_problem[3].n_columns)) * 50.0
    block[0, 3] = np.nan
    cache.srs_values(block)
    assert np.isnan(cache._carry[1]).any()  # the carried chunk peaks
    finite = rng.normal(size=block.shape) * 50.0
    vals = cache.srs_values(finite)
    np.testing.assert_array_equal(_bits(vals), _bits(_block_peaks(eager, cache, finite)))
    np.testing.assert_allclose(vals, _full_scan(eager, cache, finite), rtol=1e-12, atol=0.0)


def test_carried_bound_multiplies_fewer_rows(small_problem, fine_cache, eager, monkeypatch):
    # a swarm closing in on x*: each batch differs little from the last, so
    # bounding it through the last one's chunk peaks skips more chunks
    cache, n = fine_cache, small_problem[3].n_columns
    rng = np.random.default_rng(14)
    x_star = rng.normal(size=n) * 50.0
    batches = [x_star + 0.5**t * rng.normal(size=(8, n)) * 50.0 for t in range(16)]
    rows, peak = [], cache._peak

    def counted(x, c, peaks):
        rows.append(cache._chunk_edges[c + 1] - cache._chunk_edges[c])
        peak(x, c, peaks)

    monkeypatch.setattr(cache, "_peak", counted)

    def multiplied(carry):
        rows.clear()
        cache._carry = None
        for block in batches:
            vals = cache.srs_values(block)
            np.testing.assert_array_equal(_bits(vals), _bits(_block_peaks(eager, cache, block)))
            if not carry:
                cache._carry = None
        return sum(rows)

    plain, carried = multiplied(False), multiplied(True)
    assert carried < plain


@pytest.mark.parametrize("cache_name", ["small_cache", "fine_cache"])
def test_nan_coefficient_reaches_every_frequency(small_problem, eager, cache_name, request):
    cache = request.getfixturevalue(cache_name)
    block = np.random.default_rng(11).normal(size=(4, small_problem[3].n_columns)) * 50.0
    block[1, 3] = np.nan
    vals, full = cache.srs_values(block), _full_scan(eager, cache, block)
    assert np.all(np.isnan(vals[:, 1])) and np.all(np.isnan(full[:, 1]))
    assert np.all(np.isnan(cache.srs_values(block[1:2])))
    keep = [0, 2, 3]
    np.testing.assert_allclose(vals[:, keep], full[:, keep], rtol=1e-12, atol=0.0)


def test_cache_build_peak_is_one_workspace(small_problem, small_cache):
    # the build solves every block in one all-pole workspace sized for the
    # longest, and takes each chunk's rows from it a tile at a time; the
    # matrix itself is an mmap, which tracemalloc does not see
    basis = small_problem[3]
    (n, m), fs = basis.columns.shape, basis.sample_rate
    rows = n + max(int(np.ceil(synthesis._CACHE_TAIL_PERIODS * fs / fn)) for fn in small_cache.grid)
    tile = np.diff(small_cache._chunk_edges).max() * m * 8
    bound = rows * m * 8 + 3 * rows * 8 + small_cache._env.nbytes + small_cache._seeds.nbytes + 2 * tile
    tracemalloc.start()
    try:
        _BandResponseCache(basis, small_cache.grid, 10.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound


class _Built(Exception):
    """Raised in place of ``build_basis``: the budget let ``synthesize`` start its work."""


def _built(*args):
    raise _Built


def _budget_asked(monkeypatch, spec, ref, layout):
    """The bytes ``synthesize`` asks ``_budget`` for, stopped where its work would start."""
    asked = []
    monkeypatch.setattr(synthesis, "_budget", lambda what, rows=0, nbytes=0, advice="": asked.append(nbytes))
    monkeypatch.setattr(synthesis, "build_basis", _built)
    with pytest.raises(_Built):
        synthesize(spec, ref, layout, PsoConfig())
    [nbytes] = asked
    return nbytes


def test_cache_rejects_over_budget(small_problem, small_cache, monkeypatch):
    # the basis, its frozen copy and the cache's reservation, refused before any is built
    ref, layout, spec, basis = small_problem
    need = _budget_asked(monkeypatch, spec, ref, layout)
    assert need > 2 * basis.columns.nbytes + small_cache.matrix.nbytes
    monkeypatch.undo()
    monkeypatch.setattr(signal_core, "_MAX_BYTES", need - 1)
    monkeypatch.setattr(synthesis, "build_basis", _built)
    with pytest.raises(ValueError, match=re.escape(f"synthesis would hold {need:.3g} bytes, over the {need - 1:,}-byte")):
        synthesize(spec, ref, layout, PsoConfig())
    monkeypatch.setattr(signal_core, "_MAX_BYTES", need)
    with pytest.raises(_Built):
        synthesize(spec, ref, layout, PsoConfig())


def test_synthesis_budget_terms_bound_what_they_count():
    # the README plateau run: the cache term, from the one row count the
    # cache is built with, is its matrix to the byte, and the rest of the
    # estimate, the basis term, bounds build_basis's peak
    ref, layout = synth_reference(seed=1), make_layout(100.0, 10_000.0)
    spec = SrsSpec([[100.0, 300.0], [1800.0, 10_000.0], [10_000.0, 10_000.0]])
    with pytest.MonkeyPatch.context() as mp:
        nbytes = _budget_asked(mp, spec, ref, layout)
    tracemalloc.start()
    try:
        basis = build_basis(ref, layout)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    (n, m), grid = basis.columns.shape, verification_grid(spec, layout)
    cache_term = 8 * m * sum(synthesis._cache_rows(n, grid, ref.sample_rate)[2])
    assert cache_term == _BandResponseCache(basis, grid, 10.0).matrix.nbytes
    assert peak <= nbytes - cache_term, (peak, nbytes - cache_term)


def test_cache_names_the_bytes_a_refused_reservation_asked_for(small_problem, small_cache, monkeypatch):
    def refuse(*args, **kwargs):
        raise OSError(errno.ENOMEM, "Cannot allocate memory")

    monkeypatch.setattr(synthesis.mmap, "mmap", refuse)
    need = small_cache.matrix.nbytes
    with pytest.raises(ValueError, match=f"could not reserve {need:,} bytes for the response cache"):
        _BandResponseCache(small_problem[3], small_cache.grid, 10.0)


def _cache_and_canonical(cache, basis, x):
    fast = cache.srs_values(x[None, :])[:, 0]
    slow = srs(Signal(basis.sample_rate, basis.columns @ x), cache.grid).values
    return fast, slow


@settings(derandomize=True, max_examples=25, deadline=None)
@given(data=st.data())
def test_cache_tracks_canonical_srs_property(small_problem, small_cache, data):
    # every column mixed in, none more than 20 dB below the largest
    basis = small_problem[3]
    n = basis.n_columns
    mags = data.draw(st.lists(st.floats(0.1, 1.0), min_size=n, max_size=n))
    negative = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    x = np.where(negative, -50.0, 50.0) * np.array(mags)
    fast, slow = _cache_and_canonical(small_cache, basis, x)
    assert np.max(np.abs(fast - slow) / slow) < 2.5e-2


@settings(derandomize=True, max_examples=25, deadline=None)
@given(data=st.data())
def test_cache_never_over_reads_property(small_problem, small_cache, data):
    # the cache keeps a subset of the canonical response samples
    basis = small_problem[3]
    n = basis.n_columns
    unit = st.floats(-1.0, 1.0, allow_subnormal=False)
    x = np.array(data.draw(st.lists(unit, min_size=n, max_size=n)))
    assume(np.max(np.abs(x)) > 0.1)
    fast, slow = _cache_and_canonical(small_cache, basis, 50.0 * x)
    assert np.all(fast <= slow * (1.0 + 1e-9))


@pytest.mark.xfail(
    strict=True,
    reason="decimation keeps ~20 samples per period of the grid frequency, "
    "so it under-reads a response dominated by a column tuned well above it",
)
def test_cache_tracks_single_off_resonance_column(small_problem, small_cache):
    basis, grid = small_problem[3], small_cache.grid
    x = np.zeros(basis.n_columns)
    x[np.searchsorted(small_problem[1].centers, 2519.0)] = 50.0
    fast, slow = _cache_and_canonical(small_cache, basis, x)
    k = np.searchsorted(grid, 1000.0)
    assert abs(fast[k] - slow[k]) / slow[k] < 2.5e-2


_SMALL_CFG = PsoConfig(swarm_size=16, max_iters=60, stall_iters=30, seed=5)


@pytest.fixture(scope="module")
def small_result(small_problem):
    ref, layout, spec, _ = small_problem
    return synthesize(spec, ref, layout, _SMALL_CFG)


def test_synthesize_meets_spec(small_result):
    res = small_result
    assert res.srs_report.passed
    assert res.srs_report.max_abs_db < 0.5
    assert np.all(np.abs(res.srs_report.per_freq_db) < 0.5)
    assert res.residuals.passed
    assert res.residuals.residual_velocity_ratio < 1e-3
    assert res.residuals.residual_displacement_ratio < 1e-3
    assert 1 <= res.iterations_used <= _SMALL_CFG.max_iters
    assert np.isfinite(res.objective_value)


def test_synthesize_deterministic(small_problem, small_result):
    ref, layout, spec, _ = small_problem
    again = synthesize(spec, ref, layout, _SMALL_CFG)
    assert np.array_equal(again.coefficients, small_result.coefficients)
    assert np.array_equal(again.synthesized.samples, small_result.synthesized.samples)


def test_objective_value_matches_objective(small_problem, small_result):
    # synthesize() scores its canonical SRS rather than recomputing it
    basis = small_problem[3]
    again = objective(small_result.coefficients, basis, small_result.target)
    assert small_result.objective_value == again


def test_verify_agrees_with_synthesize(small_problem, small_result):
    _, _, spec, _ = small_problem
    db_rep, res_rep = verify(small_result.synthesized, spec, ppo=3)
    assert db_rep.max_abs_db == small_result.srs_report.max_abs_db
    assert res_rep.passed


def test_report_structure(small_result, tmp_path):
    res = small_result
    rep = build_report(
        res.achieved,
        res.target,
        res.srs_report,
        res.residuals,
        res.objective_value,
        res.iterations_used,
        _SMALL_CFG.seed,
    )
    assert set(rep.keys()) == {
        "pass_srs",
        "pass_net_zero",
        "max_abs_db",
        "per_freq",
        "residual_velocity_ratio",
        "residual_displacement_ratio",
        "objective",
        "iterations",
        "seed",
    }
    assert rep["pass_srs"] is True and rep["pass_net_zero"] is True
    assert len(rep["per_freq"]) == res.achieved.freqs.size
    row = rep["per_freq"][0]
    assert set(row.keys()) == {"freq_hz", "srs", "target", "err_db"}
    assert rep["seed"] == 5 and rep["iterations"] == res.iterations_used

    path = tmp_path / "report.json"
    write_report(rep, path)
    text = path.read_text(encoding="utf-8")
    assert text.endswith("\n")
    assert json.loads(text) == rep


def test_report_serializes_floor_as_null(small_result):
    res = small_result
    zeroed = SrsCurve(res.target.freqs, np.zeros(res.target.freqs.size))
    rep_db = db_error(zeroed, res.target, 3.0)
    from shocksynth import residual_motion

    rep = build_report(zeroed, res.target, rep_db, residual_motion(res.synthesized))
    assert rep["max_abs_db"] is None
    assert all(row["err_db"] is None for row in rep["per_freq"])
    assert rep["objective"] is None and rep["seed"] is None
    # null must survive serialization as strict JSON
    assert json.loads(json.dumps(rep))["max_abs_db"] is None
