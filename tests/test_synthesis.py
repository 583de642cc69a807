"""Swarm optimizer, response cache, end-to-end synthesis, and reports."""

import errno
import json
import mmap
import re
import sys
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
from shocksynth.signal_core import _run
from shocksynth.srs import _sdof_coeffs
from shocksynth.synthesis import _BandResponseCache, _first_max


def test_pso_config_validation():
    with pytest.raises(ValueError):
        PsoConfig(swarm_size=5)
    with pytest.raises(ValueError):
        PsoConfig(max_iters=0)
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        PsoConfig(seed=-1)


_SPHERE_CENTER = np.array([1.3, -2.1, 0.4, 3.2, -0.7])
_BOX = np.column_stack([-5.0 * np.ones(5), 5.0 * np.ones(5)])


def _sphere(block):
    return np.sum((block - _SPHERE_CENTER) ** 2, axis=1)


def test_pso_sphere_converges():
    cfg = PsoConfig(swarm_size=24, max_iters=150, seed=3)
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

    cfg = PsoConfig(swarm_size=24, max_iters=150, seed=3)
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


@pytest.mark.parametrize("bounds", [[[-1e308, 1e308]], [[-8e307, 8e307]], [[1e308, 1.7e308]]],
                         ids=["width", "velocity", "move"])
def test_pso_refuses_bounds_near_the_float_range_before_any_draw(bounds):
    # each overflowed in the swarm's arithmetic (hi - lo, the velocity or pos + vel),
    # which tier-1 turns into an error; the amplitude range refuses them by name
    def never(block):
        raise AssertionError("evaluated")

    message = f"bounds must be finite and between -1e+100 and 1e+100, got {bounds[0][0]:.6g} at [0, 0]"
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        pso_minimize(1, never, bounds, PsoConfig(swarm_size=10, max_iters=5))


def test_pso_runs_over_the_widest_bounds_it_takes():
    # no step leaves float range, so no RuntimeWarning, on the box at the amplitude range's
    # limit and on one offset to its end
    edge = 1e100
    for bounds in ([[-edge, edge]], [[edge / 2, edge]], [[-edge, -edge / 2]]):
        pos, val, iters = pso_minimize(1, lambda p: -np.abs(p[:, 0]), bounds, PsoConfig(swarm_size=10, max_iters=40))
        assert iters == 40 and bounds[0][0] <= pos[0] <= bounds[0][1] and val == -abs(pos[0])


def test_pso_refuses_a_nan_initial_position():
    # np.clip keeps a NaN, so the swarm used to start a particle there
    cfg = PsoConfig(swarm_size=12, max_iters=5)
    with pytest.raises(ValueError, match=r"^initial_positions must be finite, got nan at \[0, 2\]$"):
        pso_minimize(5, _sphere, _BOX, cfg, initial_positions=[[0.0, 0.0, np.nan, 0.0, 0.0]])


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
    cache = _cache_of(basis, grid)
    rng = np.random.default_rng(7)
    for _ in range(4):
        x = rng.normal(size=basis.n_columns) * 50.0
        fast = cache.srs_values(x[None, :])[:, 0]
        slow = srs(Signal(basis.sample_rate, basis.columns @ x), grid).values
        assert np.max(np.abs(fast - slow) / slow) < 2.5e-2


def test_cache_batch_matches_single(small_problem):
    _, layout, spec, basis = small_problem
    grid = verification_grid(spec, layout)
    cache = _cache_of(basis, grid)
    rng = np.random.default_rng(8)
    block = rng.normal(size=(5, basis.n_columns))
    batch = cache.srs_values(block)
    for j in range(5):
        np.testing.assert_array_equal(batch[:, j], cache.srs_values(block[j][None, :])[:, 0])


def _cache_of(basis, grid):
    """The response cache ``synthesize`` searches: over the basis columns rounded to float32."""
    return _BandResponseCache(basis.columns.astype(np.float32), basis.sample_rate, grid, 10.0)


@pytest.fixture(scope="module")
def small_cache(small_problem):
    _, layout, spec, basis = small_problem
    return _cache_of(basis, verification_grid(spec, layout))


@pytest.fixture(scope="module")
def eager(small_problem, small_cache):
    """The cache's full layout as one uninterrupted ``_run`` per block computes it, rounded to float32 as stored.

    The cache itself commits only the chunks its peak search reads, so its
    ``matrix`` is no reference for the rows it never filled.
    """
    basis, grid = small_problem[3], small_cache.grid
    fs = basis.sample_rate
    blocks = []
    for fn in grid:
        step = max(int(fs / (synthesis._CACHE_SAMPLES_PER_PERIOD * fn)), 1)
        blocks.append(_run(*_sdof_coeffs(fn, 10.0, 1.0 / fs), basis.columns.astype(np.float32))[0][::step])
    np.testing.assert_array_equal(np.cumsum([0] + [len(b) for b in blocks[:-1]]), small_cache.starts)
    return np.concatenate(blocks).astype(np.float32)


def test_cache_matches_unfused_peak(small_problem, small_cache, eager):
    # the per-block peak is the segmented max of the whole product, rounded
    # in float32 by no more than the bound the search itself derives
    basis, cache = small_problem[3], small_cache
    block = np.random.default_rng(9).normal(size=(32, basis.n_columns)) * 50.0
    unfused = np.maximum.reduceat(np.abs(eager @ block.T), cache.starts, axis=0)
    reach = np.maximum.reduceat(np.abs(eager) @ np.abs(block).T, cache.starts, axis=0)
    assert np.all(np.abs(cache.srs_values(block) - unfused) <= cache._slack * reach + cache._tiny)


def test_cache_batch_slices_exact(small_problem, small_cache):
    basis, cache = small_problem[3], small_cache
    block = np.random.default_rng(10).normal(size=(64, basis.n_columns))
    full = cache.srs_values(block)
    for n_particles in (1, 2, 41):
        np.testing.assert_array_equal(cache.srs_values(block[:n_particles]), full[:, :n_particles])
    # an identity batch, against one column at a time
    eye = np.eye(basis.n_columns)
    diag = cache.srs_values(eye)
    for j in range(basis.n_columns):
        np.testing.assert_array_equal(diag[:, j], cache.srs_values(eye[j : j + 1])[:, 0])


def _chunk_products(matrix, cache, block):
    """|x @ R.T| over each of the cache's chunks of ``matrix``'s rows, multiplied as the cache does.

    A float32 product's bits depend on its operands' shapes, so each chunk
    is its own C-contiguous (columns, rows) operand, and a lone particle is
    two rows.
    """
    x = (np.vstack([block, block]) if len(block) == 1 else block).astype(np.float32)
    edges = cache._chunk_edges
    return [np.abs(x @ np.ascontiguousarray(matrix[s:e].T)) for s, e in zip(edges[:-1], edges[1:])]


def _full_scan(matrix, cache, block):
    """Every row multiplied out, and the segmented max over each block's rows, in float64 as the cache returns it."""
    rows = np.concatenate(_chunk_products(matrix, cache, block), axis=1)
    return np.maximum.reduceat(rows, cache.starts, axis=1).T[:, : len(block)].astype(float)


def _block_peaks(matrix, cache, block):
    """Unpruned reference: every chunk of every block multiplied out, its peak, then the block's."""
    peaks = np.array([y.max(axis=1) for y in _chunk_products(matrix, cache, block)], dtype=float)
    return np.maximum.reduceat(peaks, cache._block_chunks[:-1], axis=0)[:, : len(block)]


def _bits(values):
    values = np.ascontiguousarray(values)
    return values.view(f"i{values.itemsize}")


def test_envelope_peaks_are_the_identity_batch(small_problem, small_cache):
    # synthesize() reads its warm start's diagonal off the chunk envelopes:
    # each block's largest envelope per column is what a one-hot product
    # finds, bit for bit, at every grid frequency
    _, layout, spec, basis = small_problem
    m, center_idx = basis.n_columns, np.searchsorted(small_cache.grid, layout.centers)
    peaks = np.maximum.reduceat(small_cache._env, small_cache._block_chunks[:-1])
    eye = small_cache.srs_values(np.eye(m))
    np.testing.assert_array_equal(_bits(peaks), _bits(eye))
    np.testing.assert_array_equal(_bits(peaks[center_idx, np.arange(m)]), _bits(eye[center_idx, np.arange(m)]))


@pytest.mark.parametrize("chunk_rows", [512, 22])
def test_forcing_every_chunk_gives_eager_rows(small_problem, small_cache, eager, chunk_rows, monkeypatch):
    monkeypatch.setattr(synthesis, "_CHUNK_ROWS", chunk_rows)
    cache = _cache_of(small_problem[3], small_cache.grid)
    # the build keeps envelopes and seeds only; every chunk is filled on first use
    assert not cache._filled.any()
    for c in range(cache._filled.size):
        cache._store(c, cache._rows(c))
    assert cache._filled.all()
    for c in range(cache._filled.size):
        rows = slice(cache._chunk_edges[c], cache._chunk_edges[c + 1])
        np.testing.assert_array_equal(_bits(cache._views[c].T), _bits(eager[rows]))
    np.testing.assert_array_equal(
        cache._env, np.maximum.reduceat(np.abs(eager), cache._chunk_edges[:-1], axis=0)
    )


def test_query_fills_a_chunk_the_build_did_not_store(small_problem, small_cache, eager, monkeypatch):
    # 18-row chunks, as in fine_cache: a 512-row chunk is most of a block here
    monkeypatch.setattr(synthesis, "_CHUNK_ROWS", 18)
    cache = _cache_of(small_problem[3], small_cache.grid)
    block = np.random.default_rng(12).normal(size=(6, small_problem[3].n_columns)) * 50.0
    vals = cache.srs_values(block)
    new = np.flatnonzero(cache._filled)  # the build stores none
    assert 0 < new.size < cache._filled.size
    np.testing.assert_array_equal(vals, _block_peaks(eager, cache, block))
    np.testing.assert_allclose(vals, _full_scan(eager, cache, block), rtol=1e-12, atol=0.0)
    for c in new:
        rows = slice(cache._chunk_edges[c], cache._chunk_edges[c + 1])
        np.testing.assert_array_equal(_bits(cache._views[c].T), _bits(eager[rows]))


def _resident_bytes(address):
    """``Rss`` of the mapping that starts at ``address``, read from ``/proc/self/smaps``."""
    with open("/proc/self/smaps", encoding="utf-8", errors="replace") as fh:
        lines = iter(fh.read().splitlines())
    for line in lines:
        if line.split("-", 1)[0] == f"{address:08x}":  # as the kernel prints it
            break
    else:
        raise AssertionError(f"no mapping starts at {address:#x}")
    for line in lines:
        if line.startswith("Rss:"):
            return 1024 * int(line.split()[1])
    raise AssertionError("mapping has no Rss line")


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/smaps")
def test_filled_chunk_commits_only_its_own_pages(small_problem, small_cache):
    # each chunk is one contiguous run of the matrix, so filling it commits
    # its own pages and at most one page it shares with a neighbour at each end
    cache = _cache_of(small_problem[3], small_cache.grid)
    cache.srs_values(np.random.default_rng(13).normal(size=(32, small_problem[3].n_columns)) * 50.0)
    page, m = mmap.PAGESIZE, cache.matrix.shape[1]
    chunk_bytes = np.diff(cache._chunk_edges)[cache._filled] * m * cache.matrix.itemsize
    allowed = page * int(np.sum(-(-chunk_bytes // page) + 1))
    assert _resident_bytes(cache.matrix.ctypes.data) <= allowed


@pytest.fixture(scope="module")
def fine_cache(small_problem, small_cache):
    # 18-row chunks put 51 to 102 chunks in each block, so pass 2 does real
    # work, and the first block's 919 rows (51 x 18 + 1) end on a one-row
    # remainder
    assert small_cache.starts[1] == 51 * 18 + 1
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(synthesis, "_CHUNK_ROWS", 18)
        return _cache_of(small_problem[3], small_cache.grid)


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
            exact = np.array([y.max(axis=1) for y in _chunk_products(eager, cache, x)])
            assert np.all(peaks >= exact)


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
    rows, peaks = [], cache._peaks

    def counted(x, chunks, out):
        rows.extend(cache._chunk_edges[chunks + 1] - cache._chunk_edges[chunks])
        peaks(x, chunks, out)

    monkeypatch.setattr(cache, "_peaks", counted)

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
    # the build filters one chunk at a time, at most _CHUNK_ROWS raw rows at a
    # time, and keeps only envelopes and seeds.  A piece's filtered rows and
    # state, the chunk's rows, one product and numpy's buffer for its
    # transposing copy are all it holds at once.
    # The matrix itself is an mmap, which tracemalloc does not see
    basis, cache = small_problem[3], small_cache
    (n, m), fs = basis.columns.shape, basis.sample_rate
    steps = synthesis._cache_rows(n, cache.grid, fs)[0]
    raw = 2 + max(synthesis._CHUNK_ROWS, *steps)  # a piece's seed and raw span
    tile = np.diff(cache._chunk_edges).max() * m * 8
    bound = raw * m * 8 + 3 * raw * 8 + cache._env.nbytes + cache._seeds.nbytes + 4 * tile
    columns = basis.columns.astype(np.float32)
    tracemalloc.start()
    try:
        _BandResponseCache(columns, fs, small_cache.grid, 10.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound, (peak, bound)


def test_lead_pick_follows_argmax():
    # each block's lead chunk is the first of tied largest bounds, and the
    # first NaN where a block holds one, as np.argmax picks
    cases = [(np.array([1.0, 3.0, 3.0, np.nan, 2.0, np.nan, 0.0, -0.0, 5.0]), np.array([0, 3, 6, 8]))]
    rng = np.random.default_rng(15)
    values, p = [-np.inf, -0.0, 0.0, 1.0, 2.0, np.nan, np.inf], [0.1, 0.1, 0.1, 0.2, 0.4, 0.05, 0.05]
    for _ in range(20):
        sizes = rng.integers(1, 6, size=12)
        cases.append((rng.choice(values, size=sizes.sum(), p=p), np.concatenate([[0], np.cumsum(sizes)[:-1]])))
    for score, starts in cases:
        ends = np.append(starts[1:], score.size)
        expected = [s0 + np.argmax(score[s0:s1]) for s0, s1 in zip(starts, ends)]
        np.testing.assert_array_equal(_first_max(score, starts), expected)


class _SearchStarted(Exception):
    """Raised in place of ``pso_minimize``: what ``synthesize`` holds once the search begins."""


def test_search_holds_no_float64_basis(monkeypatch):
    # while the swarm runs, synthesize holds the basis rounded to float32
    # and the cache's envelopes and seeds, plus its bookkeeping: a view and
    # three index entries a chunk, the filters, target, warm start and box,
    # each no larger than the grid or the columns.  The float64 basis is
    # rebuilt for the mix once the search is done.  The matrix itself is an
    # mmap, which tracemalloc does not see.
    ref = synth_reference(fs=5e4, duration=0.05, fmax=5000.0, seed=2)
    layout = make_layout(1000.0, 4000.0, 3)
    spec = SrsSpec([[1000.0, 500.0], [2000.0, 800.0], [4000.0, 600.0]])
    basis = build_basis(ref, layout)
    caches, traced = [], []

    class Spied(_BandResponseCache):
        def __init__(self, *args):
            super().__init__(*args)
            caches.append(self)

    def started(*args):
        traced.append(tracemalloc.get_traced_memory()[0])
        raise _SearchStarted

    monkeypatch.setattr(synthesis, "_BandResponseCache", Spied)
    monkeypatch.setattr(synthesis, "pso_minimize", started)
    tracemalloc.start()
    try:
        with pytest.raises(_SearchStarted):
            synthesize(spec, ref, layout, _SMALL_CFG)
    finally:
        tracemalloc.stop()
    [cache], [held] = caches, traced
    search = basis.columns.astype(np.float32).nbytes + cache._env.nbytes + cache._seeds.nbytes
    bound = search + 256 * cache._env.shape[0] + 32 * 1024
    assert held <= bound < basis.columns.nbytes, (held, bound, basis.columns.nbytes)


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
    # the basis, the search's float32 copy and the cache's reservation, refused before any is built
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
    cache_term = 4 * m * sum(synthesis._cache_rows(n, grid, ref.sample_rate)[1])
    assert cache_term == _cache_of(basis, grid).matrix.nbytes
    assert peak <= nbytes - cache_term, (peak, nbytes - cache_term)


def test_cache_names_the_bytes_a_refused_reservation_asked_for(small_problem, small_cache, monkeypatch):
    def refuse(*args, **kwargs):
        raise OSError(errno.ENOMEM, "Cannot allocate memory")

    monkeypatch.setattr(synthesis.mmap, "mmap", refuse)
    need = small_cache.matrix.nbytes
    with pytest.raises(ValueError, match=f"could not reserve {need:,} bytes for the response cache"):
        _cache_of(small_problem[3], small_cache.grid)


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
    # the cache keeps a subset of the canonical response samples, rounded
    # in float32 by no more than the bound the search itself derives
    basis, cache = small_problem[3], small_cache
    n = basis.n_columns
    unit = st.floats(-1.0, 1.0, allow_subnormal=False)
    x = np.array(data.draw(st.lists(unit, min_size=n, max_size=n)))
    assume(np.max(np.abs(x)) > 0.1)
    fast, slow = _cache_and_canonical(cache, basis, 50.0 * x)
    reach = np.maximum.reduceat(cache._env @ np.abs(50.0 * x), cache._block_chunks[:-1])
    assert np.all(fast <= slow + cache._slack * reach + cache._tiny)


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


_SMALL_CFG = PsoConfig(swarm_size=16, max_iters=60, seed=5)


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


@pytest.mark.parametrize("k", [150, -150])
def test_spec_scaled_by_a_power_of_two_synthesizes_the_scaled_signal(small_problem, small_result, monkeypatch, k):
    # the search runs on the target over the power of two at its peak, so a
    # spec 2**150 times larger or smaller, past float32's range either way,
    # gives the same search and exactly the scaled signal.  The log-log
    # interpolation rounds the scaled target differently, so the run gets
    # the unscaled target times 2**k, which it is to within that rounding
    ref, layout, spec, _ = small_problem
    scaled_spec = SrsSpec(np.column_stack([spec.freqs, np.ldexp(spec.peaks, k)]))
    scaled = SrsCurve(small_result.target.freqs, np.ldexp(small_result.target.values, k))
    target_curve = synthesis._target_curve

    def exactly_scaled(s, lay):
        np.testing.assert_allclose(target_curve(s, lay).values, scaled.values, rtol=1e-14, atol=0.0)
        return scaled

    monkeypatch.setattr(synthesis, "_target_curve", exactly_scaled)
    res = synthesize(scaled_spec, ref, layout, _SMALL_CFG)
    assert res.synthesized.samples.tobytes() == np.ldexp(small_result.synthesized.samples, k).tobytes()
    assert res.srs_report.max_abs_db == small_result.srs_report.max_abs_db
    assert res.srs_report.passed and res.residuals.passed


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


def test_synthesize_reaches_the_optimizer_only_through_optimize(small_problem, monkeypatch, tmp_path):
    # with _optimize stubbed out, no response cache is built and neither the
    # swarm nor the refine runs, and the stub's coefficients are still checked
    # through the canonical SRS and residual motion into a valid report
    ref, layout, spec, _ = small_problem
    x = np.linspace(0.5, 1.5, layout.centers.size)
    calls = []

    def stub(columns, fs, target, center_idx, cfg, q_srs):
        calls.append((columns, fs, target.freqs[center_idx], cfg, q_srs))
        return x, 7

    def forbidden(*args, **kwargs):
        raise AssertionError("optimizer internals reached outside _optimize")

    monkeypatch.setattr(synthesis, "_optimize", stub)
    for name in ("_BandResponseCache", "pso_minimize", "_diag_refine"):
        monkeypatch.setattr(synthesis, name, forbidden)
    res = synthesize(spec, ref, layout, _SMALL_CFG, 12.0)
    [(columns, fs, centers, cfg, q_srs)] = calls
    basis = build_basis(ref, layout)
    # the search gets the basis rounded to float32, and the mix the float64 basis
    assert columns.dtype == np.float32 and fs == basis.sample_rate
    np.testing.assert_array_equal(_bits(columns), _bits(basis.columns.astype(np.float32)))
    assert np.array_equal(centers, layout.centers)
    assert cfg is _SMALL_CFG and q_srs == 12.0
    assert np.array_equal(res.coefficients, x) and res.iterations_used == 7
    assert np.array_equal(res.synthesized.samples, basis.columns @ x)
    assert res.achieved.q_srs == 12.0 and res.residuals.passed
    assert np.isfinite(res.srs_report.max_abs_db) and np.isfinite(res.objective_value)

    path = tmp_path / "report.json"
    write_report(build_report(res.achieved, res.target, res.srs_report, res.residuals,
                              res.objective_value, res.iterations_used, cfg.seed), path)
    rep = json.loads(path.read_text(encoding="utf-8"))
    assert rep["iterations"] == 7 and rep["pass_net_zero"] is True
    assert rep["max_abs_db"] == res.srs_report.max_abs_db
    assert [row["freq_hz"] for row in rep["per_freq"]] == res.target.freqs.tolist()
