"""Swarm optimizer, response cache, end-to-end synthesis, and reports."""

import json

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


def test_cache_matches_unfused_peak(small_problem, small_cache):
    # the per-block peak equals the segmented max of the whole product
    basis, cache = small_problem[3], small_cache
    block = np.random.default_rng(9).normal(size=(32, basis.n_columns)) * 50.0
    unfused = np.maximum.reduceat(np.abs(cache.matrix @ block.T), cache.starts, axis=0)
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
