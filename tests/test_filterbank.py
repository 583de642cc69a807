"""Bank layout, basis assembly, and the four-coordinate ratios."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shocksynth import (
    NoBandEnergyError,
    NzdfParams,
    Signal,
    apply_filter,
    build_basis,
    discretize,
    four_coordinate_check,
    impulse_response,
    make_layout,
    residual_motion,
    synth_reference,
)
from shocksynth import filterbank, signal_core
from shocksynth.signal_core import _frozen


def test_layout_sixth_octave():
    layout = make_layout(100.0, 10_000.0, 6)
    c = layout.centers
    assert c.size == 41
    assert c[0] == pytest.approx(100.0, rel=1e-12)
    np.testing.assert_allclose(c[1:] / c[:-1], 2.0 ** (1.0 / 6.0), rtol=1e-12)
    assert c[33] == pytest.approx(4525.483, rel=1e-6)
    assert c[-1] == pytest.approx(10159.366, rel=1e-6)
    # one step past the top so the full range is covered
    assert c[-2] < 10_000.0 <= c[-1]


def test_layout_exact_grid_endpoint():
    # fmax exactly on the grid must not gain an extra point
    layout = make_layout(100.0, 400.0, 1)
    np.testing.assert_allclose(layout.centers, [100.0, 200.0, 400.0], rtol=1e-12)
    layout = make_layout(100.0, 300.0, 1)
    np.testing.assert_allclose(layout.centers, [100.0, 200.0, 400.0], rtol=1e-12)


def test_layout_point_limit_is_checked_before_the_grid_is_built():
    from shocksynth.filterbank import _MAX_GRID_POINTS

    # 15,000 per octave over log2(100) octaves is 99,659 points, 16,000 is 106,302
    assert make_layout(100.0, 10_000.0, 15_000).centers.size == 99_659
    # too many points in all, too many per octave (any ppo, even past float
    # range), and ppo over the limit on a range too narrow for one step
    for fmin, fmax, ppo in [(100.0, 10_000.0, 16_000), (100.0, 10_000.0, 10**400), (1.0, 1.0 + 2**-52, 10**400)]:
        with pytest.raises(ValueError, match=f"^ppo={ppo} points per octave from fmin=.* over the {_MAX_GRID_POINTS:,}-point"):
            make_layout(fmin, fmax, ppo)


def test_layout_validation():
    with pytest.raises(ValueError):
        make_layout(0.0, 1000.0)
    with pytest.raises(ValueError):
        make_layout(1000.0, 1000.0)
    with pytest.raises(ValueError):
        make_layout(100.0, 1000.0, 0)


@pytest.fixture(scope="module")
def small_case():
    ref = synth_reference(fs=50_000.0, duration=0.02, fmax=5000.0, seed=2)
    layout = make_layout(1000.0, 4000.0, 3)
    return ref, layout, build_basis(ref, layout)


def test_basis_shape_and_norms(small_case):
    ref, layout, basis = small_case
    fs = ref.sample_rate
    pad_max = int(np.ceil(NzdfParams(layout.centers[0]).ring_down_time * fs))
    assert basis.columns.shape == (len(ref) + pad_max, layout.centers.size)
    assert basis.sample_rate == fs
    # unit peaks, norms carry the physical amplitude
    np.testing.assert_allclose(np.max(np.abs(basis.columns), axis=0), 1.0, rtol=0, atol=1e-15)
    assert np.all(basis.norms > 0.0)


def test_basis_column_is_filtered_reference(small_case):
    ref, layout, basis = small_case
    fs = ref.sample_rate
    fc = layout.centers[2]
    pad_max = int(np.ceil(NzdfParams(layout.centers[0]).ring_down_time * fs))
    pad_own = int(np.ceil(NzdfParams(fc).ring_down_time * fs))
    extended = np.concatenate([ref.samples, np.zeros(pad_max - pad_own)])
    out = apply_filter(discretize(NzdfParams(fc), fs), Signal(fs, extended))
    np.testing.assert_allclose(
        basis.columns[:, 2] * basis.norms[2], out.samples, rtol=1e-12, atol=1e-15
    )


def test_basis_deterministic(small_case):
    ref, layout, basis = small_case
    again = build_basis(ref, layout)
    np.testing.assert_array_equal(basis.columns, again.columns)
    np.testing.assert_array_equal(basis.norms, again.norms)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(data=st.data())
def test_any_basis_mix_is_net_zero_property(small_case, data):
    # every column is net-zero and the mix is linear, so any mix is too
    _, _, basis = small_case
    n = basis.n_columns
    weight = st.floats(-1.0, 1.0).filter(lambda w: abs(w) >= 1e-3)
    mix = data.draw(st.dictionaries(st.integers(0, n - 1), weight, min_size=1))
    x = np.zeros(n)
    x[list(mix)] = list(mix.values())
    report = residual_motion(Signal(basis.sample_rate, basis.columns @ x), 1e-3)
    assert report.passed, (report.residual_velocity_ratio, report.residual_displacement_ratio)


class _Charged(Exception):
    pass


def _basis_charge(monkeypatch, ref, layout):
    """The bytes ``build_basis`` asks ``_budget`` for, stopped before its matrix is allocated."""
    asked = []

    def charge(what, rows=0, nbytes=0, advice=""):
        asked.append(nbytes)
        raise _Charged

    with monkeypatch.context() as m:
        m.setattr(filterbank, "_budget", charge)
        with pytest.raises(_Charged):
            build_basis(ref, layout)
    [nbytes] = asked
    return nbytes


def test_build_basis_holds_the_basis_once(monkeypatch):
    # the README reference and bank: build_basis fills one array, freezes it
    # in place and hands it over, so BasisMatrix keeps it without a copy and
    # the build peaks at the basis plus one column's filter workspace, within
    # what it charges
    ref, layout = synth_reference(seed=1), make_layout(100.0, 10_000.0)
    need = _basis_charge(monkeypatch, ref, layout)
    tracemalloc.start()
    try:
        with pytest.warns(UserWarning, match="close to Nyquist"):
            basis = build_basis(ref, layout)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert basis.columns.flags.owndata and not basis.columns.flags.writeable
    assert peak < 1.5 * basis.columns.nbytes, (peak, basis.columns.nbytes)
    assert peak <= need, (peak, need)


def test_build_basis_is_refused_below_its_charge_before_any_filter(monkeypatch):
    # the README reference and bank: the matrix and one column's run are
    # charged before the matrix is allocated, and the build runs at the charge
    ref, layout = synth_reference(seed=1), make_layout(100.0, 10_000.0)
    need = _basis_charge(monkeypatch, ref, layout)

    def filtering(*args):
        raise AssertionError("a column was filtered before the budget was checked")

    monkeypatch.setattr(signal_core, "_MAX_BYTES", need - 1)
    with monkeypatch.context() as m:
        m.setattr(filterbank, "apply_filter", filtering)
        with pytest.raises(ValueError, match=re.escape(
            f"basis would hold {need:.3g} bytes, over the {need - 1:,}-byte limit; "
            "raise the lowest center (100 Hz) or lower ppo (6)"
        )):
            build_basis(ref, layout)
    monkeypatch.setattr(signal_core, "_MAX_BYTES", need)
    with pytest.warns(UserWarning, match="close to Nyquist"):
        assert build_basis(ref, layout).n_columns == 41


def test_frozen_aliases_only_a_read_only_owning_float64_array():
    frozen = np.arange(6.0)
    frozen.setflags(write=False)
    assert _frozen(frozen) is frozen
    writable = np.arange(6.0)
    view = frozen[1:]
    single = np.arange(6.0, dtype=np.float32)
    single.setflags(write=False)
    swapped = np.arange(6.0).astype(">f8")
    swapped.setflags(write=False)

    class Sub(np.ndarray):
        pass

    sub = np.arange(6.0).view(Sub).copy()
    sub.setflags(write=False)
    for values in (writable, view, single, swapped, sub, [0.0, 1.0]):
        out = _frozen(values)
        assert out is not values and not np.shares_memory(out, np.asarray(values))
        assert type(out) is np.ndarray and out.dtype == np.float64 and not out.flags.writeable
        np.testing.assert_array_equal(out, np.asarray(values, dtype=float))


def test_basis_rate_guards():
    ref = synth_reference(fs=50_000.0, duration=0.02, fmax=5000.0, seed=2)
    with pytest.raises(ValueError, match="2.5x"):
        build_basis(Signal(8000.0, ref.samples), make_layout(1000.0, 4000.0, 3))
    with pytest.warns(UserWarning, match="close to Nyquist"):
        build_basis(ref, make_layout(1000.0, 8000.0, 3))


def test_basis_rejects_zero_reference():
    with pytest.raises(NoBandEnergyError):
        build_basis(Signal(50_000.0, np.zeros(100)), make_layout(1000.0, 4000.0, 3))


def test_four_coordinate_on_band_limited_signal():
    # a band-pass impulse response is the narrowband prototype: its peak
    # acceleration, velocity, displacement stay tied by the center frequency
    fc = 1000.0
    h = impulse_response(discretize(NzdfParams(fc), 100_000.0), duration=1e-5)
    rv, rd = four_coordinate_check(h, fc)
    assert rv == pytest.approx(0.9953, abs=5e-3)
    assert rd == pytest.approx(0.9816, abs=5e-3)


def test_four_coordinate_scale_invariant():
    fc = 1000.0
    h = impulse_response(discretize(NzdfParams(fc), 100_000.0), duration=1e-5)
    scaled = h.with_samples(37.5 * h.samples)
    np.testing.assert_allclose(
        four_coordinate_check(h, fc), four_coordinate_check(scaled, fc), rtol=1e-12
    )


def test_four_coordinate_validation():
    sig = Signal(1000.0, np.ones(8))
    with pytest.raises(ValueError):
        four_coordinate_check(sig, 0.0)
    with pytest.raises(ValueError, match="nonzero"):
        four_coordinate_check(Signal(1000.0, np.zeros(8)), 100.0)


def test_column_spectra_peak_near_centers(small_case):
    # each filtered column's spectrum should crest within one grid bin of
    # the filter that produced it
    _, layout, basis = small_case
    n = basis.columns.shape[0]
    freqs = np.fft.rfftfreq(n, 1.0 / basis.sample_rate)
    bin_log = np.log(2.0) / 3.0
    for i, fc in enumerate(layout.centers):
        mag = np.abs(np.fft.rfft(basis.columns[:, i]))
        f_peak = freqs[np.argmax(mag)]
        assert abs(np.log(f_peak / fc)) <= bin_log, (fc, f_peak)
