"""Analog filter math, discretization, and the gammatone contrast."""

import re
import tracemalloc

import numpy as np
import pytest
from scipy import signal as sci_signal

from shocksynth import (
    DigitalNzdf,
    GammatoneParams,
    NzdfParams,
    apply_filter,
    beta_to_q,
    discretize,
    gammatone_impulse,
    group_delay,
    impulse_response,
    nzdf_gain,
    q_to_beta,
    residual_motion,
    synth_reference,
    validate_order,
)
from shocksynth import nzdf, signal_core
from shocksynth.signal_core import _MAX_BYTES, Signal, _ring_down_factor


def test_validate_order_table():
    table = {
        (2, 2): True,
        (3, 2): True,
        (1, 2): False,
        (4, 2): False,
        (2, 3): True,
        (5, 3): True,
        (6, 3): False,
    }
    for (m, n), expected in table.items():
        assert validate_order(m, n) is expected, (m, n)


def test_validate_order_errors():
    with pytest.raises(ValueError):
        validate_order(2, 0)
    with pytest.raises(ValueError):
        validate_order(2.5, 2)


def test_params_validation():
    with pytest.raises(ValueError):
        NzdfParams(0.0)
    with pytest.raises(ValueError):
        NzdfParams(1000.0, q=0.5)
    with pytest.raises(ValueError):
        NzdfParams(1000.0, order=2, numerator_power=4)


def test_unity_gain_at_center():
    for fc in (10.0, 100.0, 1000.0, 10_000.0):
        for q in (0.8, 2.0, 5.0, 20.0):
            for order, m in ((2, 2), (2, 3), (3, 2), (3, 4)):
                p = NzdfParams(fc, q=q, order=order, numerator_power=m)
                assert abs(abs(nzdf_gain(fc, p)) - 1.0) < 1e-12, (fc, q, order, m)


def test_magnitude_closed_form():
    # default shape: |H(x*fc)| = x^2 / (Q^2 (1 - x^2)^2 + x^2)
    p = NzdfParams(1000.0)
    q = p.q
    for x in (0.3, 0.7, 0.905, 1.0, 1.105, np.sqrt(2.0), 3.0):
        expected = x * x / (q * q * (1.0 - x * x) ** 2 + x * x)
        assert abs(nzdf_gain(x * 1000.0, p)) == pytest.approx(expected, rel=1e-12)


def test_magnitude_landmarks():
    p = NzdfParams(1000.0)
    assert abs(nzdf_gain(np.sqrt(2.0) * 1000.0, p)) == pytest.approx(2.0 / 27.0, rel=1e-12)
    # gain one sixth-octave step off center
    assert abs(nzdf_gain(2.0 ** (1.0 / 6.0) * 1000.0, p)) == pytest.approx(0.42725, abs=5e-4)


def _beta_sweep(q, fc=1000.0):
    """Numeric 3 dB bandwidth: brute crossing search plus bisection."""
    p = NzdfParams(fc, q=q)
    f = np.linspace(0.3 * fc, 2.5 * fc, 200_001)
    above = np.abs(nzdf_gain(f, p)) >= 2.0 ** -0.5
    idx = np.flatnonzero(np.diff(above.astype(int)))
    assert idx.size == 2
    edges = []
    for i in idx:
        lo, hi = f[i], f[i + 1]
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if (abs(nzdf_gain(mid, p)) >= 2.0 ** -0.5) == above[i]:
                lo = mid
            else:
                hi = mid
        edges.append(0.5 * (lo + hi))
    return (edges[1] - edges[0]) / fc


def test_q_to_beta_against_sweep():
    for q in (2.0, 5.0, 12.0):
        assert q_to_beta(q) == pytest.approx(_beta_sweep(q), rel=1e-6)


def test_q_to_beta_reference_point():
    assert q_to_beta(5.0) == pytest.approx(0.12871885058111662, rel=1e-12)
    assert q_to_beta(5.0) == pytest.approx(0.12872, rel=0.01)


def test_q_to_beta_asymptote():
    # narrowband limit: beta ~ sqrt(sqrt(2) - 1) / q
    assert q_to_beta(1000.0) * 1000.0 == pytest.approx(np.sqrt(np.sqrt(2.0) - 1.0), rel=1e-4)


def test_beta_to_q_reference_point():
    q = beta_to_q(0.1225)
    assert 5.0 <= q <= 5.5
    assert q == pytest.approx(5.2538, abs=2e-3)


def test_beta_q_roundtrip():
    for q in (0.9, 1.5, 3.0, 5.0, 8.0, 20.0, 100.0):
        assert beta_to_q(q_to_beta(q)) == pytest.approx(q, rel=1e-6)


def test_beta_q_roundtrip_is_exact_over_the_documented_range():
    # q_to_beta is sqrt(sqrt(2) - 1) / q and beta_to_q its exact inverse
    for q in np.geomspace(0.8, 1e4, 121):
        assert beta_to_q(q_to_beta(q)) == pytest.approx(q, rel=1e-13)
        assert q_to_beta(q) * q == pytest.approx(np.sqrt(np.sqrt(2.0) - 1.0), rel=1e-15)


def test_beta_to_q_range_errors():
    with pytest.raises(ValueError):
        beta_to_q(10.0)
    with pytest.raises(ValueError):
        beta_to_q(1e-6)
    with pytest.raises(ValueError):
        q_to_beta(0.4)


def _numeric_group_delay(p):
    w = 2.0 * np.pi * p.center_freq
    dw = 1e-6 * w
    f = np.linspace((w - dw) / (2.0 * np.pi), (w + dw) / (2.0 * np.pi), 101)
    phase = np.unwrap(np.angle(nzdf_gain(f, p)))
    return -(phase[-1] - phase[0]) / (2.0 * dw)


def test_group_delay_formula():
    for fc in (100.0, 1000.0, 10_000.0):
        p = NzdfParams(fc)
        tau = group_delay(p)
        assert tau == pytest.approx(2.0 * p.order * p.q / p.omega, rel=1e-12)
        assert _numeric_group_delay(p) == pytest.approx(tau, rel=0.1)


def test_discretize_center_pinned():
    for fc in (100.0, 1000.0, 4000.0):
        filt = discretize(NzdfParams(fc), 100_000.0)
        assert abs(abs(filt.frequency_response([fc])[0]) - 1.0) < 1e-12


def test_discretize_tracks_analog():
    fc = 1000.0
    filt = discretize(NzdfParams(fc), 100.0 * fc)
    f = np.geomspace(fc / 2.0, 2.0 * fc, 301)
    digital = np.abs(filt.frequency_response(f))
    analog = np.abs(nzdf_gain(f, filt.params))
    assert np.max(np.abs(digital - analog) / analog) < 5e-3


def test_discretize_rate_guards():
    p = NzdfParams(1000.0)
    with pytest.raises(ValueError):
        discretize(p, 2000.0)
    with pytest.warns(UserWarning, match="below 10"):
        discretize(p, 8000.0)


@pytest.mark.parametrize("params", [NzdfParams(1000.0, q=1e300), NzdfParams(1e-300)], ids=["q=1e300", "fc=1e-300"])
def test_a_pole_pair_on_the_unit_circle_is_refused_before_the_gain_pin(params):
    # a2 rounds to exactly 1, so the pin would divide by a zero response at fc;
    # tier-1 turns the RuntimeWarning it would raise into an error
    with pytest.raises(ValueError, match="^discretized section has a pole on or outside the unit circle$"):
        discretize(params, 1e5)


def test_digital_sos_pole_check():
    p = NzdfParams(1000.0)
    unstable = np.array([[1.0, 0.0, 0.0, 1.0, -2.1, 1.1]])
    with pytest.raises(ValueError, match="unit circle"):
        DigitalNzdf(p, 100_000.0, unstable)
    unnormalized = np.array([[1.0, 0.0, 0.0, 2.0, -1.0, 0.25]])
    with pytest.raises(ValueError, match="a0"):
        DigitalNzdf(p, 100_000.0, unnormalized)
    for a1, a2 in ((np.nan, 0.25), (-1.0, np.nan), (np.inf, 0.25)):
        with pytest.raises(ValueError, match="unit circle"):
            DigitalNzdf(p, 100_000.0, np.array([[1.0, 0.0, 0.0, 1.0, a1, a2]]))


@pytest.mark.filterwarnings("ignore:fs=")
def test_pole_check_agrees_with_np_roots():
    # every discretized section is accepted, its mirror (each pole r taken
    # to 1 / r) is refused, and a real pole pair is refused exactly when
    # np.roots puts a pole on or outside the unit circle
    p = NzdfParams(1000.0)
    dens = []
    for fc in np.geomspace(10.0, 20_000.0, 9):
        for q in (0.6, 2.0, 5.0, 50.0, 1e3):
            for fs in (45_000.0, 100_000.0, 1e6):
                if fs > 2.0 * fc:
                    dens.extend(discretize(NzdfParams(fc, q), fs).sos[:, 3:])
    dens = np.array(dens)
    mirrored = np.column_stack([dens[:, 0], dens[:, 1] / dens[:, 2], 1.0 / dens[:, 2]])
    real = [[1.0, -(r1 + r2), r1 * r2] for r1 in (-1.5, -0.95, 0.3, 0.95, 1.5) for r2 in (-0.95, -0.3, 0.95, 1.5)]
    verdicts = []
    for den in np.vstack([dens, mirrored, real]):
        sos = np.r_[1.0, 0.0, 0.0, den][None, :]
        verdicts.append(bool(np.all(np.abs(np.roots(den)) < 1.0)))
        if verdicts[-1]:
            DigitalNzdf(p, 100_000.0, sos)
        else:
            with pytest.raises(ValueError, match="unit circle"):
                DigitalNzdf(p, 100_000.0, sos)
    assert verdicts[: 2 * len(dens)] == [True] * len(dens) + [False] * len(dens)
    assert 0 < sum(verdicts[2 * len(dens) :]) < len(real)


_SCIPY_CASES = [NzdfParams(fc) for fc in (100.0, 1000.0, 9000.0)] + [
    NzdfParams(1000.0, q=12.0, order=3, numerator_power=5),
    NzdfParams(500.0, q=2.0, order=3, numerator_power=2),
]


def test_apply_filter_matches_sosfilt():
    # scipy's cascade as the reference; error relative to the output peak
    fs = 100_000.0
    impulse = np.zeros(5001)
    impulse[0] = 1.0
    noise = np.random.default_rng(3).normal(size=5001)
    for params in _SCIPY_CASES:
        filt = discretize(params, fs)
        for x in (impulse, noise):
            got = apply_filter(filt, Signal(fs, x)).samples
            ref = sci_signal.sosfilt(filt.sos.copy(), np.r_[x, np.zeros(got.size - x.size)])
            assert np.max(np.abs(got - ref)) <= 2e-12 * np.max(np.abs(ref)), params


def test_frequency_response_matches_sosfreqz():
    fs = 100_000.0
    f = np.geomspace(10.0, 0.49 * fs, 200)
    for params in _SCIPY_CASES:
        filt = discretize(params, fs)
        _, ref = sci_signal.sosfreqz(filt.sos, worN=2.0 * np.pi * f / fs, fs=2.0 * np.pi)
        got = filt.frequency_response(f)
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-12, params


def test_apply_filter_contract():
    fs = 50_000.0
    filt = discretize(NzdfParams(1000.0), fs)
    rng = np.random.default_rng(5)
    sig = Signal(fs, rng.normal(size=400))
    out = apply_filter(filt, sig)
    n_pad = int(np.ceil(filt.params.ring_down_time * fs))
    assert len(out) == len(sig) + n_pad
    assert out.sample_rate == fs
    with pytest.raises(ValueError, match="rate"):
        apply_filter(filt, Signal(2.0 * fs, rng.normal(size=16)))


def test_apply_filter_memory_is_twice_the_output():
    # a 10 Hz, Q = 20 filter of the 50 ms reference: 673,452 rows, 5.4 MB of
    # output, which the Signal copies once; one whole-record filter pass
    # would take five times that
    sig = synth_reference()
    filt = discretize(NzdfParams(10.0, q=20.0), sig.sample_rate)
    tracemalloc.start()
    try:
        out = apply_filter(filt, sig)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * out.samples.nbytes + 1_000_000, (peak, out.samples.nbytes)


def test_apply_filter_rows_are_bounded_before_filtering():
    sig = Signal(100_000.0, np.ones(16))
    for fc, q in [(100.0, 1e6), (0.01, 50.0)]:
        with pytest.raises(ValueError, match="over the 1,073,741,824-byte limit; lower q or raise center_freq$"):
            apply_filter(discretize(NzdfParams(fc, q=q), sig.sample_rate), sig)
    # room for a 1 Hz, Q = 50 filter of the 50 ms reference: 16 bytes a row
    assert 16 * (5001 + np.ceil(NzdfParams(1.0, q=50.0).ring_down_time * 1e5)) < _MAX_BYTES


@pytest.mark.parametrize("fc,q,n", [
    (10.0, 20.0, 5001),  # 673,452 rows: the output and its copy dominate
    (1000.0, 5.0, 16),  # one short segment: the workspaces dominate
    (100.0, 5.0, 50_000),  # five segments
])
def test_apply_filter_peak_is_within_its_budget_estimate(monkeypatch, fc, q, n):
    asked = []
    monkeypatch.setattr(nzdf, "_budget", lambda what, rows=0, nbytes=0, advice="": asked.append(nbytes))
    sig = Signal(100_000.0, np.random.default_rng(3).normal(size=n))
    filt = discretize(NzdfParams(fc, q=q), sig.sample_rate)
    tracemalloc.start()
    try:
        apply_filter(filt, sig)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    [nbytes] = asked
    assert peak <= nbytes, (peak, nbytes)


def test_apply_filter_linearity():
    fs = 50_000.0
    filt = discretize(NzdfParams(800.0), fs)
    rng = np.random.default_rng(6)
    a = rng.normal(size=300)
    b = rng.normal(size=300)
    ya = apply_filter(filt, Signal(fs, a)).samples
    yb = apply_filter(filt, Signal(fs, b)).samples
    yab = apply_filter(filt, Signal(fs, a + 2.0 * b)).samples
    np.testing.assert_allclose(yab, ya + 2.0 * yb, rtol=1e-9, atol=1e-12)


def test_filtered_noise_is_net_zero():
    fs = 50_000.0
    filt = discretize(NzdfParams(500.0), fs)
    rng = np.random.default_rng(7)
    out = apply_filter(filt, Signal(fs, rng.normal(size=1000)))
    rep = residual_motion(out)
    assert rep.passed, (rep.residual_velocity_ratio, rep.residual_displacement_ratio)


def test_impulse_response_matches_closed_form():
    # analog inverse transform of the default shape, valid while the
    # bilinear warp is negligible (fs = 100 fc)
    fc, q = 1000.0, 5.0
    fs = 100.0 * fc
    filt = discretize(NzdfParams(fc), fs)
    h = impulse_response(filt, duration=1.0 / fs)
    t = h.times()
    w = 2.0 * np.pi * fc
    b = w / (2.0 * q)
    a = w * np.sqrt(1.0 - 1.0 / (4.0 * q * q))
    closed = (
        4.0
        * b
        * b
        * np.exp(-b * t)
        * (
            (1.0 / (2.0 * a) + b * b / (2.0 * a**3) - b * t / a) * np.sin(a * t)
            + t * (a * a - b * b) / (2.0 * a * a) * np.cos(a * t)
        )
    )
    peak = np.max(np.abs(h.samples))
    assert np.max(np.abs(h.samples - closed)) / peak < 0.015


def test_impulse_response_peak_and_ring_down():
    fc = 1000.0
    fs = 100.0 * fc
    filt = discretize(NzdfParams(fc), fs)
    h = impulse_response(filt, duration=1.0 / fs)
    t = h.times()
    peak = np.max(np.abs(h.samples))
    t_peak = t[int(np.argmax(np.abs(h.samples)))]
    assert t_peak / group_delay(filt.params) == pytest.approx(0.468, abs=0.01)
    # everything past ring_down_time sits below 1/1000 of the peak,
    # which is exactly what the filtering pad relies on
    n_ring = int(np.ceil(filt.params.ring_down_time * fs))
    assert np.max(np.abs(h.samples[n_ring:])) < 1e-3 * peak


def test_ring_down_factor_values():
    assert _ring_down_factor(1) == 7.0
    assert _ring_down_factor(2) == 10.5


@pytest.mark.parametrize("order,numerator_power", [(3, 2), (3, 4), (4, 2), (4, 7)])
def test_ring_down_pad_holds_higher_orders(order, numerator_power):
    # The pad must grow with the envelope t^(N-1) exp(-t / tau), which peaks
    # later and decays slower as N grows.  With 1 ms of record before the
    # pad, its last 5% is 60 dB below the response's peak.  The rule measures
    # the 60 dB from the envelope's peak, not the response's, so with the
    # impulse right at the pad start the tail reads about 1.2e-3 of the peak
    # for every order, N = 2 included.
    fs = 100_000.0
    filt = discretize(NzdfParams(1000.0, q=5.0, order=order, numerator_power=numerator_power), fs)
    n_tail = int(np.ceil(0.05 * np.ceil(filt.params.ring_down_time * fs)))
    for duration, bound in ((1e-3, 1e-3), (1.0 / fs, 1.5e-3)):
        h = impulse_response(filt, duration=duration).samples
        assert np.max(np.abs(h[-n_tail:])) <= bound * np.max(np.abs(h)), duration


def test_impulse_response_velocity_net_zero():
    filt = discretize(NzdfParams(1000.0), 100_000.0)
    h = impulse_response(filt, duration=1e-5)
    assert residual_motion(h).residual_velocity_ratio < 1e-3


def test_impulse_response_validation():
    filt = discretize(NzdfParams(1000.0), 100_000.0)
    with pytest.raises(ValueError):
        impulse_response(filt, duration=0.0)


def test_impulse_response_is_refused_before_its_impulse_is_allocated(monkeypatch):
    # 1e6 s at 100 kHz would be a 745 GiB impulse; 0.5 s is refused under a
    # 1 MiB limit before the impulse, its Signal copy or the filter's run,
    # and at the default limit holds less than its charge
    filt = discretize(NzdfParams(1000.0), 100_000.0)
    with pytest.raises(ValueError, match=r"^impulse response at center_freq=1000 Hz with q=5 would hold 3\.2e\+12 "):
        impulse_response(filt, 1e6)
    monkeypatch.setattr(signal_core, "_MAX_BYTES", 1 << 20)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="1,048,576-byte limit; shorten duration, lower q or raise center_freq$"):
            impulse_response(filt, 0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 50_001, peak
    monkeypatch.undo()
    asked = []
    monkeypatch.setattr(nzdf, "_budget", lambda what, rows=0, nbytes=0, advice="": asked.append(nbytes))
    tracemalloc.start()
    try:
        h = impulse_response(filt, 0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    charge = asked[0]  # then apply_filter's own, within it
    assert h.samples.nbytes < peak <= charge, (peak, asked)


def test_gammatone_impulse_is_refused_before_it_is_sampled(monkeypatch):
    # one second at 100 kHz: 40 bytes a sample are charged, about 32 held
    gp = GammatoneParams(1000.0, 600.0)
    monkeypatch.setattr(signal_core, "_MAX_BYTES", 1 << 20)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=re.escape(
            "gammatone impulse would hold 4e+06 bytes, over the 1,048,576-byte limit; lower fs or shorten duration"
        )):
            gammatone_impulse(gp, 100_000.0, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 100_001, peak
    monkeypatch.undo()
    tracemalloc.start()
    try:
        g = gammatone_impulse(gp, 100_000.0, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.samples.nbytes < peak <= 40 * len(g), peak / len(g)


def test_sample_counts_that_overflow_are_refused_by_the_budget():
    # duration * fs overflows to inf: the budget refuses it before it is an int
    with pytest.raises(ValueError, match=r"^impulse response at center_freq=1000 Hz with q=5 would hold inf bytes"):
        impulse_response(discretize(NzdfParams(1000.0), 1e5), 1e305)
    with pytest.raises(ValueError, match=r"^gammatone impulse would hold inf bytes"):
        gammatone_impulse(GammatoneParams(1000.0, 600.0), 1e10, 1e300)


def test_gammatone_samples():
    gp = GammatoneParams(center_freq=900.0, bandwidth=600.0, order=2, amplitude=3.0, phase=0.4)
    fs = 40_000.0
    g = gammatone_impulse(gp, fs, duration=0.01)
    t = g.times()
    expected = 3.0 * t * np.exp(-600.0 * t) * np.cos(2.0 * np.pi * 900.0 * t + 0.4)
    np.testing.assert_allclose(g.samples, expected, rtol=1e-12, atol=1e-15)
    assert g.samples[0] == 0.0


def test_gammatone_validation():
    with pytest.raises(ValueError):
        GammatoneParams(0.0, 100.0)
    with pytest.raises(ValueError):
        GammatoneParams(100.0, -1.0)
    with pytest.raises(ValueError):
        GammatoneParams(100.0, 100.0, order=0)
    gp = GammatoneParams(100.0, 100.0)
    with pytest.raises(ValueError):
        gammatone_impulse(gp, 1000.0, duration=-1.0)
    with pytest.raises(ValueError, match="fs must be finite"):
        gammatone_impulse(gp, float("nan"), duration=0.01)


def _matched_pair(fc=1000.0, q=5.0, fs=100_000.0):
    """Digital band-pass impulse response and the gammatone with the same
    pole layout (b = w/2Q, carrier at the damped frequency)."""
    w = 2.0 * np.pi * fc
    b = w / (2.0 * q)
    f_damped = fc * np.sqrt(1.0 - 1.0 / (4.0 * q * q))
    filt = discretize(NzdfParams(fc, q=q), fs)
    h = impulse_response(filt, duration=1.0 / fs)
    gp = GammatoneParams(center_freq=f_damped, bandwidth=b, order=2)
    g = gammatone_impulse(gp, fs, duration=h.duration)
    return h, g


def test_gammatone_velocity_offset():
    # the gammatone lacks the origin zeros, so it strands a fifth of its
    # peak velocity; the matched band-pass impulse does not
    h, g = _matched_pair()
    r_g = residual_motion(g).residual_velocity_ratio
    r_h = residual_motion(h).residual_velocity_ratio
    assert r_g == pytest.approx(0.2096, abs=5e-3)
    assert r_g > 0.05
    assert r_h < 1e-3


def test_gammatone_waveform_similarity():
    # past the onset (two carrier cycles) the two waveforms are nearly
    # proportional
    h, g = _matched_pair()
    n0 = int(2.0 * 100_000.0 / 1000.0)
    n = min(len(h), len(g))
    corr = np.corrcoef(h.samples[n0:n], g.samples[n0:n])[0, 1]
    assert corr == pytest.approx(0.989, abs=5e-3)
    assert corr > 0.95
