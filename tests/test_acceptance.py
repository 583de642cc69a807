"""Ten-point acceptance gate, one test per criterion.

A verbose run gives one pass/fail line per criterion; each test also
prints its achieved numbers so the run log records the margins.
"""

import json
import time

import numpy as np
import pytest

from conftest import foh_srs, smooth_noise, write_spec_csv
from shocksynth import (
    GammatoneParams,
    NzdfParams,
    Signal,
    beta_to_q,
    build_basis,
    discretize,
    four_coordinate_check,
    gammatone_impulse,
    group_delay,
    impulse_response,
    make_layout,
    nzdf_gain,
    q_to_beta,
    read_signal,
    residual_motion,
    srs,
    synth_reference,
    validate_order,
)

_PLATEAU_SPEC = [(100.0, 300.0), (1800.0, 10_000.0), (10_000.0, 10_000.0)]
_LAUNCHER = [
    (100.0, 200.0),
    (250.0, 1500.0),
    (500.0, 900.0),
    (1000.0, 4000.0),
    (2000.0, 2500.0),
    (3000.0, 8000.0),
    (6000.0, 6000.0),
    (10_000.0, 9000.0),
]


@pytest.fixture(scope="module")
def accept_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("accept")


@pytest.fixture(scope="module")
def reference_csv(accept_dir, run_cli):
    out = accept_dir / "ref.csv"
    r = run_cli("demo-ref", "--seed", 1, "--out", out)
    assert r.returncode == 0, r.stderr
    return out


@pytest.fixture(scope="module")
def plateau_spec_csv(accept_dir):
    path = accept_dir / "plateau_spec.csv"
    write_spec_csv(path, _PLATEAU_SPEC)
    return path


def _timed_synth(run_cli, spec_csv, ref_csv, out_signal, out_report):
    t0 = time.perf_counter()
    r = run_cli(
        "synth", spec_csv, ref_csv, "--seed", 1,
        "--out-signal", out_signal, "--out-report", out_report,
    )
    return r, time.perf_counter() - t0


@pytest.fixture(scope="module")
def main_synthesis(accept_dir, run_cli, reference_csv, plateau_spec_csv):
    sig = accept_dir / "synth.csv"
    rep = accept_dir / "report.json"
    proc, wall = _timed_synth(run_cli, plateau_spec_csv, reference_csv, sig, rep)
    return {"proc": proc, "wall": wall, "signal": sig, "report": rep}


@pytest.fixture(scope="module")
def bank_basis():
    ref = synth_reference(seed=1)
    layout = make_layout(100.0, 10_000.0, 6)
    with pytest.warns(UserWarning):
        return build_basis(ref, layout)


def test_criterion_01_end_to_end_synthesis(main_synthesis, reference_csv):
    proc, wall = main_synthesis["proc"], main_synthesis["wall"]
    assert proc.returncode == 0, proc.stderr
    n_ref = len(reference_csv.read_text(encoding="utf-8").splitlines()) - 1
    assert n_ref <= 10_000
    report = json.loads(main_synthesis["report"].read_text(encoding="utf-8"))
    errs = np.array([row["err_db"] for row in report["per_freq"]], dtype=float)
    assert np.all(np.abs(errs) <= 3.0)
    assert report["max_abs_db"] <= 3.0
    centers = make_layout(100.0, 10_000.0, 6).centers
    assert centers.size == 41
    assert 10_000.0 < centers[-1] <= 10_160.0
    grid = {row["freq_hz"] for row in report["per_freq"]}
    assert grid >= set(centers.tolist())
    assert wall <= 60.0
    print(
        f"criterion 1: max |SRS error| = {report['max_abs_db']:.3f} dB over "
        f"{len(report['per_freq'])} grid points (required 3.0, stretch 1.0), "
        f"wall = {wall:.1f} s on {n_ref} reference samples"
    )


def test_criterion_02_net_zero(main_synthesis, bank_basis):
    sig = read_signal(main_synthesis["signal"])
    res = residual_motion(sig)
    assert res.residual_velocity_ratio <= 1e-3
    assert res.residual_displacement_ratio <= 1e-3
    worst = 0.0
    for i in range(bank_basis.n_columns):
        col = residual_motion(bank_basis.column_signal(i))
        worst = max(worst, col.residual_velocity_ratio, col.residual_displacement_ratio)
        assert col.residual_velocity_ratio <= 1e-3
        assert col.residual_displacement_ratio <= 1e-3
    print(
        f"criterion 2: synthesized residual ratios = "
        f"({res.residual_velocity_ratio:.2e}, {res.residual_displacement_ratio:.2e}), "
        f"worst basis-column ratio = {worst:.2e} (required 1e-3)"
    )


def _beta_sweep_oracle(q, fc=1000.0):
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


def test_criterion_03_filter_math():
    for fc in (100.0, 1000.0, 10_000.0):
        for q in (2.0, 5.0, 20.0):
            assert abs(abs(nzdf_gain(fc, NzdfParams(fc, q=q))) - 1.0) < 1e-12

    fc = 1000.0
    filt = discretize(NzdfParams(fc), 100.0 * fc)
    f = np.linspace(fc / 2.0, 2.0 * fc, 301)
    dig = np.abs(filt.frequency_response(f))
    ana = np.abs(nzdf_gain(f, NzdfParams(fc)))
    worst = float(np.max(np.abs(dig - ana) / ana))
    assert worst < 0.005

    beta = q_to_beta(5.0)
    sweep = _beta_sweep_oracle(5.0)
    assert beta == pytest.approx(sweep, rel=0.01)
    assert beta == pytest.approx(0.12872, rel=0.01)
    q_back = beta_to_q(0.1225)
    assert 5.0 <= q_back <= 5.5
    print(
        f"criterion 3: digital magnitude deviation = {worst * 100:.2f}% "
        f"(required 0.5%), q_to_beta(5) = {beta:.5f} vs sweep {sweep:.5f}, "
        f"beta_to_q(0.1225) = {q_back:.4f}"
    )


def test_criterion_04_group_delay():
    worst = 0.0
    for fc in (100.0, 1000.0, 10_000.0):
        p = NzdfParams(fc)
        w = 2.0 * np.pi * fc
        dw = 1e-6 * w
        phase = np.angle(nzdf_gain((w + np.array([-dw, dw])) / (2.0 * np.pi), p))
        tau_num = -(phase[1] - phase[0]) / (2.0 * dw)
        tau = group_delay(p)
        rel = abs(tau_num - tau) / tau
        worst = max(worst, rel)
        assert rel < 0.10
    print(f"criterion 4: worst numeric group-delay deviation = {worst * 100:.3f}% (required 10%)")


def test_criterion_05_order_bounds():
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
    print("criterion 5: validate_order truth table exact")


def test_criterion_06_srs_engine():
    rng = np.random.default_rng(6)
    fs = 20_000.0
    worst = 0.0
    for _ in range(50):
        sig = smooth_noise(rng, 1200 + int(rng.uniform(0, 800)), fs)
        fn = float(np.exp(rng.uniform(np.log(60.0), np.log(7000.0))))
        fast = srs(sig, [fn]).values[0]
        exact = foh_srs(sig, fn)
        worst = max(worst, abs(fast - exact) / exact)
    assert worst < 0.01
    assert worst <= 1e-9  # both are exact for a base acceleration linear between samples

    t = np.arange(101) / 100_000.0
    half_sine = Signal(100_000.0, 500.0 * np.sin(np.pi * t / 1e-3))
    for fn in (8000.0, 10_000.0):
        assert srs(half_sine, [fn]).values[0] == pytest.approx(500.0, rel=0.05)

    sig = smooth_noise(rng, 900, fs)
    freqs = [100.0, 700.0, 3000.0]
    base = srs(sig, freqs).values
    for alpha in (2.5, -3.0):
        scaled = srs(sig.with_samples(alpha * sig.samples), freqs).values
        np.testing.assert_allclose(scaled, abs(alpha) * base, rtol=1e-9)
    print(f"criterion 6: worst deviation from the exact FOH solution over 50 cases = {worst * 100:.3g}% (required 1%)")


def test_criterion_07_gammatone_contrast():
    fc, q, fs = 1000.0, 5.0, 100_000.0
    w = 2.0 * np.pi * fc
    filt = discretize(NzdfParams(fc, q=q), fs)
    h = impulse_response(filt, duration=1.0 / fs)
    gp = GammatoneParams(
        center_freq=fc * np.sqrt(1.0 - 1.0 / (4.0 * q * q)),
        bandwidth=w / (2.0 * q),
        order=2,
    )
    g = gammatone_impulse(gp, fs, duration=h.duration)

    r_g = residual_motion(g).residual_velocity_ratio
    r_h = residual_motion(h).residual_velocity_ratio
    assert r_g > 0.05
    assert r_h < 1e-3

    n0 = int(fs / fc)  # skip the first carrier cycle
    n = min(len(h), len(g))
    corr = float(np.corrcoef(h.samples[n0:n], g.samples[n0:n])[0, 1])
    assert corr > 0.95
    print(
        f"criterion 7: gammatone velocity residual = {r_g:.4f} (> 0.05), "
        f"band-pass residual = {r_h:.2e} (< 1e-3), correlation = {corr:.4f} (> 0.95)"
    )


def test_criterion_08_four_coordinate(bank_basis):
    worst = 0.0
    for i, fc in enumerate(bank_basis.layout.centers):
        rv, rd = four_coordinate_check(bank_basis.column_signal(i), fc)
        worst = max(worst, abs(rv - 1.0), abs(rd - 1.0))
        assert 0.85 <= rv <= 1.15, (fc, rv)
        assert 0.85 <= rd <= 1.15, (fc, rd)
    print(
        f"criterion 8: worst four-coordinate deviation over "
        f"{bank_basis.n_columns} centers = {worst:.3f} (required 0.15)"
    )


def test_criterion_09_complex_spec(accept_dir, run_cli, reference_csv):
    spec_csv = accept_dir / "launcher.csv"
    write_spec_csv(spec_csv, _LAUNCHER)
    proc, wall = _timed_synth(
        run_cli, spec_csv, reference_csv,
        accept_dir / "launcher_synth.csv", accept_dir / "launcher_report.json",
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads((accept_dir / "launcher_report.json").read_text(encoding="utf-8"))
    assert report["max_abs_db"] <= 3.0
    assert report["pass_net_zero"] is True
    print(
        f"criterion 9: 8-breakpoint spec max |SRS error| = "
        f"{report['max_abs_db']:.3f} dB (required 3.0), wall = {wall:.1f} s"
    )


def test_criterion_10_determinism(
    accept_dir, run_cli, reference_csv, plateau_spec_csv, main_synthesis
):
    sig2 = accept_dir / "synth_again.csv"
    rep2 = accept_dir / "report_again.json"
    proc, _ = _timed_synth(run_cli, plateau_spec_csv, reference_csv, sig2, rep2)
    assert proc.returncode == 0, proc.stderr
    assert sig2.read_bytes() == main_synthesis["signal"].read_bytes()
    assert rep2.read_bytes() == main_synthesis["report"].read_bytes()
    print("criterion 10: repeat run byte-identical (signal and report)")
