"""End-to-end command-line checks through real subprocesses."""

import json

import numpy as np
import pytest

from conftest import write_spec_csv


@pytest.fixture(scope="module")
def workdir(tmp_path_factory, run_cli):
    """Shared directory with a surrogate reference and a small spec."""
    d = tmp_path_factory.mktemp("cli")
    r = run_cli(
        "demo-ref", "--fs", 50000, "--duration", 0.02, "--fmax", 5000,
        "--seed", 2, "--out", d / "ref.csv",
    )
    assert r.returncode == 0, r.stderr
    write_spec_csv(d / "spec.csv", [(1000.0, 500.0), (2000.0, 800.0), (4000.0, 600.0)])
    return d


def test_demo_ref_deterministic_bytes(workdir, run_cli, tmp_path):
    out = tmp_path / "again.csv"
    r = run_cli(
        "demo-ref", "--fs", 50000, "--duration", 0.02, "--fmax", 5000,
        "--seed", 2, "--out", out,
    )
    assert r.returncode == 0
    assert "1001 samples" in r.stdout
    assert out.read_bytes() == (workdir / "ref.csv").read_bytes()


def test_demo_ref_rejects_low_sample_rate(run_cli, tmp_path):
    r = run_cli("demo-ref", "--fs", 20000, "--fmax", 5000, "--out", tmp_path / "x.csv")
    assert r.returncode == 2
    assert "error:" in r.stderr
    assert not (tmp_path / "x.csv").exists()


def test_srs_command(workdir, run_cli, tmp_path):
    out = tmp_path / "curve.csv"
    r = run_cli("srs", workdir / "ref.csv", "--fmax", 8000, "--out", out)
    assert r.returncode == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "freq_hz,srs_m_s2"
    # 100 Hz to >= 8 kHz at 6 per octave: k = 0 .. ceil(6*log2(80)) = 39 rows
    assert len(lines) == 1 + 39
    vals = np.array([[float(t) for t in ln.split(",")] for ln in lines[1:]])
    assert np.all(vals[:, 1] > 0.0)
    assert vals[0, 0] == 100.0


def test_filter_command_with_bode_sidecar(workdir, run_cli, tmp_path):
    out = tmp_path / "filtered.csv"
    r = run_cli("filter", workdir / "ref.csv", "--fc", 1000, "--out", out)
    assert r.returncode == 0
    assert out.exists()
    bode = tmp_path / "filtered_bode.csv"
    assert bode.exists()
    lines = bode.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "freq_hz,mag_db,phase_deg"
    assert len(lines) == 1 + 481
    rows = np.array([[float(t) for t in ln.split(",")] for ln in lines[1:]])
    # unity and peaked at the center frequency
    assert np.max(rows[:, 1]) < 0.05
    near = rows[np.argmin(np.abs(rows[:, 0] - 1000.0))]
    assert near[1] > -0.2


def test_filter_command_bode_out_override(workdir, run_cli, tmp_path):
    out = tmp_path / "f.csv"
    bode = tmp_path / "custom.csv"
    r = run_cli(
        "filter", workdir / "ref.csv", "--fc", 2000, "--out", out, "--bode-out", bode
    )
    assert r.returncode == 0
    assert bode.exists()
    assert not (tmp_path / "f_bode.csv").exists()


def test_bank_command(run_cli, tmp_path):
    out = tmp_path / "bank.csv"
    r = run_cli("bank", "--out", out)
    assert r.returncode == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    assert header[0] == "freq_hz"
    assert len(header) == 1 + 41
    assert header[1] == "mag_db_100"
    assert len(lines) == 1 + 481


@pytest.fixture(scope="module")
def synth_outputs(workdir, run_cli):
    args = (
        "synth", workdir / "spec.csv", workdir / "ref.csv",
        "--ppo", 3, "--swarm-size", 12, "--max-iters", 40,
        "--tolerance-db", 6, "--seed", 4,
        "--out-signal", workdir / "synth.csv",
        "--out-report", workdir / "report.json",
    )
    r = run_cli(*args)
    return r, args


def test_synth_command_passes(workdir, synth_outputs):
    r, _ = synth_outputs
    assert r.returncode == 0, r.stderr
    assert "net-zero pass" in r.stdout
    report = json.loads((workdir / "report.json").read_text(encoding="utf-8"))
    assert report["pass_srs"] is True
    assert report["pass_net_zero"] is True
    assert report["max_abs_db"] < 6.0
    assert report["seed"] == 4
    assert {row["freq_hz"] for row in report["per_freq"]} >= {1000.0, 2000.0, 4000.0}


def test_synth_command_deterministic_bytes(workdir, run_cli, synth_outputs, tmp_path):
    _, args = synth_outputs
    args = list(args)
    args[args.index(workdir / "synth.csv")] = tmp_path / "synth.csv"
    args[args.index(workdir / "report.json")] = tmp_path / "report.json"
    r = run_cli(*args)
    assert r.returncode == 0
    assert (tmp_path / "synth.csv").read_bytes() == (workdir / "synth.csv").read_bytes()
    assert (tmp_path / "report.json").read_bytes() == (workdir / "report.json").read_bytes()


def test_verify_command_roundtrip(workdir, run_cli, synth_outputs, tmp_path):
    r = run_cli(
        "verify", workdir / "synth.csv", workdir / "spec.csv",
        "--ppo", 3, "--out-report", tmp_path / "v.json",
    )
    assert r.returncode == 0, r.stderr
    report = json.loads((tmp_path / "v.json").read_text(encoding="utf-8"))
    assert report["pass_srs"] is True and report["pass_net_zero"] is True
    assert report["objective"] is None and report["seed"] is None


def test_verify_command_fails_out_of_tolerance(workdir, run_cli, tmp_path):
    # the raw reference is nowhere near the spec shape
    r = run_cli(
        "verify", workdir / "ref.csv", workdir / "spec.csv",
        "--ppo", 3, "--out-report", tmp_path / "v.json",
    )
    assert r.returncode == 1
    report = json.loads((tmp_path / "v.json").read_text(encoding="utf-8"))
    assert report["pass_srs"] is False


def test_synth_zero_reference_infeasible(workdir, run_cli, tmp_path):
    zero = tmp_path / "zero.csv"
    with open(zero, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("time_s,accel_m_s2\n")
        for i in range(2000):
            fh.write(f"{i / 50000.0:.12g},0\n")
    r = run_cli(
        "synth", workdir / "spec.csv", zero,
        "--ppo", 3, "--swarm-size", 12, "--max-iters", 10,
        "--out-signal", tmp_path / "s.csv", "--out-report", tmp_path / "r.json",
    )
    assert r.returncode == 1
    assert "infeasible" in r.stderr


def test_missing_input_exits_2(run_cli, tmp_path):
    r = run_cli("srs", tmp_path / "nope.csv", "--out", tmp_path / "o.csv")
    assert r.returncode == 2


def test_malformed_csv_exits_2(workdir, run_cli, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("0.0,1.0\n0.1,huh\n", encoding="utf-8")
    r = run_cli("srs", bad, "--out", tmp_path / "o.csv")
    assert r.returncode == 2
    assert "error:" in r.stderr
    r2 = run_cli(
        "synth", bad, workdir / "ref.csv",
        "--out-signal", tmp_path / "s.csv", "--out-report", tmp_path / "r.json",
    )
    assert r2.returncode == 2
    assert "error:" in r2.stderr


def test_atomic_unique_temp_and_cleanup(tmp_path):
    from shocksynth.cli import _atomic

    target = tmp_path / "out.txt"

    def outer(p):
        # a second writer of the same target finishes while this one is
        # still writing; with a shared temp name the outer rename would fail
        p.write_text("outer", encoding="utf-8")
        _atomic(target, lambda q: q.write_text("inner", encoding="utf-8"))

    _atomic(target, outer)
    assert target.read_text(encoding="utf-8") == "outer"
    _atomic(target, lambda p: p.write_text("again", encoding="utf-8"))
    assert target.read_text(encoding="utf-8") == "again"
    plain = tmp_path / "plain.txt"
    plain.write_text("x", encoding="utf-8")
    assert target.stat().st_mode == plain.stat().st_mode
    plain.unlink()

    def broken(p):
        p.write_text("partial", encoding="utf-8")
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        _atomic(tmp_path / "failed.txt", broken)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]
