"""End-to-end command-line checks through real subprocesses."""

import errno
import importlib
import json
import mmap
import os
import re
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path
from unittest import mock

import click
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import write_spec_csv
from shocksynth import signal_core
from shocksynth.cli import main
from shocksynth.signal_core import Signal, read_signal, residual_motion, synth_reference, write_signal


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


_BANK_WARNING = "warning: fs=100000 is below 10*fc=101594; expect bilinear warping distortion on the upper skirt\n"


def test_warnings_print_as_one_plain_line(cli_env, tmp_path):
    # the top default center, 10,159 Hz, is over fs / 10; Python's own format
    # would print the warning's file, line number and source line
    env = {k: v for k, v in cli_env.items() if k != "PYTHONWARNINGS"}
    r = subprocess.run([sys.executable, "-m", "shocksynth.cli", "bank", "--out", str(tmp_path / "b.csv")],
                       capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    assert r.stderr == _BANK_WARNING


def test_warning_format_is_restored_after_a_command(tmp_path, capsys):
    # a showwarning that prints through formatwarning, as Python's default does
    def printed(message, category, filename, lineno, file=None, line=None):
        sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))

    original = warnings.formatwarning
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = printed
        code, err = _run_in_process(["bank", "--out", tmp_path / "b.csv"], capsys)
    assert (code, err) == (0, _BANK_WARNING)
    assert warnings.formatwarning is original


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


def test_verify_command_warns_once_about_clamping(workdir, cli_env, tmp_path):
    # the README plateau spec ends at 10 kHz, below the top bank center
    # (10,159 Hz), so the verification grid is clamped at its top end
    write_spec_csv(tmp_path / "plateau.csv", [(100.0, 300.0), (1800.0, 1e4), (10_000.0, 1e4)])
    env = {k: v for k, v in cli_env.items() if k != "PYTHONWARNINGS"}
    r = subprocess.run(
        [sys.executable, "-m", "shocksynth.cli", "verify", str(workdir / "ref.csv"),
         str(tmp_path / "plateau.csv"), "--out-report", str(tmp_path / "v.json")],
        capture_output=True, text=True, env=env,
    )
    assert r.returncode in (0, 1), r.stderr
    assert r.stderr.count("are clamped to the end values") == 1


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


def test_cli_import_leaves_out_scipy_signal_and_integrate(cli_env):
    # scipy.signal alone costs about a second of start-up on every call
    code = (
        "import sys, shocksynth.cli; "
        "print(sorted(m for m in sys.modules if m.startswith(('scipy.signal', 'scipy.integrate'))))"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=cli_env)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


def test_cli_import_leaves_out_scipy_linalg_package(cli_env):
    # scipy.linalg's package init pulls in numpy.f2py, numpy.testing and
    # numpy.ma, about 0.2 s of start-up
    names = ("scipy.linalg", "scipy._lib._array_api", "numpy.f2py", "numpy.testing", "numpy.ma")
    code = (
        f"import sys, shocksynth.cli; names = {names!r}; "
        "print(sorted(m for m in sys.modules if m in names or m.startswith(tuple(n + '.' for n in names))))"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=cli_env)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


_RUN_EVERY_COMMAND = """
import json
import sys
from shocksynth import cli

# the work directory, the modules to look for (comma-separated), then the commands to run in turn
d, names, commands = sys.argv[1], sys.argv[2].split(","), sys.argv[3:]


def mapped():
    # mapped files of scipy's LAPACK extension, or of scipy's own OpenBLAS and Fortran runtime
    if not sys.platform.startswith("linux"):
        return []
    with open("/proc/self/maps") as fh:
        paths = {line.split(maxsplit=5)[-1].strip() for line in fh if line.count(" ") >= 5}
    return sorted(p for p in paths if "_flapack" in p or "/scipy.libs/" in p)


runs = {
    "demo-ref": ["--fs", "50000", "--duration", "0.02", "--fmax", "5000", "--out", d + "/ref.csv"],
    "srs": [d + "/ref.csv", "--fmin", "1000", "--fmax", "4000", "--out", d + "/srs.csv"],
    "filter": [d + "/ref.csv", "--fc", "2000", "--out", d + "/f.csv"],
    "bank": ["--fmin", "1000", "--fmax", "4000", "--out", d + "/bank.csv"],
    "synth": [d + "/spec.csv", d + "/ref.csv", "--swarm-size", "10", "--max-iters", "3",
              "--out-signal", d + "/s.csv", "--out-report", d + "/r.json"],
    "verify": [d + "/s.csv", d + "/spec.csv", "--out-report", d + "/v.json"],
}
after = []
for command in commands:
    try:
        code = cli.main([command] + runs[command], standalone_mode=False)
    except SystemExit as exc:
        code = exc.code
    after.append([command, code or 0, [m for m in names if m in sys.modules], mapped()])
print(json.dumps(after))
"""


def _run_commands(cli_env, workdir, names, commands):
    """[command, exit code, which of ``names`` are in sys.modules, scipy LAPACK files mapped] after each command,
    all run in turn in one fresh interpreter."""
    r = subprocess.run([sys.executable, "-c", _RUN_EVERY_COMMAND, str(workdir), ",".join(names), *commands],
                       capture_output=True, text=True, env=cli_env)
    assert r.returncode == 0, r.stderr
    after = json.loads(r.stdout.splitlines()[-1])
    assert [command for command, *_ in after] == commands
    return after


def test_commands_leave_out_numpy_ma_and_scipy_packages(cli_env, tmp_path):
    # np.median and np.unique import numpy.ma lazily, after import time,
    # and scipy/__init__ runs whenever a scipy submodule is looked up by name;
    # np.loadtxt given a path opens it through its DataSource, which imports gzip.
    # On Linux no command maps scipy.linalg's _flapack, or scipy's OpenBLAS,
    # libgfortran and libquadmath (numpy's OpenBLAS brings numpy.libs' own).
    write_spec_csv(tmp_path / "spec.csv", [(1000.0, 500.0), (2000.0, 800.0), (4000.0, 600.0)])
    names = ["numpy.ma", "scipy", "scipy.linalg", "scipy.signal", "scipy.integrate", "gzip"]
    commands = ["demo-ref", "srs", "filter", "bank", "synth", "verify"]
    for command, code, modules, files in _run_commands(cli_env, tmp_path, names, commands):
        assert code in (0, 1) and modules == [] and files == [], (command, code, modules, files)


def test_commands_leave_out_numpy_random_and_openssl(workdir, cli_env, tmp_path):
    # numpy.random imports secrets, and through hmac OpenSSL's _hashlib; the swarm draws its
    # Philox streams without it.  demo-ref is the one command that loads numpy.random (its
    # default_rng), so its record is made beforehand, in another process.
    for name in ("ref.csv", "spec.csv"):
        (tmp_path / name).write_bytes((workdir / name).read_bytes())
    commands = ["srs", "filter", "bank", "synth", "verify"]
    for command, code, modules, _ in _run_commands(cli_env, tmp_path, ["numpy.random", "secrets", "_hashlib"], commands):
        assert code in (0, 1) and modules == [], (command, code, modules)


def test_srs_command_reads_byte_order_mark(workdir, run_cli, tmp_path):
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + (workdir / "ref.csv").read_bytes())
    outs = []
    for src in (workdir / "ref.csv", bom):
        out = tmp_path / f"{src.stem}-srs.csv"
        r = run_cli("srs", src, "--fmax", 8000, "--out", out)
        assert r.returncode == 0, r.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


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


def test_synth_over_cache_budget_exits_2(workdir, run_cli, tmp_path):
    # a 3 Hz lowest frequency would need a ~1.3 GB response cache
    spec = tmp_path / "low.csv"
    write_spec_csv(spec, [(3.0, 10.0), (2000.0, 800.0), (4000.0, 600.0)])
    out = tmp_path / "s.csv"
    r = run_cli(
        "synth", spec, workdir / "ref.csv", "--out-signal", out, "--out-report", tmp_path / "r.json",
    )
    assert r.returncode == 2
    assert r.stderr.endswith("-byte limit; raise the lowest center (3 Hz) or lower ppo (6)\n")
    assert not out.exists()


def test_synth_refused_reservation_exits_2(workdir, tmp_path, monkeypatch, capsys):
    from shocksynth.cli import main

    def refuse(*args, **kwargs):
        raise OSError(errno.ENOMEM, "Cannot allocate memory")

    monkeypatch.setattr(mmap, "mmap", refuse)
    out = tmp_path / "s.csv"
    args = ["synth", workdir / "spec.csv", workdir / "ref.csv", "--out-signal", out, "--out-report", tmp_path / "r.json"]
    with pytest.raises(SystemExit) as exit_info:
        main(list(map(str, args)))
    assert exit_info.value.code == 2
    assert re.search(r"^error: could not reserve [\d,]+ bytes for the response cache", capsys.readouterr().err, re.M)
    assert not out.exists()


# Runs a command and prints its exit code and peak resident size.  It
# imports no numpy: on Linux a child's ru_maxrss also counts the resident
# size of the process that started it, as it stood before the exec.
_RSS_LAUNCHER = """
import resource, subprocess, sys
code = subprocess.run(sys.argv[1:]).returncode
print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def _peak_kib(cli_env, argv):
    """Exit code, peak resident KiB and stderr of the CLI child ``argv``."""
    r = subprocess.run(
        [sys.executable, "-c", _RSS_LAUNCHER, sys.executable, "-m", "shocksynth.cli", *map(str, argv)],
        capture_output=True, text=True, env=cli_env,
    )
    code, max_rss_kib = map(int, r.stdout.split()[-2:])
    return code, max_rss_kib, r.stderr


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only")
def _synth_peak_mib(run_cli, cli_env, tmp_path, breakpoints, *demo_ref_args):
    """Exit code, peak resident MiB and stderr of ``synth --seed 1`` on ``demo-ref --seed 1`` and a spec."""
    ref = tmp_path / "ref.csv"
    assert run_cli("demo-ref", "--seed", 1, "--out", ref, *demo_ref_args).returncode == 0
    write_spec_csv(tmp_path / "spec.csv", breakpoints)
    argv = ["synth", tmp_path / "spec.csv", ref, "--seed", "1",
            "--out-signal", tmp_path / "s.csv", "--out-report", tmp_path / "r.json"]
    code, max_rss_kib, stderr = _peak_kib(cli_env, argv)
    return code, max_rss_kib / 1024.0, stderr


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only")
def test_synth_peak_resident_size(run_cli, cli_env, tmp_path):
    # the README plateau run peaks at about 48 MiB: the response cache
    # reserves 68 MB of float32 but commits only the pages of the seventh
    # its peak search reads, each chunk being one contiguous run of memory,
    # and its build keeps only each chunk's envelope and seed
    plateau = [(100.0, 300.0), (1800.0, 10_000.0), (10_000.0, 10_000.0)]
    code, peak_mib, stderr = _synth_peak_mib(run_cli, cli_env, tmp_path, plateau)
    assert code == 0, stderr
    assert peak_mib < 100.0


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only")
def test_synth_on_a_field_length_reference_peak_resident_size(run_cli, cli_env, tmp_path):
    # the launcher spec on a 0.2 s, 20,001-sample reference.  It peaked at
    # 177 MiB (on a 2-core x86-64 VM) while the cache's build solved each
    # block whole, stored each column's peak chunk and the warm start read
    # those back through an identity batch; building it one seeded chunk at
    # a time and reading the warm start off the envelopes, 123 MiB; 115 MiB
    # with the last float64 cache, 82 MiB with the float32 one, and 76 MiB
    # with the search on a float32 copy of the basis
    launcher = [(100.0, 200.0), (250.0, 1500.0), (500.0, 900.0), (1000.0, 4000.0),
                (2000.0, 2500.0), (3000.0, 8000.0), (6000.0, 6000.0), (10_000.0, 9000.0)]
    code, peak_mib, stderr = _synth_peak_mib(run_cli, cli_env, tmp_path, launcher, "--duration", 0.2)
    assert code == 0, stderr
    assert peak_mib < 100.0


# What ``read_signal`` holds at once, about 40 bytes a sample: the parsed
# (n, 2) pairs, their time steps and two temporaries of the step check.  Its
# own ``_budget`` check charges it from the file's size instead.
_READ_BYTES_PER_SAMPLE = 40

# Each command's arguments on the record ``{r}``, with the spec in ``{d}``, writing into ``{o}``.
_RSS_ARGS = {
    "srs": ["{r}", "--out", "{o}/out.csv"],
    "filter": ["{r}", "--fc", "1000", "--out", "{o}/out.csv"],
    "verify": ["{r}", "{d}/spec.csv", "--out-report", "{o}/out.json"],
}


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    """1 ms and 1 s demo records at 100 kHz, seed 1 (101 and 100,001 samples), and the launcher spec."""
    d = tmp_path_factory.mktemp("records")
    for name, duration in [("short", 0.001), ("long", 1.0)]:
        write_signal(synth_reference(duration=duration, seed=1), d / f"{name}.csv")
    write_spec_csv(d / "spec.csv", [(100.0, 200.0), (250.0, 1500.0), (500.0, 900.0), (1000.0, 4000.0),
                                    (2000.0, 2500.0), (3000.0, 8000.0), (6000.0, 6000.0), (10_000.0, 9000.0)])
    return d


def _budget_bytes(argv, capsys, monkeypatch):
    """Exit code of ``argv`` run in this process, and the most bytes any one of its ``_budget`` checks asked for.

    The CSV read's check is left out: the read is counted per sample, by ``_READ_BYTES_PER_SAMPLE``.
    """
    asked = [0]
    real = importlib.import_module("shocksynth.signal_core")._budget

    def record(what, rows=0, nbytes=0, advice=""):
        asked.append(0 if what.startswith("reading ") else nbytes)
        real(what, rows, nbytes, advice)

    for module in ("signal_core", "srs", "nzdf", "synthesis", "cli"):
        monkeypatch.setattr(importlib.import_module(f"shocksynth.{module}"), "_budget", record)
    code, _ = _run_in_process(argv, capsys)
    return code, max(asked)


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only")
@pytest.mark.parametrize("command", ["srs", "filter", "verify", "demo-ref"])
def test_peak_resident_size_is_within_the_budget_estimate(records, cli_env, tmp_path, capsys, monkeypatch, command):
    # on a 1 s record, each command peaks within its own _budget byte
    # estimate, the record as read, and its baseline: the same command's
    # peak on a 1 ms record, which is the imports and fixed workspaces
    def argv(name):
        if command == "demo-ref":
            return ["demo-ref", "--duration", {"short": 0.001, "long": 1.0}[name], "--seed", 1,
                    "--out", tmp_path / "out.csv"]
        return [command] + [a.format(r=records / f"{name}.csv", d=records, o=tmp_path) for a in _RSS_ARGS[command]]

    code, base_kib, stderr = _peak_kib(cli_env, argv("short"))
    assert code in (0, 1), stderr
    code, peak_kib, stderr = _peak_kib(cli_env, argv("long"))
    assert code in (0, 1), stderr
    in_process_code, nbytes = _budget_bytes(argv("long"), capsys, monkeypatch)
    assert in_process_code == code
    read = 0 if command == "demo-ref" else _READ_BYTES_PER_SAMPLE * 100_001
    assert 1024 * peak_kib <= 1024 * base_kib + nbytes + read, (peak_kib, base_kib, nbytes)


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


def test_atomic_leaves_the_umask_alone(tmp_path, monkeypatch):
    # the temp file gets a plain open's mode without reading the umask, which means setting it
    from shocksynth.cli import _atomic

    plain = tmp_path / "plain.txt"
    plain.write_text("x", encoding="utf-8")

    def umask(mask):
        raise AssertionError("the process umask was set")

    monkeypatch.setattr(os, "umask", umask)
    _atomic(tmp_path / "out.txt", lambda p: p.write_text("y", encoding="utf-8"))
    assert (tmp_path / "out.txt").read_text(encoding="utf-8") == "y"
    assert (tmp_path / "out.txt").stat().st_mode == plain.stat().st_mode
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt", "plain.txt"]


# Valid arguments of each command; each float flag is then given a bad value.
_BASE_ARGS = {
    "srs": ["{d}/ref.csv", "--out", "{o}/out.csv"],
    "filter": ["{d}/ref.csv", "--fc", "1000", "--out", "{o}/out.csv"],
    "bank": ["--fmin", "1000", "--fmax", "4000", "--out", "{o}/out.csv"],
    "synth": ["{d}/spec.csv", "{d}/ref.csv", "--ppo", "3", "--swarm-size", "10", "--max-iters", "3",
              "--out-signal", "{o}/out.csv", "--out-report", "{o}/out.json"],
    "verify": ["{d}/ref.csv", "{d}/spec.csv", "--ppo", "3", "--out-report", "{o}/out.json"],
    "demo-ref": ["--out", "{o}/out.csv"],
}
# Every float flag of those commands, with the name its error gives the value.
_FLOAT_FLAGS = [
    (command, option.opts[0], {"fc": "center_freq"}.get(option.name, option.name))
    for command in _BASE_ARGS
    for option in main.commands[command].params
    if isinstance(option, click.Option) and option.type is click.FLOAT
]


def _run_in_process(argv, capsys):
    """``main(argv)`` in this process: its exit code and stderr.  Any other exception propagates."""
    with pytest.raises(SystemExit) as exit_info:
        main(list(map(str, argv)))
    return exit_info.value.code, capsys.readouterr().err


def test_float_flags_are_the_seventeen_known():
    assert len(_FLOAT_FLAGS) == 17


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command,flag,name", _FLOAT_FLAGS, ids=[f"{c} {f}" for c, f, _ in _FLOAT_FLAGS])
def test_non_finite_number_exits_2_naming_the_parameter(workdir, tmp_path, capsys, command, flag, name, value):
    argv = [command] + [a.format(d=workdir, o=tmp_path) for a in _BASE_ARGS[command]] + [flag, value]
    code, err = _run_in_process(argv, capsys)
    assert code == 2
    [line] = err.splitlines()
    assert line.startswith(f"error: {name} must be finite") and line.endswith(f"got {value}")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", ["0", "-5"])
def test_bank_fs_is_checked_before_it_is_used(tmp_path, capsys, value):
    # the frequency axis is built from 0.49 * fs; numpy's own error or warning must not come first
    argv = ["bank"] + [a.format(o=tmp_path) for a in _BASE_ARGS["bank"]] + ["--fs", value]
    code, err = _run_in_process(argv, capsys)
    assert code == 2
    [line] = err.splitlines()
    assert re.fullmatch(rf"error: fs must be finite and > \S+, got {value}", line)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("spec_rows,option", [
    ([(1000.0, 500.0), (4000.0, 600.0)], ["--q-srs", "nan"]),
    ([(1000.0, 500.0), (30_000.0, 600.0)], []),  # ref.csv is sampled at 50 kHz
], ids=["q-srs nan", "above Nyquist"])
def test_synth_rejects_an_unusable_srs_before_building_the_basis(
    workdir, tmp_path, capsys, monkeypatch, spec_rows, option
):
    from shocksynth import synthesis

    def fail(*args):
        raise AssertionError("build_basis called")

    monkeypatch.setattr(synthesis, "build_basis", fail)
    write_spec_csv(tmp_path / "spec.csv", spec_rows)
    argv = ["synth", tmp_path / "spec.csv", workdir / "ref.csv", *option,
            "--out-signal", tmp_path / "s.csv", "--out-report", tmp_path / "r.json"]
    code, err = _run_in_process(argv, capsys)
    assert code == 2
    assert re.fullmatch(r"error: (q_srs must be finite|natural frequency .* above Nyquist).*\n", err)


@pytest.mark.parametrize("command", ["synth", "verify"])
def test_bad_tolerance_is_not_blamed_on_the_spec_file(workdir, tmp_path, capsys, command):
    argv = [command] + [a.format(d=workdir, o=tmp_path) for a in _BASE_ARGS[command]] + ["--tolerance-db", "0"]
    code, err = _run_in_process(argv, capsys)
    assert code == 2
    assert err == "error: tolerance_db must be finite and > 0, got 0\n"


def test_srs_out_of_memory_exits_2_naming_the_command_and_flags(workdir, tmp_path, capsys, monkeypatch):
    # a command that runs out of memory exits 2; the failure is simulated
    # rather than allocated
    from shocksynth import cli

    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "srs", exhausted)
    out = tmp_path / "o.csv"
    code, err = _run_in_process(["srs", workdir / "ref.csv", "--q-srs", "1e12", "--out", out], capsys)
    assert code == 2
    assert err == "error: srs ran out of memory; lower --q-srs or --ppo, or raise --fmin\n"
    assert not out.exists()


@pytest.mark.parametrize("command", sorted(main.commands))
def test_out_of_memory_advice_names_only_the_commands_own_flags(workdir, tmp_path, capsys, monkeypatch, command):
    # simulated in the command itself, after its arguments are parsed
    def exhausted(**kwargs):
        raise MemoryError

    monkeypatch.setattr(main.commands[command], "callback", exhausted)
    argv = [command] + [a.format(d=workdir, o=tmp_path) for a in _BASE_ARGS[command]]
    code, err = _run_in_process(argv, capsys)
    assert code == 2
    assert err.startswith(f"error: {command} ran out of memory; ")
    flags = re.findall(r"--[a-z][a-z-]*", err)
    assert flags and set(flags) <= {o for p in main.commands[command].params for o in p.opts}


@pytest.mark.parametrize("command", ["srs", "verify"])
def test_huge_q_srs_exits_2_at_once(workdir, tmp_path, capsys, command):
    # the SRS sums its rows over the grid before it filters any of them
    out = tmp_path / "o"
    inputs = [workdir / "ref.csv"] + ([workdir / "spec.csv", "--out-report"] if command == "verify" else ["--out"])
    start = time.perf_counter()
    code, err = _run_in_process([command, *inputs, out, "--q-srs", "1e12"], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert err.startswith("error: SRS would filter ")
    lowest = "100 Hz" if command == "srs" else "1000 Hz"  # --fmin, or the spec's first breakpoint
    assert err.endswith(f"row limit; lower q_srs (1e+12) or raise the lowest frequency ({lowest})\n")
    assert not out.exists()


def test_huge_filter_q_exits_2_at_once(workdir, tmp_path, capsys):
    # 3.3e9 rows at 100 Hz, Q = 1e6: refused before any of them is filtered
    out = tmp_path / "o.csv"
    start = time.perf_counter()
    code, err = _run_in_process(["filter", workdir / "ref.csv", "--fc", "100", "--q", "1e6", "--out", out], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert re.fullmatch(
        r"error: filter at center_freq=100 Hz with q=1e\+06 would hold 2\.67e\+10 bytes, "
        r"over the 1,073,741,824-byte limit; lower q or raise center_freq\n",
        err,
    )
    assert list(tmp_path.iterdir()) == []


@pytest.fixture(scope="module")
def demo_ref(tmp_path_factory):
    """The 50 ms, 100 kHz demo reference of the README, seed 1."""
    path = tmp_path_factory.mktemp("demo") / "ref.csv"
    write_signal(synth_reference(seed=1), path)
    return path


def _refused(argv, capsys, monkeypatch):
    """Exit code and stderr of ``argv`` with every filter runner and the basis builder made to fail."""
    def work(*args, **kwargs):
        raise AssertionError("work started before the budget was checked")

    for module, name in [("srs", "_segments"), ("nzdf", "_segments"), ("synthesis", "build_basis")]:
        monkeypatch.setattr(importlib.import_module(f"shocksynth.{module}"), name, work)
    return _run_in_process(argv, capsys)


@pytest.mark.parametrize("command", ["srs", "verify", "filter"])
def test_over_budget_commands_refuse_before_any_filtering(workdir, tmp_path, capsys, monkeypatch, command):
    flags = {"srs": ["--q-srs", "1e12"], "verify": ["--q-srs", "1e12"], "filter": ["--fc", "100", "--q", "1e6"]}
    argv = [command] + [a.format(d=workdir, o=tmp_path) for a in _BASE_ARGS[command]] + flags[command]
    code, err = _refused(argv, capsys, monkeypatch)
    assert code == 2
    assert re.fullmatch(r"error: .* would (filter .* rows, over the 1,000,000,000-row|hold .* bytes, over the "
                        r"1,073,741,824-byte) limit; lower q(_srs \(1e\+12\))? or raise .*\n", err), err
    assert list(tmp_path.iterdir()) == []


def _refuse_to_parse(monkeypatch, name, what):
    """Make numpy's reader and the per-line pass fail on the file ``name``, and read every other file."""
    signal_core = importlib.import_module("shocksynth.signal_core")

    def refusing(parse, file_name):
        def checked(*args, **kwargs):
            if file_name(args) == name:
                raise AssertionError(f"{what} was parsed before the budget was checked")
            return parse(*args, **kwargs)
        return checked

    monkeypatch.setattr(np, "loadtxt", refusing(np.loadtxt, lambda args: Path(args[0].name).name))
    monkeypatch.setattr(signal_core, "_parse_lines", refusing(signal_core._parse_lines, lambda args: args[2]))


# Each command that reads a record ``{r}``, as in ``_RSS_ARGS``.
_BIG_RECORD_ARGS = dict(
    _RSS_ARGS, synth=["{d}/spec.csv", "{r}", "--out-signal", "{o}/out.csv", "--out-report", "{o}/out.json"]
)


@pytest.mark.parametrize("command", sorted(_BIG_RECORD_ARGS))
def test_oversized_record_is_refused_before_it_is_parsed(workdir, tmp_path, capsys, monkeypatch, command):
    # a sparse 1 GiB file: its size is all the budget reads, so no data is written
    record = tmp_path / "big.csv"
    record.touch()
    os.truncate(record, 1 << 30)

    _refuse_to_parse(monkeypatch, "big.csv", "the record")
    argv = [command] + [a.format(r=record, d=workdir, o=tmp_path) for a in _BIG_RECORD_ARGS[command]]
    code, err = _run_in_process(argv, capsys)
    assert code == 2
    assert err == ("error: reading big.csv would hold 2.15e+09 bytes, over the 1,073,741,824-byte limit; "
                   "shorten or decimate the record\n"), err
    assert [p.name for p in tmp_path.iterdir()] == ["big.csv"]


@pytest.mark.parametrize("command", ["synth", "verify"])
def test_oversized_spec_is_refused_before_it_is_parsed(workdir, tmp_path, capsys, monkeypatch, command):
    # a sparse 1 GiB spec is charged by the record's rule; verify still parses its record first
    spec = tmp_path / "big.csv"
    spec.touch()
    os.truncate(spec, 1 << 30)

    _refuse_to_parse(monkeypatch, "big.csv", "the spec")
    args = {"synth": ["{s}", "{d}/ref.csv", "--out-signal", "{o}/out.csv", "--out-report", "{o}/out.json"],
            "verify": ["{d}/ref.csv", "{s}", "--out-report", "{o}/out.json"]}[command]
    code, err = _run_in_process([command] + [a.format(s=spec, d=workdir, o=tmp_path) for a in args], capsys)
    assert code == 2
    assert err == ("error: reading big.csv would hold 2.15e+09 bytes, over the 1,073,741,824-byte limit; "
                   "list fewer breakpoints\n"), err
    assert [p.name for p in tmp_path.iterdir()] == ["big.csv"]


def test_negative_seed_is_refused_before_any_work(workdir, tmp_path, capsys, monkeypatch):
    def work(*args, **kwargs):
        raise AssertionError("work started before the seed was checked")

    for name in ("read_spec", "read_signal", "synthesize"):
        monkeypatch.setattr(importlib.import_module("shocksynth.cli"), name, work)
    code, err = _run_in_process(["synth", workdir / "spec.csv", workdir / "ref.csv", "--seed", "-1",
                                 "--out-signal", tmp_path / "s.csv", "--out-report", tmp_path / "r.json"], capsys)
    assert code == 2
    assert err == "error: seed must be >= 0, got -1\n", err
    assert list(tmp_path.iterdir()) == []


def test_demo_ref_negative_seed_is_refused_by_name(tmp_path, capsys):
    code, err = _run_in_process(["demo-ref", "--seed", "-1", "--out", tmp_path / "ref.csv"], capsys)
    assert code == 2
    assert err == "error: seed must be >= 0, got -1\n", err
    assert list(tmp_path.iterdir()) == []


def test_filter_with_a_pole_on_the_unit_circle_prints_one_error_line(workdir, tmp_path, capsys):
    # at q = 1e300 the pole pair's a2 rounds to 1: refused before the gain pin divides by zero
    argv = ["filter", workdir / "ref.csv", "--fc", "1000", "--q", "1e300", "--out", tmp_path / "f.csv"]
    code, err = _run_in_process(argv, capsys)
    assert code == 2
    assert err == "error: discretized section has a pole on or outside the unit circle\n", err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("lowest", [1.0, 2.0, 5.0])
def test_synth_over_budget_refuses_before_the_basis(demo_ref, tmp_path, capsys, monkeypatch, lowest):
    # the basis and cache a low first breakpoint needs are sized up front
    write_spec_csv(tmp_path / "spec.csv", [(lowest, 300.0), (1800.0, 10_000.0), (10_000.0, 10_000.0)])
    argv = ["synth", tmp_path / "spec.csv", demo_ref, "--seed", "1",
            "--out-signal", tmp_path / "s.csv", "--out-report", tmp_path / "r.json"]
    code, err = _refused(argv, capsys, monkeypatch)
    assert code == 2
    assert re.fullmatch(r"error: synthesis would hold \S+ bytes, over the 1,073,741,824-byte limit; "
                        rf"raise the lowest center \({lowest:g} Hz\) or lower ppo \(6\)\n", err), err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.csv"]


@pytest.mark.parametrize("ppo", [10**12, 10**400], ids=["1e12", "1e400"])
def test_huge_ppo_exits_2_naming_ppo_and_the_range(workdir, tmp_path, capsys, ppo):
    # rejected from the grid's size before the grid is allocated
    out = tmp_path / "o.csv"
    code, err = _run_in_process(["srs", workdir / "ref.csv", "--ppo", ppo, "--out", out], capsys)
    assert code == 2
    assert err == (
        f"error: ppo={ppo} points per octave from fmin=100 to fmax=10000 is over the 100,000-point "
        "limit on the grid and on ppo; lower ppo or narrow fmin to fmax\n"
    )
    assert not out.exists()


def test_demo_ref_too_short_for_its_correction_pulses_exits_2(tmp_path, capsys):
    # at 100 kHz a 50 us record has one sample under the pulses, a 60 us record two
    code, err = _run_in_process(["demo-ref", "--duration", "5e-5", "--out", tmp_path / "x.csv"], capsys)
    assert code == 2
    assert err.startswith("error: duration 5e-05 s at fs 100000 Hz leaves fewer than 2 samples")
    assert list(tmp_path.iterdir()) == []
    assert main(["demo-ref", "--duration", "6e-5", "--out", str(tmp_path / "x.csv")], standalone_mode=False) is None
    assert (tmp_path / "x.csv").exists()


def test_demo_ref_whose_sample_count_overflows_exits_2(tmp_path, capsys):
    argv = ["demo-ref", "--duration", "1e300", "--fs", "1e10", "--fmax", "1e9", "--out", tmp_path / "x.csv"]
    code, err = _run_in_process(argv, capsys)
    assert code == 2
    assert err == "error: demo-ref would filter inf rows, over the 1,000,000,000-row limit; lower fs or duration\n"
    assert list(tmp_path.iterdir()) == []


def test_bank_over_budget_exits_2_before_designing_a_filter(tmp_path, capsys, monkeypatch):
    # at the grid cap, 99,998 filters took 30 to 50 s; each is charged 0.5 ms in filtered rows
    from shocksynth import cli

    def design(*args, **kwargs):
        raise AssertionError("a filter was designed before the budget was checked")

    monkeypatch.setattr(cli, "discretize", design)
    code, err = _run_in_process(["bank", "--ppo", 15051, "--out", tmp_path / "bank.csv"], capsys)
    assert code == 2
    assert err == ("error: bank of 99,998 filters would filter 3.12e+09 rows, over the 1,000,000,000-row limit; "
                   "lower --ppo or narrow --fmin to --fmax\n")
    assert list(tmp_path.iterdir()) == []


def test_bank_default_grid_is_written_as_without_its_budget_check(tmp_path, monkeypatch):
    from shocksynth import cli

    assert main(["bank", "--out", str(tmp_path / "checked.csv")], standalone_mode=False) is None
    monkeypatch.setattr(cli, "_budget", lambda *args, **kwargs: None)
    assert main(["bank", "--out", str(tmp_path / "unchecked.csv")], standalone_mode=False) is None
    assert (tmp_path / "checked.csv").read_bytes() == (tmp_path / "unchecked.csv").read_bytes()


def _in_process(argv, capsys):
    """``_run_in_process`` with every ``UserWarning`` recorded: exit code, stderr and the warnings' messages."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        code, err = _run_in_process(argv, capsys)
    return code, err, [str(w.message) for w in caught]


def _synth_twice(spec, ref, out, *flags):
    """``synth`` argv writing ``{out}{k}.csv`` and ``{out}{k}.json``, for runs k = 0 and 1."""
    return [["synth", spec, ref, *flags, "--out-signal", f"{out}{k}.csv", "--out-report", f"{out}{k}.json"]
            for k in range(2)]


@pytest.mark.parametrize("fs,fmax,breakpoints,near_nyquist", [
    (25_600.0, 2000.0, [(200.0, 100.0), (800.0, 600.0), (2000.0, 400.0)], False),
    (51_200.0, 5000.0, [(500.0, 300.0), (2000.0, 2000.0), (5000.0, 1500.0)], False),
    # the top center, 6,350 Hz, is over fs / 10: build_basis warns and goes on
    (51_200.0, 5120.0, [(500.0, 300.0), (2000.0, 2000.0), (6000.0, 1500.0)], True),
    (204_800.0, 20_000.0, [(2000.0, 1000.0), (8000.0, 5000.0), (20_000.0, 5000.0)], False),
], ids=["25.6k", "51.2k", "51.2k-near-nyquist", "204.8k"])
def test_demo_ref_synth_verify_at_other_sample_rates(tmp_path, capsys, fs, fmax, breakpoints, near_nyquist):
    ref, spec = tmp_path / "ref.csv", tmp_path / "spec.csv"
    write_spec_csv(spec, breakpoints)
    argv = ["demo-ref", "--fs", fs, "--duration", 0.02, "--fmax", fmax, "--seed", 3, "--out", ref]
    assert _in_process(argv, capsys)[0] == 0
    runs = _synth_twice(spec, ref, tmp_path / "s", "--seed", 3, "--swarm-size", 10, "--max-iters", 5)
    for argv in runs:
        code, err, caught = _in_process(argv, capsys)
        assert code == 0, err
        assert any("below 10x the top center" in m for m in caught) == near_nyquist, caught
    for suffix in (".csv", ".json"):
        assert (tmp_path / f"s0{suffix}").read_bytes() == (tmp_path / f"s1{suffix}").read_bytes()
    sig = read_signal(tmp_path / "s0.csv")
    assert sig.sample_rate == pytest.approx(fs, rel=1e-9)
    assert residual_motion(sig, 1e-3).passed
    code, err, _ = _in_process(["verify", tmp_path / "s0.csv", spec, "--out-report", tmp_path / "v.json"], capsys)
    assert code == 0, err
    report = json.loads((tmp_path / "v.json").read_text(encoding="utf-8"))
    assert report["pass_srs"] is True and report["pass_net_zero"] is True


# Specs of 2 to 4 breakpoints inside a 20 kHz, 20 ms demo reference's band, [50 Hz, fmax].
_BREAKPOINTS = st.lists(st.integers(200, 2000), min_size=2, max_size=4, unique=True).map(sorted).flatmap(
    lambda freqs: st.lists(st.integers(50, 5000), min_size=len(freqs), max_size=len(freqs)).map(
        lambda peaks: [(float(f), float(a)) for f, a in zip(freqs, peaks)]
    )
)
_SMALL_CASES = settings(max_examples=6, derandomize=True, deadline=None,
                        suppress_health_check=[HealthCheck.function_scoped_fixture])


@_SMALL_CASES
@given(breakpoints=_BREAKPOINTS, seed=st.integers(0, 1000))
def test_synth_properties_on_small_random_cases(breakpoints, seed, capsys):
    # the written signal is net zero, a repeat run writes the same bytes, and
    # the reported max |dB| is what verify reads back off the written CSV
    with tempfile.TemporaryDirectory() as d:
        ref, spec, out = Path(d) / "ref.csv", Path(d) / "spec.csv", Path(d) / "s"
        write_spec_csv(spec, breakpoints)
        argv = ["demo-ref", "--fs", 20_000, "--duration", 0.02, "--fmax", 2000, "--seed", seed, "--out", ref]
        assert _in_process(argv, capsys)[0] == 0
        codes = set()
        for argv in _synth_twice(spec, ref, out, "--seed", seed, "--swarm-size", 10, "--max-iters", 3):
            code, err, _ = _in_process(argv, capsys)
            assert code in (0, 1), err
            codes.add(code)
        assert len(codes) == 1
        for suffix in (".csv", ".json"):
            assert Path(f"{out}0{suffix}").read_bytes() == Path(f"{out}1{suffix}").read_bytes()
        assert residual_motion(read_signal(f"{out}0.csv"), 1e-3).passed
        report = json.loads(Path(f"{out}0.json").read_text(encoding="utf-8"))
        code, err, _ = _in_process(["verify", f"{out}0.csv", spec, "--out-report", Path(d) / "v.json"], capsys)
        assert code in (0, 1), err
        verified = json.loads((Path(d) / "v.json").read_text(encoding="utf-8"))
        assert [r["freq_hz"] for r in verified["per_freq"]] == [r["freq_hz"] for r in report["per_freq"]]
        assert verified["max_abs_db"] == pytest.approx(report["max_abs_db"], abs=1e-6)


@_SMALL_CASES
@given(breakpoints=_BREAKPOINTS, amplitude=st.sampled_from([0.0, 5e-324]), at=st.integers(0, 400))
def test_synth_on_a_reference_with_no_band_energy_is_infeasible(breakpoints, amplitude, at, capsys):
    # a 20 ms, 20 kHz reference, zero but for at most one subnormal sample: every band filters to zero
    with tempfile.TemporaryDirectory() as d:
        ref, spec = Path(d) / "ref.csv", Path(d) / "spec.csv"
        samples = np.zeros(401)
        samples[at] = amplitude
        write_signal(Signal(20_000.0, samples), ref)
        write_spec_csv(spec, breakpoints)
        argv = ["synth", spec, ref, "--swarm-size", 10, "--max-iters", 3,
                "--out-signal", Path(d) / "s.csv", "--out-report", Path(d) / "r.json"]
        code, err, _ = _in_process(argv, capsys)
        assert code == 1
        assert err.startswith("synthesis infeasible: "), err
        assert sorted(p.name for p in Path(d).iterdir()) == ["ref.csv", "spec.csv"]


# Numbers at and past the edge of what some input accepts.
_EDGE = st.sampled_from([float("nan"), float("inf"), float("-inf"), 0.0, -1.0, 5e-324, 1e300])


def _maybe_edge(draw, values):
    """``values`` with, one time in four, one of them replaced by an edge number."""
    values = list(values)
    if values and draw(st.integers(0, 3)) == 3:
        values[draw(st.integers(0, len(values) - 1))] = draw(_EDGE)
    return values


def _csv(header, columns):
    return header + "\n" + "".join(",".join(map(repr, row)) + "\n" for row in zip(*columns))


@st.composite
def _cli_case(draw, command):
    """A record and a spec as CSV text, and flags of ``command``, drawn small, valid or not."""
    n = draw(st.one_of(st.integers(2, 60), st.sampled_from([0, 1])))
    [dt] = _maybe_edge(draw, [draw(st.sampled_from([1e-5, 2e-5]))])
    record = _csv("time_s,accel_m_s2", [[i * dt for i in range(n)],
                                        _maybe_edge(draw, draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)))])
    m = draw(st.integers(2, 4))
    freqs = draw(st.lists(st.floats(50.0, 5e3), min_size=m, max_size=m, unique=True))
    if draw(st.integers(0, 3)) < 3:
        freqs.sort()
    rows = _maybe_edge(draw, freqs + draw(st.lists(st.floats(1.0, 1e4), min_size=m, max_size=m)))
    spec = _csv("freq_hz,peak_accel_m_s2", [rows[:m], rows[m:]])
    flags = []
    for option in main.commands[command].params:  # each float flag near its default (--fc near 1 kHz), or an edge
        if option.type is click.FLOAT and draw(st.booleans()):
            default = 1000.0 if option.required else option.default
            [value] = _maybe_edge(draw, [default * draw(st.floats(0.5, 2.0))])
            flags += [option.opts[0], repr(value)]
    for flag, values, commands in [("--ppo", [1, 3, 0, 10**12], {"srs", "bank", "synth", "verify"}),
                                   ("--seed", [1, -1, 2**70], {"synth", "demo-ref"})]:
        if command in commands and draw(st.booleans()):
            flags += [flag, str(draw(st.sampled_from(values)))]
    return record, spec, flags


@pytest.mark.parametrize("command", sorted(_BASE_ARGS))
@settings(max_examples=7, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_command_exits_0_1_or_2_with_one_error_line(command, data, capsys):
    # the CLI contract over drawn inputs; the lowered limits keep each example
    # small and send the over-budget ones down the exit-2 path
    record, spec, flags = data.draw(_cli_case(command))
    with tempfile.TemporaryDirectory() as d, mock.patch.object(signal_core, "_MAX_ROWS", 2_000_000), \
            mock.patch.object(signal_core, "_MAX_BYTES", 32 << 20):
        (Path(d) / "ref.csv").write_text(record, encoding="utf-8")
        (Path(d) / "spec.csv").write_text(spec, encoding="utf-8")
        argv = [command] + [a.format(d=d, o=d) for a in _BASE_ARGS[command]] + flags
        code, err, _ = _in_process(argv, capsys)
    assert code in (0, 1, 2), (argv, err)
    assert "Traceback" not in err, (argv, err)
    if code == 2:
        assert [line.lower().startswith("error:") for line in err.splitlines()].count(True) == 1, (argv, err)
