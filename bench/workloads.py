"""Workload inputs, the CLI calls of one round, and their correctness checks.

Every input is made from the workload seed alone: the reference shock and
the recorded signals come from ``demo-ref`` child processes seeded from it,
the specs are constants, and the synth optimizer seed is the workload seed.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

WORKLOADS = ("synth-plateau", "synth-launcher", "verify-records")

# The README / criterion 1 spec and the criterion 9 spec of the acceptance suite.
PLATEAU = [(100.0, 300.0), (1800.0, 10_000.0), (10_000.0, 10_000.0)]
LAUNCHER = [
    (100.0, 200.0),
    (250.0, 1500.0),
    (500.0, 900.0),
    (1000.0, 4000.0),
    (2000.0, 2500.0),
    (3000.0, 8000.0),
    (6000.0, 6000.0),
    (10_000.0, 9000.0),
]

# verify-records: a batch of 1 s records at 100 kHz (100,001 samples each).
# Against the launcher spec their worst error is about 6 to 8.5 dB, so a
# 7 dB tolerance gives both in-tolerance (exit 0) and out-of-tolerance
# (exit 1) records across seeds.
RECORDS = 3
RECORD_DURATION_S = "1.0"
VERIFY_TOLERANCE_DB = "7"

# A report's max |dB| must match an in-process recheck of the written
# signal to this many dB; the CSV keeps 12 significant digits.
RECHECK_DB_TOL = 1e-6


@dataclasses.dataclass
class Call:
    """One CLI call of a round and what a correct outcome looks like."""

    argv: list[str]
    outputs: list[Path]
    expect_code: int
    # Expected output bytes by path; None means "equal to the first round's".
    expect_bytes: dict[Path, bytes] | None = None
    report: Path | None = None
    expect_pass: bool = False


@dataclasses.dataclass
class Inputs:
    spec: Path
    signals: list[Path]
    # verify-records: per record, the expected exit code and report bytes.
    expected: list[tuple[int, bytes]]


def write_spec_csv(path: Path, breakpoints) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("freq_hz,peak_accel_m_s2\n")
        for f, v in breakpoints:
            fh.write(f"{f:.12g},{v:.12g}\n")


def demo_ref_argv(name: str, seed: int, out_dir: Path) -> list[list[str]]:
    if name.startswith("synth-"):
        return [["demo-ref", "--seed", str(seed), "--out", str(out_dir / "ref.csv")]]
    return [
        [
            "demo-ref", "--duration", RECORD_DURATION_S, "--seed", str(1000 * seed + i),
            "--out", str(out_dir / f"record{i}.csv"),
        ]
        for i in range(RECORDS)
    ]


def setup(name: str, seed: int, work: Path, run_cli) -> Inputs:
    """Make the workload's inputs under ``work``.

    ``run_cli(argv)`` runs one CLI call in a child process and raises when
    it fails; set-up failures abort the run rather than being counted.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    work.mkdir(parents=True)
    spec = work / "spec.csv"
    write_spec_csv(spec, PLATEAU if name == "synth-plateau" else LAUNCHER)
    argvs = demo_ref_argv(name, seed, work)
    for argv in argvs:
        run_cli(argv)
    signals = [Path(argv[-1]) for argv in argvs]
    expected = []
    if name == "verify-records":
        expected = [expected_verify(rec, spec, work / f"expected{i}.json") for i, rec in enumerate(signals)]
    return Inputs(spec, signals, expected)


def input_files(inputs: Inputs) -> list[Path]:
    return [inputs.spec, *inputs.signals]


def expected_verify(record: Path, spec_csv: Path, report_path: Path) -> tuple[int, bytes]:
    """Exit code and report bytes that ``shocksynth verify`` must produce.

    Computed in-process from ``verify()`` plus ``build_report`` with the
    CLI's defaults (q_srs 10, 6 points per octave, net-zero tol 1e-3).
    """
    from shocksynth.filterbank import make_layout
    from shocksynth.signal_core import read_signal
    from shocksynth.srs import read_spec, spec_interpolate, srs
    from shocksynth.synthesis import build_report, verification_grid, verify, write_report

    sig = read_signal(record)
    spec = read_spec(spec_csv, float(VERIFY_TOLERANCE_DB))
    srs_report, residuals = verify(sig, spec)
    grid = verification_grid(spec, make_layout(spec.freqs[0], spec.freqs[-1], 6))
    report = build_report(srs(sig, grid), spec_interpolate(spec, grid), srs_report, residuals)
    write_report(report, report_path)
    code = 0 if srs_report.passed and residuals.passed else 1
    return code, report_path.read_bytes()


def round_calls(name: str, seed: int, inputs: Inputs, out_dir: Path) -> list[Call]:
    """The CLI calls of one round, writing under ``out_dir``."""
    out_dir.mkdir(parents=True)
    if name.startswith("synth-"):
        signal, report = out_dir / "synth.csv", out_dir / "report.json"
        argv = [
            "synth", str(inputs.spec), str(inputs.signals[0]), "--seed", str(seed),
            "--out-signal", str(signal), "--out-report", str(report),
        ]
        return [Call(argv, [signal, report], 0, None, report, expect_pass=True)]
    calls = []
    for i, (record, (code, report_bytes)) in enumerate(zip(inputs.signals, inputs.expected)):
        report = out_dir / f"verify{i}.json"
        argv = [
            "verify", str(record), str(inputs.spec), "--tolerance-db", VERIFY_TOLERANCE_DB,
            "--out-report", str(report),
        ]
        calls.append(Call(argv, [report], code, {report: report_bytes}, report))
    return calls


def check_call(call: Call, code: int, first: Call | None) -> list[str]:
    """Problems with one finished call; an empty list means it is correct."""
    problems = []
    if code != call.expect_code:
        problems.append(f"exit code {code}, expected {call.expect_code}")
    missing = [p for p in call.outputs if not p.is_file()]
    if missing:
        return problems + [f"missing output {p.name}" for p in missing]
    if call.expect_bytes is not None:
        for path, data in call.expect_bytes.items():
            if path.read_bytes() != data:
                problems.append(f"{path.name} differs from the expected bytes")
    elif first is not None:
        for mine, theirs in zip(call.outputs, first.outputs):
            if mine.read_bytes() != theirs.read_bytes():
                problems.append(f"{mine.name} differs from the first round's bytes")
    if call.expect_pass:
        report = json.loads(call.report.read_text(encoding="utf-8"))
        if not (report["pass_srs"] and report["pass_net_zero"]):
            problems.append("report has a failing pass flag")
        problems += recheck_synth(call)
    return problems


def recheck_synth(call: Call) -> list[str]:
    """The synth report must describe the signal it was written with."""
    from shocksynth.signal_core import read_signal
    from shocksynth.srs import read_spec
    from shocksynth.synthesis import verify

    spec_csv, signal = Path(call.argv[1]), call.outputs[0]
    report = json.loads(call.report.read_text(encoding="utf-8"))
    srs_report, residuals = verify(read_signal(signal), read_spec(spec_csv))
    if abs(srs_report.max_abs_db - report["max_abs_db"]) > RECHECK_DB_TOL:
        return [f"report max |dB| {report['max_abs_db']} but the signal rechecks at {srs_report.max_abs_db}"]
    if residuals.passed != report["pass_net_zero"]:
        return ["report net-zero flag disagrees with a recheck of the signal"]
    return []


def max_abs_db(call: Call) -> float:
    return float(json.loads(call.report.read_text(encoding="utf-8"))["max_abs_db"])
