"""shocksynth benchmark: CLI end to end, or one traced pass per module.

    python3 bench/run.py --workload synth-launcher --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/``.  With
``--trace 0`` every call is a child ``python -m shocksynth.cli`` and the
end-to-end metrics are printed; with ``--trace 1`` the same calls run
in-process through ``shocksynth.cli.main`` with spans around each module's
functions, and the per-layer metrics are printed.  The last line of stdout
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# One BLAS/OpenMP thread everywhere, as tests/conftest.py does, so that CPU
# time is honest and outputs are byte-reproducible.
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Set-up is repeated (at least 3 times and for at least 5 s) and its
# median reported, so a single slow child start does not move setup_s.
SETUP_REPEATS = 3
SETUP_MIN_S = 5.0
IMPORT_REPEATS = 3

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


class SetupError(RuntimeError):
    pass


def check_metrics(metrics: dict) -> None:
    """Every metric needs a valid name and unit and a finite numeric value."""
    for name, entry in metrics.items():
        if not NAME_RE.fullmatch(name):
            raise ValueError(f"bad metric name {name!r}")
        if not UNIT_RE.fullmatch(entry["unit"]):
            raise ValueError(f"bad unit {entry['unit']!r} for {name}")
        value = entry["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)) or value != value:
            raise ValueError(f"metric {name} has non-numeric value {value!r}")


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str]) -> dict:
    """Run one command to completion; wall time plus ``wait4`` rusage."""
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return {
            "code": proc.returncode,
            "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "stdout": out.read().decode(errors="replace"),
            "stderr": err.read().decode(errors="replace"),
        }


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "shocksynth.cli", *args]


def setup_cli(args: list[str]) -> None:
    r = run_child(cli_argv(args))
    if r["code"] != 0:
        raise SetupError(f"set-up call {' '.join(args[:1])} exited {r['code']}: {r['stderr'].strip()}")


def run_in_process(args: list[str]) -> int:
    """``shocksynth.cli.main`` in this process; returns the exit code."""
    import click
    from shocksynth.cli import main

    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            main(args, prog_name="shocksynth", standalone_mode=False)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except click.ClickException:
            return 2
    return 0


def machine_facts() -> dict:
    import numpy
    import scipy

    model = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    blas = {}
    with contextlib.suppress(KeyError, TypeError):  # show_config's layout varies across numpy releases
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": info.get("name"), "version": info.get("version")}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_pins": {k: os.environ.get(k) for k in THREAD_PINS},
    }


def cpu_ticks():
    """(all, steal) CPU ticks since boot from /proc/stat, or None without it."""
    try:
        fields = [int(x) for x in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    except (OSError, ValueError):
        return None
    return sum(fields[:8]), fields[7]


def do_setup(workload: str, seed: int, work: Path, repeats: int, min_s: float = 0.0):
    """Make the inputs ``repeats`` times or more, until ``min_s`` have passed.

    Every repeat must be byte-identical to the first.
    """
    import workloads

    times, made = [], []
    while len(times) < repeats or sum(times) < min_s:
        t0 = time.perf_counter()
        inputs = workloads.setup(workload, seed, work / f"setup{len(times)}", setup_cli)
        times.append(time.perf_counter() - t0)
        made.append(inputs)
    first = [p.read_bytes() for p in workloads.input_files(made[0])]
    for inputs in made[1:]:
        if [p.read_bytes() for p in workloads.input_files(inputs)] != first:
            raise SetupError("set-up is not deterministic: a repeat made different inputs")
        if inputs.expected != made[0].expected:
            raise SetupError("set-up is not deterministic: a repeat expected different outputs")
    return made[-1], statistics.median(times)


def untraced(workload: str, seed: int, seconds: float, work: Path, log) -> tuple[dict, int, int]:
    """Rounds of child CLI calls until ``seconds`` have passed."""
    import workloads

    inputs, setup_s = do_setup(workload, seed, work, SETUP_REPEATS, SETUP_MIN_S)
    attempted = failed = 0
    walls, cpus, rss, dbs = [], [], [], []
    first = None
    rounds = 0
    t_start = time.perf_counter()
    while True:
        calls = workloads.round_calls(workload, seed, inputs, work / f"round{rounds}")
        for i, call in enumerate(calls):
            r = run_child(cli_argv(call.argv))
            walls.append(r["wall"])
            cpus.append(r["cpu"])
            rss.append(r["rss_mb"])
            attempted += 1
            problems = workloads.check_call(call, r["code"], first[i] if first else None)
            if problems:
                failed += 1
                log(f"FAILED {call.argv[0]}: {'; '.join(problems)}; stderr: {r['stderr'].strip()[-500:]}")
            if call.report is not None and call.report.is_file():
                dbs.append(workloads.max_abs_db(call))
        first = first or calls
        rounds += 1
        if time.perf_counter() - t_start >= seconds:
            break
    log(f"rounds {rounds}, calls per round {len(calls)}, call walls {' '.join(f'{w:.3f}' for w in walls)} s")
    values = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": max(rss),
        "setup_s": setup_s,
    }
    # Printed but not gated: across workload seeds its quartile spread is
    # wider than the largest bound an end-to-end metric may carry.
    log(f"max_abs_db {max(dbs)!r} dB" if dbs else "max_abs_db: no report was written")
    log(f"fail_frac {failed / attempted:.6g} ratio ({failed} of {attempted} calls)")
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}, attempted, failed


def cold_import_s() -> float:
    """Median time of ``import shocksynth.cli`` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import shocksynth.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(IMPORT_REPEATS):
        r = run_child([sys.executable, "-c", code])
        if r["code"] != 0:
            raise SetupError(f"import shocksynth.cli failed: {r['stderr'].strip()}")
        times.append(float(r["stdout"].strip()))
    return statistics.median(times)


def traced(workload: str, seed: int, work: Path, log) -> tuple[dict, int, int]:
    """One untraced and one traced in-process pass over the same CLI calls.

    A pass is the workload's set-up ``demo-ref`` calls followed by one round.
    The traced pass is the source of the per-layer metrics; the wall-time
    difference of the two passes is the tracing overhead.
    """
    import tracing
    import workloads

    inputs, _ = do_setup(workload, seed, work, 1)
    import_s = cold_import_s()
    # Warm this process's lazy imports and first-call costs so that neither
    # pass pays them and the overhead is the wrappers' alone.
    (work / "warm").mkdir()
    run_in_process(workloads.demo_ref_argv(workload, seed, work / "warm")[0])

    passes = {}
    attempted = failed = 0
    for label in ("untraced", "traced"):
        pass_dir = work / label
        refs = workloads.demo_ref_argv(workload, seed, pass_dir)
        calls = workloads.round_calls(workload, seed, inputs, pass_dir / "round")
        tracer = tracing.Tracer(f"{workload}-seed{seed}-{label}")
        installed = tracing.Installed(tracer) if label == "traced" else None
        codes = []
        t0 = time.perf_counter()
        try:
            for argv in refs + [c.argv for c in calls]:
                codes.append(run_in_process(argv))
        finally:
            if installed is not None:
                installed.restore()
        passes[label] = (time.perf_counter() - t0, tracer, installed, calls)

        for argv, want, code in zip(refs, inputs.signals, codes):
            attempted += 1
            got = Path(argv[-1])
            if code != 0 or not got.is_file() or got.read_bytes() != want.read_bytes():
                failed += 1
                log(f"FAILED {label} demo-ref: exit {code} or bytes differ from set-up")
        first = passes["untraced"][3] if label == "traced" else None
        for i, (call, code) in enumerate(zip(calls, codes[len(refs):])):
            attempted += 1
            problems = workloads.check_call(call, code, first[i] if first else None)
            if problems:
                failed += 1
                log(f"FAILED {label} {call.argv[0]}: {'; '.join(problems)}")

    wall_u = passes["untraced"][0]
    wall_t, tracer, installed, _ = passes["traced"]
    spans = tracer.spans
    layer = tracing.layer_metrics(spans, installed.absent)
    layer["cli.import_s"] = (import_s, "s")
    dbs = [workloads.max_abs_db(c) for c in passes["traced"][3] if c.report.is_file()]
    if dbs:
        layer["synthesis.max_abs_db"] = (max(dbs), "dB")
    layer["trace.overhead_s"] = (wall_t - wall_u, "s")
    if installed.absent:
        log(f"absent (no longer in the package): {', '.join(installed.absent)}")
    log(f"passes: untraced {wall_u:.4f} s, traced {wall_t:.4f} s, {len(spans)} spans")
    log(f"fail_frac {failed / attempted:.6g} ratio ({failed} of {attempted} calls)")

    table = tracing.span_table(spans)
    for row in table:
        log(f"span {row['name']:<34} calls {row['calls']:>6}  total {row['total_s']:10.4f} s  self {row['self_s']:10.4f} s")
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{workload}-seed{seed}.json"
    trace_file.write_text(
        json.dumps({"run": tracer.run_id, "spans": tracing.spans_json(spans), "by_name": table}, indent=1) + "\n",
        encoding="utf-8",
    )
    log(f"spans written to {trace_file.relative_to(ROOT)}")
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in sorted(layer.items())}
    return metrics, attempted, failed


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "shocksynth" / "cli.py").is_file():
        print(f"error: no shocksynth sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    os.environ.update(THREAD_PINS)
    sys.path.insert(0, str(SRC))
    import shocksynth

    if Path(shocksynth.__file__).resolve().parent != SRC / "shocksynth":
        print(f"error: imported shocksynth from {shocksynth.__file__}, not {SRC}", file=sys.stderr)
        return 2

    def log(msg):
        print(msg, flush=True)

    facts = machine_facts()
    facts["loadavg_start"] = os.getloadavg()
    steal_start = cpu_ticks()
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    try:
        if args.trace:
            metrics, attempted, failed = traced(args.workload, args.seed, work, log)
        else:
            metrics, attempted, failed = untraced(args.workload, args.seed, args.seconds, work, log)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    facts["loadavg_end"] = os.getloadavg()
    if steal_start is not None:
        total, steal = (b - a for a, b in zip(steal_start, cpu_ticks()))
        facts["steal_frac"] = steal / max(total, 1)
    log("machine " + json.dumps(facts))
    check_metrics(metrics)
    for name, entry in metrics.items():
        log(f"metric {name} {entry['value']!r} {entry['unit']}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
