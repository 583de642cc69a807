"""Command-line front-end: SRS analysis, filtering, bank inspection,
synthesis, verification, and surrogate generation.

Exit codes: 0 success (all pass flags true), 1 completed but tolerance or
net-zero unmet (including an infeasible spec), 2 usage or input errors,
non-finite or out-of-range numbers and exhausted memory among them.  One
handler around command dispatch maps errors to exit codes and prints each
warning as one ``warning: <message>`` line.  All outputs are
written atomically (temp file + rename) and are byte-reproducible given
identical flags and seeds.

click only turns text into numbers and paths.  Every refused value, input
file or output path exits 2 with one ``error:`` line naming it, and writes
nothing.  Values and inputs are refused by the library rule that guards them
(``signal_core._scalar``, ``_whole`` and ``_read_pairs``), and every command
checks each of its flags before it reads its record: ``synth`` and
``verify`` read the spec first, whose reader checks ``--tolerance-db``
before the file, and build the layout, which checks ``--ppo``, from it.
Output paths are refused first, by ``_output``, which click runs as it
parses each output option.
"""

from __future__ import annotations

import os
import sys
import warnings
from pathlib import Path

import click
import numpy as np

from .filterbank import NoBandEnergyError, make_layout
from .nzdf import NzdfParams, apply_filter, discretize
from .signal_core import _budget, _scalar, _write_table, read_signal, synth_reference, write_signal
from .srs import read_spec, srs, write_curve
from .synthesis import PsoConfig, _target_curve, build_report, synthesize, verify, write_report

# SignalFormatError and NoBandEnergyError are ValueErrors.
_INPUT_ERRORS = (ValueError, OSError)

# What shrinks each command's work, in its own flags: ring-down pads grow with
# Q and fall with the lowest frequency; grids grow with points per octave.
_MEMORY_ADVICE = {
    "srs": "lower --q-srs or --ppo, or raise --fmin",
    "filter": "lower --q or raise --fc",
    "bank": "lower --ppo or narrow --fmin to --fmax",
    "synth": "lower --q-srs or --ppo, or raise the spec's first breakpoint frequency",
    "verify": "lower --q-srs or --ppo, or raise the spec's first breakpoint frequency",
    "demo-ref": "lower --fs or --duration",
}

# bank's time in the filtered rows ``_budget`` counts, about 16 ns each: designing
# one filter, its 481-point response and its CSV row take 0.3 to 0.5 ms.
_BANK_ROWS_PER_FILTER = 31_250


class _Commands(click.Group):
    """The command group, with the one mapping of errors to exit codes and of warnings to plain lines."""

    def invoke(self, ctx):
        format_warning = warnings.formatwarning  # restored, so a library caller's warnings keep their own format
        warnings.formatwarning = lambda message, *args, **kwargs: f"warning: {message}\n"
        try:
            return super().invoke(ctx)
        except NoBandEnergyError as exc:
            click.echo(f"synthesis infeasible: {exc}", err=True)
            sys.exit(1)
        except _INPUT_ERRORS as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        except MemoryError:  # what is not sized up front, such as a basis padded by its lowest filter's ring-down
            name = ctx.invoked_subcommand
            click.echo(f"error: {name} ran out of memory; {_MEMORY_ADVICE[name]}", err=True)
            sys.exit(2)
        finally:
            warnings.formatwarning = format_warning


def _atomic(path, write_fn) -> None:
    """Write through a unique temp file in the target directory, then rename.

    Concurrent writers of one target each get their own temp file, created
    exclusively under a random name with the mode a plain ``open`` gives
    (0666 less the umask), and a failed write leaves no temp file behind.
    An operating-system error on the temp file, such as a full disk or a
    directory removed mid-run, is raised naming the target.
    """
    target = Path(path)
    tmp = target.with_name(f"{target.name}.{os.urandom(8).hex()}.tmp")
    try:
        os.close(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
        try:
            write_fn(tmp)
            os.replace(tmp, target)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:  # the temp file stands for the target: name the target as given
        if exc.errno is None:
            raise
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc


def _output(ctx, param, value):
    """Refuse an output path that cannot be written, as click parses it: before any record is read.

    A path that is a directory, or whose directory does not exist or is not
    one, and a second output of the command on the same file are refused by
    a ``ValueError`` naming the option and the path.  ``--bode-out`` defaults
    to ``<out stem>_bode.csv`` beside ``--out``; that path is checked too.
    """
    if value is None:
        out = Path(ctx.params["out"])
        value = str(out.with_name(out.stem + "_bode.csv"))
    path, option = Path(value), param.opts[0]
    if path.is_dir():
        raise ValueError(f"{option} {value!r} is a directory")
    if not path.parent.is_dir():
        state = "is not a directory" if path.parent.exists() else "does not exist"
        raise ValueError(f"{option} {value!r} is in {str(path.parent)!r}, which {state}")
    for other in ctx.command.params:
        if other.callback is _output and ctx.params.get(other.name) is not None \
                and Path(ctx.params[other.name]).resolve() == path.resolve():
            raise ValueError(f"{option} {value!r} is the same file as {other.opts[0]}")
    return value


def _write_bode_csv(path, freqs, response) -> None:
    mag_db = 20.0 * np.log10(np.maximum(np.abs(response), 1e-300))
    phase_deg = np.degrees(np.angle(response))
    _write_table(path, "freq_hz,mag_db,phase_deg", [freqs, mag_db, phase_deg])


@click.group(cls=_Commands)
def main():
    """Shock synthesis under an SRS specification with net-zero filters."""


@main.command(name="srs")
@click.argument("input_csv")
@click.option("--fmin", type=float, default=100.0, show_default=True, help="Lowest natural frequency (Hz).")
@click.option("--fmax", type=float, default=10000.0, show_default=True, help="Highest natural frequency (Hz).")
@click.option("--ppo", type=int, default=6, show_default=True, help="Grid points per octave.")
@click.option("--q-srs", type=float, default=10.0, show_default=True, help="Analysis quality factor.")
@click.option("--out", callback=_output, metavar="FILE", required=True, help="Output SRS CSV path.")
def cmd_srs(input_csv, fmin, fmax, ppo, q_srs, out):
    """Compute the maximax SRS of a signal on an octave-fraction grid."""
    layout = make_layout(fmin, fmax, ppo)
    _scalar("q_srs", q_srs, above=0.5, kind="q")
    curve = srs(read_signal(input_csv), layout.centers, q_srs)
    _atomic(out, lambda p: write_curve(curve, p))
    click.echo(f"wrote SRS at {layout.centers.size} frequencies to {out}")


@main.command(name="filter")
@click.argument("input_csv")
@click.option("--fc", type=float, required=True, help="Filter center frequency (Hz).")
@click.option("--q", type=float, default=5.0, show_default=True, help="Filter quality factor.")
@click.option("--out", callback=_output, metavar="FILE", required=True, help="Filtered signal CSV path.")
@click.option("--bode-out", callback=_output, metavar="FILE",
              help="Bode CSV sidecar path [default: <out stem>_bode.csv].")
def cmd_filter(input_csv, fc, q, out, bode_out):
    """Filter a signal through a single net-zero band-pass at --fc."""
    params = NzdfParams(fc, q=q)
    sig = read_signal(input_csv)
    filt = discretize(params, sig.sample_rate)
    result = apply_filter(filt, sig)
    _atomic(out, lambda p: write_signal(result, p))
    freqs = np.geomspace(fc / 100.0, min(100.0 * fc, 0.49 * sig.sample_rate), 481)
    _atomic(bode_out, lambda p: _write_bode_csv(p, freqs, filt.frequency_response(freqs)))
    click.echo(f"wrote filtered signal to {out} and Bode data to {bode_out}")


@main.command(name="bank")
@click.option("--fmin", type=float, default=100.0, show_default=True, help="Lowest center (Hz).")
@click.option("--fmax", type=float, default=10000.0, show_default=True, help="Highest center (Hz).")
@click.option("--ppo", type=int, default=6, show_default=True, help="Centers per octave.")
@click.option("--fs", type=float, default=100000.0, show_default=True, help="Design sample rate (Hz).")
@click.option("--q", type=float, default=5.0, show_default=True, help="Filter quality factor.")
@click.option("--out", callback=_output, metavar="FILE", required=True, help="Output magnitude-grid CSV path.")
def cmd_bank(fmin, fmax, ppo, fs, q, out):
    """Dump the bank layout and each filter's magnitude response."""
    layout = make_layout(fmin, fmax, ppo)
    fs = _scalar("fs", fs, above=2.0 * layout.centers[-1], kind="frequency")  # before the frequency axis is built from it
    n = layout.centers.size
    _budget(f"bank of {n:,} filters", rows=n * _BANK_ROWS_PER_FILTER, advice=_MEMORY_ADVICE["bank"])
    table = np.empty((n + 1, 481))  # a column to a row: frequencies, then each filter's dB
    table[0] = np.geomspace(fmin / 4.0, min(4.0 * fmax, 0.49 * fs), 481)
    for row, fc in zip(table[1:], layout.centers):
        response = discretize(NzdfParams(fc, q=q), fs).frequency_response(table[0])
        row[:] = 20.0 * np.log10(np.maximum(np.abs(response), 1e-300))
    header = "freq_hz," + ",".join(f"mag_db_{fc:.12g}" for fc in layout.centers)
    _atomic(out, lambda p: _write_table(p, header, table))
    click.echo(f"wrote {n} filter responses to {out}")


@main.command(name="synth")
@click.argument("spec_csv")
@click.argument("ref_csv")
@click.option("--tolerance-db", type=float, default=3.0, show_default=True, help="Pass tolerance (dB).")
@click.option("--seed", type=int, default=0, show_default=True, help="Optimizer RNG seed.")
@click.option("--q-srs", type=float, default=10.0, show_default=True, help="Analysis quality factor.")
@click.option("--ppo", type=int, default=6, show_default=True, help="Bank centers per octave.")
@click.option("--swarm-size", type=int, default=32, show_default=True, help="PSO particles.")
@click.option("--max-iters", type=int, default=220, show_default=True, help="PSO iteration cap.")
@click.option("--out-signal", callback=_output, metavar="FILE", required=True, help="Synthesized signal CSV path.")
@click.option("--out-report", callback=_output, metavar="FILE", required=True, help="Verification report JSON path.")
def cmd_synth(spec_csv, ref_csv, tolerance_db, seed, q_srs, ppo, swarm_size, max_iters,
              out_signal, out_report):
    """Synthesize a shock matching SPEC_CSV from the reference REF_CSV."""
    cfg = PsoConfig(swarm_size=swarm_size, max_iters=max_iters, seed=seed)
    _scalar("q_srs", q_srs, above=0.5, kind="q")
    spec = read_spec(spec_csv, tolerance_db)
    layout = make_layout(spec.freqs[0], spec.freqs[-1], ppo)
    result = synthesize(spec, read_signal(ref_csv), layout, cfg, q_srs)
    report = build_report(
        result.achieved,
        result.target,
        result.srs_report,
        result.residuals,
        objective_value=result.objective_value,
        iterations=result.iterations_used,
        seed=seed,
    )
    _atomic(out_signal, lambda p: write_signal(result.synthesized, p))
    _atomic(out_report, lambda p: write_report(report, p))
    ok = result.srs_report.passed and result.residuals.passed
    click.echo(
        f"max |SRS error| {result.srs_report.max_abs_db:.3f} dB "
        f"(tolerance {tolerance_db:.3f} dB), net-zero "
        f"{'pass' if result.residuals.passed else 'FAIL'}, "
        f"{result.iterations_used} swarm iterations"
    )
    sys.exit(0 if ok else 1)


@main.command(name="verify")
@click.argument("signal_csv")
@click.argument("spec_csv")
@click.option("--tolerance-db", type=float, default=3.0, show_default=True, help="Pass tolerance (dB).")
@click.option("--q-srs", type=float, default=10.0, show_default=True, help="Analysis quality factor.")
@click.option("--ppo", type=int, default=6, show_default=True, help="Grid centers per octave.")
@click.option("--net-zero-tol", type=float, default=1e-3, show_default=True, help="Residual motion tolerance.")
@click.option("--out-report", callback=_output, metavar="FILE", required=True, help="Report JSON path.")
def cmd_verify(signal_csv, spec_csv, tolerance_db, q_srs, ppo, net_zero_tol, out_report):
    """Verify an existing signal file against a spec file."""
    _scalar("q_srs", q_srs, above=0.5, kind="q")
    _scalar("net_zero_tol", net_zero_tol, above=0.0)
    spec = read_spec(spec_csv, tolerance_db)
    layout = make_layout(spec.freqs[0], spec.freqs[-1], ppo)
    sig = read_signal(signal_csv)
    srs_report, residuals = verify(sig, spec, q_srs, net_zero_tol, ppo)
    target = _target_curve(spec, layout)
    report = build_report(srs(sig, target.freqs, q_srs), target, srs_report, residuals)
    _atomic(out_report, lambda p: write_report(report, p))
    ok = srs_report.passed and residuals.passed
    max_db = srs_report.max_abs_db
    click.echo(
        f"max |SRS error| {max_db:.3f} dB, net-zero "
        f"{'pass' if residuals.passed else 'FAIL'}"
    )
    sys.exit(0 if ok else 1)


@main.command(name="demo-ref")
@click.option("--fs", type=float, default=100000.0, show_default=True, help="Sample rate (Hz).")
@click.option("--duration", type=float, default=0.05, show_default=True, help="Record length (s).")
@click.option("--fmax", type=float, default=10000.0, show_default=True, help="Top of the swept frequency range (Hz).")
@click.option("--seed", type=int, default=0, show_default=True, help="Generator RNG seed.")
@click.option("--out", callback=_output, metavar="FILE", required=True, help="Output signal CSV path.")
def cmd_demo_ref(fs, duration, fmax, seed, out):
    """Generate a deterministic surrogate reference shock."""
    sig = synth_reference(fs, duration, fmax, seed)
    _atomic(out, lambda p: write_signal(sig, p))
    click.echo(f"wrote {len(sig)} samples at {fs:.12g} Hz to {out}")


if __name__ == "__main__":
    main()
