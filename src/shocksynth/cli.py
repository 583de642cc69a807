"""Command-line front-end: SRS analysis, filtering, bank inspection,
synthesis, verification, and surrogate generation.

Exit codes: 0 success (all pass flags true), 1 completed but tolerance or
net-zero unmet (including an infeasible spec), 2 usage or input errors,
non-finite or out-of-range numbers and exhausted memory among them.  One
handler around command dispatch maps errors to exit codes.  All outputs are
written atomically (temp file + rename) and are byte-reproducible given
identical flags and seeds.
"""

from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path

import click
import numpy as np

from .filterbank import NoBandEnergyError, make_layout
from .nzdf import NzdfParams, apply_filter, discretize
from .signal_core import _scalar, _write_table, read_signal, synth_reference, write_signal
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


class _Commands(click.Group):
    """The command group, with the one mapping of errors to exit codes."""

    def invoke(self, ctx):
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


def _atomic(path, write_fn) -> None:
    """Write through a unique temp file in the target directory, then rename.

    Concurrent writers of one target each get their own temp file, and a
    failed write leaves no temp file behind.  ``mkstemp`` creates the file
    0600, so it is given the mode a plain ``open`` would (0666 less the
    umask) before the rename.
    """
    path = Path(path)
    fd, name = tempfile.mkstemp(prefix=path.name + ".", suffix=".tmp", dir=path.parent)
    os.close(fd)
    tmp = Path(name)
    try:
        write_fn(tmp)
        os.chmod(tmp, 0o666 & ~_umask())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _umask() -> int:
    """The process umask; reading it means setting it, so it is put back."""
    mask = os.umask(0)
    os.umask(mask)
    return mask


def _write_bode_csv(path, freqs, response) -> None:
    mag_db = 20.0 * np.log10(np.maximum(np.abs(response), 1e-300))
    phase_deg = np.degrees(np.angle(response))
    _write_table(path, "freq_hz,mag_db,phase_deg", [freqs, mag_db, phase_deg])


@click.group(cls=_Commands)
def main():
    """Shock synthesis under an SRS specification with net-zero filters."""


@main.command(name="srs")
@click.argument("input_csv", type=click.Path(exists=True, dir_okay=False))
@click.option("--fmin", type=float, default=100.0, show_default=True, help="Lowest natural frequency (Hz).")
@click.option("--fmax", type=float, default=10000.0, show_default=True, help="Highest natural frequency (Hz).")
@click.option("--ppo", type=click.IntRange(min=1), default=6, show_default=True, help="Grid points per octave.")
@click.option("--q-srs", type=float, default=10.0, show_default=True, help="Analysis quality factor.")
@click.option("--out", type=click.Path(dir_okay=False), required=True, help="Output SRS CSV path.")
def cmd_srs(input_csv, fmin, fmax, ppo, q_srs, out):
    """Compute the maximax SRS of a signal on an octave-fraction grid."""
    layout = make_layout(fmin, fmax, ppo)
    curve = srs(read_signal(input_csv), layout.centers, q_srs)
    _atomic(out, lambda p: write_curve(curve, p))
    click.echo(f"wrote SRS at {layout.centers.size} frequencies to {out}")


@main.command(name="filter")
@click.argument("input_csv", type=click.Path(exists=True, dir_okay=False))
@click.option("--fc", type=float, required=True, help="Filter center frequency (Hz).")
@click.option("--q", type=float, default=5.0, show_default=True, help="Filter quality factor.")
@click.option("--out", type=click.Path(dir_okay=False), required=True, help="Filtered signal CSV path.")
@click.option("--bode-out", type=click.Path(dir_okay=False), default=None,
              help="Bode CSV sidecar path [default: <out stem>_bode.csv].")
def cmd_filter(input_csv, fc, q, out, bode_out):
    """Filter a signal through a single net-zero band-pass at --fc."""
    params = NzdfParams(fc, q=q)
    sig = read_signal(input_csv)
    filt = discretize(params, sig.sample_rate)
    result = apply_filter(filt, sig)
    _atomic(out, lambda p: write_signal(result, p))
    if bode_out is None:
        out_path = Path(out)
        bode_out = out_path.with_name(out_path.stem + "_bode.csv")
    freqs = np.geomspace(fc / 100.0, min(100.0 * fc, 0.49 * sig.sample_rate), 481)
    _atomic(bode_out, lambda p: _write_bode_csv(p, freqs, filt.frequency_response(freqs)))
    click.echo(f"wrote filtered signal to {out} and Bode data to {bode_out}")


@main.command(name="bank")
@click.option("--fmin", type=float, default=100.0, show_default=True, help="Lowest center (Hz).")
@click.option("--fmax", type=float, default=10000.0, show_default=True, help="Highest center (Hz).")
@click.option("--ppo", type=click.IntRange(min=1), default=6, show_default=True, help="Centers per octave.")
@click.option("--fs", type=float, default=100000.0, show_default=True, help="Design sample rate (Hz).")
@click.option("--q", type=float, default=5.0, show_default=True, help="Filter quality factor.")
@click.option("--out", type=click.Path(dir_okay=False), required=True, help="Output magnitude-grid CSV path.")
def cmd_bank(fmin, fmax, ppo, fs, q, out):
    """Dump the bank layout and each filter's magnitude response."""
    layout = make_layout(fmin, fmax, ppo)
    fs = _scalar("fs", fs, above=2.0 * layout.centers[-1])  # before the frequency axis is built from it
    table = np.empty((layout.centers.size + 1, 481))  # a column to a row: frequencies, then each filter's dB
    table[0] = np.geomspace(fmin / 4.0, min(4.0 * fmax, 0.49 * fs), 481)
    for row, fc in zip(table[1:], layout.centers):
        response = discretize(NzdfParams(fc, q=q), fs).frequency_response(table[0])
        row[:] = 20.0 * np.log10(np.maximum(np.abs(response), 1e-300))
    header = "freq_hz," + ",".join(f"mag_db_{fc:.12g}" for fc in layout.centers)
    _atomic(out, lambda p: _write_table(p, header, table))
    click.echo(f"wrote {layout.centers.size} filter responses to {out}")


@main.command(name="synth")
@click.argument("spec_csv", type=click.Path(exists=True, dir_okay=False))
@click.argument("ref_csv", type=click.Path(exists=True, dir_okay=False))
@click.option("--tolerance-db", type=float, default=3.0, show_default=True, help="Pass tolerance (dB).")
@click.option("--seed", type=int, default=0, show_default=True, help="Optimizer RNG seed.")
@click.option("--q-srs", type=float, default=10.0, show_default=True, help="Analysis quality factor.")
@click.option("--ppo", type=click.IntRange(min=1), default=6, show_default=True, help="Bank centers per octave.")
@click.option("--swarm-size", type=click.IntRange(min=10), default=32, show_default=True, help="PSO particles.")
@click.option("--max-iters", type=click.IntRange(min=1), default=220, show_default=True, help="PSO iteration cap.")
@click.option("--out-signal", type=click.Path(dir_okay=False), required=True, help="Synthesized signal CSV path.")
@click.option("--out-report", type=click.Path(dir_okay=False), required=True, help="Verification report JSON path.")
def cmd_synth(spec_csv, ref_csv, tolerance_db, seed, q_srs, ppo, swarm_size, max_iters,
              out_signal, out_report):
    """Synthesize a shock matching SPEC_CSV from the reference REF_CSV."""
    spec = read_spec(spec_csv, tolerance_db)
    ref = read_signal(ref_csv)
    layout = make_layout(spec.freqs[0], spec.freqs[-1], ppo)
    cfg = PsoConfig(swarm_size=swarm_size, max_iters=max_iters, seed=seed)
    result = synthesize(spec, ref, layout, cfg, q_srs)
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
@click.argument("signal_csv", type=click.Path(exists=True, dir_okay=False))
@click.argument("spec_csv", type=click.Path(exists=True, dir_okay=False))
@click.option("--tolerance-db", type=float, default=3.0, show_default=True, help="Pass tolerance (dB).")
@click.option("--q-srs", type=float, default=10.0, show_default=True, help="Analysis quality factor.")
@click.option("--ppo", type=click.IntRange(min=1), default=6, show_default=True, help="Grid centers per octave.")
@click.option("--net-zero-tol", type=float, default=1e-3, show_default=True, help="Residual motion tolerance.")
@click.option("--out-report", type=click.Path(dir_okay=False), required=True, help="Report JSON path.")
def cmd_verify(signal_csv, spec_csv, tolerance_db, q_srs, ppo, net_zero_tol, out_report):
    """Verify an existing signal file against a spec file."""
    sig = read_signal(signal_csv)
    spec = read_spec(spec_csv, tolerance_db)
    srs_report, residuals = verify(sig, spec, q_srs, net_zero_tol, ppo)
    target = _target_curve(spec, make_layout(spec.freqs[0], spec.freqs[-1], ppo))
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
@click.option("--out", type=click.Path(dir_okay=False), required=True, help="Output signal CSV path.")
def cmd_demo_ref(fs, duration, fmax, seed, out):
    """Generate a deterministic surrogate reference shock."""
    sig = synth_reference(fs, duration, fmax, seed)
    _atomic(out, lambda p: write_signal(sig, p))
    click.echo(f"wrote {len(sig)} samples at {fs:.12g} Hz to {out}")


if __name__ == "__main__":
    main()
