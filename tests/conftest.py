"""Shared fixtures: single-threaded CLI runner, tiny spec helpers and an exact SRS reference."""

import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import signal as sci_signal

from shocksynth import Signal

# Pin BLAS/OpenMP pools so subprocess timings and results are stable and
# honestly single-threaded.
_THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


@pytest.fixture(scope="session")
def cli_env():
    env = dict(os.environ)
    env.update(_THREAD_PINS)
    return env


@pytest.fixture(scope="session")
def run_cli(cli_env):
    def _run(*args, cwd=None):
        return subprocess.run(
            [sys.executable, "-m", "shocksynth.cli", *map(str, args)],
            capture_output=True,
            text=True,
            env=cli_env,
            cwd=cwd,
        )

    return _run


def write_spec_csv(path, breakpoints):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("freq_hz,peak_accel_m_s2\n")
        for f, v in breakpoints:
            fh.write(f"{f:.12g},{v:.12g}\n")


def foh_srs(sig, fn, q_srs=10.0):
    """Peak |absolute acceleration| of the SDOF oscillator at ``fn``, solved exactly by scipy's first-order-hold ``lsim``.

    The input ramps from rest at one zero sample before the record, as
    Smallwood's recursion assumes, and decays freely for 20 q_srs / wn s
    after it: longer than the SRS's own ring-down pad, so a late peak is seen.
    """
    wn = 2.0 * np.pi * fn
    u = np.concatenate([[0.0], sig.samples, np.zeros(int(np.ceil(20.0 * q_srs / wn * sig.sample_rate)))])
    system = sci_signal.lti([wn / q_srs, wn * wn], [1.0, wn / q_srs, wn * wn])
    return float(np.abs(sci_signal.lsim(system, u, np.arange(u.size) * sig.dt)[1]).max())


def smooth_noise(rng, n, fs):
    """``n`` normal samples smoothed twice by a 5-point moving average."""
    x = rng.normal(size=n)
    for _ in range(2):
        x = np.convolve(x, np.ones(5) / 5.0, mode="same")
    return Signal(fs, x)
