"""The package's public names and its one version string."""

import importlib
from pathlib import Path

import shocksynth

PUBLIC = {
    # signal_core
    "Signal", "MotionTriple", "ResidualReport", "SignalFormatError", "integrate", "motion_of",
    "residual_motion", "read_signal", "write_signal", "synth_reference",
    # nzdf
    "NzdfParams", "DigitalNzdf", "GammatoneParams", "validate_order", "nzdf_gain", "q_to_beta",
    "beta_to_q", "group_delay", "discretize", "apply_filter", "impulse_response",
    "gammatone_impulse",
    # filterbank
    "BankLayout", "BasisMatrix", "NoBandEnergyError", "make_layout", "build_basis",
    "four_coordinate_check",
    # srs
    "SrsSpec", "SrsCurve", "DbErrorReport", "srs", "spec_interpolate", "db_error",
    "read_spec", "write_curve",
    # synthesis
    "PsoConfig", "SynthesisResult", "objective", "pso_minimize", "synthesize", "verify",
    "verification_grid", "build_report", "write_report",
    "__version__",
}


def test_public_names():
    assert len(PUBLIC) == 46
    assert set(shocksynth.__all__) == PUBLIC
    assert len(shocksynth.__all__) == len(PUBLIC)
    namespace = {}
    exec("from shocksynth import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC


def test_public_names_are_their_modules_objects():
    for name in PUBLIC - {"__version__"}:
        obj = getattr(shocksynth, name)
        home = importlib.import_module(obj.__module__)
        assert home.__name__.startswith("shocksynth.")
        assert name in home.__all__
        assert getattr(home, name) is obj, name
    # the srs function, not the module it shares a name with
    assert shocksynth.srs is importlib.import_module("shocksynth.srs").srs


def test_version_has_one_source():
    from setuptools.config import pyprojecttoml

    path = Path(__file__).resolve().parents[1] / "pyproject.toml"
    config = pyprojecttoml.read_configuration(str(path), expand=True)
    assert "version" in config["project"]["dynamic"]
    assert config["project"]["version"] == shocksynth.__version__ == "0.1.0"
