"""Every number a public callable takes is in its kind's physical range or refused by name.

The ranges, written out here rather than read from ``signal_core``:
frequencies and rates [1e-6, 1e9] Hz, q (0.5, 1e4], durations [1e-9, 1e6] s,
times within 1e12 s, amplitudes (every other number) within 1e100, and the
pole-pair order 1 to 15.  The result records (``ResidualReport``,
``DbErrorReport``, ``SynthesisResult``) and ``build_report`` hold outputs,
the -inf dB of a zeroed band among them, and take no range.
"""

import dataclasses
import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import write_spec_csv
from shocksynth import (
    BankLayout, BasisMatrix, DigitalNzdf, GammatoneParams, NzdfParams, PsoConfig, Signal, SrsCurve, SrsSpec,
    apply_filter, beta_to_q, build_basis, db_error, discretize, four_coordinate_check, gammatone_impulse,
    group_delay, impulse_response, integrate, make_layout, motion_of, nzdf_gain, objective, pso_minimize,
    q_to_beta, read_spec, residual_motion, spec_interpolate, srs, synth_reference, synthesize, validate_order,
    verify,
)
import shocksynth
from shocksynth import signal_core
from shocksynth.nzdf import _check_poles
from shocksynth.signal_core import TWO_PI, _bilinear_biquad

_UP, _DOWN = math.inf, -math.inf
# kind: the draws inside its range, and the two values just outside it
_KINDS = {
    "frequency": (st.floats(1e-6, 1e9), [math.nextafter(1e-6, _DOWN), math.nextafter(1e9, _UP)]),
    "q": (st.floats(0.5, 1e4, exclude_min=True), [0.5, math.nextafter(1e4, _UP)]),
    "duration": (st.floats(1e-9, 1e6), [math.nextafter(1e-9, _DOWN), math.nextafter(1e6, _UP)]),
    "time": (st.floats(-1e12, 1e12), [math.nextafter(-1e12, _DOWN), math.nextafter(1e12, _UP)]),
    "amplitude": (st.floats(-1e100, 1e100), [math.nextafter(-1e100, _DOWN), math.nextafter(1e100, _UP)]),
    "order": (st.integers(1, 15), [0, 16]),
}

_FS = 20_000.0
_REF = synth_reference(_FS, 0.02, 2000.0, seed=3)
_LAYOUT = make_layout(500.0, 1000.0, 1)
_SPEC = SrsSpec([[500.0, 100.0], [1000.0, 200.0]])
_BASIS = build_basis(_REF, _LAYOUT)
_TARGET = spec_interpolate(_SPEC, _LAYOUT.centers)
_CURVE = SrsCurve([500.0, 1000.0], [1.0, 2.0])
_PSO = PsoConfig(swarm_size=10, max_iters=2)


def _plateau(v):
    return Signal(_FS, np.r_[np.zeros(20), np.full(40, v), np.zeros(40)])


@pytest.fixture(scope="module")
def spec_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("ranges") / "spec.csv"
    write_spec_csv(path, [(500.0, 100.0), (1000.0, 200.0)])
    return path


# (callable.parameter, the name its refusals give, kind, a call with the value, other names its deeper refusals give)
_CASES = [
    ("Signal.sample_rate", "sample_rate", "frequency", lambda v: Signal(v, [0.0, 1.0, 0.0]), ()),
    ("Signal.samples", "samples", "amplitude", _plateau, ()),
    ("Signal.t0", "t0", "time", lambda v: Signal(1.0, [0.0, 1.0], v).times(), ()),
    ("integrate.initial_value", "initial_value", "amplitude", lambda v: integrate(_REF, v), ("samples",)),
    ("integrate.sig", "samples", "amplitude", lambda v: integrate(_plateau(v)), ()),
    ("motion_of.accel", "samples", "amplitude", lambda v: motion_of(_plateau(v)), ()),
    ("motion_of.rate", "sample_rate", "frequency", lambda v: motion_of(Signal(v, np.full(10, 1e100))), ("samples",)),
    ("residual_motion.accel", "samples", "amplitude", lambda v: residual_motion(_plateau(v)), ()),
    ("residual_motion.tolerance", "tolerance", "amplitude", lambda v: residual_motion(_REF, v), ()),
    ("synth_reference.fs", "fs", "frequency", lambda v: synth_reference(v, 0.01, 200.0), ("duration",)),
    ("synth_reference.duration", "duration", "duration", lambda v: synth_reference(1e4, v, 200.0), ()),
    ("synth_reference.fmax", "fmax", "frequency", lambda v: synth_reference(1e5, 0.005, v), ()),
    ("NzdfParams.center_freq", "center_freq", "frequency", lambda v: NzdfParams(v).gain, ()),
    ("NzdfParams.q", "q", "q", lambda v: NzdfParams(1e9, v, order=15).gain, ()),
    ("NzdfParams.order", "order", "order",
     lambda v: nzdf_gain(np.array([1e-6, 1e9]), NzdfParams(1e9, math.nextafter(0.5, 1.0), order=v)), ()),
    ("validate_order.order", "order", "order", lambda v: validate_order(2, v), ()),
    ("nzdf_gain.f_eval", "f_eval", "frequency", lambda v: nzdf_gain(v, NzdfParams(1e-6, 1e4, order=15)), ()),
    ("q_to_beta.q", "q", "q", q_to_beta, ()),
    ("beta_to_q.beta", "beta", "amplitude", beta_to_q, ()),
    ("group_delay.params", "center_freq", "frequency", lambda v: group_delay(NzdfParams(v, 1e4, order=15)), ()),
    ("DigitalNzdf.sample_rate", "sample_rate", "frequency",
     lambda v: DigitalNzdf(NzdfParams(1000.0), v, discretize(NzdfParams(1000.0), 1e5).sos), ()),
    ("DigitalNzdf.sos", "sos", "amplitude",
     lambda v: DigitalNzdf(NzdfParams(1000.0), 1e5, [[v, 0.0, -v, 1.0, -1.0, 0.5]]).frequency_response([1.0, 1e3]), ()),
    ("discretize.fs", "fs", "frequency", lambda v: discretize(NzdfParams(1000.0, 1e4), v), ()),
    ("discretize.params", "center_freq", "frequency", lambda v: discretize(NzdfParams(v, 0.6), 1e9), ("fs",)),
    ("apply_filter.sig", "samples", "amplitude",
     lambda v: apply_filter(discretize(NzdfParams(1000.0), _FS), _plateau(v)), ()),
    ("impulse_response.duration", "duration", "duration",
     lambda v: impulse_response(discretize(NzdfParams(1000.0), 1e5), v), ()),
    ("GammatoneParams.center_freq", "center_freq", "frequency", lambda v: GammatoneParams(v, 1.0), ()),
    ("GammatoneParams.bandwidth", "bandwidth", "frequency", lambda v: GammatoneParams(1000.0, v), ()),
    ("GammatoneParams.amplitude", "amplitude", "amplitude",
     lambda v: gammatone_impulse(GammatoneParams(1000.0, 600.0, amplitude=v, order=15), 1e3, 1e-2), ("samples",)),
    ("GammatoneParams.phase", "phase", "amplitude",
     lambda v: gammatone_impulse(GammatoneParams(1000.0, 600.0, phase=v), 1e3, 1e-2), ()),
    ("GammatoneParams.order", "order", "order",
     lambda v: gammatone_impulse(GammatoneParams(1e-6, 1e-6, amplitude=1e100, order=v), 1e-6, 1e6), ("samples",)),
    ("gammatone_impulse.fs", "fs", "frequency", lambda v: gammatone_impulse(GammatoneParams(1e3, 6e2), v, 1e-3), ()),
    ("gammatone_impulse.duration", "duration", "duration",
     lambda v: gammatone_impulse(GammatoneParams(1e3, 6e2), 1e3, v), ()),
    ("BankLayout.fmin", "fmin", "frequency", lambda v: BankLayout(v, 200.0, 1, [100.0, 200.0]), ()),
    ("BankLayout.fmax", "fmax", "frequency", lambda v: BankLayout(100.0, v, 1, [100.0, 200.0]), ()),
    ("BankLayout.centers", "centers", "frequency", lambda v: BankLayout(100.0, 200.0, 1, [v]), ()),
    ("make_layout.fmin", "fmin", "frequency", lambda v: make_layout(v, 1e9), ("centers",)),
    ("make_layout.fmax", "fmax", "frequency", lambda v: make_layout(1e-6, v), ("centers",)),
    ("BasisMatrix.sample_rate", "sample_rate", "frequency",
     lambda v: BasisMatrix(_LAYOUT, v, _BASIS.columns, _BASIS.norms), ()),
    ("BasisMatrix.columns", "columns", "amplitude",
     lambda v: BasisMatrix(_LAYOUT, _FS, _BASIS.columns * v, _BASIS.norms), ()),
    ("BasisMatrix.norms", "norms", "amplitude", lambda v: BasisMatrix(_LAYOUT, _FS, _BASIS.columns, [1.0, v]), ()),
    ("build_basis.reference", "samples", "amplitude", lambda v: build_basis(_plateau(v), _LAYOUT), ("reference",)),
    ("four_coordinate_check.fc", "fc", "frequency", lambda v: four_coordinate_check(_BASIS.column_signal(0), v), ()),
    ("four_coordinate_check.column", "samples", "amplitude",
     lambda v: four_coordinate_check(_plateau(v), 1000.0), ("velocity and displacement",)),
    ("SrsSpec.breakpoints", "breakpoint frequencies", "frequency", lambda v: SrsSpec([[v, 1.0], [1e9, 2.0]]),
     ()),
    ("SrsSpec.accelerations", "breakpoint accelerations", "amplitude", lambda v: SrsSpec([[1.0, v], [2.0, 1.0]]), ()),
    ("SrsSpec.tolerance_db", "tolerance_db", "amplitude", lambda v: SrsSpec([[1.0, 1.0], [2.0, 1.0]], v), ()),
    ("SrsCurve.freqs", "freqs", "frequency", lambda v: SrsCurve([v], [1.0]), ()),
    ("SrsCurve.values", "values", "amplitude", lambda v: SrsCurve([1.0, 2.0], [0.0, v]), ()),
    ("SrsCurve.q_srs", "q_srs", "q", lambda v: SrsCurve([1.0], [1.0], v), ()),
    ("srs.sig", "samples", "amplitude", lambda v: srs(_plateau(v), [100.0, 1000.0]), ("values",)),
    ("srs.freqs", "freqs", "frequency", lambda v: srs(_REF, [v]), ("natural frequency", "q_srs")),
    ("srs.q_srs", "q_srs", "q", lambda v: srs(_REF, [500.0, 1000.0], v), ()),
    ("spec_interpolate.freqs", "freqs", "frequency", lambda v: spec_interpolate(_SPEC, [v]), ()),
    ("db_error.tolerance_db", "tolerance_db", "amplitude", lambda v: db_error(_CURVE, _CURVE, v), ()),
    ("read_spec.tolerance_db", "tolerance_db", "amplitude", None, ()),
    ("objective.x", "x", "amplitude", lambda v: objective([v, 1.0], _BASIS, _TARGET), ("samples", "values")),
    ("pso_minimize.bounds", "bounds", "amplitude",
     lambda v: pso_minimize(1, lambda p: np.abs(p).sum(axis=1), [[min(v, 0.0), max(v, 0.0) + 1.0]], _PSO), ()),
    ("pso_minimize.initial_positions", "initial_positions", "amplitude",
     lambda v: pso_minimize(1, lambda p: np.abs(p).sum(axis=1), [[-1e100, 1e100]], _PSO, [[v]]), ()),
    ("synthesize.q_srs", "q_srs", "q", lambda v: synthesize(_SPEC, _REF, _LAYOUT, _PSO, v), ()),
    ("verify.sig", "samples", "amplitude", lambda v: verify(_plateau(v), _SPEC), ("values",)),
    ("verify.q_srs", "q_srs", "q", lambda v: verify(_REF, _SPEC, v), ()),
    ("verify.net_zero_tol", "net_zero_tol", "amplitude", lambda v: verify(_REF, _SPEC, 10.0, v), ()),
]


def _numbers(obj):
    """Every number ``obj`` holds: arrays and scalars, through tuples, Signals and other dataclasses."""
    if isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _numbers(item)
    elif dataclasses.is_dataclass(obj):
        for field in dataclasses.fields(obj):
            zeroed = getattr(obj, "floor_hit", False) and field.name in ("per_freq_db", "max_abs_db")
            if not zeroed:  # a zeroed band's -inf dB is the report's own value
                yield from _numbers(getattr(obj, field.name))
    elif isinstance(obj, (int, float, complex, np.ndarray, np.number)) and not isinstance(obj, bool):
        yield np.asarray(obj)


def _call(case, value, spec_csv):
    call = case[3]
    return read_spec(spec_csv, value) if call is None else call(value)  # None: read_spec's tolerance


@pytest.mark.parametrize("case", _CASES, ids=[c[0] for c in _CASES])
@settings(derandomize=True, max_examples=12, deadline=None)
@given(data=st.data())
def test_every_number_is_in_range_or_refused_by_name(case, data, spec_csv):
    # small limits keep every accepted call small, and send the large ones down the budget's refusal
    label, name, kind, _, others = case
    inside, outside = _KINDS[kind]
    value = data.draw(inside)
    with mock.patch.object(signal_core, "_MAX_ROWS", 2_000_000), \
            mock.patch.object(signal_core, "_MAX_BYTES", 8 << 20), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        warnings.simplefilter("ignore", UserWarning)  # near-Nyquist designs and clamped specs
        try:
            result = _call(case, value, spec_csv)
        except ValueError as exc:
            assert any(n in str(exc) for n in (name,) + others), (label, value, str(exc))
        else:
            for x in _numbers(result):
                assert np.isfinite(x).all(), (label, value, result)
        for v in outside:
            with pytest.raises(ValueError) as info:
                _call(case, v, spec_csv)
            assert re.match(rf"{name} must be ", str(info.value)), (label, v, str(info.value))


def test_every_public_callable_that_takes_a_number_is_covered():
    # the rest hold or write outputs, take only files and value objects, or (PsoConfig) only unranged whole numbers
    rest = {"ResidualReport", "DbErrorReport", "SynthesisResult", "build_report", "write_report", "write_curve",
            "write_signal", "read_signal", "MotionTriple", "verification_grid", "SignalFormatError",
            "NoBandEnergyError", "PsoConfig", "__version__"}
    assert {label.split(".")[0] for label, *_ in _CASES} == set(shocksynth.__all__) - rest


@pytest.mark.parametrize("call", [integrate, motion_of, residual_motion], ids=lambda f: f.__name__)
def test_samples_near_the_float_range_are_refused_by_name(call):
    # the trapezoid sums of same-sign samples near 1e308 overflowed
    message = r"^samples must be finite and between -1e\+100 and 1e\+100, got 1e\+308 at \[0\]$"
    with pytest.raises(ValueError, match=message):
        call(Signal(1000.0, np.full(10, 1e308)))


def test_a_value_just_past_a_limit_is_printed_so_it_reads_past_it():
    # at .6g both read as the limit itself; a value whose .6g text is refused keeps that text
    with pytest.raises(ValueError, match=r"^sample_rate must be finite and between 1e-06 and 1e\+09 Hz, "
                                         r"got 1000000000\.0000001$"):
        Signal(math.nextafter(1e9, _UP), [0.0, 1.0])
    with pytest.raises(ValueError, match=r"^samples must be finite and between -1e\+100 and 1e\+100, "
                                         r"got 1\.0000000000000002e\+100 at \[1\]$"):
        Signal(1000.0, [0.0, math.nextafter(1e100, _UP)])
    with pytest.raises(ValueError, match=r"^samples must be finite and between -1e\+100 and 1e\+100, "
                                         r"got 1\.23457e\+100 at \[1\]$"):
        Signal(1000.0, [0.0, 1.234567891e100])


def test_the_reference_drift_high_pass_is_stable_at_every_rate_demo_ref_accepts():
    # from 10 x 200 Hz, demo-ref's lowest rate, to the top of the rate range
    for fs in np.geomspace(2e3, signal_core._RANGES["frequency"][1], 400):
        row = _bilinear_biquad(TWO_PI * 45.0, 1.0 / np.sqrt(2.0), fs, 2, 1.0)
        _check_poles(row[4], row[5], f"the drift high-pass at fs={fs:.6g} Hz")
    with pytest.raises(ValueError, match=r"^fs must be finite and between 1e-06 and 1e\+09 Hz, got 2e\+10$"):
        synth_reference(2e10)
