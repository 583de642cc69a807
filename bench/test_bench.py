"""Tests of the benchmark itself: span arithmetic, metric names, seeding.

    python -m pytest bench -q
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, covered, self_time  # noqa: E402


def _span(i, start, end, parent=None, name="x"):
    return Span(i, name, start, end, parent, "r", {})


def test_covered_merges_overlaps_and_clips():
    assert covered([], 0.0, 10.0) == 0.0
    assert covered([(1.0, 3.0), (2.0, 5.0)], 0.0, 10.0) == pytest.approx(4.0)
    assert covered([(1.0, 2.0), (4.0, 6.0)], 0.0, 10.0) == pytest.approx(3.0)
    assert covered([(-5.0, 2.0), (8.0, 20.0)], 0.0, 10.0) == pytest.approx(4.0)
    assert covered([(3.0, 4.0), (1.0, 9.0)], 0.0, 10.0) == pytest.approx(8.0)


def test_self_time_nested_children():
    # parent 0..10, child 2..6 with grandchild 3..5, child 7..8
    spans = [_span(0, 0.0, 10.0), _span(1, 2.0, 6.0, 0), _span(2, 3.0, 5.0, 1), _span(3, 7.0, 8.0, 0)]
    assert self_time(spans[0], spans) == pytest.approx(5.0)
    assert self_time(spans[1], spans) == pytest.approx(2.0)
    assert self_time(spans[2], spans) == pytest.approx(2.0)


def test_self_time_overlapping_children():
    # Children overlap each other and one spills past the parent's end.
    spans = [_span(0, 0.0, 10.0), _span(1, 1.0, 4.0, 0), _span(2, 3.0, 6.0, 0), _span(3, 9.0, 12.0, 0)]
    assert self_time(spans[0], spans) == pytest.approx(10.0 - 5.0 - 1.0)


def test_outermost_skips_same_name_descendants():
    spans = [_span(0, 0.0, 4.0, name="a"), _span(1, 1.0, 2.0, 0, name="b"), _span(2, 1.2, 1.5, 1, name="a")]
    assert [s.id for s in tracing.outermost(spans, "a")] == [0]
    assert tracing.total(spans, "a") == pytest.approx(4.0)


@pytest.mark.parametrize("name", ["wall_s", "srs.srs_calls", "cli.import_s", "a-b.c_9", "9lives", "x" * 64])
def test_metric_names_accepted(name):
    run.check_metrics({name: {"value": 1.5, "unit": "s"}})


@pytest.mark.parametrize("name", ["", "bad name", "_lead", ".lead", "a/b", "a:b", "x" * 65, "dBµ"])
def test_metric_names_rejected(name):
    with pytest.raises(ValueError, match="name"):
        run.check_metrics({name: {"value": 1.5, "unit": "s"}})


@pytest.mark.parametrize("unit", ["", "m s", "x" * 17])
def test_metric_units_rejected(unit):
    with pytest.raises(ValueError, match="unit"):
        run.check_metrics({"wall_s": {"value": 1.5, "unit": unit}})


@pytest.mark.parametrize("value", [float("nan"), None, "1", True])
def test_metric_values_must_be_numbers(value):
    with pytest.raises(ValueError, match="value"):
        run.check_metrics({"wall_s": {"value": value, "unit": "s"}})


def test_pso_observer_counts_improvements():
    batches = iter([[5.0, 3.0, 4.0], [2.99995, 6.0, 1.0], [1.0, 0.99999, 7.0]])
    obs = tracing._PsoObserver(lambda block: next(batches), stall_tol=1e-4)
    for _ in range(3):
        obs(None)
    assert obs.evals == 9
    assert obs.improving == 5  # 5, 3, 2.99995, 1, 0.99999
    assert obs.last_gain_iter == 2  # the third batch gains less than stall_tol


def _files(inputs):
    return [p.read_bytes() for p in workloads.input_files(inputs)]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_setup_is_seeded(name, tmp_path):
    a = workloads.setup(name, 7, tmp_path / "a", run.setup_cli)
    b = workloads.setup(name, 7, tmp_path / "b", run.setup_cli)
    c = workloads.setup(name, 8, tmp_path / "c", run.setup_cli)
    assert _files(a) == _files(b)
    assert a.expected == b.expected
    assert _files(a) != _files(c)


def test_wrappers_trace_and_restore(tmp_path):
    import shocksynth.cli as cli
    import shocksynth.signal_core as signal_core
    import shocksynth.synthesis as synthesis

    original = signal_core.read_signal
    ref = tmp_path / "ref.csv"
    spec = tmp_path / "spec.csv"
    workloads.write_spec_csv(spec, [(1000.0, 500.0), (2000.0, 800.0), (4000.0, 600.0)])
    assert run.run_in_process(
        ["demo-ref", "--fs", "50000", "--duration", "0.02", "--fmax", "5000", "--out", str(ref)]
    ) == 0

    tracer = tracing.Tracer("test")
    installed = tracing.Installed(tracer)
    try:
        assert cli.read_signal is not original and cli.read_signal is signal_core.read_signal
        code = run.run_in_process(["verify", str(ref), str(spec), "--out-report", str(tmp_path / "v.json")])
    finally:
        installed.restore()
    assert code in (0, 1)
    assert cli.read_signal is original and signal_core.read_signal is original
    assert "srs_values" in vars(synthesis._BandResponseCache)
    m = tracing.layer_metrics(tracer.spans)
    assert m["srs.srs_calls"][0] == 2
    assert m["signal_core.read_signal_samples"][0] == 1001
    assert m["synthesis.verify_s"][0] > 0.0
    assert installed.absent == []


def test_traced_synth_counts_swarm_work(tmp_path):
    ref = tmp_path / "ref.csv"
    spec = tmp_path / "spec.csv"
    workloads.write_spec_csv(spec, [(1000.0, 500.0), (2000.0, 800.0), (4000.0, 600.0)])
    assert run.run_in_process(
        ["demo-ref", "--fs", "50000", "--duration", "0.02", "--fmax", "5000", "--out", str(ref)]
    ) == 0
    tracer = tracing.Tracer("test")
    installed = tracing.Installed(tracer)
    try:
        run.run_in_process([
            "synth", str(spec), str(ref), "--swarm-size", "10", "--max-iters", "3",
            "--out-signal", str(tmp_path / "s.csv"), "--out-report", str(tmp_path / "r.json"),
        ])
    finally:
        installed.restore()
    m = {k: v for k, (v, _) in tracing.layer_metrics(tracer.spans).items()}
    assert m["synthesis.iterations"] == 3
    # One diagonal probe, the refine steps, then one batch per iteration.
    assert m["synthesis.batch_calls"] > 3
    assert 0.0 < m["synthesis.useful_evals_frac"] <= 1.0
    assert 1 <= m["synthesis.last_gain_iter"] <= 3
    assert m["synthesis.optimizer_self_s"] < m["synthesis.optimizer_s"] < m["synthesis.synthesize_s"]
    assert m["nzdf.apply_filter_calls"] > 0 and m["synthesis.cache_bytes"] > 0


def test_absent_names_are_reported_not_raised(monkeypatch):
    monkeypatch.setitem(tracing.TRACED, "synthesis", ["verify", "no_such_function"])
    installed = tracing.Installed(tracing.Tracer("test"))
    installed.restore()
    assert installed.absent == ["synthesis.no_such_function"]
    metrics = tracing.layer_metrics([], ["synthesis.pso_minimize"])
    assert "synthesis.optimizer_s" not in metrics and "synthesis.useful_evals_frac" not in metrics
    assert "synthesis.verify_s" in metrics


def test_benchmark_json_matches_emitted_metrics():
    import json

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    emitted = {k: u for k, (_, u) in tracing.layer_metrics([]).items()}
    emitted.update({"cli.import_s": "s", "trace.overhead_s": "s", "synthesis.max_abs_db": "dB"})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == emitted
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
