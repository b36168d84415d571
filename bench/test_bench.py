"""Tests of the benchmark itself: ``python -m pytest bench -q``."""

import json
import subprocess
import sys
import types

import pytest

from bench import common, compare, speed, trace
from bench.run import END_TO_END, WORKLOADS

common.require_source()

RUN = [sys.executable, str(common.BENCH / "run.py")]


def test_benchmark_json_names_every_metric_and_workload():
    with open(common.ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(trace.LAYER_METRICS)
    assert len(trace.LAYER_METRICS) == 59
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("n, expected", [(600, 98), (200, 95), (100, 90), (11, 9)])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    samples = [float(i) for i in range(n)]
    pct, value = common.tail_percentile(samples)
    assert pct == expected
    assert sum(1 for s in samples if s > value) >= 10
    # The next percentile up would leave fewer than ten beyond it.
    assert (100 * (n - 10)) // n == pct


def test_tail_percentile_needs_more_than_ten_samples():
    assert common.tail_percentile([1.0] * 10) is None


def test_normalize_weights_each_stretch_by_its_nearest_probe():
    meter = speed.SpeedMeter()
    assert meter.normalize(1.0, 3.0) == pytest.approx(2.0)     # no samples: as is
    nominal = speed.PROBE_NOMINAL
    # Nominal speed up to 0.15 s, half speed after; the first probe
    # took 0.01 s of the interval it falls in.
    meter.samples = [(0.1, nominal, 0.01), (0.2, 2 * nominal, 0.0)]
    assert meter.normalize(0.0, 0.3) == pytest.approx(0.14 + 0.15 / 2)
    assert meter.normalize(0.16, 0.26) == pytest.approx(0.1 / 2)
    assert meter.normalize(0.12, 0.14) == pytest.approx(0.02)
    assert meter.factor(0.16, 0.26) == pytest.approx(0.5)


def _event(sid, parent, name, start, dur, pid=1, **extra):
    return {"name": name, "ph": "X", "pid": pid, "tid": 1, "ts": start * 1e6,
            "dur": dur * 1e6, "args": {"span": sid, "parent": parent, "id": 0,
                                       "thread": "MainThread", **extra}}


def test_self_time_subtracts_direct_children_only():
    events = [
        _event(1, 0, "core.explain", 0.0, 10.0),
        _event(2, 1, "charlib.shot", 1.0, 6.0),
        _event(3, 2, "spice.transient", 2.0, 4.0),
        _event(4, 1, "models.oracle", 8.0, 1.0),
        # Same span id in another process is another span.
        _event(2, 0, "serve.request", 0.0, 3.0, pid=2),
    ]
    table = {(row["pid"], row["span"]): row for row in trace.span_table(events)}
    assert table[(1, 1)]["self"] == pytest.approx(3.0)
    assert table[(1, 2)]["self"] == pytest.approx(2.0)
    assert table[(1, 3)]["self"] == pytest.approx(4.0)
    assert table[(2, 2)]["self"] == pytest.approx(3.0)


def test_layer_metrics_cover_the_phase_time():
    events = [
        _event(1, 0, "core.explain", 0.0, 6.0),
        _event(2, 1, "models.oracle", 1.0, 2.0),
        _event(3, 2, "charlib.shot", 1.5, 1.0),
        _event(4, 1, "models.oracle", 4.0, 1.0),
        _event(5, 0, "loadgen", 6.0, 1.0),
    ]
    metrics = trace.layer_metrics(events, [], {}, phase_seconds=8.0, setup_seconds=1.0,
                                  overhead_frac=0.0)
    assert set(metrics) == {name for name, _ in trace.LAYER_METRICS}
    assert metrics["trace.coverage_frac"] == pytest.approx(7.0 / 8.0)
    assert metrics["loadgen.client_frac"] == pytest.approx(1.0 / 8.0)
    assert metrics["core.explain.self_frac"] == pytest.approx(3.0 / 8.0)
    assert metrics["models.oracle.memo_hit_ratio"] == pytest.approx(0.5)


def test_layer_time_counts_concurrent_spans_once():
    events = [_event(1, 0, "gates.build", 0.0, 2.0),
              _event(2, 0, "gates.build", 1.0, 2.0, pid=2),
              _event(3, 0, "gates.build", 5.0, 1.0)]
    metrics = trace.layer_metrics(events, [], {}, phase_seconds=10.0, setup_seconds=1.0,
                                  overhead_frac=0.0)
    assert metrics["gates.build.frac"] == pytest.approx(0.4)


def _record(workload, started, value, failed=0):
    metrics = {name: {"value": value, "unit": unit} for name, unit in END_TO_END}
    return {"workload": workload, "started": started, "trace": 0, "smoke": False,
            "failed": failed, "metrics": metrics,
            "provenance": {key: "same" for key in compare.SAME_HOST}}


def _write_pairs(tmp_path, parent_values, change_values, alternate=True):
    for side, values in (("parent", parent_values), ("change", change_values)):
        (tmp_path / side).mkdir()
        for i, value in enumerate(values):
            parent_first = i % 2 == 0 or not alternate
            started = 2 * i + (0 if (side == "parent") == parent_first else 1)
            with open(tmp_path / side / f"{i}.json", "w") as handle:
                json.dump(_record("w", started, value), handle)
    return tmp_path / "parent", tmp_path / "change"


def _verdicts(tmp_path, parent_values, change_values):
    rows = compare.compare(*_write_pairs(tmp_path, parent_values, change_values))
    return {v["metric"]: v["verdict"] for v in rows[0][1]}


def test_compare_finds_no_change_between_equal_sets(tmp_path):
    values = [100.0 + (i % 3) * 0.1 for i in range(10)]
    assert set(_verdicts(tmp_path, values, list(reversed(values))).values()) == {"no change"}


def test_compare_gain_and_regression(tmp_path):
    parent = [100.0 + 0.1 * i for i in range(10)]
    # Every value 30% higher: a gain where higher is better, and worse
    # than any bound (all are at most 25%) where lower is better.
    verdicts = _verdicts(tmp_path, parent, [p * 1.3 for p in parent])
    assert verdicts == {"setup_s": "regression", "peak_rss_mb": "regression",
                        "ops_per_s": "gain", "p50_ms": "regression"}


def test_compare_gain_needs_nine_wins_of_ten(tmp_path):
    parent = [100.0 + 0.1 * i for i in range(10)]
    change = [p * 1.05 for p in parent]
    change[3] = change[4] = 90.0        # two lost pairs: 8/10 wins
    assert _verdicts(tmp_path, parent, change)["ops_per_s"] != "gain"


def test_compare_reports_a_clear_loss_inside_the_bound(tmp_path):
    parent = [100.0 + 0.1 * i for i in range(10)]
    # 10% lower everywhere: inside every bound, but lost in every pair.
    verdicts = _verdicts(tmp_path, parent, [p * 0.9 for p in parent])
    assert verdicts == {"setup_s": "gain", "peak_rss_mb": "gain",
                        "ops_per_s": "loss", "p50_ms": "gain"}


def test_compare_reports_unresolved_when_spread_exceeds_bound(tmp_path):
    parent = [100.0, 60.0, 140.0, 100.0, 60.0, 140.0, 100.0, 60.0, 140.0, 100.0]
    verdicts = _verdicts(tmp_path, parent, list(parent))
    assert verdicts["ops_per_s"] == "unresolved"


def test_compare_refuses_few_pairs(tmp_path):
    with pytest.raises(compare.Refused, match="at least 10"):
        compare.compare(*_write_pairs(tmp_path, [1.0] * 9, [1.0] * 9))


def test_compare_refuses_pairs_that_do_not_alternate(tmp_path):
    with pytest.raises(compare.Refused, match="alternate"):
        compare.compare(*_write_pairs(tmp_path, [1.0] * 10, [1.0] * 10, alternate=False))


@pytest.mark.parametrize("field", ["hostname", "cpu_model"])
def test_compare_refuses_other_hosts(tmp_path, field):
    parent_dir, change_dir = _write_pairs(tmp_path, [1.0] * 10, [1.0] * 10)
    assert compare.compare(parent_dir, change_dir)
    record = json.loads((change_dir / "0.json").read_text())
    record["provenance"][field] = "other"
    (change_dir / "0.json").write_text(json.dumps(record))
    with pytest.raises(compare.Refused, match=field):
        compare.compare(parent_dir, change_dir)


def test_wrappers_cover_from_imports_and_restore_originals():
    import repro.charlib.dual as dual
    import repro.charlib.simulate as simulate
    import repro.core.api as api

    original = simulate.multi_input_response
    tracer = trace.Tracer().install()
    try:
        wrapper = simulate.multi_input_response
        assert wrapper is not original
        # ``from ..charlib.simulate import multi_input_response`` sites:
        assert dual.multi_input_response is wrapper
        assert api.multi_input_response is wrapper
        # A module imported after install copies the wrapper; uninstall
        # must still find it.
        late = types.ModuleType("repro._bench_late_import")
        late.multi_input_response = wrapper
        sys.modules[late.__name__] = late
    finally:
        tracer.uninstall()
        sys.modules.pop("repro._bench_late_import", None)
    assert simulate.multi_input_response is original
    assert dual.multi_input_response is original
    assert api.multi_input_response is original
    assert late.multi_input_response is original


def test_wrapped_calls_record_nested_spans_with_the_op_id():
    from repro import default_process, ramp
    from repro.gates import Gate
    import repro.spice as spice

    gate = Gate.inverter(default_process())
    tracer = trace.Tracer().install()
    try:
        tracer.set_op(7)
        circuit = gate.build({"a": ramp(0.0, 0.0, gate.process.vdd, 100e-12)})
        spice.transient(circuit, 1e-9)
    finally:
        tracer.uninstall()
    names = [name for _, _, name, *_ in tracer.events]
    assert names.count("gates.build") == 1 and names.count("spice.transient") == 1
    compile_span = next(e for e in tracer.events if e[2] == "spice.compile")
    transient_span = next(e for e in tracer.events if e[2] == "spice.transient")
    assert compile_span[1] == transient_span[0]         # compile nests in transient
    assert {e[6] for e in tracer.events} == {7}
    assert transient_span[7]["steps"] > 0


def test_validate_oracle_matches_table5_1(tmp_path, monkeypatch):
    from repro.experiments import table5_1

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    workload = WORKLOADS["validate_oracle"](seed=7)
    workload.setup()
    records = workload.run_phase(0, count=8).records
    expected = table5_1.run(n_configs=8, seed=7, workers=0)
    got = [r.output["times"] for r in records]
    assert [(t["model"][0] - t["sim"][0]) / t["sim"][0] * 100.0 for t in got] \
        == expected.delay_errors
    assert [(t["model"][1] - t["sim"][1]) / t["sim"][1] * 100.0 for t in got] \
        == expected.ttime_errors


def _run(*args):
    proc = subprocess.run(RUN + list(args), capture_output=True, text=True, timeout=170,
                          cwd=common.ROOT)
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run_passes_its_checks(name):
    line, stdout = _run("--workload", name, "--seed", "1", "--smoke")
    assert line["correct"], stdout
    assert line["failed"] == 0 and line["attempted"] >= 1
    assert [m for m in line["metrics"]] == [name for name, _ in END_TO_END]
    assert f"reference {name}-1.json" in stdout        # checked against recorded outputs
    for figure in (WORKLOADS[name].rate_metric[0], "fail_frac"):
        assert f"    {figure} " in stdout


def test_traced_smoke_run_reports_every_layer_metric(tmp_path):
    line, stdout = _run("--workload", "validate_oracle", "--seed", "1", "--smoke",
                        "--trace", "1", "--trace-dir", str(tmp_path))
    assert line["correct"], stdout
    assert list(line["metrics"]) == [name for name, _ in trace.LAYER_METRICS]
    assert line["metrics"]["core.explain.calls"]["value"] >= 1
    assert line["metrics"]["vtc.family.calls"]["value"] >= 1
    assert line["metrics"]["trace.coverage_frac"]["value"] > 0.9
    document = json.loads((tmp_path / "validate_oracle-1.json").read_text())
    assert any(ev["name"] == "spice.transient" for ev in document["traceEvents"])


def test_missing_sources_fail_without_a_result(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in common.BENCH.glob("*.py"):
        (tmp_path / "bench" / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "flat_large",
                           "--seed", "1"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
