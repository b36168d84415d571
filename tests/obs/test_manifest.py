"""Run manifests and the CLI run context."""

import argparse
import json
import os

from repro.obs import (
    MANIFEST_ENV_VAR,
    METRICS_ENV_VAR,
    OBS_ENV_VAR,
    TRACE_ENV_VAR,
    Recorder,
    get_recorder,
)
from repro.obs.manifest import RunContext, build_manifest, git_sha, write_manifest


def _recorder_with_work():
    recorder = Recorder()
    recorder.counter("spice.newton.iterations").inc(100)
    recorder.counter("spice.retries", phase="dc", rung=1).inc(2)
    recorder.counter("cache.hits").inc(5)
    recorder.counter("unrelated").inc(9)
    return recorder


class TestBuildManifest:
    def test_headline_totals_sum_labels_and_drop_zeros(self):
        manifest = build_manifest(_recorder_with_work(), command="test")
        assert manifest["kind"] == "repro-manifest"
        assert manifest["totals"] == {
            "spice.newton.iterations": 100,
            "spice.retries": 2,
            "cache.hits": 5,
        }
        assert manifest["counters"]["unrelated"] == 9

    def test_records_set_env_knobs_only(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "4")
        monkeypatch.delenv("REPRO_RETRY", raising=False)
        manifest = build_manifest(Recorder(), command="test")
        assert manifest["env"].get("REPRO_WORKERS") == "4"
        assert "REPRO_RETRY" not in manifest["env"]

    def test_provenance_fields(self):
        manifest = build_manifest(Recorder(), command="characterize",
                                  argv=["repro", "characterize"])
        assert manifest["command"] == "characterize"
        assert manifest["argv"] == ["repro", "characterize"]
        assert manifest["python"] == os.sys.version.split()[0]
        sha = git_sha()
        assert manifest["git_sha"] == sha
        if sha is not None:  # this repo is git-managed
            assert len(sha) == 40

    def test_write_manifest_round_trips(self, tmp_path):
        path = tmp_path / "manifest.json"
        write_manifest(path, _recorder_with_work(), command="x",
                       extra={"wall_seconds": 1.5})
        document = json.loads(path.read_text())
        assert document["wall_seconds"] == 1.5
        assert document["totals"]["cache.hits"] == 5


def _args(**overrides):
    base = dict(command="delay", trace=None, metrics=None, manifest=None,
                gate="nand2", workers=2, func=print)
    base.update(overrides)
    return argparse.Namespace(**base)


class TestRunContext:
    def test_no_flags_means_no_telemetry(self):
        context = RunContext.from_args(_args())
        context.arm()
        try:
            assert not context.wants_telemetry
            assert not get_recorder().enabled
        finally:
            assert context.finalize() == []

    def test_flags_publish_env_and_pin_recorder(self, tmp_path):
        trace = str(tmp_path / "trace.json")
        context = RunContext.from_args(_args(trace=trace))
        context.arm()
        try:
            assert os.environ[TRACE_ENV_VAR] == trace
            assert get_recorder().enabled
            with context.root_span("repro.delay"):
                get_recorder().counter("cache.hits").inc()
        finally:
            written = context.finalize()
        assert written == [trace]
        assert json.loads(open(trace).read())["traceEvents"]
        # Env and recorder state restored for the next in-process run.
        assert TRACE_ENV_VAR not in os.environ
        assert not get_recorder().enabled

    def test_cli_args_skip_unpicklable_entries(self):
        context = RunContext.from_args(_args())
        assert "func" not in context.cli_args
        assert context.cli_args["gate"] == "nand2"

    def test_env_only_activation_writes_env_named_paths(self, tmp_path,
                                                        monkeypatch):
        metrics = str(tmp_path / "metrics.json")
        monkeypatch.setenv(METRICS_ENV_VAR, metrics)
        context = RunContext.from_args(_args())
        context.arm()
        try:
            assert context.wants_telemetry
            get_recorder().counter("cache.hits").inc()
        finally:
            written = context.finalize()
        assert written == [metrics]
        assert json.loads(open(metrics).read())["counters"]["cache.hits"] == 1
        assert os.environ[METRICS_ENV_VAR] == metrics  # caller's var kept

    def test_manifest_records_wall_time_and_args(self, tmp_path):
        manifest = str(tmp_path / "manifest.json")
        context = RunContext.from_args(_args(manifest=manifest))
        context.arm()
        try:
            assert os.environ[MANIFEST_ENV_VAR] == manifest
        finally:
            context.finalize()
        document = json.loads(open(manifest).read())
        assert document["command"] == "delay"
        assert document["args"]["gate"] == "nand2"
        assert document["wall_seconds"] >= 0
        assert MANIFEST_ENV_VAR not in os.environ

    def test_obs_env_enables_without_paths(self, monkeypatch):
        monkeypatch.setenv(OBS_ENV_VAR, "1")
        context = RunContext.from_args(_args())
        context.arm()
        try:
            assert context.wants_telemetry
            assert get_recorder().enabled
        finally:
            assert context.finalize() == []  # nothing to write, state clean


class TestWorkerCountInvariance:
    def test_pooled_totals_serialize_like_serial(self, tmp_path,
                                                 monkeypatch, capsys):
        """Pooled workers ship counter deltas back to the parent; the
        merged totals must be the same JSON text as a serial run's
        (``110288``, not ``110288.0``)."""
        from repro.cli import main

        texts = []
        for workers in ("0", "2"):
            monkeypatch.setenv("REPRO_CACHE_DIR",
                               str(tmp_path / f"cache-{workers}"))
            manifest = tmp_path / f"manifest-{workers}.json"
            assert main(["characterize", "--gate", "nand2", "--fast",
                         "--workers", workers,
                         "--output", str(tmp_path / f"lib-{workers}.json"),
                         "--manifest", str(manifest)]) == 0
            totals = json.loads(manifest.read_text())["totals"]
            assert totals["spice.newton.iterations"] > 0
            texts.append(json.dumps(totals, sort_keys=True))
        capsys.readouterr()
        assert texts[0] == texts[1]
