"""The parallel execution layer: worker resolution and deterministic map."""

import os

import pytest

from repro.errors import ReproError
from repro.parallel import (
    BATCH_ENV_VAR,
    WORKERS_ENV_VAR,
    parallel_map,
    resolve_batch,
    resolve_workers,
)


def _square(x):
    return x * x


def _raise_on_three(x):
    if x == 3:
        raise ValueError("boom")
    return x


class TestResolveWorkers:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
        assert resolve_workers() == 0

    def test_env_var(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "3")
        assert resolve_workers() == 3

    def test_explicit_overrides_env(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "3")
        assert resolve_workers(2) == 2
        assert resolve_workers(0) == 0

    def test_negative_means_all_cores(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
        assert resolve_workers(-1) == (os.cpu_count() or 1)

    def test_bad_env_raises(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "many")
        with pytest.raises(ReproError):
            resolve_workers()

    def test_blank_env_is_serial(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "  ")
        assert resolve_workers() == 0


class TestResolveBatch:
    def test_default_is_scalar(self, monkeypatch):
        monkeypatch.delenv(BATCH_ENV_VAR, raising=False)
        assert resolve_batch() == 0

    def test_env_var(self, monkeypatch):
        monkeypatch.setenv(BATCH_ENV_VAR, "32")
        assert resolve_batch() == 32

    def test_explicit_overrides_env(self, monkeypatch):
        monkeypatch.setenv(BATCH_ENV_VAR, "32")
        assert resolve_batch(8) == 8
        assert resolve_batch(0) == 0

    def test_bad_env_raises(self, monkeypatch):
        monkeypatch.setenv(BATCH_ENV_VAR, "lots")
        with pytest.raises(ReproError):
            resolve_batch()

    def test_negative_raises(self):
        with pytest.raises(ReproError):
            resolve_batch(-4)

    def test_blank_env_is_scalar(self, monkeypatch):
        monkeypatch.setenv(BATCH_ENV_VAR, "  ")
        assert resolve_batch() == 0


class TestParallelMap:
    def test_serial_preserves_order(self):
        assert parallel_map(_square, range(7), workers=0) == [
            x * x for x in range(7)
        ]

    def test_parallel_matches_serial(self):
        items = list(range(11))
        assert (parallel_map(_square, items, workers=2)
                == parallel_map(_square, items, workers=0))

    def test_empty_and_singleton(self):
        assert parallel_map(_square, [], workers=4) == []
        assert parallel_map(_square, [5], workers=4) == [25]

    def test_env_var_controls_fanout(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "2")
        assert parallel_map(_square, range(5)) == [x * x for x in range(5)]

    def test_serial_exception_propagates(self):
        with pytest.raises(ValueError):
            parallel_map(_raise_on_three, range(5), workers=0)

    def test_parallel_exception_propagates(self):
        with pytest.raises(ValueError) as info:
            parallel_map(_raise_on_three, range(5), workers=2, chunksize=2)
        # The worker's traceback rides along as the exception's cause.
        assert "_raise_on_three" in str(info.value.__cause__)

    def test_chunksize(self):
        items = list(range(10))
        assert parallel_map(_square, items, workers=2, chunksize=4) == [
            x * x for x in items
        ]
