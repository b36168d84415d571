"""End-to-end chaos tests: characterization under injected faults.

The scenario from the issue's acceptance criteria: a small but real
single- and dual-input characterization of a NAND2 where three grid
points fail persistently, one worker crashes mid-sweep and one cache
entry is corrupted on disk.  The run must complete, report exactly the
injected losses, keep every surviving table cell bit-identical to a
fault-free run at any worker count, and repair itself under resume.
"""

import numpy as np
import pytest

from repro.charlib.cache import CharacterizationCache
from repro.charlib.dual import DualInputGrid, characterize_dual_input
from repro.charlib.single import SingleInputGrid, characterize_single_input
from repro.resilience import FaultInjection
from repro.resilience.runtime import resilient_map

SGRID = SingleInputGrid(taus=(100e-12, 500e-12, 2000e-12), load_factors=(1.0,))
DGRID = DualInputGrid(tau_refs=(100e-12, 1000e-12), a2=(0.5, 2.0),
                      a3=(-1.0, 0.0, 1.0))

#: Three persistent point faults (one single-input, two dual-input grid
#: points) plus one transient worker crash.
FAULTS = "point@single/1:always,point@dual/3:always,point@dual/7:always,crash@2:1"


def _characterize(gate, thresholds, directory, *, workers=None):
    # Pinned to one point per pooled task: the crash fault kills the
    # worker at point 2, and under batching its whole chunk would be
    # resubmitted with it.  Batched degradation parity lives in
    # tests/charlib/test_batched_sweeps.py.
    cache = CharacterizationCache(directory)
    single = characterize_single_input(
        gate, "a", "fall", thresholds, grid=SGRID, cache=cache, workers=workers,
        batch=0,
    )
    dual = characterize_dual_input(
        gate, "a", "b", "fall", thresholds, grid=DGRID, cache=cache,
        workers=workers, batch=0,
    )
    return single, dual, cache


@pytest.fixture(scope="module")
def baseline(nand2, thresholds, tmp_path_factory):
    single, dual, cache = _characterize(
        nand2, thresholds, tmp_path_factory.mktemp("chaos-baseline"),
    )
    return {"single": single, "dual": dual, "cache": cache}


@pytest.fixture(scope="module")
def faulted(nand2, thresholds, tmp_path_factory):
    with FaultInjection(FAULTS) as fi:
        single, dual, cache = _characterize(
            nand2, thresholds, tmp_path_factory.mktemp("chaos-faulted"),
            workers=2,
        )
        fired = {kind: fi.fired_count(kind) for kind in ("point", "crash")}
    return {"single": single, "dual": dual, "cache": cache, "fired": fired}


@pytest.fixture(scope="module")
def serial_faulted(nand2, thresholds, tmp_path_factory):
    with FaultInjection(FAULTS):
        single, dual, _ = _characterize(
            nand2, thresholds, tmp_path_factory.mktemp("chaos-serial"),
        )
    return {"single": single, "dual": dual}


def _dual_failed_mask(health):
    """Boolean mask of table cells lost by the sweep, from the report."""
    mask = np.zeros((len(DGRID.tau_refs), len(DGRID.a2), len(DGRID.a3)),
                    dtype=bool)
    for point in health.failed:
        i = DGRID.tau_refs.index(point.coords["tau_ref"])
        j = DGRID.a2.index(point.coords["a2"])
        k = DGRID.a3.index(point.coords["a3"])
        mask[i, j, k] = True
    return mask


class TestDegradedRunCompletes:
    def test_exactly_the_injected_faults_are_reported(self, faulted):
        single_health = faulted["single"].health
        dual_health = faulted["dual"].health
        assert [p.index for p in single_health.failed] == [1]
        assert single_health.failed[0].coords == {
            "load": pytest.approx(100e-15), "tau": pytest.approx(500e-12),
        }
        assert sorted(p.index for p in dual_health.failed) == [3, 7]
        assert all(p.kind == "error" for p in
                   single_health.failed + dual_health.failed)
        assert faulted["fired"]["crash"] == 1

    def test_dual_failed_cells_are_neighbor_filled(self, faulted):
        health = faulted["dual"].health
        assert health.filled == 4  # 2 points x (delay + ttime tables)
        assert np.isfinite(faulted["dual"]._delay_table).all()
        assert np.isfinite(faulted["dual"]._ttime_table).all()

    def test_crash_recovery_leaves_no_scar(self, faulted):
        """The crashed worker's task was resubmitted and completed: only
        the *point* faults appear in the health reports."""
        kinds = {p.kind for p in (faulted["single"].health.failed
                                  + faulted["dual"].health.failed)}
        assert kinds == {"error"}


class TestBitIdentity:
    def test_surviving_dual_cells_match_baseline_exactly(self, baseline, faulted):
        mask = _dual_failed_mask(faulted["dual"].health)
        for name in ("_delay_table", "_ttime_table"):
            clean = getattr(baseline["dual"], name)
            degraded = getattr(faulted["dual"], name)
            assert np.array_equal(clean[~mask], degraded[~mask])
            # The filled cells are estimates, not the true measurements.
            assert not np.array_equal(clean[mask], degraded[mask])

    def test_surviving_single_samples_match_baseline_exactly(self, baseline,
                                                             faulted):
        # The failed tau drops out; the surviving samples are untouched.
        clean_u, degraded_u = baseline["single"]._u, faulted["single"]._u
        assert degraded_u.size == clean_u.size - 1
        assert set(degraded_u) <= set(clean_u)

    def test_worker_count_invariance(self, faulted, serial_faulted):
        """The same faulted sweep, serial vs two workers: identical
        tables, identical health accounting."""
        for name in ("_delay_table", "_ttime_table"):
            assert np.array_equal(getattr(faulted["dual"], name),
                                  getattr(serial_faulted["dual"], name))
        assert np.array_equal(faulted["single"]._d, serial_faulted["single"]._d)
        assert ([p.index for p in faulted["dual"].health.failed]
                == [p.index for p in serial_faulted["dual"].health.failed])


class TestResume:
    def test_journal_outlives_a_degraded_sweep(self, faulted):
        journals = list(faulted["cache"].directory.glob("journal-*.jsonl"))
        assert len(journals) == 2  # one per degraded sweep (single + dual)

    def test_resume_recomputes_only_the_lost_points_and_heals(
            self, baseline, faulted, nand2, thresholds, monkeypatch):
        monkeypatch.setenv("REPRO_RESUME", "1")
        single, dual, cache = _characterize(
            nand2, thresholds, faulted["cache"].directory,
        )
        assert single.health.ok
        assert dual.health.ok and dual.health.filled == 0
        # Healed tables are bit-identical to the never-faulted baseline.
        for name in ("_delay_table", "_ttime_table"):
            assert np.array_equal(getattr(dual, name),
                                  getattr(baseline["dual"], name))
        assert np.array_equal(single._d, baseline["single"]._d)
        assert np.array_equal(single._u, baseline["single"]._u)
        # The repaired sweeps no longer need their journals.
        assert list(cache.directory.glob("journal-*.jsonl")) == []


class TestCacheChaos:
    def test_corrupt_entry_is_quarantined_and_recomputed(self, tmp_path):
        cache = CharacterizationCache(tmp_path)
        key = {"gate": "nand2", "n": 1}
        with FaultInjection("corrupt@vtc:1"):
            cache.store("vtc", key, {"curves": [[0.0, 5.0]]})
            assert cache.load("vtc", key) is None  # quarantined, not crashed
        corpses = list(tmp_path.glob("*.corrupt"))
        assert len(corpses) == 1
        calls = []

        def compute():
            calls.append(1)
            return {"curves": [[0.0, 5.0]]}

        payload = cache.get_or_compute("vtc", key, compute)
        assert calls == [1]
        assert payload == {"curves": [[0.0, 5.0]]}
        # The rewritten entry is healthy again.
        assert cache.get_or_compute("vtc", key, compute) == payload
        assert calls == [1]

    def test_wrong_shape_payload_is_recomputed(self, tmp_path):
        """A parseable cache entry missing its kind's required keys (a
        stale schema, a hand-edited file) must fall through to a
        recompute instead of being trusted."""
        cache = CharacterizationCache(tmp_path)
        key = {"gate": "nand2"}
        cache.store("single", key, {"value": 42})  # not a single payload
        good = {"u": [1.0], "delay_norm": [0.1], "ttime_norm": [0.2],
                "k_drive": 1.0}
        payload = cache.get_or_compute("single", key, lambda: good)
        assert payload == good
        assert cache.load("single", key) == good


class TestResilientMapAbort:
    def test_journal_survives_a_raise_and_resume_skips_done_points(
            self, tmp_path):
        """on_error='raise' still journals every point completed before
        the abort, so a resumed run replays them instead of recomputing."""
        key = {"sweep": "abort-demo"}
        executed = []

        def flaky(x):
            executed.append(x)
            if x == 3:
                raise ValueError("injected abort")
            return x * 10

        with pytest.raises(ValueError):
            resilient_map(flaky, range(5), journal_kind="demo",
                          journal_key=key, directory=tmp_path,
                          on_error="raise")
        assert executed == [0, 1, 2, 3]
        journals = list(tmp_path.glob("journal-demo-*.jsonl"))
        assert len(journals) == 1

        executed.clear()

        def healthy(x):
            executed.append(x)
            return x * 10

        results, failures = resilient_map(
            healthy, range(5), journal_kind="demo", journal_key=key,
            directory=tmp_path, resume=True,
        )
        assert executed == [3, 4]  # points 0-2 replayed from the journal
        assert failures == []
        assert results == [0, 10, 20, 30, 40]
        assert list(tmp_path.glob("journal-demo-*.jsonl")) == []
