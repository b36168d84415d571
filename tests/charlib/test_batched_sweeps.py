"""Batched-vs-scalar equivalence of the characterization sweeps.

``batch`` (``REPRO_BATCH``) makes each pooled task carry that many sweep
points instead of one; it only acts on a process pool, so the batched
runs here use two workers.  Its contract mirrors the worker-count
contract: tables are *bit-identical* to the scalar sweep for any batch
size, failures degrade to the same NaN cells and health records, and
the per-point journal stays interoperable between the two modes.
"""

import numpy as np
import pytest

from repro.charlib.cache import CharacterizationCache
from repro.charlib.dual import DualInputGrid, characterize_dual_input
from repro.charlib.single import SingleInputGrid, characterize_single_input
from repro.resilience.faults import FaultInjection

SINGLE_GRID = SingleInputGrid(taus=(100e-12, 500e-12, 1500e-12),
                              load_factors=(1.0,))

DUAL_GRID = DualInputGrid(tau_refs=(100e-12, 800e-12), a2=(0.5, 2.0),
                          a3=(-1.0, 0.5))


def single(nand2, thresholds, directory, **kwargs):
    return characterize_single_input(
        nand2, "a", "fall", thresholds, grid=SINGLE_GRID,
        cache=CharacterizationCache(directory), **kwargs,
    )


def dual(nand2, thresholds, directory, **kwargs):
    return characterize_dual_input(
        nand2, "a", "b", "fall", thresholds, grid=DUAL_GRID,
        cache=CharacterizationCache(directory), **kwargs,
    )


class TestBatchedEquivalence:
    @pytest.mark.parametrize("batch", [2, 8])
    def test_single_table_bit_identical(self, nand2, thresholds, tmp_path,
                                        batch):
        """Batch 2 leaves a ragged final chunk; batch 8 exceeds the
        3-point sweep, exercising the single-chunk path."""
        scalar = single(nand2, thresholds, tmp_path / "scalar", batch=0)
        batched = single(nand2, thresholds, tmp_path / "batched", batch=batch,
                         workers=2)
        assert np.array_equal(scalar._u, batched._u)
        assert np.array_equal(scalar._d, batched._d)
        assert np.array_equal(scalar._t, batched._t)
        assert scalar.c_par == batched.c_par

    def test_dual_table_bit_identical(self, nand2, thresholds, tmp_path):
        scalar = dual(nand2, thresholds, tmp_path / "scalar", batch=0)
        batched = dual(nand2, thresholds, tmp_path / "batched", batch=3,
                       workers=2)
        for axis_s, axis_b in zip(scalar.axes, batched.axes):
            assert np.array_equal(axis_s, axis_b)
        assert np.array_equal(scalar._delay_table, batched._delay_table)
        assert np.array_equal(scalar._ttime_table, batched._ttime_table)

    def test_batch_composes_with_workers(self, nand2, thresholds, tmp_path):
        scalar = single(nand2, thresholds, tmp_path / "scalar")
        pooled = single(nand2, thresholds, tmp_path / "pooled",
                        batch=2, workers=2)
        assert np.array_equal(scalar._u, pooled._u)
        assert np.array_equal(scalar._d, pooled._d)
        assert np.array_equal(scalar._t, pooled._t)

    def test_env_var_selects_batched_path(self, nand2, thresholds, tmp_path,
                                          monkeypatch):
        scalar = single(nand2, thresholds, tmp_path / "scalar")
        monkeypatch.setenv("REPRO_BATCH", "2")
        monkeypatch.setenv("REPRO_WORKERS", "2")
        batched = single(nand2, thresholds, tmp_path / "env")
        assert np.array_equal(scalar._u, batched._u)
        assert np.array_equal(scalar._d, batched._d)


class TestBatchedDegradation:
    def test_failed_point_matches_scalar_record(self, nand2, thresholds,
                                                tmp_path):
        """An injected point fault produces the same NaN cell and the
        same health record (kind, message, coords) in both modes, and
        chunk-mates of the failed point survive untouched."""
        with FaultInjection("point@single/1:always"):
            scalar = single(nand2, thresholds, tmp_path / "scalar")
        with FaultInjection("point@single/1:always"):
            batched = single(nand2, thresholds, tmp_path / "batched", batch=2,
                             workers=2)
        assert np.array_equal(scalar._u, batched._u)
        assert np.array_equal(scalar._d, batched._d)
        assert len(batched.health.failed) == 1
        s_rec, b_rec = scalar.health.failed[0], batched.health.failed[0]
        assert (s_rec.index, s_rec.kind, s_rec.message, s_rec.coords) == \
            (b_rec.index, b_rec.kind, b_rec.message, b_rec.coords)

    def test_resume_repairs_batched_sweep_scalar(self, nand2, thresholds,
                                                 tmp_path, monkeypatch):
        """A sweep degraded under batching resumes scalar (or any other
        batch size): the journal holds its completed points."""
        cache_dir = tmp_path / "cache"
        with FaultInjection("point@single/1:always"):
            degraded = single(nand2, thresholds, cache_dir, batch=2,
                              workers=2)
        assert len(degraded.health.failed) == 1

        monkeypatch.setenv("REPRO_RESUME", "1")
        repaired = single(nand2, thresholds, cache_dir)
        assert len(repaired.health.failed) == 0

        clean = single(nand2, thresholds, tmp_path / "clean")
        assert np.array_equal(repaired._u, clean._u)
        assert np.array_equal(repaired._d, clean._d)
        assert np.array_equal(repaired._t, clean._t)

    def test_dual_failed_cell_matches_scalar(self, nand2, thresholds,
                                             tmp_path):
        with FaultInjection("point@dual/3:always"):
            scalar = dual(nand2, thresholds, tmp_path / "scalar")
        with FaultInjection("point@dual/3:always"):
            batched = dual(nand2, thresholds, tmp_path / "batched", batch=4,
                           workers=2)
        assert np.array_equal(scalar._delay_table, batched._delay_table)
        assert np.array_equal(scalar._ttime_table, batched._ttime_table)
        assert len(batched.health.failed) == 1
        s_rec, b_rec = scalar.health.failed[0], batched.health.failed[0]
        assert (s_rec.index, s_rec.kind, s_rec.message) == \
            (b_rec.index, b_rec.kind, b_rec.message)
