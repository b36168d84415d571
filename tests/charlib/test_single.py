"""Single-input characterization (eq. 3.7/3.8 tables)."""

import numpy as np
import pytest

from repro.charlib import CharacterizationCache, SingleInputGrid
from repro.charlib.single import characterize_single_input, drive_strength
from repro.errors import CharacterizationError
from repro.waveform import FALL, RISE


@pytest.fixture(scope="module")
def model(nand3_m, thresholds_m, tmp_cache):
    return characterize_single_input(
        nand3_m, "a", FALL, thresholds_m,
        grid=SingleInputGrid.fast(), cache=tmp_cache,
    )


@pytest.fixture(scope="module")
def nand3_m():
    from repro.gates import Gate
    from repro.tech import default_process
    return Gate.nand(3, default_process(), load=100e-15)


@pytest.fixture(scope="module")
def thresholds_m(nand3_m):
    from repro.charlib.library import cached_thresholds
    return cached_thresholds(nand3_m)


@pytest.fixture(scope="module")
def tmp_cache(tmp_path_factory):
    return CharacterizationCache(tmp_path_factory.mktemp("charcache"))


class TestGrid:
    def test_default_covers_paper_range(self):
        grid = SingleInputGrid()
        assert min(grid.taus) <= 50e-12
        assert max(grid.taus) >= 2000e-12

    def test_validation(self):
        with pytest.raises(CharacterizationError):
            SingleInputGrid(taus=())
        with pytest.raises(CharacterizationError):
            SingleInputGrid(load_factors=(0.0,))

    def test_single_point_grid_rejected(self):
        with pytest.raises(CharacterizationError, match=">= 2"):
            SingleInputGrid(taus=(300e-12,), load_factors=(1.0,))
        # Two points along either axis are enough.
        SingleInputGrid(taus=(300e-12, 600e-12), load_factors=(1.0,))
        SingleInputGrid(taus=(300e-12,), load_factors=(1.0, 2.0))

    def test_key_is_json_friendly(self):
        key = SingleInputGrid.fast().key()
        assert isinstance(key["taus"], list)


class TestDriveStrength:
    def test_rising_input_uses_nmos(self, nand3_m):
        assert drive_strength(nand3_m, "a", RISE) == pytest.approx(
            nand3_m.strength_n("a"))

    def test_falling_input_uses_pmos(self, nand3_m):
        assert drive_strength(nand3_m, "a", FALL) == pytest.approx(
            nand3_m.strength_p("a"))


class TestCharacterization:
    def test_model_matches_simulation_at_grid_points(self, model, nand3_m,
                                                     thresholds_m):
        from repro.charlib.simulate import single_input_response
        for tau in (100e-12, 700e-12):
            shot = single_input_response(nand3_m, "a", FALL, tau, thresholds_m)
            assert model.delay(tau) == pytest.approx(shot.delay, rel=0.05)
            assert model.ttime(tau) == pytest.approx(shot.out_ttime, rel=0.08)

    def test_delay_monotone_in_tau(self, model):
        taus = np.geomspace(60e-12, 1800e-12, 12)
        delays = [model.delay(float(t)) for t in taus]
        assert all(d2 > d1 for d1, d2 in zip(delays, delays[1:]))

    def test_load_transfer_through_drive_factor(self, model, nand3_m,
                                                thresholds_m):
        """Dimensional analysis: a table built at one load answers
        queries at other loads through u = C_L/(K Vdd tau)."""
        from repro.charlib.simulate import single_input_response
        tau = 400e-12
        for load in (60e-15, 150e-15):
            shot = single_input_response(
                nand3_m, "a", FALL, tau, thresholds_m, load=load)
            assert model.delay(tau, load) == pytest.approx(shot.delay, rel=0.10)

    def test_cached_second_call_is_instant(self, nand3_m, thresholds_m, tmp_cache):
        import time
        t0 = time.time()
        characterize_single_input(
            nand3_m, "a", FALL, thresholds_m,
            grid=SingleInputGrid.fast(), cache=tmp_cache,
        )
        assert time.time() - t0 < 0.5

    def test_unknown_input_rejected(self, nand3_m, thresholds_m, tmp_cache):
        with pytest.raises(CharacterizationError):
            characterize_single_input(
                nand3_m, "x", FALL, thresholds_m, cache=tmp_cache)


class TestTooFewSurvivingPoints:
    def test_lost_points_counted_and_resume_suggested(
            self, nand3_m, thresholds_m, tmp_path):
        from repro.resilience import FaultInjection
        grid = SingleInputGrid(taus=(300e-12, 600e-12), load_factors=(1.0,))
        with FaultInjection("point@single/0:always"):
            with pytest.raises(CharacterizationError) as excinfo:
                characterize_single_input(
                    nand3_m, "a", FALL, thresholds_m, grid=grid, workers=0,
                    cache=CharacterizationCache(tmp_path))
        assert "1 of 2 lost" in str(excinfo.value)
        assert "--resume" in str(excinfo.value)

    def test_short_grid_without_losses_does_not_suggest_resume(
            self, nand3_m, thresholds_m, tmp_path):
        grid = SingleInputGrid(taus=(300e-12, 600e-12), load_factors=(1.0,))
        # A one-point grid that skipped validation: nothing was lost.
        object.__setattr__(grid, "taus", (300e-12,))
        with pytest.raises(CharacterizationError) as excinfo:
            characterize_single_input(
                nand3_m, "a", FALL, thresholds_m, grid=grid, workers=0,
                cache=CharacterizationCache(tmp_path))
        assert "0 of 1 lost" in str(excinfo.value)
        assert "--resume" not in str(excinfo.value)


class TestMergeDuplicates:
    def test_duplicates_averaged(self):
        from repro.charlib.single import _merge_duplicates
        u = np.array([1.0, 2.0, 2.0, 3.0])
        d = np.array([10.0, 20.0, 22.0, 30.0])
        t = np.array([1.0, 2.0, 4.0, 3.0])
        mu, md, mt = _merge_duplicates(u, d, t)
        assert np.allclose(mu, [1.0, 2.0, 3.0])
        assert np.allclose(md, [10.0, 21.0, 30.0])
        assert np.allclose(mt, [1.0, 3.0, 3.0])

    def test_unsorted_input_sorted(self):
        from repro.charlib.single import _merge_duplicates
        u = np.array([3.0, 1.0, 2.0])
        d = np.array([30.0, 10.0, 20.0])
        t = np.array([3.0, 1.0, 2.0])
        mu, md, mt = _merge_duplicates(u, d, t)
        assert np.allclose(mu, [1.0, 2.0, 3.0])
        assert np.allclose(md, [10.0, 20.0, 30.0])
