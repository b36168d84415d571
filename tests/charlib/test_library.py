"""GateLibrary assembly, lookup fallbacks and serialization."""

import pytest

from repro.charlib import DualInputGrid, GateLibrary, SingleInputGrid
from repro.charlib.library import cached_thresholds, cached_vtc_family
from repro.errors import CharacterizationError, ModelError
from repro.models import (
    SimulatorDualInputModel,
    SimulatorSingleInputModel,
    TableDualInputModel,
    TableSingleInputModel,
)
from repro.waveform import FALL, RISE


class TestOracleMode:
    def test_all_models_present(self, oracle_library, nand3):
        for name in nand3.inputs:
            for direction in (RISE, FALL):
                model = oracle_library.single(name, direction)
                assert isinstance(model, SimulatorSingleInputModel)
        model = oracle_library.dual("a", "b", FALL)
        assert isinstance(model, SimulatorDualInputModel)
        assert len(oracle_library.dual_keys) == 12  # 6 ordered pairs x 2 dirs

    def test_missing_single_raises(self, oracle_library):
        with pytest.raises(ModelError):
            oracle_library.single("x", FALL)

    def test_oracle_not_serializable(self, oracle_library, tmp_path):
        with pytest.raises(CharacterizationError):
            oracle_library.save(tmp_path / "lib.json")


class TestTableMode:
    def test_model_types(self, nand2_fast_library):
        assert isinstance(nand2_fast_library.single("a", FALL), TableSingleInputModel)
        assert isinstance(nand2_fast_library.dual("a", "b", FALL), TableDualInputModel)

    def test_reference_pair_selection(self, nand2_fast_library):
        # nand2: one model per reference pin.
        assert len(nand2_fast_library.dual_keys) == 2

    def test_dual_sharing_fallback(self, nand2_fast_library):
        """Asking for a missing ordered pair returns a shared model for
        the same reference or direction (the paper's 'n macromodels
        suffice' observation)."""
        model = nand2_fast_library.dual("b", "a", FALL)
        assert model.direction == FALL

    def test_missing_direction_raises(self, nand2_fast_library):
        with pytest.raises(ModelError):
            nand2_fast_library.dual("a", "b", RISE)

    def test_roundtrip_save_load(self, nand2_fast_library, nand2, tmp_path):
        path = tmp_path / "nand2.json"
        nand2_fast_library.save(path)
        loaded = GateLibrary.load(path, nand2)
        tau = 300e-12
        assert loaded.single("a", FALL).delay(tau) == pytest.approx(
            nand2_fast_library.single("a", FALL).delay(tau), rel=1e-12)
        assert loaded.thresholds.vil == pytest.approx(
            nand2_fast_library.thresholds.vil)

    def test_load_rejects_wrong_topology(self, nand2_fast_library, nor2, tmp_path):
        path = tmp_path / "nand2.json"
        nand2_fast_library.save(path)
        with pytest.raises(CharacterizationError):
            GateLibrary.load(path, nor2)

    def test_explicit_pairs(self, nand2):
        lib = GateLibrary.characterize(
            nand2, mode="table",
            single_grid=SingleInputGrid.fast(),
            dual_grid=DualInputGrid.fast(),
            pairs=[("a", "b")],
            directions=(FALL,),
        )
        assert lib.dual_keys == [("a", "b", FALL)]

    def test_invalid_pairs_rejected(self, nand2):
        with pytest.raises(CharacterizationError):
            GateLibrary.characterize(nand2, mode="table", pairs=[("a", "a")])

    def test_unknown_mode_rejected(self, nand2):
        with pytest.raises(CharacterizationError):
            GateLibrary.characterize(nand2, mode="magic")


class TestCachedThresholds:
    def test_matches_family_selection(self, nand3):
        from repro.vtc import select_thresholds
        family = cached_vtc_family(nand3)
        thr = cached_thresholds(nand3)
        direct = select_thresholds(family, nand3.process.vdd)
        assert thr.vil == pytest.approx(direct.vil)
        assert thr.vih == pytest.approx(direct.vih)

    def test_family_has_all_subsets(self, nand3):
        assert len(cached_vtc_family(nand3)) == 7
