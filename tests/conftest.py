"""Shared fixtures.

Heavy artifacts (thresholds, characterized libraries) are session-scoped
and go through the on-disk characterization cache (``.repro_cache/`` by
default), so the first run pays for the simulations and later runs are
fast.
"""

from __future__ import annotations

import pytest

from repro import Gate, default_process
from repro.charlib import DualInputGrid, GateLibrary, SingleInputGrid
from repro.charlib.library import cached_thresholds
from repro.core import DelayCalculator
from repro.obs.flight import FLIGHT_DIR_ENV_VAR
from repro.waveform import FALL


@pytest.fixture(autouse=True)
def _flight_dumps_to_tmp(tmp_path, monkeypatch):
    """Route flight-recorder dumps into the test's tmp dir.

    ``REPRO_FLIGHT_DIR`` defaults to the working directory, so chaos and
    solver-failure tests used to litter the repo root with
    ``flight_*.json`` postmortems.  Tests that care about dump placement
    still can (and do) override the variable themselves.
    """
    monkeypatch.setenv(FLIGHT_DIR_ENV_VAR, str(tmp_path / "flight"))


@pytest.fixture(scope="session")
def process():
    return default_process()


@pytest.fixture(scope="session")
def nand3(process):
    return Gate.nand(3, process, load=100e-15)


@pytest.fixture(scope="session")
def nand2(process):
    return Gate.nand(2, process, load=100e-15)


@pytest.fixture(scope="session")
def nor2(process):
    return Gate.nor(2, process, load=100e-15)


@pytest.fixture(scope="session")
def inverter(process):
    return Gate.inverter(process, load=100e-15)


@pytest.fixture(scope="session")
def thresholds(nand3):
    return cached_thresholds(nand3)


@pytest.fixture(scope="session")
def oracle_library(nand3):
    return GateLibrary.characterize(nand3, mode="oracle")


@pytest.fixture(scope="session")
def calculator(oracle_library):
    return DelayCalculator(oracle_library)


@pytest.fixture(scope="session")
def nand2_fast_library(nand2):
    """NAND2 falling-edge table library on the fast grids."""
    return GateLibrary.characterize(
        nand2, mode="table",
        single_grid=SingleInputGrid.fast(),
        dual_grid=DualInputGrid.fast(),
        pairs="reference",
        directions=(FALL,),
    )
