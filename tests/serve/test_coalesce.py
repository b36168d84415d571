"""The shot broker: lane-fill correctness and scalar bit-identity."""

import threading

import numpy as np
import pytest

import repro.serve.coalesce as coalesce_mod
from repro.charlib.library import cached_thresholds
from repro.charlib.simulate import (
    get_shot_router,
    multi_input_response,
    set_shot_router,
)
from repro.errors import MeasurementError
from repro.serve.coalesce import ShotBroker
from repro.waveform import Edge

TAUS = (310e-12, 540e-12, 870e-12)


@pytest.fixture
def inv_thresholds(inverter):
    return cached_thresholds(inverter)


@pytest.fixture
def batch_spy(monkeypatch):
    """Record every batched call the broker makes (lane sizes)."""
    real = coalesce_mod.multi_input_response_batch
    lanes = []

    def spy(gate, requests, thresholds, **kwargs):
        lanes.append(len(requests))
        return real(gate, requests, thresholds, **kwargs)

    monkeypatch.setattr(coalesce_mod, "multi_input_response_batch", spy)
    return lanes


@pytest.fixture
def broker():
    # A long gather window makes the flush trigger deterministic: only
    # the all-waiting condition (every active request blocked, arrivals
    # quiet for the short dwell) fires.
    broker = ShotBroker(gather=5.0, dwell=0.05)
    broker.install()
    yield broker
    broker.remove()
    assert get_shot_router() is None


def test_concurrent_requests_fill_one_lane_group(inverter, inv_thresholds,
                                                 batch_spy):
    """Three blocked requests coalesce into exactly one 3-lane batch,
    and every lane's result is bit-identical to the scalar path."""
    scalar = {}  # references computed before any broker is hooked in
    for tau in TAUS:
        scalar[tau] = multi_input_response(
            inverter, {"a": Edge("rise", 0.0, tau)}, inv_thresholds)
    assert batch_spy == []

    broker = ShotBroker(gather=5.0, dwell=0.05)
    broker.install()
    results = {}
    # Pre-registering three active requests makes the flush trigger
    # deterministic: the all-waiting rule fires only once all three
    # submissions are blocked, so they land in one 3-lane batch.
    for _ in range(3):
        broker.enter_active()
    try:
        threads = [
            threading.Thread(
                target=lambda t=tau: results.__setitem__(
                    t, multi_input_response(
                        inverter, {"a": Edge("rise", 0.0, t)},
                        inv_thresholds)))
            for tau in TAUS
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        for _ in range(3):
            broker.exit_active()
        broker.remove()

    assert batch_spy == [3], f"expected one 3-lane flush, saw {batch_spy}"
    for tau in TAUS:
        assert results[tau].delay == scalar[tau].delay
        assert results[tau].out_ttime == scalar[tau].out_ttime
        assert results[tau].vmin == scalar[tau].vmin
        assert results[tau].vmax == scalar[tau].vmax
        assert np.array_equal(results[tau].output.values,
                              scalar[tau].output.values)


def test_lone_request_flushes_immediately(inverter, inv_thresholds, broker,
                                          batch_spy):
    """With nobody to coalesce with, a request must not wait out the
    gather window (5 s here) -- the all-waiting rule flushes it alone."""
    shot = multi_input_response(
        inverter, {"a": Edge("fall", 0.0, 450e-12)}, inv_thresholds)
    assert shot.delay > 0
    assert batch_spy == [1]


def test_brokered_errors_match_scalar_semantics(inverter, inv_thresholds,
                                                broker):
    """A bad request re-raises through the broker exactly as scalar."""
    with pytest.raises(MeasurementError, match="not an input"):
        multi_input_response(
            inverter, {"zz": Edge("rise", 0.0, 300e-12)}, inv_thresholds)


def test_stopped_broker_declines_and_scalar_path_runs(inverter,
                                                      inv_thresholds,
                                                      batch_spy):
    broker = ShotBroker(gather=5.0)
    broker.install()
    broker.stop()  # router still hooked, but stopped -> declines
    try:
        shot = multi_input_response(
            inverter, {"a": Edge("rise", 0.0, 520e-12)}, inv_thresholds)
        assert shot.delay > 0
        assert batch_spy == []  # went scalar, no batch call
    finally:
        set_shot_router(None)


def test_remove_only_unhooks_own_router():
    sentinel = object()
    previous = set_shot_router(sentinel)
    try:
        broker = ShotBroker(gather=0.01)
        broker.start()
        broker.remove()  # not the installed router: must leave sentinel
        assert get_shot_router() is sentinel
    finally:
        set_shot_router(previous)
