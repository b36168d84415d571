"""Measurement shots share one compiled testbench per gate structure.

A testbench is a gate built at one load with one switching set and
compiled, stamp plan and kernels included; each shot drives it with its
own ramps through a view (``CompiledCircuit.with_waveforms``).  These
tests hold the sharing to what it must not change: concurrent shots on
one testbench give the serial results bit for bit on every backend (the
per-solve buffers belong to each analysis, not to the shared plan), the
cache key tells apart every gate property a build reads, the cache
stays bounded, and views keep their sources apart.  That constant
sources still re-level in place (``set_source_level``, which a DC sweep
uses on one compiled circuit) is held by
``tests/spice/test_dc.py::TestDcSweep::test_matches_fresh_compile_per_point``.
"""

import pickle
import sys
import threading

import pytest

from repro import Gate
from repro.charlib import simulate
from repro.charlib.simulate import multi_input_response
from repro.spice import Circuit
from repro.spice.sparse import SPARSE_ENV_VAR
from repro.waveform import FALL, RISE, Edge, Thresholds

#: 1-, 2- and 3-edge shots on NAND3: falling edges (the paper's
#: proximity case) and rising ones.
SHOTS = [
    {"a": Edge(FALL, 0.0, 300e-12)},
    {"b": Edge(RISE, 0.0, 800e-12)},
    {"a": Edge(FALL, 0.0, 200e-12), "b": Edge(FALL, 120e-12, 900e-12)},
    {"a": Edge(RISE, 0.0, 500e-12), "c": Edge(RISE, -80e-12, 150e-12)},
    {"a": Edge(FALL, 0.0, 400e-12), "b": Edge(FALL, 60e-12, 250e-12),
     "c": Edge(FALL, -90e-12, 700e-12)},
    {"a": Edge(FALL, 0.0, 1200e-12), "b": Edge(FALL, 300e-12, 100e-12),
     "c": Edge(FALL, 150e-12, 600e-12)},
]


def _observed(shot):
    """Every measured value of a shot, as exact bytes and floats."""
    return (shot.output.times.tobytes(), shot.output.values.tobytes(),
            shot.delay, shot.out_ttime, shot.vmin, shot.vmax)


@pytest.fixture(params=["default", "sparse"])
def backend(request, monkeypatch):
    """The solver backend the shots run on, forced through the
    environment before any analysis builds its context."""
    monkeypatch.delenv(SPARSE_ENV_VAR, raising=False)
    if request.param == "sparse":
        monkeypatch.setenv(SPARSE_ENV_VAR, "1")
    return request.param


def test_concurrent_shots_match_serial_shots(backend, nand3, thresholds):
    """More threads than cores, a short switch interval, interleaved
    1-, 2- and 3-edge shots on one gate's testbenches: every result is
    the serial shot's, bit for bit.  Buffers left on the shared stamp
    plan would let one thread's solve write into another's."""
    simulate.TESTBENCHES.clear()
    serial = [_observed(multi_input_response(nand3, edges, thresholds))
              for edges in SHOTS]
    rounds, n_threads = 2, 4
    results, errors = [], []

    def worker(offset):
        try:
            for _ in range(rounds):
                for k in range(len(SHOTS)):
                    index = (k + offset) % len(SHOTS)
                    shot = multi_input_response(nand3, SHOTS[index],
                                                thresholds)
                    results.append((index, _observed(shot)))
        except Exception as error:  # reported by the assertion below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(offset,))
                   for offset in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(results) == n_threads * rounds * len(SHOTS)
    for index, observed in results:
        assert observed == serial[index], (backend, SHOTS[index])
    # One testbench per switching set: {a}, {b}, {a,b}, {a,c}, {a,b,c}.
    assert len(simulate.TESTBENCHES) == 5


def test_one_build_and_compile_per_key(nand3, thresholds, monkeypatch):
    """Shots of one key build and compile the gate once."""
    simulate.TESTBENCHES.clear()
    calls = []

    def counting(cls, name):
        original = getattr(cls, name)

        def wrapper(self, *args, **kwargs):
            calls.append(name)
            return original(self, *args, **kwargs)
        monkeypatch.setattr(cls, name, wrapper)

    counting(Gate, "build")
    counting(Circuit, "compile")
    for _ in range(3):
        for edges in SHOTS[2:3] + SHOTS[4:]:
            multi_input_response(nand3, edges, thresholds)
    # Two keys: {a, b} and {a, b, c}.
    assert calls == ["build", "compile"] * 2


def _bench(gate, load=None, switching="ab"):
    """The shared testbench behind a shot of ``gate``: its stamp plan,
    which every view of one testbench shares."""
    thresholds = Thresholds(vil=1.0, vih=4.0, vdd=gate.process.vdd)
    ramps = {pin: Edge(FALL, 0.0, 300e-12).to_pwl(thresholds)
             for pin in switching}
    cl = gate.load if load is None else load
    return simulate._testbench(gate, ramps, cl).stamp_plan


class TestCacheKey:
    def test_equal_gates_built_separately_share(self, process):
        """Equal gates share, an unpickled one too, as in a pool worker."""
        simulate.TESTBENCHES.clear()
        gate = Gate.nand(3, process, load=100e-15)
        first = _bench(gate)
        assert _bench(Gate.nand(3, process, load=100e-15)) is first
        assert _bench(pickle.loads(pickle.dumps(gate))) is first
        assert _bench(Gate.nand(3, process, load=100e-15),
                      switching="ba") is first
        assert len(simulate.TESTBENCHES) == 1

    @pytest.mark.parametrize("variant", [
        "process", "sizing", "stack_scaling", "load", "switching"])
    def test_a_differing_property_never_shares(self, process, variant):
        simulate.TESTBENCHES.clear()
        base = Gate.nand(3, process, load=100e-15)
        first = _bench(base)
        kwargs = {"load": 100e-15}
        if variant == "process":
            other = Gate.nand(3, process.with_vdd(4.5), **kwargs)
        elif variant == "sizing":
            other = Gate.nand(3, process, sizing=process.sizing.scaled(2.0),
                              **kwargs)
        elif variant == "stack_scaling":
            other = Gate.nand(3, process, stack_scaling=False, **kwargs)
        else:
            other = base
        plan = _bench(other, load=120e-15 if variant == "load" else None,
                      switching="abc" if variant == "switching" else "ab")
        assert plan is not first
        assert len(simulate.TESTBENCHES) == 2

    def test_fresh_gates_at_fresh_loads_stay_bounded(self, process):
        """One fresh gate at a fresh load per build, as every
        ``charlib_batch`` op does: the cache stops at its bound."""
        simulate.TESTBENCHES.clear()
        bound = simulate.TESTBENCHES.size
        for k in range(bound + 8):
            gate = Gate.nand(2, process, load=(60.0 + k) * 1e-15)
            _bench(gate)
            assert len(simulate.TESTBENCHES) == min(k + 1, bound)


def test_views_keep_sources_apart(nand3, thresholds):
    """Two views of one testbench evaluate their own ramps and
    breakpoints."""
    simulate.TESTBENCHES.clear()
    slow = {"a": Edge(FALL, 0.0, 900e-12).to_pwl(thresholds)}
    fast = {"a": Edge(FALL, 0.0, 90e-12).to_pwl(thresholds)}
    first = simulate._testbench(nand3, slow, nand3.load)
    second = simulate._testbench(nand3, fast, nand3.load)
    assert first.stamp_plan is second.stamp_plan
    assert first.breakpoints == tuple(slow["a"].times.tolist())
    assert second.breakpoints == tuple(fast["a"].times.tolist())
    t = 50e-12
    slot = first._known_names.index("a")
    assert first.known_list(t)[slot] == slow["a"](t)
    assert second.known_list(t)[slot] == fast["a"](t)
