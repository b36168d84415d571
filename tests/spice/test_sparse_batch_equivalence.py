"""Bit-equivalence of sparse-dispatched batches against the scalar path.

A batch whose lanes dispatch to the sparse backend -- auto-dispatched
above the cutover, or forced below it with ``REPRO_SPARSE=1`` -- runs
lane by lane on the scalar sparse solver.  These tests hold
``transient_batch`` and ``solve_dc_batch`` on randomized congruent lanes
to the scalar driver's results bit for bit: same waveforms and operating
points, same Newton accounting and same solver counters at any batch
size.
"""

import numpy as np

from repro.obs import recording
from repro.spice import (
    TransientOptions,
    solve_dc,
    solve_dc_batch,
    transient,
    transient_batch,
)
from repro.spice.builders import bitcell_array, delay_chain
from repro.spice.sparse import SPARSE_ENV_VAR, SPARSE_NODE_CUTOVER
from repro.tech import default_process
from repro.waveform import ramp

PROC = default_process()
FAST = TransientOptions(h_max_ratio=2e-2)


def chain_lanes(count: int = 4, stages: int = 36, fanout: int = 3):
    """Randomized congruent delay chains above the dispatch cutover.

    The rng is re-seeded per call so repeated invocations hand every
    leg (scalar, batched, single-lane) the *same* randomized grid.
    """
    rng = np.random.default_rng(20260808)
    lanes = []
    for _ in range(count):
        lanes.append(delay_chain(
            stages, fanout,
            input_stimulus=ramp(2e-12, 0.0, PROC.vdd, 8e-12),
            stage_load=float(2e-15 * (1.0 + 0.4 * rng.random())),
            load=float(8e-15 * (1.0 + 0.4 * rng.random())),
        ))
    return lanes


def small_lanes(count: int = 4):
    """Congruent two-transistor lanes *below* the cutover."""
    from repro.spice import Circuit

    lanes = []
    for i in range(count):
        ckt = Circuit()
        ckt.add_vsource("vvdd", "vdd", PROC.vdd)
        ckt.add_vsource("vin", "in", ramp(0.1e-9, 0.0, PROC.vdd,
                                          0.1e-9 + 0.05e-9 * i))
        ckt.add_mosfet("mn", "out", "in", "0", "0", PROC.nmos,
                       4e-6 + 1e-6 * i, 0.8e-6)
        ckt.add_mosfet("mp", "out", "in", "vdd", "vdd", PROC.pmos,
                       8e-6, 0.8e-6)
        ckt.add_capacitor("cl", "out", "0", 5e-14 + 1e-14 * i)
        lanes.append(ckt)
    return lanes


def assert_result_identical(scalar, batched) -> None:
    assert np.array_equal(scalar.times, batched.times)
    assert scalar.node_names == batched.node_names
    for name in scalar.node_names:
        assert np.array_equal(scalar.samples(name),
                              batched.samples(name)), name
    assert scalar.newton_iterations == batched.newton_iterations
    assert scalar.newton_failures == batched.newton_failures
    assert scalar.rejected_steps == batched.rejected_steps
    assert scalar.solver_retries == batched.solver_retries


def solver_counters(recorder) -> dict:
    return {
        key: value
        for key, value in recorder.metrics_payload()["counters"].items()
        if key.startswith("spice.") and not key.startswith("spice.batch")
    }


class TestBitIdentity:
    def test_transient_above_cutover_matches_serial_sparse(self, monkeypatch):
        """Randomized congruent lanes, auto-dispatched sparse: one batch
        and the same lanes sent one per batch must produce the same bits
        and the same Newton accounting."""
        monkeypatch.delenv(SPARSE_ENV_VAR, raising=False)
        lanes = chain_lanes()
        assert lanes[0].compile().n_unknown >= SPARSE_NODE_CUTOVER
        t_stop = 15e-12
        batched = transient_batch(lanes, t_stop, options=FAST)
        serial = [transient_batch([c], t_stop, options=FAST)[0]
                  for c in chain_lanes()]
        for s, b in zip(serial, batched):
            assert_result_identical(s, b)

    def test_matches_scalar_driver_exactly(self, monkeypatch):
        """A sparse batch vs per-lane scalar ``transient`` calls: same
        bits and same solver counters."""
        monkeypatch.delenv(SPARSE_ENV_VAR, raising=False)
        t_stop = 15e-12
        with recording() as rec_scalar:
            scalar = [transient(c, t_stop, options=FAST)
                      for c in chain_lanes()]
        with recording() as rec_batch:
            batched = transient_batch(chain_lanes(), t_stop, options=FAST)
        assert solver_counters(rec_batch) == solver_counters(rec_scalar)
        for s, b in zip(scalar, batched):
            assert_result_identical(s, b)

    def test_forced_sparse_below_cutover(self, monkeypatch):
        """``REPRO_SPARSE=1`` sends small congruent lanes down the
        scalar sparse solver too; results match the scalar driver."""
        monkeypatch.setenv(SPARSE_ENV_VAR, "1")
        t_stop = 1.5e-9
        scalar = [transient(c, t_stop, options=FAST) for c in small_lanes()]
        with recording() as rec:
            batched = transient_batch(small_lanes(), t_stop, options=FAST)
        counters = rec.metrics_payload()["counters"]
        assert counters["spice.newton.dispatch{backend=sparse}"] > 0
        assert "spice.newton.dispatch{backend=dense}" not in counters
        for s, b in zip(scalar, batched):
            assert_result_identical(s, b)

    def test_dc_bitcell_batch_matches_serial(self, monkeypatch):
        """The characterization-shot shape: per-lane stored patterns on
        a shared bitcell-array structure, operating points identical
        between the batch driver and per-lane ``solve_dc``."""
        def lanes():
            pats = [[(i * 2654435761 + r) % 256 for r in range(4)]
                    for i in range(3)]
            return [bitcell_array(4, 8, pattern=p, wordline=0)
                    for p in pats]

        monkeypatch.setenv(SPARSE_ENV_VAR, "1")
        batched = solve_dc_batch(lanes())
        serial = [solve_dc(c) for c in lanes()]
        for b, s in zip(batched, serial):
            assert b.voltages == s.voltages

    def test_newton_counters_invariant_across_batch_sizes(self, monkeypatch):
        monkeypatch.setenv(SPARSE_ENV_VAR, "1")
        t_stop = 1.5e-9
        references = None
        for batch_size in (1, 2, 4):
            lanes = small_lanes()
            with recording() as rec:
                for i in range(0, len(lanes), batch_size):
                    transient_batch(lanes[i:i + batch_size], t_stop,
                                    options=FAST)
            counters = solver_counters(rec)
            assert counters["spice.newton.iterations"] > 0
            if references is None:
                references = counters
            else:
                assert counters == references
