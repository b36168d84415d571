"""Bit-equivalence of the batched entry points against the scalar path.

The batched entry points (:mod:`repro.spice.batch`) promise
*bit-identical* results to the scalar analyses -- same waveforms, same
Newton accounting, same solver counters -- for any partition of a grid
into batches.  These tests enforce that contract across batch sizes, ragged
final chunks, mixed-convergence batches (one lane walking the homotopy
ladder while siblings converge plainly) and structurally different
lanes.
"""

import numpy as np
import pytest

from repro.errors import ConvergenceError
from repro.obs import recording
from repro.spice import (
    Circuit,
    NewtonStats,
    TransientOptions,
    solve_dc,
    solve_dc_batch,
    transient,
    transient_batch,
)
from repro.tech import default_process
from repro.waveform import ramp

PROC = default_process()

#: Coarser stepping than the defaults purely to keep the test grids fast;
#: scalar and batched paths always share the same options object.
FAST = TransientOptions(h_max_ratio=2e-2)


def inverter(tau: float = 0.3e-9, cl: float = 1e-13) -> Circuit:
    ckt = Circuit()
    ckt.add_vsource("vvdd", "vdd", PROC.vdd)
    ckt.add_vsource("vin", "in", ramp(0.5e-9, 0.0, PROC.vdd, tau))
    ckt.add_mosfet("mn", "out", "in", "0", "0", PROC.nmos, 4e-6, 0.8e-6)
    ckt.add_mosfet("mp", "out", "in", "vdd", "vdd", PROC.pmos, 8e-6, 0.8e-6)
    ckt.add_capacitor("cl", "out", "0", cl)
    return ckt


def inverter_grid(count: int):
    return [inverter(tau=0.1e-9 + 0.05e-9 * i, cl=5e-14 + 1e-14 * (i % 7))
            for i in range(count)]


def dc_inverter(width: float = 4e-6) -> Circuit:
    ckt = Circuit()
    ckt.add_vsource("vvdd", "vdd", PROC.vdd)
    ckt.add_vsource("vin", "in", 2.5)
    ckt.add_mosfet("mn", "out", "in", "0", "0", PROC.nmos, width, 0.8e-6)
    ckt.add_mosfet("mp", "out", "in", "vdd", "vdd", PROC.pmos,
                   2 * width, 0.8e-6)
    return ckt


def assert_result_identical(scalar, batched) -> None:
    assert np.array_equal(scalar.times, batched.times)
    assert scalar.node_names == batched.node_names
    for name in scalar.node_names:
        assert np.array_equal(scalar.node(name).values,
                              batched.node(name).values), name
    assert scalar.newton_iterations == batched.newton_iterations
    assert scalar.newton_failures == batched.newton_failures
    assert scalar.rejected_steps == batched.rejected_steps
    assert scalar.solver_retries == batched.solver_retries


def chunked(items, size):
    return [items[i:i + size] for i in range(0, len(items), size)]


def solver_counters(recorder) -> dict:
    """The solver-side counters (``spice.batch.*`` bookkeeping excluded)."""
    return {
        key: value
        for key, value in recorder.metrics_payload()["counters"].items()
        if key.startswith("spice.") and not key.startswith("spice.batch")
    }


class TestTransientEquivalence:
    @pytest.mark.parametrize("batch_size", [1, 3, 8])
    def test_grid_bit_identical_across_batch_sizes(self, batch_size):
        """Any chunking of the grid -- including the ragged final chunk
        (8 lanes at size 3 -> 3+3+2) and the single-lane serial path --
        reproduces the scalar results bit for bit."""
        t_stop = 2e-9
        scalar = [transient(c, t_stop, options=FAST)
                  for c in inverter_grid(8)]
        batched = []
        for chunk in chunked(inverter_grid(8), batch_size):
            batched.extend(transient_batch(chunk, t_stop, options=FAST))
        assert len(batched) == len(scalar)
        for s, b in zip(scalar, batched):
            assert_result_identical(s, b)

    def test_large_batch_bit_identical(self):
        t_stop = 1.5e-9
        scalar = [transient(c, t_stop, options=FAST)
                  for c in inverter_grid(64)]
        batched = transient_batch(inverter_grid(64), t_stop, options=FAST)
        for s, b in zip(scalar, batched):
            assert_result_identical(s, b)

    def test_per_lane_stop_times(self):
        stops = [1.5e-9, 2e-9, 2.5e-9]
        ckts = inverter_grid(3)
        scalar = [transient(c, stop, options=FAST)
                  for c, stop in zip(ckts, stops)]
        batched = transient_batch(inverter_grid(3), stops, options=FAST)
        for s, b in zip(scalar, batched):
            assert_result_identical(s, b)

    def test_stop_time_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="t_stops length"):
            transient_batch(inverter_grid(3), [1e-9, 2e-9])

    def test_lane_failure_does_not_abort_siblings(self):
        """A lane whose analysis dies (invalid window) reports its error
        in place; sibling lanes still match the scalar run exactly."""
        ckts = inverter_grid(3)
        outcomes = transient_batch(ckts, [2e-9, -1.0, 2e-9], options=FAST)
        assert isinstance(outcomes[1], ConvergenceError)
        for idx in (0, 2):
            assert_result_identical(
                transient(inverter_grid(3)[idx], 2e-9, options=FAST),
                outcomes[idx])


class TestCounterInvariance:
    def test_newton_counters_invariant_across_batch_sizes(self):
        """Worker-count and batch-size invariance: the solver counters
        (iterations, solves, failures, homotopy engagements) depend only
        on the work done, never on how lanes were batched."""
        t_stop = 2e-9
        references = None
        for batch_size in (1, 3, 8):
            with recording() as rec:
                for chunk in chunked(inverter_grid(8), batch_size):
                    transient_batch(chunk, t_stop, options=FAST)
            counters = solver_counters(rec)
            assert counters["spice.newton.iterations"] > 0
            if references is None:
                references = counters
            else:
                assert counters == references

        with recording() as rec:
            for ckt in inverter_grid(8):
                transient(ckt, t_stop, options=FAST)
        assert solver_counters(rec) == references

    def test_batch_counters_present(self):
        with recording() as rec:
            transient_batch(inverter_grid(3), 1.5e-9, options=FAST)
        counters = rec.metrics_payload()["counters"]
        assert counters["spice.batch.lanes"] == 3


class TestMixedConvergenceDc:
    def test_lane_walking_the_homotopy_ladder(self):
        """One lane's absurd initial guess forces gmin *and* source
        stepping while its siblings converge plainly; every lane must
        still match its scalar solve exactly, counters included."""
        guesses = [None, {"out": 80.0}, {"out": 2.0}, None]
        widths = [4e-6 + 1e-6 * i for i in range(4)]

        with recording() as rec_scalar:
            scalar_stats = [NewtonStats() for _ in widths]
            scalar = [solve_dc(dc_inverter(w), initial_guess=g, stats=st)
                      for w, g, st in zip(widths, guesses, scalar_stats)]
        scalar_counters = solver_counters(rec_scalar)
        assert scalar_counters["spice.dc.gmin_stepping"] >= 1

        with recording() as rec_batch:
            batch_stats = [NewtonStats() for _ in widths]
            batched = solve_dc_batch(
                [dc_inverter(w) for w in widths],
                initial_guesses=guesses, stats=batch_stats)

        assert solver_counters(rec_batch) == scalar_counters
        for s, b in zip(scalar, batched):
            assert s.voltages == b.voltages
        for s, b in zip(scalar_stats, batch_stats):
            assert (s.iterations, s.solves, s.failures, s.retries) == \
                (b.iterations, b.solves, b.failures, b.retries)

    def test_plain_grid_matches_scalar(self):
        widths = [3e-6, 4e-6, 5e-6, 6e-6, 7e-6]
        scalar = [solve_dc(dc_inverter(w)) for w in widths]
        batched = solve_dc_batch([dc_inverter(w) for w in widths])
        for s, b in zip(scalar, batched):
            assert s.voltages == b.voltages

    @pytest.mark.parametrize("field", ["initial_guesses", "stats"])
    def test_per_lane_length_mismatch_rejected(self, field):
        """A short per-lane sequence must not silently drop lanes."""
        circuits = [dc_inverter(w) for w in (4e-6, 5e-6, 6e-6)]
        short = {"initial_guesses": [None], "stats": [NewtonStats()]}
        with pytest.raises(ValueError, match=f"{field} length"):
            solve_dc_batch(circuits, **{field: short[field]})


class TestFallbacks:
    def test_incongruent_lanes_fall_back_serially(self):
        """Structurally different circuits share one batched call and
        still return scalar-identical results."""
        other = Circuit()
        other.add_vsource("v1", "in", 4.0)
        other.add_resistor("r1", "in", "mid", 1e3)
        other.add_resistor("r2", "mid", "0", 3e3)
        batched = solve_dc_batch([dc_inverter(), other])
        assert batched[0].voltages == solve_dc(dc_inverter()).voltages
        assert batched[1]["mid"] == pytest.approx(3.0, rel=1e-6)

    def test_single_lane_runs_serially(self):
        batched = transient_batch([inverter()], 2e-9, options=FAST)
        assert_result_identical(transient(inverter(), 2e-9, options=FAST),
                                batched[0])
