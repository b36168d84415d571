"""The gate-sized Newton loop against the NumPy loop it replaces.

Circuits below :data:`~repro.spice.stamps.SCALAR_MOS_CUTOVER` transistors
solve on Python floats through their plan's generated kernel
(:func:`repro.spice.engine._newton_gate`).  Patching the cutover to 0
sends the same solves through the NumPy full-Newton loop and the grouped
channel model, which ``test_assembly_equivalence.py`` already holds to
the reference assembler.  Every result here must match that path bit for
bit: times and waveforms by ``tobytes()``, Newton accounting by ``==``.
"""

import sys
import threading

import numpy as np
import pytest

from repro.charlib import GateLibrary, SingleInputGrid
from repro.charlib.library import cached_thresholds
from repro.errors import ConvergenceError
from repro.gates import Gate
from repro.obs import get_recorder, recording
from repro.spice import engine, solve_dc, stamps, transient
from repro.spice.dc import _source_stepping
from repro.spice.engine import (FAST_NEWTON_ENV_VAR, NewtonOptions,
                                NewtonStats, SolveContext, newton_solve)
from repro.spice.guard import GUARD_ENV_VAR
from repro.spice.sparse import SPARSE_ENV_VAR
from repro.spice.stamps import KERNELS, KernelCache
from repro.tech import default_process, submicron_process
from repro.waveform import FALL, RISE, ramp

from .test_assembly_equivalence import ordered_stamps, random_circuit

PROCESSES = {"level1": default_process(), "alpha": submicron_process()}

GATES = {
    "inv": lambda p: Gate.inverter(p),
    "nand2": lambda p: Gate.nand(2, p),
    "nand3": lambda p: Gate.nand(3, p),
    "nand4": lambda p: Gate.nand(4, p),
    "nor2": lambda p: Gate.nor(2, p),
    "nor3": lambda p: Gate.nor(3, p),
    "aoi21": lambda p: Gate.aoi21(p),
    "oai21": lambda p: Gate.oai21(p),
}

#: Mixed shots alternate falling and rising inputs.
DIRECTIONS = ("fall", "rise", "mixed")


@pytest.fixture(autouse=True)
def default_solver(monkeypatch):
    """The default dispatch: dense, full Newton, no guard."""
    monkeypatch.setenv(SPARSE_ENV_VAR, "auto")
    monkeypatch.delenv(FAST_NEWTON_ENV_VAR, raising=False)
    monkeypatch.delenv(GUARD_ENV_VAR, raising=False)


def both_loops(monkeypatch, run):
    """``run()`` through the kernel loop, then through the NumPy loop."""
    kernel = run()
    with monkeypatch.context() as patch:
        patch.setattr(stamps, "SCALAR_MOS_CUTOVER", 0)
        numpy_loop = run()
    return kernel, numpy_loop


def stimuli(gate: Gate, direction: str):
    vdd = gate.process.vdd
    waves = {}
    for i, name in enumerate(gate.inputs):
        falling = direction == "fall" or (direction == "mixed" and i % 2 == 0)
        v0, v1 = (vdd, 0.0) if falling else (0.0, vdd)
        waves[name] = ramp(0.2e-9 + 0.15e-9 * i, v0, v1, 0.3e-9)
    return waves


def shot(gate: Gate, direction: str):
    """One transient of ``gate`` and the solver counters it recorded."""
    with recording() as rec:
        result = transient(gate.build(stimuli(gate, direction)), 2e-9)
    counters = rec.metrics_payload()["counters"]
    return result, {key: value for key, value in counters.items()
                    if key.startswith("spice.newton")}


def assert_same_transient(got, want) -> None:
    (result, counters), (ref, ref_counters) = got, want
    assert result.times.tobytes() == ref.times.tobytes()
    assert result.node_names == ref.node_names
    for name in ref.node_names:
        assert result.node(name).values.tobytes() == \
            ref.node(name).values.tobytes(), name
    assert (result.newton_iterations, result.newton_failures,
            result.rejected_steps, result.solver_retries) == \
        (ref.newton_iterations, ref.newton_failures, ref.rejected_steps,
         ref.solver_retries)
    assert counters == ref_counters
    assert counters["spice.newton.solves"] > 0


class TestTransientIdentity:
    @pytest.mark.parametrize("direction", DIRECTIONS)
    @pytest.mark.parametrize("process", sorted(PROCESSES))
    @pytest.mark.parametrize("gate", sorted(GATES))
    def test_shot_bit_identical(self, monkeypatch, gate, process, direction):
        cell = GATES[gate](PROCESSES[process])
        assert cell.build().compile().stamp_plan.use_scalar_mos
        kernel, numpy_loop = both_loops(monkeypatch,
                                        lambda: shot(cell, direction))
        assert_same_transient(kernel, numpy_loop)

    def test_telemetry_on_matches_off_and_times_phases(self, monkeypatch):
        gate = Gate.nand(3, PROCESSES["level1"])
        circuit = gate.build(stimuli(gate, "fall"))
        off = transient(circuit, 2e-9)
        with recording() as rec:
            on = transient(circuit, 2e-9)
        assert on.times.tobytes() == off.times.tobytes()
        for name in off.node_names:
            assert on.node(name).values.tobytes() == \
                off.node(name).values.tobytes()
        assert on.newton_iterations == off.newton_iterations
        histograms = rec.metrics_payload()["histograms"]
        for phase in ("assembly", "factorize"):
            entry = histograms[
                f"spice.phase.seconds{{driver=dense,phase={phase}}}"]
            assert entry["count"] > 0 and entry["sum"] > 0.0

    @pytest.mark.parametrize("telemetry", [False, True],
                             ids=["off", "on"])
    def test_gate_solves_never_reach_the_numpy_loop(self, monkeypatch,
                                                    telemetry):
        def forbidden(*args, **kwargs):
            raise AssertionError("a gate-sized solve left the kernel loop")

        monkeypatch.setattr(engine, "assemble_into", forbidden)
        monkeypatch.setattr(engine, "dense_solve", forbidden)
        gate = Gate.nand(3, PROCESSES["level1"])
        circuit = gate.build(stimuli(gate, "rise"))
        if telemetry:
            with recording():
                result = transient(circuit, 2e-9)
        else:
            assert not get_recorder().enabled
            result = transient(circuit, 2e-9)
        assert result.newton_iterations > 0


def dc_outcome(run):
    stats = NewtonStats()
    with recording() as rec:
        try:
            value = run(stats)
        except ConvergenceError as error:
            value = (str(error), error.iterations)
    counters = rec.metrics_payload()["counters"]
    return value, (stats.iterations, stats.solves, stats.failures,
                   stats.retries), counters


def assert_same_dc(got, want) -> None:
    (value, stats, counters), (ref_value, ref_stats, ref_counters) = got, want
    if isinstance(ref_value, np.ndarray):
        assert value.tobytes() == ref_value.tobytes()
    else:
        assert value == ref_value
    assert stats == ref_stats
    assert counters == ref_counters


class TestDcIdentity:
    @pytest.mark.parametrize("process", sorted(PROCESSES))
    @pytest.mark.parametrize("gate", ["inv", "nand3", "nor2", "aoi21"])
    def test_gmin_ladder(self, monkeypatch, gate, process):
        """A wild initial guess fails plain Newton: the gmin ramp runs."""
        cell = GATES[gate](PROCESSES[process])

        def run(stats):
            op = solve_dc(cell.build({cell.inputs[0]: 0.0}),
                          initial_guess={cell.output: 80.0}, stats=stats)
            return np.array([op[name] for name in sorted(op.voltages)])

        kernel, numpy_loop = both_loops(monkeypatch, lambda: dc_outcome(run))
        assert kernel[2]["spice.dc.gmin_stepping"] >= 1
        assert_same_dc(kernel, numpy_loop)

    @pytest.mark.parametrize("process", sorted(PROCESSES))
    def test_source_stepping(self, monkeypatch, process):
        cell = Gate.nand(3, PROCESSES[process])

        def run(stats):
            compiled = cell.build({"a": cell.process.vdd}).compile()
            solve = SolveContext.for_analysis(
                get_recorder(), compiled.n_unknown).bind(
                    newton_solve, compiled, stats)
            return _source_stepping(solve, compiled.n_unknown,
                                    compiled.known_voltages(0.0),
                                    NewtonOptions(), 0.0, get_recorder())

        kernel, numpy_loop = both_loops(monkeypatch, lambda: dc_outcome(run))
        assert kernel[1][1] == 10  # one solve per source scale
        assert_same_dc(kernel, numpy_loop)

    @pytest.mark.parametrize("seed", range(6))
    def test_every_device_kind(self, monkeypatch, seed):
        """Random circuits with resistors, current sources and
        capacitors, hand-built companion stamps in compiled order, and a
        scaled source: the kernel's other inputs."""
        rng = np.random.default_rng(600 + seed)
        process = PROCESSES["alpha" if seed % 2 else "level1"]
        compiled = random_circuit(rng, n_mos=int(rng.integers(1, 7)),
                                  process=process).compile()
        assert compiled.stamp_plan.use_scalar_mos
        x0 = rng.uniform(0.0, process.vdd, compiled.n_unknown)

        def run(stats):
            circuit = compiled.circuit.compile()
            return newton_solve(circuit, x0, circuit.known_voltages(0.13e-9),
                                options=NewtonOptions(), time=0.13e-9,
                                cap_stamps=ordered_stamps(circuit),
                                source_scale=0.625, stats=stats)

        kernel, numpy_loop = both_loops(monkeypatch, lambda: dc_outcome(run))
        assert_same_dc(kernel, numpy_loop)

    def test_singular_nudge(self, monkeypatch):
        """Inputs low and no gmin: the NMOS stack nodes float, every
        Jacobian is singular, and each solve walks the nudge rung."""
        cell = Gate.nand(3, PROCESSES["level1"])

        def run(stats):
            compiled = cell.build({name: 0.0 for name in cell.inputs}).compile()
            return newton_solve(compiled, np.zeros(compiled.n_unknown),
                                compiled.known_voltages(0.0),
                                options=NewtonOptions(gmin=0.0), stats=stats)

        kernel, numpy_loop = both_loops(monkeypatch, lambda: dc_outcome(run))
        assert kernel[2]["spice.guard.rung{rung=nudge}"] >= 1
        assert_same_dc(kernel, numpy_loop)

    def test_doubly_singular_fails_alike(self, monkeypatch):
        def always_singular(*args, **kwargs):
            raise np.linalg.LinAlgError("singular matrix (forced)")

        monkeypatch.setattr(engine, "gesv", always_singular)
        cell = Gate.nand(2, PROCESSES["level1"])

        def run(stats):
            compiled = cell.build().compile()
            return newton_solve(compiled, np.zeros(compiled.n_unknown),
                                compiled.known_voltages(0.0),
                                options=NewtonOptions(), stats=stats)

        kernel, numpy_loop = both_loops(monkeypatch, lambda: dc_outcome(run))
        assert "singular" in kernel[0][0]
        assert kernel[1] == (1, 0, 1, 0)
        assert_same_dc(kernel, numpy_loop)

    @pytest.mark.parametrize("process", sorted(PROCESSES))
    def test_nan_iterate_ends_like_the_numpy_loop(self, monkeypatch,
                                                  process):
        cell = Gate.nand(3, PROCESSES[process])

        def run(stats):
            compiled = cell.build().compile()
            x0 = np.full(compiled.n_unknown, np.nan)
            return newton_solve(compiled, x0, compiled.known_voltages(0.0),
                                options=NewtonOptions(), stats=stats)

        kernel, numpy_loop = both_loops(monkeypatch, lambda: dc_outcome(run))
        message, iterations = kernel[0]
        assert "residual nan A" in message
        assert iterations == NewtonOptions().max_iterations
        assert_same_dc(kernel, numpy_loop)

    def test_norm_is_numpys_max_abs(self):
        """The loop's residual and step norm, NaN behind finite entries
        included (Python's ``max`` would skip it)."""
        nan, inf = float("nan"), float("inf")
        for values in ([0.0], [-0.0, 0.0], [1.0, -2.0, 0.5], [1.0, nan],
                       [nan, 1.0], [-inf, nan, 2.0], [-inf, 1.0],
                       [1e-300, -1e300]):
            got = engine._max_abs(values)
            want = float(np.abs(np.array(values)).max())
            assert got == want or (got != got and want != want), values


class TestKernelCache:
    def test_loads_and_directions_share_two_kernels(self, monkeypatch):
        """Loads and input directions change values, never structure:
        the first load adds the DC and the transient kernel, and no
        later load or direction adds another."""
        monkeypatch.setenv("REPRO_CACHE_DIR", "off")
        gate = Gate.nand(3, PROCESSES["level1"], load=100e-15)
        thresholds = cached_thresholds(gate)

        def characterize(load_factors):
            grid = SingleInputGrid(taus=(200e-12, 600e-12),
                                   load_factors=load_factors)
            return GateLibrary.characterize(
                gate, mode="table", directions=(RISE, FALL),
                single_grid=grid, pairs=[], thresholds=thresholds, workers=0)

        KERNELS.clear()
        characterize((1.0,))
        assert len(KERNELS) == 2
        characterize((0.5, 1.5, 2.0))
        assert len(KERNELS) == 2

    def test_bounded_least_recently_used(self):
        cache = KernelCache(size=2)
        plans = [GATES[name](PROCESSES["level1"]).build().compile().stamp_plan
                 for name in ("inv", "nand2", "nor2")]
        first = cache.get(plans[0], False)
        second = cache.get(plans[1], False)
        assert cache.get(plans[0], False) is first  # refreshes inv
        cache.get(plans[2], False)                  # evicts nand2
        assert len(cache) == 2
        assert cache.get(plans[0], False) is first
        assert cache.get(plans[1], False) is not second

    def test_threads_share_one_kernel_per_structure(self):
        """More threads than cores, a short switch interval: every
        thread's kernel gives the same floats, and the cache holds one
        entry per structure."""
        cache = KernelCache(size=8)
        plans = [GATES[name](PROCESSES["level1"]).build().compile().stamp_plan
                 for name in ("nand2", "nor3", "aoi21")]
        values = [plan.kernel_values([0.0, 5.0] + [2.5] * (plan.n_known - 2),
                                     [], 1e-12) for plan in plans]
        xs = [[1.25] * plan.n for plan in plans]
        results, errors = [], []

        def worker():
            try:
                for _ in range(20):
                    for plan, x, vals in zip(plans, xs, values):
                        results.append((plan.structure,
                                        cache.get(plan, False)(x, vals)))
            except Exception as error:  # reported by the assertion below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(results) == 8 * 20 * len(plans)
        assert len(cache) == len(plans)
        first = {}
        for structure, output in results:
            assert first.setdefault(structure, output) == output
