"""Newton core: vectorized assembly speedup + fast-Newton tradeoff.

The solver-core claim of the compiled stamp plan: the per-iteration
assembly the scalar transient engine runs (cap-companion stamps, the
exact ``newton_solve`` inner path) is at least 2x faster than the
pre-plan scalar loop -- which is kept in-tree verbatim as
``assemble_system_reference``, so the comparison is against the real
pre-refactor engine -- while staying *bit-identical* to it.

``BENCH_newton_core.json`` records both per-assembly times and the
speedup ratio, plus the opt-in ``REPRO_FAST_NEWTON`` transient mode's
wall time and worst waveform deviation against default full Newton
(tolerance-gated, documented honestly: on single-gate circuits its
polish iteration can outweigh the factorizations it saves; the win is
in factorization count as systems grow).
"""

import os
import time

import numpy as np

from repro.gates import Gate
from repro.spice import TransientOptions, transient
from repro.spice.engine import (
    FAST_NEWTON_ENV_VAR,
    assemble_system,
    assemble_system_reference,
)
from repro.spice.stamps import assemble_into, load_solve
from repro.tech import default_process
from repro.waveform import ramp

from conftest import scaled

REPS = 3


def nand3_assembly_workload():
    """The NAND3 testbench's compiled system plus transient-style stamps."""
    gate = Gate.nand(3, default_process(), load=100e-15)
    ckt = gate.build({"a": 2.5, "b": 2.5, "c": 2.5})
    compiled = ckt.compile()
    # Companion stamps exactly as the integrator builds them: one per
    # compiled capacitor, in order (geq = C/h for a representative h).
    stamps = tuple((a, b, c / 1e-12, (c / 1e-12) * 0.3)
                   for a, b, c in compiled.capacitors)
    rng = np.random.default_rng(7)
    xs = rng.uniform(0.0, 5.0, (200, compiled.n_unknown))
    return compiled, stamps, xs


def test_scalar_assembly_speedup_and_identity(benchmark, request):
    compiled, stamps, xs = nand3_assembly_workload()
    known = compiled.known_voltages(0.0)
    rounds = scaled(10, minimum=2)

    # Bit-identity first: the vectorized public assembler must match
    # the pre-plan scalar loop on every probe point, bit for bit.
    for x in xs[:50]:
        F_vec, J_vec = assemble_system(compiled, x, known, gmin=1e-12,
                                       cap_stamps=stamps)
        F_ref, J_ref = assemble_system_reference(compiled, x, known,
                                                 gmin=1e-12,
                                                 cap_stamps=stamps)
        assert F_vec.tobytes() == F_ref.tobytes()
        assert J_vec.tobytes() == J_ref.tobytes()

    plan = compiled.stamp_plan
    ws = plan.scratch

    def run_reference():
        for x in xs:
            assemble_system_reference(compiled, x, known, gmin=1e-12,
                                      cap_stamps=stamps)

    def run_vectorized():
        # The newton_solve inner path: solve invariants loaded once,
        # then one assemble_into per iteration.
        load_solve(plan, ws, known, 0.0, stamps, 1.0, compiled.isources)
        for x in xs:
            assemble_into(plan, ws, plan.dense, x, 1e-12, True)

    # Interleave the two modes so drift in box load hits both equally;
    # best-of-REPS filters the spikes.
    ref_times, vec_times = [], []
    for rep in range(REPS):
        t0 = time.perf_counter()
        for _ in range(rounds):
            run_reference()
        ref_times.append(time.perf_counter() - t0)

        t0 = time.perf_counter()
        if rep == 0:
            benchmark.pedantic(lambda: [run_vectorized()
                                        for _ in range(rounds)],
                               rounds=1, iterations=1)
        else:
            for _ in range(rounds):
                run_vectorized()
        vec_times.append(time.perf_counter() - t0)

    n_asm = rounds * len(xs)
    ref_s, vec_s = min(ref_times), min(vec_times)
    speedup = ref_s / vec_s if vec_s > 0 else float("inf")
    print(f"\nreference {ref_s / n_asm * 1e6:.1f} us/asm, vectorized "
          f"{vec_s / n_asm * 1e6:.1f} us/asm -> {speedup:.2f}x")
    request.node.bench_extra = {
        "assemblies": n_asm,
        "reference_us_per_assembly": ref_s / n_asm * 1e6,
        "vectorized_us_per_assembly": vec_s / n_asm * 1e6,
        "speedup": speedup,
    }

    # The committed baseline records >=2x; the live assertion leaves
    # headroom for noisy shared runners.
    assert speedup >= 1.5


def test_fast_newton_transient_tradeoff(benchmark, request):
    gate = Gate.nand(3, default_process(), load=100e-15)
    proc = default_process()

    def bench_circuit():
        return gate.build({
            "a": ramp(0.5e-9, 0.0, proc.vdd, 0.3e-9),
            "b": proc.vdd,
            "c": proc.vdd,
        })

    options = TransientOptions()
    t_stop = 2e-9

    prior = os.environ.get(FAST_NEWTON_ENV_VAR)
    os.environ.pop(FAST_NEWTON_ENV_VAR, None)
    try:
        t0 = time.perf_counter()
        base = benchmark.pedantic(
            lambda: transient(bench_circuit(), t_stop, options=options),
            rounds=1, iterations=1)
        base_s = time.perf_counter() - t0

        os.environ[FAST_NEWTON_ENV_VAR] = "1"
        t0 = time.perf_counter()
        fast = transient(bench_circuit(), t_stop, options=options)
        fast_s = time.perf_counter() - t0
    finally:
        if prior is None:
            os.environ.pop(FAST_NEWTON_ENV_VAR, None)
        else:
            os.environ[FAST_NEWTON_ENV_VAR] = prior

    grid = np.linspace(0.0, t_stop, 400)
    deviation = float(np.abs(base.node(gate.output)(grid)
                             - fast.node(gate.output)(grid)).max())
    print(f"\ndefault {base_s:.3f}s ({base.newton_iterations} iters), "
          f"fast-newton {fast_s:.3f}s ({fast.newton_iterations} iters), "
          f"max |dV| {deviation:.2e} V")
    request.node.bench_extra = {
        "default_seconds": base_s,
        "fast_seconds": fast_s,
        "default_iterations": base.newton_iterations,
        "fast_iterations": fast.newton_iterations,
        "max_waveform_deviation_v": deviation,
    }

    # The tolerance gate, not a speed gate: correctness within 1 nV and
    # unchanged retry health are the contract.
    assert deviation <= 1e-9
    assert fast.solver_retries == base.solver_retries
    assert fast.newton_failures == base.newton_failures
