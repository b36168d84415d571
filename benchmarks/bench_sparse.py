"""Sparse solver backend: scaling curve, decoder-tree gate, construction.

The tentpole claim of the CSC stamp plan (:mod:`repro.spice.sparse`):
past the ``auto`` dispatch cutover the per-solve cost (factorize +
solve, what every Newton iteration pays) beats dense LAPACK LU, and
the gap widens with node count.  Three records:

* ``test_per_solve_scaling_curve`` -- dense vs sparse per-solve times
  on inverter chains and hierarchical decoders from below the cutover
  (where dense must win -- that is *why* ``auto`` dispatches by size)
  to ~600 unknowns;
* ``test_decoder_tree_speedup`` -- the acceptance gate: on a 7-bit
  hierarchical decoder (575 unknowns, 128 wordlines) the sparse
  per-solve is >=5x faster than dense LU (6.8-8.2x measured with the
  minimum-degree ordering).  The live assertion leaves headroom for
  noisy shared runners (the ``bench_newton_core`` recipe);
* ``test_construction_cost`` -- what a large netlist costs before its
  first solve: the median build, compile, stamp-plan and sparse-plan
  seconds of ``bitcell_array(48, 48)`` and ``hierarchical_decoder(7)``
  over five constructions each, with their structural counts
  (unknowns, transistors, capacitors, ``F``/``J`` emissions, nnz).

Both sides time the *same* assembled Jacobian (assembly is
bit-identical across backends, benched in ``bench_newton_core``), so
the ratio isolates the linear-solver swap: SuperLU on the plan's
minimum-degree-ordered CSC matrix against LAPACK.  The matrix is
assembled at mid-rail without companion stamps, where SuperLU drops
many entries as exact zeros; transient matrices store every entry, and
there the ordering matters more
(``tests/spice/test_sparse_equivalence.py`` bounds their fill).
"""

import statistics
import time

import numpy as np

from repro.spice.builders import (bitcell_array, hierarchical_decoder,
                                  inverter_chain)
from repro.spice.sparse import SPARSE_NODE_CUTOVER
from repro.spice.stamps import (Workspace, assemble_into, assemble_sparse,
                                load_solve)

from conftest import scaled

REPS = 3


def solve_workload(circuit):
    """Compiled system assembled at a mid-rail state, ready to solve."""
    compiled = circuit.compile()
    plan = compiled.stamp_plan
    ws, ws_sparse = Workspace(plan), Workspace(plan, sparse=True)
    known = compiled.known_voltages(0.0)
    for space in (ws, ws_sparse):
        load_solve(plan, space, known, 0.0, None, 1.0, compiled.isources)
    x = np.full(plan.n, float(known.max()) / 2.0)
    F, J = assemble_into(plan, ws, x, 1e-12, False)
    sp = plan.sparse
    assemble_sparse(plan, ws_sparse, sp, x, 1e-12, False)
    return plan.n, F, J, sp, ws_sparse


def time_per_solve(F, J, sp, ws, rounds):
    """Best-of-REPS per-solve seconds for dense LU and sparse splu."""
    rhs = -F
    dense_times, sparse_times = [], []
    for _ in range(REPS):
        t0 = time.perf_counter()
        for _ in range(rounds):
            np.linalg.solve(J, rhs)
        dense_times.append(time.perf_counter() - t0)

        t0 = time.perf_counter()
        for _ in range(rounds):
            lu = sp.factorize(ws.data)
            sp.solve_factored(lu, rhs, ws)
        sparse_times.append(time.perf_counter() - t0)
    dense_s = min(dense_times) / rounds
    sparse_s = min(sparse_times) / rounds
    # Same system, two factorizations: answers agree to solver precision.
    dx_dense = np.linalg.solve(J, rhs)
    dx_sparse = sp.solve_factored(sp.factorize(ws.data), rhs, ws)
    scale = max(1.0, float(np.abs(dx_dense).max()))
    assert float(np.abs(dx_dense - dx_sparse).max()) <= 1e-9 * scale
    return dense_s, sparse_s


def test_per_solve_scaling_curve(benchmark, request):
    cases = [
        ("chain48", inverter_chain(48)),
        ("chain96", inverter_chain(96)),
        ("chain192", inverter_chain(192)),
        ("decoder4", hierarchical_decoder(4)),
        ("decoder5", hierarchical_decoder(5)),
        ("decoder6", hierarchical_decoder(6)),
    ]
    rounds = scaled(20, minimum=3)
    curve = []

    def run_curve():
        for label, circuit in cases:
            n, F, J, sp, ws = solve_workload(circuit)
            dense_s, sparse_s = time_per_solve(F, J, sp, ws, rounds)
            curve.append({
                "case": label, "n_unknown": n, "nnz": sp.nnz,
                "dense_us_per_solve": dense_s * 1e6,
                "sparse_us_per_solve": sparse_s * 1e6,
                "speedup": dense_s / sparse_s,
            })

    benchmark.pedantic(run_curve, rounds=1, iterations=1)
    print()
    for point in curve:
        print(f"  {point['case']:<10} n={point['n_unknown']:>4} "
              f"dense {point['dense_us_per_solve']:8.1f}us  "
              f"sparse {point['sparse_us_per_solve']:8.1f}us  "
              f"x{point['speedup']:.2f}")
    request.node.bench_extra = {
        "cutover": SPARSE_NODE_CUTOVER,
        "curve": curve,
    }

    by_n = sorted(curve, key=lambda p: p["n_unknown"])
    # Below the cutover dense wins (that is why auto dispatches by
    # size); at the top of the curve sparse wins clearly, and the
    # advantage grows with node count.
    assert by_n[0]["n_unknown"] < SPARSE_NODE_CUTOVER
    assert by_n[0]["speedup"] < 1.0
    assert by_n[-1]["n_unknown"] >= 2 * SPARSE_NODE_CUTOVER
    assert by_n[-1]["speedup"] >= 2.0
    assert by_n[-1]["speedup"] > by_n[0]["speedup"]


def test_decoder_tree_speedup(benchmark, request):
    """Acceptance gate: >=5x per-solve on a >=200-node decoder tree."""
    circuit = hierarchical_decoder(7)
    rounds = scaled(12, minimum=3)

    holder = {}

    def run_case():
        n, F, J, sp, ws = solve_workload(circuit)
        holder["n"] = n
        holder["nnz"] = sp.nnz
        holder["times"] = time_per_solve(F, J, sp, ws, rounds)

    benchmark.pedantic(run_case, rounds=1, iterations=1)
    n, (dense_s, sparse_s) = holder["n"], holder["times"]
    speedup = dense_s / sparse_s
    print(f"\n  decoder7 n={n} dense {dense_s * 1e6:.1f}us "
          f"sparse {sparse_s * 1e6:.1f}us -> x{speedup:.2f}")
    request.node.bench_extra = {
        "n_unknown": n,
        "nnz": holder["nnz"],
        "dense_us_per_solve": dense_s * 1e6,
        "sparse_us_per_solve": sparse_s * 1e6,
        "speedup": speedup,
    }

    assert n >= 200
    # The committed baseline records >=5x; the live assertion leaves
    # headroom for noisy shared runners (measured 5.0-5.3x locally).
    assert speedup >= 4.0


#: Constructions per circuit in ``test_construction_cost``.
BUILDS = 5


def test_construction_cost(benchmark, request):
    """Build, compile, stamp plan and sparse plan of the largest flat
    netlists, each phase's median over :data:`BUILDS` constructions."""
    cases = [("bitcells48x48", lambda: bitcell_array(48, 48)),
             ("decoder7", lambda: hierarchical_decoder(7))]
    records = {}

    def run_cases():
        for label, build in cases:
            seconds = {"build": [], "compile": [], "plan": [],
                       "sparse_plan": []}
            for _ in range(BUILDS):
                start = time.perf_counter()
                circuit = build()
                built = time.perf_counter()
                compiled = circuit.compile()
                compiled_at = time.perf_counter()
                plan = compiled.stamp_plan
                planned = time.perf_counter()
                sp = plan.sparse
                done = time.perf_counter()
                for phase, value in zip(seconds, (built - start,
                                                  compiled_at - built,
                                                  planned - compiled_at,
                                                  done - planned)):
                    seconds[phase].append(value)
            records[label] = {
                **{f"{phase}_s": statistics.median(values)
                   for phase, values in seconds.items()},
                "n_unknown": plan.n, "transistors": plan.n_mos,
                "capacitors": plan.n_cap, "f_emissions": plan.f_emit[0].size,
                "j_emissions": plan.j_emit[0].size, "nnz": sp.nnz,
            }

    benchmark.pedantic(run_cases, rounds=1, iterations=1)
    print()
    for label, record in records.items():
        total = sum(record[f"{phase}_s"]
                    for phase in ("build", "compile", "plan", "sparse_plan"))
        print(f"  {label:<14} n={record['n_unknown']:>5} "
              f"build {record['build_s'] * 1e3:6.1f}ms "
              f"compile {record['compile_s'] * 1e3:6.1f}ms "
              f"plan {record['plan_s'] * 1e3:6.1f}ms "
              f"sparse {record['sparse_plan_s'] * 1e3:6.1f}ms "
              f"= {total * 1e3:6.1f}ms")
    request.node.bench_extra = {"builds": BUILDS, "circuits": records}

    cells = records["bitcells48x48"]
    assert cells["n_unknown"] == 2 * 48 * 48
    assert cells["transistors"] == 6 * 48 * 48
    assert records["decoder7"]["n_unknown"] >= 200
