"""Netlist construction in array passes against the per-element loops.

``CompiledCircuit`` resolves every terminal through one slot table into
int arrays, and ``StampPlan`` builds its emission lists, cap-free
splits, device groups and gate-kernel tables by masked array stacking.
The per-element loops they replaced are kept here as the reference:
:func:`reference_compile` walks every terminal through a ``node_slot``
call, and :func:`reference_plan` emits every ``F``/``J`` term one call
at a time.  Both sides must agree exactly -- values, dtypes and, for
floats, bits -- on randomized circuits, every netlist builder and the
library gates under both processes.  Gate instances, placed from a
template walked once per gate, must equal the recursive network walk,
and construction errors keep their text.
"""

import itertools
from typing import Dict, List

import numpy as np
import pytest

from repro.errors import NetlistError
from repro.gates import Gate
from repro.gates.topology import Leaf, Series
from repro.spice import Circuit, MosfetInstance, stamps
from repro.spice.builders import (bitcell_array, delay_chain,
                                  hierarchical_decoder, inverter_chain,
                                  nand_chain)
from repro.waveform import ramp

from .test_assembly_equivalence import ALPHA_PROC, PROC, random_circuit
from .test_gate_kernel import GATES, PROCESSES, stimuli


def reference_compile(circuit: Circuit):
    """``(resistors, capacitors, isources, mosfets)``: one tuple per
    device, every terminal resolved by its own ``node_slot`` call."""
    unknown = circuit.unknown_nodes()
    known = ["0"] + [src.node for src in circuit._vsources.values()]
    slot: Dict[str, int] = {}
    for idx, name in enumerate(unknown):
        slot[name] = idx
    for kidx, name in enumerate(known):
        slot.setdefault(name, -kidx - 1)

    def node_slot(name: str) -> int:
        return -1 if Circuit.is_ground(name) else slot[name]

    return (
        [(node_slot(r.a), node_slot(r.b), 1.0 / r.resistance)
         for r in circuit._resistors],
        [(node_slot(c.a), node_slot(c.b), c.capacitance)
         for c in circuit._capacitors],
        [(node_slot(s.a), node_slot(s.b), s.value) for s in circuit._isources],
        [(node_slot(m.drain), node_slot(m.gate), node_slot(m.source),
          m.params, m.k) for m in circuit._mosfets],
    )


def _intp(values) -> np.ndarray:
    return np.asarray(list(values), dtype=np.intp)


def reference_plan(n: int, n_known: int, resistors, capacitors, isources,
                   mosfets) -> dict:
    """The stamp structure, built one device and one term at a time."""
    num_res, num_is = len(resistors), len(isources)
    num_mos, num_cap = len(mosfets), len(capacitors)

    def col(slot: int) -> int:
        return slot if slot >= 0 else n + (-slot - 1)

    plan = dict(
        res_a=_intp(col(a) for a, _, _ in resistors),
        res_b=_intp(col(b) for _, b, _ in resistors),
        cap_a=_intp(col(a) for a, _, _ in capacitors),
        cap_b=_intp(col(b) for _, b, _ in capacitors),
        cap_c=np.array([c for _, _, c in capacitors], dtype=float),
        res_g=np.array([g for _, _, g in resistors], dtype=float),
    )

    grouped: Dict[bool, List[int]] = {}
    for mi, (_, _, _, params, _) in enumerate(mosfets):
        grouped.setdefault(params.model == "alpha", []).append(mi)
    groups = []
    for alpha_model, indices in grouped.items():
        blocks = -(-len(indices) // stamps.MOS_BLOCK)
        size = -(-len(indices) // blocks)
        for i in range(0, len(indices), size):
            block = indices[i:i + size]
            nmos = [mi for mi in block if mosfets[mi][3].is_nmos]
            order = nmos + [mi for mi in block if not mosfets[mi][3].is_nmos]
            k = np.array([mosfets[mi][4] for mi in order], dtype=float)
            groups.append(dict(
                alpha_model=alpha_model, first_pmos=len(nmos),
                cols=_intp(order),
                d_cols=_intp(col(mosfets[mi][0]) for mi in order),
                g_cols=_intp(col(mosfets[mi][1]) for mi in order),
                s_cols=_intp(col(mosfets[mi][2]) for mi in order),
                k=k, two_k=2.0 * k,
                vt=np.array([abs(mosfets[mi][3].vt0) for mi in order],
                            dtype=float),
                lam=np.array([mosfets[mi][3].lam for mi in order],
                             dtype=float),
                alpha=np.array([mosfets[mi][3].alpha for mi in order],
                               dtype=float)))
    plan["groups"] = groups

    if 0 < num_mos < stamps.SCALAR_MOS_CUTOVER:
        plan["structure"] = (
            n, n_known,
            tuple((a, b) for a, b, _ in resistors),
            tuple((a, b) for a, b, _ in isources),
            tuple((d, g, s, params.is_nmos, params.model == "alpha")
                  for d, g, s, params, _ in mosfets))
        consts = [g for _, _, g in resistors]
        for _, _, _, params, kk in mosfets:
            consts += [kk, abs(params.vt0), params.lam]
            if params.model == "alpha":
                consts.append(params.alpha)
        plan["kernel_consts"] = tuple(consts)
        plan["cap_pairs"] = [(a, b) for a, b, _ in capacitors]
        plan["live_caps"] = [ci for ci, (a, b, _) in enumerate(capacitors)
                             if a >= 0 or b >= 0]
        plan["live_c"] = [capacitors[ci][2] for ci in plan["live_caps"]]

    f_cells: List[int] = []
    f_src: List[int] = []
    f_sign: List[float] = []
    j_cells: List[int] = []
    j_src: List[int] = []
    j_sign: List[float] = []

    def femit(node: int, src: int, sign: float) -> None:
        f_cells.append(node)
        f_src.append(src)
        f_sign.append(sign)

    def jemit(row: int, column: int, src: int, sign: float) -> None:
        j_cells.append(row * n + column)
        j_src.append(src)
        j_sign.append(sign)

    for ri, (a, b, _) in enumerate(resistors):
        if a >= 0:
            femit(a, ri, 1.0)
            jemit(a, a, ri, 1.0)
            if b >= 0:
                jemit(a, b, ri, -1.0)
        if b >= 0:
            femit(b, ri, -1.0)
            jemit(b, b, ri, 1.0)
            if a >= 0:
                jemit(b, a, ri, -1.0)
    for si, (a, b, _) in enumerate(isources):
        if a >= 0:
            femit(a, num_res + si, 1.0)
        if b >= 0:
            femit(b, num_res + si, -1.0)
    for mi, (d, g_node, s, _, _) in enumerate(mosfets):
        cd = num_res + mi
        cg = num_res + num_mos + mi
        cs = num_res + 2 * num_mos + mi
        if d >= 0:
            femit(d, num_res + num_is + mi, 1.0)
            jemit(d, d, cd, 1.0)
            if g_node >= 0:
                jemit(d, g_node, cg, 1.0)
            if s >= 0:
                jemit(d, s, cs, 1.0)
        if s >= 0:
            femit(s, num_res + num_is + mi, -1.0)
            jemit(s, s, cs, -1.0)
            if d >= 0:
                jemit(s, d, cd, -1.0)
            if g_node >= 0:
                jemit(s, g_node, cg, -1.0)
    f_split = len(f_cells)
    j_split = len(j_cells)
    for ci, (a, b, _) in enumerate(capacitors):
        fcol = num_res + num_is + num_mos + ci
        jcol = num_res + 3 * num_mos + ci
        if a >= 0:
            femit(a, fcol, 1.0)
            jemit(a, a, jcol, 1.0)
            if b >= 0:
                jemit(a, b, jcol, -1.0)
        if b >= 0:
            femit(b, fcol, -1.0)
            jemit(b, b, jcol, 1.0)
            if a >= 0:
                jemit(b, a, jcol, -1.0)

    n_fvals = num_res + num_is + num_mos + num_cap
    gx_base = n_fvals + num_res + 3 * num_mos + num_cap
    diag = np.arange(n, dtype=np.intp)
    plan["f_emit"] = (np.concatenate([diag, _intp(f_cells)]),
                      np.concatenate([gx_base + diag, _intp(f_src)]),
                      np.concatenate([np.ones(n), f_sign]))
    plan["j_emit"] = (np.concatenate([diag * (n + 1), _intp(j_cells)]),
                      np.concatenate([np.full(n, gx_base + n, np.intp),
                                      n_fvals + _intp(j_src)]),
                      np.concatenate([np.ones(n), j_sign]))
    plan["f_split"] = n + f_split
    plan["j_split"] = n + j_split
    return plan


def assert_same_array(got: np.ndarray, want: np.ndarray) -> None:
    """Equal shape, dtype and raw bytes (floats bit for bit)."""
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert np.ascontiguousarray(got).tobytes() == want.tobytes()


def assert_matches_loops(circuit: Circuit) -> None:
    """Compile ``circuit`` and hold every array to the loops' output."""
    compiled = circuit.compile()
    resistors, capacitors, isources, mosfets = reference_compile(circuit)

    assert compiled.res_nodes.T.tolist() == [[a, b] for a, b, _ in resistors]
    assert_same_array(compiled.res_g,
                      np.array([g for *_, g in resistors], dtype=float))
    assert compiled.cap_nodes.T.tolist() == [[a, b] for a, b, _ in capacitors]
    assert_same_array(compiled.cap_c,
                      np.array([c for *_, c in capacitors], dtype=float))
    assert compiled.isources == isources
    assert compiled.mos_nodes.T.tolist() == [[d, g, s]
                                             for d, g, s, _, _ in mosfets]
    assert all(compiled.cards[card] is m[3]
               for card, m in zip(compiled.mos_card.tolist(), mosfets))
    assert_same_array(compiled.mos_k,
                      np.array([m[4] for m in mosfets], dtype=float))

    plan = compiled.stamp_plan
    want = reference_plan(compiled.n_unknown, len(compiled._known_names),
                          resistors, capacitors, isources, mosfets)
    for name in ("res_a", "res_b", "cap_a", "cap_b", "cap_c", "res_g"):
        assert_same_array(getattr(plan, name), want[name])
    for name in ("f_emit", "j_emit"):
        for got, expected in zip(getattr(plan, name), want[name]):
            assert_same_array(got, expected)
    assert (plan.f_split, plan.j_split) == (want["f_split"], want["j_split"])
    assert len(plan.groups) == len(want["groups"])
    for group, expected in zip(plan.groups, want["groups"]):
        assert group.alpha_model == expected["alpha_model"]
        assert group.first_pmos == expected["first_pmos"]
        for name in ("cols", "d_cols", "g_cols", "s_cols", "k", "two_k",
                     "vt", "lam", "alpha"):
            assert_same_array(getattr(group, name), expected[name])
    assert plan.use_scalar_mos == ("structure" in want)
    if plan.use_scalar_mos:
        assert plan.structure == want["structure"]
        assert [struct_bits(v) for v in plan.kernel_consts] == \
            [struct_bits(v) for v in want["kernel_consts"]]
        assert plan.cap_pairs == want["cap_pairs"]
        assert plan.live_caps == want["live_caps"]
        assert [struct_bits(v) for v in plan.live_c] == \
            [struct_bits(v) for v in want["live_c"]]


def struct_bits(value: float) -> bytes:
    return np.float64(value).tobytes()


class TestCompileAndPlanMatchTheLoops:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_circuits(self, seed):
        rng = np.random.default_rng(500 + seed)
        process = PROC if seed % 2 else ALPHA_PROC
        n_mos = int(rng.integers(0, 2 * stamps.SCALAR_MOS_CUTOVER))
        assert_matches_loops(random_circuit(rng, n_mos=n_mos, process=process))

    @pytest.mark.parametrize("build", [
        pytest.param(lambda: inverter_chain(7), id="inverter_chain"),
        pytest.param(lambda: nand_chain(5, 3), id="nand_chain"),
        pytest.param(lambda: delay_chain(6, 3), id="delay_chain"),
        pytest.param(lambda: hierarchical_decoder(
            5, address=6, stimuli={"a0": ramp(5e-11, 0.0, 5.0, 1e-10)}),
            id="hierarchical_decoder"),
        pytest.param(lambda: bitcell_array(
            5, 6, pattern=[5, 17, 0, 63, 9],
            stimuli={"wl2": ramp(5e-11, 0.0, 5.0, 1e-10)}),
            id="bitcell_array"),
        pytest.param(lambda: hierarchical_decoder(4, ALPHA_PROC),
                     id="decoder_alpha"),
    ])
    def test_builders(self, build):
        assert_matches_loops(build())

    def test_ground_aliases(self):
        """Every spelling of ground resolves to the ground slot."""
        circuit = Circuit()
        circuit.add_vsource("vvdd", "vdd", PROC.vdd)
        circuit.add_vsource("vin", "in", ramp(1e-10, 0.0, PROC.vdd, 1e-10))
        for i, ground in enumerate(("0", "gnd", "GND", "vss", "Ground", "gnd!")):
            Gate.inverter(PROC).instantiate_into(
                circuit, f"x{i}", {"a": "in" if i == 0 else f"n{i}",
                                   "z": f"n{i + 1}"})
            circuit.add_resistor(f"r{i}", f"n{i + 1}", ground, 1e4)
            circuit.add_capacitor(f"c{i}", ground, f"n{i + 1}", 1e-14)
        circuit.add_mosfet("mg", "n3", "GND", "vss", "gnd", PROC.nmos,
                           2e-6, 0.8e-6)
        circuit.add_isource("ig", "VSS", "n2", 1e-6)
        assert_matches_loops(circuit)

    @pytest.mark.parametrize("block", [1, 5, stamps.MOS_BLOCK])
    def test_mixed_models_and_blocks(self, monkeypatch, block):
        """Groups come in the order of each model's first transistor,
        each split into even blocks."""
        monkeypatch.setattr(stamps, "MOS_BLOCK", block)
        circuit = Circuit()
        circuit.add_vsource("vvdd", "vdd", PROC.vdd)
        circuit.add_vsource("vin", "in", 0.0)
        circuit.add_mosfet("malpha", "n0", "in", "0", "0", ALPHA_PROC.nmos,
                           2e-6, 0.8e-6)
        for i in range(9):
            Gate.inverter(PROC if i % 3 else ALPHA_PROC).instantiate_into(
                circuit, f"x{i}", {"a": f"n{i}", "z": f"n{i + 1}"})
        assert_matches_loops(circuit)

    @pytest.mark.parametrize("process", sorted(PROCESSES))
    @pytest.mark.parametrize("gate", sorted(GATES))
    @pytest.mark.parametrize("direction", ["fall", "rise"])
    def test_library_gates(self, gate, process, direction):
        cell = GATES[gate](PROCESSES[process])
        assert_matches_loops(cell.build(stimuli(cell, direction)))


def reference_instantiate(gate: Gate, circuit: Circuit, prefix: str,
                          pin_nets, with_parasitics: bool = True) -> None:
    """Both networks walked per instance, every transistor placed
    through the parasitic loop of ``add_capacitor`` calls."""
    for tree, top, bottom, params, kind, node_prefix, bulk, width_fn in (
            (gate.pulldown, pin_nets[gate.output], "0", gate.process.nmos,
             "mn", "pd", "0", gate.nmos_width),
            (gate.pullup, "vdd", pin_nets[gate.output], gate.process.pmos,
             "mp", "pu", "vdd", gate.pmos_width)):
        counter, device = itertools.count(1), itertools.count(1)
        stack = [(tree, top, bottom)]
        while stack:
            node, hi, lo = stack.pop()
            if isinstance(node, Leaf):
                name = f"{prefix}{kind}{next(device)}_{node.name}"
                inst = MosfetInstance(name, hi, pin_nets[node.name], lo, bulk,
                                      params, width_fn(node.name),
                                      gate.sizing.length)
                circuit._register(name, hi, pin_nets[node.name], lo, bulk)
                circuit._mosfets.append(inst)
                if with_parasitics:
                    for cap_name, a, b, c in inst.parasitic_caps():
                        if a != b:
                            circuit.add_capacitor(cap_name, a, b, c)
                continue
            if isinstance(node, Series):
                rail = [hi] + [f"{prefix}{node_prefix}{next(counter)}"
                               for _ in node.children[:-1]] + [lo]
                spans = zip(node.children, rail, rail[1:])
            else:
                spans = ((child, hi, lo) for child in node.children)
            stack.extend(reversed(list(spans)))


def elements(circuit: Circuit):
    return (circuit._mosfets, circuit._capacitors, circuit._nodes,
            circuit._element_names)


class TestGateTemplateMatchesTheWalk:
    @pytest.mark.parametrize("process", sorted(PROCESSES))
    @pytest.mark.parametrize("gate", sorted(GATES))
    @pytest.mark.parametrize("with_parasitics", [True, False])
    def test_instances(self, gate, process, with_parasitics):
        cell = GATES[gate](PROCESSES[process])
        # The last input tied to the rail, as nand_chain ties side inputs:
        # its PMOS gate-source capacitor then joins vdd to itself.
        nets = {pin: f"n_{pin}" for pin in cell.inputs[:-1]}
        nets.update({cell.inputs[-1]: "vdd", cell.output: "out"})
        got, want = Circuit(), Circuit()
        for instance in ("x1", "x2"):
            cell.instantiate_into(got, instance, nets,
                                  with_parasitics=with_parasitics)
            reference_instantiate(cell, want, f"{instance}.", nets,
                                  with_parasitics)
        assert elements(got) == elements(want)

    @pytest.mark.parametrize("process", sorted(PROCESSES))
    @pytest.mark.parametrize("gate", sorted(GATES))
    def test_build(self, gate, process):
        cell = GATES[gate](PROCESSES[process])
        built = cell.build(stimuli(cell, "fall"))
        want = Circuit()
        reference_instantiate(cell, want, "",
                              {pin: pin for pin in (*cell.inputs, cell.output)})
        assert built._mosfets == want._mosfets
        assert built._capacitors[:-1] == want._capacitors
        assert built._capacitors[-1].name == "cload"


class TestConstructionErrorsKeepTheirText:
    def test_duplicate_element(self):
        ckt = Circuit()
        ckt.add_resistor("r1", "a", "b", 1e3)
        with pytest.raises(NetlistError, match="^duplicate element name 'r1'$"):
            ckt.add_capacitor("r1", "a", "0", 1e-15)

    def test_duplicate_parasitic(self):
        ckt = Circuit()
        ckt.add_capacitor("m1.cgd", "g", "d", 1e-15)
        with pytest.raises(NetlistError,
                           match=r"^duplicate element name 'm1\.cgd'$"):
            ckt.add_mosfet("m1", "d", "g", "s", "0", PROC.nmos, 2e-6, 0.8e-6)

    def test_duplicate_instance(self):
        ckt = Circuit()
        inv = Gate.inverter(PROC)
        inv.instantiate_into(ckt, "x1", {"a": "in", "z": "out"})
        with pytest.raises(NetlistError,
                           match=r"^duplicate element name 'x1\.mn1_a'$"):
            inv.instantiate_into(ckt, "x1", {"a": "in2", "z": "out2"})

    def test_empty_names(self):
        ckt = Circuit()
        with pytest.raises(NetlistError,
                           match="^element name must be non-empty$"):
            ckt.add_resistor("", "a", "b", 1e3)
        with pytest.raises(NetlistError,
                           match="^element 'm1' has an empty node name$"):
            ckt.add_mosfet("m1", "d", "", "s", "0", PROC.nmos, 2e-6, 0.8e-6)
        with pytest.raises(NetlistError,
                           match=r"^element 'x1\.mn1_a' has an empty node name$"):
            Gate.nand(2, PROC).instantiate_into(
                ckt, "x1", {"a": "", "b": "in", "z": "out"})

    def test_doubly_driven_node(self):
        ckt = Circuit()
        ckt.add_vsource("v1", "in", 1.0)
        ckt.add_vsource("v2", "other", 1.0)
        with pytest.raises(NetlistError,
                           match="^node 'in' is already driven by 'v1'$"):
            ckt.add_vsource("v3", "in", 2.0)
        ckt.replace_vsource("v1", 3.0)
        with pytest.raises(NetlistError,
                           match="^node 'in' is already driven by 'v1'$"):
            ckt.add_vsource("v4", "in", 2.0)
        assert ckt.driven_nodes() == {"in", "other"}

    def test_bad_geometry(self):
        ckt = Circuit()
        with pytest.raises(
                NetlistError,
                match=r"^capacitor 'm1\.cgs' must have non-negative capacitance$"):
            ckt.add_mosfet("m1", "d", "g", "s", "0", PROC.nmos, -2e-6, 0.8e-6)
        ckt = Circuit()
        ckt.add_vsource("vg", "g", 1.0)
        ckt.add_mosfet("m1", "d", "g", "0", "0", PROC.nmos, 2e-6, 0.8e-6)
        ckt.add_mosfet("m2", "d", "g", "0", "0", PROC.nmos, 0.0, 0.8e-6,
                       with_parasitics=False)
        with pytest.raises(
                NetlistError,
                match=r"^transistor geometry must be positive "
                      r"\(W=0\.0, L=8e-07\)$"):
            ckt.compile()
