"""Multi-gate netlist builders: chains and hierarchical decoder trees.

The paper's proximity effects only matter at netlist scale -- coupled
transitions arrive at a gate *because* upstream logic converges there
-- and the sparse solver backend (:mod:`repro.spice.sparse`) only pays
off past tens of unknowns.  This module builds the standard large
testbenches from the existing :class:`~repro.gates.Gate` cells:

* :func:`inverter_chain` / :func:`nand_chain` -- the classic delay-line
  topologies (ring-oscillator halves, buffer trees), linear in stage
  count;
* :func:`hierarchical_decoder` -- an address predecoder feeding a
  wordline NAND/driver array, modeled on the AMC SRAM compiler's
  ``hierarchical_decoder`` module: address bits are complemented,
  grouped into 2:4 / 3:8 predecoders (NAND + inverter per predecode
  line), and every wordline ANDs one line of each group (NAND +
  inverter driver).  A 6-bit decoder is ~300 unknowns -- two orders of
  magnitude past the single-gate testbenches, and the reference
  workload of ``benchmarks/bench_sparse.py``;
* :func:`bitcell_array` / :func:`delay_chain` -- the AMC SRAM
  compiler's other two workhorse modules (``bitcell_array``,
  ``delay_chain``): a rows x cols grid of 6T SRAM cells
  (cross-coupled inverters plus NMOS access transistors on driven
  word/bit lines; two unknowns per cell, so a 72x72 array passes 10k
  unknowns) and a fanout-loaded inverter delay line.  These are the
  bitcell and delay-chain yardsticks of the ``flat_large`` benchmark
  workload (``bench/workloads.py``).

Builders return plain :class:`~repro.spice.Circuit` objects: every
analysis (DC, transient, batch) and backend (dense, sparse) consumes
them unchanged.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from ..tech import Process, default_process
from .netlist import Circuit, SourceValue

__all__ = ["inverter_chain", "nand_chain", "hierarchical_decoder",
           "predecode_groups", "bitcell_array", "bitcell_levels",
           "delay_chain"]

#: Default per-stage wire/fanout load between chain stages (farads).
STAGE_LOAD = 10e-15


def _gate_cells():
    # Deferred: repro.gates imports repro.spice.netlist, so a module-level
    # import here would be a package cycle waiting for an unlucky order.
    from ..gates import Gate
    return Gate


def inverter_chain(stages: int, process: Optional[Process] = None, *,
                   input_stimulus: SourceValue = 0.0,
                   stage_load: float = STAGE_LOAD,
                   load: float = 4 * STAGE_LOAD,
                   name: str = "invchain") -> Circuit:
    """A chain of ``stages`` inverters driven at node ``in``.

    Stage outputs are ``n1 .. n<stages-1>``; the final output is
    ``out``.  Each internal net carries ``stage_load`` to ground (wire
    plus fanout), the final output ``load``.
    """
    if stages < 1:
        raise ValueError("inverter_chain needs at least one stage")
    gate = _gate_cells().inverter(process or default_process())
    circuit = Circuit(name)
    circuit.add_vsource("vvdd", "vdd", gate.process.vdd)
    circuit.add_vsource("vin", "in", input_stimulus)
    net = "in"
    for stage in range(1, stages + 1):
        out = "out" if stage == stages else f"n{stage}"
        gate.instantiate_into(circuit, f"x{stage}", {"a": net, "z": out})
        circuit.add_capacitor(f"cw{stage}", out, "0",
                              load if stage == stages else stage_load)
        net = out
    return circuit


def nand_chain(stages: int, fan_in: int = 2,
               process: Optional[Process] = None, *,
               input_stimulus: SourceValue = 0.0,
               stage_load: float = STAGE_LOAD,
               load: float = 4 * STAGE_LOAD,
               name: Optional[str] = None) -> Circuit:
    """A chain of ``fan_in``-input NANDs, side inputs tied high.

    The previous stage drives input ``a`` (the transistor adjacent to
    the output in the pull-down stack); the remaining inputs sit at
    their non-controlling level Vdd, so the chain inverts per stage
    like an inverter chain but with full series-stack internals --
    the topology delay-line measurements use.
    """
    if stages < 1:
        raise ValueError("nand_chain needs at least one stage")
    gate = _gate_cells().nand(fan_in, process or default_process())
    circuit = Circuit(name or f"nand{fan_in}chain")
    circuit.add_vsource("vvdd", "vdd", gate.process.vdd)
    circuit.add_vsource("vin", "in", input_stimulus)
    net = "in"
    for stage in range(1, stages + 1):
        out = "out" if stage == stages else f"n{stage}"
        nets = {"a": net, "z": out}
        for side in gate.inputs[1:]:
            nets[side] = "vdd"
        gate.instantiate_into(circuit, f"x{stage}", nets)
        circuit.add_capacitor(f"cw{stage}", out, "0",
                              load if stage == stages else stage_load)
        net = out
    return circuit


def predecode_groups(address_bits: int) -> List[List[int]]:
    """Partition address-bit indices into 2- and 3-bit predecode groups.

    Mirrors the AMC hierarchical decoder's planning: 2:4 predecoders
    wherever possible, one 3:8 group absorbing an odd remainder.
    """
    if address_bits < 2:
        raise ValueError("hierarchical_decoder needs at least 2 address bits")
    bits = list(range(address_bits))
    if address_bits % 2:
        return [bits[:3]] + [bits[i:i + 2] for i in range(3, address_bits, 2)]
    return [bits[i:i + 2] for i in range(0, address_bits, 2)]


def hierarchical_decoder(address_bits: int,
                         process: Optional[Process] = None, *,
                         address: int = 0,
                         stimuli: Optional[Mapping[str, SourceValue]] = None,
                         wordline_load: float = 2 * STAGE_LOAD,
                         name: Optional[str] = None) -> Circuit:
    """A ``2**address_bits``-row predecoded wordline decoder.

    Address inputs ``a0 .. a<k-1>`` default to the DC levels of
    ``address`` (bit 0 is ``a0``); ``stimuli`` overrides any of them
    with a waveform -- drive one bit with a ramp to exercise a
    wordline handover transient.  Per address bit an inverter produces
    the complement; each predecode group NANDs the true/complement mix
    for its ``2**k`` lines and inverts them (active-high predecode
    lines); each wordline NANDs one line per group into an inverting
    driver loaded with ``wordline_load``.

    Unknown-node count grows as ``O(2**address_bits)``: a 6-bit
    decoder compiles to ~300 unknowns (64 wordlines), the sparse
    backend's reference workload.
    """
    if not 0 <= address < 2 ** address_bits:
        raise ValueError(f"address {address} out of range for "
                         f"{address_bits} bits")
    groups = predecode_groups(address_bits)
    gates = _gate_cells()
    proc = process or default_process()
    inv = gates.inverter(proc)
    nands = {size: gates.nand(size, proc)
             for size in {len(g) for g in groups} | {len(groups)}}
    stimuli = dict(stimuli or {})

    circuit = Circuit(name or f"decoder{address_bits}")
    circuit.add_vsource("vvdd", "vdd", proc.vdd)
    for bit in range(address_bits):
        pin = f"a{bit}"
        level = proc.vdd if (address >> bit) & 1 else 0.0
        circuit.add_vsource(f"v{pin}", pin, stimuli.pop(pin, level))
        inv.instantiate_into(circuit, f"xinv_{pin}",
                             {"a": pin, "z": f"{pin}b"})
    if stimuli:
        raise ValueError(f"stimuli for unknown address pins: "
                         f"{sorted(stimuli)!r}")

    # Predecoders: group g, line code c -> active-high net ``pre<g>_<c>``
    # (bit j of c selects the true phase of the group's j-th address bit).
    for gi, bits in enumerate(groups):
        nand = nands[len(bits)]
        for code in range(2 ** len(bits)):
            nets: Dict[str, str] = {"z": f"pre{gi}_{code}n"}
            for pin, bit in zip(nand.inputs, bits):
                nets[pin] = f"a{bit}" if (code >> bits.index(bit)) & 1 \
                    else f"a{bit}b"
            nand.instantiate_into(circuit, f"xpre{gi}_{code}", nets)
            inv.instantiate_into(circuit, f"xpri{gi}_{code}",
                                 {"a": f"pre{gi}_{code}n",
                                  "z": f"pre{gi}_{code}"})

    # Wordlines: row r selects, per group, the line matching r's bits.
    wl_nand = nands[len(groups)]
    for row in range(2 ** address_bits):
        nets = {"z": f"wl{row}n"}
        for pin, (gi, bits) in zip(wl_nand.inputs, enumerate(groups)):
            code = sum(((row >> bit) & 1) << j for j, bit in enumerate(bits))
            nets[pin] = f"pre{gi}_{code}"
        wl_nand.instantiate_into(circuit, f"xwl{row}", nets)
        inv.instantiate_into(circuit, f"xwld{row}",
                             {"a": f"wl{row}n", "z": f"wl{row}"})
        circuit.add_capacitor(f"cwl{row}", f"wl{row}", "0", wordline_load)
    return circuit


def _pattern_bit(pattern, row: int, col: int) -> int:
    if pattern is None:
        return 0
    return (int(pattern[row]) >> col) & 1


def bitcell_array(rows: int, cols: int,
                  process: Optional[Process] = None, *,
                  pattern: Optional[Sequence[int]] = None,
                  wordline: Optional[int] = None,
                  stimuli: Optional[Mapping[str, SourceValue]] = None,
                  bitline_load: float = 2 * STAGE_LOAD,
                  name: Optional[str] = None) -> Circuit:
    """A ``rows x cols`` 6T SRAM bitcell array, AMC ``bitcell_array`` style.

    Each cell is the classic 6T topology: two cross-coupled inverters
    storing ``q<r>_<c>`` / ``qb<r>_<c>``, plus two NMOS access
    transistors connecting them to the column's bit-line pair
    (``bl<c>`` / ``br<c>``) under the row's wordline ``wl<r>``.  Word
    and bit lines are *driven* nets (the decoder/precharger sit outside
    this circuit): every wordline defaults low except ``wordline``,
    which is driven at Vdd; bitlines default to the precharged Vdd
    level.  ``stimuli`` overrides any driven net (``wl3``, ``bl0``,
    ...) with a waveform -- ramp a wordline to exercise a read-disturb
    transient.  Each bitline carries ``bitline_load`` to ground.

    The unknowns are exactly the ``2 * rows * cols`` storage nodes --
    a 72x72 array passes 10k unknowns -- and the Jacobian couples each
    cell only to its own pair plus the driven lines, so the array is
    the sparse backend's best case.  Cross-coupled cells are bistable:
    seed DC/transient analyses with :func:`bitcell_levels` so Newton
    starts at (and recovers) the intended stored ``pattern`` (one int
    per row; bit ``c`` of ``pattern[r]`` is the cell's stored value).
    """
    if rows < 1 or cols < 1:
        raise ValueError("bitcell_array needs at least one row and column")
    if pattern is not None and len(pattern) != rows:
        raise ValueError(f"pattern needs one entry per row "
                         f"({len(pattern)} != {rows})")
    if wordline is not None and not 0 <= wordline < rows:
        raise ValueError(f"wordline {wordline} out of range for {rows} rows")
    proc = process or default_process()
    inv = _gate_cells().inverter(proc)
    sizing = inv.sizing
    stimuli = dict(stimuli or {})

    circuit = Circuit(name or f"bitcells{rows}x{cols}")
    circuit.add_vsource("vvdd", "vdd", proc.vdd)
    for row in range(rows):
        level = proc.vdd if row == wordline else 0.0
        circuit.add_vsource(f"vwl{row}", f"wl{row}",
                            stimuli.pop(f"wl{row}", level))
    for col in range(cols):
        for side in ("bl", "br"):
            net = f"{side}{col}"
            circuit.add_vsource(f"v{net}", net,
                                stimuli.pop(net, proc.vdd))
            circuit.add_capacitor(f"c{net}", net, "0", bitline_load)
    if stimuli:
        raise ValueError(f"stimuli for unknown driven nets: "
                         f"{sorted(stimuli)!r}")

    for row in range(rows):
        for col in range(cols):
            q, qb = f"q{row}_{col}", f"qb{row}_{col}"
            inv.instantiate_into(circuit, f"xl{row}_{col}",
                                 {"a": q, "z": qb})
            inv.instantiate_into(circuit, f"xr{row}_{col}",
                                 {"a": qb, "z": q})
            # NMOS access pair, minimum-ish width so the cell's beta
            # ratio favors retention (drain on the bitline side).
            circuit.add_mosfet(f"mal{row}_{col}", f"bl{col}", f"wl{row}",
                               q, "0", proc.nmos,
                               sizing.wn, sizing.length)
            circuit.add_mosfet(f"mar{row}_{col}", f"br{col}", f"wl{row}",
                               qb, "0", proc.nmos,
                               sizing.wn, sizing.length)
    return circuit


def bitcell_levels(rows: int, cols: int,
                   pattern: Optional[Sequence[int]] = None,
                   process: Optional[Process] = None) -> Dict[str, float]:
    """Storage-node voltage levels for a stored ``pattern``.

    The DC initial guess (and transient ``initial_op``) matching
    :func:`bitcell_array`'s node naming: cell ``(r, c)`` sits at
    ``q = Vdd`` when bit ``c`` of ``pattern[r]`` is set, else ``0``,
    with ``qb`` complementary.  Seeding Newton here keeps every
    bistable cell on its intended branch.
    """
    proc = process or default_process()
    levels: Dict[str, float] = {}
    for row in range(rows):
        for col in range(cols):
            bit = _pattern_bit(pattern, row, col)
            levels[f"q{row}_{col}"] = proc.vdd if bit else 0.0
            levels[f"qb{row}_{col}"] = 0.0 if bit else proc.vdd
    return levels


def delay_chain(stages: int, fanout: int = 4,
                process: Optional[Process] = None, *,
                input_stimulus: SourceValue = 0.0,
                stage_load: float = STAGE_LOAD,
                load: float = 4 * STAGE_LOAD,
                name: Optional[str] = None) -> Circuit:
    """A fanout-loaded inverter delay line, AMC ``delay_chain`` style.

    Each of the ``stages`` chain inverters drives ``fanout`` inverter
    loads; one continues the chain, the rest are dummy cells whose
    outputs ``d<stage>_<k>`` idle under ``stage_load`` -- realistic
    gate loading (channel capacitance that varies with the driving
    edge) instead of the fixed linear capacitor of
    :func:`inverter_chain`.  Unknowns grow as ``stages * fanout``.
    """
    if stages < 1:
        raise ValueError("delay_chain needs at least one stage")
    if fanout < 1:
        raise ValueError("delay_chain needs fanout >= 1")
    gate = _gate_cells().inverter(process or default_process())
    circuit = Circuit(name or f"delaychain{stages}x{fanout}")
    circuit.add_vsource("vvdd", "vdd", gate.process.vdd)
    circuit.add_vsource("vin", "in", input_stimulus)
    net = "in"
    for stage in range(1, stages + 1):
        out = "out" if stage == stages else f"n{stage}"
        gate.instantiate_into(circuit, f"x{stage}", {"a": net, "z": out})
        for k in range(1, fanout):
            dummy = f"d{stage}_{k}"
            gate.instantiate_into(circuit, f"xd{stage}_{k}",
                                  {"a": out, "z": dummy})
            circuit.add_capacitor(f"cd{stage}_{k}", dummy, "0", stage_load)
        circuit.add_capacitor(f"cw{stage}", out, "0",
                              load if stage == stages else stage_load)
        net = out
    return circuit
