"""The :class:`Gate` cell model: topology + process -> circuits.

A :class:`Gate` owns everything needed to characterize a static CMOS
cell: the pull-down network expression, the process, transistor sizing
(with classic series-stack upsizing), and the output load.  Its
:meth:`Gate.build` method instantiates a simulate-ready
:class:`~repro.spice.Circuit` for arbitrary per-input stimuli, defaulting
unspecified inputs to their non-controlling level -- exactly the setup of
every experiment in the paper (e.g. NAND3 with ``c`` tied to Vdd).
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..errors import NetlistError
from ..tech import Process, Sizing
from ..units import parse_quantity
from ..waveform import opposite
from ..spice.netlist import Circuit, SourceValue
from .topology import (
    Leaf,
    Network,
    Parallel,
    Series,
    conducts,
    describe,
    dual,
    leaves,
    series_depths,
)

__all__ = ["Gate", "DEFAULT_LOAD"]

#: Default output load (the paper fixes C_L for its NAND3 testbench;
#: 100 fF is a representative multi-fanout load for the default process).
DEFAULT_LOAD = 100e-15

_INPUT_ALPHABET = "abcdefghijklmnopqrstuvwxyz"


class Gate:
    """A static CMOS gate described by its pull-down network.

    Parameters
    ----------
    name:
        Cell name (``"nand3"``); used in reports and cache keys.
    pulldown:
        Series/parallel expression over the input names (NMOS network
        between the output and ground).  The PMOS pull-up network is the
        dual expression.
    process:
        Technology description.
    load:
        Output load capacitance in farads (or a quantity string).
    sizing:
        Reference-inverter geometry; defaults to ``process.sizing``.
    stack_scaling:
        When true (default), each transistor is widened by the length of
        its series path so stacks drive like the reference inverter.
    """

    def __init__(self, name: str, pulldown: Network, process: Process, *,
                 load: float | str = DEFAULT_LOAD,
                 sizing: Optional[Sizing] = None,
                 stack_scaling: bool = True,
                 output: str = "z") -> None:
        self.name = name
        self.pulldown = pulldown
        self.pullup = dual(pulldown)
        self.process = process
        self.load = parse_quantity(load, unit="F")
        if self.load < 0.0:
            raise NetlistError("gate load must be non-negative")
        self.sizing = sizing or process.sizing
        self.stack_scaling = stack_scaling
        self.output = output

        ordered: List[str] = []
        for leaf_name in leaves(pulldown):
            if leaf_name not in ordered:
                ordered.append(leaf_name)
        self.inputs: Tuple[str, ...] = tuple(ordered)
        if output in self.inputs:
            raise NetlistError(f"output node {output!r} collides with an input name")
        reserved = {"vdd", "0", "gnd"}
        for bad in reserved & set(self.inputs):
            raise NetlistError(f"input name {bad!r} is reserved")

        self._depth_n = series_depths(self.pulldown)
        self._depth_p = series_depths(self.pullup)

    # ------------------------------------------------------------------
    # Logic
    # ------------------------------------------------------------------
    @property
    def n_inputs(self) -> int:
        return len(self.inputs)

    def logic_output(self, assignment: Mapping[str, bool]) -> bool:
        """Boolean output for a full input assignment.

        NMOS transistors conduct on a high input, so the output is low
        exactly when the pull-down network conducts.  The dual pull-up
        conducts complementarily by De Morgan duality.
        """
        return not conducts(self.pulldown, assignment)

    def sensitizing_levels(self, switching: Sequence[str]) -> Dict[str, bool]:
        """Stable-input levels that put the output under the control of
        ``switching``.

        Finds an assignment of the non-switching inputs such that driving
        every switching input low versus high toggles the output.  For a
        NAND this is all-high side inputs; for a NOR all-low.  Raises
        :class:`~repro.errors.NetlistError` when the switching set cannot
        control the output (e.g. it is empty).
        """
        switching_set = list(dict.fromkeys(switching))
        for name in switching_set:
            if name not in self.inputs:
                raise NetlistError(f"{name!r} is not an input of gate {self.name!r}")
        if not switching_set:
            raise NetlistError("switching set must be non-empty")
        stable = [name for name in self.inputs if name not in switching_set]
        for bits in itertools.product((True, False), repeat=len(stable)):
            assignment = dict(zip(stable, bits))
            low = dict(assignment, **{s: False for s in switching_set})
            high = dict(assignment, **{s: True for s in switching_set})
            if self.logic_output(low) != self.logic_output(high):
                return assignment
        raise NetlistError(
            f"inputs {switching_set!r} cannot control the output of {self.name!r}"
        )

    def output_direction(self, input_direction: str) -> str:
        """Direction of the (sensitized) output for a given input edge.

        All single-stage static CMOS gates are inverting, so the output
        moves opposite to the causing input.
        """
        return opposite(input_direction)

    def level_voltage(self, high: bool) -> float:
        return self.process.vdd if high else 0.0

    # ------------------------------------------------------------------
    # Sizing
    # ------------------------------------------------------------------
    def nmos_width(self, input_name: str) -> float:
        factor = self._depth_n[input_name] if self.stack_scaling else 1
        return self.sizing.wn * factor

    def pmos_width(self, input_name: str) -> float:
        factor = self._depth_p[input_name] if self.stack_scaling else 1
        return self.sizing.wp * factor

    def strength_n(self, input_name: Optional[str] = None) -> float:
        """Paper-convention NMOS strength K_n of (one transistor of) the gate."""
        name = input_name or self.inputs[0]
        return self.process.nmos.strength(self.nmos_width(name), self.sizing.length)

    def strength_p(self, input_name: Optional[str] = None) -> float:
        name = input_name or self.inputs[0]
        return self.process.pmos.strength(self.pmos_width(name), self.sizing.length)

    # ------------------------------------------------------------------
    # Circuit construction
    # ------------------------------------------------------------------
    def build(self, stimuli: Optional[Mapping[str, SourceValue]] = None, *,
              load: Optional[float | str] = None,
              switching: Optional[Sequence[str]] = None,
              with_parasitics: bool = True) -> Circuit:
        """Instantiate the gate as a :class:`~repro.spice.Circuit`.

        ``stimuli`` maps input names to source values (numbers, quantity
        strings, :class:`~repro.waveform.Pwl` waveforms or callables).
        Inputs absent from ``stimuli`` are tied to the level that
        sensitizes the output to the driven inputs (``switching``
        defaults to the keys of ``stimuli``).
        """
        stimuli = dict(stimuli or {})
        driven = list(stimuli)
        switching_list = list(switching) if switching is not None else driven
        circuit = Circuit(self.name)
        vdd = self.process.vdd
        circuit.add_vsource("vvdd", "vdd", vdd)

        if switching_list:
            stable_levels = self.sensitizing_levels(switching_list)
        else:
            stable_levels = {name: True for name in self.inputs}
        for name in self.inputs:
            if name in stimuli:
                circuit.add_vsource(f"v{name}", name, stimuli[name])
            else:
                level = stable_levels.get(name)
                if level is None:
                    # Driven-but-not-switching inputs keep their stimulus;
                    # anything else defaults high (non-controlling for the
                    # NAND-class gates this path serves).
                    level = True
                circuit.add_vsource(f"v{name}", name, self.level_voltage(level))

        self._emit(circuit, "", [*self.inputs, self.output], with_parasitics)

        cl = self.load if load is None else parse_quantity(load, unit="F")
        circuit.add_capacitor("cload", self.output, "0", cl)
        return circuit

    def instantiate_into(self, circuit: Circuit, instance: str,
                         nets: Mapping[str, str], *,
                         with_parasitics: bool = True) -> None:
        """Emit this gate's transistors into an existing circuit.

        ``nets`` maps every input pin and the output pin to circuit net
        names (``vdd``/ground are global).  Internal stack nodes and
        device names are prefixed with ``instance`` so several instances
        coexist.  No sources or load capacitors are added -- that is the
        caller's (e.g. :mod:`repro.timing.flatten`) responsibility.
        """
        missing = [p for p in (*self.inputs, self.output) if p not in nets]
        if missing:
            raise NetlistError(f"instantiate_into missing nets for pins {missing!r}")
        self._emit(circuit, f"{instance}.",
                   [nets[pin] for pin in (*self.inputs, self.output)],
                   with_parasitics)

    @cached_property
    def _devices(self) -> Tuple[Tuple[str, ...], Tuple[tuple, ...]]:
        """The transistors of one instance: ``(internal, devices)``.

        Walks the pull-down and then the pull-up network once per gate,
        depth first, children in order, through an explicit stack (a
        recursive closure would hold itself in a reference cycle).
        Internal stack nodes (``pd1 ..``, ``pu1 ..``, in ``internal``)
        are numbered as their series parent is reached, devices as they
        are emitted.  Each device is ``(name, drain, gate, source, bulk,
        params, width)``, its terminals indices into an instance's net
        list: the inputs' nets, the output's, ``"vdd"``, ``"0"``, then
        the internal nodes.
        """
        n_in = len(self.inputs)
        pin = {name: i for i, name in enumerate(self.inputs)}
        out, vdd, gnd = n_in, n_in + 1, n_in + 2
        internal: List[str] = []
        devices = []
        for tree, top, bottom, params, prefix, node_prefix, bulk, width in (
                (self.pulldown, out, gnd, self.process.nmos, "mn", "pd", gnd,
                 self.nmos_width),
                (self.pullup, vdd, out, self.process.pmos, "mp", "pu", vdd,
                 self.pmos_width)):
            counter = itertools.count(1)
            device_counter = itertools.count(1)
            stack = [(tree, top, bottom)]
            while stack:
                node, hi, lo = stack.pop()
                if isinstance(node, Leaf):
                    devices.append((
                        f"{prefix}{next(device_counter)}_{node.name}",
                        hi, pin[node.name], lo, bulk, params,
                        width(node.name)))
                    continue
                if isinstance(node, Series):
                    rail_points = [hi]
                    for _ in node.children[:-1]:
                        internal.append(f"{node_prefix}{next(counter)}")
                        rail_points.append(gnd + len(internal))
                    rail_points.append(lo)
                    spans = zip(node.children, rail_points, rail_points[1:])
                else:  # Parallel
                    spans = ((child, hi, lo) for child in node.children)
                # Reversed, so the first child is popped (and emitted) first.
                stack.extend(reversed(list(spans)))
        return tuple(internal), tuple(devices)

    def _emit(self, circuit: Circuit, prefix: str, pins: List[str],
              with_parasitics: bool) -> None:
        """Place one instance's transistors into ``circuit``.

        ``pins`` are the nets of the inputs, in order, and the output;
        device and internal node names take ``prefix``.
        """
        internal, devices = self._devices
        nets = [*pins, "vdd", "0", *(prefix + node for node in internal)]
        length = self.sizing.length
        for name, drain, gate, source, bulk, params, width in devices:
            circuit.add_mosfet(prefix + name, nets[drain], nets[gate],
                               nets[source], nets[bulk], params, width, length,
                               with_parasitics=with_parasitics)

    # ------------------------------------------------------------------
    # Identification
    # ------------------------------------------------------------------
    def cache_key(self) -> Dict[str, Union[str, float, bool]]:
        """Stable mapping identifying this gate for characterization caches."""
        key: Dict[str, Union[str, float, bool]] = {
            "gate": self.name,
            "topology": describe(self.pulldown),
            "load": self.load,
            "stack_scaling": self.stack_scaling,
            "wn": self.sizing.wn,
            "wp": self.sizing.wp,
            "length": self.sizing.length,
        }
        for pname, pvalue in self.process.cache_key().items():
            key[f"process.{pname}"] = pvalue
        return key

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gate({self.name!r}, pd={describe(self.pulldown)}, inputs={self.inputs})"

    # ------------------------------------------------------------------
    # Standard cells
    # ------------------------------------------------------------------
    @classmethod
    def inverter(cls, process: Process, **kwargs) -> "Gate":
        return cls(kwargs.pop("name", "inv"), Leaf("a"), process, **kwargs)

    @classmethod
    def nand(cls, n_inputs: int, process: Process, **kwargs) -> "Gate":
        """NAND-n: series pull-down.  Input ``a`` is adjacent to the
        output; the last input is adjacent to ground (the paper's 'input
        closest to the ground')."""
        names = cls._input_names(n_inputs)
        tree = Series(*(Leaf(x) for x in names)) if n_inputs > 1 else Leaf(names[0])
        return cls(kwargs.pop("name", f"nand{n_inputs}"), tree, process, **kwargs)

    @classmethod
    def nor(cls, n_inputs: int, process: Process, **kwargs) -> "Gate":
        """NOR-n: parallel pull-down, series pull-up.  Input ``a`` is
        adjacent to the power rail (the paper's 'input closest to the
        power rail'); the last input is adjacent to the output."""
        names = cls._input_names(n_inputs)
        tree = Parallel(*(Leaf(x) for x in names)) if n_inputs > 1 else Leaf(names[0])
        return cls(kwargs.pop("name", f"nor{n_inputs}"), tree, process, **kwargs)

    @classmethod
    def aoi21(cls, process: Process, **kwargs) -> "Gate":
        """AND-OR-INVERT: ``z = not(a*b + c)``."""
        tree = Parallel(Series(Leaf("a"), Leaf("b")), Leaf("c"))
        return cls(kwargs.pop("name", "aoi21"), tree, process, **kwargs)

    @classmethod
    def oai21(cls, process: Process, **kwargs) -> "Gate":
        """OR-AND-INVERT: ``z = not((a + b) * c)``."""
        tree = Series(Parallel(Leaf("a"), Leaf("b")), Leaf("c"))
        return cls(kwargs.pop("name", "oai21"), tree, process, **kwargs)

    @classmethod
    def aoi22(cls, process: Process, **kwargs) -> "Gate":
        """``z = not(a*b + c*d)``."""
        tree = Parallel(Series(Leaf("a"), Leaf("b")), Series(Leaf("c"), Leaf("d")))
        return cls(kwargs.pop("name", "aoi22"), tree, process, **kwargs)

    @staticmethod
    def _input_names(n_inputs: int) -> List[str]:
        if not 1 <= n_inputs <= len(_INPUT_ALPHABET):
            raise NetlistError(f"unsupported input count {n_inputs}")
        return list(_INPUT_ALPHABET[:n_inputs])
