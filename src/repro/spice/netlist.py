"""Circuit netlist construction and compilation.

A :class:`Circuit` is built imperatively (``add_mosfet``,
``add_capacitor``, ``add_vsource``...) and then *compiled* into a
:class:`CompiledCircuit`: a flat, index-based description that the DC and
transient engines evaluate.  Compilation partitions nodes into

* **known** nodes -- ground and every source-driven node, whose voltage
  is a function of time, and
* **unknown** nodes -- everything else, solved by KCL.

Compilation runs in array passes: one table maps every node name to
its slot, each device kind's terminal names go through it in one
lookup pass into an int array, and device values become float arrays,
so a netlist of tens of thousands of devices compiles without a Python
call per terminal.  Building is lean the same way: each element is one
tuple record, a transistor places its parasitic capacitors in one pass,
and a driven node is found in a map rather than by scanning the
sources.

Compilation fixes structure only: constant source levels live in one
base list that :meth:`CompiledCircuit.set_source_level` rebinds in
place (a DC sweep compiles once), each PWL source evaluates through its
own scalar :class:`~repro.waveform.Pwl` path per time point, and
:meth:`CompiledCircuit.with_waveforms` gives a view that drives the PWL
sources with other waveforms (a measurement shot compiles no circuit of
its own).

Restricting voltage sources to node-to-ground keeps the formulation
purely nodal; gate characterization never needs floating sources.
"""

from __future__ import annotations

import copy
import math
from operator import attrgetter
from typing import (Callable, Dict, List, Mapping, NamedTuple, Optional,
                    Sequence, Tuple, Union)

import numpy as np

from ..errors import NetlistError
from ..tech import MosfetParams
from ..units import parse_quantity
from ..waveform import Pwl
from .mosfet import MosfetInstance

__all__ = ["GROUND_NAMES", "Circuit", "CompiledCircuit"]


#: Node names treated as the global reference (0 V).
GROUND_NAMES = frozenset({"0", "gnd", "gnd!", "vss", "ground"})

SourceValue = Union[float, str, Pwl, Callable[[float], float]]


class _Resistor(NamedTuple):
    name: str
    a: str
    b: str
    resistance: float


class _Capacitor(NamedTuple):
    name: str
    a: str
    b: str
    capacitance: float


class _CurrentSource(NamedTuple):
    """Current ``value`` flows from node ``a`` into node ``b``."""

    name: str
    a: str
    b: str
    value: Callable[[float], float]


class _VoltageSource(NamedTuple):
    """Grounded voltage source driving ``node`` to ``value(t)`` volts.

    ``spec`` retains the original user-facing description (a number, a
    :class:`~repro.waveform.Pwl`, or a callable) so exporters can write
    it back out; the engines only use ``value``/``breakpoints``.
    """

    name: str
    node: str
    value: Callable[[float], float]
    breakpoints: Tuple[float, ...]
    spec: SourceValue = 0.0


def _as_time_function(value: SourceValue, unit: str = "V") -> tuple[Callable[[float], float], Tuple[float, ...]]:
    """Normalize a source specification to ``(fn(t), breakpoints)``."""
    if isinstance(value, Pwl):
        wf = value
        return (lambda t: float(wf(t))), tuple(float(x) for x in wf.times)
    if callable(value):
        return value, ()
    level = parse_quantity(value, unit=unit)
    return (lambda t: level), ()


class Circuit:
    """A mutable netlist of MOSFETs, passives and sources."""

    def __init__(self, name: str = "circuit") -> None:
        self.name = name
        self._resistors: List[_Resistor] = []
        self._capacitors: List[_Capacitor] = []
        self._isources: List[_CurrentSource] = []
        self._vsources: Dict[str, _VoltageSource] = {}
        self._mosfets: List[MosfetInstance] = []
        self._element_names: set[str] = set()
        self._nodes: set[str] = set()
        self._driven: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def is_ground(node: str) -> bool:
        return node.lower() in GROUND_NAMES

    def _register(self, name: str, *nodes: str) -> None:
        if not name:
            raise NetlistError("element name must be non-empty")
        if name in self._element_names:
            raise NetlistError(f"duplicate element name {name!r}")
        self._element_names.add(name)
        if not all(nodes):
            raise NetlistError(f"element {name!r} has an empty node name")
        self._nodes.update(nodes)

    def add_resistor(self, name: str, a: str, b: str, resistance: float | str) -> None:
        """Connect a linear resistor between nodes ``a`` and ``b``."""
        r = parse_quantity(resistance, unit="Ohm")
        if r <= 0.0:
            raise NetlistError(f"resistor {name!r} must have positive resistance")
        self._register(name, a, b)
        self._resistors.append(_Resistor(name, a, b, r))

    def add_capacitor(self, name: str, a: str, b: str, capacitance: float | str) -> None:
        """Connect a linear capacitor between nodes ``a`` and ``b``."""
        c = parse_quantity(capacitance, unit="F")
        if c < 0.0:
            raise NetlistError(f"capacitor {name!r} must have non-negative capacitance")
        self._register(name, a, b)
        if c > 0.0:
            self._capacitors.append(_Capacitor(name, a, b, c))

    def add_isource(self, name: str, a: str, b: str, value: SourceValue) -> None:
        """A current source pushing ``value`` amperes from ``a`` into ``b``."""
        fn, _ = _as_time_function(value, unit="A")
        self._register(name, a, b)
        self._isources.append(_CurrentSource(name, a, b, fn))

    def add_vsource(self, name: str, node: str, value: SourceValue) -> None:
        """Drive ``node`` to ``value`` volts (DC number, PWL, or callable).

        Sources are node-to-ground by construction; driving the same node
        twice is an error.
        """
        if self.is_ground(node):
            raise NetlistError(f"source {name!r} drives the ground node")
        if node in self._driven:
            raise NetlistError(
                f"node {node!r} is already driven by {self._driven[node]!r}")
        fn, breakpoints = _as_time_function(value, unit="V")
        self._register(name, node)
        self._vsources[name] = _VoltageSource(name, node, fn, breakpoints, value)
        self._driven[node] = name

    def add_mosfet(self, name: str, drain: str, gate: str, source: str, bulk: str,
                   params: MosfetParams, width: float | str, length: float | str,
                   *, with_parasitics: bool = True) -> MosfetInstance:
        """Place a MOSFET; parasitic caps are added automatically by default."""
        w = parse_quantity(width, unit="m")
        l_ = parse_quantity(length, unit="m")
        inst = MosfetInstance(name, drain, gate, source, bulk, params, w, l_)
        self._register(name, drain, gate, source, bulk)
        self._mosfets.append(inst)
        if with_parasitics:
            self._add_parasitics(inst.parasitic_caps())
        return inst

    def _add_parasitics(self, caps: Sequence[Tuple[str, str, str, float]]) -> None:
        """Add ``(name, a, b, farads)`` capacitors between registered nodes.

        :meth:`add_capacitor` for values already parsed and nodes already
        registered (a transistor's): a capacitor from a node to itself is
        skipped, and a zero-farad one claims its name only.
        """
        names, kept = self._element_names, self._capacitors
        for cap in caps:
            name, a, b, c = cap
            if a == b:
                continue
            if c < 0.0:
                raise NetlistError(
                    f"capacitor {name!r} must have non-negative capacitance")
            if name in names:
                raise NetlistError(f"duplicate element name {name!r}")
            names.add(name)
            if c > 0.0:
                kept.append(_Capacitor._make(cap))

    def replace_vsource(self, name: str, value: SourceValue) -> None:
        """Re-drive an existing source with a new value/waveform."""
        if name not in self._vsources:
            raise NetlistError(f"no voltage source named {name!r}")
        old = self._vsources[name]
        fn, breakpoints = _as_time_function(value, unit="V")
        self._vsources[name] = _VoltageSource(name, old.node, fn, breakpoints, value)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> frozenset[str]:
        return frozenset(self._nodes)

    @property
    def mosfets(self) -> tuple[MosfetInstance, ...]:
        return tuple(self._mosfets)

    @property
    def vsource_names(self) -> tuple[str, ...]:
        return tuple(self._vsources)

    def source_node(self, name: str) -> str:
        if name not in self._vsources:
            raise NetlistError(f"no voltage source named {name!r}")
        return self._vsources[name].node

    def driven_nodes(self) -> frozenset[str]:
        return frozenset(self._driven)

    def unknown_nodes(self) -> list[str]:
        """Nodes the solver must determine, in deterministic order."""
        driven = self.driven_nodes()
        return sorted(
            node for node in self._nodes
            if not self.is_ground(node) and node not in driven
        )

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def compile(self) -> "CompiledCircuit":
        """Freeze the netlist into the flat form the engines evaluate."""
        return CompiledCircuit(self)


class CompiledCircuit:
    """Index-based view of a :class:`Circuit` for the numerical engines.

    Node slots are encoded as integers: slot ``>= 0`` indexes the unknown
    vector; slot ``< 0`` indexes the known-voltage array as ``-slot - 1``
    (known voltages are ground plus source-driven nodes, refreshed per
    time point).

    Devices are arrays in netlist order, one column per device:
    ``res_nodes`` (rows ``a``, ``b``) and conductances ``res_g``,
    ``cap_nodes`` and capacitances ``cap_c``, ``mos_nodes`` (rows
    drain, gate, source), strengths ``mos_k`` and ``mos_card``, each
    transistor's index into the distinct model ``cards``.  Current
    sources stay ``(a, b, fn)`` tuples, since each carries a callable.
    """

    def __init__(self, circuit: Circuit) -> None:
        self.circuit = circuit
        self.unknown_names = circuit.unknown_nodes()
        self.n_unknown = len(self.unknown_names)
        if self.n_unknown == 0:
            raise NetlistError("circuit has no unknown nodes to solve for")

        # Known nodes: slot 0 reserved for ground, then each driven node.
        # Evaluation is pre-classified so the hot loops skip the
        # per-source Python closures: constants are baked into a base
        # list of floats, Pwl sources evaluate through their scalar
        # path, and only arbitrary callables pay a closure call per
        # sample.
        self._known_names: List[str] = ["0"]
        self._known_pwl: List[Tuple[int, Pwl]] = []
        self._known_dyn: List[Tuple[int, Callable[[float], float]]] = []
        breakpoints: set[float] = set()
        self._constant_index: Dict[str, int] = {}
        self._known_base: List[float] = [0.0]
        for src in circuit._vsources.values():
            kidx = len(self._known_names)
            self._known_names.append(src.node)
            breakpoints.update(src.breakpoints)
            self._known_base.append(0.0)
            if isinstance(src.spec, Pwl):
                self._known_pwl.append((kidx, src.spec))
            elif callable(src.spec):
                self._known_dyn.append((kidx, src.value))
            else:
                self._constant_index[src.name] = kidx
                self._known_base[kidx] = float(src.value(0.0))
        self.breakpoints: Tuple[float, ...] = tuple(sorted(breakpoints))

        # One table resolves every terminal: each netlist node not
        # unknown or driven is a ground alias.
        slot = dict.fromkeys(circuit._nodes, -1)
        slot.update(zip(self._known_names,
                        range(-1, -len(self._known_names) - 1, -1)))
        slot.update(zip(self.unknown_names, range(self.n_unknown)))
        lookup = slot.__getitem__

        def terminals(records: Sequence[tuple], *fields: str) -> np.ndarray:
            """The node slots of the records' ``fields``, one row each."""
            return np.array([
                np.fromiter(map(lookup, map(attrgetter(field), records)),
                            np.intp, len(records)) for field in fields])

        def values(records: Sequence[tuple], field: str) -> np.ndarray:
            return np.fromiter(map(attrgetter(field), records), float,
                               len(records))

        self.res_nodes = terminals(circuit._resistors, "a", "b")
        self.res_g = 1.0 / values(circuit._resistors, "resistance")
        self.cap_nodes = terminals(circuit._capacitors, "a", "b")
        self.cap_c = values(circuit._capacitors, "capacitance")
        self.isources = [(slot[s.a], slot[s.b], s.value)
                         for s in circuit._isources]

        mosfets = circuit._mosfets
        self.mos_nodes = terminals(mosfets, "drain", "gate", "source")
        # Model cards by identity, in order of first use.
        params = list(map(attrgetter("params"), mosfets))
        by_id = dict(zip(map(id, params), params))
        self.cards: Tuple[MosfetParams, ...] = tuple(by_id.values())
        position = dict(zip(by_id, range(len(by_id))))
        self.mos_card = np.fromiter(map(position.__getitem__, map(id, params)),
                                    np.intp, len(params))
        w, l_ = values(mosfets, "width"), values(mosfets, "length")
        bad = (w <= 0.0) | (l_ <= 0.0)
        if bad.any():
            first = mosfets[int(bad.argmax())]
            first.params.strength(first.width, first.length)  # raises
        kp = np.array([card.kp for card in self.cards], dtype=float)
        #: ``K = kp/2 * W/L`` per transistor, in
        #: :meth:`~repro.tech.MosfetParams.strength`'s operand order.
        self.mos_k = 0.5 * kp[self.mos_card] * w / l_

        self._stamp_plan = None

    @property
    def stamp_plan(self):
        """Compiled stamp structure of the Newton engine (lazy, cached)."""
        plan = self._stamp_plan
        if plan is None:
            from .stamps import StampPlan
            plan = StampPlan(self)
            self._stamp_plan = plan
        return plan

    @property
    def sources_flat_from(self) -> Optional[float]:
        """The time from which every source is constant, or ``None``.

        That is the last PWL breakpoint (``-inf`` when every source is a
        DC level).  ``None`` when a callable voltage source or any
        current source could still move at any time.
        """
        if self._known_dyn or self.isources:
            return None
        return self.breakpoints[-1] if self.breakpoints else -math.inf

    def with_waveforms(self, waves: Mapping[str, Pwl]) -> "CompiledCircuit":
        """A view of this circuit whose PWL sources follow ``waves``.

        ``waves`` maps every PWL-driven node, and nothing else, to its
        new waveform.  The view shares the structure -- device tables
        and the stamp plan, built here if it was not yet -- and owns its
        sources, breakpoints and constant levels, so views of one
        compiled circuit can run at once, in any threads; ``self`` is
        untouched.  As with :meth:`set_source_level`, ``view.circuit``
        keeps the sources the circuit was built with.
        """
        nodes = {self._known_names[kidx]: kidx for kidx, _ in self._known_pwl}
        if waves.keys() != nodes.keys():
            raise NetlistError(
                f"waveforms for {sorted(waves)} do not match the PWL-driven "
                f"nodes {sorted(nodes)}")
        self.stamp_plan  # shared by every view
        view = copy.copy(self)
        view._known_pwl = [(nodes[node], wave) for node, wave in waves.items()]
        view._known_base = list(self._known_base)
        view.breakpoints = tuple(sorted(set().union(
            *(wave.times.tolist() for wave in waves.values()))))
        return view

    # ------------------------------------------------------------------
    def known_list(self, t: float) -> List[float]:
        """Voltages of the known nodes (ground first) at time ``t``, as floats.

        The constant levels of the base list; each PWL source fills its
        slot through the scalar :class:`~repro.waveform.Pwl` path
        (bit-identical to ``np.interp``), and only arbitrary callables
        pay a closure call.
        """
        out = self._known_base.copy()
        if self._known_pwl:
            tf = float(t)
            for kidx, wave in self._known_pwl:
                out[kidx] = wave._eval_scalar(tf)
        for kidx, fn in self._known_dyn:
            out[kidx] = float(fn(t))
        return out

    def known_voltages(self, t: float) -> np.ndarray:
        """:meth:`known_list` as a fresh array."""
        return np.array(self.known_list(t))

    def set_source_level(self, name: str, level: float) -> None:
        """Re-drive constant source ``name`` at ``level`` volts in place.

        No structure depends on a constant level, so a DC sweep rebinds
        its swept sources here instead of recompiling at every point.
        Only :meth:`known_voltages` sees the new level: ``self.circuit``
        keeps its own source.  Time-varying sources are rejected.
        """
        try:
            kidx = self._constant_index[name]
        except KeyError:
            raise NetlistError(
                f"no constant voltage source named {name!r}") from None
        self._known_base[kidx] = float(level)

    def known_name(self, slot_index: int) -> str:
        return self._known_names[-slot_index - 1]

    def node_voltage_series(self, name: str, times: np.ndarray,
                            x_series: np.ndarray) -> np.ndarray:
        """Voltage samples of node ``name`` over a solved time series."""
        if Circuit.is_ground(name):
            return np.zeros_like(times)
        if name in self.unknown_names:
            return x_series[:, self.unknown_names.index(name)]
        if name not in self._known_names:
            raise NetlistError(f"node {name!r} not present in circuit")
        kidx = self._known_names.index(name)
        for pidx, wave in self._known_pwl:
            if pidx == kidx:
                return np.interp(np.asarray(times, dtype=float),
                                 wave.times, wave.values)
        for didx, fn in self._known_dyn:
            if didx == kidx:
                return np.array([fn(float(t)) for t in times])
        return np.full(len(times), self._known_base[kidx])
