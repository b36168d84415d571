"""Circuit netlist construction and compilation.

A :class:`Circuit` is built imperatively (``add_mosfet``,
``add_capacitor``, ``add_vsource``...) and then *compiled* into a
:class:`CompiledCircuit`: a flat, index-based description that the DC and
transient engines evaluate.  Compilation partitions nodes into

* **known** nodes -- ground and every source-driven node, whose voltage
  is a function of time, and
* **unknown** nodes -- everything else, solved by KCL.

Compilation fixes structure only: constant source levels live in one
base vector that :meth:`CompiledCircuit.set_source_level` rebinds in
place (a DC sweep compiles once), and each PWL source evaluates through
its own scalar :class:`~repro.waveform.Pwl` path per time point.

Restricting voltage sources to node-to-ground keeps the formulation
purely nodal; gate characterization never needs floating sources.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

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


@dataclass(frozen=True)
class _Resistor:
    name: str
    a: str
    b: str
    resistance: float


@dataclass(frozen=True)
class _Capacitor:
    name: str
    a: str
    b: str
    capacitance: float


@dataclass(frozen=True)
class _CurrentSource:
    """Current ``value`` flows from node ``a`` into node ``b``."""

    name: str
    a: str
    b: str
    value: Callable[[float], float]


@dataclass(frozen=True)
class _VoltageSource:
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
        for node in nodes:
            if not node:
                raise NetlistError(f"element {name!r} has an empty node name")
            self._nodes.add(node)

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
        for src in self._vsources.values():
            if src.node == node:
                raise NetlistError(f"node {node!r} is already driven by {src.name!r}")
        fn, breakpoints = _as_time_function(value, unit="V")
        self._register(name, node)
        self._vsources[name] = _VoltageSource(name, node, fn, breakpoints, value)

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
            for cap_name, a, b, c in inst.parasitic_caps():
                if a != b:
                    self.add_capacitor(cap_name, a, b, c)
        return inst

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
        return frozenset(src.node for src in self._vsources.values())

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
        # vector, Pwl sources evaluate through their scalar path, and
        # only arbitrary callables pay a closure call per sample.
        self._known_names: List[str] = ["0"]
        self._known_pwl: List[Tuple[int, Pwl]] = []
        self._known_dyn: List[Tuple[int, Callable[[float], float]]] = []
        breakpoints: set[float] = set()
        self._constant_index: Dict[str, int] = {}
        known_base: List[float] = [0.0]
        for src in circuit._vsources.values():
            kidx = len(self._known_names)
            self._known_names.append(src.node)
            breakpoints.update(src.breakpoints)
            known_base.append(0.0)
            if isinstance(src.spec, Pwl):
                self._known_pwl.append((kidx, src.spec))
            elif callable(src.spec):
                self._known_dyn.append((kidx, src.value))
            else:
                self._constant_index[src.name] = kidx
                known_base[kidx] = float(src.value(0.0))
        self._known_base = np.array(known_base, dtype=float)
        self.breakpoints: Tuple[float, ...] = tuple(sorted(breakpoints))

        slot: Dict[str, int] = {}
        for idx, name in enumerate(self.unknown_names):
            slot[name] = idx
        for kidx, name in enumerate(self._known_names):
            slot.setdefault(name, -kidx - 1)
        for g in GROUND_NAMES:
            slot.setdefault(g, -1)

        def node_slot(name: str) -> int:
            if Circuit.is_ground(name):
                return -1
            try:
                return slot[name]
            except KeyError:  # pragma: no cover - _register guarantees presence
                raise NetlistError(f"unknown node {name!r}") from None

        self.resistors = [
            (node_slot(r.a), node_slot(r.b), 1.0 / r.resistance)
            for r in circuit._resistors
        ]
        self.capacitors = [
            (node_slot(c.a), node_slot(c.b), c.capacitance)
            for c in circuit._capacitors
        ]
        self.isources = [
            (node_slot(s.a), node_slot(s.b), s.value) for s in circuit._isources
        ]
        self.mosfets = [
            (node_slot(m.drain), node_slot(m.gate), node_slot(m.source),
             m.params, m.k)
            for m in circuit._mosfets
        ]
        self.mosfet_instances = list(circuit._mosfets)

        # Total capacitance anchored at each unknown node: used by the
        # transient engine to sanity-check that every unknown node has a
        # path to reactive storage (otherwise dv/dt is undefined for the
        # integrator and the node is purely resistive -- allowed, but the
        # engine must know).
        cap_at = np.zeros(self.n_unknown)
        for a, b, c in self.capacitors:
            if a >= 0:
                cap_at[a] += c
            if b >= 0:
                cap_at[b] += c
        self.cap_at_unknown = cap_at

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

    # ------------------------------------------------------------------
    def known_voltages(self, t: float) -> np.ndarray:
        """Voltages of the known nodes (ground first) at time ``t``.

        A fresh copy of the constant-level base vector; each PWL source
        fills its slot through the scalar :class:`~repro.waveform.Pwl`
        path (bit-identical to ``np.interp``), and only arbitrary
        callables pay a closure call.
        """
        out = self._known_base.copy()
        if self._known_pwl:
            tf = float(t)
            for kidx, wave in self._known_pwl:
                out[kidx] = wave(tf)
        for kidx, fn in self._known_dyn:
            out[kidx] = fn(t)
        return out

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
        self._known_base[kidx] = level

    def voltage_of(self, slot_index: int, x: np.ndarray, known: np.ndarray) -> float:
        """Dereference a node slot against (unknown, known) voltage arrays."""
        if slot_index >= 0:
            return float(x[slot_index])
        return float(known[-slot_index - 1])

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
