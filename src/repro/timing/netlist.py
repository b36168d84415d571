"""Combinational gate-level netlists for timing analysis.

A :class:`TimingNetlist` is a DAG of :class:`GateInstance` objects over
named nets.  Each instance carries its own
:class:`~repro.core.DelayCalculator` (instances of the same cell type
normally share one, so characterization is reused).  Structural rules:

* every net has at most one driver (a gate output or a primary input),
* the gate graph must be acyclic (checked with :mod:`graphlib`),
* primary outputs are any nets the caller asks about; no explicit
  declaration is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from graphlib import CycleError, TopologicalSorter
from typing import Dict, List, Mapping, Optional, Tuple

from ..core.api import DelayCalculator
from ..errors import TimingError
from ..interconnect import WireSpec

__all__ = ["GateInstance", "TimingNetlist"]


@dataclass(frozen=True)
class GateInstance:
    """One placed gate: a calculator plus pin-to-net connectivity."""

    name: str
    calculator: DelayCalculator
    pin_nets: Mapping[str, str]
    output_net: str

    @property
    def gate(self):
        return self.calculator.gate

    def net_of(self, pin: str) -> str:
        try:
            return self.pin_nets[pin]
        except KeyError:
            raise TimingError(f"instance {self.name!r} has no pin {pin!r}") from None

    def pins_on_net(self, net: str) -> List[str]:
        return [pin for pin, n in self.pin_nets.items() if n == net]


class TimingNetlist:
    """A combinational netlist: primary inputs + gate instances."""

    def __init__(self, name: str = "design") -> None:
        self.name = name
        self._instances: Dict[str, GateInstance] = {}
        self._driver_of: Dict[str, str] = {}
        self._primary_inputs: List[str] = []
        self._wires: Dict[str, WireSpec] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_input(self, net: str) -> None:
        """Declare a primary-input net."""
        if not net:
            raise TimingError("primary input net name must be non-empty")
        if net in self._driver_of:
            raise TimingError(f"net {net!r} is already driven by {self._driver_of[net]!r}")
        if net in self._primary_inputs:
            raise TimingError(f"primary input {net!r} declared twice")
        self._primary_inputs.append(net)
        self._driver_of[net] = f"input:{net}"

    def add_gate(self, name: str, calculator: DelayCalculator,
                 pins: Mapping[str, str], output: str) -> GateInstance:
        """Place a gate instance.

        ``pins`` maps every input pin of the cell to a net; ``output``
        is the net driven by the gate's output.
        """
        if name in self._instances:
            raise TimingError(f"duplicate instance name {name!r}")
        gate = calculator.gate
        missing = [p for p in gate.inputs if p not in pins]
        if missing:
            raise TimingError(f"instance {name!r} is missing pins {missing!r}")
        extra = [p for p in pins if p not in gate.inputs]
        if extra:
            raise TimingError(f"instance {name!r} has unknown pins {extra!r}")
        if output in self._driver_of:
            raise TimingError(
                f"net {output!r} already driven by {self._driver_of[output]!r}"
            )
        instance = GateInstance(name, calculator, dict(pins), output)
        self._instances[name] = instance
        self._driver_of[output] = name
        return instance

    def set_wire(self, net: str, wire: WireSpec) -> None:
        """Annotate ``net`` with an RC wire between its driver and its
        receivers.  The timing analyzers add the wire's Elmore delay and
        slew degradation; the flattener emits matching pi sections."""
        if not net:
            raise TimingError("wire net name must be non-empty")
        self._wires[net] = wire

    def wire(self, net: str) -> Optional[WireSpec]:
        """The wire annotation of ``net``, if any."""
        return self._wires.get(net)

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def primary_inputs(self) -> Tuple[str, ...]:
        return tuple(self._primary_inputs)

    @property
    def instances(self) -> Tuple[GateInstance, ...]:
        return tuple(self._instances.values())

    def instance(self, name: str) -> GateInstance:
        try:
            return self._instances[name]
        except KeyError:
            raise TimingError(f"no instance named {name!r}") from None

    def nets(self) -> List[str]:
        """All nets, in deterministic order."""
        seen = dict.fromkeys(self._primary_inputs)
        for inst in self._instances.values():
            for net in inst.pin_nets.values():
                seen.setdefault(net)
            seen.setdefault(inst.output_net)
        return list(seen)

    def driver(self, net: str) -> Optional[GateInstance]:
        """The gate driving ``net`` (``None`` for primary inputs)."""
        owner = self._driver_of.get(net)
        if owner is None:
            raise TimingError(f"net {net!r} has no driver (floating)")
        if owner.startswith("input:"):
            return None
        return self._instances[owner]

    def loads(self, net: str) -> List[Tuple[GateInstance, str]]:
        """(instance, pin) pairs whose input connects to ``net``."""
        out = []
        for inst in self._instances.values():
            for pin, pin_net in inst.pin_nets.items():
                if pin_net == net:
                    out.append((inst, pin))
        return out

    def primary_outputs(self) -> List[str]:
        """Driven nets that no gate input consumes."""
        consumed = {
            net for inst in self._instances.values()
            for net in inst.pin_nets.values()
        }
        return [
            inst.output_net for inst in self._instances.values()
            if inst.output_net not in consumed
        ]

    def topological_order(self) -> List[GateInstance]:
        """Instances in evaluation order; raises on combinational cycles
        or floating input nets.

        Kahn's algorithm, generation by generation: the gates no other
        gate drives, in insertion order, then each gate as its last
        driver is released, in the order the driver->load edges were
        found (each counted once, however many pins share a net).
        """
        sorter = TopologicalSorter()
        for name in self._instances:
            sorter.add(name)
        for inst in self._instances.values():
            drivers = {}
            for net in inst.pin_nets.values():
                owner = self._driver_of.get(net)
                if owner is None:
                    raise TimingError(
                        f"net {net!r} (input of {inst.name!r}) has no driver; "
                        f"declare it with add_input()"
                    )
                if not owner.startswith("input:"):
                    drivers[owner] = None
            sorter.add(inst.name, *drivers)
        try:
            order = list(sorter.static_order())
        except CycleError as error:
            cycle = " -> ".join(error.args[1])
            raise TimingError(f"combinational cycle: {cycle}") from None
        return [self._instances[name] for name in order]
