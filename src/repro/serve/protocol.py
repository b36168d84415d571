"""The serve wire protocol: request validation, signatures, rendering.

The request language is deliberately *the CLI's language*: a gate is
named exactly as ``repro delay --gate`` names it, an edge is the same
``PIN:DIR:TAU[:AT]`` spec (or an equivalent JSON object), and the
response embeds the same report text ``repro delay`` prints.  The CLI
imports its gate/edge parsing and report rendering from here, so a
served response is bit-identical to the CLI run by construction -- one
parser, one renderer, one solver.

Malformed requests raise :class:`BadRequest`, which the server maps to
HTTP 400 with the message in the JSON error body.  Every valid query
exposes a canonical content signature (:meth:`DelayQuery.signature`)
that keys the server's TTL+LRU response cache; the signature hashes the
*parsed* values (seconds, farads, normalized directions), so ``500ps``
and ``0.5ns`` are the same cache entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from ..charlib.cache import _canonical_hash
from ..core.algorithm import ProximityResult
from ..errors import ReproError
from ..gates import Gate
from ..tech.presets import PROCESSES
from ..units import format_quantity, parse_quantity
from ..waveform import Edge

__all__ = [
    "BadRequest", "MAX_GATE_INPUTS", "build_gate", "parse_edge_spec",
    "DelayQuery", "CharacterizeQuery", "parse_delay_request",
    "parse_characterize_request", "delay_result_payload", "format_delay_report",
]

MODES = ("oracle", "table")
CORRECTIONS = ("paper", "scaled", "off")


class BadRequest(ReproError):
    """A malformed or invalid request (server answers HTTP 400)."""


#: The widest ``nandN``/``norN`` accepted.  Thresholds come from a VTC
#: family of 2^N - 1 DC sweeps: cold, on a 2-vCPU Xeon, 2.6 s for
#: nand6, 4.6 s for nand7 and 23 s for nand8, and the sweep count
#: doubles with every further input.
MAX_GATE_INPUTS = 6


def _input_count(kind: str, prefix: str) -> int:
    digits = kind[len(prefix):] or "2"
    if not (digits.isascii() and digits.isdecimal()):
        raise ReproError(f"unknown gate {kind!r} (try nand3, nor2, inv, aoi21)")
    n = int(digits)
    if n > MAX_GATE_INPUTS:
        raise ReproError(
            f"gate {kind!r} has {n} inputs; at most {MAX_GATE_INPUTS} are "
            f"supported (its thresholds need 2^N - 1 DC sweeps)")
    return n


def build_gate(kind: str, process_name: str, load: Any) -> Gate:
    """Build the gate a ``--gate/--process/--load`` triple names.

    This is the CLI's cell-naming rule (``nandN``, ``norN`` up to
    :data:`MAX_GATE_INPUTS` inputs, ``N`` in ASCII digits, ``inv``,
    ``aoi21``, ``oai21``, ``aoi22``); the serve protocol accepts exactly
    the same names.  Several spellings name one cell (``nand``,
    ``nand02`` and ``NAND2`` build ``nand2``); the built gate's ``name``
    is the canonical one, and building it again gives the same gate.
    """
    process = PROCESSES[process_name]()
    kind = kind.lower()
    load_f = parse_quantity(load, unit="F")
    if kind.startswith("nand"):
        return Gate.nand(_input_count(kind, "nand"), process, load=load_f)
    if kind.startswith("nor"):
        return Gate.nor(_input_count(kind, "nor"), process, load=load_f)
    if kind in ("inv", "inverter"):
        return Gate.inverter(process, load=load_f)
    if kind == "aoi21":
        return Gate.aoi21(process, load=load_f)
    if kind == "oai21":
        return Gate.oai21(process, load=load_f)
    if kind == "aoi22":
        return Gate.aoi22(process, load=load_f)
    raise ReproError(f"unknown gate {kind!r} (try nand3, nor2, inv, aoi21)")


def _bounded_quantity(field: str, value: Any, unit: str,
                      floor: float = -math.inf) -> float:
    """``value`` parsed in ``unit``: finite, at most 1 in magnitude, and
    at least ``floor``.

    1 s and 1 F are far beyond any gate, and far below the magnitudes
    where the oracle's femtosecond memo keys overflow; NaN would
    otherwise slip past every ``<=`` check downstream.  A JSON integer
    too large for a float is out of bounds too.
    """
    try:
        parsed = parse_quantity(value, unit=unit)
    except OverflowError:
        parsed = math.inf
    if not math.isfinite(parsed) or abs(parsed) > 1.0:
        raise BadRequest(
            f"{field} {value!r} must be finite and at most 1 {unit} "
            f"in magnitude")
    if parsed < floor:
        raise BadRequest(f"{field} {value!r} must be at least "
                         f"{format_quantity(floor, unit)}")
    return parsed


def _edge(direction: str, at: Any, tau: Any) -> Edge:
    """An edge from request fields.  A transition shorter than 1 fs is
    no ramp the simulator can step: its end rounds onto its start, or
    its steps underflow the integrator's minimum."""
    return Edge(direction, _bounded_quantity("at", at, "s"),
                _bounded_quantity("tau", tau, "s", floor=1e-15))


def parse_edge_spec(spec: str) -> Tuple[str, Edge]:
    """One ``PIN:DIR:TAU[:AT]`` edge spec (the CLI's ``--edge`` syntax)."""
    parts = spec.split(":")
    if len(parts) not in (3, 4):
        raise ReproError(
            f"edge spec {spec!r} must be PIN:DIR:TAU or PIN:DIR:TAU:AT")
    pin, direction, tau = parts[:3]
    at = parts[3] if len(parts) == 4 else "0s"
    return pin, _edge(direction, at, tau)


def _require(obj: Any, field: str, kind: type, default: Any = None) -> Any:
    value = obj.get(field, default)
    if value is None:
        raise BadRequest(f"request is missing required field {field!r}")
    if not isinstance(value, kind):
        raise BadRequest(
            f"field {field!r} must be {kind.__name__}, got {type(value).__name__}")
    return value


def _parse_request_edge(item: Any) -> Tuple[str, Edge]:
    """An edge as either a CLI spec string or a JSON object."""
    try:
        if isinstance(item, str):
            return parse_edge_spec(item)
        if isinstance(item, dict):
            pin = _require(item, "input", str)
            direction = _require(item, "direction", str)
            tau = item.get("tau")
            if tau is None:
                raise BadRequest("edge object is missing required field 'tau'")
            return pin, _edge(direction, item.get("at", "0s"), tau)
    except BadRequest:
        raise
    except (ReproError, ValueError, TypeError) as exc:
        raise BadRequest(f"bad edge {item!r}: {exc}") from exc
    raise BadRequest(
        f"each edge must be a 'PIN:DIR:TAU[:AT]' string or an object, "
        f"got {type(item).__name__}")


def _parse_gate_fields(obj: Dict[str, Any]) -> Tuple[str, float, Gate]:
    """The request's process, load and gate.  A query keys by
    ``gate.name``, so every spelling of one cell shares its warm context
    and cache entries."""
    kind = _require(obj, "gate", str, "nand3")
    process = _require(obj, "process", str, "default")
    if process not in PROCESSES:
        raise BadRequest(
            f"unknown process {process!r} (known: {', '.join(sorted(PROCESSES))})")
    load = obj.get("load", "100f")
    if not isinstance(load, (str, int, float)) or isinstance(load, bool):
        raise BadRequest(f"field 'load' must be a quantity, got {load!r}")
    try:
        load_f = _bounded_quantity("load", load, "F")
        gate = build_gate(kind, process, load_f)
    except (ReproError, ValueError) as exc:
        raise BadRequest(str(exc)) from exc
    return process, load_f, gate


@dataclass(frozen=True)
class DelayQuery:
    """One validated ``/delay`` request (the CLI's ``repro delay``)."""

    gate: str
    process: str
    load: float
    mode: str
    correction: str
    edges: Tuple[Tuple[str, Edge], ...]

    def config_signature(self) -> str:
        """Hash of the warm-context key (gate, process, load, mode)."""
        return _canonical_hash({
            "kind": "serve-context", "gate": self.gate,
            "process": self.process, "load": self.load, "mode": self.mode,
        })

    def signature(self) -> str:
        """Canonical content hash keying the response cache."""
        return _canonical_hash({
            "kind": "serve-delay", "gate": self.gate, "process": self.process,
            "load": self.load, "mode": self.mode, "correction": self.correction,
            "edges": [[pin, e.direction, e.tau, e.t_cross]
                      for pin, e in self.edges],
        })


@dataclass(frozen=True)
class CharacterizeQuery:
    """One validated ``/characterize`` request (table-mode library)."""

    gate: str
    process: str
    load: float
    fast: bool

    def signature(self) -> str:
        return _canonical_hash({
            "kind": "serve-characterize", "gate": self.gate,
            "process": self.process, "load": self.load, "fast": self.fast,
        })


def parse_delay_request(obj: Any) -> DelayQuery:
    """Validate one delay-request object into a :class:`DelayQuery`."""
    if not isinstance(obj, dict):
        raise BadRequest(
            f"delay request must be a JSON object, got {type(obj).__name__}")
    process, load_f, gate = _parse_gate_fields(obj)
    mode = _require(obj, "mode", str, "oracle")
    if mode not in MODES:
        raise BadRequest(f"unknown mode {mode!r} (known: {', '.join(MODES)})")
    correction = _require(obj, "correction", str, "paper")
    if correction not in CORRECTIONS:
        raise BadRequest(
            f"unknown correction {correction!r} "
            f"(known: {', '.join(CORRECTIONS)})")
    raw_edges = obj.get("edges")
    if not isinstance(raw_edges, list) or not raw_edges:
        raise BadRequest("field 'edges' must be a non-empty list")
    edges: List[Tuple[str, Edge]] = []
    seen = set()
    for item in raw_edges:
        pin, edge = _parse_request_edge(item)
        if pin not in gate.inputs:
            raise BadRequest(
                f"{pin!r} is not an input of {gate.name!r} "
                f"(inputs: {', '.join(gate.inputs)})")
        if pin in seen:
            raise BadRequest(f"duplicate edge for input {pin!r}")
        seen.add(pin)
        edges.append((pin, edge))
    return DelayQuery(gate=gate.name, process=process, load=load_f,
                      mode=mode, correction=correction, edges=tuple(edges))


def parse_characterize_request(obj: Any) -> CharacterizeQuery:
    """Validate one characterize-request object."""
    if not isinstance(obj, dict):
        raise BadRequest(
            f"characterize request must be a JSON object, "
            f"got {type(obj).__name__}")
    process, load_f, gate = _parse_gate_fields(obj)
    fast = obj.get("fast", False)
    if not isinstance(fast, bool):
        raise BadRequest(f"field 'fast' must be a boolean, got {fast!r}")
    return CharacterizeQuery(gate=gate.name, process=process, load=load_f,
                             fast=fast)


def delay_result_payload(result: ProximityResult) -> Dict[str, Any]:
    """A :class:`ProximityResult` as plain JSON (raw float seconds)."""
    return {
        "reference": result.reference,
        "order": list(result.order),
        "delay": result.delay,
        "ttime": result.ttime,
        "raw_delay": result.raw_delay,
        "raw_ttime": result.raw_ttime,
        "delay_correction": result.delay_correction,
        "ttime_correction": result.ttime_correction,
        "steps": [
            {
                "input": step.input_name,
                "separation": step.separation,
                "delay_ratio": step.delay_ratio,
                "ttime_ratio": step.ttime_ratio,
                "in_delay_window": step.in_delay_window,
                "in_ttime_window": step.in_ttime_window,
            }
            for step in result.steps
        ],
    }


def format_delay_report(result: ProximityResult) -> str:
    """The ``repro delay`` report text (exactly what the CLI prints)."""
    lines = [
        f"reference (dominant) input: {result.reference}",
        f"dominance order:            {' > '.join(result.order)}",
        f"delay:                      {format_quantity(result.delay, 's')}"
        f"  (raw {format_quantity(result.raw_delay, 's')}, "
        f"correction {format_quantity(result.delay_correction, 's')})",
        f"output transition time:     {format_quantity(result.ttime, 's')}",
    ]
    for fold in result.steps:
        windows = []
        if fold.in_delay_window:
            windows.append("delay")
        if fold.in_ttime_window:
            windows.append("ttime")
        lines.append(
            f"  folded {fold.input_name}: sep="
            f"{format_quantity(fold.separation, 's')} "
            f"D2={fold.delay_ratio:.3f} T2={fold.ttime_ratio:.3f} "
            f"({'+'.join(windows)})")
    return "\n".join(lines)
