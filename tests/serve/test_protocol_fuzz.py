"""Seeded fuzzing of the serve request parsers.

Thousands of generated request objects and edge specs -- wrong types,
NaN, infinities, huge and sub-femtosecond quantities, odd gate names,
duplicate pins, malformed specs -- go through
:func:`~repro.serve.protocol.parse_delay_request`,
:func:`~repro.serve.protocol.parse_characterize_request` and
:func:`~repro.serve.protocol.parse_edge_spec`.  A request either parses
or raises :class:`~repro.serve.protocol.BadRequest` (the server's 400),
never another exception (a 500).  ``parse_edge_spec`` is also the CLI's
``--edge`` parser, so on its own it raises any
:class:`~repro.errors.ReproError`, which the request path wraps.  Every
accepted ``tau``, ``at`` and ``load`` is finite and within the bounds of
``_bounded_quantity``: at most 1 s or 1 F in magnitude, and ``tau`` at
least 1 fs, and every accepted ``gate`` is the canonical name of the
cell it builds, so the server rebuilds the same gate from it.
"""

import math
import random

from repro.errors import ReproError
from repro.serve.protocol import (BadRequest, build_gate,
                                  parse_characterize_request,
                                  parse_delay_request, parse_edge_spec)

SEED = 20241019
DELAY_REQUESTS = 6000
CHARACTERIZE_REQUESTS = 2000
SPECS = 4000

GOOD_GATES = ["nand2", "nand3", "NAND3", "nor2", "nor3", "inv", "aoi21",
              "oai21", "nand6"]
ODD_GATES = ["nand0", "nand1", "nand7", "nand³", "nand٣", "nand", "nand-1",
             "nand2.5", "nor26", "NOR8", "inverter", "aoi22", "xor2", "",
             " nand3"]
ODD_PROCESSES = ["tsmc7", "", "Default"]
ODD_PINS = ["d", "f", "z", "A", "", " a"]
ODD_DIRECTIONS = ["FALL", "r", "f", "up", "", "fall "]
PREFIXES = ["", "a", "f", "p", "n", "u", "m", "k", "MEG", "T", "x"]
JUNK = [None, [], {}, [1.0], {"tau": 1.0}, True, False, b"5ps", object()]


def pick(rng: random.Random, good, odd, p_odd: float = 0.1):
    """Mostly ``good``; with probability ``p_odd`` a choice of ``odd``."""
    return rng.choice(odd) if rng.random() < p_odd else good


def odd_quantity(rng: random.Random, unit: str):
    """A quantity at or past the bounds, malformed, or of the wrong type."""
    roll = rng.random()
    if roll < 0.3:
        mantissa = rng.choice([
            f"{rng.uniform(-1000.0, 1000.0):.4g}", str(rng.randint(0, 999)),
            f"{10.0 ** rng.randint(-40, 40):g}", ".5", "-0", "1e999"])
        suffix = rng.choice(PREFIXES) + rng.choice([unit, "", "s", "F", "V"])
        return mantissa + rng.choice(["", " "]) + suffix
    if roll < 0.5:
        return rng.choice([1.0, -1.0]) * 10.0 ** rng.uniform(-320.0, 308.0)
    if roll < 0.7:
        return rng.choice([0.0, -0.0, math.nan, math.inf, -math.inf, 1.0,
                           -1.0, 1.0000001, 9.99e-16, 1e-15, 5e-324, 1e308])
    if roll < 0.8:
        return rng.choice([0, 1, -1, 2, 10 ** rng.randint(1, 400),
                           -(10 ** rng.randint(1, 400))])
    if roll < 0.9:
        return rng.choice(["nan", "inf", "-inf", "", "  ", "ps", "--5ps",
                           "5ps ps", "５ps", "1_000ps", "0x10", "5e", "e5",
                           "1e-20s", "0.9fs"])
    return rng.choice(JUNK)


def quantity(rng: random.Random, unit: str, low: float, high: float,
             prefix: str, p_odd: float = 0.25):
    """A ``tau``/``at``/``load`` value: mostly one in ``[low, high]`` (in
    ``prefix`` units), as a string or a float; otherwise an odd one."""
    if rng.random() < p_odd:
        return odd_quantity(rng, unit)
    value = rng.uniform(low, high)
    if rng.random() < 0.5:
        return f"{value:.4g}{prefix}{rng.choice([unit, ''])}"
    return value * {"p": 1e-12, "f": 1e-15}[prefix]


def tau(rng: random.Random):
    return quantity(rng, "s", 1.0, 2000.0, "p")


def at(rng: random.Random):
    return quantity(rng, "s", -500.0, 500.0, "p")


def edge_spec(rng: random.Random, pin: str = "a") -> str:
    """A ``PIN:DIR:TAU[:AT]`` string, sometimes malformed."""
    parts = [pick(rng, pin, ODD_PINS),
             pick(rng, rng.choice(["fall", "rise"]), ODD_DIRECTIONS),
             str(tau(rng))]
    if rng.random() < 0.5:
        parts.append(str(at(rng)))
    if rng.random() < 0.05:
        del parts[rng.randrange(len(parts))]
    if rng.random() < 0.05:
        parts.insert(rng.randrange(len(parts) + 1), rng.choice(["", "x"]))
    return ":".join(parts)


def edge_item(rng: random.Random, pin: str):
    """One entry of a request's ``edges``: a spec, an object or junk."""
    roll = rng.random()
    if roll < 0.45:
        return edge_spec(rng, pin)
    if roll < 0.97:
        item = {"input": pick(rng, pin, ODD_PINS + JUNK),
                "direction": pick(rng, rng.choice(["fall", "rise"]),
                                  ODD_DIRECTIONS + JUNK),
                "tau": tau(rng)}
        if rng.random() < 0.5:
            item["at"] = at(rng)
        if rng.random() < 0.03:
            del item[rng.choice(sorted(item))]
        return item
    return rng.choice(JUNK + [5, "a:fall"])


def gate_fields(rng: random.Random) -> dict:
    fields = {"gate": pick(rng, rng.choice(GOOD_GATES), ODD_GATES + JUNK),
              "process": pick(rng, rng.choice(["default", "fast", "slow"]),
                              ODD_PROCESSES + JUNK, 0.05),
              "load": quantity(rng, "F", 10.0, 500.0, "f")}
    if rng.random() < 0.05:
        del fields[rng.choice(sorted(fields))]
    return fields


def delay_request(rng: random.Random):
    if rng.random() < 0.02:
        return rng.choice(JUNK + ["delay please", 42])
    request = gate_fields(rng)
    request["mode"] = pick(rng, rng.choice(["oracle", "table"]),
                           ["psychic", 1, None], 0.05)
    request["correction"] = pick(rng, rng.choice(["paper", "scaled", "off"]),
                                 ["maybe", 0, None], 0.05)
    pins = rng.sample("abc", rng.randint(1, 3))
    if rng.random() < 0.1:
        pins.append(pins[0])  # a duplicate pin
    edges = [edge_item(rng, pin) for pin in pins]
    request["edges"] = pick(rng, edges, JUNK, 0.03)
    if rng.random() < 0.05:
        request["extra"] = odd_quantity(rng, "s")
    return request


def characterize_request(rng: random.Random):
    if rng.random() < 0.02:
        return rng.choice(JUNK + ["characterize", 7])
    request = gate_fields(rng)
    if rng.random() < 0.8:
        request["fast"] = pick(rng, rng.choice([True, False]),
                               ["yes", 1, 0, None])
    return request


def assert_bounded(value: float, floor: float = -1.0) -> None:
    assert isinstance(value, float)
    assert math.isfinite(value) and floor <= value <= 1.0, value


def assert_edge(edge) -> None:
    assert_bounded(edge.tau, floor=1e-15)
    assert_bounded(edge.t_cross)


def assert_canonical(query) -> None:
    """``query.gate`` is the built cell's own name."""
    assert build_gate(query.gate, query.process, query.load).name == \
        query.gate


def test_generated_requests_parse_or_answer_400():
    rng = random.Random(SEED)
    accepted = rejected = 0
    for _ in range(DELAY_REQUESTS):
        request = delay_request(rng)
        try:
            query = parse_delay_request(request)
        except BadRequest:
            rejected += 1
            continue
        accepted += 1
        assert_bounded(query.load)
        assert_canonical(query)
        pins = [pin for pin, _ in query.edges]
        assert pins and len(set(pins)) == len(pins)
        for _, edge in query.edges:
            assert_edge(edge)
    for _ in range(CHARACTERIZE_REQUESTS):
        request = characterize_request(rng)
        try:
            query = parse_characterize_request(request)
        except BadRequest:
            rejected += 1
            continue
        accepted += 1
        assert_bounded(query.load)
        assert_canonical(query)
        assert isinstance(query.fast, bool)
    for _ in range(SPECS):
        spec = edge_spec(rng, rng.choice("abc"))
        try:
            pin, edge = parse_edge_spec(spec)
        except ReproError:
            rejected += 1
        else:
            accepted += 1
            assert isinstance(pin, str)
            assert_edge(edge)
        try:
            parse_delay_request({"edges": [spec]})
        except BadRequest:
            pass
    # Both outcomes are well represented.
    assert accepted > 1000 and rejected > 1000, (accepted, rejected)
