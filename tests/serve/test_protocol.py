"""Request validation, signatures and the shared CLI/serve language."""

import pytest

from repro.errors import ReproError
from repro.serve.protocol import (
    MAX_GATE_INPUTS,
    BadRequest,
    build_gate,
    parse_characterize_request,
    parse_delay_request,
    parse_edge_spec,
)

GOOD = {"gate": "nand3", "process": "default", "load": "100f",
        "mode": "oracle", "correction": "paper",
        "edges": ["a:fall:500ps", "b:fall:700ps:50ps"]}


def query(**overrides):
    obj = dict(GOOD)
    obj.update(overrides)
    return obj


class TestDelayParsing:
    def test_good_request_parses(self):
        q = parse_delay_request(GOOD)
        assert q.gate == "nand3"
        assert q.mode == "oracle"
        assert [pin for pin, _ in q.edges] == ["a", "b"]
        a = dict(q.edges)["a"]
        assert a.direction == "fall"
        assert a.tau == pytest.approx(500e-12)

    def test_defaults_match_the_cli(self):
        q = parse_delay_request({"edges": ["a:fall:500ps"]})
        assert (q.gate, q.process, q.mode, q.correction) == (
            "nand3", "default", "oracle", "paper")
        assert q.load == pytest.approx(100e-15)

    def test_edge_objects_equal_edge_specs(self):
        via_obj = parse_delay_request(query(edges=[
            {"input": "a", "direction": "fall", "tau": "500ps"},
            {"input": "b", "direction": "fall", "tau": "700ps", "at": "50ps"},
        ]))
        via_spec = parse_delay_request(GOOD)
        assert via_obj == via_spec
        assert via_obj.signature() == via_spec.signature()

    def test_signature_hashes_parsed_values(self):
        """``0.5ns`` and ``500ps`` are one cache entry."""
        a = parse_delay_request(query(edges=["a:fall:500ps"]))
        b = parse_delay_request(query(edges=["a:fall:0.5ns"]))
        assert a.signature() == b.signature()

    def test_signature_separates_correction(self):
        a = parse_delay_request(query(correction="paper"))
        b = parse_delay_request(query(correction="off"))
        assert a.signature() != b.signature()

    def test_signature_keeps_edge_order(self):
        """Edge order is the CLI's ``--edge`` order; two orders are two
        requests, never silently merged."""
        a = parse_delay_request(query(edges=["a:fall:500ps", "b:fall:500ps"]))
        b = parse_delay_request(query(edges=["b:fall:500ps", "a:fall:500ps"]))
        assert a.signature() != b.signature()

    @pytest.mark.parametrize("spelling,canonical", [
        ("nand", "nand2"), ("nand03", "nand3"), ("NAND3", "nand3"),
        ("inverter", "inv"),
    ])
    def test_spellings_share_the_canonical_cell(self, spelling, canonical):
        """Every spelling of one cell keys the same warm context and
        response-cache entry."""
        spelled = parse_delay_request(query(gate=spelling,
                                            edges=["a:fall:500ps"]))
        ref = parse_delay_request(query(gate=canonical,
                                        edges=["a:fall:500ps"]))
        assert spelled.gate == canonical
        assert spelled.config_signature() == ref.config_signature()
        assert spelled.signature() == ref.signature()


class TestDelayRejections:
    @pytest.mark.parametrize("bad", [
        None, 42, "delay please", ["a:fall:500ps"],
    ])
    def test_non_object_request(self, bad):
        with pytest.raises(BadRequest):
            parse_delay_request(bad)

    @pytest.mark.parametrize("field,value", [
        ("gate", "xor9"),
        ("process", "tsmc7"),
        ("mode", "psychic"),
        ("correction", "maybe"),
        ("load", "100 parsecs"),
        ("load", True),
        ("edges", []),
        ("edges", "a:fall:500ps"),
        ("edges", ["a:fall"]),
        ("edges", ["a:sideways:500ps"]),
        ("edges", ["z:fall:500ps"]),
        ("edges", ["a:fall:500ps", "a:rise:200ps"]),
        ("edges", [{"input": "a", "direction": "fall"}]),
        ("edges", [7]),
        ("edges", [{"input": "a", "direction": "fall", "tau": float("nan")}]),
        ("load", float("nan")),
        ("edges", [{"input": "a", "direction": "fall", "tau": 1e300}]),
        ("edges", [{"input": "a", "direction": "fall", "tau": "500ps",
                    "at": float("inf")}]),
        ("edges", ["a:fall:500ps", {"input": "b", "direction": "fall",
                                    "tau": "700ps", "at": float("nan")}]),
        # JSON integer literals too large for a float.
        pytest.param("load", 10 ** 400, id="load-huge-int"),
        pytest.param("edges", [{"input": "a", "direction": "fall",
                                "tau": 10 ** 400}], id="edges-huge-int"),
    ])
    def test_invalid_field_raises_bad_request(self, field, value):
        with pytest.raises(BadRequest):
            parse_delay_request(query(**{field: value}))

    @pytest.mark.parametrize("tau", ["1e-300s", "1e-20s", "1e-17s", "0.9fs",
                                     9.99e-16, 0.0, "-5ps"])
    def test_transition_below_one_femtosecond(self, tau):
        """Edge specs and edge objects share the floor, and the 400
        names it."""
        spec = f"a:fall:{tau}" if isinstance(tau, str) else f"a:fall:{tau}s"
        edge = {"input": "a", "direction": "fall", "tau": tau}
        for edges in ([spec], [edge]):
            with pytest.raises(BadRequest, match="must be at least 1fs"):
                parse_delay_request(query(edges=edges))

    def test_one_femtosecond_transition_parses(self):
        via_spec = parse_delay_request(query(edges=["a:fall:1fs"]))
        via_obj = parse_delay_request(query(edges=[
            {"input": "a", "direction": "fall", "tau": 1e-15}]))
        assert via_spec == via_obj
        assert dict(via_spec.edges)["a"].tau == 1e-15

    def test_message_names_the_unknown_pin(self):
        with pytest.raises(BadRequest, match="'z' is not an input"):
            parse_delay_request(query(edges=["z:fall:500ps"]))

    @pytest.mark.parametrize("gate", ["nand7", "NOR8", "nand24", "nor26"])
    def test_wide_gate_names_the_input_limit(self, gate):
        """A VTC family costs 2^N - 1 DC sweeps: a wide gate ends in a
        400 naming the limit, before any simulation starts."""
        with pytest.raises(BadRequest, match=f"at most {MAX_GATE_INPUTS}"):
            parse_delay_request(query(gate=gate))

    @pytest.mark.parametrize("gate", ["nandx", "nor-2", "nand2.5",
                                      "nand\u0663", "nor\uff12"])
    def test_malformed_width_is_unknown_gate(self, gate):
        """Widths are ASCII digits: an Arabic-Indic three or a
        full-width two would otherwise build a NAND3 or a NOR2 under a
        second name."""
        with pytest.raises(BadRequest, match="unknown gate"):
            parse_delay_request(query(gate=gate))

    def test_widest_gates_still_parse(self):
        for gate in (f"nand{MAX_GATE_INPUTS}", f"nor{MAX_GATE_INPUTS}"):
            assert parse_delay_request(query(gate=gate)).gate == gate


class TestCharacterizeParsing:
    def test_good_request(self):
        q = parse_characterize_request(
            {"gate": "inv", "load": "50f", "fast": True})
        assert q.gate == "inv"
        assert q.fast is True
        assert q.load == pytest.approx(50e-15)

    def test_fast_must_be_boolean(self):
        with pytest.raises(BadRequest):
            parse_characterize_request({"gate": "inv", "fast": "yes"})

    def test_signatures_separate_grids(self):
        fast = parse_characterize_request({"gate": "inv", "fast": True})
        full = parse_characterize_request({"gate": "inv", "fast": False})
        assert fast.signature() != full.signature()


class TestSharedLanguage:
    @pytest.mark.parametrize("kind,n_inputs", [
        ("nand2", 2), ("nand3", 3), ("nor2", 2), ("inv", 1),
        ("inverter", 1), ("aoi21", 3), ("oai21", 3), ("aoi22", 4),
    ])
    def test_build_gate_kinds(self, kind, n_inputs):
        gate = build_gate(kind, "default", "100f")
        assert gate.n_inputs == n_inputs

    def test_build_gate_unknown_kind(self):
        with pytest.raises(ReproError, match="unknown gate"):
            build_gate("xor9", "default", "100f")

    def test_parse_edge_spec_roundtrip(self):
        pin, edge = parse_edge_spec("b:rise:700ps:50ps")
        assert pin == "b"
        assert edge.direction == "rise"
        assert edge.tau == pytest.approx(700e-12)
        assert edge.t_cross == pytest.approx(50e-12)

    def test_parse_edge_spec_rejects_wrong_arity(self):
        with pytest.raises(ReproError, match="must be PIN:DIR:TAU"):
            parse_edge_spec("a:fall")
