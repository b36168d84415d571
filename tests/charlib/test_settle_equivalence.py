"""Shots that stop once the output has settled measure exactly what a
full-window shot measures.

Each seeded config runs three ways: scalar with the settle rule, batched
with the settle rule, and scalar over the full window (the rule switched
off).  Delays and transition times must be equal, failures must raise
the same exception with the same text, and the settled output waveform
must be a prefix of the full one.
"""

import numpy as np
import pytest

from repro import Gate
from repro.charlib import simulate
from repro.errors import MeasurementError
from repro.obs import recording
from repro.charlib.simulate import (
    SETTLE_TOLERANCE,
    multi_input_response,
    multi_input_response_batch,
)
from repro.waveform import FALL, RISE, Edge

GATES = ("nand2", "nand3", "nor2", "nor3", "aoi21")


def _gates(process):
    return {
        "nand2": Gate.nand(2, process), "nand3": Gate.nand(3, process),
        "nor2": Gate.nor(2, process), "nor3": Gate.nor(3, process),
        "aoi21": Gate.aoi21(process),
    }


def _configs(process, n=40, seed=1996):
    """``(gate, edges, reference, load, mixed)`` configs.

    Every other config is mixed: at least two edges, the last one
    opposite to the first, which is the reference.  Half of the mixed
    configs move the opposite edge up to 1.5 ns ahead, so the output
    glitches before the reference's transition; the rest mostly end
    in a measurement failure.
    """
    rng = np.random.default_rng(seed)
    gates = _gates(process)
    configs = []
    for i in range(n):
        gate = gates[GATES[i % len(GATES)]]
        mixed = i % 2 == 1
        count = int(rng.integers(2 if mixed else 1, gate.n_inputs + 1))
        pins = [str(p) for p in rng.choice(gate.inputs, size=count, replace=False)]
        first = FALL if rng.random() < 0.5 else RISE
        edges = {}
        for j, pin in enumerate(pins):
            direction = first
            if mixed and j == len(pins) - 1:
                direction = RISE if first == FALL else FALL
            elif mixed and j > 0 and rng.random() < 0.5:
                direction = RISE if first == FALL else FALL
            tau = float(np.exp(rng.uniform(np.log(50e-12), np.log(1500e-12))))
            at = round(float(rng.uniform(-500e-12, 500e-12)), 12)
            if mixed and j == len(pins) - 1 and i % 4 == 1:
                at = round(edges[pins[0]].t_cross
                           - float(rng.uniform(0.0, 1500e-12)), 12)
            edges[pin] = Edge(direction, at, tau)
        load = float(rng.uniform(50e-15, 200e-15))
        configs.append((gate, edges, pins[0] if mixed else None, load, mixed))
    return configs


def _outcome(call):
    try:
        return call()
    except Exception as exc:  # compared by type and text below
        return exc


def _full_window(gate, edges, thresholds, reference, load):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulate, "_settle_rule", lambda *args: None)
        return _outcome(lambda: multi_input_response(
            gate, edges, thresholds, reference=reference, load=load))


def _assert_same(settled, full, vdd):
    if isinstance(full, Exception):
        assert type(settled) is type(full)
        assert str(settled) == str(full)
        return
    assert settled.delay == full.delay
    assert settled.out_ttime == full.out_ttime
    assert settled.reference == full.reference
    tol = SETTLE_TOLERANCE * vdd
    assert abs(settled.vmin - full.vmin) <= tol
    assert abs(settled.vmax - full.vmax) <= tol
    m = len(settled.output.times)
    assert np.array_equal(settled.output.times, full.output.times[:m])
    assert np.array_equal(settled.output.values, full.output.values[:m])


@pytest.fixture(scope="module")
def outcomes(process, thresholds):
    """Per config: (gate, mixed, full, scalar, batched)."""
    configs = _configs(process)
    rows = []
    for gate, edges, reference, load, mixed in configs:
        full = _full_window(gate, edges, thresholds, reference, load)
        scalar = _outcome(lambda: multi_input_response(
            gate, edges, thresholds, reference=reference, load=load))
        rows.append([gate, mixed, full, scalar, None])
    for name in GATES:
        lanes = [i for i, (gate, *_rest) in enumerate(configs)
                 if gate.name == name]
        batched = multi_input_response_batch(
            configs[lanes[0]][0], [configs[i][1:4] for i in lanes], thresholds)
        for i, outcome in zip(lanes, batched):
            rows[i][4] = outcome
    return rows


def test_scalar_shots_match_the_full_window(outcomes):
    for gate, _mixed, full, scalar, _batched in outcomes:
        _assert_same(scalar, full, gate.process.vdd)


def test_batched_shots_match_the_full_window(outcomes):
    for gate, _mixed, full, _scalar, batched in outcomes:
        _assert_same(batched, full, gate.process.vdd)


def test_configs_cover_both_outcomes_and_directions(outcomes):
    measured = [row for row in outcomes if not isinstance(row[2], Exception)]
    failed = [row for row in outcomes if isinstance(row[2], Exception)]
    assert len(outcomes) >= 40
    assert any(not mixed for _g, mixed, *_ in measured)
    assert failed
    # A glitch followed by the reference's transition, cut at the settle
    # point: the "last crossing" measurements see the whole of it.
    assert any(mixed and len(scalar.output.times) < len(full.output.times)
               for _g, mixed, full, scalar, _b in measured)


def test_same_direction_shots_end_early(outcomes):
    """The saving: every same-direction shot stops before its window."""
    for _gate, mixed, full, scalar, _batched in outcomes:
        if not mixed:
            assert len(scalar.output.times) < len(full.output.times)


def test_returning_glitch_runs_its_whole_window(process, thresholds):
    """NAND2: ``a`` rises and discharges 3 pF; ``b`` falls 30 ns later
    in 2 ps.  When ``b``'s ramp ends the output still sits within the
    tolerance of 0 V, the rail the measured transition ends on, but the
    final inputs pull it back to Vdd: the shot gets no settle rule, and
    its waveform ends at Vdd like the full window's."""
    gate, load = Gate.nand(2, process), 3e-12
    edges = {"a": Edge(RISE, 0.0, 100e-12), "b": Edge(FALL, 30e-9, 2e-12)}
    shot = multi_input_response(gate, edges, thresholds, reference="a", load=load)
    full = _full_window(gate, edges, thresholds, "a", load)
    vdd = process.vdd
    _assert_same(shot, full, vdd)
    b_end = edges["b"].to_pwl(thresholds).t_end
    assert abs(full.output(b_end)) <= SETTLE_TOLERANCE * vdd
    assert len(shot.output.times) == len(full.output.times)
    assert shot.output.final_value() == pytest.approx(vdd, abs=1e-3)


def test_returning_glitch_gives_up_after_one_window(process, thresholds):
    """NAND2: ``b`` falls while ``a``'s rise is still discharging the
    output, and the final inputs hold it at Vdd.  Once every input is
    flat no longer window can complete the fall, so the shot raises
    after one transient analysis (the 2x and 4x windows used to run
    too) with the message those three windows produced."""
    gate = Gate.nand(2, process)
    edges = {"a": Edge(RISE, 0.0, 500e-12), "b": Edge(FALL, 50e-12, 50e-12)}
    for run in (
        lambda: multi_input_response(gate, edges, thresholds, reference="a",
                                     load=100e-15),
        lambda: multi_input_response_batch(
            gate, [(edges, "a", 100e-15)], thresholds)[0],
    ):
        with recording() as rec:
            outcome = _outcome(run)
        assert type(outcome) is MeasurementError
        assert str(outcome) == (
            "output of 'nand2' never completed its fall transition within "
            "3 window doublings: waveform never crosses 3.495 (fall)")
        counters = rec.metrics_payload()["counters"]
        assert counters["spice.transient.analyses"] == 1
