"""Stimulus construction and response measurement."""

import pytest

from repro.charlib.simulate import (
    estimate_settle_time,
    multi_input_response,
    single_input_response,
)
from repro.errors import MeasurementError
from repro.waveform import Edge, FALL, RISE
from repro.waveform.pwl import Pwl


class TestSingleInput:
    def test_falling_input_rising_output(self, nand3, thresholds):
        shot = single_input_response(nand3, "a", FALL, 500e-12, thresholds)
        assert shot.delay > 0.0
        assert shot.out_ttime > 0.0
        assert shot.output.final_value() == pytest.approx(5.0, abs=0.05)

    def test_rising_input_falling_output(self, nand3, thresholds):
        shot = single_input_response(nand3, "a", RISE, 500e-12, thresholds)
        assert shot.delay > 0.0
        assert shot.output.final_value() == pytest.approx(0.0, abs=0.05)

    def test_delay_monotone_in_tau(self, nand3, thresholds):
        """The paper's chosen thresholds give delay monotonically
        increasing with input transition time."""
        delays = [
            single_input_response(nand3, "a", FALL, tau, thresholds).delay
            for tau in (100e-12, 400e-12, 1200e-12)
        ]
        assert delays[0] < delays[1] < delays[2]

    def test_positive_delay_for_very_slow_input(self, nand3, thresholds):
        """Section 2's whole point: even a 5 ns ramp yields positive delay."""
        shot = single_input_response(nand3, "a", FALL, 5e-9, thresholds)
        assert shot.delay > 0.0

    def test_delay_grows_with_load(self, nand3, thresholds):
        d_small = single_input_response(
            nand3, "a", FALL, 300e-12, thresholds, load=50e-15).delay
        d_large = single_input_response(
            nand3, "a", FALL, 300e-12, thresholds, load=200e-15).delay
        assert d_large > d_small

    def test_stack_position_affects_delay(self, nand3, thresholds):
        """Input nearest ground discharges through the full stack: the
        three pins have distinct single-input delays."""
        delays = {
            name: single_input_response(nand3, name, FALL, 500e-12, thresholds).delay
            for name in "abc"
        }
        assert len({round(d * 1e15) for d in delays.values()}) == 3


class TestMultiInput:
    def test_two_falling_inputs_speed_up_output(self, nand3, thresholds):
        lone = single_input_response(nand3, "b", FALL, 500e-12, thresholds)
        edges = {
            "b": Edge(FALL, 0.0, 500e-12),
            "a": Edge(FALL, 0.0, 500e-12),
        }
        both = multi_input_response(nand3, edges, thresholds, reference="b")
        assert both.delay < lone.delay

    def test_far_separation_matches_single(self, nand3, thresholds):
        lone = single_input_response(nand3, "a", FALL, 300e-12, thresholds)
        edges = {
            "a": Edge(FALL, 0.0, 300e-12),
            "b": Edge(FALL, 3e-9, 300e-12),  # far outside the window
        }
        both = multi_input_response(nand3, edges, thresholds, reference="a")
        assert both.delay == pytest.approx(lone.delay, rel=0.02)

    def test_reference_defaults_to_earliest(self, nand3, thresholds):
        edges = {
            "a": Edge(FALL, 100e-12, 300e-12),
            "b": Edge(FALL, 0.0, 300e-12),
        }
        shot = multi_input_response(nand3, edges, thresholds)
        assert shot.reference == "b"

    def test_empty_edges_rejected(self, nand3, thresholds):
        with pytest.raises(MeasurementError):
            multi_input_response(nand3, {}, thresholds)

    def test_unknown_input_rejected(self, nand3, thresholds):
        with pytest.raises(MeasurementError):
            multi_input_response(
                nand3, {"x": Edge(FALL, 0.0, 1e-10)}, thresholds)

    def test_vmin_vmax_recorded(self, nand3, thresholds):
        edges = {"a": Edge(FALL, 0.0, 300e-12)}
        shot = multi_input_response(nand3, edges, thresholds)
        assert shot.vmin <= shot.vmax
        assert shot.vmax == pytest.approx(5.0, abs=0.1)

    @pytest.mark.parametrize("direction", [FALL, RISE])
    def test_each_output_crossing_measured_once(self, nand3, thresholds,
                                                monkeypatch, direction):
        """The delay and the transition time share the output's onset
        crossings: a shot computes each threshold's crossings once."""
        computed = []
        original = Pwl._crossings

        def spy(self, level, want):
            computed.append((id(self), level, want))
            return original(self, level, want)

        monkeypatch.setattr(Pwl, "_crossings", spy)
        edges = {"a": Edge(direction, 0.0, 300e-12)}
        multi_input_response(nand3, edges, thresholds)
        assert len(computed) == len(set(computed))
        output = [entry for entry in computed
                  if entry[2] == nand3.output_direction(direction)]
        assert sorted(level for _, level, _ in output) == [thresholds.vil,
                                                           thresholds.vih]


class TestSettleEstimate:
    def test_scales_with_load(self, nand3):
        assert estimate_settle_time(nand3, 200e-15) > estimate_settle_time(
            nand3, 50e-15)

    def test_positive(self, nand3):
        assert estimate_settle_time(nand3, 100e-15) > 0.0
