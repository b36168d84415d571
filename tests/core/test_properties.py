"""Property-based tests of algorithm invariants (hypothesis).

These run against a *stub* dual model (no simulation), so they can
afford hundreds of examples: the invariants are structural properties
of the composition, not of the circuit.
"""

from hypothesis import example, given, settings, strategies as st
import pytest

from repro.core.algorithm import CorrectionPolicy, proximity_delay
from repro.waveform import Edge, FALL


def _dip(x, depth):
    """``1 - depth`` at ``x = 0``, rising smoothly to exactly 1 at |x| >= 1."""
    return 1.0 - depth * max(0.0, 1.0 - x * x) ** 2


class SmoothDual:
    """A deterministic, physically-shaped stub: ratio dips smoothly
    toward 0.5 near s* = 0 and is exactly 1 from the Section-3 window
    edges on (|s*| >= delta1 for delay, >= delta1 + tau1 for ttime), so
    the composed result is continuous where an input leaves a window."""

    def delay_ratio(self, tau_ref, tau_other, sep, *, delta1, load=None):
        return _dip(sep / delta1, 0.5)

    def ttime_ratio(self, tau_ref, tau_other, sep, *, tau1, delta1, load=None):
        return _dip(sep / (delta1 + tau1), 0.4)


def lookup(ref, other, direction):
    return SmoothDual()


def edge_strategy():
    return st.builds(
        lambda t, tau: Edge(FALL, t * 1e-12, tau * 1e-12),
        st.integers(min_value=-500, max_value=500),
        st.integers(min_value=50, max_value=2000),
    )


def config_strategy(n_inputs=3):
    return st.lists(edge_strategy(), min_size=1, max_size=n_inputs)


def run(edges_list, **kwargs):
    names = [f"x{i}" for i in range(len(edges_list))]
    edges = dict(zip(names, edges_list))
    delta1 = {n: 150e-12 + 0.3 * edges[n].tau for n in names}
    tau1 = {n: 200e-12 + 0.4 * edges[n].tau for n in names}
    return proximity_delay(edges, delta1, tau1, lookup, **kwargs)


class TestInvariants:
    @settings(max_examples=120)
    @given(config_strategy())
    def test_results_always_positive(self, edges_list):
        result = run(edges_list)
        assert result.delay > 0.0
        assert result.ttime > 0.0

    @settings(max_examples=120)
    @given(config_strategy())
    def test_insertion_order_irrelevant(self, edges_list):
        """Dict insertion order must not change the outcome."""
        forward = run(edges_list)
        names = [f"x{i}" for i in range(len(edges_list))]
        edges_rev = dict(reversed(list(zip(names, edges_list))))
        delta1 = {n: 150e-12 + 0.3 * edges_rev[n].tau for n in names}
        tau1 = {n: 200e-12 + 0.4 * edges_rev[n].tau for n in names}
        backward = proximity_delay(edges_rev, delta1, tau1, lookup)
        assert backward.delay == pytest.approx(forward.delay, rel=1e-12)
        assert backward.ttime == pytest.approx(forward.ttime, rel=1e-12)
        assert backward.reference == forward.reference

    @settings(max_examples=120)
    @given(config_strategy())
    # Separation 315 ps equals delta1 of the first edge: the shift flips
    # the delay-window test by rounding.
    @example([Edge(FALL, -69e-12, 550e-12), Edge(FALL, 246e-12, 50e-12)])
    def test_time_translation_invariance(self, edges_list):
        """Shifting every edge by a constant shifts nothing relative."""
        base = run(edges_list)
        shifted = run([e.shifted(3e-9) for e in edges_list])
        assert shifted.delay == pytest.approx(base.delay, rel=1e-9)
        assert shifted.ttime == pytest.approx(base.ttime, rel=1e-9)

    @settings(max_examples=120)
    @given(config_strategy())
    def test_proximity_never_slows_beyond_single_with_speedup_model(
            self, edges_list):
        """With a pure speed-up dual model (ratio <= 1), the composed
        delay never exceeds the reference's single-input delay."""
        result = run(edges_list)
        assert result.raw_delay <= result.delta1[result.reference] + 1e-18

    @settings(max_examples=80)
    @given(config_strategy(), st.sampled_from(["paper", "scaled", "off"]))
    def test_correction_bounded_by_step_error(self, edges_list, policy):
        step_error = (7e-12, 3e-12)
        result = run(edges_list, step_error=step_error,
                     correction=CorrectionPolicy(policy))
        assert abs(result.delay_correction) <= abs(step_error[0]) + 1e-18
        assert abs(result.ttime_correction) <= abs(step_error[1]) + 1e-18

    @settings(max_examples=80)
    @given(config_strategy())
    def test_far_inputs_do_not_change_result(self, edges_list):
        """Adding an input far outside every window is a no-op."""
        base = run(edges_list)
        names = [f"x{i}" for i in range(len(edges_list))]
        edges = dict(zip(names, edges_list))
        edges["far"] = Edge(FALL, 1.0, 100e-12)  # one full second away
        delta1 = {n: 150e-12 + 0.3 * edges[n].tau for n in edges}
        tau1 = {n: 200e-12 + 0.4 * edges[n].tau for n in edges}
        bigger = proximity_delay(edges, delta1, tau1, lookup)
        assert bigger.delay == pytest.approx(base.delay, rel=1e-12)
