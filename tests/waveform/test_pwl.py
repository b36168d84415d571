"""Pwl waveform construction, evaluation, transforms and crossings."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import MeasurementError
from repro.waveform import Pwl, ramp, ramp_crossing_at, step


class TestConstruction:
    def test_basic(self):
        wf = Pwl([0.0, 1.0, 2.0], [0.0, 5.0, 5.0])
        assert len(wf) == 3
        assert wf.t_start == 0.0
        assert wf.t_end == 2.0

    def test_single_point(self):
        wf = Pwl([1.0], [3.0])
        assert wf(0.0) == 3.0
        assert wf(99.0) == 3.0

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(MeasurementError):
            Pwl([0.0, 1.0], [1.0])

    def test_rejects_non_increasing_times(self):
        with pytest.raises(MeasurementError):
            Pwl([0.0, 1.0, 1.0], [0.0, 1.0, 2.0])
        with pytest.raises(MeasurementError):
            Pwl([0.0, 2.0, 1.0], [0.0, 1.0, 2.0])

    def test_rejects_empty(self):
        with pytest.raises(MeasurementError):
            Pwl([], [])

    def test_rejects_nonfinite(self):
        with pytest.raises(MeasurementError):
            Pwl([0.0, np.inf], [0.0, 1.0])
        with pytest.raises(MeasurementError):
            Pwl([0.0, 1.0], [0.0, np.nan])

    def test_immutable_arrays(self):
        wf = Pwl([0.0, 1.0], [0.0, 5.0])
        with pytest.raises(ValueError):
            wf.times[0] = -1.0

    def test_equality_and_hash(self):
        a = Pwl([0.0, 1.0], [0.0, 5.0])
        b = Pwl([0.0, 1.0], [0.0, 5.0])
        c = Pwl([0.0, 1.0], [0.0, 4.0])
        assert a == b
        assert hash(a) == hash(b)
        assert a != c


class TestEvaluation:
    def test_interpolation(self):
        wf = Pwl([0.0, 2.0], [0.0, 10.0])
        assert wf(1.0) == pytest.approx(5.0)

    def test_clamped_extrapolation(self):
        wf = Pwl([1.0, 2.0], [3.0, 7.0])
        assert wf(0.0) == 3.0
        assert wf(10.0) == 7.0

    def test_vectorized(self):
        wf = Pwl([0.0, 1.0], [0.0, 10.0])
        out = wf(np.array([0.0, 0.5, 1.0, 2.0]))
        assert np.allclose(out, [0.0, 5.0, 10.0, 10.0])

    def test_min_max(self):
        wf = Pwl([0.0, 1.0, 2.0], [1.0, -2.0, 3.0])
        assert wf.min() == -2.0
        assert wf.max() == 3.0

    def test_initial_final(self):
        wf = Pwl([0.0, 1.0], [2.0, 9.0])
        assert wf.initial_value() == 2.0
        assert wf.final_value() == 9.0

    def test_derivative_between(self):
        wf = Pwl([0.0, 2.0], [0.0, 10.0])
        assert wf.derivative_between(0.0, 2.0) == pytest.approx(5.0)
        with pytest.raises(MeasurementError):
            wf.derivative_between(1.0, 1.0)


class TestTransforms:
    def test_shifted(self):
        wf = Pwl([0.0, 1.0], [0.0, 5.0]).shifted(2.0)
        assert wf.t_start == 2.0
        assert wf(2.5) == pytest.approx(2.5)

    def test_shifted_quantity_string(self):
        wf = Pwl([0.0, 1e-9], [0.0, 5.0]).shifted("1ns")
        assert wf.t_start == pytest.approx(1e-9)

    def test_scaled(self):
        wf = Pwl([0.0, 1.0], [1.0, 2.0]).scaled(2.0, offset=1.0)
        assert wf(0.0) == pytest.approx(3.0)
        assert wf(1.0) == pytest.approx(5.0)

    def test_clipped(self):
        wf = Pwl([0.0, 1.0, 2.0], [-1.0, 6.0, 2.0]).clipped(0.0, 5.0)
        assert wf.min() == 0.0
        assert wf.max() == 5.0
        with pytest.raises(MeasurementError):
            wf.clipped(1.0, 0.0)

    def test_windowed(self):
        wf = Pwl([0.0, 2.0], [0.0, 10.0]).windowed(0.5, 1.5)
        assert wf.t_start == pytest.approx(0.5)
        assert wf.t_end == pytest.approx(1.5)
        assert wf(0.5) == pytest.approx(2.5)
        with pytest.raises(MeasurementError):
            wf.windowed(1.0, 1.0)

    def test_resampled(self):
        wf = Pwl([0.0, 1.0], [0.0, 10.0]).resampled([0.0, 0.25, 0.5, 1.0])
        assert len(wf) == 4
        assert wf(0.25) == pytest.approx(2.5)


class TestCrossings:
    def test_rising(self):
        wf = Pwl([0.0, 1.0], [0.0, 10.0])
        assert wf.crossings(5.0, "rise") == [pytest.approx(0.5)]
        assert wf.crossings(5.0, "fall") == []

    def test_falling(self):
        wf = Pwl([0.0, 1.0], [10.0, 0.0])
        assert wf.crossings(2.5, "fall") == [pytest.approx(0.75)]

    def test_both_directions(self):
        wf = Pwl([0.0, 1.0, 2.0], [0.0, 10.0, 0.0])
        hits = wf.crossings(5.0)
        assert len(hits) == 2
        assert hits[0] == pytest.approx(0.5)
        assert hits[1] == pytest.approx(1.5)

    def test_first_and_last(self):
        wf = Pwl([0.0, 1.0, 2.0, 3.0], [0.0, 10.0, 0.0, 10.0])
        assert wf.first_crossing(5.0, "rise") == pytest.approx(0.5)
        assert wf.last_crossing(5.0, "rise") == pytest.approx(2.5)

    def test_missing_raises(self):
        wf = Pwl([0.0, 1.0], [0.0, 1.0])
        with pytest.raises(MeasurementError):
            wf.first_crossing(5.0)
        with pytest.raises(MeasurementError):
            wf.last_crossing(5.0, "fall")

    def test_flat_waveform_never_crosses_its_level(self):
        wf = Pwl([0.0, 1.0], [5.0, 5.0])
        assert wf.crossings(5.0) == []

    def test_repeated_query_answers_alike(self):
        """A repeated query answers from the last one: an equal, fresh
        list, whatever the caller did to the previous answer."""
        wf = Pwl([0.0, 1.0, 2.0, 3.0], [0.0, 10.0, 0.0, 10.0])
        first = wf.crossings(5.0, "rise")
        first.append(99.0)
        assert wf.crossings(5.0, "rising") == [pytest.approx(0.5),
                                               pytest.approx(2.5)]
        assert wf.crossings(5.0, "fall") == [pytest.approx(1.5)]
        assert wf.crossings(2.5, "rise") == [pytest.approx(0.25),
                                             pytest.approx(2.25)]
        assert wf.crossings(5.0) == [pytest.approx(0.5), pytest.approx(1.5),
                                     pytest.approx(2.5)]

    @given(level=st.floats(min_value=0.05, max_value=4.95))
    def test_ramp_crossing_matches_analytic(self, level):
        wf = ramp(1e-9, 0.0, 5.0, 2e-9)
        t = wf.first_crossing(level, "rise")
        assert t == pytest.approx(1e-9 + level / 5.0 * 2e-9, rel=1e-9)


class TestBuilders:
    def test_ramp_shape(self):
        wf = ramp("1ns", 0.0, 5.0, "500ps")
        assert wf(0.0) == 0.0
        assert wf(1e-9) == 0.0
        assert wf(1.5e-9) == pytest.approx(5.0)
        assert wf(1.25e-9) == pytest.approx(2.5)

    def test_ramp_falling(self):
        wf = ramp(0.0, 5.0, 0.0, 1e-9)
        assert wf(0.5e-9) == pytest.approx(2.5)

    def test_ramp_rejects_nonpositive_tau(self):
        with pytest.raises(MeasurementError):
            ramp(0.0, 0.0, 5.0, 0.0)

    def test_ramp_t_end_extends(self):
        wf = ramp(0.0, 0.0, 5.0, 1e-9, t_end=5e-9)
        assert wf.t_end == pytest.approx(5e-9)

    def test_step_is_sharp(self):
        wf = step(1e-9, 0.0, 5.0)
        assert wf(1e-9 - 1e-12) == 0.0
        assert wf(1e-9 + 1e-12) == pytest.approx(5.0)

    def test_ramp_crossing_at_places_crossing(self):
        wf = ramp_crossing_at(2e-9, 1.3, v0=0.0, v1=5.0, tau=800e-12)
        assert wf.first_crossing(1.3, "rise") == pytest.approx(2e-9, rel=1e-9)

    def test_ramp_crossing_at_falling(self):
        wf = ramp_crossing_at(2e-9, 3.5, v0=5.0, v1=0.0, tau=800e-12)
        assert wf.first_crossing(3.5, "fall") == pytest.approx(2e-9, rel=1e-9)

    def test_ramp_crossing_at_level_outside_range(self):
        with pytest.raises(MeasurementError):
            ramp_crossing_at(0.0, 6.0, v0=0.0, v1=5.0, tau=1e-9)

    def test_ramp_crossing_at_flat_rejected(self):
        with pytest.raises(MeasurementError):
            ramp_crossing_at(0.0, 1.0, v0=2.0, v1=2.0, tau=1e-9)


@given(
    # Integer picoseconds keep segment lengths sanely scaled -- crossing
    # interpolation is not meaningful across denormal-length segments.
    times=st.lists(st.integers(min_value=-10_000, max_value=10_000),
                   min_size=2, max_size=12, unique=True),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_crossing_values_lie_on_waveform(times, seed):
    """Property: at every reported crossing time, the waveform evaluates
    to (approximately) the crossing level."""
    rng = np.random.default_rng(seed)
    t = np.sort(np.asarray(times, dtype=float)) * 1e-12
    v = rng.uniform(-5.0, 5.0, size=len(t))
    wf = Pwl(t, v)
    level = float(rng.uniform(-4.0, 4.0))
    for crossing in wf.crossings(level):
        assert wf(crossing) == pytest.approx(level, abs=1e-6)
