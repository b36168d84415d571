"""The numpy table interpolators reproduce scipy's, bit for bit.

scipy is a declared dependency of the package, but the table models no
longer import it; here it serves only as the oracle.  Every comparison
of interpolated values is ``==`` on floats.
"""

import math
import pickle

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator, RegularGridInterpolator

from repro.errors import ModelError
from repro.inertial import TableGlitchModel
from repro.models import TableDualInputModel, TableSingleInputModel
from repro.models.interp import ClampedTrilinear, Pchip
from repro.waveform import FALL


def scipy_pchip(x, y):
    interp = PchipInterpolator(x, y, extrapolate=True)
    return lambda q: float(interp(q))


def scipy_clamped(axes, table):
    """The evaluator the table models built before: clamp, then scipy."""
    interp = RegularGridInterpolator(axes, table, method="linear",
                                     bounds_error=False, fill_value=None)
    lows = np.array([axis[0] for axis in axes])
    highs = np.array([axis[-1] for axis in axes])

    def evaluate(a1, a2, a3):
        point = np.minimum(np.maximum(np.array([a1, a2, a3]), lows), highs)
        return float(interp(point[None, :])[0])

    return evaluate


def random_curves(seed, count=240):
    """Seeded 1-D tables: 2-point lines, flat runs, sign changes."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        n = 2 if k % 6 == 0 else int(rng.integers(3, 14))
        x = rng.normal() + np.cumsum(rng.uniform(0.05, 1.5, n))
        shape = k % 4
        if shape == 0:
            y = rng.normal(size=n)  # slope sign changes
        elif shape == 1:
            y = np.cumsum(rng.uniform(0.0, 1.0, n))  # monotone
        elif shape == 2:
            y = rng.integers(0, 3, n).astype(float)  # flat segments
        else:
            y = 0.2 + 1.5 * np.exp(0.8 * x)  # delay-curve shaped
        yield rng, x, y


def curve_queries(rng, x):
    """Below and above the table, at every knot, and between knots."""
    span = x[-1] - x[0]
    return np.concatenate([
        x,
        (x[:-1] + x[1:]) / 2,
        rng.uniform(x[0], x[-1], 12),
        rng.uniform(x[0] - span, x[0], 4),
        rng.uniform(x[-1], x[-1] + span, 4),
        [np.nextafter(x[0], -np.inf), np.nextafter(x[-1], np.inf)],
    ])


def random_grids(seed, count=120):
    """Seeded 3-D grids of 1 to 6 points per axis."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        shape = tuple(int(n) for n in rng.integers(1, 7, 3))
        axes = [rng.normal() + np.cumsum(rng.uniform(0.1, 2.0, n))
                for n in shape]
        yield rng, axes, rng.normal(size=shape)


def grid_queries(rng, axes):
    """Outside every face (clamped), at every node, and inside."""
    lows = np.array([axis[0] for axis in axes])
    highs = np.array([axis[-1] for axis in axes])
    inside = [rng.uniform(lows, highs) for _ in range(16)]
    faces = []
    for dim in range(3):
        for beyond in (lows[dim] - rng.uniform(0.01, 3.0),
                       highs[dim] + rng.uniform(0.01, 3.0)):
            point = rng.uniform(lows, highs)
            point[dim] = beyond
            faces.append(point)
    corners = [np.where(rng.random(3) < 0.5, lows - 1.0, highs + 1.0)
               for _ in range(4)]
    nodes = [np.array(node) for node in np.stack(
        np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)]
    return inside + faces + corners + nodes


class TestPchip:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_scipy(self, seed):
        queries = 0
        for rng, x, y in random_curves(seed):
            ours, theirs = Pchip(x, y), scipy_pchip(x, y)
            for q in curve_queries(rng, x):
                assert ours(q) == theirs(q), (x, y, q)
                queries += 1
        assert queries > 5000

    def test_exact_at_knots(self):
        for rng, x, y in random_curves(4, count=60):
            interp = Pchip(x, y)
            # Each knot but the last starts a piece (s = 0); the last
            # is the far end of the last piece, exact to rounding.
            assert [interp(q) for q in x[:-1]] == y[:-1].tolist()
            assert interp(x[-1]) == pytest.approx(y[-1], rel=1e-12,
                                                  abs=1e-12)

    def test_signed_zero_follows_scipy(self):
        # PPoly sums from a zero accumulator: here every term is -0.0
        # and the answer is still +0.0.  ``==`` cannot see the sign.
        x, y = [0.0, 1.0, 2.0], [-0.0, 0.5, -0.3]
        assert math.copysign(1.0, Pchip(x, y)(-0.0)) == \
            math.copysign(1.0, scipy_pchip(x, y)(-0.0)) == 1.0

    def test_two_points_is_a_line(self):
        interp = Pchip([0.0, 2.0], [1.0, 5.0])
        assert interp(1.0) == 3.0
        assert interp(-1.0) == -1.0
        assert interp(3.0) == 7.0

    @pytest.mark.parametrize("x, y", [
        ([1.0], [1.0]),
        ([0.0, 0.0, 1.0], [1.0, 2.0, 3.0]),
        ([1.0, 0.0], [1.0, 2.0]),
        ([0.0, 1.0], [1.0, float("nan")]),
        ([0.0, float("inf")], [1.0, 2.0]),
        ([0.0, 1.0, 2.0], [1.0, 2.0]),
    ])
    def test_rejects_bad_samples(self, x, y):
        with pytest.raises(ModelError):
            Pchip(x, y)


class TestClampedTrilinear:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_matches_scipy(self, seed):
        queries = 0
        for rng, axes, table in random_grids(seed):
            ours, theirs = ClampedTrilinear(axes, table), scipy_clamped(axes, table)
            for point in grid_queries(rng, axes):
                assert ours(*point) == theirs(*point), (axes, point)
                queries += 1
        assert queries > 3000

    def test_exact_at_grid_nodes(self):
        for _, axes, table in random_grids(3, count=40):
            interp = ClampedTrilinear(axes, table)
            for index in np.ndindex(table.shape):
                node = [axes[d][index[d]] for d in range(3)]
                assert interp(*node) == table[index]

    def test_signed_zero_follows_scipy(self):
        axes = [np.array([0.0, 1.0])] * 3
        table = np.full((2, 2, 2), -0.0)
        ours, theirs = ClampedTrilinear(axes, table), scipy_clamped(axes, table)
        assert math.copysign(1.0, ours(0.0, 0.0, 0.0)) == \
            math.copysign(1.0, theirs(0.0, 0.0, 0.0)) == 1.0

    def test_nan_query_is_nan(self):
        axes = [np.array([0.0, 1.0])] * 3
        interp = ClampedTrilinear(axes, np.ones((2, 2, 2)))
        assert np.isnan(interp(0.5, float("nan"), 0.5))

    def test_rejects_bad_grids(self):
        good = [np.array([0.0, 1.0])] * 3
        with pytest.raises(ModelError):
            ClampedTrilinear(good, np.ones((2, 2, 3)))
        with pytest.raises(ModelError):
            ClampedTrilinear(good[:2], np.ones((2, 2)))
        with pytest.raises(ModelError):
            ClampedTrilinear([np.array([1.0, 0.0])] + good[1:],
                             np.ones((2, 2, 2)))


class TestCharacterizedTables:
    """The tables of a real fast-grid library, queried through the models."""

    def test_single_input_curves(self, nand2_fast_library, nand2):
        rng = np.random.default_rng(11)
        for name in nand2.inputs:
            model = nand2_fast_library.single(name, FALL)
            payload = model.to_payload()
            log_u = np.log(np.asarray(payload["u"]))
            delay = scipy_pchip(log_u, payload["delay_norm"])
            ttime = scipy_pchip(log_u, payload["ttime_norm"])
            for tau, load in zip(rng.uniform(20e-12, 4000e-12, 200),
                                 rng.uniform(20e-15, 400e-15, 200)):
                q = np.log(model.drive_factor(tau, load))
                assert model.delay(tau, load) == delay(q) * tau
                assert model.ttime(tau, load) == ttime(q) * tau

    def test_dual_input_grids(self, nand2_fast_library):
        rng = np.random.default_rng(12)
        for key in nand2_fast_library.dual_keys:
            model = nand2_fast_library.dual(*key)
            payload = model.to_payload()
            axes = [np.asarray(a) for a in payload["axes"]]
            delay = scipy_clamped(axes, np.asarray(payload["delay_table"]))
            ttime = scipy_clamped(axes, np.asarray(payload["ttime_table"]))
            # delta1 = 1 leaves the normalized point as given, so the
            # node queries land exactly on the grid.
            for point in grid_queries(rng, axes):
                args = point.tolist()
                assert model.delay_ratio(*args, delta1=1.0) == delay(*args)
                assert model.ttime_ratio(*args, tau1=1.0, delta1=1.0) == \
                    ttime(*args)
            table = np.asarray(payload["delay_table"])
            for index in np.ndindex(table.shape):
                node = [axes[d][index[d]] for d in range(3)]
                assert model.delay_ratio(*node, delta1=1.0) == table[index]


def synthetic_models():
    u = np.geomspace(0.01, 10.0, 9)
    single = TableSingleInputModel(
        "a", FALL, u, 0.2 + 1.5 * u ** 0.8, 0.4 + 2.0 * u ** 0.8,
        k_drive=1e-3, vdd=5.0, char_load=1e-13, c_par=2e-15)
    rng = np.random.default_rng(7)
    axes = (np.array([0.5, 1.0, 2.0, 4.0]), np.array([0.25, 1.0, 4.0]),
            np.array([-2.0, -1.0, 0.0, 0.5, 1.0, 1.5]))
    dual = TableDualInputModel("a", "b", FALL, axes,
                               rng.uniform(0.5, 1.2, (4, 3, 6)),
                               rng.uniform(0.5, 1.2, (4, 3, 6)))
    glitch = TableGlitchModel("b", "a", axes, rng.uniform(0.0, 1.0, (4, 3, 6)),
                              vdd=5.0, output_direction=FALL)
    return single, dual, glitch


class TestPickle:
    """Process pools ship table models; a round trip answers identically."""

    def test_round_trip_answers_bit_identically(self):
        single, dual, glitch = synthetic_models()
        clones = pickle.loads(pickle.dumps((single, dual, glitch)))
        rng = np.random.default_rng(8)
        for tau, tau2, sep in zip(rng.uniform(20e-12, 3e-9, 50),
                                  rng.uniform(20e-12, 3e-9, 50),
                                  rng.uniform(-1e-9, 1e-9, 50)):
            assert clones[0].delay(tau) == single.delay(tau)
            assert clones[0].ttime(tau, 2e-13) == single.ttime(tau, 2e-13)
            assert clones[1].delay_ratio(tau, tau2, sep, delta1=2e-10) == \
                dual.delay_ratio(tau, tau2, sep, delta1=2e-10)
            assert clones[1].ttime_ratio(tau, tau2, sep, tau1=3e-10,
                                         delta1=2e-10) == \
                dual.ttime_ratio(tau, tau2, sep, tau1=3e-10, delta1=2e-10)
            assert clones[2].extremum(tau, tau2, sep, delta1=2e-10) == \
                glitch.extremum(tau, tau2, sep, delta1=2e-10)
