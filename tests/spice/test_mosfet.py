"""Level-1 MOSFET model: regions, symmetry, continuity, derivatives."""

import itertools
import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.spice.mosfet import (MosfetInstance, channel_source, mosfet_current,
                                nmos_like_current, nmos_like_current_batch)
from repro.tech import MosfetParams

K = 1e-4
VT = 0.7
LAM = 0.05


class TestRegions:
    def test_cutoff(self):
        ids, gm, gds = nmos_like_current(K, VT, LAM, vgs=0.5, vds=3.0)
        assert ids == 0.0 and gm == 0.0 and gds == 0.0

    def test_triode(self):
        vgs, vds = 3.0, 0.5
        ids, gm, gds = nmos_like_current(K, VT, LAM, vgs, vds)
        vov = vgs - VT
        expected = K * (2 * vov * vds - vds**2) * (1 + LAM * vds)
        assert ids == pytest.approx(expected)
        assert gm > 0 and gds > 0

    def test_saturation(self):
        vgs, vds = 2.0, 4.0
        ids, gm, gds = nmos_like_current(K, VT, LAM, vgs, vds)
        vov = vgs - VT
        assert ids == pytest.approx(K * vov**2 * (1 + LAM * vds))

    def test_saturation_current_grows_with_vgs(self):
        i1, _, _ = nmos_like_current(K, VT, LAM, 2.0, 5.0)
        i2, _, _ = nmos_like_current(K, VT, LAM, 3.0, 5.0)
        assert i2 > i1


class TestSymmetry:
    def test_drain_source_swap(self):
        """I(vgs, -vds) must equal -I(vgd, vds) by device symmetry."""
        vgs, vds = 3.0, -1.5
        ids, _, _ = nmos_like_current(K, VT, LAM, vgs, vds)
        ids_sw, _, _ = nmos_like_current(K, VT, LAM, vgs - vds, -vds)
        assert ids == pytest.approx(-ids_sw)

    def test_zero_vds_zero_current(self):
        ids, _, gds = nmos_like_current(K, VT, LAM, 3.0, 0.0)
        assert ids == 0.0
        assert gds > 0.0  # conducting channel


class TestContinuity:
    @given(vgs=st.floats(min_value=0.0, max_value=5.0))
    def test_triode_saturation_boundary(self, vgs):
        """Current and gds are continuous at vds = vov."""
        vov = vgs - VT
        if vov <= 1e-3:
            return
        eps = 1e-9
        below = nmos_like_current(K, VT, LAM, vgs, vov - eps)
        above = nmos_like_current(K, VT, LAM, vgs, vov + eps)
        assert below[0] == pytest.approx(above[0], rel=1e-5)
        assert below[2] == pytest.approx(above[2], rel=1e-3, abs=1e-12)

    @settings(max_examples=40)
    @given(
        vgs=st.floats(min_value=-1.0, max_value=6.0),
        vds=st.floats(min_value=-5.0, max_value=5.0),
    )
    def test_derivatives_match_finite_differences(self, vgs, vds):
        """gm and gds agree with numerical differentiation away from the
        (measure-zero) region-boundary kinks."""
        vov = vgs - VT
        h = 1e-7
        # Skip within 10h of the kinks where the FD straddles regions.
        if abs(vov) < 10 * h or abs(vds - vov) < 10 * h or abs(vds) < 10 * h:
            return
        if abs(-vds - (vgs - vds - VT)) < 10 * h:  # swapped-mode kink
            return
        ids, gm, gds = nmos_like_current(K, VT, LAM, vgs, vds)
        ip, _, _ = nmos_like_current(K, VT, LAM, vgs + h, vds)
        im, _, _ = nmos_like_current(K, VT, LAM, vgs - h, vds)
        assert gm == pytest.approx((ip - im) / (2 * h), rel=1e-3, abs=1e-10)
        ip, _, _ = nmos_like_current(K, VT, LAM, vgs, vds + h)
        im, _, _ = nmos_like_current(K, VT, LAM, vgs, vds - h)
        assert gds == pytest.approx((ip - im) / (2 * h), rel=1e-3, abs=1e-10)


class TestPolarities:
    @pytest.fixture
    def nmos(self):
        return MosfetParams("nmos", vt0=VT, kp=60e-6, lam=LAM)

    @pytest.fixture
    def pmos(self):
        return MosfetParams("pmos", vt0=-VT, kp=25e-6, lam=LAM)

    def test_nmos_conducts_high_gate(self, nmos):
        i_d, *_ = mosfet_current(nmos, K, vg=5.0, vd=5.0, vs=0.0)
        assert i_d > 0.0

    def test_nmos_off_low_gate(self, nmos):
        i_d, *_ = mosfet_current(nmos, K, vg=0.0, vd=5.0, vs=0.0)
        assert i_d == 0.0

    def test_pmos_conducts_low_gate(self, pmos):
        # Source at Vdd, drain low: current flows INTO the drain node
        # convention-wise means negative i_d here (current exits drain).
        i_d, *_ = mosfet_current(pmos, K, vg=0.0, vd=0.0, vs=5.0)
        assert i_d < 0.0

    def test_pmos_off_high_gate(self, pmos):
        i_d, *_ = mosfet_current(pmos, K, vg=5.0, vd=0.0, vs=5.0)
        assert i_d == 0.0

    @settings(max_examples=30)
    @given(
        vg=st.floats(min_value=0.0, max_value=5.0),
        vd=st.floats(min_value=0.0, max_value=5.0),
        vs=st.floats(min_value=0.0, max_value=5.0),
    )
    def test_pmos_derivatives_match_fd(self, vg, vd, vs):
        pmos = MosfetParams("pmos", vt0=-VT, kp=25e-6, lam=LAM)
        h = 1e-7
        i0, di_dvd, di_dvg, di_dvs = mosfet_current(pmos, K, vg, vd, vs)
        for idx, expected in ((0, di_dvg), (1, di_dvd), (2, di_dvs)):
            args = [vg, vd, vs]
            args[idx] += h
            ip = mosfet_current(pmos, K, *args)[0]
            args[idx] -= 2 * h
            im = mosfet_current(pmos, K, *args)[0]
            fd = (ip - im) / (2 * h)
            # Tolerate kink straddling: only check when FD is stable.
            args[idx] += h
            if abs(fd - expected) > 1e-3 * max(abs(fd), abs(expected), 1e-9):
                mid = mosfet_current(pmos, K, *args)[0]
                onesided = (ip - mid) / h
                assert (
                    expected == pytest.approx(fd, rel=1e-2, abs=1e-9)
                    or expected == pytest.approx(onesided, rel=1e-2, abs=1e-9)
                )


class TestMosfetInstance:
    def test_strength_uses_geometry(self):
        params = MosfetParams("nmos", vt0=VT, kp=60e-6)
        inst = MosfetInstance("m1", "d", "g", "s", "0", params, 4e-6, 0.8e-6)
        assert inst.k == pytest.approx(0.5 * 60e-6 * 5.0)

    def test_parasitic_caps_scale_with_width(self):
        params = MosfetParams(
            "nmos", vt0=VT, kp=60e-6,
            cgs_per_width=1e-9, cgd_per_width=0.5e-9, cj_per_width=2e-9,
        )
        inst = MosfetInstance("m1", "d", "g", "s", "b", params, 2e-6, 0.8e-6)
        caps = dict()
        for name, a, b, c in inst.parasitic_caps():
            caps[name] = (a, b, c)
        assert caps["m1.cgs"] == ("g", "s", pytest.approx(2e-15))
        assert caps["m1.cgd"] == ("g", "d", pytest.approx(1e-15))
        assert caps["m1.cdb"] == ("d", "b", pytest.approx(4e-15))
        assert caps["m1.csb"] == ("s", "b", pytest.approx(4e-15))

    def test_zero_parasitics_omitted(self):
        params = MosfetParams("nmos", vt0=VT, kp=60e-6)
        inst = MosfetInstance("m1", "d", "g", "s", "b", params, 2e-6, 0.8e-6)
        assert inst.parasitic_caps() == []


def generated_device(m: int, is_nmos: bool, alpha_model: bool):
    """:func:`channel_source`'s lines as ``f(vg, vd, vs) -> (id, gm, gd)``
    over the gate kernel's parameter names."""
    params = f"k{m}, vt{m}, lam{m}, al{m}"
    source = "\n".join([
        f"def device({params}, vg, vd, vs):",
        *channel_source(m, is_nmos, alpha_model, "vg", "vd", "vs"),
        f"    return id{m}, gm{m}, gd{m}"]) + "\n"
    namespace: dict = {}
    exec(compile(source, "<device>", "exec"), namespace)
    return namespace["device"]


#: Terminal voltages: with ``|vt0| = 0.5`` and a source at 0 they reach
#: ``vov`` exactly 0 and ``vds == vov`` (``vdsat`` is 1 at ``vov = 1``)
#: in both frames and polarities, reversed devices, signed zeros, a
#: subnormal, NaN and both infinities; the inexact values make operand
#: order show in the rounding.
ADVERSARIAL = (0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 1.5, -1.5, 0.3, 1.7, -2.9,
               5e-324, float("nan"), float("inf"), float("-inf"))


def outcome(device, *args):
    """``(id, gm, gd)`` as their IEEE bits, signed zeros and NaN
    included, or the arithmetic error raised."""
    try:
        return tuple(struct.pack("d", value) for value in device(*args))
    except ArithmeticError as error:
        return type(error).__name__


class TestGeneratedChannel:
    """The gate kernel's inline channel code against the scalar channel
    functions, bit for bit."""

    @pytest.mark.parametrize("model", ["level1", "alpha"])
    @pytest.mark.parametrize("polarity", ["nmos", "pmos"])
    def test_matches_the_scalar_function(self, polarity, model):
        params = MosfetParams(polarity, vt0=0.5 if polarity == "nmos" else -0.5,
                              kp=60e-6, lam=0.0537, model=model, alpha=1.3)
        k = 1.234567e-4
        device = generated_device(3, polarity == "nmos", model == "alpha")
        rng = random.Random(2024)
        triples = list(itertools.product(ADVERSARIAL, repeat=3)) + [
            tuple(rng.uniform(-3.0, 3.0) for _ in range(3))
            for _ in range(2000)]

        def scalar(vg, vd, vs):
            i_d, di_dvd, di_dvg, _ = mosfet_current(params, k, vg, vd, vs)
            return i_d, di_dvg, di_dvd

        mismatches = [
            (vg, vd, vs) for vg, vd, vs in triples
            if outcome(device, k, abs(params.vt0), params.lam, params.alpha,
                       vg, vd, vs) != outcome(scalar, vg, vd, vs)]
        assert mismatches == []


class TestBatchedSquareLaw:
    """The grouped square law against the scalar function, lane by lane:
    reusing a product (``k * core``, ``2.0 * vov``, the group's
    ``2.0 * k``) must keep every bit."""

    @pytest.mark.parametrize("lanes", [320, 1150, 6912])
    def test_matches_the_scalar_function(self, lanes):
        rng = np.random.default_rng(lanes)
        finite = [value for value in ADVERSARIAL if np.isfinite(value)]
        pairs = list(itertools.product(finite, repeat=2))
        vgs = np.array([p[0] for p in pairs] + rng.uniform(
            -3.0, 3.0, lanes - len(pairs)).tolist())
        vds = np.array([p[1] for p in pairs] + rng.uniform(
            -3.0, 3.0, lanes - len(pairs)).tolist())
        k = rng.uniform(1e-5, 1e-3, lanes)
        vt = np.where(rng.random(lanes) < 0.5, 0.5, rng.uniform(0.3, 0.9, lanes))
        lam = rng.uniform(0.0, 0.1, lanes)
        got = nmos_like_current_batch(k, 2.0 * k, vt, lam, vgs, vds)
        want = np.array([
            nmos_like_current(*lane)
            for lane in zip(k.tolist(), vt.tolist(), lam.tolist(),
                            vgs.tolist(), vds.tolist())]).T
        for name, g, w in zip(("ids", "gm", "gds"), got, want):
            assert g.tobytes() == w.tobytes(), name
