"""Alpha-power-law MOSFET model (Sakurai-Newton, paper ref [14])."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.spice.mosfet import (alpha_power_current,
                                alpha_power_current_batch, nmos_like_current)
from repro.tech import MosfetParams, submicron_process

K = 1e-4
VT = 0.6
LAM = 0.05


class TestReducesToSquareLaw:
    @settings(max_examples=40)
    @given(
        vgs=st.floats(min_value=-0.5, max_value=4.0),
        vds=st.floats(min_value=-3.0, max_value=4.0),
    )
    def test_alpha_two_equals_level1(self, vgs, vds):
        """At alpha = 2 the alpha law IS the square law (vdsat = vov)."""
        a = alpha_power_current(K, VT, LAM, 2.0, vgs, vds)
        l1 = nmos_like_current(K, VT, LAM, vgs, vds)
        for x, y in zip(a, l1):
            assert x == pytest.approx(y, rel=1e-9, abs=1e-15)


class TestAlphaBehaviour:
    def test_cutoff(self):
        assert alpha_power_current(K, VT, LAM, 1.3, 0.3, 2.0) == (0.0, 0.0, 0.0)

    def test_saturation_value(self):
        vgs, vds = 2.0, 3.0
        ids, gm, gds = alpha_power_current(K, VT, 0.0, 1.3, vgs, vds)
        assert ids == pytest.approx(K * (vgs - VT) ** 1.3)

    def test_velocity_saturation_weakens_gate_drive(self):
        """The defining alpha-law property: at high overdrive, current
        grows slower than quadratically."""
        i_sq, _, _ = nmos_like_current(K, VT, 0.0, 4.0, 5.0)
        i_al, _, _ = alpha_power_current(K, VT, 0.0, 1.3, 4.0, 5.0)
        assert i_al < i_sq

    def test_continuity_at_vdsat(self):
        vgs = 2.0
        vdsat = (vgs - VT) ** 0.65
        eps = 1e-9
        below = alpha_power_current(K, VT, LAM, 1.3, vgs, vdsat - eps)
        above = alpha_power_current(K, VT, LAM, 1.3, vgs, vdsat + eps)
        assert below[0] == pytest.approx(above[0], rel=1e-6)
        assert below[1] == pytest.approx(above[1], rel=1e-4)
        assert below[2] == pytest.approx(above[2], rel=1e-3, abs=1e-12)

    @settings(max_examples=40)
    @given(
        vgs=st.floats(min_value=0.7, max_value=3.5),
        vds=st.floats(min_value=0.01, max_value=3.5),
        alpha=st.floats(min_value=1.05, max_value=1.95),
    )
    def test_derivatives_match_finite_differences(self, vgs, vds, alpha):
        h = 1e-7
        vov = vgs - VT
        vdsat = vov ** (0.5 * alpha)
        if abs(vds - vdsat) < 10 * h or vov < 10 * h:
            return
        ids, gm, gds = alpha_power_current(K, VT, LAM, alpha, vgs, vds)
        ip, _, _ = alpha_power_current(K, VT, LAM, alpha, vgs + h, vds)
        im, _, _ = alpha_power_current(K, VT, LAM, alpha, vgs - h, vds)
        # The boundary moves with vgs; skip straddles.
        if abs(vds - (vgs + h - VT) ** (0.5 * alpha)) > 5 * h and \
           abs(vds - (vgs - h - VT) ** (0.5 * alpha)) > 5 * h:
            assert gm == pytest.approx((ip - im) / (2 * h), rel=1e-3, abs=1e-10)
        ip, _, _ = alpha_power_current(K, VT, LAM, alpha, vgs, vds + h)
        im, _, _ = alpha_power_current(K, VT, LAM, alpha, vgs, vds - h)
        assert gds == pytest.approx((ip - im) / (2 * h), rel=1e-3, abs=1e-10)

    def test_symmetry(self):
        vgs, vds = 2.5, -1.0
        ids, _, _ = alpha_power_current(K, VT, LAM, 1.3, vgs, vds)
        ids_sw, _, _ = alpha_power_current(K, VT, LAM, 1.3, vgs - vds, -vds)
        assert ids == pytest.approx(-ids_sw)


class TestBatchedModel:
    def test_batch_matches_scalar_lane_by_lane(self):
        """Bit for bit on every output of every lane: the fractional
        powers must round exactly like Python's float ``pow``."""
        rng = np.random.default_rng(2024)
        lanes = 20_000
        k = rng.uniform(1e-5, 1e-3, lanes)
        vt = rng.uniform(0.3, 0.9, lanes)
        lam = rng.uniform(0.0, 0.1, lanes)
        alpha = rng.choice([1.3, 1.4, 2.0], lanes)
        alpha[::4] = rng.uniform(1.0, 2.0, alpha[::4].size)
        vgs = rng.uniform(-1.0, 4.0, lanes)
        vds = rng.uniform(-3.5, 3.5, lanes)
        got = alpha_power_current_batch(k, vt, lam, alpha, vgs, vds)
        want = np.array([
            alpha_power_current(*lane)
            for lane in zip(k.tolist(), vt.tolist(), lam.tolist(),
                            alpha.tolist(), vgs.tolist(), vds.tolist())
        ]).T
        for name, g, w in zip(("ids", "gm", "gds"), got, want):
            assert g.tobytes() == w.tobytes(), name


class TestModelValidation:
    def test_rejects_unknown_model(self):
        with pytest.raises(Exception):
            MosfetParams("nmos", vt0=0.6, kp=1e-4, model="bsim4")

    def test_rejects_alpha_out_of_range(self):
        with pytest.raises(Exception):
            MosfetParams("nmos", vt0=0.6, kp=1e-4, model="alpha", alpha=0.5)


class TestEndToEnd:
    def test_submicron_nand_switches(self):
        """A full VTC + transient flow on the alpha-model process."""
        from repro.charlib.library import cached_thresholds
        from repro.charlib.simulate import single_input_response
        from repro.gates import Gate

        proc = submicron_process()
        gate = Gate.nand(2, proc, load=60e-15)
        thr = cached_thresholds(gate)
        assert 0.0 < thr.vil < thr.vih < proc.vdd
        shot = single_input_response(gate, "a", "fall", 300e-12, thr)
        assert shot.delay > 0.0
        assert shot.output.final_value() == pytest.approx(proc.vdd, abs=0.1)

    def test_proximity_effect_present_with_alpha_model(self):
        """The proximity speedup is device-model independent."""
        from repro.charlib.library import cached_thresholds
        from repro.charlib.simulate import (
            multi_input_response, single_input_response)
        from repro.gates import Gate
        from repro.waveform import Edge

        proc = submicron_process()
        gate = Gate.nand(2, proc, load=60e-15)
        thr = cached_thresholds(gate)
        lone = single_input_response(gate, "a", "fall", 300e-12, thr)
        both = multi_input_response(
            gate,
            {"a": Edge("fall", 0.0, 300e-12), "b": Edge("fall", 0.0, 300e-12)},
            thr, reference="a",
        )
        assert both.delay < lone.delay
