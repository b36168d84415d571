"""DC homotopy fallbacks and the retry ladder around them.

These tests wrap :func:`repro.spice.engine.newton_solve`, which every
:meth:`~repro.spice.engine.SolveContext.solve` looks up at call time,
with a gatekeeper that vetoes selected call shapes, proving that each
rung of the escalation actually engages (plain Newton -> gmin stepping
-> source stepping -> retry-ladder re-run) rather than silently being
skipped.  The same seam carries a transient's initial DC ladder and, on
the array step path, its every step; the last tests pin that routing on
an RC circuit (no transistors, so no gate-sized float steps, which call
the kernel loop directly).
"""

from dataclasses import replace

import pytest

from repro.errors import ConvergenceError
from repro.spice import Circuit, engine, solve_dc, transient
from repro.spice.engine import NewtonOptions, NewtonStats, newton_solve
from repro.waveform import ramp


def divider(r1=1e3, r2=3e3, v=4.0) -> Circuit:
    ckt = Circuit()
    ckt.add_vsource("v1", "in", v)
    ckt.add_resistor("r1", "in", "mid", r1)
    ckt.add_resistor("r2", "mid", "0", r2)
    return ckt


class TestHomotopyLadder:
    def test_gmin_stepping_engages_when_plain_newton_fails(self, monkeypatch):
        seen_gmins = []
        state = {"plain_vetoed": False}

        def gatekeeper(compiled, x0, known, **kwargs):
            seen_gmins.append(kwargs.get("gmin"))
            if kwargs.get("gmin") is None and not state["plain_vetoed"]:
                state["plain_vetoed"] = True
                raise ConvergenceError("injected plain-Newton failure")
            return newton_solve(compiled, x0, known, **kwargs)

        monkeypatch.setattr(engine, "newton_solve", gatekeeper)
        op = solve_dc(divider())
        assert op["mid"] == pytest.approx(3.0, rel=1e-6)
        ramp = [g for g in seen_gmins if g is not None]
        assert ramp, "gmin stepping never ran"
        assert ramp[0] == pytest.approx(1e-2)
        assert ramp == sorted(ramp, reverse=True)  # relaxed decade by decade
        assert ramp[-1] >= NewtonOptions().gmin

    def test_source_stepping_engages_when_gmin_stepping_fails(self, monkeypatch):
        scales = []

        def gatekeeper(compiled, x0, known, **kwargs):
            if "source_scale" not in kwargs:
                raise ConvergenceError("injected failure for non-ramped solve")
            scales.append(kwargs["source_scale"])
            return newton_solve(compiled, x0, known, **kwargs)

        monkeypatch.setattr(engine, "newton_solve", gatekeeper)
        op = solve_dc(divider())
        assert op["mid"] == pytest.approx(3.0, rel=1e-6)
        assert scales[0] == pytest.approx(0.1)
        assert scales[-1] == pytest.approx(1.0)
        assert scales == sorted(scales)  # sources ramp monotonically up

    def test_fallback_failures_are_counted(self, monkeypatch):
        """Newton solves that genuinely diverge inside the fallback
        ladder must land in ``stats.failures``, not vanish."""

        def gatekeeper(compiled, x0, known, **kwargs):
            if "source_scale" not in kwargs:
                # Cripple non-ramped solves so they *really* fail inside
                # newton_solve (and are therefore counted), instead of
                # being vetoed from outside.
                crippled = replace(kwargs["options"],
                                   max_iterations=1, max_step=1e-6)
                kwargs = dict(kwargs, options=crippled)
            return newton_solve(compiled, x0, known, **kwargs)

        monkeypatch.setattr(engine, "newton_solve", gatekeeper)
        stats = NewtonStats()
        op = solve_dc(divider(), stats=stats)
        assert op["mid"] == pytest.approx(3.0, rel=1e-6)
        # Plain Newton failed, the first gmin-stepping solve failed, then
        # source stepping carried the solve home -- all on attempt 0.
        assert stats.failures == 2
        assert stats.retries == 0


class TestDcRetryLadder:
    def test_escalated_attempt_rescues_the_solve(self, monkeypatch):
        """A solve that only converges with a raised gmin floor must be
        rescued by the ladder's attempt-1 escalation, and accounted."""

        def gatekeeper(compiled, x0, known, **kwargs):
            if kwargs["options"].gmin <= NewtonOptions().gmin:
                raise ConvergenceError("needs a raised gmin floor")
            return newton_solve(compiled, x0, known, **kwargs)

        monkeypatch.setattr(engine, "newton_solve", gatekeeper)
        stats = NewtonStats()
        op = solve_dc(divider(), stats=stats)
        assert op["mid"] == pytest.approx(3.0, rel=1e-6)
        assert stats.retries == 1

    def test_exhaustion_preserves_diagnostics(self, monkeypatch):
        def gatekeeper(compiled, x0, known, **kwargs):
            raise ConvergenceError("hopeless", iterations=9, residual=0.25)

        monkeypatch.setattr(engine, "newton_solve", gatekeeper)
        with pytest.raises(ConvergenceError) as excinfo:
            solve_dc(divider(), retry=2)
        message = str(excinfo.value)
        assert "2 retry-ladder attempts" in message
        assert excinfo.value.iterations == 9
        assert excinfo.value.residual == pytest.approx(0.25)


def rc_low_pass() -> Circuit:
    ckt = Circuit()
    ckt.add_vsource("vin", "in", ramp(0.4e-9, 0.0, 1.0, 0.3e-9))
    ckt.add_resistor("r1", "in", "out", 1e3)
    ckt.add_capacitor("c1", "out", "0", 1e-12)
    return ckt


class TestTransientSolverSeam:
    def test_every_transient_solve_goes_through_its_binding(self, monkeypatch):
        calls = []

        def passthrough(compiled, x0, known, **kwargs):
            calls.append(kwargs)
            return newton_solve(compiled, x0, known, **kwargs)

        monkeypatch.setattr(engine, "newton_solve", passthrough)
        t_start = 0.2e-9
        result = transient(rc_low_pass(), 2e-9, t_start=t_start)
        dc_point, steps = calls[0], calls[1:]
        assert "caps" not in dc_point
        assert dc_point["time"] == t_start
        assert all("caps" in kwargs for kwargs in steps)
        assert len(steps) == len(result.times) - 1 + result.rejected_steps

    def test_vetoed_dc_point_walks_the_gmin_ramp(self, monkeypatch):
        seen_gmins = []
        state = {"plain_vetoed": False}

        def gatekeeper(compiled, x0, known, **kwargs):
            if "caps" not in kwargs:
                seen_gmins.append(kwargs.get("gmin"))
                if "gmin" not in kwargs and not state["plain_vetoed"]:
                    state["plain_vetoed"] = True
                    raise ConvergenceError("injected plain-Newton failure")
            return newton_solve(compiled, x0, known, **kwargs)

        monkeypatch.setattr(engine, "newton_solve", gatekeeper)
        result = transient(rc_low_pass(), 2e-9)
        assert seen_gmins[0] is None
        assert seen_gmins[1] == pytest.approx(1e-2)
        assert result.times[-1] == pytest.approx(2e-9)
        assert result.solver_retries == 0
