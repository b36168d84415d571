"""The fault-injection harness itself: grammar, firing budgets, hooks."""

import os

import pytest

from repro.errors import ConvergenceError, ReproError
from repro.resilience import FaultInjection, FaultSpec, parse_faults
from repro.resilience import faults


class TestGrammar:
    def test_basic_clause(self):
        (spec,) = parse_faults("point@3")
        assert spec == FaultSpec(kind="point", selector="3", times=1)

    def test_scoped_selector_and_count(self):
        (spec,) = parse_faults("point@dual/7:4")
        assert spec.selector == "dual/7"
        assert spec.times == 4

    def test_always(self):
        (spec,) = parse_faults("crash@2:always")
        assert spec.times is None

    def test_multiple_clauses(self):
        specs = parse_faults("point@1, crash@2:always ,corrupt@vtc:3")
        assert [s.kind for s in specs] == ["point", "crash", "corrupt"]

    def test_empty_spec_is_empty_plan(self):
        assert parse_faults("") == ()

    @pytest.mark.parametrize("bad", [
        "pointat3",           # no @
        "explode@1",          # unknown kind
        "lane@1",             # removed kind
        "point@",             # empty selector
        "point@3:soon",       # bad count
        "point@3:0",          # count < 1
    ])
    def test_bad_clauses_raise(self, bad):
        with pytest.raises(ReproError):
            parse_faults(bad)

    def test_fault_id_is_filesystem_safe(self):
        (spec,) = parse_faults("point@dual/7")
        assert "/" not in spec.fault_id


class TestFaultInjectionContext:
    def test_sets_and_restores_environment(self, monkeypatch):
        monkeypatch.delenv(faults.FAULTS_ENV_VAR, raising=False)
        with FaultInjection("point@1") as fi:
            assert os.environ[faults.FAULTS_ENV_VAR] == "point@1"
            assert os.environ[faults.STATE_ENV_VAR] == str(fi.state_dir)
        assert faults.FAULTS_ENV_VAR not in os.environ
        assert faults.STATE_ENV_VAR not in os.environ

    def test_invalid_spec_rejected_eagerly(self):
        with pytest.raises(ReproError):
            FaultInjection("bogus@@")

    def test_state_dir_cleaned_up(self):
        with FaultInjection("point@1") as fi:
            state = fi.state_dir
            assert state.exists()
        assert not state.exists()


class TestFiringBudgets:
    def test_counted_fault_fires_exactly_n_times(self):
        with FaultInjection("point@5:2") as fi:
            for _ in range(2):
                with pytest.raises(ConvergenceError):
                    faults.fire_point("single", 5)
            faults.fire_point("single", 5)  # budget exhausted: no raise
            assert fi.fired_count("point") == 2

    def test_always_fault_never_exhausts(self):
        with FaultInjection("point@5:always"):
            for _ in range(4):
                with pytest.raises(ConvergenceError):
                    faults.fire_point("dual", 5)

    def test_scope_narrowing(self):
        with FaultInjection("point@dual/3:always"):
            faults.fire_point("single", 3)  # wrong scope: no fire
            with pytest.raises(ConvergenceError):
                faults.fire_point("dual", 3)

    def test_bare_index_matches_every_scope(self):
        with FaultInjection("point@3:always"):
            with pytest.raises(ConvergenceError):
                faults.fire_point("single", 3)
            with pytest.raises(ConvergenceError):
                faults.fire_point("dual", 3)

    def test_unmatched_hooks_are_noops(self):
        with FaultInjection("point@3:always"):
            faults.fire_point("single", 4)
            faults.fire_task(3)          # point clause is not a task fault
            faults.fire_transient()

    def test_counted_clause_without_state_dir_raises(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV_VAR, "point@1:1")
        monkeypatch.delenv(faults.STATE_ENV_VAR, raising=False)
        with pytest.raises(ReproError):
            faults.fire_point("single", 1)

    def test_no_plan_means_every_hook_is_free(self, monkeypatch):
        monkeypatch.delenv(faults.FAULTS_ENV_VAR, raising=False)
        faults.fire_point("single", 0)
        faults.fire_task(0)
        faults.fire_transient()
        faults.corrupt_after_store("vtc", "/nonexistent/never-touched.json")


class TestSolverFaultHooks:
    """The sparse-factorization hook added for the solver-guardrail
    chaos legs."""

    def test_sparse_clause_parses(self):
        specs = parse_faults("sparse@factorize:1")
        assert specs == (FaultSpec(kind="sparse", selector="factorize",
                                   times=1),)

    def test_sparse_factorize_raises_linalgerror_within_budget(self):
        np = pytest.importorskip("numpy")
        with FaultInjection("sparse@factorize:1") as fi:
            with pytest.raises(np.linalg.LinAlgError, match="injected"):
                faults.fire_sparse_factorize()
            faults.fire_sparse_factorize()  # budget exhausted: no raise
            assert fi.fired_count("sparse") == 1

    def test_sparse_wildcard_selector_fires(self):
        np = pytest.importorskip("numpy")
        with FaultInjection("sparse@*:always"):
            for _ in range(3):
                with pytest.raises(np.linalg.LinAlgError):
                    faults.fire_sparse_factorize()

    def test_no_plan_means_solver_hooks_are_free(self, monkeypatch):
        monkeypatch.delenv(faults.FAULTS_ENV_VAR, raising=False)
        faults.fire_sparse_factorize()


class TestCorruptHook:
    def test_scribbles_matching_kind_only(self, tmp_path):
        target = tmp_path / "vtc-abc.json"
        target.write_text('{"curves": []}')
        other = tmp_path / "single-abc.json"
        other.write_text('{"u": []}')
        with FaultInjection("corrupt@vtc:1"):
            faults.corrupt_after_store("single", other)
            assert other.read_text() == '{"u": []}'
            faults.corrupt_after_store("vtc", target)
        text = target.read_text()
        import json
        with pytest.raises(json.JSONDecodeError):
            json.loads(text)
