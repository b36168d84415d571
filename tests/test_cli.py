"""Command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.errors import ReproError
from repro.experiments import table5_1


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_commands_registered(self):
        parser = build_parser()
        for argv in (
            ["vtc"],
            ["delay", "--edge", "a:fall:1ns"],
            ["characterize", "--output", "x.json"],
            ["validate"],
            ["experiment", "e5"],
            ["glitch"],
        ):
            args = parser.parse_args(argv)
            assert args.command == argv[0]


class TestCommands:
    def test_vtc_inverter(self, capsys):
        assert main(["vtc", "--gate", "inv"]) == 0
        out = capsys.readouterr().out
        assert "vil" in out and "selected" in out

    def test_delay_two_edges(self, capsys):
        code = main([
            "delay", "--gate", "nand2",
            "--edge", "a:fall:400ps",
            "--edge", "b:fall:150ps:100ps",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "dominant" in out
        assert "delay:" in out

    def test_delay_bad_edge_spec(self, capsys):
        assert main(["delay", "--edge", "a-fall-1ns"]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_gate(self, capsys):
        assert main(["vtc", "--gate", "xor9"]) == 1

    @pytest.mark.parametrize("gate", ["nand7", "nand24", "nor26"])
    def test_wide_gate_exits_with_the_limit(self, capsys, gate):
        """Exit 1 before any DC sweep: nand24's VTC family alone would
        be ~16.7 M sweeps."""
        assert main(["delay", "--gate", gate, "--edge", "a:fall:500ps"]) == 1
        assert "at most 6" in capsys.readouterr().err

    def test_experiment_e5(self, capsys):
        assert main(["experiment", "e5"]) == 0
        assert "storage" in capsys.readouterr().out

    def test_characterize_fast(self, tmp_path, capsys):
        out_file = tmp_path / "inv.json"
        code = main([
            "characterize", "--gate", "inv", "--fast",
            "--output", str(out_file),
        ])
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert payload["singles"]

    def test_validate_small(self, capsys, monkeypatch):
        # Shrink the run via argv; 3 configs keeps it quick.
        assert main(["validate", "--configs", "3", "--seed", "5"]) == 0
        assert "Table 5-1" in capsys.readouterr().out

    @pytest.mark.parametrize("count", ["0", "-3", "two"])
    def test_validate_rejects_config_counts_below_one(self, capsys, count):
        """A usage error (exit 2) before any simulation, not a numpy
        traceback from the statistics of no configurations."""
        with pytest.raises(SystemExit) as exit_info:
            main(["validate", "--configs", count])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "--configs" in err
        assert ("at least 1" in err) == (count != "two")

    @pytest.mark.parametrize("count", [0, -1])
    def test_table5_1_run_rejects_config_counts_below_one(self, count):
        with pytest.raises(ReproError, match="at least 1"):
            table5_1.run(n_configs=count)

    @pytest.mark.parametrize("tau", ["1e-300s", "1e-20s", "1e-17s",
                                     "0.9fs", "0s", "-5ps"])
    def test_delay_rejects_transitions_below_one_femtosecond(self, capsys,
                                                               tau):
        """Exit 1 naming the floor, where a too-short ramp used to end
        in an internal PWL error or a step-size underflow."""
        assert main(["delay", "--gate", "nand3",
                     "--edge", f"a:fall:{tau}"]) == 1
        assert f"tau '{tau}' must be at least 1fs" in capsys.readouterr().err

    def test_delay_answers_a_one_femtosecond_transition(self, capsys):
        assert main(["delay", "--gate", "nand3", "--edge", "a:fall:1fs"]) == 0
        assert "delay:" in capsys.readouterr().out

    def test_glitch_command(self, capsys):
        assert main(["glitch", "--gate", "nand2"]) == 0
        assert "inertial" in capsys.readouterr().out


class TestExperimentCommand:
    def test_a4_quick(self, capsys):
        assert main(["experiment", "a4", "--quick"]) == 0
        assert "Cross-gate" in capsys.readouterr().out

    def test_e3(self, capsys):
        assert main(["experiment", "e3"]) == 0
        out = capsys.readouterr().out
        assert "abc" in out


class TestProcessOption:
    def test_submicron_vtc(self, capsys):
        assert main(["vtc", "--gate", "inv", "--process", "submicron"]) == 0
        assert "selected" in capsys.readouterr().out
