"""CLI: exit codes, output grammar, end-to-end subcommands."""
import pytest

from cstlab.bench import build_instance
from cstlab.cli import main
from cstlab.model import format_instance


@pytest.fixture
def i9_file(tmp_path):
    path = tmp_path / "i9.txt"
    path.write_text(format_instance(build_instance("I9").instance))
    return str(path)


@pytest.fixture
def i15_file(tmp_path):
    path = tmp_path / "i15.txt"
    path.write_text(format_instance(build_instance("I15").instance))
    return str(path)


class TestSolve:
    def test_hw_i9(self, i9_file, capsys):
        rc = main(
            ["solve", "--model", "gbsplit", "--alg", "hw", "--instance", i9_file,
             "--holes", "2"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "cost=209" in out
        assert "weight=97" in out
        assert "holes_used=A3,B4" in out

    def test_exact_holeset(self, i9_file, capsys):
        rc = main(
            ["solve", "--model", "gbsplit", "--alg", "exact", "--instance", i9_file,
             "--holeset", "A3,D1"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "cost=210" in out

    def test_spuler_i15(self, i15_file, capsys):
        rc = main(
            ["solve", "--model", "twcst", "--alg", "spuler", "--instance", i15_file,
             "--holes", "2"]
        )
        assert rc == 0
        assert "cost=116" in capsys.readouterr().out

    def test_exact_twcst_interval(self, i15_file, capsys):
        rc = main(
            ["solve", "--model", "twcst", "--alg", "exact", "--instance", i15_file,
             "--interval", "1", "8", "--holes", "1"]
        )
        assert rc == 0
        assert "cost=49" in capsys.readouterr().out

    def test_exact_interval_of_large_instance(self, tmp_path, capsys):
        # Only the interval's size is limited, not the instance's.
        path = tmp_path / "big.txt"
        path.write_text("".join(f"K{k:02d} {1 + k % 7}\n" for k in range(60)))
        rc = main(
            ["solve", "--model", "gbsplit", "--alg", "exact", "--instance", str(path),
             "--interval", "1", "5"]
        )
        assert rc == 0
        assert "cost=28" in capsys.readouterr().out

    def test_too_many_holes_is_usage_error(self, i9_file, capsys):
        rc = main(
            ["solve", "--model", "gbsplit", "--alg", "hw", "--instance", i9_file,
             "--holes", "99"]
        )
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_model_alg_mismatch(self, i9_file, capsys):
        rc = main(
            ["solve", "--model", "twcst", "--alg", "hw", "--instance", i9_file]
        )
        assert rc == 2

    def test_holeset_requires_exact(self, i9_file):
        rc = main(
            ["solve", "--model", "gbsplit", "--alg", "hw", "--instance", i9_file,
             "--holeset", "A3,B4"]
        )
        assert rc == 2

    def test_render_to_file(self, i9_file, tmp_path, capsys):
        out_file = tmp_path / "tree.dot"
        rc = main(
            ["solve", "--model", "gbsplit", "--alg", "hw", "--instance", i9_file,
             "--holes", "2", "--render", "dot", "--out", str(out_file)]
        )
        assert rc == 0
        assert out_file.read_text().startswith("digraph")

    def test_parse_error_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("A -3\n")
        rc = main(["solve", "--model", "gbsplit", "--alg", "hw", "--instance", str(bad)])
        assert rc == 3

    def test_missing_file_exit_3(self):
        rc = main(
            ["solve", "--model", "gbsplit", "--alg", "hw", "--instance", "/nonexistent"]
        )
        assert rc == 3

    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--model", "bogus", "--alg", "hw", "--instance", "x"])
        assert exc.value.code == 2


class TestVerifyPaper:
    def test_thm1_section(self, capsys):
        rc = main(["verify-paper", "--section", "thm1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "thm1.hw.cost: expected=1763 actual=1763 status=PASS" in out

    def test_figures_section(self, capsys):
        rc = main(["verify-paper", "--section", "figures"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "fig2.T_a.cost: expected=209 actual=209 status=PASS" in out
        assert "fig2.replacement.delta: expected=-1 actual=-1 status=PASS" in out

    def test_line_grammar(self, capsys):
        import re

        main(["verify-paper", "--section", "thm2"])
        out = capsys.readouterr().out
        grammar = re.compile(
            r"^[A-Za-z0-9_.]+: expected=-?\d+ actual=-?\d+ status=(PASS|FAIL)$"
        )
        for line in out.strip().splitlines():
            assert grammar.match(line), line

    def test_byte_identical_across_processes(self):
        import subprocess
        import sys

        cmd = [sys.executable, "-m", "cstlab.cli", "verify-paper",
               "--section", "all", "--seed", "1"]
        runs = [subprocess.run(cmd, capture_output=True) for _ in range(2)]
        assert runs[0].returncode == runs[1].returncode == 0
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].stdout

    def test_failing_report_exits_1(self, monkeypatch, capsys):
        from cstlab import bench

        broken = bench.Report((bench.Check("fig0.fake", 1, 2),))
        monkeypatch.setattr(bench, "verify_figures", lambda: broken)
        rc = main(["verify-paper", "--section", "figures"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "status=FAIL" in out


class TestFuzz:
    def test_clean_tiny_campaign(self, capsys):
        rc = main(
            ["fuzz", "--model", "gbsplit", "--n-min", "1", "--n-max", "1",
             "--trials", "3", "--seed", "1"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "fuzz.discrepancy_count: expected=0 actual=0 status=PASS" in out

    def test_fail_on_discrepancy(self, capsys):
        args = ["fuzz", "--model", "twcst", "--n-min", "6", "--n-max", "8",
                "--trials", "60", "--seed", "0"]
        rc_soft = main(args)
        out = capsys.readouterr().out
        rc_hard = main(args + ["--fail-on-discrepancy"])
        capsys.readouterr()
        if "status=FAIL" in out:
            assert rc_soft == 0 and rc_hard == 1
        else:
            assert rc_soft == 0 and rc_hard == 0

    def test_deterministic_output(self, capsys):
        args = ["fuzz", "--model", "twcst", "--n-min", "2", "--n-max", "7",
                "--trials", "20", "--seed", "9"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        second = capsys.readouterr().out
        assert first == second

    def test_bad_range_usage_error(self, capsys):
        rc = main(
            ["fuzz", "--model", "twcst", "--n-min", "5", "--n-max", "30",
             "--trials", "1"]
        )
        assert rc == 2

    @pytest.mark.parametrize("flag,value", [("--wmax", "0"), ("--holes-max", "-1")])
    def test_bad_flag_usage_error(self, flag, value, capsys):
        rc = main(["fuzz", "--model", "twcst", "--trials", "1", flag, value])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_discrepancy_with_flag_exits_1(self, monkeypatch, capsys):
        import dataclasses

        from cstlab import falsify
        from cstlab.bench import build_instance

        i15 = build_instance("I15").instance
        hit = falsify.Discrepancy(
            instance=i15, i=1, j=15, h=2, flawed_cost=116, oracle_cost=115,
            whole_instance=False, trial=0, seed=0,
        )

        def fake_campaign(cfg, injected=()):
            return falsify.CampaignReport(
                config=cfg, trials_run=1, checked_cells=1, discrepancies=(hit,)
            )

        monkeypatch.setattr(falsify, "campaign", fake_campaign)
        args = ["fuzz", "--model", "twcst", "--trials", "1"]
        assert main(args) == 0  # without the flag: report only
        capsys.readouterr()
        assert main(args + ["--fail-on-discrepancy"]) == 1
        assert "status=FAIL" in capsys.readouterr().out


class TestOtherCommands:
    def test_bound_placement(self, tmp_path, capsys):
        path = tmp_path / "i31.txt"
        path.write_text(format_instance(build_instance("I31").instance))
        rc = main(["bound", "--placement", "--instance", str(path)])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "placement_bound=1757"

    def test_bound_requires_flag(self, i9_file):
        assert main(["bound", "--instance", i9_file]) == 2

    def test_depth_seq(self, capsys):
        rc = main(["depth-seq", "6"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "d[4]=10" in out
        assert "e[6]=18" in out

    def test_depth_seq_bad_m(self):
        assert main(["depth-seq", "0"]) == 2

    def test_render_command(self, i9_file, tmp_path, capsys):
        tree_file = tmp_path / "tree.txt"
        tree_file.write_text("gbsplit\n(A2:D0 (A1:C0 B0 C0) (D1:E0 D0 E0))\n")
        rc = main(
            ["render", "--instance", i9_file, "--tree", str(tree_file),
             "--format", "ifelse"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "if (x == A2) return A2" in out

    def test_render_invalid_tree(self, i9_file, tmp_path, capsys):
        tree_file = tmp_path / "tree.txt"
        tree_file.write_text("gbsplit\n(A2:A1 A1 A1)\n")  # duplicate keys
        rc = main(
            ["render", "--instance", i9_file, "--tree", str(tree_file),
             "--format", "ascii"]
        )
        assert rc == 3
