"""CLI: exit codes, output grammar, end-to-end subcommands."""
import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cstlab.bench import build_instance
from cstlab import cli
from cstlab.cli import DEPTH_SEQ_LIMIT, DP_KEY_LIMIT, main
from cstlab.model import DpTable, ParseError, format_instance, parse_instance
from cstlab.render import FORMATS


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

    TWO_HOLES = ["--holes", "2"]
    ALL_HOLES = ["--interval", "2", "4", "--holes", "3"]
    EMPTY_TREE = ("[2,4] holes=3", "cost=0", "weight=0", "holes_used=A2,A3,B0")

    @pytest.mark.parametrize(
        "alg, argv, header",
        [
            ("hw", TWO_HOLES, ("[1,9] holes=2", "cost=209", "weight=97", "holes_used=A3,B4")),
            ("exact", TWO_HOLES, ("[1,9] holes=2", "cost=209", "weight=97", "holes_used=A1,A2")),
            ("hw", ALL_HOLES, EMPTY_TREE),
            ("exact", ALL_HOLES, EMPTY_TREE),
        ],
    )
    def test_whole_header(self, alg, argv, header, i9_file, capsys):
        """The header's four lines, exactly; the all-holes cases solve to
        the empty tree, which has nothing to render."""
        base = ["solve", "--model", "gbsplit", "--alg", alg, "--instance", i9_file, *argv]
        interval, *rest = header
        expected = [f"model=gbsplit alg={alg} interval={interval}", *rest]
        assert main(base) == 0
        assert capsys.readouterr().out.splitlines() == expected
        if argv is self.ALL_HOLES:
            assert main([*base, "--render", "ascii"]) == 2
            out, err = capsys.readouterr()
            assert out.splitlines() == expected
            assert "nothing to render" in err

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

    def test_holeset_outside_interval_is_usage_error(self, i9_file, capsys):
        rc = main(
            ["solve", "--model", "gbsplit", "--alg", "exact", "--instance", i9_file,
             "--interval", "1", "5", "--holeset", "A3,D1"]
        )
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and "outside interval [1,5]" in err

    def test_render_to_file(self, i9_file, tmp_path, capsys):
        out_file = tmp_path / "tree.dot"
        rc = main(
            ["solve", "--model", "gbsplit", "--alg", "hw", "--instance", i9_file,
             "--holes", "2", "--render", "dot", "--out", str(out_file)]
        )
        assert rc == 0
        assert out_file.read_text().startswith("digraph")

    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    def test_render_to_unwritable_path_exit_3(self, where, i9_file, tmp_path, capsys):
        out = tmp_path / "nodir" / "x.dot" if where == "missing-dir" else tmp_path
        rc = main(
            ["solve", "--model", "gbsplit", "--alg", "hw", "--instance", i9_file,
             "--render", "dot", "--out", str(out)]
        )
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith(f"error: cannot write {out}: ") and "Traceback" not in err

    def test_parse_error_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("A -3\n")
        rc = main(["solve", "--model", "gbsplit", "--alg", "hw", "--instance", str(bad)])
        assert rc == 3

    @pytest.mark.parametrize("weight", ["1_000", "+5", "\u0663", "\uff13"])
    def test_non_ascii_digit_weight_exit_3(self, weight, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text(f"A {weight}\n", encoding="utf-8")
        rc = main(["solve", "--model", "gbsplit", "--alg", "hw", "--instance", str(bad)])
        assert rc == 3
        assert "non-integer weight" in capsys.readouterr().err

    def test_missing_file_exit_3(self):
        rc = main(
            ["solve", "--model", "gbsplit", "--alg", "hw", "--instance", "/nonexistent"]
        )
        assert rc == 3

    def test_non_utf8_instance_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"A 1\nB \xff2\n")
        rc = main(["solve", "--model", "gbsplit", "--alg", "hw", "--instance", str(bad)])
        assert rc == 3
        assert capsys.readouterr().err.startswith(f"error: cannot read {bad}: ")

    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--model", "bogus", "--alg", "hw", "--instance", "x"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("model, alg", [("gbsplit", "hw"), ("twcst", "spuler")])
    def test_dp_interval_over_the_key_limit_exit_2(self, model, alg, tmp_path, monkeypatch):
        """An interval one key over the limit is refused before any fill,
        and before the solver sees a bad hole count; an inner interval of
        the same instance is solved."""
        def no_fill(self):
            raise AssertionError("the table was filled")

        n = DP_KEY_LIMIT + 1
        path = tmp_path / "big.txt"
        path.write_text("".join(f"K{k:03d} {1 + k % 7}\n" for k in range(n)))
        argv = ["solve", "--model", model, "--alg", alg, "--instance", str(path)]
        with monkeypatch.context() as patch:
            patch.setattr(DpTable, "_fill", no_fill)
            rc, err = _exit_code(argv)
            assert _exit_code([*argv, "--holes", "999"]) == (rc, err)
        assert rc == 2
        assert err == (
            f"error: interval of size {n} exceeds the configured {alg} limit {DP_KEY_LIMIT}\n"
        )
        assert _exit_code([*argv, "--interval", "2", "6"]) == (0, "")


# Both DPs and both exact oracles.
SOLVERS = [("gbsplit", "hw"), ("gbsplit", "exact"), ("twcst", "spuler"), ("twcst", "exact")]


class TestSolveRefusals:
    """solve with one bad argument: exit 2 and one exact stderr line, on
    I9 (keys A1 A2 A3 B0 B4 C0 D0 D1 E0)."""

    @pytest.mark.parametrize("model, alg", SOLVERS)
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--holes", "99"], "hole count 99 out of range 0..{max_h}"),
            (["--holes", "-1"], "hole count -1 out of range 0..{max_h}"),
            (["--interval", "2", "4", "--holes", "4"], "hole count 4 out of range 0..{max_h3}"),
            (["--interval", "0", "5"], "interval [0,5] invalid for n=9"),
            (["--interval", "3", "10"], "interval [3,10] invalid for n=9"),
            (["--interval", "6", "3"], "interval [6,3] invalid for n=9"),
            (["--interval", "6", "5"], "interval must be nonempty"),
        ],
    )
    def test_one_bad_argument(self, model, alg, flags, message, i9_file):
        min_queries = int(model == "twcst")
        argv = ["solve", "--model", model, "--alg", alg, "--instance", i9_file, *flags]
        message = message.format(max_h=9 - min_queries, max_h3=3 - min_queries)
        assert _exit_code(argv) == (2, f"error: {message}\n")

    @pytest.mark.parametrize("model, alg", SOLVERS)
    def test_holeset_key_outside_the_interval(self, model, alg, i9_file):
        argv = ["solve", "--model", model, "--alg", alg, "--instance", i9_file,
                "--interval", "1", "5", "--holeset", "A3,D1"]
        message = "hole key 8 outside interval [1,5]" if alg == "exact" else (
            "--holeset applies only to --alg exact"
        )
        assert _exit_code(argv) == (2, f"error: {message}\n")

    def test_twcst_holeset_of_every_key(self, i9_file):
        argv = ["solve", "--model", "twcst", "--alg", "exact", "--instance", i9_file,
                "--interval", "2", "3", "--holeset", "A2,A3"]
        assert _exit_code(argv) == (2, "error: subproblem must keep at least one query\n")

    @pytest.mark.parametrize("model, max_h", [("gbsplit", 31), ("twcst", 30)])
    def test_bad_hole_count_before_the_oracle_size_limit(self, model, max_h, tmp_path):
        """I31 is over both oracle limits; a bad hole count is still the
        error reported, and a good one meets the size refusal."""
        path = tmp_path / "i31.txt"
        path.write_text(format_instance(build_instance("I31").instance))
        argv = ["solve", "--model", model, "--alg", "exact", "--instance", str(path)]
        assert _exit_code([*argv, "--holes", "99"]) == (
            2, f"error: hole count 99 out of range 0..{max_h}\n"
        )
        limit = 16 if model == "gbsplit" else 18
        assert _exit_code([*argv, "--holes", "2"]) == (
            2, f"error: interval of size 31 exceeds the configured oracle limit {limit}\n"
        )


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

    def test_all_sections_match_the_expected_report(self, capsys):
        """The published numbers, byte for byte as recorded in the
        benchmark's expected report."""
        expected = Path(__file__).resolve().parents[1] / "cstbench" / "expected" / "paper.txt"
        rc = main(["verify-paper", "--section", "all"])
        assert rc == 0
        assert capsys.readouterr().out.encode() == expected.read_bytes()

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
            trial=0, seed=0,
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


    def test_library_value_error_exits_2_without_traceback(self, monkeypatch, capsys):
        from cstlab import falsify

        def failing_campaign(cfg, injected=()):
            raise ValueError("campaign refused")

        monkeypatch.setattr(falsify, "campaign", failing_campaign)
        assert main(["fuzz", "--model", "twcst", "--trials", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: campaign refused\n"


class TestOtherCommands:
    def test_bound_placement(self, tmp_path, capsys):
        path = tmp_path / "i31.txt"
        path.write_text(format_instance(build_instance("I31").instance))
        rc = main(["bound", "--placement", "--instance", str(path)])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "placement_bound=1757"

    def test_bound_non_utf8_instance_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"A 1\nB \xff2\n")
        rc = main(["bound", "--placement", "--instance", str(bad)])
        assert rc == 3
        assert capsys.readouterr().err.startswith(f"error: cannot read {bad}: ")

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

    def test_depth_seq_above_the_limit_exits_2_without_computing(self, monkeypatch, capsys):
        def refuse(m):
            raise AssertionError(f"depth_seq({m}) called above the limit")

        monkeypatch.setattr(cli, "depth_seq", refuse)
        assert main(["depth-seq", str(DEPTH_SEQ_LIMIT + 1)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"1..{DEPTH_SEQ_LIMIT}" in err

    def test_depth_seq_at_the_limit(self, capsys):
        assert main(["depth-seq", str(DEPTH_SEQ_LIMIT)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2 * DEPTH_SEQ_LIMIT

    def test_depth_seq_300_follows_the_recurrence(self, capsys):
        top = 300
        d = {1: 0, 2: 3}
        e = {1: 0, 2: 2, 3: 6}
        for m in range(3, top + 1):
            d[m] = m + min(d[i] + d[m - i] for i in range(1, m))
        for m in range(4, top + 1):
            e[m] = m + min(d[i] + e[m - i] for i in range(1, m))
        expected = [f"d[{m}]={d[m]}" for m in range(1, top + 1)]
        expected += [f"e[{m}]={e[m]}" for m in range(1, top + 1)]
        assert main(["depth-seq", str(top)]) == 0
        assert capsys.readouterr().out.splitlines() == expected

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

    def test_render_unknown_label(self, i9_file, tmp_path, capsys):
        tree_file = tmp_path / "tree.txt"
        tree_file.write_text("gbsplit\n(A2:A1 A1 ZZ)\n")
        rc = main(
            ["render", "--instance", i9_file, "--tree", str(tree_file),
             "--format", "ascii"]
        )
        assert rc == 3
        assert capsys.readouterr().err == "error: unknown key label 'ZZ'\n"

    def test_render_non_utf8_tree_exit_3(self, i9_file, tmp_path, capsys):
        tree_file = tmp_path / "tree.txt"
        tree_file.write_bytes(b"gbsplit\n(A:\xffB . B)\n")
        rc = main(
            ["render", "--instance", i9_file, "--tree", str(tree_file),
             "--format", "ascii"]
        )
        assert rc == 3
        assert capsys.readouterr().err.startswith(f"error: cannot read {tree_file}: ")

    def test_render_tree_deeper_than_recursion_limit(self, tmp_path, capsys):
        # Node k tests key k and sends every larger key right, under split k+1.
        deep = 1500
        labels = [f"K{k:04d}" for k in range(1, deep + 1)]
        inst_file = tmp_path / "chain.txt"
        inst_file.write_text("".join(f"{lab} {k % 7}\n" for k, lab in enumerate(labels)))
        chain = "".join(f"({a}:{b} . " for a, b in zip(labels, labels[1:]))
        tree_file = tmp_path / "chain.tree"
        tree_file.write_text(f"gbsplit\n{chain}{labels[-1]}{')' * (deep - 1)}\n")
        rc = main(
            ["render", "--instance", str(inst_file), "--tree", str(tree_file),
             "--format", "ifelse"]
        )
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("error: ") and "Traceback" not in err


class TestLongIntegers:
    """Weights and costs longer than Python's default int-str conversion
    limit (4300 digits) parse and print exactly, and the limit is back in
    force once ``main`` returns."""

    @pytest.fixture
    def restores_digit_limit(self):
        get = getattr(sys, "get_int_max_str_digits", lambda: None)
        before = get()
        yield
        assert get() == before

    def test_5000_digit_weight(self, tmp_path, capsys, restores_digit_limit):
        path = tmp_path / "long.txt"
        path.write_text(f"A {'1' * 5000}\n")
        assert main(["bound", "--placement", "--instance", str(path)]) == 0
        assert capsys.readouterr().out == f"placement_bound={'1' * 5000}\n"
        argv = ["solve", "--model", "gbsplit", "--alg", "hw", "--instance", str(path)]
        assert main(argv) == 0
        assert capsys.readouterr().out.splitlines()[1:] == [
            f"cost={'1' * 5000}", f"weight={'1' * 5000}", "holes_used="
        ]

    def test_bound_over_4300_digits(self, tmp_path, capsys, restores_digit_limit):
        # 100 keys of weight w = 10^4299 - 1: the bound is 580 w, as the
        # slot depths of ranks 1..100 sum to 580.
        path = tmp_path / "wide.txt"
        path.write_text("".join(f"K{k:03d} {'9' * 4299}\n" for k in range(100)))
        assert main(["bound", "--placement", "--instance", str(path)]) == 0
        assert capsys.readouterr().out == f"placement_bound=579{'9' * 4296}420\n"

    def test_cost_over_4300_digits(self, tmp_path, capsys, restores_digit_limit):
        # Two keys of weight w = 10^4300 - 1: cost 3w, weight 2w.
        path = tmp_path / "two.txt"
        path.write_text(f"A {'9' * 4300}\nB {'9' * 4300}\n")
        argv = ["solve", "--model", "gbsplit", "--alg", "hw", "--instance", str(path)]
        assert main(argv) == 0
        assert capsys.readouterr().out.splitlines()[1:3] == [
            f"cost=2{'9' * 4299}7", f"weight=1{'9' * 4299}8"
        ]

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no int-str digit limit"
    )
    @pytest.mark.parametrize(
        "line", [f"B {'1' * 5000}", f"K{'1' * 5000} 1"], ids=["weight", "label"]
    )
    def test_parse_error_not_value_error(self, line):
        """A weight or a label digit run past the limit is a ParseError
        naming its line, the error type the CLI maps to exit 3."""
        with pytest.raises(ParseError, match="^line 2: .*5000 digits"):
            parse_instance(f"A 1\n{line}\n")


def _exit_code(argv):
    """Run the CLI in-process; returns its exit code and stderr.  argparse
    reports its own usage errors by raising SystemExit(2)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, err.getvalue()


def _encode(draw, lines):
    """The file of *lines*, with a 0xff byte inserted one time in ten."""
    data = ("\n".join(lines) + "\n").encode()
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        cut = draw(st.integers(min_value=0, max_value=len(data)))
        data = data[:cut] + b"\xff" + data[cut:]
    return data


# Instance file lines: well-formed key lines (labels K1.. in order) mixed
# with comments, blanks and malformed lines.
_MALFORMED_LINES = st.sampled_from(
    ["K1", "K1 2 3", "K1 -4", "K1 x", "bad-label 1", "K0 1", "K1 1", "# note", ""]
)


@st.composite
def _instance_file(draw, n):
    """An instance file of n keys with up to two malformed lines."""
    weights = draw(st.lists(st.integers(min_value=0, max_value=20), min_size=n, max_size=n))
    lines = [f"K{k} {w}" for k, w in enumerate(weights, 1)]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        lines.insert(draw(st.integers(min_value=0, max_value=len(lines))), draw(_MALFORMED_LINES))
    return _encode(draw, lines)


# --out targets, relative to a fresh directory: a new file, a file in a
# missing directory, and the directory itself.
_OUT_TARGETS = ["tree.out", os.path.join("nodir", "tree.out"), "."]


@st.composite
def _solve_argv(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    data = draw(_instance_file(n))
    model, alg = draw(
        st.sampled_from(
            [("gbsplit", "hw"), ("gbsplit", "exact"), ("twcst", "spuler"),
             ("twcst", "exact"), ("gbsplit", "spuler"), ("twcst", "hw")]
        )
    )
    flags = ["--model", model, "--alg", alg]
    small = st.integers(min_value=-1, max_value=n + 2)
    if draw(st.booleans()):
        flags += ["--holes", str(draw(small))]
    if draw(st.booleans()):
        flags += ["--interval", str(draw(small)), str(draw(small))]
    if draw(st.booleans()):
        labels = draw(st.lists(st.sampled_from([f"K{k}" for k in range(0, n + 2)]), max_size=3))
        flags += ["--holeset", ",".join(labels)]
    if draw(st.booleans()):
        flags += ["--render", draw(st.sampled_from(FORMATS))]
    out = draw(st.sampled_from([None, *_OUT_TARGETS]))
    return data, flags, out


class TestSolveExitCodes:
    @settings(max_examples=300, deadline=None)
    @given(_solve_argv())
    def test_exit_code_is_always_in_the_contract(self, case):
        """Every solve call ends with 0, 1, 2 or 3 and never a traceback."""
        data, flags, out = case
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "inst.txt")
            with open(path, "wb") as fh:
                fh.write(data)
            if out is not None:
                flags = [*flags, "--out", os.path.join(tmp, out)]
            rc, err = _exit_code(["solve", "--instance", path, *flags])
        assert rc in (0, 1, 2, 3), (data, flags, rc)
        assert "Traceback" not in err


class TestBoundExitCodes:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=1, max_value=12).flatmap(_instance_file), st.booleans())
    def test_exit_code_is_always_in_the_contract(self, data, placement):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "inst.txt")
            with open(path, "wb") as fh:
                fh.write(data)
            flags = ["--placement"] if placement else []
            rc, err = _exit_code(["bound", "--instance", path, *flags])
        assert rc in (0, 1, 2, 3), (data, placement, rc)
        assert "Traceback" not in err


@st.composite
def _fuzz_argv(draw):
    """Small campaigns (n <= 8, at most 3 trials) with flags inside and
    outside their ranges; an n-max above the oracle limit is refused before
    any trial runs."""
    argv = ["fuzz", "--model", draw(st.sampled_from(["gbsplit", "twcst", "bogus"]))]
    for flag, values in (
        ("--n-min", st.integers(min_value=-2, max_value=8)),
        ("--n-max", st.one_of(st.integers(min_value=-2, max_value=8), st.sampled_from([19, 40]))),
        ("--wmax", st.one_of(st.integers(min_value=-2, max_value=20), st.just(10**12))),
        ("--trials", st.integers(min_value=-1, max_value=3)),
        ("--seed", st.integers(min_value=-5, max_value=5)),
        ("--holes-max", st.integers(min_value=-2, max_value=4)),
    ):
        if draw(st.booleans()):
            argv += [flag, str(draw(values))]
    if "--n-max" not in argv:
        argv += ["--n-max", "8"]
    if "--trials" not in argv:
        argv += ["--trials", "3"]
    if draw(st.booleans()):
        argv.append("--fail-on-discrepancy")
    return argv


class TestFuzzExitCodes:
    @settings(max_examples=100, deadline=None)
    @given(_fuzz_argv())
    def test_exit_code_is_always_in_the_contract(self, argv):
        rc, err = _exit_code(argv)
        assert rc in (0, 1, 2, 3), (argv, rc)
        assert "Traceback" not in err


class TestDepthSeqExitCodes:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=-5, max_value=300))
    def test_exit_code_is_always_in_the_contract(self, m):
        rc, err = _exit_code(["depth-seq", str(m)])
        assert rc in (0, 1, 2, 3), (m, rc)
        assert "Traceback" not in err


# Tree files: a model tag (good or bad), comment lines, and expressions
# built from the grammar's tokens with labels inside and outside I9.
_TREE_TOKENS = st.sampled_from(
    ["(", ")", ".", "=", "<", ":", "A1", "A2", "B4", "E0", "K1", "A1:B0", "D1:E0"]
)


@st.composite
def _tree_file(draw):
    lines = [draw(st.sampled_from(["gbsplit", "twcst", "GBSPLIT", "tree", ""]))]
    body = draw(st.lists(_TREE_TOKENS, max_size=24))
    lines.append(" ".join(body) if draw(st.booleans()) else "".join(body))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        lines.insert(draw(st.integers(min_value=0, max_value=len(lines))), "# note")
    return _encode(draw, lines)


class TestRenderExitCodes:
    @settings(max_examples=300, deadline=None)
    @given(_tree_file())
    def test_exit_code_is_always_in_the_contract(self, data):
        """Every render call, in every format, ends with 0-3 and never a
        traceback."""
        with tempfile.TemporaryDirectory() as tmp:
            inst_path = os.path.join(tmp, "i9.txt")
            with open(inst_path, "w", encoding="utf-8") as fh:
                fh.write(format_instance(build_instance("I9").instance))
            tree_path = os.path.join(tmp, "tree.txt")
            with open(tree_path, "wb") as fh:
                fh.write(data)
            for fmt in FORMATS:
                rc, err = _exit_code(
                    ["render", "--instance", inst_path, "--tree", tree_path, "--format", fmt]
                )
                assert rc in (0, 1, 2, 3), (data, fmt, rc)
                assert "Traceback" not in err
