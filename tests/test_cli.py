"""CLI: exit codes, output grammar, end-to-end subcommands."""
import contextlib
import io
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cstlab.bench import build_instance
from cstlab.cli import main
from cstlab.model import format_instance
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
