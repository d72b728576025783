"""Named instances, their checksums, and the verification reports."""
import pytest

from cstlab import bench
from cstlab.bench import (
    Check,
    Report,
    build_instance,
    positive_key_count,
    verify_all,
    verify_depth_lemma,
    verify_figures,
    verify_theorem1,
    verify_theorem2,
)
from cstlab.cli import main


class TestNamedInstances:
    def test_names(self):
        for name in bench.INSTANCE_NAMES:
            named = build_instance(name)
            assert named.name == name

    def test_i9_sum(self):
        inst = build_instance("I9").instance
        assert sum(inst.weights) == 137
        assert inst.weights == (20, 20, 20, 10, 20, 5, 10, 22, 10)

    def test_i31_multiset(self):
        from collections import Counter

        inst = build_instance("I31").instance
        assert Counter(inst.weights) == {22: 1, 20: 14, 10: 15, 5: 1}
        assert sum(inst.weights) == 457
        assert inst.weights[11] == 10

    def test_i15_weights(self):
        inst = build_instance("I15").instance
        assert inst.weights[0] == 7
        assert inst.weights == (7, 5, 0, 5, 0, 5, 0, 5, 0, 5, 0, 5, 0, 5, 7)

    def test_i8_is_prefix(self):
        i8 = build_instance("I8").instance
        i15 = build_instance("I15").instance
        assert i8.weights == i15.weights[:8]

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            build_instance("I99")

    def test_mistranscription_fails_fast(self, monkeypatch):
        # A wrong weight anywhere must be caught at construction, before any
        # verification runs.
        bad = list(bench._I31_WEIGHTS)
        bad[20] += 1
        monkeypatch.setattr(bench, "_I31_WEIGHTS", tuple(bad))
        with pytest.raises(AssertionError, match="checksum"):
            build_instance("I31")
        shuffled = list(bench._I15_WEIGHTS)
        shuffled[0] = 6
        monkeypatch.setattr(bench, "_I15_WEIGHTS", tuple(shuffled))
        with pytest.raises(AssertionError, match="checksum"):
            build_instance("I15")

    def test_positive_key_count(self):
        assert [positive_key_count(l) for l in range(1, 15)] == [
            1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8,
        ]
        with pytest.raises(ValueError):
            positive_key_count(15)


class TestReports:
    def test_check_line_grammar(self):
        assert Check("x.y", 3, 3).line() == "x.y: expected=3 actual=3 status=PASS"
        assert Check("x.y", 3, 4).line() == "x.y: expected=3 actual=4 status=FAIL"

    def test_report_overall(self):
        good = Report((Check("a", 1, 1),))
        bad = Report((Check("a", 1, 1), Check("b", 2, 3)))
        assert good.passed and not bad.passed

    def test_figures(self):
        report = verify_figures()
        assert report.passed, [c.line() for c in report.checks if not c.passed]

    def test_theorem1(self):
        report = verify_theorem1()
        assert report.passed, [c.line() for c in report.checks if not c.passed]

    def test_theorem2(self):
        report = verify_theorem2()
        assert report.passed, [c.line() for c in report.checks if not c.passed]

    def test_theorem2_reads_one_cell_without_an_audit(self, monkeypatch):
        # Theorem 2 needs the (I15, 2) cell only, never a whole-table sweep.
        from cstlab.oracle import ExactOracle

        def star_rows(self, *args, **kwargs):
            raise AssertionError("verify_theorem2 swept the whole table")

        monkeypatch.setattr(ExactOracle, "star_rows", star_rows)
        report = verify_theorem2()
        assert report.passed, [c.line() for c in report.checks if not c.passed]

    def test_theorem2_bad_cell_follows_the_printed_costs(self):
        by_name = {c.name: c.actual for c in verify_theorem2().checks}
        spuler, oracle = by_name["thm2.spuler.cost"], by_name["thm2.oracle.cost"]
        assert by_name["thm2.bad_cell.exists"] == int(spuler > oracle) == 1

    def test_theorem2_lines(self, capsys):
        assert main(["verify-paper", "--section", "thm2"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "thm2.spuler.cost: expected=116 actual=116 status=PASS",
            "thm2.oracle.cost: expected=115 actual=115 status=PASS",
            "thm2.oracle.valid: expected=1 actual=1 status=PASS",
            "thm2.witness.cost: expected=115 actual=115 status=PASS",
            "thm2.witness.valid: expected=1 actual=1 status=PASS",
            "thm2.bad_cell.exists: expected=1 actual=1 status=PASS",
        ]

    def test_depth_lemma(self):
        report = verify_depth_lemma(seed=1)
        assert report.passed, [c.line() for c in report.checks if not c.passed]

    def test_depth_lemma_deterministic(self):
        a = verify_depth_lemma(seed=7)
        b = verify_depth_lemma(seed=7)
        assert a.lines() == b.lines()

    def test_named_check_values(self):
        report = verify_all(seed=1)
        by_name = {c.name: c for c in report.checks}
        assert by_name["fig2.T_a.cost"].actual == 209
        assert by_name["thm1.hw.cost"].actual == 1763
        assert by_name["thm1.witness.cost"].actual == 1762
        assert by_name["thm1.placement"].actual == 1757
        assert by_name["thm2.spuler.cost"].actual == 116
        assert by_name["thm2.oracle.cost"].actual == 115
        assert by_name["thm2.bad_cell.exists"].actual == 1
        assert by_name["depth.d4"].actual == 10
        assert by_name["lemmaT4.I8.h1.cost"].actual == 49
        assert by_name["lemmaT4.I8.h1.weight"].actual == 22
        assert by_name["lemmaT5.I10.h1.cost"].actual == 69
        assert by_name["lemmaT5.I10.h1.weight"].actual == 27
