"""Acceptance gate: one test per criterion, exact integer comparisons, with
the stated runtime limits.  Each test prints a single PASS line on success
(run with -s to see them live)."""
import time

import reference_kernels as ref
from cstlab import bench, falsify
from cstlab.bench import build_instance
from cstlab.cli import main
from cstlab.hw import HwTable, hw_solve
from cstlab.model import (
    Interval,
    tree_cost,
    tree_weight,
    validate,
)
from cstlab.oracle import (
    GbstOracle,
    TwcstOracle,
    depth_bound_violations,
    depth_seq,
    eq_root_weight_ok,
    placement_lower_bound,
)
from cstlab.spuler import SpulerTable, spuler_solve

I9 = build_instance("I9").instance
I31 = build_instance("I31").instance
I8 = build_instance("I8").instance
I15 = build_instance("I15").instance


def _report(num: int, label: str) -> None:
    print(f"ACCEPTANCE {num} ({label}): PASS")


def test_criterion_1_figure_reproduction():
    t0 = time.perf_counter()
    i10 = bench._prefix_instance(10)

    t2a, t2b = bench.exhibit("fig2_a", I9), bench.exhibit("fig2_b", I9)
    assert tree_cost(t2a, I9) == 209
    assert tree_cost(t2b, I9) == 210
    assert tree_weight(t2a, I9) == 97
    assert tree_weight(t2b, I9) == 95
    assert tree_weight(t2a, I9) - tree_weight(t2b, I9) == 2

    t4a, t4b, t4c = (bench.exhibit(name, I8) for name in ("fig4_a", "fig4_b", "fig4_c"))
    assert (tree_cost(t4a, I8), tree_weight(t4a, I8)) == (49, 22)
    assert (tree_cost(t4b, I8), tree_weight(t4b, I8)) == (50, 20)
    assert (tree_cost(t4c, I8), tree_weight(t4c, I8)) == (50, 20)
    assert t4b != t4c

    t5a, t5b = bench.exhibit("fig5_a", i10), bench.exhibit("fig5_b", i10)
    assert (tree_cost(t5a, i10), tree_weight(t5a, i10)) == (69, 27)
    assert (tree_cost(t5b, i10), tree_weight(t5b, i10)) == (70, 25)

    ctx_a = bench.fig2_context(5, 3, t2a)
    ctx_b = bench.fig2_context(8, 3, t2b)
    assert tree_cost(ctx_a, I9) == 463
    assert tree_cost(ctx_b, I9) == 462
    assert tree_cost(ctx_b, I9) - tree_cost(ctx_a, I9) == -1

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"figure reproduction took {elapsed:.2f}s"
    _report(1, "figure reproduction")


def test_criterion_2_theorem1():
    t0 = time.perf_counter()
    full = I31.full_interval()
    assert hw_solve(I31, full, 0).cost == 1763
    hw_time = time.perf_counter() - t0
    assert hw_time < 5.0, f"hw on n=31 took {hw_time:.2f}s"

    witness = bench.exhibit("fig3", I31)
    assert tree_cost(witness, I31) == 1762
    assert validate(witness, full, (), I31).ok
    assert placement_lower_bound(I31) == 1757

    t1 = time.perf_counter()
    oracle = GbstOracle(I9)
    assert oracle.opt_star_cost(I9.full_interval(), 2) == 209
    oracle_time = time.perf_counter() - t1
    assert oracle_time < 10.0, f"oracle on (I9, 2) took {oracle_time:.2f}s"
    assert hw_solve(I9, I9.full_interval(), 2).cost == 209
    _report(2, "theorem 1: 1763 vs witness 1762, bound 1757")


def test_criterion_3_theorem2():
    assert spuler_solve(I15, I15.full_interval(), 2).cost == 116

    t0 = time.perf_counter()
    oracle = TwcstOracle(I15)
    cost, tree, holes = oracle.opt_star(I15.full_interval(), 2)
    elapsed = time.perf_counter() - t0
    assert cost == 115
    assert validate(tree, I15.full_interval(), holes, I15).ok
    assert elapsed < 300.0, f"oracle over 105 hole sets took {elapsed:.1f}s"

    bad = falsify.audit_subproblems(falsify.TWCST, I15)
    assert len(bad) >= 1 and all(d.gap > 0 for d in bad)
    _report(3, "theorem 2: 116 vs 115 and a bad subproblem cell")


def test_criterion_4_depth_sequences():
    d, e = depth_seq(6)
    assert d == (0, 3, 6, 10, 14, 18)
    assert d[2] == 6 and d[3] == 10 and d[4] == 14
    assert e[3] == 9 and e[4] == 13 and e[5] == 18
    _report(4, "depth sequences d/e")


def test_criterion_5_lemma_constants():
    o8 = TwcstOracle(I8)
    cost, tree, _ = o8.opt_star(I8.full_interval(), 1)
    assert (cost, tree_weight(tree, I8)) == (49, 22)

    i10 = bench._prefix_instance(10)
    o10 = TwcstOracle(i10)
    cost, tree, _ = o10.opt_star(i10.full_interval(), 1)
    assert (cost, tree_weight(tree, i10)) == (69, 27)
    _report(5, "four- and five-query optima (49,22) and (69,27)")


def test_criterion_6_property_suite():
    t0 = time.perf_counter()
    d, e = depth_seq(6)
    trials = 1000
    for t in range(trials):
        n = 1 + t % 8
        inst = falsify.random_instance(n, 16, 20_000 + t)
        full = inst.full_interval()

        hw = HwTable(inst)
        go = GbstOracle(inst)
        for i, j, h in hw.cells():
            iv = Interval(i, j)
            flawed = hw.cost(i, j, h)
            exact = go.opt_star_cost(iv, h)
            assert flawed >= exact, (inst.weights, i, j, h)  # (a)
            r = hw.result(i, j, h)
            assert validate(r.tree, iv, r.holes_in(iv), inst).ok  # (b)
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                iv = Interval(i, j)
                prev = None
                for h in range(j - i + 2):
                    cost, tree, holes = go.opt_star(iv, h)
                    assert validate(tree, iv, holes, inst).ok  # (b)
                    if prev is not None:
                        assert cost <= prev  # (c)
                    prev = cost

        sp = SpulerTable(inst)
        to = TwcstOracle(inst)
        to_raw = ref.TwcstCostKernel(inst.weights, prune_zero_eq=False)
        for i, j, h in sp.cells():
            iv = Interval(i, j)
            flawed = sp.cost(i, j, h)
            exact = to.opt_star_cost(iv, h)
            assert flawed >= exact, (inst.weights, i, j, h)  # (a)
            assert exact == to_raw.star(i, j, h)[0], (inst.weights, i, j, h)  # (d)
            r = sp.result(i, j, h)
            assert validate(r.tree, iv, r.holes_in(iv), inst).ok  # (b)
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                iv = Interval(i, j)
                prev = None
                for h in range(j - i + 1):
                    cost, tree, holes = to.opt_star(iv, h)
                    assert validate(tree, iv, holes, inst).ok  # (b)
                    if prev is not None:
                        assert cost <= prev  # (c)
                    prev = cost
                    if i == 1 and j == n:
                        assert eq_root_weight_ok(tree, inst)  # (e)
                        assert depth_bound_violations(tree, d, e) == []  # (f)

    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0, f"property suite took {elapsed:.1f}s"
    _report(6, f"property suite over {trials} instances in {elapsed:.1f}s")


def test_criterion_7_determinism(capsys):
    rc1 = main(["verify-paper", "--section", "all", "--seed", "1"])
    first = capsys.readouterr().out
    rc2 = main(["verify-paper", "--section", "all", "--seed", "1"])
    second = capsys.readouterr().out
    assert rc1 == rc2 == 0
    assert first == second and first  # byte-identical

    cfg = falsify.CampaignConfig(
        model=falsify.TWCST, n_min=4, n_max=8, trials=30, base_seed=77
    )
    case = falsify.InjectedCase("I31", I31, bench.exhibit("fig3", I31))
    gb_cfg = falsify.CampaignConfig(
        model=falsify.GBSPLIT, n_min=2, n_max=6, trials=10, base_seed=5
    )
    a = falsify.campaign(cfg)
    b = falsify.campaign(cfg)
    assert a.summary_lines() == b.summary_lines()
    inj1 = falsify.campaign(gb_cfg, injected=(case,))
    inj2 = falsify.campaign(gb_cfg, injected=(case,))
    assert inj1.summary_lines() == inj2.summary_lines()
    assert any(d.certified == "witness" and d.gap == 1 for d in inj1.discrepancies)
    # A random 16-key trial with a real gap, cell (1,16,2) at 266 against 265.
    gap_cfg = falsify.CampaignConfig(
        model=falsify.TWCST, n_min=16, n_max=16, wmax=16, trials=1, base_seed=196, holes_max=2
    )
    gap = falsify.campaign(gap_cfg)
    replays = 0
    for run_cfg, report in ((cfg, a), (gap_cfg, gap)):
        for d in report.discrepancies:
            replayed = falsify.replay_trial(run_cfg, d.trial)
            assert any((r.i, r.j, r.h, r.gap) == (d.i, d.j, d.h, d.gap) for r in replayed)
            replays += 1
    assert replays >= 1
    with capsys.disabled():
        print()
        _report(7, "byte-identical verification and exact fuzz replay")
