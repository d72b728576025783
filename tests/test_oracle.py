"""Exact oracles versus independent brute-force enumeration, plus the
placement bound and the d/e depth sequences."""
import pytest

import reference_kernels as ref
from brute import min_gbst_cost, min_twcst_cost
from cstlab.bench import build_instance
from cstlab.falsify import random_instance
from cstlab.model import (
    Instance,
    Interval,
    tree_cost,
    validate,
)
from cstlab.oracle import (
    GbstOracle,
    SizeLimitError,
    TwcstOracle,
    depth_bound_violations,
    depth_seq,
    eq_root_weight_ok,
    placement_lower_bound,
)

I9 = build_instance("I9").instance
I15 = build_instance("I15").instance
I8 = build_instance("I8").instance
I31 = build_instance("I31").instance


def test_backend_name():
    # The benchmark's environment line reads cstlab.BACKEND.
    import cstlab

    assert cstlab.BACKEND == "pure"


class TestGbstOpt:
    def test_i9_two_named_holes(self):
        oracle = GbstOracle(I9)
        cost, tree = oracle.opt(I9.full_interval(), (3, 5))
        assert cost == 209
        assert validate(tree, I9.full_interval(), (3, 5), I9).ok

    def test_all_holes_empty_tree(self):
        oracle = GbstOracle(I9)
        iv = Interval(2, 4)
        cost, tree = oracle.opt(iv, (2, 3, 4))
        assert cost == 0 and tree is None

    def test_single_key(self):
        oracle = GbstOracle(I9)
        cost, tree = oracle.opt(Interval(8, 8), ())
        assert cost == I9.weight(8)
        assert tree.eq == 8

    def test_stored_cost_matches_evaluator(self):
        oracle = GbstOracle(I9)
        for holes in ((), (1,), (3, 5), (2, 6, 7)):
            cost, tree = oracle.opt(I9.full_interval(), holes)
            assert cost == tree_cost(tree, I9)

    def test_size_limit_refusal(self):
        oracle = GbstOracle(I31)
        with pytest.raises(SizeLimitError, match="limit 16"):
            oracle.opt(I31.full_interval(), ())

    def test_i31_blocks_from_separate_spans(self):
        # [1, 9] opens the window [1, 16], which [10, 16] reuses; [17, 31]
        # lies outside it and moves the window to [16, 31].
        oracle = GbstOracle(I31)
        assert oracle.opt_star_cost(Interval(1, 9), 2) == 209
        assert oracle._shift == 0  # the window [1, 16]
        assert oracle.opt_cost(Interval(10, 16)) == 220
        assert oracle._shift == 0
        cost, tree = oracle.opt(Interval(17, 31))
        assert cost == 660 == tree_cost(tree, I31)
        assert validate(tree, Interval(17, 31), (), I31).ok
        assert oracle._shift == 15  # the window [16, 31]
        assert oracle.opt(Interval(20, 19)) == (0, None)
        assert oracle._shift == 15  # an empty interval inside it keeps it

    def test_cost_beyond_int64_is_exact(self):
        # 37 * 2^58 exceeds int64, so a fixed-width cost would wrap.
        inst = Instance(tuple(f"K{k:02d}" for k in range(1, 13)), (2**58,) * 12)
        cost = GbstOracle(inst).opt_cost(inst.full_interval())
        assert cost == 37 * 2**58
        assert cost > 2**63

    def test_matches_bruteforce_enumeration(self):
        import itertools

        for seed in range(8):
            inst = random_instance(5, 9, seed)
            oracle = GbstOracle(inst)
            full = inst.full_interval()
            universe = tuple(range(1, inst.n + 1))
            for h in range(inst.n + 1):
                cost, tree, holes = oracle.opt_star(full, h)
                expected = min(
                    min_gbst_cost(inst, tuple(sorted(set(universe) - set(hs))))
                    for hs in itertools.combinations(universe, h)
                )
                assert cost == expected
                assert validate(tree, full, holes, inst).ok


class TestGbstOptStar:
    def test_i9_h2(self):
        oracle = GbstOracle(I9)
        cost, tree, holes = oracle.opt_star(I9.full_interval(), 2)
        assert cost == 209
        assert validate(tree, I9.full_interval(), holes, I9).ok

    def test_all_holes(self):
        oracle = GbstOracle(I9)
        cost, tree, holes = oracle.opt_star(I9.full_interval(), 9)
        assert cost == 0 and tree is None and len(holes) == 9

    def test_hole_monotonicity(self):
        for seed in range(6):
            inst = random_instance(6, 12, 100 + seed)
            oracle = GbstOracle(inst)
            full = inst.full_interval()
            costs = [oracle.opt_star_cost(full, h) for h in range(inst.n + 1)]
            assert all(a >= b for a, b in zip(costs, costs[1:]))

    def test_dominated_by_figure_trees(self):
        from cstlab import bench
        from cstlab.bench import exhibit

        oracle = GbstOracle(I9)
        assert oracle.opt_cost(I9.full_interval(), (3, 5)) <= tree_cost(exhibit("fig2_a", I9), I9)
        assert oracle.opt_cost(I9.full_interval(), (3, 8)) <= tree_cost(exhibit("fig2_b", I9), I9)
        i10 = bench._prefix_instance(10)
        o8, o10, o15 = TwcstOracle(I8), TwcstOracle(i10), TwcstOracle(I15)
        assert o8.opt_cost(I8.full_interval(), (8,)) <= tree_cost(exhibit("fig4_a", I8), I8)
        assert o8.opt_cost(I8.full_interval(), (1,)) <= tree_cost(exhibit("fig4_b", I8), I8)
        assert o8.opt_cost(I8.full_interval(), (1,)) <= tree_cost(exhibit("fig4_c", I8), I8)
        assert o10.opt_cost(i10.full_interval(), (10,)) <= tree_cost(exhibit("fig5_a", i10), i10)
        assert o10.opt_cost(i10.full_interval(), (1,)) <= tree_cost(exhibit("fig5_b", i10), i10)
        assert o15.opt_cost(I15.full_interval(), (1, 15)) <= tree_cost(
            exhibit("fig6", I15), I15
        )

    def test_bad_hole_count(self):
        oracle = GbstOracle(I9)
        with pytest.raises(ValueError, match="out of range"):
            oracle.opt_star(I9.full_interval(), 10)


class TestTwcstOpt:
    def test_i8_without_heaviest(self):
        oracle = TwcstOracle(I8)
        cost, tree = oracle.opt(I8.full_interval(), (1,))
        assert cost == 50
        assert validate(tree, I8.full_interval(), (1,), I8).ok

    def test_single_query(self):
        oracle = TwcstOracle(I8)
        cost, tree = oracle.opt(Interval(3, 3), ())
        assert cost == 0 and tree.key == 3

    def test_i15_heavy_holes(self):
        oracle = TwcstOracle(I15)
        cost, tree = oracle.opt(I15.full_interval(), (1, 15))
        assert cost == 115
        assert validate(tree, I15.full_interval(), (1, 15), I15).ok

    def test_rejects_all_holes(self):
        oracle = TwcstOracle(I8)
        with pytest.raises(ValueError, match="at least one query"):
            oracle.opt(Interval(1, 2), (1, 2))

    def test_size_limit(self):
        inst = random_instance(19, 9, 0)
        oracle = TwcstOracle(inst)
        with pytest.raises(SizeLimitError, match="limit 18"):
            oracle.opt(inst.full_interval(), ())

    def test_matches_bruteforce_enumeration(self):
        import itertools

        for seed in range(8):
            inst = random_instance(5, 9, 50 + seed)
            oracle = TwcstOracle(inst)
            full = inst.full_interval()
            universe = tuple(range(1, inst.n + 1))
            for h in range(inst.n):
                cost, tree, holes = oracle.opt_star(full, h)
                expected = min(
                    min_twcst_cost(inst, tuple(sorted(set(universe) - set(hs))))
                    for hs in itertools.combinations(universe, h)
                )
                assert cost == expected
                assert validate(tree, full, holes, inst).ok


class TestTwcstOptStar:
    def test_i8_one_hole(self):
        oracle = TwcstOracle(I8)
        cost, tree, holes = oracle.opt_star(I8.full_interval(), 1)
        assert cost == 49

    def test_i15_two_holes(self):
        oracle = TwcstOracle(I15)
        cost, tree, holes = oracle.opt_star(I15.full_interval(), 2)
        assert cost == 115
        assert validate(tree, I15.full_interval(), holes, I15).ok

    @pytest.mark.parametrize("h", [0, 1])
    def test_interval_without_keys(self, h):
        """A 2WCST keeps one key, so an empty interval has no hole count;
        the refusal says so, in the Spuler table's words."""
        with pytest.raises(ValueError) as info:
            TwcstOracle(I15).opt_star(Interval(3, 2), h)
        assert str(info.value) == "interval [3,2] has too few keys: 0 < 1"

    def test_max_holes_single_leaf(self):
        oracle = TwcstOracle(I8)
        cost, tree, holes = oracle.opt_star(I8.full_interval(), 7)
        assert cost == 0
        assert validate(tree, I8.full_interval(), holes, I8).ok

    def test_pruning_equivalence(self):
        for seed in range(10):
            inst = random_instance(2 + seed % 7, 10, 200 + seed)
            with_prune = TwcstOracle(inst)
            without = ref.TwcstCostKernel(inst.weights, prune_zero_eq=False)
            full = inst.full_interval()
            for h in range(inst.n):
                assert with_prune.opt_star_cost(full, h) == without.star(1, inst.n, h)[0]

    def test_eq_nodes_have_matching_leaf_yes_branch(self):
        from cstlab.model import EQ, Cmp, Leaf

        for seed in range(10):
            inst = random_instance(3 + seed % 6, 10, 250 + seed)
            oracle = TwcstOracle(inst)
            full = inst.full_interval()
            for h in range(inst.n):
                _, tree, _ = oracle.opt_star(full, h)
                stack = [tree]
                while stack:
                    node = stack.pop()
                    if isinstance(node, Cmp):
                        if node.op == EQ:
                            assert node.yes == Leaf(node.key)
                        stack.extend((node.yes, node.no))

    def test_twcst_scaling_linearity(self):
        from cstlab.bench import exhibit

        scaled = I8.scaled(6)
        assert tree_cost(exhibit("fig4_a", I8), scaled) == 6 * 49


class TestStarRows:
    """One pass over the query sets gives every cell's opt* and costs
    exactly the query sets that per-cell opt_star_cost would."""

    @pytest.mark.parametrize("seed", range(100))
    def test_matches_per_cell_opt_star(self, seed):
        inst = random_instance(2 + seed % 9, 16, 700 + seed)
        n = inst.n
        for oracle in (GbstOracle, TwcstOracle):
            for root in (inst.full_interval(), Interval(2, max(2, n - 1))):
                for holes_max in (None, 0, 1, 2):
                    new = oracle(inst)
                    rows = new.star_rows(root, holes_max)
                    fresh = oracle(inst)
                    expected = {}
                    for i in root.keys():
                        for j in range(i, root.j + 1):
                            top = j - i + 1 - oracle.min_queries
                            if holes_max is not None:
                                top = min(top, holes_max)
                            expected[(i, j)] = [
                                fresh.opt_star_cost(Interval(i, j), h) for h in range(top + 1)
                            ]
                    assert rows == expected, (oracle.__name__, root, holes_max)
                    assert ref.filled_states(new) == ref.filled_states(fresh), (oracle.__name__, root, holes_max)

    @pytest.mark.parametrize("seed", range(6))
    def test_sub_interval_queries_fill_no_new_slot(self, seed):
        # The pass costs every query set of the root interval, so every
        # later query inside it reads the same window tables and adds nothing.
        inst = random_instance(4 + seed, 16, 900 + seed)
        full = inst.full_interval()
        for oracle in (GbstOracle(inst), TwcstOracle(inst)):
            oracle.star_rows(full)
            tables = (oracle._memo, getattr(oracle, "_g_memo", None))
            filled = (ref.filled_states(oracle), ref.filled_states(oracle, g=True))
            for i in full.keys():
                for j in range(i, inst.n + 1):
                    sub = Interval(i, j)
                    oracle.opt(sub)
                    for h in range(sub.size - oracle.min_queries + 1):
                        oracle.opt_star_cost(sub, h)
                        oracle.opt_star(sub, h)
            assert (ref.filled_states(oracle), ref.filled_states(oracle, g=True)) == filled
            assert oracle._memo is tables[0]
            assert getattr(oracle, "_g_memo", None) is tables[1]

    def test_refuses_what_opt_star_refuses(self):
        with pytest.raises(ValueError, match="holes_max"):
            GbstOracle(I9).star_rows(I9.full_interval(), -1)
        with pytest.raises(SizeLimitError):
            GbstOracle(I31).star_rows(I31.full_interval(), 0)
        with pytest.raises(ValueError, match="invalid"):
            TwcstOracle(I9).star_rows(Interval(3, 10))


def _gaps(q):
    """Each cut of Q into a nonempty proper prefix and the suffix after it."""
    left, rest = 0, q
    while rest:
        low = rest & -rest
        rest ^= low
        left |= low
        if rest:
            yield left, rest


class TestFillInvariant:
    """The recurrences and the tree rebuilds read table slots without
    checking them, relying on what costing a query set fills."""

    @staticmethod
    def check_gbst(oracle):
        # A cost slot Q != 0 is filled iff its g slot is, and then so are
        # Q - e for every e and every proper prefix and suffix of Q.
        memo, g_memo = oracle._memo, oracle._g_memo
        for q in range(1, len(memo)):
            assert (memo[q] is None) == (g_memo[q] is None), q
            if memo[q] is None:
                continue
            for k in range(q.bit_length()):
                assert not q >> k & 1 or memo[q ^ 1 << k] is not None, (q, k)
            for left, rest in _gaps(q):
                assert None not in (memo[left], g_memo[left], memo[rest], g_memo[rest]), (q, left)

    @staticmethod
    def check_twcst(oracle):
        # A filled Q with two keys or more has Q - e filled for each
        # positive-weight e, and every proper prefix and suffix filled.
        memo, w = oracle._memo, oracle.w
        for q, c in enumerate(memo):
            if c is None or q.bit_count() < 2:
                continue
            for k in range(q.bit_length()):
                assert not (q >> k & 1 and w[k + 1]) or memo[q ^ 1 << k] is not None, (q, k)
            for left, rest in _gaps(q):
                assert memo[left] is not None and memo[rest] is not None, (q, left)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_instances(self, seed):
        inst = random_instance(2 + seed % 11, 16, 1100 + seed)
        full = inst.full_interval()
        for oracle, check in ((GbstOracle(inst), self.check_gbst), (TwcstOracle(inst), self.check_twcst)):
            oracle.opt_star(full, min(seed % 3, inst.n - oracle.min_queries))
            check(oracle)
            oracle.opt(full, (1,) if inst.n > 1 else ())
            check(oracle)
            oracle.opt(full)
            check(oracle)

    def test_i31_windows(self):
        oracle = GbstOracle(I31)
        for i, j in ((1, 9), (10, 16), (17, 31)):
            oracle.opt(Interval(i, j))
            self.check_gbst(oracle)


class TestPlacementBound:
    def test_i31(self):
        assert placement_lower_bound(I31) == 1757

    def test_single_key(self):
        assert placement_lower_bound(Instance(("A",), (7,))) == 7

    def test_three_unit_weights(self):
        assert placement_lower_bound(Instance(("A", "B", "C"), (1, 1, 1))) == 5

    def test_bounds_oracle(self):
        for seed in range(6):
            inst = random_instance(7, 10, 300 + seed)
            oracle = GbstOracle(inst)
            assert placement_lower_bound(inst) <= oracle.opt_cost(inst.full_interval())


class TestDepthSeq:
    def test_d_values(self):
        assert depth_seq(5)[0] == (0, 3, 6, 10, 14)

    def test_e_values(self):
        assert depth_seq(6)[1] == (0, 2, 6, 9, 13, 18)

    def test_d1(self):
        assert depth_seq(1)[0] == (0,)

    def test_bases_fixed(self):
        d, e = depth_seq(3)
        assert d[0] == 0 and d[1] == 3
        assert e[0] == 0 and e[1] == 2 and e[2] == 6

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            depth_seq(0)


class TestDepthBounds:
    def test_optimal_trees_meet_bounds(self):
        d, e = depth_seq(6)
        for seed in range(30):
            inst = random_instance(4 + seed % 5, 8, 400 + seed)
            oracle = TwcstOracle(inst)
            full = inst.full_interval()
            for h in range(min(3, inst.n)):
                _, tree, _ = oracle.opt_star(full, h)
                assert depth_bound_violations(tree, d, e) == []

    def test_bounds_hold_even_for_suboptimal_trees(self):
        # The bounds constrain every valid tree, not just optimal ones.
        from cstlab.model import Cmp, Leaf, LT

        d, e = depth_seq(6)
        tree = Cmp(
            LT,
            2,
            yes=Leaf(1),
            no=Cmp(LT, 3, yes=Leaf(2), no=Cmp(LT, 4, yes=Leaf(3), no=Cmp(LT, 5, yes=Leaf(4), no=Leaf(5)))),
        )
        assert depth_bound_violations(tree, d, e) == []

    def test_checker_reports_violations(self):
        # Inflated bounds must trip the checker: it is the detection path
        # the fuzz suite relies on, even though real trees never violate the
        # true sequences.
        from cstlab.model import Cmp, Leaf, LT

        tree = Cmp(LT, 2, yes=Leaf(1), no=Cmp(LT, 3, yes=Leaf(2), no=Leaf(3)))
        inflated = (0, 99, 99, 99, 99, 99)
        assert depth_bound_violations(tree, inflated, inflated) != []

    def test_violation_lists_match_the_reference(self):
        """Position arithmetic gives the lists that bisecting the sorted
        queries gave, under the true sequences and under sequences inflated
        by 3, which many trees violate."""
        from reference_model import depth_bound_violations as reference
        from cstlab.spuler import SpulerTable

        true = depth_seq(6)
        inflated = tuple(tuple(b + 3 for b in seq) for seq in true)
        nonempty = 0
        for seed in range(12):
            inst = random_instance(3 + seed % 8, 16, 700 + seed)
            table = SpulerTable(inst)
            oracle = TwcstOracle(inst)
            trees = [table.result(i, j, h).tree for i, j, h in table.cells()]
            trees += [oracle.opt_star(inst.full_interval(), h)[1] for h in range(inst.n)]
            for tree in trees:
                for seqs in (true, inflated):
                    got = depth_bound_violations(tree, *seqs)
                    assert got == reference(tree, *seqs), (seed, tree)
                    nonempty += bool(got)
        assert nonempty > 100

    @pytest.mark.parametrize("n", [12, 13])
    def test_every_gap_pattern_matches_the_reference(self, n):
        """Bounds no tree meets list every separated and nearly separated
        subset of up to six queries; with twelve or more leaves every
        zero/non-zero pattern of five gaps occurs."""
        from reference_model import depth_bound_violations as reference
        from cstlab.spuler import SpulerTable

        tree = SpulerTable(random_instance(n, 16, 900 + n)).result(1, n, 0).tree
        huge = (10**9,) * 6
        got = depth_bound_violations(tree, huge, huge)
        assert got == reference(tree, huge, huge)
        assert any(line.startswith("nearly separated") and line.count(",") == 5
                   for line in got)

    def test_eq_root_weight_bound(self):
        for seed in range(30):
            inst = random_instance(3 + seed % 6, 16, 500 + seed)
            oracle = TwcstOracle(inst)
            full = inst.full_interval()
            for h in range(min(3, inst.n)):
                _, tree, _ = oracle.opt_star(full, h)
                assert eq_root_weight_ok(tree, inst)

    @pytest.mark.parametrize("stray", [0, 4])
    def test_eq_root_weight_rejects_keys_outside_the_instance(self, stray):
        from cstlab.model import EQ, LT, Cmp, Leaf

        inst = Instance(("a", "b", "c"), (1, 2, 30))
        tree = Cmp(EQ, 1, yes=Leaf(1), no=Cmp(LT, 3, yes=Leaf(2), no=Leaf(stray)))
        with pytest.raises(ValueError, match="out of range"):
            eq_root_weight_ok(tree, inst)


class TestConcurrency:
    def test_independent_sessions_share_one_instance(self):
        # Instances are immutable and solver sessions own their memos, so
        # concurrent sessions over the same instance must agree.
        from concurrent.futures import ThreadPoolExecutor

        from cstlab.hw import hw_solve
        from cstlab.spuler import spuler_solve

        def work(seed):
            inst = random_instance(7, 12, 4242)  # same instance in every task
            full = inst.full_interval()
            a = hw_solve(inst, full, seed % 3).cost
            b = spuler_solve(inst, full, seed % 3).cost
            c = GbstOracle(inst).opt_star_cost(full, seed % 3)
            d = TwcstOracle(inst).opt_star_cost(full, seed % 3)
            return (seed % 3, a, b, c, d)

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(work, range(24)))
        by_h = {}
        for h, *vals in results:
            assert by_h.setdefault(h, vals) == vals
