"""The 2WCST dynamic program: published costs, structure, determinism."""
import pytest

from cstlab.bench import build_instance
from cstlab.falsify import random_instance
from cstlab.model import (
    EQ, Cmp, Instance, Interval, Leaf, tree_cost, tree_weight, validate,
)
from cstlab.oracle import TwcstOracle
from cstlab.spuler import SpulerTable, spuler_solve

I15 = build_instance("I15").instance


class TestSpulerSolve:
    def test_i15_two_holes(self):
        assert spuler_solve(I15, I15.full_interval(), 2).cost == 116

    def test_single_key(self):
        r = spuler_solve(I15, Interval(4, 4), 0)
        assert r.cost == 0 and r.tree == Leaf(4)

    def test_full_instance_matches_oracle_here(self):
        # The known counterexample needs holes; on this full instance the DP
        # happens to agree with the optimum.  Record, not assert optimality.
        oracle = TwcstOracle(I15)
        flawed = spuler_solve(I15, I15.full_interval(), 0).cost
        exact = oracle.opt_star_cost(I15.full_interval(), 0)
        assert flawed >= exact

    def test_result_consistency(self):
        iv = I15.full_interval()
        r = spuler_solve(I15, iv, 2)
        assert r.cost == tree_cost(r.tree, I15)
        holes_weight = sum(I15.weight(k) for k in r.holes_in(iv))
        assert tree_weight(r.tree, I15) == sum(I15.weights) - holes_weight
        assert validate(r.tree, iv, r.holes_in(iv), I15).ok

    def test_hole_count_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            spuler_solve(I15, I15.full_interval(), 15)

    @pytest.mark.parametrize("h", [0, 1])
    def test_interval_without_keys(self, h):
        """A subproblem keeps one key, so an empty interval has no hole
        count; the refusal says so, in the oracle's words."""
        with pytest.raises(ValueError) as info:
            SpulerTable.solve(I15, Interval(3, 2), h)
        assert str(info.value) == "interval [3,2] has too few keys: 0 < 1"


class TestSpulerTable:
    def test_two_key_cell_cost_is_total_weight(self):
        inst = Instance(("A", "B"), (4, 9))
        table = SpulerTable(inst)
        assert table.cost(1, 2, 0) == 13

    def test_i15_cell(self):
        table = SpulerTable(I15)
        assert table.cost(1, 15, 2) == 116

    def test_all_cell_trees_valid(self):
        for seed in range(6):
            inst = random_instance(2 + seed, 12, 900 + seed)
            table = SpulerTable(inst)
            for i, j, h in table.cells():
                r = table.result(i, j, h)
                iv = Interval(i, j)
                assert validate(r.tree, iv, r.holes_in(iv), inst).ok
                assert len(r.holes_in(iv)) == h

    def test_eq_candidate_structure(self):
        # Wherever an equality root was chosen, its yes branch is the leaf
        # of that key and the key is absent from the no branch.
        from reference_model import twcst_leaf_keys

        table = SpulerTable(I15)
        for i, j, h in table.cells():
            tree = table.result(i, j, h).tree
            if isinstance(tree, Cmp) and tree.op == EQ:
                assert tree.yes == Leaf(tree.key)
                assert tree.key not in twcst_leaf_keys(tree.no)

    def test_less_children_keep_queries(self):
        table = SpulerTable(I15)
        for i, j, h in table.cells():
            choice = table.choice(i, j, h)
            if choice and choice[3] is None:  # T_< on s
                s, h1, h2, _ = choice
                assert (s - i) - h1 >= 1
                assert (j - s + 1) - h2 >= 1


class TestSpulerProperties:
    def test_never_beats_oracle(self):
        for seed in range(10):
            inst = random_instance(2 + seed % 6, 16, 1000 + seed)
            table = SpulerTable(inst)
            oracle = TwcstOracle(inst)
            for i, j, h in table.cells():
                assert table.cost(i, j, h) >= oracle.opt_star_cost(Interval(i, j), h)

    def test_determinism(self):
        a = spuler_solve(I15, I15.full_interval(), 2)
        b = spuler_solve(I15, I15.full_interval(), 2)
        assert a == b

    def test_scaling_invariance(self):
        for seed in range(5):
            inst = random_instance(6, 9, 1100 + seed)
            scaled = inst.scaled(4)
            for h in range(3):
                r1 = spuler_solve(inst, inst.full_interval(), h)
                r2 = spuler_solve(scaled, scaled.full_interval(), h)
                assert r2.tree == r1.tree
                assert r2.cost == 4 * r1.cost
