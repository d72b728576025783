"""The GBST dynamic program: published costs, feasibility, determinism."""
import pytest

from cstlab.bench import build_instance
from cstlab.falsify import random_instance
from cstlab.hw import HwTable, hw_solve
from cstlab.model import Interval, tree_cost, tree_weight, validate
from cstlab.oracle import GbstOracle

I9 = build_instance("I9").instance
I31 = build_instance("I31").instance


class TestHwSolve:
    def test_i9_two_holes(self):
        assert hw_solve(I9, I9.full_interval(), 2).cost == 209

    def test_i31_full(self):
        assert hw_solve(I31, I31.full_interval(), 0).cost == 1763

    def test_single_key_interval(self):
        for k in (1, 5, 9):
            r = hw_solve(I9, Interval(k, k), 0)
            assert r.cost == I9.weight(k)
            assert r.tree.eq == k

    def test_result_consistency(self):
        iv = I9.full_interval()
        r = hw_solve(I9, iv, 2)
        assert r.cost == tree_cost(r.tree, I9)
        holes_weight = sum(I9.weight(k) for k in r.holes_in(iv))
        assert tree_weight(r.tree, I9) == sum(I9.weights) - holes_weight
        assert len(r.holes_in(iv)) == 2

    def test_hole_count_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            hw_solve(I9, I9.full_interval(), 10)

    def test_all_holes_empty_tree(self):
        r = hw_solve(I9, Interval(2, 4), 3)
        assert r.cost == 0 and r.tree is None
        assert r.holes_in(Interval(2, 4)) == (2, 3, 4)


class TestHwTable:
    def test_one_key_instance_cells(self):
        from cstlab.model import Instance

        table = HwTable(Instance(("A",), (4,)))
        assert sorted(table.cells()) == [(1, 1, 0), (1, 1, 1)]

    def test_i9_cell(self):
        table = HwTable(I9)
        assert table.cost(1, 9, 2) == 209

    def test_every_cell_tree_valid(self):
        from reference_model import gbst_nodes

        for seed in range(6):
            inst = random_instance(2 + seed, 12, 600 + seed)
            table = HwTable(inst)
            for i, j, h in table.cells():
                r = table.result(i, j, h)
                iv = Interval(i, j)
                assert validate(r.tree, iv, r.holes_in(iv), inst).ok
                assert len(r.holes_in(iv)) == h
                assert len(list(gbst_nodes(r.tree))) == j - i + 1 - h

    def test_matches_hw_solve(self):
        table = HwTable(I9)
        for i, j, h in [(1, 9, 2), (2, 5, 1), (1, 3, 0)]:
            assert table.result(i, j, h) == hw_solve(I9, Interval(i, j), h)

    def test_backpointer_recorded(self):
        table = HwTable(I9)
        s, h1, h2, e = table.choice(1, 9, 2)
        assert h1 + h2 == 3  # the root consumes one of the unused keys
        assert 1 <= e <= 9


class TestHwProperties:
    def test_never_beats_oracle(self):
        for seed in range(10):
            inst = random_instance(2 + seed % 6, 16, 700 + seed)
            table = HwTable(inst)
            oracle = GbstOracle(inst)
            for i, j, h in table.cells():
                assert table.cost(i, j, h) >= oracle.opt_star_cost(Interval(i, j), h)

    def test_determinism(self):
        a = hw_solve(I9, I9.full_interval(), 2)
        b = hw_solve(I9, I9.full_interval(), 2)
        assert a == b

    def test_scaling_invariance(self):
        for seed in range(5):
            inst = random_instance(6, 9, 800 + seed)
            scaled = inst.scaled(3)
            for h in range(3):
                r1 = hw_solve(inst, inst.full_interval(), h)
                r2 = hw_solve(scaled, scaled.full_interval(), h)
                assert r2.tree == r1.tree
                assert r2.cost == 3 * r1.cost

    def test_i31_runs_under_five_seconds(self):
        import time

        t0 = time.perf_counter()
        r = hw_solve(I31, I31.full_interval(), 0)
        assert time.perf_counter() - t0 < 5.0
        assert r.cost == 1763
