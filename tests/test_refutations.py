"""Frozen counterexamples to two conjectures about optimal GBSTs.

C2: opt*(I, h) is reached by removing the h heaviest keys of I.  It fails
at seven keys: the best single hole is key 6, not the heaviest key 3.

H': some optimal GBST gives every query set the form "[i, j] minus its
heaviest keys", closed under dropping a set's lowest or highest key.  Its
13-key counterexample (w'_k = 1000 w_k + (13 - k)) is pinned here by its
oracle certificate: the exact optimum, which HW's DP also reaches, and the
optimum under the other index tie order (+k), where H' holds.

Spuler's DP fails on a 10-key random instance too, not only on the
paper's I15: random_instance(10, 1000, 22) has a discrepant cell.

The smallest bad cells known: three Spuler cells of 8 and 9 keys and one
HW cell of 13 keys, each one hole, each the instance's one discrepancy,
by one.  The brute force confirms each reference.
"""
import pytest

from brute import min_gbst_cost, min_twcst_cost
from cstlab import falsify
from cstlab.falsify import random_instance
from cstlab.hw import HwTable, hw_solve
from cstlab.model import Instance, Interval, validate
from cstlab.oracle import GbstOracle


def _instance(weights):
    return Instance(tuple(f"K{k:02d}" for k in range(1, len(weights) + 1)), tuple(weights))


class TestC2:
    INST = _instance((1012, 1011, 3010, 1009, 2008, 3007, 3006))
    FULL = Interval(1, 7)

    def test_opt_star_keeps_the_heaviest_key(self):
        cost, tree, holes = GbstOracle(self.INST).opt_star(self.FULL, 1)
        assert (cost, holes) == (22_138, (6,))
        assert validate(tree, self.FULL, holes, self.INST)

    def test_removing_the_heaviest_key_costs_more(self):
        assert max(self.FULL.keys(), key=self.INST.weight) == 3
        assert GbstOracle(self.INST).opt_cost(self.FULL, (3,)) == 23_127

    def test_hw_cell_is_optimal(self):
        assert HwTable(self.INST).cost(1, 7, 1) == 22_138


class TestHPrimeInstance:
    BASE = (1, 1, 3, 1, 2, 3, 3, 1, 1, 1, 2, 2, 2)

    def _weights(self, sign):
        n = len(self.BASE)
        return [1000 * w + (n - k if sign < 0 else k) for k, w in enumerate(self.BASE, 1)]

    def test_oracle_certificate(self):
        inst = _instance(self._weights(-1))
        full = inst.full_interval()
        cost, tree = GbstOracle(inst).opt(full)
        assert cost == 64_256
        assert validate(tree, full, (), inst)
        assert hw_solve(inst, full, 0).cost == 64_256

    def test_other_tie_order(self):
        inst = _instance(self._weights(+1))
        assert GbstOracle(inst).opt_cost(inst.full_interval()) == 64_274


class TestRandomSpulerDiscrepancy:
    WEIGHTS = (72, 884, 704, 51, 0, 875, 827, 141, 858, 820)

    def test_seed_gives_the_frozen_weights(self):
        assert random_instance(10, 1000, 22).weights == self.WEIGHTS

    def test_audit_record(self):
        [d] = falsify.audit_subproblems(falsify.TWCST, _instance(self.WEIGHTS))
        assert (d.i, d.j, d.h) == (2, 10, 1)
        assert (d.flawed_cost, d.oracle_cost, d.certified) == (11_420, 11_414, "oracle")


# (model, weights, cell, DP cost and holes, opt* cost and holes).
SMALLEST_BAD_CELLS = [
    (falsify.TWCST, (11, 7, 1, 7, 5, 10, 10, 10), (1, 8, 1), (139, (8,)), (138, (1,))),
    (falsify.TWCST, (12, 7, 2, 7, 5, 11, 5, 10, 6), (1, 9, 1), (159, (6,)), (158, (1,))),
    (falsify.TWCST, (3, 6, 2, 3, 4, 5, 0, 5, 5), (1, 9, 1), (81, (6,)), (80, (2,))),
    (
        falsify.GBSPLIT,
        (20, 18, 20, 20, 14, 22, 5, 5, 5, 5, 14, 14, 14),
        (1, 13, 1),
        (427, (6,)),
        (426, (6,)),
    ),
]


@pytest.mark.parametrize(
    "model,weights,cell,dp,star",
    SMALLEST_BAD_CELLS,
    ids=["spuler-8-keys", "spuler-9-keys-a", "spuler-9-keys-b", "hw-13-keys"],
)
def test_smallest_bad_cell(model, weights, cell, dp, star):
    inst = _instance(weights)
    [d] = falsify.audit_subproblems(model, inst)
    assert (d.i, d.j, d.h) == cell
    assert (d.flawed_cost, d.oracle_cost, d.certified) == (dp[0], star[0], "oracle")
    spec = falsify.MODELS[model]
    i, j, h = cell
    iv = Interval(i, j)
    result = spec.table(inst).result(i, j, h)
    assert (result.cost, result.holes_in(iv)) == dp
    assert validate(result.tree, iv, dp[1], inst)
    cost, tree, holes = spec.oracle(inst).opt_star(iv, h)
    assert (cost, holes) == star
    assert validate(tree, iv, holes, inst)
    # The least brute-force cost over every one-hole query set of the cell.
    brute = min_twcst_cost if model == falsify.TWCST else min_gbst_cost
    assert h == 1
    best = min(brute(inst, tuple(k for k in iv.keys() if k != hole)) for hole in iv.keys())
    assert best == star[0]
