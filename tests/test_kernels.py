"""Differential tests: the query-set kernels must match the reference
(interval, hole mask) recursions on every state of small instances, and the
independent brute force on every query set."""
import pytest

import reference_kernels as ref
from brute import min_gbst_cost, min_twcst_cost
from cstlab._kernel import GbstCostKernel, TwcstCostKernel
from cstlab.falsify import random_instance
from cstlab.model import Instance, keys_of, range_mask

SEEDS = range(64)


def _instance(seed):
    """Random instances of 1..8 keys; the weights cover zeros and ties."""
    return random_instance(1 + seed % 8, 1 + seed % 5 * 4, 4200 + seed)


def _all_states(n):
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            full = range_mask(i, j)
            mask = full
            while True:
                yield i, j, mask
                if mask == 0:
                    break
                mask = (mask - 1) & full


class TestAgainstReference:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_gbst_every_state(self, seed):
        inst = _instance(seed)
        new = GbstCostKernel(inst.weights)
        old = ref.GbstCostKernel(inst.weights)
        for i, j, mask in _all_states(inst.n):
            assert new.cost(i, j, mask) == old.cost(i, j, mask), (i, j, mask)

    @pytest.mark.parametrize("prune", [True, False])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_twcst_every_state(self, seed, prune):
        inst = _instance(seed)
        new = TwcstCostKernel(inst.weights, prune)
        old = ref.TwcstCostKernel(inst.weights, prune)
        for i, j, mask in _all_states(inst.n):
            if mask == range_mask(i, j):
                continue  # no queries left
            assert new.cost(i, j, mask) == old.cost(i, j, mask), (i, j, mask)


class TestAgainstBruteForce:
    # The GBST brute force has no memo, so it stops at 6 keys.
    @pytest.mark.parametrize("seed", [s for s in range(24) if s % 8 < 6])
    def test_every_query_set(self, seed):
        inst = _instance(seed)
        gbst = GbstCostKernel(inst.weights)
        twcst = TwcstCostKernel(inst.weights)
        for q in range(1 << inst.n):
            keys = keys_of(q)
            assert gbst.cost(1, inst.n, ~q) == min_gbst_cost(inst, keys)
            if keys:
                assert twcst.cost(1, inst.n, ~q) == min_twcst_cost(inst, keys)


class TestEntryPoint:
    def test_state_is_the_query_set(self):
        # The same keys left to query cost the same, whatever the interval
        # and the hole set that leave them.
        inst = random_instance(8, 9, 77)
        for kernel in (GbstCostKernel(inst.weights), TwcstCostKernel(inst.weights)):
            a = kernel.cost(3, 6, range_mask(5, 5))
            assert kernel.cost(2, 8, range_mask(2, 2) | range_mask(5, 5) | range_mask(7, 8)) == a
            assert kernel.cost(1, 8, ~(range_mask(3, 4) | range_mask(6, 6))) == a

    def test_gbst_empty(self):
        kernel = GbstCostKernel((3, 1, 4))
        assert kernel.cost(2, 1, 0) == 0
        assert kernel.cost(1, 3, range_mask(1, 3)) == 0

    def test_twcst_needs_a_query(self):
        kernel = TwcstCostKernel((3, 1, 4))
        with pytest.raises(ValueError, match="at least one query"):
            kernel.cost(1, 3, range_mask(1, 3))
        assert kernel.cost(2, 2, 0) == 0

    def test_all_zero_weights(self):
        weights = (0,) * 6
        assert GbstCostKernel(weights).cost(1, 6, 0) == 0
        for prune in (True, False):
            assert TwcstCostKernel(weights, prune).cost(1, 6, 0) == 0

    def test_twcst_cost_beyond_int64_is_exact(self):
        # Scaling every weight by 2^58 scales the optimum, past int64 here.
        scaled = TwcstCostKernel((1 << 58,) * 12).cost(1, 12, 0)
        assert scaled == TwcstCostKernel((1,) * 12).cost(1, 12, 0) << 58
        assert scaled > 2**63

    def test_keys_beyond_bit_64(self):
        inst = Instance(
            tuple(f"K{k:03d}" for k in range(1, 81)), tuple(1 + k % 7 for k in range(80))
        )
        gbst = GbstCostKernel(inst.weights)
        twcst = TwcstCostKernel(inst.weights)
        assert gbst.cost(70, 74, 0) == min_gbst_cost(inst, tuple(range(70, 75)))
        assert twcst.cost(70, 74, 0) == min_twcst_cost(inst, tuple(range(70, 75)))
