"""Differential tests: the query-set oracles must match the reference
(interval, hole mask) recursions on every state of small instances, in
cost and in the tree they rebuild, and the independent brute force on
every query set."""
import sys
import tracemalloc

import pytest

import reference_kernels as ref
from brute import min_gbst_cost, min_twcst_cost
from cstlab.bench import build_instance
from cstlab.falsify import random_instance
from cstlab.model import Instance, Interval, range_mask
from cstlab.oracle import GbstOracle, TwcstOracle

SEEDS = range(64)


def _keys_of(mask):
    """The keys whose bits are set in *mask*, ascending (key k is bit k-1)."""
    return tuple(k for k in range(1, mask.bit_length() + 1) if mask >> (k - 1) & 1)


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
        new = GbstOracle(inst)
        old = ref.GbstCostKernel(inst.weights)
        for i, j, mask in _all_states(inst.n):
            assert new.opt_cost(Interval(i, j), mask) == old.cost(i, j, mask), (i, j, mask)

    # The oracle always skips equality tests on zero-weight keys; the
    # reference without that skip checks that it keeps the optimum.
    @pytest.mark.parametrize("prune", [True, False])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_twcst_every_state(self, seed, prune):
        inst = _instance(seed)
        new = TwcstOracle(inst)
        old = ref.TwcstCostKernel(inst.weights, prune)
        for i, j, mask in _all_states(inst.n):
            if mask == range_mask(i, j):
                continue  # no queries left
            assert new.opt_cost(Interval(i, j), mask) == old.cost(i, j, mask), (i, j, mask)


class TestTreesAgainstReference:
    """The trees rebuilt on the query set's gaps are the ones the reference
    finds first in its lexicographic (split, key) order over the interval."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_gbst_every_state(self, seed):
        inst = _instance(seed)
        new = GbstOracle(inst)
        old = ref.GbstCostKernel(inst.weights)
        for i, j, mask in _all_states(inst.n):
            expected = (old.cost(i, j, mask), old.tree(i, j, mask))
            assert new.opt(Interval(i, j), mask) == expected, (i, j, mask)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_twcst_every_state(self, seed):
        inst = _instance(seed)
        new = TwcstOracle(inst)
        old = ref.TwcstCostKernel(inst.weights)
        for i, j, mask in _all_states(inst.n):
            if mask == range_mask(i, j):
                continue  # no queries left
            expected = (old.cost(i, j, mask), old.tree(i, j, mask))
            assert new.opt(Interval(i, j), mask) == expected, (i, j, mask)

    @pytest.mark.parametrize("name", ["I8", "I9", "I15"])
    @pytest.mark.parametrize(
        "oracle, reference", [(GbstOracle, ref.GbstCostKernel), (TwcstOracle, ref.TwcstCostKernel)]
    )
    def test_opt_star_named_instances(self, name, oracle, reference):
        inst = build_instance(name).instance
        new = oracle(inst)
        old = reference(inst.weights)
        full = inst.full_interval()
        for h in range(inst.n - new.min_queries + 1):
            assert new.opt_star(full, h) == old.opt_star(1, inst.n, h), h


    @pytest.mark.parametrize(
        "oracle, reference", [(GbstOracle, ref.GbstCostKernel), (TwcstOracle, ref.TwcstCostKernel)]
    )
    def test_windows_in_spans_past_key_1(self, oracle, reference):
        # An instance longer than the limit puts these queries in oracle
        # windows that start at keys 3 and 7, so every key, hole and split
        # comes back through the window's shift.
        inst = random_instance(oracle.limit + 6, 12, 4321)
        new = oracle(inst)
        old = reference(inst.weights)
        windows = []
        for i in (3, 10, inst.n - 5):
            window = Interval(i, i + 5)
            for h in range(window.size - new.min_queries + 1):
                assert new.opt_star(window, h) == old.opt_star(i, window.j, h), (i, h)
            rows = new.star_rows(window)
            for lo in window.keys():
                for hi in range(lo, window.j + 1):
                    expected = [old.star(lo, hi, h)[0] for h in range(hi - lo + 2 - new.min_queries)]
                    assert rows[(lo, hi)] == expected, (lo, hi)
            windows.append((new._shift + 1, new._shift + new.limit))
        assert windows == [(3, new.limit + 2), (3, new.limit + 2), (7, inst.n)]

    @pytest.mark.parametrize(
        "oracle, reference", [(GbstOracle, ref.GbstCostKernel), (TwcstOracle, ref.TwcstCostKernel)]
    )
    def test_moving_window_answers_and_memory(self, oracle, reference):
        # Each interval lies outside the window the one before it left:
        # forward, back twice, then a jump across the whole instance.  The
        # oracle keeps only the last window's tables, and every answer
        # equals a fresh oracle's and the reference kernels'.
        inst = random_instance(oracle.limit + 6, 12, 8642)
        n, slots = inst.n, 1 << oracle.limit
        steps = [((3, 8), 2), ((n - 5, n), 6), ((4, 9), 3), ((1, 6), 0), ((n - 3, n), 6)]
        new = oracle(inst)
        answers = []
        tracemalloc.start()
        try:
            for (i, j), shift in steps:
                window = Interval(i, j)
                rows = new.star_rows(window)
                assert new._shift == shift, (i, j)
                stars = [new.opt_star(window, h) for h in range(window.size - new.min_queries + 1)]
                answers.append((window, new.opt(window), stars, rows))
                assert len(new._memo) == slots
                if oracle is GbstOracle:
                    assert len(new._g_memo) == slots
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # Only the last window's tables stay, well under two windows' worth.
        tables = 2 if oracle is GbstOracle else 1
        assert held < 2 * tables * sys.getsizeof([None] * slots)
        old = reference(inst.weights)
        for window, opt, stars, rows in answers:
            fresh = oracle(inst)
            assert opt == fresh.opt(window) == (old.cost(window.i, window.j, 0), old.tree(window.i, window.j, 0))
            for h, star in enumerate(stars):
                assert star == fresh.opt_star(window, h) == old.opt_star(window.i, window.j, h), (window, h)
            assert rows == fresh.star_rows(window)
            for (lo, hi), row in rows.items():
                assert row == [old.star(lo, hi, h)[0] for h in range(hi - lo + 2 - new.min_queries)], (lo, hi)


class TestAgainstBruteForce:
    # The GBST brute force has no memo, so it stops at 6 keys.
    @pytest.mark.parametrize("seed", [s for s in range(24) if s % 8 < 6])
    def test_every_query_set(self, seed):
        inst = _instance(seed)
        full = inst.full_interval()
        gbst = GbstOracle(inst)
        twcst = TwcstOracle(inst)
        for q in range(1 << inst.n):
            keys = _keys_of(q)
            assert gbst.opt_cost(full, ~q) == min_gbst_cost(inst, keys)
            if keys:
                assert twcst.opt_cost(full, ~q) == min_twcst_cost(inst, keys)


def _oracles(weights):
    inst = Instance(tuple(f"K{k:03d}" for k in range(1, len(weights) + 1)), tuple(weights))
    return GbstOracle(inst), TwcstOracle(inst)


class TestEntryPoint:
    def test_state_is_the_query_set(self):
        # The same keys left to query cost the same, whatever the interval
        # and the hole set that leave them.
        inst = random_instance(8, 9, 77)
        for oracle in (GbstOracle(inst), TwcstOracle(inst)):
            a = oracle.opt_cost(Interval(3, 6), range_mask(5, 5))
            holes = range_mask(2, 2) | range_mask(5, 5) | range_mask(7, 8)
            assert oracle.opt_cost(Interval(2, 8), holes) == a
            assert oracle.opt_cost(Interval(1, 8), ~(range_mask(3, 4) | range_mask(6, 6))) == a

    def test_gbst_empty(self):
        gbst, _ = _oracles((3, 1, 4))
        assert gbst.opt_cost(Interval(2, 1), 0) == 0
        assert gbst.opt_cost(Interval(1, 3), range_mask(1, 3)) == 0

    def test_twcst_needs_a_query(self):
        _, twcst = _oracles((3, 1, 4))
        with pytest.raises(ValueError, match="at least one query"):
            twcst.opt_cost(Interval(1, 3), range_mask(1, 3))
        assert twcst.opt_cost(Interval(2, 2), 0) == 0

    def test_all_zero_weights(self):
        weights = (0,) * 6
        gbst, twcst = _oracles(weights)
        assert gbst.opt_cost(Interval(1, 6)) == 0
        assert twcst.opt_cost(Interval(1, 6)) == 0
        assert ref.TwcstCostKernel(weights, prune_zero_eq=False).cost(1, 6, 0) == 0

    def test_twcst_cost_beyond_int64_is_exact(self):
        # Scaling every weight by 2^58 scales the optimum, past int64 here.
        scaled = _oracles((1 << 58,) * 12)[1].opt_cost(Interval(1, 12))
        assert scaled == _oracles((1,) * 12)[1].opt_cost(Interval(1, 12)) << 58
        assert scaled > 2**63

    @pytest.mark.parametrize("oracle", [GbstOracle, TwcstOracle])
    def test_hole_keys_outside_the_interval_are_refused(self, oracle):
        inst = random_instance(8, 9, 77)
        new = oracle(inst)
        for key in (6, 0, 1, 9):
            with pytest.raises(ValueError, match=f"hole key {key} outside interval \\[2,4\\]"):
                new.opt_cost(Interval(2, 4), (3, key))
            with pytest.raises(ValueError, match=f"hole key {key} outside"):
                new.opt(Interval(2, 4), [key])
        # A mask keeps its meaning: bits outside the interval are ignored.
        assert new.opt_cost(Interval(2, 4), range_mask(6, 6) | 1) == new.opt_cost(Interval(2, 4))
        assert new.opt_cost(Interval(2, 4), (3,)) == new.opt_cost(Interval(2, 4), range_mask(3, 3))

    def test_bad_hole_count_opens_no_window(self):
        # An 18-key window's memo is a list of 2^18 slots, about 2 MB.
        inst = random_instance(18, 9, 5)
        oracle = TwcstOracle(inst)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="hole count 99 out of range 0..17"):
                oracle.opt_star(inst.full_interval(), 99)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024

    def test_keys_beyond_bit_64(self):
        inst = Instance(
            tuple(f"K{k:03d}" for k in range(1, 81)), tuple(1 + k % 7 for k in range(80))
        )
        gbst = GbstOracle(inst)
        twcst = TwcstOracle(inst)
        assert gbst.opt_cost(Interval(70, 74)) == min_gbst_cost(inst, tuple(range(70, 75)))
        assert twcst.opt_cost(Interval(70, 74)) == min_twcst_cost(inst, tuple(range(70, 75)))


class TestReachableStates:
    """The top-down fills reach only the states the optimum depends on;
    these counts pin that, zero-weight pruning included."""

    def test_twcst(self):
        oracle = TwcstOracle(random_instance(18, 1000, 7))
        oracle.opt_cost(oracle.inst.full_interval())
        assert len(ref.filled_states(oracle)) == 5292

    def test_gbst(self):
        oracle = GbstOracle(random_instance(12, 1000, 7))
        oracle.opt_cost(oracle.inst.full_interval())
        assert (len(ref.filled_states(oracle)), len(ref.filled_states(oracle, g=True))) == (4096, 4095)
