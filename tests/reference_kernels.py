"""Reference cost recursions and tree builders over (interval, hole mask)
states.

These are the exact kernels as first written: every state is a triple
(i, j, mask), GBST tries every equality key and every split position of
the interval, and 2WCST every equality key and every less-than split of
the interval.  ``tree`` re-derives an argmin in the same coordinates, in
lexicographic (split, key) order.  They share no code with
:mod:`cstlab.oracle`, which keys its memo on the query set alone and walks
the query set's gaps, and the tests require equal costs and equal trees.
"""
from __future__ import annotations

from itertools import combinations

from cstlab.model import EQ, LT, Cmp, Leaf, gbst_join, mask_of, range_mask


class _Reference:
    def _mask_weight(self, mask):
        total = 0
        w = self.w
        while mask:
            low = mask & -mask
            total += w[low.bit_length()]
            mask ^= low
        return total

    def star(self, i, j, h):
        """(cost, holes): the first hole set of size h, in combinations
        order, that attains the minimum cost over all of them."""
        best = None
        best_holes = ()
        for holes in combinations(range(i, j + 1), h):
            c = self.cost(i, j, mask_of(holes))
            if best is None or c < best:
                best, best_holes = c, holes
        return best, best_holes

    def opt_star(self, i, j, h):
        cost, holes = self.star(i, j, h)
        return cost, self.tree(i, j, mask_of(holes)), holes


class GbstCostKernel(_Reference):
    """Minimum GBST cost for (interval, explicit hole set) subproblems.

    State (i, j, mask): keys i..j with holes given by mask (bit k-1 = key k,
    restricted to the interval).  cost = 0 when all keys are holes; else
    weight of the remaining keys plus the best split/equality-key choice.
    """

    def __init__(self, weights):
        self.n = len(weights)
        self.w = (0,) + tuple(weights)
        prefix = [0]
        for x in weights:
            prefix.append(prefix[-1] + x)
        self._prefix = tuple(prefix)
        self._memo: dict[tuple[int, int, int], int] = {}

    def _range_weight(self, i, j):
        return self._prefix[j] - self._prefix[i - 1] if i <= j else 0

    def cost(self, i, j, mask):
        if i > j:
            return 0
        full = (1 << j) - (1 << (i - 1))
        mask &= full
        if mask == full:
            return 0
        key = (i, j, mask)
        memo = self._memo
        hit = memo.get(key)
        if hit is not None:
            return hit
        queries = full & ~mask
        best = None
        cost = self.cost
        q = queries
        while q:
            low = q & -q
            q ^= low
            e_bit = low
            me = mask | e_bit
            # s is a partition position: left keys i..s-1, right keys s..j.
            for s in range(i, j + 2):
                left_mask = me & ((1 << (s - 1)) - (1 << (i - 1))) if s > i else 0
                right_mask = me & ((1 << j) - (1 << (s - 1))) if s <= j else 0
                total = cost(i, s - 1, left_mask) + cost(s, j, right_mask)
                if best is None or total < best:
                    best = total
        result = self._range_weight(i, j) - self._mask_weight(mask) + best
        memo[key] = result
        return result

    def tree(self, i, j, mask):
        full = range_mask(i, j)
        mask &= full
        if mask == full:
            return None
        queries = full & ~mask
        target = self.cost(i, j, mask) - self._mask_weight(queries)
        # First (s, e) in lexicographic order achieving the optimum.
        for s in range(i, j + 2):
            left_full = range_mask(i, s - 1)
            right_full = range_mask(s, j)
            q = queries
            while q:
                low = q & -q
                q ^= low
                me = mask | low
                lm = me & left_full
                rm = me & right_full
                if self.cost(i, s - 1, lm) + self.cost(s, j, rm) == target:
                    left = self.tree(i, s - 1, lm)
                    right = self.tree(s, j, rm)
                    return gbst_join(low.bit_length(), s, i, left, right)
        raise AssertionError("memoized optimum not reproducible")


class TwcstCostKernel(_Reference):
    """Minimum 2WCST cost for (interval, explicit hole set) subproblems.

    Requires at least one non-hole key.  With ``prune_zero_eq`` set,
    equality-test candidates on zero-weight keys are skipped whenever more
    than one query remains (a cost-preserving reduction: such a node can be
    spliced out and the key re-attached next to a neighboring query leaf).
    """

    def __init__(self, weights, prune_zero_eq=True):
        self.n = len(weights)
        self.w = (0,) + tuple(weights)
        prefix = [0]
        for x in weights:
            prefix.append(prefix[-1] + x)
        self._prefix = tuple(prefix)
        self.prune_zero_eq = bool(prune_zero_eq)
        self._memo: dict[tuple[int, int, int], int] = {}

    def _range_weight(self, i, j):
        return self._prefix[j] - self._prefix[i - 1] if i <= j else 0

    def cost(self, i, j, mask):
        full = (1 << j) - (1 << (i - 1))
        mask &= full
        queries = full & ~mask
        if queries == 0:
            raise ValueError("2WCST subproblem must keep at least one query")
        if queries & (queries - 1) == 0:
            return 0
        key = (i, j, mask)
        memo = self._memo
        hit = memo.get(key)
        if hit is not None:
            return hit
        w = self.w
        best = None
        cost = self.cost
        prune = self.prune_zero_eq
        q = queries
        while q:
            low = q & -q
            q ^= low
            if prune and w[low.bit_length()] == 0:
                continue
            total = cost(i, j, mask | low)
            if best is None or total < best:
                best = total
        # less-than split at s: left keys i..s-1, right keys s..j,
        # both sides must retain a query.
        for s in range(i + 1, j + 1):
            split = (1 << (s - 1)) - (1 << (i - 1))
            left_q = queries & split
            if left_q == 0 or left_q == queries:
                continue
            total = cost(i, s - 1, mask & split) + cost(s, j, mask & ~split)
            if best is None or total < best:
                best = total
        result = self._range_weight(i, j) - self._mask_weight(mask) + best
        memo[key] = result
        return result

    def tree(self, i, j, mask):
        full = range_mask(i, j)
        mask &= full
        queries = full & ~mask
        if queries & (queries - 1) == 0:
            return Leaf(queries.bit_length())
        target = self.cost(i, j, mask) - self._mask_weight(queries)
        # Equality candidates first (ascending key), then splits.
        q = queries
        while q:
            low = q & -q
            q ^= low
            e = low.bit_length()
            if self.prune_zero_eq and self.w[e] == 0:
                continue
            if self.cost(i, j, mask | low) == target:
                return Cmp(EQ, e, yes=Leaf(e), no=self.tree(i, j, mask | low))
        for s in range(i + 1, j + 1):
            split = range_mask(i, s - 1)
            left_q = queries & split
            if left_q == 0 or left_q == queries:
                continue
            lm = mask & split
            rm = mask & ~split
            if self.cost(i, s - 1, lm) + self.cost(s, j, rm) == target:
                return Cmp(LT, s, yes=self.tree(i, s - 1, lm), no=self.tree(s, j, rm))
        raise AssertionError("memoized optimum not reproducible")


def filled_states(oracle, g=False):
    """The query sets an oracle has memoized, as absolute masks (bit k-1 =
    key k): the filled slots of its window's cost table, or with g of its
    GBST g(Q) table, each read back from the window's relative masks.  A
    2WCST oracle has no g(Q) slots."""
    table = getattr(oracle, "_g_memo", ()) if g else oracle._memo
    return {q << oracle._shift for q, c in enumerate(table) if c is not None}
