"""Reference cost recursions over (interval, hole mask) states.

These are the exact kernels as first written: every state is a triple
(i, j, mask), GBST tries every equality key and every split position of
the interval, and 2WCST every equality key and every less-than split of
the interval.  They share no code with :mod:`cstlab._kernel`, which keys
its memo on the query set alone, and the tests require equal costs.
"""
from __future__ import annotations


class GbstCostKernel:
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

    def _mask_weight(self, mask):
        total = 0
        w = self.w
        while mask:
            low = mask & -mask
            total += w[low.bit_length()]
            mask ^= low
        return total

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


class TwcstCostKernel:
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

    def _mask_weight(self, mask):
        total = 0
        w = self.w
        while mask:
            low = mask & -mask
            total += w[low.bit_length()]
            mask ^= low
        return total

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
