"""Cost kernels for the exact solvers.

The state of a subproblem is its query set Q: the keys still to be
queried, as a bit mask (bit k-1 = key k).  A hole is only a key missing
from Q, so an (interval, hole set) pair matters through Q alone, and every
pair with the same Q shares one memo entry.  Likewise a split matters only
through the gap of Q it falls in, so each state tries one split per gap
between consecutive keys of Q.

These kernels compute costs only; tree reconstruction happens in
:mod:`cstlab.oracle` by re-deriving argmins from the memoized costs.
"""
from __future__ import annotations

from .model import range_mask

BACKEND = "pure"


class GbstCostKernel:
    """Minimum GBST cost for (interval, explicit hole set) subproblems.

    ``cost(i, j, mask)`` is the cost of the query set
    Q = keys i..j minus the holes in mask.  With g(Q) = min over e in Q of
    cost(Q - e), the best pair of subtrees below an equality test on e,

        cost(Q) = W(Q) + min(g(Q), min over gaps (QL, QR) of Q of
                             min(g(QL) + cost(QR), cost(QL) + g(QR)))

    and cost(empty) = 0.  A node tests some e and splits Q - e into a prefix
    and a suffix; cutting Q itself at one of its ends leaves one side empty
    (the g(Q) term), and cutting at an inner gap puts e on one side of it.
    """

    def __init__(self, weights):
        self.w = (0,) + tuple(weights)
        self._memo: dict[int, int] = {0: 0}
        self._g_memo: dict[int, int] = {}

    def cost(self, i, j, mask):
        return self._cost(range_mask(i, j) & ~mask)

    def _cost(self, q):
        hit = self._memo.get(q)
        if hit is not None:
            return hit
        cost = self._cost
        g = self._g
        w = self.w
        best = g(q)
        total = 0
        left = 0
        rest = q
        while rest:
            low = rest & -rest
            rest ^= low
            left |= low
            total += w[low.bit_length()]
            if rest:
                c = g(left) + cost(rest)
                if c < best:
                    best = c
                c = cost(left) + g(rest)
                if c < best:
                    best = c
        result = total + best
        self._memo[q] = result
        return result

    def _g(self, q):
        hit = self._g_memo.get(q)
        if hit is not None:
            return hit
        cost = self._cost
        best = None
        rest = q
        while rest:
            low = rest & -rest
            rest ^= low
            c = cost(q ^ low)
            if best is None or c < best:
                best = c
        self._g_memo[q] = best
        return best


class TwcstCostKernel:
    """Minimum 2WCST cost for (interval, explicit hole set) subproblems.

    ``cost(i, j, mask)`` is the cost of the query set
    Q = keys i..j minus the holes in mask, which must not be empty:

        cost(Q) = W(Q) + min(min over e in Q of cost(Q - e),
                             min over gaps (QL, QR) of Q of cost(QL) + cost(QR))

    and cost({e}) = 0.  The first term is an equality test on e, the second
    a less-than test that separates QL from QR.  With ``prune_zero_eq`` set,
    equality-test candidates on zero-weight keys are skipped whenever more
    than one query remains (a cost-preserving reduction: such a node can be
    spliced out and the key re-attached next to a neighboring query leaf).
    """

    def __init__(self, weights, prune_zero_eq=True):
        self.w = (0,) + tuple(weights)
        self.prune_zero_eq = bool(prune_zero_eq)
        self._memo: dict[int, int] = {1 << k: 0 for k in range(len(weights))}

    def cost(self, i, j, mask):
        q = range_mask(i, j) & ~mask
        if q == 0:
            raise ValueError("2WCST subproblem must keep at least one query")
        return self._cost(q)

    def _cost(self, q):
        hit = self._memo.get(q)
        if hit is not None:
            return hit
        cost = self._cost
        w = self.w
        prune = self.prune_zero_eq
        best = None
        total = 0
        left = 0
        rest = q
        while rest:
            low = rest & -rest
            rest ^= low
            left |= low
            weight = w[low.bit_length()]
            total += weight
            if not (prune and weight == 0):
                c = cost(q ^ low)
                if best is None or c < best:
                    best = c
            if rest:
                c = cost(left) + cost(rest)
                if best is None or c < best:
                    best = c
        result = total + best
        self._memo[q] = result
        return result
