"""Huang and Wong's O(n^5) dynamic program for generalized binary split trees.

Implemented faithfully, including its flaw: subproblems are (interval, hole
count) rather than (interval, hole set), so the DP assumes an optimal-
substructure property that does not hold.  Every tree it returns is a valid
GBST for its subproblem, but it is not guaranteed optimal.

Subproblem (I, h) with I = [i, j]:

* h = |I|: the empty tree, cost 0.
* otherwise, the cheapest candidate over split positions s in i..j+1 and
  hole splits h1 + h2 = h + 1 (h1 <= s-i, h2 <= j-s+1): subtrees are the
  memoized results for ([i, s-1], h1) and ([s, j], h2), and the root's
  equality key e is a least-weight key of I not placed in either subtree.
  Candidate cost = candidate weight + child costs.

The published statement of the hole-count constraint reads h1 + h2 + 1 = h,
which contradicts the node-count accounting (the root consumes one of the
h1 + h2 keys left unused by the subtrees) and cannot even run at h = 0;
h1 + h2 = h + 1 is the arithmetic that makes the recursion well-formed.

Ties are broken deterministically: smallest equality key, then smallest
split position, then smallest h1.
"""
from __future__ import annotations

from .model import (
    DpTable,
    Instance,
    Interval,
    SolveResult,
    gbst_join,
)

__all__ = ["HwTable", "hw_solve", "hw_table"]

# Cell layout: (cost, weight, used_mask, used_perm, tree, choice)
_EMPTY_CELL = (0, 0, 0, 0, None, None)


class HwTable(DpTable):
    """The HW DP over every (i, j, h) inside a root interval, h <= |I|.

    Backpointers are (s, h1, h2, e); None at the empty-tree base h = |I|.
    """

    def _fill(self) -> None:
        inst = self.inst
        order = self._order
        lo, hi = self.interval.i, self.interval.j
        grid = self._grid
        for i in range(lo, hi + 2):
            grid[(i, i - 1)] = [_EMPTY_CELL]

        for length in range(1, hi - lo + 2):
            for i in range(lo, hi - length + 2):
                j = i + length - 1
                iv_perm = order.interval_perm(i, j)
                row: list[tuple] = [None] * (length + 1)
                grid[(i, j)] = row
                row[length] = _EMPTY_CELL
                for h in range(length - 1, -1, -1):
                    best_rank = None
                    best = None
                    for s in range(i, j + 2):
                        row_l = grid[(i, s - 1)]
                        row_r = grid[(s, j)]
                        size_l = s - i
                        size_r = j - s + 1
                        h1_lo = max(0, h + 1 - size_r)
                        h1_hi = min(size_l, h + 1)
                        for h1 in range(h1_lo, h1_hi + 1):
                            cl = row_l[h1]
                            cr = row_r[h + 1 - h1]
                            used_perm = cl[3] | cr[3]
                            e = order.least(iv_perm & ~used_perm)
                            weight = cl[1] + cr[1] + inst.weight(e)
                            cost = weight + cl[0] + cr[0]
                            rank = (cost, e, s, h1)
                            if best_rank is None or rank < best_rank:
                                best_rank = rank
                                best = (s, h1, cl, cr, e, weight, cost)
                    s, h1, cl, cr, e, weight, cost = best
                    tree = gbst_join(e, s, i, cl[4], cr[4])
                    row[h] = (
                        cost,
                        weight,
                        cl[2] | cr[2] | (1 << (e - 1)),
                        cl[3] | cr[3] | order.bit(e),
                        tree,
                        (s, h1, h + 1 - h1, e),
                    )


def hw_table(inst: Instance) -> HwTable:
    """Full table over every subinterval of the instance."""
    return HwTable(inst)


def hw_solve(inst: Instance, interval: Interval, h: int) -> SolveResult:
    """Run the DP for one (interval, hole count) subproblem."""
    return HwTable.solve(inst, interval, h)
