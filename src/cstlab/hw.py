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

A candidate costs the cost + weight entries of its two children's rows
(see :class:`~cstlab.model.DpTable`) plus the weight of its free key, found
from their ``used_perm`` entries, so the candidate loop reads two ints per
side.  It skips the free-key lookup of a candidate whose bound (the two
entries plus the least weight in I) strictly exceeds the best cost so far:
a candidate of equal cost can still win the tie on a smaller e.
Candidates run in ascending (s, h1) order, so comparing (cost, e) with a
strict < keeps the earliest among full ties, as the tie-break rules above
require.  Split s = j+1 (one child, on the left) is never tried: it offers
the same cost and key as s = i (one child, on the right), which comes
first.  The fill stores the winning (s, h1, h2, e) as the backpointer and
builds no tree; ``_tree`` rebuilds one on request, joining the rebuilt
children under e with :func:`~cstlab.model.gbst_join`.
"""
from __future__ import annotations

from operator import add

from .model import (
    DpTable,
    GbstTree,
    Instance,
    Interval,
    SolveResult,
    gbst_join,
)

__all__ = ["HwTable", "hw_solve"]


class HwTable(DpTable):
    """The HW DP over every (i, j, h) inside a root interval, h <= |I|.

    Backpointers are (s, h1, h2, e); None at the empty-tree base h = |I|.
    """

    def _fill(self) -> None:
        weights = self.inst.weights
        order = self._order
        key_at_rank = order.key_at_rank
        weight_at_rank = order.weight_at_rank
        bit = order.bit
        lo, hi = self.interval.i, self.interval.j
        rows = self._rows
        for i in range(lo, hi + 2):
            self._add_rows(i, i - 1, 1)

        for length in range(1, hi - lo + 2):
            for i in range(lo, hi - length + 2):
                j = i + length - 1
                iv_perm = order.interval_perm(i, j)
                least_w = min(weights[i - 1 : j])
                # Splits with two nonempty sides; the right row is reversed
                # so that h1 ascending reads it ascending too.
                sides = []
                for s in range(i + 1, j + 1):
                    left, right = rows[(i, s - 1)], rows[(s, j)]
                    sides.append((s, s - i, j - s + 1, left[1], left[2], right[1][::-1], right[2]))
                cost_row, cw_row, perm_row, choice_row = self._add_rows(i, j, length + 1)
                for h in range(length - 1, -1, -1):
                    # s = i, h1 = 0: the single child is (I, h+1).
                    free = iv_perm & ~perm_row[h + 1]
                    rank = (free & -free).bit_length() - 1
                    best_cost = cw_row[h + 1] + weight_at_rank[rank]
                    best_e = key_at_rank[rank]
                    best_s, best_h1 = i, 0
                    limit = best_cost - least_w
                    for s, size_l, size_r, cwl, pl, cwr_rev, pr in sides:
                        h1_lo = h + 1 - size_r if h >= size_r else 0
                        h1_end = size_l + 1 if size_l <= h else h + 2
                        # cwr[h + 1 - h1] is cwr_rev[off + h1].
                        off = size_r - h - 1
                        bases = map(add, cwl[h1_lo:h1_end], cwr_rev[off + h1_lo : off + h1_end])
                        for h1, base in enumerate(bases, h1_lo):
                            if base > limit:  # costs more than best_cost
                                continue
                            free = iv_perm & ~(pl[h1] | pr[h + 1 - h1])
                            rank = (free & -free).bit_length() - 1
                            cost = base + weight_at_rank[rank]
                            if cost < best_cost or (
                                cost == best_cost and key_at_rank[rank] < best_e
                            ):
                                best_cost = cost
                                best_e = key_at_rank[rank]
                                best_s, best_h1 = s, h1
                                limit = cost - least_w
                    s, h1, h2, e = best_s, best_h1, h + 1 - best_h1, best_e
                    left, right = rows[(i, s - 1)], rows[(s, j)]
                    # A cost is the weight plus the children's costs.
                    cost_row[h] = best_cost
                    cw_row[h] = 2 * best_cost - left[0][h1] - right[0][h2]
                    perm_row[h] = left[2][h1] | right[2][h2] | bit[e]
                    choice_row[h] = (s, h1, h2, e)

    def _tree(self, i: int, j: int, h: int) -> GbstTree:
        choice = self._rows[(i, j)][3][h]
        if choice is None:
            return None
        s, h1, h2, e = choice
        return gbst_join(e, s, i, self._tree(i, s - 1, h1), self._tree(s, j, h2))


def hw_solve(inst: Instance, interval: Interval, h: int) -> SolveResult:
    """Run the DP for one (interval, hole count) subproblem."""
    return HwTable.solve(inst, interval, h)
