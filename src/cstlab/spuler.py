"""Spuler's dynamic program for two-way comparison search trees.

A modification of the Huang-Wong scheme to the 2WCST model, again over
(interval, hole count) subproblems, and flawed for the same reason: the
underlying recurrence assumes optimal substructure that does not hold.
Returned trees are always valid for their subproblem but not guaranteed
optimal.

Subproblem (I, h) with I = [i, j] and at least one query (h <= |I| - 1):

* |I| - h = 1: a single leaf holding a least-weight key of I, cost 0.
* otherwise the cheapest of:
  - T_= : equality root on e, the least-weight key of I not occurring as a
    leaf of the memoized result for (I, h+1); yes branch Leaf(e), no branch
    that result.  Consumes one hole.
  - T_<s for each key s in I and h1 + h2 = h with both sides keeping at
    least one query: less-than root on s over the memoized results for
    ([i, s-1], h1) and ([s, j], h2).
  Candidate cost = candidate leaf weight + child costs.

Ties prefer T_= over T_<, then smallest s, then smallest h1; the base-case
leaf takes the minimum-weight key (lowest index on ties).

A T_< candidate costs the cost + weight entries of its two children's rows
(see :class:`~cstlab.model.DpTable`).  For each cell the T_< candidates of
every split are gathered, in ascending (s, h1) order, from the concatenated
rows of the left sides and of the right sides, summed and minimized in C;
``min`` and ``list.index`` keep the earliest of equal candidates, and T_=
wins a tie against the best of them.  The positions of the gather depend
only on the interval's length and h, so they are computed once per length.
The fill stores the winning candidate as the backpointer and builds no
tree; ``_tree`` rebuilds one on request: ("eq", e) and ("lt", s, h1, h2)
become Cmp nodes, and the one-leaf base's key is the single rank bit of
its ``used_perm``.
"""
from __future__ import annotations

from operator import add

from .model import (
    EQ,
    LT,
    Cmp,
    DpTable,
    Instance,
    Interval,
    Leaf,
    SolveResult,
    TwcstTree,
)

__all__ = ["SpulerTable", "spuler_solve"]


def _lt_gathers(length: int) -> tuple[list, list]:
    """Where the T_< candidates of an interval of *length* keys sit.

    Splits s = i+1..j are numbered by size_l = s - i.  The rows of the left
    sides, of size_l entries each, are concatenated in split order, which
    puts (size_l, h1) at position ``size_l * (size_l - 1) // 2 + h1``; the
    rows of the right sides, of size_r = length - size_l entries each,
    likewise.  Returns, per h, the positions of the candidates in each
    concatenation, splits ascending and then h1 ascending; and, per left
    position, its (size_l, h1).
    """
    # Slices of one list of positions, so that all gathers share its ints.
    pos = list(range(length * (length - 1) // 2))
    split_of = [(size_l, h1) for size_l in range(1, length) for h1 in range(size_l)]
    gathers = []
    for h in range(length - 1):
        at_l: list[int] = []
        at_r: list[int] = []
        start_l = start_r = 0
        for size_l in range(1, length):
            size_r = length - size_l
            a = max(0, h + 1 - size_r)
            b = min(size_l, h + 1)
            at_l += pos[start_l + a : start_l + b]
            # h2 = h - h1 runs down from h - a to h - b + 1.
            at_r += reversed(pos[start_r + h - b + 1 : start_r + h - a + 1])
            start_l += size_l
            start_r += size_r
        gathers.append((at_l, at_r))
    return gathers, split_of


class SpulerTable(DpTable):
    """Spuler's DP over every (i, j, h) inside a root interval, h <= |I| - 1.

    Backpointers are ("eq", e) or ("lt", s, h1, h2); None at the one-leaf
    base h = |I| - 1.
    """

    min_queries = 1

    def _fill(self) -> None:
        weights = self.inst.weights
        order = self._order
        key_at_rank = order.key_at_rank
        bit = order.bit
        lo, hi = self.interval.i, self.interval.j
        rows = self._rows

        for length in range(1, hi - lo + 2):
            gathers, split_of = _lt_gathers(length)
            for i in range(lo, hi - length + 2):
                j = i + length - 1
                iv_perm = order.interval_perm(i, j)
                lefts: list[int] = []
                rights: list[int] = []
                for s in range(i + 1, j + 1):
                    lefts += rows[(i, s - 1)][1]
                    rights += rows[(s, j)][1]
                left_at, right_at = lefts.__getitem__, rights.__getitem__
                cost_row, cw_row, perm_row, choice_row = self._add_rows(i, j, length)

                e = key_at_rank[(iv_perm & -iv_perm).bit_length() - 1]
                cw_row[length - 1] = weights[e - 1]
                perm_row[length - 1] = bit[e]

                for h in range(length - 2, -1, -1):
                    # T_= consumes one hole and recurses on (I, h+1).
                    free = iv_perm & ~perm_row[h + 1]
                    e = key_at_rank[(free & -free).bit_length() - 1]
                    eq_cost = cw_row[h + 1] + weights[e - 1]
                    at_l, at_r = gathers[h]
                    lt_costs = list(map(add, map(left_at, at_l), map(right_at, at_r)))
                    lt_cost = min(lt_costs)
                    # A cost is the weight plus the children's costs.
                    if eq_cost <= lt_cost:
                        cost_row[h] = eq_cost
                        cw_row[h] = 2 * eq_cost - cost_row[h + 1]
                        perm_row[h] = perm_row[h + 1] | bit[e]
                        choice_row[h] = ("eq", e)
                    else:
                        size_l, h1 = split_of[at_l[lt_costs.index(lt_cost)]]
                        s = i + size_l
                        left, right = rows[(i, s - 1)], rows[(s, j)]
                        cost_row[h] = lt_cost
                        cw_row[h] = 2 * lt_cost - left[0][h1] - right[0][h - h1]
                        perm_row[h] = left[2][h1] | right[2][h - h1]
                        choice_row[h] = ("lt", s, h1, h - h1)

    def _tree(self, i: int, j: int, h: int) -> TwcstTree:
        _, _, perm_row, choice_row = self._rows[(i, j)]
        choice = choice_row[h]
        if choice is None:  # one leaf: its key is the one rank bit placed
            return Leaf(self._order.key_at_rank[perm_row[h].bit_length() - 1])
        if choice[0] == "eq":
            e = choice[1]
            return Cmp(EQ, e, yes=Leaf(e), no=self._tree(i, j, h + 1))
        _, s, h1, h2 = choice
        return Cmp(LT, s, yes=self._tree(i, s - 1, h1), no=self._tree(s, j, h2))


def spuler_solve(inst: Instance, interval: Interval, h: int) -> SolveResult:
    """Run the DP for one (interval, hole count) subproblem."""
    return SpulerTable.solve(inst, interval, h)
