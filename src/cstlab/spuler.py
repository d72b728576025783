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

The fill is :class:`~cstlab.model.DpTable`'s, with T_= as its equality
candidate and the T_< candidates as its splits (``min_queries`` = 1, so
h1 + h2 = h).  A T_< candidate has no root key, so its score is its base,
cost*N in the fill's encoding.  ``_best_split`` is ``min`` and
``list.index`` over the cell's slice of the bases, which keep the
earliest of equal candidates; T_= on e scores cost*N + e with 0 < e < N,
so it wins when it scores below the least base + N.
"""
from __future__ import annotations

from .model import (
    EQ,
    LT,
    Cmp,
    DpTable,
    Leaf,
    TwcstTree,
)

__all__ = ["SpulerTable", "spuler_solve"]


class SpulerTable(DpTable):
    """Spuler's DP over every (i, j, h) inside a root interval, h <= |I| - 1.

    ``choice`` gives DpTable's (s, h1, h2, e): (i, 0, h + 1, e) for T_= on
    e, (s, h1, h2, None) for T_<s; None at the one-leaf base h = |I| - 1.
    """

    min_queries = 1

    def _best_split(self, bases, a, b, eq, fk_least, fk_l, fk_r, at_l, at_r):
        best = min(bases[a:b])
        if eq < best + self._scale:  # T_= costs at most the best T_<
            return eq, -1
        return best, bases.index(best, a, b)

    def _tree(self, i: int, j: int, h: int) -> TwcstTree:
        choice = self.choice(i, j, h)
        if choice is None:  # one leaf: its key is the one rank bit placed
            return Leaf(self._key_at_rank[self._entry(2, i, j, h).bit_length() - 1])
        s, h1, h2, e = choice
        if e is None:
            return Cmp(LT, s, yes=self._tree(i, s - 1, h1), no=self._tree(s, j, h2))
        return Cmp(EQ, e, yes=Leaf(e), no=self._tree(i, j, h2))


spuler_solve = SpulerTable.solve
