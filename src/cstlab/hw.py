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

The fill is :class:`~cstlab.model.DpTable`'s.  Split s = i with h1 = 0
(one child, on the right) is its equality candidate, tried first; split
s = j+1 (one child, on the left) is never tried, as it offers the same
cost and key.  The fill gathers the bases of every split candidate of I,
for all h at once, from key i's columns and key j's end store, and
``_best_split`` scans cell h's slice ``bases[a:b]`` of them.

The scan compares one int per candidate, its score cost*N + e in the
fill's encoding.  Ranks run in (weight, index) order, and the two sides
partition I, so the candidate's root key is the lighter of its sides'
free keys and it scores base + min(fk_l, fk_r); a split leaves h + 1 >= 1
holes, so one side always has a free key.  The equality candidate's score
starts as the best, and a split must score strictly below the best to
replace it, so the equality candidate and then the earliest split (s,
then h1) win full ties.  No free key of I encodes below I's least key,
fk_least, so a split whose base is at least best - fk_least is skipped
before its free keys are read.  ``_tree`` joins the rebuilt children under
e with :func:`~cstlab.model.gbst_join`.
"""
from __future__ import annotations

from .model import DpTable, GbstTree, gbst_join

__all__ = ["HwTable", "hw_solve"]


class HwTable(DpTable):
    """The HW DP over every (i, j, h) inside a root interval, h <= |I|."""

    def _best_split(self, bases, a, b, eq, fk_least, fk_l, fk_r, at_l, at_r):
        """The least score in the cell, the equality candidate's first (see
        the module docstring)."""
        best, best_k = eq, -1
        limit = best - fk_least
        for k, base in enumerate(bases[a:b], a):
            if base >= limit:  # scores at least best
                continue
            # The lighter free key of the two sides, without a min() call.
            left, right = fk_l[at_l[k]], fk_r[at_r[k]]
            score = base + (left if left < right else right)
            if score < best:
                best, best_k = score, k
                limit = score - fk_least
        return best, best_k

    def _tree(self, i: int, j: int, h: int) -> GbstTree:
        choice = self.choice(i, j, h) if i <= j else None
        if choice is None:
            return None
        s, h1, h2, e = choice
        return gbst_join(e, s, i, self._tree(i, s - 1, h1), self._tree(s, j, h2))


hw_solve = HwTable.solve
