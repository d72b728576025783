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
cost and key.  The fill gathers the base costs of every split candidate
of I, for all h at once, from its per-key stores of finished rows, and
``_best_split`` scans cell h's slice ``bases[a:b]`` of them.  It looks up
the free key of a split candidate only when its bound (base cost plus the
least weight in I) does not exceed the best cost so far: a candidate of
equal cost can still win the tie on a smaller e.  The key has the lesser
of the two sides' ``free`` ranks, from the same stores: the sides
partition I, and rank order is weight order.  ``_tree`` joins the rebuilt
children under e with :func:`~cstlab.model.gbst_join`.
"""
from __future__ import annotations

from .model import DpTable, GbstTree, gbst_join

__all__ = ["HwTable", "hw_solve"]


class HwTable(DpTable):
    """The HW DP over every (i, j, h) inside a root interval, h <= |I|."""

    def _best_split(self, bases, a, b, eq_cost, eq_e, least_w, free_l, free_r, at_l, at_r):
        key_at_rank, weight_at_rank = self._key_at_rank, self._weight_at_rank
        best_cost, best_k, best_e = eq_cost, -1, eq_e
        limit = best_cost - least_w
        # Candidates run in ascending (s, h1) order, so a strict < on
        # (cost, e) keeps the earliest among full ties.
        for k, base in enumerate(bases[a:b], a):
            if base > limit:  # costs more than best_cost
                continue
            # The lesser free rank of the two sides, without a min() call.
            left, right = free_l[at_l[k]], free_r[at_r[k]]
            rank = left if left < right else right
            cost = base + weight_at_rank[rank]
            if cost < best_cost or (cost == best_cost and key_at_rank[rank] < best_e):
                best_cost, best_k, best_e = cost, k, key_at_rank[rank]
                limit = cost - least_w
        return best_cost, best_k, best_e

    def _tree(self, i: int, j: int, h: int) -> GbstTree:
        choice = self._rows[(i, j)][3][h] if i <= j else None
        if choice is None:
            return None
        s, h1, h2, e = choice
        return gbst_join(e, s, i, self._tree(i, s - 1, h1), self._tree(s, j, h2))


hw_solve = HwTable.solve
