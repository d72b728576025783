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
"""
from __future__ import annotations

from .model import (
    EQ,
    LT,
    Cmp,
    DpTable,
    Instance,
    Interval,
    Leaf,
    SolveResult,
)

__all__ = ["SpulerTable", "spuler_solve", "spuler_table"]


class SpulerTable(DpTable):
    """Spuler's DP over every (i, j, h) inside a root interval, h <= |I| - 1.

    Backpointers are ("eq", e) or ("lt", s, h1, h2); None at the one-leaf
    base h = |I| - 1.
    """

    min_queries = 1

    def _fill(self) -> None:
        inst = self.inst
        order = self._order
        lo, hi = self.interval.i, self.interval.j
        grid = self._grid

        for length in range(1, hi - lo + 2):
            for i in range(lo, hi - length + 2):
                j = i + length - 1
                iv_perm = order.interval_perm(i, j)
                # Cell layout: (cost, weight, used_mask, used_perm, tree, choice)
                row: list[tuple] = [None] * length
                grid[(i, j)] = row

                e = order.least(iv_perm)
                row[length - 1] = (
                    0,
                    inst.weight(e),
                    1 << (e - 1),
                    order.bit(e),
                    Leaf(e),
                    None,
                )

                for h in range(length - 2, -1, -1):
                    best_rank = None
                    best = None
                    # T_= consumes one hole and recurses on (I, h+1).
                    sub = row[h + 1]
                    e = order.least(iv_perm & ~sub[3])
                    weight = sub[1] + inst.weight(e)
                    cost = weight + sub[0]
                    best_rank = (cost, 0, 0, 0)
                    best = ("eq", e, sub)
                    for s in range(i + 1, j + 1):
                        row_l = grid[(i, s - 1)]
                        row_r = grid[(s, j)]
                        size_l = s - i
                        size_r = j - s + 1
                        h1_lo = max(0, h - (size_r - 1))
                        h1_hi = min(size_l - 1, h)
                        for h1 in range(h1_lo, h1_hi + 1):
                            cl = row_l[h1]
                            cr = row_r[h - h1]
                            weight = cl[1] + cr[1]
                            cost = weight + cl[0] + cr[0]
                            rank = (cost, 1, s, h1)
                            if rank < best_rank:
                                best_rank = rank
                                best = ("lt", s, h1, cl, cr)
                    if best[0] == "eq":
                        _, e, sub = best
                        row[h] = (
                            best_rank[0],
                            sub[1] + inst.weight(e),
                            sub[2] | (1 << (e - 1)),
                            sub[3] | order.bit(e),
                            Cmp(EQ, e, yes=Leaf(e), no=sub[4]),
                            ("eq", e),
                        )
                    else:
                        _, s, h1, cl, cr = best
                        row[h] = (
                            best_rank[0],
                            cl[1] + cr[1],
                            cl[2] | cr[2],
                            cl[3] | cr[3],
                            Cmp(LT, s, yes=cl[4], no=cr[4]),
                            ("lt", s, h1, h - h1),
                        )


def spuler_table(inst: Instance) -> SpulerTable:
    """Full table over every subinterval of the instance."""
    return SpulerTable(inst)


def spuler_solve(inst: Instance, interval: Interval, h: int) -> SolveResult:
    """Run the DP for one (interval, hole count) subproblem."""
    return SpulerTable.solve(inst, interval, h)
