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

The fill keeps, next to each interval's cells, a flat row of cost + weight
indexed by h; a T_< candidate costs its two rows' entries.  For each cell
the T_< candidates of every split are gathered, in ascending (s, h1) order,
from the concatenated rows of the left sides and of the right sides, summed
and minimized in C; ``min`` and ``list.index`` keep the earliest of equal
candidates, and T_= wins a tie against the best of them.  The positions of
the gather depend only on the interval's length and h, so they are computed
once per length.  Trees and backpointers are built once per cell, from the
winning candidate.
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
        grid = self._grid
        # Flat rows by h: cost + weight.
        cw_rows: dict[tuple[int, int], list[int]] = {}

        for length in range(1, hi - lo + 2):
            gathers, split_of = _lt_gathers(length)
            for i in range(lo, hi - length + 2):
                j = i + length - 1
                iv_perm = order.interval_perm(i, j)
                lefts: list[int] = []
                rights: list[int] = []
                for s in range(i + 1, j + 1):
                    lefts += cw_rows[(i, s - 1)]
                    rights += cw_rows[(s, j)]
                left_at, right_at = lefts.__getitem__, rights.__getitem__
                # Cell layout: (cost, weight, used_mask, used_perm, tree, choice)
                row: list[tuple] = [None] * length
                cw_row = [0] * length
                grid[(i, j)] = row
                cw_rows[(i, j)] = cw_row

                e = key_at_rank[(iv_perm & -iv_perm).bit_length() - 1]
                row[length - 1] = (0, weights[e - 1], 1 << (e - 1), bit[e], Leaf(e), None)
                cw_row[length - 1] = weights[e - 1]

                for h in range(length - 2, -1, -1):
                    # T_= consumes one hole and recurses on (I, h+1).
                    sub = row[h + 1]
                    free = iv_perm & ~sub[3]
                    e = key_at_rank[(free & -free).bit_length() - 1]
                    eq_cost = cw_row[h + 1] + weights[e - 1]
                    at_l, at_r = gathers[h]
                    lt_costs = list(map(add, map(left_at, at_l), map(right_at, at_r)))
                    lt_cost = min(lt_costs)
                    if eq_cost <= lt_cost:
                        weight = sub[1] + weights[e - 1]
                        row[h] = (
                            eq_cost,
                            weight,
                            sub[2] | (1 << (e - 1)),
                            sub[3] | bit[e],
                            Cmp(EQ, e, yes=Leaf(e), no=sub[4]),
                            ("eq", e),
                        )
                        cw_row[h] = eq_cost + weight
                    else:
                        size_l, h1 = split_of[at_l[lt_costs.index(lt_cost)]]
                        s = i + size_l
                        cl = grid[(i, s - 1)][h1]
                        cr = grid[(s, j)][h - h1]
                        weight = cl[1] + cr[1]
                        row[h] = (
                            lt_cost,
                            weight,
                            cl[2] | cr[2],
                            cl[3] | cr[3],
                            Cmp(LT, s, yes=cl[4], no=cr[4]),
                            ("lt", s, h1, h - h1),
                        )
                        cw_row[h] = lt_cost + weight


def spuler_solve(inst: Instance, interval: Interval, h: int) -> SolveResult:
    """Run the DP for one (interval, hole count) subproblem."""
    return SpulerTable.solve(inst, interval, h)
