"""Reference fills of the flawed (interval, hole count) dynamic programs.

These are the HW and Spuler table fills as first written: every candidate
unpacks the two child cells, picks the free least-weight key through a
method call and ranks itself by the tuple (cost, e, s, h1), or
(cost, 0/1, s, h1) for Spuler.  They share no loop code with
:mod:`cstlab.hw` and :mod:`cstlab.spuler`, and the tests require every cell,
trees and backpointers included, to be equal.  Each reference keeps its own
``_grid`` of six-field cells, (cost, weight, used_mask, used_perm, tree,
choice), with a tree built per cell; the tests read it directly, not
through the :class:`~cstlab.model.DpTable` accessors.
"""
from __future__ import annotations

from cstlab.model import EQ, LT, Cmp, DpTable, Leaf, gbst_join

# Cell layout: (cost, weight, used_mask, used_perm, tree, choice)
_EMPTY_CELL = (0, 0, 0, 0, None, None)


class LeastWeightOrder:
    """Least-(weight, index) key selection over mask-encoded key sets.

    Keys are re-indexed by ascending (weight, index) rank so that picking a
    least-weight key from any subset is a lowest-set-bit operation on the
    rank-permuted mask.
    """

    def __init__(self, inst):
        order = sorted(range(1, inst.n + 1), key=lambda k: (inst.weight(k), k))
        self.key_at_rank = tuple(order)
        bits = [0] * (inst.n + 1)
        for rank, key in enumerate(order):
            bits[key] = 1 << rank
        self._bit = tuple(bits)
        self._interval_cache: dict[tuple[int, int], int] = {}

    def bit(self, key: int) -> int:
        return self._bit[key]

    def perm_mask(self, keys) -> int:
        m = 0
        for k in keys:
            m |= self._bit[k]
        return m

    def interval_perm(self, i: int, j: int) -> int:
        try:
            return self._interval_cache[(i, j)]
        except KeyError:
            m = self.perm_mask(range(i, j + 1))
            self._interval_cache[(i, j)] = m
            return m

    def least(self, perm_mask: int) -> int:
        """Key with the lowest (weight, index) among a nonempty permuted mask."""
        low = perm_mask & -perm_mask
        return self.key_at_rank[low.bit_length() - 1]


class HwTable(DpTable):
    """The HW DP over every (i, j, h) inside a root interval, h <= |I|."""

    def _fill(self) -> None:
        inst = self.inst
        order = LeastWeightOrder(inst)
        lo, hi = self.interval.i, self.interval.j
        grid = self._grid = {}
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


class SpulerTable(DpTable):
    """Spuler's DP over every (i, j, h) inside a root interval, h <= |I| - 1."""

    min_queries = 1

    def _fill(self) -> None:
        inst = self.inst
        order = LeastWeightOrder(inst)
        lo, hi = self.interval.i, self.interval.j
        grid = self._grid = {}

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
