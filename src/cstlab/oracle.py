"""Correct-by-construction exact solvers for both tree families.

These enumerate every admissible tree via memoized recursion over query
sets: the keys of an (interval, explicit hole set) subproblem that are not
holes.  They are exponential in the interval size and refuse intervals
beyond a configured limit.  They serve as the ground truth the
polynomial-time dynamic programs are audited against.

Also here: the key-placement lower bound for GBST costs, and the integer
depth sequences d_m / e_m bounding the total leaf depth of separated and
nearly-separated query sets in any valid 2WCST.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from ._kernel import BACKEND, GbstCostKernel, TwcstCostKernel
from .model import (
    EQ,
    LT,
    Cmp,
    GbstTree,
    Instance,
    Interval,
    Leaf,
    TwcstTree,
    check_hole_count,
    gbst_join,
    mask_of,
    range_mask,
    twcst_leaf_depths,
    twcst_weight,
)

__all__ = [
    "BACKEND",
    "DEFAULT_GBST_LIMIT",
    "DEFAULT_TWCST_LIMIT",
    "SizeLimitError",
    "GbstOracle",
    "TwcstOracle",
    "placement_lower_bound",
    "DepthSeq",
    "depth_seq",
    "depth_bound_violations",
    "eq_root_weight_ok",
]

DEFAULT_GBST_LIMIT = 16
DEFAULT_TWCST_LIMIT = 18


class SizeLimitError(RuntimeError):
    """Raised when a query interval exceeds the oracle's configured limit."""

    def __init__(self, size: int, limit: int):
        self.size = size
        self.limit = limit
        super().__init__(
            f"interval of size {size} exceeds the configured oracle limit {limit}"
        )


def _as_mask(holes: Iterable[int] | int) -> int:
    if isinstance(holes, int):
        return holes
    return mask_of(holes)


class ExactOracle:
    """Exact optima for (interval, hole set) subproblems of one instance.

    A subproblem must keep ``min_queries`` keys, so opt_star's h runs over
    0..|I| - min_queries.  Subclasses supply the cost kernel and ``_build``,
    which reconstructs an optimal tree from the kernel's memo.  The memo is
    shared across all top-level queries on the oracle, so enumerating hole
    sets at a fixed interval reuses subproblem work.
    """

    min_queries = 0

    def __init__(self, inst: Instance, limit: int, kernel):
        self.inst = inst
        self.limit = limit
        self._kernel = kernel

    def _mask(self, interval: Interval, holes: Iterable[int] | int) -> int:
        """Hole mask of a subproblem the oracle accepts; raises otherwise."""
        interval.validate_for(self.inst.n)
        if interval.size > self.limit:
            raise SizeLimitError(interval.size, self.limit)
        mask = _as_mask(holes) & interval.mask()
        if (interval.mask() & ~mask).bit_count() < self.min_queries:
            raise ValueError("subproblem must keep at least one query")
        return mask

    def opt(self, interval: Interval, holes: Iterable[int] | int = 0) -> tuple[int, object]:
        """Exact optimum over all valid trees for (interval, holes)."""
        mask = self._mask(interval, holes)
        cost = self._kernel.cost(interval.i, interval.j, mask)
        return cost, self._build(interval.i, interval.j, mask)

    def opt_cost(self, interval: Interval, holes: Iterable[int] | int = 0) -> int:
        return self._kernel.cost(interval.i, interval.j, self._mask(interval, holes))

    def opt_star(self, interval: Interval, h: int) -> tuple[int, object, tuple[int, ...]]:
        """Minimum over all hole sets of size h; returns the argmin set too."""
        cost, holes = self._star_argmin(interval, h)
        return cost, self._build(interval.i, interval.j, mask_of(holes)), holes

    def opt_star_cost(self, interval: Interval, h: int) -> int:
        return self._star_argmin(interval, h)[0]

    def _star_argmin(self, interval: Interval, h: int) -> tuple[int, tuple[int, ...]]:
        self._mask(interval, 0)
        check_hole_count(h, interval, self.min_queries)
        best = None
        best_holes: tuple[int, ...] = ()
        kernel_cost = self._kernel.cost
        for holes in combinations(interval.keys(), h):
            c = kernel_cost(interval.i, interval.j, mask_of(holes))
            if best is None or c < best:
                best, best_holes = c, holes
        return best, best_holes


class GbstOracle(ExactOracle):
    """Exact minimum-cost generalized binary split trees for one instance."""

    def __init__(self, inst: Instance, limit: int = DEFAULT_GBST_LIMIT):
        super().__init__(inst, limit, GbstCostKernel(inst.weights))

    def _build(self, i: int, j: int, mask: int) -> GbstTree:
        full = range_mask(i, j)
        mask &= full
        if mask == full:
            return None
        kernel_cost = self._kernel.cost
        queries = full & ~mask
        target = kernel_cost(i, j, mask) - self.inst.mask_weight(queries)
        # First (s, e) in lexicographic order achieving the optimum.
        for s in range(i, j + 2):
            left_full = range_mask(i, s - 1)
            right_full = range_mask(s, j)
            q = queries
            while q:
                low = q & -q
                q ^= low
                me = mask | low
                lm = me & left_full
                rm = me & right_full
                if kernel_cost(i, s - 1, lm) + kernel_cost(s, j, rm) == target:
                    left = self._build(i, s - 1, lm)
                    right = self._build(s, j, rm)
                    return gbst_join(low.bit_length(), s, i, left, right)
        raise AssertionError("memoized optimum not reproducible; kernel bug")


class TwcstOracle(ExactOracle):
    """Exact minimum-cost two-way comparison search trees for one instance.

    ``prune_zero_eq`` skips equality tests on zero-weight keys whenever more
    than one query remains; this never changes the optimum (such a node can
    be spliced out and the key re-attached beside a neighboring query leaf
    at no extra cost) and it shrinks the state space considerably on
    instances with many zero-weight keys.
    """

    min_queries = 1

    def __init__(
        self,
        inst: Instance,
        limit: int = DEFAULT_TWCST_LIMIT,
        prune_zero_eq: bool = True,
    ):
        super().__init__(inst, limit, TwcstCostKernel(inst.weights, prune_zero_eq))
        self.prune_zero_eq = prune_zero_eq

    def _build(self, i: int, j: int, mask: int) -> TwcstTree:
        full = range_mask(i, j)
        mask &= full
        queries = full & ~mask
        if queries & (queries - 1) == 0:
            return Leaf(queries.bit_length())
        kernel_cost = self._kernel.cost
        target = kernel_cost(i, j, mask) - self.inst.mask_weight(queries)
        weights = self.inst.weights
        # Equality candidates first (ascending key), then splits.
        q = queries
        while q:
            low = q & -q
            q ^= low
            e = low.bit_length()
            if self.prune_zero_eq and weights[e - 1] == 0:
                continue
            if kernel_cost(i, j, mask | low) == target:
                return Cmp(EQ, e, yes=Leaf(e), no=self._build(i, j, mask | low))
        for s in range(i + 1, j + 1):
            split = range_mask(i, s - 1)
            left_q = queries & split
            if left_q == 0 or left_q == queries:
                continue
            lm = mask & split
            rm = mask & ~split
            if kernel_cost(i, s - 1, lm) + kernel_cost(s, j, rm) == target:
                return Cmp(LT, s, yes=self._build(i, s - 1, lm), no=self._build(s, j, rm))
        raise AssertionError("memoized optimum not reproducible; kernel bug")


# ---------------------------------------------------------------------------
# Key-placement lower bound
# ---------------------------------------------------------------------------

def placement_lower_bound(inst: Instance) -> int:
    """Lower bound on every GBST cost for the full instance.

    Assign keys, heaviest first, to the slots of the infinite binary tree
    level by level (2^d slots at depth d) and charge weight * (depth + 1).
    Any valid tree induces such a placement of equal cost, so no tree can
    cost less than the best placement.
    """
    total = 0
    depth = 0
    capacity = 1
    filled = 0
    for w in sorted(inst.weights, reverse=True):
        if filled == capacity:
            depth += 1
            capacity = 1 << depth
            filled = 0
        total += w * (depth + 1)
        filled += 1
    return total


# ---------------------------------------------------------------------------
# Depth sequences and structural bounds for 2WCST trees
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DepthSeq:
    """Lower bounds on total leaf depth: d for separated query sets of size
    m, e for nearly separated ones.  Entry index 0 holds m = 1."""

    d: tuple[int, ...]
    e: tuple[int, ...]

    def d_at(self, m: int) -> int:
        return self.d[m - 1]

    def e_at(self, m: int) -> int:
        return self.e[m - 1]


def depth_seq(m_max: int) -> DepthSeq:
    """Sequences d_m = m + min(d_i + d_{m-i}) and e_m = m + min(d_i + e_{m-i})
    with bases d_1 = 0, d_2 = 3, e_1 = 0, e_2 = 2, e_3 = 6."""
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    d = [0, 3]
    for m in range(3, m_max + 1):
        d.append(m + min(d[i - 1] + d[m - i - 1] for i in range(1, m)))
    e = [0, 2, 6]
    for m in range(4, m_max + 1):
        e.append(m + min(d[i - 1] + e[m - i - 1] for i in range(1, m)))
    return DepthSeq(tuple(d[:m_max]), tuple(e[:m_max]))


def _between_counter(queries: list[int]):
    from bisect import bisect_left, bisect_right

    def count(a: int, b: int) -> int:
        return bisect_left(queries, b) - bisect_right(queries, a)

    return count


def _separated(subset: tuple[int, ...], between) -> bool:
    # Separators must be queries outside the subset; between adjacent
    # members every strictly-inner query qualifies.
    return all(between(a, b) >= 1 for a, b in zip(subset, subset[1:]))


def _nearly_separated(subset: tuple[int, ...], between) -> bool:
    # Dropping one member must leave a set whose separators all lie outside
    # the *original* subset, so the gap merged around the dropped member f
    # needs a second inner query besides f itself.
    m = len(subset)
    for k in range(m):
        pairs_ok = all(
            between(subset[t], subset[t + 1]) >= 1
            for t in range(m - 1)
            if t != k - 1 and t != k
        )
        if not pairs_ok:
            continue
        if 0 < k < m - 1 and between(subset[k - 1], subset[k + 1]) < 2:
            continue
        return True
    return False


def depth_bound_violations(
    tree: TwcstTree, seqs: DepthSeq, m_max: int = 6
) -> list[str]:
    """Check every query subset of size <= m_max against the depth bounds.

    Separated subsets must have total leaf depth >= d_m, nearly separated
    ones >= e_m.  Returns human-readable violations (empty when all hold).
    """
    depths = twcst_leaf_depths(tree)
    queries = sorted(depths)
    between = _between_counter(queries)
    violations = []
    for m in range(2, min(m_max, len(queries)) + 1):
        for subset in combinations(queries, m):
            total = sum(depths[k] for k in subset)
            if _separated(subset, between):
                if total < seqs.d_at(m):
                    violations.append(
                        f"separated {subset}: total depth {total} < d_{m}={seqs.d_at(m)}"
                    )
            elif _nearly_separated(subset, between):
                if total < seqs.e_at(m):
                    violations.append(
                        f"nearly separated {subset}: total depth {total} < e_{m}={seqs.e_at(m)}"
                    )
    return violations


def eq_root_weight_ok(tree: TwcstTree, inst: Instance) -> bool:
    """Optimal trees with an equality test at the root must have total query
    weight at most four times the maximum query weight."""
    if not (isinstance(tree, Cmp) and tree.op == EQ):
        return True
    depths = twcst_leaf_depths(tree)
    max_w = max(inst.weight(k) for k in depths)
    return twcst_weight(tree, inst) <= 4 * max_w
