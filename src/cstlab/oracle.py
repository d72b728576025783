"""Correct-by-construction exact solvers for both tree families.

The state of a subproblem is its query set Q: the keys of an (interval,
explicit hole set) pair that are not holes.  A hole is only a key missing
from Q, so every pair with the same Q shares one memo slot, and a split
matters only through the gap of Q it falls in: each state tries one split
per gap between consecutive keys of Q.  Trees are rebuilt by walking the
same gaps, reading only memo slots that costing Q filled (GBST computes
g(Q) inside cost(Q); ``GbstOracle`` states the fill invariant).  The memo
is one flat list for the oracle's window, a run of at most ``limit``
keys, whose slot Q holds the cost of the query set with mask Q relative
to the window's first key, or None; a query outside the window moves it
and starts a fresh list.  The solvers are exponential in the interval
size and refuse intervals beyond that limit.  They are the ground truth
the dynamic programs are audited against.

A whole-table audit reads opt* for every cell from ``star_rows``: one pass
that costs each query set of the root interval once and files it under
its lowest key, highest key and size, instead of one hole-set enumeration
per cell.  Given holes_max, the pass skips every query set with more
holes than that between its lowest and highest key, so it costs exactly
the query sets the cells with h <= holes_max need.

Also here: the key-placement lower bound for GBST costs, and the integer
depth sequences d_m / e_m bounding the total leaf depth of separated and
nearly-separated query sets in any valid 2WCST.
"""
from __future__ import annotations

from itertools import combinations
from typing import Iterable

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
    _walk,
)

__all__ = [
    "SizeLimitError",
    "GbstOracle",
    "TwcstOracle",
    "placement_lower_bound",
    "depth_seq",
    "depth_bound_violations",
    "eq_root_weight_ok",
]


class SizeLimitError(RuntimeError):
    """Raised when a query interval exceeds a solver's configured limit."""

    def __init__(self, size: int, limit: int, solver: str = "oracle"):
        self.size = size
        self.limit = limit
        super().__init__(
            f"interval of size {size} exceeds the configured {solver} limit {limit}"
        )


class ExactOracle:
    """Exact optima for (interval, hole set) subproblems of one instance.

    A subproblem must keep ``min_queries`` keys, so opt_star's h runs over
    0..|I| - min_queries, and its interval may hold at most ``limit`` keys.
    Subclasses supply the memoized recurrence ``_cost(q)`` and
    ``_tree(q, i)``, which rebuilds an optimal tree for a costed Q from the
    slots costing it filled (i starts the subproblem's interval).  Both
    read the oracle's one window, the min(n, limit) keys after ``_shift``:
    its weights ``w`` by relative bit and the tables ``_open`` made.  A
    query outside the window replaces it, and the old tables are dropped:
    the new window starts at the query's first key, moved back to end at
    key n if need be.  So one oracle serves one thread at a time.  The memo
    fills top-down, reaching only the states the optimum needs.
    """

    min_queries = 0
    limit = 0

    def __init__(self, inst: Instance):
        self.inst = inst
        self._size = min(inst.n, self.limit)
        self._shift = inst.n  # no window yet: the first query opens one

    def _query_set(self, interval: Interval, holes: Iterable[int] | int) -> int:
        """Query set of an accepted subproblem, relative to the window."""
        interval.validate_for(self.inst.n)
        if interval.size > self.limit:
            raise SizeLimitError(interval.size, self.limit)
        if not isinstance(holes, int):
            holes = tuple(holes)
            for k in holes:
                if k not in interval:
                    raise ValueError(f"hole key {k} outside interval [{interval.i},{interval.j}]")
            holes = mask_of(holes)
        q = interval.mask() & ~holes
        if q.bit_count() < self.min_queries:
            raise ValueError("subproblem must keep at least one query")
        if not (self._shift < interval.i and interval.j <= self._shift + self._size):
            self._open(min(self.inst.n - self._size, interval.i - 1))
        return q >> self._shift

    def _open(self, shift: int) -> None:
        """Start the window at key shift + 1 with an empty cost table, in
        which every set of min_queries keys costs 0."""
        self._shift = shift
        self.w = (0,) + self.inst.weights[shift : shift + self._size]
        self._memo = memo = [None] * (1 << self._size)
        for q in [1 << k for k in range(self._size)] if self.min_queries else [0]:
            memo[q] = 0

    def opt(self, interval: Interval, holes: Iterable[int] | int = 0) -> tuple[int, object]:
        """Exact optimum over all valid trees for (interval, holes)."""
        q = self._query_set(interval, holes)
        return self._cost(q), self._tree(q, interval.i)

    def opt_cost(self, interval: Interval, holes: Iterable[int] | int = 0) -> int:
        return self._cost(self._query_set(interval, holes))

    def opt_star(self, interval: Interval, h: int) -> tuple[int, object, tuple[int, ...]]:
        """Minimum over all hole sets of size h; returns the argmin set too."""
        cost, holes, q = self._star_argmin(interval, h)
        return cost, self._tree(q, interval.i), holes

    def opt_star_cost(self, interval: Interval, h: int) -> int:
        return self._star_argmin(interval, h)[0]

    def _star_argmin(self, interval: Interval, h: int) -> tuple[int, tuple[int, ...], int]:
        """opt* cost, its hole keys and its window-relative query set."""
        check_hole_count(h, interval, self.min_queries)
        full = self._query_set(interval, 0)
        shift = self._shift
        hole_sets = combinations([1 << (k - 1 - shift) for k in interval.keys()], h)
        # The hole bits lie inside full; min keeps the first least query set.
        q = min((full - sum(holes) for holes in hole_sets), key=self._cost)
        return self._memo[q], tuple(b.bit_length() + shift for b in _bits(full ^ q)), q

    def star_rows(
        self, interval: Interval, holes_max: int | None = None
    ) -> dict[tuple[int, int], list[int]]:
        """opt* of every cell inside *interval*, from one pass over its query sets.

        Returns {(i, j): row} for every [i, j] inside the interval, where
        row[h] == opt_star_cost(Interval(i, j), h) for every h in
        0..|[i, j]| - min_queries that is at most holes_max.  A query set Q
        with lowest key lo and highest key hi serves exactly the cells
        [i, j] around [lo, hi] with h = |[i, j]| - |Q|.  So each Q is costed
        once and the least cost is kept per (lo, hi, holes inside [lo, hi]);
        a cell then takes the least of its own entry and its two
        one-key-shorter sub-intervals' entries at h - 1.  A Q with more than
        holes_max holes inside [lo, hi] serves no cell with h <= holes_max
        and is never built, so the pass costs exactly the query sets that
        opt_star_cost would on those cells.
        """
        self._query_set(interval, 0)
        if holes_max is None:
            holes_max = interval.size
        elif holes_max < 0:
            raise ValueError("holes_max must be >= 0")
        memo, cost, shift = self._memo, self._cost, self._shift
        rows: dict[tuple[int, int], list[int]] = {}
        # inner[r]: the kept inner keys of a run of `length` keys, as masks
        # of its length - 2 inner bits, that leave r of them as holes.
        inner = [[0]]
        for length in range(1, interval.size + 1):
            if length > 2:
                # The new top inner bit is either kept or one more hole.
                top = 1 << (length - 3)
                old = inner
                inner = [
                    ([s | top for s in old[r]] if r < len(old) else [])
                    + (old[r - 1] if r else [])
                    for r in range(min(holes_max, length - 2) + 1)
                ]
            width = min(holes_max, length - self.min_queries) + 1
            for lo in range(interval.i, interval.j - length + 2):
                hi = lo + length - 1
                base = lo - shift  # lo's relative bit position
                ends = (1 << (base - 1)) | (1 << (base + length - 2))
                row = [None] * width
                if width > length:
                    row[length] = 0  # every key a hole: the empty GBST
                for r, kept in enumerate(inner):
                    best = None
                    for s in kept:
                        q = ends | s << base
                        c = memo[q]
                        if c is None:
                            c = cost(q)
                        if best is None or c < best:
                            best = c
                    row[r] = best
                if length > 1:
                    left, right = rows[(lo, hi - 1)], rows[(lo + 1, hi)]
                    for h in range(1, width):
                        sub = min(left[h - 1], right[h - 1])
                        if row[h] is None or sub < row[h]:
                            row[h] = sub
                rows[(lo, hi)] = row
        return rows


class GbstOracle(ExactOracle):
    """Exact minimum-cost generalized binary split trees for one instance.

    With g(Q) = min over e in Q of cost(Q - e), the best pair of subtrees
    below an equality test on e,

        cost(Q) = W(Q) + min(g(Q), min over gaps (QL, QR) of Q of
                             min(g(QL) + cost(QR), cost(QL) + g(QR)))

    and cost(empty) = 0.  A node tests some e and splits Q - e into a prefix
    and a suffix; cutting Q itself at one of its ends leaves one side empty
    (the g(Q) term), and cutting at an inner gap puts e on one side of it.
    g(Q) is computed inside cost(Q), whose first loop costs every Q - e.  Q
    minus its top (bottom) key is its longest proper prefix (suffix), so by
    induction on |Q| a filled cost slot Q != 0 has its g slot and those of
    all its proper prefixes and suffixes filled, and rebuilds read only these.
    """

    limit = 16

    def _open(self, shift: int) -> None:
        super()._open(shift)
        self._g_memo = [None] * (1 << self._size)

    def _cost(self, q: int) -> int:
        memo = self._memo
        hit = memo[q]
        if hit is not None:
            return hit
        g_memo = self._g_memo
        cost = self._cost
        w = self.w
        best = None
        rest = q
        while rest:
            low = rest & -rest
            rest ^= low
            c = memo[q ^ low]
            if c is None:
                c = cost(q ^ low)
            if best is None or c < best:
                best = c
        g_memo[q] = best
        # A cost slot Q != 0 is filled iff its g slot is, and then so are all
        # of Q's proper prefixes and suffixes, so the gap loop reads them as is.
        total = 0
        left = 0
        rest = q
        while rest:
            low = rest & -rest
            rest ^= low
            left |= low
            total += w[low.bit_length()]
            if rest:
                c = g_memo[left] + memo[rest]
                if c < best:
                    best = c
                c = memo[left] + g_memo[rest]
                if c < best:
                    best = c
        result = total + best
        memo[q] = result
        return result

    def _eq_key(self, q: int) -> int:
        """Lowest bit of Q whose equality test attains g(Q)."""
        memo, target = self._memo, self._g_memo[q]
        return next(low for low in _bits(q) if memo[q ^ low] == target)

    def _tree(self, q: int, i: int) -> GbstTree:
        """The first (split s, key e) attaining cost(Q), with s ascending
        from i and e ascending over Q: s = i leaves the prefix empty, and
        s = q_a + 1 cuts at the gap after the a-th key of Q.  A single
        child hangs under split key i; the right child's interval starts
        at s."""
        if not q:
            return None
        memo, g_memo, w, shift = self._memo, self._g_memo, self.w, self._shift
        target = memo[q] - sum(w[low.bit_length()] for low in _bits(q))
        if g_memo[q] == target:
            e = self._eq_key(q)
            return gbst_join(e.bit_length() + shift, i, i, None, self._tree(q ^ e, i))
        for left, rest in _gaps(q):
            s = left.bit_length() + 1 + shift
            if g_memo[left] + memo[rest] == target:
                e = self._eq_key(left)
                return gbst_join(e.bit_length() + shift, s, i, self._tree(left ^ e, i), self._tree(rest, s))
            if memo[left] + g_memo[rest] == target:
                e = self._eq_key(rest)
                return gbst_join(e.bit_length() + shift, s, i, self._tree(left, i), self._tree(rest ^ e, s))
        raise AssertionError("memoized optimum not reproducible")


class TwcstOracle(ExactOracle):
    """Exact minimum-cost two-way comparison search trees for one instance.

        cost(Q) = W(Q) + min(min over e in Q of cost(Q - e),
                             min over gaps (QL, QR) of Q of cost(QL) + cost(QR))

    and cost({e}) = 0; Q must not be empty.  The first term is an equality
    test on e, the second a less-than test that separates QL from QR.
    Equality tests on zero-weight keys are skipped whenever more than one
    query remains: this never changes the optimum (such a node can be
    spliced out and the key re-attached beside a neighboring query leaf at
    no extra cost), and it shrinks the state space considerably on
    instances with many zero-weight keys.
    """

    min_queries = 1
    limit = 18

    def _cost(self, q: int) -> int:
        memo = self._memo
        hit = memo[q]
        if hit is not None:
            return hit
        cost = self._cost
        w = self.w
        best = None
        total = 0
        left = 0
        rest = q
        while rest:
            low = rest & -rest
            rest ^= low
            left |= low
            weight = w[low.bit_length()]
            total += weight
            if weight:
                c = memo[q ^ low]
                if c is None:
                    c = cost(q ^ low)
                if best is None or c < best:
                    best = c
            if rest:
                cost_left = memo[left]
                if cost_left is None:
                    cost_left = cost(left)
                cost_rest = memo[rest]
                if cost_rest is None:
                    cost_rest = cost(rest)
                c = cost_left + cost_rest
                if best is None or c < best:
                    best = c
        result = total + best
        memo[q] = result
        return result

    def _tree(self, q: int, i: int = 0) -> TwcstTree:
        """Equality tests first, in ascending key order, then less-than
        tests at q_a + 1 for each gap after the a-th key of Q: the first
        that attains cost(Q).  Split keys come from Q alone, so the
        interval start i is not needed."""
        shift = self._shift
        if q & (q - 1) == 0:
            return Leaf(q.bit_length() + shift)
        memo, w = self._memo, self.w
        target = memo[q] - sum(w[low.bit_length()] for low in _bits(q))
        for low in _bits(q):
            e = low.bit_length()
            if w[e] and memo[q ^ low] == target:
                return Cmp(EQ, e + shift, yes=Leaf(e + shift), no=self._tree(q ^ low))
        for left, rest in _gaps(q):
            if memo[left] + memo[rest] == target:
                return Cmp(LT, left.bit_length() + 1 + shift, yes=self._tree(left), no=self._tree(rest))
        raise AssertionError("memoized optimum not reproducible")


def _bits(q: int):
    """The set bits of q, lowest first."""
    while q:
        low = q & -q
        q ^= low
        yield low


def _gaps(q: int):
    """(left, rest) for each gap between adjacent set bits of q, lowest
    first: left holds the bits below the gap, rest those above."""
    left = q & -q
    rest = q ^ left
    while rest:
        yield left, rest
        low = rest & -rest
        rest ^= low
        left |= low


# ---------------------------------------------------------------------------
# Key-placement lower bound
# ---------------------------------------------------------------------------

def placement_lower_bound(inst: Instance) -> int:
    """Lower bound on every GBST cost for the full instance.

    Assign keys, heaviest first, to the slots of the infinite binary tree
    level by level (2^d slots at depth d) and charge weight * (depth + 1).
    Any valid tree induces such a placement of equal cost, so no tree can
    cost less than the best placement.  Numbering the slots 1, 2, ... level
    by level puts slot r at depth + 1 = r.bit_length().
    """
    ranked = sorted(inst.weights, reverse=True)
    return sum(w * r.bit_length() for r, w in enumerate(ranked, 1))


# ---------------------------------------------------------------------------
# Depth sequences and structural bounds for 2WCST trees
# ---------------------------------------------------------------------------

def depth_seq(m: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Lower bounds on total leaf depth for query sets of sizes 1..*m*, as
    the tuples (d, e): ``d[k - 1]`` = d_k for separated sets of size k and
    ``e[k - 1]`` = e_k for nearly separated ones, where
    d_k = k + min(d_i + d_{k-i}) and e_k = k + min(d_i + e_{k-i}), with
    bases d_1 = 0, d_2 = 3, e_1 = 0, e_2 = 2, e_3 = 6."""
    if m < 1:
        raise ValueError("m must be >= 1")
    d = [0, 3]
    for k in range(3, m + 1):
        d.append(k + min(d[i - 1] + d[k - i - 1] for i in range(1, k)))
    e = [0, 2, 6]
    for k in range(4, m + 1):
        e.append(k + min(d[i - 1] + e[k - i - 1] for i in range(1, k)))
    return tuple(d[:m]), tuple(e[:m])


def depth_bound_violations(tree: TwcstTree, d: tuple, e: tuple) -> list[str]:
    """Check every query subset of size m <= min(len(d), len(e)) against
    the depth bounds of :func:`depth_seq`.

    Separated subsets must have total leaf depth >= d[m - 1], nearly
    separated ones >= e[m - 1].  A subset is separated when a query lies
    between every two adjacent members and nearly separated when exactly
    one pair has none: dropping the member after that pair leaves a
    separated set, and with two such pairs no single drop does.  Returns
    human-readable violations (empty when all hold).
    """
    depths = {key: charge for key, charge, _ in _walk(tree)}
    queries = sorted(depths)
    charges = [depths[key] for key in queries]
    violations = []
    for m in range(2, min(len(d), len(e), len(queries)) + 1):
        # Subsets as positions in *queries*, so that b - a - 1 queries lie
        # strictly between members at positions a < b.
        for at in combinations(range(len(queries)), m):
            zeros = [b - a - 1 for a, b in zip(at, at[1:])].count(0)
            if zeros == 0:
                kind, name, bound = "separated", "d", d[m - 1]
            elif zeros == 1:
                kind, name, bound = "nearly separated", "e", e[m - 1]
            else:
                continue
            total = sum(charges[p] for p in at)
            if total < bound:
                subset = tuple(queries[p] for p in at)
                violations.append(f"{kind} {subset}: total depth {total} < {name}_{m}={bound}")
    return violations


def eq_root_weight_ok(tree: TwcstTree, inst: Instance) -> bool:
    """Optimal trees with an equality test at the root must have total query
    weight at most four times the maximum query weight."""
    if not (isinstance(tree, Cmp) and tree.op == EQ):
        return True
    weights = [inst.weight(key) for key, _, _ in _walk(tree)]
    return sum(weights) <= 4 * max(weights)
