"""Tree cost, weight and validity as ``cstlab.model`` first had them: one
cost walk and one validator per tree family, the validators re-running one
root-to-node search per key (O(keys x depth)).  ``test_model_reference.py``
requires the family-free walk in ``cstlab.model`` to agree with this code,
and ``reference_render.py`` validates through it.

Also ``cstlab.oracle.depth_bound_violations`` as it first counted the
queries between two members, by bisecting the sorted queries;
``test_oracle.py`` requires the position arithmetic that replaced it to
give the same lists.

Also ``cstlab.model._walk`` as it first stood, with ``max``/``min`` calls
for the routing bounds; ``test_model_reference.py`` requires the walk that
replaced it to return the identical list on every tree, valid or not.

Kept verbatim apart from the imports and the depth sequences, which are
passed as the tuples (d, e) of ``cstlab.oracle.depth_seq``.
"""
from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator, Optional

from cstlab.model import (
    EQ,
    GBSPLIT,
    LT,
    TWCST,
    Cmp,
    GbstNode,
    GbstTree,
    Instance,
    Interval,
    Leaf,
    TwcstTree,
    Verdict,
)

__all__ = [
    "gbst_nodes",
    "gbst_cost",
    "gbst_weight",
    "twcst_cost",
    "twcst_weight",
    "twcst_leaf_keys",
    "twcst_leaf_depths",
    "gbst_validate",
    "twcst_validate",
    "depth_bound_violations",
]


def gbst_nodes(tree: GbstTree) -> Iterator[GbstNode]:
    """Canonical preorder traversal (node, left, right)."""
    if tree is None:
        return
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        if node.right is not None:
            stack.append(node.right)
        if node.left is not None:
            stack.append(node.left)


def _gbst_cost_weight(tree: GbstTree, inst: Instance) -> tuple[int, int]:
    """(cost, weight) by the closed form: a node at depth d adds
    weight(eq) * (d + 1) to the cost.  Iterative, for trees of any depth."""
    cost = weight = 0
    stack = [(tree, 1)] if tree is not None else []
    while stack:
        node, level = stack.pop()
        if not 1 <= node.eq <= inst.n:
            raise ValueError(f"equality key {node.eq} out of range 1..{inst.n}")
        w = inst.weight(node.eq)
        weight += w
        cost += w * level
        if node.right is not None:
            stack.append((node.right, level + 1))
        if node.left is not None:
            stack.append((node.left, level + 1))
    return cost, weight


def gbst_cost(tree: GbstTree, inst: Instance) -> int:
    """Sum over nodes of weight(eq) * (depth + 1); the empty tree costs 0.

    Equivalently cost(T) = weight(T) + cost(left) + cost(right).
    """
    return _gbst_cost_weight(tree, inst)[0]


def gbst_weight(tree: GbstTree, inst: Instance) -> int:
    return _gbst_cost_weight(tree, inst)[1]



def twcst_leaf_depths(tree: TwcstTree) -> dict[int, int]:
    """Map leaf key -> number of comparisons on its root-to-leaf path."""
    depths: dict[int, int] = {}
    stack = [(tree, 0)]
    while stack:
        node, depth = stack.pop()
        if isinstance(node, Leaf):
            depths[node.key] = depth
        else:
            stack.append((node.yes, depth + 1))
            stack.append((node.no, depth + 1))
    return depths


def twcst_leaf_keys(tree: TwcstTree) -> tuple[int, ...]:
    keys = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, Leaf):
            keys.append(node.key)
        else:
            stack.append(node.yes)
            stack.append(node.no)
    return tuple(sorted(keys))


def _twcst_cost_weight(tree: TwcstTree, inst: Instance) -> tuple[int, int]:
    """(cost, weight) by the closed form: a leaf below d comparisons adds
    weight * d to the cost.  Iterative, for trees of any depth."""
    cost = weight = 0
    stack = [(tree, 0)]
    while stack:
        node, depth = stack.pop()
        if isinstance(node, Leaf):
            if not 1 <= node.key <= inst.n:
                raise ValueError(f"leaf key {node.key} out of range 1..{inst.n}")
            w = inst.weight(node.key)
            weight += w
            cost += w * depth
        else:
            stack.append((node.no, depth + 1))
            stack.append((node.yes, depth + 1))
    return cost, weight


def twcst_cost(tree: TwcstTree, inst: Instance) -> int:
    """Sum over leaves of weight * comparisons-on-path; a lone Leaf costs 0."""
    return _twcst_cost_weight(tree, inst)[0]


def twcst_weight(tree: TwcstTree, inst: Instance) -> int:
    return _twcst_cost_weight(tree, inst)[1]



def _key_violations(
    placed: Iterable[int], interval: Interval, holes: Iterable[int], n: int, kind: str
) -> tuple[set[int], list[str]]:
    """The keys of (interval, holes), and how the keys *placed* in a tree
    differ from them: duplicated, unexpected or missing."""
    interval.validate_for(n)
    holes = set(holes)
    if not holes <= set(interval.keys()):
        raise ValueError("hole set must be contained in the interval")
    expected = set(interval.keys()) - holes
    violations: list[str] = []
    seen: set[int] = set()
    for k in placed:
        if k in seen:
            violations.append(f"duplicate {kind} key {k}")
        seen.add(k)
    for k in sorted(seen - expected):
        violations.append(f"unexpected {kind} key {k}")
    for k in sorted(expected - seen):
        violations.append(f"missing {kind} key {k}")
    return expected, violations


def gbst_validate(
    tree: GbstTree, interval: Interval, holes: Iterable[int], inst: Instance
) -> Verdict:
    """Check that *tree* solves subproblem (interval, holes).

    Valid iff the equality keys are exactly interval minus holes and the
    simulated search for every such key (halt on equality, else branch on
    the split key) ends at that key's node.  Split-key routing is checked
    behaviorally; any separating value is acceptable.
    """
    eqs = (node.eq for node in gbst_nodes(tree))
    expected, violations = _key_violations(eqs, interval, holes, inst.n, "equality")
    if violations:
        return Verdict.failures(violations)

    for v in sorted(expected):
        node = tree
        while node is not None:
            if node.eq == v:
                break
            if node.split is None:
                violations.append(f"search for {v} stuck at node {node.eq} (no split key)")
                node = None
                break
            node = node.left if v < node.split else node.right
        else:
            violations.append(f"search for {v} fell off the tree")
    return Verdict.failures(violations)


def twcst_validate(
    tree: TwcstTree, interval: Interval, holes: Iterable[int], inst: Instance
) -> Verdict:
    """Check that *tree* resolves every non-hole key of the interval at its leaf."""
    leaves = twcst_leaf_keys(tree)
    expected, violations = _key_violations(leaves, interval, holes, inst.n, "leaf")
    if violations:
        return Verdict.failures(violations)

    for v in sorted(expected):
        node = tree
        while isinstance(node, Cmp):
            if node.op == EQ:
                node = node.yes if v == node.key else node.no
            else:
                node = node.yes if v < node.key else node.no
        if node.key != v:
            violations.append(f"search for {v} ends at leaf {node.key}")
    return Verdict.failures(violations)


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


def depth_bound_violations(tree: TwcstTree, d: tuple, e: tuple) -> list[str]:
    """Check every query subset of size m <= min(len(d), len(e)) against
    the depth bounds.

    Separated subsets must have total leaf depth >= d[m - 1], nearly
    separated ones >= e[m - 1].  Returns human-readable violations (empty
    when all hold).
    """
    m_max = min(len(d), len(e))
    depths = {key: charge for key, charge, _ in _walk(tree)}
    queries = sorted(depths)
    between = _between_counter(queries)
    violations = []
    for m in range(2, min(m_max, len(queries)) + 1):
        for subset in combinations(queries, m):
            total = sum(depths[k] for k in subset)
            if _separated(subset, between):
                if total < d[m - 1]:
                    violations.append(
                        f"separated {subset}: total depth {total} < d_{m}={d[m - 1]}"
                    )
            elif _nearly_separated(subset, between):
                if total < e[m - 1]:
                    violations.append(
                        f"nearly separated {subset}: total depth {total} < e_{m}={e[m - 1]}"
                    )
    return violations


# ---------------------------------------------------------------------------
# The family-free walk as it first stood
# ---------------------------------------------------------------------------

_INF = float("inf")


def _walk(tree) -> list[tuple[int, int, Optional[str]]]:
    """Every key *tree* places, with its charge and where its search ends.

    A placed key is a GBST node's equality key, charged depth + 1, or a
    2WCST leaf key, charged the comparisons above it.  The third entry is
    None when the search for the key ends where the key sits; otherwise it
    ends a violation line: ``stuck at node X (no split key)`` when the
    search reaches X, the key's first split-less GBST ancestor, else
    ``does not reach its node`` (or ``its leaf``).

    One pass, O(nodes), on an explicit stack for trees of any depth.  Each
    entry carries the routing bounds [lo, hi) of the values that reach it:
    a split or ``<`` test narrows them, an ``=`` test's yes branch narrows
    them to its key, and its no branch excludes the key until the walk
    leaves it (a GBST key repeated below its node is placed twice, which the
    verdict reports).  Below a split-less GBST node the bounds stay at that
    node's.  A node not of the root's family raises TypeError.
    """
    if tree is None:
        return []
    gbst = type(tree) is GbstNode
    placed = []
    excluded: set[int] = set()
    # Entries are (node, charge, lo, hi, first split-less GBST ancestor),
    # or a bare key to drop from *excluded* once its branch is done.
    stack: list = [(tree, 1 if gbst else 0, -_INF, _INF, None)]
    while stack:
        entry = stack.pop()
        if type(entry) is int:
            excluded.discard(entry)
            continue
        node, charge, lo, hi, stuck = entry
        kind = type(node)
        if kind is GbstNode and gbst:
            key, left, right, split = node.eq, node.left, node.right, node.split
            if not lo <= key < hi:
                placed.append((key, charge, "does not reach its node"))
            elif stuck is not None:
                placed.append((key, charge, f"stuck at node {stuck} (no split key)"))
            else:
                placed.append((key, charge, None))
            if left is None and right is None:
                continue
            if stuck is None and split is None:
                stuck = key
            charge += 1
            if right is not None:
                stack.append((right, charge, lo if stuck is not None else max(lo, split), hi, stuck))
            if left is not None:
                stack.append((left, charge, lo, hi if stuck is not None else min(hi, split), stuck))
        elif kind is Cmp and not gbst:
            key, charge = node.key, charge + 1
            if node.op == LT:
                stack.append((node.no, charge, max(lo, key), hi, None))
                stack.append((node.yes, charge, lo, min(hi, key), None))
            else:
                stack.append((node.yes, charge, max(lo, key), min(hi, key + 1), None))
                if key not in excluded:
                    excluded.add(key)
                    stack.append(key)
                stack.append((node.no, charge, lo, hi, None))
        elif kind is Leaf and not gbst:
            key = node.key
            reached = lo <= key < hi and key not in excluded
            placed.append((key, charge, None if reached else "does not reach its leaf"))
        else:
            raise TypeError(f"{node!r} is not a {GBSPLIT if gbst else TWCST} tree node")
    return placed
