"""Tree cost, weight and validity as ``cstlab.model`` first had them: one
cost walk and one validator per tree family, the validators re-running one
root-to-node search per key (O(keys x depth)).  ``test_model_reference.py``
requires the family-free walk in ``cstlab.model`` to agree with this code,
and ``reference_render.py`` validates through it.

Kept verbatim apart from the imports.
"""
from __future__ import annotations

from typing import Iterable, Iterator

from cstlab.model import (
    EQ,
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

