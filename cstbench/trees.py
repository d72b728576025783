"""Trees the render workload builds itself, and iterative helpers over them.

Every helper here walks trees with an explicit stack: the workload includes
equality cascades hundreds of nodes deep and 1500-node chains, on which
recursive code (the dataclass ``==`` included) exceeds Python's recursion
limit.  The tree constructors here give trees valid by construction for the
subproblem their keys span.
"""
from __future__ import annotations

import random

from cstlab.model import EQ, LT, Cmp, GbstNode, Instance, Leaf


def pick_keys(n: int, count: int, rng: random.Random) -> list[int]:
    """*count* distinct keys of 1..n, ascending; the keys left out are holes."""
    return sorted(rng.sample(range(1, n + 1), count))


def _assemble(plan: list[tuple], make) -> object:
    """Create frozen nodes children-first from a pre-order *plan*.

    Each plan entry is ``(fields, child_indices)``; children always come
    after their parent in pre-order, so a reverse sweep sees them built.
    """
    built: list = [None] * len(plan)
    for index in range(len(plan) - 1, -1, -1):
        fields, children = plan[index]
        built[index] = make(fields, [None if c is None else built[c] for c in children])
    return built[0]


def balanced_gbst(keys: list[int], rng: random.Random) -> GbstNode:
    """Each node takes a random equality key; the remaining keys split at
    their median, so the depth stays about log2(len(keys)) + 1."""
    plan: list[tuple] = []
    pending = [(list(keys), None, 0)]
    while pending:
        ks, parent, side = pending.pop()
        eq = ks.pop(rng.randrange(len(ks)))
        mid = len(ks) // 2
        left, right = ks[:mid], ks[mid:]
        index = len(plan)
        plan.append(((eq, right[0] if right else None), [None, None]))
        if parent is not None:
            plan[parent][1][side] = index
        if right:
            pending.append((right, index, 1))
        if left:
            pending.append((left, index, 0))
    return _assemble(
        plan, lambda f, c: GbstNode(f[0], split=f[1], left=c[0], right=c[1])
    )


def gbst_chain(keys: list[int], rng: random.Random) -> GbstNode:
    """A path: every node keeps one random key and sends the rest right."""
    order = list(keys)
    rng.shuffle(order)
    node = GbstNode(order[-1])
    rest_min = order[-1]
    for eq in reversed(order[:-1]):
        node = GbstNode(eq, split=rest_min, right=node)
        rest_min = min(rest_min, eq)
    return node


def balanced_lt_twcst(keys: list[int]) -> Cmp | Leaf:
    """Balanced tree of ``<`` comparisons with one leaf per key."""
    plan: list[tuple] = []
    pending = [(0, len(keys), None, 0)]
    while pending:
        lo, hi, parent, side = pending.pop()
        index = len(plan)
        if hi - lo == 1:
            plan.append(((keys[lo],), []))
        else:
            mid = (lo + hi) // 2
            plan.append(((keys[mid],), [None, None]))
            pending.append((mid, hi, index, 1))
            pending.append((lo, mid, index, 0))
        if parent is not None:
            plan[parent][1][side] = index
    return _assemble(
        plan,
        lambda f, c: Cmp(LT, f[0], yes=c[0], no=c[1]) if c else Leaf(f[0]),
    )


def eq_cascade(keys: list[int], rng: random.Random) -> Cmp | Leaf:
    """Equality tests on the keys in random order, one per level."""
    order = list(keys)
    rng.shuffle(order)
    node: Cmp | Leaf = Leaf(order[-1])
    for k in reversed(order[:-1]):
        node = Cmp(EQ, k, yes=Leaf(k), no=node)
    return node


def _children(node) -> tuple:
    if isinstance(node, GbstNode):
        return (node.left, node.right)
    if isinstance(node, Cmp):
        return (node.yes, node.no)
    return ()


def write_tree_file(tree, inst: Instance) -> str:
    """Tree-file text (model tag, then a parenthesized pre-order line) in
    the grammar ``cstlab.render.parse_tree_file`` reads."""
    out: list[str] = []
    stack: list = [tree]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif item is None:
            out.append(".")
        elif isinstance(item, Leaf):
            out.append(inst.label(item.key))
        elif isinstance(item, Cmp):
            op = "=" if item.op == EQ else "<"
            out.append(f"({op}{inst.label(item.key)}")
            stack.extend((")", item.no, item.yes))
        elif item.left is None and item.right is None:
            out.append(inst.label(item.eq))
        else:
            out.append(f"({inst.label(item.eq)}:{inst.label(item.split)}")
            stack.extend((")", item.right, item.left))
    tag = "twcst" if isinstance(tree, (Leaf, Cmp)) else "gbsplit"
    return tag + "\n" + " ".join(out) + "\n"


def trees_equal(a, b, ignore_split: bool = False) -> bool:
    """Structural equality; *ignore_split* drops GBST split keys, which the
    ASCII form does not carry."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if type(x) is not type(y):
            return False
        if isinstance(x, GbstNode):
            if x.eq != y.eq or (not ignore_split and x.split != y.split):
                return False
        elif isinstance(x, Cmp):
            if x.op != y.op or x.key != y.key:
                return False
        elif isinstance(x, Leaf):
            if x.key != y.key:
                return False
        stack.extend(zip(_children(x), _children(y)))
    return True


def tree_cost(tree, inst: Instance) -> int:
    """Reference cost: GBST sums weight * (depth + 1) over nodes, 2WCST
    sums weight * comparisons over leaves."""
    total = 0
    stack = [(tree, 0)]
    while stack:
        node, depth = stack.pop()
        if isinstance(node, GbstNode):
            total += inst.weight(node.eq) * (depth + 1)
        elif isinstance(node, Leaf):
            total += inst.weight(node.key) * depth
        for child in _children(node):
            if child is not None:
                stack.append((child, depth + 1))
    return total

