"""Data model for weighted key instances and the two comparison-tree families.

An :class:`Instance` is an ordered list of keys with nonnegative integer
weights.  Two tree families search such instances:

* generalized binary split trees (:class:`GbstNode`): every node carries an
  equality-test key and, when it has children, a split key.  A search halts
  on an equality match and otherwise branches on ``query < split``.
* two-way comparison search trees (:class:`Leaf` / :class:`Cmp`): internal
  nodes perform a single equality or less-than comparison; queries resolve
  at leaves.

Costs count one unit per node visited (GBST) or per comparison (2WCST),
weighted by key weight.  All weights and costs are exact integers.  Every
value here is immutable after construction and all operations are pure, so
everything can be shared freely across threads.
"""
from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence, Union

__all__ = [
    "ParseError",
    "Instance",
    "Interval",
    "GbstNode",
    "GbstTree",
    "Leaf",
    "Cmp",
    "TwcstTree",
    "EQ",
    "LT",
    "SolveResult",
    "DpTable",
    "check_hole_count",
    "Verdict",
    "parse_instance",
    "format_instance",
    "gbst_cost",
    "gbst_weight",
    "gbst_join",
    "gbst_nodes",
    "twcst_cost",
    "twcst_weight",
    "twcst_leaf_keys",
    "twcst_leaf_depths",
    "gbst_validate",
    "twcst_validate",
    "check_order_property",
    "replace_subtree",
    "range_mask",
    "mask_of",
    "keys_of",
    "LeastWeightOrder",
]


class ParseError(ValueError):
    """Raised for malformed instance or tree files; names the line."""

    def __init__(self, message: str, lineno: int | None = None):
        self.lineno = lineno
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)


_LABEL_RE = re.compile(r"[A-Za-z0-9_]+\Z")
_DIGIT_RUN = re.compile(r"(\d+)")


def natural_key(label: str) -> tuple:
    """Sort key comparing digit runs numerically, so K2 < K10."""
    parts = []
    for chunk in _DIGIT_RUN.split(label):
        if not chunk:
            continue
        if chunk.isdigit():
            parts.append((0, int(chunk), ""))
        else:
            parts.append((1, 0, chunk))
    return tuple(parts)


# ---------------------------------------------------------------------------
# Bitmask helpers.  Key k (1-based) corresponds to bit k-1.
# ---------------------------------------------------------------------------

def range_mask(i: int, j: int) -> int:
    """Mask of keys i..j inclusive; zero when the interval is empty."""
    if i > j:
        return 0
    return (1 << j) - (1 << (i - 1))


def mask_of(keys: Iterable[int]) -> int:
    m = 0
    for k in keys:
        m |= 1 << (k - 1)
    return m


def keys_of(mask: int) -> tuple[int, ...]:
    keys = []
    while mask:
        low = mask & -mask
        keys.append(low.bit_length())
        mask ^= low
    return tuple(keys)


# ---------------------------------------------------------------------------
# Instance and subproblem coordinates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Instance:
    """Ordered keys with nonnegative integer weights.

    Key identity is the 1-based index; labels are cosmetic but must be
    distinct and strictly ascending under natural ordering.
    """

    labels: tuple[str, ...]
    weights: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "weights", tuple(int(w) for w in self.weights))
        if len(self.labels) == 0:
            raise ValueError("instance must contain at least one key")
        if len(self.labels) != len(self.weights):
            raise ValueError("labels and weights must have equal length")
        for w in self.weights:
            if w < 0:
                raise ValueError(f"negative weight {w}")
        prev = None
        for lab in self.labels:
            if not _LABEL_RE.match(lab):
                raise ValueError(f"bad label {lab!r}")
            key = natural_key(lab)
            if prev is not None and key <= prev:
                raise ValueError(f"labels not strictly ascending at {lab!r}")
            prev = key

    @property
    def n(self) -> int:
        return len(self.labels)

    @cached_property
    def _prefix(self) -> tuple[int, ...]:
        acc = [0]
        for w in self.weights:
            acc.append(acc[-1] + w)
        return tuple(acc)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {lab: k for k, lab in enumerate(self.labels, 1)}

    def weight(self, key: int) -> int:
        return self.weights[key - 1]

    def label(self, key: int) -> str:
        return self.labels[key - 1]

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise KeyError(f"unknown key label {label!r}") from None

    def range_weight(self, i: int, j: int) -> int:
        """Total weight of keys i..j."""
        if i > j:
            return 0
        return self._prefix[j] - self._prefix[i - 1]

    def mask_weight(self, mask: int) -> int:
        total = 0
        while mask:
            low = mask & -mask
            total += self.weights[low.bit_length() - 1]
            mask ^= low
        return total

    def total_weight(self) -> int:
        return self._prefix[-1]

    def full_interval(self) -> "Interval":
        return Interval(1, self.n)

    def scaled(self, c: int) -> "Instance":
        return Instance(self.labels, tuple(w * c for w in self.weights))


@dataclass(frozen=True)
class Interval:
    """Contiguous key range [i, j], 1-based inclusive; empty when i > j."""

    i: int
    j: int

    @property
    def size(self) -> int:
        return max(0, self.j - self.i + 1)

    @property
    def empty(self) -> bool:
        return self.i > self.j

    def keys(self) -> range:
        return range(self.i, self.j + 1)

    def mask(self) -> int:
        return range_mask(self.i, self.j)

    def __contains__(self, key: int) -> bool:
        return self.i <= key <= self.j

    def validate_for(self, n: int) -> None:
        if not (1 <= self.i <= n + 1 and 0 <= self.j <= n and self.i <= self.j + 1):
            raise ValueError(f"interval [{self.i},{self.j}] invalid for n={n}")


def parse_instance(text: str) -> Instance:
    """Parse the instance file format.

    One ``<label> <integer-weight>`` pair per line, ``#`` starts a comment,
    blank lines are ignored.  Keys must be listed in ascending label order.
    """
    labels: list[str] = []
    weights: list[int] = []
    seen: set[str] = set()
    prev_key = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"expected '<label> <weight>', got {line!r}", lineno)
        label, weight_text = parts
        if not _LABEL_RE.match(label):
            raise ParseError(f"bad label {label!r}", lineno)
        try:
            weight = int(weight_text)
        except ValueError:
            raise ParseError(f"non-integer weight {weight_text!r}", lineno) from None
        if weight < 0:
            raise ParseError(f"negative weight {weight}", lineno)
        key = natural_key(label)
        if prev_key is not None:
            if key == prev_key or label in seen:
                raise ParseError(f"duplicate label {label!r}", lineno)
            if key < prev_key:
                raise ParseError(f"label {label!r} out of order", lineno)
        prev_key = key
        seen.add(label)
        labels.append(label)
        weights.append(weight)
    if not labels:
        raise ParseError("no key lines in instance file")
    return Instance(tuple(labels), tuple(weights))


def format_instance(inst: Instance) -> str:
    """Inverse of parse_instance; used to export instances for replay."""
    return "".join(f"{lab} {w}\n" for lab, w in zip(inst.labels, inst.weights))


# ---------------------------------------------------------------------------
# Generalized binary split trees
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GbstNode:
    """One GBST node: equality key, optional split key, optional children.

    ``split`` may be None at leaves.  A node with children routes a query v
    left when ``v < split``, right otherwise (after the equality test).
    """

    eq: int
    split: Optional[int] = None
    left: Optional["GbstNode"] = None
    right: Optional["GbstNode"] = None


# The empty tree is a first-class value, spelled None.
GbstTree = Optional[GbstNode]


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


def gbst_join(e: int, s: int, i: int, left: GbstTree, right: GbstTree) -> GbstNode:
    """Node with equality key e over the trees of [i, s-1] and [s, j].

    A single child hangs on the right under split key i, the interval
    start, which routes every remaining key of the interval to it.
    """
    if left is None and right is None:
        return GbstNode(e)
    if right is None:
        return GbstNode(e, split=i, right=left)
    if left is None:
        return GbstNode(e, split=i, right=right)
    return GbstNode(e, split=s, left=left, right=right)


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


# ---------------------------------------------------------------------------
# Two-way comparison search trees
# ---------------------------------------------------------------------------

EQ = "eq"
LT = "lt"


@dataclass(frozen=True)
class Leaf:
    key: int


@dataclass(frozen=True)
class Cmp:
    """Internal comparison node; for LT the yes branch handles query < key."""

    op: str
    key: int
    yes: "TwcstTree"
    no: "TwcstTree"

    def __post_init__(self):
        if self.op not in (EQ, LT):
            raise ValueError(f"bad comparison op {self.op!r}")


TwcstTree = Union[Leaf, Cmp]


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


# ---------------------------------------------------------------------------
# Validity checking
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Verdict:
    """Outcome of a validity check; invalid trees get violations, not errors."""

    ok: bool
    violations: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok

    @staticmethod
    def failures(violations: Sequence[str]) -> "Verdict":
        return Verdict(not violations, tuple(violations))


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


def check_order_property(tree: GbstTree) -> Verdict:
    """Keys in left and right subtrees of any node must be ordered across it.

    For every node M, every equality key in M's left subtree must be less
    than every equality key in M's right subtree.  (M's own key is free.)
    """
    violations: list[str] = []
    # Post-order (left, right, node) on an explicit stack, so trees of any
    # depth work; spans holds the (min, max) key of each finished subtree,
    # None for an empty one.
    spans: list[tuple[int, int] | None] = []
    stack: list[tuple[GbstTree, bool]] = [(tree, False)]
    while stack:
        node, children_done = stack.pop()
        if node is None:
            spans.append(None)
        elif not children_done:
            stack.append((node, True))
            stack.append((node.right, False))
            stack.append((node.left, False))
        else:
            rs = spans.pop()
            ls = spans.pop()
            if ls and rs and ls[1] >= rs[0]:
                violations.append(
                    f"keys around node {node.eq}: left max {ls[1]} >= right min {rs[0]}"
                )
            lo = hi = node.eq
            for s in (ls, rs):
                if s:
                    lo = min(lo, s[0])
                    hi = max(hi, s[1])
            spans.append((lo, hi))
    return Verdict.failures(violations)


# ---------------------------------------------------------------------------
# Structural surgery
# ---------------------------------------------------------------------------

def replace_subtree(tree, path: Sequence[str], replacement):
    """Return a new tree with the subtree at *path* replaced.

    *path* is a sequence of 'L'/'R' directions from the root; for 2WCST
    trees 'L' means the yes branch.  The original tree is unchanged.
    Raises IndexError when the path does not address an existing position.
    """
    path = list(path)
    for step in path:
        if step not in ("L", "R"):
            raise ValueError(f"bad path step {step!r}")

    def rec(node, k: int):
        if k == len(path):
            return replacement
        if node is None or isinstance(node, Leaf):
            raise IndexError(f"path runs past the tree at step {k}")
        step = path[k]
        if isinstance(node, GbstNode):
            if step == "L":
                return dataclasses.replace(node, left=rec(node.left, k + 1))
            return dataclasses.replace(node, right=rec(node.right, k + 1))
        if step == "L":
            return dataclasses.replace(node, yes=rec(node.yes, k + 1))
        return dataclasses.replace(node, no=rec(node.no, k + 1))

    return rec(tree, 0)


# ---------------------------------------------------------------------------
# Solver output and least-weight key selection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolveResult:
    """Solver output: cost, tree, the key set actually placed, its weight."""

    cost: int
    tree: object
    used_mask: int
    weight: int

    @property
    def used_keys(self) -> tuple[int, ...]:
        return keys_of(self.used_mask)

    def holes_in(self, interval: Interval) -> tuple[int, ...]:
        return keys_of(interval.mask() & ~self.used_mask)


class LeastWeightOrder:
    """Keys ranked by ascending (weight, index), for least-weight selection.

    A key set is encoded as a rank-permuted mask, bit r standing for the key
    of rank r, so a least-weight key of any set is its lowest set bit: for a
    nonempty mask m it is ``key_at_rank[(m & -m).bit_length() - 1]``, of
    weight ``weight_at_rank[...]`` at the same rank.  ``bit[k]`` is key k's
    bit (``bit[0]`` is unused).
    """

    def __init__(self, inst: Instance):
        order = sorted(range(1, inst.n + 1), key=lambda k: (inst.weight(k), k))
        self.key_at_rank = tuple(order)
        self.weight_at_rank = tuple(inst.weight(k) for k in order)
        bits = [0] * (inst.n + 1)
        for rank, key in enumerate(order):
            bits[key] = 1 << rank
        self.bit = tuple(bits)

    def interval_perm(self, i: int, j: int) -> int:
        """The permuted mask of keys i..j (their bits are distinct)."""
        return sum(self.bit[i : j + 1])


def check_hole_count(h: int, interval: Interval, min_queries: int) -> None:
    """Reject a hole count outside 0..|I| - min_queries."""
    max_h = interval.size - min_queries
    if not 0 <= h <= max_h:
        raise ValueError(f"hole count {h} out of range 0..{max_h}")


class DpTable:
    """Memo of a flawed (interval, hole count) DP over every (i, j, h)
    inside a root interval.

    A subproblem must keep ``min_queries`` keys, so h runs over
    0..|I| - min_queries.  ``_fill`` writes the table's one store:
    ``_rows[(i, j)]`` holds four lists indexed by h, namely the cost, the
    cost + weight, ``used_perm`` (the keys placed, as a permuted mask of
    :class:`LeastWeightOrder`) and the backpointer (None at the base).  HW
    also keeps rows for the empty intervals its splits read; the accessors
    answer only the cells ``cells()`` lists.  No tree is stored: ``result``
    rebuilds one from the backpointers through the subclass's
    ``_tree(i, j, h)``.
    """

    min_queries = 0

    def __init__(self, inst: Instance, interval: Optional[Interval] = None):
        if interval is None:
            interval = inst.full_interval()
        interval.validate_for(inst.n)
        if interval.empty:
            raise ValueError("root interval must be nonempty")
        self.inst = inst
        self.interval = interval
        self._order = LeastWeightOrder(inst)
        self._rows: dict[tuple[int, int], tuple[list, list, list, list]] = {}
        self._fill()

    @classmethod
    def solve(cls, inst: Instance, interval: Interval, h: int) -> SolveResult:
        """Run the DP for one (interval, hole count) subproblem."""
        check_hole_count(h, interval, cls.min_queries)
        return cls(inst, interval).result(interval.i, interval.j, h)

    def _add_rows(self, i: int, j: int, size: int) -> tuple[list, list, list, list]:
        """Store and return the rows of [i, j]: zeros, no backpointers."""
        self._rows[(i, j)] = rows = ([0] * size, [0] * size, [0] * size, [None] * size)
        return rows

    def _row(self, i: int, j: int, h: int) -> tuple[list, list, list, list]:
        rows = self._rows.get((i, j)) if i <= j else None
        if rows is None:
            raise KeyError(f"interval [{i},{j}] outside table root {self.interval}")
        if not 0 <= h < len(rows[0]):
            raise ValueError(f"hole count {h} out of range 0..{len(rows[0]) - 1}")
        return rows

    def result(self, i: int, j: int, h: int) -> SolveResult:
        cost, cost_weight, used_perm, _ = self._row(i, j, h)
        return SolveResult(
            cost=cost[h],
            tree=self._tree(i, j, h),
            used_mask=mask_of(self._order.key_at_rank[r - 1] for r in keys_of(used_perm[h])),
            weight=cost_weight[h] - cost[h],
        )

    def choice(self, i: int, j: int, h: int) -> tuple | None:
        """The cell's backpointer, in the subclass's format; None at bases."""
        return self._row(i, j, h)[3][h]

    def cost(self, i: int, j: int, h: int) -> int:
        return self._row(i, j, h)[0][h]

    def cells(self) -> Iterator[tuple[int, int, int]]:
        """All (i, j, h) coordinates with i <= j, ascending."""
        lo, hi = self.interval.i, self.interval.j
        for i in range(lo, hi + 1):
            for j in range(i, hi + 1):
                for h in range(j - i + 2 - self.min_queries):
                    yield (i, j, h)
