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
weighted by key weight.  All weights and costs are exact integers.
:func:`validate`, :func:`tree_cost` and :func:`tree_weight` take a tree of
either family and read it through one walk, which lists each placed key
with its charge and checks the key's own search against the routing bounds
carried down the tree, so validation is O(nodes).  Every
value here is immutable after construction and all operations are pure, so
everything can be shared freely across threads.
"""
from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from operator import add, itemgetter
from typing import Iterable, Iterator, Optional, Sequence, Union

__all__ = [
    "GBSPLIT",
    "TWCST",
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
    "validate",
    "tree_cost",
    "tree_weight",
    "gbst_cost",
    "gbst_join",
    "twcst_cost",
    "gbst_validate",
    "twcst_validate",
    "replace_subtree",
    "range_mask",
    "mask_of",
]


class ParseError(ValueError):
    """Raised for malformed instance or tree files; names the line."""

    def __init__(self, message: str, lineno: int | None = None):
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)


_LABEL_RE = re.compile(r"[A-Za-z0-9_]+\Z")
_DIGIT_RUN = re.compile(r"(\d+)")
# An instance-file weight: ASCII digits, so that format_instance writes the
# text back; a leading minus is matched only to name it in the error.
_WEIGHT_RE = re.compile(r"(-?)[0-9]+\Z")


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


# ---------------------------------------------------------------------------
# Instance and subproblem coordinates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Instance:
    """Ordered keys with nonnegative integer weights, each a plain ``int``
    (a float, string or bool is refused, not converted).

    Key identity is the 1-based index; labels are cosmetic but must be
    distinct and strictly ascending under natural ordering.
    """

    labels: tuple[str, ...]
    weights: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "weights", tuple(self.weights))
        if len(self.labels) == 0:
            raise ValueError("instance must contain at least one key")
        if len(self.labels) != len(self.weights):
            raise ValueError("labels and weights must have equal length")
        for w in self.weights:
            if type(w) is not int:
                raise ValueError(f"weight {w!r} is not an int")
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

    # The sign test keeps key 0 and below off Python's negative indexes.
    def weight(self, key: int) -> int:
        if key > 0:
            try:
                return self.weights[key - 1]
            except IndexError:
                pass
        raise ValueError(f"key {key} out of range 1..{self.n}")

    def label(self, key: int) -> str:
        if key > 0:
            try:
                return self.labels[key - 1]
            except IndexError:
                pass
        raise ValueError(f"key {key} out of range 1..{self.n}")

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

    One ``<label> <weight>`` pair per line, the weight in ASCII decimal
    digits with no leading zero; ``#`` starts a comment, blank lines are ignored.  Keys must be
    listed in ascending label order.
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
        sign = _WEIGHT_RE.match(weight_text)
        if sign is None:
            raise ParseError(f"non-integer weight {weight_text!r}", lineno)
        if sign[1]:
            raise ParseError(f"negative weight {weight_text}", lineno)
        if len(weight_text) > 1 and weight_text[0] == "0":
            raise ParseError(f"leading zero in weight {weight_text!r}", lineno)
        try:
            weight = int(weight_text)
            key = natural_key(label)
        except ValueError as exc:  # a digit run over Python's int-str limit
            raise ParseError(str(exc), lineno) from None
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


# The two tree families' tags, as tree files and the command line spell them.
GBSPLIT = "gbsplit"
TWCST = "twcst"


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


def gbst_join(e: int, s: int, i: int, left: GbstTree, right: GbstTree) -> GbstNode:
    """Node with equality key e over the trees of [i, s-1] and [s, j].

    A single child hangs on the right under split key i, the interval
    start, which routes every remaining key of the interval to it.
    """
    if left is None and right is None:
        return GbstNode(e)
    if left is None or right is None:
        return GbstNode(e, split=i, right=left or right)
    return GbstNode(e, split=s, left=left, right=right)


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

    ``render_tree`` gates on this list before its emitters read labels by
    index, so it lists every key the tree places, in 1..n or not.
    """
    if tree is None:
        return []
    gbst = type(tree) is GbstNode
    # The other family's node classes are None here, so its nodes fall
    # through to the TypeError.
    gbst_node, cmp_node, leaf_node = (GbstNode, None, None) if gbst else (None, Cmp, Leaf)
    lt, placed, excluded = LT, [], set()
    place = placed.append
    # Entries are (node, charge, lo, hi, first split-less GBST ancestor),
    # or a bare key to drop from *excluded* once its branch is done.
    stack: list = [(tree, 1 if gbst else 0, -_INF, _INF, None)]
    push, pop = stack.append, stack.pop
    while stack:
        entry = pop()
        if type(entry) is int:
            excluded.discard(entry)
            continue
        node, charge, lo, hi, stuck = entry
        kind = type(node)
        if kind is gbst_node:
            key, left, right, split = node.eq, node.left, node.right, node.split
            if not lo <= key < hi:
                place((key, charge, "does not reach its node"))
            elif stuck is not None:
                place((key, charge, f"stuck at node {stuck} (no split key)"))
            else:
                place((key, charge, None))
            if left is None and right is None:
                continue
            charge += 1
            if stuck is None and split is not None:
                if right is not None:
                    push((right, charge, split if split > lo else lo, hi, None))
                if left is not None:
                    push((left, charge, lo, split if split < hi else hi, None))
                continue
            if stuck is None:
                stuck = key
            if right is not None:
                push((right, charge, lo, hi, stuck))
            if left is not None:
                push((left, charge, lo, hi, stuck))
        elif kind is cmp_node:
            key, charge = node.key, charge + 1
            if node.op == lt:
                push((node.no, charge, key if key > lo else lo, hi, None))
                push((node.yes, charge, lo, key if key < hi else hi, None))
            else:
                push((node.yes, charge, key if key > lo else lo, key + 1 if key + 1 < hi else hi, None))
                if key not in excluded:
                    excluded.add(key)
                    push(key)
                push((node.no, charge, lo, hi, None))
        elif kind is leaf_node:
            key = node.key
            reached = lo <= key < hi and key not in excluded
            place((key, charge, None if reached else "does not reach its leaf"))
        else:
            raise TypeError(f"{node!r} is not a {GBSPLIT if gbst else TWCST} tree node")
    return placed


def _verdict(tree, placed, interval: Interval, holes: Iterable[int], n: int) -> Verdict:
    """The verdict on *tree*, whose walk is *placed*, for (interval, holes)."""
    interval.validate_for(n)
    expected = set(interval.keys())
    holes = set(holes)
    if not holes <= expected:
        raise ValueError("hole set must be contained in the interval")
    keys = list(map(itemgetter(0), placed))
    seen = set(keys)
    # The key set is right when the keys are distinct, as many as the
    # interval has non-holes, and all among those non-holes.
    if len(seen) == len(keys) == len(expected) - len(holes) and seen.isdisjoint(holes) and seen <= expected:
        # Distinct keys, so the sort never reaches the charge.
        misses = sorted(filter(itemgetter(2), placed))
        return Verdict.failures([f"search for {key} {miss}" for key, _, miss in misses])
    expected -= holes
    kind = "leaf" if isinstance(tree, (Leaf, Cmp)) else "equality"
    keys.sort()
    violations = [f"duplicate {kind} key {a}" for a, b in zip(keys, keys[1:]) if a == b]
    violations += [f"unexpected {kind} key {k}" for k in sorted(seen - expected)]
    violations += [f"missing {kind} key {k}" for k in sorted(expected - seen)]
    return Verdict.failures(violations)


def validate(tree, interval: Interval, holes: Iterable[int], inst: Instance) -> Verdict:
    """Check that *tree*, of either family, solves subproblem (interval, holes).

    Valid iff the placed keys are exactly the interval minus the holes, each
    once, and the search for each ends where it sits (a GBST search halts on
    an equality match and otherwise branches on ``query < split``).  Split
    keys are checked behaviorally: any separating value is acceptable.  A
    tree whose key set is wrong gets only the key-set violations.
    """
    return _verdict(tree, _walk(tree), interval, holes, inst.n)


def _cost_weight(tree, inst: Instance) -> tuple[int, int]:
    n, weights = inst.n, inst.weights
    cost = weight = 0
    for key, charge, _ in _walk(tree):
        if not 1 <= key <= n:
            raise ValueError(f"key {key} out of range 1..{n}")
        w = weights[key - 1]
        weight += w
        cost += w * charge
    return cost, weight


def tree_cost(tree, inst: Instance) -> int:
    """Sum over placed keys of weight * charge: for a GBST, weight(eq) *
    (depth + 1) per node, so the empty tree costs 0; for a 2WCST, weight *
    comparisons per leaf, so a lone Leaf costs 0."""
    return _cost_weight(tree, inst)[0]


def tree_weight(tree, inst: Instance) -> int:
    """Total weight of the keys *tree* places."""
    return _cost_weight(tree, inst)[1]


# The family-named spellings of tree_cost and validate.
gbst_cost = twcst_cost = tree_cost
gbst_validate = twcst_validate = validate


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
# Solver output
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolveResult:
    """Solver output: cost and tree.  The tree fixes the keys it places."""

    cost: int
    tree: object

    def holes_in(self, interval: Interval) -> tuple[int, ...]:
        """The keys of *interval* that the tree does not place, ascending."""
        placed = {key for key, _, _ in _walk(self.tree)}
        return tuple(k for k in interval.keys() if k not in placed)


def check_hole_count(h: int, interval: Interval, min_queries: int) -> None:
    """Reject a hole count outside 0..|I| - min_queries, and an interval
    with fewer than min_queries keys, which has no hole count at all."""
    max_h = interval.size - min_queries
    if max_h < 0:
        raise ValueError(
            f"interval [{interval.i},{interval.j}] has too few keys:"
            f" {interval.size} < {min_queries}"
        )
    if not 0 <= h <= max_h:
        raise ValueError(f"hole count {h} out of range 0..{max_h}")


LAYOUT_CACHE_MAX_LENGTH = 36  # the most the 3 MB layout budget allows
_LAYOUTS: dict[tuple[int, int], tuple] = {}


def _split_gathers(length: int, min_queries: int) -> tuple:
    """Where the split candidates of an interval of *length* keys sit.

    Splits s = i+1..j are numbered by size_l = s - i.  A side of ``size``
    keys has a row of ``size + 1 - min_queries`` entries.  The fill reads
    I's left sides from key i's columns and its right sides from key j's
    end store, both rows by ascending size (see :class:`DpTable`), so a
    side of ``size`` keys starts at ``off[size - 1]`` in both.  Returns
    ``(at_l, at_r, bounds)``: the positions in the two lists of every
    candidate (h, size_l, h1) with h1 + h2 = h + 1 - min_queries, h
    ascending, then splits ascending, then h1 ascending, as two flat
    tuples; and per h the ``(start, stop)`` of its candidates in them.  So
    one ``itemgetter`` call per side gathers the candidates of every h of
    an interval.  A left position indexes key i's columns, and its
    (size_l, h1) is the table's own ``split_of`` entry.

    All tables share the layouts up to ``LAYOUT_CACHE_MAX_LENGTH`` keys
    through ``_LAYOUTS``: 2.92 MB (tracemalloc) for lengths 1..36 and both
    DPs, as tuples, which ``itemgetter`` holds without a copy; length 37
    would take 3.25 MB.  Longer layouts are rebuilt per table, in
    O(length^3) against the fill's O(n^5).
    """
    layout = _LAYOUTS.get((length, min_queries))
    if layout is not None:
        return layout
    m = min_queries
    off = list(accumulate(range(2 - m, length + 1 - m), initial=0))
    # Slices of one list of positions, so that all layouts share its ints.
    pos = list(range(off[-1]))
    at_l: list[int] = []
    at_r: list[int] = []
    bounds = []
    for h in range(length - m):
        start = len(at_l)
        for size_l in range(1, length):
            size_r = length - size_l
            a = max(0, h + 1 - size_r)
            b = min(size_l, h + 1) + 1 - m
            at_l += pos[off[size_l - 1] + a : off[size_l - 1] + b]
            # h2 = h + 1 - m - h1 runs down from h + 1 - m - a to h + 2 - m - b.
            end_r = off[size_r - 1] + h + 2 - m
            at_r += reversed(pos[end_r - b : end_r - a])
        bounds.append((start, len(at_l)))
    layout = (tuple(at_l), tuple(at_r), tuple(bounds))
    if length <= LAYOUT_CACHE_MAX_LENGTH:
        _LAYOUTS[(length, min_queries)] = layout
    return layout


def _gatherer(positions: tuple[int, ...]):
    """``itemgetter(*positions)``, which returns a tuple for any count:
    itemgetter alone takes at least one position and returns a bare item
    for one."""
    if len(positions) > 1:
        return itemgetter(*positions)
    return lambda row: tuple(row[p] for p in positions)


class DpTable:
    """Memo of a flawed (interval, hole count) DP over every (i, j, h)
    inside a root interval.

    A subproblem must keep ``min_queries`` keys, so h runs over
    0..|I| - min_queries.  The table is five columns per key i of the
    root, ``_cols[i]``, each entry written once by ``_fill``: the cost,
    ``cw`` (the cost + weight, times N), ``perm`` (the keys placed, as a
    rank mask), the backpointer (None at the base) and ``free``, the
    encoded least-weight key of [i, j] that the cell leaves unplaced.  They
    hold the rows of [i, i], [i, i+1], ... by ascending length, cell
    (i, j, h) at ``_off[j - i] + h``, the layouts' offsets by size.  The
    table ranks its keys by (weight, index): ``_key_at_rank``, and ``_bit``,
    key k's rank bit.  No tree is stored: ``result`` rebuilds one from the
    backpointers through the subclass's ``_tree(i, j, h)``.

    The encoding lets one int rank a candidate by (cost, root key).  With
    N = n + 1, above every key, a candidate of cost c and root key e scores
    c*N + e, and one with no root key (a Spuler split) c*N.  ``_fk`` holds
    by rank a key's w*N + key and, last, the sentinel (wmax + 1) * N, above
    every key's, which ``free`` holds for a cell that places every key.

    Both DPs share one fill.  Intervals run by ascending length.  The base
    h = |I| - min_queries is the empty tree (cost 0) when no key need stay,
    and otherwise the leaf of a least-weight key of I (lowest index on
    ties).  Every other cell (I, h) weighs two kinds of candidate, and a
    candidate costs its weight plus its children's costs:

    * the equality candidate: the (I, h+1) result under the least-weight
      key e of I that it does not place, scoring ``cw[h+1] + free[h+1]``
      (the result leaves h + 1 >= 1 keys unplaced, so e exists);
    * a split at s = i+1..j over the results for ([i, s-1], h1) and
      ([s, j], h2), h1 + h2 = h + 1 - min_queries.  Its base is the sum of
      its sides' cw entries.  Key i's columns hold I's left sides when I
      starts.  Its right sides start at different keys, so each finished
      cw and free row also joins key j's end stores, by length, which
      [lo, j] reads last and drops.  One ``itemgetter`` call per side
      gathers the bases of every h of I at once, at positions that
      ``_split_gathers`` shares among all tables; cell h's candidates are
      the slice ``bounds[h]`` of them.  The winner's (s, h1) comes from
      ``split_of``, one map per table from left positions to (size_l, h1),
      built for the root length in O(n^2): every shorter length's left rows
      are a prefix of it.  Its children sit at its left position in key i's
      columns and at ``_off[j - s] + h2`` in key s's.

    The subclass's ``_best_split`` picks the winner's score, from which the
    fill decodes its cost and root key.  The backpointer is (s, h1, h2, e):
    s = i marks the equality candidate, stored as (i, 0, h + 1, e), and e
    is None for a split that places no key at its root.
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
        # Bit r of a rank mask stands for the key of rank r, so the
        # least-weight key of a set is its mask's lowest bit.
        order = sorted(range(1, inst.n + 1), key=lambda k: (inst.weight(k), k))
        self._key_at_rank = tuple(order)
        self._scale = scale = inst.n + 1
        self._fk = [inst.weight(k) * scale + k for k in order]
        self._fk.append((inst.weight(order[-1]) + 1) * scale)
        self._bit = bit = [0] * (inst.n + 1)
        for rank, key in enumerate(order):
            bit[key] = 1 << rank
        self._fill()

    @classmethod
    def solve(cls, inst: Instance, interval: Interval, h: int) -> SolveResult:
        """Run the DP for one (interval, hole count) subproblem."""
        check_hole_count(h, interval, cls.min_queries)
        return cls(inst, interval).result(interval.i, interval.j, h)

    def _best_split(self, bases, a, b, eq, fk_least, fk_l, fk_r, at_l, at_r) -> tuple:
        """A cell's winner (score, k): k = -1 for the equality candidate,
        which scores *eq*, else an index in a..b-1 into *bases*, the bases
        of the interval's split candidates, whose slice ``bases[a:b]`` is
        the cell's.  Candidate k's sides have free entries
        ``fk_l[at_l[k]]`` and ``fk_r[at_r[k]]``; *fk_least* is I's least
        key encoded, below every free entry of I."""
        raise NotImplementedError

    def _fill(self) -> None:
        m = self.min_queries
        key_at_rank, fk, bit, scale = self._key_at_rank, self._fk, self._bit, self._scale
        best_split = self._best_split
        lo, hi = self.interval.i, self.interval.j
        # A row of ``size`` keys has size + 1 - m entries, by ascending size.
        self._off = off = list(accumulate(range(2 - m, hi - lo + 3 - m), initial=0))
        split_of = [
            (size_l, h1) for size_l in range(1, hi - lo + 1) for h1 in range(size_l + 1 - m)
        ]
        self._cols = cols = [None] * lo + [  # key i's columns hold off[hi - i + 1] cells
            ([0] * size, [0] * size, [0] * size, [None] * size, [0] * size) for size in off[:0:-1]
        ]
        # By key j: the cw and free rows of [..., j], by length.
        cw_to, free_to = [[] for _ in range(hi + 1)], [[] for _ in range(hi + 1)]
        for length in range(1, hi - lo + 2):
            at_l, at_r, bounds = _split_gathers(length, m)
            get_l, get_r = _gatherer(at_l), _gatherer(at_r)
            at, top = off[length - 1], off[length] - 1  # [i, j]'s cells h = 0 and the base
            for i in range(lo, hi - length + 2):
                j = i + length - 1
                cost_col, cw_col, perm_col, choice_col, free_col = cols[i]
                iv_perm = sum(bit[i : j + 1])
                least = (iv_perm & -iv_perm).bit_length() - 1
                fk_least = fk[least]
                bases = list(map(add, get_l(cw_col), get_r(cw_to[j])))
                if m:  # the base keeps one key: a leaf of least weight
                    cw_col[top] = fk_least - key_at_rank[least]  # w * N
                    perm_col[top] = 1 << least
                # No free key is rank -1: fk's last entry, the sentinel.
                free = iv_perm & ~perm_col[top]
                free_col[top] = fk[(free & -free).bit_length() - 1]
                for h in range(length - m - 1, -1, -1):
                    a, b = bounds[h]
                    c = at + h
                    score, k = best_split(
                        bases, a, b, cw_col[c + 1] + free_col[c + 1], fk_least,
                        free_col, free_to[j], at_l, at_r,
                    )
                    cost, e = divmod(score, scale)
                    # A cost is the weight plus the children's costs.
                    if k < 0:
                        s, h1, h2 = i, 0, h + 1
                        weight = cost - cost_col[c + 1]
                        placed = perm_col[c + 1]
                    else:
                        left = at_l[k]
                        size_l, h1 = split_of[left]
                        s, h2 = i + size_l, h + 1 - m - h1
                        right = off[length - size_l - 1] + h2
                        cost_s, _, perm_s, _, _ = cols[s]
                        weight = cost - cost_col[left] - cost_s[right]
                        placed = perm_col[left] | perm_s[right]
                    cost_col[c] = cost
                    cw_col[c] = (cost + weight) * scale
                    # e = 0 is a split without a root key, and bit[0] = 0.
                    perm_col[c] = placed = placed | bit[e]
                    choice_col[c] = (s, h1, h2, e or None)
                    free = iv_perm & ~placed
                    free_col[c] = fk[(free & -free).bit_length() - 1]
                if i > lo:
                    cw_to[j] += cw_col[at : top + 1]
                    free_to[j] += free_col[at : top + 1]
                else:  # [lo, j] is the last interval to read them
                    cw_to[j] = free_to[j] = None
                # One interval's bases at a time: the next gather allocates
                # as many new ints.
                del bases

    def _entry(self, column: int, i: int, j: int, h: int):
        """Cell (i, j, h)'s entry in key i's *column* (0 to 4)."""
        if not self.interval.i <= i <= j <= self.interval.j:
            raise KeyError(f"interval [{i},{j}] outside table root {self.interval}")
        at, stop = self._off[j - i], self._off[j - i + 1]
        if not 0 <= h < stop - at:
            raise ValueError(f"hole count {h} out of range 0..{stop - at - 1}")
        return self._cols[i][column][at + h]

    def result(self, i: int, j: int, h: int) -> SolveResult:
        """The cell's cost and the tree rebuilt from its backpointers."""
        return SolveResult(self.cost(i, j, h), self._tree(i, j, h))

    def choice(self, i: int, j: int, h: int) -> tuple | None:
        """The cell's backpointer (s, h1, h2, e); None at bases."""
        return self._entry(3, i, j, h)

    def cost(self, i: int, j: int, h: int) -> int:
        return self._entry(0, i, j, h)

    def cells(self) -> Iterator[tuple[int, int, int]]:
        """All (i, j, h) coordinates with i <= j, ascending."""
        lo, hi = self.interval.i, self.interval.j
        for i in range(lo, hi + 1):
            for j in range(i, hi + 1):
                for h in range(j - i + 2 - self.min_queries):
                    yield (i, j, h)
