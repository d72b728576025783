"""Tree renderers (DOT, ASCII, if-else pseudocode) and the tree file parser.

The ASCII form mirrors the compact picture convention: one ``label (weight)``
per node, split keys omitted, children marked ``L:``/``R:`` (GBST) or
``y:``/``n:`` (2WCST).  It re-parses to the original tree shape.

Tree files are parenthesized preorder text with a leading model tag; see
the README for the grammar.  Each format has one walk for both families,
one interpreter frame per tree level.  Before it renders, ``render_tree``
checks the tree against its own key span from one walk of the model's
family-free validator.  Only that gate lets the emitters read labels and
weights by index from the instance's tuples: a valid tree places keys of
1..n only, and each 2WCST comparison key lies between the leaf keys of its
two branches.  A GBST split key may be any separating value, so it is read
through the bounds-checked ``Instance.label``.  The parsers look labels up
in the instance's one label dict.
"""
from __future__ import annotations

import re
from itertools import count, filterfalse
from operator import itemgetter

from .model import (
    EQ,
    GBSPLIT,
    LT,
    TWCST,
    Cmp,
    GbstNode,
    Instance,
    Interval,
    Leaf,
    ParseError,
    _verdict,
    _walk,
)

__all__ = ["InvalidTreeError", "render_tree", "parse_ascii", "parse_tree_file",
           "derive_subproblem"]

# A comparison as DOT/ASCII labels and tree files spell it.
_OP_MARK = {EQ: "=", LT: "<"}
_MARK_OP = {"=": EQ, "<": LT}


class InvalidTreeError(ValueError):
    """The tree does not validly solve its own key span."""


def _unknown_label(exc: KeyError, lineno: int | None = None) -> ParseError:
    """The parse error for a label the instance's label index lacks."""
    return ParseError(f"unknown key label {exc.args[0]!r}", lineno)


def derive_subproblem(tree, inst: Instance) -> tuple[Interval, tuple[int, ...]]:
    """Span interval and hole set implied by a standalone tree."""
    return _span(_walk(tree), inst)


def _span(placed, inst: Instance) -> tuple[Interval, tuple[int, ...]]:
    keys = set(map(itemgetter(0), placed))
    if not keys:
        raise InvalidTreeError("cannot render an empty tree")
    interval = Interval(min(keys), max(keys))
    if interval.i < 1 or interval.j > inst.n:
        raise InvalidTreeError("tree keys out of range for the instance")
    return interval, tuple(filterfalse(keys.__contains__, interval.keys()))


def render_tree(tree, fmt: str, inst: Instance) -> str:
    """Render a valid GBST or 2WCST tree; rejects invalid trees."""
    emit = _EMITTERS.get(fmt)
    if emit is None:
        raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    placed = _walk(tree)
    verdict = _verdict(tree, placed, *_span(placed, inst), inst.n)
    if not verdict:
        raise InvalidTreeError("; ".join(verdict.violations))
    try:
        return emit(tree, inst)
    except ValueError as exc:  # a GBST split key outside 1..n has no label
        raise InvalidTreeError(str(exc)) from None


# ---------------------------------------------------------------------------
# DOT
# ---------------------------------------------------------------------------

def _dot(tree, inst: Instance) -> str:
    lines = ["digraph cst {", "  node [shape=box];"]
    label, labels, weights, ids = inst.label, inst.labels, inst.weights, count()

    def emit(node) -> str:
        nid = f"n{next(ids)}"
        if type(node) is GbstNode:
            key, first, second = node.eq, node.left, node.right
            mark = ""
            if node.split is not None:
                split = label(node.split)
                first_edge, second_edge = f"< {split}", f">= {split}"
        elif type(node) is Cmp:
            key, first, second = node.key, node.yes, node.no
            mark, first_edge, second_edge = _OP_MARK[node.op], "yes", "no"
        else:
            key, mark, first, second = node.key, "", None, None
        lines.append(f'  {nid} [label="{mark}{labels[key - 1]}:{weights[key - 1]}"];')
        if first is not None:
            lines.append(f'  {nid} -> {emit(first)} [label="{first_edge}"];')
        if second is not None:
            lines.append(f'  {nid} -> {emit(second)} [label="{second_edge}"];')
        return nid

    emit(tree)
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# ASCII
# ---------------------------------------------------------------------------

def _ascii(tree, inst: Instance) -> str:
    lines: list[str] = []
    labels, weights = inst.labels, inst.weights

    def emit(node, pad: str, marker: str) -> None:
        if type(node) is GbstNode:
            key, first, second = node.eq, node.left, node.right
            mark, first_marker, second_marker = "", "L: ", "R: "
        elif type(node) is Cmp:
            key, first, second = node.key, node.yes, node.no
            mark, first_marker, second_marker = _OP_MARK[node.op], "y: ", "n: "
        else:
            key, mark, first, second = node.key, "", None, None
        lines.append(f"{pad}{marker}{mark}{labels[key - 1]} ({weights[key - 1]})")
        pad += "  "
        if first is not None:
            emit(first, pad, first_marker)
        if second is not None:
            emit(second, pad, second_marker)

    emit(tree, "", "")
    return "\n".join(lines) + "\n"


_ASCII_LINE = re.compile(
    r"^(?P<indent>(?:  )*)(?:(?P<marker>[LRyn]): )?(?P<op>[=<])?(?P<label>[A-Za-z0-9_]+) \((?P<w>\d+)\)$"
)


def parse_ascii(text: str, inst: Instance):
    """Re-parse ASCII output into a tree of the same shape.

    GBST split keys are not in the ASCII form, so they come back as None.
    Text is 2WCST when any line has a ``y:``/``n:`` marker or a comparison,
    so one-line text, a lone 2WCST leaf included, parses as a GBST node.
    A child sits one level below its parent under one of its family's two
    markers, each used at most once; a comparison needs both.
    """
    entries, index = [], inst._index
    try:
        for lineno, raw in enumerate(text.splitlines(), 1):
            if raw.strip():
                m = _ASCII_LINE.match(raw)
                if m is None:
                    raise ParseError(f"bad ascii tree line {raw!r}", lineno)
                indent, marker, op, name, _ = m.groups()
                entries.append((len(indent) // 2, marker, op, index[name], lineno))
    except KeyError as exc:
        raise _unknown_label(exc, lineno) from None
    if not entries:
        raise ParseError("empty ascii tree")
    twcst = any(e[1] in ("y", "n") or e[2] for e in entries)
    first_marker, second_marker = ("y", "n") if twcst else ("L", "R")
    pos, end = 0, len(entries)

    def build(depth: int):
        nonlocal pos
        _, _, op, key, lineno = entries[pos]
        pos += 1
        first = second = None
        while pos < end:
            child_depth, marker, _, _, child_line = entries[pos]
            if child_depth <= depth:
                break
            if child_depth != depth + 1:
                raise ParseError(f"child at depth {child_depth} below depth {depth}", child_line)
            if marker == first_marker and first is None:
                first = build(depth + 1)
            elif marker == second_marker and second is None:
                second = build(depth + 1)
            else:
                raise ParseError(f"missing, repeated or foreign child marker {marker!r}", child_line)
        if not twcst:
            return GbstNode(key, split=None, left=first, right=second)
        if op is None and first is None and second is None:
            return Leaf(key)
        if op is None or first is None or second is None:
            raise ParseError("a comparison needs both y: and n: children, a leaf none", lineno)
        return Cmp(_MARK_OP[op], key, yes=first, no=second)

    if entries[0][:2] != (0, None):
        raise ParseError("the root line must be unindented and unmarked", entries[0][4])
    tree = build(0)
    if pos != end:
        raise ParseError("trailing ascii tree lines", entries[pos][4])
    return tree


# ---------------------------------------------------------------------------
# if-else pseudocode
# ---------------------------------------------------------------------------

def _ifelse(tree, inst: Instance) -> str:
    label, labels = inst.label, inst.labels
    # Each line's depth, then its text; indents are made at the join, as held
    # indent strings or pair tuples would swell a failing too-deep render.
    lines: list = []
    add = lines.extend

    def emit(node, depth: int) -> None:
        if node is None:  # the empty side of a one-child GBST node
            add((depth, "unreachable"))
            return
        if type(node) is GbstNode and (node.left is not None or node.right is not None):
            eq = labels[node.eq - 1]
            add((depth, f"if (x == {eq}) return {eq}", depth, f"if (x < {label(node.split)}) {{"))
            first, second = node.left, node.right
        elif type(node) is Cmp:
            add((depth, f"if (x {'==' if node.op == EQ else '<'} {labels[node.key - 1]}) {{"))
            first, second = node.yes, node.no
        else:
            add((depth, f"return {labels[(node.eq if type(node) is GbstNode else node.key) - 1]}"))
            return
        emit(first, depth + 1)
        add((depth, "} else {"))
        emit(second, depth + 1)
        add((depth, "}"))

    emit(tree, 0)
    pairs = iter(lines)
    return "".join(f"{'  ' * depth}{text}\n" for depth, text in zip(pairs, pairs))


_EMITTERS = {"dot": _dot, "ascii": _ascii, "ifelse": _ifelse}
FORMATS = tuple(_EMITTERS)


# ---------------------------------------------------------------------------
# Tree files: parenthesized preorder with a model tag
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\(|\)|\.|[=<]|[A-Za-z0-9_]+(?::[A-Za-z0-9_]+)?")


def parse_tree_file(text: str, inst: Instance) -> tuple[str, object]:
    """Parse a tree file; returns (model, tree).

    Line 1 is the model tag, ``gbsplit`` or ``twcst``.  The rest is one
    preorder expression:

    * gbsplit: ``(EQ[:SPLIT] LEFT RIGHT)`` with ``.`` for an absent child,
      or a bare ``EQ`` label for a leaf node.
    * twcst:   ``(=KEY YES NO)``, ``(<KEY YES NO)``, or a bare leaf label.
    """
    stripped = [line for line in text.splitlines()
                if line.strip() and not line.lstrip().startswith("#")]
    if not stripped:
        raise ParseError("empty tree file")
    model = stripped[0].strip()
    if model not in (GBSPLIT, TWCST):
        raise ParseError(f"tree file must start with a model tag, got {model!r}")
    body = " ".join(stripped[1:])
    tokens = _TOKEN.findall(body)
    if "".join(tokens) != "".join(body.split()):
        raise ParseError("tree expression contains unexpected characters")
    gbst, rest, index = model == GBSPLIT, iter(tokens), inst._index
    take = rest.__next__  # StopIteration ends the parse below

    def parse():
        tok = take()
        if tok == "(":
            if gbst:
                eq_label, _, split_label = take().partition(":")
                split = index[split_label] if split_label else None
            else:
                op = take()
                if op not in _MARK_OP:
                    raise ParseError(f"expected '=' or '<', got {op!r}")
                key = index[take()]
            first, second = parse(), parse()
            if take() != ")":
                raise ParseError("expected ')' in tree expression")
            if gbst:
                return GbstNode(index[eq_label], split=split, left=first, right=second)
            return Cmp(_MARK_OP[op], key, yes=first, no=second)
        if gbst and tok == ".":
            return None
        if tok in (")", ".", "=", "<"):
            raise ParseError(f"unexpected token {tok!r}")
        return GbstNode(index[tok]) if gbst else Leaf(index[tok])

    try:
        tree = parse()
    except KeyError as exc:
        raise _unknown_label(exc) from None
    except StopIteration:
        raise ParseError("unexpected end of tree expression") from None
    if next(rest, None) is not None:
        raise ParseError("trailing tokens in tree expression")
    if tree is None:
        raise ParseError("tree file holds an empty tree")
    return model, tree
