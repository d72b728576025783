"""The renderers and tree-file parser as ``cstlab.render`` first had them:
one nested emitter per tree family in each of ``_dot``, ``_ascii`` and
``_ifelse``, one ASCII builder per family, and one recursive-descent parser
per tree-file grammar.  ``test_render_reference.py`` requires the package
to render every tree to the same bytes and to parse every well-formed text
to the same tree as this code does.

Kept verbatim, so ``parse_ascii`` here still accepts some malformed text
(a repeated ``L:`` child, unindented 2WCST children) and raises
``IndexError`` on a comparison without children; only well-formed text is
compared.
"""
from __future__ import annotations

import re

from cstlab.model import (
    EQ,
    LT,
    Cmp,
    GbstNode,
    Instance,
    Interval,
    Leaf,
    ParseError,
    TwcstTree,
)
from reference_model import gbst_nodes, gbst_validate, twcst_leaf_keys, twcst_validate

__all__ = [
    "InvalidTreeError",
    "render_tree",
    "parse_ascii",
    "parse_tree_file",
    "derive_subproblem",
]

FORMATS = ("dot", "ascii", "ifelse")


class InvalidTreeError(ValueError):
    """The tree does not validly solve its own key span."""


def derive_subproblem(tree, inst: Instance) -> tuple[Interval, tuple[int, ...]]:
    """Span interval and hole set implied by a standalone tree."""
    if isinstance(tree, (Leaf, Cmp)):
        keys = set(twcst_leaf_keys(tree))
    else:
        keys = {node.eq for node in gbst_nodes(tree)}
    if not keys:
        raise InvalidTreeError("cannot render an empty tree")
    if not all(1 <= k <= inst.n for k in keys):
        raise InvalidTreeError("tree keys out of range for the instance")
    interval = Interval(min(keys), max(keys))
    holes = tuple(k for k in interval.keys() if k not in keys)
    return interval, holes


def _check(tree, inst: Instance) -> None:
    interval, holes = derive_subproblem(tree, inst)
    if isinstance(tree, (Leaf, Cmp)):
        verdict = twcst_validate(tree, interval, holes, inst)
    else:
        verdict = gbst_validate(tree, interval, holes, inst)
    if not verdict:
        raise InvalidTreeError("; ".join(verdict.violations))


def render_tree(tree, fmt: str, inst: Instance) -> str:
    """Render a valid GBST or 2WCST tree; rejects invalid trees."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    _check(tree, inst)
    if fmt == "dot":
        return _dot(tree, inst)
    if fmt == "ascii":
        return _ascii(tree, inst)
    return _ifelse(tree, inst)


# ---------------------------------------------------------------------------
# DOT
# ---------------------------------------------------------------------------

def _dot(tree, inst: Instance) -> str:
    lines = ["digraph cst {", "  node [shape=box];"]
    counter = [0]

    def new_id() -> str:
        counter[0] += 1
        return f"n{counter[0] - 1}"

    def emit_gbst(node: GbstNode) -> str:
        nid = new_id()
        lines.append(f'  {nid} [label="{inst.label(node.eq)}:{inst.weight(node.eq)}"];')
        for child, sign in ((node.left, "<"), (node.right, ">=")):
            if child is not None:
                label = f"{sign} {inst.label(node.split)}"
                cid = emit_gbst(child)
                lines.append(f'  {nid} -> {cid} [label="{label}"];')
        return nid

    def emit_twcst(node: TwcstTree) -> str:
        nid = new_id()
        if isinstance(node, Leaf):
            lines.append(f'  {nid} [label="{inst.label(node.key)}:{inst.weight(node.key)}"];')
            return nid
        op = "=" if node.op == EQ else "<"
        lines.append(
            f'  {nid} [label="{op}{inst.label(node.key)}:{inst.weight(node.key)}"];'
        )
        yid = emit_twcst(node.yes)
        lines.append(f'  {nid} -> {yid} [label="yes"];')
        nid2 = emit_twcst(node.no)
        lines.append(f'  {nid} -> {nid2} [label="no"];')
        return nid

    if isinstance(tree, (Leaf, Cmp)):
        emit_twcst(tree)
    else:
        emit_gbst(tree)
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# ASCII
# ---------------------------------------------------------------------------

def _ascii(tree, inst: Instance) -> str:
    lines: list[str] = []

    def emit_gbst(node: GbstNode, depth: int, marker: str) -> None:
        pad = "  " * depth
        lines.append(f"{pad}{marker}{inst.label(node.eq)} ({inst.weight(node.eq)})")
        if node.left is not None:
            emit_gbst(node.left, depth + 1, "L: ")
        if node.right is not None:
            emit_gbst(node.right, depth + 1, "R: ")

    def emit_twcst(node: TwcstTree, depth: int, marker: str) -> None:
        pad = "  " * depth
        if isinstance(node, Leaf):
            lines.append(f"{pad}{marker}{inst.label(node.key)} ({inst.weight(node.key)})")
            return
        op = "=" if node.op == EQ else "<"
        lines.append(f"{pad}{marker}{op}{inst.label(node.key)} ({inst.weight(node.key)})")
        emit_twcst(node.yes, depth + 1, "y: ")
        emit_twcst(node.no, depth + 1, "n: ")

    if isinstance(tree, (Leaf, Cmp)):
        emit_twcst(tree, 0, "")
    else:
        emit_gbst(tree, 0, "")
    return "\n".join(lines) + "\n"


_ASCII_LINE = re.compile(
    r"^(?P<indent>(?:  )*)(?:(?P<marker>[LRyn]): )?(?P<op>[=<])?(?P<label>[A-Za-z0-9_]+) \((?P<w>\d+)\)$"
)


def parse_ascii(text: str, inst: Instance):
    """Re-parse ASCII output into a tree of the same shape.

    GBST split keys are not in the ASCII form, so they come back as None;
    compare shapes with split keys stripped.
    """
    entries = []
    for raw in text.splitlines():
        if not raw.strip():
            continue
        m = _ASCII_LINE.match(raw)
        if m is None:
            raise ParseError(f"bad ascii tree line {raw!r}")
        entries.append(
            (
                len(m.group("indent")) // 2,
                m.group("marker"),
                m.group("op"),
                inst.index(m.group("label")),
            )
        )
    if not entries:
        raise ParseError("empty ascii tree")
    kind = "twcst" if any(e[1] in ("y", "n") or e[2] for e in entries) else "gbst"
    pos = [0]

    def build_gbst(depth: int) -> GbstNode:
        _, _, _, key = entries[pos[0]]
        pos[0] += 1
        left = right = None
        while pos[0] < len(entries) and entries[pos[0]][0] == depth + 1:
            marker = entries[pos[0]][1]
            child = build_gbst(depth + 1)
            if marker == "L":
                left = child
            else:
                right = child
        return GbstNode(key, split=None, left=left, right=right)

    def build_twcst(depth: int) -> TwcstTree:
        _, _, op, key = entries[pos[0]]
        pos[0] += 1
        if op is None:
            return Leaf(key)
        yes = build_twcst(depth + 1)
        no = build_twcst(depth + 1)
        return Cmp(EQ if op == "=" else LT, key, yes=yes, no=no)

    tree = build_gbst(0) if kind == "gbst" else build_twcst(0)
    if pos[0] != len(entries):
        raise ParseError("trailing ascii tree lines")
    return tree


# ---------------------------------------------------------------------------
# if-else pseudocode
# ---------------------------------------------------------------------------

def _ifelse(tree, inst: Instance) -> str:
    lines: list[str] = []

    def block(body: list[str]) -> list[str]:
        return ["  " + line for line in body] if body else ["  unreachable"]

    def emit_gbst(node: GbstNode) -> list[str]:
        label = inst.label(node.eq)
        if node.left is None and node.right is None:
            return [f"return {label}"]
        out = [f"if (x == {label}) return {label}"]
        split = inst.label(node.split)
        out.append(f"if (x < {split}) {{")
        out.extend(block(emit_gbst(node.left) if node.left else []))
        out.append("} else {")
        out.extend(block(emit_gbst(node.right) if node.right else []))
        out.append("}")
        return out

    def emit_twcst(node: TwcstTree) -> list[str]:
        if isinstance(node, Leaf):
            return [f"return {inst.label(node.key)}"]
        cmp_op = "==" if node.op == EQ else "<"
        out = [f"if (x {cmp_op} {inst.label(node.key)}) {{"]
        out.extend(block(emit_twcst(node.yes)))
        out.append("} else {")
        out.extend(block(emit_twcst(node.no)))
        out.append("}")
        return out

    lines = emit_twcst(tree) if isinstance(tree, (Leaf, Cmp)) else emit_gbst(tree)
    return "\n".join(lines) + "\n"


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
    stripped = [
        line for line in text.splitlines() if line.strip() and not line.lstrip().startswith("#")
    ]
    if not stripped:
        raise ParseError("empty tree file")
    model = stripped[0].strip()
    if model not in ("gbsplit", "twcst"):
        raise ParseError(f"tree file must start with a model tag, got {model!r}")
    body = " ".join(stripped[1:])
    tokens = _TOKEN.findall(body)
    if "".join(tokens).replace(" ", "") != re.sub(r"\s+", "", body):
        raise ParseError("tree expression contains unexpected characters")
    pos = [0]

    def peek() -> str | None:
        return tokens[pos[0]] if pos[0] < len(tokens) else None

    def take() -> str:
        tok = peek()
        if tok is None:
            raise ParseError("unexpected end of tree expression")
        pos[0] += 1
        return tok

    def key_of(label: str) -> int:
        try:
            return inst.index(label)
        except KeyError as exc:
            raise ParseError(str(exc)) from None

    def parse_gbst():
        tok = take()
        if tok == ".":
            return None
        if tok == "(":
            head = take()
            if ":" in head:
                eq_label, split_label = head.split(":", 1)
                split = key_of(split_label)
            else:
                eq_label, split = head, None
            left = parse_gbst()
            right = parse_gbst()
            if take() != ")":
                raise ParseError("expected ')' in tree expression")
            return GbstNode(key_of(eq_label), split=split, left=left, right=right)
        if tok in (")", "=", "<"):
            raise ParseError(f"unexpected token {tok!r}")
        return GbstNode(key_of(tok))

    def parse_twcst():
        tok = take()
        if tok == "(":
            op = take()
            if op not in ("=", "<"):
                raise ParseError(f"expected '=' or '<', got {op!r}")
            key = key_of(take())
            yes = parse_twcst()
            no = parse_twcst()
            if take() != ")":
                raise ParseError("expected ')' in tree expression")
            return Cmp(EQ if op == "=" else LT, key, yes=yes, no=no)
        if tok in (")", ".", "=", "<"):
            raise ParseError(f"unexpected token {tok!r}")
        return Leaf(key_of(tok))

    tree = parse_gbst() if model == "gbsplit" else parse_twcst()
    if pos[0] != len(tokens):
        raise ParseError("trailing tokens in tree expression")
    if model == "gbsplit" and tree is None:
        raise ParseError("tree file holds an empty tree")
    return model, tree
