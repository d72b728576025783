"""``cstlab.render`` against the per-family renderers and parsers it
replaced (``reference_render``): the same bytes in every format, the same
trees from every well-formed text, and ParseError on the same malformed
tree files."""
import pytest
from hypothesis import given, settings, strategies as st

import reference_render as ref
from cstlab import bench, render
from cstlab.falsify import random_instance
from cstlab.hw import hw_solve
from cstlab.model import EQ, LT, Cmp, GbstNode, Instance, Leaf, ParseError, gbst_join
from cstlab.oracle import GbstOracle, TwcstOracle
from cstlab.spuler import spuler_solve

_EXHIBIT_INSTANCES = {
    "fig1": bench.build_instance("fig1").instance,
    "fig2_a": bench.build_instance("I9").instance,
    "fig2_b": bench.build_instance("I9").instance,
    "fig3": bench.build_instance("I31").instance,
    "fig4_a": bench.build_instance("I8").instance,
    "fig4_b": bench.build_instance("I8").instance,
    "fig4_c": bench.build_instance("I8").instance,
    "fig5_a": bench._prefix_instance(10),
    "fig5_b": bench._prefix_instance(10),
    "fig6": bench.build_instance("I15").instance,
}


def tree_file(tree, inst: Instance) -> str:
    """Tree-file text for a tree of either family."""
    def expr(node) -> str:
        if node is None:
            return "."
        if isinstance(node, Leaf):
            return inst.label(node.key)
        if isinstance(node, Cmp):
            op = "=" if node.op == EQ else "<"
            return f"({op}{inst.label(node.key)} {expr(node.yes)} {expr(node.no)})"
        if node.split is None:
            return inst.label(node.eq)
        return f"({inst.label(node.eq)}:{inst.label(node.split)} {expr(node.left)} {expr(node.right)})"

    tag = "twcst" if isinstance(tree, (Leaf, Cmp)) else "gbsplit"
    return f"{tag}\n{expr(tree)}\n"


def assert_same_as_reference(tree, inst: Instance) -> None:
    for fmt in render.FORMATS:
        assert render.render_tree(tree, fmt, inst) == ref.render_tree(tree, fmt, inst), fmt
    ascii_text = render.render_tree(tree, "ascii", inst)
    assert render.parse_ascii(ascii_text, inst) == ref.parse_ascii(ascii_text, inst)
    text = tree_file(tree, inst)
    assert render.parse_tree_file(text, inst) == ref.parse_tree_file(text, inst)


def test_every_exhibit_is_compared():
    assert sorted(bench.EXHIBITS) == sorted(_EXHIBIT_INSTANCES)


@pytest.mark.parametrize("name", sorted(_EXHIBIT_INSTANCES))
def test_exhibits(name):
    inst = _EXHIBIT_INSTANCES[name]
    text = bench.EXHIBITS[name]
    model, tree = render.parse_tree_file(text, inst)
    assert (model, tree) == ref.parse_tree_file(text, inst)
    assert_same_as_reference(tree, inst)


@pytest.mark.parametrize("seed", range(6))
def test_solver_trees_of_random_instances(seed):
    inst = random_instance(7 + seed % 3, 20, seed)
    full = inst.full_interval()
    trees = [
        hw_solve(inst, full, 1).tree,
        spuler_solve(inst, full, 1).tree,
        GbstOracle(inst).opt_star(full, 2)[1],
        TwcstOracle(inst).opt_star(full, 1)[1],
    ]
    for tree in trees:
        assert_same_as_reference(tree, inst)


@st.composite
def _gbst(draw, keys: list[int], n: int):
    """A valid GBST on *keys*, some childless nodes carrying a split key."""
    if not keys:
        return None
    eq = draw(st.sampled_from(keys))
    rest = [k for k in keys if k != eq]
    if not rest:
        return GbstNode(eq, split=draw(st.none() | st.integers(1, n)))
    cut = draw(st.integers(0, len(rest)))
    left, right = draw(_gbst(rest[:cut], n)), draw(_gbst(rest[cut:], n))
    if right is None and rest[-1] < n and draw(st.booleans()):
        return GbstNode(eq, split=rest[-1] + 1, left=left)  # a lone left child
    return gbst_join(eq, rest[cut] if cut < len(rest) else None, rest[0], left, right)


@st.composite
def _twcst(draw, keys: list[int]):
    """A valid 2WCST on *keys*, mixing equality and less-than tests."""
    if len(keys) == 1:
        return Leaf(keys[0])
    if draw(st.booleans()):
        k = draw(st.sampled_from(keys))
        return Cmp(EQ, k, yes=Leaf(k), no=draw(_twcst([x for x in keys if x != k])))
    cut = draw(st.integers(1, len(keys) - 1))
    return Cmp(LT, keys[cut], yes=draw(_twcst(keys[:cut])), no=draw(_twcst(keys[cut:])))


@st.composite
def _instance_and_tree(draw):
    n = draw(st.integers(1, 10))
    inst = Instance(tuple(f"K{k}" for k in range(1, n + 1)),
                    tuple(draw(st.lists(st.integers(0, 50), min_size=n, max_size=n))))
    keys = sorted(draw(st.sets(st.integers(1, n), min_size=1)))
    tree = draw(_twcst(keys) if draw(st.booleans()) else _gbst(keys, n))
    return inst, tree


@settings(max_examples=300, deadline=None)
@given(_instance_and_tree())
def test_drawn_trees(case):
    inst, tree = case
    assert_same_as_reference(tree, inst)


_MALFORMED = [
    "",
    "# only a comment\n",
    "gbsplit\n",
    "gbsplit\n.\n",
    "twcst\n.\n",
    "tree\nA1\n",
    "gbsplit\n(A1 . .\n",
    "gbsplit\n(A1:B0 A2 .))\n",
    "gbsplit\n(A1:ZZ A2 .)\n",
    "gbsplit\n(=A1 A2 .)\n",
    "gbsplit\n) A1\n",
    "gbsplit\nA1 A2\n",
    "gbsplit\n(A1 $ A2)\n",
    "twcst\n(A1 A1 A2)\n",
    "twcst\n(=A1 A1 .)\n",
    "twcst\n(<A1 A1)\n",
    "twcst\n(<A1:B0 A1 A2)\n",
    "twcst\n=A1\n",
    "twcst\n(=A1 A1 A2) A3\n",
]


@pytest.mark.parametrize("text", _MALFORMED)
def test_malformed_tree_files(text):
    inst = bench.build_instance("I9").instance
    with pytest.raises(ParseError):
        ref.parse_tree_file(text, inst)
    with pytest.raises(ParseError):
        render.parse_tree_file(text, inst)


@settings(max_examples=300, deadline=None)
@given(_instance_and_tree(), st.data())
def test_mutated_tree_files(case, data):
    """Drop, repeat or swap one token of a valid file: both parsers give
    the same tree, or both raise ParseError."""
    inst, tree = case
    tag, body = tree_file(tree, inst).split("\n", 1)
    tokens = body.replace("(", " ( ").replace(")", " ) ").split()
    at = data.draw(st.integers(0, len(tokens) - 1))
    edit = data.draw(st.sampled_from(["drop", "repeat", "dot", "close", "tag"]))
    if edit == "drop":
        del tokens[at]
    elif edit == "repeat":
        tokens.insert(at, tokens[at])
    elif edit == "dot":
        tokens[at] = "."
    elif edit == "close":
        tokens.insert(at, ")")
    else:
        tag = "twcst" if tag == "gbsplit" else "gbsplit"
    text = tag + "\n" + " ".join(tokens) + "\n"
    outcomes = []
    for parse in (ref.parse_tree_file, render.parse_tree_file):
        try:
            outcomes.append(parse(text, inst))
        except ParseError:
            outcomes.append(ParseError)
    assert outcomes[0] == outcomes[1]


# ---------------------------------------------------------------------------
# Depth: every walk takes one interpreter frame per tree level
# ---------------------------------------------------------------------------

DEEP = 800


def _same_shape(a, b) -> bool:
    """Iterative structural equality, GBST split keys ignored."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if type(x) is not type(y):
            return False
        if isinstance(x, GbstNode):
            if x.eq != y.eq:
                return False
            stack += [(x.left, y.left), (x.right, y.right)]
        elif isinstance(x, Cmp):
            if (x.op, x.key) != (y.op, y.key):
                return False
            stack += [(x.yes, y.yes), (x.no, y.no)]
        elif isinstance(x, Leaf) and x.key != y.key:
            return False
    return True


@pytest.mark.parametrize("family", ["gbsplit", "twcst"])
def test_deep_chain_parses_and_renders(family):
    inst = Instance(tuple(f"K{k:04d}" for k in range(1, DEEP + 1)), tuple(k % 5 for k in range(DEEP)))
    labels = inst.labels
    if family == "gbsplit":
        # Node k tests key k and sends every larger key right, under split k+1.
        body = "".join(f"({a}:{b} . " for a, b in zip(labels, labels[1:])) + labels[-1]
    else:
        body = "".join(f"(={a} {a} " for a in labels[:-1]) + labels[-1]
    model, tree = render.parse_tree_file(f"{family}\n{body}{')' * (DEEP - 1)}\n", inst)
    assert model == family
    for fmt in render.FORMATS:
        text = render.render_tree(tree, fmt, inst)
        assert text.count("\n") >= DEEP
    back = render.parse_ascii(render.render_tree(tree, "ascii", inst), inst)
    assert _same_shape(back, tree)
