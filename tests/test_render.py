"""Renderers: determinism, round-trips, rejection of invalid trees."""
import tracemalloc

import pytest

import reference_exhibits
import reference_render
from cstlab import render
from cstlab.bench import build_instance, exhibit
from cstlab.model import (
    EQ,
    LT,
    Cmp,
    GbstNode,
    Instance,
    Leaf,
    ParseError,
)
from cstlab.render import (
    FORMATS,
    InvalidTreeError,
    derive_subproblem,
    parse_ascii,
    parse_tree_file,
    render_tree,
)

I9 = build_instance("I9").instance
I8 = build_instance("I8").instance


def strip_splits(tree):
    if tree is None:
        return None
    return GbstNode(
        tree.eq, split=None, left=strip_splits(tree.left), right=strip_splits(tree.right)
    )


class TestAscii:
    def test_single_gbst_node(self):
        inst = Instance(("k",), (3,))
        assert render_tree(GbstNode(1), "ascii", inst) == "k (3)\n"

    def test_round_trip_gbst(self):
        text = render_tree(exhibit("fig2_a", I9), "ascii", I9)
        assert parse_ascii(text, I9) == strip_splits(exhibit("fig2_a", I9))

    def test_round_trip_twcst(self):
        text = render_tree(exhibit("fig4_a", I8), "ascii", I8)
        assert parse_ascii(text, I8) == exhibit("fig4_a", I8)

    def test_deterministic(self):
        assert render_tree(exhibit("fig4_a", I8), "ascii", I8) == render_tree(
            exhibit("fig4_a", I8), "ascii", I8
        )


class TestDot:
    def test_well_formed(self):
        text = render_tree(exhibit("fig2_a", I9), "dot", I9)
        assert text.startswith("digraph")
        assert text.rstrip().endswith("}")
        assert text.count("->") == 6  # seven nodes, six edges

    def test_t4a_positive_leaves(self):
        text = render_tree(exhibit("fig4_a", I8), "dot", I8)
        lines = text.splitlines()
        node_ids = set()
        parents = set()
        labels = {}
        for line in lines:
            line = line.strip()
            if "->" in line:
                parents.add(line.split()[0])
            elif line.startswith("n") and "label=" in line:
                nid = line.split()[0]
                node_ids.add(nid)
                labels[nid] = line.split('label="')[1].split('"')[0]
        leaves = node_ids - parents
        positive = [nid for nid in leaves if int(labels[nid].rsplit(":", 1)[1]) > 0]
        assert len(positive) == 4

    def test_gbst_edge_labels(self):
        text = render_tree(exhibit("fig2_a", I9), "dot", I9)
        assert 'label="< ' in text
        assert 'label=">= ' in text


def chain_instance(depth: int) -> Instance:
    return Instance(tuple(f"K{k:04d}" for k in range(1, depth + 1)), tuple(k % 5 for k in range(depth)))


def gbst_chain(depth: int) -> GbstNode:
    # Node k tests key k and sends every larger key right, under split k+1.
    node = GbstNode(depth)
    for k in range(depth - 1, 0, -1):
        node = GbstNode(k, split=k + 1, right=node)
    return node


def eq_cascade(depth: int) -> Cmp:
    node = Leaf(depth)
    for k in range(depth - 1, 0, -1):
        node = Cmp(EQ, k, yes=Leaf(k), no=node)
    return node


class TestIfElse:
    def test_leaf(self):
        inst = Instance(("k",), (1,))
        assert render_tree(Leaf(1), "ifelse", inst) == "return k\n"

    def test_single_gbst_node(self):
        inst = Instance(("k",), (1,))
        assert render_tree(GbstNode(1), "ifelse", inst) == "return k\n"

    def test_twcst_shape(self):
        inst = Instance(("a", "b"), (1, 2))
        tree = Cmp(LT, 2, yes=Leaf(1), no=Leaf(2))
        text = render_tree(tree, "ifelse", inst)
        assert text == "if (x < b) {\n  return a\n} else {\n  return b\n}\n"

    def test_gbst_emits_eq_then_split(self):
        text = render_tree(exhibit("fig2_a", I9), "ifelse", I9)
        assert "if (x == A2) return A2" in text
        assert "if (x < D0) {" in text

    @pytest.mark.parametrize("build", [gbst_chain, eq_cascade])
    def test_deep_trees_match_the_reference(self, build):
        inst, tree = chain_instance(300), build(300)
        text = render_tree(tree, "ifelse", inst)
        assert text == reference_render.render_tree(tree, "ifelse", inst)
        assert f"{'  ' * 299}return K0300\n" in text

    def test_too_deep_chain_fails_with_little_memory(self):
        # One frame per level, and each line held as its depth and text: the
        # failed render peaks near 0.73 MB, against 5.4 MB when every line
        # is held with its indent.
        inst, tree = chain_instance(1500), gbst_chain(1500)
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            with pytest.raises(RecursionError):
                render_tree(tree, "ifelse", inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.2e6


class TestValidityGate:
    def test_rejects_duplicate_keys(self):
        bad = Cmp(LT, 2, yes=Leaf(1), no=Leaf(1))
        with pytest.raises(InvalidTreeError):
            render_tree(bad, "ascii", I8)

    def test_rejects_misrouted_gbst(self):
        bad = GbstNode(2, split=1, left=GbstNode(1))  # key 1 routes right, finds nothing
        with pytest.raises(InvalidTreeError):
            render_tree(bad, "dot", I9)

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="unknown format"):
            render_tree(Leaf(1), "svg", I8)

    def test_derive_subproblem(self):
        iv, holes = derive_subproblem(exhibit("fig2_a", I9), I9)
        assert (iv.i, iv.j) == (1, 9)
        assert holes == (3, 5)


    @pytest.mark.parametrize("name, inst", [("fig2_a", I9), ("fig4_a", I8)])
    def test_render_tree_walks_the_tree_once(self, name, inst, monkeypatch):
        tree, walk, walked = exhibit(name, inst), render._walk, []

        def counting_walk(node):
            walked.append(node)
            return walk(node)

        monkeypatch.setattr(render, "_walk", counting_walk)
        for fmt in FORMATS:
            walked.clear()
            render_tree(tree, fmt, inst)
            assert walked == [tree]

    @pytest.mark.parametrize("family", ["gbst", "twcst"])
    @pytest.mark.parametrize("stray", ["-1", "0", "n + 1"])
    def test_rejects_keys_outside_the_instance(self, family, stray):
        # The emitters read labels and weights by index once the gate has
        # passed the tree, so a stray key must stop at the gate in every
        # format: key -1 would otherwise print the last key's label.
        inst = I9 if family == "gbst" else I8
        key = {"-1": -1, "0": 0, "n + 1": inst.n + 1}[stray]
        if family == "gbst":
            tree = GbstNode(2, split=2, left=GbstNode(1), right=GbstNode(key))
        else:
            tree = Cmp(LT, 2, yes=Leaf(1), no=Leaf(key))
        message = "tree keys out of range for the instance"
        for fmt in FORMATS:
            with pytest.raises(InvalidTreeError, match=f"^{message}$"):
                render_tree(tree, fmt, inst)
        with pytest.raises(InvalidTreeError, match=f"^{message}$"):
            derive_subproblem(tree, inst)

    @pytest.mark.parametrize(
        "tree", [GbstNode(2, split=0, right=GbstNode(1)), GbstNode(2, split=4, left=GbstNode(1))]
    )
    def test_split_key_outside_the_instance(self, tree):
        # The split separates every key, so the tree is valid, but no key
        # names the comparison: the formats that print it refuse it.
        inst = Instance(("a", "b", "c"), (1, 2, 30))
        assert render_tree(tree, "ascii", inst).startswith("b (2)\n")
        for fmt in ("dot", "ifelse"):
            with pytest.raises(ValueError, match=f"key {tree.split} out of range 1..3") as info:
                render_tree(tree, fmt, inst)
            assert type(info.value) is InvalidTreeError


class TestTreeFiles:
    def test_gbst_round_trip(self):
        text = "gbsplit\n(A2:D0 (A1:C0 B0 C0) (D1:E0 D0 E0))\n"
        model, tree = parse_tree_file(text, I9)
        assert model == "gbsplit"
        assert tree == reference_exhibits.fig2_tree_a()

    def test_gbst_chain_with_dot(self):
        text = "gbsplit\n(B4:A1 . (A3:A1 . A1))\n"
        model, tree = parse_tree_file(text, I9)
        assert tree.left is None
        assert tree.right.right.eq == 1

    def test_twcst(self):
        i3 = Instance(("a", "b", "c"), (1, 2, 3))
        model, tree = parse_tree_file("twcst\n(=b b (<c a c))\n", i3)
        assert model == "twcst"
        assert tree == Cmp(EQ, 2, yes=Leaf(2), no=Cmp(LT, 3, yes=Leaf(1), no=Leaf(3)))

    def test_missing_tag(self):
        with pytest.raises(ParseError, match="model tag"):
            parse_tree_file("(A1 . .)\n", I9)

    def test_unknown_label(self):
        for text in (
            "gbsplit\n(ZZ . .)\n",  # an equality label
            "gbsplit\n(A2:ZZ A1 B0)\n",  # a split label
            "gbsplit\nZZ\n",  # a bare GBST leaf
            "twcst\n(<ZZ A1 A2)\n",  # a 2WCST comparison key
            "twcst\n(<A2 A1 ZZ)\n",  # a 2WCST leaf
        ):
            with pytest.raises(ParseError) as info:
                parse_tree_file(text, I9)
            assert str(info.value) == "unknown key label 'ZZ'"

    def test_truncated_expression(self):
        for text in ("gbsplit\n", "gbsplit\n(A2:A1 A1\n", "twcst\n(<\n", "twcst\n(<A2 A1 A2\n"):
            with pytest.raises(ParseError) as info:
                parse_tree_file(text, I9)
            assert str(info.value) == "unexpected end of tree expression"

    def test_unexpected_characters(self):
        with pytest.raises(ParseError) as info:
            parse_tree_file("gbsplit\n(A2:A1 A1 ;)\n", I9)
        assert str(info.value) == "tree expression contains unexpected characters"
        # Any whitespace separates tokens.
        _, tree = parse_tree_file("gbsplit\n(A2:A1\tA1\x0b.\u3000)\n", I9)
        assert tree == GbstNode(2, split=1, left=GbstNode(1))

    def test_trailing_garbage(self):
        with pytest.raises(ParseError, match="trailing"):
            parse_tree_file("gbsplit\nA1 A2\n", I9)

    def test_comments_allowed(self):
        model, tree = parse_tree_file("# exhibit\ngbsplit\nA1\n", I9)
        assert tree == GbstNode(1)


class TestAsciiMalformed:
    """The shared ASCII builder rejects text no renderer writes."""

    @pytest.mark.parametrize(
        "text",
        [
            "=A1 (20)",  # a comparison with no children
            "<A2 (20)\n  y: A1 (20)",  # no n: child
            "<A2 (20)\n  n: A2 (20)",  # no y: child
            "<A2 (20)\ny: A1 (20)\nn: A2 (20)",  # unindented children
            "<A2 (20)\n  y: A1 (20)\n    n: A2 (20)",  # a leaf with a child
            "<A2 (20)\n  y: A1 (20)\n  y: A1 (20)\n  n: A2 (20)",  # repeated y:
            "<A2 (20)\n  L: A1 (20)\n  n: A2 (20)",  # foreign marker
            "A2 (20)\n  L: A1 (20)\n  L: B0 (20)",  # repeated L: drops no subtree
            "A2 (20)\n  A1 (20)",  # missing marker
            "A2 (20)\n    L: A1 (20)",  # two levels down
            "L: A2 (20)",  # marked root
            "  A2 (20)",  # indented root
            "A2 (20)\nA1 (20)",  # two roots
            "ZZ (1)",  # unknown label
        ],
    )
    def test_rejected(self, text):
        with pytest.raises(ParseError):
            parse_ascii(text, I9)

    def test_lone_left_and_right_children(self):
        assert parse_ascii("A2 (20)\n  R: A1 (20)", I9) == GbstNode(2, right=GbstNode(1))
        assert parse_ascii("A2 (20)\n  L: A1 (20)", I9) == GbstNode(2, left=GbstNode(1))

    def test_error_names_the_line(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_ascii("A2 (20)\n  L: A1 (20)\n  L: B0 (20)", I9)
        with pytest.raises(ParseError) as info:
            parse_ascii("A2 (20)\n  L: ZZ (1)", I9)
        assert str(info.value) == "line 2: unknown key label 'ZZ'"
