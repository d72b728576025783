"""``cstlab.model._walk`` against the walk it replaced
(``reference_model._walk``): the identical list, entry for entry, on every
tree, valid or not, and the same ``TypeError`` on a node of neither family.
The trees are ``test_model_reference``'s."""
import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

import reference_model as ref
from cstlab import model
from cstlab.model import EQ, LT, Cmp, GbstNode, Leaf
from test_model_reference import _INVALID, _cascade, _case, _chain, _positions


@st.composite
def _repeated_eq(draw, tree):
    """*tree* with one ``=`` test repeated at the top of its own no branch,
    when it has an ``=`` test."""
    spots = [(path, node) for path, node in _positions(tree) if isinstance(node, Cmp) and node.op == EQ]
    if not spots:
        return tree
    path, node = draw(st.sampled_from(spots))
    return model.replace_subtree(tree, path + "R", Cmp(EQ, node.key, yes=Leaf(node.key), no=node.no))


@settings(max_examples=1000, deadline=None)
@given(_case(), st.data())
def test_drawn_trees(case, data):
    # The drawn edits give misrouted and split-less GBST nodes, repeated
    # keys and keys 0 and n + 1; _repeated_eq adds a repeated = test.
    tree = data.draw(_repeated_eq(case[1]))
    assert model._walk(tree) == ref._walk(tree)


@pytest.mark.parametrize("name", sorted(_INVALID))
def test_invalid_trees(name):
    assert model._walk(_INVALID[name]) == ref._walk(_INVALID[name])


@pytest.mark.parametrize("build", [_chain, _cascade])
def test_1500_deep(build):
    tree = build(1500)
    assert model._walk(tree) == ref._walk(tree)
    if build is _chain:
        # A split-less node halfway down strands every key below it.
        node = tree
        for _ in range(700):
            node = node.right
        broken = model.replace_subtree(tree, "R" * 700, dataclasses.replace(node, split=None))
        assert model._walk(broken) == ref._walk(broken)


@pytest.mark.parametrize("tree", [
    Cmp(EQ, 1, yes=None, no=Leaf(2)),
    Cmp(LT, 2, yes=Leaf(1), no=GbstNode(2)),
    GbstNode(1, split=2, right=Leaf(2)),
    "A",
])
def test_node_of_neither_family_raises(tree):
    with pytest.raises(TypeError) as reference:
        ref._walk(tree)
    with pytest.raises(TypeError) as new:
        model._walk(tree)
    assert str(new.value) == str(reference.value)
