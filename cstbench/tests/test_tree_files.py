import random

import pytest

import trees
from cstlab.model import (
    Cmp,
    EQ,
    gbst_cost,
    gbst_validate,
    twcst_cost,
    twcst_validate,
)
from cstlab.falsify import random_instance
from cstlab.render import derive_subproblem, parse_tree_file

N = 200


@pytest.fixture
def inst():
    return random_instance(N, 50, 5)


def sample_trees(rng):
    return [
        trees.balanced_gbst(trees.pick_keys(N, 150, rng), rng),
        trees.balanced_lt_twcst(trees.pick_keys(N, 150, rng)),
        trees.eq_cascade(trees.pick_keys(N, 40, rng), rng),
        trees.gbst_chain(trees.pick_keys(N, 40, rng), rng),
        trees.balanced_gbst([7], rng),
        trees.balanced_lt_twcst([7]),
    ]


def test_writer_round_trips_through_parse_tree_file(inst):
    for tree in sample_trees(random.Random(1)):
        text = trees.write_tree_file(tree, inst)
        model, parsed = parse_tree_file(text, inst)
        assert model == ("twcst" if isinstance(tree, (trees.Leaf, Cmp)) else "gbsplit")
        assert trees.trees_equal(parsed, tree)
        assert trees.write_tree_file(parsed, inst) == text


def test_built_trees_are_valid_and_costed_like_the_library(inst):
    for tree in sample_trees(random.Random(2)):
        interval, holes = derive_subproblem(tree, inst)
        if isinstance(tree, (trees.Leaf, Cmp)):
            assert twcst_validate(tree, interval, holes, inst)
            assert trees.tree_cost(tree, inst) == twcst_cost(tree, inst)
        else:
            assert gbst_validate(tree, interval, holes, inst)
            assert trees.tree_cost(tree, inst) == gbst_cost(tree, inst)


def test_balanced_trees_stay_shallow():
    rng = random.Random(3)
    tree = trees.balanced_gbst(list(range(1, 1024)), rng)
    depth, count, stack = 0, 0, [(tree, 1)]
    while stack:
        node, d = stack.pop()
        depth, count = max(depth, d), count + 1
        stack.extend((c, d + 1) for c in (node.left, node.right) if c is not None)
    assert depth <= 11
    assert count == 1023


def test_trees_equal_is_iterative_on_deep_cascades():
    keys = list(range(1, 401))
    a = trees.eq_cascade(keys, random.Random(4))
    b = trees.eq_cascade(keys, random.Random(4))
    c = trees.eq_cascade(keys, random.Random(5))
    assert a is not b
    assert trees.trees_equal(a, b)
    assert not trees.trees_equal(a, c)


def test_trees_equal_compares_every_field():
    rng = random.Random(6)
    keys = list(range(1, 30))
    tree = trees.balanced_gbst(keys, rng)
    assert trees.trees_equal(tree, tree)
    relabeled = trees.balanced_gbst(keys, random.Random(7))
    assert not trees.trees_equal(tree, relabeled)
    leaf_a, leaf_b = trees.balanced_lt_twcst([3]), trees.balanced_lt_twcst([4])
    assert not trees.trees_equal(leaf_a, leaf_b)
    assert not trees.trees_equal(Cmp(EQ, 3, leaf_a, leaf_b), Cmp(EQ, 3, leaf_b, leaf_a))
    assert not trees.trees_equal(tree, leaf_a)


def test_trees_equal_can_ignore_gbst_split_keys():
    tree = trees.gbst_chain([1, 2, 3], random.Random(8))
    stripped = type(tree)(tree.eq, split=None, left=tree.left, right=tree.right)
    assert not trees.trees_equal(tree, stripped)
    assert trees.trees_equal(tree, stripped, ignore_split=True)
