"""``cstlab.model``'s one walk against the per-family cost walks and
validators it replaced (``reference_model``).

On every tree, valid or not, the two must give the same verdict, the same
key-set violations (duplicates now listed in ascending order for GBSTs
too), search violations naming the same keys in the same order, and equal
costs, weights and leaf depths.  A search violation reads ``stuck at node X
(no split key)`` exactly when the reference's search stops at a split-less
ancestor of the key's node; every other one reads ``does not reach its
node`` (or ``its leaf``).
"""
import dataclasses
import re
import time

import pytest
from hypothesis import given, settings, strategies as st

import reference_model as ref
from cstlab import bench, model
from cstlab.falsify import random_instance
from cstlab.hw import hw_solve
from cstlab.model import EQ, LT, Cmp, GbstNode, Instance, Interval, Leaf, gbst_join
from cstlab.oracle import GbstOracle, TwcstOracle
from cstlab.render import derive_subproblem
from cstlab.spuler import spuler_solve

_SEARCH = re.compile(r"search for (-?\d+) (.*)")
_KEY = re.compile(r"(duplicate|unexpected|missing) (?:equality|leaf) key (-?\d+)")


def _positions(tree) -> list[tuple[str, object]]:
    """(path, node) for every node, the root's path empty; 'L' is the left
    or yes branch, as ``replace_subtree`` reads paths."""
    out, stack = [], [("", tree)]
    while stack:
        path, node = stack.pop()
        if node is not None:
            out.append((path, node))
        if isinstance(node, GbstNode):
            stack += [(path + "R", node.right), (path + "L", node.left)]
        elif isinstance(node, Cmp):
            stack += [(path + "R", node.no), (path + "L", node.yes)]
    return out


def _stuck_at_ancestor(tree, paths: dict, key: int, line: str) -> bool:
    """Whether the reference's *line* for *key* names a split-less GBST
    ancestor of the node that places *key*; *paths* maps keys to paths."""
    m = re.fullmatch(rf"search for {key} stuck at node (-?\d+) \(no split key\)", line)
    if m is None:
        return False
    node, ancestors = tree, set()
    for step in paths[key]:
        ancestors.add(node.eq)
        node = node.left if step == "L" else node.right
    return int(m[1]) in ancestors


def assert_agrees(tree, interval: Interval, holes, inst: Instance) -> model.Verdict:
    twcst = isinstance(tree, (Leaf, Cmp))
    old = (ref.twcst_validate if twcst else ref.gbst_validate)(tree, interval, holes, inst)
    new = model.validate(tree, interval, holes, inst)
    assert new.ok == old.ok
    old_keys = [v for v in old.violations if not v.startswith("search for")]
    new_keys = [v for v in new.violations if not v.startswith("search for")]
    order = {"duplicate": 0, "unexpected": 1, "missing": 2}

    def rank(line):
        kind, key = _KEY.fullmatch(line).groups()
        return order[kind], int(key)

    assert new_keys == sorted(old_keys, key=rank) == sorted(new_keys, key=rank)
    old_search = [_SEARCH.fullmatch(v).groups() for v in old.violations if v.startswith("search for")]
    new_search = [_SEARCH.fullmatch(v).groups() for v in new.violations if v.startswith("search for")]
    assert [k for k, _ in new_search] == [k for k, _ in old_search]
    assert [int(k) for k, _ in new_search] == sorted(int(k) for k, _ in new_search)
    unreached = "does not reach its " + ("leaf" if twcst else "node")
    paths = {} if twcst or not new_search else {_key(node): path for path, node in _positions(tree)}
    for (key, new_end), old_line in zip(new_search, (v for v in old.violations if v.startswith("search"))):
        if not twcst and _stuck_at_ancestor(tree, paths, int(key), old_line):
            assert f"search for {key} {new_end}" == old_line
        else:
            assert new_end == unreached

    costs = []
    for cost, weight in ((model.tree_cost, model.tree_weight),
                         (ref.twcst_cost, ref.twcst_weight) if twcst else (ref.gbst_cost, ref.gbst_weight)):
        try:
            costs.append((cost(tree, inst), weight(tree, inst)))
        except ValueError as exc:
            assert "out of range" in str(exc)
            costs.append("out of range")
    assert costs[0] == costs[1]
    if new.ok and twcst:
        depths = {key: charge for key, charge, _ in model._walk(tree)}
        assert depths == ref.twcst_leaf_depths(tree)
    return new


def assert_agrees_on_own_span(tree, inst: Instance) -> None:
    interval, holes = derive_subproblem(tree, inst)
    assert assert_agrees(tree, interval, holes, inst).ok


# ---------------------------------------------------------------------------
# Known trees
# ---------------------------------------------------------------------------

_EXHIBITS = {
    "fig1": ("fig1", ()),
    "fig2_a": ("I9", (3, 5)),
    "fig2_b": ("I9", (3, 8)),
    "fig3": ("I31", ()),
    "fig4_a": ("I8", (8,)),
    "fig4_b": ("I8", (1,)),
    "fig4_c": ("I8", (1,)),
    "fig5_a": ("I10", (10,)),
    "fig5_b": ("I10", (1,)),
    "fig6": ("I15", (1, 15)),
}


def test_every_exhibit_is_compared():
    assert sorted(bench.EXHIBITS) == sorted(_EXHIBITS)


@pytest.mark.parametrize("name", sorted(_EXHIBITS))
def test_exhibits(name):
    inst_name, holes = _EXHIBITS[name]
    inst = bench._prefix_instance(10) if inst_name == "I10" else bench.build_instance(inst_name).instance
    tree = bench.exhibit(name, inst)
    assert assert_agrees(tree, inst.full_interval(), holes, inst).ok
    assert_agrees_on_own_span(tree, inst)


@pytest.mark.parametrize("seed", range(6))
def test_solver_trees_of_random_instances(seed):
    inst = random_instance(7 + seed % 3, 20, seed)
    full = inst.full_interval()
    for h in range(3):
        results = [hw_solve(inst, full, h), spuler_solve(inst, full, h)]
        for r in results:
            if r.tree is not None:
                assert assert_agrees(r.tree, full, r.holes_in(full), inst).ok
        for oracle in (GbstOracle(inst), TwcstOracle(inst)):
            _, tree, holes = oracle.opt_star(full, h)
            if tree is not None:
                assert assert_agrees(tree, full, holes, inst).ok


# ---------------------------------------------------------------------------
# Drawn trees, valid and mutated
# ---------------------------------------------------------------------------

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


def _key(node) -> int:
    return node.eq if isinstance(node, GbstNode) else node.key


def _with_key(node, key: int):
    return dataclasses.replace(node, **{"eq" if isinstance(node, GbstNode) else "key": key})


@st.composite
def _mutated(draw, tree, n: int):
    """*tree* after one edit: swapped keys, a foreign, out-of-range or
    duplicate key, a foreign or missing split key (children kept), a
    flipped comparison, or a subtree dropped or grafted elsewhere (which
    puts other trees under an ``=`` test's yes branch)."""
    spots = _positions(tree)
    path, node = draw(st.sampled_from(spots))
    edit = draw(st.sampled_from(["swap", "key", "split", "drop", "graft"]))
    if edit == "swap":
        other_path, other = draw(st.sampled_from(spots))
        tree = model.replace_subtree(tree, path, _with_key(node, _key(other)))
        return model.replace_subtree(tree, other_path, _with_key(other, _key(node)))
    if edit == "key":
        return model.replace_subtree(tree, path, _with_key(node, draw(st.integers(0, n + 1))))
    if edit == "split" and isinstance(node, GbstNode):
        split = draw(st.none() | st.integers(0, n + 1))
        return model.replace_subtree(tree, path, dataclasses.replace(node, split=split))
    if edit == "split" and isinstance(node, Cmp):
        return model.replace_subtree(tree, path, dataclasses.replace(node, op=LT if node.op == EQ else EQ))
    if edit == "drop" and path and isinstance(node, GbstNode):
        return model.replace_subtree(tree, path, None)
    if edit == "drop" and path:
        return model.replace_subtree(tree, path, Leaf(draw(st.integers(1, n))))
    if edit == "graft" and path:
        return model.replace_subtree(tree, path, draw(st.sampled_from(spots))[1])
    return tree


@st.composite
def _case(draw):
    n = draw(st.integers(1, 9))
    inst = Instance(tuple(f"K{k}" for k in range(1, n + 1)),
                    tuple(draw(st.lists(st.integers(0, 30), min_size=n, max_size=n))))
    keys = sorted(draw(st.sets(st.integers(1, n), min_size=1)))
    tree = draw(_twcst(keys) if draw(st.booleans()) else _gbst(keys, n))
    for _ in range(draw(st.integers(0, 2))):
        tree = draw(_mutated(tree, n))
    if draw(st.booleans()):
        # The keys the tree should place: its span, less some holes.
        i, j = min(keys), max(keys)
    else:
        i = draw(st.integers(1, n + 1))
        j = draw(st.integers(i - 1, n))
    holes = draw(st.sets(st.sampled_from(range(i, j + 1)))) if i <= j else set()
    if draw(st.booleans()) and i <= j:
        holes = {k for k in range(i, j + 1) if k not in keys}
    return inst, tree, Interval(i, j), tuple(sorted(holes))


@settings(max_examples=1500, deadline=None)
@given(_case())
def test_drawn_trees(case):
    inst, tree, interval, holes = case
    assert_agrees(tree, interval, holes, inst)


# Invalid trees of each kind the walk must catch, on three keys.
_I3 = Instance(("A", "B", "C"), (1, 2, 3))
_INVALID = {
    "swapped keys": GbstNode(2, split=2, left=GbstNode(3), right=GbstNode(1)),
    "foreign split key": GbstNode(2, split=4, left=GbstNode(1), right=GbstNode(3)),
    "split-less node with children": GbstNode(2, split=None, left=GbstNode(1), right=GbstNode(3)),
    "split-less node below a misroute": GbstNode(1, split=3, left=GbstNode(3, right=GbstNode(2))),
    "duplicate equality key": GbstNode(2, split=2, left=GbstNode(1), right=GbstNode(1)),
    "= yes branch not its leaf": Cmp(EQ, 1, yes=Leaf(2), no=Cmp(LT, 3, yes=Leaf(1), no=Leaf(3))),
    "= yes branch a subtree": Cmp(EQ, 2, yes=Cmp(LT, 2, yes=Leaf(1), no=Leaf(2)), no=Leaf(3)),
    "= no branch holding its key": Cmp(EQ, 1, yes=Leaf(1), no=Cmp(EQ, 3, yes=Leaf(3), no=Leaf(1))),
    "< branches swapped": Cmp(LT, 2, yes=Leaf(2), no=Leaf(1)),
    "duplicate leaf key": Cmp(LT, 2, yes=Leaf(1), no=Leaf(1)),
}


@pytest.mark.parametrize("name", sorted(_INVALID))
def test_invalid_trees(name):
    tree = _INVALID[name]
    for holes in ((), (1,), (2,), (3,)):
        assert not assert_agrees(tree, Interval(1, 3), holes, _I3).ok


@pytest.mark.parametrize("tree", [
    Cmp(EQ, 1, yes=None, no=Leaf(2)),
    Cmp(LT, 2, yes=Leaf(1), no=GbstNode(2)),
    GbstNode(1, split=2, right=Leaf(2)),
    "A",
])
def test_node_of_neither_family_raises(tree):
    for fn in (model.tree_cost, model.tree_weight):
        with pytest.raises(TypeError):
            fn(tree, _I3)
    with pytest.raises(TypeError):
        model.validate(tree, Interval(1, 2), (), _I3)


@pytest.mark.parametrize("tree", [GbstNode(4), GbstNode(1, split=1, right=GbstNode(0)), Leaf(4),
                                  Cmp(LT, 2, yes=Leaf(-1), no=Leaf(2))])
def test_keys_out_of_range(tree):
    for fn in (model.tree_cost, model.tree_weight):
        with pytest.raises(ValueError, match="out of range"):
            fn(tree, _I3)
    assert not assert_agrees(tree, Interval(1, 3), (), _I3).ok


def test_empty_gbst():
    assert assert_agrees(None, Interval(2, 3), (2, 3), _I3).ok
    assert not assert_agrees(None, Interval(2, 3), (2,), _I3).ok


# ---------------------------------------------------------------------------
# Depth: one pass, no per-key search
# ---------------------------------------------------------------------------

def _chain(n: int) -> GbstNode:
    """Node k tests key k and sends every larger key right, under split k+1."""
    tree = GbstNode(n)
    for k in range(n - 1, 0, -1):
        tree = GbstNode(k, split=k + 1, right=tree)
    return tree


def _cascade(n: int) -> Cmp:
    tree = Leaf(n)
    for k in range(n - 1, 0, -1):
        tree = Cmp(EQ, k, yes=Leaf(k), no=tree)
    return tree


def _deep_instance(n: int) -> Instance:
    return Instance(tuple(f"K{k:05d}" for k in range(1, n + 1)), tuple(k % 5 for k in range(n)))


@pytest.mark.parametrize("build", [_chain, _cascade])
def test_1500_deep(build):
    inst = _deep_instance(1500)
    tree = build(1500)
    assert_agrees_on_own_span(tree, inst)
    assert not assert_agrees(tree, inst.full_interval(), (750,), inst).ok
    if build is _chain:
        # A split-less node halfway down strands every key below it.
        node = tree
        for _ in range(700):
            node = node.right
        broken = model.replace_subtree(tree, "R" * 700, dataclasses.replace(node, split=None))
        verdict = assert_agrees(broken, inst.full_interval(), (), inst)
        assert verdict.violations[0] == "search for 702 stuck at node 701 (no split key)"
        assert len(verdict.violations) == 1500 - 701


def test_20000_deep_validate_and_cost_are_linear():
    n = 20_000
    inst = _deep_instance(n)
    trees = (_chain(n), _cascade(n))
    start = time.perf_counter()
    for tree in trees:
        assert model.validate(tree, inst.full_interval(), (), inst).ok
        assert model.tree_cost(tree, inst) > 0
    assert time.perf_counter() - start < 2.0
