"""Core model: parsing, cost evaluators, validity (which implies the order
property), surgery."""
import re

import pytest
from hypothesis import given, strategies as st

from cstlab.model import (
    EQ,
    LT,
    Cmp,
    GbstNode,
    Instance,
    Interval,
    Leaf,
    ParseError,
    format_instance,
    parse_instance,
    replace_subtree,
    tree_cost,
    tree_weight,
    validate,
)

I9 = Instance(
    ("A1", "A2", "A3", "B0", "B4", "C0", "D0", "D1", "E0"),
    (20, 20, 20, 10, 20, 5, 10, 22, 10),
)


def t2a():
    N = GbstNode
    return N(
        2,
        split=7,
        left=N(1, split=6, left=N(4), right=N(6)),
        right=N(8, split=9, left=N(7), right=N(9)),
    )


def fig1():
    inst = Instance(("A", "B", "C", "D", "E", "F"), (1, 2, 3, 1, 2, 1))
    N = GbstNode
    tree = N(
        3,
        split=4,
        left=N(2, split=2, left=N(1)),
        right=N(5, split=6, left=N(4), right=N(6)),
    )
    return inst, tree


class TestParseInstance:
    def test_basic(self):
        inst = parse_instance("A 3\nB 2\nC 1")
        assert inst.n == 3
        assert inst.weights == (3, 2, 1)

    def test_paper_table(self):
        text = "\n".join(
            f"{lab} {w}" for lab, w in zip(I9.labels, I9.weights)
        )
        inst = parse_instance(text)
        assert inst.weights == (20, 20, 20, 10, 20, 5, 10, 22, 10)

    def test_duplicate_label(self):
        with pytest.raises(ParseError, match="line 2.*duplicate"):
            parse_instance("A 3\nA 2")

    def test_duplicate_label_not_adjacent(self):
        with pytest.raises(ParseError) as err:
            parse_instance("A 1\nB 2\nA 3")
        assert str(err.value) == "line 3: duplicate label 'A'"

    def test_out_of_order(self):
        with pytest.raises(ParseError, match="out of order"):
            parse_instance("B 1\nA 2")

    def test_numeric_labels_natural_order(self):
        inst = parse_instance("2 1\n10 4")
        assert inst.labels == ("2", "10")

    def test_negative_weight(self):
        with pytest.raises(ParseError, match="line 1.*negative"):
            parse_instance("A -1")

    def test_non_integer_weight(self):
        with pytest.raises(ParseError, match="non-integer"):
            parse_instance("A 1.5")

    @pytest.mark.parametrize("weight", ["1_000", "+5", "\u0663", "\uff13", "-"])
    def test_weight_must_be_ascii_digits(self, weight):
        with pytest.raises(ParseError, match=re.escape(f"line 2: non-integer weight {weight!r}")):
            parse_instance(f"A 1\nB {weight}\n")

    def test_negative_weight_named_as_written(self):
        with pytest.raises(ParseError, match="line 1: negative weight -0"):
            parse_instance("A -0")

    @pytest.mark.parametrize("weight", ["007", "00", "01"])
    def test_leading_zero_weight_rejected(self, weight):
        with pytest.raises(ParseError, match=re.escape(f"line 2: leading zero in weight {weight!r}")):
            parse_instance(f"A 1\nB {weight}\n")

    def test_zero_weight_accepted(self):
        assert parse_instance("A 0\nB 10\n").weights == (0, 10)

    def test_malformed_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_instance("A 1\nB")

    def test_empty(self):
        with pytest.raises(ParseError, match="no key lines"):
            parse_instance("# only a comment\n")

    def test_comments_and_blanks(self):
        inst = parse_instance("# header\n\nA 1\n# mid\nB 2\n")
        assert inst.n == 2

    @given(
        st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=30)
    )
    def test_format_round_trip(self, weights):
        inst = Instance(tuple(f"K{i:02d}" for i in range(1, len(weights) + 1)), weights)
        assert parse_instance(format_instance(inst)) == inst


class TestKeyAccessors:
    INST = Instance(("a", "b", "c"), (1, 2, 30))

    @pytest.mark.parametrize("key", [0, -1, 4])
    @pytest.mark.parametrize("accessor", ["weight", "label"])
    def test_key_outside_the_instance(self, accessor, key):
        with pytest.raises(ValueError, match=re.escape(f"key {key} out of range 1..3")):
            getattr(self.INST, accessor)(key)


class TestGbstCost:
    def test_fig1_scaled(self):
        inst, tree = fig1()
        assert tree_cost(tree, inst) == 20

    def test_single_node(self):
        inst = Instance(("A",), (7,))
        assert tree_cost(GbstNode(1), inst) == 7

    def test_t2a(self):
        assert tree_cost(t2a(), I9) == 209
        assert tree_weight(t2a(), I9) == 97

    def test_empty(self):
        assert tree_cost(None, I9) == 0

    def test_recursive_identity(self):
        tree = t2a()
        assert tree_cost(tree, I9) == (
            tree_weight(tree, I9) + tree_cost(tree.left, I9) + tree_cost(tree.right, I9)
        )

    def test_key_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            tree_cost(GbstNode(10), I9)

    @given(st.integers(min_value=1, max_value=50))
    def test_scaling_linearity(self, c):
        scaled = I9.scaled(c)
        assert tree_cost(t2a(), scaled) == c * 209


class TestGbstValidate:
    def test_t2a_valid(self):
        assert validate(t2a(), I9.full_interval(), (3, 5), I9).ok

    def test_empty_tree_all_holes(self):
        iv = Interval(2, 4)
        assert validate(None, iv, (2, 3, 4), I9).ok

    def test_swapped_keys_invalid(self):
        # B0 (4) and E0 (9) exchanged: searches route to the wrong nodes.
        N = GbstNode
        bad = N(
            2,
            split=7,
            left=N(1, split=6, left=N(9), right=N(6)),
            right=N(8, split=9, left=N(7), right=N(4)),
        )
        verdict = validate(bad, I9.full_interval(), (3, 5), I9)
        assert not verdict.ok
        assert any("search for 4" in v for v in verdict.violations)

    def test_missing_key(self):
        verdict = validate(GbstNode(1), Interval(1, 2), (), I9)
        assert not verdict.ok
        assert any("missing" in v for v in verdict.violations)

    def test_hole_outside_interval_rejected(self):
        with pytest.raises(ValueError, match="contained"):
            validate(None, Interval(1, 2), (5,), I9)

    def test_single_child_routing(self):
        # Child on the right under split = interval start routes everything.
        chain = GbstNode(2, split=1, right=GbstNode(1))
        assert validate(chain, Interval(1, 2), (), I9).ok

    def test_stuck_without_split(self):
        chain = GbstNode(2, split=None, right=GbstNode(1))
        verdict = validate(chain, Interval(1, 2), (), I9)
        assert not verdict.ok
        assert any("no split key" in v for v in verdict.violations)

    def test_repeated_ancestor_key_is_only_a_duplicate(self):
        # Key 2 sits at the root and again below it: the key-set violation
        # is the whole verdict, with no search line for either copy.
        tree = GbstNode(2, split=2, left=GbstNode(1), right=GbstNode(3, split=2, right=GbstNode(2)))
        verdict = validate(tree, Interval(1, 3), (), I9)
        assert verdict.violations == ("duplicate equality key 2",)


class TestTwcstCost:
    I8 = Instance(tuple(f"K{i}" for i in range(1, 9)), (7, 5, 0, 5, 0, 5, 0, 5))

    def test_single_leaf(self):
        assert tree_cost(Leaf(1), self.I8) == 0

    def test_two_leaves(self):
        tree = Cmp(LT, 2, yes=Leaf(1), no=Leaf(2))
        assert tree_cost(tree, self.I8) == 12

    def test_recursive_identity(self):
        tree = Cmp(EQ, 2, yes=Leaf(2), no=Cmp(LT, 4, yes=Leaf(1), no=Leaf(4)))
        assert tree_cost(tree, self.I8) == (
            tree_weight(tree, self.I8)
            + tree_cost(tree.yes, self.I8)
            + tree_cost(tree.no, self.I8)
        )

    def test_key_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            tree_cost(Leaf(99), self.I8)


class TestTwcstValidate:
    I3 = Instance(("A", "B", "C"), (1, 2, 3))

    def test_lone_leaf(self):
        assert validate(Leaf(2), Interval(2, 2), (), self.I3).ok

    def test_valid_pair(self):
        tree = Cmp(LT, 2, yes=Leaf(1), no=Leaf(2))
        assert validate(tree, Interval(1, 2), (), self.I3).ok

    def test_less_yes_branch_violation(self):
        # yes branch of v < 2 holds a key >= 2: key 3 can never reach its leaf.
        tree = Cmp(LT, 2, yes=Leaf(3), no=Leaf(1))
        verdict = validate(tree, Interval(1, 3), (2,), self.I3)
        assert not verdict.ok

    def test_eq_yes_is_leaf_in_valid_trees(self):
        tree = Cmp(EQ, 2, yes=Leaf(2), no=Cmp(LT, 3, yes=Leaf(1), no=Leaf(3)))
        assert validate(tree, Interval(1, 3), (), self.I3).ok
        assert isinstance(tree.yes, Leaf) and tree.yes.key == tree.key

    def test_duplicate_leaf(self):
        tree = Cmp(LT, 2, yes=Leaf(1), no=Leaf(1))
        verdict = validate(tree, Interval(1, 2), (), self.I3)
        assert not verdict.ok
        assert any("duplicate" in v for v in verdict.violations)

    def test_leaf_under_its_own_equality_no_branch(self):
        # The no branch of "= 2" narrows no bounds but excludes key 2.
        tree = Cmp(LT, 3, yes=Cmp(EQ, 2, yes=Leaf(1), no=Leaf(2)), no=Leaf(3))
        verdict = validate(tree, Interval(1, 3), (), self.I3)
        assert verdict.violations == (
            "search for 1 does not reach its leaf",
            "search for 2 does not reach its leaf",
        )


class TestOrderProperty:
    """Every key in a node's left subtree is below every key in its right
    subtree.  ``validate`` enforces it: a split routes the left child's
    searches below it and the right child's at or above it, and below a
    split-less node every search is stuck.  Each tree here is checked for
    its span, the interval of its keys minus the keys it leaves out."""

    def test_t2a_holds(self):
        assert validate(t2a(), I9.full_interval(), (3, 5), I9).ok

    def test_single_node(self):
        assert validate(GbstNode(5), Interval(5, 5), (), I9).ok

    def test_inverted_fails(self):
        bad = GbstNode(1, split=5, left=GbstNode(7), right=GbstNode(4))
        verdict = validate(bad, Interval(1, 7), (2, 3, 5, 6), I9)
        assert verdict.violations == (
            "search for 4 does not reach its node",
            "search for 7 does not reach its node",
        )

    def test_root_key_unconstrained(self):
        # The node's own equality key may exceed its right subtree's keys.
        tree = GbstNode(8, split=2, left=GbstNode(1), right=GbstNode(2))
        assert validate(tree, Interval(1, 8), (3, 4, 5, 6, 7), I9).ok

    def test_empty(self):
        assert validate(None, Interval(1, 0), (), I9).ok


DEEP = 1500  # deeper than Python's default recursion limit of 1000 frames


class TestDeepTrees:
    """Cost and validity checks walk trees of any depth without recursion."""

    INST = Instance(tuple(f"K{k:04d}" for k in range(1, DEEP + 1)),
                    tuple(k % 7 for k in range(1, DEEP + 1)))

    @staticmethod
    def gbst_chain(swap_bottom=False):
        # Node k tests key k and sends every larger key right, under split k+1.
        node = GbstNode(DEEP)
        top = DEEP - 1
        if swap_bottom:
            # The last two keys hang on the wrong sides of their split.
            node = GbstNode(DEEP - 2, split=DEEP, left=GbstNode(DEEP), right=GbstNode(DEEP - 1))
            top = DEEP - 3
        for k in range(top, 0, -1):
            node = GbstNode(k, split=k + 1, right=node)
        return node

    def test_gbst_chain_cost_is_closed_form(self):
        tree = self.gbst_chain()
        # Key k sits at depth k - 1.
        expected = sum(self.INST.weight(k) * k for k in range(1, DEEP + 1))
        assert tree_cost(tree, self.INST) == expected
        assert tree_weight(tree, self.INST) == self.INST.total_weight()

    def test_gbst_chain_verdicts(self):
        full = self.INST.full_interval()
        assert validate(self.gbst_chain(), full, (), self.INST).ok
        verdict = validate(self.gbst_chain(swap_bottom=True), full, (), self.INST)
        assert verdict.violations == (
            f"search for {DEEP - 1} does not reach its node",
            f"search for {DEEP} does not reach its node",
        )

    def test_equality_cascade_cost_is_closed_form(self):
        # Cascade "= 1?", "= 2?", ...; the last leaf shares the deepest test.
        node = Leaf(DEEP)
        for k in range(DEEP - 1, 0, -1):
            node = Cmp(EQ, k, yes=Leaf(k), no=node)
        expected = sum(self.INST.weight(k) * k for k in range(1, DEEP)) + (
            self.INST.weight(DEEP) * (DEEP - 1)
        )
        assert tree_cost(node, self.INST) == expected
        assert tree_weight(node, self.INST) == self.INST.total_weight()
        assert validate(node, self.INST.full_interval(), (), self.INST).ok


class TestReplaceSubtree:
    def test_empty_path_returns_replacement(self):
        assert replace_subtree(t2a(), "", None) is None

    def test_replace_leaf(self):
        tree = replace_subtree(t2a(), "LL", GbstNode(5))
        assert tree.left.left.eq == 5
        assert t2a().left.left.eq == 4  # original untouched

    def test_replace_with_empty(self):
        chain = GbstNode(1, split=1, right=GbstNode(2, split=1, right=GbstNode(3)))
        pruned = replace_subtree(chain, "R", None)
        assert pruned == GbstNode(1, split=1, right=None)

    def test_context_swap_drops_cost_by_one(self):
        # Grandparent B4, parent A3 around the 209-tree: cost 463.  Swapping
        # in the 210-tree and re-keying the root to D1 gives 462.
        import dataclasses

        N = GbstNode
        t2b = N(
            2,
            split=5,
            left=N(1, split=4, right=N(4)),
            right=N(5, split=9, left=N(7, split=7, left=N(6)), right=N(9)),
        )
        ctx_a = N(5, split=1, right=N(3, split=1, right=t2a()))
        assert tree_cost(ctx_a, I9) == 463
        swapped = dataclasses.replace(replace_subtree(ctx_a, "RR", t2b), eq=8)
        assert tree_cost(swapped, I9) == 462
        assert validate(swapped, I9.full_interval(), (), I9).ok

    def test_path_out_of_bounds(self):
        with pytest.raises(IndexError):
            replace_subtree(GbstNode(1), "LL", GbstNode(2))

    def test_bad_step(self):
        with pytest.raises(ValueError, match="bad path step"):
            replace_subtree(GbstNode(1), "X", None)

    def test_twcst_paths(self):
        tree = Cmp(LT, 2, yes=Leaf(1), no=Leaf(2))
        swapped = replace_subtree(tree, "L", Leaf(9))
        assert swapped.yes == Leaf(9)


class TestInstanceInvariants:
    def test_weights_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            Instance(("A",), (-1,))

    @pytest.mark.parametrize("weight", [2.7, 2.0, "3", True])
    def test_weights_must_be_plain_ints(self, weight):
        with pytest.raises(ValueError, match="is not an int"):
            Instance(("A", "B"), (1, weight))

    def test_labels_must_ascend(self):
        with pytest.raises(ValueError):
            Instance(("B", "A"), (1, 2))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            Instance(("A",), (1, 2))

    def test_interval_bounds(self):
        Interval(1, 9).validate_for(9)
        Interval(10, 9).validate_for(9)  # empty but legal
        with pytest.raises(ValueError):
            Interval(0, 3).validate_for(9)
        with pytest.raises(ValueError):
            Interval(1, 10).validate_for(9)

    def test_range_weight(self):
        assert I9.range_weight(1, 9) == 137
        assert I9.range_weight(4, 3) == 0

    def test_every_valid_tree_has_order_property_and_node_count(self):
        from reference_model import gbst_nodes

        # Spot-check with the 209-tree: 7 nodes for 9 keys minus 2 holes.
        tree = t2a()
        assert len(list(gbst_nodes(tree))) == 7
        assert validate(tree, I9.full_interval(), (3, 5), I9).ok


def test_every_module_star_import_resolves():
    """Each name in a module's ``__all__`` exists, so a deletion cannot
    leave a stale export behind, and the package root re-exports none of
    them: its one public name besides the submodules is ``BACKEND``."""
    import pkgutil

    import cstlab

    modules = sorted(info.name for info in pkgutil.iter_modules(cstlab.__path__))
    assert modules == ["bench", "cli", "falsify", "hw", "model", "oracle", "render", "spuler"]
    for name in modules:
        exec(f"from cstlab.{name} import *", {})
    public = {name for name in dir(cstlab) if not name.startswith("_")}
    assert public - set(modules) == {"BACKEND"}
    assert cstlab.BACKEND == "pure"
