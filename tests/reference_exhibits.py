"""The exhibit trees built node by node, as ``cstlab.bench`` built them
before it kept them as tree-file text in ``bench.EXHIBITS``.

``test_exhibits.py`` checks that every parsed exhibit equals the tree
built here, so a slip in the text cannot change a figure unnoticed.
"""
from cstlab.model import EQ, LT, Cmp, GbstNode, Leaf, TwcstTree


def fig1_tree() -> GbstNode:
    """Six keys, balanced; cost 2.0 in probabilities, 20 with weights x10."""
    N = GbstNode
    return N(
        3,
        split=4,
        left=N(2, split=2, left=N(1)),
        right=N(5, split=6, left=N(4), right=N(6)),
    )


def fig2_tree_a() -> GbstNode:
    """Seven nodes for (I9, holes {A3, B4}); cost 209, weight 97."""
    N = GbstNode
    return N(
        2,
        split=7,
        left=N(1, split=6, left=N(4), right=N(6)),
        right=N(8, split=9, left=N(7), right=N(9)),
    )


def fig2_tree_b() -> GbstNode:
    """Seven nodes for (I9, holes {A3, D1}); cost 210, weight 95."""
    N = GbstNode
    return N(
        2,
        split=5,
        left=N(1, split=4, right=N(4)),
        right=N(5, split=9, left=N(7, split=7, left=N(6)), right=N(9)),
    )


def fig2_context(top: int, mid: int, subtree: GbstNode) -> GbstNode:
    """Chain top -> mid -> subtree; a full 9-node tree for I9."""
    return GbstNode(top, split=1, right=GbstNode(mid, split=1, right=subtree))


def fig3_witness_tree() -> GbstNode:
    """31 nodes at cost 1762, one below what the GBST DP returns.

    Depth profile: the weight-22 key at the root, the fourteen weight-20
    keys at depths 1-3, the fifteen weight-10 keys at depth 4, and the
    weight-5 key at depth 5.  The subtree over the leftover I9 keys is
    fig2_tree_b shifted two levels down; the padding blocks sit as balanced
    subtrees.
    """
    N = GbstNode
    block1 = N(
        10,
        split=14,
        left=N(11, split=13, left=N(12), right=N(13)),
        right=N(14, split=16, left=N(15), right=N(16)),
    )
    block2 = N(
        17,
        split=25,
        left=N(
            18,
            split=22,
            left=N(19, split=21, left=N(20), right=N(21)),
            right=N(22, split=24, left=N(23), right=N(24)),
        ),
        right=N(
            25,
            split=29,
            left=N(26, split=28, left=N(27), right=N(28)),
            right=N(29, split=31, left=N(30), right=N(31)),
        ),
    )
    left = N(3, split=10, left=fig2_tree_b(), right=block1)
    return N(8, split=17, left=left, right=block2)


def fig4_tree_a() -> TwcstTree:
    """Optimal for (I8, 1): holes {8}, cost 49, weight 22."""
    return Cmp(
        LT,
        3,
        yes=Cmp(EQ, 1, yes=Leaf(1), no=Leaf(2)),
        no=Cmp(
            EQ,
            4,
            yes=Leaf(4),
            no=Cmp(
                EQ,
                6,
                yes=Leaf(6),
                no=Cmp(
                    LT,
                    4,
                    yes=Leaf(3),
                    no=Cmp(LT, 6, yes=Leaf(5), no=Leaf(7)),
                ),
            ),
        ),
    )


def fig4_tree_b() -> TwcstTree:
    """Cheapest without the weight-7 key: holes {1}, cost 50, weight 20."""
    return Cmp(
        EQ,
        2,
        yes=Leaf(2),
        no=Cmp(
            EQ,
            4,
            yes=Leaf(4),
            no=Cmp(
                EQ,
                6,
                yes=Leaf(6),
                no=Cmp(
                    EQ,
                    8,
                    yes=Leaf(8),
                    no=Cmp(
                        LT,
                        4,
                        yes=Leaf(3),
                        no=Cmp(LT, 6, yes=Leaf(5), no=Leaf(7)),
                    ),
                ),
            ),
        ),
    )


def fig4_tree_c() -> TwcstTree:
    """A second, structurally different tree at cost 50, weight 20."""
    return Cmp(
        LT,
        5,
        yes=Cmp(EQ, 2, yes=Leaf(2), no=Cmp(EQ, 4, yes=Leaf(4), no=Leaf(3))),
        no=Cmp(
            EQ,
            6,
            yes=Leaf(6),
            no=Cmp(EQ, 8, yes=Leaf(8), no=Cmp(LT, 6, yes=Leaf(5), no=Leaf(7))),
        ),
    )


def fig5_tree_a() -> TwcstTree:
    """Optimal with five positive queries: (I10, holes {10}), cost 69, weight 27."""
    return Cmp(
        LT,
        3,
        yes=Cmp(EQ, 1, yes=Leaf(1), no=Leaf(2)),
        no=Cmp(
            EQ,
            4,
            yes=Leaf(4),
            no=Cmp(
                EQ,
                6,
                yes=Leaf(6),
                no=Cmp(
                    EQ,
                    8,
                    yes=Leaf(8),
                    no=Cmp(
                        LT,
                        4,
                        yes=Leaf(3),
                        no=Cmp(
                            LT,
                            6,
                            yes=Leaf(5),
                            no=Cmp(LT, 8, yes=Leaf(7), no=Leaf(9)),
                        ),
                    ),
                ),
            ),
        ),
    )


def fig5_tree_b() -> TwcstTree:
    """Five weight-5 queries, no weight-7: (I10, holes {1}), cost 70, weight 25."""
    return Cmp(
        LT,
        5,
        yes=Cmp(EQ, 2, yes=Leaf(2), no=Cmp(EQ, 4, yes=Leaf(4), no=Leaf(3))),
        no=Cmp(
            EQ,
            6,
            yes=Leaf(6),
            no=Cmp(
                EQ,
                8,
                yes=Leaf(8),
                no=Cmp(
                    EQ,
                    10,
                    yes=Leaf(10),
                    no=Cmp(
                        LT,
                        6,
                        yes=Leaf(5),
                        no=Cmp(LT, 8, yes=Leaf(7), no=Leaf(9)),
                    ),
                ),
            ),
        ),
    )


def fig6_witness_tree() -> TwcstTree:
    """(I15, holes {1, 15}) at cost 115; left subtree is fig4_tree_c."""
    right = Cmp(
        EQ,
        10,
        yes=Leaf(10),
        no=Cmp(
            EQ,
            12,
            yes=Leaf(12),
            no=Cmp(
                EQ,
                14,
                yes=Leaf(14),
                no=Cmp(LT, 11, yes=Leaf(9), no=Cmp(LT, 13, yes=Leaf(11), no=Leaf(13))),
            ),
        ),
    )
    return Cmp(LT, 9, yes=fig4_tree_c(), no=right)
