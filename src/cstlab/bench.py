"""Canned counterexample instances and the checks that reproduce every
published number about them.

The instances:

* ``fig1`` — the six-key introductory example (decimal weights scaled by
  ten so that all costs stay integral).
* ``I9``   — nine keys whose (interval, 2-holes) subproblem lacks optimal
  substructure for the GBST dynamic program.
* ``I31``  — I9 plus two neutral padding blocks of 7 and 15 keys, each
  admitting a self-contained balanced optimal subtree; the full instance on
  which the GBST DP returns cost 1763 while a valid tree of cost 1762
  exists.
* ``I8`` / ``I15`` — the symmetric 7-5-0 weight patterns on which the
  2WCST DP solves the (I15, 2) subproblem at 116 while the optimum is 115.

Exhibit trees are frozen reconstructions: any valid tree achieving the
published cost and weight serves, and every construction below is
validated and cost-checked by the verify procedures.  All checks are exact
integer comparisons.
"""
from __future__ import annotations

import dataclasses
from collections import Counter
from dataclasses import dataclass

from .falsify import TWCST, audit_subproblems, random_instance
from .hw import hw_solve
from .model import (
    EQ,
    LT,
    Cmp,
    GbstNode,
    Instance,
    Interval,
    Leaf,
    TwcstTree,
    gbst_cost,
    gbst_validate,
    gbst_weight,
    replace_subtree,
    twcst_cost,
    twcst_validate,
    twcst_weight,
)
from .oracle import (
    GbstOracle,
    TwcstOracle,
    depth_bound_violations,
    depth_seq,
    placement_lower_bound,
)
from .spuler import spuler_solve

__all__ = [
    "Check",
    "Report",
    "NamedInstance",
    "INSTANCE_NAMES",
    "build_instance",
    "positive_key_count",
    "fig1_tree",
    "fig2_tree_a",
    "fig2_tree_b",
    "fig2_context",
    "fig3_witness_tree",
    "fig4_tree_a",
    "fig4_tree_b",
    "fig4_tree_c",
    "fig5_tree_a",
    "fig5_tree_b",
    "fig6_witness_tree",
    "verify_figures",
    "verify_theorem1",
    "verify_theorem2",
    "verify_depth_lemma",
    "verify_all",
]


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Check:
    name: str
    expected: int
    actual: int

    @property
    def passed(self) -> bool:
        return self.expected == self.actual

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{self.name}: expected={self.expected} actual={self.actual} status={status}"


@dataclass(frozen=True)
class Report:
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        return [c.line() for c in self.checks]

    def __add__(self, other: "Report") -> "Report":
        return Report(self.checks + other.checks)


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------

_I9_LABELS = ("A1", "A2", "A3", "B0", "B4", "C0", "D0", "D1", "E0")
_I9_WEIGHTS = (20, 20, 20, 10, 20, 5, 10, 22, 10)

# Padding blocks appended to I9.  Label text is free; the constraints are
# the weight multiset {22:1, 20:14, 10:15, 5:1}, total 457, a weight-10
# twelfth key, and that each block alone has a balanced optimal tree
# (verified against the oracle in verify_theorem1).
_BLOCK1_WEIGHTS = (20, 20, 10, 10, 20, 10, 10)
_BLOCK2_WEIGHTS = (20, 20, 20, 10, 10, 20, 10, 10, 20, 20, 10, 10, 20, 10, 10)
_I31_LABELS = (
    _I9_LABELS
    + tuple(f"F{k}" for k in range(7))
    + tuple(f"G{k}" for k in range(9))
    + tuple(f"H{k}" for k in range(6))
)
_I31_WEIGHTS = _I9_WEIGHTS + _BLOCK1_WEIGHTS + _BLOCK2_WEIGHTS

_I15_WEIGHTS = (7, 5, 0, 5, 0, 5, 0, 5, 0, 5, 0, 5, 0, 5, 7)

_FIG1_LABELS = ("A", "B", "C", "D", "E", "F")
_FIG1_WEIGHTS = (1, 2, 3, 1, 2, 1)

INSTANCE_NAMES = ("fig1", "I9", "I31", "I8", "I15")


@dataclass(frozen=True)
class NamedInstance:
    name: str
    instance: Instance
    interval: Interval
    holes: int


def _labels(n: int) -> tuple[str, ...]:
    return tuple(f"K{k:02d}" for k in range(1, n + 1))


def build_instance(name: str) -> NamedInstance:
    """Construct a canned instance; checksums are enforced here."""
    if name == "fig1":
        inst = Instance(_FIG1_LABELS, _FIG1_WEIGHTS)
        named = NamedInstance(name, inst, inst.full_interval(), 0)
    elif name == "I9":
        inst = Instance(_I9_LABELS, _I9_WEIGHTS)
        _require(sum(inst.weights) == 137, "I9 weight sum must be 137")
        named = NamedInstance(name, inst, inst.full_interval(), 2)
    elif name == "I31":
        inst = Instance(_I31_LABELS, _I31_WEIGHTS)
        _require(inst.weights[:9] == _I9_WEIGHTS, "I31 must start with I9")
        _require(sum(inst.weights) == 457, "I31 weight sum must be 457")
        _require(
            Counter(inst.weights) == {22: 1, 20: 14, 10: 15, 5: 1},
            "I31 weight multiset mismatch",
        )
        _require(inst.weights[11] == 10, "twelfth key of I31 must have weight 10")
        named = NamedInstance(name, inst, inst.full_interval(), 0)
    elif name == "I8":
        inst = Instance(_labels(8), _I15_WEIGHTS[:8])
        named = NamedInstance(name, inst, inst.full_interval(), 1)
    elif name == "I15":
        inst = Instance(_labels(15), _I15_WEIGHTS)
        _require(sum(inst.weights) == 49, "I15 weight sum must be 49")
        named = NamedInstance(name, inst, inst.full_interval(), 2)
    else:
        raise KeyError(f"unknown instance name {name!r}")
    return named


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise AssertionError(f"instance checksum failed: {message}")


def _prefix_instance(length: int) -> Instance:
    """First *length* keys of the I15 weight pattern."""
    if not 1 <= length <= 15:
        raise ValueError("prefix length must be in 1..15")
    return Instance(_labels(length), _I15_WEIGHTS[:length])


def positive_key_count(length: int) -> int:
    """Number of positive-weight keys among the first *length* I15 keys."""
    if not 1 <= length <= 14:
        raise ValueError("defined for prefixes of length 1..14")
    return 1 + length // 2


# ---------------------------------------------------------------------------
# Exhibit trees
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# Verification procedures
# ---------------------------------------------------------------------------

def verify_figures() -> Report:
    """Reproduce every figure tree's cost, weight, and validity."""
    checks: list[Check] = []
    add = checks.append

    fig1 = build_instance("fig1").instance
    t1 = fig1_tree()
    add(Check("fig1.tree.cost", 20, gbst_cost(t1, fig1)))
    add(Check("fig1.tree.valid", 1, int(bool(gbst_validate(t1, fig1.full_interval(), (), fig1)))))

    i9 = build_instance("I9").instance
    iv9 = i9.full_interval()
    t2a, t2b = fig2_tree_a(), fig2_tree_b()
    add(Check("fig2.T_a.cost", 209, gbst_cost(t2a, i9)))
    add(Check("fig2.T_a.weight", 97, gbst_weight(t2a, i9)))
    add(Check("fig2.T_a.valid", 1, int(bool(gbst_validate(t2a, iv9, (3, 5), i9)))))
    add(Check("fig2.T_b.cost", 210, gbst_cost(t2b, i9)))
    add(Check("fig2.T_b.weight", 95, gbst_weight(t2b, i9)))
    add(Check("fig2.T_b.valid", 1, int(bool(gbst_validate(t2b, iv9, (3, 8), i9)))))
    add(Check("fig2.weight_delta", 2, gbst_weight(t2a, i9) - gbst_weight(t2b, i9)))

    # The exchange: T_a under grandparent B4 and parent A3 costs 463; putting
    # T_b there instead (ancestors re-keyed to D1 and A3) costs 462.
    ctx_a = fig2_context(5, 3, t2a)
    ctx_b = fig2_context(8, 3, t2b)
    add(Check("fig2.context_a.cost", 463, gbst_cost(ctx_a, i9)))
    add(Check("fig2.context_a.valid", 1, int(bool(gbst_validate(ctx_a, iv9, (), i9)))))
    add(Check("fig2.context_b.cost", 462, gbst_cost(ctx_b, i9)))
    add(Check("fig2.context_b.valid", 1, int(bool(gbst_validate(ctx_b, iv9, (), i9)))))
    add(Check("fig2.replacement.delta", -1, gbst_cost(ctx_b, i9) - gbst_cost(ctx_a, i9)))
    swapped = dataclasses.replace(replace_subtree(ctx_a, "RR", t2b), eq=8)
    add(Check("fig2.replacement.rekeyed_matches", 1, int(swapped == ctx_b)))

    i8 = build_instance("I8").instance
    iv8 = i8.full_interval()
    t4a, t4b, t4c = fig4_tree_a(), fig4_tree_b(), fig4_tree_c()
    add(Check("fig4.T_a.cost", 49, twcst_cost(t4a, i8)))
    add(Check("fig4.T_a.weight", 22, twcst_weight(t4a, i8)))
    add(Check("fig4.T_a.valid", 1, int(bool(twcst_validate(t4a, iv8, (8,), i8)))))
    add(Check("fig4.T_b.cost", 50, twcst_cost(t4b, i8)))
    add(Check("fig4.T_b.weight", 20, twcst_weight(t4b, i8)))
    add(Check("fig4.T_b.valid", 1, int(bool(twcst_validate(t4b, iv8, (1,), i8)))))
    add(Check("fig4.T_c.cost", 50, twcst_cost(t4c, i8)))
    add(Check("fig4.T_c.weight", 20, twcst_weight(t4c, i8)))
    add(Check("fig4.T_c.valid", 1, int(bool(twcst_validate(t4c, iv8, (1,), i8)))))
    add(Check("fig4.T_b_distinct_from_T_c", 1, int(t4b != t4c)))

    i10 = _prefix_instance(10)
    iv10 = i10.full_interval()
    t5a, t5b = fig5_tree_a(), fig5_tree_b()
    add(Check("fig5.T_a.cost", 69, twcst_cost(t5a, i10)))
    add(Check("fig5.T_a.weight", 27, twcst_weight(t5a, i10)))
    add(Check("fig5.T_a.valid", 1, int(bool(twcst_validate(t5a, iv10, (10,), i10)))))
    add(Check("fig5.T_b.cost", 70, twcst_cost(t5b, i10)))
    add(Check("fig5.T_b.weight", 25, twcst_weight(t5b, i10)))
    add(Check("fig5.T_b.valid", 1, int(bool(twcst_validate(t5b, iv10, (1,), i10)))))

    return Report(tuple(checks))


def verify_theorem1() -> Report:
    """The GBST DP is beaten by an explicit witness on I31."""
    checks: list[Check] = []
    add = checks.append

    i31 = build_instance("I31").instance
    full = i31.full_interval()
    hw_cost = hw_solve(i31, full, 0).cost
    add(Check("thm1.hw.cost", 1763, hw_cost))

    witness = fig3_witness_tree()
    add(Check("thm1.witness.cost", 1762, gbst_cost(witness, i31)))
    add(Check("thm1.witness.valid", 1, int(bool(gbst_validate(witness, full, (), i31)))))
    add(Check("thm1.placement", 1757, placement_lower_bound(i31)))

    oracle = GbstOracle(i31)
    add(Check("thm1.hw_I9.cost", 209, hw_solve(i31, Interval(1, 9), 2).cost))
    add(Check("thm1.oracle_I9.cost", 209, oracle.opt_star_cost(Interval(1, 9), 2)))

    # The padding blocks must be neutral: their balanced trees are optimal,
    # which the key-placement bound pins exactly.
    add(Check("thm1.block1.opt", 220, oracle.opt_cost(Interval(10, 16))))
    add(Check("thm1.block2.opt", 660, oracle.opt_cost(Interval(17, 31))))

    add(Check("thm1.nonoptimal", 1, int(hw_cost > gbst_cost(witness, i31))))
    return Report(tuple(checks))


def verify_theorem2() -> Report:
    """The 2WCST DP mis-solves the (I15, 2) subproblem: 116 versus 115."""
    checks: list[Check] = []
    add = checks.append

    i15 = build_instance("I15").instance
    full = i15.full_interval()
    add(Check("thm2.spuler.cost", 116, spuler_solve(i15, full, 2).cost))

    oracle = TwcstOracle(i15)
    cost, tree, holes = oracle.opt_star(full, 2)
    add(Check("thm2.oracle.cost", 115, cost))
    add(Check("thm2.oracle.valid", 1, int(bool(twcst_validate(tree, full, holes, i15)))))

    witness = fig6_witness_tree()
    add(Check("thm2.witness.cost", 115, twcst_cost(witness, i15)))
    add(Check("thm2.witness.valid", 1, int(bool(twcst_validate(witness, full, (1, 15), i15)))))

    bad_cells = audit_subproblems(TWCST, i15)
    add(Check("thm2.bad_cell.exists", 1, int(len(bad_cells) >= 1)))
    return Report(tuple(checks))


def verify_depth_lemma(m_max: int = 6, trials: int = 40, seed: int = 1) -> Report:
    """Depth-sequence values, the 4- and 5-query subproblem constants, and
    randomized depth-bound checks on oracle-optimal trees."""
    if m_max > 6:
        raise ValueError("depth-bound checks are calibrated for m_max <= 6")
    checks: list[Check] = []
    add = checks.append

    seqs = depth_seq(6)
    for m, expected in enumerate((0, 3, 6, 10, 14, 18), 1):
        add(Check(f"depth.d{m}", expected, seqs.d_at(m)))
    for m, expected in enumerate((0, 2, 6, 9, 13, 18), 1):
        add(Check(f"depth.e{m}", expected, seqs.e_at(m)))

    # Any prefix subproblem with exactly four positive queries is optimally
    # solved at cost 49 / weight 22; with five, at 69 / 27.
    for target, cost_w in ((4, (49, 22)), (5, (69, 27))):
        for length in range(1, 15):
            holes = positive_key_count(length) - target
            if holes < 0:
                continue
            inst = _prefix_instance(length)
            oracle = TwcstOracle(inst)
            cost, tree, _ = oracle.opt_star(inst.full_interval(), holes)
            tag = f"lemmaT{target}.I{length}.h{holes}"
            add(Check(f"{tag}.cost", cost_w[0], cost))
            add(Check(f"{tag}.weight", cost_w[1], twcst_weight(tree, inst)))

    violations = 0
    for t in range(trials):
        inst = random_instance(4 + t % 5, 8, seed + t)
        oracle = TwcstOracle(inst)
        full = inst.full_interval()
        for h in range(min(3, inst.n)):
            _, tree, _ = oracle.opt_star(full, h)
            violations += len(depth_bound_violations(tree, seqs, m_max))
    add(Check("depth.random.violations", 0, violations))
    return Report(tuple(checks))


def verify_all(seed: int = 1) -> Report:
    return (
        verify_figures()
        + verify_theorem1()
        + verify_theorem2()
        + verify_depth_lemma(seed=seed)
    )
