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

Exhibit trees are frozen reconstructions, kept in ``EXHIBITS`` as tree files
that ``cstlab render --tree`` reads: any valid tree achieving the published
cost and weight serves, and the verify procedures parse, validate and
cost-check every one.  All checks are exact integer comparisons.
"""
from __future__ import annotations

import dataclasses
from collections import Counter
from dataclasses import dataclass

from .falsify import TWCST, audit_subproblems, random_instance
from .hw import hw_solve
from .model import (
    GbstNode,
    Instance,
    Interval,
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
from .render import parse_tree_file
from .spuler import spuler_solve

__all__ = [
    "Check",
    "Report",
    "NamedInstance",
    "INSTANCE_NAMES",
    "build_instance",
    "positive_key_count",
    "EXHIBITS",
    "exhibit",
    "fig2_context",
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


def _labels(n: int) -> tuple[str, ...]:
    return tuple(f"K{k:02d}" for k in range(1, n + 1))


def build_instance(name: str) -> NamedInstance:
    """Construct a canned instance; checksums are enforced here."""
    if name == "fig1":
        inst = Instance(_FIG1_LABELS, _FIG1_WEIGHTS)
    elif name == "I9":
        inst = Instance(_I9_LABELS, _I9_WEIGHTS)
        _require(sum(inst.weights) == 137, "I9 weight sum must be 137")
    elif name == "I31":
        inst = Instance(_I31_LABELS, _I31_WEIGHTS)
        _require(inst.weights[:9] == _I9_WEIGHTS, "I31 must start with I9")
        _require(sum(inst.weights) == 457, "I31 weight sum must be 457")
        _require(
            Counter(inst.weights) == {22: 1, 20: 14, 10: 15, 5: 1},
            "I31 weight multiset mismatch",
        )
        _require(inst.weights[11] == 10, "twelfth key of I31 must have weight 10")
    elif name == "I8":
        inst = Instance(_labels(8), _I15_WEIGHTS[:8])
    elif name == "I15":
        inst = Instance(_labels(15), _I15_WEIGHTS)
        _require(sum(inst.weights) == 49, "I15 weight sum must be 49")
    else:
        raise KeyError(f"unknown instance name {name!r}")
    return NamedInstance(name, inst)


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

# Each exhibit is a complete tree file in the grammar ``cstlab render --tree``
# reads: the model tag line, then the preorder expression, with the labels of
# the instance the exhibit is checked against.  fig3 contains fig2_b, and fig6
# contains fig4_c.
_FIG2_B = "(A2:B4 (A1:B0 . B0) (B4:E0 (D0:D0 C0 .) E0))"
_FIG4_C = "(<K05 (=K02 K02 (=K04 K04 K03)) (=K06 K06 (=K08 K08 (<K06 K05 K07))))"

EXHIBITS: dict[str, str] = {
    # fig1: six keys, balanced; cost 2.0 in probabilities, 20 with weights x10.
    "fig1": "gbsplit\n(C:D (B:B A .) (E:F D F))\n",
    # I9: seven nodes for holes {A3, B4}; cost 209, weight 97.
    "fig2_a": "gbsplit\n(A2:D0 (A1:C0 B0 C0) (D1:E0 D0 E0))\n",
    # I9: seven nodes for holes {A3, D1}; cost 210, weight 95.
    "fig2_b": f"gbsplit\n{_FIG2_B}\n",
    # I31: 31 nodes at cost 1762, one below what the GBST DP returns.  The
    # weight-22 key is at the root, the fourteen weight-20 keys at depths
    # 1-3, the fifteen weight-10 keys at depth 4 and the weight-5 key at
    # depth 5.  The subtree over the leftover I9 keys is fig2_b two levels
    # down; the padding blocks sit as balanced subtrees.
    "fig3": (
        "gbsplit\n"
        "(D1:G0\n"
        f"  (A3:F0 {_FIG2_B} (F0:F4 (F1:F3 F2 F3) (F4:F6 F5 F6)))\n"
        "  (G0:G8 (G1:G5 (G2:G4 G3 G4) (G5:G7 G6 G7)) (G8:H3 (H0:H2 H1 H2) (H3:H5 H4 H5))))\n"
    ),
    # I8: optimal for (I8, 1) with holes {K08}; cost 49, weight 22.
    "fig4_a": "twcst\n(<K03 (=K01 K01 K02) (=K04 K04 (=K06 K06 (<K04 K03 (<K06 K05 K07)))))\n",
    # I8: cheapest without the weight-7 key, holes {K01}; cost 50, weight 20.
    "fig4_b": "twcst\n(=K02 K02 (=K04 K04 (=K06 K06 (=K08 K08 (<K04 K03 (<K06 K05 K07))))))\n",
    # I8: a second, structurally different tree at cost 50, weight 20.
    "fig4_c": f"twcst\n{_FIG4_C}\n",
    # I10 (the first ten I15 keys): optimal with five positive queries,
    # holes {K10}; cost 69, weight 27.
    "fig5_a": (
        "twcst\n"
        "(<K03 (=K01 K01 K02) (=K04 K04 (=K06 K06 (=K08 K08 (<K04 K03 (<K06 K05 (<K08 K07 K09)))))))\n"
    ),
    # I10: five weight-5 queries and no weight-7, holes {K01}; cost 70,
    # weight 25.
    "fig5_b": (
        "twcst\n"
        "(<K05 (=K02 K02 (=K04 K04 K03)) (=K06 K06 (=K08 K08 (=K10 K10 (<K06 K05 (<K08 K07 K09))))))\n"
    ),
    # I15: holes {K01, K15} at cost 115; the left subtree is fig4_c.
    "fig6": (
        "twcst\n"
        f"(<K09 {_FIG4_C} (=K10 K10 (=K12 K12 (=K14 K14 (<K11 K09 (<K13 K11 K13))))))\n"
    ),
}


def exhibit(name: str, inst: Instance):
    """Parse exhibit *name* against *inst*, the instance its labels name."""
    return parse_tree_file(EXHIBITS[name], inst)[1]


def fig2_context(top: int, mid: int, subtree: GbstNode) -> GbstNode:
    """Chain top -> mid -> subtree; a full 9-node tree for I9."""
    return GbstNode(top, split=1, right=GbstNode(mid, split=1, right=subtree))


# ---------------------------------------------------------------------------
# Verification procedures
# ---------------------------------------------------------------------------

def verify_figures() -> Report:
    """Reproduce every figure tree's cost, weight, and validity."""
    checks: list[Check] = []
    add = checks.append

    fig1 = build_instance("fig1").instance
    t1 = exhibit("fig1", fig1)
    add(Check("fig1.tree.cost", 20, gbst_cost(t1, fig1)))
    add(Check("fig1.tree.valid", 1, int(bool(gbst_validate(t1, fig1.full_interval(), (), fig1)))))

    i9 = build_instance("I9").instance
    iv9 = i9.full_interval()
    t2a, t2b = exhibit("fig2_a", i9), exhibit("fig2_b", i9)
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
    t4a, t4b, t4c = exhibit("fig4_a", i8), exhibit("fig4_b", i8), exhibit("fig4_c", i8)
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
    t5a, t5b = exhibit("fig5_a", i10), exhibit("fig5_b", i10)
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

    witness = exhibit("fig3", i31)
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

    witness = exhibit("fig6", i15)
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
