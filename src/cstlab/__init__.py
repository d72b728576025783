"""cstlab: a verification lab for optimal comparison-search-tree algorithms.

Implements two published polynomial-time dynamic programs that are known to
lack optimal substructure (Huang-Wong for generalized binary split trees,
Spuler for two-way comparison search trees), exact exponential-time
oracles for both models, reproduction checks for every numeric claim about
the counterexample instances, and a seeded fuzzing harness that hunts for
further discrepancies.
"""
from .model import (
    EQ,
    LT,
    Cmp,
    GbstNode,
    GbstTree,
    Instance,
    Interval,
    Leaf,
    ParseError,
    SolveResult,
    TwcstTree,
    Verdict,
    check_order_property,
    gbst_cost,
    gbst_validate,
    gbst_weight,
    parse_instance,
    replace_subtree,
    twcst_cost,
    twcst_validate,
    twcst_weight,
)
from .oracle import (
    BACKEND,
    DepthSeq,
    GbstOracle,
    SizeLimitError,
    TwcstOracle,
    depth_seq,
    placement_lower_bound,
)
from .hw import HwTable, hw_solve, hw_table
from .spuler import SpulerTable, spuler_solve, spuler_table

__version__ = "0.1.0"
