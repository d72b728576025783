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
    parse_instance,
    replace_subtree,
    tree_cost,
    tree_weight,
    validate,
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
from .hw import HwTable, hw_solve
from .spuler import SpulerTable, spuler_solve

__version__ = "0.1.0"
