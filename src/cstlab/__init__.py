"""cstlab: a verification lab for optimal comparison-search-tree algorithms.

Implements two published polynomial-time dynamic programs that are known to
lack optimal substructure (Huang-Wong for generalized binary split trees,
Spuler for two-way comparison search trees), exact exponential-time
oracles for both models, reproduction checks for every numeric claim about
the counterexample instances, and a seeded fuzzing harness that hunts for
further discrepancies.
"""
__version__ = "0.1.0"

# The exact kernels are pure Python; cstbench's environment line reads this.
BACKEND = "pure"
