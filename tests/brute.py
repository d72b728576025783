"""Independent brute-force oracles used to cross-check the memoized solvers.

These enumerate whole trees directly, with no shared code or recurrence in
common with the package's kernels, and are only usable at toy sizes.
"""
from __future__ import annotations

from functools import lru_cache

from cstlab.model import Instance


def min_gbst_cost(inst: Instance, keys: tuple[int, ...]) -> int:
    """Minimum cost over every GBST for a key set, by direct enumeration."""

    @lru_cache(maxsize=None)
    def best(keys: tuple[int, ...]) -> int:
        if not keys:
            return 0
        total = sum(inst.weight(k) for k in keys)
        best_children = None
        for idx in range(len(keys)):
            rest = keys[:idx] + keys[idx + 1 :]
            for cut in range(len(rest) + 1):
                c = best(rest[:cut]) + best(rest[cut:])
                if best_children is None or c < best_children:
                    best_children = c
        return total + best_children

    return best(tuple(sorted(keys)))


def min_twcst_cost(inst: Instance, queries: tuple[int, ...]) -> int:
    """Minimum cost over every 2WCST for a query set, by direct enumeration.

    Equality roots resolve one query; less-than roots split the sorted
    query sequence at any point.  Comparison-key values do not affect cost.
    """

    @lru_cache(maxsize=None)
    def best(queries: tuple[int, ...]) -> int:
        if len(queries) == 1:
            return 0
        total = sum(inst.weight(k) for k in queries)
        options = []
        for idx in range(len(queries)):
            options.append(best(queries[:idx] + queries[idx + 1 :]))
        for cut in range(1, len(queries)):
            options.append(best(queries[:cut]) + best(queries[cut:]))
        return total + min(options)

    return best(tuple(sorted(queries)))
