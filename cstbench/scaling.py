"""Scaling report: the largest n each solver handles in under 1 s and 10 s.

    python3 cstbench/scaling.py

Run from the repository root.  This report is on demand only: it is not an
end-to-end metric and nothing gates on it.  Each solver gets seeded random
instances (seed 1, wmax 1000) with n = 1, 2, 3, ...; the climb stops at the
first call that takes 10 s or more, so no probe runs far past its budget.  An
oracle that refuses an instance with SizeLimitError before any budget runs
out is reported as "limit" with its cap, not as a time.
"""
from __future__ import annotations

import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUDGETS = (1.0, 10.0)
WMAX = 1000
SEED = 1


def solvers():
    from cstlab.hw import hw_solve
    from cstlab.oracle import GbstOracle, TwcstOracle
    from cstlab.spuler import spuler_solve

    return {
        "hw_solve": lambda inst: hw_solve(inst, inst.full_interval(), 0),
        "spuler_solve": lambda inst: spuler_solve(inst, inst.full_interval(), 0),
        "GbstOracle.opt_cost": lambda inst: GbstOracle(inst).opt_cost(inst.full_interval()),
        "TwcstOracle.opt_star_cost(h=0)": lambda inst: TwcstOracle(inst).opt_star_cost(
            inst.full_interval(), 0
        ),
    }


def climb(solve) -> tuple[dict, list]:
    """Largest n under each budget, and the (n, seconds) steps taken."""
    from cstlab.falsify import random_instance
    from cstlab.oracle import SizeLimitError

    under = {b: 0 for b in BUDGETS}
    steps = []
    n = 1
    while True:
        inst = random_instance(n, WMAX, SEED * 1000 + n)
        t0 = time.perf_counter()
        try:
            solve(inst)
        except SizeLimitError as exc:
            for b in BUDGETS:
                if under[b] == n - 1:
                    under[b] = f"limit ({exc.limit})"
            return under, steps
        seconds = time.perf_counter() - t0
        steps.append((n, seconds))
        for b in BUDGETS:
            if under[b] == n - 1 and seconds < b:
                under[b] = n
        if seconds >= max(BUDGETS):
            return under, steps
        n += 1


def main() -> int:
    os.environ["CSTLAB_PURE"] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import cstlab

    print(f"backend={cstlab.BACKEND} seed={SEED} wmax={WMAX}")
    for name, solve in solvers().items():
        under, steps = climb(solve)
        last_n, last_s = steps[-1] if steps else (0, 0.0)
        print(
            f"{name}: " + " ".join(f"under_{b:g}s={under[b]}" for b in BUDGETS)
            + f" last_step=n{last_n}:{last_s:.3f}s",
            flush=True,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
