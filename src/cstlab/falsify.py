"""Randomized search for discrepancies between the flawed DPs and the oracles.

A discrepancy at any cell (I, h) — the DP costing strictly more than the
exact optimum, or past the oracle's reach more than a witness tree —
certifies that (I, h) lacks optimal substructure; ``_audit`` is the one
loop that checks both.  A DP costing *less* than the optimum would be an
artifact bug (the DPs build valid trees) and raises FeasibilityError.

Campaigns are fully deterministic: random trial t derives its seed as
``base_seed + t``, so any reported discrepancy replays from its
(seed, trial, cell) triple alone.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .hw import HwTable
from .model import (
    GBSPLIT,
    TWCST,
    DpTable,
    Instance,
    tree_cost,
    validate,
)
from .oracle import ExactOracle, GbstOracle, TwcstOracle
from .spuler import SpulerTable

__all__ = [
    "GBSPLIT",
    "TWCST",
    "Model",
    "MODELS",
    "FeasibilityError",
    "CampaignConfig",
    "Check",
    "Discrepancy",
    "InjectedCase",
    "CampaignReport",
    "random_instance",
    "audit_subproblems",
    "campaign",
    "replay_trial",
]

@dataclass(frozen=True)
class Model:
    """One tree family: its flawed DP and the exact oracle that audits it.
    ``dp`` is the DP's name on the command line."""

    dp: str
    table: type[DpTable]
    oracle: type[ExactOracle]


MODELS = {
    GBSPLIT: Model("hw", HwTable, GbstOracle),
    TWCST: Model("spuler", SpulerTable, TwcstOracle),
}


class FeasibilityError(AssertionError):
    """A flawed-DP cost fell below the exact optimum: an artifact bug."""


# Probability mass a random weight puts on zero on top of the uniform draw;
# both known counterexamples hinge on zero- and low-weight keys.
ZERO_WEIGHT_PROB = 0.25


def random_instance(n: int, wmax: int, seed: int) -> Instance:
    """Deterministic random instance: n keys, weights in 0..wmax, zero with
    extra probability ``ZERO_WEIGHT_PROB``."""
    if n < 1 or wmax < 1:
        raise ValueError("need n >= 1 and wmax >= 1")
    rng = random.Random(1_000_003 * (1_000_003 * n + wmax) + seed)
    weights = tuple(
        0 if rng.random() < ZERO_WEIGHT_PROB else rng.randint(0, wmax)
        for _ in range(n)
    )
    labels = tuple(f"K{k:03d}" for k in range(1, n + 1))
    return Instance(labels, weights)


@dataclass(frozen=True)
class Check:
    """One report line: ``<name>: expected=<e> actual=<a> status=PASS|FAIL``."""

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
class Discrepancy:
    """One cell where the flawed DP is strictly worse than the reference."""

    instance: Instance
    i: int
    j: int
    h: int
    flawed_cost: int
    oracle_cost: int
    certified: str = "oracle"  # "witness" when measured against a witness tree
    trial: Optional[int] = None
    seed: Optional[int] = None
    name: Optional[str] = None

    @property
    def gap(self) -> int:
        return self.flawed_cost - self.oracle_cost

    @property
    def whole_instance(self) -> bool:
        return (self.i, self.j, self.h) == (1, self.instance.n, 0)

    def describe(self) -> str:
        where = self.name if self.name is not None else f"trial={self.trial}"
        return (
            f"{where} cell=({self.i},{self.j},{self.h}) "
            f"flawed={self.flawed_cost} reference={self.oracle_cost} "
            f"gap={self.gap} cert={self.certified}"
            + (" whole-instance" if self.whole_instance else "")
        )


@dataclass(frozen=True)
class CampaignConfig:
    model: str
    n_min: int = 2
    n_max: int = 8
    wmax: int = 16
    trials: int = 100
    base_seed: int = 0
    holes_max: Optional[int] = None

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not 1 <= self.n_min <= self.n_max:
            raise ValueError("need 1 <= n_min <= n_max")
        if self.wmax < 1:
            raise ValueError("wmax must be >= 1")
        if self.holes_max is not None and self.holes_max < 0:
            raise ValueError("holes_max must be >= 0")
        limit = MODELS[self.model].oracle.limit
        if self.n_max > limit:
            raise ValueError(f"n_max {self.n_max} exceeds the oracle limit {limit}")


@dataclass(frozen=True)
class InjectedCase:
    """A hand-picked leading trial; the witness tree is the reference when
    the instance is too large for the oracle."""

    name: str
    instance: Instance
    witness_tree: object = None


@dataclass(frozen=True)
class CampaignReport:
    config: CampaignConfig
    trials_run: int
    checked_cells: int
    discrepancies: tuple[Discrepancy, ...]
    oracle_refusals: tuple[str, ...] = ()

    def summary_lines(self) -> list[str]:
        cfg = self.config
        found = self.discrepancies
        return [
            f"model={cfg.model} trials={self.trials_run} seed={cfg.base_seed} "
            f"n=[{cfg.n_min},{cfg.n_max}] wmax={cfg.wmax} cells={self.checked_cells}",
            *(d.describe() for d in found),
            f"max_gap={max((d.gap for d in found), default=0)}",
            f"whole_instance_discrepancies={sum(d.whole_instance for d in found)}",
            Check("fuzz.discrepancy_count", 0, len(found)).line(),
        ]


def _audit(
    model: str, inst: Instance, holes_max: Optional[int], witness=None, **tags
) -> tuple[list[Discrepancy], int]:
    """Audit the table's cells against a reference; largest gap first.
    Each record carries ``tags`` (its trial and seed or name).

    Without a witness the reference is opt* at each cell (h <= holes_max),
    from ``star_rows``' one pass over the instance's query sets, taken
    before the table fills, so that an instance beyond the oracle limit
    raises SizeLimitError before any work.  A validated witness tree is the
    reference at (1, n, 0) alone.  A DP cost below an oracle reference
    raises FeasibilityError; a witness is only an upper bound.
    """
    spec = MODELS[model]
    if witness is None:
        rows = spec.oracle(inst).star_rows(inst.full_interval(), holes_max)
    else:
        verdict = validate(witness, inst.full_interval(), (), inst)
        if not verdict:
            raise ValueError(f"witness tree for {tags['name']} invalid: {verdict.violations}")
        rows = {(1, inst.n): [tree_cost(witness, inst)]}
    certified = "oracle" if witness is None else "witness"
    table = spec.table(inst)
    found: list[Discrepancy] = []
    checked = 0
    for (i, j), row in rows.items():
        checked += len(row)
        for h, reference in enumerate(row):
            flawed = table.cost(i, j, h)
            if flawed < reference and witness is None:
                raise FeasibilityError(
                    f"{spec.dp} cost {flawed} below optimum {reference} at ({i},{j},{h})"
                )
            if flawed > reference:
                found.append(
                    Discrepancy(
                        instance=inst,
                        i=i,
                        j=j,
                        h=h,
                        flawed_cost=flawed,
                        oracle_cost=reference,
                        certified=certified,
                        **tags,
                    )
                )
    found.sort(key=lambda d: (-d.gap, d.i, d.j, d.h))
    return found, checked


def audit_subproblems(
    model: str, inst: Instance, holes_max: Optional[int] = None
) -> list[Discrepancy]:
    """Compare the flawed DP against the oracle at every (i, j, h) cell.

    Returns all strict-gap cells, largest gap first.  An instance with more
    keys than the oracle limit raises SizeLimitError before any work.
    """
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}")
    return _audit(model, inst, holes_max)[0]


def campaign(
    cfg: CampaignConfig, injected: Sequence[InjectedCase] = ()
) -> CampaignReport:
    """Run injected cases first, then cfg.trials seeded random audits.

    Oracle refusals (instances beyond the oracle limit) are recorded, not
    fatal; such a case is audited against its witness tree at the whole
    instance when it has one and checks no cell otherwise.
    """
    limit = MODELS[cfg.model].oracle.limit
    refusals: list[str] = []
    trials: list[tuple[list[Discrepancy], int]] = []

    for trial, case in enumerate(injected):
        inst, witness = case.instance, None
        if inst.n > limit:
            witness = case.witness_tree
            refusals.append(
                f"trial {trial} ({case.name}): n={inst.n} exceeds oracle limit {limit}; "
                + ("no witness, not checked" if witness is None else "witness comparison only")
            )
            if witness is None:
                trials.append(([], 0))
                continue
        trials.append(_audit(cfg.model, inst, cfg.holes_max, witness, trial=trial, name=case.name))

    for trial in range(len(injected), len(injected) + cfg.trials):
        trials.append(_run_random_trial(cfg, trial))

    return CampaignReport(
        config=cfg,
        trials_run=len(trials),
        checked_cells=sum(checked for _, checked in trials),
        discrepancies=tuple(d for found, _ in trials for d in found),
        oracle_refusals=tuple(refusals),
    )


def _run_random_trial(cfg: CampaignConfig, trial: int) -> tuple[list[Discrepancy], int]:
    seed = cfg.base_seed + trial
    rng = random.Random(seed)
    n = rng.randint(cfg.n_min, cfg.n_max)
    inst = random_instance(n, cfg.wmax, seed)
    return _audit(cfg.model, inst, cfg.holes_max, trial=trial, seed=seed)


def replay_trial(cfg: CampaignConfig, trial: int) -> list[Discrepancy]:
    """Re-run one random trial of a campaign from its (seed, trial) pair."""
    return _run_random_trial(cfg, trial)[0]
