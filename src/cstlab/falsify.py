"""Randomized search for discrepancies between the flawed DPs and the oracles.

A discrepancy at any cell (I, h) — the DP costing strictly more than the
exact optimum — certifies that (I, h) lacks optimal substructure.  The
reverse direction (DP costing *less*) is impossible because the DPs only
ever build valid trees; if it is observed, the artifact itself is broken
and :class:`FeasibilityError` is raised.

Campaigns are fully deterministic: trial t derives its seed as
``base_seed + t``, so any reported discrepancy replays from its
(seed, trial, cell) triple alone.
"""
from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .hw import HwTable
from .model import (
    GBSPLIT,
    TWCST,
    DpTable,
    Instance,
    gbst_cost,
    gbst_validate,
    twcst_cost,
    twcst_validate,
)
from .oracle import ExactOracle, GbstOracle, SizeLimitError, TwcstOracle
from .spuler import SpulerTable

__all__ = [
    "GBSPLIT",
    "TWCST",
    "Model",
    "MODELS",
    "FeasibilityError",
    "CampaignConfig",
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
    """One tree family: its flawed DP, the exact oracle that audits it, and
    its tree checks.  ``dp`` is the DP's name on the command line."""

    dp: str
    table: type[DpTable]
    oracle: type[ExactOracle]
    validate: Callable
    cost: Callable


MODELS = {
    GBSPLIT: Model("hw", HwTable, GbstOracle, gbst_validate, gbst_cost),
    TWCST: Model("spuler", SpulerTable, TwcstOracle, twcst_validate, twcst_cost),
}


class FeasibilityError(AssertionError):
    """A flawed-DP cost fell below the exact optimum: an artifact bug."""


def random_instance(
    n: int, wmax: int, seed: int, zero_weight_prob: float = 0.25
) -> Instance:
    """Deterministic random instance: n keys, weights in 0..wmax.

    Zero weights get dedicated probability mass on top of the uniform draw;
    both known counterexamples hinge on zero- and low-weight keys.
    """
    if n < 1 or wmax < 1:
        raise ValueError("need n >= 1 and wmax >= 1")
    rng = random.Random(1_000_003 * (1_000_003 * n + wmax) + seed)
    weights = tuple(
        0 if rng.random() < zero_weight_prob else rng.randint(0, wmax)
        for _ in range(n)
    )
    labels = tuple(f"K{k:03d}" for k in range(1, n + 1))
    return Instance(labels, weights)


@dataclass(frozen=True)
class Discrepancy:
    """One cell where the flawed DP is strictly worse than the reference."""

    instance: Instance
    i: int
    j: int
    h: int
    flawed_cost: int
    oracle_cost: int
    whole_instance: bool
    certified: str = "oracle"  # "witness" when measured against a witness tree
    trial: Optional[int] = None
    seed: Optional[int] = None
    name: Optional[str] = None

    @property
    def gap(self) -> int:
        return self.flawed_cost - self.oracle_cost

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

    @property
    def max_gap(self) -> int:
        return max((d.gap for d in self.discrepancies), default=0)

    @property
    def whole_instance_hits(self) -> tuple[Discrepancy, ...]:
        return tuple(d for d in self.discrepancies if d.whole_instance)

    def summary_lines(self) -> list[str]:
        cfg = self.config
        lines = [
            f"model={cfg.model} trials={self.trials_run} seed={cfg.base_seed} "
            f"n=[{cfg.n_min},{cfg.n_max}] wmax={cfg.wmax} cells={self.checked_cells}"
        ]
        lines.extend(d.describe() for d in self.discrepancies)
        lines.append(f"max_gap={self.max_gap}")
        lines.append(f"whole_instance_discrepancies={len(self.whole_instance_hits)}")
        status = "PASS" if not self.discrepancies else "FAIL"
        lines.append(
            f"fuzz.discrepancy_count: expected=0 actual={len(self.discrepancies)} "
            f"status={status}"
        )
        return lines


def _audit(
    model: str, inst: Instance, holes_max: Optional[int]
) -> tuple[list[Discrepancy], int]:
    """Audit every table cell against the oracle; largest gap first.

    The oracle's opt* for every cell comes from one pass over the query
    sets of the table's root interval (``star_rows``).  Instances beyond
    the oracle limit are refused before the table fills.
    """
    spec = MODELS[model]
    if inst.n > spec.oracle.limit:
        raise SizeLimitError(inst.n, spec.oracle.limit)
    table = spec.table(inst)
    rows = spec.oracle(inst).star_rows(table.interval, holes_max)
    found: list[Discrepancy] = []
    checked = 0
    n = inst.n
    for i, j, h in table.cells():
        if holes_max is not None and h > holes_max:
            continue
        flawed = table.cost(i, j, h)
        exact = rows[(i, j)][h]
        checked += 1
        if flawed < exact:
            raise FeasibilityError(
                f"{spec.dp} cost {flawed} below optimum {exact} at ({i},{j},{h})"
            )
        if flawed > exact:
            found.append(
                Discrepancy(
                    instance=inst,
                    i=i,
                    j=j,
                    h=h,
                    flawed_cost=flawed,
                    oracle_cost=exact,
                    whole_instance=(i == 1 and j == n and h == 0),
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


def _witness_check(
    model: str, inst: Instance, witness, trial: int, name: str
) -> Discrepancy | None:
    spec = MODELS[model]
    verdict = spec.validate(witness, inst.full_interval(), (), inst)
    if not verdict:
        raise ValueError(f"witness tree for {name} invalid: {verdict.violations}")
    flawed = spec.table(inst).cost(1, inst.n, 0)
    reference = spec.cost(witness, inst)
    if flawed > reference:
        return Discrepancy(
            instance=inst,
            i=1,
            j=inst.n,
            h=0,
            flawed_cost=flawed,
            oracle_cost=reference,
            whole_instance=True,
            certified="witness",
            trial=trial,
            name=name,
        )
    return None


def campaign(
    cfg: CampaignConfig, injected: Sequence[InjectedCase] = ()
) -> CampaignReport:
    """Run injected cases first, then cfg.trials seeded random audits.

    Oracle refusals (instances beyond the configured limit) are recorded,
    not fatal; such cases fall back to witness-tree comparison at the whole
    instance when a witness is supplied.
    """
    discrepancies: list[Discrepancy] = []
    refusals: list[str] = []
    checked = 0
    trial = 0

    limit = MODELS[cfg.model].oracle.limit
    for case in injected:
        if case.instance.n <= limit:
            found, inst_checked = _audit(cfg.model, case.instance, cfg.holes_max)
            discrepancies.extend(
                dataclasses.replace(d, trial=trial, name=case.name) for d in found
            )
            checked += inst_checked
        else:
            refusals.append(
                f"trial {trial} ({case.name}): n={case.instance.n} exceeds oracle "
                f"limit {limit}; witness comparison only"
            )
            if case.witness_tree is not None:
                hit = _witness_check(
                    cfg.model, case.instance, case.witness_tree, trial, case.name
                )
                if hit is not None:
                    discrepancies.append(hit)
            checked += 1
        trial += 1

    for _ in range(cfg.trials):
        seed = cfg.base_seed + trial
        found, inst_checked = _run_random_trial(cfg, trial, seed)
        discrepancies.extend(found)
        checked += inst_checked
        trial += 1

    return CampaignReport(
        config=cfg,
        trials_run=trial,
        checked_cells=checked,
        discrepancies=tuple(discrepancies),
        oracle_refusals=tuple(refusals),
    )


def _run_random_trial(
    cfg: CampaignConfig, trial: int, seed: int
) -> tuple[list[Discrepancy], int]:
    rng = random.Random(seed)
    n = rng.randint(cfg.n_min, cfg.n_max)
    inst = random_instance(n, cfg.wmax, seed)
    found, checked = _audit(cfg.model, inst, cfg.holes_max)
    tagged = [dataclasses.replace(d, trial=trial, seed=seed) for d in found]
    return tagged, checked


def replay_trial(cfg: CampaignConfig, trial: int) -> list[Discrepancy]:
    """Re-run one random trial of a campaign from its (seed, trial) pair."""
    return _run_random_trial(cfg, trial, cfg.base_seed + trial)[0]
