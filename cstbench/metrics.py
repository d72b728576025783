"""Percentiles, failure counting and the per-layer metrics built from spans."""
from __future__ import annotations

import math
from collections import defaultdict

from spans import duration

MIN_BEYOND = 10


def percentile(samples, q: float) -> float:
    """Nearest-rank q-th percentile.

    Refuses unless at least MIN_BEYOND samples lie above the chosen rank, so
    a tail figure always rests on ten or more observations beyond it.
    """
    if not 0 < q < 100:
        raise ValueError("q must lie strictly between 0 and 100")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    if len(ordered) - rank < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {len(ordered)} samples leaves {len(ordered) - rank} beyond it; "
            f"need {MIN_BEYOND}"
        )
    return ordered[rank - 1]


class Tally:
    """Operations attempted and failed.

    A failure is a wrong or missing result: an exception, a non-zero exit,
    a FAIL check, a mismatch with the expected output or a round trip that
    does not come back equal.  Deep-chain probes are counted apart: they hit
    a known recursion limit today, so they enter the success rate but not
    the failure count that decides whether the run is correct.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.probes = 0
        self.probe_failed = 0
        self.notes: list[str] = []

    def record(self, ok: bool, count: int = 1, note: str = "") -> None:
        self.attempted += count
        if not ok:
            self.failed += count
            if note and len(self.notes) < 20:
                self.notes.append(note)

    def record_probe(self, ok: bool) -> None:
        self.probes += 1
        if not ok:
            self.probe_failed += 1

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.probes += other.probes
        self.probe_failed += other.probe_failed
        self.notes.extend(other.notes[: max(0, 20 - len(self.notes))])

    @property
    def error_rate(self) -> float:
        total = self.attempted + self.probes
        return (self.failed + self.probe_failed) / total if total else 0.0

    @property
    def success_rate(self) -> float:
        return 1.0 - self.error_rate


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

MODELS = ("gbst", "twcst")


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Sum span times and counts into the per-layer metrics.

    Only spans of the measured phases count: traced pass 0 and the detail
    phase that replays pass 0 call by call.
    """
    spans = [s for s in spans if s["phase"] in ("pass0", "detail")]
    busy: dict[str, float] = defaultdict(float)
    count: dict[str, int] = defaultdict(int)
    for s in spans:
        busy[s["name"]] += duration(s)
        for key, value in s["attrs"].items():
            if isinstance(value, int) and not isinstance(value, bool):
                count[f"{s['name']}.{key}"] += value

    def rate(n: float, seconds: float) -> float:
        return n / seconds if seconds > 0 else 0.0

    out: dict[str, float] = {}
    for m in MODELS:
        out[f"oracle.{m}.opt_s"] = busy[f"oracle.{m}.opt"]
        out[f"oracle.{m}.star_s"] = busy[f"oracle.{m}.star"]
        out[f"oracle.{m}.star_sets"] = count[f"oracle.{m}.star.sets"]
        out[f"oracle.{m}.star_sets_per_s"] = rate(
            count[f"oracle.{m}.star.sets"], busy[f"oracle.{m}.star"]
        )
        out[f"oracle.{m}.rebuild_s"] = busy[f"oracle.{m}.rebuild"]
    for layer in ("hw", "spuler"):
        out[f"{layer}.fill_s"] = busy[f"{layer}.fill"]
        out[f"{layer}.cells"] = count[f"{layer}.fill.cells"]
        out[f"{layer}.cells_per_s"] = rate(count[f"{layer}.fill.cells"], busy[f"{layer}.fill"])

    by_id = {s["id"]: s for s in spans}
    trial_children = defaultdict(float)
    for s in spans:
        parent = by_id.get(s["parent"])
        if parent is not None and parent["name"] == "falsify.trial" and (
            s["name"].endswith(".fill") or s["name"].endswith(".star")
        ):
            trial_children[parent["id"]] += duration(s)
    out["falsify.trial_s"] = busy["falsify.trial"]
    out["falsify.cells"] = count["falsify.trial.cells"]
    out["falsify.discrepancies"] = count["falsify.trial.discrepancies"]
    out["falsify.self_s"] = busy["falsify.trial"] - sum(trial_children.values())

    for section in ("figures", "thm1", "thm2", "depth"):
        out[f"bench.{section}_s"] = busy[f"bench.{section}"]
    out["bench.checks"] = sum(count[f"bench.{s}.checks"] for s in ("figures", "thm1", "thm2", "depth"))

    for fmt in ("dot", "ascii", "ifelse"):
        out[f"render.{fmt}_s"] = busy[f"render.{fmt}"]
    out["render.parse_tree_s"] = busy["render.parse_tree"]
    out["render.parse_ascii_s"] = busy["render.parse_ascii"]
    out["render.bytes"] = sum(count[f"render.{fmt}.bytes"] for fmt in ("dot", "ascii", "ifelse"))
    out["render.chain_errors"] = sum(
        1 for s in spans if s["attrs"].get("recursion_error") is True
    )
    out["model.validate_s"] = busy["model.validate"]
    out["model.cost_s"] = busy["model.cost"]
    out["model.parse_s"] = busy["model.parse"]

    out["cli.main_s"] = busy["cli.main"]
    out["cli.self_s"] = busy["cli.main"] - busy["cli.replay"] if busy["cli.replay"] else 0.0
    return out

