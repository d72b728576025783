"""The four workloads.

Each is a closed loop with one caller: the next call starts when the
previous one returns.  A workload object is built from the seed (set-up),
then runs passes; pass p always performs the same calls for a given seed.
``run_pass`` works on a Tracer or on ``spans.NULL``; ``detail`` replays
pass 0 as the individual public calls the command line makes, for the
traced run only.
"""
from __future__ import annotations

import hashlib
import io
import json
import math
import random
import re
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from itertools import zip_longest
from pathlib import Path

from cstlab import bench, cli, falsify
from cstlab.hw import HwTable, hw_solve
from cstlab.model import (
    Cmp,
    Instance,
    Leaf,
    Interval,
    format_instance,
    gbst_cost,
    gbst_validate,
    parse_instance,
    twcst_cost,
    twcst_validate,
)
from cstlab.oracle import GbstOracle, TwcstOracle, placement_lower_bound
from cstlab.render import FORMATS, derive_subproblem, parse_ascii, parse_tree_file, render_tree
from cstlab.spuler import SpulerTable, spuler_solve

import trees
from metrics import Tally
from spans import NULL

DEFAULT_SEED = 1
EXPECTED_DIR = Path(__file__).resolve().parent / "expected"


@dataclass
class PassResult:
    work: int = 0  # units of the workload's throughput metric
    probe_s: float = 0.0  # time in deep-chain probes, kept out of throughput
    latencies: list[float] = field(default_factory=list)
    fingerprints: list = field(default_factory=list)
    tally: Tally = field(default_factory=Tally)


def call_cli(argv: list[str]) -> tuple[int, str, str]:
    """Run ``cstlab.cli.main`` in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue(), err.getvalue()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def table_cells(model: str, n: int) -> int:
    """(i, j, h) cells of a full DP table: h runs over 0..|I| for gbsplit
    and 0..|I|-1 for twcst."""
    extra = 1 if model == falsify.GBSPLIT else 0
    return sum((n - size + 1) * (size + extra) for size in range(1, n + 1))


def load_expected(name: str, seed: int):
    """Committed outputs for the default seed; None for any other seed."""
    if seed != DEFAULT_SEED:
        return None
    with open(EXPECTED_DIR / f"{name}.json", encoding="utf-8") as fh:
        data = json.load(fh)
    if data["seed"] != DEFAULT_SEED:
        raise ValueError(f"expected/{name}.json was recorded for seed {data['seed']}")
    return data["passes"]


def failure_note(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def traced_star(tracer, oracle, model: str, interval: Interval, h: int):
    """opt_star_cost on *oracle*, then opt_star on the oracle it warmed."""
    with tracer.span(f"oracle.{model}.star", sets=math.comb(interval.size, h)):
        cost = oracle.opt_star_cost(interval, h)
    with tracer.span(f"oracle.{model}.rebuild"):
        rebuilt = oracle.opt_star(interval, h)
    return cost, rebuilt


def traced_trial(tracer, model: str, n: int, wmax: int, seed: int) -> list[tuple]:
    """One fuzz trial as its public calls: instance, table fill, then per
    cell the table cost and the oracle's opt_star_cost."""
    with tracer.span("falsify.trial") as attrs:
        with tracer.span("falsify.random_instance"):
            inst = falsify.random_instance(n, wmax, seed)
        return audit_cells(tracer, model, inst, attrs)


def audit_cells(tracer, model: str, inst: Instance, attrs: dict) -> list[tuple]:
    if model == falsify.GBSPLIT:
        table_cls, oracle_cls, layer, kind = HwTable, GbstOracle, "hw", "gbst"
    else:
        table_cls, oracle_cls, layer, kind = SpulerTable, TwcstOracle, "spuler", "twcst"
    with tracer.span(f"{layer}.fill", cells=table_cells(model, inst.n)):
        table = table_cls(inst)
    oracle = oracle_cls(inst)
    found = []
    cells = 0
    for i, j, h in table.cells():
        flawed = table.cost(i, j, h)
        with tracer.span(f"oracle.{kind}.star", sets=math.comb(j - i + 1, h)):
            exact = oracle.opt_star_cost(Interval(i, j), h)
        cells += 1
        if flawed != exact:
            found.append((i, j, h, flawed, exact))
    attrs["cells"] = cells
    attrs["discrepancies"] = len(found)
    return found


# ---------------------------------------------------------------------------
# paper
# ---------------------------------------------------------------------------

class Paper:
    """``verify-paper --section all``: the cold-memo exact oracle on the
    published instances, checked byte for byte on every seed (its output
    does not depend on the seed)."""

    name = "paper"
    unit = "checks"
    max_passes = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.argv = ["verify-paper", "--section", "all", "--seed", str(seed)]
        self.expected = (EXPECTED_DIR / "paper.txt").read_text(encoding="utf-8").splitlines()

    def run_pass(self, p: int, tracer) -> PassResult:
        result = PassResult()
        t0 = time.perf_counter()
        try:
            rc, out = self._sections(tracer) if tracer is not NULL else call_cli(self.argv)[:2]
        except Exception as exc:
            rc, out = None, ""
            result.tally.notes.append(failure_note(exc))
        result.latencies.append(time.perf_counter() - t0)
        result.fingerprints.append(out)
        lines = out.splitlines()
        for got, want in zip_longest(lines, self.expected):
            ok = rc == 0 and got == want and got.endswith("status=PASS")
            result.tally.record(ok, note=f"paper line {got!r}, expected {want!r}")
        result.work = sum(1 for line in lines if line.endswith("status=PASS"))
        return result

    def _sections(self, tracer) -> tuple[int, str]:
        """The four sections verify-paper runs, called one by one so that a
        traced pass gives each its own span."""
        sections = (
            ("figures", bench.verify_figures),
            ("thm1", bench.verify_theorem1),
            ("thm2", bench.verify_theorem2),
            ("depth", lambda: bench.verify_depth_lemma(seed=self.seed)),
        )
        report = bench.Report(())
        for section, verify in sections:
            with tracer.span(f"bench.{section}", new_op=True) as attrs:
                part = verify()
            attrs["checks"] = len(part.checks)
            report += part
        return (0 if report.passed else 1), "".join(line + "\n" for line in report.lines())

    def detail(self, tracer, tally: Tally) -> None:
        """The expensive calls inside the sections, each on a fresh object."""
        check = tally.record
        i31 = bench.build_instance("I31").instance
        i15 = bench.build_instance("I15").instance
        full31 = i31.full_interval()
        for interval, h, want in ((full31, 0, 1763), (Interval(1, 9), 2, 209), (full31, 0, 1763)):
            with tracer.span("hw.fill", new_op=True, cells=table_cells(falsify.GBSPLIT, interval.size)):
                check(hw_solve(i31, interval, h).cost == want, note="hw_solve(I31)")
        with tracer.span("spuler.fill", new_op=True, cells=table_cells(falsify.TWCST, 15)):
            check(spuler_solve(i15, i15.full_interval(), 2).cost == 116, note="spuler_solve(I15)")

        with tracer.span("paper.gbst_oracle", new_op=True):
            cost, (cost2, _, _) = traced_star(tracer, GbstOracle(i31), "gbst", Interval(1, 9), 2)
            check(cost == cost2 == 209, note="GBST opt*(I9, 2)")
            for interval, want in ((Interval(10, 16), 220), (Interval(17, 31), 660)):
                oracle = GbstOracle(i31)
                with tracer.span("oracle.gbst.opt"):
                    cost = oracle.opt_cost(interval)
                with tracer.span("oracle.gbst.rebuild"):
                    cost2, _ = oracle.opt(interval)
                check(cost == cost2 == want, note=f"GBST opt({interval})")

        with tracer.span("paper.twcst_oracle", new_op=True):
            cost, (cost2, _, _) = traced_star(tracer, TwcstOracle(i15), "twcst", i15.full_interval(), 2)
            check(cost == cost2 == 115, note="2WCST opt*(I15, 2)")

        with tracer.span("paper.audit_I15", new_op=True):
            with tracer.span("falsify.trial") as attrs:
                found = audit_cells(tracer, falsify.TWCST, i15, attrs)
            check(len(found) >= 1, note="no bad cell in the I15 audit")

        with tracer.span("paper.depth_lemma", new_op=True):
            for target, (want_cost, _) in ((4, (49, 22)), (5, (69, 27))):
                for length in range(1, 15):
                    holes = bench.positive_key_count(length) - target
                    if holes < 0:
                        continue
                    inst = Instance(i15.labels[:length], i15.weights[:length])
                    cost, _ = traced_star(tracer, TwcstOracle(inst), "twcst", inst.full_interval(), holes)
                    check(cost == want_cost, note=f"lemma T{target} I{length}")
            for t in range(40):
                inst = falsify.random_instance(4 + t % 5, 8, self.seed + t)
                oracle = TwcstOracle(inst)
                for h in range(min(3, inst.n)):
                    cost, (cost2, _, _) = traced_star(tracer, oracle, "twcst", inst.full_interval(), h)
                    check(cost == cost2, note="depth trial rebuild")


# ---------------------------------------------------------------------------
# fuzz
# ---------------------------------------------------------------------------

FUZZ_WMAX = 16
# One single-trial campaign per (model, n); n is swept rather than drawn so
# that every pass does the same amount of work whatever the seed.
FUZZ_CALLS = tuple((falsify.GBSPLIT, n) for n in range(8, 13)) + tuple(
    (falsify.TWCST, n) for n in range(10, 15)
)
_FUZZ_HEAD = re.compile(r"^model=\S+ trials=1 seed=\d+ n=\[\d+,\d+\] wmax=\d+ cells=(\d+)$")
_FUZZ_HIT = re.compile(r" flawed=(\d+) reference=(\d+) gap=(\d+) ")
_FUZZ_TAIL = re.compile(r"^fuzz\.discrepancy_count: expected=0 actual=(\d+) status=(PASS|FAIL)$")


class Fuzz:
    """Counterexample hunting: thousands of opt_star sweeps on a warm memo."""

    name = "fuzz"
    unit = "cells"
    max_passes = 12

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.expected = load_expected("fuzz", seed)
        self.calls = [
            [(model, n, self.trial_seed(p, k)) for k, (model, n) in enumerate(FUZZ_CALLS)]
            for p in range(self.max_passes)
        ]

    def trial_seed(self, p: int, k: int) -> int:
        return self.seed * 1000 + p * len(FUZZ_CALLS) + k

    @staticmethod
    def argv(model: str, n: int, seed: int) -> list[str]:
        return [
            "fuzz", "--model", model, "--n-min", str(n), "--n-max", str(n),
            "--wmax", str(FUZZ_WMAX), "--trials", "1", "--seed", str(seed),
        ]

    @staticmethod
    def output_ok(out: str, model: str, n: int) -> bool:
        """Seed-independent invariants of one campaign's summary."""
        lines = out.splitlines()
        if len(lines) < 4:
            return False
        head, tail = _FUZZ_HEAD.match(lines[0]), _FUZZ_TAIL.match(lines[-1])
        hits = [_FUZZ_HIT.search(line) for line in lines[1:-3]]
        return (
            head is not None
            and tail is not None
            and int(head.group(1)) == table_cells(model, n)
            and all(m is not None and int(m.group(1)) > int(m.group(2)) for m in hits)
            and int(tail.group(1)) == len(hits)
        )

    def run_pass(self, p: int, tracer) -> PassResult:
        result = PassResult()
        for k, (model, n, seed) in enumerate(self.calls[p]):
            cells = table_cells(model, n)
            t0 = time.perf_counter()
            with tracer.span("cli.main", new_op=True):
                try:
                    rc, out, _ = call_cli(self.argv(model, n, seed))
                except Exception as exc:
                    rc, out = None, failure_note(exc)
            result.latencies.append(time.perf_counter() - t0)
            result.fingerprints.append(out)
            ok = rc == 0 and self.output_ok(out, model, n)
            if self.expected is not None:
                ok = ok and out == self.expected[p][k]
            result.tally.record(ok, count=cells, note=f"fuzz {model} n={n} seed={seed}: {out[-200:]!r}")
            result.work += cells
        return result

    def detail(self, tracer, tally: Tally) -> None:
        for model, n, seed in self.calls[0]:
            with tracer.span("cli.replay", new_op=True):
                found = traced_trial(tracer, model, n, FUZZ_WMAX, seed)
            cfg = falsify.CampaignConfig(
                model=model, n_min=n, n_max=n, wmax=FUZZ_WMAX, trials=1, base_seed=seed
            )
            replay = [(d.i, d.j, d.h, d.flawed_cost, d.oracle_cost) for d in falsify.replay_trial(cfg, 0)]
            tally.record(sorted(found) == sorted(replay), note=f"trial {model} n={n} seed={seed} differs from replay_trial")
        # The n = 8 kernel mix: every interval of small random instances,
        # both models, no holes.  Every key sits at depth 1 or deeper, so a
        # cost is at least the interval's weight, except a lone 2WCST leaf,
        # which costs 0; one-key GBST intervals cost exactly their weight.
        intervals = [Interval(i, j) for i in range(1, 9) for j in range(i, 9)]
        for t in range(60):
            inst = falsify.random_instance(8, FUZZ_WMAX, self.seed * 1000 + 500 + t)
            for kind, oracle in (("gbst", GbstOracle(inst)), ("twcst", TwcstOracle(inst))):
                with tracer.span(f"oracle.{kind}.opt", new_op=True):
                    costs = [oracle.opt_cost(iv) for iv in intervals]
                for iv, cost in zip(intervals, costs):
                    floor = inst.range_weight(iv.i, iv.j) if kind == "gbst" or iv.size > 1 else 0
                    ok = cost == floor if iv.size == 1 else cost >= floor
                    tally.record(ok, note=f"{kind} opt({iv}) = {cost} on {inst.weights}")


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

SOLVE_NS = range(16, 33)
SOLVE_WMAX = 1000
# --alg, its model, and the library call that does the same work; the
# algorithm's name is also its layer's name.
SOLVE_ALGS = {"hw": (falsify.GBSPLIT, hw_solve), "spuler": (falsify.TWCST, spuler_solve)}


@dataclass(frozen=True)
class SolveCall:
    path: Path
    alg: str
    model: str
    n: int
    total_weight: int
    lower_bound: int  # placement bound for GBST, total weight for 2WCST


class Solve:
    """DP fill through ``cstlab solve ... --render ifelse`` on instance files
    written at set-up; the exact oracle does no work here."""

    name = "solve"
    unit = "calls"
    max_passes = 12

    def __init__(self, seed: int, workdir: Path):
        self.expected = load_expected("solve", seed)
        self.calls: list[SolveCall] = []
        for n in SOLVE_NS:
            for a, (alg, (model, _)) in enumerate(SOLVE_ALGS.items()):
                inst = falsify.random_instance(n, SOLVE_WMAX, seed * 1000 + 2 * n + a)
                path = workdir / f"solve-{alg}-{n}.txt"
                path.write_text(format_instance(inst), encoding="utf-8")
                bound = placement_lower_bound(inst) if model == falsify.GBSPLIT else inst.total_weight()
                self.calls.append(SolveCall(path, alg, model, n, inst.total_weight(), bound))
        self.costs: list[int | None] = [None] * len(self.calls)

    @staticmethod
    def argv(call: SolveCall) -> list[str]:
        return ["solve", "--model", call.model, "--alg", call.alg,
                "--instance", str(call.path), "--render", "ifelse"]

    @staticmethod
    def parse(out: str) -> tuple[int, int] | None:
        """(cost, weight) from the header, provided the rendered tree follows."""
        lines = out.splitlines()
        if len(lines) < 5 or not lines[1].startswith("cost=") or not lines[2].startswith("weight="):
            return None
        return int(lines[1][5:]), int(lines[2][7:])

    def run_pass(self, p: int, tracer) -> PassResult:
        result = PassResult()
        for k, call in enumerate(self.calls):
            t0 = time.perf_counter()
            with tracer.span("cli.main", new_op=True):
                try:
                    rc, out, _ = call_cli(self.argv(call))
                except Exception as exc:
                    rc, out = None, failure_note(exc)
            result.latencies.append(time.perf_counter() - t0)
            parsed = self.parse(out)
            ok = (
                rc == 0
                and parsed is not None
                and parsed[1] == call.total_weight
                and parsed[0] >= call.lower_bound
            )
            cost = parsed[0] if parsed else None
            self.costs[k] = cost
            fingerprint = {"cost": cost, "sha256": sha256(out)}
            if self.expected is not None:
                ok = ok and fingerprint == self.expected[0][k]
            result.fingerprints.append(fingerprint)
            result.tally.record(ok, note=f"solve {call.alg} n={call.n}: {out[-200:]!r}")
            result.work += 1
        return result

    def detail(self, tracer, tally: Tally) -> None:
        for k, call in enumerate(self.calls):
            solve = SOLVE_ALGS[call.alg][1]
            with tracer.span("cli.replay", new_op=True):
                text = call.path.read_text(encoding="utf-8")
                with tracer.span("model.parse"):
                    inst = parse_instance(text)
                with tracer.span(f"{call.alg}.fill", cells=table_cells(call.model, call.n)):
                    res = solve(inst, inst.full_interval(), 0)
                with tracer.span("render.ifelse") as attrs:
                    attrs["bytes"] = len(render_tree(res.tree, "ifelse", inst))
            tally.record(res.cost == self.costs[k], note=f"replayed {call.alg} n={call.n} cost differs")


# ---------------------------------------------------------------------------
# render
# ---------------------------------------------------------------------------

RENDER_KEYS = 4096
RENDER_WMAX = 1000
BALANCED_KEYS = 3000
CASCADE_DEPTH = 300
# Deeper than Python's default recursion limit of 1000 frames.
CHAIN_DEPTH = 1500


class Render:
    """Tree-file parse, every renderer and the ASCII re-parse on trees the
    benchmark builds itself; only ``model`` and ``render`` work here."""

    name = "render"
    unit = "trees"
    max_passes = 16

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        inst = falsify.random_instance(RENDER_KEYS, RENDER_WMAX, seed)
        self.instance_text = format_instance(inst)
        built = (
            [trees.balanced_gbst(trees.pick_keys(RENDER_KEYS, BALANCED_KEYS, rng), rng) for _ in range(4)]
            + [trees.balanced_lt_twcst(trees.pick_keys(RENDER_KEYS, BALANCED_KEYS, rng)) for _ in range(4)]
            + [trees.eq_cascade(trees.pick_keys(RENDER_KEYS, CASCADE_DEPTH, rng), rng) for _ in range(6)]
            + [trees.gbst_chain(trees.pick_keys(RENDER_KEYS, CASCADE_DEPTH, rng), rng) for _ in range(2)]
        )
        self.cases = [(trees.write_tree_file(t, inst), trees.tree_cost(t, inst)) for t in built]
        chains = (
            trees.gbst_chain(trees.pick_keys(RENDER_KEYS, CHAIN_DEPTH, rng), rng),
            trees.eq_cascade(trees.pick_keys(RENDER_KEYS, CHAIN_DEPTH, rng), rng),
        )
        self.probes = [(t, trees.write_tree_file(t, inst), trees.tree_cost(t, inst)) for t in chains]
        self.expected = load_expected("render", seed)

    def run_pass(self, p: int, tracer) -> PassResult:
        result = PassResult()
        with tracer.span("model.parse", new_op=True):
            inst = parse_instance(self.instance_text)
        for k, (text, cost) in enumerate(self.cases):
            t0 = time.perf_counter()
            with tracer.span("render.roundtrip", new_op=True):
                try:
                    ok, digest = roundtrip(tracer, inst, text, cost)
                except Exception as exc:
                    ok, digest = False, failure_note(exc)
            result.latencies.append(time.perf_counter() - t0)
            if self.expected is not None:
                ok = ok and digest == self.expected[0][k]
            result.fingerprints.append(digest)
            result.tally.record(ok, note=f"render tree {k}: {digest}")
            result.work += 1
        t0 = time.perf_counter()
        for k, (tree, text, cost) in enumerate(self.probes):
            with tracer.span("render.chain_probe", new_op=True):
                try:
                    result.tally.record_probe(chain_probe(tracer, inst, tree, text, cost))
                except Exception as exc:
                    result.tally.record(False, note=f"chain probe {k}: {failure_note(exc)}")
        result.probe_s = time.perf_counter() - t0
        return result

    def detail(self, tracer, tally: Tally) -> None:
        """The traced passes already call each public function separately."""


def _validate(tree, inst: Instance) -> bool:
    interval, holes = derive_subproblem(tree, inst)
    validate = twcst_validate if isinstance(tree, (Leaf, Cmp)) else gbst_validate
    return bool(validate(tree, interval, holes, inst))


def _cost(tree, inst: Instance) -> int:
    return (twcst_cost if isinstance(tree, (Leaf, Cmp)) else gbst_cost)(tree, inst)


def roundtrip(tracer, inst: Instance, text: str, cost: int) -> tuple[bool, str]:
    """Parse the tree file, validate, render in every format, re-parse the
    ASCII and cost the tree; True when everything comes back equal."""
    with tracer.span("render.parse_tree"):
        _, tree = parse_tree_file(text, inst)
    ok = trees.write_tree_file(tree, inst) == text
    with tracer.span("model.validate"):
        ok = _validate(tree, inst) and ok
    outputs = []
    for fmt in FORMATS:
        with tracer.span(f"render.{fmt}") as attrs:
            outputs.append(render_tree(tree, fmt, inst))
        attrs["bytes"] = len(outputs[-1])
    with tracer.span("render.parse_ascii"):
        back = parse_ascii(outputs[FORMATS.index("ascii")], inst)
    ok = ok and trees.trees_equal(back, tree, ignore_split=True)
    with tracer.span("model.cost"):
        ok = _cost(tree, inst) == cost and ok
    return ok, sha256("".join(outputs))


def chain_probe(tracer, inst: Instance, tree, text: str, cost: int) -> bool:
    """The round trip on a chain deeper than the recursion limit.

    Every step runs even when an earlier one fails, on the built tree in
    place of a missing parse, so each step's recursion failure shows on its
    own.  Returns True only when every step succeeds with a correct result.
    """
    ok = True

    def step(name: str, fn):
        nonlocal ok
        with tracer.span(name) as attrs:
            try:
                value = fn()
            except RecursionError:
                attrs["recursion_error"] = True
                ok = False
                return None
        return value

    parsed = step("render.parse_tree", lambda: parse_tree_file(text, inst)[1])
    if parsed is not None:
        ok = ok and trees.write_tree_file(parsed, inst) == text
    subject = parsed if parsed is not None else tree
    ok = step("model.validate", lambda: _validate(subject, inst)) is True and ok
    outputs = {fmt: step(f"render.{fmt}", lambda: render_tree(subject, fmt, inst)) for fmt in FORMATS}
    if outputs["ascii"] is not None:
        back = step("render.parse_ascii", lambda: parse_ascii(outputs["ascii"], inst))
        ok = ok and back is not None and trees.trees_equal(back, subject, ignore_split=True)
    ok = step("model.cost", lambda: _cost(subject, inst)) == cost and ok
    return ok and all(v is not None for v in outputs.values())


WORKLOADS = {w.name: w for w in (Paper, Fuzz, Solve, Render)}
