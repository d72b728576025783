import json
import random
from pathlib import Path

import pytest

import metrics
import trees
import workloads
from cstlab import falsify
from spans import NULL, Tracer

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("name", ["fuzz", "solve", "render"])
def test_same_seed_gives_identical_inputs(name, tmp_path):
    def inputs(seed, sub):
        workdir = tmp_path / sub
        workdir.mkdir()
        wl = workloads.WORKLOADS[name](seed, workdir)
        if name == "fuzz":
            return wl.calls
        if name == "render":
            return wl.instance_text, wl.cases, [text for _, text, _ in wl.probes]
        return [(c.alg, c.n, c.path.read_text()) for c in wl.calls]

    assert inputs(5, "a") == inputs(5, "b")
    assert inputs(5, "a2") != inputs(6, "c")


def test_fuzz_passes_use_distinct_trial_seeds(tmp_path):
    wl = workloads.Fuzz(3, tmp_path)
    seeds = [seed for calls in wl.calls for _, _, seed in calls]
    assert len(set(seeds)) == len(seeds)
    other = workloads.Fuzz(4, tmp_path)
    assert not set(seeds) & {seed for calls in other.calls for _, _, seed in calls}


@pytest.mark.parametrize("model,n", [(falsify.GBSPLIT, 5), (falsify.TWCST, 6)])
def test_table_cells_and_fuzz_invariants_match_a_campaign(model, n):
    cfg = falsify.CampaignConfig(model=model, n_min=n, n_max=n, trials=1, base_seed=11)
    report = falsify.campaign(cfg)
    assert report.checked_cells == workloads.table_cells(model, n)
    out = "\n".join(report.summary_lines()) + "\n"
    assert workloads.Fuzz.output_ok(out, model, n)
    assert not workloads.Fuzz.output_ok(out.replace("cells=", "cells=1"), model, n)


def test_fuzz_invariants_reject_an_infeasible_hit():
    cells = workloads.table_cells(falsify.TWCST, 8)
    good = (
        f"model=twcst trials=1 seed=0 n=[8,8] wmax=16 cells={cells}\n"
        "trial=0 cell=(1,8,0) flawed=42 reference=41 gap=1 cert=oracle whole-instance\n"
        "max_gap=1\nwhole_instance_discrepancies=1\n"
        "fuzz.discrepancy_count: expected=0 actual=1 status=FAIL\n"
    )
    assert workloads.Fuzz.output_ok(good, falsify.TWCST, 8)
    bad = good.replace("flawed=42", "flawed=40").replace("gap=1", "gap=-1")
    assert not workloads.Fuzz.output_ok(bad, falsify.TWCST, 8)
    assert not workloads.Fuzz.output_ok(good.replace("actual=1", "actual=2"), falsify.TWCST, 8)


def test_layer_metrics_cover_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer"]}
    computed = set(metrics.layer_metrics([])) | {"trace.overhead"}
    assert computed == names


def test_traced_render_pass_matches_untraced(tmp_path):
    wl = workloads.Render(2, tmp_path)
    wl.cases = wl.cases[:2]
    plain = wl.run_pass(0, NULL)
    tracer = Tracer()
    tracer.phase = "pass0"
    traced = wl.run_pass(0, tracer)
    assert plain.fingerprints == traced.fingerprints
    assert plain.tally.failed == traced.tally.failed == 0
    values = metrics.layer_metrics(tracer.spans)
    assert values["render.parse_tree_s"] > 0
    assert values["render.bytes"] > 0
    # Tracing does not change which probes fail, and every probe that
    # fails does so by hitting the recursion limit in at least one step.
    assert plain.tally.probes == traced.tally.probes == 2
    assert plain.tally.probe_failed == traced.tally.probe_failed
    assert values["render.chain_errors"] >= traced.tally.probe_failed


def test_chain_probe_reports_each_recursion_failure(monkeypatch):
    rng = random.Random(4)
    inst = falsify.random_instance(60, 16, 4)
    tree = trees.gbst_chain(trees.pick_keys(60, 20, rng), rng)
    text, cost = trees.write_tree_file(tree, inst), trees.tree_cost(tree, inst)

    def chain_errors(expect_ok: bool) -> float:
        tracer = Tracer()
        tracer.phase = "pass0"
        assert workloads.chain_probe(tracer, inst, tree, text, cost) is expect_ok
        return metrics.layer_metrics(tracer.spans)["render.chain_errors"]

    # A shallow chain round-trips cleanly.
    assert chain_errors(True) == 0

    real = workloads.render_tree

    def recursing(subject, fmt, instance):
        if fmt in ("dot", "ifelse"):
            raise RecursionError
        return real(subject, fmt, instance)

    monkeypatch.setattr(workloads, "render_tree", recursing)
    assert chain_errors(False) == 2
