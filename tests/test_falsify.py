"""Random-instance generation, subproblem audits, and campaign behavior."""
import pytest

from cstlab.bench import build_instance, fig3_witness_tree
from cstlab.cli import main
from cstlab.falsify import (
    GBSPLIT,
    MODELS,
    TWCST,
    CampaignConfig,
    InjectedCase,
    audit_subproblems,
    campaign,
    random_instance,
    replay_trial,
)
from cstlab.hw import hw_solve
from cstlab.model import Instance, format_instance
from cstlab.oracle import SizeLimitError
from cstlab.spuler import spuler_solve


class TestRandomInstance:
    def test_deterministic(self):
        assert random_instance(5, 10, 42) == random_instance(5, 10, 42)

    def test_single_key(self):
        assert random_instance(1, 10, 3).n == 1

    def test_many_draws_satisfy_invariants(self):
        for seed in range(1000):
            inst = random_instance(6, 16, seed)
            assert inst.n == 6
            assert all(0 <= w <= 16 for w in inst.weights)

    def test_zero_mass_configurable(self):
        heavy_zero = sum(
            random_instance(8, 16, s, zero_weight_prob=0.9).weights.count(0)
            for s in range(50)
        )
        light_zero = sum(
            random_instance(8, 16, s, zero_weight_prob=0.0).weights.count(0)
            for s in range(50)
        )
        assert heavy_zero > light_zero

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            random_instance(0, 10, 1)


class TestAuditSubproblems:
    def test_i15_twcst_nonempty(self):
        i15 = build_instance("I15").instance
        found = audit_subproblems(TWCST, i15)
        assert found
        # The known bad subproblem is reachable from the (1,15,2) run; the
        # audit must flag at least one cell inside the full interval's table.
        assert any(d.gap >= 1 for d in found)
        assert found[0].gap == max(d.gap for d in found)

    def test_i9_gbsplit_cell_is_clean_at_target(self):
        i9 = build_instance("I9").instance
        found = audit_subproblems(GBSPLIT, i9)
        assert not any((d.i, d.j, d.h) == (1, 9, 2) for d in found)

    def test_single_key_instance_empty(self):
        inst = Instance(("A",), (3,))
        assert audit_subproblems(GBSPLIT, inst) == []
        assert audit_subproblems(TWCST, inst) == []

    def test_size_refusal_propagates(self):
        i31 = build_instance("I31").instance
        with pytest.raises(SizeLimitError) as exc:
            audit_subproblems(GBSPLIT, i31)
        # The whole instance is refused, not its first oversized cell.
        assert exc.value.size == 31

    def test_holes_max_restricts(self):
        i15 = build_instance("I15").instance
        all_cells = audit_subproblems(TWCST, i15)
        limited = audit_subproblems(TWCST, i15, holes_max=1)
        assert all(d.h <= 1 for d in limited)
        assert len(limited) <= len(all_cells)


class TestCampaign:
    def test_single_key_campaign_clean(self):
        cfg = CampaignConfig(model=GBSPLIT, n_min=1, n_max=1, trials=5, base_seed=3)
        report = campaign(cfg)
        assert report.discrepancies == ()
        assert report.trials_run == 5

    def test_deterministic(self):
        cfg = CampaignConfig(model=TWCST, n_min=2, n_max=7, trials=25, base_seed=11)
        a = campaign(cfg)
        b = campaign(cfg)
        assert a.summary_lines() == b.summary_lines()

    def test_replay_reproduces_gaps(self):
        cfg = CampaignConfig(model=TWCST, n_min=4, n_max=8, trials=40, base_seed=5)
        report = campaign(cfg)
        for d in report.discrepancies[:5]:
            replayed = replay_trial(cfg, d.trial)
            match = [
                r
                for r in replayed
                if (r.i, r.j, r.h) == (d.i, d.j, d.h) and r.gap == d.gap
            ]
            assert match

    def test_injected_i31_witness_discrepancy(self):
        i31 = build_instance("I31").instance
        cfg = CampaignConfig(model=GBSPLIT, n_min=2, n_max=4, trials=2, base_seed=1)
        case = InjectedCase("I31", i31, fig3_witness_tree())
        report = campaign(cfg, injected=(case,))
        hits = [d for d in report.discrepancies if d.name == "I31"]
        assert len(hits) == 1
        d = hits[0]
        assert d.trial == 0
        assert d.whole_instance
        assert d.certified == "witness"
        assert d.gap == 1
        assert d.flawed_cost == 1763 and d.oracle_cost == 1762
        assert report.oracle_refusals  # n=31 exceeds the oracle limit

    def test_bad_config(self):
        with pytest.raises(ValueError):
            CampaignConfig(model="nope")
        with pytest.raises(ValueError):
            CampaignConfig(model=GBSPLIT, trials=0)
        with pytest.raises(ValueError):
            CampaignConfig(model=GBSPLIT, n_max=40)

    def test_every_discrepancy_is_replayable(self):
        cfg = CampaignConfig(model=GBSPLIT, n_min=3, n_max=7, trials=30, base_seed=21)
        report = campaign(cfg)
        for d in report.discrepancies:
            assert d.seed == cfg.base_seed + d.trial

    def test_negative_gap_is_fatal(self, monkeypatch):
        # A DP cost below the optimum means the artifact itself is broken;
        # the audit must refuse to report it as a finding.
        from cstlab.falsify import FeasibilityError
        from cstlab.oracle import GbstOracle

        inst = random_instance(4, 9, 12)
        monkeypatch.setattr(
            GbstOracle, "opt_star_cost", lambda self, iv, h: 10**9
        )
        with pytest.raises(FeasibilityError):
            audit_subproblems(GBSPLIT, inst)

    def test_discrepancy_instances_export_for_replay(self):
        from cstlab.model import format_instance, parse_instance

        i15 = build_instance("I15").instance
        found = audit_subproblems(TWCST, i15)
        assert found
        assert parse_instance(format_instance(found[0].instance)) == i15

    def test_mutant_counterexample_found_by_sweeps(self):
        # Harness discovery, frozen as a regression: raising the I15
        # pattern's third weight from 0 to 1 moves the bad cell to a 14-key
        # one-hole subproblem (DP 120 versus optimum 119).
        weights = (7, 5, 1, 5, 0, 5, 0, 5, 0, 5, 0, 5, 0, 5, 7)
        inst = Instance(tuple(f"K{k:02d}" for k in range(1, 16)), weights)
        found = audit_subproblems(TWCST, inst)
        cells = {(d.i, d.j, d.h): (d.flawed_cost, d.oracle_cost) for d in found}
        assert cells[(1, 14, 1)] == (120, 119)


@pytest.mark.parametrize("name", sorted(MODELS))
class TestModels:
    """Each family's table, oracle and CLI agree on one max-holes rule."""

    SOLVERS = {"hw": hw_solve, "spuler": spuler_solve}

    def test_min_queries_agree(self, name):
        spec = MODELS[name]
        want = {GBSPLIT: 0, TWCST: 1}[name]
        assert spec.table.min_queries == spec.oracle.min_queries == want

    def test_cells_are_the_admissible_hole_counts(self, name):
        spec = MODELS[name]
        n = 5
        mq = spec.table.min_queries
        want = {
            (i, j, h)
            for i in range(1, n + 1)
            for j in range(i, n + 1)
            for h in range(n + 2)
            if h <= j - i + 1 - mq
        }
        cells = list(spec.table(random_instance(n, 9, 3)).cells())
        assert len(cells) == len(want)
        assert set(cells) == want

    def test_dp_and_oracle_reject_the_same_hole_count(self, name):
        spec = MODELS[name]
        solve = self.SOLVERS[spec.dp]
        inst = random_instance(4, 9, 5)
        full = inst.full_interval()
        bad = full.size - spec.table.min_queries + 1
        with pytest.raises(ValueError) as dp_err:
            solve(inst, full, bad)
        with pytest.raises(ValueError) as oracle_err:
            spec.oracle(inst).opt_star_cost(full, bad)
        assert str(dp_err.value) == str(oracle_err.value)
        assert str(dp_err.value) == f"hole count {bad} out of range 0..{bad - 1}"
        assert solve(inst, full, bad - 1).cost == spec.oracle(inst).opt_star_cost(full, bad - 1)

    def test_cli_pairs_the_dp_with_its_model(self, name, tmp_path, capsys):
        path = tmp_path / "inst.txt"
        path.write_text(format_instance(random_instance(4, 9, 5)))
        for other, spec in MODELS.items():
            argv = ["solve", "--model", name, "--alg", spec.dp, "--instance", str(path)]
            assert main(argv) == (0 if other == name else 2)
