"""Random-instance generation, subproblem audits, and campaign behavior."""
from collections import Counter

import pytest

from cstlab.bench import build_instance, exhibit
from cstlab.cli import main
from cstlab.falsify import (
    GBSPLIT,
    MODELS,
    TWCST,
    CampaignConfig,
    CampaignReport,
    Discrepancy,
    InjectedCase,
    audit_subproblems,
    campaign,
    random_instance,
    replay_trial,
)
from cstlab.hw import hw_solve
from cstlab.model import Instance, Interval, format_instance, gbst_join, tree_cost
from cstlab.oracle import SizeLimitError
from cstlab.spuler import spuler_solve


# One random 16-key trial whose Spuler table has a real gap: cell (1,16,2)
# at 266 against 265.  The small campaigns used elsewhere here find none.
GAP_CAMPAIGN = CampaignConfig(
    model=TWCST, n_min=16, n_max=16, wmax=16, trials=1, base_seed=196, holes_max=2
)


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
        assert limited == [d for d in all_cells if d.h <= 1]


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
        cfg = GAP_CAMPAIGN
        report = campaign(cfg)
        assert [(d.i, d.j, d.h, d.flawed_cost, d.oracle_cost) for d in report.discrepancies] == [
            (1, 16, 2, 266, 265)
        ]
        for d in report.discrepancies:
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
        case = InjectedCase("I31", i31, exhibit("fig3", i31))
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
        cfg = GAP_CAMPAIGN
        report = campaign(cfg)
        assert report.discrepancies
        for d in report.discrepancies:
            assert d.seed == cfg.base_seed + d.trial
            assert d in replay_trial(cfg, d.trial)

    def test_negative_gap_is_fatal(self, monkeypatch):
        # A DP cost below the optimum means the artifact itself is broken;
        # the audit must refuse to report it as a finding.
        from cstlab.falsify import FeasibilityError
        from cstlab.oracle import GbstOracle

        inst = random_instance(4, 9, 12)

        def star_rows(self, iv, holes_max=None):
            return {(i, j): [10**9] * (j - i + 2) for i in iv.keys() for j in range(i, iv.j + 1)}

        monkeypatch.setattr(GbstOracle, "star_rows", star_rows)
        with pytest.raises(FeasibilityError):
            audit_subproblems(GBSPLIT, inst)

    def test_discrepancy_instances_export_for_replay(self):
        from cstlab.model import format_instance, parse_instance

        i15 = build_instance("I15").instance
        found = audit_subproblems(TWCST, i15)
        assert found
        assert parse_instance(format_instance(found[0].instance)) == i15

    @pytest.mark.parametrize("holes_max", [None, 0, 1, "n + 3"])
    def test_checked_cells_are_the_cells_within_holes_max(self, holes_max):
        def config(model: str, n: int, trial_n: int) -> tuple[CampaignConfig, int]:
            limit = n + 3 if holes_max == "n + 3" else holes_max
            cells = MODELS[model].table(random_instance(n, 16, 0)).cells()
            want = sum(1 for _, _, h in cells if limit is None or h <= limit)
            cfg = CampaignConfig(model, n_min=trial_n, n_max=trial_n, trials=1, holes_max=limit)
            return cfg, want

        # I15 is injected before one one-key trial, whose one cell has h = 0.
        cfg, want = config(TWCST, 15, 1)
        i15 = InjectedCase("I15", build_instance("I15").instance)
        assert campaign(cfg, injected=(i15,)).checked_cells == want + 1
        cfg, want = config(GBSPLIT, 10, 10)
        assert campaign(cfg).checked_cells == want

    def test_refused_case_without_witness_checks_no_cell(self):
        cfg = CampaignConfig(model=GBSPLIT, n_min=3, n_max=4, trials=2, base_seed=1)
        big = InjectedCase("big", random_instance(20, 9, 1))
        plain = campaign(cfg)
        report = campaign(cfg, injected=(big,))
        assert report.checked_cells == plain.checked_cells
        assert report.trials_run == plain.trials_run + 1
        assert report.oracle_refusals == (
            "trial 0 (big): n=20 exceeds oracle limit 16; no witness, not checked",
        )

    def test_records_carry_their_trial_tags(self, monkeypatch):
        # Random sweeps this small find no gap, so each random trial audits
        # a scaled I15, which keeps the (1,15,2) gap times the scale.
        from cstlab import falsify

        i15 = build_instance("I15").instance
        monkeypatch.setattr(falsify, "random_instance", lambda n, wmax, seed: i15.scaled(seed))
        cfg = CampaignConfig(model=TWCST, n_min=15, n_max=15, trials=2, base_seed=1)
        report = campaign(cfg, injected=(InjectedCase("I15", i15),))
        injected = [d for d in report.discrepancies if d.name is not None]
        assert [(d.trial, d.name, d.seed) for d in injected] == [(0, "I15", None)]
        for t in (1, 2):
            found = [d for d in report.discrepancies if d.trial == t]
            assert found and all(d.seed == cfg.base_seed + t and d.name is None for d in found)
            assert replay_trial(cfg, t) == found
        assert [d.gap for d in report.discrepancies] == [1, 2, 3]

    def test_witness_record_counts_one_cell(self):
        i31 = build_instance("I31").instance
        cfg = CampaignConfig(model=GBSPLIT, n_min=2, n_max=4, trials=1, base_seed=1)
        report = campaign(cfg, injected=(InjectedCase("I31", i31, exhibit("fig3", i31)),))
        (d,) = [d for d in report.discrepancies if d.certified == "witness"]
        assert (d.trial, d.name, d.seed) == (0, "I31", None)
        assert report.checked_cells == campaign(cfg).checked_cells + 1

    @pytest.mark.parametrize("witness,cost", [("hw", 1763), ("chain", 7046)])
    def test_witness_is_only_an_upper_bound(self, witness, cost):
        # A witness that costs as much as HW's root (HW's own tree) or more
        # (the right chain) records nothing and raises nothing, yet its one
        # cell is checked.
        i31 = build_instance("I31").instance
        if witness == "hw":
            tree = hw_solve(i31, i31.full_interval(), 0).tree
        else:
            tree = None
            for k in range(i31.n, 0, -1):
                tree = gbst_join(k, k, k, None, tree)
        assert tree_cost(tree, i31) == cost
        cfg = CampaignConfig(model=GBSPLIT, n_min=2, n_max=4, trials=1, base_seed=1)
        report = campaign(cfg, injected=(InjectedCase("I31", i31, tree),))
        assert not [d for d in report.discrepancies if d.name == "I31"]
        assert report.checked_cells == campaign(cfg).checked_cells + 1
        assert report.oracle_refusals == (
            "trial 0 (I31): n=31 exceeds oracle limit 16; witness comparison only",
        )

    def test_invalid_witness_is_refused(self):
        i31 = build_instance("I31").instance
        cfg = CampaignConfig(model=GBSPLIT, n_min=2, n_max=4, trials=1, base_seed=1)
        with pytest.raises(ValueError, match="witness tree for I31 invalid"):
            campaign(cfg, injected=(InjectedCase("I31", i31, gbst_join(1, 1, 1, None, None)),))

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

    def test_rows_are_exactly_the_listed_cells(self, name):
        """Each key's five columns hold exactly one entry per listed cell
        that starts at the key, and no key outside the root has columns;
        the row of [i, j] has one entry per listed hole count, and no empty
        interval has a row."""
        inst = build_instance("I9").instance
        for interval in (None, Interval(2, 7)):
            table = MODELS[name].table(inst, interval)
            cells = list(table.cells())
            want = Counter(i for i, _, _ in cells)
            got = {i: {len(col) for col in cols} for i, cols in enumerate(table._cols) if cols}
            assert got == {i: {count} for i, count in want.items()}
            off = table._off
            rows = {(i, j): off[j - i + 1] - off[j - i] for i, j, _ in cells}
            assert rows == Counter((i, j) for i, j, _ in cells)

    def test_accessors_answer_exactly_the_listed_cells(self, name):
        """No accessor answers for a cell that cells() does not list: an
        empty interval [i, i - 1], an interval outside the root or a hole
        count out of range."""
        inst = build_instance("I9").instance
        table = MODELS[name].table(inst)
        cells = set(table.cells())
        for i in range(inst.n + 2):
            for j in range(inst.n + 2):
                for h in range(-1, inst.n + 2):
                    if (i, j, h) in cells:
                        assert table.cost(i, j, h) == table.result(i, j, h).cost
                        continue
                    refusal = KeyError if i > j else (KeyError, ValueError)
                    for accessor in (table.cost, table.result, table.choice):
                        with pytest.raises(refusal):
                            accessor(i, j, h)

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


class TestSummaryLines:
    CFG = CampaignConfig(model=TWCST, n_min=3, n_max=5, wmax=9, trials=2, base_seed=7)

    def test_clean_report(self):
        report = CampaignReport(self.CFG, trials_run=2, checked_cells=11, discrepancies=())
        assert report.summary_lines() == [
            "model=twcst trials=2 seed=7 n=[3,5] wmax=9 cells=11",
            "max_gap=0",
            "whole_instance_discrepancies=0",
            "fuzz.discrepancy_count: expected=0 actual=0 status=PASS",
        ]

    @pytest.mark.parametrize(
        "cell,whole", [((1, 4, 0), True), ((1, 4, 1), False), ((2, 4, 0), False), ((1, 3, 0), False)]
    )
    def test_whole_instance_is_read_from_the_cell(self, cell, whole):
        assert Discrepancy(random_instance(4, 9, 3), *cell, 2, 1).whole_instance is whole

    def test_report_with_two_gaps(self):
        inst = random_instance(4, 9, 3)
        whole = Discrepancy(inst, 1, 4, 0, 12, 10, trial=0, seed=7)
        cell = Discrepancy(inst, 2, 4, 1, 6, 5, trial=1, seed=8)
        report = CampaignReport(self.CFG, trials_run=2, checked_cells=20,
                                discrepancies=(whole, cell))
        assert report.summary_lines() == [
            "model=twcst trials=2 seed=7 n=[3,5] wmax=9 cells=20",
            "trial=0 cell=(1,4,0) flawed=12 reference=10 gap=2 cert=oracle whole-instance",
            "trial=1 cell=(2,4,1) flawed=6 reference=5 gap=1 cert=oracle",
            "max_gap=2",
            "whole_instance_discrepancies=1",
            "fuzz.discrepancy_count: expected=0 actual=2 status=FAIL",
        ]
