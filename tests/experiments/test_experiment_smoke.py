"""Experiment structure: table shape, determinism, E1's environment.

The claim checks -- who wins, roughly by how much -- live in
``tests/experiments/test_eN.py`` and ``test_ablations.py``.  Here:
every table those checks read is well formed (checked on the same
claim-size runs, from :mod:`.claim_tables`), seeded runs repeat, the E1
environment keeps its invariants, and ``run_all --list`` lists the
suite.
"""

from repro.experiments import e1_levels, e4_volunteer, e8_meta
from repro.experiments.harness import ExperimentTable

from . import claim_tables


def assert_well_formed(table, experiment_id, expected_rows):
    assert isinstance(table, ExperimentTable)
    assert table.experiment_id == experiment_id
    assert len(table.rows) == expected_rows


class TestSmoke:
    def test_e1(self):
        table = claim_tables.e1()
        assert_well_formed(table, "E1", 6)  # static + 5 rungs
        assert all(0.0 <= r["mean_utility"] <= 1.0 for r in table.rows)

    def test_e2(self):
        # 5 controllers x 3 scenarios.
        assert_well_formed(claim_tables.e2(), "E2", 15)

    def test_e3(self):
        assert_well_formed(claim_tables.e3(), "E3", 5)
        assert_well_formed(claim_tables.e3_goal_change(), "E3b", 3)

    def test_e4(self):
        table = claim_tables.e4()
        assert_well_formed(table, "E4", 4)
        assert all(0.0 <= r["success_rate"] <= 1.0 for r in table.rows)

    def test_e5(self):
        assert_well_formed(claim_tables.e5(), "E5", 4)
        assert_well_formed(claim_tables.e5_goal_change(), "E5b", 3)

    def test_e6(self):
        table = claim_tables.e6()
        assert_well_formed(table, "E6", 3)
        assert all(0.0 <= r["delivery"] <= 1.0 for r in table.rows)

    def test_e7(self):
        # 4 policies per budget.
        assert_well_formed(claim_tables.e7(), "E7",
                           4 * len(claim_tables.E7_BUDGETS))

    def test_e8(self):
        assert_well_formed(claim_tables.e8(), "E8", 4)

    def test_e9(self):
        # 3 schemes x 2 failure modes per size.
        assert_well_formed(claim_tables.e9(), "E9",
                           6 * len(claim_tables.E9_SIZES))

    def test_e10(self):
        assert_well_formed(claim_tables.e10(), "E10", 4)

    def test_e11(self):
        assert_well_formed(claim_tables.e11(), "E11", 3)


class TestDeterminism:
    def test_e1_deterministic_under_seed(self):
        a = e1_levels.run(seeds=(3,), steps=200)
        b = e1_levels.run(seeds=(3,), steps=200)
        assert a.column("mean_utility") == b.column("mean_utility")

    def test_e4_deterministic_under_seed(self):
        a = e4_volunteer.run(seeds=(3,), steps=500)
        b = e4_volunteer.run(seeds=(3,), steps=500)
        assert a.column("success_rate") == b.column("success_rate")

    def test_e8_deterministic_under_seed(self):
        a = e8_meta.run(seeds=(3,), steps=500)
        b = e8_meta.run(seeds=(3,), steps=500)
        assert a.column("mean_reward") == b.column("mean_reward")


class TestE1Environment:
    def test_storm_bounded(self):
        env = e1_levels.ResourceAllocationEnvironment(seed=0)
        for t in range(300):
            env.apply("lean", float(t))
            assert 0.0 <= env.current_storm(float(t)) <= 1.0

    def test_drift_permutation_changes_outcomes(self):
        env = e1_levels.ResourceAllocationEnvironment(seed=0,
                                                      inversion_time=100.0)
        env.storminess.sigma = 0.0
        env.storminess.reversion = 0.0
        env.apply("lean", 50.0)
        # Drive past the inversion at the same storm level.
        env.apply("lean", 150.0)
        # The permutation is non-identity over the whole table: at least
        # the action space's perf structure moved.
        perfs_pre = {a: e1_levels.ACTION_TABLE[a][:2]
                     for a in e1_levels.ACTION_TABLE}
        assert env._post_drift_perf != perfs_pre

    def test_peer_reports_in_unit_interval(self):
        env = e1_levels.ResourceAllocationEnvironment(seed=0)
        for t in range(100):
            for _entity, name, value in env.peer_reports(float(t)):
                assert name == "storm"
                assert 0.0 <= value <= 1.0
            env.apply("lean", float(t))


class TestSuiteListing:
    """`run_all --list`: ids, suite membership and module-docstring titles."""

    def test_every_full_suite_job_is_listed_once(self):
        from repro.experiments.run_all import list_experiments, suite_jobs
        lines = list_experiments()
        jobs = suite_jobs(quick=False)
        assert len(lines) == len(jobs)
        assert [line.split()[0] for line in lines] \
            == [job.name for job in jobs]

    def test_membership_column_matches_the_quick_suite(self):
        from repro.experiments.run_all import list_experiments, suite_jobs
        quick = {job.name for job in suite_jobs(quick=True)}
        for line in list_experiments():
            name = line.split()[0]
            expected = "quick+full" if name in quick else "full only"
            assert expected in line

    def test_titles_come_from_module_docstrings(self):
        from repro.experiments.run_all import list_experiments
        e14_line = next(line for line in list_experiments()
                        if line.startswith("E14"))
        assert "self-aware serving" in e14_line
