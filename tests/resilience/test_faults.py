"""The deterministic fault-injection plane."""

import numpy as np
import pytest

from repro.resilience.faults import (
    FaultInjector,
    FaultPlan,
    FaultSite,
    LaunchFault,
)
from repro.schedule.schedule import Schedule


def sites(n=200, stage="launch"):
    return [
        FaultSite(problem=k % 7, partition=k % 11, sm=k % 3,
                  attempt=k % 2, stage=stage)
        for k in range(n)
    ]


def launch_outcomes(injector, site_list):
    outcomes = []
    for site in site_list:
        try:
            injector.check_launch(site)
            outcomes.append(False)
        except LaunchFault:
            outcomes.append(True)
    return outcomes


class TestPlanValidation:
    def test_rates_must_be_probabilities(self):
        with pytest.raises(ValueError):
            FaultPlan(launch_fail_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(corrupt_rate=-0.1)

    def test_corrupt_mode_checked(self):
        with pytest.raises(ValueError):
            FaultPlan(corrupt_mode="gamma-ray")


class TestDeterminism:
    def test_same_seed_same_decisions(self):
        plan = FaultPlan(seed=42, launch_fail_rate=0.3)
        first = launch_outcomes(FaultInjector(plan), sites())
        second = launch_outcomes(FaultInjector(plan), sites())
        assert first == second
        assert any(first) and not all(first)

    def test_same_seed_same_log(self):
        plan = FaultPlan(seed=42, launch_fail_rate=0.3,
                         worker_kill_rate=0.2)
        a, b = FaultInjector(plan), FaultInjector(plan)
        for injector in (a, b):
            for site in sites():
                try:
                    injector.check_launch(site)
                except LaunchFault:
                    pass
                injector.sandbox_fault(site)
        assert [(e.kind, e.site) for e in a.log] == [
            (e.kind, e.site) for e in b.log
        ]
        assert a.log  # the campaign actually injected something

    def test_different_seeds_differ(self):
        base = launch_outcomes(
            FaultInjector(FaultPlan(seed=1, launch_fail_rate=0.3)),
            sites(),
        )
        other = launch_outcomes(
            FaultInjector(FaultPlan(seed=2, launch_fail_rate=0.3)),
            sites(),
        )
        assert base != other

    def test_order_independent(self):
        """Decisions depend on the site, not on call order."""
        plan = FaultPlan(seed=7, launch_fail_rate=0.4)
        forward = sites()
        backward = list(reversed(forward))
        a = launch_outcomes(FaultInjector(plan), forward)
        b = launch_outcomes(FaultInjector(plan), backward)
        assert a == list(reversed(b))

    def test_attempt_rerolls(self):
        """A replay is a new dice roll, not a doomed repeat."""
        plan = FaultPlan(seed=0, launch_fail_rate=0.5)
        injector = FaultInjector(plan)
        outcomes = set()
        for attempt in range(16):
            site = FaultSite(0, 0, 0, attempt, "launch")
            try:
                injector.check_launch(site)
                outcomes.add("ok")
            except LaunchFault:
                outcomes.add("fault")
        assert outcomes == {"ok", "fault"}


class TestSiteFilters:
    def test_only_partitions(self):
        plan = FaultPlan(
            seed=3, launch_fail_rate=1.0,
            only_partitions=frozenset({2}),
        )
        injector = FaultInjector(plan)
        injector.check_launch(FaultSite(0, 1, 0, 0, "launch"))  # quiet
        with pytest.raises(LaunchFault):
            injector.check_launch(FaultSite(0, 2, 0, 0, "launch"))

    def test_only_sms(self):
        plan = FaultPlan(
            seed=3, launch_fail_rate=1.0, only_sms=frozenset({5})
        )
        injector = FaultInjector(plan)
        injector.check_launch(FaultSite(0, 0, 4, 0, "launch"))  # quiet
        with pytest.raises(LaunchFault):
            injector.check_launch(FaultSite(0, 0, 5, 0, "launch"))


class TestCorruption:
    def test_nan_damage_on_float_table(self):
        plan = FaultPlan(seed=1, corrupt_rate=0.5, corrupt_mode="nan")
        injector = FaultInjector(plan)
        table = np.ones((8, 8), dtype=np.float64)
        schedule = Schedule(("i", "j"), (1, 1))
        victims = injector.corrupt_cells(
            table, schedule, 0, 14, FaultSite(0, 0, 0, 0, "memory")
        )
        assert victims
        assert np.isnan(table).sum() == len(set(victims))

    def test_bitflip_damage_on_int_table(self):
        plan = FaultPlan(seed=1, corrupt_rate=0.5,
                         corrupt_mode="bitflip")
        injector = FaultInjector(plan)
        table = np.zeros((8, 8), dtype=np.int64)
        schedule = Schedule(("i", "j"), (1, 1))
        victims = injector.corrupt_cells(
            table, schedule, 0, 14, FaultSite(0, 0, 0, 0, "memory")
        )
        assert victims
        for coords in victims:
            assert table[coords] != 0  # silently wrong, not NaN

    def test_victims_stay_in_partition_range(self):
        plan = FaultPlan(seed=5, corrupt_rate=0.9, corrupt_mode="nan")
        injector = FaultInjector(plan)
        table = np.ones((10, 10), dtype=np.float64)
        schedule = Schedule(("i", "j"), (1, 1))
        victims = injector.corrupt_cells(
            table, schedule, 4, 9, FaultSite(0, 4, 0, 0, "memory")
        )
        assert victims
        for coords in victims:
            assert 4 <= schedule.partition_of(list(coords)) <= 9

    def test_victim_set_is_seeded(self):
        plan = FaultPlan(seed=9, corrupt_rate=0.4, corrupt_mode="nan")
        schedule = Schedule(("i", "j"), (1, 1))
        site = FaultSite(0, 0, 0, 0, "memory")
        results = []
        for _ in range(2):
            table = np.ones((6, 6), dtype=np.float64)
            results.append(
                FaultInjector(plan).corrupt_cells(
                    table, schedule, 0, 10, site
                )
            )
        assert results[0] == results[1]
