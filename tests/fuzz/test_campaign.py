"""Campaign determinism, the report formats, and the fuzz CLI."""

import json

from repro.__main__ import main
from repro.fuzz.campaign import run_campaign


class TestCampaign:
    def test_small_campaign_is_clean(self):
        report = run_campaign(seed=1, count=10)
        assert report.ok
        assert report.cases_run == 10
        assert sum(report.classifications.values()) == 10
        assert sum(report.shapes.values()) == 10

    def test_finding_is_shrunk_against_the_harness(self, monkeypatch):
        """A finding is delta-debugged with the harness as the
        predicate: when every candidate still diverges, the reproducer
        shrinks below the original script."""
        from repro.fuzz.differential import CaseOutcome, DifferentialHarness

        calls = []

        def diverges(self, case):
            calls.append(case)
            return CaseOutcome(case, "divergence", "injected")

        monkeypatch.setattr(DifferentialHarness, "classify", diverges)
        report = run_campaign(seed=3, count=1)
        (record,) = report.failures
        assert record.classification == "divergence"
        assert record.shrink_steps > 0
        assert len(calls) > 1
        assert len(record.shrunk_script) < len(record.script)

    def test_same_seed_same_report(self):
        first = run_campaign(seed=2, count=8)
        second = run_campaign(seed=2, count=8)
        assert first.render() == second.render()
        assert first.to_json() == second.to_json()

    def test_different_seed_different_programs(self):
        first = run_campaign(seed=3, count=8)
        second = run_campaign(seed=4, count=8)
        # Shape histograms almost surely differ; the reports must.
        assert (
            first.shapes != second.shapes
            or first.classifications != second.classifications
        )

    def test_budget_cutoff_recorded(self):
        report = run_campaign(seed=5, count=50, budget_seconds=1e-9)
        assert report.budget_exhausted
        assert report.cases_run < 50

    def test_report_contains_no_wallclock(self):
        rendered = run_campaign(seed=6, count=5).render()
        assert "second" not in rendered
        assert " ms" not in rendered

    def test_json_shape(self):
        payload = json.loads(run_campaign(seed=7, count=5).to_json())
        assert payload["ok"] is True
        assert payload["cases_run"] == 5
        assert set(payload["classifications"]) == {
            "crash", "service-crash", "divergence", "race-gap",
            "map-native-divergence", "service-divergence",
            "eligibility-mismatch", "lint-gap",
            "rejected", "parity-ok",
        }
        assert payload["rules"]
        assert payload["failures"] == []


class TestCli:
    def test_fuzz_exit_zero_on_clean(self, capsys):
        assert main(["fuzz", "--seed", "8", "--count", "5"]) == 0
        out = capsys.readouterr().out
        assert "fuzz campaign: seed=8 cases=5/5" in out
        assert "failures: none" in out

    def test_fuzz_json(self, capsys):
        assert main(
            ["fuzz", "--seed", "9", "--count", "4", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["seed"] == 9
        assert payload["cases_run"] == 4

    def test_fuzz_deterministic_output(self, capsys):
        assert main(["fuzz", "--seed", "10", "--count", "5"]) == 0
        first = capsys.readouterr().out
        assert main(["fuzz", "--seed", "10", "--count", "5"]) == 0
        assert capsys.readouterr().out == first

    def test_no_native_flag(self, capsys):
        assert main(
            ["fuzz", "--seed", "11", "--count", "3", "--no-native"]
        ) == 0
        out = capsys.readouterr().out
        assert "native-unavailable" in out
