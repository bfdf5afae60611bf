"""Lint pass + ``python -m repro lint`` CLI tests."""

from pathlib import Path

import pytest

from repro.__main__ import main
from repro.verify.lint import lint_text

FIXTURES = Path(__file__).parent / "data"

GOOD = """
alphabet en = "abcdefghijklmnopqrstuvwxyz"

int d(seq[en] s, index[s] i, seq[en] t, index[t] j) =
  if i == 0 then j
  else if j == 0 then i
  else if s[i-1] == t[j-1] then d(i-1, j-1)
  else (d(i-1, j) min d(i, j-1) min d(i-1, j-1)) + 1
"""

OOB = (FIXTURES / "oob_base_case.dsl").read_text()


class TestLintText:
    def test_good_program_verifies(self):
        result = lint_text(GOOD, "good.dsl")
        assert not result.has_errors
        assert "d" in result.certificates
        assert result.certificates["d"].ok
        rules = [d.rule for d in result.report]
        assert "V-SCHED-CERT" in rules

    def test_oob_program_fails_with_caret(self):
        result = lint_text(OOB, "oob.dsl")
        assert result.has_errors
        rendered = result.render()
        assert "A-OOB-TABLE" in rendered
        assert "^" in rendered  # caret line against the source

    def test_parse_error_is_frontend_diagnostic(self):
        result = lint_text("int f(=", "broken.dsl")
        assert result.has_errors
        assert [d.rule for d in result.report] == ["V-FRONTEND"]

    def test_user_schedule_is_honoured(self):
        # An explicitly declared (valid) schedule becomes the
        # certificate's schedule.
        src = GOOD + "\nschedule d : i + j\n"
        result = lint_text(src, "sched.dsl")
        assert not result.has_errors
        assert str(result.certificates["d"].schedule) == "S = i + j"

    def test_invalid_user_schedule_is_error(self):
        src = GOOD + "\nschedule d : i - j\n"
        result = lint_text(src, "sched.dsl")
        assert result.has_errors
        assert any(
            d.rule == "V-NO-SCHEDULE" for d in result.report
        )

    def test_mutual_group_gets_info_not_error(self):
        from repro.apps.gotoh import ENGLISH, gotoh_source

        result = lint_text(gotoh_source(ENGLISH), "gotoh.dsl")
        assert not result.has_errors
        mutual = [d for d in result.report if d.rule == "V-MUTUAL"]
        assert len(mutual) == 3  # m, x and y
        assert all(d.severity == "info" for d in mutual)

    def test_nominal_extent_is_coupled(self):
        """`s[i-1]` under `i >= 1` must not warn: the sequence length
        and the index extent share the same nominal L."""
        result = lint_text(GOOD, "good.dsl", nominal_extent=5)
        assert not result.has_errors


class TestLintCli:
    def test_clean_script_exits_zero(self, tmp_path, capsys):
        script = tmp_path / "good.dsl"
        script.write_text(GOOD)
        assert main(["lint", str(script)]) == 0
        err = capsys.readouterr().err
        assert "0 error(s)" in err

    def test_oob_script_exits_nonzero_with_caret(self, capsys):
        code = main(["lint", str(FIXTURES / "oob_base_case.dsl")])
        assert code == 1
        captured = capsys.readouterr()
        assert "A-OOB-TABLE" in captured.err
        assert "^" in captured.err

    def test_strict_fails_on_warnings(self, tmp_path):
        script = tmp_path / "warn.dsl"
        script.write_text("""
alphabet en = "ab"

int f(seq[en] s, index[s] i, seq[en] unused) =
  if i == 0 then 0
  else f(i - 1) + 1
""")
        assert main(["lint", str(script)]) == 0
        assert main(["lint", "--strict", str(script)]) == 2

    def test_quiet_suppresses_info(self, tmp_path, capsys):
        script = tmp_path / "good.dsl"
        script.write_text(GOOD)
        main(["lint", "--quiet", str(script)])
        out = capsys.readouterr().out
        assert "V-SCHED-CERT" not in out

    def test_example_scripts_all_pass(self, capsys):
        root = Path(__file__).resolve().parents[2]
        scripts = sorted(
            (root / "examples" / "scripts").glob("*.dsl")
        )
        assert scripts
        for script in scripts:
            assert main(["lint", "--quiet", str(script)]) == 0, (
                f"{script.name} failed lint"
            )

    def test_list_rules_prints_registry(self, capsys):
        from repro.verify.diagnostics import RULES

        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ("A-OOB-TABLE", "R-SPACE-RW", "R-PAR-CERT",
                     "V-SCHED-CERT"):
            assert rule in out
        # every registered rule appears, each on its own line
        lines = [line for line in out.splitlines() if line.strip()]
        assert len(lines) >= len(RULES)

    def test_list_rules_needs_no_script(self, capsys):
        # without the flag, a missing script is still an error
        with pytest.raises(SystemExit):
            main(["lint"])

    def test_lint_reports_parallel_certificate(self, tmp_path):
        script = tmp_path / "good.dsl"
        script.write_text(GOOD)
        from repro.verify.lint import lint_text

        result = lint_text(GOOD, "good.dsl")
        assert "d" in result.parallelism
        cert = result.parallelism["d"]
        assert cert.ok
        assert "R-PAR-CERT" in [d.rule for d in result.report]


class TestExplainShowsVerification:
    def test_explain_prints_certificate(self, tmp_path, capsys):
        script = tmp_path / "good.dsl"
        script.write_text(GOOD)
        assert main(["explain", str(script)]) == 0
        out = capsys.readouterr().out
        assert "verification: schedule verified" in out
