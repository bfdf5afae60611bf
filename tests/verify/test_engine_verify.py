"""Engine verify hook + service admission control tests."""

import pytest

from repro.analysis.domain import Domain
from repro.lang.errors import VerificationError
from repro.lang.parser import parse_function
from repro.lang.typecheck import check_function
from repro.runtime.engine import Engine
from repro.runtime.values import Alphabet, Sequence
from repro.schedule.schedule import Schedule

EN = {"en": "abcdefghijklmnopqrstuvwxyz"}
ALPHA = Alphabet("en", "abcdefghijklmnopqrstuvwxyz")

EDIT = """
int d(seq[en] s, index[s] i, seq[en] t, index[t] j) =
  if i == 0 then j
  else if j == 0 then i
  else if s[i-1] == t[j-1] then d(i-1, j-1)
  else (d(i-1, j) min d(i, j-1) min d(i-1, j-1)) + 1
"""

OOB_PROGRAM = """
alphabet en = "abcdefghijklmnopqrstuvwxyz"

int f(seq[en] s, index[s] i) =
  if i == 0 then f(i - 1)
  else f(i - 1) + 1
"""


@pytest.fixture(scope="module")
def edit_func():
    return check_function(parse_function(EDIT.strip()), EN)


def edit_args():
    return {
        "s": Sequence("kitten", ALPHA),
        "t": Sequence("sitting", ALPHA),
    }


class TestEngineVerifyHook:
    def test_default_mode_is_schedule(self):
        """Proving the schedule is the engine's one mode: there is no
        knob to trust the solver or to add the access pass (``lint``
        and service admission run it)."""
        assert not hasattr(Engine(), "verify")
        with pytest.raises(TypeError):
            Engine(verify="off")

    def test_good_run_increments_verified_counter(self, edit_func):
        engine = Engine()
        assert engine.run(edit_func, edit_args()).value == 3
        info = engine.cache_info()
        assert info.verified == 1
        assert info.verify_failures == 0

    def test_bad_schedule_raises_verification_error(self, edit_func):
        engine = Engine()
        domain = Domain(edit_func.dim_names, (7, 8))
        bad = Schedule(edit_func.dim_names, (1, -1))
        with pytest.raises(VerificationError) as exc:
            engine.verify_compiled(edit_func, bad, domain)
        assert "V-SCHED-DELTA" in str(exc.value)
        assert engine.cache_info().verify_failures == 1

    def test_bad_schedule_reaching_run_is_blocked(
        self, edit_func, monkeypatch
    ):
        """If a (hypothetically buggy) solver returned an invalid
        schedule, the verify hook stops it before execution."""
        engine = Engine()
        bad = Schedule(edit_func.dim_names, (1, -1))
        monkeypatch.setattr(
            engine, "schedule_for", lambda *a, **k: bad
        )
        with pytest.raises(VerificationError):
            engine.run(edit_func, edit_args())

    def test_verdicts_are_memoised(self, edit_func):
        engine = Engine()
        for _ in range(3):
            engine.run(edit_func, edit_args())
        assert engine.cache_info().verified == 1

    def test_full_mode_catches_access_errors(self):
        """The access pass the engine's old ``"full"`` mode re-ran is
        ``lint``'s: it reports the out-of-box base case."""
        from repro.verify.lint import lint_text

        result = lint_text(OOB_PROGRAM)
        errors = result.report.by_severity("error")
        assert "A-OOB-TABLE" in {d.rule for d in errors}

    def test_schedule_mode_allows_access_bugs(self):
        """The engine proves ordering only — a base case reading out
        of the box executes (the table read clamps nothing; scalar
        kernels guard it), matching the pre-verifier behaviour."""
        func = check_function(
            parse_function(
                "int f(seq[en] s, index[s] i) =\n"
                "  if i == 0 then 0\n"
                "  else f(i - 1) + 1"
            ),
            EN,
        )
        engine = Engine()
        assert engine.run(func, {"s": Sequence("abc", ALPHA)}).value == 3

    def test_map_run_verifies_once_per_schedule(self, edit_func):
        engine = Engine()
        base = {"s": Sequence("kitten", ALPHA)}
        problems = [
            {"t": Sequence(text, ALPHA)}
            for text in ("sitting", "mitten", "kitty")
        ]
        result = engine.map_run(edit_func, base, problems)
        assert result.values == [3, 1, 2]
        assert engine.cache_info().verified >= 1


class TestServiceAdmission:
    def test_oob_program_rejected_at_submit(self):
        from repro.service.server import ComputeService

        service = ComputeService(workers=1)
        try:
            with pytest.raises(VerificationError) as exc:
                service.submit(OOB_PROGRAM, "f", args={"s": "abc"})
            assert "A-OOB-TABLE" in str(exc.value)
            assert "admission control" in str(exc.value)
        finally:
            service.shutdown()

    def test_good_program_still_served(self):
        from repro.service.server import ComputeService

        program = (
            'alphabet en = "abcdefghijklmnopqrstuvwxyz"\n' + EDIT
        )
        service = ComputeService(workers=1)
        try:
            handle = service.submit(
                program, "d", args={"s": "kitten", "t": "sitting"}
            )
            assert handle.result(timeout=30) == 3
        finally:
            service.shutdown()

    def test_http_rejection_is_400_with_diagnostics(self):
        import threading

        from repro.service.server import (
            ComputeService,
            make_http_server,
            submit_remote,
        )

        service = ComputeService(workers=1)
        server = make_http_server(service, "127.0.0.1", 0)
        thread = threading.Thread(
            target=server.serve_forever, daemon=True
        )
        thread.start()
        host, port = server.server_address[:2]
        try:
            reply = submit_remote(
                host, port, OOB_PROGRAM, "f", args={"s": "abc"}
            )
            assert reply["_status"] == 400
            assert reply["ok"] is False
            assert "A-OOB-TABLE" in reply["error"]
        finally:
            server.shutdown()
            service.shutdown()
