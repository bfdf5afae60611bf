"""Tests for the ``python -m repro`` command-line entry point."""

import re
import signal
import subprocess
import sys

import pytest

from repro.__main__ import DEMO, main
from repro.service.server import submit_remote


class TestCli:
    def test_demo(self, capsys):
        assert main(["--demo"]) == 0
        out = capsys.readouterr().out
        assert "3" in out

    def test_script_file(self, tmp_path, capsys):
        script = tmp_path / "prog.dsl"
        script.write_text(DEMO)
        assert main([str(script)]) == 0
        assert "3" in capsys.readouterr().out

    def test_time_flag(self, tmp_path, capsys):
        script = tmp_path / "prog.dsl"
        script.write_text(DEMO)
        assert main([str(script), "--time"]) == 0
        err = capsys.readouterr().err
        assert "partitions" in err
        assert "simulated" in err

    def test_cuda_flag(self, capsys):
        assert main(["--demo", "--cuda"]) == 0
        assert "__global__" in capsys.readouterr().err

    def test_missing_script(self):
        with pytest.raises(SystemExit):
            main([])

    def test_nonexistent_script(self):
        with pytest.raises(SystemExit):
            main(["/nonexistent/prog.dsl"])

    def test_dsl_error_rendered_with_caret(self, tmp_path, capsys):
        script = tmp_path / "bad.dsl"
        script.write_text(
            'alphabet en = "ab"\n'
            "int f(seq[en] s, index[s] i) = if i == 0 then 0 else k\n"
            'print f("ab", 2)\n'
        )
        assert main([str(script)]) == 1
        err = capsys.readouterr().err
        assert "unknown variable" in err
        assert "^" in err  # caret diagnostics

    def test_explain_reports_backend_and_rule(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
        script = tmp_path / "prog.dsl"
        script.write_text(DEMO)
        assert main(["explain", str(script)]) == 0
        out = capsys.readouterr().out
        assert "d: backend=vector rule=ok" in out
        assert "schedule=S = i + j" in out
        assert "native: [disabled]" in out

    def test_explain_reduction_kernel(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
        script = tmp_path / "fwd.dsl"
        script.write_text(
            'alphabet dna = "acgt"\n'
            "hmm h [dna] {\n"
            "  state b : start\n"
            "  state m emits { a: 0.5, t: 0.5 }\n"
            "  state e : end\n"
            "  trans b -> m : 1.0\n"
            "  trans m -> m : 0.5\n"
            "  trans m -> e : 0.5\n"
            "}\n"
            "prob fw(hmm h, state[h] s, seq[*] x, index[x] i) =\n"
            "  if i == 0 then (if s.isstart then 1.0 else 0.0)\n"
            "  else (if s.isend then 1.0 else s.emission[x[i-1]])\n"
            "    * sum(t in s.transitionsto : t.prob * fw(t.start, i-1))\n"
            'print fw(h, h.end, "at", 2)\n'
        )
        assert main(["explain", str(script)]) == 0
        out = capsys.readouterr().out
        assert "fw: backend=vector rule=ok" in out
        assert "masked lane-uniform" in out

    def test_explain_scalar_fallback_named(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
        script = tmp_path / "one.dsl"
        script.write_text(
            "int f(int n) = if n == 0 then 0 else f(n-1) + 1\n"
            "print f(4)\n"
        )
        assert main(["explain", str(script)]) == 0
        out = capsys.readouterr().out
        assert "f: backend=scalar rule=rank" in out

    def test_explain_json_mode(self, tmp_path, capsys, monkeypatch):
        """--json emits machine-readable eligibility verdicts and
        certificate summaries, nothing else on stdout."""
        import json

        monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
        script = tmp_path / "prog.dsl"
        script.write_text(DEMO)
        assert main(["explain", str(script), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["script"] == str(script)
        (record,) = payload["functions"]
        assert record["function"] == "d"
        assert record["backend"] == "vector"
        assert record["vector"] == {
            "ok": True,
            "rule": "ok",
            "detail": record["vector"]["detail"],
        }
        assert record["native_toolchain"]["ok"] is False
        assert record["native_toolchain"]["rule"] == "disabled"
        assert record["verification"]["ok"] is True
        assert "verified" in record["verification"]["summary"]

    def test_explain_json_scalar_fallback(
        self, tmp_path, capsys, monkeypatch
    ):
        import json

        monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
        script = tmp_path / "one.dsl"
        script.write_text(
            "int f(int n) = if n == 0 then 0 else f(n-1) + 1\n"
            "print f(4)\n"
        )
        assert main(["explain", str(script), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        (record,) = payload["functions"]
        assert record["backend"] == "scalar"
        assert record["vector"]["ok"] is False
        assert record["vector"]["rule"] == "rank"

    def test_explain_prints_parallel_verdict(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
        script = tmp_path / "prog.dsl"
        script.write_text(DEMO)
        assert main(["explain", str(script)]) == 0
        out = capsys.readouterr().out
        assert "parallel: space=confirmed" in out

    def test_explain_json_parallel_block(
        self, tmp_path, capsys, monkeypatch
    ):
        import json

        monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
        script = tmp_path / "prog.dsl"
        script.write_text(DEMO)
        assert main(["explain", str(script), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        (record,) = payload["functions"]
        parallel = record["parallel"]
        assert parallel["ok"] is True
        assert parallel["space"]["status"] == "confirmed"
        assert parallel["batched"]["status"] == "confirmed"
        assert parallel["tile"]["status"] == "confirmed"
        assert set(parallel) == {
            "function", "schedule", "ok", "space", "batched", "tile",
        }

    def test_explain_autotune_flag_is_gone(self, tmp_path, capsys):
        """The device model prices, it does not choose: asking
        ``explain`` for an autotuned schedule is a usage error."""
        script = tmp_path / "prog.dsl"
        script.write_text(DEMO)
        for flags in (["--autotune"], ["--extent", "64"]):
            with pytest.raises(SystemExit) as err:
                main(["explain", str(script)] + flags)
            assert err.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_serve_schedule_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["serve", "--schedule", "autotune"])
        assert err.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_serve_sandbox_and_chaos_flags_are_gone(self, capsys):
        """``REPRO_NATIVE_SANDBOX`` and ``REPRO_CHAOS_*`` reach the
        service already; ``serve`` does not spell them twice."""
        for flags in (
            ["--sandbox"], ["--chaos-rate", "0.1"],
            ["--chaos-corrupt", "0.1"], ["--chaos-seed", "1"],
            ["--chaos-kill", "0.1"], ["--chaos-hang", "0.1"],
        ):
            with pytest.raises(SystemExit) as err:
                main(["serve"] + flags)
            assert err.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_logspace_mode(self, tmp_path, capsys):
        script = tmp_path / "fwd.dsl"
        script.write_text(
            'alphabet dna = "acgt"\n'
            "hmm h [dna] {\n"
            "  state b : start\n"
            "  state m emits { a: 0.5, t: 0.5 }\n"
            "  state e : end\n"
            "  trans b -> m : 1.0\n"
            "  trans m -> m : 0.5\n"
            "  trans m -> e : 0.5\n"
            "}\n"
            "prob fw(hmm h, state[h] s, seq[*] x, index[x] i) =\n"
            "  if i == 0 then (if s.isstart then 1.0 else 0.0)\n"
            "  else (if s.isend then 1.0 else s.emission[x[i-1]])\n"
            "    * sum(t in s.transitionsto : t.prob * fw(t.start, i-1))\n"
            'print fw(h, h.end, "at", 2)\n'
        )
        assert main([str(script), "--prob-mode", "logspace"]) == 0
        out = capsys.readouterr().out
        assert out.strip().startswith("0.25")


class TestServeSigterm:
    def test_final_stats_printed_once(self):
        """SIGTERM's drain flushes the final stats; ``serve`` itself
        must not print them a second time on the way out."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "1"],
            stderr=subprocess.PIPE,
        )
        try:
            banner = proc.stderr.readline().decode()
            port = int(re.search(r":(\d+) ", banner).group(1))
            reply = submit_remote(
                "127.0.0.1", port,
                'alphabet en = "abcdefghijklmnopqrstuvwxyz"\n'
                "int d(seq[en] s, index[s] i, seq[en] t, index[t] j) =\n"
                "  if i == 0 then j else if j == 0 then i\n"
                "  else if s[i-1] == t[j-1] then d(i-1, j-1)\n"
                "  else (d(i-1, j) min d(i, j-1) min d(i-1, j-1)) + 1\n",
                "d", {"s": "kitten", "t": "sitting"},
            )
            assert reply["value"] == 3, reply
            proc.send_signal(signal.SIGTERM)
            _, err = proc.communicate(timeout=30)
            assert proc.returncode == 0, err.decode()
            assert err.count(b"service stats") == 1, err.decode()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
