"""Which functions of ``src/`` does anything run?

Usage: ``python benchmarks/reach.py`` (no flags; stdlib only).

The script copies the checkout to a temporary directory, so that the
paper benches that rewrite their tables dirty nothing here, and runs
two surfaces there with a call recorder in every Python process:

* the *product*: every ``examples/*.py``; every
  ``examples/scripts/*.dsl`` under ``python -m repro --time --cuda``,
  ``explain`` and ``lint``; ``--demo``; ``fuzz --count 40`` and
  ``fuzz --service --count 10 --chaos-rate 0.2``; ``serve`` with
  ``submit`` clients and a SIGTERM drain; each workload of
  ``benchmarks/e2e`` for 2 s with ``--trace 1``; and the paper
  benches (``pytest benchmarks --ignore=benchmarks/e2e``);
* *tests*: tier-1, ``python -m pytest -q``.

The recorder is a ``sitecustomize.py`` on ``PYTHONPATH`` that
installs ``sys.setprofile`` and ``threading.setprofile``, so harness
children, service threads and sandbox workers are recorded too. Each
process writes the code objects it entered when it exits; a process
killed by SIGKILL records nothing.

Every function and method in ``src/`` gets one label: ``product``
(the product reached it), ``tests`` (only tier-1 did) or ``nothing``.
``REACH.json`` at the root of the checkout holds the totals for each
label, each step's exit code, and every function the product does not
reach with its label and its own line count (its lines minus those of
the functions nested in it, so the totals add up). It is a build
output, not a tracked file: each step's wall time goes to stdout
only. The exit status is 1 when any step failed, since a failed step
records nothing and would make the functions only it reaches look
unreached.
"""

from __future__ import annotations

import ast
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Functions that nothing runs but that stay as documented API.
_DIALECT = (
    "the dialect interface the CellPrinter docstring names; "
    "every backend's printer overrides it"
)
KEPT = {
    "repro/ir/cell.py:CellPrinter.table": _DIALECT,
    "repro/ir/cell.py:CellPrinter.index2": _DIALECT,
    "repro/ir/cell.py:CellPrinter.open_loop": _DIALECT,
}

RECORDER = '''\
import atexit, os, sys, threading

_seen = set()
_add = _seen.add


def _profile(frame, event, arg):
    if event == "call":
        _add(frame.f_code)


def _dump():
    sys.setprofile(None)
    prefix = os.environ["REACH_SRC"]
    rows = {
        f"{code.co_filename}\\t{code.co_firstlineno}"
        for code in list(_seen)
        if code.co_filename.startswith(prefix)
    }
    if rows:
        path = os.path.join(os.environ["REACH_OUT"], f"{os.getpid()}.txt")
        with open(path, "a") as out:
            out.write("\\n".join(sorted(rows)) + "\\n")


atexit.register(_dump)
threading.setprofile(_profile)
sys.setprofile(_profile)
'''

SERVE_PROGRAM = '''\
alphabet en = "abcdefghijklmnopqrstuvwxyz"
int d(seq[en] s, index[s] i, seq[en] t, index[t] j) =
  if i == 0 then j
  else if j == 0 then i
  else if s[i-1] == t[j-1] then d(i-1, j-1)
  else (d(i-1, j) min d(i, j-1) min d(i-1, j-1)) + 1
'''

WORKLOADS = (
    "sw_pair_small", "sw_pair_shapes", "sw_pair_large",
    "profile_map", "cold_compile", "service_http",
)


def product_steps(work: Path):
    """(name, argv) for every product step but ``serve``."""
    py = sys.executable
    for example in sorted((work / "examples").glob("*.py")):
        yield f"examples/{example.name}", [py, str(example)]
    for script in sorted((work / "examples" / "scripts").glob("*.dsl")):
        rel = f"examples/scripts/{script.name}"
        yield f"repro {rel} --time --cuda", [
            py, "-m", "repro", str(script), "--time", "--cuda"]
        yield f"repro explain {rel}", [
            py, "-m", "repro", "explain", str(script)]
        yield f"repro lint {rel}", [py, "-m", "repro", "lint", str(script)]
    yield "repro --demo", [py, "-m", "repro", "--demo"]
    yield "repro fuzz --count 40", [
        py, "-m", "repro", "fuzz", "--seed", "20120611", "--count", "40"]
    yield "repro fuzz --service --count 10 --chaos-rate 0.2", [
        py, "-m", "repro", "fuzz", "--seed", "20120611", "--service",
        "--count", "10", "--chaos-rate", "0.2"]
    for workload in WORKLOADS:
        yield f"e2e {workload}", [
            py, "benchmarks/e2e/run.py", "--workload", workload,
            "--seed", "1", "--seconds", "2", "--trace", "1"]
    yield "paper benches", [
        py, "-m", "pytest", "benchmarks", "--ignore=benchmarks/e2e",
        "--benchmark-disable", "-q", "-p", "no:cacheprovider"]


def run_step(label, name, argv, work, env):
    """Run one step to completion; returns its record."""
    start = time.perf_counter()
    done = subprocess.run(
        argv, cwd=work, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True,
    )
    return finish(label, name, done.returncode, start, done.stdout)


def finish(label, name, code, start, output):
    seconds = round(time.perf_counter() - start, 1)
    print(f"  {'ok ' if code == 0 else 'FAIL'} {seconds:7.1f}s  {name}",
          flush=True)
    if code != 0:
        print("".join(output.splitlines(True)[-20:]), file=sys.stderr)
    return {"label": label, "step": name, "returncode": code}


def run_serve(work, env):
    """``serve`` on a free port, 20 concurrent submits, stats, SIGTERM."""
    py = sys.executable
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = str(probe.getsockname()[1])
    program = work / "serve_edit.dsl"
    program.write_text(SERVE_PROGRAM)
    submit = [py, "-m", "repro", "submit", "--port", port]
    start = time.perf_counter()
    server = subprocess.Popen(
        [py, "-m", "repro", "serve", "--port", port, "--workers", "2",
         "--cache-dir", str(work / "serve-cache")],
        cwd=work, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True,
    )
    try:
        for _ in range(300):
            if subprocess.call(submit + ["--stats"], cwd=work, env=env,
                               stdout=subprocess.DEVNULL,
                               stderr=subprocess.DEVNULL) == 0:
                break
            time.sleep(0.1)
        clients = subprocess.run(
            submit + ["--program", str(program), "--function", "d",
                      "--args", '{"s": "kitten", "t": "sitting"}',
                      "--count", "20"],
            cwd=work, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True,
        )
    finally:
        server.send_signal(signal.SIGTERM)
        try:
            output, _ = server.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            server.kill()
            output, _ = server.communicate()
    return finish("product", "repro serve + submit",
                  clients.returncode or server.returncode, start,
                  clients.stdout + output)


def recorded(out_dir: Path):
    """Set of (absolute filename, first line) every process entered."""
    seen = set()
    for path in out_dir.iterdir():
        for row in path.read_text().splitlines():
            filename, line = row.rsplit("\t", 1)
            seen.add((filename, int(line)))
    return seen


def functions(src: Path):
    """Every function in ``src/``: (path, qualname, first line, own
    lines). The first line is its code object's (the first
    decorator's); own lines exclude the functions nested in it."""
    found = []

    def visit(node, prefix, rel) -> int:
        """Record the functions under ``node``; returns their span."""
        spanned = 0
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min(
                    [child.lineno]
                    + [d.lineno for d in child.decorator_list]
                )
                span = child.end_lineno - first + 1
                qualname = prefix + child.name
                nested = visit(child, qualname + ".", rel)
                found.append((rel, qualname, first, span - nested))
                spanned += span
            elif isinstance(child, ast.ClassDef):
                spanned += visit(child, prefix + child.name + ".", rel)
            else:
                spanned += visit(child, prefix, rel)
        return spanned

    for path in sorted(src.rglob("*.py")):
        visit(ast.parse(path.read_text()), "",
              path.relative_to(src).as_posix())
    return found


def main() -> int:
    scratch = Path(tempfile.mkdtemp(prefix="reach-"))
    try:
        work = scratch / "repo"
        shutil.copytree(ROOT, work, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis",
            ".benchmarks", ".work", "*.kpkl", "REACH.json",
        ))
        site = scratch / "site"
        site.mkdir()
        (site / "sitecustomize.py").write_text(RECORDER)
        src = work / "src"
        base = {k: v for k, v in os.environ.items()
                if not k.startswith(("REPRO_", "OMP_"))}
        base["PYTHONPATH"] = os.pathsep.join([str(site), str(src)])
        base["REACH_SRC"] = str(src) + os.sep
        for label in ("product", "tests"):
            (scratch / label).mkdir()
        env = dict(base, REACH_OUT=str(scratch / "product"))
        print("product:", flush=True)
        steps = [
            run_step("product", name, argv, work, env)
            for name, argv in product_steps(work)
        ]
        steps.append(run_serve(work, env))
        env = dict(base, REACH_OUT=str(scratch / "tests"))
        print("tests:", flush=True)
        steps.append(run_step(
            "tests", "tier-1",
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
            work, env,
        ))
        report = build_report(
            src, recorded(scratch / "product"), recorded(scratch / "tests"),
            steps,
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    (ROOT / "REACH.json").write_text(json.dumps(report, indent=1) + "\n")
    for label, total in report["totals"].items():
        print(f"{label:8s} {total['functions']:5d} functions "
              f"{total['lines']:6d} lines")
    kept = sum("kept" in e for e in report["not_reached_by_product"])
    print(f"  of which kept as documented API: {kept} functions")
    print(f"src/     {report['src_lines']:6d} lines; wrote REACH.json")
    failed = [s["step"] for s in report["steps"] if s["returncode"]]
    for step in failed:
        print(f"FAILED step: {step}", file=sys.stderr)
    return 1 if failed else 0


def build_report(src, product, tests, steps):
    totals = {label: {"functions": 0, "lines": 0}
              for label in ("product", "tests", "nothing")}
    unreached = []
    for rel, qualname, first, lines in functions(src):
        key = (str(src / rel), first)
        label = ("product" if key in product
                 else "tests" if key in tests else "nothing")
        totals[label]["functions"] += 1
        totals[label]["lines"] += lines
        if label != "product":
            entry = {"function": f"{rel}:{qualname}", "line": first,
                     "lines": lines, "label": label}
            if entry["function"] in KEPT:
                entry["kept"] = KEPT[entry["function"]]
            unreached.append(entry)
    src_lines = sum(
        len(path.read_text().splitlines()) for path in src.rglob("*.py")
    )
    return {
        "src_lines": src_lines,
        "totals": totals,
        "steps": steps,
        "not_reached_by_product": unreached,
    }


if __name__ == "__main__":
    sys.exit(main())
