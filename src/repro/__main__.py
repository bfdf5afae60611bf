"""Command-line entry point: run DSL scripts, serve, submit.

Usage::

    python -m repro script.dsl            # run a script
    python -m repro script.dsl --time     # also print simulated times
    python -m repro script.dsl --cuda     # dump synthesised CUDA
    python -m repro --demo                # run the built-in demo

    python -m repro explain prog.dsl      # backend eligibility per function
    python -m repro explain prog.dsl --json   # machine-readable verdicts
    python -m repro lint prog.dsl         # static verification + lint
    python -m repro fuzz --seed 0 --count 200   # differential fuzzing

    python -m repro serve --port 8753 --workers 4 --cache-dir .kcache
    python -m repro submit --port 8753 --program prog.dsl \\
        --function d --args '{"s": "kitten", "t": "sitting"}'
    python -m repro submit --port 8753 --stats

The runtime environment mirrors the paper's (Section 3): a script
declares alphabets/matrices/models/functions and then drives them with
``let``/``load``/``print``/``map`` statements. ``serve`` instead runs
the batch compile-and-execute service of :mod:`repro.service`
(persistent kernel cache, admission-controlled job queue, request
coalescing into batched ``map`` runs); ``submit`` is its client.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .lang.errors import DslError
from .lang.source import SourceText
from .runtime.engine import Engine
from .runtime.program import ProgramRunner

DEMO = """\
alphabet en = "abcdefghijklmnopqrstuvwxyz"

int d(seq[en] s, index[s] i, seq[en] t, index[t] j) =
  if i == 0 then j
  else if j == 0 then i
  else if s[i-1] == t[j-1] then d(i-1, j-1)
  else (d(i-1, j) min d(i, j-1) min d(i-1, j-1)) + 1

let q = "kitten"
let r = "sitting"
print d(q, |q|, r, |r|)
"""


def serve_main(argv) -> int:
    """``python -m repro serve``: run the batch compute service."""
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Serve DSL compile-and-execute jobs over HTTP "
        "(persistent kernel cache, batched map execution).",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8753)
    parser.add_argument(
        "--workers", type=int, default=4,
        help="worker threads (one engine each)",
    )
    parser.add_argument(
        "--queue-capacity", type=int, default=1024,
        help="bounded submission queue size (admission control)",
    )
    parser.add_argument(
        "--max-batch", type=int, default=64,
        help="most jobs an idle worker takes as one batch",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="directory for the persistent kernel cache "
        "(omit for in-memory only)",
    )
    parser.add_argument(
        "--cache-capacity", type=int, default=256,
        help="in-memory kernel cache entries (LRU bound)",
    )
    parser.add_argument(
        "--prob-mode", choices=("direct", "logspace"), default="direct",
    )
    parser.add_argument(
        "--backend", choices=("auto", "scalar", "vector", "native"),
        default="auto",
    )
    args = parser.parse_args(argv)

    from .runtime import sandbox
    from .service.server import (
        ComputeService,
        install_signal_handlers,
        make_http_server,
    )

    service = ComputeService(
        workers=args.workers,
        queue_capacity=args.queue_capacity,
        max_batch=args.max_batch,
        cache_dir=args.cache_dir,
        cache_capacity=args.cache_capacity,
        prob_mode=args.prob_mode,
        backend=args.backend,
    )
    server = make_http_server(service, args.host, args.port)
    install_signal_handlers(server, service)
    host, port = server.server_address[:2]
    print(
        f"repro service on http://{host}:{port} "
        f"({args.workers} workers, cache="
        f"{args.cache_dir or 'memory-only'}"
        f"{', sandboxed native' if sandbox.enabled() else ''})",
        file=sys.stderr,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        # SIGTERM's drain thread prints the final stats itself and
        # then ends serve_forever; only Ctrl-C lands here.
        print("draining...", file=sys.stderr)
        service.shutdown(drain=True)
        print(service.stats().render(), file=sys.stderr)
    return 0


def explain_main(argv) -> int:
    """``python -m repro explain``: report backend eligibility.

    For every function of a program (or one, with ``--function``),
    derive a schedule, build the kernel and print which backend the
    auto ladder (native > vector > scalar) would pick plus the
    machine-readable eligibility verdicts — the same rule identifiers
    a forced ``Engine.compile(backend=...)`` raises on and
    ``CompiledKernel.eligibility`` / ``.native_eligibility`` carry.
    When a C toolchain is present the native kernel is actually
    built, so the reported compile time is measured, not estimated.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro explain",
        description="Explain, per function, which backend the auto "
        "ladder picks and why (eligibility rules + detail; native "
        "compile times when a C toolchain is present).",
    )
    parser.add_argument("script", help="path to a .dsl program")
    parser.add_argument(
        "--function", default=None,
        help="explain only this function",
    )
    parser.add_argument(
        "--prob-mode", choices=("direct", "logspace"),
        default="direct",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit machine-readable eligibility verdicts and "
        "certificate summaries instead of text",
    )
    args = parser.parse_args(argv)

    path = Path(args.script)
    if not path.exists():
        parser.error(f"no such script: {path}")
    text = path.read_text()

    from .analysis.domain import Domain
    from .ir.kernel import build_kernel
    from .lang.errors import ScheduleError
    from .lang.parser import parse_program
    from .lang.typecheck import check_program
    from .schedule.solver import find_schedule
    from .verify import verify_schedule

    try:
        program = check_program(parse_program(text))
    except DslError as err:
        print(err.render(SourceText(text, str(path))), file=sys.stderr)
        return 1
    if args.function:
        if args.function not in program.functions:
            parser.error(f"no function {args.function!r} in {path}")
        names = [args.function]
    else:
        names = sorted(program.functions)

    def emit(line: str) -> None:
        if not args.json:
            print(line)

    records = []
    failures = 0
    for name in names:
        func = program.functions[name]
        record = {"function": name}
        records.append(record)
        if not func.recursive_params:
            record["status"] = "not-a-recurrence"
            emit(f"{name}: not a recurrence (nothing to schedule)")
            continue
        # A nominal domain stands in for the unknown problem extents.
        nominal = Domain(
            func.dim_names, tuple(16 for _ in func.recursive_params)
        )
        try:
            schedule = find_schedule(func, nominal)
        except (ScheduleError, DslError) as err:
            record["status"] = "no-schedule"
            record["error"] = str(err)
            emit(f"{name}: no schedule ({err})")
            failures += 1
            continue
        kernel = build_kernel(func, schedule, args.prob_mode)
        from .verify.races import parallelism_certificate

        parallel = parallelism_certificate(kernel)
        record["parallel"] = parallel.to_dict()
        from .ir import cbackend
        from .ir.npbackend import Eligibility
        from .runtime import ladder

        rungs = ladder.rungs(kernel)
        available, native = rungs[0].checks
        licence = parallel.licences.tile
        verdict = rungs[1].verdict
        backend = ladder.choose(rungs)
        record.update(
            status="ok",
            backend=backend,
            schedule=str(schedule),
            vector={
                "ok": verdict.ok,
                "rule": verdict.rule,
                "detail": verdict.detail,
            },
            native_toolchain={
                "ok": available.ok,
                "rule": available.rule,
                "detail": available.detail,
            },
            native={
                "ok": native.ok,
                "rule": native.rule,
                "detail": native.detail,
                # Block shape of the blocked wavefront; null when the
                # kernel keeps the partition sweep.
                "tile": list(cbackend.TILE) if licence else None,
                # May the entry be launched without a table?
                "result_only": bool(licence and licence.result_only),
            },
        )
        # A map group batches through the same TU, so the native
        # rung's verdict is the batched one; the tile licence says
        # which body each member runs.
        refusal = rungs[0].verdict
        batched = refusal if not refusal.ok else Eligibility(
            True, refusal.rule,
            f"kernel {name!r} runs whole map groups as one "
            f"native launch: a problem loop over the padded (B, ...) "
            f"table, each member's own partition sweep inside"
            + (
                "; the blocked wavefront parallelises one problem, a "
                "batched launch parallelises over problems"
                if licence else ""
            ),
        )
        record["batched_native"] = {
            "ok": batched.ok,
            "rule": batched.rule,
            "detail": batched.detail,
        }
        emit(f"{name}: backend={backend} rule={verdict.rule} "
             f"schedule={schedule}")
        emit(f"  vector: [{verdict.rule}] {verdict.detail}")
        if not refusal.ok:
            emit(f"  native: [{refusal.rule}] {refusal.detail}")
            emit(f"  batched-native: [{batched.rule}] {batched.detail}")
        else:
            from .lang.errors import NativeBuildError

            try:
                compiled = ladder.build(kernel, "native")
            except NativeBuildError as err:
                record["native_build"] = {
                    "ok": False, "error": str(err),
                }
                emit(f"  native: [build-failed] {err}")
                emit(f"  batched-native: [{batched.rule}] "
                     f"{batched.detail}")
            else:
                elapsed = compiled.compile_seconds
                record["native_build"] = {
                    "ok": True, "seconds": elapsed,
                }
                emit(f"  native: [{native.rule}] {native.detail} "
                     f"(compiled in {elapsed * 1e3:.0f} ms)")
                # The library loads with both entries bound or not
                # at all, so the build proves the map path's rung.
                record["batched_native"]["seconds"] = elapsed
                emit(
                    f"  batched-native: [{batched.rule}] "
                    f"{batched.detail} (same module, "
                    f"compiled in {elapsed * 1e3:.0f} ms)"
                )
        emit(f"  parallel: {parallel.summary}")
        try:
            certificate, _diags = verify_schedule(
                func,
                schedule,
                Domain(
                    func.dim_names,
                    tuple(16 for _ in func.recursive_params),
                ),
            )
        except DslError:
            record["verification"] = None
            emit("  verification: not applicable "
                 "(outside the single-function verifier's scope)")
        else:
            record["verification"] = {
                "ok": certificate.ok,
                "summary": certificate.summary,
            }
            emit(f"  verification: {certificate.summary}")
            if not certificate.ok:
                failures += 1
    if args.json:
        import json as _json

        print(_json.dumps(
            {"script": str(path), "functions": records}, indent=2
        ))
    return 1 if failures else 0


def fuzz_main(argv) -> int:
    """``python -m repro fuzz``: grammar-driven differential fuzzing.

    Draws seeded well-typed programs from the DSL grammar, runs each
    on every backend rung (plus the sanitizer, lint, the divergence
    oracle and the lane-batched map path), shrinks any failure to a
    minimal reproducer and prints a deterministic report. Exit code 1
    when any finding survives.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro fuzz",
        description="Fuzz the compiler: generate well-typed DSL "
        "programs, run them differentially across scalar/vector/"
        "native (and batched map groups), shrink failures to minimal "
        "reproducers.",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="campaign seed (same seed + count = same report)",
    )
    parser.add_argument(
        "--count", type=int, default=200,
        help="number of programs to generate",
    )
    parser.add_argument(
        "--budget", type=float, default=None, metavar="SECONDS",
        help="wall-clock cutoff (a budget-limited run may stop "
        "early and is exempt from the determinism promise)",
    )
    parser.add_argument(
        "--no-shrink", action="store_true",
        help="report failures without delta-debugging them",
    )
    parser.add_argument(
        "--no-native", action="store_true",
        help="skip the native leg even when a toolchain is present",
    )
    parser.add_argument(
        "--write-corpus", default=None, metavar="DIR",
        help="write shrunk failures as corpus entries into DIR "
        "(e.g. tests/corpus)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit the report as JSON",
    )
    parser.add_argument(
        "--service", action="store_true",
        help="also round-trip locally-clean cases through a live "
        "HTTP service instance (service-crash / service-divergence "
        "findings)",
    )
    parser.add_argument(
        "--chaos-rate", type=float, default=0.0, metavar="RATE",
        help="with --service: inject sandbox worker kills/hangs and "
        "launch faults at this rate (the service must still answer "
        "correctly)",
    )
    args = parser.parse_args(argv)

    if args.chaos_rate > 0.0 and not args.service:
        parser.error("--chaos-rate requires --service")

    from .fuzz import run_campaign

    report = run_campaign(
        seed=args.seed,
        count=args.count,
        budget_seconds=args.budget,
        shrink_failures=not args.no_shrink,
        use_native=False if args.no_native else None,
        corpus_directory=args.write_corpus,
        service_mode=args.service,
        chaos_rate=args.chaos_rate,
    )
    print(report.to_json() if args.json else report.render())
    return 0 if report.ok else 1


def lint_main(argv) -> int:
    """``python -m repro lint``: static verification of a script.

    Runs the independent schedule-soundness verifier and the IR
    access/initialization analysis over every recurrence (nominal
    domain extents; user ``schedule`` declarations are honoured).
    Exit code 1 when any error-severity diagnostic fires, or 2 with
    ``--strict`` when warnings do.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro lint",
        description="Statically verify schedules and table accesses "
        "of a DSL script (caret diagnostics, stable rule ids).",
    )
    parser.add_argument(
        "script", nargs="?", default=None,
        help="path to a .dsl program",
    )
    parser.add_argument(
        "--nominal-extent", type=int, default=None,
        help="stand-in extent L for the unknown problem size "
        "(dimensions get extent L+1; default 12)",
    )
    parser.add_argument(
        "--prob-mode", choices=("direct", "logspace"),
        default="direct",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="also fail (exit 2) on warnings",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress info-severity diagnostics",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print every stable rule id with its severity and "
        "description, then exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        from .verify.diagnostics import RULES

        width = max(len(name) for name in RULES)
        try:
            for name, (severity, description) in RULES.items():
                print(f"{name:<{width}}  {severity:<8} {description}")
        except BrokenPipeError:
            # piped through `head`; the reader got what it wanted
            sys.stderr.close()
        return 0

    if args.script is None:
        parser.error("a script path is required (or --list-rules)")
    path = Path(args.script)
    if not path.exists():
        parser.error(f"no such script: {path}")

    from .verify.lint import lint_text
    from .verify.diagnostics import Severity

    kwargs = {"prob_mode": args.prob_mode}
    if args.nominal_extent is not None:
        kwargs["nominal_extent"] = args.nominal_extent
    result = lint_text(path.read_text(), str(path), **kwargs)

    shown = 0
    for diagnostic in result.report:
        if args.quiet and diagnostic.severity == Severity.INFO:
            continue
        stream = (
            sys.stderr
            if diagnostic.severity == Severity.ERROR
            else sys.stdout
        )
        print(diagnostic.render(result.source), file=stream)
        shown += 1
    errors = len(result.report.by_severity(Severity.ERROR))
    warnings = len(result.report.by_severity(Severity.WARNING))
    print(
        f"{path}: {errors} error(s), {warnings} warning(s), "
        f"{len(result.certificates)} schedule(s) verified",
        file=sys.stderr,
    )
    if errors:
        return 1
    if args.strict and warnings:
        return 2
    return 0


def submit_main(argv) -> int:
    """``python -m repro submit``: client for a running service."""
    parser = argparse.ArgumentParser(
        prog="python -m repro submit",
        description="Submit jobs to (or read stats from) a running "
        "`python -m repro serve` instance.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8753)
    parser.add_argument(
        "--program", help="path to a declaration-only .dsl program"
    )
    parser.add_argument("--function", help="function to run")
    parser.add_argument(
        "--args", default="{}",
        help='JSON arguments, e.g. \'{"s": "kitten", "t": "sitting"}\'',
    )
    parser.add_argument(
        "--count", type=int, default=1,
        help="submit this many concurrent copies (exercises batching)",
    )
    parser.add_argument(
        "--timeout", type=float, default=None,
        help="per-job timeout in seconds",
    )
    parser.add_argument(
        "--reduce", choices=("max", "min"), default=None,
        help="whole-table reduction instead of a coordinate",
    )
    parser.add_argument(
        "--stats", action="store_true",
        help="print the service stats snapshot and exit",
    )
    args = parser.parse_args(argv)

    import json as _json

    from .service.server import fetch_remote_stats, submit_remote
    from .service.stats import ServiceStats

    if args.stats:
        try:
            snapshot = fetch_remote_stats(args.host, args.port)
        except OSError as err:
            print(f"error: cannot reach service at "
                  f"{args.host}:{args.port} ({err})", file=sys.stderr)
            return 1
        snapshot.pop("_status", None)
        print(ServiceStats(**snapshot).render())
        return 0

    if not args.program or not args.function:
        parser.error("--program and --function are required "
                     "(or use --stats)")
    program = Path(args.program).read_text()
    try:
        call_args = _json.loads(args.args)
    except _json.JSONDecodeError as err:
        parser.error(f"--args is not valid JSON: {err}")

    import concurrent.futures

    def one(_index: int):
        try:
            return submit_remote(
                args.host, args.port, program, args.function,
                args=call_args, timeout=args.timeout,
                reduce=args.reduce,
            )
        except OSError as err:
            return {"ok": False, "error": f"cannot reach service at "
                                          f"{args.host}:{args.port} "
                                          f"({err})"}

    failures = 0
    with concurrent.futures.ThreadPoolExecutor(
        max_workers=min(args.count, 64)
    ) as pool:
        for reply in pool.map(one, range(args.count)):
            if reply.get("ok"):
                print(reply["value"])
            else:
                failures += 1
                print(f"error: {reply.get('error')}", file=sys.stderr)
    return 1 if failures else 0


def main(argv=None) -> int:
    """Entry point; returns the process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "serve":
        return serve_main(argv[1:])
    if argv and argv[0] == "submit":
        return submit_main(argv[1:])
    if argv and argv[0] == "explain":
        return explain_main(argv[1:])
    if argv and argv[0] == "lint":
        return lint_main(argv[1:])
    if argv and argv[0] == "fuzz":
        return fuzz_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Synthesise and run GPU programs from recursion "
        "DSL scripts (Cartey et al., PLDI 2012 — simulated device).",
    )
    parser.add_argument(
        "script", nargs="?", help="path to a .dsl script"
    )
    parser.add_argument(
        "--demo", action="store_true",
        help="run the built-in edit-distance demo",
    )
    parser.add_argument(
        "--time", action="store_true",
        help="print the simulated device time of each run",
    )
    parser.add_argument(
        "--cuda", action="store_true",
        help="dump the synthesised CUDA kernel(s) after the run",
    )
    parser.add_argument(
        "--prob-mode", choices=("direct", "logspace"),
        default="direct", help="probability representation",
    )
    args = parser.parse_args(argv)

    if args.demo:
        text = DEMO
        name = "<demo>"
    elif args.script:
        path = Path(args.script)
        if not path.exists():
            parser.error(f"no such script: {path}")
        text = path.read_text()
        name = str(path)
    else:
        parser.error("pass a script path or --demo")
        return 2  # unreachable; keeps type-checkers happy

    engine = Engine(prob_mode=args.prob_mode)
    runner = ProgramRunner(engine, echo=True)
    try:
        result = runner.run_text(text)
    except DslError as err:
        print(err.render(SourceText(text, name)), file=sys.stderr)
        return 1

    if args.time:
        for run in result.runs:
            print(
                f"# {run.kernel.name}: {run.schedule}, "
                f"{run.cost.partitions} partitions, "
                f"{run.seconds * 1e6:.1f} us simulated",
                file=sys.stderr,
            )
        for name_, mapped in result.maps.items():
            print(
                f"# map {name_}: {mapped.report.problems} problems, "
                f"{mapped.seconds * 1e3:.3f} ms simulated, "
                f"SM utilisation "
                f"{mapped.report.sm_utilisation:.0%}",
                file=sys.stderr,
            )
    if args.cuda:
        for compiled in engine._cache.values():
            print(compiled.cuda_source(), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
