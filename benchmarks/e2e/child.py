"""One fresh process of one workload (or of the layer probes).

The parent (``run.py``) hands this process a spec file of plain-data
inputs and expected values. The child builds the program's objects
from them, sets up, opens its timed window, and compares every value
it got with the expected one after the window has closed. Timing is
taken here, around calls into ``repro``'s public functions; nothing
under ``src/`` is instrumented.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import threading
import time

from spans import Tracer
from stats import close
from workloads import COLD_APPS, COLD_WARMUP_OPS

# -- plain data -> the program's input objects ---------------------------------


def make_function(program):
    from repro.lang.parser import parse_function
    from repro.lang.typecheck import check_function

    return check_function(
        parse_function(program["text"]), program["alphabets"]
    )


def make_alphabet(name, chars):
    from repro.runtime.values import Alphabet

    return Alphabet(name, chars)


def make_sequence(text, alphabet):
    from repro.runtime.values import Sequence

    return Sequence(text, alphabet)


def make_matrix(rows, alphabet):
    import numpy as np
    from repro.extensions.submatrix import SubstitutionMatrix

    return SubstitutionMatrix(
        "m", alphabet, alphabet, np.array(rows, dtype=np.int64)
    )


def make_hmm(model):
    from repro.extensions.hmm import HmmBuilder

    alphabet = make_alphabet("protein", model["alphabet"])
    builder = HmmBuilder(model["name"], alphabet)
    for state in model["states"]:
        builder.add_state(
            state["name"], state.get("emissions"), kind=state["kind"]
        )
    names = [state["name"] for state in model["states"]]
    for source, target, prob in model["transitions"]:
        builder.transition(names[source], names[target], prob)
    return builder.build()


# -- workloads -----------------------------------------------------------------


class Workload:
    """``op(k)`` is the timed operation; ``expected(k)`` its value."""

    clients = 1
    op_count = None  # unbounded: ops cycle through a pool
    span_name = "engine.run"
    #: Ops run before the window opens: 50 where an op is about a
    #: millisecond, fewer where 50 would cost seconds of set-up and
    #: no per-call memo is left to fill after the first few.
    warmup_ops = 50
    #: A slice ends only on a multiple of this many ops, so that every
    #: slice of a workload whose ops cycle through unlike kinds holds
    #: the same mix.
    round_size = 1
    #: Untraced/traced slice pairs a trace run cuts its window into.
    trace_pairs = 2

    @property
    def first_op(self) -> int:
        """The window's first op: the warm-up consumed the head of a
        bounded op list, which must not be seen twice."""
        return 0 if self.op_count is None else self.warmup_ops

    def warm_up(self) -> None:
        for k in range(self.warmup_ops):
            self.op(k)

    def traced_op(self, k: int, tracer: Tracer):
        started = time.perf_counter_ns()
        value = self.op(k)
        tracer.record(
            self.span_name, started, time.perf_counter_ns(), k
        )
        return value

    def finish(self, ops_run: int) -> list:
        """Post-window checks and teardown; returns failure messages."""
        return []

    def extras(self) -> dict:
        return {}


class SwPairs(Workload):
    """``sw_pair_small`` / ``sw_pair_large``: a pool of same-shape
    pairs through one warm engine."""

    def __init__(self, spec, engine=None) -> None:
        from repro.runtime.engine import Engine

        program = spec["program"]
        alphabet = make_alphabet(
            "protein", program["alphabets"]["protein"]
        )
        self.func = make_function(program)
        self.matrix = make_matrix(program["matrix"], alphabet)
        self.pool = [
            (make_sequence(q, alphabet), make_sequence(d, alphabet))
            for q, d in spec["pairs"]
        ]
        self.values = spec["expected"]
        self.engine = engine or Engine()
        self.warmup_ops = spec.get("warmup_ops", self.warmup_ops)

    def pair(self, k: int):
        return self.pool[k % len(self.pool)]

    def op(self, k: int):
        q, d = self.pair(k)
        return self.engine.run(
            self.func, {"m": self.matrix, "q": q, "d": d}, reduce="max"
        ).value

    def expected(self, k: int):
        return self.values[k % len(self.values)]

    def extras(self) -> dict:
        return {"cache_info": self.engine.cache_info()._asdict()}


class SwShapes(SwPairs):
    """``sw_pair_shapes``: every op a prefix pair of fresh lengths."""

    def __init__(self, spec) -> None:
        super().__init__(spec)
        texts = spec["pairs"]
        alphabet = self.pool[0][0].alphabet
        self.inputs = [
            (
                make_sequence(texts[pair][0][:a], alphabet),
                make_sequence(texts[pair][1][:b], alphabet),
            )
            for pair, a, b in spec["ops"]
        ]
        self.op_count = len(self.inputs)

    def pair(self, k: int):
        return self.inputs[k]

    def expected(self, k: int):
        return self.values[k]


class ProfileMap(Workload):
    """``profile_map``: one log-space ``map_run`` over the database."""

    span_name = "engine.map_run"
    warmup_ops = 10

    def __init__(self, spec) -> None:
        from repro.runtime.engine import Engine

        self.func = make_function(spec["program"])
        self.hmm = make_hmm(spec["model"])
        self.problems = [
            {"x": make_sequence(x, self.hmm.alphabet)}
            for x in spec["database"]
        ]
        self.values = spec["expected"]
        self.engine = Engine(prob_mode="logspace")

    def op(self, k: int):
        return self.engine.map_run(
            self.func, {"h": self.hmm}, self.problems
        ).values

    def expected(self, k: int):
        return self.values

    def extras(self) -> dict:
        return {"cache_info": self.engine.cache_info()._asdict()}


class ColdCompile(Workload):
    """``cold_compile``: DSL text to value through a fresh engine and
    a fresh disk cache, once per never-seen program."""

    span_name = "cold.op"
    #: Two throwaway programs, so the process's own first-time costs
    #: (lazy imports, the OpenMP team) stay out of the window.
    warmup_ops = COLD_WARMUP_OPS
    round_size = len(COLD_APPS)
    trace_pairs = 1  # a slice is at least one round of five programs

    def __init__(self, spec, work_dir: str) -> None:
        from repro.runtime import native

        self.ops = spec["ops"]
        self.op_count = len(self.ops)
        self.cache_root = os.path.join(work_dir, "kcache")
        self.hmm = make_hmm(spec["model"])
        self.bindings = [self._bind(op) for op in self.ops]
        # The compiler probe is per process, not per program.
        native.toolchain()
        self.built_before = len(self._shared_objects())

    @staticmethod
    def _shared_objects() -> list:
        return [
            name
            for name in os.listdir(os.environ["REPRO_NATIVE_CACHE_DIR"])
            if name.endswith(".so")
        ]

    def _bind(self, op) -> dict:
        """The op's sequences over its alphabet, plus the matrix or
        model its program takes."""
        alphabet = make_alphabet(*op["alphabet"])
        bindings = {
            name: make_sequence(text, alphabet)
            for name, text in op["args"].items()
        }
        if "matrix" in op["program"]:
            bindings["m"] = make_matrix(op["program"]["matrix"], alphabet)
        if op["app"] in ("forward", "viterbi"):
            bindings["h"] = self.hmm
        return bindings

    def _engine(self, k: int):
        from repro.runtime.engine import Engine
        from repro.service.cache import PersistentKernelCache

        cache = PersistentKernelCache(
            os.path.join(self.cache_root, str(k))
        )
        return Engine(kernel_cache=cache), cache

    def op(self, k: int):
        op = self.ops[k]
        engine, _ = self._engine(k)
        func = make_function(op["program"])
        result = engine.run(
            func, self.bindings[k],
            at=op.get("at"), reduce=op.get("reduce"),
        )
        info = engine.cache_info()
        if info.hits != 0 or info.misses < 1 or info.disk_stores != 1:
            raise AssertionError(
                f"op {k} was not a cold compile: {info}"
            )
        return result.value

    def traced_op(self, k: int, tracer: Tracer):
        """The same operation with every stage driven from here, in
        ``Engine.run``'s order, one span per stage; the closing
        ``Engine.run`` finds every memo and the kernel cache warm."""
        from repro.analysis import extract_descents, schedule_criteria
        from repro.ir import cbackend
        from repro.ir.kernel import build_kernel
        from repro.lang.parser import parse_function
        from repro.lang.typecheck import check_function
        from repro.runtime import native
        from repro.runtime.engine import CompiledKernel
        from repro.runtime.values import Bindings
        from repro.service.cache import encode_compiled, kernel_cache_key
        from repro.verify.races import parallelism_certificate

        op = self.ops[k]
        program = op["program"]
        span = tracer.span
        with span(f"cold.{op['app']}.total_ms", k):
            with span("engine.construct_ms", k):
                engine, cache = self._engine(k)
            with span("lang.parse_ms", k):
                parsed = parse_function(program["text"])
            with span("lang.typecheck_ms", k):
                func = check_function(parsed, program["alphabets"])
            with span("analysis.descent_ms", k):
                extract_descents(func)
            with span("analysis.criteria_ms", k):
                schedule_criteria(func)
            bound = Bindings(dict(self.bindings[k]))
            domain = engine.domain_of(func, bound)
            with span("schedule.solve_ms", k):
                schedule = engine.schedule_for(
                    func, domain, bindings=bound
                )
            tracer.count(
                "schedule.partitions", schedule.num_partitions(domain)
            )
            with span("verify.schedule_ms", k):
                engine.verify_compiled(func, schedule, domain)
            with span("ir.build_kernel_ms", k):
                kernel = build_kernel(func, schedule, engine.prob_mode)
            with span("verify.parallel_cert_ms", k):
                parallelism_certificate(kernel)
            with span("ir.emit_c_ms", k):
                source = cbackend.emit_native_source(
                    kernel, openmp=native.toolchain()[1]
                )
            tracer.count("ir.emitted_c_bytes", len(source))
            with span("native.cc_build_ms", k):
                so_path = native.build_shared_object(source)
            tracer.count("native.so_bytes", os.path.getsize(so_path))
            with span("native.probe_ms", k):
                native.probe_shared_object(so_path)
            with span("native.dlopen_ms", k):
                run = native.NativeRun(kernel, so_path)
            compiled = CompiledKernel(
                kernel, run, source, 0.0,
                backend="native", so_path=so_path,
            )
            with span("cache.encode_ms", k):
                record = encode_compiled(compiled)
            tracer.count("cache.record_bytes", len(record))
            with span("cache.store_ms", k):
                cache.store(
                    kernel_cache_key(
                        func, schedule, engine.prob_mode, "native"
                    ),
                    compiled,
                )
            with span("engine.run_warm_ms", k):
                result = engine.run(
                    func, self.bindings[k],
                    at=op.get("at"), reduce=op.get("reduce"),
                )
        info = engine.cache_info()
        if info.misses != 0 or info.disk_stores != 1:
            raise AssertionError(
                f"staged op {k} recompiled inside Engine.run: {info}"
            )
        return result.value

    def expected(self, k: int):
        return self.ops[k]["expected"]

    def finish(self, ops_run: int) -> list:
        """One new shared object and one cache record per op."""
        built = len(self._shared_objects()) - self.built_before
        records = sum(
            name.endswith(".kpkl")
            for k in os.listdir(self.cache_root)
            for name in os.listdir(os.path.join(self.cache_root, k))
        )
        if built != ops_run or records != ops_run:
            return [
                f"{ops_run} cold ops left {built} shared objects "
                f"and {records} cache records"
            ]
        return []


class ServiceHttp(Workload):
    """``service_http``: closed-loop HTTP clients against the service."""

    clients = 2
    span_name = "service.http_roundtrip"
    warmup_ops = 20

    def __init__(self, spec, work_dir: str) -> None:
        from repro.service.server import ComputeService, make_http_server

        self.program = spec["program_text"]
        self.function = spec["function"]
        self.pairs = spec["pairs"]
        self.values = spec["expected"]
        self.service = ComputeService(
            workers=2, cache_dir=os.path.join(work_dir, "kcache")
        )
        self.server = make_http_server(self.service)
        self.host, self.port = self.server.server_address[:2]
        # A short poll, so that shutting down costs each of a run's
        # seven children 50 ms and not the default half second.
        self.thread = threading.Thread(
            target=self.server.serve_forever,
            kwargs={"poll_interval": 0.05}, daemon=True,
        )
        self.thread.start()

    def op(self, k: int):
        from repro.service.server import submit_remote

        s, t = self.pairs[k % len(self.pairs)]
        reply = submit_remote(
            self.host, self.port, self.program, self.function,
            {"s": s, "t": t},
        )
        if not reply.get("ok"):
            raise RuntimeError(
                f"HTTP {reply.get('_status')}: {reply.get('error')}"
            )
        return reply["value"]

    def expected(self, k: int):
        return self.values[k % len(self.values)]

    def finish(self, ops_run: int) -> list:
        self.stats = self.service.stats().to_dict()
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(10)
        self.service.shutdown()
        return []

    def extras(self) -> dict:
        return {"service_stats": self.stats}


def make_workload(spec, work_dir: str) -> Workload:
    name = spec["workload"]
    if name in ("sw_pair_small", "sw_pair_large"):
        return SwPairs(spec)
    if name == "sw_pair_shapes":
        return SwShapes(spec)
    if name == "profile_map":
        return ProfileMap(spec)
    if name == "cold_compile":
        return ColdCompile(spec, work_dir)
    if name == "service_http":
        return ServiceHttp(spec, work_dir)
    raise ValueError(f"unknown workload {name!r}")


# -- the timed window ----------------------------------------------------------


class Failure:
    """An op that raised or was refused, kept in the results list."""

    def __init__(self, error: BaseException) -> None:
        self.message = f"{type(error).__name__}: {error}"


def _client_loop(workload, tracer, deadline_ns, first, stride, out):
    """Closed loop: the next op starts when the previous one is done."""
    count = workload.op_count
    whole = workload.round_size * stride
    clock = time.perf_counter_ns
    k = first
    while count is None or k < count:
        started = clock()
        if started >= deadline_ns and (k - first) % whole == 0:
            break
        try:
            if tracer is None:
                value = workload.op(k)
            else:
                value = workload.traced_op(k, tracer)
        except Exception as err:
            value = Failure(err)
        out.append((k, clock() - started, value))
        k += stride


def run_slice(workload, seconds: float, first_op: int, tracer=None):
    """One timed slice. Returns its result record and the next op.

    The slice ends when its last op completes, so ``window_s`` is the
    time the counted ops took, not the nominal length."""
    clients = workload.clients
    outs = [[] for _ in range(clients)]
    started = time.perf_counter_ns()
    deadline = started + int(seconds * 1e9)
    if clients == 1:
        _client_loop(workload, tracer, deadline, first_op, 1, outs[0])
    else:
        threads = [
            threading.Thread(
                target=_client_loop,
                args=(workload, tracer, deadline, first_op + c, clients,
                      outs[c]),
            )
            for c in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    ended = time.perf_counter_ns()
    results = [item for out in outs for item in out]
    failures = []
    for k, _, value in results:
        if isinstance(value, Failure):
            failures.append(f"op {k}: {value.message}")
        else:
            expected = workload.expected(k)
            if not close(value, expected):
                failures.append(
                    f"op {k}: got {value!r}, expected {expected!r}"
                )
    record = {
        "traced": tracer is not None,
        "ops": len(results),
        "failed": len(failures),
        "errors": failures[:5],
        "window_s": (ended - started) / 1e9,
        "clients": clients,
        "latencies_ms": [took / 1e6 for _, took, _ in results],
        # Which of the round's unlike ops each sample is.
        "kinds": [k % workload.round_size for k, _, _ in results],
    }
    next_op = max((r[0] for r in results), default=first_op - 1) + 1
    return record, next_op


def peak_rss_kib() -> int:
    """This process's own peak resident set.

    ``VmHWM`` rather than ``ru_maxrss``: on Linux the latter survives
    ``exec``, so a child reports at least its parent's peak — here the
    parent's reference tables, not the program."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _merged(records) -> dict:
    """The slices of one kind as one record."""
    return {
        "traced": records[0]["traced"],
        "ops": sum(r["ops"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "errors": [e for r in records for e in r["errors"]][:5],
        "window_s": sum(r["window_s"] for r in records),
        "clients": records[0]["clients"],
        "latencies_ms": [x for r in records for x in r["latencies_ms"]],
        "kinds": [x for r in records for x in r["kinds"]],
    }


def run_workload(spec, args, tracer: Tracer) -> dict:
    workload = make_workload(spec, args.work_dir)
    workload.warm_up()
    # A child given no window only sets up. A trace run alternates
    # short untraced and traced slices (which kind comes first
    # alternates by repetition), so that the host's drift falls on
    # both alike in the overhead figure.
    if not args.window:
        order = []
    elif args.trace:
        count = 2 * workload.trace_pairs
        order = [(k + args.rep) % 2 == 1 for k in range(count)]
    else:
        order = [False]
    window_open = time.monotonic_ns()
    records = []
    next_op = workload.first_op
    for traced in order:
        record, next_op = run_slice(
            workload, args.window / len(order), next_op,
            tracer if traced else None,
        )
        records.append(record)
    slices = [
        _merged([r for r in records if r["traced"] is traced])
        for traced in sorted(set(order))
    ]
    peak_kib = peak_rss_kib()
    errors = workload.finish(next_op)
    return {
        "setup_s": (window_open - args.spawn_ns) / 1e9,
        "peak_rss_mb": peak_kib / 1024.0,
        "slices": slices,
        "post_errors": errors,
        "extras": workload.extras(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spec", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--spawn-ns", type=int, required=True)
    parser.add_argument("--window", type=float, default=5.0)
    parser.add_argument("--rep", type=int, default=0)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args(argv)
    with open(args.spec) as handle:
        spec = json.load(handle)
    tracer = Tracer()
    if spec["workload"] == "probes":
        import probes

        result = probes.run(spec, args, tracer)
    else:
        result = run_workload(spec, args, tracer)
    with open(args.out, "w") as handle:
        json.dump(result, handle)
    if args.trace:
        tracer.dump(args.out + ".spans")
    return 0


if __name__ == "__main__":
    sys.exit(main())
