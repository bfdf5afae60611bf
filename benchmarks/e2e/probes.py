"""Layer probes: one fresh process that times each layer from outside.

Every probe is a span around one call of a public function of
``repro``, on inputs the parent generated; the span carries the name of
the metric it feeds (the suffix is the unit) and the parent reports the
median over the probe's repetitions. Values that come back are checked
against the parent's references like any workload's.

The probes do not depend on which workload the trace run was asked
for: a layer's cost is defined once.
"""

from __future__ import annotations

import os
import statistics
import time

import child
from spans import Tracer, durations_ns
from stats import close

WARM_REPS = 200
LAUNCH_REPS = 5
SERVICE_SLICE_S = 0.4


class ServiceInproc(child.Workload):
    """The service's ``submit`` -> ``result`` path without HTTP, under
    the same two closed-loop clients as ``service_http``."""

    clients = 2

    def __init__(self, http: child.ServiceHttp, tracer: Tracer) -> None:
        self.http = http
        self.tracer = tracer

    def op(self, k: int):
        http = self.http
        s, t = http.pairs[k % len(http.pairs)]
        started = time.perf_counter_ns()
        handle = http.service.submit(
            http.program, http.function, {"s": s, "t": t}
        )
        self.tracer.record(
            "service.submit_us", started, time.perf_counter_ns(), k
        )
        return handle.result(30)

    def expected(self, k: int):
        return self.http.expected(k)


class Probes:
    def __init__(self, spec, work_dir: str, tracer: Tracer) -> None:
        self.spec = spec
        self.work_dir = work_dir
        self.tracer = tracer
        self.span = tracer.span
        self.checked = 0
        self.failed = 0
        self.messages = []
        self.derived = {}

    def fail(self, message: str) -> None:
        self.failed += 1
        self.messages.append(message)

    def check(self, label: str, value, expected) -> None:
        self.checked += 1
        if not close(value, expected):
            self.fail(f"{label}: got {value!r}, expected {expected!r}")

    def absorb(self, record: dict) -> None:
        """Fold a ``run_slice`` record into the probe's own tally."""
        self.checked += record["ops"]
        self.failed += record["failed"]
        self.messages += record["errors"]

    def median_ms(self, name: str) -> float:
        samples = durations_ns(self.tracer.spans)[name]
        return statistics.median(samples) / 1e6

    # -- single-problem engine path ------------------------------------------

    def _launch_parts(self, sw: child.SwPairs, index: int = 0):
        """The public calls ``Engine.run`` makes, made from here."""
        import numpy as np
        from repro.runtime.values import Bindings

        q, d = sw.pool[index]
        bindings = {"m": sw.matrix, "q": q, "d": d}
        bound = Bindings(dict(bindings))
        engine = sw.engine
        domain = engine.domain_of(sw.func, bound)
        schedule = engine.schedule_for(sw.func, domain, bindings=bound)
        engine.verify_compiled(sw.func, schedule, domain)
        compiled = engine.compile(sw.func, schedule, domain)
        ctx = engine.build_context(compiled, bound, domain)
        table = np.zeros(domain.extents, dtype=np.int64)
        return bindings, domain, compiled, ctx, table

    def startup(self) -> child.SwPairs:
        """Process start-up costs every workload's ``setup_s`` pays."""
        from repro.runtime import native
        from repro.runtime.engine import Engine
        from repro.service.cache import LRUKernelCache

        with self.span("native.toolchain_probe_ms"):
            native.toolchain()
        self.cache = LRUKernelCache()
        small = child.SwPairs(
            self.spec["small"], Engine(kernel_cache=self.cache)
        )
        _, _, compiled, ctx, table = self._launch_parts(small)
        with self.span("native.first_launch_ms"):
            compiled.run(table, ctx)
        self.check("first launch", int(table.max()), small.expected(0))
        return small

    def cold(self) -> child.ColdCompile:
        """Staged cold compiles: one span per compiler stage. The
        first round of the five apps is a throwaway, so lazy imports
        are not booked to whichever app comes first."""
        cold = child.ColdCompile(self.spec["cold"], self.work_dir)
        apps = len({op["app"] for op in cold.ops})
        for k in range(cold.op_count):
            tracer = Tracer() if k < apps else self.tracer
            value = cold.traced_op(k, tracer)
            self.check(f"cold op {k}", value, cold.expected(k))
        for message in cold.finish(cold.op_count):
            self.fail(message)
        return cold

    def disk_cache(self, cold: child.ColdCompile) -> None:
        """A fresh cache object over a populated directory: the warm
        disk start a restarted service makes."""
        from repro.service.cache import (
            PersistentKernelCache,
            decode_compiled,
        )

        for k in range(cold.op_count - LAUNCH_REPS, cold.op_count):
            directory = os.path.join(cold.cache_root, str(k))
            fresh = PersistentKernelCache(directory)
            (key,) = fresh.disk_keys()
            with self.span("cache.disk_lookup_ms"):
                compiled = fresh.lookup(key)
            if compiled is None:
                self.fail(f"disk lookup {k} missed")
            with open(os.path.join(directory, key + ".kpkl"), "rb") as f:
                data = f.read()
            with self.span("cache.decode_ms"):
                decode_compiled(data, so_dir=directory)

    def warm_engine(self, small: child.SwPairs) -> None:
        """Warm SW-64: ``Engine.run``, then each public sub-call it
        makes, on the same inputs. What ``Engine.run`` costs beyond
        their sum is the residual."""
        import numpy as np
        from repro.gpu.timing import kernel_cost
        from repro.runtime.values import Bindings
        from repro.service.cache import kernel_cache_key

        small.warm_up()
        engine, func, span = small.engine, small.func, self.span
        for k in range(WARM_REPS):
            q, d = small.pool[k % len(small.pool)]
            bindings = {"m": small.matrix, "q": q, "d": d}
            with span("engine.run_small_ms", k):
                value = engine.run(func, bindings, reduce="max").value
            self.check(f"warm run {k}", value, small.expected(k))
            bound = Bindings(dict(bindings))
            with span("engine.domain_of_us", k):
                domain = engine.domain_of(func, bound)
            with span("schedule.memo_hit_us", k):
                schedule = engine.schedule_for(
                    func, domain, bindings=bound
                )
            with span("verify.memo_hit_us", k):
                engine.verify_compiled(func, schedule, domain)
            with span("engine.compile_hit_us", k):
                compiled = engine.compile(func, schedule, domain)
            key = kernel_cache_key(
                func, schedule, engine.prob_mode, compiled.backend
            )
            with span("cache.mem_lookup_us", k):
                self.cache.lookup(key)
            with span("engine.build_context_us", k):
                ctx = engine.build_context(compiled, bound, domain)
            with span("gpu.kernel_cost_us", k):
                kernel_cost(
                    compiled.kernel, domain, engine.spec,
                    mean_degree=engine.mean_degree(func, bound),
                )
            table = np.zeros(domain.extents, dtype=np.int64)
            with span("native.launch_small_ms", k):
                compiled.run(table, ctx)
        # cache.mem_lookup_us is inside engine.compile_hit_us already.
        parts = (
            "engine.domain_of_us", "schedule.memo_hit_us",
            "verify.memo_hit_us", "engine.compile_hit_us",
            "engine.build_context_us", "gpu.kernel_cost_us",
            "native.launch_small_ms",
        )
        self.derived["engine.residual_ms"] = self.median_ms(
            "engine.run_small_ms"
        ) - sum(self.median_ms(name) for name in parts)
        info = engine.cache_info()
        self.derived["engine.cache_hit_share"] = info.hits / (
            info.hits + info.misses
        )

    def large_launch(self) -> None:
        """The generated kernel alone at 2048x2048."""
        large = child.SwPairs(self.spec["large"])
        _, domain, compiled, ctx, table = self._launch_parts(large)
        for _ in range(LAUNCH_REPS):
            table[...] = 0
            with self.span("native.launch_ms"):
                compiled.run(table, ctx)
        self.check("large launch", int(table.max()), large.expected(0))
        self.derived["native.cells_per_s"] = domain.size / (
            self.median_ms("native.launch_ms") / 1e3
        )

    def batching(self) -> None:
        """``map_run``'s public stages on the profile database."""
        from repro.runtime.batching import (
            BatchedLaunch,
            pack_group,
            plan_batches,
        )

        pm = child.ProfileMap(self.spec["map"])
        result = pm.engine.map_run(pm.func, {"h": pm.hmm}, pm.problems)
        self.check("map_run", result.values, pm.expected(0))
        self.derived["batching.lane_batched_share"] = (
            result.lane_batched_problems / len(pm.problems)
        )
        for _ in range(LAUNCH_REPS):
            with self.span("engine.prepare_map_ms"):
                prepared, _, _, _ = pm.engine.prepare_map(
                    pm.func, {"h": pm.hmm}, pm.problems
                )
            with self.span("batching.plan_us"):
                groups = plan_batches(prepared)
            group = groups[0]
            compiled = prepared[group[0]][2]
            members = [(prepared[i][0], prepared[i][1]) for i in group]
            with self.span("batching.pack_ms"):
                packed = pack_group(compiled, members, indices=group)
            with self.span("batching.launch_ms"):
                BatchedLaunch(packed).run(packed.table, packed.ctx)
        self.derived["batching.pad_waste_share"] = 1.0 - sum(
            domain.size for domain in packed.domains
        ) / packed.table.size

    def sandbox_and_supervisor(self) -> None:
        """SW-512 three ways: in-process launch, the same launch
        through a sandbox worker, and a fault-free supervised run."""
        from repro.resilience import ExecutionSupervisor
        from repro.runtime import sandbox

        mid = child.SwPairs(self.spec["mid"])
        bindings, _, compiled, ctx, table = self._launch_parts(mid)
        for _ in range(LAUNCH_REPS):
            table[...] = 0
            with self.span("native.launch_mid_ms"):
                compiled.run(table, ctx)
        self.check("mid launch", int(table.max()), mid.expected(0))
        self.tracer.count("sandbox.table_bytes", table.nbytes)
        runner = sandbox.SandboxedNativeRun(
            compiled.kernel, compiled.so_path
        )
        try:
            table[...] = 0
            with self.span("sandbox.first_roundtrip_ms"):
                runner(table, ctx)
            self.check(
                "sandboxed launch", int(table.max()), mid.expected(0)
            )
            for _ in range(LAUNCH_REPS):
                table[...] = 0
                with self.span("sandbox.roundtrip_ms"):
                    runner(table, ctx)
        finally:
            sandbox.reset()
        roundtrip = self.median_ms("sandbox.roundtrip_ms")
        self.derived["sandbox.spawn_ms"] = (
            self.median_ms("sandbox.first_roundtrip_ms") - roundtrip
        )
        self.derived["sandbox.overhead_ms"] = roundtrip - self.median_ms(
            "native.launch_mid_ms"
        )
        supervisor = ExecutionSupervisor(mid.engine)
        for name, runner in (
            ("engine.run_mid_ms", mid.engine),
            ("resilience.supervised_run_ms", supervisor),
        ):
            for _ in range(3):
                with self.span(name):
                    value = runner.run(
                        mid.func, bindings, reduce="max"
                    ).value
                self.check(name, value, mid.expected(0))
        self.derived["resilience.supervised_overhead_share"] = (
            self.median_ms("resilience.supervised_run_ms")
            / self.median_ms("engine.run_mid_ms")
        )

    def service(self) -> None:
        """The service with and without its HTTP front end, and the
        engine work inside one of its batches."""
        from repro.runtime.engine import Engine

        http = child.ServiceHttp(self.spec["service"], self.work_dir)
        try:
            http.warmup_ops = 5
            http.warm_up()
            over_http, _ = child.run_slice(http, SERVICE_SLICE_S, 0)
            inproc, _ = child.run_slice(
                ServiceInproc(http, self.tracer), SERVICE_SLICE_S, 0
            )
            program = http.service.registry.register(http.program)
            func = program.function(http.function)
            batch = [
                program.bind(http.function, {"s": s, "t": t})[0]
                for s, t in http.pairs[:2]
            ]
            engine = Engine()
            engine.map_run(func, {}, batch)
            for _ in range(LAUNCH_REPS * 2):
                with self.span("service.batch_execute_ms"):
                    engine.map_run(func, {}, batch)
        finally:
            http.finish(0)
        for record in (over_http, inproc):
            self.absorb(record)
        roundtrip = statistics.median(inproc["latencies_ms"])
        stats = http.stats
        self.derived.update({
            "service.inproc_roundtrip_ms": roundtrip,
            "service.http_overhead_ms": statistics.median(
                over_http["latencies_ms"]
            ) - roundtrip,
            "service.stats_p50_ms": stats["p50_latency_seconds"] * 1e3,
            "service.stats_p95_ms": stats["p95_latency_seconds"] * 1e3,
            "service.mean_batch_size": stats["mean_batch_size"],
            "service.batches": stats["batches"],
            "service.queue_batch_wait_ms": (
                stats["p50_latency_seconds"] * 1e3
                - self.median_ms("service.batch_execute_ms")
            ),
        })


def run(spec, args, tracer: Tracer) -> dict:
    started = time.perf_counter_ns()
    with tracer.span("process.import_thirdparty_ms"):
        import numpy  # noqa: F401
        import networkx  # noqa: F401
    with tracer.span("process.import_repro_ms"):
        import repro  # noqa: F401
        import repro.resilience  # noqa: F401
        import repro.runtime.sandbox  # noqa: F401
        import repro.service.server  # noqa: F401
    probes = Probes(spec, args.work_dir, tracer)
    small = probes.startup()
    cold = probes.cold()
    probes.disk_cache(cold)
    probes.warm_engine(small)
    probes.large_launch()
    probes.batching()
    probes.sandbox_and_supervisor()
    probes.service()
    return {
        "slices": [{
            "traced": True,
            "ops": probes.checked,
            "failed": probes.failed,
            "errors": probes.messages[:5],
            "window_s": (time.perf_counter_ns() - started) / 1e9,
            "latencies_ms": [],
        }],
        "post_errors": [],
        "derived": probes.derived,
    }
