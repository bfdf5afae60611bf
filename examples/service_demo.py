#!/usr/bin/env python3
"""The batch service, end to end: 120 concurrent clients, one device.

Demonstrates the acceptance scenario for ``repro.service``:

1. 120 edit-distance problems submitted concurrently to a 4-worker
   ``ComputeService`` all complete, every value bitwise-identical to
   a serial ``Engine.run``. A free worker takes the oldest job and
   every queued job with its key as one ``map`` launch, so the first
   jobs go straight to idle workers and whatever arrives while all
   four are busy (compiling, at first) shares a launch.
2. A second service started on the same cache directory answers
   without compiling anything: the persistent kernel cache made the
   schedule search and code generation a one-time cost.

Run:  python examples/service_demo.py
"""

import tempfile
import threading

from repro import Engine, Sequence, check_function, parse_function
from repro.runtime import ENGLISH
from repro.service import ComputeService

PROGRAM = """
alphabet en = "abcdefghijklmnopqrstuvwxyz"
int d(seq[en] s, index[s] i, seq[en] t, index[t] j) =
  if i == 0 then j
  else if j == 0 then i
  else if s[i-1] == t[j-1] then d(i-1, j-1)
  else (d(i-1, j) min d(i, j-1) min d(i-1, j-1)) + 1
"""

WORDS = [
    "kitten", "mitten", "sitting", "sitten", "bitten", "written",
    "smitten", "knitting", "siting", "kit", "kith", "knit",
]


def main() -> None:
    problems = [(w, WORDS[(i + 5) % len(WORDS)])
                for i, w in enumerate(WORDS * 10)]
    print(f"problems      : {len(problems)} (concurrent submissions)")

    # The serial baseline the service must match bitwise.
    func_src = PROGRAM.strip().split("\n", 1)[1]
    func = check_function(parse_function(func_src),
                          {"en": ENGLISH.chars})
    engine = Engine()
    serial = [
        engine.run(func, {"s": Sequence(s, ENGLISH),
                          "t": Sequence(t, ENGLISH)}).value
        for s, t in problems
    ]

    with tempfile.TemporaryDirectory() as cache_dir:
        # -- phase 1: cold cache, concurrent clients ---------------
        # An idle worker takes the oldest job and every queued job
        # with its key (up to ``max_batch``); while all four workers
        # are busy, arrivals pile up and ride together.
        with ComputeService(
            workers=4, max_batch=64, cache_dir=cache_dir,
        ) as service:
            handles = [None] * len(problems)

            def submit(index, s, t):
                handles[index] = service.submit(
                    PROGRAM, "d", {"s": s, "t": t}
                )

            threads = [
                threading.Thread(target=submit, args=(i, s, t))
                for i, (s, t) in enumerate(problems)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            values = [h.result(timeout=60) for h in handles]
            stats = service.stats()
            kernels = len(service.kernel_cache)

        assert values == serial, "batched results diverged from serial"
        # One compile per kernel: the first worker to miss a kernel
        # builds it and the others wait for that build. (One function
        # can need two kernels: without a C compiler a lane-batched
        # group runs on the vector rung and a lone job on scalar.)
        assert stats.cache_misses == kernels, (
            f"{stats.cache_misses} compiles of {kernels} kernel(s)"
        )
        print(f"batches       : {stats.batches} "
              f"(mean size {stats.mean_batch_size:.1f}, "
              f"max {stats.max_batch_size})")
        print(f"compiles      : {stats.cache_misses} "
              f"(hit rate {stats.cache_hit_rate:.0%})")
        print(f"latency       : p50 {stats.p50_latency_seconds * 1e3:.1f} ms, "
              f"p95 {stats.p95_latency_seconds * 1e3:.1f} ms")
        print("determinism   : all values bitwise-equal to Engine.run")

        # -- phase 2: new service, warm disk cache -----------------
        with ComputeService(workers=1, cache_dir=cache_dir) as warm:
            value = warm.submit(
                PROGRAM, "d", {"s": "kitten", "t": "sitting"}
            ).result(timeout=30)
            warm_stats = warm.stats()

        assert warm_stats.cache_misses == 0, "warm start recompiled"
        print(f"\nwarm restart  : value {value}, "
              f"{warm_stats.cache_misses} compiles, "
              f"{warm_stats.cache_disk_hits} disk hit(s)")
        print("\nfull statistics from phase 1:")
        print(stats.render())


if __name__ == "__main__":
    main()
