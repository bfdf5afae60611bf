"""Batch compile-and-execute service (the serving layer).

The paper's amortisation bet — synthesise a kernel once, then throw
thousands of independent problems at it via ``map`` (Sections 4.7,
6) — only pays off operationally with a layer that (a) keeps
compilation products beyond one process and (b) packs concurrent
one-off requests into batched runs. This package provides it:

* :mod:`repro.service.cache` — content-addressed kernel caches
  (bounded in-memory LRU + persistent disk tier);
* :mod:`repro.service.programs` — parse/check/declare DSL programs
  once, bind per-request arguments;
* :mod:`repro.service.queue` — bounded job queue with admission
  control and per-job handles, from which a free worker takes every
  queued request against one compiled function as one ``map`` batch;
* :mod:`repro.service.workers` — worker threads (one engine each,
  shared kernel cache) with timeout, bounded retry and graceful drain;
* :mod:`repro.service.stats` — service counters and latency
  percentiles;
* :mod:`repro.service.server` — the :class:`ComputeService` facade,
  an HTTP/1.1 front end on ``http.server`` that frames its own
  requests and replies, and a small client.

Submodules are resolved lazily so that
``repro.runtime.engine -> repro.service.cache`` never cycles through
the heavier service modules (which import the engine).
"""

from __future__ import annotations

_EXPORTS = {
    "CacheInfo": ("cache", "CacheInfo"),
    "LRUKernelCache": ("cache", "LRUKernelCache"),
    "PersistentKernelCache": ("cache", "PersistentKernelCache"),
    "kernel_cache_key": ("cache", "kernel_cache_key"),
    "ServiceProgram": ("programs", "ServiceProgram"),
    "ProgramRegistry": ("programs", "ProgramRegistry"),
    "Job": ("queue", "Job"),
    "JobHandle": ("queue", "JobHandle"),
    "JobState": ("queue", "JobState"),
    "JobQueue": ("queue", "JobQueue"),
    "AdmissionError": ("queue", "AdmissionError"),
    "JobTimeoutError": ("queue", "JobTimeoutError"),
    "Batch": ("queue", "Batch"),
    "WorkerPool": ("workers", "WorkerPool"),
    "ServiceStats": ("stats", "ServiceStats"),
    "StatsRegistry": ("stats", "StatsRegistry"),
    "classify_failure": ("workers", "classify_failure"),
    "ComputeService": ("server", "ComputeService"),
    "chaos_plan_from_env": ("server", "chaos_plan_from_env"),
    "make_http_server": ("server", "make_http_server"),
    "submit_remote": ("server", "submit_remote"),
    "fetch_remote_stats": ("server", "fetch_remote_stats"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module_name, attr = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    from importlib import import_module

    return getattr(import_module(f".{module_name}", __name__), attr)
