"""Fuzz leg: round-trip cases through a live HTTP service.

The differential harness checks the *compiler*; this module checks the
*service tier around it*. Each case that passed every local leg is
POSTed to an in-process :class:`~repro.service.server.ComputeService`
behind its real ``http.server`` front end and the replied value is
compared against the trusted scalar leg:

* the service becoming unreachable, or any reply the fault-tolerance
  machinery is supposed to make impossible (HTTP 500 — an exception
  leaked through the supervisor/sandbox/retry stack), classifies as
  ``service-crash`` — the strongest service finding;
* a 200 whose value disagrees with the local scalar run classifies as
  ``service-divergence``;
* load-shedding replies (503 queue-full, 504 deadline) are *correct*
  fault-tolerant behaviour, never findings.

Under ``chaos_rate`` the service runs with a deterministic
:class:`~repro.resilience.faults.FaultPlan` that kills and hangs the
crash-isolation sandbox workers (plus classic launch faults), so the
fuzzer exercises the whole recovery ladder: worker restart, circuit
breaker, native demotion, retry/backoff. One worker thread keeps the
injection sequence reproducible for a given campaign seed.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .grammar import FuzzCase

__all__ = ["ServiceRoundTrip", "SERVICE_FAILURE_CLASSES"]

#: service-mode classifications, most severe first.
SERVICE_FAILURE_CLASSES = ("service-crash", "service-divergence")


class ServiceRoundTrip:
    """One live service per prob-mode, shared across a campaign."""

    def __init__(
        self,
        chaos_rate: float = 0.0,
        chaos_seed: int = 0,
        use_native: Optional[bool] = None,
    ) -> None:
        from ..runtime import native as native_rt

        if use_native is None:
            use_native = native_rt.available().ok
        self.chaos_rate = float(chaos_rate)
        self.chaos_seed = int(chaos_seed)
        self.use_native = use_native
        #: prob_mode -> (service, server, thread, host, port)
        self._services: Dict[str, tuple] = {}

    # -- plumbing ------------------------------------------------------------

    def _fault_plan(self):
        if self.chaos_rate <= 0.0:
            return None
        from ..resilience import FaultPlan

        return FaultPlan(
            seed=self.chaos_seed,
            launch_fail_rate=self.chaos_rate,
            worker_kill_rate=self.chaos_rate if self.use_native else 0.0,
            sandbox_hang_rate=(
                self.chaos_rate / 2.0 if self.use_native else 0.0
            ),
            hang_seconds=0.2,
        )

    def _endpoint(self, prob_mode: str) -> Tuple[str, int]:
        entry = self._services.get(prob_mode)
        if entry is None:
            from ..service.server import (
                ComputeService,
                make_http_server,
                serve_in_thread,
            )

            if self.chaos_rate > 0.0 and self.use_native:
                # Chaos kills subprocesses: only live when the native
                # sandbox is on (process-wide switch).
                from ..runtime import sandbox

                sandbox.configure(True)
            service = ComputeService(
                workers=1,  # single worker: deterministic fault sites
                prob_mode=prob_mode,
                fault_plan=self._fault_plan(),
            )
            server = make_http_server(service, "127.0.0.1", 0)
            thread = serve_in_thread(server)
            host, port = server.server_address[:2]
            entry = (service, server, thread, host, port)
            self._services[prob_mode] = entry
        return entry[3], entry[4]

    # -- the leg -------------------------------------------------------------

    def check(
        self, case: FuzzCase, expected_value: object
    ) -> Optional[Tuple[str, str]]:
        """Round-trip one case; ``(classification, detail)`` or None.

        ``expected_value`` is the local scalar leg's answer — already
        cross-checked against every other rung, so a disagreement here
        indicts the service path, not the compiler.
        """
        from ..service.server import submit_remote
        from .differential import values_agree

        host, port = self._endpoint(case.prob_mode)
        try:
            reply = submit_remote(
                host,
                port,
                case.text,
                case.function,
                args=case.args,
                reduce=case.reduce,
            )
        except Exception as err:
            # The front end is a thread of *this* process: a dead
            # socket means a crash escaped the isolation sandbox.
            return (
                "service-crash",
                f"service unreachable mid-campaign: "
                f"{type(err).__name__}: {err}",
            )
        status = reply.get("_status")
        if status == 200:
            if not values_agree(expected_value, reply.get("value")):
                return (
                    "service-divergence",
                    f"scalar={expected_value!r} "
                    f"service={reply.get('value')!r}",
                )
            return None
        if status in (503, 504):
            # Shed load / missed deadline: correct degraded behaviour.
            return None
        return (
            "service-crash",
            f"service replied {status} to a program every local leg "
            f"accepts: {reply.get('error', '')!r}",
        )

    def close(self) -> None:
        """Shut every service down (drains in-flight work)."""
        for service, server, _thread, _host, _port in (
            self._services.values()
        ):
            try:
                server.shutdown()
                server.server_close()
            finally:
                service.shutdown(drain=True)
        self._services.clear()

    def __enter__(self) -> "ServiceRoundTrip":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
