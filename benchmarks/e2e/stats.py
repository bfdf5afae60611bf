"""The harness's arithmetic: percentiles, pooling, spreads."""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Sequence


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``fraction`` of the samples at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


#: Share of a workload's ops its gated timings are read from: the
#: fastest tenth. The host under this VM runs in two states — a
#: neighbour on the sibling hyperthread or not, 1.4x apart, changing
#: every few seconds — and a mean or median over a window follows the
#: neighbour's duty cycle (4-33 % between runs), where the fast end of
#: the same samples repeats to 2-14 % (README, "The host's states").
QUIET_SHARE = 0.10


def by_kind(windows: List[Dict]) -> List[List[float]]:
    """The windows' per-op times, one sorted list per kind of op.

    A workload whose ops cycle through unlike kinds (``cold_compile``:
    five programs) ranks each kind among its own, so that the fast end
    is not simply the cheapest kind."""
    kinds: Dict[int, List[float]] = {}
    for window in windows:
        for kind, took in zip(window["kinds"], window["latencies_ms"]):
            kinds.setdefault(kind, []).append(took)
    return [sorted(kinds[kind]) for kind in sorted(kinds)]


def quiet_throughput(windows: List[Dict]) -> float:
    """Ops per second the closed loop completes while the host is
    quiet: clients over the mean of each kind's fastest tenth."""
    means = []
    for ordered in by_kind(windows):
        quiet = ordered[:max(1, int(len(ordered) * QUIET_SHARE))]
        means.append(statistics.mean(quiet))
    return windows[0]["clients"] * 1e3 / statistics.mean(means)


def pool(windows: List[Dict], setups: Sequence[float]) -> Dict[str, float]:
    """End-to-end metrics of one workload: ``windows`` are the timed
    windows of the children that ran one, ``setups`` the set-up
    seconds of every child.

    Op times are pooled over the children; set-up time and peak
    memory are per-process quantities. Timings are read from the quiet
    end of their samples (see ``QUIET_SHARE``): the 5th percentile of
    the op times — the median of the fastest tenth — and the lower
    quartile of the set-ups, which are too few for a tenth.
    """
    return {
        "setup_s": statistics.quantiles(setups, n=4)[0],
        "throughput_quiet_ops_s": quiet_throughput(windows),
        "latency_ms_p05": statistics.mean(
            percentile(ordered, QUIET_SHARE / 2)
            for ordered in by_kind(windows)
        ),
        "peak_rss_mb": statistics.median(
            w["peak_rss_mb"] for w in windows
        ),
    }


def rep_spread(values: Sequence[float]) -> float:
    """Largest relative deviation of the values from their median."""
    middle = statistics.median(values)
    return max(abs(v - middle) for v in values) / middle


def worsening(first: float, second: float, better: str) -> float:
    """By what share of ``first`` the ``second`` value is worse
    (negative when it is better)."""
    change = (second - first) / first
    return change if better == "lower" else -change


def close(value: object, expected: object) -> bool:
    """Integers must match exactly, floats to 1e-9 relative; a list
    matches element by element."""
    if isinstance(expected, list):
        return (
            isinstance(value, list)
            and len(value) == len(expected)
            and all(close(v, e) for v, e in zip(value, expected))
        )
    if isinstance(expected, float):
        return isinstance(value, float) and math.isclose(
            value, expected, rel_tol=1e-9, abs_tol=0.0
        )
    return type(value) is type(expected) and value == expected
