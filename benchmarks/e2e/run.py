"""The repo benchmark: one command, every metric by name.

    python3 benchmarks/e2e/run.py --workload sw_pair_small --seed 1 \\
        --seconds 9 --trace 0

prints each end-to-end metric of the workload with its unit, then one
JSON object as the last line of standard output. ``--trace 1`` prints
the per-layer metrics in the same way. ``--selfcheck`` runs every
workload twice and fails if the two sets disagree by more than the
bounds in ``BENCHMARK.json``. README.md has the protocol and the
reason for each workload and metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import stats
import workloads
from spans import END, NAME, START, durations_ns, self_times_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: Everything a run writes lands in a per-run directory under here,
#: removed when the run ends (the interpreter's own bytecode caches
#: beside the sources are the one exception).
WORK = HERE / ".work"

#: A run's children in order: 1 sets up and runs a timed window, 0
#: only sets up. Seven set-up samples repeat where three do not, and a
#: set-up costs a second where a window costs three; alternating
#: spreads both kinds of sample over the run.
CHILD_PLAN = (0, 1, 0, 1, 0, 1, 0)
REPS = sum(CHILD_PLAN)
MIN_CHILD_WINDOW_S = 3.0
TRACE_CHILD_WINDOW_S = 3.0
SPIN_SECONDS = 1.5
CHILD_TIMEOUT_S = 150

_SPIN = (
    "import time\n"
    f"end = time.perf_counter() + {SPIN_SECONDS}\n"
    "while time.perf_counter() < end: pass\n"
)


def manifest() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def child_env(native_dir: Path, tmp_dir: Path) -> dict:
    """The parent's environment minus every ``REPRO_*`` and ``OMP_*``
    variable, so an ambient knob cannot reach the program; the ones
    the harness sets itself keep all writes inside the checkout."""
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith(("REPRO_", "OMP_"))
    }
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([inherited] if inherited else [])
    )
    env["TMPDIR"] = str(tmp_dir)
    env["REPRO_NATIVE_CACHE_DIR"] = str(native_dir)
    return env


def spawn_child(run_dir: Path, tag: str, spec_path: Path, window: float,
                rep: int = 0, trace: int = 0) -> dict:
    """Run one child to completion and load its result."""
    work_dir = run_dir / tag
    native_dir = work_dir / "native"
    tmp_dir = work_dir / "tmp"
    native_dir.mkdir(parents=True)
    tmp_dir.mkdir()
    out_path = work_dir / "result.json"
    command = [
        sys.executable, str(HERE / "child.py"),
        "--spec", str(spec_path), "--out", str(out_path),
        "--work-dir", str(work_dir), "--window", repr(window),
        "--rep", str(rep), "--trace", str(trace),
    ]
    env = child_env(native_dir, tmp_dir)
    # The child's clock starts here, so interpreter start-up and
    # imports count as set-up.
    command += ["--spawn-ns", str(time.monotonic_ns())]
    done = subprocess.run(
        command, env=env, cwd=str(ROOT), timeout=CHILD_TIMEOUT_S,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"child {tag} exited {done.returncode}:\n{done.stderr}"
        )
    with open(out_path) as handle:
        result = json.load(handle)
    if trace:
        with open(str(out_path) + ".spans") as handle:
            result["trace"] = json.load(handle)
    return result


def preflight() -> None:
    """Unreported warm-up of the machine, not of the program.

    After a few seconds of idle this class of VM parks its second
    vCPU, and the next ~200 OpenMP regions together take about a
    second longer. Spinning every core brings both vCPUs back; the
    first child — which only sets up — then brings cc, libgomp and
    NumPy into the page cache, and from here on the harness never
    sleeps. That child's own set-up sample may still be a slow one:
    ``setup_s`` is a lower quartile, which one slow sample in seven
    does not move.
    """
    spinners = [
        subprocess.Popen([sys.executable, "-c", _SPIN])
        for _ in range(os.cpu_count() or 1)
    ]
    for spinner in spinners:
        spinner.wait()


def child_window(seconds: float, trace: int) -> float:
    """Seconds of timed window each child gets."""
    if trace:
        return TRACE_CHILD_WINDOW_S
    return max(MIN_CHILD_WINDOW_S, seconds / REPS)


def run_children(name: str, seed: int, window: float, trace: int):
    """Preflight, then the workload's children back to back (and the
    probe child in a trace run). Returns ``(children, probe)``."""
    WORK.mkdir(exist_ok=True)
    run_dir = WORK / f"run-{os.getpid()}-{time.monotonic_ns()}"
    run_dir.mkdir()
    try:
        # Expected values are computed before anything is spawned, so
        # no reference work runs beside a timed child.
        spec_path = run_dir / "spec.json"
        with open(spec_path, "w") as handle:
            json.dump(workloads.build(name, seed, window), handle)
        probe_path = run_dir / "probes.json"
        if trace:
            with open(probe_path, "w") as handle:
                json.dump(workloads.build("probes", seed, 0.0), handle)
        preflight()
        # Per-layer metrics come from timed windows only.
        plan = (1,) * REPS if trace else CHILD_PLAN
        children = [
            spawn_child(run_dir, f"rep{rep}", spec_path, window * timed,
                        rep=sum(plan[:rep]), trace=trace)
            for rep, timed in enumerate(plan)
        ]
        probe = (
            spawn_child(run_dir, "probes", probe_path, 0.0, trace=1)
            if trace else None
        )
        return children, probe
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _windows(children, traced: bool):
    """The timed windows of one kind, one record per child that ran
    one, in the shape ``stats.pool`` takes."""
    return [
        {**piece, "peak_rss_mb": child["peak_rss_mb"]}
        for child in children
        for piece in child["slices"]
        if piece["traced"] is traced
    ]


def end_to_end(children) -> dict:
    """The gated metrics plus the ungated harness lines."""
    windows = _windows(children, traced=False)
    setups = [child["setup_s"] for child in children]
    metrics = stats.pool(windows, setups)
    latencies = [x for w in windows for x in w["latencies_ms"]]
    # What the whole windows read, the host's slow spells included:
    # pooled ops over pooled seconds, and the pooled percentiles.
    extra = {
        "harness.samples": len(latencies),
        "harness.throughput_ops_s": sum(w["ops"] for w in windows)
        / sum(w["window_s"] for w in windows),
        "harness.latency_ms_p50": statistics.median(latencies),
        "harness.latency_ms_p90": stats.percentile(latencies, 0.90),
    }
    if len(latencies) >= 1000:
        extra["harness.latency_ms_p99"] = stats.percentile(
            latencies, 0.99
        )
    per_child = [stats.pool([w], setups) for w in windows]
    for key in metrics:
        values = (
            setups if key == "setup_s"
            else [child[key] for child in per_child]
        )
        extra[f"harness.rep_spread.{key}"] = stats.rep_spread(values)
    return {"metrics": metrics, "extra": extra}


def failures(children, probe) -> tuple:
    attempted = failed = 0
    messages = []
    for record in children + ([probe] if probe else []):
        for piece in record["slices"]:
            attempted += piece["ops"]
            failed += piece["failed"]
            messages += piece["errors"]
        failed += len(record["post_errors"])
        messages += record["post_errors"]
    if attempted == 0:
        raise RuntimeError("no op ran in any window: nothing to report")
    return attempted, failed, messages


def layer_metrics(children, probe) -> dict:
    """Per-layer metrics of a trace run.

    Timed layers are the median duration of the probe child's spans of
    that name (a span is named after its metric; the suffix gives the
    unit); counts and ratios come from its counters. The workload's
    own children add the tracing overhead and the harness lines.
    """
    values = {}
    trace = probe["trace"]
    for name, samples in durations_ns(trace["spans"]).items():
        scale = {"_ms": 1e6, "_us": 1e3}.get(name[-3:])
        if scale:
            values[name] = statistics.median(samples) / scale
    for name, samples in trace["counts"].items():
        values[name] = statistics.median(samples)
    values.update(probe["derived"])
    # Share of a staged cold op its stage spans account for.
    own = self_times_ns(trace["spans"])
    ops = [
        (span, own[k]) for k, span in enumerate(trace["spans"])
        if span[NAME].startswith("cold.")
    ]
    values["cold.phase_cover_share"] = 1.0 - sum(
        self_ns for _, self_ns in ops
    ) / sum(span[END] - span[START] for span, _ in ops)

    plain, traced = (
        stats.quiet_throughput(_windows(children, traced=kind))
        for kind in (False, True)
    )
    values["trace.overhead_share"] = 1.0 - traced / plain
    values.update(end_to_end(children)["extra"])
    return values


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 out=sys.stdout) -> dict:
    """Run one workload, print its report, return the result object."""
    spec = manifest()
    window = child_window(seconds, trace)
    children, probe = run_children(name, seed, window, trace)
    attempted, failed, messages = failures(children, probe)
    if trace:
        values = layer_metrics(children, probe)
        listed = spec["per_layer"]
        extra = {}
    else:
        report = end_to_end(children)
        values, extra = report["metrics"], report["extra"]
        listed = spec["end_to_end"]
    print(
        f"workload {name}  seed {seed}  trace {trace}  "
        f"{REPS} windows x {window:g} s, "
        f"{len(children)} set-ups",
        file=out,
    )
    metrics = {}
    for entry in listed:
        value = values[entry["name"]]
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"  {entry['name']:<36} {value:>14.6g} {entry['unit']}",
              file=out)
    print(f"  {'failed_share':<36} {failed / attempted:>14.6g} ratio"
          f"  ({failed} of {attempted} ops)", file=out)
    for key, value in extra.items():
        print(f"  {key:<36} {value:>14.6g}", file=out)
    for message in messages[:10]:
        print(f"  FAILED {message}", file=out)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def environment(seed: int) -> dict:
    import numpy

    cc = subprocess.run(
        ["cc", "--version"], stdout=subprocess.PIPE, text=True
    ).stdout.splitlines()[0]
    return {
        "nproc": os.cpu_count(),
        "cc": cc,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "seed": seed,
    }


def selfcheck(seed: int, seconds: float, label: str) -> int:
    """Run the whole benchmark twice, compare the two sets, and keep
    both with the comparison in ``results/selfcheck_<label>.json``."""
    spec = manifest()
    sets = [
        {
            entry["name"]: run_workload(entry["name"], seed, seconds, 0)
            for entry in spec["workloads"]
        }
        for _ in range(2)
    ]
    exceeded = []
    comparison = []
    print(f"\n{'workload':<16} {'metric':<24} {'first':>12} "
          f"{'second':>12} {'differ by':>9} {'bound':>6}")
    for entry in spec["workloads"]:
        name = entry["name"]
        for metric in spec["end_to_end"]:
            first, second = (
                rows[name]["metrics"][metric["name"]]["value"]
                for rows in sets
            )
            # Neither set is the baseline, so either order must pass.
            differ = abs(stats.worsening(first, second, metric["better"]))
            comparison.append({
                "workload": name, "metric": metric["name"],
                "first": first, "second": second, "differ_by": differ,
                "bound": metric["bound"],
            })
            flag = ""
            if differ > metric["bound"]:
                flag = "  EXCEEDED"
                exceeded.append(f"{name} {metric['name']}")
            print(f"{name:<16} {metric['name']:<24} {first:>12.5g} "
                  f"{second:>12.5g} {differ:>9.4f} "
                  f"{metric['bound']:>6}{flag}")
        for rows in sets:
            if not rows[name]["correct"]:
                exceeded.append(f"{name} failed ops")
                print(f"{name:<16} failed ops: {rows[name]['failed']}")
    print("selfcheck", "FAILED" if exceeded else "passed")
    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    with open(results_dir / f"selfcheck_{label}.json", "w") as handle:
        json.dump(
            {"environment": environment(seed), "seconds": seconds,
             "passed": not exceeded, "exceeded": exceeded,
             "comparison": comparison, "sets": sets},
            handle, indent=1,
        )
    return 1 if exceeded else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per workload, split over "
                             "3 windows (default: run_seconds of "
                             "BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", nargs="?", const="latest",
                        metavar="LABEL",
                        help="run every workload twice, compare, and "
                             "write results/selfcheck_LABEL.json")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        seconds = float(manifest()["run_seconds"])
    if args.selfcheck:
        return selfcheck(args.seed, seconds, args.selfcheck)
    if args.workload is None:
        parser.error("--workload is required (or --selfcheck)")
    result = run_workload(args.workload, args.seed, seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
