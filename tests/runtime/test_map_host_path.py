"""``Engine.map_run``'s host path costs per group, not per member.

A map member pays for its own bindings, extents and schedule pick;
the rung, the packed context and each verification verdict are paid
once per group (or per distinct verdict key), and the simulated
device's accounting — a map's and a single run's alike — is priced
when it is first read. These tests pin the counts, pin the priced
numbers to goldens recorded at the commit before each view landed
(``map_pricing_goldens.json`` and ``run_pricing_goldens.json``,
written by running :func:`golden_records` and
:func:`run_golden_records` against that tree), and pin the values to
``Engine.run``'s.
"""

import dataclasses
import json
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.profile_hmm import tk_model
from repro.apps.rna_folding import RNA, nussinov_function
from repro.gpu.device import SimulatedDevice
from repro.gpu.timing import (
    batched_launch_cost,
    kernel_cost,
    partition_sizes,
    problems_per_sm,
)
from repro.ir.kernel import build_kernel
from repro.lang.errors import VerificationError
from repro.lang.parser import parse_function
from repro.lang.typecheck import check_function
from repro.runtime import native
from repro.runtime.context import build_context
from repro.runtime.engine import Engine
from repro.runtime.parity import FLOAT_RTOL
from repro.runtime.values import DNA, ENGLISH, Sequence
from repro.schedule.schedule import Schedule
from repro.verify.races import analyze_parallelism, parallelism_certificate
from repro.verify.soundness import BRUTE_FORCE_CAP, verify_schedule
from tests.runtime.test_ladder import CrashOnce
from tests.verify.test_extent_free import count_calls

needs_cc = pytest.mark.skipif(
    not native.available().ok,
    reason="no working C compiler in this environment",
)

EDIT = """
int d(seq[en] s, index[s] i, seq[en] t, index[t] j) =
  if i == 0 then j
  else if j == 0 then i
  else if s[i-1] == t[j-1] then d(i-1, j-1)
  else (d(i-1, j) min d(i, j-1) min d(i-1, j-1)) + 1
"""

#: Gapless local alignment: only the diagonal descent, so the
#: compile-time candidates are two schedules (``S = i`` and ``S = j``)
#: and a member's shape picks between them.
GAPLESS = """
int g(seq[en] a, index[a] i, seq[en] b, index[b] j) =
  if i == 0 then 0
  else if j == 0 then 0
  else 0 max (g(i-1, j-1) + (if a[i-1] == b[j-1] then 2 else 0 - 1))
"""

#: ``f(i-1, j+1)``: ``S = i`` and ``S = -j`` are both minimal for some
#: shape, so a member's shape picks between them — the second only
#: from candidates of every sign.
RECEDING = """
int f(seq[dna] s, index[s] i, seq[dna] t, index[t] j) =
  if i == 0 then 0 else if j > 7 then 0 else f(i - 1, j + 1) + 1
"""

FORWARD = """
prob forward(hmm h, state[h] s, seq[*] x, index[x] i) =
  if i == 0 then (if s.isstart then 1.0 else 0.0)
  else (if s.isend then 1.0 else s.emission[x[i-1]])
    * sum(t in s.transitionsto : t.prob * forward(t.start, i - 1))
"""


def checked(source):
    return check_function(
        parse_function(source.strip()), {"en": ENGLISH.chars}
    )


def text(length, salt=0, chars=ENGLISH.chars):
    """A deterministic string: same text on every platform."""
    return "".join(
        chars[(salt + 7 * k + k * k) % len(chars)]
        for k in range(length)
    )


def english(length, salt=0):
    return Sequence(text(length, salt), ENGLISH)


def protein(model, length, salt=0):
    return Sequence(
        text(length, salt, model.alphabet.chars), model.alphabet
    )


#: 63 columns: a 64-row member is the last box inside the verifier's
#: 4096-cell brute-force leg, a 65-row one the first beyond it.
EDIT_BASE = {"t": english(63)}
EDIT_LENGTHS = (30, 100, 63, 64, 81, 120, 45, 64)


def edit_problems(lengths=EDIT_LENGTHS):
    return [{"s": english(n, salt=n)} for n in lengths]


def count_method(monkeypatch, cls, name):
    """Count calls of ``cls.name``; returns the list they append to."""
    method = getattr(cls, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return method(*args, **kwargs)

    monkeypatch.setattr(cls, name, counted)
    return calls


# -- (a) what a member costs ---


class TestMemberCosts:
    def test_values_only_caller_pays_per_group(self, monkeypatch):
        """A warm 64-member single-group map whose caller reads only
        ``.values`` prices nothing, resolves one rung and builds one
        context — and a database of lengths it has never seen costs
        exactly the same (no memo is keyed on the inputs)."""
        engine = Engine()
        func = checked(EDIT)
        base = {"t": english(40)}
        first = [{"s": english(n, salt=n)} for n in range(100, 164)]
        unseen = [{"s": english(n, salt=n)} for n in range(164, 228)]
        warm = engine.map_run(func, base, first)
        assert warm.lane_batches == 1
        assert warm.lane_batched_problems == 64

        counters = {
            "kernel_cost": count_calls(monkeypatch, kernel_cost),
            "problems_per_sm": count_calls(monkeypatch, problems_per_sm),
            "batched_launch_cost": count_calls(
                monkeypatch, batched_launch_cost
            ),
            "build_context": count_calls(monkeypatch, build_context),
            "launch": count_method(
                monkeypatch, SimulatedDevice, "launch"
            ),
            "compile": count_method(monkeypatch, Engine, "compile"),
        }

        def counts_of(problems):
            for calls in counters.values():
                del calls[:]
            engine.map_run(func, base, problems).values
            return {name: len(c) for name, c in counters.items()}

        repeated = counts_of(first)
        assert repeated == {
            "kernel_cost": 0,
            "problems_per_sm": 0,
            "batched_launch_cost": 0,
            "launch": 0,
            "compile": 1,
            "build_context": 1,
        }
        assert counts_of(unseen) == repeated

    @pytest.mark.parametrize(
        "backend", ["vector", pytest.param("native", marks=needs_cc)]
    )
    def test_values_only_run_prices_nothing(self, monkeypatch, backend):
        """A warm ``Engine.run`` whose caller reads only ``.value``
        never touches the device model — on the native rung through
        the result-only entry, whose table stays unfilled."""
        engine = Engine(backend=backend)
        func = checked(EDIT)
        bindings = {**EDIT_BASE, **edit_problems()[0]}
        engine.run(func, bindings)
        counters = [
            count_calls(monkeypatch, kernel_cost),
            count_calls(monkeypatch, problems_per_sm),
            count_calls(monkeypatch, partition_sizes),
            count_method(monkeypatch, SimulatedDevice, "launch"),
        ]
        result = engine.run(func, bindings)
        assert result.value == engine.run(func, bindings).value
        if backend == "native":
            assert callable(result._table)  # launched result-only
        assert [len(calls) for calls in counters] == [0, 0, 0, 0]

    def test_pricing_runs_once_on_first_read(self, monkeypatch):
        engine = Engine(backend="vector")
        func = checked(EDIT)
        result = engine.map_run(func, EDIT_BASE, edit_problems())
        run = engine.run(func, {**EDIT_BASE, **edit_problems()[0]})
        launches = count_method(monkeypatch, SimulatedDevice, "launch")
        priced = count_calls(monkeypatch, kernel_cost)
        for _ in range(2):
            assert result.report.problems == len(EDIT_LENGTHS)
            assert len(result.costs) == len(EDIT_LENGTHS)
            assert sum(result.schedule_usage.values()) == len(
                EDIT_LENGTHS
            )
            assert len(result.batched_costs) == result.lane_batches
            assert result.seconds == result.report.total_seconds
            assert run.report.problems == 1
            assert run.cost.cells == run.domain.size
            assert run.seconds == run.report.total_seconds
        assert len(launches) == 2
        assert len(priced) == len(EDIT_LENGTHS) + 1


# -- (b) the priced view equals the eager pricing ---


def record(engine, result):
    """Everything a ``MapResult`` reports about the simulated device
    (plus the engine's verdict counters), as JSON-stable data."""
    report = result.report
    return json.loads(json.dumps({
        "report": [
            report.device, report.problems, report.kernel_seconds,
            report.transfer_seconds, report.overhead_seconds,
            list(report.sm_seconds),
        ],
        "costs": [dataclasses.astuple(c) for c in result.costs],
        "schedule_usage": sorted(
            [list(k), v] for k, v in result.schedule_usage.items()
        ),
        "batched_costs": [
            dataclasses.astuple(c) for c in result.batched_costs
        ],
        "seconds": result.seconds,
        "lane_batches": result.lane_batches,
        "lane_batched_problems": result.lane_batched_problems,
        "batched_backends": list(result.batched_backends),
        "verified": engine.cache_info().verified,
        "verify_failures": engine.cache_info().verify_failures,
    }))


def golden_cases():
    """``name -> thunk`` returning ``(engine, MapResult)`` from a cold
    engine. Rungs are forced to the toolchain-independent ones so the
    records are the same on every machine. The names keep the tags
    the records were taken under: one problem per multiprocessor
    (``intra``), every value computed (``run``)."""
    cases = {}
    model = tk_model(seed=3)
    forward_problems = [
        {"x": protein(model, n, salt=n)} for n in (5, 12, 9, 12, 30)
    ]
    for batching in (True, False):
        def edit(b=batching):
            engine = Engine(backend="vector", batching=b)
            return engine, engine.map_run(
                checked(EDIT), EDIT_BASE, edit_problems()
            )

        def forward(b=batching):
            engine = Engine(
                backend="vector", prob_mode="logspace", batching=b
            )
            return engine, engine.map_run(
                checked(FORWARD), {"h": model}, forward_problems,
                use_window=False,
            )

        tag = f"intra-run-{'batched' if batching else 'unbatched'}"
        cases[f"edit-{tag}"] = edit
        cases[f"forward-{tag}"] = forward
    return cases


GOLDEN_CASES = golden_cases()


def golden_records():
    """What ``map_pricing_goldens.json`` holds (run at the parent)."""
    return {
        name: record(*thunk()) for name, thunk in GOLDEN_CASES.items()
    }


GOLDENS = json.loads(
    Path(__file__).with_name("map_pricing_goldens.json").read_text()
)


def run_record(result):
    """Everything a ``RunResult`` reports about the simulated device,
    as JSON-stable data."""
    report = result.report
    return json.loads(json.dumps({
        "report": [
            report.device, report.problems, report.kernel_seconds,
            report.transfer_seconds, report.overhead_seconds,
            list(report.sm_seconds),
        ],
        "cost": dataclasses.astuple(result.cost),
        "seconds": result.seconds,
    }))


def run_golden_cases():
    """``name -> thunk(with_map=False)`` returning a cold engine's
    ``RunResult`` — with the same problem's one-member ``MapResult``
    when ``with_map``. Rungs are forced to toolchain-independent ones,
    as for the map goldens."""
    model = tk_model(seed=3)
    edit = {"s": english(100, salt=1), "t": english(63)}
    fold = {"x": Sequence("ggcgcaaagcgccgggaaaccc", RNA)}
    setups = {
        "edit-window": ("vector", "direct", EDIT, edit, {}),
        "edit-no-window": (
            "vector", "direct", EDIT, edit, {"use_window": False},
        ),
        "forward-logspace": (
            "vector", "logspace", FORWARD,
            {"h": model, "x": protein(model, 30, salt=2)}, {},
        ),
        "nussinov": (
            "scalar", "direct", nussinov_function(), fold,
            {"at": {"i": 0, "j": 22}},
        ),
    }

    def thunk(backend, mode, source, bindings, kwargs, with_map=False):
        engine = Engine(backend=backend, prob_mode=mode)
        func = checked(source) if isinstance(source, str) else source
        run = engine.run(func, bindings, **kwargs)
        if not with_map:
            return run
        return run, engine.map_run(func, bindings, [{}], **kwargs)

    return {name: partial(thunk, *args) for name, args in setups.items()}


RUN_GOLDEN_CASES = run_golden_cases()


def run_golden_records():
    """What ``run_pricing_goldens.json`` holds (run at the parent)."""
    return {
        name: run_record(thunk())
        for name, thunk in RUN_GOLDEN_CASES.items()
    }


RUN_GOLDENS = json.loads(
    Path(__file__).with_name("run_pricing_goldens.json").read_text()
)


class TestPricedView:
    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_matches_the_parent_commit(self, name):
        assert record(*GOLDEN_CASES[name]()) == GOLDENS[name]

    @pytest.mark.parametrize("batching", [True, False])
    def test_matches_prepare_map(self, batching):
        engine = Engine(backend="vector", batching=batching)
        func = checked(EDIT)
        result = engine.map_run(func, EDIT_BASE, edit_problems())
        _, costs, usage, problem_costs = engine.prepare_map(
            func, EDIT_BASE, edit_problems()
        )
        assert result.costs == costs
        assert result.schedule_usage == usage
        assert result.report == SimulatedDevice(engine.spec).launch(
            problem_costs
        )
        assert result.seconds == result.report.total_seconds

    @pytest.mark.parametrize("name", sorted(RUN_GOLDEN_CASES))
    def test_run_matches_the_parent_commit(self, name):
        assert run_record(RUN_GOLDEN_CASES[name]()) == RUN_GOLDENS[name]

    @pytest.mark.parametrize("name", sorted(RUN_GOLDEN_CASES))
    def test_run_is_a_one_member_map(self, name):
        """``run`` is the one pricer's one-member call: its cost and
        report are a one-member ``map_run``'s."""
        run, single = RUN_GOLDEN_CASES[name](with_map=True)
        assert single.costs == [run.cost]
        assert single.report == run.report

    @needs_cc
    def test_batched_costs_keep_the_launch_time_threads(
        self, monkeypatch
    ):
        monkeypatch.setenv("REPRO_NATIVE_THREADS", "2")
        engine = Engine(backend="native")
        func = checked(EDIT)
        result = engine.map_run(func, EDIT_BASE, edit_problems())
        threads = native.effective_threads()
        monkeypatch.setenv("REPRO_NATIVE_THREADS", "1")
        assert result.batched_backends == ["native-batched"]
        prepared, _, _, _ = engine.prepare_map(
            func, EDIT_BASE, edit_problems()
        )
        assert result.batched_costs == [
            batched_launch_cost(
                prepared[0][2].kernel,
                [domain for _, domain, _ in prepared],
                engine.spec,
                threads=threads,
            )
        ]

    @needs_cc
    def test_refused_batch_axis_is_priced_on_one_thread(
        self, monkeypatch
    ):
        """A kernel whose certificate refuses the batch axis builds a
        pragma-free problem loop, so its group ran on one thread."""

        def refused(func, schedule, prob_mode):
            kernel = build_kernel(func, schedule, prob_mode)
            kernel.memo["parallelism_certs"] = {
                None: analyze_parallelism(kernel, pad_extents=(1, 1))
            }
            return kernel

        monkeypatch.setattr("repro.runtime.engine.build_kernel", refused)
        monkeypatch.setenv("REPRO_NATIVE_THREADS", "2")
        engine = Engine(backend="native")
        func = checked(EDIT)
        result = engine.map_run(func, EDIT_BASE, edit_problems())
        assert result.batched_backends == ["native-batched"]
        prepared, _, _, _ = engine.prepare_map(
            func, EDIT_BASE, edit_problems()
        )
        kernel = prepared[0][2].kernel
        assert not parallelism_certificate(kernel).batch.confirmed
        assert result.batched_costs[0] == batched_launch_cost(
            kernel,
            [domain for _, domain, _ in prepared],
            engine.spec,
            threads=1,
        )

    @needs_cc
    def test_demoted_group_is_priced_on_the_rung_it_ran(
        self, monkeypatch
    ):
        """A native group that crashed down to the NumPy sweep ran on
        one thread, whatever the native rung would have used."""
        monkeypatch.setenv("REPRO_NATIVE_THREADS", "2")
        engine = Engine(backend="native")
        func = checked(EDIT)
        prepared, _, _, _ = engine.prepare_map(
            func, EDIT_BASE, edit_problems()
        )
        compiled = prepared[0][2]
        compiled.batched = CrashOnce(compiled.batched)
        result = engine.map_run(func, EDIT_BASE, edit_problems())
        assert result.batched_backends == ["vector-batched"]
        assert result.batched_costs == [
            batched_launch_cost(
                compiled.kernel,
                [domain for _, domain, _ in prepared],
                engine.spec,
                threads=1,
            )
        ]


# -- (c) values are Engine.run's ---


def same_bits(a, b):
    if type(a) is not type(b):
        return False
    return a == b if isinstance(a, int) else a.hex() == b.hex()


def assert_values_are_runs(engine, func, base, problems, **kwargs):
    result = engine.map_run(func, base, problems, **kwargs)
    singles = [
        engine.run(func, {**base, **problem}, **kwargs).value
        for problem in problems
    ]
    if "vector-batched" in result.batched_backends and isinstance(
        singles[0], float
    ):
        # NumPy's array and scalar float paths: ulp-close by policy.
        assert result.values == pytest.approx(singles, rel=FLOAT_RTOL)
    else:
        assert all(map(same_bits, result.values, singles)), (
            result.values, singles
        )


# Shared across Hypothesis examples: building them is the slow part,
# and a warm engine is the case the host path is about.
ENGINE = Engine()
EDIT_FUNC = checked(EDIT)
GAPLESS_FUNC = checked(GAPLESS)
FORWARD_FUNC = checked(FORWARD)
MODEL = tk_model(seed=5)
FORWARD_ENGINES = {
    mode: Engine(prob_mode=mode) for mode in ("direct", "logspace")
}


class TestValuesAreRuns:
    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(1, 130), min_size=2, max_size=7))
    def test_lengths_straddling_the_brute_force_cap(self, lengths):
        assert 64 * 64 == BRUTE_FORCE_CAP
        assert_values_are_runs(
            ENGINE, EDIT_FUNC, EDIT_BASE, edit_problems(lengths)
        )

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(1, 110), st.integers(1, 110)),
            min_size=2, max_size=7,
        )
    )
    def test_two_schedule_set_with_a_reduction(self, shapes):
        """``i``-long and ``j``-long members run under different
        schedules of one set; the answer is the table's maximum."""
        problems = [
            {"a": english(m, salt=m), "b": english(n, salt=n + 1)}
            for m, n in shapes
        ]
        assert_values_are_runs(
            ENGINE, GAPLESS_FUNC, {}, problems, reduce="max"
        )
        usage = ENGINE.map_run(
            GAPLESS_FUNC, {}, problems, reduce="max"
        ).schedule_usage
        # The shorter axis carries the partitions (a tie may go
        # either way).
        assert sum(usage.values()) == len(shapes)
        assert usage.get((1, 0), 0) >= sum(m < n for m, n in shapes)
        assert usage.get((0, 1), 0) >= sum(n < m for m, n in shapes)

    @pytest.mark.parametrize("prob_mode", ["direct", "logspace"])
    @settings(max_examples=10, deadline=None)
    @given(lengths=st.lists(st.integers(0, 140), min_size=2, max_size=6))
    def test_forward_direct_and_logspace(self, prob_mode, lengths):
        problems = [
            {"x": protein(MODEL, n, salt=n)} for n in lengths
        ]
        assert_values_are_runs(
            FORWARD_ENGINES[prob_mode], FORWARD_FUNC, {"h": MODEL},
            problems,
        )

    def test_members_take_the_schedule_run_picks(self):
        func = check_function(
            parse_function(RECEDING.strip()), {"dna": DNA.chars}
        )
        problems = [
            {"s": Sequence(text(m, chars=DNA.chars), DNA),
             "t": Sequence(text(n, chars=DNA.chars), DNA)}
            for m, n in [(100, 9), (9, 100), (100, 9)]
        ]
        engine = Engine()
        runs = [engine.run(func, problem) for problem in problems]
        assert [run.schedule.coefficients for run in runs] == [
            (0, -1), (1, 0), (0, -1)
        ]
        prepared, _, usage, _ = engine.prepare_map(func, {}, problems)
        assert [compiled.schedule for _, _, compiled in prepared] == [
            run.schedule for run in runs
        ]
        assert usage == {(0, -1): 2, (1, 0): 1}
        result = engine.map_run(func, {}, problems)
        assert result.schedule_usage == usage
        assert result.values == [run.value for run in runs]

    def test_explicit_coordinates_outside_a_member_still_raise(self):
        """``at=`` beyond a short member's own table is an error, as
        it is for ``Engine.run`` — never a read of the padding."""
        with pytest.raises(IndexError):
            Engine(backend="vector").map_run(
                EDIT_FUNC, EDIT_BASE, edit_problems([100, 120]),
                at={"i": 110},
            )
        inside = Engine(backend="vector").map_run(
            EDIT_FUNC, EDIT_BASE, edit_problems([100, 120]),
            at={"i": 90, "j": 10},
        )
        assert inside.lane_batches == 1
        assert inside.values == [
            Engine().run(
                EDIT_FUNC, {**EDIT_BASE, **problem},
                at={"i": 90, "j": 10},
            ).value
            for problem in edit_problems([100, 120])
        ]


# -- (d) no verdict skipped ---


def spy_on_verifier(monkeypatch):
    seen = []

    def spied(func, schedule, domain):
        seen.append((schedule.coefficients, domain.extents))
        return verify_schedule(func, schedule, domain)

    monkeypatch.setattr(
        "repro.verify.soundness.verify_schedule", spied
    )
    return seen


class TestNoVerdictSkipped:
    def test_every_distinct_verdict_key_is_proved(self, monkeypatch):
        """Boxes inside the brute-force leg are proved one by one;
        the boxes beyond it share one extent-free proof."""
        seen = spy_on_verifier(monkeypatch)
        engine = Engine(backend="vector")
        engine.map_run(EDIT_FUNC, EDIT_BASE, edit_problems())
        small = sorted({n for n in EDIT_LENGTHS if n <= 63})
        first_large = next(n for n in EDIT_LENGTHS if n > 63)
        assert sorted(seen) == sorted(
            ((1, 1), (n + 1, 64)) for n in small + [first_large]
        )
        info = engine.cache_info()
        assert (info.verified, info.verify_failures) == (
            len(small) + 1, 0
        )
        golden = GOLDENS["edit-intra-run-batched"]
        assert info.verified == golden["verified"]

    def test_non_uniform_descents_are_proved_per_box(self, monkeypatch):
        seen = spy_on_verifier(monkeypatch)
        engine = Engine(backend="vector", prob_mode="logspace")
        lengths = (5, 12, 9, 12, 300)
        engine.map_run(
            FORWARD_FUNC, {"h": MODEL},
            [{"x": protein(MODEL, n)} for n in lengths],
        )
        assert sorted(box for _, box in seen) == sorted(
            (MODEL.n_states, n + 1) for n in set(lengths)
        )
        assert engine.cache_info().verified == len(set(lengths))

    def test_a_failed_verdict_raises_and_counts_once(self, monkeypatch):
        bad = Schedule(EDIT_FUNC.dim_names, (1, -1))
        monkeypatch.setattr(
            Engine, "schedule_for", lambda self, func, domain, *_: bad
        )
        engine = Engine(backend="vector")
        for _ in range(2):
            with pytest.raises(VerificationError, match="V-SCHED-DELTA"):
                engine.map_run(
                    EDIT_FUNC, EDIT_BASE, edit_problems([100, 120, 100])
                )
        info = engine.cache_info()
        assert (info.verified, info.verify_failures) == (0, 1)


# -- (e) a group on the scalar sweep ---


class TestScalarSweep:
    def test_member_contexts_appear_on_demand(self, monkeypatch):
        engine = Engine(backend="vector")
        prepared, _, _, _ = engine.prepare_map(
            EDIT_FUNC, EDIT_BASE, edit_problems()
        )
        compiled = prepared[0][2]
        compiled.batched = CrashOnce(compiled.batched)
        contexts = count_calls(monkeypatch, build_context)
        result = engine.map_run(EDIT_FUNC, EDIT_BASE, edit_problems())
        assert result.batched_backends == ["scalar-batched"]
        assert engine.native_demotions == 1
        # The group's shared context, then one per member for the
        # sweep that needs them.
        assert len(contexts) == 1 + len(EDIT_LENGTHS)
        assert result.values == [
            Engine(backend="scalar").run(
                EDIT_FUNC, {**EDIT_BASE, **problem}
            ).value
            for problem in edit_problems()
        ]
