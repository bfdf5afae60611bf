"""``Engine.map_run``'s host path costs per group, not per member.

A map member pays for its own bindings, extents and schedule pick;
the rung, the packed context and each verification verdict are paid
once per group (or per distinct verdict key), and the simulated
device's accounting is priced when it is first read. These tests pin
the counts, pin the priced numbers to goldens recorded at the parent
commit (``map_pricing_goldens.json``, written by running
:func:`golden_records` against that tree), and pin the values to
``Engine.run``'s.
"""

import dataclasses
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.profile_hmm import tk_model
from repro.gpu.device import SimulatedDevice
from repro.gpu.timing import (
    batched_launch_cost,
    kernel_cost,
    problems_per_sm,
)
from repro.lang.errors import VerificationError
from repro.lang.parser import parse_function
from repro.lang.typecheck import check_function
from repro.runtime import native
from repro.runtime.context import build_context
from repro.runtime.engine import Engine
from repro.runtime.parity import FLOAT_RTOL
from repro.runtime.values import ENGLISH, Sequence
from repro.schedule.multi import ScheduleSet
from repro.schedule.schedule import Schedule
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
#: compile-time schedule set holds two schedules (``S = i`` and
#: ``S = j``) and a member's shape picks between them.
GAPLESS = """
int g(seq[en] a, index[a] i, seq[en] b, index[b] j) =
  if i == 0 then 0
  else if j == 0 then 0
  else 0 max (g(i-1, j-1) + (if a[i-1] == b[j-1] then 2 else 0 - 1))
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

    def test_pricing_runs_once_on_first_read(self, monkeypatch):
        engine = Engine(backend="vector")
        result = engine.map_run(checked(EDIT), EDIT_BASE, edit_problems())
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
        assert len(launches) == 1
        assert len(priced) == len(EDIT_LENGTHS)


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
        "parallelism": result.parallelism,
        "lane_batches": result.lane_batches,
        "lane_batched_problems": result.lane_batched_problems,
        "batched_backends": list(result.batched_backends),
        "verified": engine.cache_info().verified,
        "verify_failures": engine.cache_info().verify_failures,
    }))


def golden_cases():
    """``name -> thunk`` returning ``(engine, MapResult)`` from a cold
    engine. Rungs are forced to the toolchain-independent ones so the
    records are the same on every machine."""
    cases = {}
    model = tk_model(seed=3)
    forward_problems = [
        {"x": protein(model, n, salt=n)} for n in (5, 12, 9, 12, 30)
    ]
    for parallelism in ("intra", "inter", "hybrid"):
        for execute in (True, False):
            for batching in (True, False):
                def edit(p=parallelism, e=execute, b=batching):
                    engine = Engine(backend="vector", batching=b)
                    return engine, engine.map_run(
                        checked(EDIT), EDIT_BASE, edit_problems(),
                        parallelism=p, execute=e,
                    )

                def forward(p=parallelism, e=execute, b=batching):
                    engine = Engine(
                        backend="vector", prob_mode="logspace",
                        batching=b,
                    )
                    return engine, engine.map_run(
                        checked(FORWARD), {"h": model},
                        forward_problems, parallelism=p, execute=e,
                        hybrid_threshold=22 * 11, use_window=False,
                    )

                tag = (
                    f"{parallelism}-"
                    f"{'run' if execute else 'price'}-"
                    f"{'batched' if batching else 'unbatched'}"
                )
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
        assert result.report == engine.device.launch(problem_costs)
        assert result.seconds == result.report.total_seconds

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
        compiled.batched_native_run = CrashOnce(
            compiled.ensure_batched_native()
        )
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
            GAPLESS_FUNC, {}, problems, execute=False
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

    def test_full_mode_still_runs_per_box(self, monkeypatch):
        from repro.verify import analyze_access

        analysed = count_calls(monkeypatch, analyze_access)
        engine = Engine(backend="vector", verify="full")
        engine.map_run(EDIT_FUNC, EDIT_BASE, edit_problems())
        boxes = {(n + 1, 64) for n in EDIT_LENGTHS}
        assert sorted(args[1].extents for args in analysed) == sorted(
            boxes
        )
        assert engine.cache_info().verified == len(boxes)

    def test_a_failed_verdict_raises_and_counts_once(self, monkeypatch):
        bad = ScheduleSet(
            EDIT_FUNC.dim_names,
            (Schedule(EDIT_FUNC.dim_names, (1, -1)),),
        )
        monkeypatch.setattr(
            "repro.runtime.engine.derive_schedule_set",
            lambda func, bound: bad,
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


#: One-dimensional, so the NumPy rungs refuse it: below native there
#: is only the scalar sweep.
RUN_LENGTH = """
int r(seq[en] s, index[s] i) =
  if i == 0 then 0
  else if s[i-1] == 'a' then r(i-1) + 1 else 0
"""


class TestScalarSweep:
    def test_member_contexts_appear_on_demand(self, monkeypatch):
        engine = Engine(backend="vector")
        prepared, _, _, _ = engine.prepare_map(
            EDIT_FUNC, EDIT_BASE, edit_problems()
        )
        compiled = prepared[0][2]
        compiled.batched_run = CrashOnce(compiled.ensure_batched())
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

    @needs_cc
    def test_lost_native_entry_with_no_vector_rung(self):
        """A vector-ineligible native group whose batched entry cannot
        load steps straight down to the scalar sweep, inside the
        launch, with no fault counted."""
        func = checked(RUN_LENGTH)
        problems = [
            {"s": Sequence(word, ENGLISH)}
            for word in ("banana", "aaa", "", "abaa")
        ]
        engine = Engine(backend="native")
        clean = engine.map_run(func, {}, problems)
        assert clean.batched_backends == ["native-batched"]
        prepared, _, _, _ = engine.prepare_map(func, {}, problems)
        compiled = prepared[0][2]
        compiled.so_path = "/nonexistent/kernel.so"
        compiled.batched_native_run = None
        result = engine.map_run(func, {}, problems)
        assert result.batched_backends == ["scalar-batched"]
        assert engine.native_demotions == 0
        assert result.values == clean.values == [1, 3, 0, 2]
