"""Once-per-schedule verdicts, the whole-box brute-force leg, and what
a never-seen problem shape costs the engine.

A call site with a uniform descent and no range binder has the
constant delta ``-a . c``; the verifier proves it once per (function,
schedule) and the engine remembers one verdict for every box beyond
the brute-force cap. These tests hold that shortcut to the fresh
per-extents proof, and the vectorised brute-force leg to the
edge-at-a-time walk it replaced.
"""

import random
import sys

import pytest

from repro.analysis import extract_descents, function_plan
from repro.analysis.domain import Domain
from repro.apps.hmm_algorithms import backward_function, forward_function
from repro.apps.rna_folding import nussinov_function
from repro.apps.smith_waterman import smith_waterman_function
from repro.lang.errors import AnalysisError, VerificationError
from repro.runtime.engine import Engine
from repro.schedule.schedule import Schedule, _descent_targets
from repro.schedule.solver import find_schedule
from repro.verify import soundness
from repro.verify.exact import constrained_min
from repro.verify.soundness import (
    BRUTE_FORCE_CAP,
    verdict_is_extent_free,
    verify_call_site,
    verify_schedule,
)


def count_calls(monkeypatch, function):
    """Count calls to ``function`` through every ``repro`` module that
    holds it by name; returns the list the calls are appended to."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return function(*args, **kwargs)

    name = function.__name__
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("repro") and (
            getattr(module, name, None) is function
        ):
            monkeypatch.setattr(module, name, counted)
    return calls


def random_boxes(rank, count, seed, low=1, high=160):
    rng = random.Random(seed)
    return [
        tuple(rng.randint(low, high) for _ in range(rank))
        for _ in range(count)
    ]


class TestOncePerSchedule:
    @pytest.mark.parametrize("coefficients", [(1, 1), (2, 1), (1, 0), (0, 0)])
    def test_memoised_verdict_equals_a_fresh_proof(self, coefficients):
        """Valid or not, the remembered verdict is the one a fresh
        ``verify_call_site`` reaches on every box — small (brute-forced)
        and large."""
        func = smith_waterman_function()
        schedule = Schedule(func.dim_names, coefficients)
        verify_schedule(func, schedule, Domain(func.dim_names, (9, 4)))
        assert schedule in function_plan(func).site_verdicts
        for extents in random_boxes(2, 50, seed=7):
            domain = Domain(func.dim_names, extents)
            certificate, _ = verify_schedule(func, schedule, domain)
            fresh = tuple(
                verify_call_site(descent, schedule, domain)
                for descent in extract_descents(func)
            )
            assert certificate.call_sites[: len(fresh)] == fresh
            assert certificate.ok == all(v.ok for v in fresh)
            assert certificate.partitions == schedule.num_partitions(domain)
            assert dict(certificate.extents) == domain.extent_map()

    def test_uniform_sites_are_proved_once(self, monkeypatch):
        func = smith_waterman_function()
        calls = count_calls(monkeypatch, constrained_min)
        schedule = Schedule(func.dim_names, (1, 1))
        for extents in random_boxes(2, 10, seed=3, low=70):
            verify_schedule(func, schedule, Domain(func.dim_names, extents))
        assert len(calls) == len(function_plan(func).descents) == 3

    @pytest.mark.parametrize(
        "func", [forward_function(), nussinov_function()],
        ids=["forward-free", "nussinov-ranged"],
    )
    def test_free_and_ranged_sites_are_proved_per_box(
        self, func, monkeypatch
    ):
        """Their deltas depend on the extents: nothing is remembered
        for them and every box pays their proof again (Nussinov's
        three uniform sites, next to its two ranged ones, are still
        proved once)."""
        descents = function_plan(func).descents
        per_box = [d for d in descents if d.has_free or d.has_ranged]
        assert per_box
        for descent in descents:
            assert soundness._extent_free(descent) == (
                descent not in per_box
            )
        proofs = count_calls(monkeypatch, verify_call_site)
        boxes = [(80, 90), (90, 80), (75, 75)]
        schedules = set()
        for extents in boxes:
            domain = Domain(func.dim_names, extents)
            assert domain.size > BRUTE_FORCE_CAP
            assert not verdict_is_extent_free(func, domain)
            schedule = find_schedule(func, domain)
            schedules.add(schedule)
            certificate, _ = verify_schedule(func, schedule, domain)
            assert certificate.ok
            remembered = function_plan(func).site_verdicts[schedule]
            assert [v is None for v in remembered] == [
                d in per_box for d in descents
            ]
        for descent in descents:
            proved = [
                domain.extents for d, _, domain in proofs if d is descent
            ]
            if descent in per_box:
                assert proved == boxes
            else:
                assert len(proved) == len(schedules)

    def test_mixed_function_remembers_only_its_uniform_site(self):
        from repro.lang.parser import parse_function
        from repro.lang.typecheck import check_function

        func = check_function(
            parse_function(
                "int g(seq[en] s, index[s] i) = "
                "if i == 0 then 0 "
                "else max(k in 0 .. i - 1 : g(k)) min g(i - 1)"
            ),
            {"en": "abc"},
        )
        schedule = Schedule(func.dim_names, (1,))
        verify_schedule(func, schedule, Domain(func.dim_names, (8,)))
        remembered = function_plan(func).site_verdicts[schedule]
        assert [v is None for v in remembered] == [True, False]
        assert not verdict_is_extent_free(
            func, Domain(func.dim_names, (BRUTE_FORCE_CAP + 1,))
        )

    def test_small_boxes_are_never_extent_free(self):
        func = smith_waterman_function()
        assert not verdict_is_extent_free(
            func, Domain(func.dim_names, (64, 64))
        )
        assert verdict_is_extent_free(
            func, Domain(func.dim_names, (64, 65))
        )

    def test_site_memo_is_bounded(self):
        func = smith_waterman_function()
        domain = Domain(func.dim_names, (5, 5))
        for a in range(1, soundness.SITE_MEMO_CAP + 10):
            verify_schedule(func, Schedule(func.dim_names, (a, 1)), domain)
        memo = function_plan(func).site_verdicts
        assert len(memo) == soundness.SITE_MEMO_CAP
        assert Schedule(func.dim_names, (1, 1)) not in memo


class TestEngineMemo:
    def test_invalid_schedule_is_refused_on_every_extents(self):
        """``S = i`` leaves SW's ``(i, j-1)`` dependence unordered:
        the remembered verdict refuses it for every box, before and
        after the first proof."""
        func = smith_waterman_function()
        bad = Schedule(func.dim_names, (1, 0))
        engine = Engine()
        boxes = random_boxes(2, 30, seed=11, low=2)
        assert any(a * b > BRUTE_FORCE_CAP for a, b in boxes)
        assert any(a * b <= BRUTE_FORCE_CAP for a, b in boxes)
        for extents in boxes:
            with pytest.raises(VerificationError, match="V-SCHED-DELTA"):
                engine.verify_compiled(
                    func, bad, Domain(func.dim_names, extents)
                )
        assert engine.cache_info().verified == 0
        assert engine.cache_info().verify_failures >= 1

    def test_large_boxes_share_one_verdict_small_ones_do_not(self):
        func = smith_waterman_function()
        schedule = Schedule(func.dim_names, (1, 1))
        engine = Engine()
        for extents in [(70, 70), (80, 90), (200, 100)]:
            domain = Domain(func.dim_names, extents)
            certificate = engine.verify_compiled(func, schedule, domain)
            assert dict(certificate.extents) == domain.extent_map()
            assert certificate.partitions == sum(extents) - 1
        assert engine.cache_info().verified == 1
        for extents in [(5, 5), (5, 6), (5, 5)]:
            engine.verify_compiled(
                func, schedule, Domain(func.dim_names, extents)
            )
        assert engine.cache_info().verified == 3

    def test_memo_is_bounded_by_cache_capacity(self):
        func = forward_function()
        engine = Engine(cache_capacity=4)
        for n in range(5, 15):
            domain = Domain(func.dim_names, (3, n))
            engine.verify_compiled(
                func, engine.schedule_for(func, domain), domain
            )
        assert len(engine._memo) == 4
        assert engine.cache_info().verified == 10


class TestNewShapeCost:
    def test_fresh_extents_cost_no_walk_and_no_proof(self, monkeypatch):
        """After one warm-up run, 50 SW runs on never-seen extents
        re-read nothing from the AST and re-prove nothing: counts, not
        timings."""
        from repro.apps.smith_waterman import SmithWaterman
        from repro.runtime.values import Sequence

        app = SmithWaterman()
        rng = random.Random(5)

        def run(length_q, length_d):
            q, d = (
                Sequence(
                    "".join(rng.choice(app.alphabet.chars) for _ in range(n)),
                    app.alphabet,
                )
                for n in (length_q, length_d)
            )
            return app.align(q, d)

        run(64, 64)
        walks = count_calls(monkeypatch, extract_descents)
        proofs = count_calls(monkeypatch, constrained_min)
        shapes = {(64, 64)}
        while len(shapes) < 51:
            shape = (rng.randint(64, 120), rng.randint(64, 120))
            if shape in shapes:
                continue
            shapes.add(shape)
            result = run(*shape)
            assert result.schedule.coefficients == (1, 1)
        assert walks == []
        assert proofs == []
        assert app.engine.cache_info().verified == 1
        assert app.engine.cache_info().verify_failures == 0


def reference_edges(func, schedule, domain):
    """The edge-at-a-time walk the whole-box leg replaced, verbatim:
    kept here as the reference the rewrite must agree with."""
    extents = domain.extent_map()
    for descent in extract_descents(func):
        for point in domain.points():
            values = dict(zip(domain.dims, point))
            here = schedule.partition_of(point)
            for target in _descent_targets(descent, values, extents):
                if not domain.contains_tuple(target):
                    continue
                there = schedule.partition_of(target)
                if here <= there:
                    return (
                        f"cell {point} (partition {here}) depends on "
                        f"cell {tuple(target)} (partition {there})"
                    )
    return None


def mutations(schedule):
    """The schedule, each coefficient negated, zeroed and bumped, and
    the all-zero schedule: sound, racy and in between."""
    yield schedule
    for k, coeff in enumerate(schedule.coefficients):
        for value in (-coeff, 0, coeff + 1, coeff - 2):
            coeffs = list(schedule.coefficients)
            coeffs[k] = value
            yield Schedule(schedule.dims, tuple(coeffs))
    yield Schedule(schedule.dims, (0,) * len(schedule.dims))


def corpus_functions():
    from repro.fuzz.corpus import load_corpus
    from repro.lang.parser import parse_program
    from repro.lang.typecheck import check_program
    from repro.schedule.schedule import validate_user_schedule

    cases = []
    for entry in load_corpus():
        program = check_program(parse_program(entry.script))
        for name, func in sorted(program.functions.items()):
            try:
                function_plan(func)
            except AnalysisError:
                continue  # mutual groups: not this verifier's scope
            domain = Domain(func.dim_names, (6,) * len(func.dim_names))
            user = program.schedules.get(name)
            schedule = (
                validate_user_schedule(func, user, domain)
                if user is not None
                else find_schedule(func, domain)
            )
            cases.append(
                pytest.param(
                    func, schedule, domain, id=f"{entry.name}:{name}"
                )
            )
    return cases


def app_functions():
    cases = []
    for label, func, extents in [
        ("smith-waterman", smith_waterman_function(), (7, 5)),
        ("forward", forward_function(), (4, 9)),
        ("backward", backward_function(), (3, 6, 6)),
        ("nussinov", nussinov_function(), (8, 8)),
    ]:
        domain = Domain(func.dim_names, extents)
        cases.append(
            pytest.param(
                func, find_schedule(func, domain), domain, id=label
            )
        )
    return cases


class TestBruteForceRewrite:
    @pytest.mark.parametrize(
        "func,schedule,domain", corpus_functions() + app_functions()
    )
    def test_agrees_with_the_edge_walk(self, func, schedule, domain):
        """Same verdict and — when there is a violation — the same
        first edge, on the sound schedule and on every mutation."""
        assert soundness._brute_force_edges(func, schedule, domain) is None
        racy = 0
        for mutant in mutations(schedule):
            expected = reference_edges(func, mutant, domain)
            assert (
                soundness._brute_force_edges(func, mutant, domain)
                == expected
            ), str(mutant)
            racy += expected is not None
        assert racy

    def test_racy_schedule_names_the_first_edge(self):
        func = smith_waterman_function()
        domain = Domain(func.dim_names, (4, 4))
        racy = Schedule(func.dim_names, (1, 0))
        assert soundness._brute_force_edges(func, racy, domain) == (
            "cell (0, 1) (partition 0) depends on cell (0, 0) "
            "(partition 0)"
        )

    def test_leg_still_gates_the_certificate(self, monkeypatch):
        """If the algebra were fooled, the concrete leg alone must
        still refuse a racy schedule on a small box."""
        func = smith_waterman_function()
        domain = Domain(func.dim_names, (6, 6))
        racy = Schedule(func.dim_names, (1, 0))
        monkeypatch.setattr(
            soundness, "verify_call_site",
            lambda descent, schedule, domain: soundness.CallSiteVerdict(
                str(descent), 1.0, True, True
            ),
        )
        certificate, diagnostics = verify_schedule(func, racy, domain)
        assert not certificate.ok
        assert "concrete dependence edge" in diagnostics[-1].message
