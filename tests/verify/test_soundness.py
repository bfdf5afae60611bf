"""Independent schedule-soundness verification (positive + mutated)."""

import pytest

from repro.analysis.domain import Domain
from repro.schedule.schedule import Schedule
from repro.schedule.solver import find_schedule
from repro.verify import verify_schedule
from repro.verify.soundness import verify_call_site
from repro.analysis.descent import extract_descents


def five_apps():
    """(name, func, domain) for the paper's single-function apps."""
    from repro.apps.hmm_algorithms import (
        backward_function,
        forward_function,
        viterbi_function,
    )
    from repro.apps.rna_folding import nussinov_function
    from repro.apps.smith_waterman import smith_waterman_function

    fwd = forward_function()
    vit = viterbi_function()
    bwd = backward_function()
    nus = nussinov_function()
    sw = smith_waterman_function()
    return [
        ("forward", fwd, Domain(fwd.dim_names, (4, 13))),
        ("viterbi", vit, Domain(vit.dim_names, (4, 13))),
        ("backward", bwd, Domain(bwd.dim_names, (4, 13, 13))),
        ("nussinov", nus, Domain(nus.dim_names, (13, 13))),
        ("smith_waterman", sw, Domain(sw.dim_names, (13, 13))),
    ]


class TestSolverSchedulesVerify:
    """Property: what the solver derives, the verifier confirms."""

    @pytest.mark.parametrize(
        "name,func,domain",
        five_apps(),
        ids=[n for n, _, _ in five_apps()],
    )
    def test_app_schedule_verifies(self, name, func, domain):
        schedule = find_schedule(func, domain)
        certificate, diagnostics = verify_schedule(
            func, schedule, domain
        )
        assert certificate.ok, certificate.summary
        assert certificate.partitions >= 1
        rules = [d.rule for d in diagnostics]
        assert rules == ["V-SCHED-CERT"]
        assert "schedule verified" in certificate.summary

    @pytest.mark.parametrize(
        "name,func,domain",
        five_apps(),
        ids=[n for n, _, _ in five_apps()],
    )
    def test_partition_count_matches_schedule(self, name, func, domain):
        schedule = find_schedule(func, domain)
        certificate, _ = verify_schedule(func, schedule, domain)
        assert certificate.partitions == schedule.num_partitions(domain)


class TestMutatedSchedulesFail:
    """Property: negating any non-zero coefficient breaks validity."""

    @pytest.mark.parametrize(
        "name,func,domain",
        five_apps(),
        ids=[n for n, _, _ in five_apps()],
    )
    def test_each_mutation_is_rejected(self, name, func, domain):
        schedule = find_schedule(func, domain)
        mutated_any = False
        for k, coeff in enumerate(schedule.coefficients):
            if coeff == 0:
                continue
            mutated_any = True
            coeffs = list(schedule.coefficients)
            coeffs[k] = -coeff
            mutant = Schedule(schedule.dims, tuple(coeffs))
            certificate, diagnostics = verify_schedule(
                func, mutant, domain
            )
            assert not certificate.ok, (
                f"{name}: mutated {mutant} wrongly verified"
            )
            assert any(
                d.rule == "V-SCHED-DELTA" and d.severity == "error"
                for d in diagnostics
            )
        assert mutated_any

    def test_zero_schedule_is_rejected(self):
        from repro.apps.smith_waterman import smith_waterman_function

        func = smith_waterman_function()
        domain = Domain(func.dim_names, (8, 8))
        zero = Schedule(func.dim_names, (0, 0))
        certificate, _ = verify_schedule(func, zero, domain)
        assert not certificate.ok


class TestCallSiteDetails:
    def test_forward_free_descent_worst_case(self):
        """forward(t.start, i-1): the state dim is free; with S = i
        the free dimension contributes nothing and delta is 1."""
        from repro.apps.hmm_algorithms import forward_function

        func = forward_function()
        domain = Domain(func.dim_names, (4, 13))
        schedule = Schedule(func.dim_names, (0, 1))
        for descent in extract_descents(func):
            verdict = verify_call_site(descent, schedule, domain)
            assert verdict.ok
            assert verdict.min_delta == 1

    def test_free_descent_penalty_can_break_schedule(self):
        """With S = s + i the free state coordinate can jump anywhere,
        sinking the delta below 1 — the Section 5.2 worst case."""
        from repro.apps.hmm_algorithms import forward_function

        func = forward_function()
        domain = Domain(func.dim_names, (4, 13))
        schedule = Schedule(func.dim_names, (1, 1))
        verdicts = [
            verify_call_site(d, schedule, domain)
            for d in extract_descents(func)
        ]
        assert any(not v.ok for v in verdicts)

    def test_ranged_descent_uses_binder_bounds(self):
        """nussinov's split term nuss(i, k), k in i+1..j-1: S = -i + j
        gives delta j - k >= 1 exactly at k = j - 1."""
        from repro.apps.rna_folding import nussinov_function

        func = nussinov_function()
        domain = Domain(func.dim_names, (13, 13))
        schedule = Schedule(func.dim_names, (-1, 1))
        verdicts = [
            verify_call_site(d, schedule, domain)
            for d in extract_descents(func)
        ]
        assert all(v.ok for v in verdicts)
        assert any(v.min_delta == 1 for v in verdicts)

    def test_vacuous_binder_range_passes(self):
        """A reduction whose range is empty over the whole box has no
        dependence to order (min_delta is None, site ok)."""
        from repro.lang.parser import parse_function
        from repro.lang.typecheck import check_function

        src = """
int g(seq[en] s, index[s] i) =
  if i == 0 then 0
  else max(k in i + 20 .. i + 10 : g(k)) min g(i - 1)
"""
        func = check_function(
            parse_function(src.strip()),
            {"en": "abcdefghijklmnopqrstuvwxyz"},
        )
        domain = Domain(func.dim_names, (8,))
        schedule = Schedule(func.dim_names, (1,))
        verdicts = [
            verify_call_site(d, schedule, domain)
            for d in extract_descents(func)
        ]
        vacuous = [v for v in verdicts if v.min_delta is None]
        assert vacuous and all(v.ok for v in vacuous)


class TestBruteForceCrossCheck:
    def test_small_domain_gets_concrete_proof(self):
        """On tiny domains the verifier walks every edge; a schedule
        that happens to satisfy the algebra but not the edges would be
        caught (here both agree, so it just verifies)."""
        from repro.apps.smith_waterman import smith_waterman_function

        func = smith_waterman_function()
        domain = Domain(func.dim_names, (5, 5))
        schedule = Schedule(func.dim_names, (1, 1))
        certificate, _ = verify_schedule(
            func, schedule, domain, brute_force_cap=100
        )
        assert certificate.ok

    def test_uniform_descent_schedule_cross_validates(self):
        """verify_schedule and the edge-enumerating oracle agree on a
        grid of candidate schedules (the property-style cross-check)."""
        from repro.apps.smith_waterman import smith_waterman_function
        from tests.group_of_one import edges_valid

        func = smith_waterman_function()
        domain = Domain(func.dim_names, (5, 5))
        for a in (-2, -1, 0, 1, 2):
            for b in (-2, -1, 0, 1, 2):
                schedule = Schedule(func.dim_names, (a, b))
                certificate, _ = verify_schedule(
                    func, schedule, domain
                )
                assert certificate.ok == edges_valid(
                    schedule, func, domain
                ), f"disagreement at {schedule}"
