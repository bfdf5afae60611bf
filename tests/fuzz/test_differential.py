"""Differential harness: classification semantics."""

import random

import pytest

from repro.fuzz.differential import (
    ALL_CLASSES,
    FAILURE_CLASSES,
    DifferentialHarness,
    LegResult,
    values_agree,
)
from repro.fuzz.generator import generate_case
from repro.fuzz.grammar import FuzzCase
from repro.lang.errors import VerificationError
from repro.runtime import native


@pytest.fixture(scope="module")
def harness():
    return DifferentialHarness()


def case_from_text(text, function="f", args=None, **kwargs):
    return FuzzCase(
        spec=None, text=text, function=function,
        args=args or {}, **kwargs,
    )


OOB_READ = """
alphabet al = "ab"

int f(seq[al] s, index[s] i) =
  if i < 1 then 0
  else f(i - 1) + (if s[i] == 'a' then 1 else 0)
"""


class TestTaxonomy:
    def test_failure_classes_are_classes(self):
        assert set(FAILURE_CLASSES) < set(ALL_CLASSES)
        assert "parity-ok" in ALL_CLASSES
        assert "rejected" in ALL_CLASSES

    def test_generated_cases_are_parity_ok(self, harness):
        rng = random.Random(42)
        for _ in range(12):
            outcome = harness.classify(generate_case(rng))
            assert outcome.classification == "parity-ok", (
                outcome.detail, outcome.case.text,
            )
            assert not outcome.failed

    def test_frontend_rejection_is_crash(self, harness):
        outcome = harness.classify(
            case_from_text("int f(int n) = undefined_name + 1\n")
        )
        assert outcome.classification == "crash"
        assert "frontend" in outcome.detail

    def test_consistent_static_dynamic_rejection(self, harness):
        """An out-of-bounds read that both the lint and the runtime
        refuse is a 'rejected', not a finding."""
        outcome = harness.classify(
            case_from_text(OOB_READ, args={"s": "ab", "i": 2})
        )
        assert outcome.classification == "rejected"
        assert outcome.lint_errors
        assert not outcome.failed


class TestEligibilityMismatch:
    class FakeVerdict:
        def __init__(self, ok, rule="some-rule", detail="why"):
            self.ok = ok
            self.rule = rule
            self.detail = detail

    def test_ok_verdict_but_refused(self):
        leg = LegResult("vector", "refused", error="nope")
        detail = DifferentialHarness._eligibility_mismatch(
            "vector", leg, self.FakeVerdict(True)
        )
        assert "refused" in detail

    def test_ineligible_but_ran(self):
        leg = LegResult("vector", "ok")
        detail = DifferentialHarness._eligibility_mismatch(
            "vector", leg, self.FakeVerdict(False)
        )
        assert "ran anyway" in detail

    def test_refusal_must_name_the_rule(self):
        leg = LegResult(
            "vector", "refused", error="not eligible [other]: x"
        )
        detail = DifferentialHarness._eligibility_mismatch(
            "vector", leg, self.FakeVerdict(False, rule="some-rule")
        )
        assert "[some-rule]" in detail

    def test_consistent_refusal_is_clean(self):
        leg = LegResult(
            "vector", "refused",
            error="not eligible [some-rule]: because",
        )
        detail = DifferentialHarness._eligibility_mismatch(
            "vector", leg, self.FakeVerdict(False)
        )
        assert detail == ""

    def test_consistent_run_is_clean(self):
        leg = LegResult("vector", "ok")
        detail = DifferentialHarness._eligibility_mismatch(
            "vector", leg, self.FakeVerdict(True)
        )
        assert detail == ""


class TestValueAgreement:
    def test_ints_exact(self):
        assert values_agree(3, 3)
        assert not values_agree(3, 4)

    def test_floats_tolerant(self):
        assert values_agree(1.0, 1.0 + 1e-12)
        assert not values_agree(1.0, 1.001)

    def test_none_only_agrees_with_none(self):
        assert values_agree(None, None)
        assert not values_agree(None, 1)

    def test_zero(self):
        assert values_agree(0.0, 0.0)
        assert not values_agree(0.0, 1e-3)


class TestServiceAdmission:
    def test_admission_rejects_what_the_fuzzer_rejects(self):
        """The service's lint gate refuses the same out-of-bounds
        shape the harness classifies as 'rejected' — a fuzzer-found
        admission case pinned at the service layer."""
        from repro.service.programs import ServiceProgram

        with pytest.raises(VerificationError):
            ServiceProgram(OOB_READ)

    def test_harness_binds_through_the_service_path(self, harness):
        case = generate_case(7)
        outcome = harness.classify(case)
        assert outcome.classification == "parity-ok"
        assert "scalar" in outcome.legs
        assert outcome.legs["scalar"].status == "ok"


EDIT_CASE = """
alphabet en = "abcdefghijklmnopqrstuvwxyz"

int d(seq[en] s, index[s] i, seq[en] t, index[t] j) =
  if i == 0 then j
  else if j == 0 then i
  else if s[i-1] == t[j-1] then d(i-1, j-1)
  else (d(i-1, j) min d(i, j-1) min d(i-1, j-1)) + 1
"""

EDIT_ARGS = {"s": "kitten", "i": 6, "t": "sitting", "j": 7}


class TestTiledLeg:
    """Blocked kernels are rebuilt with a tiny tile so fuzz-scale
    tables cross block edges."""

    needs_cc = pytest.mark.skipif(
        not native.available().ok,
        reason="no working C compiler in this environment",
    )

    @needs_cc
    def test_backward_only_kernel_gets_the_leg(self, harness):
        outcome = harness.classify(
            case_from_text(EDIT_CASE, function="d", args=EDIT_ARGS)
        )
        assert outcome.classification == "parity-ok", outcome.detail
        leg = outcome.legs["native-tiled"]
        assert leg.status == "ok"
        assert leg.table.tobytes() == (
            outcome.legs["scalar"].table.tobytes()
        )

    @needs_cc
    def test_tile_is_a_function_of_the_case_text(self, harness, monkeypatch):
        """Same case, same tiny tile (campaign reports must repeat);
        every edge within 1-4 cells, so an 8x7 table is several block
        diagonals."""
        from repro.ir import cbackend

        tiles = []
        real = cbackend.emit_native_source

        def spy(kernel, openmp=False, tile=None):
            if tile is not None:
                tiles.append(tile)
            return real(kernel, openmp, tile)

        monkeypatch.setattr(cbackend, "emit_native_source", spy)
        case = case_from_text(EDIT_CASE, function="d", args=EDIT_ARGS)
        for _ in range(2):
            assert harness.classify(case).classification == "parity-ok"
        assert len(tiles) == 2 and tiles[0] == tiles[1]
        assert all(1 <= edge <= 4 for edge in tiles[0])

    @needs_cc
    def test_kernel_without_blocks_has_no_leg(self, harness):
        rng = random.Random(42)
        seen = set()
        for _ in range(12):
            outcome = harness.classify(generate_case(rng))
            assert outcome.classification == "parity-ok"
            seen.add(
                (outcome.case.shape, "native-tiled" in outcome.legs)
            )
        assert ("seq2d", True) in seen
        assert ("seq2d", False) not in seen
        assert {tiled for shape, tiled in seen if shape == "hmm"} <= {
            False
        }
