"""Static parallel-safety analyzer tests (races.py).

Covers the three proof obligations (space partition, batched problem
loop, block order), the mutations that turn a proved-safe kernel
racy, and the end-to-end gate: ``emit_native_source`` must
refuse a pragma on any axis whose obligation the analyzer could not
discharge.
"""

import dataclasses
import glob
import os
import subprocess
import tempfile

import pytest

from repro.ir import cbackend
from repro.ir.kernel import build_kernel
from repro.lang.parser import parse_function
from repro.lang.typecheck import check_function
from repro.runtime import native
from repro.schedule.schedule import Schedule
from repro.verify.races import (
    analyze_parallelism,
    parallelism_certificate,
)

EN = {"en": "abcdefghijklmnopqrstuvwxyz"}

EDIT = """
int d(seq[en] s, index[s] i, seq[en] t, index[t] j) =
  if i == 0 then j
  else if j == 0 then i
  else if s[i-1] == t[j-1] then d(i-1, j-1)
  else (d(i-1, j) min d(i, j-1) min d(i-1, j-1)) + 1
"""

have_cc = native.available().ok
needs_cc = pytest.mark.skipif(
    not have_cc, reason="no working C compiler in this environment"
)


ANTI = """
int f(seq[en] s, index[s] i, seq[en] t, index[t] j) =
  if i == 0 then j
  else if j == 0 then i
  else if j > 7 then f(i-1, j) + 1
  else (f(i-1, j) min f(i, j-1) min f(i-1, j+1)) + 1
"""


def kernel_for(text, coeffs, alphabets=EN):
    func = check_function(parse_function(text.strip()), alphabets)
    return build_kernel(
        func, Schedule(func.dim_names, coeffs),
        prob_mode="direct", compute_window=True,
    )


def edit_kernel(coeffs=(1, 1)):
    return kernel_for(EDIT, coeffs)


class TestConfirmed:
    def test_edit_distance_all_axes_confirmed(self):
        cert = parallelism_certificate(edit_kernel())
        assert cert.ok
        assert cert.space.status == "confirmed"
        assert cert.batch.status == "confirmed"
        assert cert.tile.status == "confirmed"
        assert cert.space.exact  # proved, not LP-bounded
        assert [a.axis for a in cert.axes] == ["space", "batch", "tile"]
        # a kernel the block order refuses is still race-free under
        # the partition sweep
        forward = parallelism_certificate(kernel_for(ANTI, (2, 1)))
        assert forward.ok
        assert forward.space.status == "confirmed"
        assert forward.tile.status == "refused"

    def test_certificate_is_memoised_per_extents(self):
        kernel = edit_kernel()
        assert parallelism_certificate(kernel) is (
            parallelism_certificate(kernel)
        )
        other = parallelism_certificate(kernel, (5, 7))
        assert other is not parallelism_certificate(kernel)
        assert other is parallelism_certificate(kernel, (5, 7))

    def test_clean_certificate_reports_single_info(self):
        cert = parallelism_certificate(edit_kernel())
        findings = cert.diagnostics()
        assert [d.rule for d in findings] == ["R-PAR-CERT"]
        assert findings[0].severity == "info"

    def test_to_dict_shape(self):
        record = parallelism_certificate(edit_kernel()).to_dict()
        assert record["ok"] is True
        assert set(record) == {
            "function", "schedule", "ok", "space", "batched", "tile",
        }
        assert record["space"]["status"] == "confirmed"
        assert record["tile"]["status"] == "confirmed"


class TestPaperApps:
    """Acceptance: every example app's kernel earns a clean
    certificate on its parallelised axes."""

    @pytest.mark.parametrize(
        "path", sorted(glob.glob("examples/scripts/*.dsl"))
    )
    def test_app_axes_confirmed(self, path):
        import repro
        from repro.verify.lint import _nominal_domain

        checked = repro.check_program(
            repro.parse_program(open(path).read())
        )
        assert checked.functions
        for name, func in checked.functions.items():
            domain = _nominal_domain(func, 12)
            schedule = repro.find_schedule(func, domain)
            assert schedule is not None, name
            kernel = build_kernel(
                func, schedule, prob_mode="direct", compute_window=True,
            )
            cert = parallelism_certificate(kernel)
            assert cert.ok, f"{path}:{name}: {cert.summary}"
            assert cert.space.status == "confirmed"


class TestRegressionCorpus:
    """Every corpus kernel's parallelised axes stay CONFIRMED."""

    @pytest.mark.parametrize(
        "path", sorted(glob.glob("tests/corpus/*.dsl"))
    )
    def test_corpus_axes_confirmed(self, path):
        import repro
        from repro.lang.errors import DslError
        from repro.verify.lint import _nominal_domain

        checked = repro.check_program(
            repro.parse_program(open(path).read())
        )
        for name, func in checked.functions.items():
            try:
                domain = _nominal_domain(func, 12)
                schedule = repro.find_schedule(func, domain)
            except DslError:
                continue  # mutual group / no solver model: no pragma
            if schedule is None:
                continue
            kernel = build_kernel(
                func, schedule, prob_mode="direct", compute_window=True,
            )
            cert = parallelism_certificate(kernel)
            assert cert.ok, f"{path}:{name}: {cert.summary}"
            assert cert.space.status == "confirmed"


class TestMutations:
    """Each knob breaks exactly one obligation and names its rule."""

    def test_same_partition_collision_refused(self):
        # S = i puts (i, j) and (i, j') in one partition while the
        # body reads d(i, j-1): an intra-partition read of a cell
        # another thread may be writing.
        cert = parallelism_certificate(edit_kernel((1, 0)))
        assert not cert.ok
        assert cert.space.status == "refused"
        assert cert.space.rule == "R-SPACE-RW"
        assert cert.space.witness  # a concrete racing point
        assert "R-SPACE-RW" in [
            d.rule for d in cert.diagnostics()
        ]
        assert all(
            d.severity == "warning" for d in cert.diagnostics()
        )

    def test_overlapping_pad_extents_refused(self):
        cert = analyze_parallelism(
            edit_kernel(), pad_extents=(5, 13)
        )
        assert cert.batch.status == "refused"
        assert cert.batch.rule == "R-BATCH-OVERLAP"
        assert cert.batch.witness == {"i": 5}


class TestTileOrder:
    """``R-TILE-ORDER``: the blocked wavefront's licence is a sign
    check on every own-table read — extent-free, LP-free."""

    FORWARD = """
prob forward(hmm h, state[h] s, seq[*] x, index[x] i) =
  if i == 0 then (if s.isstart then 1.0 else 0.0)
  else (if s.isend then 1.0 else s.emission[x[i-1]])
    * sum(t in s.transitionsto : t.prob * forward(t.start, i - 1))
"""
    NUSSINOV = """
int n(seq[en] x, index[x] i, index[x] j) =
  if j < i + 2 then 0
  else (n(i + 1, j) max n(i, j - 1)) + 1
"""
    RANGED = """
int f(seq[en] s, index[s] i, seq[en] t, index[t] j) =
  if j == 0 then 0
  else max(k in 0 .. j - 1 : f(i, k)) + 1
"""
    LATE_ARM = """
int f(seq[en] s, index[s] i, seq[en] t, index[t] j) =
  if i < 1 then j
  else if i < 50 then f(i - 1, j) + 1
  else if j > 90 then f(i - 1, j) + 2
  else f(i - 1, j + 1) + 1
"""

    def refused(self, kernel):
        tile = parallelism_certificate(kernel).tile
        assert tile.status == "refused"
        assert tile.rule == "R-TILE-ORDER"
        assert tile.witness
        return tile

    def test_backward_only_kernels_confirmed(self):
        from repro.apps.smith_waterman import smith_waterman_function

        sw = build_kernel(
            smith_waterman_function(), Schedule(("i", "j"), (1, 1))
        )
        for kernel in (sw, edit_kernel(), edit_kernel((2, 1))):
            cert = parallelism_certificate(kernel)
            assert cert.tile.confirmed
            assert cert.tile.rule is None
            assert "tile=confirmed" in cert.summary

    def test_free_state_component_refused(self):
        tile = self.refused(kernel_for(self.FORWARD, (0, 1), {}))
        assert tile.witness == {"read": 0, "dim": 0}
        assert "forward(h.start(t), (i - 1))" in tile.detail

    def test_forward_looking_reads_refused(self):
        tile = self.refused(kernel_for(self.NUSSINOV, (-1, 1)))
        assert tile.witness == {"read": 0, "dim": 0, "offset": 1}
        assert "n((i + 1), j)" in tile.detail
        tile = self.refused(kernel_for(ANTI, (2, 1)))
        assert tile.witness == {"read": 3, "dim": 1, "offset": 1}

    def test_ranged_read_refused(self):
        tile = self.refused(kernel_for(self.RANGED, (0, 1)))
        assert tile.witness == {"read": 0, "dim": 1}
        assert "f(i, k)" in tile.detail

    def test_read_not_earlier_in_schedule_order_refused(self):
        # S = i: d(i, j-1) is backward in j but in the reader's own
        # partition; inside a block it would not be computed first.
        tile = self.refused(edit_kernel((1, 0)))
        assert tile.witness == {"read": 2, "delta": 0}

    def test_non_identity_store_refused(self):
        from repro.polyhedral import loopast

        kernel = edit_kernel()
        (time_loop,) = kernel.nest.roots
        (space_loop,) = time_loop.body
        (assign,) = space_loop.body
        unpinned = dataclasses.replace(
            kernel.nest,
            roots=(
                dataclasses.replace(
                    time_loop,
                    body=(
                        dataclasses.replace(
                            space_loop, body=assign.body
                        ),
                    ),
                ),
            ),
        )
        assert isinstance(assign, loopast.Assign)
        tile = self.refused(dataclasses.replace(kernel, nest=unpinned))
        assert "store map" in tile.detail

    def test_verdict_does_not_depend_on_the_analysis_box(self):
        """The footprint collector drops arms that are dead on the
        box it analyses — at the nominal 13x13 the forward-looking
        arm (``i >= 50``) is unreachable, so the space proof never
        sees it. The tile axis reads the IR itself and must refuse
        at every box, or a 100x100 run would block a kernel whose
        callee can sit on a later block diagonal."""
        kernel = kernel_for(self.LATE_ARM, (1, 0))
        for extents in (None, (13, 13), (100, 100)):
            cert = parallelism_certificate(kernel, extents)
            assert cert.tile.status == "refused"
            assert cert.tile.witness == {
                "read": 2, "dim": 1, "offset": 1,
            }

    def test_not_applicable_off_the_2d_partition_nest(self):
        one_d = """
int f(seq[en] s, index[s] i) =
  if i == 0 then 0 else f(i - 1) + 1
"""
        cert = parallelism_certificate(kernel_for(one_d, (1,)))
        assert cert.tile.status == "not-applicable"
        assert "tile=not-applicable" in cert.summary

    def test_refusal_is_not_a_finding(self):
        """A refused licence selects the partition sweep; it is not a
        hazard, so the certificate stays ``ok`` and lint stays quiet."""
        cert = parallelism_certificate(
            kernel_for(self.FORWARD, (0, 1), {})
        )
        assert cert.ok
        assert [d.rule for d in cert.diagnostics()] == ["R-PAR-CERT"]
        assert "tile=refused[R-TILE-ORDER]" in cert.summary

    def test_rule_is_registered(self):
        from repro.verify.diagnostics import RULES

        assert RULES["R-TILE-ORDER"][0] == "info"


class TestPragmaGating:
    def test_confirmed_certificate_admits_pragmas(self):
        src = cbackend.emit_native_source(edit_kernel(), openmp=True)
        assert src.count("#pragma omp") == 3
        assert "/* parallel-safety: space=confirmed" in src

    def test_serial_emission_is_unannotated(self):
        # openmp=False must stay byte-stable: no certificate is
        # computed, no comment or pragma appears.
        src = cbackend.emit_native_source(edit_kernel(), openmp=False)
        assert "#pragma omp" not in src
        assert "parallel-safety" not in src

    def test_refused_space_axis_strips_space_pragmas(self):
        racy = edit_kernel((1, 0))
        src = cbackend.emit_native_source(racy, openmp=True)
        # only the (still-confirmed) batched problem loop keeps its
        # pragma; both space loops degrade to serial
        assert src.count("#pragma omp") == 1
        assert "refused[R-SPACE-RW]" in src

    @needs_cc
    def test_racy_kernel_still_builds_and_runs(self):
        # The gate degrades, never rejects: a racy schedule compiles
        # to a correct serial-space TU.
        racy = edit_kernel((1, 0))
        src = cbackend.emit_native_source(racy, openmp=True)
        with tempfile.TemporaryDirectory() as tmp:
            cpath = os.path.join(tmp, "racy.c")
            with open(cpath, "w") as f:
                f.write(src)
            out = os.path.join(tmp, "racy.so")
            subprocess.run(
                ["gcc", "-std=c99", "-O2", "-fPIC", "-shared",
                 "-fopenmp", "-o", out, cpath],
                check=True, capture_output=True,
            )


class TestWarningClean:
    """Emitted C compiles under ``-Wall -Wextra -Werror``."""

    @needs_cc
    @pytest.mark.parametrize(
        "path", sorted(glob.glob("examples/scripts/*.dsl"))
    )
    @pytest.mark.parametrize("openmp", [False, True])
    def test_app_translation_units_warning_free(self, path, openmp):
        import repro
        from repro.verify.lint import _nominal_domain

        checked = repro.check_program(
            repro.parse_program(open(path).read())
        )
        for name, func in checked.functions.items():
            domain = _nominal_domain(func, 12)
            schedule = repro.find_schedule(func, domain)
            kernel = build_kernel(
                func, schedule, prob_mode="direct", compute_window=True,
            )
            src = cbackend.emit_native_source(kernel, openmp=openmp)
            with tempfile.TemporaryDirectory() as tmp:
                cpath = os.path.join(tmp, "tu.c")
                with open(cpath, "w") as f:
                    f.write(src)
                cmd = [
                    "gcc", "-std=c99", "-O2", "-fPIC", "-shared",
                    "-Wall", "-Wextra", "-Werror",
                    "-o", os.devnull, cpath,
                ]
                if openmp:
                    cmd.insert(1, "-fopenmp")
                result = subprocess.run(
                    cmd, capture_output=True, text=True
                )
                assert result.returncode == 0, (
                    f"{path}:{name}\n{result.stderr}"
                )
