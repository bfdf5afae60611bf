"""Tests for the native C99 emitter (the compiled backend's source)."""

import pytest

from repro.ir.cbackend import (
    batched_eligibility,
    emit_native_source,
    entry_symbol,
    native_batched_param_spec,
    native_eligibility,
    native_param_spec,
    value_ctype,
)
from repro.ir.kernel import build_kernel
from repro.lang.parser import parse_function
from repro.lang.typecheck import check_function
from repro.schedule.schedule import Schedule

EN = {"en": "abcdefghijklmnopqrstuvwxyz"}

EDIT_DISTANCE = """
int d(seq[en] s, index[s] i, seq[en] t, index[t] j) =
  if i == 0 then j
  else if j == 0 then i
  else if s[i-1] == t[j-1] then d(i-1, j-1)
  else (d(i-1, j) min d(i, j-1) min d(i-1, j-1)) + 1
"""

FORWARD = """
prob forward(hmm h, state[h] s, seq[*] x, index[x] i) =
  if i == 0 then (if s.isstart then 1.0 else 0.0)
  else (if s.isend then 1.0 else s.emission[x[i-1]])
    * sum(t in s.transitionsto : t.prob * forward(t.start, i - 1))
"""

# Uniform (constant window) kernels whose block order R-TILE-ORDER
# refuses — a read that looks *forward* in j — keep the partition
# sweep. (Backward-only kernels such as EDIT_DISTANCE are blocked
# wavefronts.)
ANTI_DIAGONAL = """
int g(seq[en] s, index[s] i, seq[en] t, index[t] j) =
  if i == 0 then j
  else if j == 0 then i
  else if j > 7 then g(i-1, j) + 1
  else (g(i-1, j) min g(i, j-1) min g(i-1, j+1)) + 1
"""

ROW_MAJOR = """
int f(seq[en] s, index[s] i, seq[en] t, index[t] j) =
  if i < 2 then i + j
  else if j > 7 then i + j
  else f(i-1, j+1) + 1
"""


def kernel_for(src, schedule, alphabets=EN):
    func = check_function(parse_function(src.strip()), alphabets)
    return build_kernel(func, schedule)


@pytest.fixture(scope="module")
def edit_kernel():
    return kernel_for(EDIT_DISTANCE, Schedule.of(i=1, j=1))


@pytest.fixture(scope="module")
def forward_kernel():
    return kernel_for(ANTI_DIAGONAL, Schedule.of(i=2, j=1))


class TestEmission:
    def test_plain_entry_present(self, edit_kernel):
        text = emit_native_source(edit_kernel)
        assert f"void {entry_symbol(edit_kernel)}(" in text
        assert entry_symbol(edit_kernel) == "repro_d"

    @pytest.mark.parametrize(
        "source, schedule",
        [
            (ANTI_DIAGONAL, Schedule.of(i=2, j=1)),
            (ROW_MAJOR, Schedule.of(i=1, j=0)),
        ],
        ids=["2i+j", "S=i"],
    )
    def test_forward_looking_kernel_has_one_per_problem_symbol(
        self, source, schedule
    ):
        """A kernel with a constant Section 4.8 window that the block
        order refuses (``g(i-1, j+1)`` under ``S = 2i + j``; the
        ``S = i`` shape) has exactly the two kernel symbols every TU
        has — the partition sweep and the batched entry. The table
        is its only storage: no ring, nothing to preload."""
        kernel = kernel_for(source, schedule)
        assert kernel.window is not None and kernel.window >= 1
        text = emit_native_source(kernel, openmp=True)
        name = kernel.name
        assert [
            line.split("(")[0]
            for line in text.splitlines()
            if line.startswith("void repro_")
            and not line.startswith("void repro_set_threads")
        ] == [f"void repro_{name}", f"void repro_{name}_batched"]
        for leftover in ("swin", "win_cols", "_pre", "_bd"):
            assert leftover not in text
        assert "tile=refused[R-TILE-ORDER]" in text

    def test_partition_clamps_emitted(self, edit_kernel, forward_kernel):
        """Replay support: every entry honours part_lo/part_hi."""
        for kernel in (edit_kernel, forward_kernel):
            text = emit_native_source(kernel)
            assert text.count(
                "if (part_lo > _plo) _plo = part_lo;"
            ) == 2
            assert text.count(
                "if (part_hi < _phi) _phi = part_hi;"
            ) == 2

    def test_table_type_matches_kind(self, edit_kernel):
        assert value_ctype(edit_kernel) == "long"
        forward = kernel_for(FORWARD, Schedule.of(s=0, i=1), {})
        assert value_ctype(forward) == "double"

    def test_openmp_pragma_is_opt_in(self, edit_kernel):
        plain = emit_native_source(edit_kernel)
        omp = emit_native_source(edit_kernel, openmp=True)
        assert "#pragma omp parallel for" not in plain
        assert "#pragma omp parallel for" in omp

    def test_integer_minmax_and_bounds_stay_long(self, edit_kernel):
        """Int cells and loop bounds use ``lmin``/``lmax``; float
        cells keep the ``double`` helpers; the CUDA text keeps its
        overloaded spellings."""
        from repro.ir.cuda import emit_cuda

        text = emit_native_source(edit_kernel)
        assert "static inline long lmin(long a, long b)" in text
        assert "static inline long lmax(long a, long b)" in text
        assert "lmin(lmin(farr[" in text
        assert " min(" not in text.split("void repro_d(")[1]
        assert "lmax(0,p-ub_j)" in text  # batched whole-box bounds
        viterbi = kernel_for(
            FORWARD.replace("sum(", "max(").replace("forward", "vit"),
            Schedule.of(s=0, i=1), {},
        )
        body = emit_native_source(viterbi).split("void repro_vit(")[1]
        assert "= max(" in body and "lmax(" not in body
        cuda = emit_cuda(edit_kernel)
        assert "lmin" not in cuda and "min(min(farr[" in cuda

    @pytest.mark.parametrize(
        "app", ["sw", "edit", "forward", "viterbi", "nussinov"]
    )
    @pytest.mark.parametrize("openmp", [False, True])
    def test_tu_includes_nothing(self, app, openmp):
        """A TU declares the six library functions and three
        constants it uses and parses no header — 8-15 ms of every
        ``cc``. ``TestWarningClean`` compiles the same text under
        ``-Wall -Wextra -Werror``, so a missing or mismatched
        declaration fails there."""
        from repro.analysis.domain import Domain
        from repro.apps.hmm_algorithms import (
            forward_function,
            viterbi_function,
        )
        from repro.apps.rna_folding import nussinov_function
        from repro.apps.smith_waterman import smith_waterman_function
        from repro.schedule.solver import find_schedule

        func = {
            "sw": smith_waterman_function,
            "edit": lambda: check_function(
                parse_function(EDIT_DISTANCE.strip()), EN
            ),
            "forward": forward_function,
            "viterbi": viterbi_function,
            "nussinov": nussinov_function,
        }[app]()
        domain = Domain(func.dim_names, (13,) * len(func.dim_names))
        mode = "logspace" if app in ("forward", "viterbi") else "direct"
        kernel = build_kernel(func, find_schedule(func, domain), mode)
        text = emit_native_source(kernel, openmp=openmp)
        assert "#include" not in text
        for name in ("log", "exp", "trunc"):
            assert f"double {name}(double);" in text
        tiled = app in ("sw", "edit")
        assert ("void* memcpy(void*, const void*, size_t);" in text) \
            == tiled
        assert ("#define LONG_MIN" in text) == tiled

    def test_helpers_match_scalar_prelude(self, edit_kernel):
        """The C helpers spell the exact formulas of the scalar
        backend's prelude, the basis of bitwise native/scalar parity."""
        text = emit_native_source(edit_kernel)
        assert "hi + log(1.0 + exp(lo - hi))" in text
        assert "x > 0.0 ? log(x) : -INFINITY" in text


class TestWindowColumn:
    """Which dimension addresses the Section 4.8 ring's columns is
    the C cell dialect's rule (``CCell.window_col``);
    the CUDA text is what renders it."""

    def test_diagonal_ring_uses_first_dim(self, forward_kernel):
        """Under S = 2i + j the partition determines j from i, so the
        first dimension is a valid injective ring column."""
        from repro.ir.cuda import emit_cuda

        text = emit_cuda(forward_kernel, windowed=True)
        assert "* win_cols + (i)]" in text
        assert "* win_cols + (j)]" not in text

    def test_row_major_ring_uses_space_dim(self):
        """Under S = i the i coordinate is constant within a
        partition — using it as the ring column would collide every
        cell of a row into one slot. The column must be the pure space
        dimension j (schedule coefficient zero)."""
        from repro.ir.cuda import emit_cuda

        kernel = kernel_for(ROW_MAJOR, Schedule.of(i=1, j=0))
        assert kernel.window == 1
        text = emit_cuda(kernel, windowed=True)
        assert "* win_cols + (j)]" in text
        assert "* win_cols + (i)]" not in text
        assert "[2 rows x win_cols]" in text


class TestEligibility:
    def test_edit_distance_eligible(self, edit_kernel, forward_kernel):
        """The detail names the order the entry really runs in:
        blocks for the backward-only kernel, the bare partition loop
        for the kernel the block order refuses."""
        verdict = native_eligibility(edit_kernel)
        assert verdict.ok
        assert verdict.rule == "ok"
        assert "blocked wavefront, tile 128×128" in verdict.detail
        assert "sliding window" not in verdict.detail
        verdict = native_eligibility(forward_kernel)
        assert verdict.ok
        assert verdict.detail.endswith("partition loop in C)")

    def test_hmm_forward_eligible_without_window(self):
        kernel = kernel_for(FORWARD, Schedule.of(s=0, i=1), {})
        verdict = native_eligibility(kernel)
        assert verdict.ok
        assert kernel.window is None
        assert verdict.detail.endswith("partition loop in C)")

    LOG_OF_A_SUM = (
        "prob f(seq[en] s, index[s] i, float w) = if i == 0 then 1.0 "
        "else f(i - 1) * sum(k in 0 .. i - 1 : w)"
    )

    def test_log_of_a_reduction_renders(self):
        """In log space ``f(i - 1) * sum(...)`` takes ``safelog`` of
        a float reduction: a spilled ``Log``, which the C printer once
        could not emit."""
        func = check_function(parse_function(self.LOG_OF_A_SUM), EN)
        for mode in ("direct", "logspace"):
            kernel = build_kernel(func, Schedule.of(i=1), mode)
            verdict = native_eligibility(kernel)
            assert verdict.ok, (mode, verdict.detail)
        assert "= safelog(_t" in emit_native_source(kernel)

    def test_log_of_a_reduction_matches_scalar_bitwise(self):
        from repro.runtime import native
        from repro.runtime.engine import Engine
        from repro.runtime.values import ENGLISH, Sequence

        if not native.available().ok:
            pytest.skip("no working C compiler in this environment")
        func = check_function(parse_function(self.LOG_OF_A_SUM), EN)
        bindings = {"s": Sequence("kitten" * 3, ENGLISH), "w": 0.5}
        scalar = Engine(backend="scalar", prob_mode="logspace").run(
            func, dict(bindings)
        )
        engine = Engine(backend="native", prob_mode="logspace")
        compiled = engine.run(func, dict(bindings))
        assert compiled.table.tobytes() == scalar.table.tobytes()
        assert {e.backend for e in engine._cache.values()} == {"native"}

    def test_mutual_group_member_rejected(self):
        """Cross-table reads have no single-kernel C rendering."""
        from repro.ir import expr as ir
        import dataclasses

        kernel = kernel_for(EDIT_DISTANCE, Schedule.of(i=1, j=1))
        cross = ir.TableRead(
            indices=(ir.DimRef("i"), ir.DimRef("j")),
            table="other",
        )
        body = dataclasses.replace(kernel.body, cell=cross)
        kernel = dataclasses.replace(kernel, body=body)
        verdict = native_eligibility(kernel)
        assert not verdict.ok
        assert verdict.rule == "cross-table-read"


class TestParamSpec:
    def test_fixed_prefix(self, edit_kernel):
        params = native_param_spec(edit_kernel)
        names = [p.name for p in params]
        assert names[:3] == ["farr", "part_lo", "part_hi"]
        assert "ub_i" in names and "ub_j" in names

    def test_sequences_marshalled_as_i64(self, edit_kernel):
        params = {p.name: p for p in native_param_spec(edit_kernel)}
        assert params["seq_s"].kind == "i64[]"
        assert params["seq_s"].key == "seq_s"

    def test_hmm_context_arrays_present(self):
        kernel = kernel_for(FORWARD, Schedule.of(s=0, i=1), {})
        names = {p.name for p in native_param_spec(kernel)}
        assert {
            "hmm_h_tprob", "hmm_h_inoff", "hmm_h_inids",
            "hmm_h_emis", "hmm_h_symidx",
        } <= names

    def test_declaration_order_matches_spec(self, edit_kernel):
        """The C signature is rendered from the same spec the ctypes
        dispatcher marshals from; the emitted text must list the
        parameters in spec order."""
        text = emit_native_source(edit_kernel)
        params = native_param_spec(edit_kernel)
        decl = ", ".join(f"{p.ctext} {p.name}" for p in params)
        assert f"void repro_d({decl})" in text


class TestBatchedEmission:
    def test_batched_entry_present(self, edit_kernel):
        text = emit_native_source(edit_kernel)
        symbol = entry_symbol(edit_kernel, batched=True)
        assert symbol == "repro_d_batched"
        assert f"void {symbol}(" in text

    def test_blocked_kernel_batches_via_plain_body(
        self, edit_kernel, forward_kernel
    ):
        """Blocks are a per-problem device: a blocked kernel batches
        through the plain whole-box body and says so; a kernel whose
        per-problem entry already is that body is plain
        ``ok-batched``."""
        verdict = batched_eligibility(edit_kernel)
        assert verdict.ok
        assert verdict.rule == "ok-plain-body"
        assert "blocked wavefront" in verdict.detail
        verdict = batched_eligibility(forward_kernel)
        assert verdict.ok
        assert verdict.rule == "ok-batched"

    def test_plain_kernel_rule(self):
        kernel = kernel_for(FORWARD, Schedule.of(s=0, i=1), {})
        verdict = batched_eligibility(kernel)
        assert verdict.ok
        assert verdict.rule == "ok-batched"

    def test_cross_table_read_refused(self):
        from repro.ir import expr as ir
        import dataclasses

        kernel = kernel_for(EDIT_DISTANCE, Schedule.of(i=1, j=1))
        cross = ir.TableRead(
            indices=(ir.DimRef("i"), ir.DimRef("j")),
            table="other",
        )
        body = dataclasses.replace(kernel.body, cell=cross)
        kernel = dataclasses.replace(kernel, body=body)
        verdict = batched_eligibility(kernel)
        assert not verdict.ok
        assert verdict.rule == "cross-table-read"

    def test_ragged_tails_index_by_pad_strides(self, edit_kernel):
        """Members narrower than the padded batch table must stride
        by the pad extents, not their own ``ub + 1`` — otherwise a
        ragged member reads its neighbour's rows."""
        text = emit_native_source(edit_kernel)
        body = text[text.index("repro_d_batched"):]
        assert "long* farr = btab + _b * _tsz;" in body
        assert "* (pad_j) +" in body
        assert "* (ub_j + 1) +" not in body

    def test_per_member_bound_columns(self, edit_kernel):
        """Each batch member shadows its own bounds and sequences
        from the (B,)-shaped columns before running its exact nest."""
        text = emit_native_source(edit_kernel)
        body = text[text.index("repro_d_batched"):]
        assert "const long ub_i = b_ub_i[_b];" in body
        assert "const long ub_j = b_ub_j[_b];" in body
        assert "const long* seq_s = b_seq_s + _b * b_seq_s_cols;" in body

    def test_openmp_outer_loop_only(self, edit_kernel):
        """With OpenMP on, the batched entry parallelises the problem
        loop; the member nests inside stay serial (determinism: each
        member's cells execute in exact serial order)."""
        omp = emit_native_source(edit_kernel, openmp=True)
        batched = omp[omp.index("repro_d_batched"):]
        assert (
            "#pragma omp parallel for schedule(static)\n"
            "  for (long _b = 0; _b < nprob; _b++)" in batched
        )
        # exactly one pragma in the batched entry
        assert batched.count("#pragma omp parallel for") == 1
        serial = emit_native_source(edit_kernel)
        assert "#pragma omp" not in serial[
            serial.index("repro_d_batched"):
        ]

    def test_thread_helpers_emitted(self, edit_kernel):
        """repro_set_threads/repro_max_threads ship in every TU, with
        serial stubs when the TU compiles without OpenMP."""
        text = emit_native_source(edit_kernel)
        assert "void repro_set_threads(long n)" in text
        assert "long repro_max_threads(void)" in text
        assert "#ifdef _OPENMP" in text

    def test_batched_spec_matches_declaration(self, edit_kernel):
        text = emit_native_source(edit_kernel)
        params = native_batched_param_spec(edit_kernel)
        decl = ", ".join(f"{p.ctext} {p.name}" for p in params)
        assert f"void repro_d_batched({decl})" in text

    def test_batched_spec_kinds(self, edit_kernel):
        params = native_batched_param_spec(edit_kernel)
        kinds = [p.kind for p in params]
        assert kinds[:2] == ["table", "nprob"]
        by_name = {p.name: p for p in params}
        assert by_name["pad_i"].kind == "pad"
        assert by_name["pad_j"].kind == "pad"
        assert by_name["b_ub_i"].key == "ub_i"
        assert by_name["b_seq_s"].key == "seq_s"
        assert by_name["b_seq_s_cols"].kind == "cols"
