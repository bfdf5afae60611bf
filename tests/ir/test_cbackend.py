"""Tests for the native C99 emitter (the compiled backend's source)."""

import pytest

from repro.ir.cbackend import (
    batched_eligibility,
    emit_native_source,
    entry_symbol,
    native_batched_param_spec,
    native_eligibility,
    native_param_spec,
    supports_window,
    value_ctype,
)
from repro.lang.errors import CodegenError
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

# The ring-buffer entry survives on kernels that are uniform (constant
# window) but whose block order R-TILE-ORDER refuses: a read that
# looks *forward* in j. (Backward-only kernels such as EDIT_DISTANCE
# are blocked wavefronts and carry no ring.)
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
def ring_kernel():
    return kernel_for(ANTI_DIAGONAL, Schedule.of(i=2, j=1))


class TestEmission:
    def test_plain_entry_present(self, edit_kernel):
        text = emit_native_source(edit_kernel)
        assert f"void {entry_symbol(edit_kernel)}(" in text
        assert entry_symbol(edit_kernel) == "repro_d"

    def test_windowed_entry_for_diagonal(self, ring_kernel, edit_kernel):
        """S = 2i + j gives window 2 on a rank-2 nest: the ring-buffer
        variant must be emitted alongside the plain entry — for a
        kernel the block order refuses. The backward-only edit
        distance has the same geometry and no ring."""
        assert supports_window(ring_kernel)
        text = emit_native_source(ring_kernel)
        assert "void repro_g_windowed(" in text
        assert "swin[" in text
        # window + 1 = 3 rows resident.
        assert "swin[3 * win_cols]" in text
        assert supports_window(edit_kernel)
        assert "_windowed" not in emit_native_source(edit_kernel)
        assert "swin" not in emit_native_source(edit_kernel)

    def test_partition_clamps_emitted(self, edit_kernel, ring_kernel):
        """Replay support: every entry honours part_lo/part_hi."""
        for kernel, entries in ((edit_kernel, 2), (ring_kernel, 3)):
            text = emit_native_source(kernel)
            assert text.count(
                "if (part_lo > _plo) _plo = part_lo;"
            ) == entries
            assert text.count(
                "if (part_hi < _phi) _phi = part_hi;"
            ) == entries

    def test_windowed_preload_for_mid_schedule_replay(self, ring_kernel):
        """A replay starting at part_lo > 0 must find its look-back
        rows in the ring: the emitter preloads them from the table."""
        text = emit_native_source(ring_kernel)
        assert "_pre" in text
        assert "_plo - 2" in text  # window partitions preloaded

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

    def test_helpers_match_scalar_prelude(self, edit_kernel):
        """The C helpers spell the exact formulas of the scalar
        backend's prelude, the basis of bitwise native/scalar parity."""
        text = emit_native_source(edit_kernel)
        assert "hi + log(1.0 + exp(lo - hi))" in text
        assert "x > 0.0 ? log(x) : -INFINITY" in text


class TestWindowColumn:
    def test_diagonal_ring_uses_first_dim(self, ring_kernel):
        """Under S = 2i + j the partition determines j from i, so the
        first dimension is a valid injective ring column."""
        text = emit_native_source(ring_kernel)
        assert "const long win_cols = ub_j + 1;" not in text
        assert "const long win_cols = ub_i + 1;" in text

    def test_row_major_ring_uses_space_dim(self):
        """Under S = i the i coordinate is constant within a
        partition — using it as the ring column would collide every
        cell of a row into one slot. The column must be the pure space
        dimension j (schedule coefficient zero)."""
        kernel = kernel_for(ROW_MAJOR, Schedule.of(i=1, j=0))
        assert kernel.window == 1
        assert supports_window(kernel)
        text = emit_native_source(kernel)
        assert "const long win_cols = ub_j + 1;" in text
        assert "swin[2 * win_cols]" in text


class TestEligibility:
    def test_edit_distance_eligible(self, edit_kernel, ring_kernel):
        """The detail names the entry the TU really has: blocks for
        the backward-only kernel (never a ring it no longer emits),
        the ring for the kernel that kept it."""
        verdict = native_eligibility(edit_kernel)
        assert verdict.ok
        assert verdict.rule == "ok"
        assert "blocked wavefront, tile 128×128" in verdict.detail
        assert "sliding window" not in verdict.detail
        verdict = native_eligibility(ring_kernel)
        assert verdict.ok
        assert "sliding window of 2" in verdict.detail
        assert "blocked" not in verdict.detail

    def test_hmm_forward_eligible_without_window(self):
        kernel = kernel_for(FORWARD, Schedule.of(s=0, i=1), {})
        verdict = native_eligibility(kernel)
        assert verdict.ok
        assert not supports_window(kernel)
        assert "sliding window" not in verdict.detail

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

    def test_windowed_batched_refused(self, edit_kernel):
        """The ring buffer is a per-problem residency optimisation;
        there is no windowed batched entry to name."""
        with pytest.raises(CodegenError):
            entry_symbol(edit_kernel, windowed=True, batched=True)

    def test_windowed_kernel_batches_via_plain_body(
        self, edit_kernel, ring_kernel
    ):
        """Blocks and the ring are per-problem devices: both kinds
        batch through the plain whole-box body, each saying which
        device it leaves behind."""
        verdict = batched_eligibility(ring_kernel)
        assert verdict.ok
        assert verdict.rule == "ok-plain-body"
        assert "ring buffer" in verdict.detail
        verdict = batched_eligibility(edit_kernel)
        assert verdict.ok
        assert verdict.rule == "ok-plain-body"
        assert "blocked wavefront" in verdict.detail
        assert "ring" not in verdict.detail

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
