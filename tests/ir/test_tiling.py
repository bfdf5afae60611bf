"""Blocked wavefronts on the native rung.

Kernels whose own-table reads all look backward in every dimension
(``R-TILE-ORDER`` CONFIRMED) run block anti-diagonal by block
anti-diagonal instead of partition by partition. These tests pin the
three things that change with the order: the table (never — bitwise
the scalar table for any tile shape, thread count and extents, whole
launch or any split into partition ranges), the text (one region, one
``omp for``, the kernel's own nest inside a tile, no ring entry), and
what does *not* change (every other kernel's translation unit, byte
for byte against goldens taken at the commit before tiling).

The same entry launched *without* a table — a private halo tile per
thread, two boundary strips, the reduction folded in C — must hand
back exactly what the table would have given (section f).
"""

import functools
import os
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.domain import Domain
from repro.apps.hmm_algorithms import forward_function, viterbi_function
from repro.apps.rna_folding import nussinov_function
from repro.apps.smith_waterman import smith_waterman_function
from repro.extensions.submatrix import blosum62
from repro.ir import cbackend
from repro.ir.kernel import build_kernel
from repro.lang.parser import parse_expr, parse_function
from repro.lang.typecheck import check_function
from repro.runtime import native
from repro.runtime.engine import Engine
from repro.runtime.values import PROTEIN, Bindings, Sequence
from repro.schedule import find_schedule
from repro.schedule.schedule import Schedule
from repro.verify.races import parallelism_certificate

needs_cc = pytest.mark.skipif(
    not native.available().ok,
    reason="no working C compiler in this environment",
)

AL = {"al": "acgt"}

EDIT = """
int d(seq[al] s, index[s] i, seq[al] t, index[t] j) =
  if i == 0 then j
  else if j == 0 then i
  else if s[i-1] == t[j-1] then d(i-1, j-1)
  else (d(i-1, j) min d(i, j-1) min d(i-1, j-1)) + 1
"""

# tests/corpus/ring-schedule-collision.dsl: under S = i a partition
# is a whole row, a block a run of rows cut into column strips.
ROWS = """
int f(seq[al] s, index[s] i, seq[al] t, index[t] j) =
  if i < 2 then i + j
  else if j < 2 then i + j
  else (f(i - 1, j) max f(i - 2, j - 1)) + 1
"""

# A negative coefficient: partitions run from the top-right corner of
# a block to its bottom-left.
DOWN = """
int g(seq[al] s, index[s] i, seq[al] t, index[t] j) =
  if i < 1 then j
  else if s[i-1] == 'a' then g(i - 1, j) + 2
  else g(i - 1, j) + 1
"""

GOLDENS = os.path.join(os.path.dirname(__file__), "goldens")

#: Tile shapes: single cells, ragged, wider than tall, the default.
TILES = [(1, 1), (2, 3), (5, 4), (128, 128)]

#: Sequence lengths (extents are one more): an empty sequence on
#: either side, a size-one domain, extents below / equal to / a
#: multiple of / not a multiple of the small tile edges, and extents
#: equal to and just past the default 128 edge.
LENGTHS = [
    (0, 0), (0, 3), (3, 0), (1, 1), (3, 2), (4, 3), (9, 7), (11, 13),
    (127, 127), (130, 127),
]


def checked(text, alphabets=AL):
    return check_function(parse_function(text.strip()), alphabets)


def dna(n, salt):
    return Sequence(
        "".join("acgt"[(i * i + salt * i + salt) % 4] for i in range(n)),
        "acgt",
    )


def protein(n, salt):
    chars = PROTEIN.chars
    return Sequence(
        "".join(
            chars[(i * i + salt * i + salt) % len(chars)]
            for i in range(n)
        ),
        PROTEIN,
    )


#: name -> (function, user schedule text or None, bindings(n, m)).
PROGRAMS = {
    "edit": (
        checked(EDIT), None,
        lambda n, m: {"s": dna(n, 1), "t": dna(m, 2)},
    ),
    "edit-2i+j": (
        checked(EDIT), "2*i + j",
        lambda n, m: {"s": dna(n, 1), "t": dna(m, 2)},
    ),
    "rows-S=i": (
        checked(ROWS), "i",
        lambda n, m: {"s": dna(n, 3), "t": dna(m, 4)},
    ),
    "down-i-j": (
        checked(DOWN), "i - j",
        lambda n, m: {"s": dna(n, 7), "t": dna(m, 8)},
    ),
    "sw": (
        smith_waterman_function(), None,
        lambda n, m: {
            "m": blosum62(PROTEIN),
            "q": protein(n, 5), "d": protein(m, 6),
        },
    ),
}


@functools.lru_cache(maxsize=None)
def scalar_engine():
    return Engine(backend="scalar")


@functools.lru_cache(maxsize=None)
def problem_for(name, lengths):
    return Problem(name, lengths)


class Problem:
    """One (program, lengths) instance staged the way ``Engine.run``
    stages it, so a hand-built run can be launched on the same
    context and compared with the scalar rung's table."""

    def __init__(self, name, lengths):
        func, user, bindings = PROGRAMS[name]
        engine = self._engine = scalar_engine()
        bound = Bindings(bindings(*lengths))
        self.domain = engine.domain_of(func, bound)
        self.schedule = engine.schedule_for(
            func, self.domain, parse_expr(user) if user else None
        )
        compiled = engine.compile(func, self.schedule, self.domain)
        self.kernel = compiled.kernel
        self.ctx = engine.build_context(compiled, bound, self.domain)
        self.lo = self.schedule.min_partition(self.domain)
        self.hi = self.schedule.max_partition(self.domain)
        self.expected = self.fresh()
        compiled.run(
            self.expected, self.ctx, part_lo=self.lo, part_hi=self.hi
        )

    def fresh(self):
        return self._engine._table_for(self.kernel, self.domain)


def tiled_run(kernel, tile):
    """A loaded native run of ``kernel`` built with block shape
    ``tile`` (through the sandbox under a sanitizer build, which
    must never be loaded in-process). Builds are content-addressed,
    so a repeated (kernel, tile) costs no second compile."""
    source = cbackend.emit_native_source(
        kernel, openmp=native.toolchain()[1], tile=tile
    )
    return native.load_compiled(
        kernel, native.build_shared_object(source)
    )


# -- (a) differential: tile x threads x extents ----------------------------


@needs_cc
@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("tile", TILES, ids=lambda t: f"{t[0]}x{t[1]}")
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_tiled_table_is_the_scalar_table(name, tile, threads, monkeypatch):
    # The cap is applied when a library loads.
    monkeypatch.setenv("REPRO_NATIVE_THREADS", str(threads))
    for lengths in LENGTHS:
        problem = problem_for(name, lengths)
        assert parallelism_certificate(problem.kernel).tile.confirmed
        run = tiled_run(problem.kernel, tile)
        table = problem.fresh()
        run(table, problem.ctx, part_lo=problem.lo, part_hi=problem.hi)
        assert np.array_equal(table, problem.expected), (
            f"{name} tile={tile} threads={threads} lengths={lengths}"
        )
        unclamped = problem.fresh()
        run(unclamped, problem.ctx)
        assert np.array_equal(unclamped, problem.expected)


# -- (b) partition ranges ---------------------------------------------------


@needs_cc
@pytest.mark.parametrize("tile", [(2, 3), (128, 128)])
@pytest.mark.parametrize("name", ["edit", "edit-2i+j", "rows-S=i"])
@settings(
    deadline=None, max_examples=25,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_any_split_into_partition_ranges_is_one_full_launch(
    name, tile, data
):
    """Consecutive ``(part_lo, part_hi)`` launches — prefixes,
    suffixes, single partitions, empty ranges — leave the table one
    full launch leaves: a range launch computes exactly the cells of
    its partitions, in every block, whatever came before."""
    problem = problem_for(name, (9, 7))
    run = tiled_run(problem.kernel, tile)
    lo, hi = problem.lo, problem.hi
    cuts = sorted(
        data.draw(
            st.lists(st.integers(lo - 1, hi), max_size=8), label="cuts"
        )
    )
    table = problem.fresh()
    start = lo
    for cut in cuts + [hi]:
        run(table, problem.ctx, part_lo=start, part_hi=cut)
        start = max(start, cut + 1)
    assert np.array_equal(table, problem.expected)


@needs_cc
def test_a_range_launch_writes_only_its_partitions():
    problem = problem_for("edit", (9, 7))
    run = tiled_run(problem.kernel, (2, 3))
    i, j = np.indices(problem.expected.shape)
    table = np.where(i + j < 4, problem.expected, -7)
    run(table, problem.ctx, part_lo=4, part_hi=6)
    assert np.array_equal(
        table, np.where(i + j <= 6, problem.expected, -7)
    )


# -- (c) structure ----------------------------------------------------------


def entry_text(source, symbol):
    """The text of one emitted function."""
    start = source.index(f"void {symbol}(")
    end = source.find("\nvoid ", start + 1)
    return source[start:end if end != -1 else len(source)]


class TestStructure:
    @pytest.fixture(scope="class")
    def kernel(self):
        return build_kernel(checked(EDIT), Schedule.of(i=1, j=1))

    def test_one_region_one_worksharing_loop_no_ring(self, kernel):
        source = cbackend.emit_native_source(kernel, openmp=True)
        entry = entry_text(source, "repro_d")
        assert entry.count("#pragma omp") == 2
        assert entry.count("#pragma omp parallel\n") == 1
        assert entry.count("#pragma omp for schedule(static)\n") == 1
        # nothing inside a tile: the last pragma precedes the block
        # loop, and the tile's own nest follows it
        tile_body = entry[entry.index("const long lo_i"):]
        assert "#pragma" not in tile_body
        assert "for (long p = _plo; p <= _phi; p++)" in tile_body
        assert "lmax(lo_i,p-hi_j)" in tile_body
        assert "lmin(hi_i,p-lo_j)" in tile_body
        assert "_windowed" not in source and "swin" not in source
        # the batched entry keeps the whole-box nest
        batched = entry_text(source, "repro_d_batched")
        assert "lo_i" not in batched and "_bd" not in batched
        assert "lmax(0,p-ub_j)" in batched

    def test_serial_build_is_tiled_and_pragma_free(self, kernel):
        source = cbackend.emit_native_source(kernel, openmp=False)
        assert "#pragma" not in source
        assert "for (long _bd = 0;" in entry_text(source, "repro_d")
        assert "_windowed" not in source

    def test_barrier_count(self, kernel):
        """``omp for`` rounds per full launch: one per block
        diagonal, ``nb_i + nb_j - 1`` — 33 at 2048x2048 where the
        partition sweep opened 4 097 regions, exactly one whenever
        the problem fits a tile."""
        entry = entry_text(
            cbackend.emit_native_source(kernel, openmp=True), "repro_d"
        )
        assert cbackend.TILE == (128, 128)
        assert "const long _nb_i = (ub_i + 128) / 128;" in entry
        assert "const long _nb_j = (ub_j + 128) / 128;" in entry
        assert (
            "for (long _bd = 0; _bd <= _nb_i + _nb_j - 2; _bd++)"
            in entry
        )

        def rounds(ub_i, ub_j):
            return (ub_i + 128) // 128 + (ub_j + 128) // 128 - 1

        assert rounds(2048, 2048) == 33  # ceil(2049 / 128) * 2 - 1
        assert rounds(2048, 2048) < 2048 + 2048 + 1 == 4097
        for ub in (0, 1, 63, 64, 100, 127):
            assert rounds(ub, ub) == 1
        assert rounds(128, 127) == 2

    def test_tile_seam_changes_only_the_edges(self, kernel):
        default = cbackend.emit_native_source(kernel, openmp=True)
        small = cbackend.emit_native_source(
            kernel, openmp=True, tile=(3, 4)
        )
        assert "(ub_i + 3) / 3" in small and "(ub_j + 4) / 4" in small
        assert "lmin(ub_i, lo_i + 2)" in small
        assert "lmin(ub_j, lo_j + 3)" in small
        digits = re.compile(r"\d+")
        assert len(default.splitlines()) == len(small.splitlines())
        for a, b in zip(default.splitlines(), small.splitlines()):
            assert digits.sub("N", a) == digits.sub("N", b)

    def test_refused_tile_axis_forces_the_partition_sweep(self, kernel):
        import dataclasses

        from repro.verify.races import AxisVerdict

        cert = parallelism_certificate(kernel)
        doctored = dataclasses.replace(
            cert,
            tile=AxisVerdict(
                "tile", "refused", "doctored", rule="R-TILE-ORDER"
            ),
        )
        source = cbackend.emit_native_source(
            kernel, openmp=True, certificate=doctored
        )
        entry = entry_text(source, "repro_d")
        assert "_bd" not in entry and "lo_i" not in entry
        assert "#pragma omp parallel for\n" in entry
        assert "tile=refused[R-TILE-ORDER]" in source
        assert not cbackend.native_entries(kernel, doctored).tiled

    @pytest.mark.parametrize(
        "name, make",
        [
            ("forward", forward_function),
            ("viterbi", viterbi_function),
            ("nussinov", nussinov_function),
        ],
    )
    @pytest.mark.parametrize("openmp", [False, True])
    def test_untiled_kernels_keep_their_text(self, name, make, openmp):
        """A refused tile verdict reproduces the text of the commit
        before tiling, byte for byte — up to what has changed in
        every TU since, which the normaliser spells out: the
        ``lmin``/``lmax`` prelude pair and their use in loop bounds
        and int cells, and the certificate header's third axis
        (``tile`` where the goldens' commit had ``ring``)."""
        func = make()
        domain = Domain(func.dim_names, tuple(13 for _ in func.dim_names))
        kernel = build_kernel(func, find_schedule(func, domain))
        assert not parallelism_certificate(kernel).tile.confirmed
        kind = "omp" if openmp else "serial"
        with open(os.path.join(GOLDENS, f"{name}.{kind}.c")) as handle:
            golden = handle.read()
        text = cbackend.emit_native_source(kernel, openmp=openmp)
        prelude = (
            "static inline long lmin(long a, long b) "
            "{ return a < b ? a : b; }\n"
            "static inline long lmax(long a, long b) "
            "{ return a > b ? a : b; }\n"
        )
        assert text.count(prelude) == 1
        text = text.replace(prelude, "")
        text = text.replace("lmin(", "min(").replace("lmax(", "max(")
        text = text.replace(
            " tile=refused[R-TILE-ORDER] */", " ring=not-applicable */"
        )
        assert text == golden


# -- (d) explain ------------------------------------------------------------


def test_explain_json_lists_the_fourth_axis_and_the_tile(tmp_path, capsys):
    import json

    from repro.__main__ import main

    script = tmp_path / "two.dsl"
    script.write_text(
        'alphabet al = "acgt"\n'
        + EDIT
        + "\nint g(seq[al] s, index[s] i, seq[al] t, index[t] j) =\n"
        "  if i == 0 then 0\n"
        "  else if j > 7 then 0\n"
        "  else g(i - 1, j + 1) + 1\n"
    )
    main(["explain", "--json", str(script)])
    records = {
        r["function"]: r
        for r in json.loads(capsys.readouterr().out)["functions"]
    }
    tiled, swept = records["d"], records["g"]
    assert tiled["parallel"]["tile"]["status"] == "confirmed"
    assert tiled["native"]["tile"] == [128, 128]
    assert "blocked wavefront, tile 128×128" in tiled["native"]["detail"]
    assert "sliding window" not in tiled["native"]["detail"]
    assert swept["parallel"]["tile"]["status"] == "refused"
    assert swept["parallel"]["tile"]["rule"] == "R-TILE-ORDER"
    assert swept["native"]["tile"] is None
    assert "blocked" not in swept["native"]["detail"]


# -- (e) supervised recovery under a tiny tile ------------------------------


@needs_cc
def test_supervised_run_recovers_bitwise_under_a_tiny_tile(monkeypatch):
    """The supervisor replays partition ranges through the same
    entry; with 3x4 blocks a 13x11 table is 20 blocks, so every
    replayed range crosses block edges."""
    from repro.resilience import (
        ExecutionSupervisor,
        FaultPlan,
        SupervisionPolicy,
    )

    monkeypatch.setattr(cbackend, "TILE", (3, 4))
    func, _, bindings = PROGRAMS["sw"]
    args = bindings(12, 10)
    baseline = Engine(backend="scalar").run(func, dict(args), reduce="max")
    engine = Engine(backend="native")
    supervisor = ExecutionSupervisor(
        engine,
        plan=FaultPlan(
            seed=1234, launch_fail_rate=0.15, corrupt_rate=0.02,
            truncate_rate=0.05, corrupt_mode="bitflip",
        ),
        policy=SupervisionPolicy(checkpoint_interval=4),
    )
    result = supervisor.run(func, dict(args), reduce="max")
    compiled = engine._cache.values()[0]
    assert compiled.backend == "native"
    assert "(ub_i + 3) / 3" in compiled.source
    assert supervisor.stats.replays > 0
    assert result.value == baseline.value
    assert result.table.tobytes() == baseline.table.tobytes()


# -- (f) result-only launches -----------------------------------------------

#: What a caller can ask a launch for — ``(reduce, coords(n, m))``:
#: either whole-table reduction, the default coordinate (the last
#: cell) and an explicit one inside the table.
WANTS = [
    ("max", lambda n, m: ()),
    ("min", lambda n, m: ()),
    (None, lambda n, m: (n, m)),
    (None, lambda n, m: (n // 2, m // 3)),
]

#: 2x3 and up are no smaller than any program's reach (rows-S=i
#: reads ``f(i - 2, j - 1)``: its halo is two rows and the corner);
#: 1x1 is one block per cell, where the strips and partials are as
#: long as ``result_scratch_cells`` allows for.
HALO_TILES = [(1, 1), (2, 3), (5, 4), (128, 128)]

# A float kernel with a NaN cell (inf - inf) that spreads along its
# row: ndarray.max()/min() return NaN, and so must the C fold.
NAN = """
float h(seq[al] s, index[s] i, seq[al] t, index[t] j) =
  if i == 0 then 0.5 * j
  else if j == 0 then 0.25 * i
  else if 7 * i + j == 23 then (1e308 * 10.0) - (1e308 * 10.0)
  else (h(i - 1, j) max h(i, j - 1)) + 0.5
"""


def read(table, reduce, coords):
    """What ``Engine._extract`` reads off a full table."""
    if reduce is None:
        return table[coords]
    return table.max() if reduce == "max" else table.min()


def test_the_tile_verdict_carries_the_reach():
    reach = {
        name: parallelism_certificate(
            problem_for(name, (3, 2)).kernel
        ).tile.reach
        for name in PROGRAMS
    }
    assert reach == {
        "edit": (1, 1), "edit-2i+j": (1, 1), "sw": (1, 1),
        "rows-S=i": (2, 1), "down-i-j": (1, 0),
    }
    forward = forward_function()
    domain = Domain(forward.dim_names, (13, 13))
    refused = parallelism_certificate(
        build_kernel(forward, find_schedule(forward, domain))
    ).tile
    assert not refused.confirmed and refused.reach is None
    assert "reach" not in refused.to_dict()


@needs_cc
@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize(
    "tile", HALO_TILES, ids=lambda t: f"{t[0]}x{t[1]}"
)
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_result_only_value_is_read_off_no_table(
    name, tile, threads, monkeypatch
):
    monkeypatch.setenv("REPRO_NATIVE_THREADS", str(threads))
    reach = cbackend.native_entries(problem_for(name, (3, 2)).kernel).reach
    if any(h > t for h, t in zip(reach, tile)):
        pytest.skip(f"reach {reach} past the {tile} block edge")
    for lengths in LENGTHS:
        problem = problem_for(name, lengths)
        run = tiled_run(problem.kernel, tile)
        for reduce, coords in WANTS:
            at = coords(*lengths)
            assert run.result(problem.ctx, reduce, at) == read(
                problem.expected, reduce, at
            ), f"{name} tile={tile} lengths={lengths} {reduce} {at}"


@needs_cc
@pytest.mark.parametrize(
    "tile", HALO_TILES, ids=lambda t: f"{t[0]}x{t[1]}"
)
def test_float_fold_is_ndarray_max_and_min_nan_included(tile):
    func = checked(NAN)
    engine = scalar_engine()
    bound = Bindings({"s": dna(9, 1), "t": dna(7, 2)})
    domain = engine.domain_of(func, bound)
    compiled = engine.compile(
        func, engine.schedule_for(func, domain), domain
    )
    kernel = compiled.kernel
    assert parallelism_certificate(kernel).tile.confirmed
    ctx = engine.build_context(compiled, bound, domain)
    run = tiled_run(kernel, tile)
    table = run(engine._table_for(kernel, domain), ctx)
    assert np.isnan(table[3, 2]) and np.isnan(table).sum() > 1
    assert np.isnan(run.result(ctx, "max", ()))
    assert np.isnan(run.result(ctx, "min", ()))
    assert np.isnan(run.result(ctx, None, (3, 2)))
    assert run.result(ctx, None, (9, 7)) == table[9, 7]
    # NaN-free: the same kernel on a table too small to hold the cell
    bound = Bindings({"s": dna(2, 1), "t": dna(7, 2)})
    domain = engine.domain_of(func, bound)
    ctx = engine.build_context(compiled, bound, domain)
    table = run(engine._table_for(kernel, domain), ctx)
    assert not np.isnan(table).any()
    assert run.result(ctx, "max", ()) == table.max()
    assert run.result(ctx, "min", ()) == table.min()


@needs_cc
def test_concurrent_result_only_launches_of_one_run_share_nothing():
    """The scratch (strips, partials) belongs to a call and the halo
    tiles to the threads inside it: launches of one run overlapping
    in time agree with the same launches made one after another."""
    import threading

    problems = [
        problem_for("sw", lengths)
        for lengths in [(130, 127), (127, 127), (11, 13), (9, 7)]
    ]
    run = tiled_run(problems[0].kernel, (5, 4))
    serial = [run.result(p.ctx, "max", ()) for p in problems]
    got = [[] for _ in problems]
    gate = threading.Barrier(len(problems))

    def worker(slot):
        gate.wait(timeout=30)
        for _ in range(20):
            got[slot].append(run.result(problems[slot].ctx, "max", ()))

    threads = [
        threading.Thread(target=worker, args=(slot,))
        for slot in range(len(problems))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    assert got == [[value] * 20 for value in serial]
    assert serial == [p.expected.max() for p in problems]


@needs_cc
def test_result_only_refuses_a_coordinate_no_tile_holds():
    problem = problem_for("edit", (9, 7))
    run = tiled_run(problem.kernel, (5, 4))
    for coords in [(10, 7), (9, -1), (9,), ()]:
        with pytest.raises(Exception) as err:
            run.result(problem.ctx, None, coords)
        assert "IndexError" in (
            type(err.value).__name__ + str(err.value)
        )
    # a reduction reads no coordinate
    assert run.result(problem.ctx, "max", ()) == problem.expected.max()


class TestResultOnlyStructure:
    @pytest.fixture(scope="class")
    def kernel(self):
        return build_kernel(checked(EDIT), Schedule.of(i=1, j=1))

    def test_the_cell_body_is_emitted_once_per_entry(self, kernel):
        source = cbackend.emit_native_source(kernel, openmp=True)
        entry = entry_text(source, "repro_d")
        assert entry.count("farr[(i) * (_ts) + j] = ") == 1
        assert entry.count("for (long p = _plo; p <= _phi; p++)") == 1
        assert entry.count("repro_block(&_s, 0, farr, _ts,") == 1
        assert entry.count("repro_block(&_s, 1, farr, _ts,") == 1
        # table and result-only launches choose (farr, _ts) per block
        assert "long* farr = _tab;" in entry
        assert "farr = _tile - (lo_i - 1) * _ts - (lo_j - 1);" in entry
        assert source.count("void repro_block(") == 1
        # the batched entry keeps its own strides and no fold
        batched = entry_text(source, "repro_d_batched")
        assert "(_ts)" not in batched and "_amax" not in batched

    def test_entries_and_spec_agree_on_the_mode(self, kernel):
        entries = cbackend.native_entries(kernel)
        assert entries.tiled and entries.result_only
        assert entries.reach == (1, 1)
        tail = cbackend.native_param_spec(kernel)[-4:]
        assert [(p.name, p.kind) for p in tail] == [
            ("_res", "result"), ("_red", "reduce"),
            ("_at_i", "at"), ("_at_j", "at"),
        ]
        assert "result-only launches" in (
            cbackend.native_eligibility(kernel).detail
        )

    def test_a_reach_past_the_tile_edge_keeps_the_table(
        self, monkeypatch
    ):
        """The halo tile is capped at four blocks: under a block
        edge smaller than the reach the mode is not used."""
        kernel = problem_for("rows-S=i", (3, 2)).kernel
        assert cbackend.native_entries(kernel).result_only
        monkeypatch.setattr(cbackend, "TILE", (1, 4))
        entries = cbackend.native_entries(kernel)
        assert entries.tiled and not entries.result_only
        assert "result-only" not in (
            cbackend.native_eligibility(kernel).detail
        )

    def test_untiled_kernels_have_no_result_only_mode(self):
        func = forward_function()
        domain = Domain(func.dim_names, (13, 13))
        kernel = build_kernel(func, find_schedule(func, domain))
        entries = cbackend.native_entries(kernel)
        assert not entries.tiled and not entries.result_only
        assert all(
            p.kind not in ("result", "reduce", "at")
            for p in cbackend.native_param_spec(kernel)
        )
        source = cbackend.emit_native_source(kernel, openmp=True)
        assert "repro_block" not in source and "_res" not in source


def test_explain_json_says_whether_the_entry_is_result_only(
    tmp_path, capsys
):
    import json

    from repro.__main__ import main

    script = tmp_path / "two.dsl"
    script.write_text(
        'alphabet al = "acgt"\n'
        + EDIT
        + "\nint g(seq[al] s, index[s] i, seq[al] t, index[t] j) =\n"
        "  if i == 0 then 0\n"
        "  else if j > 7 then 0\n"
        "  else g(i - 1, j + 1) + 1\n"
    )
    main(["explain", "--json", str(script)])
    records = {
        r["function"]: r
        for r in json.loads(capsys.readouterr().out)["functions"]
    }
    assert records["d"]["native"]["result_only"] is True
    assert records["d"]["parallel"]["tile"]["reach"] == [1, 1]
    assert records["g"]["native"]["result_only"] is False
    assert "reach" not in records["g"]["parallel"]["tile"]
