"""The emitted text, pinned byte for byte.

``native_source_goldens.json`` holds the sha256 of every C
translation unit and CUDA text the emitters produce for a fixed set
of kernels: the app functions, and every function of the example
scripts and the fuzz corpus, each scheduled for a box of
:data:`EXTENT` cells per dimension. It was recorded by
:func:`golden_records` at the commit before the native emitter
became a chain of licensed rewrites over one nest printer, so a
rewrite that changes a byte of any TU — and so of any ``.so`` — fails
here. Re-record only for a change that means to change the text::

    PYTHONPATH=src python -c "import json, tests.ir.test_native_goldens \\
        as g; print(json.dumps(g.golden_records(), indent=1, \\
        sort_keys=True))" > tests/ir/native_source_goldens.json
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.analysis.domain import Domain
from repro.apps.hmm_algorithms import (
    backward_function,
    forward_function,
    viterbi_function,
)
from repro.apps.rna_folding import nussinov_function
from repro.apps.smith_waterman import smith_waterman_function
from repro.ir import cbackend
from repro.ir.cuda import emit_cuda
from repro.ir.kernel import build_kernel
from repro.lang.parser import parse_program
from repro.lang.typecheck import check_program
from repro.schedule import find_schedule
from repro.schedule.schedule import validate_user_schedule
from repro.verify.races import parallelism_certificate

ROOT = Path(__file__).resolve().parents[2]

#: Cells per dimension of the box every kernel is scheduled for.
EXTENT = 13

#: The small block edge of the tiled TU (block-edge clipping shows).
SMALL_TILE = (3, 4)

MODES = ("direct", "logspace")


def _kernel(func, mode, user_schedule=None):
    domain = Domain(func.dim_names, (EXTENT,) * len(func.dim_names))
    if user_schedule is not None:
        schedule = validate_user_schedule(func, user_schedule, domain)
    else:
        schedule = find_schedule(func, domain)
    return build_kernel(func, schedule, mode)


def golden_kernels():
    """``{name: kernel}`` for every pinned kernel."""
    kernels = {
        "smith_waterman": _kernel(smith_waterman_function(), "direct"),
        "nussinov": _kernel(nussinov_function(), "direct"),
    }
    for name, make in (
        ("forward", forward_function),
        ("backward", backward_function),
        ("viterbi", viterbi_function),
    ):
        for mode in MODES:
            kernels[f"{name}.{mode}"] = _kernel(make(), mode)
    paths = sorted(ROOT.glob("examples/scripts/*.dsl"))
    paths += sorted(ROOT.glob("tests/corpus/*.dsl"))
    for path in paths:
        checked = check_program(parse_program(path.read_text()))
        for fname, func in sorted(checked.functions.items()):
            for mode in MODES:
                key = f"{path.relative_to(ROOT)}::{fname}.{mode}"
                kernels[key] = _kernel(
                    func, mode, checked.schedules.get(fname)
                )
    return kernels


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def golden_texts(kernel):
    """``{label: text}`` of every emission pinned for ``kernel``."""
    texts = {
        f"c.openmp={openmp}": cbackend.emit_native_source(
            kernel, openmp=openmp
        )
        for openmp in (False, True)
    }
    if parallelism_certificate(kernel).tile.confirmed:
        texts["c.tile=3x4"] = cbackend.emit_native_source(
            kernel, openmp=True, tile=SMALL_TILE
        )
    texts["cuda"] = emit_cuda(kernel)
    if kernel.window is not None:
        texts["cuda.windowed"] = emit_cuda(kernel, windowed=True)
    return texts


def golden_records():
    """What ``native_source_goldens.json`` holds."""
    return {
        name: {
            label: _sha(text)
            for label, text in golden_texts(kernel).items()
        }
        for name, kernel in golden_kernels().items()
    }


GOLDENS = json.loads(
    Path(__file__).with_name("native_source_goldens.json").read_text()
)
KERNELS = golden_kernels()


def test_every_golden_kernel_is_still_built():
    assert sorted(KERNELS) == sorted(GOLDENS)


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_emitted_text_matches_the_golden(name):
    got = {
        label: _sha(text)
        for label, text in golden_texts(KERNELS[name]).items()
    }
    assert got == GOLDENS[name]
