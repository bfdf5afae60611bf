"""What a first ``Engine.run`` may import: start-up a cold caller
pays before anything is compiled."""

import subprocess
import sys

#: Packages no stage of a plain run needs: the graph library behind
#: ``analysis.call_graph``, SciPy (the verifier's LP fallback above
#: its enumeration cap imports it when it is reached), fault injection
#: and the fuzzer.
UNWANTED = ("networkx", "scipy", "repro.resilience", "repro.fuzz")

REPORT = """
print(result.value, ",".join(sorted(
    name for name in sys.modules
    if any(name == u or name.startswith(u + ".") for u in %r)
)))
"""

SMITH_WATERMAN = """
import sys
import repro.runtime.engine
import numpy as np
from repro.extensions.submatrix import SubstitutionMatrix
from repro.lang.parser import parse_function
from repro.lang.typecheck import check_function
from repro.runtime.engine import Engine
from repro.runtime.values import Alphabet, Sequence

text = '''
int sw(matrix[dna, dna] m, seq[dna] q, index[q] i,
       seq[dna] d, index[d] j) =
  if i == 0 then 0
  else if j == 0 then 0
  else 0 max (sw(i-1, j-1) + m[q[i-1], d[j-1]])
         max (sw(i-1, j) - 2)
         max (sw(i, j-1) - 2)
'''
dna = Alphabet("dna", "acgt")
func = check_function(parse_function(text.strip()), {"dna": "acgt"})
scores = np.where(np.eye(4, dtype=bool), 3, -1).astype(np.int64)
result = Engine().run(
    func,
    {
        "m": SubstitutionMatrix("m", dna, dna, scores),
        "q": Sequence("gattaca", dna),
        "d": Sequence("gcatgca", dna),
    },
    reduce="max",
)
""" + REPORT

#: The schedule search's non-uniform path: range-binder criteria are
#: minimised over a constrained box.
NUSSINOV = """
import sys
from repro.apps.rna_folding import RNA, nussinov_function
from repro.runtime.engine import Engine
from repro.runtime.values import Sequence

result = Engine().run(
    nussinov_function(),
    {"x": Sequence("gggaaauccc" * 4, RNA)},
    at={"i": 0, "j": 40},
)
""" + REPORT


def first_run_imports(script):
    """``[value, unwanted modules...]`` printed by a fresh process."""
    done = subprocess.run(
        [sys.executable, "-c", script % (UNWANTED,)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_a_first_run_imports_no_analysis_only_packages():
    assert first_run_imports(SMITH_WATERMAN) == ["10"]  # no module names


def test_a_first_nussinov_run_imports_no_scipy():
    assert first_run_imports(NUSSINOV) == ["16"]


def test_a_sanitized_run_imports_no_fault_injection():
    """The sanitizer reports to its caller alone: nothing in a
    sanitized run reaches for the fault-injection package."""
    script = SMITH_WATERMAN.replace(
        "Engine().run(", "Engine(sanitize=True).run("
    )
    assert first_run_imports(script) == ["10"]
