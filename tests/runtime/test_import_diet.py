"""What a first ``Engine.run`` may import: start-up a cold caller
pays before anything is compiled."""

import subprocess
import sys

#: Packages no stage of a plain run needs: the graph library behind
#: ``analysis.call_graph``, SciPy (the LP fallbacks import it when
#: they are reached), fault injection and the fuzzer.
UNWANTED = ("networkx", "scipy", "repro.resilience", "repro.fuzz")

SCRIPT = """
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
print(result.value, ",".join(sorted(
    name for name in sys.modules
    if any(name == u or name.startswith(u + ".") for u in %r)
)))
"""


def test_a_first_run_imports_no_analysis_only_packages():
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT % (UNWANTED,)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["10"]  # the score, no module names
