#!/usr/bin/env python3
"""A tour of the compiler internals, following the paper section by
section: dependence criteria (4.5), schedule search (4.6), CLooG-style
generation (4.3, Figure 9), conditional parallelisation (4.7) and the
sliding window (4.8).

Run:  python examples/codegen_tour.py
"""

from repro.analysis.affine import Affine
from repro.analysis.criteria import schedule_criteria
from repro.analysis.descent import extract_descents
from repro.analysis.domain import Domain
from repro.lang.parser import parse_function
from repro.lang.typecheck import check_function
from repro.polyhedral import emit_c_inlined, generate_loops
from repro.schedule import (
    Schedule,
    find_schedule,
    optimal_candidates,
    window_size,
)

EN = {"en": "abcdefghijklmnopqrstuvwxyz"}

EDIT_DISTANCE = """
int d(seq[en] s, index[s] i, seq[en] t, index[t] j) =
  if i == 0 then j
  else if j == 0 then i
  else if s[i-1] == t[j-1] then d(i-1, j-1)
  else (d(i-1, j) min d(i, j-1) min d(i-1, j-1)) + 1
"""


def main() -> None:
    func = check_function(parse_function(EDIT_DISTANCE.strip()), EN)

    print("=== Section 4.4: descent functions " + "=" * 20)
    for descent in extract_descents(func):
        print(f"  {descent.call}  ->  {descent}")

    print("\n=== Section 4.5: validity criteria " + "=" * 20)
    criteria = schedule_criteria(func)
    for criterion in criteria:
        print(f"  {criterion}")
    for coeffs in [(1, 1), (2, 1), (1, 0)]:
        schedule = Schedule(("i", "j"), coeffs)
        verdict = "valid" if schedule.is_valid(criteria) else "INVALID"
        print(f"  {schedule}: {verdict}")

    print("\n=== Section 4.6: automatic schedule search " + "=" * 12)
    domain = Domain.of(i=7, j=8)
    best = find_schedule(func, domain)
    print(f"  derived {best} with "
          f"{best.num_partitions(domain)} partitions over {domain}")

    print("\n=== Section 4.3 / Figure 9: CLooG output " + "=" * 14)
    nest = generate_loops(
        ["i", "j"], [Affine.variable("n"), Affine.variable("m")], [1, 1]
    )
    print(emit_c_inlined(nest.roots))

    print("\n=== Section 4.7: conditional parallelisation " + "=" * 10)
    diagonal = check_function(
        parse_function(
            "int f(seq[en] a, index[a] x, seq[en] b, index[b] y) = "
            "if x == 0 then 0 else f(x - 1, y - 1)"
        ),
        EN,
    )
    candidates = optimal_candidates(diagonal)
    print(f"  candidate schedules: "
          f"{[str(Schedule(diagonal.dim_names, v)) for v in candidates]}")
    for extents in ({"x": 3, "y": 50}, {"x": 50, "y": 3}):
        chosen = find_schedule(diagonal, Domain.of(**extents))
        print(f"  extents {extents} -> {chosen}")

    print("\n=== Section 4.8: sliding window " + "=" * 23)
    for coeffs in [(1, 1), (2, 1)]:
        schedule = Schedule(("i", "j"), coeffs)
        if not schedule.is_valid(criteria):
            continue
        window = window_size(schedule, criteria)
        print(f"  {schedule}: keep {window + 1} partitions resident")


if __name__ == "__main__":
    main()
