"""The whole-box NumPy evaluation against the scalar enumerator it
replaced, kept here as the oracle: same :class:`MinResult` — value,
exactness and witness — case by case."""

import itertools
import random

import pytest

from repro.analysis.affine import Affine
from repro.verify import exact
from repro.verify.exact import MinResult, constrained_min


def scalar_constrained_min(
    objective, extents, constraints=(), var_bounds=None,
    cap=exact.ENUMERATION_CAP,
):
    """``constrained_min`` as it stood before the lattice evaluation:
    one point at a time through ``itertools.product`` and
    ``Affine.evaluate``."""
    names = exact._used_names(objective, constraints)
    bounds = exact._bounds_of(names, extents, var_bounds)
    if bounds is None:
        return MinResult(None, True)
    if not names:
        for con in constraints:
            if con.const < 0:
                return MinResult(None, True)
        return MinResult(float(objective.const), True, {})
    for con in constraints:
        if max(exact.corner_values(con, bounds)) < 0:
            return MinResult(None, True)
    if not constraints:
        best = None
        witness = None
        obj_names = [n for n in objective.dims() if n in bounds]
        for choice in itertools.product(
            *[bounds[n] for n in obj_names]
        ):
            point = dict(zip(obj_names, choice))
            value = objective.evaluate(point)
            if best is None or value < best:
                best, witness = value, point
        return MinResult(float(best), True, witness)
    points = 1
    for lo, hi in bounds.values():
        points *= hi - lo + 1
        if points > cap:
            break
    if points <= cap:
        best = None
        witness = None
        for choice in itertools.product(
            *[range(lo, hi + 1) for lo, hi in bounds.values()]
        ):
            point = dict(zip(bounds.keys(), choice))
            if any(con.evaluate(point) < 0 for con in constraints):
                continue
            value = objective.evaluate(point)
            if best is None or value < best:
                best, witness = value, point
        if best is None:
            return MinResult(None, True)
        return MinResult(float(best), True, witness)
    return exact._lp_min(objective, constraints, bounds)


def _affine(rng, names, span=3, const_span=6):
    used = rng.sample(names, rng.randint(0, len(names)))
    return Affine.of(
        {n: rng.randint(-span, span) for n in used},
        rng.randint(-const_span, const_span),
    )


def _case(rng):
    """A random box of 1-4 variables, some ranged through
    ``var_bounds`` with negative lower bounds, and 0-3 constraints."""
    names = rng.sample("ijkl", rng.randint(1, 4))
    extents, var_bounds = {}, {}
    for name in names:
        kind = rng.random()
        if kind < 0.15:
            extents[name] = 1  # a single-point axis
        elif kind < 0.6:
            extents[name] = rng.randint(1, 7)
        else:
            lo = rng.randint(-5, 3)
            var_bounds[name] = (lo, lo + rng.randint(0, 6))
            # a shadowed extent: var_bounds must win
            if rng.random() < 0.3:
                extents[name] = rng.randint(1, 4)
    shape = rng.random()
    if shape < 0.2:
        # Tied minima: the objective ignores some constrained axes.
        objective = _affine(rng, names[:1])
    else:
        objective = _affine(rng, names)
    constraints = [
        _affine(rng, names) for _ in range(rng.randint(0, 3))
    ]
    if shape > 0.85 and names:
        # Empty for want of an integer point, not of a vertex:
        # 2n - 1 >= 0 and 1 - 2n >= 0 meet only at n = 1/2.
        n = names[0]
        constraints += [Affine.of({n: 2}, -1), Affine.of({n: -2}, 1)]
    return objective, extents, constraints, var_bounds or None


@pytest.mark.parametrize("seed", range(8))
def test_same_result_as_the_scalar_enumerator(seed):
    rng = random.Random(20120611 + seed)
    empties = ties = 0
    for _ in range(80):
        objective, extents, constraints, var_bounds = _case(rng)
        want = scalar_constrained_min(
            objective, extents, constraints, var_bounds
        )
        got = constrained_min(
            objective, extents, constraints, var_bounds=var_bounds
        )
        assert got == want, (objective, extents, constraints, var_bounds)
        assert type(got.value) is type(want.value)
        if got.witness is not None:
            assert all(type(v) is int for v in got.witness.values())
            assert list(got.witness) == list(want.witness)
        empties += got.empty
        ties += not got.empty and bool(constraints) and len(
            objective.dims()
        ) < len(got.witness)
    assert empties and ties  # the generator reaches both


def test_tied_minima_take_the_first_point_in_lexicographic_order():
    # min 0 over i + j >= 3 in a 4x4 box: (0, 3) comes first.
    result = constrained_min(
        Affine.constant(0), {"i": 4, "j": 4},
        [Affine.of({"i": 1, "j": 1}, -3)],
    )
    assert result == MinResult(0.0, True, {"i": 0, "j": 3})


def test_cap_is_inclusive_and_one_more_point_takes_the_lp():
    objective = Affine.of({"i": 1, "j": 1})
    constraints = [Affine.of({"i": 1, "j": -1}, -2)]
    extents = {"i": 6, "j": 5}
    at_cap = constrained_min(objective, extents, constraints, cap=30)
    assert at_cap == scalar_constrained_min(
        objective, extents, constraints, cap=30
    )
    assert at_cap == MinResult(2.0, True, {"i": 2, "j": 0})
    over = constrained_min(objective, extents, constraints, cap=29)
    assert over == scalar_constrained_min(
        objective, extents, constraints, cap=29
    )
    assert not over.exact and over.witness is None


def test_values_beyond_int64_stay_exact():
    big = 2 ** 70
    objective = Affine.of({"i": big})
    constraints = [Affine.of({"i": 1}, -2)]
    got = constrained_min(objective, {"i": 5}, constraints)
    assert got == scalar_constrained_min(objective, {"i": 5}, constraints)
    assert got == MinResult(float(2 * big), True, {"i": 2})
    shifted = constrained_min(
        Affine.of({"k": -1}), {}, [Affine.of({"k": 1}, -big)],
        var_bounds={"k": (big - 1, big + 3)},
    )
    assert shifted == MinResult(float(-big - 3), True, {"k": big + 3})


def test_nussinov_verdict_evaluates_per_site_not_per_point(monkeypatch):
    """Each ranged call site of Nussinov spans 41 x 41 x 39 lattice
    points at length 40; the verifier may consult ``Affine.evaluate``
    for the box vertices of each site, never for the points."""
    from repro.analysis.descent import extract_descents
    from repro.analysis.domain import Domain
    from repro.apps.rna_folding import nussinov_function
    from repro.schedule.schedule import Schedule
    from repro.verify.soundness import verify_call_site

    func = nussinov_function()
    domain = Domain(func.dim_names, (41, 41))
    schedule = Schedule(func.dim_names, (-1, 1))
    descents = extract_descents(func)
    calls = 0
    evaluate = Affine.evaluate

    def counting(self, values):
        nonlocal calls
        calls += 1
        return evaluate(self, values)

    monkeypatch.setattr(Affine, "evaluate", counting)
    verdicts = [verify_call_site(d, schedule, domain) for d in descents]
    assert all(v.ok and v.exact for v in verdicts)
    assert any(d.binders for d in descents)
    assert calls <= 16 * len(descents)  # 24 today, not 131 118
