"""A single function run by the group evaluators, as a group of one.

The validity condition for one function (Section 4.5) is the group
compatibility criterion ``S_f(x) - S_g(r(x)) > 0`` with ``g = f``, so
the interpreted references for groups serve single functions too:
wrap the schedule as ``MutualSchedule({f: FunctionSchedule(s, 0)})``.
"""

from repro.runtime.mutual import MutualLockStep, MutualTabulator
from repro.schedule.mutual_rec import (
    FunctionSchedule,
    MutualSchedule,
    brute_force_mutual_valid,
)


def group_of_one(func, schedule):
    """``schedule`` as the one member of ``func``'s group."""
    return MutualSchedule({func.name: FunctionSchedule(schedule, 0)})


def _evaluate(engine, func, bindings, schedule, initial):
    name = func.name
    tables = engine(
        {name: func},
        {name: bindings},
        group_of_one(func, schedule),
        initial={name: initial} if initial else None,
    ).run()
    return tables[name]


def tabulate(func, bindings, schedule, initial=None):
    """Serial bottom-up table of ``func`` in ``schedule`` order."""
    return _evaluate(MutualTabulator, func, bindings, schedule, initial)


def lockstep(func, bindings, schedule, initial=None):
    """The table under barrier semantics; raises ``MutualRaceError``
    when a cell reads one its partition cannot have waited for."""
    return _evaluate(MutualLockStep, func, bindings, schedule, initial)


def edges_valid(schedule, func, domain):
    """Every concrete call edge of ``domain`` goes to an earlier
    partition."""
    return brute_force_mutual_valid(
        group_of_one(func, schedule),
        {func.name: func},
        {func.name: domain},
    )
