"""Call graphs over program functions.

Identifies the recursive groups of a checked program: a function on
its own (self-recursion — the paper's base case) or a strongly
connected component of mutually recursive functions (the Section 9
extension, scheduled by :mod:`repro.schedule.mutual_rec`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Mapping, Tuple

from ..lang import ast
from ..lang.typecheck import CheckedFunction, CheckedProgram

if TYPE_CHECKING:
    import networkx as nx


def _callees(
    functions: Mapping[str, CheckedFunction]
) -> Dict[str, List[str]]:
    """The functions each function calls (those given only)."""
    return {
        name: [
            node.func
            for node in ast.walk(func.body)
            if isinstance(node, ast.Call) and node.func in functions
        ]
        for name, func in functions.items()
    }


def call_graph(
    functions: Mapping[str, CheckedFunction]
) -> "nx.DiGraph":
    """Edges ``caller -> callee`` over the given functions."""
    # Imported here: nothing on the run path draws the graph, and
    # networkx is ~50 ms of start-up.
    import networkx as nx

    graph = nx.DiGraph()
    graph.add_nodes_from(functions)
    for name, callees in _callees(functions).items():
        graph.add_edges_from((name, callee) for callee in callees)
    return graph


def recursive_groups(
    functions: Mapping[str, CheckedFunction]
) -> List[Tuple[str, ...]]:
    """The recursive components, in reverse-topological order.

    Singleton components without a self-loop (non-recursive functions)
    are excluded; singletons with a self-loop are ordinary recursions;
    larger components are mutual groups.
    """
    callees = _callees(functions)
    groups: List[Tuple[str, ...]] = []
    # Tarjan's algorithm closes a component only after every
    # component it calls into: callees first, the order asked for.
    # Iterative — a chain of a thousand helpers is a program, not a
    # RecursionError.
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    stack: List[str] = []
    on_stack = set()
    for root in functions:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(callees[root]))]
        while work:
            name, rest = work[-1]
            for callee in rest:
                if callee not in index:
                    index[callee] = low[callee] = len(index)
                    stack.append(callee)
                    on_stack.add(callee)
                    work.append((callee, iter(callees[callee])))
                    break
                if callee in on_stack:
                    low[name] = min(low[name], index[callee])
            else:
                work.pop()
                if work:
                    caller = work[-1][0]
                    low[caller] = min(low[caller], low[name])
                if low[name] == index[name]:
                    members = []
                    while not members or members[-1] != name:
                        members.append(stack.pop())
                    on_stack.difference_update(members)
                    if len(members) > 1 or name in callees[name]:
                        groups.append(tuple(sorted(members)))
    return groups


def is_mutual_group(
    functions: Mapping[str, CheckedFunction], names: Tuple[str, ...]
) -> bool:
    """Is this recursive group larger than one function?"""
    return len(names) > 1


def group_of(
    checked: CheckedProgram, name: str
) -> Tuple[str, ...]:
    """The recursive group containing ``name`` (possibly singleton)."""
    for group in recursive_groups(checked.functions):
        if name in group:
            return group
    return (name,)
