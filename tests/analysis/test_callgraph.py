"""Tests for call-graph construction and recursive grouping."""

import sys

import networkx as nx

from repro.analysis.callgraph import (
    call_graph,
    group_of,
    recursive_groups,
)
from repro.lang.parser import parse_program
from repro.lang.typecheck import check_program


def functions_of(src):
    return check_program(parse_program(src)).functions


class TestCallGraph:
    def test_edges(self):
        funcs = functions_of(
            "int f(int n) = if n == 0 then 0 else g(n - 1)\n"
            "int g(int n) = if n == 0 then 0 else g(n - 1)\n"
        )
        graph = call_graph(funcs)
        assert graph.has_edge("f", "g")
        assert graph.has_edge("g", "g")
        assert not graph.has_edge("g", "f")

    def test_isolated_function_still_a_node(self):
        funcs = functions_of("int f(int n) = n + 1")
        graph = call_graph(funcs)
        assert "f" in graph.nodes
        assert graph.number_of_edges() == 0

    def test_calls_in_reductions_counted(self):
        funcs = functions_of(
            "int f(int i, int j) = if j < i + 2 then 0 else "
            "max(k in i+1 .. j-1 : g(i, k))\n"
            "int g(int i, int j) = if j < i + 2 then 0 else "
            "f(i, j - 1)\n"
        )
        graph = call_graph(funcs)
        assert graph.has_edge("f", "g")
        assert graph.has_edge("g", "f")


class TestGroups:
    def test_groups_ordered_callees_first(self):
        """Reverse topological: a leaf recursion precedes its callers."""
        funcs = functions_of(
            "int inner(int n) = if n == 0 then 0 else inner(n - 1)\n"
            "int outer(int n) = if n == 0 then 0 else "
            "outer(n - 1) + inner(n - 1)\n"
        )
        groups = recursive_groups(funcs)
        assert groups.index(("inner",)) < groups.index(("outer",))

    def test_multiple_disjoint_groups(self):
        funcs = functions_of(
            "int a(int n) = if n == 0 then 0 else b(n - 1)\n"
            "int b(int n) = if n == 0 then 0 else a(n - 1)\n"
            "int c(int n) = if n == 0 then 0 else c(n - 1)\n"
        )
        groups = recursive_groups(funcs)
        assert ("a", "b") in groups
        assert ("c",) in groups

    def test_group_of_member(self):
        checked = check_program(parse_program(
            "int a(int n) = if n == 0 then 0 else b(n - 1)\n"
            "int b(int n) = if n == 0 then 0 else a(n - 1)\n"
        ))
        assert group_of(checked, "a") == ("a", "b")
        assert group_of(checked, "b") == ("a", "b")

    def test_group_of_nonrecursive(self):
        checked = check_program(parse_program("int f(int n) = n"))
        assert group_of(checked, "f") == ("f",)


class TestComponents:
    """``recursive_groups`` finds its own components; networkx, which
    it no longer imports, is the oracle."""

    @staticmethod
    def groups_of(monkeypatch, edges):
        monkeypatch.setattr(
            "repro.analysis.callgraph._callees", lambda functions: edges
        )
        return recursive_groups(dict.fromkeys(edges))

    def test_random_graphs_match_networkx(self, monkeypatch):
        import random

        rng = random.Random(24)
        for _ in range(300):
            names = [f"f{k}" for k in range(rng.randint(1, 10))]
            edges = {
                name: rng.choices(names, k=rng.randint(0, 3))
                for name in names
            }
            groups = self.groups_of(monkeypatch, edges)
            graph = nx.DiGraph(
                [(u, v) for u, vs in edges.items() for v in vs]
            )
            graph.add_nodes_from(names)
            expected = {
                tuple(sorted(c))
                for c in nx.strongly_connected_components(graph)
                if len(c) > 1 or graph.has_edge(*list(c) * 2)
            }
            assert set(groups) == expected
            assert len(groups) == len(expected)
            place = {
                name: k for k, group in enumerate(groups)
                for name in group
            }
            for u, v in graph.edges:
                if u in place and v in place:
                    assert place[v] <= place[u]  # callees first

    def test_call_chain_deeper_than_the_interpreter_stack(
        self, monkeypatch
    ):
        depth = 4 * sys.getrecursionlimit()
        names = [f"f{k}" for k in range(depth)]
        chain = {a: [b] for a, b in zip(names, names[1:])}
        chain[names[-1]] = [names[-1]]
        assert self.groups_of(monkeypatch, chain) == [(names[-1],)]
        chain[names[-1]] = [names[0]]
        assert self.groups_of(monkeypatch, chain) == [
            tuple(sorted(names))
        ]


class TestCrossDescents:
    def test_free_cross_component(self):
        """A cross-call through an HMM field is free, like self-calls."""
        from repro.analysis.cross import extract_cross_descents

        src = (
            'alphabet dna = "acgt"\n'
            "prob f(hmm h, state[h] s, seq[*] x, index[x] i) =\n"
            "  if i == 0 then 1.0\n"
            "  else sum(t in s.transitionsto : g(t.start, i - 1))\n"
            "prob g(hmm h, state[h] s, seq[*] x, index[x] i) =\n"
            "  if i == 0 then 1.0 else f(s, i - 1)\n"
        )
        checked = check_program(parse_program(src))
        funcs = {n: checked.function(n) for n in ("f", "g")}
        (descent,) = extract_cross_descents(funcs["f"], funcs)
        assert descent.callee == "g"
        assert descent.components[0].is_free
        assert str(descent.components[1].affine) == "i - 1"

    def test_ranged_cross_component(self):
        from repro.analysis.cross import extract_cross_descents

        src = (
            "int f(int i, int j) = if j < i + 2 then 0 else "
            "max(k in i+1 .. j-1 : g(i, k))\n"
            "int g(int i, int j) = if j < i + 2 then 0 else "
            "f(i, j - 1)\n"
        )
        checked = check_program(parse_program(src))
        funcs = {n: checked.function(n) for n in ("f", "g")}
        (descent,) = extract_cross_descents(funcs["f"], funcs)
        assert descent.components[1].is_ranged
        (binder,) = descent.binders
        assert binder.name == "k"

    def test_str_rendering(self):
        from repro.analysis.cross import extract_cross_descents

        funcs = functions_of(
            "int f(int n) = if n == 0 then 0 else g(n - 1)\n"
            "int g(int n) = n\n"
        )
        (descent,) = extract_cross_descents(funcs["f"], funcs)
        assert "f -> g" in str(descent)
