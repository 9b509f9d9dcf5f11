"""Contraction coloring for degenerate minor-closed families."""

import itertools

import pytest

from conftest import random_graph
from oddcolor import minor_closed
from oddcolor.coloring import EngineInvariantError, is_odd_coloring
from oddcolor.graphs import Graph, complete, connected_components, cycle, path, star
from oddcolor.generators import random_outerplanar, random_tree
from oddcolor.minor_closed import (
    NotDegenerateError,
    has_k4_minor,
    odd_color_k4_minor_free,
    odd_color_minor_closed,
)


def fan(n: int) -> Graph:
    """Path on 1..n plus an apex 0 joined to every path vertex."""
    edges = [(0, i) for i in range(1, n + 1)]
    edges += [(i, i + 1) for i in range(1, n)]
    return Graph.from_edges(n + 1, edges)


def brute_has_k4_minor(g: Graph) -> bool:
    """Four disjoint connected vertex sets, pairwise joined by an edge."""
    vs = g.vertices()
    n = len(vs)

    def connected(part: list[int]) -> bool:
        sub = g.subgraph(part)
        return len(connected_components(sub)) == 1

    def touching(a: list[int], b: list[int]) -> bool:
        return any(g.has_edge(u, v) for u in a for v in b)

    for labels in itertools.product(range(5), repeat=n):
        parts = [[vs[i] for i in range(n) if labels[i] == j] for j in range(1, 5)]
        if any(not p for p in parts):
            continue
        if all(connected(p) for p in parts) and all(
            touching(parts[i], parts[j]) for i in range(4) for j in range(i + 1, 4)
        ):
            return True
    return False


class TestAlgorithm:
    def test_c5_with_d2(self):
        c, _ = odd_color_minor_closed(cycle(5), 2)
        assert is_odd_coloring(cycle(5), c)
        assert max(c.colors_used()) <= 5

    def test_star_with_d1(self):
        g = star(5)
        c, _ = odd_color_minor_closed(g, 1)
        assert is_odd_coloring(g, c)
        assert max(c.colors_used()) <= 3

    def test_fan_with_d2(self):
        g = fan(5)
        c, _ = odd_color_minor_closed(g, 2)
        assert is_odd_coloring(g, c)
        assert max(c.colors_used()) <= 5

    def test_disconnected_components_independent(self):
        g = Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)])
        c, traces = odd_color_minor_closed(g, 1)
        assert is_odd_coloring(g, c)
        assert len(traces) == 3

    def test_single_vertex(self):
        g = Graph.from_edges(1, [])
        c, _ = odd_color_minor_closed(g, 1)
        assert c.assign == {0: 1}

    def test_not_degenerate_detected(self):
        with pytest.raises(NotDegenerateError):
            odd_color_minor_closed(complete(4), 1)

    def test_broken_extension_raises(self, monkeypatch):
        # every vertex gets color 1, so the kept endpoint's color shows up
        # twice on a 2-vertex's neighborhood; the check must survive -O
        monkeypatch.setattr(minor_closed, "greedy_extend", lambda g, c, v, extra=(): 1)
        with pytest.raises(EngineInvariantError, match="appears 2 times"):
            odd_color_minor_closed(cycle(5), 2)

    def test_trace_replays(self):
        g = fan(4)
        _, traces = odd_color_minor_closed(g, 2)
        (trace,) = traces
        cur = g
        for x, y in trace.steps:
            assert cur.has_edge(x, y)
            cur, _ = cur.contract(x, y)
        assert cur.n == 1 and cur.vertices() == [trace.base]

    def test_thousand_random_trees_use_three_colors(self):
        for seed in range(1000):
            g = random_tree(2 + seed % 49, seed)
            c, _ = odd_color_minor_closed(g, 1)
            assert is_odd_coloring(g, c)
            assert max(c.colors_used()) <= 3


class TestK4MinorFree:
    def test_k4_has_its_minor(self):
        assert has_k4_minor(complete(4))
        assert has_k4_minor(complete(5))

    def test_cycles_and_trees_do_not(self):
        assert not has_k4_minor(cycle(9))
        assert not has_k4_minor(path(9))

    def test_fan_is_k4_minor_free(self):
        assert not has_k4_minor(fan(6))

    def test_k4_subdivision_detected(self):
        # K4 with every edge subdivided once still has the minor
        from oddcolor.graphs import subdivided_complete

        assert has_k4_minor(subdivided_complete(4))

    @pytest.mark.parametrize("seed", range(12))
    def test_against_brute_force(self, seed):
        g = random_graph(6, 0.5, seed=500 + seed)
        assert has_k4_minor(g) == brute_has_k4_minor(g)

    def test_pipeline_on_outerplanar(self):
        g = random_outerplanar(12, seed=4)
        c, _ = odd_color_k4_minor_free(g)
        assert is_odd_coloring(g, c)
        assert max(c.colors_used()) <= 5

    def test_pipeline_rejects_k4(self):
        with pytest.raises(ValueError):
            odd_color_k4_minor_free(complete(4))

    def test_single_edge_two_colors(self):
        c, _ = odd_color_k4_minor_free(path(2))
        assert sorted(c.colors_used()) == [1, 2]
