"""Contraction coloring for degenerate minor-closed families."""

import gc
import hashlib
import itertools
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import oddcolor

from conftest import assert_tables_recount, random_graph
from oddcolor import coloring, minor_closed
from oddcolor.coloring import EngineInvariantError, OddTracker, is_odd_coloring
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


def stacked_triangulation(n: int, seed: int) -> Graph:
    """Random planar stacked triangulation: each new vertex splits a face."""
    rng = random.Random(seed)
    edges = [(0, 1), (1, 2), (0, 2)]
    faces = [(0, 1, 2)]
    for v in range(3, n):
        i = rng.randrange(len(faces))
        a, b, c = faces[i]
        edges += [(a, v), (b, v), (c, v)]
        faces[i] = (a, b, v)
        faces += [(b, c, v), (a, c, v)]
    return Graph.from_edges(n, edges)


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

    def test_isolated_vertices_build_no_adjacency(self, monkeypatch):
        # only the 3-vertex path is contracted; each of the 1,997 isolated
        # vertices is its own base, with an empty trace
        built = []

        class Counted(minor_closed.MutableAdjacency):
            def __init__(self, g, vs):
                built.append(1)
                super().__init__(g, vs)

        monkeypatch.setattr(minor_closed, "MutableAdjacency", Counted)
        g = Graph.from_edges(2000, [(0, 1), (1, 2)])
        c, traces = odd_color_minor_closed(g, 1)
        assert len(built) == 1
        assert is_odd_coloring(g, c) and len(traces) == 1998
        assert [(t.steps, t.base) for t in traces[1:]] == [([], v) for v in range(3, 2000)]

    def test_not_degenerate_detected(self):
        with pytest.raises(NotDegenerateError):
            odd_color_minor_closed(complete(4), 1)

    def test_broken_extension_raises(self, monkeypatch):
        # every vertex gets color 1, so the kept endpoint's color shows up
        # twice on a 2-vertex's neighborhood; the check must survive -O
        monkeypatch.setattr(coloring, "smallest_free", lambda banned, k: 1)
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

    def test_tables_match_recount_after_every_unmerge(self, monkeypatch):
        cases = [(random_tree(60, s), 1) for s in range(5)]
        cases += [(random_outerplanar(60, s), 2) for s in range(5)]
        cases += [(stacked_triangulation(60, s), 5) for s in range(5)]
        for g, d in cases:
            # the graph each unmerge must leave, contracted independently
            _, traces = odd_color_minor_closed(g, d)
            expected = []
            for comp, trace in zip(connected_components(g), traces):
                cur, before = g.subgraph(comp), []
                for x, y in trace.steps:
                    before.append(cur)
                    cur, _ = cur.contract(x, y)
                expected += reversed(before)

            class Checked(OddTracker):
                def unmerge(self, x, y, row, gained):
                    super().unmerge(x, y, row, gained)
                    assert_tables_recount(self, expected.pop(0))

            with monkeypatch.context() as m:
                m.setattr(minor_closed, "OddTracker", Checked)
                odd_color_minor_closed(g, d)
            assert expected == []

    def test_thousand_random_trees_use_three_colors(self):
        for seed in range(1000):
            g = random_tree(2 + seed % 49, seed)
            c, _ = odd_color_minor_closed(g, 1)
            assert is_odd_coloring(g, c)
            assert max(c.colors_used()) <= 3

    def test_output_pinned(self):
        # digests of the colorings and traces of the engine that contracted
        # by copying the whole graph at every step
        three = Graph.from_edges(
            22,
            [(i, (i + 1) % 7) for i in range(7)]
            + [(i, i + 1) for i in range(7, 15)]
            + [(16, i) for i in range(17, 22)],
        )
        cases = [
            (random_tree(256, 7), 1),
            (random_outerplanar(256, 7), 2),
            (stacked_triangulation(256, 7), 5),
            (path(500), 1),
            (star(300), 1),
            (three, 2),
            # merges that raise degrees, so stale heap entries must be skipped
            (random_graph(60, 0.1, seed=11), 59),
        ]
        digests = [
            "138f0b07f6a1dd66e7cb70e966244b2e5258414812d1eae5cf04cc69e512ba5f",
            "0115e88150f44ae44670c681c5057ba533b4bd3bf73b589ef5c210bc9fbade1d",
            "87f3d2c4ceb4df6282b92c77752e3aba9f084948fc6bb30bc17f8fef060b4561",
            "7127d505d16066931771b5598360031d80b77766341527f88fd817d2f5c88835",
            "5d11c8dfa6721585bac1231017fc1c2df465a5f011a4f8ed6eccb5cc01c7b7bb",
            "7482e4db6e725373d9fd2a64c4e9696b2c3ea1421db13b6cb5f715c031a25758",
            "eefa8dbee71c27558e6d66df846dd40e83bf9909c43a02a64e844d974eb465a2",
        ]
        for (g, d), want in zip(cases, digests):
            c, traces = odd_color_minor_closed(g, d)
            got = repr((sorted(c.assign.items()), [(t.steps, t.base) for t in traces]))
            assert hashlib.sha256(got.encode()).hexdigest() == want

    def test_scale_under_memory_cap(self):
        # a path and a star of 10**5 vertices, under a 1 GiB address-space cap
        script = (
            "import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from oddcolor.coloring import is_odd_coloring\n"
            "from oddcolor.graphs import path, star\n"
            "from oddcolor.minor_closed import odd_color_minor_closed\n"
            "for g in (path(10**5), star(10**5)):\n"
            "    c, _ = odd_color_minor_closed(g, 1)\n"
            "    assert is_odd_coloring(g, c) and max(c.colors_used()) == 3\n"
            "print('ok')\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(oddcolor.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "ok\n"

    @pytest.mark.parametrize(
        "build, d, bound",
        [
            pytest.param(lambda: path(2 * 10**4), 1, 560, id="path"),
            pytest.param(lambda: random_tree(2 * 10**4, 1), 1, 590, id="random_tree"),
            pytest.param(lambda: random_outerplanar(2 * 10**4, 1), 2, 720, id="random_outerplanar"),
        ],
    )
    def test_peak_bytes_per_vertex(self, build, d, bound):
        # traced peak of the whole run; one mask per vertex keeps each case
        # near 485, 517 and 649 B, where a count list per vertex read 631,
        # 664 and 790 (CPython 3.10 to 3.13)
        g = build()
        gc.collect()
        tracemalloc.start()
        try:
            odd_color_minor_closed(g, d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / g.n <= bound


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

    def test_exactly_the_graphs_the_engine_refuses_at_d2(self):
        # odd_color_k4_minor_free relies on this instead of a pre-check
        refusals = 0
        for seed in range(300):
            g = random_graph(1 + seed % 14, 0.1 + 0.05 * (seed % 7), seed=seed)
            try:
                odd_color_minor_closed(g, 2)
                refused = False
            except NotDegenerateError:
                refused = True
            assert has_k4_minor(g) == refused
            refusals += refused
        assert 30 <= refusals <= 270

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
