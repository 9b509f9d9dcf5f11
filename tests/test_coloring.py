"""Verifier, tau_o, forbidden sets, greedy extension, incremental tracker."""

import random
import time
import tracemalloc
from collections import Counter

import pytest

from conftest import assert_tables_recount, random_graph
from oddcolor.coloring import (
    Coloring,
    EngineInvariantError,
    OddTracker,
    PartialColoringError,
    forbidden_set,
    greedy_extend,
    is_odd_coloring,
    odd_colors,
    tau_o,
)
from oddcolor.exact import exists_odd_k_coloring
from oddcolor.generators import random_outerplanar
from oddcolor.graphs import Graph, cycle, path
from oddcolor.minor_closed import odd_color_minor_closed


def recount_failure(g, c):
    """Independent from-definition recount: why c is not an odd coloring
    of g ("improper" or "no odd color"), or None when it is one."""
    for u, v in g.edges():
        if c.assign[u] == c.assign[v]:
            return "improper"
    for v in g.vertices():
        if g.degree(v) == 0:
            continue
        counts = Counter(c.assign[u] for u in g.neighbors(v))
        if not any(m % 2 for m in counts.values()):
            return "no odd color"
    return None


def recount_is_odd(g, c):
    return recount_failure(g, c) is None


class TestIsOddColoring:
    def test_rainbow_c5(self):
        assert is_odd_coloring(cycle(5), Coloring(5, {i: i + 1 for i in range(5)}))

    def test_c4_two_coloring_fails(self):
        assert not is_odd_coloring(cycle(4), Coloring(4, {0: 1, 1: 2, 2: 1, 3: 2}))

    def test_p3_middle_sees_double(self):
        assert not is_odd_coloring(path(3), Coloring(3, {0: 1, 1: 2, 2: 1}))

    def test_improper_fails(self):
        assert not is_odd_coloring(path(2), Coloring(2, {0: 1, 1: 1}))

    def test_partial_raises(self):
        with pytest.raises(PartialColoringError):
            is_odd_coloring(path(2), Coloring(2, {0: 1}))

    def test_one_vertex_list(self, monkeypatch):
        # the totality check and the walk share one sorted vertex list
        g, calls, vertices = cycle(5), [], Graph.vertices
        monkeypatch.setattr(Graph, "vertices", lambda h: calls.append(h) or vertices(h))
        assert is_odd_coloring(g, Coloring(5, {i: i + 1 for i in range(5)}))
        assert calls == [g]

    def test_isolated_vertices_exempt(self):
        g = Graph.from_edges(3, [(0, 1)])
        assert is_odd_coloring(g, Coloring(2, {0: 1, 1: 2, 2: 1}))

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_recount(self, seed):
        rng = random.Random(seed)
        g = random_graph(8, 0.4, seed=seed)
        cases = [(g, Coloring(4, {v: rng.randint(1, 4) for v in g.vertices()}))]
        # an engine's odd coloring of an outerplanar graph with two isolated
        # vertices, then every way of recoloring one of its vertices
        h = random_outerplanar(12, seed)
        h = Graph({**{v: h.neighbors(v) for v in h.vertices()}, 12: (), 13: ()})
        odd, _ = odd_color_minor_closed(h, 2)
        cases.append((h, odd))
        for v in h.vertices():
            cases += [(h, odd.set(v, col)) for col in range(1, odd.k + 1)]
        reached = set()
        for g, c in cases:
            why = recount_failure(g, c)
            assert is_odd_coloring(g, c) == (why is None)
            if why is None and any(g.degree(v) == 0 for v in g.vertices()):
                why = "isolated vertices exempt"
            reached.add(why)
        assert {"improper", "no odd color", "isolated vertices exempt"} <= reached


class TestTauO:
    def test_unique_odd(self):
        g = path(4)  # neighbors of 1 are 0, 2
        c = Coloring(3, {0: 1, 2: 1, 3: 2})
        # vertex 1 sees {1, 1}: no odd color
        assert tau_o(g, c, 1) is None
        # vertex 2 sees colored neighbors {1: color 2? no} -- recheck directly
        g2 = Graph.from_edges(4, [(0, 3), (1, 3), (2, 3)])
        c2 = Coloring(3, {0: 1, 1: 1, 2: 2})
        assert tau_o(g2, c2, 3) == 2

    def test_two_odd_colors_undefined(self):
        g = Graph.from_edges(3, [(0, 2), (1, 2)])
        c = Coloring(3, {0: 1, 1: 2})
        assert odd_colors(g, c, 2) == {1, 2}
        assert tau_o(g, c, 2) is None

    def test_no_colored_neighbors(self):
        assert tau_o(path(2), Coloring(2, {}), 0) is None


class TestForbiddenSet:
    def test_colors_and_tau_o(self):
        # v = 0; neighbors 1 (color 1) and 2 (color 2); 1 sees {3, 3, 4},
        # so tau_o(1) = 4; 2 sees {5, 5}, so tau_o(2) is undefined.
        edges = [(0, 1), (0, 2), (1, 3), (1, 4), (1, 5), (2, 6), (2, 7)]
        g = Graph.from_edges(8, edges)
        c = Coloring(9, {1: 1, 2: 2, 3: 3, 4: 3, 5: 4, 6: 5, 7: 5})
        assert forbidden_set(g, c, 0) == {1, 2, 4}

    def test_isolated_empty(self):
        g = Graph.from_edges(1, [])
        assert forbidden_set(g, Coloring(3, {}), 0) == set()

    def test_rainbow_c5_recount(self):
        g = cycle(5)
        c = Coloring(5, {1: 2, 2: 3, 3: 4, 4: 5})
        want = {c.assign[u] for u in g.neighbors(0)}
        for u in g.neighbors(0):
            t = tau_o(g, c, u)
            if t is not None:
                want.add(t)
        assert forbidden_set(g, c, 0) == want


class TestGreedyExtend:
    def test_takes_smallest_free(self):
        g = path(2)
        c = Coloring(5, {1: 2})
        assert greedy_extend(g, c, 0) == 1

    def test_full_palette_fails(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        c = Coloring(3, {1: 1, 2: 2, 3: 3})
        assert greedy_extend(g, c, 0) is None

    def test_unique_color_left_of_23(self):
        # 11 colored neighbors with distinct colors 1..11, each holding a
        # pendant that pins tau_o to 12..22: exactly 22 forbidden colors.
        edges = [(0, u) for u in range(1, 12)] + [(u, u + 11) for u in range(1, 12)]
        g = Graph.from_edges(23, edges)
        assign = {u: u for u in range(1, 12)}
        assign.update({u + 11: u + 11 for u in range(1, 12)})
        c = Coloring(23, assign)
        assert len(forbidden_set(g, c, 0)) == 22
        assert greedy_extend(g, c, 0) == 23

    def test_rainbow_c5_missing_vertex(self):
        g = cycle(5)
        c = Coloring(5, {1: 2, 2: 3, 3: 4, 4: 5})
        got = greedy_extend(g, c, 0)
        assert got == 1

    def test_colored_vertex_rejected(self):
        with pytest.raises(ValueError):
            greedy_extend(path(2), Coloring(2, {0: 1}), 0)

    @pytest.mark.parametrize("seed", range(10))
    def test_success_preserves_neighborhood_oddness(self, seed):
        rng = random.Random(seed)
        g = random_graph(9, 0.35, seed=200 + seed)
        c = Coloring(9, {})
        order = g.vertices()
        rng.shuffle(order)
        for v in order[:-3]:
            got = greedy_extend(g, c, v)
            if got is None:
                continue
            # the extension protects colored neighbors: their unique odd
            # color is in the forbidden set, uncolored ones are not read
            before = {
                u: tau_o(g, c, u)
                for u in g.neighbors(v)
                if u in c.assign and tau_o(g, c, u) is not None
            }
            c = c.set(v, got)
            for u in g.neighbors(v):
                assert c.assign.get(u) != got  # proper at v
            for u in before:
                assert odd_colors(g, c, u), f"killed the odd color of {u}"


class TestOddTracker:
    @pytest.mark.parametrize(
        "run, g",
        [
            (lambda g: odd_color_minor_closed(g, 50_000)[0], path(10)),
            (lambda g: exists_odd_k_coloring(g, 200_000), cycle(50)),
        ],
        ids=["minor-closed-d50000", "exact-k200000"],
    )
    def test_palette_far_beyond_colors_used(self, run, g):
        # the tables are sized by the colors a run uses, not by the palette
        tracemalloc.start()
        try:
            start = time.perf_counter()
            c = run(g)
            seconds = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert seconds < 1 and peak < 10 * 2**20, (seconds, peak)
        assert c.k > 50_000 and is_odd_coloring(g, c)

    @pytest.mark.parametrize("seed", range(8))
    def test_incremental_matches_recompute(self, seed):
        rng = random.Random(seed)
        g = random_graph(10, 0.4, seed=300 + seed)
        tr = OddTracker(g, 5)
        colored = []
        for _ in range(60):
            if colored and rng.random() < 0.4:
                v = colored.pop(rng.randrange(len(colored)))
                tr.unassign(v)
            else:
                free = [v for v in g.vertices() if v not in tr.color]
                if not free:
                    continue
                v = rng.choice(free)
                tr.assign(v, rng.randint(1, 5))
                colored.append(v)
            assert_tables_recount(tr, g)

    def test_extend_matches_greedy_extend(self):
        # the unwind's greedy rule against the stateless one, on tables
        # restored from a random partial coloring
        outcomes = set()
        for seed in range(200):
            rng = random.Random(seed)
            g = random_graph(rng.randint(1, 12), rng.choice([0.2, 0.4, 0.7]), seed=900 + seed)
            k = rng.randint(1, 6)
            c = Coloring(k, {v: rng.randint(1, k) for v in g.vertices() if rng.random() < 0.6})
            for v in (v for v in g.vertices() if v not in c):
                extra = set(rng.sample(range(1, k + 1), rng.randint(0, k)))
                tr = OddTracker(None, k)
                tr.color.update(c.assign)
                for u in g.vertices():
                    tr.restore(u, g.neighbors(u))
                want = greedy_extend(g, c, v, extra)
                row = [u for u in g.neighbors(v) if u in c]
                outcomes.add(want is None)
                if want is None:
                    with pytest.raises(EngineInvariantError):
                        tr.extend(v, row, extra)
                    continue
                assert tr.extend(v, row, extra) == want
                assert_tables_recount(tr, g, [*c.assign, v])
        assert outcomes == {True, False}
