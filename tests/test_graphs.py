"""Graph structure: degeneracy, bridges, contraction, deletion."""

import gc
import hashlib
import tracemalloc

import pytest

from conftest import random_graph
from oddcolor.graphs import (
    Graph,
    MutableAdjacency,
    NotAnEdgeError,
    NotAVertexError,
    bridges,
    complete,
    connected_components,
    cycle,
    degeneracy_order,
    path,
    star,
    subdivided_complete,
)


def brute_degeneracy(g: Graph) -> int:
    """Max over all nonempty induced subgraphs of the minimum degree."""
    vs = g.vertices()
    best = 0
    for mask in range(1, 1 << len(vs)):
        keep = [vs[i] for i in range(len(vs)) if mask >> i & 1]
        sub = g.subgraph(keep)
        best = max(best, min(sub.degree(v) for v in keep))
    return best


def brute_bridges(g: Graph) -> list[tuple[int, int]]:
    out = []
    base = len(connected_components(g))
    for u, v in g.edges():
        cut = {w: set(g.neighbors(w)) for w in g.vertices()}  # g - uv
        cut[u].remove(v)
        cut[v].remove(u)
        if len(connected_components(Graph(cut))) > base:
            out.append((u, v))
    return out


class TestBasics:
    def test_no_loops(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 0)])

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            Graph({0: [1], 1: []})

    def test_unknown_vertex(self):
        with pytest.raises(NotAVertexError):
            Graph.from_edges(2, [(0, 5)])

    @pytest.mark.parametrize(
        "adj, message",
        [
            pytest.param({0: [1, 0], 1: [0]}, "loop at vertex 0", id="loop"),
            pytest.param({0: [1], 1: [0, 2], 2: []}, r"asymmetric adjacency at edge \(1, 2\)", id="asymmetric"),
            pytest.param({0: [1, 7], 1: [0]}, "neighbor 7 is not a vertex", id="unknown-neighbor"),
            pytest.param({0: [1, 1], 1: [0]}, "vertex 0 lists 1 twice", id="repeated-neighbor"),
        ],
    )
    def test_bad_rows_rejected(self, adj, message):
        with pytest.raises(ValueError, match=message):
            Graph(adj)

    @pytest.mark.parametrize(
        "build, message",
        [
            pytest.param(lambda: Graph({1.5: [], 2: []}), "vertex 1.5 is not an integer", id="fractional-key"),
            pytest.param(lambda: Graph({1: [], "1": []}), "vertex '1' is not an integer", id="keys-sharing-an-id"),
            # keys int() refuses: named, not int()'s own TypeError or message
            pytest.param(lambda: Graph({0: [], None: []}), "vertex None is not an integer", id="none-key"),
            pytest.param(lambda: Graph({0: [], (1,): []}), r"vertex \(1,\) is not an integer", id="tuple-key"),
            pytest.param(lambda: Graph({0: [], "x": []}), "vertex 'x' is not an integer", id="string-key"),
            pytest.param(lambda: Graph({0: [], float("inf"): []}), "vertex inf is not an integer", id="inf-key"),
            pytest.param(lambda: Graph.from_edges(3, [(0, 1.5)]), r"edge \(0, 1.5\) has an endpoint that is not an integer", id="fractional-endpoint"),
            pytest.param(lambda: Graph.from_edges(3, [(None, 1)]), r"edge \(None, 1\) has an endpoint that is not an integer", id="none-endpoint"),
            pytest.param(lambda: Graph.from_edges(3, [(0, float("inf"))]), r"edge \(0, inf\) has an endpoint that is not an integer", id="inf-endpoint"),
        ],
    )
    def test_non_integer_ids_rejected(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    def test_integral_ids_become_ints(self):
        g = Graph({0: [True], 1.0: [0], 2: []})
        assert g.vertices() == [0, 1, 2] and all(type(v) is int for v in g.vertices())
        assert Graph.from_edges(3, [(0, 1.0), (True, 2)]).edges() == [(0, 1), (1, 2)]

    def test_negative_sizes_rejected(self):
        with pytest.raises(ValueError):
            Graph.from_edges(-1, [])
        with pytest.raises(ValueError):
            star(-1)  # leaves + 1 == 0 vertices would pass from_edges

    def test_edges_sorted(self):
        g = Graph.from_edges(3, [(2, 1), (0, 2)])
        assert g.edges() == [(0, 2), (1, 2)]

    def test_rows_are_canonical(self):
        g = Graph({3: [2, 1], 1: {3, 2}, 2: (3, 1), 0: []})
        h = Graph({0: (), 1: [2, 3], 2: [1, 3], 3: [1, 2]})
        assert g.neighbors(3) == (1, 2) and g.neighbors(0) == ()
        assert g == h and hash(g) == hash(h)
        assert g != Graph({0: [1], 1: [0, 2, 3], 2: [1, 3], 3: [1, 2]})

    @pytest.mark.parametrize(
        "derive",
        [
            pytest.param(lambda g: g.subgraph(range(18, 0, -1)), id="subgraph"),
            pytest.param(lambda g: g.contract(*g.edges()[-1])[0], id="contract"),
        ],
    )
    def test_derived_rows_sorted(self, derive):
        g = derive(random_graph(20, 0.4, seed=5))
        for v in g.vertices():
            row = g.neighbors(v)
            assert type(row) is tuple and list(row) == sorted(set(row))

    def test_has_edge_bisects_rows(self):
        g = star(2000)
        assert all(g.has_edge(leaf, 0) and g.has_edge(0, leaf) for leaf in range(1, 2001))
        assert not g.has_edge(1, 2) and not g.has_edge(2000, 1999)
        assert not g.has_edge(0, 2001) and not g.has_edge(2001, 0)

    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(lambda: path(10**4), id="path"),
            # 6-regular: a frozenset row of 5 to 12 ints took 728 bytes
            pytest.param(
                lambda: Graph.from_edges(10**4, [(i, (i + k) % 10**4) for i in range(10**4) for k in (1, 2, 3)]),
                id="circulant-degree-6",
            ),
        ],
    )
    def test_bytes_per_vertex(self, build):
        gc.collect()
        tracemalloc.start()
        try:
            g = build()
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held / g.n <= 250

    def test_named_graphs(self):
        assert cycle(5).num_edges() == 5
        assert path(4).num_edges() == 3
        assert complete(4).num_edges() == 6
        assert star(5).degree(0) == 5
        k5s = subdivided_complete(5)
        assert k5s.n == 5 + 10
        assert k5s.num_edges() == 20


class TestDeleteContract:
    def test_delete_vertex_of_c5(self):
        g = cycle(5).subgraph([1, 2, 3, 4])
        assert g.n == 4
        assert g.edges() == [(1, 2), (2, 3), (3, 4)]  # a path, original ids

    def test_delete_unknown(self):
        with pytest.raises(NotAVertexError):
            cycle(5).subgraph([0, 9])

    def test_contract_triangle_gives_k2(self):
        g, w = cycle(3).contract(0, 1)
        assert w == 1
        assert g.n == 2 and g.num_edges() == 1

    def test_contract_k2_gives_k1(self):
        g, w = path(2).contract(0, 1)
        assert g.n == 1 and g.num_edges() == 0

    def test_contract_c4_gives_triangle(self):
        g, _ = cycle(4).contract(0, 1)
        assert g.n == 3 and g.num_edges() == 3

    def test_contract_non_edge(self):
        with pytest.raises(NotAnEdgeError):
            cycle(4).contract(0, 2)

    def test_contract_merges_parallels(self):
        g, w = cycle(3).contract(0, 1)  # both endpoints saw vertex 2
        assert g.degree(2) == 1


class TestDegeneracy:
    def test_cycle(self):
        assert degeneracy_order(cycle(5))[0] == 2

    def test_tree(self):
        assert degeneracy_order(path(7))[0] == 1
        assert degeneracy_order(star(6))[0] == 1

    def test_k7_star_peels_to_two(self):
        assert degeneracy_order(subdivided_complete(7))[0] == 2

    def test_order_property(self):
        g = random_graph(12, 0.4, seed=3)
        d, order = degeneracy_order(g)
        pos = {v: i for i, v in enumerate(order)}
        for v in g.vertices():
            later = sum(1 for u in g.neighbors(v) if pos[u] > pos[v])
            assert later <= d

    @pytest.mark.parametrize("seed", range(12))
    def test_against_subgraph_oracle(self, seed):
        g = random_graph(8, 0.45, seed=seed)
        assert degeneracy_order(g)[0] == brute_degeneracy(g)

    def test_star_order(self):
        # the hub goes once its degree falls to the leaves' and wins the tie
        assert degeneracy_order(star(50)) == (1, [*range(1, 50), 0, 50])

    def test_orders_pinned(self):
        # digest of the orders from the bucket-scan version of degeneracy_order
        gs = [random_graph(20 + s, 0.1 + 0.05 * (s % 5), s) for s in range(10)]
        got = repr([degeneracy_order(g) for g in gs]).encode()
        want = "6b2f0c3354671e98430afc5e7e6871b91931733c79915127037e4c1baad5c74b"
        assert hashlib.sha256(got).hexdigest() == want


class TestMutableAdjacency:
    # a triangle 0, 1, 2 with a pendant vertex 3 at 0
    G = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (0, 3)])

    def test_merge_reports_row_and_gained(self):
        adj = MutableAdjacency(self.G, self.G.vertices())
        row, gained = adj.merge(0, 1)
        # 2 was a neighbor of both ends, so 1 gains only 3
        assert row == {1, 2, 3} and gained == [3]
        assert adj.rows == {1: {2, 3}, 2: {1}, 3: {1}}
        # 2 and 3 both have degree 1: the lower id wins
        assert adj.pop_min() == 2

    def test_pop_min_skips_stale_entries(self):
        adj = MutableAdjacency(self.G, self.G.vertices())
        assert adj.remove(3) == {0}
        # the heap's least entry, (1, 3), belongs to a removed vertex; then
        # 0, 1 and 2 tie at degree 2 and go by id
        order = []
        while adj.rows:
            order.append(adj.pop_min())
            adj.remove(order[-1])
        assert order == [0, 1, 2]


class TestBridges:
    def test_path_all_bridges(self):
        assert bridges(path(3)) == [(0, 1), (1, 2)]

    def test_cycle_none(self):
        assert bridges(cycle(5)) == []

    def test_two_triangles_joined(self):
        edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)]
        assert bridges(Graph.from_edges(6, edges)) == [(0, 3)]

    @pytest.mark.parametrize("seed", range(20))
    def test_against_removal_oracle(self, seed):
        g = random_graph(10, 0.3, seed=100 + seed)
        assert bridges(g) == brute_bridges(g)
