"""Exact solver: oracle values, soundness, pruning and symmetry invariance."""

import itertools

import pytest

from conftest import random_graph
from oddcolor import exact
from oddcolor.coloring import Coloring, is_odd_coloring
from oddcolor.exact import (
    INCONCLUSIVE,
    SearchConfig,
    auto_order,
    chi_o,
    exists_odd_k_coloring,
)
from oddcolor.graphs import Graph, complete, cycle, path, star, subdivided_complete

NO_PRUNE = SearchConfig(forward_check=False)
NO_SYM = SearchConfig(symmetry_breaking=False)


def chi_o_naive(g: Graph) -> int:
    """Enumerate every assignment of k colors for ascending k."""
    n = g.n
    if n == 0:
        return 0
    edges = g.edges()
    nbrs = [sorted(g.neighbors(v)) for v in range(n)]
    active = [v for v in range(n) if nbrs[v]]
    for k in range(1, n + 1):
        for assign in itertools.product(range(k), repeat=n):
            if any(assign[u] == assign[v] for u, v in edges):
                continue
            good = True
            for v in active:
                parity: dict[int, int] = {}
                for u in nbrs[v]:
                    parity[assign[u]] = parity.get(assign[u], 0) ^ 1
                if 1 not in parity.values():
                    good = False
                    break
            if good:
                return k
    raise AssertionError("unreachable: rainbow always works")


class TestOracleValues:
    def test_c5_refutes_four(self):
        assert exists_odd_k_coloring(cycle(5), 4) is None

    def test_c5_witness_at_five(self):
        w = exists_odd_k_coloring(cycle(5), 5)
        assert isinstance(w, Coloring) and is_odd_coloring(cycle(5), w)

    def test_k4(self):
        assert exists_odd_k_coloring(complete(4), 3) is None
        assert isinstance(exists_odd_k_coloring(complete(4), 4), Coloring)

    @pytest.mark.parametrize(
        "g,want",
        [(cycle(5), 5), (cycle(4), 4), (cycle(6), 3), (subdivided_complete(5), 5)],
        ids=["C5", "C4", "C6", "K5*"],
    )
    def test_chi_values(self, g, want):
        assert chi_o(g) == want

    def test_empty_and_trivial(self):
        assert chi_o(Graph.from_edges(0, [])) == 0
        assert chi_o(Graph.from_edges(3, [])) == 1
        assert chi_o(path(2)) == 2


class TestSoundnessCompleteness:
    @pytest.mark.parametrize("seed", range(10))
    def test_witnesses_verify(self, seed):
        g = random_graph(7, 0.4, seed=seed)
        k = chi_o(g)
        w = exists_odd_k_coloring(g, k)
        assert isinstance(w, Coloring) and is_odd_coloring(g, w)

    @pytest.mark.parametrize("seed", range(10))
    def test_agrees_with_naive_enumeration(self, seed):
        g = random_graph(6, 0.45, seed=40 + seed)
        assert chi_o(g) == chi_o_naive(g)

    @pytest.mark.parametrize("seed", range(5))
    def test_exists_matches_brute_force_n8(self, seed):
        g = random_graph(8, 0.3, seed=60 + seed)
        edges = g.edges()
        nbrs = [sorted(g.neighbors(v)) for v in range(8)]
        for k in (2, 3, 4):
            brute = False
            for assign in itertools.product(range(k), repeat=8):
                if any(assign[u] == assign[v] for u, v in edges):
                    continue
                if all(
                    not nbrs[v]
                    or any(
                        sum(1 for u in nbrs[v] if assign[u] == col) % 2
                        for col in set(assign[u] for u in nbrs[v])
                    )
                    for v in range(8)
                ):
                    brute = True
                    break
            got = exists_odd_k_coloring(g, k)
            assert (got is not None) == brute

    @pytest.mark.parametrize("seed", range(6))
    def test_pruning_invariance(self, seed):
        g = random_graph(7, 0.4, seed=80 + seed)
        assert chi_o(g) == chi_o(g, NO_PRUNE)

    @pytest.mark.parametrize("seed", range(6))
    def test_symmetry_invariance(self, seed):
        g = random_graph(6, 0.4, seed=120 + seed)
        assert chi_o(g) == chi_o(g, NO_SYM)

    def test_disconnected(self):
        g = Graph.from_edges(8, [(0, 1), (1, 2), (2, 0), (4, 5), (5, 6), (6, 7), (7, 4)])
        # triangle needs 3, C4 needs 4; the union needs the max
        assert chi_o(g) == 4


class TestConfig:
    def test_node_limit_inconclusive(self):
        got = exists_odd_k_coloring(cycle(5), 4, SearchConfig(node_limit=3))
        assert got is INCONCLUSIVE
        assert chi_o(cycle(5), SearchConfig(node_limit=3)) is INCONCLUSIVE

    def test_max_k_short_circuit(self):
        assert chi_o(cycle(5), SearchConfig(max_k=3)) is INCONCLUSIVE

    def test_auto_order_interleaves_high_degree(self):
        g = subdivided_complete(4)
        order = auto_order(g)
        assert order[0] == 0  # a branch vertex first
        # every branch vertex appears as soon as one of its subdivisions does
        originals = [v for v in order if v < 4]
        assert originals == [0, 1, 2, 3]
        assert set(order[:5]) >= {0, 1}


class TestK7StarShape:
    def test_subdivision_forces_distinct_branch_colors(self):
        # two same-colored branch vertices give their subdivision vertex a
        # doubled neighborhood, which no later choice repairs
        g = subdivided_complete(4)
        assert chi_o(g) == 4

    def test_star_is_easy(self):
        assert chi_o(star(23)) == 2


class TestExplicitStack:
    @pytest.mark.parametrize("n,want", [(1500, 3), (1501, 4)])
    def test_long_cycle(self, n, want):
        # deeper than the default recursion limit: one frame per vertex
        # would raise RecursionError here
        assert chi_o(cycle(n)) == want

    def test_k7_star_node_counts(self, monkeypatch):
        # search nodes per level of the unrelabeled K7*, taken before the
        # recursion became a stack: same order, same pruning, same nodes
        counts = []

        class Counted(exact.OddTracker):
            def assign(self, v, c):
                counts[-1] += 1
                super().assign(v, c)

        monkeypatch.setattr(exact, "OddTracker", Counted)
        g = subdivided_complete(7)
        verdicts = []
        for k in range(1, 8):
            counts.append(0)
            verdicts.append(exists_odd_k_coloring(g, k))
        assert counts == [1, 3, 16, 160, 2270, 37631, 45]
        assert verdicts[:6] == [None] * 6 and is_odd_coloring(g, verdicts[6])
