"""Exact solver: oracle values, soundness, pruning and symmetry invariance."""

import itertools
import random

import pytest

from conftest import assert_tables_recount, random_graph
from oddcolor import exact
from oddcolor.coloring import Coloring, is_odd_coloring, tau_o
from oddcolor.exact import INCONCLUSIVE, SearchConfig, chi_o, exists_odd_k_coloring
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


@pytest.fixture
def levels(monkeypatch):
    """Search nodes of each search started after the fixture: one entry per
    OddTracker, of which every search makes one, counting its assigns."""
    counts = []

    class Counted(exact.OddTracker):
        def __init__(self, g, k):
            super().__init__(g, k)
            counts.append(0)

        def assign(self, v, c):
            counts[-1] += 1
            super().assign(v, c)

    monkeypatch.setattr(exact, "OddTracker", Counted)
    return counts


def disjoint_union(*parts: Graph) -> Graph:
    """The parts side by side, each shifted past the ids of the ones before."""
    adj, base = {}, 0
    for g in parts:
        adj.update({base + v: [base + u for u in g.neighbors(v)] for v in g.vertices()})
        base += g.n
    return Graph(adj)


def relabel(g: Graph, seed: int) -> Graph:
    """g with its vertex ids permuted by a seeded shuffle, the way the
    exact benchmark builds its reference relabelings."""
    vs = g.vertices()
    perm = vs[:]
    random.Random(seed).shuffle(perm)
    m = dict(zip(vs, perm))
    return Graph({m[v]: [m[u] for u in g.neighbors(v)] for v in vs})


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

    @pytest.mark.parametrize(
        "parts", [(star(10), cycle(5)), (star(6), star(6), cycle(5))], ids=["S10+C5", "S6+S6+C5"]
    )
    def test_refutation_stays_in_its_component(self, parts):
        # C5 refutes k = 4 on its own; the earlier stars' colorings are
        # never searched again, so a small budget decides every level
        g = disjoint_union(*parts)
        assert exists_odd_k_coloring(g, 4, SearchConfig(node_limit=200)) is None
        cfg = SearchConfig(node_limit=1000)
        assert chi_o(g, cfg) == 5
        w = exact.min_odd_coloring(g, cfg)
        assert w.k == 5 and is_odd_coloring(g, w)


class TestConfig:
    def test_node_limit_inconclusive(self):
        got = exists_odd_k_coloring(cycle(5), 4, SearchConfig(node_limit=3))
        assert got is INCONCLUSIVE
        assert chi_o(cycle(5), SearchConfig(node_limit=3)) is INCONCLUSIVE

    def test_isolated_vertices_cost_no_node(self, levels):
        # a 3-vertex path among 1,997 isolated vertices searches like path(3)
        g = Graph.from_edges(2000, [(0, 1), (1, 2)])
        assert chi_o(g, SearchConfig(max_k=5, node_limit=500)) == 3
        levels.clear()
        w = exists_odd_k_coloring(g, 3)
        exists_odd_k_coloring(path(3), 3)
        assert levels[0] == levels[1]
        assert is_odd_coloring(g, w) and {w.assign[v] for v in range(3, 2000)} == {1}

    def test_max_k_short_circuit(self, levels):
        # the bound (5) is above max_k, so no level is searched
        assert chi_o(cycle(5), SearchConfig(max_k=3)) is INCONCLUSIVE
        assert levels == []

    @pytest.mark.parametrize("field", ["max_k", "node_limit"])
    @pytest.mark.parametrize("value", [0, -5])
    def test_limits_below_one_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be >= 1"):
            SearchConfig(**{field: value})


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

    def test_k7_star_node_counts(self, levels):
        # search nodes per level of the unrelabeled K7*
        g = subdivided_complete(7)
        verdicts = [exists_odd_k_coloring(g, k) for k in range(1, 8)]
        assert levels == [1, 2, 4, 7, 11, 16, 28]
        assert verdicts[:6] == [None] * 6 and is_odd_coloring(g, verdicts[6])


class TestLowerBound:
    @pytest.mark.parametrize("seed", range(100))
    def test_never_above_chi_o(self, seed):
        g = random_graph(2 + seed % 6, 0.15 + 0.1 * (seed % 7), seed=500 + seed)
        assert exact._lower_bound(g) <= chi_o_naive(g)

    @pytest.mark.parametrize(
        "g,want",
        [(cycle(4), 4), (cycle(5), 5), (cycle(7), 3), (star(23), 2)],
        ids=["C4", "C5", "C7", "star(23)"],
    )
    def test_named_graphs(self, g, want):
        # tight except on C7, whose chi_o is 4: every longer cycle gets 3
        assert exact._lower_bound(g) == want

    @pytest.mark.parametrize("p", range(3, 8))
    def test_tight_on_subdivided_complete(self, p):
        # the branch vertices form a clique of the conflict graph, whatever
        # the labels
        for seed in range(24):
            assert exact._lower_bound(relabel(subdivided_complete(p), seed)) == p

    def test_k7_star_takes_one_level(self, levels):
        cfg = SearchConfig(node_limit=50_000)
        for seed in range(24):
            levels.clear()
            assert chi_o(relabel(subdivided_complete(7), seed), cfg) == 7
            assert len(levels) == 1


def pendant_cycle(seed: int) -> Graph:
    """An 80-cycle with 8 pendant leaves at seeded cycle vertices."""
    rng = random.Random(seed)
    edges = [(i, (i + 1) % 80) for i in range(80)]
    edges += [(80 + j, rng.randrange(80)) for j in range(8)]
    return Graph.from_edges(88, edges)


def chorded_cycle(seed: int) -> Graph:
    """A 60-cycle with 4 distinct seeded chords."""
    rng = random.Random(seed)
    edges = {(i, (i + 1) % 60) for i in range(60)}
    chords = 0
    while chords < 4:
        a, b = sorted(rng.sample(range(60), 2))
        if b - a > 1 and (a, b) != (0, 59) and (a, b) not in edges:
            edges.add((a, b))
            chords += 1
    return Graph.from_edges(60, sorted(edges))


class TestBranching:
    @pytest.mark.parametrize("p", [6, 7])
    def test_label_invariance(self, levels, p):
        # every level 1..p of every reference relabeling is decided, in the
        # same nodes per level: the refutations below the lower bound too,
        # which chi_o itself no longer searches
        cfg = SearchConfig(node_limit=50_000)
        per_relabeling = set()
        for seed in range(24):
            g = relabel(subdivided_complete(p), seed)
            levels.clear()
            found = [exists_odd_k_coloring(g, k, cfg) for k in range(1, p + 1)]
            assert found[:-1] == [None] * (p - 1)
            assert isinstance(found[-1], Coloring)
            per_relabeling.add(tuple(levels))
        assert len(per_relabeling) == 1

    @pytest.mark.parametrize(
        "family,want,static_order_total",
        [
            (pendant_cycle, [3] * 15, 4_032),
            (chorded_cycle, [3, 4, 3, 3, 3, 4, 3, 3, 4, 4, 4, 3, 4, 4, 3], 25_447),
        ],
    )
    def test_sparse_families(self, levels, family, want, static_order_total):
        # a few high-degree vertices on a long cycle: the former fixed
        # highest-degree-first order took static_order_total nodes here
        cfg = SearchConfig(node_limit=50_000)
        assert [chi_o(family(seed), cfg) for seed in range(15)] == want
        assert sum(levels) <= static_order_total

    @pytest.mark.parametrize(
        "cfg", [SearchConfig(), NO_PRUNE, NO_SYM], ids=["default", "no-prune", "no-sym"]
    )
    def test_pick_matches_full_scan(self, monkeypatch, cfg):
        # at every node, the branch vertex is the best of all uncolored
        # vertices under the domain rule, computed from scratch
        def full_scan(g, t):
            c = t.as_coloring()
            used = max(c.assign.values(), default=0)
            top = min(t.k, used + 1) if cfg.symmetry_breaking else t.k

            def key(v):
                banned = {c.assign[u] for u in g.neighbors(v) if u in c}
                if cfg.forward_check:
                    for u in g.neighbors(v):
                        last = all(w in c for w in set(g.neighbors(u)) - {v})
                        if last and (odd := tau_o(g, c, u)) is not None:
                            banned.add(odd)
                placed = sum(1 for u in g.neighbors(v) if u in c)
                return (len(set(range(1, top + 1)) - banned), -placed, -g.degree(v), v)

            return min((v for v in g.vertices() if v not in c), key=key)

        class Checked(exact.OddTracker):
            def assign(self, v, color):
                assert_tables_recount(self, self.g)
                assert v == full_scan(self.g, self)
                super().assign(v, color)

        monkeypatch.setattr(exact, "OddTracker", Checked)
        for seed in range(30):
            g = random_graph(3 + seed % 7, 0.15 + 0.05 * (seed % 8), seed=200 + seed)
            for k in range(1, g.n + 1):
                exists_odd_k_coloring(g, k, cfg)
