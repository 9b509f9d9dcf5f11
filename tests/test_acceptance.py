"""Acceptance suite: one test per criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import itertools
import random
import time

from conftest import relabel_embedding
from oddcolor.coloring import Coloring, is_odd_coloring
from oddcolor.discharging import apply_rules, initial_charges
from oddcolor.embedding import underlying_graph, validate
from oddcolor.exact import SearchConfig, chi_o, exists_odd_k_coloring
from oddcolor.generators import (
    figure4_pattern,
    inject_adjacent_crossing,
    random_one_plane,
    random_outerplanar,
    random_tree,
)
from oddcolor.graphs import Graph, cycle, degeneracy_order, subdivided_complete
from oddcolor.minor_closed import odd_color_minor_closed
from oddcolor.reduction import (
    SixFourSwap,
    odd_color_1planar,
    uncross_six_four,
    uncross_two_face,
)
from test_exact import chi_o_naive


def report(n: int, text: str) -> None:
    print(f"\nACCEPTANCE {n}: PASS -- {text}")


def test_criterion_1_oracle_values():
    t0 = time.time()
    assert chi_o(cycle(5)) == 5
    c5_time = time.time() - t0
    assert c5_time < 1.0
    assert chi_o(cycle(4)) == 4
    assert chi_o(cycle(6)) == 3
    assert chi_o(subdivided_complete(5)) == 5
    # cross-check with the same complete search, pruning disabled
    no_prune = SearchConfig(forward_check=False)
    assert chi_o(cycle(4), no_prune) == 4
    assert chi_o(cycle(6), no_prune) == 3
    report(1, f"chi_o(C5)=5 in {c5_time:.3f}s; C4=4, C6=3, K5*=5; "
              "pruning-disabled cross-check agrees")


def test_criterion_2_k7_star_lower_bound():
    g = subdivided_complete(7)
    t0 = time.time()
    refutation = exists_odd_k_coloring(g, 6)
    witness = exists_odd_k_coloring(g, 7)
    elapsed = time.time() - t0
    assert refutation is None
    assert isinstance(witness, Coloring) and is_odd_coloring(g, witness)
    assert elapsed < 300
    report(2, f"no odd 6-coloring of K7*, odd 7-coloring found, {elapsed:.2f}s")


def test_criterion_3_every_one_plane_instance_colored():
    count = 0
    for n in (12, 24, 36, 48, 60):
        for p_cross in (0.0, 0.3, 0.7, 1.0):
            for seed in range(10):
                emb = random_one_plane(n, p_cross, seed=1000 * n + seed)
                coloring, trace = odd_color_1planar(emb)
                g = underlying_graph(emb)
                assert is_odd_coloring(g, coloring)
                assert len(coloring.colors_used()) <= 23
                count += 1
    assert count >= 200
    report(3, f"{count} random 1-plane embeddings odd-23-colored and verified")


def test_criterion_4_minor_closed_families():
    for seed in range(100):
        g = random_outerplanar(8 + seed % 17, seed=seed)
        c, _ = odd_color_minor_closed(g, 2)  # asserts the proof step inside
        assert is_odd_coloring(g, c)
        assert max(c.colors_used()) <= 5
    for seed in range(100):
        g = random_tree(5 + seed % 46, seed=seed)
        c, _ = odd_color_minor_closed(g, 1)
        assert is_odd_coloring(g, c)
        assert max(c.colors_used()) <= 3
    report(4, "100 outerplanar graphs <= 5 colors, 100 trees <= 3 colors, "
              "single-occurrence proof step asserted at every extension")


def test_criterion_5_discharging_identities():
    corpus = [random_one_plane(10 + seed % 40, (seed % 4) / 3, seed=seed) for seed in range(60)]
    corpus.append(figure4_pattern())
    from oddcolor.generators import k7_star_embedding

    corpus.append(k7_star_embedding())
    for emb in corpus:
        cm = initial_charges(emb)
        assert cm.total == -8
        assert apply_rules(emb, cm).total == -8
    report(5, f"{len(corpus)} planarizations: initial total -8 exactly, "
              "rules preserve it exactly (rational arithmetic)")


def test_criterion_6_degeneracy_expectation():
    worst = 0
    for seed in range(1000):
        emb = random_one_plane(12 + seed % 25, (seed % 5) / 4, seed=seed)
        d, _ = degeneracy_order(underlying_graph(emb))
        worst = max(worst, d)
        assert d <= 7
    report(6, f"1000 corpus underlying graphs have degeneracy <= 7 (max seen {worst})")


def test_criterion_7_surgery_properties():
    rng = random.Random(7)
    done = 0
    while done < 1000:
        n = rng.randint(6, 30)
        emb = random_one_plane(n, rng.choice([0.0, 0.3, 0.6]), seed=rng.randrange(10**6))
        v = rng.choice(emb.real_vertices())
        try:
            injected = inject_adjacent_crossing(emb, v, rng.randrange(emb.degree(v)))
        except ValueError:
            continue
        w = injected.virtual_vertices()[-1]
        out = uncross_two_face(injected, w)
        assert out.crossing_count() == injected.crossing_count() - 1
        assert underlying_graph(out) == underlying_graph(injected)
        assert validate(out) == []
        done += 1

    base = figure4_pattern()
    vs = base.vertices()
    for i in range(1000):
        rng2 = random.Random(i)
        perm = list(vs)
        rng2.shuffle(perm)
        mapping = dict(zip(vs, perm))
        emb = relabel_embedding(base, mapping)
        cfg = SixFourSwap(
            u=mapping[1], w=mapping[2], v=mapping[0], z=mapping[12], c=mapping[5]
        )
        out = uncross_six_four(emb, cfg)
        assert out.crossing_count() == emb.crossing_count() - 1
        assert underlying_graph(out) == underlying_graph(emb)
        assert validate(out) == []
    report(7, "1000 two-face uncrossings and 1000 swap surgeries each cut one "
              "crossing, kept the abstract graph, and stayed valid")


# ----------------------------------------------------------------------
# Criterion 8: exhaustive equivalence on small connected graphs
# ----------------------------------------------------------------------


def connected_classes(n: int) -> list[tuple[tuple[int, int], ...]]:
    """One representative per isomorphism class of connected graphs on n
    vertices, found by orbit-marking all edge subsets."""
    pairs = list(itertools.combinations(range(n), 2))
    m = len(pairs)
    idx = {e: i for i, e in enumerate(pairs)}
    perm_maps = [
        tuple(idx[tuple(sorted((p[u], p[v])))] for u, v in pairs)
        for p in itertools.permutations(range(n))
    ]
    seen = bytearray(1 << m)
    reps = []
    for mask in range(1 << m):
        if seen[mask]:
            continue
        bits = [i for i in range(m) if mask >> i & 1]
        for pm in perm_maps:
            image = 0
            for i in bits:
                image |= 1 << pm[i]
            seen[image] = 1
        adj: list[list[int]] = [[] for _ in range(n)]
        for i in bits:
            u, v = pairs[i]
            adj[u].append(v)
            adj[v].append(u)
        stack, comp = [0], {0}
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in comp:
                    comp.add(y)
                    stack.append(y)
        if len(comp) == n:
            reps.append(tuple(pairs[i] for i in bits))
    return reps


EXPECTED_CLASS_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


def test_criterion_8_exhaustive_small_equivalence():
    from test_coloring import recount_is_odd

    rng = random.Random(8)
    checked = 0
    for n in range(1, 8):
        reps = connected_classes(n)
        assert len(reps) == EXPECTED_CLASS_COUNTS[n]
        for edges in reps:
            g = Graph.from_edges(n, edges)
            for _ in range(3):
                c = Coloring(4, {v: rng.randint(1, 4) for v in range(n)})
                assert is_odd_coloring(g, c) == recount_is_odd(g, c)
            assert chi_o(g) == chi_o_naive(g)
            checked += 1
    report(8, f"{checked} connected isomorphism classes (|G| <= 7): verifier "
              "matches the recount and pruned search matches naive enumeration")
