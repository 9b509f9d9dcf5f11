"""Corpus generators: validity, determinism, structure."""

import hashlib
import itertools
import re

import pytest

from conftest import FROZEN_DIGESTS
from oddcolor.embedding import EmbeddingBuilder, underlying_graph, validate
from oddcolor.exact import chi_o
from oddcolor.generators import (
    GENERATORS,
    cycle_embedding,
    figure4_pattern,
    gen,
    inject_adjacent_crossing,
    k7_star_embedding,
    path_embedding,
    random_one_plane,
    random_outerplanar,
    random_tree,
    star_embedding,
)
from oddcolor.graphs import (
    connected_components,
    cycle,
    degeneracy_order,
    path,
    star,
    subdivided_complete,
)
from oddcolor.io import embedding_to_text
from oddcolor.minor_closed import has_k4_minor
from oddcolor.reduction import SixFourSwap, Thresholds, find_reducible

GENERATOR_DIGEST = "fbc271a584a8ee967b9529bda4cf5c62182dde294058da41425f982284b291cd"
# the same over n = 100 and 200, the sizes the benchmark draws
GENERATOR_DIGEST_LARGE = "c7aaf2f936cdf06016ea77dc1cf8e81395c7fca053f115030af322e4dbefee00"


class TestNamedGraphs:
    def test_gen_dispatch(self):
        assert gen("cycle", n=5).num_edges() == 5
        assert gen("subdivided_complete", n=7).n == 28
        # a missing seed or p_cross is 0
        assert gen("outerplanar", n=12) == random_outerplanar(12, 0)
        got = gen("random_one_plane", n=12, seed=3)
        assert embedding_to_text(got) == embedding_to_text(random_one_plane(12, 0.0, 3))
        with pytest.raises(ValueError):
            gen("banana")
        with pytest.raises(ValueError, match="generator 'cycle' needs the parameter 'n'"):
            gen("cycle")

    def test_subdivided_complete_counts(self):
        g = gen("subdivided_complete", n=7)
        assert g.n == 28 and g.num_edges() == 42

    @pytest.mark.parametrize(
        "drawing, graph, size",
        [
            (cycle_embedding, cycle, 2),
            (cycle_embedding, cycle, 1),
            (cycle_embedding, cycle, 0),
            (path_embedding, path, 0),
            (path_embedding, path, -2),
            (star_embedding, star, -1),
            (star_embedding, star, -3),
        ],
    )
    def test_drawings_reject_impossible_sizes(self, drawing, graph, size):
        # the same ValueError as the graph of the same name, not an empty
        # drawing or a complaint about segments
        with pytest.raises(ValueError) as want:
            graph(size)
        with pytest.raises(ValueError, match=re.escape(str(want.value))):
            drawing(size)


class TestK7Star:
    def test_valid_and_recovers_graph(self):
        emb = k7_star_embedding()
        assert validate(emb) == []
        assert underlying_graph(emb) == subdivided_complete(7)

    def test_counts(self):
        emb = k7_star_embedding()
        assert len(emb.real_vertices()) == 28
        assert underlying_graph(emb).num_edges() == 42
        # the frozen drawing: pentagram core (5) plus four apex crossings
        assert emb.crossing_count() == 9

    def test_deterministic(self):
        assert embedding_to_text(k7_star_embedding()) == embedding_to_text(
            k7_star_embedding()
        )


class TestFigure4:
    def test_valid(self):
        assert validate(figure4_pattern()) == []

    def test_triggers_swap_under_scaled_thresholds(self):
        emb = figure4_pattern()
        cfg = find_reducible(emb, Thresholds(K=7, BIG=4))
        assert isinstance(cfg, SixFourSwap)

    def test_pattern_faces_present(self):
        emb = figure4_pattern()
        lens = sorted(f.len for f in emb.faces())
        assert 6 in lens and 4 in lens


class TestFrozenInstances:
    @pytest.mark.parametrize("name", sorted(FROZEN_DIGESTS))
    def test_output_pinned(self, name):
        text = embedding_to_text(gen(name))
        assert hashlib.sha256(text.encode()).hexdigest() == FROZEN_DIGESTS[name]


class TestRandomOnePlane:
    @pytest.mark.parametrize("seed", range(10))
    def test_always_valid(self, seed):
        emb = random_one_plane(20, 0.5, seed=seed)
        assert validate(emb) == []

    def test_p_zero_is_plane(self):
        emb = random_one_plane(10, 0.0, seed=1)
        assert emb.crossing_count() == 0
        assert validate(emb) == []

    def test_p_zero_planar_degeneracy(self):
        for seed in range(20):
            g = underlying_graph(random_one_plane(25, 0.0, seed=seed))
            assert degeneracy_order(g)[0] <= 5

    def test_crossings_counted(self):
        emb = random_one_plane(30, 0.5, seed=7)
        assert emb.crossing_count() == len(emb.virtual_vertices())
        assert emb.crossing_count() > 0

    def test_same_seed_identical_bytes(self):
        a = embedding_to_text(random_one_plane(30, 0.5, seed=7))
        b = embedding_to_text(random_one_plane(30, 0.5, seed=7))
        assert a == b

    def test_different_seed_differs(self):
        a = embedding_to_text(random_one_plane(30, 0.5, seed=7))
        b = embedding_to_text(random_one_plane(30, 0.5, seed=8))
        assert a != b

    def test_connected(self):
        for seed in range(5):
            g = underlying_graph(random_one_plane(15, 0.8, seed=seed))
            assert len(connected_components(g)) == 1

    def test_output_pinned(self):
        # sha256 over embedding_to_text of 72 seeded instances: the
        # acceptance corpus and the benchmark are defined by seeds, so a
        # generator change must leave every byte of its output alone
        h = hashlib.sha256()
        for n, p_cross, seed in itertools.product((20, 60), (0.0, 0.5, 1.0), range(12)):
            h.update(embedding_to_text(random_one_plane(n, p_cross, seed=seed)).encode())
        assert h.hexdigest() == GENERATOR_DIGEST

    def test_output_pinned_large(self):
        h = hashlib.sha256()
        for n, p_cross, seed in itertools.product((100, 200), (0.0, 0.5, 1.0), range(4)):
            h.update(embedding_to_text(random_one_plane(n, p_cross, seed=seed)).encode())
        assert h.hexdigest() == GENERATOR_DIGEST_LARGE

    def test_builds_do_not_grow_with_n(self, monkeypatch):
        # the picks run on one builder; only the crossing phase and the
        # result are built, however many vertices and deletions there are
        calls = []
        build = EmbeddingBuilder.build

        def counted(self):
            calls.append(1)
            return build(self)

        monkeypatch.setattr(EmbeddingBuilder, "build", counted)
        counts = []
        for n in (50, 400):
            calls.clear()
            random_one_plane(n, 0.5, seed=n)
            counts.append(len(calls))
        assert counts == [2, 2]


class TestInjectAdjacentCrossing:
    def test_creates_a_two_face(self):
        emb = cycle_embedding(6)
        out = inject_adjacent_crossing(emb, 0, 0)
        assert validate(out) == []
        assert any(f.len == 2 for f in out.faces())
        assert underlying_graph(out) == underlying_graph(emb)

    def test_rejects_crossed_edges(self):
        emb = cycle_embedding(4)
        once = inject_adjacent_crossing(emb, 0, 0)
        with pytest.raises(ValueError):
            inject_adjacent_crossing(once, 0, 0)


class TestAuxRandomFamilies:
    @pytest.mark.parametrize("seed", range(10))
    def test_trees(self, seed):
        g = random_tree(20, seed)
        assert g.num_edges() == 19
        assert len(connected_components(g)) == 1
        assert degeneracy_order(g)[0] == 1

    @pytest.mark.parametrize("seed", range(10))
    def test_outerplanar_k4_minor_free(self, seed):
        g = random_outerplanar(12, seed)
        assert not has_k4_minor(g)
        assert degeneracy_order(g)[0] <= 2

    def test_gen_names_stable(self):
        for name in ("cycle", "path", "complete", "subdivided_complete"):
            assert name in GENERATORS
        assert "k7_star_embedding" in GENERATORS
        assert "figure4_pattern" in GENERATORS


class TestSanityAgainstExact:
    def test_k5_star_chi(self):
        assert chi_o(subdivided_complete(5)) == 5
