import random

import pytest

from oddcolor.coloring import odd_colors, tau_o
from oddcolor.embedding import OnePlaneGraph
from oddcolor.generators import k7_star_embedding, path_embedding, random_one_plane
from oddcolor.graphs import Graph

# sha256 of embedding_to_text of the two fixed drawings: corpora and
# pinned engine outputs depend on every byte of them
FROZEN_DIGESTS = {
    "k7_star_embedding": "c7a1a6f6f6dc167f303bf454defa9bc8176839e941b64512f8238bb79041ea71",
    "figure4_pattern": "043b006357cabe84d49dc41335d7b3d8a9db1fd04039b6f22f79ec183c90ecd9",
}


def random_graph(n: int, p: float, seed: int) -> Graph:
    rng = random.Random(seed)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def assert_tables_recount(tracker, g: Graph, vertices=None) -> None:
    """Each given vertex of g (default: all) has the odd-color mask, read
    through ``odd_colors`` and ``tau_o``, that a recount over its colored
    neighbors in g gives; with ``tracker.g`` set (the exact solver's
    tables), also its per-color, distinct-color and uncolored-neighbor
    counts, which the tracker keeps in that mode only."""
    c = tracker.as_coloring()
    for v in g.vertices() if vertices is None else vertices:
        want = [0] * (tracker.k + 1)
        uncolored = 0
        for u in g.neighbors(v):
            if u in tracker.color:
                want[tracker.color[u]] += 1
            else:
                uncolored += 1
        assert tracker.odd_colors(v) == odd_colors(g, c, v), v
        assert tracker.tau_o(v) == tau_o(g, c, v), v
        if tracker.g is not None:
            assert tracker._counts[v] == want, v
            assert tracker._distinct[v] == sum(map(bool, want)), v
            assert tracker._uncolored_nbrs[v] == uncolored, v
        else:  # the constructive engines keep no per-vertex count list
            assert not tracker._counts, v


def relabel_embedding(emb: OnePlaneGraph, mapping: dict[int, int]) -> OnePlaneGraph:
    """emb with its vertex ids renamed by the bijection mapping."""
    vs = emb.vertices()
    return OnePlaneGraph({mapping[v]: emb.kind(v) for v in vs}, {mapping[v]: emb.rotation(v) for v in vs})


def embedding_cases() -> list:
    """Drawings for the file writer and the face walk, as pytest params: no
    vertex, an empty rotation, crossing-free and crossed random instances,
    and K7*."""
    return [
        pytest.param(OnePlaneGraph({}, {}), id="empty"),
        pytest.param(path_embedding(1), id="path_embedding(1)"),
        pytest.param(random_one_plane(40, 0.0, seed=5), id="random_one_plane(40, 0.0, 5)"),
        pytest.param(random_one_plane(40, 0.5, seed=6), id="random_one_plane(40, 0.5, 6)"),
        pytest.param(random_one_plane(60, 1.0, seed=7), id="random_one_plane(60, 1.0, 7)"),
        pytest.param(k7_star_embedding(), id="k7_star"),
    ]
