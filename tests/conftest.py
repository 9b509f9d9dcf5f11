import random

import pytest

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
    """Each given vertex of g (default: all) has the color counts and odd
    count that a recount over its colored neighbors in g gives."""
    for v in g.vertices() if vertices is None else vertices:
        want = [0] * (tracker.k + 1)
        for u in g.neighbors(v):
            if u in tracker.color:
                want[tracker.color[u]] += 1
        assert tracker.neighbor_colors(v) == want, v
        assert tracker.num_odd(v) == sum(m % 2 for m in want), v


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
