import random

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
