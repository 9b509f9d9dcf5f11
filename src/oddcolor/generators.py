"""Named instances and the seeded random 1-plane generator.

Two embeddings are fixed rotation systems written out as tables: the
subdivided K7 in its classic drawing and a small instance containing the
6-face/4-face swap pattern.  Each call rebuilds the embedding from its
table and runs the validator on it, which certifies it as a 1-plane
drawing.

random_one_plane grows a random plane triangulation by face splitting,
deletes random non-bridge edges to open up larger faces, then drops at
most one pair of crossing chords into big faces.  All randomness comes
from the seed; equal seeds give identical embeddings.

Each seeded pick is a rank in the canonical order of the embedding that
``EmbeddingBuilder.build`` would make: a face's rank in fid order, a
segment's index.  The splits and deletions run on one builder and never
build it; the ranks come from per-vertex owner counts instead:

  - a segment is owned by its smaller end, and the canonical segment order
    is (owner, position in the owner's rotation);
  - a face is owned by its smallest vertex, because its minimum dart lies
    on a segment that vertex owns.  In a triangulation the faces a vertex
    owns are its corners whose two sides both lead to larger vertices, and
    their rotation order is their fid order.

So a pick is a prefix search over the counts (a Fenwick tree) plus one
scan of the owner's rotation, and the generator runs in near-linear time.
"""

from __future__ import annotations

import random

from .coloring import EngineInvariantError
from .embedding import (
    REAL,
    VIRTUAL,
    EmbeddingBuilder,
    OnePlaneGraph,
    neighbor_darts,
    plane_from_rotations,
    validate,
)
from .graphs import Graph, complete, cycle, path, star, subdivided_complete


def _checked(emb: OnePlaneGraph) -> OnePlaneGraph:
    """emb itself, once the validator finds nothing wrong with it."""
    bad = validate(emb)
    if bad:
        raise EngineInvariantError(f"generated an invalid embedding: {bad[0]}")
    return emb


# ----------------------------------------------------------------------
# Fixed drawings
# ----------------------------------------------------------------------


def _frozen(
    reals: int,
    segments: tuple[tuple[int, int], ...],
    rotations: tuple[tuple[int, ...], ...],
) -> OnePlaneGraph:
    """The embedding whose segment i joins segments[i] and whose vertex v
    sees its neighbors in the cyclic order rotations[v]; ids from reals on
    are crossings.  No two segments join the same pair of vertices, so a
    neighbor names its segment."""
    kinds = {v: REAL if v < reals else VIRTUAL for v in range(len(rotations))}
    return _checked(OnePlaneGraph(kinds, neighbor_darts(segments, dict(enumerate(rotations)))))


# The subdivided K7.  K7 is drawn as the pentagon 0..4 (counterclockwise)
# with its pentagram, whose chords cross pairwise, and two apexes: 5 far
# north, 6 inside the sector between the spokes to 0 and 1.  The apex
# edges add four more crossings, so each K7 edge is crossed at most twice.
# The subdividing vertex of K7 edge ij sits between its two crossings (or
# in its widest crossing-free stretch), so each subdivided edge is crossed
# at most once.  Ids 7..27 follow subdivided_complete(7); 28..36 are the
# crossings.
_K7_STAR_SEGMENTS = (
    (0, 7), (0, 28), (28, 8), (0, 29), (29, 9), (0, 10), (0, 30), (30, 11),
    (0, 12), (1, 13), (1, 31), (31, 14), (1, 28), (28, 15), (1, 32), (32, 16),
    (1, 17), (2, 18), (2, 33), (33, 19), (2, 34), (34, 20), (2, 21), (3, 22),
    (3, 23), (3, 34), (34, 24), (4, 25), (4, 26), (5, 27), (7, 1), (8, 31),
    (31, 2), (9, 35), (35, 3), (10, 4), (11, 5), (12, 6), (13, 2), (14, 33),
    (33, 3), (15, 29), (29, 4), (16, 36), (36, 5), (17, 6), (18, 3), (19, 35),
    (35, 4), (20, 5), (21, 32), (32, 6), (22, 4), (23, 5), (24, 36), (36, 6),
    (25, 5), (26, 30), (30, 6), (27, 6),
)
_K7_STAR_ROTATIONS = (
    # the K7 vertices 0..6
    (30, 12, 7, 28, 29, 10), (28, 7, 17, 32, 13, 31), (18, 33, 31, 13, 21, 34),
    (23, 22, 35, 33, 18, 34), (25, 26, 10, 29, 35, 22), (20, 36, 27, 11, 25, 23),
    (27, 36, 32, 17, 12, 30),
    # the subdividing vertices 7..27
    (0, 1), (28, 31), (29, 35), (0, 4), (5, 30), (6, 0), (1, 2), (31, 33),
    (29, 28), (36, 32), (6, 1), (3, 2), (35, 33), (5, 34), (32, 2), (4, 3), (5, 3),
    (36, 34), (5, 4), (30, 4), (5, 6),
    # the crossings 28..36
    (15, 0, 1, 8), (4, 0, 15, 9), (11, 6, 0, 26), (8, 1, 2, 14), (6, 16, 21, 1),
    (19, 14, 2, 3), (24, 20, 3, 2), (4, 9, 19, 3), (6, 5, 24, 16),
)


def k7_star_embedding() -> OnePlaneGraph:
    """1-plane embedding of K7 with every edge subdivided once; vertex ids
    match ``subdivided_complete(7)``."""
    return _frozen(28, _K7_STAR_SEGMENTS, _K7_STAR_ROTATIONS)


# The swap-pattern instance.  Three 2-vertices 0 (v), 1 (u), 2 (w) whose six
# edges are all crossed: 0's edges cross 1's and 2's corridors toward 5 (c),
# and 1's and 2's second edges, toward 6 (p) and 7 (q), cross each other;
# 10..12 are the crossings.  The planarization has a 6-face through all
# three 2-vertices and a 4-face at vertex 0, which is exactly the swap
# pattern; everything else is built so no higher-priority configuration
# exists at thresholds (K=7, BIG=4).
_FIG4_SEGMENTS = (
    (0, 10), (10, 3), (0, 11), (11, 4), (1, 10), (10, 5), (1, 12), (12, 6),
    (2, 11), (11, 5), (2, 12), (12, 7), (3, 5), (3, 7), (3, 8), (4, 5), (4, 6),
    (4, 9), (5, 8), (5, 9), (6, 7), (6, 9), (7, 8), (8, 9),
)
_FIG4_ROTATIONS = (
    (10, 11), (12, 10), (12, 11), (5, 10, 7, 8), (6, 11, 5, 9),
    (4, 11, 10, 3, 8, 9), (7, 12, 4, 9), (6, 8, 3, 12), (9, 5, 3, 7), (4, 5, 8, 6),
    (0, 1, 3, 5), (2, 0, 5, 4), (6, 7, 1, 2),
)


def figure4_pattern() -> OnePlaneGraph:
    return _frozen(10, _FIG4_SEGMENTS, _FIG4_ROTATIONS)


# ----------------------------------------------------------------------
# Crossing-free embeddings of the easy named graphs
# ----------------------------------------------------------------------


def cycle_embedding(n: int) -> OnePlaneGraph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return plane_from_rotations(n, {i: [(i - 1) % n, (i + 1) % n] for i in range(n)})


def path_embedding(n: int) -> OnePlaneGraph:
    if n < 1:
        raise ValueError("path needs n >= 1")
    rot = {i: [j for j in (i - 1, i + 1) if 0 <= j < n] for i in range(n)}
    return plane_from_rotations(n, rot)


def star_embedding(leaves: int) -> OnePlaneGraph:
    if leaves < 0:
        raise ValueError("star needs leaves >= 0")
    rot = {0: list(range(1, leaves + 1))}
    rot.update({i: [0] for i in range(1, leaves + 1)})
    return plane_from_rotations(leaves + 1, rot)


# ----------------------------------------------------------------------
# Random generators (seeded, deterministic)
# ----------------------------------------------------------------------


def random_tree(n: int, seed: int) -> Graph:
    rng = random.Random(seed)
    return Graph.from_edges(n, [(rng.randrange(v), v) for v in range(1, n)])


def random_outerplanar(n: int, seed: int) -> Graph:
    """Random triangulated polygon, with a few chords knocked back out."""
    if n < 3:
        raise ValueError("outerplanar generator needs n >= 3")
    rng = random.Random(seed)
    edges = {(i, (i + 1) % n) for i in range(n - 1)} | {(0, n - 1)}
    chords = []

    def split(i: int, j: int) -> None:
        if j - i < 2:
            return
        k = rng.randint(i + 1, j - 1)
        for a, b in ((i, k), (k, j)):
            if b - a >= 2:
                chords.append((a, b))
        split(i, k)
        split(k, j)

    split(0, n - 1)
    for ch in chords:
        if rng.random() < 0.8:
            edges.add(ch)
    return Graph.from_edges(n, edges)


class _Counts:
    """Nonnegative per-vertex counts with prefix search (a Fenwick tree)."""

    def __init__(self, n: int) -> None:
        self._tree = [0] * (n + 1)
        self._top = 1 << (n.bit_length() - 1)

    def add(self, v: int, delta: int) -> None:
        i = v + 1
        while i < len(self._tree):
            self._tree[i] += delta
            i += i & -i

    def locate(self, r: int) -> tuple[int, int]:
        """The vertex v holding rank r of the concatenated counts, and r's
        rank among v's own: r minus the counts of the vertices below v."""
        v, step = 0, self._top
        while step:
            if v + step < len(self._tree) and self._tree[v + step] <= r:
                v += step
                r -= self._tree[v]
            step >>= 1
        return v, r


def _face(b: EmbeddingBuilder, x: int, e: int):
    """The darts, as (origin, segment key) pairs, of the face that leaves x
    along e, in traversal order starting there."""
    y, f = x, e
    while True:
        yield y, f
        y = b.other_end(f, y)
        r = b.rot[y]
        f = r[(r.index(f) + 1) % len(r)]
        if (y, f) == (x, e):
            return


def random_one_plane(n: int, p_cross: float, seed: int) -> OnePlaneGraph:
    """Seeded random valid 1-plane embedding.

    Build a random plane triangulation on n vertices, delete random
    non-bridge edges (endpoints keep degree >= 3) to create 4+-faces, then
    visit every 4+-face and with probability p_cross insert one pair of
    crossing chords between four distinct corners.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    if not 0 <= p_cross <= 1:
        raise ValueError("p_cross must be in [0, 1]")
    rng = random.Random(seed)
    b = EmbeddingBuilder()
    for v in range(3):
        b.add_vertex(v, REAL)
    e01 = b.add_edge(0, 1)
    b.add_edge(0, 2)
    b.add_edge(1, 2, e01)
    owned = _Counts(n)  # faces by smallest vertex; every face is a triangle
    owned.add(0, 2)
    for new in range(3, n):
        u, r = owned.locate(rng.randrange(2 * new - 4))
        rot = b.rot[u]
        far = [b.other_end(e, u) for e in rot]
        # u's owned corners in rotation order are its faces in fid order; the
        # face's minimum dart enters u along rot[j - 1], or at corner 0 leaves
        # u along rot[0], the first segment u owns
        j = [j for j in range(len(rot)) if far[j - 1] > u < far[j]][r]
        darts = list(_face(b, far[j - 1], rot[j - 1]) if j else _face(b, u, rot[0]))
        owned.add(u, -1)
        b.add_vertex(new, REAL)
        # in reverse face order, so that new's rotation runs against the face
        for x, e in reversed(darts):
            b.add_edge(x, new, e)
            owned.add(min(x, b.other_end(e, x)), 1)

    owned = _Counts(n)  # segments by smaller end, in rotation order there
    for v in range(n):
        owned.add(v, sum(1 for e in b.rot[v] if b.other_end(e, v) > v))
    m = 3 * n - 6
    for _ in range(n):
        u, r = owned.locate(rng.randrange(m))
        e = [e for e in b.rot[u] if b.other_end(e, u) > u][r]
        v = b.other_end(e, u)
        if len(b.rot[u]) < 3 or len(b.rot[v]) < 3:
            continue
        if (v, e) in _face(b, u, e):
            continue  # bridge: one face on both sides, deleting it would disconnect
        b.delete_edge(e)
        owned.add(u, -1)
        m -= 1

    emb = b.build()
    g_edges = {tuple(sorted(e)) for e in emb.segments()}
    big_faces = [f for f in emb.faces() if f.len >= 4]
    b = EmbeddingBuilder.from_embedding(emb)
    next_id = max(emb.vertices()) + 1
    origin = emb.origin
    for f in big_faces:
        if rng.random() >= p_cross:
            continue
        visits = [(origin(d), d // 2) for d in f.darts]
        for _attempt in range(8):
            picks = sorted(rng.sample(range(len(visits)), 4))
            vs = [visits[i][0] for i in picks]
            if len(set(vs)) != 4:
                continue
            chord1 = tuple(sorted((vs[0], vs[2])))
            chord2 = tuple(sorted((vs[1], vs[3])))
            if chord1 in g_edges or chord2 in g_edges:
                continue
            w = b.add_vertex(next_id, VIRTUAL)
            next_id += 1
            for i in reversed(picks):
                x, e = visits[i]
                b.add_edge(x, w, e)
            g_edges.add(chord1)
            g_edges.add(chord2)
            break
    return _checked(b.build())


def inject_adjacent_crossing(emb: OnePlaneGraph, v: int, pos: int) -> OnePlaneGraph:
    """Redraw two rotation-consecutive edges at v so they cross each other
    just outside v.  Both edges must currently be uncrossed with distinct
    far endpoints.  The result is a valid embedding of the same abstract
    graph whose planarization has a 2-face at the new virtual vertex."""
    b = EmbeddingBuilder.from_embedding(emb)
    r = b.rot[v]
    if len(r) < 2:
        raise ValueError(f"vertex {v} needs two incident edges")
    e1, e2 = r[pos % len(r)], r[(pos + 1) % len(r)]
    a, c = b.other_end(e1, v), b.other_end(e2, v)
    if a == c or b.kind[a] != REAL or b.kind[c] != REAL or b.kind[v] != REAL:
        raise ValueError("edges must be uncrossed with distinct real far ends")
    t = b.add_vertex(b.fresh_vertex_id(), VIRTUAL)
    # the curves swap starting slots at v and cross once inside the corner:
    # beta takes e1's slot at v but carries edge v-c, alpha takes e2's slot
    # and carries edge v-a; t's rotation is (alpha, beta, t-a, t-c)
    b.add_edge(v, t, e2)  # alpha
    b.add_edge(v, t, e1)  # beta
    b.add_edge(t, a, None, e1)
    b.add_edge(t, c, None, e2)
    b.delete_edge(e1)
    b.delete_edge(e2)
    return b.build()


# ----------------------------------------------------------------------
# Front door
# ----------------------------------------------------------------------

# name -> (function, its parameters in call order); gen fills a missing
# seed or p_cross with 0, and the CLI requires the flags these name
GENERATORS = {
    "cycle": (cycle, ("n",)),
    "path": (path, ("n",)),
    "complete": (complete, ("n",)),
    "star": (star, ("n",)),
    "subdivided_complete": (subdivided_complete, ("n",)),
    "k7_star_embedding": (k7_star_embedding, ()),
    "figure4_pattern": (figure4_pattern, ()),
    "outerplanar": (random_outerplanar, ("n", "seed")),
    "tree": (random_tree, ("n", "seed")),
    "random_one_plane": (random_one_plane, ("n", "p_cross", "seed")),
}


def gen(name: str, **params) -> Graph | OnePlaneGraph:
    """Named generator dispatch; see GENERATORS for the accepted names."""
    if name not in GENERATORS:
        raise ValueError(f"unknown generator {name!r}; choose from {tuple(GENERATORS)}")
    fn, names = GENERATORS[name]
    return fn(*(params[p] if p == "n" else params.get(p, 0) for p in names))
