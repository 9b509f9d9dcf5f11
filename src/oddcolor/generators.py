"""Named instances and the seeded random 1-plane generator.

Two embeddings come from hand-drawn coordinate tables with exact rational
arithmetic: the subdivided K7 in its classic drawing (pentagon plus
pentagram, two outer apexes, every K7 edge crossed at most twice, each
subdividing vertex placed between the two crossings of its edge) and a
small instance containing the 6-face/4-face swap pattern.  The drawings
were checked once by hand; deriving the rotation system from coordinates
at generation time keeps the tables readable and lets the validator be
the ground truth.

random_one_plane grows a random plane triangulation by face splitting,
deletes random non-bridge edges to open up larger faces, then drops at
most one pair of crossing chords into big faces.  All randomness comes
from the seed; equal seeds give identical embeddings.
"""

from __future__ import annotations

import random
from fractions import Fraction

from ._geom import DegenerateDrawingError, Polyline, Pt, param_between, pt, sort_ccw
from .coloring import EngineInvariantError
from .embedding import (
    REAL,
    VIRTUAL,
    EmbeddingBuilder,
    OnePlaneGraph,
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
# Rotation systems from exact drawings
# ----------------------------------------------------------------------


def embed_drawn_graph(
    points: dict[int, Pt], routes: dict[tuple[int, int], list[Pt]]
) -> OnePlaneGraph:
    """Embedding of a drawing given by vertex coordinates and polyline
    routes (intermediate points only).  Every edge may be crossed at most
    once, crossing edges may not share endpoints, and any non-transversal
    contact raises DegenerateDrawingError."""
    lines = {
        e: Polyline([points[e[0]], *mid, points[e[1]]]) for e, mid in routes.items()
    }
    keys = sorted(lines)
    crossings: dict[tuple[int, int], list] = {}  # edge -> [(param, other, pt)]
    cross_pts: dict[Pt, tuple] = {}
    pairs = []
    for i, e in enumerate(keys):
        for f in keys[i + 1 :]:
            hits = lines[e].crossings(lines[f])
            if not hits:
                continue
            if set(e) & set(f):
                raise DegenerateDrawingError(f"adjacent edges {e} and {f} cross")
            if len(hits) > 1:
                raise DegenerateDrawingError(f"edges {e} and {f} cross twice")
            pe, pf, point = hits[0]
            if point in cross_pts:
                raise DegenerateDrawingError(f"triple point at {point}")
            cross_pts[point] = (e, f)
            crossings.setdefault(e, []).append((pe, f, point))
            crossings.setdefault(f, []).append((pf, e, point))
            pairs.append((e, f, pe, pf, point))
    for e, hits in crossings.items():
        if len(hits) > 1:
            raise DegenerateDrawingError(f"edge {e} crossed more than once")

    next_id = max(points) + 1
    virtual_of: dict[tuple[int, int], int] = {}
    for e, f, pe, pf, point in sorted(pairs, key=lambda x: (x[0], x[1])):
        virtual_of[(e, f)] = next_id
        next_id += 1

    kinds = {v: REAL for v in points}
    stubs: dict[int, list] = {v: [] for v in points}
    pieces: list[tuple[int, int]] = []

    def add_piece(a: int, b: int, dir_a: Pt, dir_b: Pt) -> None:
        idx = len(pieces)
        pieces.append((a, b))
        stubs[a].append((dir_a, idx))
        stubs[b].append((dir_b, idx))

    for e in keys:
        line = lines[e]
        u, v = e
        hit = crossings.get(e)
        if not hit:
            add_piece(
                u,
                v,
                line.direction_after((0, Fraction(0))),
                line.direction_before((line.nseg - 1, Fraction(1))),
            )
            continue
        pe, other, point = hit[0]
        pair = (e, other) if (e, other) in virtual_of else (other, e)
        w = virtual_of[pair]
        if w not in kinds:
            kinds[w] = VIRTUAL
            stubs[w] = []
        add_piece(u, w, line.direction_after((0, Fraction(0))), line.direction_before(pe))
        add_piece(
            w,
            v,
            line.direction_after(pe),
            line.direction_before((line.nseg - 1, Fraction(1))),
        )

    rot = {v: sort_ccw(sts) for v, sts in stubs.items()}
    emb = OnePlaneGraph(kinds, pieces, rot)
    for w in emb.virtual_vertices():
        e1, e2 = emb.crossing_edges(w)  # raises if rotation fails to alternate
        if len({*e1, *e2}) != 4:
            raise DegenerateDrawingError(f"bad crossing at {w}")
    return emb


# ----------------------------------------------------------------------
# The subdivided-K7 drawing
# ----------------------------------------------------------------------

# Pentagon 0..4 counterclockwise, apexes 5 (far north) and 6 (inside the
# sector between the spokes to 0 and 1).  Pentagram chords cross pairwise;
# the apex edges add four more crossings, every K7 edge carrying at most two.
_K7_POINTS: dict[int, Pt] = {
    0: pt(0, 20),
    1: pt(-19, 6),
    2: pt(-12, -16),
    3: pt(12, -16),
    4: pt(19, 6),
    5: pt(0, 100),
    6: pt(-8, 30),
}

_K7_ROUTES: dict[tuple[int, int], list[Pt]] = {
    (0, 1): [], (1, 2): [], (2, 3): [], (3, 4): [], (0, 4): [],
    (0, 2): [], (1, 3): [], (2, 4): [], (0, 3): [], (1, 4): [],
    (0, 5): [], (1, 5): [],
    (2, 5): [pt(-60, 0)],
    (3, 5): [pt(60, 0)],
    (4, 5): [],
    (5, 6): [],
    (0, 6): [], (1, 6): [],
    (2, 6): [pt(-22, 14)],
    (3, 6): [pt(0, -26), pt(-26, -22), pt(-44, -2), pt(-30, 22)],
    (4, 6): [pt(8, 26)],
}


def k7_star_embedding() -> OnePlaneGraph:
    """1-plane embedding of K7 with every edge subdivided once.

    The K7 drawing has each edge crossed at most twice; subdividing
    vertices go strictly between the two crossings of their edge (or into
    the widest crossing-free stretch), so each subdivided edge is crossed
    at most once.  Vertex ids match ``subdivided_complete(7)``.
    """
    lines = {e: Polyline([_K7_POINTS[e[0]], *m, _K7_POINTS[e[1]]]) for e, m in _K7_ROUTES.items()}
    keys = sorted(lines)
    params: dict[tuple[int, int], list] = {e: [] for e in keys}
    for i, e in enumerate(keys):
        for f in keys[i + 1 :]:
            for pe, pf, _ in lines[e].crossings(lines[f]):
                params[e].append(pe)
                params[f].append(pf)
    points = dict(_K7_POINTS)
    routes: dict[tuple[int, int], list[Pt]] = {}
    sub_id = 7
    for e in sorted(keys):
        line = lines[e]
        ps = sorted(params[e])
        if len(ps) > 2:
            raise DegenerateDrawingError(f"K7 edge {e} crossed {len(ps)} times")
        if len(ps) == 2:
            cut = param_between(ps[0], ps[1])
        else:
            ends = [(0, Fraction(0)), *ps, (line.nseg - 1, Fraction(1))]
            gaps = [
                (b[0] + b[1] - a[0] - a[1], i)
                for i, (a, b) in enumerate(zip(ends, ends[1:]))
            ]
            _, gi = max(gaps, key=lambda g: (g[0], -g[1]))
            cut = param_between(ends[gi], ends[gi + 1])
        first, second = line.split(cut)
        points[sub_id] = line.point_at(cut)
        routes[(e[0], sub_id)] = first.points[1:-1]
        routes[(sub_id, e[1])] = second.points[1:-1]
        sub_id += 1
    return _checked(embed_drawn_graph(points, routes))


# ----------------------------------------------------------------------
# The swap-pattern instance
# ----------------------------------------------------------------------

# Three 2-vertices 0 (v), 1 (u), 2 (w) whose six edges are all crossed:
# 0's edges cross 1's and 2's corridors toward 5, and 1's and 2's second
# edges cross each other.  The planarization has a 6-face through all
# three 2-vertices and a 4-face at vertex 0, which is exactly the swap
# pattern; everything else is built so no higher-priority configuration
# exists at thresholds (K=7, BIG=4).
_FIG4_POINTS: dict[int, Pt] = {
    0: pt(0, 10),   # v
    1: pt(-4, 10),  # u
    2: pt(4, 10),   # w
    3: pt(-8, 2),   # a
    4: pt(8, 2),    # b
    5: pt(0, 2),    # c
    6: pt(4, 17),   # p
    7: pt(-4, 17),  # q
    8: pt(-4, -8),
    9: pt(4, -8),
}

_FIG4_ROUTES: dict[tuple[int, int], list[Pt]] = {
    (0, 3): [], (0, 4): [],          # v-a, v-b
    (1, 5): [], (2, 5): [],          # u-c, w-c
    (1, 6): [], (2, 7): [],          # u-p, w-q
    (3, 5): [], (4, 5): [],          # a-c, b-c
    (5, 8): [], (5, 9): [],
    (3, 8): [], (4, 9): [],
    (8, 9): [],
    (6, 7): [],                      # p-q
    (3, 7): [pt(-12, 4), pt(-13, 13)],
    (4, 6): [pt(12, 4), pt(13, 13)],
    (7, 8): [pt(-16, 12), pt(-15, -6), pt(-8, -11)],
    (6, 9): [pt(16, 12), pt(15, -6), pt(8, -11)],
}

FIG4_SWAP_WITNESS = {"u": 1, "w": 2, "v": 0}


def figure4_pattern() -> OnePlaneGraph:
    return _checked(embed_drawn_graph(_FIG4_POINTS, _FIG4_ROUTES))


# ----------------------------------------------------------------------
# Crossing-free embeddings of the easy named graphs
# ----------------------------------------------------------------------


def cycle_embedding(n: int) -> OnePlaneGraph:
    return plane_from_rotations(n, {i: [(i - 1) % n, (i + 1) % n] for i in range(n)})


def path_embedding(n: int) -> OnePlaneGraph:
    rot = {i: [j for j in (i - 1, i + 1) if 0 <= j < n] for i in range(n)}
    return plane_from_rotations(n, rot)


def star_embedding(leaves: int) -> OnePlaneGraph:
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


def _random_triangulation(n: int, rng: random.Random) -> OnePlaneGraph:
    emb = plane_from_rotations(3, {0: [1, 2], 1: [2, 0], 2: [0, 1]})
    for new in range(3, n):
        faces = emb.faces()
        f = faces[rng.randrange(len(faces))]
        b = EmbeddingBuilder.from_embedding(emb)
        b.add_vertex(new, REAL)
        spokes = []
        for d in f.darts:
            x = emb.origin(d)
            e_new = b.new_edge_key(x, new)
            b.rot[x].insert(b.rot[x].index(d // 2), e_new)
            spokes.append(e_new)
        b.rot[new] = spokes[::-1]
        emb = b.build()
    return emb


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
    emb = _random_triangulation(n, rng)

    for _ in range(n):
        segs = emb.segments()
        i = rng.randrange(len(segs))
        u, v = segs[i]
        if emb.degree(u) < 3 or emb.degree(v) < 3:
            continue
        d = emb.face_next(2 * i)
        while d != 2 * i and d != 2 * i + 1:
            d = emb.face_next(d)
        if d == 2 * i + 1:
            continue  # bridge: one face on both sides, deleting it would disconnect
        b = EmbeddingBuilder.from_embedding(emb)
        b.delete_edge(i)
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
            spokes = []
            for i in picks:
                x, ekey = visits[i]
                e_new = b.new_edge_key(x, w)
                b.rot[x].insert(b.rot[x].index(ekey), e_new)
                spokes.append(e_new)
            b.rot[w] = spokes[::-1]
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
    # beta starts in e1's slot but carries edge v-c, alpha starts in e2's
    # slot and carries edge v-a
    beta = b.new_edge_key(v, t)
    alpha = b.new_edge_key(v, t)
    ta = b.new_edge_key(t, a)
    tc = b.new_edge_key(t, c)
    pa = b.rot[a].index(e1)
    pc = b.rot[c].index(e2)
    b.replace_in_rot(v, e1, beta)
    b.replace_in_rot(v, e2, alpha)
    b.rot[a][pa] = ta
    b.rot[c][pc] = tc
    b.drop_edge_key(e1)
    b.drop_edge_key(e2)
    b.rot[t] = [alpha, beta, ta, tc]
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
