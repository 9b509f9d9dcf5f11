"""Planarized rotation systems for 1-plane drawings.

A drawing of a graph with each edge crossed at most once is stored after
planarization: every crossing is a degree-4 "virtual" vertex, and the plane
structure is a rotation system over real + virtual vertices.  Each edge of
the planarization ("segment") is a pair of darts; dart d's twin is d ^ 1.
A OnePlaneGraph is constructed from dart rotations laid out as in the
embedding file (segment i is darts 2i and 2i+1), and its constructor is
the only place that checks that layout; the builder, the component split
and the file reader all hand it darts.
At a virtual vertex the rotation alternates between the two crossing edges,
so rotation positions (0, 2) belong to one original edge and (1, 3) to the
other.

Segments joining two virtual vertices cannot occur (every original edge has
at most one crossing, so each segment keeps a real endpoint).  Parallel
segments between a real and a virtual vertex are representable: they arise
when two edges sharing an endpoint cross each other, and the reduction
engine removes them (they bound a 2-face or enclose further structure).

Face traversal convention: the successor of dart d is the rotation successor
of twin(d) at d's target.  For a rotation system of a planar drawing the
orbits are the faces and Euler's formula holds on every connected component;
that check is the planarity validation.

A OnePlaneGraph never changes, so what is derived from it is computed at
most once per instance, on first use, and handed out immutable: the faces
and the components of the planarization, and the smoothing behind
``underlying_graph``, ``g_edges`` and ``validate``.

Surgeries remove crossings and delete original edges only through
``_fuse``, which joins an edge's two segments through a crossing that
goes away, and ``_delete``, which removes real vertices and original
edges in one pass and fuses each edge whose crossing partner dies.  New
segments are placed only by ``EmbeddingBuilder.add_edge``, just before a
named segment in each end's rotation: a construction that reroutes a
segment adds the new ones at its slots and then deletes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .graphs import Graph, NotAnEdgeError

REAL = "real"
VIRTUAL = "virtual"


class InvalidEmbeddingError(ValueError):
    """The embedding cannot represent a valid 1-plane drawing."""


@dataclass(frozen=True)
class Violation:
    """One validation failure with its witness vertex/edge."""

    code: str
    subject: tuple
    detail: str = ""

    def __str__(self) -> str:
        return f"{self.code}{self.subject}{': ' + self.detail if self.detail else ''}"


@dataclass(frozen=True)
class Face:
    """A face as the cyclic dart sequence produced by the traversal."""

    darts: tuple[int, ...]

    @property
    def len(self) -> int:
        return len(self.darts)

    @property
    def fid(self) -> int:
        """Stable face id: the minimal dart on the boundary."""
        return min(self.darts)


class OnePlaneGraph:
    """Immutable rotation system over real and virtual vertices.

    Construction arguments, laid out as in the embedding file:
      kinds: vertex id -> REAL | VIRTUAL
      rot:   vertex id -> cyclic sequence of the darts leaving it; a vertex
             without an entry has none

    The darts are 0..2m-1, each in exactly one rotation, and segment i is
    the pair of darts 2i and 2i+1, so it joins the origins of the two;
    anything else, and a segment whose darts share their origin (a loop),
    raises InvalidEmbeddingError.  segments()[i] is that pair of origins.

    faces(), components() and the smoothing are derived on first use and
    stored on the instance; later calls return the same immutable values.
    """

    __slots__ = ("_kind", "_edges", "_rot", "_faces", "_components", "_smoothing")

    def __init__(self, kinds: Mapping[int, str], rot: Mapping[int, Sequence[int]]):
        kind = dict(kinds)
        for v, k in kind.items():
            if k not in (REAL, VIRTUAL):
                raise InvalidEmbeddingError(f"unknown vertex kind {k!r} at {v}")
        for v in rot:
            if v not in kind:
                raise InvalidEmbeddingError(f"rotation of unknown vertex {v}")
        rot_d = {v: tuple(rot.get(v, ())) for v in kind}
        origin: list[int | None] = [None] * sum(map(len, rot_d.values()))
        if len(origin) % 2:
            raise InvalidEmbeddingError(f"odd dart count {len(origin)}")
        for v, r in rot_d.items():
            for d in r:
                if not 0 <= d < len(origin):
                    raise InvalidEmbeddingError(f"rotation of {v} names dart {d}")
                if origin[d] is not None:
                    raise InvalidEmbeddingError(f"dart {d} appears twice")
                origin[d] = v
        # 2m darts, none repeated and none out of range: each appears once
        edges = tuple(zip(origin[::2], origin[1::2]))
        for i, (u, v) in enumerate(edges):
            if u == v:
                raise InvalidEmbeddingError(f"loop segment {i} at vertex {u}")
        object.__setattr__(self, "_kind", kind)
        object.__setattr__(self, "_edges", edges)
        object.__setattr__(self, "_rot", rot_d)
        self._faces = self._components = self._smoothing = None

    # -- basic structure -------------------------------------------------

    def vertices(self) -> list[int]:
        return sorted(self._kind)

    def kind(self, v: int) -> str:
        return self._kind[v]

    def is_virtual(self, v: int) -> bool:
        return self._kind[v] == VIRTUAL

    def real_vertices(self) -> list[int]:
        return sorted(v for v, k in self._kind.items() if k == REAL)

    def virtual_vertices(self) -> list[int]:
        return sorted(v for v, k in self._kind.items() if k == VIRTUAL)

    def segments(self) -> tuple[tuple[int, int], ...]:
        return self._edges

    def num_segments(self) -> int:
        return len(self._edges)

    def rotation(self, v: int) -> tuple[int, ...]:
        return self._rot[v]

    def degree(self, v: int) -> int:
        return len(self._rot[v])

    def origin(self, d: int) -> int:
        return self._edges[d >> 1][d & 1]

    def target(self, d: int) -> int:
        return self._edges[d >> 1][(d & 1) ^ 1]

    def crossing_count(self) -> int:
        return sum(1 for k in self._kind.values() if k == VIRTUAL)

    def virtual_pairs(self, w: int) -> tuple[tuple[int, int], tuple[int, int]]:
        """Dart pairs at virtual w belonging to the two crossing edges."""
        r = self._rot[w]
        if self._kind[w] != VIRTUAL or len(r) != 4:
            raise InvalidEmbeddingError(f"{w} is not a degree-4 virtual vertex")
        return (r[0], r[2]), (r[1], r[3])

    def crossing_edges(self, w: int) -> tuple[tuple[int, int], tuple[int, int]]:
        """The two original edges crossing at w, as endpoint pairs (u < v)."""
        (d0, d2), (d1, d3) = self.virtual_pairs(w)
        a, b = self.target(d0), self.target(d2)
        c, d = self.target(d1), self.target(d3)
        return (min(a, b), max(a, b)), (min(c, d), max(c, d))

    # -- faces -----------------------------------------------------------

    def faces(self) -> tuple[Face, ...]:
        """All faces in fid order; every dart lies on exactly one.  Each
        face is first reached at its minimal dart, so none needs sorting."""
        if self._faces is not None:
            return self._faces
        nxt = [0] * (2 * len(self._edges))  # each dart's successor on its face
        for r in self._rot.values():
            for i, d in enumerate(r):
                nxt[r[i - 1] ^ 1] = d  # d follows r[i - 1] at this vertex
        seen, out = bytearray(len(nxt)), []
        for d0 in range(len(nxt)):
            if seen[d0]:
                continue
            cyc, d = [], d0
            while not seen[d]:
                seen[d] = 1
                cyc.append(d)
                d = nxt[d]
            out.append(Face(tuple(cyc)))
        self._faces = tuple(out)
        return self._faces

    def components(self) -> tuple[tuple[int, ...], ...]:
        """Connected components of the planarization (vertex ids, sorted)."""
        if self._components is not None:
            return self._components
        seen: set[int] = set()
        comps = []
        for root in self.vertices():
            if root in seen:
                continue
            stack, comp = [root], []
            seen.add(root)
            while stack:
                v = stack.pop()
                comp.append(v)
                for d in self._rot[v]:
                    u = self.target(d)
                    if u not in seen:
                        seen.add(u)
                        stack.append(u)
            comps.append(tuple(sorted(comp)))
        self._components = tuple(comps)
        return self._components

    def __repr__(self) -> str:
        return (
            f"OnePlaneGraph(reals={len(self.real_vertices())}, "
            f"crossings={self.crossing_count()}, segments={len(self._edges)})"
        )


# ----------------------------------------------------------------------
# Validation and recovery of the underlying graph
# ----------------------------------------------------------------------


def validate(emb: OnePlaneGraph) -> list[Violation]:
    """All invariant violations; empty iff the embedding is a valid 1-plane
    drawing of a simple graph."""
    out: list[Violation] = []
    for w in emb.virtual_vertices():
        if emb.degree(w) != 4:
            out.append(Violation("VirtualDegree", (w,), f"degree {emb.degree(w)}"))
    for i, (u, v) in enumerate(emb.segments()):
        if emb.is_virtual(u) and emb.is_virtual(v):
            out.append(Violation("VirtualVirtualEdge", (u, v), f"segment {i}"))
    # the underlying graph must be simple once crossings are smoothed out
    try:
        _smooth(emb)
    except InvalidEmbeddingError as exc:
        out.append(Violation("UnderlyingNotSimple", exc.args[1], str(exc.args[0])))
    # genus check: Euler's formula per connected component
    comps = emb.components()
    comp_of = {}
    for i, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = i
    v_cnt = [len(c) for c in comps]
    e_cnt = [0] * len(comps)
    f_cnt = [0] * len(comps)
    for u, v in emb.segments():
        e_cnt[comp_of[u]] += 1
    for f in emb.faces():
        f_cnt[comp_of[emb.origin(f.darts[0])]] += 1
    for i, comp in enumerate(comps):
        if len(comp) == 1 and e_cnt[i] == 0:
            continue  # isolated vertex: no darts, no faces
        if v_cnt[i] - e_cnt[i] + f_cnt[i] != 2:
            out.append(
                Violation(
                    "EulerViolation",
                    (comp[0],),
                    f"V-E+F = {v_cnt[i]}-{e_cnt[i]}+{f_cnt[i]} != 2",
                )
            )
    return out


def require_valid(emb: OnePlaneGraph) -> OnePlaneGraph:
    """emb itself; one that ``validate`` rejects raises
    InvalidEmbeddingError naming the first violation."""
    bad = validate(emb)
    if bad:
        raise InvalidEmbeddingError(f"invalid embedding: {bad[0]}")
    return emb


def _smooth(emb: OnePlaneGraph) -> tuple[Graph, Mapping[tuple[int, int], int | None]]:
    """The underlying simple graph and the read-only map of g_edges, stored
    on emb; raises InvalidEmbeddingError (with a witness in args[1]) if
    smoothing is not simple."""
    if emb._smoothing is not None:
        return emb._smoothing
    adj: dict[int, set[int]] = {v: set() for v in emb.real_vertices()}
    ends = [(u, v, None) for u, v in emb.segments() if u in adj and v in adj]
    for w in emb.virtual_vertices():
        if emb.degree(w) != 4:
            continue  # reported separately by validate()
        for a, b in emb.crossing_edges(w):
            if a in adj and b in adj:  # else virtual-virtual, reported separately
                ends.append((a, b, w))
    crossing: dict[tuple[int, int], int | None] = {}
    for a, b, w in ends:
        if a == b:
            raise InvalidEmbeddingError("smoothed loop", (a, w))
        e = (a, b) if a < b else (b, a)
        if e in crossing:
            raise InvalidEmbeddingError("parallel original edge", e)
        crossing[e] = w
        adj[a].add(b)
        adj[b].add(a)
    emb._smoothing = Graph(adj), MappingProxyType(crossing)
    return emb._smoothing


def underlying_graph(emb: OnePlaneGraph) -> Graph:
    """Recover the abstract graph: smooth every virtual vertex into its two
    crossing original edges."""
    return _smooth(emb)[0]


def g_edges(emb: OnePlaneGraph) -> Mapping[tuple[int, int], int | None]:
    """Original edges -> the virtual vertex crossing them (None if uncrossed)."""
    return _smooth(emb)[1]


# ----------------------------------------------------------------------
# Construction helpers
# ----------------------------------------------------------------------


def neighbor_darts(
    segments: Iterable[tuple[int, int]], rot: Mapping[int, Sequence[int]]
) -> dict[int, list[int]]:
    """Dart rotations from neighbor rotations: segments[i] = (u, v) owns
    dart 2i at u and 2i+1 at v, and neighbor u in rot[v] names the dart at
    v of the one segment joining v and u."""
    dart: dict[tuple[int, int], int] = {}
    for i, (u, v) in enumerate(segments):
        dart[u, v], dart[v, u] = 2 * i, 2 * i + 1
    return {v: [dart[v, u] for u in ns] for v, ns in rot.items()}


def plane_from_rotations(n: int, rot: dict[int, Sequence[int]]) -> OnePlaneGraph:
    """Crossing-free embedding of a simple graph given neighbor rotations."""
    rot = {**dict.fromkeys(range(n), ()), **rot}
    segments = dict.fromkeys((min(u, v), max(u, v)) for v, ns in rot.items() for u in ns)
    return OnePlaneGraph({v: REAL for v in range(n)}, neighbor_darts(segments, rot))


class EmbeddingBuilder:
    """Mutable counterpart of OnePlaneGraph used by surgeries and generators.

    Edges carry stable keys; rotations are lists of edge keys.  ``build``
    renumbers segments canonically (vertex-id order, rotation order) and
    keeps each segment's (u, v) orientation as added.  ``add_edge`` is the
    only way to place a new segment: before a named segment of each end's
    rotation, or at its end.
    """

    def __init__(self) -> None:
        self.kind: dict[int, str] = {}
        self.ends: dict[int, tuple[int, int]] = {}
        self.rot: dict[int, list[int]] = {}
        self._next = 0

    @classmethod
    def from_embedding(cls, emb: OnePlaneGraph) -> "EmbeddingBuilder":
        b = cls()
        b.kind = {v: emb.kind(v) for v in emb.vertices()}
        b.ends = {i: e for i, e in enumerate(emb.segments())}
        b.rot = {v: [d // 2 for d in emb.rotation(v)] for v in emb.vertices()}
        b._next = len(emb.segments())
        return b

    def add_vertex(self, v: int, kind: str) -> int:
        if v in self.kind:
            raise InvalidEmbeddingError(f"vertex {v} already present")
        self.kind[v] = kind
        self.rot[v] = []
        return v

    def fresh_vertex_id(self) -> int:
        return max(self.kind, default=-1) + 1

    def add_edge(
        self, u: int, v: int, before_u: int | None = None, before_v: int | None = None
    ) -> int:
        """Add segment u-v just before segment before_u in u's rotation and
        before before_v in v's; at the end of a rotation where None."""
        e = self._next
        self._next += 1
        self.ends[e] = (u, v)
        for x, f in ((u, before_u), (v, before_v)):
            r = self.rot[x]
            r.insert(len(r) if f is None else r.index(f), e)
        return e

    def other_end(self, e: int, v: int) -> int:
        a, b = self.ends[e]
        return b if a == v else a

    def delete_edge(self, e: int) -> None:
        u, v = self.ends.pop(e)
        self.rot[u].remove(e)
        self.rot[v].remove(e)

    def replace_endpoint(self, e: int, old: int, new: int) -> None:
        a, b = self.ends[e]
        self.ends[e] = (new, b) if a == old else (a, new)

    def build(self) -> OnePlaneGraph:
        index: dict[int, int] = {}
        for v in sorted(self.kind):
            for e in self.rot[v]:
                if e not in index:
                    index[e] = len(index)
        ends = self.ends
        rot = {v: [2 * index[e] + (ends[e][0] != v) for e in r] for v, r in self.rot.items()}
        return OnePlaneGraph(self.kind, rot)


# ----------------------------------------------------------------------
# Embedding surgery
# ----------------------------------------------------------------------


def _fuse(b: EmbeddingBuilder, w: int, e1: int, e2: int) -> None:
    """Join segments e1 (x-w) and e2 (w-y) into one segment x-y: e1 keeps
    its key and its slot at x, takes e2's slot at y, and e2 is dropped.
    w's rotation is left to the caller."""
    x, y = b.other_end(e1, w), b.other_end(e2, w)
    b.rot[y][b.rot[y].index(e2)] = e1
    b.ends[e1] = (x, y)
    del b.ends[e2]


def _delete(
    emb: OnePlaneGraph, drop: Iterable[int], cut: Iterable[tuple[int, int]]
) -> EmbeddingBuilder:
    """A builder holding emb less the real vertices in drop and the original
    edges that die: those with an end in drop and those in cut.  A crossing
    of two dying edges disappears; at a crossing of one, the other edge is
    fused whole again.  Each touched rotation is filtered once, in order."""
    gone = set(drop)  # the dropped vertices, then the crossings that die with them
    cut = {(u, v) if u < v else (v, u) for u, v in cut}
    b = EmbeddingBuilder.from_embedding(emb)
    for v in gone:
        if b.kind.get(v) != REAL:
            raise InvalidEmbeddingError(f"{v} is not a real vertex")
    dead = {e for v in gone for e in b.rot[v]}
    if cut:
        edges = g_edges(emb)
        for u, v in cut:
            if (u, v) not in edges:
                raise NotAnEdgeError((u, v))
            if edges[u, v] is None:
                dead.update(e for e in b.rot[u] if b.other_end(e, u) == v)

    def dies(u: int, v: int) -> bool:
        return u in gone or v in gone or ((u, v) if u < v else (v, u)) in cut

    # classify every virtual by how many of its two crossing edges die
    for w in emb.virtual_vertices():
        r = b.rot[w]  # four segments, rotation order; far ends are real
        far = [b.other_end(e, w) for e in r]
        die_a, die_b = dies(far[0], far[2]), dies(far[1], far[3])
        if die_a or die_b:
            gone.add(w)
            dead.update(r)
        if die_a != die_b:
            e1, e2 = (r[1], r[3]) if die_a else (r[0], r[2])
            dead.difference_update((e1, e2))
            _fuse(b, w, e1, e2)
    # build() reads only the segments that rotations name
    for u in {u for e in dead for u in b.ends[e]} - gone:
        b.rot[u] = [e for e in b.rot[u] if e not in dead]
    for v in gone:
        del b.rot[v], b.kind[v]
    return b


def delete_real_vertices(emb: OnePlaneGraph, drop: Iterable[int]) -> OnePlaneGraph:
    """Delete real vertices and all their original edges.  Crossings on a
    deleted edge disappear; the edge that crossed it is fused whole again."""
    return _delete(emb, drop, ()).build()


def delete_g_edge(emb: OnePlaneGraph, x: int, y: int) -> OnePlaneGraph:
    """Delete one original edge, restoring whatever crossed it."""
    return _delete(emb, (), [(x, y)]).build()


def contract_uncrossed_edge(emb: OnePlaneGraph, x: int, y: int) -> OnePlaneGraph:
    """Contract a crossing-free original edge xy in the plane drawing.

    x is merged into y.  x's edges to the common neighbors of x and y are
    deleted first, so the result is simple, as with ``Graph.contract``.
    The merged rotation interleaves the two old rotations at the contracted
    corner, which keeps the drawing planar.
    """
    edges = g_edges(emb)
    xy = (x, y) if x < y else (y, x)
    if xy not in edges:
        raise NotAnEdgeError((x, y))
    if edges[xy] is not None:
        raise InvalidEmbeddingError(f"edge ({x}, {y}) has a crossing")
    g = underlying_graph(emb)
    b = _delete(emb, (), [(x, z) for z in set(g.neighbors(x)).intersection(g.neighbors(y))])
    rx, ry = b.rot.pop(x), b.rot[y]
    e = next(e for e in rx if b.other_end(e, x) == y)
    ix, iy = rx.index(e), ry.index(e)
    moved = rx[ix + 1 :] + rx[:ix]
    for f in moved:
        b.replace_endpoint(f, x, y)
    b.rot[y] = ry[iy + 1 :] + ry[:iy] + moved
    del b.kind[x]
    return b.build()


def split_components(emb: OnePlaneGraph) -> list[OnePlaneGraph]:
    """One embedding per connected component of the planarization."""
    comps = emb.components()
    if len(comps) == 1:
        return [emb]
    out = []
    for comp in comps:
        # a segment's two darts lie in one component, so they stay adjacent
        new = {d: i for i, d in enumerate(sorted(d for v in comp for d in emb.rotation(v)))}
        rot = {v: [new[d] for d in emb.rotation(v)] for v in comp}
        out.append(OnePlaneGraph({v: emb.kind(v) for v in comp}, rot))
    return out


def insert_crossing(emb: OnePlaneGraph, d_ab: int, d_cd: int) -> OnePlaneGraph:
    """Reroute edge ab to cross edge cd, given darts of the two edges on a
    common face.  Both edges must be uncrossed with four distinct real
    endpoints.  The abstract graph is unchanged."""
    if not any(d_ab in f.darts and d_cd in f.darts for f in emb.faces()):
        raise InvalidEmbeddingError("darts do not share a face")
    a, bb = emb.origin(d_ab), emb.target(d_ab)
    c, dd = emb.origin(d_cd), emb.target(d_cd)
    if len({a, bb, c, dd}) != 4 or any(
        emb.is_virtual(v) for v in (a, bb, c, dd)
    ):
        raise InvalidEmbeddingError("need disjoint uncrossed real edges")
    b = EmbeddingBuilder.from_embedding(emb)
    e_ab, e_cd = d_ab // 2, d_cd // 2
    w = b.add_vertex(b.fresh_vertex_id(), VIRTUAL)
    # walking the face from a's corner, edge cd is met c-first; the rerouted
    # curve a-w-b leaves the cd side of the face, giving rotation (a, c, b, d)
    for x, e in ((a, e_ab), (c, e_cd), (bb, e_ab), (dd, e_cd)):
        b.add_edge(x, w, e)
    b.delete_edge(e_ab)
    b.delete_edge(e_cd)
    return b.build()
