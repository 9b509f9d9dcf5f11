"""Constructive odd coloring of 1-plane graphs by reducible configurations.

The engine works in two passes.  It first reduces: it repeatedly finds one
of seven local configurations in a valid connected 1-plane embedding and
turns the instance into exactly one smaller instance (or one better
drawing), logging each shrinking step, until every remaining instance is
small enough to color with distinct colors.  Only splitting an instance
into the components of its planarization makes several.  It then replays
the log last-in-first-out, extending one coloring back over each step.  A
record keeps the neighbor rows of the vertices its step removed (and the
neighbors a contraction's kept end gained); only Bridge keeps its graph.
The replay reads tau_o off one ``OddTracker``, whose tables describe the
graph each record's step left: pending instances are vertex-disjoint, and
no underlying edge joins two planarization components.

The fixed priority matters where a later configuration is only correct
once an earlier one is absent: handling a vertex with 2-valent neighbors
assumes no two small vertices are adjacent, so each 2-valent neighbor's
other endpoint is big and survives the deletion.

  1. OddLowVertex      odd degree <= 11: delete, extend greedily
  2. SmallPair         adjacent degrees <= 10: delete both, extend in order
  3. UncrossedSmallEdge  crossing-free edge at a small vertex: contract it
  4. TwoFaceUncross    two edges at one vertex crossing: redraw uncrossed
  5. D2Vertex          2d(v) < d2(v) + K: delete v and its 2-valent
                        neighbors, color v first, then the 2-vertices
  6. SixFourSwap       the 6-face/4-face pattern: swap two 2-vertices,
                        removing their mutual crossing
  7. Bridge            delete the cut edge xy, color what is left, then
                        permute each side's colors to align anchors at x, y

Bridge comes last because no other extension reads the absence of a
bridge: OddLowVertex forbids at most 2 * 11 = 22 colors, and D2Vertex's
surviving big neighbors rest on SmallPair being absent.  Its own extension
permutes the colors of x's side and of y's side of g minus xy, which works
on any coloring that is odd on g minus xy, whether or not deleting the edge
split the planarization.  The kept-color and anchor checks and the final
`is_odd_coloring` still raise on any slip.  A Bridge step shrinks the edge
count, not |V|.

A connected valid embedding larger than the palette always contains one of
these: otherwise the discharging rules would leave every vertex and face
nonnegative while the total charge is -8.  Exhausting the list therefore
raises, attaching the discharging audit as the bug report.
"""

from __future__ import annotations

import logging
from dataclasses import astuple, dataclass, field
from typing import Union

from . import discharging
from .coloring import Coloring, EngineInvariantError, OddTracker, is_odd_coloring
from .embedding import (
    EmbeddingBuilder,
    OnePlaneGraph,
    _fuse,
    contract_uncrossed_edge,
    delete_g_edge,
    delete_real_vertices,
    g_edges,
    require_valid,
    split_components,
    underlying_graph,
)
from .graphs import Graph, bridges, connected_components

log = logging.getLogger("oddcolor.reduction")


class PatternNotFoundError(ValueError):
    """The requested surgery pattern is absent from the embedding."""


class NoConfigFoundError(RuntimeError):
    """No reducible configuration exists: impossible on valid input, so
    either the input or the engine is broken.  Carries the discharging
    audit explaining which structural guarantee failed."""

    def __init__(self, report: discharging.AuditReport):
        self.report = report
        super().__init__(f"no reducible configuration; audit:\n{report}")


@dataclass(frozen=True)
class Thresholds:
    K: int = discharging.PALETTE  # palette size
    BIG: int = discharging.BIG_DEGREE  # big-vertex degree threshold

    @property
    def ODD_MAX(self) -> int:
        """Largest reducible odd degree."""
        return self.BIG - 1

    def __post_init__(self):
        if self.K < 2 * self.ODD_MAX + 1:
            raise ValueError("need K >= 2*ODD_MAX + 1")


# -- the configuration union -------------------------------------------


@dataclass(frozen=True)
class Bridge:
    x: int
    y: int


@dataclass(frozen=True)
class OddLowVertex:
    v: int


@dataclass(frozen=True)
class SmallPair:
    v: int
    w: int


@dataclass(frozen=True)
class UncrossedSmallEdge:
    x: int  # the small endpoint
    y: int


@dataclass(frozen=True)
class TwoFaceUncross:
    w: int  # the virtual vertex on the 2-face


@dataclass(frozen=True)
class D2Vertex:
    v: int


@dataclass(frozen=True)
class SixFourSwap:
    u: int
    w: int
    v: int
    z: int
    c: int


ReducibleConfig = Union[
    Bridge, OddLowVertex, SmallPair, UncrossedSmallEdge, TwoFaceUncross,
    D2Vertex, SixFourSwap,
]


@dataclass(frozen=True)
class TraceStep:
    tag: str
    witness: tuple
    before: tuple[int, int]  # (|V| of underlying, crossings)
    after: tuple[tuple[int, int], ...]  # the instance left; empty for a base case


@dataclass
class ReductionTrace:
    steps: list[TraceStep] = field(default_factory=list)

    def record(self, tag, witness, before, after) -> None:
        step = TraceStep(tag, tuple(witness), before, tuple(after))
        self.steps.append(step)
        log.debug(
            "step %s witness=%s before=%s after=%s", tag, witness, before, after
        )


# ----------------------------------------------------------------------
# Configuration search
# ----------------------------------------------------------------------


def _d2(g: Graph, v: int) -> int:
    return sum(1 for u in g.neighbors(v) if g.degree(u) == 2)


def _find_two_face(emb: OnePlaneGraph) -> TwoFaceUncross | None:
    for f in emb.faces():
        if f.len != 2:
            continue
        a, b = emb.origin(f.darts[0]), emb.origin(f.darts[1])
        if emb.is_virtual(a) != emb.is_virtual(b):
            return TwoFaceUncross(a if emb.is_virtual(a) else b)
    return None


def _find_six_four(emb: OnePlaneGraph) -> SixFourSwap | None:
    def is_two(v: int) -> bool:
        return not emb.is_virtual(v) and emb.degree(v) == 2

    face_of_dart = {}
    faces = emb.faces()
    for f in faces:
        for d in f.darts:
            face_of_dart[d] = f
    for f in faces:
        if f.len != 6:
            continue
        vs = [emb.origin(d) for d in f.darts]
        if len(set(vs)) != 6:
            continue
        for r in range(6):
            v, y1, u, z, w, y2 = (vs[(r + i) % 6] for i in range(6))
            if not (is_two(v) and is_two(u) and is_two(w)):
                continue
            if not all(emb.is_virtual(x) for x in (y1, z, y2)):
                continue
            # the other face at v must be a 4-face with one real corner c
            d1, d2 = emb.rotation(v)
            f1, f2 = face_of_dart[d1], face_of_dart[d2]
            fp = f2 if f1 is f else f1
            if fp is f or fp.len != 4:
                continue
            others = {emb.origin(d) for d in fp.darts} - {v, y1, y2}
            if len(others) != 1:
                continue
            c = others.pop()
            if emb.is_virtual(c):
                continue
            return SixFourSwap(u=u, w=w, v=v, z=z, c=c)
    return None


def find_reducible(emb: OnePlaneGraph, t: Thresholds = Thresholds()) -> ReducibleConfig:
    """First configuration under the fixed priority.

    The planarization must be connected (split components first); its
    underlying graph need not be, since edges of two components may cross.
    A valid connected 1-plane embedding always yields one; exhausting the
    priority list raises NoConfigFoundError with the discharging audit.
    """
    g = underlying_graph(emb)
    if g.n and len(emb.components()) != 1:
        raise ValueError("planarization must be connected")
    for v in g.vertices():
        d = g.degree(v)
        if d % 2 == 1 and d <= t.ODD_MAX:
            return OddLowVertex(v)

    for v, w in g.edges():
        if g.degree(v) <= t.ODD_MAX - 1 and g.degree(w) <= t.ODD_MAX - 1:
            return SmallPair(v, w)

    for (a, b), cross in sorted(g_edges(emb).items()):
        if cross is None:
            if g.degree(a) <= t.ODD_MAX:
                return UncrossedSmallEdge(a, b)
            if g.degree(b) <= t.ODD_MAX:
                return UncrossedSmallEdge(b, a)

    two_face = _find_two_face(emb)
    if two_face is not None:
        return two_face

    for v in g.vertices():
        d2 = _d2(g, v)
        if d2 >= 1 and 2 * g.degree(v) < d2 + t.K:
            return D2Vertex(v)

    six_four = _find_six_four(emb)
    if six_four is not None:
        return six_four

    br = bridges(g)
    if br:
        return Bridge(*br[0])

    _, _, report = discharging.discharge(emb, t.BIG, t.K)
    raise NoConfigFoundError(report)


def check_config(emb: OnePlaneGraph, t: Thresholds, cfg: ReducibleConfig) -> None:
    """Independent hypothesis check; raises EngineInvariantError on mismatch."""
    g = underlying_graph(emb)
    if isinstance(cfg, Bridge):
        ok = (min(cfg.x, cfg.y), max(cfg.x, cfg.y)) in bridges(g)
    elif isinstance(cfg, OddLowVertex):
        d = g.degree(cfg.v)
        ok = d % 2 == 1 and d <= t.ODD_MAX
    elif isinstance(cfg, SmallPair):
        ok = g.has_edge(cfg.v, cfg.w) and max(g.degree(cfg.v), g.degree(cfg.w)) <= t.ODD_MAX - 1
    elif isinstance(cfg, UncrossedSmallEdge):
        edges = g_edges(emb)
        xy = (min(cfg.x, cfg.y), max(cfg.x, cfg.y))
        ok = xy in edges and edges[xy] is None and g.degree(cfg.x) <= t.ODD_MAX
    elif isinstance(cfg, TwoFaceUncross):
        ok = emb.is_virtual(cfg.w) and any(
            f.len == 2 and cfg.w in (emb.origin(f.darts[0]), emb.origin(f.darts[1]))
            for f in emb.faces()
        )
    elif isinstance(cfg, D2Vertex):
        d2 = _d2(g, cfg.v)
        ok = d2 >= 1 and 2 * g.degree(cfg.v) < d2 + t.K
    elif isinstance(cfg, SixFourSwap):
        ok = all(not emb.is_virtual(x) and emb.degree(x) == 2 for x in (cfg.u, cfg.w, cfg.v))
        if ok and emb.is_virtual(cfg.z) and not emb.is_virtual(cfg.c):
            # z is the crossing of u's and w's second edges
            e1, e2 = emb.crossing_edges(cfg.z)
            ok = (cfg.u in e1 and cfg.w in e2) or (cfg.u in e2 and cfg.w in e1)
            ok = ok and g.has_edge(cfg.u, cfg.c) and g.has_edge(cfg.w, cfg.c)
        else:
            ok = False
    else:
        raise TypeError(f"unknown config {cfg!r}")
    if not ok:
        raise EngineInvariantError(f"{cfg!r} does not meet its hypothesis")


# ----------------------------------------------------------------------
# The two drawing-improving surgeries
# ----------------------------------------------------------------------


def uncross_two_face(emb: OnePlaneGraph, w: int) -> OnePlaneGraph:
    """Remove the crossing of two edges that share an endpoint and bound a
    2-face at virtual w.  The same two abstract edges come back uncrossed;
    the crossing count drops by one."""
    if w not in emb.vertices() or not emb.is_virtual(w):
        raise PatternNotFoundError(f"{w} is not a virtual vertex")
    two_face = None
    for f in emb.faces():
        if f.len == 2 and w in (emb.origin(f.darts[0]), emb.origin(f.darts[1])):
            two_face = f
            break
    if two_face is None:
        raise PatternNotFoundError(f"no 2-face at {w}")
    v = next(x for x in map(emb.origin, two_face.darts) if x != w)

    b = EmbeddingBuilder.from_embedding(emb)
    rw = b.rot.pop(w)
    del b.kind[w]
    # the 2-face uses two rotation-consecutive segments toward v
    i = next(
        i
        for i in range(4)
        if b.other_end(rw[i], w) == v and b.other_end(rw[(i + 1) % 4], w) == v
    )
    e1, e2, e1_opp, e2_opp = (rw[(i + j) % 4] for j in range(4))
    # swap continuations at the crossing: v's e1 stub joins the stub of
    # e2's far end, v's e2 stub that of e1's far end, leaving the same two
    # abstract edges uncrossed
    _fuse(b, w, e1, e2_opp)
    _fuse(b, w, e2, e1_opp)
    return b.build()


def uncross_six_four(emb: OnePlaneGraph, cfg: SixFourSwap) -> OnePlaneGraph:
    """Swap the 2-vertices u and w of the 6-face/4-face pattern.

    u takes over w's crossed corridor toward c and vice versa, and their
    remaining edges reconnect directly, so the crossing between them
    disappears.  The abstract graph is unchanged and the crossing count
    drops by one."""
    u, w, v, z, c = cfg.u, cfg.w, cfg.v, cfg.z, cfg.c
    if len({u, w, v, z, c}) != 5:
        raise PatternNotFoundError("pattern vertices must be distinct")
    for x, virtual in ((u, False), (w, False), (v, False), (z, True), (c, False)):
        if x not in emb.vertices() or emb.is_virtual(x) != virtual:
            raise PatternNotFoundError(f"vertex {x} does not fit the pattern")
    if emb.degree(u) != 2 or emb.degree(w) != 2 or emb.degree(v) != 2:
        raise PatternNotFoundError("u, w, v must be 2-vertices")

    b = EmbeddingBuilder.from_embedding(emb)

    def crossing_slots(virt: int, end: int) -> tuple[int, int]:
        """(segment to `end`, its opposite segment) at a virtual vertex."""
        r = b.rot[virt]
        for i in range(4):
            if b.other_end(r[i], virt) == end:
                return r[i], r[(i + 2) % 4]
        raise PatternNotFoundError(f"no segment {virt}-{end}")

    # y1 carries u's corridor toward c, y2 carries w's
    y1 = next(
        b.other_end(e, u) for e in b.rot[u] if b.other_end(e, u) != z
    )
    y2 = next(
        b.other_end(e, w) for e in b.rot[w] if b.other_end(e, w) != z
    )
    if y1 == y2 or not (b.kind[y1] == "virtual" and b.kind[y2] == "virtual"):
        raise PatternNotFoundError("u and w must hang on distinct crossings")
    u_y1, y1_c = crossing_slots(y1, u)
    w_y2, y2_c = crossing_slots(y2, w)
    if b.other_end(y1_c, y1) != c or b.other_end(y2_c, y2) != c:
        raise PatternNotFoundError("corridors do not meet at c")
    u_z, z_p = crossing_slots(z, u)
    w_z, z_q = crossing_slots(z, w)

    # u takes w's slot at y2, w takes u's slot at y1
    b.ends[u_y1], b.ends[w_y2] = (w, y1), (u, y2)
    # the second edges of u and w no longer cross: connect them directly
    _fuse(b, z, u_z, z_p)
    _fuse(b, z, w_z, z_q)
    b.rot[u], b.rot[w] = [w_y2, u_z], [u_y1, w_z]
    del b.rot[z], b.kind[z]
    return b.build()


# ----------------------------------------------------------------------
# The coloring engine
# ----------------------------------------------------------------------


def odd_color_1planar(
    emb: OnePlaneGraph, t: Thresholds = Thresholds()
) -> tuple[Coloring, ReductionTrace]:
    """Total odd coloring of the underlying graph with at most K colors.

    K below 23 voids the completeness guarantee and is rejected."""
    if t.K < 23:
        raise ValueError("palette below 23 voids the completeness guarantee")
    require_valid(emb)
    trace = ReductionTrace()
    tracker = OddTracker(None, t.K)
    for cfg, row, aux in reversed(_reduce(emb, t, trace, tracker)):
        _extend(cfg, row, aux, tracker)
    c = tracker.as_coloring()
    g = underlying_graph(emb)
    if not is_odd_coloring(g, c):
        raise EngineInvariantError("engine emitted a non-odd coloring")
    return c, trace


def _reduce(
    emb: OnePlaneGraph, t: Thresholds, trace: ReductionTrace, tracker: OddTracker
) -> list[tuple[ReducibleConfig, object, object]]:
    """Reduce every instance to a base case, coloring and tabulating its
    vertices in tracker, and return the log of shrinking steps in the order
    they ran.  The pending stack is last-in-first-out, so the trace is
    depth-first."""
    log = []
    pending = [emb]
    while pending:
        emb = pending.pop()
        parts = split_components(emb)
        if len(parts) > 1:
            pending.extend(reversed(parts))
            continue
        g = underlying_graph(emb)
        before = (g.n, emb.crossing_count())
        if g.n <= t.K:
            trace.record("BaseCase", (g.n,), before, [])
            tracker.color.update((v, i + 1) for i, v in enumerate(g.vertices()))
            for v in g.vertices():
                tracker.restore(v, g.neighbors(v))
            continue
        cfg = find_reducible(emb, t)
        if isinstance(cfg, TwoFaceUncross):
            emb = uncross_two_face(emb, cfg.w)
        elif isinstance(cfg, SixFourSwap):
            emb = uncross_six_four(emb, cfg)
        else:
            emb, row, aux = _shrink(emb, g, cfg)
            log.append((cfg, row, aux))
        after = (len(emb.real_vertices()), emb.crossing_count())
        trace.record(type(cfg).__name__, astuple(cfg), before, [after])
        pending.append(emb)
    return log


def _shrink(
    emb: OnePlaneGraph, g: Graph, cfg: ReducibleConfig
) -> tuple[OnePlaneGraph, object, object]:
    """The smaller instance a shrinking configuration leaves, and the log
    record's row and aux: the neighbor rows in g of the vertices it removes
    (less those it colors later), plus what the extension needs beyond
    them.  Only Bridge keeps g, with x's side as aux."""
    if isinstance(cfg, Bridge):
        side_x = next(
            side
            for side in connected_components(g.delete_edge(cfg.x, cfg.y))
            if cfg.x in side
        )
        return delete_g_edge(emb, cfg.x, cfg.y), g, side_x
    if isinstance(cfg, OddLowVertex):
        return delete_real_vertices(emb, [cfg.v]), g.neighbors(cfg.v), None
    if isinstance(cfg, SmallPair):
        v, w = cfg.v, cfg.w
        return delete_real_vertices(emb, [v, w]), g.neighbors(v) - {w}, g.neighbors(w)
    if isinstance(cfg, UncrossedSmallEdge):
        x, y = cfg.x, cfg.y
        gained = g.neighbors(x) - g.neighbors(y) - {y}
        return contract_uncrossed_edge(emb, x, y), g.neighbors(x), gained
    # D2Vertex
    others = {}
    for u in sorted(u for u in g.neighbors(cfg.v) if g.degree(u) == 2):
        other = next(x for x in g.neighbors(u) if x != cfg.v)
        if g.degree(other) == 2:
            raise EngineInvariantError(f"2-vertex {u} lacks a surviving big neighbor")
        others[u] = other
    row = g.neighbors(cfg.v) - others.keys()
    return delete_real_vertices(emb, [cfg.v, *others]), row, others


def _extend(cfg: ReducibleConfig, row, aux, tracker: OddTracker) -> None:
    """Extend the coloring over the vertices one log record removed, taking
    the tables from the graph the step left to the step's graph."""
    if isinstance(cfg, Bridge):
        _anchor_bridge(row, tracker, cfg.x, cfg.y, aux)
    elif isinstance(cfg, OddLowVertex):
        tracker.extend(cfg.v, row)
    elif isinstance(cfg, SmallPair):
        # row: N(v) less w; aux: N(w), tabulated while v is uncolored
        v, w = cfg.v, cfg.w
        tracker.restore(w, aux)
        tracker.extend(v, row, [tracker.tau_o(w)])
        tracker.extend(w, aux, [tracker.tau_o(v)])
    elif isinstance(cfg, UncrossedSmallEdge):
        tracker.unmerge(cfg.x, cfg.y, row, aux)
    else:  # D2Vertex: v first, avoiding the 2-vertices' other ends
        tracker.extend(cfg.v, row, [tracker.color[x] for x in aux.values()])
        for u, other in aux.items():
            tracker.extend(u, (cfg.v, other))


def _anchor_permutation(
    k: int, fixed: dict[int, int]
) -> dict[int, int]:
    """A palette permutation realizing the given color -> color anchors,
    filling the rest in ascending order (deterministic)."""
    perm = dict(fixed)
    free_src = [c for c in range(1, k + 1) if c not in perm]
    free_dst = [c for c in range(1, k + 1) if c not in set(perm.values())]
    perm.update(zip(free_src, free_dst))
    return perm


def _anchor_bridge(
    g: Graph, tracker: OddTracker, x: int, y: int, side_x: set[int]
) -> None:
    """Permute the colors of each side of the bridge xy so x gets 1 and y
    gets 3 and, when an endpoint keeps neighbors on its side, one of its
    odd colors there becomes 2 (at x) or 4 (at y).  The tables come in on
    g minus xy and leave rebuilt on g."""
    color = tracker.color
    side_y = set(g.vertices()).difference(side_x)
    for end, side, color_anchor, odd_anchor in ((x, side_x, 1, 2), (y, side_y, 3, 4)):
        fixed = {color[end]: color_anchor}
        if g.degree(end) > 1:
            odd = tracker.odd_colors(end)
            if not odd:
                raise EngineInvariantError(
                    f"side coloring is not odd at bridge endpoint {end}"
                )
            fixed.setdefault(min(odd), odd_anchor)
        perm = _anchor_permutation(tracker.k, fixed)
        for v in side:
            color[v] = perm[color[v]]
    for v in g.vertices():
        tracker.restore(v, g.neighbors(v))
    # the literal proof-step check: color 2 is odd on N(x) minus y, 4 on
    # N(y) minus x (the far end's color toggles the parity of one color)
    for end, far, odd_anchor in ((x, y, 2), (y, x, 4)):
        if g.degree(end) > 1 and odd_anchor not in tracker.odd_colors(end) ^ {color[far]}:
            raise EngineInvariantError(
                f"color {odd_anchor} is not odd at bridge endpoint {end}"
            )
