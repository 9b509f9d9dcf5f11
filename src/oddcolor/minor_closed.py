"""Odd (2d+1)-coloring for graphs from a d-degenerate minor-closed family.

The algorithm contracts a minimum-degree edge until one vertex remains,
then unwinds: the merged vertex's color transfers to the kept endpoint and
the removed endpoint is colored greedily, avoiding the colors and protected
odd colors of its neighbors.  At most 2d colors are ever forbidden, and the
kept endpoint's color appears exactly once on the new vertex's neighborhood,
which is what makes the extension odd; that fact is checked after every
extension step.

Each component is contracted on one mutable adjacency.  The vertex x of
least (degree, id) comes from a lazy heap, merges into its lowest-id
neighbor y in O(d), and the merge goes on an undo log as (x, y, N(x), the
neighbors y gained).  The unwind walks the log backwards on one
``OddTracker``, whose per-vertex tables count how many neighbors carry
each color: ``unmerge`` takes y's gained edges out of the tables, colors
x greedily and checks y's color on N(x), one call per record.  The graph
itself is never rebuilt, so a component costs O(n*d*k + m log n) time and
O(n*k + m) memory.

Family membership is not verified structurally.  What the procedure
actually consumes is that every contraction result still has a vertex of
degree at most d, and that is checked at every step.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from .coloring import Coloring, EngineInvariantError, OddTracker, is_odd_coloring
from .graphs import Graph, connected_components, pop_min_degree


class NotDegenerateError(ValueError):
    """A contraction produced minimum degree above the promised d."""

    def __init__(self, witness: Graph, d: int):
        self.witness = witness
        self.d = d
        super().__init__(
            f"minimum degree {min(witness.degree(v) for v in witness.vertices())}"
            f" exceeds d={d} on a {witness.n}-vertex contraction"
        )


@dataclass
class ContractionTrace:
    """Contraction steps (x merged into y) plus the base vertex, per component."""

    steps: list[tuple[int, int]] = field(default_factory=list)
    base: int | None = None


def odd_color_minor_closed(
    g: Graph, d: int
) -> tuple[Coloring, list[ContractionTrace]]:
    """Odd coloring with at most 2d+1 colors.

    Raises NotDegenerateError if some graph reached by contractions has
    minimum degree above d (the caller's membership promise failed).
    """
    if d < 0:
        raise ValueError("d must be >= 0")
    tracker = OddTracker(None, 2 * d + 1)
    traces = [_color_component(g, comp, d, tracker) for comp in connected_components(g)]
    c = tracker.as_coloring()
    if not is_odd_coloring(g, c):
        raise EngineInvariantError("engine emitted a non-odd coloring")
    return c, traces


def _color_component(
    g: Graph, comp: list[int], d: int, tracker: OddTracker
) -> ContractionTrace:
    """Color the connected component ``comp`` of g into ``tracker``."""
    trace = ContractionTrace()
    adj = {v: set(g.neighbors(v)) for v in comp}
    heap = [(len(ns), v) for v, ns in adj.items()]
    heapq.heapify(heap)
    log: list[tuple[int, int, set[int], list[int]]] = []  # (x, y, N(x), gained by y)
    while len(adj) > 1:
        x = pop_min_degree(heap, adj)
        if len(adj[x]) > d:
            raise NotDegenerateError(Graph(adj), d)
        if not adj[x]:
            # disconnected inputs are split by the caller; unreachable here
            raise EngineInvariantError("isolated vertex in connected component")
        nx = adj.pop(x)
        y = min(nx)
        ny = adj[y]
        ny.remove(x)
        gained = []
        for w in nx - {y}:
            adj[w].remove(x)
            if w in ny:
                heapq.heappush(heap, (len(adj[w]), w))
            else:
                adj[w].add(y)
                ny.add(w)
                gained.append(w)
        heapq.heappush(heap, (len(ny), y))
        log.append((x, y, nx, gained))
        trace.steps.append((x, y))
    (trace.base,) = adj
    tracker.extend(trace.base, ())
    for x, y, nx, gained in reversed(log):
        tracker.unmerge(x, y, nx, gained)
    return trace


# ----------------------------------------------------------------------
# K4-minor-free pipeline
# ----------------------------------------------------------------------


def has_k4_minor(g: Graph) -> bool:
    """Exact test: reduce by deleting degree-<=2 vertices (smoothing a
    degree-2 vertex adds the shortcut edge).  These reductions preserve
    the existence of a K4 minor, and a simple graph where none applies has
    minimum degree >= 3, hence contains a K4 subdivision."""
    adj = {v: set(g.neighbors(v)) for v in g.vertices()}
    queue = [v for v, ns in adj.items() if len(ns) <= 2]
    while queue:
        v = queue.pop()
        if v not in adj or len(adj[v]) > 2:
            continue
        ns = sorted(adj[v])
        for u in ns:
            adj[u].discard(v)
        if len(ns) == 2:
            a, b = ns
            if b not in adj[a]:
                adj[a].add(b)
                adj[b].add(a)
        del adj[v]
        for u in ns:
            if u in adj and len(adj[u]) <= 2:
                queue.append(u)
    return bool(adj)


def odd_color_k4_minor_free(g: Graph) -> tuple[Coloring, list[ContractionTrace]]:
    """Odd 5-coloring of a K4-minor-free graph (such graphs are
    2-degenerate).  Membership is verified for |G| <= 12, otherwise the
    caller asserts it; a wrong promise still fails fast through the
    degeneracy check."""
    if g.n <= 12 and has_k4_minor(g):
        raise ValueError("graph has a K4 minor")
    return odd_color_minor_closed(g, 2)
