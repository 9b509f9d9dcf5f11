"""Odd (2d+1)-coloring for graphs from a d-degenerate minor-closed family.

The algorithm contracts a minimum-degree edge until one vertex remains,
then unwinds: the merged vertex's color transfers to the kept endpoint and
the removed endpoint is colored greedily, avoiding the colors and protected
odd colors of its neighbors.  At most 2d colors are ever forbidden, and the
kept endpoint's color appears exactly once on the new vertex's neighborhood,
which is what makes the extension odd; that fact is checked after every
extension step.

Family membership is not verified structurally.  What the procedure
actually consumes is that every contraction result still has a vertex of
degree at most d, and that is checked at every step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .coloring import Coloring, EngineInvariantError, greedy_extend, is_odd_coloring, union
from .graphs import Graph, connected_components


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
    k = 2 * d + 1
    colorings = []
    traces = []
    for comp in connected_components(g):
        sub = g.subgraph(comp)
        c, trace = _color_component(sub, d, k)
        colorings.append(c)
        traces.append(trace)
    if not colorings:
        return Coloring(k, {}), []
    merged = union(*colorings)
    if not is_odd_coloring(g, merged):
        raise EngineInvariantError("engine emitted a non-odd coloring")
    return merged, traces


def _color_component(g: Graph, d: int, k: int) -> tuple[Coloring, ContractionTrace]:
    trace = ContractionTrace()
    # contract down to a single vertex, keeping each intermediate graph
    levels: list[tuple[Graph, int, int]] = []  # (graph before step, x, y)
    cur = g
    while cur.n > 1:
        x = min(cur.vertices(), key=lambda v: (cur.degree(v), v))
        if cur.degree(x) > d:
            raise NotDegenerateError(cur, d)
        if cur.degree(x) == 0:
            # disconnected inputs are split by the caller; unreachable here
            raise EngineInvariantError("isolated vertex in connected component")
        y = min(cur.neighbors(x))
        levels.append((cur, x, y))
        trace.steps.append((x, y))
        cur, _ = cur.contract(x, y)
    base = cur.vertices()[0]
    trace.base = base
    c = Coloring(k, {base: 1})
    # unwind: y already carries the merged vertex's color; extend to x
    for before, x, y in reversed(levels):
        color = greedy_extend(before, c, x)
        if color is None:
            raise EngineInvariantError(
                f"no color free for vertex {x}: degeneracy bound violated"
            )
        c = c.set(x, color)
        # the kept endpoint's color occurs exactly once on x's neighborhood
        occurrences = sum(
            1 for u in before.neighbors(x) if c.assign.get(u) == c.assign[y]
        )
        if occurrences != 1:
            raise EngineInvariantError(
                f"color of {y} appears {occurrences} times on N({x})"
            )
    return c, trace


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
