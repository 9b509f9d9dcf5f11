"""Odd (2d+1)-coloring for graphs from a d-degenerate minor-closed family.

The algorithm contracts a minimum-degree edge until one vertex remains,
then unwinds: the merged vertex's color transfers to the kept endpoint and
the removed endpoint is colored greedily, avoiding the colors and protected
odd colors of its neighbors.  At most 2d colors are ever forbidden, and the
kept endpoint's color appears exactly once on the new vertex's neighborhood,
which is what makes the extension odd; that fact is checked after every
extension step.

Each component is contracted on one ``graphs.MutableAdjacency``: the
vertex x of least (degree, id) merges into its lowest-id neighbor y in
O(d), and the merge goes on an undo log as (x, y, N(x), the neighbors y
gained).  The unwind walks the log backwards on one
``OddTracker``, which keeps one color and one bitmask per vertex, bit c
set when color c occurs an odd number of times on its neighbors:
``unmerge`` toggles y's gained edges out of the masks, colors x greedily
and checks y's color on N(x), one call per record.  The graph itself is
never rebuilt, so a component costs O(n*d + m log n) time and O(n + m)
memory: a mask has 2d+2 bits, one CPython digit while d <= 14, and each
record toggles O(d) of them.

Family membership is not verified structurally.  What the procedure
actually consumes is that every contraction result still has a vertex of
degree at most d, and that is checked at every step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .coloring import Coloring, EngineInvariantError, OddTracker, is_odd_coloring
from .graphs import Graph, MutableAdjacency, connected_components


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
    log, base = _contract(g, comp, d)
    tracker.extend(base, ())
    for x, y, nx, gained in reversed(log):
        tracker.unmerge(x, y, nx, gained)
    return ContractionTrace([(x, y) for x, y, _, _ in log], base)


def _contract(g: Graph, comp: list[int], d: int) -> tuple[list, int]:
    """Contract the connected component ``comp`` of g to one vertex.

    Returns the log of (x, y, N(x), neighbors y gained) per merge of x into
    y, and the last vertex.  Raises NotDegenerateError when every vertex
    left has degree above d.  A one-vertex component is its own base."""
    if len(comp) == 1:
        return [], comp[0]
    adj = MutableAdjacency(g, comp)
    rows = adj.rows
    log = []
    while len(rows) > 1:
        x = adj.pop_min()
        if len(rows[x]) > d:
            raise NotDegenerateError(Graph(rows), d)
        if not rows[x]:
            # disconnected inputs are split by the caller; unreachable here
            raise EngineInvariantError("isolated vertex in connected component")
        y = min(rows[x])
        log.append((x, y, *adj.merge(x, y)))
    (base,) = rows
    return log, base


# ----------------------------------------------------------------------
# K4-minor-free pipeline
# ----------------------------------------------------------------------


def has_k4_minor(g: Graph) -> bool:
    """Exact test: contract every component at d = 2.

    Contracting an edge at a vertex of degree <= 2 deletes a pendant
    vertex, smooths a degree-2 vertex or drops one whose neighbors are
    adjacent; none of these creates or destroys a K4 minor.  A graph where
    the contraction gets stuck has minimum degree >= 3, hence contains a
    K4 subdivision."""
    try:
        for comp in connected_components(g):
            _contract(g, comp, 2)
    except NotDegenerateError:
        return True
    return False


def odd_color_k4_minor_free(g: Graph) -> tuple[Coloring, list[ContractionTrace]]:
    """Odd 5-coloring of a K4-minor-free graph (such graphs are
    2-degenerate): ``odd_color_minor_closed(g, 2)``.  By the argument in
    ``has_k4_minor``, a graph with a K4 minor, of any size, raises
    NotDegenerateError (a ValueError)."""
    return odd_color_minor_closed(g, 2)
