"""Complete search for odd k-colorings and the odd chromatic number.

Backtracking on an explicit stack (no Python frame per vertex) over a
fixed vertex order (highest degree first within a connected traversal),
with color-symmetry breaking and a parity forward check: after coloring v,
any vertex u adjacent to v whose neighborhood just became fully colored
must already see a color an odd number of times -- u's own color can never
repair its neighborhood, so such a branch is dead.
The subdivided complete graphs die immediately under this check whenever
two branch vertices share a color, which is what makes the lower-bound
searches practical.

Results are three-valued: a witness coloring, None for a completed refutation,
or INCONCLUSIVE when the node limit was hit before the search finished.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coloring import Coloring, EngineInvariantError, OddTracker, is_odd_coloring
from .graphs import Graph


class Inconclusive:
    """Search exhausted its node budget; the answer is unknown."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INCONCLUSIVE"

    def __bool__(self) -> bool:
        return False


INCONCLUSIVE = Inconclusive()


@dataclass(frozen=True)
class SearchConfig:
    max_k: int | None = None
    node_limit: int | None = None
    forward_check: bool = True
    symmetry_breaking: bool = True

    def __post_init__(self):
        if self.max_k is not None and self.max_k < 1:
            raise ValueError("max_k must be >= 1")


def auto_order(g: Graph) -> list[int]:
    """Descending-degree order within a connected traversal.

    Start each component at its highest-degree vertex; repeatedly take the
    highest-degree vertex adjacent to the ordered prefix (lowest id on ties).
    """
    remaining = set(g.vertices())
    order: list[int] = []
    frontier: set[int] = set()
    key = lambda v: (-g.degree(v), v)
    while remaining:
        v = min(frontier, key=key) if frontier else min(remaining, key=key)
        order.append(v)
        remaining.discard(v)
        frontier.discard(v)
        frontier |= g.neighbors(v) & remaining
    return order


def _search(
    g: Graph, k: int, order: list[int], cfg: SearchConfig
) -> Coloring | None | Inconclusive:
    n = len(order)
    tracker = OddTracker(g, k)
    nodes = 0
    limit = cfg.node_limit

    def allowed(v: int, max_used: int) -> list[int]:
        top = min(k, max_used + 1) if cfg.symmetry_breaking else k
        banned = {c for c, m in tracker.neighbor_colors(v).items() if m > 0}
        return [c for c in range(1, top + 1) if c not in banned]

    def consistent_after(v: int) -> bool:
        # a vertex whose whole neighborhood is colored with no odd color is
        # beyond repair: its own pending color never enters its neighborhood
        if not cfg.forward_check:
            return True
        if g.degree(v) > 0 and tracker.neighborhood_complete(v) and tracker.num_odd(v) == 0:
            return False
        for u in g.neighbors(v):
            if tracker.neighborhood_complete(u) and tracker.num_odd(u) == 0:
                return False
        return True

    witness = None
    # frame i: the colors left to try at order[i], and the largest color on order[:i]
    stack = [(iter(allowed(order[0], 0)), 0)]
    while stack:
        colors, max_used = stack[-1]
        v = order[len(stack) - 1]
        color = next(colors, None)
        if color is None:
            stack.pop()
            if stack:
                tracker.unassign(order[len(stack) - 1])
            continue
        nodes += 1
        if limit is not None and nodes > limit:
            return INCONCLUSIVE
        tracker.assign(v, color)
        if consistent_after(v):
            top = max(max_used, color)
            if len(stack) < n:
                stack.append((iter(allowed(order[len(stack)], top)), top))
                continue
            c = tracker.as_coloring()
            if cfg.forward_check or is_odd_coloring(g, c):
                witness = c
                break
        tracker.unassign(v)
    if witness is not None and not is_odd_coloring(g, witness):
        raise EngineInvariantError("search returned a non-odd witness")
    return witness


def exists_odd_k_coloring(
    g: Graph, k: int, cfg: SearchConfig = SearchConfig()
) -> Coloring | None | Inconclusive:
    """A witness odd k-coloring, None if provably none exists, or
    INCONCLUSIVE when the node limit stopped the search."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if g.n == 0:
        return Coloring(k, {})
    return _search(g, k, auto_order(g), cfg)


def min_odd_coloring(
    g: Graph, cfg: SearchConfig = SearchConfig()
) -> Coloring | Inconclusive:
    """An odd coloring with the fewest colors, by ascending complete searches.

    Its palette size is the odd chromatic number, which never exceeds |G|
    (coloring every vertex with its own color is odd); the empty graph gets
    the empty coloring with palette 1.  Returns INCONCLUSIVE if a level hits
    the node limit, or if max_k was reached without a witness.
    """
    if g.n == 0:
        return Coloring(1, {})
    top = min(cfg.max_k, g.n) if cfg.max_k is not None else g.n
    for k in range(1, top + 1):
        got = exists_odd_k_coloring(g, k, cfg)
        if got is not None:
            return got
    if top < g.n:
        return INCONCLUSIVE
    raise EngineInvariantError("no odd coloring found at k = |G|")


def chi_o(
    g: Graph, cfg: SearchConfig = SearchConfig()
) -> int | Inconclusive:
    """The odd chromatic number: the palette size of min_odd_coloring, or 0
    for the empty graph.  INCONCLUSIVE under the same conditions."""
    if g.n == 0:
        return 0
    got = min_odd_coloring(g, cfg)
    return got if got is INCONCLUSIVE else got.k
