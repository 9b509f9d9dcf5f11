"""Complete search for odd k-colorings and the odd chromatic number.

Backtracking on an explicit stack (no Python frame per vertex), with
color-symmetry breaking and a parity forward check: after coloring v, any
vertex u adjacent to v whose neighborhood just became fully colored must
already see a color an odd number of times -- u's own color can never
repair its neighborhood, so such a branch is dead.

The odd chromatic number is found by ascending searches that start at a
proven lower bound, not at 1.  A vertex of degree 2 whose two neighbors
share a color sees no odd color, so every odd coloring properly colors the
conflict graph: g plus an edge between the two neighbors of each degree-2
vertex.  One clique of it, grown greedily by largest conflict degree,
bounds chi_o, and so does 3 when some vertex has even positive degree.
The bound is exact on C4 (4), C5 (5), star(23) (2) and every labeling of
the subdivided complete graph K_p* (p); it is 3 on the longer cycles.

The search colors one connected component at a time.  The outer loop
walks the vertices by (-degree, id); each vertex still uncolored roots a
fresh stack for its component, with domain 1..min(k, used + 1), where used
is the largest color the earlier components took.  A component is finished
once every vertex in it is colored; if its stack empties, no odd
k-coloring exists and the search never goes back into a finished
component, since components share no condition.  Colors above the largest
one used are still interchangeable at every node, so symmetry breaking
stays sound across components.

Within a component, each node branches on the uncolored vertex with the
smallest domain.  v's domain is 1..top, top = min(k, max_used + 1), minus
the colors on N(v) and, under the forward check, minus tau_o(u) for each
neighbor u whose only uncolored neighbor is v: taking that color would
leave u with no odd color.  Its size is read off the ``OddTracker`` tables
without a recount: top, less the number of distinct colors on N(v), less
those bans that no neighbor of v carries, kept as one bitmask (tau_o(u)
is the color of the only set bit of u's odd-color mask, when it has just
one, read off a table of the one-bit masks).
Colors are listed only for the vertex picked.  Ties go to the most colored
neighbors, then the highest degree, then the lowest id; an empty domain
backtracks without spending a node.  Only a vertex within distance 2 of a
colored vertex can have a smaller domain than the whole palette (the tau_o
bans reach across an uncolored neighbor), so the candidates are those
vertices, kept incrementally under assign and unassign; that frontier is
empty only before a component's first node, where the (-degree, id) order
picks the root.  On the subdivided complete graphs this finds the
pigeonhole clash between branch vertices at once, whatever the vertex
labels.

Isolated vertices are left out of the search: no condition involves them,
and each takes color 1, which is in every palette.  Under symmetry
breaking no color above the number of searched vertices is ever tried, so
the tables hold only that many colors, whatever k.

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
    """Limits and pruning switches for the search.

    ``max_k`` caps the palette sizes ``min_odd_coloring`` tries.
    ``node_limit`` is one budget per level (per k): every component of the
    graph draws on the same count, and a level that exceeds it is
    INCONCLUSIVE.  ``forward_check`` and ``symmetry_breaking`` switch the
    two prunings off, for cross-checks.
    """

    max_k: int | None = None
    node_limit: int | None = None
    forward_check: bool = True
    symmetry_breaking: bool = True

    def __post_init__(self):
        if self.max_k is not None and self.max_k < 1:
            raise ValueError("max_k must be >= 1")
        if self.node_limit is not None and self.node_limit < 1:
            raise ValueError("node_limit must be >= 1")


def _search(g: Graph, k: int, cfg: SearchConfig) -> dict[int, int] | None | Inconclusive:
    """Search g, which has no isolated vertex, for an odd k-coloring, one
    component after another, on one tracker and one node budget."""
    tracker = OddTracker(g, k)
    colored = tracker.color
    # the tracker's tables, read directly at every candidate of every pick
    adj, counts, odd, only_bit = tracker._rows, tracker._counts, tracker._odd, tracker._only_bit
    distinct, uncolored = tracker._distinct, tracker._uncolored_nbrs
    closed = {v: (v, *row) for v, row in adj.items()}
    deg = {v: len(row) for v, row in adj.items()}
    fc, sym = cfg.forward_check, cfg.symmetry_breaking
    nodes = 0
    limit = cfg.node_limit
    # near[v]: colored vertices within distance 2 of v, with multiplicity;
    # frontier: the uncolored vertices with near > 0.  Any other uncolored
    # vertex has the whole palette as its domain and no colored neighbor,
    # while a nonempty frontier always holds a vertex with a colored
    # neighbor, which beats it.  It is empty once a component is finished.
    near = dict.fromkeys(adj, 0)
    frontier: set[int] = set()

    def place(v: int, color: int) -> bool:
        """Color v; False when the forward check finds a vertex of N[v]
        whose neighborhood is all colored with no odd color: its own
        pending color never enters its neighborhood, so it is beyond repair."""
        tracker.assign(v, color)
        frontier.discard(v)
        alive = not fc or uncolored[v] or odd[v]
        for u in adj[v]:
            if fc and not (uncolored[u] or odd[u]):
                alive = False
            for w in closed[u]:
                near[w] += 1
                if w not in colored:
                    frontier.add(w)
        return alive

    def unplace(v: int) -> None:
        tracker.unassign(v)
        for u in adj[v]:
            for w in closed[u]:
                near[w] -= 1
                if not near[w]:
                    frontier.discard(w)
        if near[v]:
            frontier.add(v)

    def pick(max_used: int) -> tuple[int, list[int]]:
        """The frontier vertex with the smallest domain (then most colored
        neighbors, highest degree, lowest id) and its domain."""
        top = min(k, max_used + 1) if sym else k
        # out: the tau_o bans on v that no neighbor of v carries, one bit
        # per color.  Every banned color is a used one, so all lie inside
        # 1..top.
        best = None
        for v in frontier:
            cv = counts[v]
            out = 0
            if fc:
                for u in adj[v]:
                    if uncolored[u] == 1 and (t := only_bit.get(odd[u])) and not cv[t]:
                        out |= odd[u]
            key = (top - distinct[v] - out.bit_count(), uncolored[v] - deg[v], -deg[v], v)
            if best is None or key < best_key:
                best, best_out, best_key = v, out, key
        cv = counts[best]
        return best, [c for c in range(1, top + 1) if not cv[c] and not best_out >> c & 1]

    used = 0
    # ties keep the ascending ids of adj: sorted is stable, also in reverse
    for root in sorted(adj, key=deg.__getitem__, reverse=True):
        if root in colored:
            continue
        top = min(k, used + 1) if sym else k
        # frame: the branch vertex, the colors left to try on it, and the
        # largest color used before it; the stack holds this component only
        stack = [(root, iter(range(1, top + 1)), used)]
        while True:
            v, colors, max_used = stack[-1]
            color = next(colors, None)
            if color is None:
                stack.pop()
                if not stack:
                    return None  # this component has no odd coloring
                unplace(stack[-1][0])
                continue
            nodes += 1
            if limit is not None and nodes > limit:
                return INCONCLUSIVE
            if place(v, color):
                now = max(max_used, color)
                if frontier:
                    u, dom = pick(now)
                    if dom:  # an empty domain is a dead branch, at no node cost
                        stack.append((u, iter(dom), now))
                        continue
                # finished; without the forward check, odd only if every
                # vertex of the component (one per frame) sees an odd color
                elif fc or all(odd[f[0]] for f in stack):
                    used = now
                    break
            unplace(v)
    return colored


def exists_odd_k_coloring(
    g: Graph, k: int, cfg: SearchConfig = SearchConfig()
) -> Coloring | None | Inconclusive:
    """A witness odd k-coloring, None if provably none exists, or
    INCONCLUSIVE when the node limit stopped the search."""
    if k < 1:
        raise ValueError("k must be >= 1")
    # no condition involves an isolated vertex, and color 1 is in every palette
    isolated = [v for v in g.vertices() if not g.neighbors(v)]
    rest = g.subgraph(v for v in g.vertices() if g.neighbors(v)) if isolated else g
    # under symmetry breaking a color above the count of colored vertices
    # is never tried, so the tables need no more colors than rest has
    got = _search(rest, min(k, rest.n) if cfg.symmetry_breaking else k, cfg)
    if isinstance(got, dict):
        got = Coloring(k, {**got, **dict.fromkeys(isolated, 1)})
        if not is_odd_coloring(g, got):
            raise EngineInvariantError("search returned a non-odd witness")
    return got


def _lower_bound(g: Graph) -> int:
    """A proven lower bound on chi_o(g), for g with a vertex.

    Every odd coloring properly colors the conflict graph H: g plus an edge
    between the two neighbors of each vertex of degree 2, which sees no odd
    color when they share one.  So the size of any clique of H is a bound;
    one clique is grown greedily, from the vertex of largest H-degree, by
    the candidate of largest H-degree (ties to the lowest id).  A vertex of
    even positive degree also needs 3 colors: with 2, its neighbors all
    share one color, an even number of times."""
    rows = {v: g.neighbors(v) for v in g.vertices()}
    h = {v: set(row) for v, row in rows.items()}
    for row in rows.values():
        if len(row) == 2:
            a, b = row
            h[a].add(b)
            h[b].add(a)
    even = any(row and not len(row) % 2 for row in rows.values())
    rank = {v: (-len(hv), v) for v, hv in h.items()}
    size, candidates = 0, h.keys()
    while candidates:
        v = min(candidates, key=rank.__getitem__)
        size, candidates = size + 1, h[v].intersection(candidates)
    return max(size, 3 if even else 1)


def min_odd_coloring(
    g: Graph, cfg: SearchConfig = SearchConfig()
) -> Coloring | Inconclusive:
    """An odd coloring with the fewest colors, by ascending complete searches
    from ``_lower_bound(g)``: the conflict-clique bound, so no level below
    it is searched.

    Its palette size is the odd chromatic number, which never exceeds |G|
    (coloring every vertex with its own color is odd); the empty graph gets
    the empty coloring with palette 1.  Returns INCONCLUSIVE if a level hits
    the node limit, or if max_k was reached without a witness, which
    includes a bound above max_k (then nothing is searched).
    """
    if g.n == 0:
        return Coloring(1, {})
    top = min(cfg.max_k, g.n) if cfg.max_k is not None else g.n
    for k in range(_lower_bound(g), top + 1):
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
