"""Simple undirected graphs with one sorted tuple of neighbors per vertex.

Vertices are integer ids. Graphs built from an edge list use ids 0..n-1;
operations that shrink a graph (induced subgraphs, edge contraction) keep the
surviving original ids, so partial colorings computed on a subgraph apply
directly to the parent graph.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from typing import Iterable, Iterator, Mapping


class NotAVertexError(KeyError):
    """Operation referenced a vertex id not present in the graph."""


class NotAnEdgeError(ValueError):
    """Operation referenced an edge not present in the graph."""


class Graph:
    """Immutable simple undirected graph.

    Each vertex's neighbors are one sorted tuple of ints, and the rows are
    kept in ascending id order, so graphs with the same edges have equal
    rows whatever order their rows came in.  No loops, no parallel edges;
    adjacency is symmetric by construction.
    """

    __slots__ = ("_adj",)

    def __init__(self, adj: Mapping[int, Iterable[int]]):
        """Check and store adj.  Keys become ints and each neighbor becomes
        the key it equals.  Raises ValueError on a key that int() refuses
        (None, "x", inf) or that differs from its int() (1.0 and True are
        1; 1.5 and "1" are rejected), naming the key, and on a neighbor
        that is no key, a loop, a neighbor listed twice and a neighbor that
        does not list the vertex back.  O(n log n + m)."""
        try:
            key = {int(v): v for v in adj}
        except (TypeError, ValueError, OverflowError):
            key = {}
            for v in adj:  # up to the first key int() refuses, named below
                try:
                    key[int(v)] = v
                except (TypeError, ValueError, OverflowError):
                    break
        if key.keys() != adj.keys():  # a key is not its int(), so two keys may share an id
            raise ValueError(f"vertex {next(v for v in adj if v not in key)!r} is not an integer")
        # Rows filled in ascending id order come out sorted.  up is adj
        # transposed, each neighbor found by its id; rows is up transposed
        # back, so adj is symmetric exactly when the two agree.
        up: dict[int, list[int]] = {v: [] for v in sorted(key)}
        try:
            for v in up:
                for u in adj[key[v]]:
                    up[u].append(v)
        except KeyError as e:
            raise ValueError(f"neighbor {e.args[0]!r} is not a vertex") from None
        rows: dict[int, list[int]] = {v: [] for v in up}
        for v, row in up.items():
            prev = None
            for u in row:  # the vertices that list v
                if u == v or u == prev:
                    raise ValueError(f"loop at vertex {v}" if u == v else f"vertex {u} lists {v} twice")
                rows[u].append(v)
                prev = u
        if rows != up:
            v = next(v for v in up if rows[v] != up[v])
            raise ValueError(f"asymmetric adjacency at edge ({v}, {min(set(rows[v]) ^ set(up[v]))})")
        self._adj = {v: tuple(row) for v, row in rows.items()}

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Graph on vertex ids 0..n-1 with the given edges.  Raises
        ValueError on a loop or an endpoint that is not an integer, and
        NotAVertexError on one outside 0..n-1."""
        if n < 0:
            raise ValueError(f"negative vertex count {n}")
        adj: dict[int, set[int]] = {v: set() for v in range(n)}
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if u not in adj or v not in adj:
                try:
                    integral = int(u) == u and int(v) == v
                except (TypeError, ValueError, OverflowError):  # None, "x", inf
                    integral = False
                if not integral:
                    raise ValueError(f"edge ({u}, {v}) has an endpoint that is not an integer")
                raise NotAVertexError(f"edge ({u}, {v}) outside 0..{n - 1}")
            adj[u].add(v)
            adj[v].add(u)
        return cls(adj)

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self._adj)

    def vertices(self) -> list[int]:
        return list(self._adj)

    def __contains__(self, v: int) -> bool:
        return v in self._adj

    def neighbors(self, v: int) -> tuple[int, ...]:
        """v's neighbors, ascending."""
        try:
            return self._adj[v]
        except KeyError:
            raise NotAVertexError(v) from None

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def has_edge(self, u: int, v: int) -> bool:
        row = self._adj.get(u, ())
        i = bisect_left(row, v)
        return i < len(row) and row[i] == v

    def edges(self) -> list[tuple[int, int]]:
        """Edge list with u < v, sorted."""
        return [(u, v) for u, row in self._adj.items() for v in row if u < v]

    def num_edges(self) -> int:
        return sum(len(ns) for ns in self._adj.values()) // 2

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self._adj == other._adj

    def __hash__(self) -> int:
        return hash(frozenset((v, ns) for v, ns in self._adj.items()))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.num_edges()})"

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------

    def subgraph(self, keep: Iterable[int]) -> "Graph":
        """Induced subgraph on ``keep``; original ids kept."""
        kept = set(keep)
        return Graph({v: kept.intersection(self.neighbors(v)) for v in kept})

    def contract(self, x: int, y: int) -> tuple["Graph", int]:
        """Contract edge xy; x is merged into y. Returns (graph, merged id).

        Loops vanish and parallel edges collapse, so the result is simple.
        """
        if not self.has_edge(x, y):
            raise NotAnEdgeError((x, y))
        adj = {w: set(ns) for w, ns in self._adj.items() if w != x}
        adj[y] = (set(self._adj[y]) | set(self._adj[x])) - {x, y}
        for w in self._adj[x]:
            if w != y:
                adj[w].discard(x)
                adj[w].add(y)
        return Graph(adj), y


# ----------------------------------------------------------------------
# Traversals and structure
# ----------------------------------------------------------------------


def connected_components(g: Graph) -> list[list[int]]:
    """Vertex sets of the connected components, each sorted, ordered by min id."""
    seen: set[int] = set()
    comps: list[list[int]] = []
    for root in g.vertices():
        if root in seen:
            continue
        stack = [root]
        seen.add(root)
        comp = []
        while stack:
            v = stack.pop()
            comp.append(v)
            for u in g.neighbors(v):
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        comps.append(sorted(comp))
    return comps


def degeneracy_order(g: Graph) -> tuple[int, list[int]]:
    """Repeatedly delete a minimum-degree vertex (lowest id on ties).

    Returns (d, order) where d is the largest degree seen at deletion time
    and order is the deletion sequence.  Reading the order forwards, every
    vertex has at most d neighbors that come later; the reverse order is
    the usual smallest-last coloring order.
    """
    adj = MutableAdjacency(g, g.vertices())
    order: list[int] = []
    dmax = 0
    for _ in range(g.n):
        v = adj.pop_min()
        dmax = max(dmax, len(adj.remove(v)))
        order.append(v)
    return dmax, order


class MutableAdjacency:
    """A shrinking copy of part of a Graph: one set of neighbors per vertex.

    ``rows`` maps each remaining vertex to its neighbors; callers read it
    and change it only through ``remove`` and ``merge``.  A lazy heap holds
    a (degree, id) entry for every vertex, pushed anew whenever its degree
    changes, so ``pop_min`` skips entries of removed vertices and of
    degrees that have changed since the push.
    """

    __slots__ = ("rows", "_heap")

    def __init__(self, g: Graph, vs: Iterable[int]):
        """Copy g's rows of vs, which must hold every neighbor of each of
        its vertices (a union of components).  O(n + m)."""
        self.rows = {v: set(g.neighbors(v)) for v in vs}
        self._heap = [(len(ns), v) for v, ns in self.rows.items()]
        heapq.heapify(self._heap)

    def pop_min(self) -> int:
        """The remaining vertex of least (degree, id).  It stays in place,
        but its heap entry is spent: remove or merge it next."""
        rows, heap = self.rows, self._heap
        while True:
            d, v = heapq.heappop(heap)
            if v in rows and len(rows[v]) == d:
                return v

    def remove(self, v: int) -> set[int]:
        """Delete v and return its row."""
        rows, heap = self.rows, self._heap
        row = rows.pop(v)
        for u in row:
            ru = rows[u]
            ru.remove(v)
            heapq.heappush(heap, (len(ru), u))
        return row

    def merge(self, x: int, y: int) -> tuple[set[int], list[int]]:
        """Contract edge xy into y and return (N(x), the neighbors y gained).

        Loops vanish and parallel edges collapse; O(deg x)."""
        rows, heap, push = self.rows, self._heap, heapq.heappush
        nx = rows.pop(x)
        ny = rows[y]
        ny.remove(x)
        gained = []
        for w in nx - {y}:
            nw = rows[w]
            nw.remove(x)
            if w in ny:
                push(heap, (len(nw), w))
            else:
                nw.add(y)
                ny.add(w)
                gained.append(w)
        push(heap, (len(ny), y))
        return nx, gained


def bridges(g: Graph) -> list[tuple[int, int]]:
    """All bridges, as (u, v) with u < v, sorted.  Iterative DFS low-points."""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    out: list[tuple[int, int]] = []
    counter = 0
    for root in g.vertices():
        if root in index:
            continue
        # stack entries: (v, parent, iterator over neighbors)
        index[root] = low[root] = counter
        counter += 1
        stack: list[tuple[int, int, Iterator[int]]] = [
            (root, -1, iter(g.neighbors(root)))
        ]
        while stack:
            v, parent, it = stack[-1]
            advanced = False
            for u in it:
                if u == parent:
                    continue  # the tree edge back; a Graph has no parallel edges
                if u in index:
                    low[v] = min(low[v], index[u])
                else:
                    index[u] = low[u] = counter
                    counter += 1
                    stack.append((u, v, iter(g.neighbors(u))))
                    advanced = True
                    break
            if not advanced:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    low[p] = min(low[p], low[v])
                    if low[v] > index[p]:
                        out.append((min(p, v), max(p, v)))
        # root done
    return sorted(out)


# ----------------------------------------------------------------------
# Named constructions used throughout the tests and generators
# ----------------------------------------------------------------------


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs n >= 1")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def complete(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star(leaves: int) -> Graph:
    if leaves < 0:
        raise ValueError("star needs leaves >= 0")
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def subdivided_complete(p: int) -> Graph:
    """K_p with every edge subdivided once.

    Originals are 0..p-1; the subdivision vertex of edge (i, j) follows in
    sorted edge order.
    """
    edges = []
    nxt = p
    for i in range(p):
        for j in range(i + 1, p):
            edges.append((i, nxt))
            edges.append((nxt, j))
            nxt += 1
    return Graph.from_edges(nxt, edges)
