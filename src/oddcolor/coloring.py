"""Odd colorings: representation, verifier, and the greedy extension step.

A proper coloring is odd when every vertex with at least one neighbor sees
some color an odd number of times on its neighborhood.  For a vertex v,
``tau_o`` is the color of odd multiplicity on v's colored neighbors when
exactly one such color exists; the extension arguments used by every
algorithm here only ever need to protect that unique color.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Mapping

from .graphs import Graph


class EngineInvariantError(RuntimeError):
    """A step that a proof guarantees failed, such as a greedy extension
    or the final verification.  Raised explicitly, never by ``assert``, so
    that ``python -O`` keeps the check."""


class PartialColoringError(ValueError):
    """A total coloring was required but some vertex is uncolored."""


class Coloring:
    """Partial map vertex -> color in 1..k.  Value type; ``set`` copies."""

    __slots__ = ("k", "assign")

    def __init__(self, k: int, assign: Mapping[int, int] | None = None):
        if k < 1:
            raise ValueError("palette size must be >= 1")
        self.k = k
        self.assign = dict(assign) if assign else {}
        for v, c in self.assign.items():
            if not 1 <= c <= k:
                raise ValueError(f"color {c} at vertex {v} outside 1..{k}")

    def __contains__(self, v: int) -> bool:
        return v in self.assign

    def set(self, v: int, color: int) -> "Coloring":
        if not 1 <= color <= self.k:
            raise ValueError(f"color {color} outside 1..{self.k}")
        new = dict(self.assign)
        new[v] = color
        return Coloring(self.k, new)

    def is_total_on(self, g: Graph) -> bool:
        return all(v in self.assign for v in g.vertices())

    def colors_used(self) -> set[int]:
        return set(self.assign.values())

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Coloring)
            and self.k == other.k
            and self.assign == other.assign
        )

    def __repr__(self) -> str:
        return f"Coloring(k={self.k}, assigned={len(self.assign)})"


def odd_colors(g: Graph, c: Coloring, v: int) -> set[int]:
    """Colors with odd multiplicity on v's colored neighbors."""
    odd: set[int] = set()
    for u in g.neighbors(v):
        if u in c.assign:
            odd ^= {c.assign[u]}
    return odd


def tau_o(g: Graph, c: Coloring, v: int) -> int | None:
    """The unique odd-multiplicity color on v's colored neighborhood, or
    None when zero or several colors have odd multiplicity."""
    odd = odd_colors(g, c, v)
    return next(iter(odd)) if len(odd) == 1 else None


def is_odd_coloring(g: Graph, c: Coloring) -> bool:
    """True iff c is a proper coloring of g and every non-isolated vertex
    has a color of odd multiplicity on its neighborhood.  c must be total."""
    if not c.is_total_on(g):
        raise PartialColoringError("coloring is not total")
    color = c.assign
    for v in g.vertices():
        own = color[v]
        odd: set[int] = set()
        for u in g.neighbors(v):
            cu = color[u]
            if cu == own:
                return False
            if cu in odd:
                odd.discard(cu)
            else:
                odd.add(cu)
        if not odd and g.neighbors(v):
            return False
    return True


def forbidden_set(g: Graph, c: Coloring, v: int) -> set[int]:
    """Colors of v's colored neighbors plus their defined tau_o values."""
    out: set[int] = set()
    for u in g.neighbors(v):
        if u in c.assign:
            out.add(c.assign[u])
            t = tau_o(g, c, u)
            if t is not None:
                out.add(t)
    return out


def greedy_extend(
    g: Graph, c: Coloring, v: int, extra: Iterable[int] = ()
) -> int | None:
    """Smallest color in 1..k outside forbidden_set(v) and ``extra``;
    None when no color remains.  v must be uncolored."""
    if v in c.assign:
        raise ValueError(f"vertex {v} is already colored")
    return smallest_free(forbidden_set(g, c, v) | set(extra), c.k)


def smallest_free(banned: set[int], k: int) -> int | None:
    """Smallest color in 1..k outside ``banned``; None when all are banned."""
    for color in range(1, k + 1):
        if color not in banned:
            return color
    return None


class OddTracker:
    """Incremental per-vertex color-multiplicity tables.

    Mirrors tau_o / odd-color queries under assign/unassign without
    rescanning neighborhoods; the exact solver drives this thousands of
    times per search.  ``check_against_recompute`` is the debug mode.
    """

    def __init__(self, g: Graph, k: int):
        self.g = g
        self.k = k
        self.color: dict[int, int] = {}
        self._counts: dict[int, Counter] = {v: Counter() for v in g.vertices()}
        self._num_odd: dict[int, int] = {v: 0 for v in g.vertices()}
        self._uncolored_nbrs: dict[int, int] = {
            v: g.degree(v) for v in g.vertices()
        }

    def assign(self, v: int, color: int) -> None:
        if v in self.color:
            raise ValueError(f"vertex {v} is already colored")
        self.color[v] = color
        for u in self.g.neighbors(v):
            cnt = self._counts[u]
            cnt[color] += 1
            self._num_odd[u] += 1 if cnt[color] % 2 == 1 else -1
            self._uncolored_nbrs[u] -= 1

    def unassign(self, v: int) -> None:
        color = self.color.pop(v)
        for u in self.g.neighbors(v):
            cnt = self._counts[u]
            cnt[color] -= 1
            self._num_odd[u] += 1 if cnt[color] % 2 == 1 else -1
            self._uncolored_nbrs[u] += 1

    def num_odd(self, v: int) -> int:
        return self._num_odd[v]

    def uncolored_neighbors(self, v: int) -> int:
        return self._uncolored_nbrs[v]

    def neighbor_colors(self, v: int) -> Counter:
        return self._counts[v]

    def tau_o(self, v: int) -> int | None:
        if self._num_odd[v] != 1:
            return None
        for col, m in self._counts[v].items():
            if m % 2 == 1:
                return col
        raise EngineInvariantError("odd count desynchronized")

    def as_coloring(self) -> Coloring:
        return Coloring(self.k, self.color)

    def check_against_recompute(self) -> None:
        """Full recomputation cross-check of every incremental table;
        raises EngineInvariantError on the first mismatch."""
        c = self.as_coloring()
        for v in self.g.vertices():
            fresh = Counter(
                c.assign[u] for u in self.g.neighbors(v) if u in c.assign
            )
            if fresh != +self._counts[v]:
                raise EngineInvariantError(f"counts differ at {v}")
            if self._num_odd[v] != sum(1 for m in fresh.values() if m % 2 == 1):
                raise EngineInvariantError(f"odd count differs at {v}")
            if self._uncolored_nbrs[v] != sum(
                1 for u in self.g.neighbors(v) if u not in c.assign
            ):
                raise EngineInvariantError(f"uncolored count differs at {v}")
