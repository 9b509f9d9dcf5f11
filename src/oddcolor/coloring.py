"""Odd colorings: representation, verifier, and the greedy extension step.

A proper coloring is odd when every vertex with at least one neighbor sees
some color an odd number of times on its neighborhood.  For a vertex v,
``tau_o`` is the color of odd multiplicity on v's colored neighbors when
exactly one such color exists; the extension arguments used by every
algorithm here only ever need to protect that unique color.
"""

from __future__ import annotations

from typing import Collection, Iterable, Mapping

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
    color = c.assign
    vs = g.vertices()
    if not all(v in color for v in vs):
        raise PartialColoringError("coloring is not total")
    for v in vs:
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
    """Per-vertex odd-color sets, one bitmask per vertex.

    Bit c of ``_odd[v]`` is set exactly when color c occurs an odd number
    of times on v's colored neighbors, so every color change on a neighbor
    toggles one bit.  tau_o(v) is the color of the mask's only bit when it
    has just one: ``_only_bit`` maps each one-bit mask to its color.

    With a graph g, the exact solver colors and uncolors g's vertices by
    assign/unassign, which also keep what its domain sizes need: per-color
    neighbor counts, distinct neighbor colors and uncolored neighbors, all
    built from g's rows, read in one pass; ``_only_bit`` covers 1..k.
    With g None only the colors and masks are kept, starting empty, and the
    constructive engines unwind their logs by restore, extend and unmerge,
    passing each vertex's neighbor row instead of a graph.  ``_only_bit``
    then grows to the largest color a mask holds, not to k, so a palette
    far beyond the colors used costs nothing.
    """

    def __init__(self, g: Graph | None, k: int):
        self.g = g
        self.k = k
        self.color: dict[int, int] = {}
        self._only_bit: dict[int, int] = {}
        self._cover(k if g is not None else 0)
        rows = self._rows = {v: g.neighbors(v) for v in g.vertices()} if g is not None else {}
        self._odd: dict[int, int] = dict.fromkeys(rows, 0)
        self._counts: dict[int, list[int]] = {v: [0] * (k + 1) for v in rows}
        self._distinct: dict[int, int] = dict.fromkeys(rows, 0)
        self._uncolored_nbrs: dict[int, int] = {v: len(row) for v, row in rows.items()}

    def _cover(self, top: int) -> None:
        """Extend ``_only_bit`` to the colors 1..top."""
        only_bit = self._only_bit
        for c in range(len(only_bit) + 1, top + 1):
            only_bit[1 << c] = c

    def assign(self, v: int, color: int) -> None:
        if v in self.color:
            raise ValueError(f"vertex {v} is already colored")
        self.color[v] = color
        self._count(v, color, 1)

    def unassign(self, v: int) -> None:
        self._count(v, self.color.pop(v), -1)

    def _count(self, v: int, color: int, step: int) -> None:
        """Add step (1 or -1) to color's count at every neighbor of v."""
        counts, odd = self._counts, self._odd
        distinct, uncolored = self._distinct, self._uncolored_nbrs
        bit = 1 << color
        for u in self._rows[v]:
            cnt = counts[u]
            m = cnt[color] = cnt[color] + step
            odd[u] ^= bit
            if m == (step == 1):  # the count rose to 1 or fell to 0
                distinct[u] += step
            uncolored[u] -= step

    def restore(self, v: int, row: Iterable[int]) -> None:
        """Set v's mask from its neighbor row, over the colored ones; no
        other mask changes."""
        color = self.color
        mask = 0
        for u in row:
            if u in color:
                mask ^= 1 << color[u]
        self._odd[v] = mask
        if mask.bit_length() > len(self._only_bit) + 1:
            self._cover(mask.bit_length() - 1)

    def extend(self, v: int, row: Collection[int], extra: Iterable[int] = ()) -> int:
        """Color v by the rule of ``greedy_extend`` and return the color:
        the smallest one outside ``extra`` (None there bans nothing), the
        colors on row and their tau_o.  Every vertex of row is colored."""
        color, odd, only_bit = self.color, self._odd, self._only_bit
        mask = 0
        banned = set(extra)
        for u in row:
            cu = color[u]
            mask ^= 1 << cu
            banned.add(cu)
            banned.add(only_bit.get(odd[u]))  # tau_o(u); None bans nothing
        c = smallest_free(banned, self.k)
        if c is None:
            raise EngineInvariantError(
                f"no color free for vertex {v}: the palette of {self.k} is forbidden"
            )
        if c > len(only_bit):
            self._cover(c)
        color[v] = c
        odd[v] = mask
        for u in row:
            odd[u] ^= 1 << c
        return c

    def unmerge(self, x: int, y: int, row: Collection[int], gained: Iterable[int]) -> None:
        """Undo the merge of x into y: y loses the neighbors it gained, x is
        colored by ``extend`` over its row, and y's color must occur
        exactly once on N(x), which keeps x's neighborhood odd."""
        color, odd = self.color, self._odd
        cy = color[y]
        for w in gained:
            odd[y] ^= 1 << color[w]
            odd[w] ^= 1 << cy
        self.extend(x, row)
        times = 0
        for u in row:
            times += color[u] == cy
        if times != 1:
            raise EngineInvariantError(f"color of {y} appears {times} times on N({x})")

    def odd_colors(self, v: int) -> set[int]:
        mask = self._odd[v]
        return {c for c in range(mask.bit_length()) if mask >> c & 1}

    def tau_o(self, v: int) -> int | None:
        return self._only_bit.get(self._odd[v])

    def as_coloring(self) -> Coloring:
        return Coloring(self.k, self.color)
