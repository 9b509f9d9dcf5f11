"""Executable discharging on a planarization.

Initial charges are d(v) - 4 on vertices and d(f) - 4 on faces, which sum
to -8 on every connected plane graph by Euler's formula.  Three rules move
charge around:

  R1  every 5+-face splits its whole charge equally among the 2-vertex
      corners on its boundary (multiplicity counts; no 2-vertices, no move);
  R2  every big vertex sends 1/2 to each incident 3-face;
  R3  every big vertex sends 1/2 to each 2-vertex adjacent to it in the
      underlying graph (adjacency reaches across crossings).

The rules only move charge, so the total stays -8 exactly; all arithmetic
is done in Fractions because R1 produces thirds and halves.  On an
embedding with no reducible configuration every element ends nonnegative,
which contradicts the -8 total -- so the audit, which tags every element
that ends negative with the structural fact its existence violates, must
come back empty.  A non-empty audit is the reduction engine's bug report.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .embedding import Face, OnePlaneGraph, underlying_graph
from .graphs import Graph

# The paper's thresholds; reduction.Thresholds takes its defaults from here.
BIG_DEGREE = 12
PALETTE = 23


class NotConnectedError(ValueError):
    """Charging needs a connected planarization (Euler's formula)."""


@dataclass(frozen=True)
class ChargeMap:
    """Rational charge per vertex and per face (faces keyed by min dart)."""

    vertex: dict[int, Fraction]
    face: dict[int, Fraction]

    @property
    def total(self) -> Fraction:
        return sum(self.vertex.values(), Fraction(0)) + sum(
            self.face.values(), Fraction(0)
        )


@dataclass(frozen=True)
class Transfer:
    """One charge movement: src and dst are ('vertex', id) or ('face', fid)."""

    src: tuple[str, int]
    dst: tuple[str, int]
    amount: Fraction


def initial_charges(emb: OnePlaneGraph) -> ChargeMap:
    """ch(v) = d(v) - 4 and ch(f) = d(f) - 4; the total is exactly -8."""
    if len(emb.components()) != 1:
        raise NotConnectedError("planarization is disconnected")
    vertex = {v: Fraction(emb.degree(v) - 4) for v in emb.vertices()}
    face = {f.fid: Fraction(f.len - 4) for f in emb.faces()}
    return ChargeMap(vertex, face)


def _two_vertices(emb: OnePlaneGraph) -> set[int]:
    return {v for v in emb.vertices() if not emb.is_virtual(v) and emb.degree(v) == 2}


def _big_vertices(emb: OnePlaneGraph, big: int) -> set[int]:
    # a real vertex has the same degree in H and in the underlying graph
    return {
        v for v in emb.vertices() if not emb.is_virtual(v) and emb.degree(v) >= big
    }


def rule_transfers(
    emb: OnePlaneGraph, big: int = BIG_DEGREE
) -> tuple[list[Transfer], list[Transfer], list[Transfer]]:
    """The R1, R2 and R3 movements as three independent transfer lists."""
    faces, g = emb.faces(), underlying_graph(emb)
    two = _two_vertices(emb)
    bigs = _big_vertices(emb, big)

    r1: list[Transfer] = []
    for f in faces:
        if f.len < 5:
            continue
        corners = [emb.origin(d) for d in f.darts if emb.origin(d) in two]
        if not corners:
            continue
        share = Fraction(f.len - 4, len(corners))
        for v in corners:
            r1.append(Transfer(("face", f.fid), ("vertex", v), share))

    r2: list[Transfer] = []
    for f in faces:
        if f.len != 3:
            continue
        for d in f.darts:
            v = emb.origin(d)
            if v in bigs:
                r2.append(Transfer(("vertex", v), ("face", f.fid), Fraction(1, 2)))

    r3: list[Transfer] = []
    for v in sorted(bigs):
        for u in g.neighbors(v):
            if u in two:
                r3.append(Transfer(("vertex", v), ("vertex", u), Fraction(1, 2)))
    return r1, r2, r3


def apply_transfers(cm: ChargeMap, transfers: list[Transfer]) -> ChargeMap:
    vertex = dict(cm.vertex)
    face = dict(cm.face)
    books = {"vertex": vertex, "face": face}
    for t in transfers:
        books[t.src[0]][t.src[1]] -= t.amount
        books[t.dst[0]][t.dst[1]] += t.amount
    return ChargeMap(vertex, face)


def apply_rules(
    emb: OnePlaneGraph, cm: ChargeMap, big: int = BIG_DEGREE
) -> ChargeMap:
    """Final charges after R1-R3.  The rules are independent transfers, so
    any application order gives the same result; the total never moves."""
    r1, r2, r3 = rule_transfers(emb, big)
    return apply_transfers(cm, r1 + r2 + r3)


# ----------------------------------------------------------------------
# Audit
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class AuditEntry:
    kind: str  # "vertex" | "face"
    ident: int
    charge: Fraction
    tags: tuple[str, ...]
    witness: dict

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "id": self.ident,
            "charge": str(self.charge),
            "tags": list(self.tags),
            "witness": self.witness,
        }


@dataclass(frozen=True)
class AuditReport:
    entries: tuple[AuditEntry, ...]

    @property
    def empty(self) -> bool:
        return not self.entries

    def to_json(self) -> str:
        return json.dumps(
            {"clean": self.empty, "entries": [e.to_json() for e in self.entries]},
            indent=1,
            sort_keys=False,
        )

    def __str__(self) -> str:
        if self.empty:
            return "audit clean: every vertex and face ends nonnegative"
        lines = [f"audit found {len(self.entries)} negative element(s):"]
        for e in self.entries:
            lines.append(f"  {e.kind} {e.ident}: {e.charge} {list(e.tags)}")
        return "\n".join(lines)


def _face_tags(emb: OnePlaneGraph, f: Face, bigs: set[int]) -> tuple[list[str], dict]:
    verts = [emb.origin(d) for d in f.darts]
    tags = []
    if f.len == 2:
        tags.append("two-face")  # an uncross move applies here
    elif f.len == 3:
        n_big = sum(1 for v in verts if v in bigs)
        if n_big < 2:
            tags.append("3-face-lacks-two-big-vertices")
    if not tags:
        tags.append("unexplained-negative-face")
    return tags, {"vertices": verts}


def _two_vertex_tags(
    emb: OnePlaneGraph, g: Graph, face_of: dict[int, Face], v: int, big: int
) -> tuple[list[str], dict]:
    tags = []
    nbrs = list(g.neighbors(v))
    small_nbrs = [u for u in nbrs if g.degree(u) < big]
    if small_nbrs:
        tags.append("adjacent-small-vertices")
    uncrossed = [emb.target(d) for d in emb.rotation(v) if not emb.is_virtual(emb.target(d))]
    if uncrossed:
        tags.append("uncrossed-small-edge")
    faces = [face_of[d] for d in emb.rotation(v)]
    sizes = sorted(f.len for f in faces)
    if len(sizes) == 2:
        if not (sizes[1] >= 5 and sizes[0] >= 4):
            tags.append("two-vertex-not-on-5plus-and-4plus-faces")
        elif sizes == [4, 6]:
            six = [f for f in faces if f.len == 6][0]
            two_on_six = [
                u
                for u in {emb.origin(d) for d in six.darts}
                if not emb.is_virtual(u) and emb.degree(u) == 2
            ]
            if len(two_on_six) >= 3:
                tags.append("six-four-swap-pattern")
        elif sizes[0] == 5 or sizes[1] == 5:
            for f in faces:
                if f.len == 5:
                    two_on_five = {
                        emb.origin(d)
                        for d in f.darts
                        if not emb.is_virtual(emb.origin(d))
                        and emb.degree(emb.origin(d)) == 2
                    }
                    if len(two_on_five) >= 2:
                        tags.append("overloaded-5-face")
    if not tags:
        tags.append("unexplained-negative-2-vertex")
    return tags, {"neighbors": nbrs, "face_sizes": sizes}


def audit(
    emb: OnePlaneGraph,
    cm_star: ChargeMap,
    big: int = BIG_DEGREE,
    palette: int = PALETTE,
) -> AuditReport:
    """Explain every element with negative final charge.

    Each entry names the structural claim its existence violates; on an
    embedding where the reduction engine finds no configuration the report
    must be empty."""
    faces, g = emb.faces(), underlying_graph(emb)
    bigs = _big_vertices(emb, big)
    entries: list[AuditEntry] = []
    faces_by_id = {f.fid: f for f in faces}
    face_of = {d: f for f in faces for d in f.darts}
    for fid, ch in sorted(cm_star.face.items()):
        if ch >= 0:
            continue
        tags, witness = _face_tags(emb, faces_by_id[fid], bigs)
        entries.append(AuditEntry("face", fid, ch, tuple(tags), witness))
    for v, ch in sorted(cm_star.vertex.items()):
        if ch >= 0:
            continue
        if emb.is_virtual(v):
            tags, witness = ["virtual-degree"], {"degree": emb.degree(v)}
        else:
            d = emb.degree(v)
            if d == 2:
                tags, witness = _two_vertex_tags(emb, g, face_of, v, big)
            elif d % 2 == 1 and d < big:
                tags, witness = ["odd-low-vertex"], {"degree": d}
            elif d >= big:
                d2 = sum(1 for u in g.neighbors(v) if g.degree(u) == 2)
                if d2 >= 1 and 2 * d < d2 + palette:
                    tags, witness = ["d2-inequality-violated"], {
                        "degree": d,
                        "d2": d2,
                    }
                else:
                    tags, witness = ["unexplained-negative-big-vertex"], {
                        "degree": d,
                        "d2": d2,
                    }
            else:
                tags, witness = ["unexplained-negative-vertex"], {"degree": d}
        entries.append(AuditEntry("vertex", v, ch, tuple(tags), witness))
    return AuditReport(tuple(entries))


def discharge(
    emb: OnePlaneGraph, big: int = BIG_DEGREE, palette: int = PALETTE
) -> tuple[ChargeMap, ChargeMap, AuditReport]:
    """Initial charges, final charges, and the audit, in one call.  The
    embedding walks its faces and smooths its crossings once for all three."""
    cm = initial_charges(emb)
    cm_star = apply_rules(emb, cm, big)
    return cm, cm_star, audit(emb, cm_star, big, palette)
