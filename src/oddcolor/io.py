"""File formats: graphs, embeddings, colorings, and DOT export.

Both native formats are JSON with a fixed key order, one-space indentation
and sorted lists, so saving what was loaded reproduces the file byte for
byte.  Version field starts at 1.  The readers accept only what the
writers could have written: every field below is required and no other
key is allowed, every number is a JSON integer (true, 1.0 and "1" are
rejected), every object key that names a vertex is its canonical decimal
("1", not "01" or "+1"), and graph edges are strictly increasing.

GraphFile (.graph.json):      {"version", "n", "edges": [[u, v] ...]}
EmbeddingFile (.empl.json):   {"version", "vertices": [{"id", "kind"} ...],
                               "rotations": {id: [dart ...]},
                               "twins": [[d, d^1] ...],
                               "virtual_pairs": {id: [[a,b],[c,d]]}}
ColoringFile (.coloring.json): {"version", "k", "colors": {vertex: color}}

Darts follow the in-memory convention: segment i owns darts 2i and 2i+1,
so the stored twin pairing is checkable redundancy, as is virtual_pairs
(the two original edges recovered at each crossing).
"""

from __future__ import annotations

import json
from pathlib import Path

from .coloring import Coloring
from .embedding import OnePlaneGraph
from .graphs import Graph

FORMAT_VERSION = 1


class ParseError(ValueError):
    """Malformed file; message carries the offending field."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


def _dump(obj: dict) -> str:
    return json.dumps(obj, indent=1) + "\n"


def _read_json(text: str, keys: tuple[str, ...] = ()) -> dict:
    """The top-level object of a file; with keys, no other key may occur."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("<file>", f"not valid JSON: {exc}") from None
    except RecursionError:
        raise ParseError("<file>", "JSON nested too deeply") from None
    if not isinstance(obj, dict):
        raise ParseError("<file>", "top level must be an object")
    for key in obj:
        if keys and key not in keys:
            raise ParseError(key, "unknown field")
    if _need(obj, "version", int) != FORMAT_VERSION:
        raise ParseError("version", f"unsupported version, expected {FORMAT_VERSION}")
    return obj


def _need(obj: dict, field: str, typ) -> object:
    if field not in obj:
        raise ParseError(field, "missing")
    val = obj[field]
    if type(val) is not typ:  # exact: a bool is not an int
        raise ParseError(field, f"expected {typ.__name__}")
    return val


def _int(val: object, field: str) -> int:
    if type(val) is not int:
        raise ParseError(field, f"expected an int, got {json.dumps(val)}")
    return val


def _key(key: str, field: str) -> int:
    """The vertex id an object key names, in canonical decimal only."""
    try:
        v = int(key)
    except ValueError:
        raise ParseError(field, "vertex id not an int") from None
    if str(v) != key:
        raise ParseError(field, f"vertex id {key!r} is not written as {v}")
    return v


# ----------------------------------------------------------------------
# Graphs
# ----------------------------------------------------------------------


def graph_to_text(g: Graph) -> str:
    vs = g.vertices()
    if vs and vs != list(range(len(vs))):
        raise ValueError("GraphFile requires contiguous ids 0..n-1")
    return _dump(
        {"version": FORMAT_VERSION, "n": g.n, "edges": [list(e) for e in g.edges()]}
    )


def graph_from_text(text: str) -> Graph:
    obj = _read_json(text, ("version", "n", "edges"))
    n = _need(obj, "n", int)
    if n < 0:
        raise ParseError("n", "negative")
    edges = _need(obj, "edges", list)
    pairs: list[tuple[int, int]] = []
    for i, e in enumerate(edges):
        if not (isinstance(e, list) and len(e) == 2 and all(type(x) is int for x in e)):
            raise ParseError(f"edges[{i}]", "expected [u, v] of ints")
        u, v = e
        if not u < v:
            raise ParseError(f"edges[{i}]", "edges must be stored with u < v")
        if pairs and pairs[-1] >= (u, v):
            raise ParseError(f"edges[{i}]", "edges must be strictly increasing")
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"edges[{i}]", f"vertex outside 0..{n - 1}")
        pairs.append((u, v))
    return Graph.from_edges(n, pairs)


def save_graph(g: Graph, path: str | Path) -> None:
    Path(path).write_text(graph_to_text(g))


def load_graph(path: str | Path) -> Graph:
    return graph_from_text(Path(path).read_text())


# ----------------------------------------------------------------------
# Embeddings
# ----------------------------------------------------------------------


def _rows(items: list[str], pad: str, brackets: str = "[]") -> str:
    """A JSON array (or object) of encoded items as ``_dump`` lays it out:
    one item per line at pad, the closing bracket one space less."""
    if not items:
        return brackets
    return f"{brackets[0]}\n{pad}" + f",\n{pad}".join(items) + f"\n{pad[:-1]}{brackets[1]}"


def embedding_to_text(emb: OnePlaneGraph) -> str:
    """``_dump`` of the EmbeddingFile object, written directly: json's
    indenting encoder runs in pure Python and dominates a round trip."""
    vs = emb.vertices()
    vertices = [f'{{\n   "id": {v},\n   "kind": "{emb.kind(v)}"\n  }}' for v in vs]
    rotations = [f'"{v}": ' + _rows(list(map(str, emb.rotation(v))), "   ") for v in vs]
    twins = [f"[\n   {2 * i},\n   {2 * i + 1}\n  ]" for i in range(emb.num_segments())]
    pairs = []
    for w in emb.virtual_vertices():
        (a, b), (c, d) = sorted(emb.crossing_edges(w))
        pairs.append(
            f'"{w}": [\n   [\n    {a},\n    {b}\n   ],\n   [\n    {c},\n    {d}\n   ]\n  ]'
        )
    fields = [
        f'"version": {FORMAT_VERSION}',
        '"vertices": ' + _rows(vertices, "  "),
        '"rotations": ' + _rows(rotations, "  ", "{}"),
        '"twins": ' + _rows(twins, "  "),
        '"virtual_pairs": ' + _rows(pairs, "  ", "{}"),
    ]
    return _rows(fields, " ", "{}") + "\n"


def embedding_from_text(text: str) -> OnePlaneGraph:
    obj = _read_json(text, ("version", "vertices", "rotations", "twins", "virtual_pairs"))
    verts = _need(obj, "vertices", list)
    kinds: dict[int, str] = {}
    for i, rec in enumerate(verts):
        if not isinstance(rec, dict) or set(rec) != {"id", "kind"}:
            raise ParseError(f"vertices[{i}]", "expected {id, kind}")
        if rec["kind"] not in ("real", "virtual"):
            raise ParseError(f"vertices[{i}].kind", f"unknown kind {rec['kind']!r}")
        v = _int(rec["id"], f"vertices[{i}].id")
        if v in kinds:
            raise ParseError(f"vertices[{i}].id", f"duplicate vertex {v}")
        kinds[v] = rec["kind"]
    twins = _need(obj, "twins", list)
    for i, pair in enumerate(twins):
        if pair != [2 * i, 2 * i + 1] or not all(type(d) is int for d in pair):
            raise ParseError(f"twins[{i}]", f"expected [{2 * i}, {2 * i + 1}]")
    n_seg = len(twins)
    rotations = _need(obj, "rotations", dict)
    rot_darts: dict[int, list[int]] = {}
    for key, darts in rotations.items():
        v = _key(key, f"rotations.{key}")
        if v not in kinds:
            raise ParseError(f"rotations.{key}", "unknown vertex")
        if not isinstance(darts, list) or not all(type(d) is int for d in darts):
            raise ParseError(f"rotations.{key}", "expected a list of dart ids")
        rot_darts[v] = darts
    if set(rot_darts) != set(kinds):
        raise ParseError("rotations", "must cover every vertex exactly once")
    ends: dict[int, list[int | None]] = {e: [None, None] for e in range(n_seg)}
    for v, darts in rot_darts.items():
        for d in darts:
            if not 0 <= d < 2 * n_seg:
                raise ParseError(f"rotations.{v}", f"dart {d} out of range")
            if ends[d // 2][d % 2] is not None:
                raise ParseError(f"rotations.{v}", f"dart {d} appears twice")
            ends[d // 2][d % 2] = v
    edges = []
    for e in range(n_seg):
        a, b = ends[e]
        if a is None or b is None:
            raise ParseError("twins", f"segment {e} missing a dart")
        edges.append((a, b))
    rot_edges = {v: [d // 2 for d in darts] for v, darts in rot_darts.items()}
    try:
        emb = OnePlaneGraph(kinds, edges, rot_edges)
    except ValueError as exc:
        raise ParseError("rotations", str(exc)) from None
    stored = _need(obj, "virtual_pairs", dict)
    for key in stored:
        if kinds.get(_key(key, f"virtual_pairs.{key}")) != "virtual":
            raise ParseError(f"virtual_pairs.{key}", "not a crossing")
    for w in emb.virtual_vertices():
        want = [sorted(e) for e in sorted(emb.crossing_edges(w))]
        got = stored.get(str(w))
        # equal lists may still hold true or 1.0 where an id is due
        if got != want or not all(type(x) is int for e in got for x in e):
            raise ParseError(
                f"virtual_pairs.{w}", f"stored {got}, rotation implies {want}"
            )
    return emb


def save_embedding(emb: OnePlaneGraph, path: str | Path) -> None:
    Path(path).write_text(embedding_to_text(emb))


def load_embedding(path: str | Path) -> OnePlaneGraph:
    return embedding_from_text(Path(path).read_text())


# ----------------------------------------------------------------------
# Colorings
# ----------------------------------------------------------------------


def coloring_to_text(c: Coloring) -> str:
    return _dump(
        {
            "version": FORMAT_VERSION,
            "k": c.k,
            "colors": {str(v): c.assign[v] for v in sorted(c.assign)},
        }
    )


def coloring_from_text(text: str) -> Coloring:
    obj = _read_json(text, ("version", "k", "colors"))
    k = _need(obj, "k", int)
    colors = _need(obj, "colors", dict)
    assign = {_key(v, f"colors.{v}"): _int(c, f"colors.{v}") for v, c in colors.items()}
    try:
        return Coloring(k, assign)
    except ValueError as exc:
        raise ParseError("colors", str(exc)) from None


def save_coloring(c: Coloring, path: str | Path) -> None:
    Path(path).write_text(coloring_to_text(c))


def load_coloring(path: str | Path) -> Coloring:
    return coloring_from_text(Path(path).read_text())


# ----------------------------------------------------------------------
# Sniffing and DOT export
# ----------------------------------------------------------------------


def load_any(path: str | Path) -> Graph | OnePlaneGraph:
    """Load a graph or embedding file, deciding by content."""
    text = Path(path).read_text()
    obj = _read_json(text)
    if "rotations" in obj:
        return embedding_from_text(text)
    if "edges" in obj:
        return graph_from_text(text)
    raise ParseError("<file>", "neither a graph nor an embedding file")


def export_dot(emb: OnePlaneGraph) -> str:
    """The planarization as DOT text; virtual vertices are the crossing
    markers and get a distinct shape."""
    lines = ["graph planarization {"]
    for v in emb.vertices():
        if emb.is_virtual(v):
            lines.append(f'  v{v} [shape=diamond, label="x{v}"];')
        else:
            lines.append(f'  v{v} [shape=circle, label="{v}"];')
    for u, v in emb.segments():
        lines.append(f"  v{u} -- v{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
