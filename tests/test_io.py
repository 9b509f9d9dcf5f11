"""File formats: byte-exact round trips and parse failures."""

import json
import re

import pytest

from conftest import embedding_cases
from oddcolor.coloring import Coloring
from oddcolor.generators import k7_star_embedding, random_one_plane
from oddcolor.graphs import cycle, subdivided_complete
from oddcolor.io import (
    ParseError,
    coloring_from_text,
    coloring_to_text,
    embedding_from_text,
    embedding_to_text,
    export_dot,
    graph_from_text,
    graph_to_text,
    load_any,
    save_embedding,
    save_graph,
)


class TestGraphFile:
    def test_roundtrip(self):
        g = subdivided_complete(5)
        assert graph_from_text(graph_to_text(g)) == g

    def test_bytes_stable(self):
        text = graph_to_text(cycle(6))
        assert graph_to_text(graph_from_text(text)) == text

    def test_unsorted_edge_rejected(self):
        with pytest.raises(ParseError):
            graph_from_text('{"version": 1, "n": 3, "edges": [[2, 1]]}')

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ParseError):
            graph_from_text('{"version": 1, "n": 3, "edges": [[0, 1], [0, 1]]}')

    def test_edges_must_be_strictly_increasing(self):
        # each edge is stored with u < v, but the list is out of order
        with pytest.raises(ParseError, match="strictly increasing"):
            graph_from_text('{"version": 1, "n": 3, "edges": [[1, 2], [0, 1]]}')

    def test_vertex_out_of_range(self):
        with pytest.raises(ParseError):
            graph_from_text('{"version": 1, "n": 2, "edges": [[0, 5]]}')

    def test_not_json(self):
        # the second is JSON, but too deeply nested for the parser's recursion
        deep = '{"version": 1, "n": ' + "[" * 10**5 + "]" * 10**5 + "}"
        for text in ("pentagon", deep):
            with pytest.raises(ParseError):
                graph_from_text(text)


class TestEmbeddingFile:
    def test_roundtrip_k7_star_bytes(self):
        text = embedding_to_text(k7_star_embedding())
        again = embedding_to_text(embedding_from_text(text))
        assert again == text

    def test_roundtrip_random(self):
        emb = random_one_plane(25, 0.6, seed=3)
        text = embedding_to_text(emb)
        back = embedding_from_text(text)
        assert embedding_to_text(back) == text

    def test_twin_mismatch_rejected(self):
        text = embedding_to_text(random_one_plane(8, 0.0, seed=1))
        broken = text.replace('"twins": [\n  [\n   0,\n   1\n  ],', '"twins": [\n  [\n   0,\n   2\n  ],')
        assert broken != text
        with pytest.raises(ParseError):
            embedding_from_text(broken)

    def test_virtual_pairs_checked(self):
        emb = random_one_plane(12, 1.0, seed=2)
        assert emb.crossing_count() > 0
        import json

        obj = json.loads(embedding_to_text(emb))
        w = next(iter(obj["virtual_pairs"]))
        obj["virtual_pairs"][w][0][0] += 1
        with pytest.raises(ParseError):
            embedding_from_text(json.dumps(obj))

    def test_unknown_kind(self):
        with pytest.raises(ParseError):
            embedding_from_text(
                '{"version": 1, "vertices": [{"id": 0, "kind": "ghost"}],'
                ' "rotations": {"0": []}, "twins": [], "virtual_pairs": {}}'
            )

    @pytest.mark.parametrize("emb", embedding_cases())
    def test_writer_matches_json_dump(self, emb):
        # the object the module docstring documents, through json's own
        # one-space indenting encoder
        obj = {
            "version": 1,
            "vertices": [{"id": v, "kind": emb.kind(v)} for v in emb.vertices()],
            "rotations": {str(v): list(emb.rotation(v)) for v in emb.vertices()},
            "twins": [[2 * i, 2 * i + 1] for i in range(emb.num_segments())],
            "virtual_pairs": {
                str(w): [sorted(e) for e in sorted(emb.crossing_edges(w))]
                for w in emb.virtual_vertices()
            },
        }
        assert embedding_to_text(emb) == json.dumps(obj, indent=1) + "\n"


class TestColoringFile:
    def test_roundtrip(self):
        c = Coloring(5, {0: 1, 3: 5})
        assert coloring_from_text(coloring_to_text(c)) == c

    def test_color_out_of_palette(self):
        with pytest.raises(ParseError):
            coloring_from_text('{"version": 1, "k": 2, "colors": {"0": 7}}')


def _edited(text: str, edit) -> str:
    """text with its JSON object changed in place by edit."""
    obj = json.loads(text)
    edit(obj)
    return json.dumps(obj)


# one valid file per format, with the reader that loads it
FILES = {
    "graph": (graph_to_text(cycle(3)), graph_from_text),
    "coloring": (coloring_to_text(Coloring(3, {0: 1, 1: 2, 2: 3})), coloring_from_text),
    # random_one_plane(12, 1.0, 2) has crossings, so virtual_pairs is not empty
    "embedding": (embedding_to_text(random_one_plane(12, 1.0, seed=2)), embedding_from_text),
}


def _load_edited(kind: str, edit):
    text, reader = FILES[kind]
    return reader(_edited(text, edit))


def _set(*path_and_value):
    """An edit that sets obj[path[0]]...[path[-1]] = value."""
    *path, last, value = path_and_value

    def edit(obj):
        for key in path:
            obj = obj[key]
        obj[last] = value

    return edit


def _first_key(field, rename):
    """An edit that renames the first key of obj[field] by rename."""

    def edit(obj):
        key = next(iter(obj[field]))
        obj[field][rename(key)] = obj[field].pop(key)

    return edit


class TestStrictReaders:
    """The readers reject what no writer produces, instead of coercing it."""

    @pytest.mark.parametrize("kind", list(FILES))
    def test_valid_files_load(self, kind):
        _load_edited(kind, lambda obj: None)

    @pytest.mark.parametrize("kind", list(FILES))
    @pytest.mark.parametrize("version", [None, 99, 0, "1", 1.0, True])
    def test_version_must_be_1(self, kind, version):
        edit = (lambda obj: obj.pop("version")) if version is None else _set("version", version)
        with pytest.raises(ParseError, match="version"):
            _load_edited(kind, edit)

    @pytest.mark.parametrize("bad", [True, 2.0, "2"])
    @pytest.mark.parametrize(
        "kind, path, field",
        [
            pytest.param("graph", ("n",), "n", id="graph-n"),
            pytest.param("graph", ("edges", 0, 1), "edges[0]", id="graph-edge-end"),
            pytest.param("coloring", ("k",), "k", id="coloring-k"),
            pytest.param("coloring", ("colors", "2"), "colors.2", id="coloring-color"),
            pytest.param("embedding", ("vertices", 2, "id"), "vertices[2].id", id="embedding-vertex-id"),
            pytest.param("embedding", ("rotations", "0", 0), "rotations.0", id="embedding-rotation-dart"),
            pytest.param("embedding", ("twins", 1, 0), "twins[1]", id="embedding-twin-dart"),
        ],
    )
    def test_numbers_must_be_ints(self, kind, path, field, bad):
        # each bad value equals or nearly equals a valid one, so coercion
        # would have accepted it
        with pytest.raises(ParseError, match=f"^{re.escape(field)}: "):
            _load_edited(kind, _set(*path, bad))

    def test_virtual_pair_ids_must_be_ints(self):
        def edit(obj):
            pairs = next(iter(obj["virtual_pairs"].values()))
            pairs[0][0] = float(pairs[0][0])

        with pytest.raises(ParseError, match="virtual_pairs"):
            _load_edited("embedding", edit)

    def test_negative_n(self):
        with pytest.raises(ParseError, match="n: negative"):
            _load_edited("graph", _set("n", -1))

    @pytest.mark.parametrize("prefix, suffix", [("0", ""), ("+", ""), ("", " ")])
    @pytest.mark.parametrize(
        "kind, field",
        [("coloring", "colors"), ("embedding", "rotations"), ("embedding", "virtual_pairs")],
    )
    def test_keys_must_be_canonical_decimals(self, kind, field, prefix, suffix):
        with pytest.raises(ParseError, match=field):
            _load_edited(kind, _first_key(field, lambda key: prefix + key + suffix))

    def test_virtual_pairs_only_at_crossings(self):
        with pytest.raises(ParseError, match="not a crossing"):
            _load_edited("embedding", _set("virtual_pairs", "0", [[1, 2], [3, 4]]))

    @pytest.mark.parametrize("kind", list(FILES))
    def test_unknown_top_level_field(self, kind):
        with pytest.raises(ParseError, match="^junk: unknown field"):
            _load_edited(kind, _set("junk", 1))

    def test_vertex_record_has_only_id_and_kind(self):
        with pytest.raises(ParseError, match=re.escape("vertices[1]")):
            _load_edited("embedding", _set("vertices", 1, "junk", 1))

    @pytest.mark.parametrize("emb", [random_one_plane(12, 1.0, seed=2), random_one_plane(8, 0.0, seed=1)])
    def test_virtual_pairs_required(self, emb):
        # also where there is no crossing to describe
        text = _edited(embedding_to_text(emb), lambda obj: obj.pop("virtual_pairs"))
        with pytest.raises(ParseError, match="^virtual_pairs: missing"):
            embedding_from_text(text)

    def test_virtual_pairs_must_be_an_object(self):
        with pytest.raises(ParseError, match="^virtual_pairs: expected"):
            _load_edited("embedding", _set("virtual_pairs", []))

    def test_duplicate_vertex_id(self):
        with pytest.raises(ParseError, match="duplicate vertex"):
            _load_edited("embedding", _set("vertices", 1, "id", 0))

    def test_twins_must_match_dart_count(self):
        with pytest.raises(ParseError, match="^twins: "):
            _load_edited("embedding", lambda obj: obj["twins"].pop())


class TestLoadAnyAndDot:
    def test_load_any(self, tmp_path):
        gpath = tmp_path / "g.graph.json"
        epath = tmp_path / "e.empl.json"
        save_graph(cycle(4), gpath)
        save_embedding(random_one_plane(8, 0.0, seed=1), epath)
        from oddcolor.graphs import Graph
        from oddcolor.embedding import OnePlaneGraph

        assert isinstance(load_any(gpath), Graph)
        assert isinstance(load_any(epath), OnePlaneGraph)

    def test_export_dot_shape(self):
        emb = random_one_plane(10, 1.0, seed=4)
        dot = export_dot(emb)
        assert dot.count("{") == dot.count("}") == 1
        node_lines = [l for l in dot.splitlines() if "[shape=" in l]
        assert len(node_lines) == len(emb.vertices())
        assert any("diamond" in l for l in node_lines)  # crossing markers
        edge_lines = [l for l in dot.splitlines() if " -- " in l]
        assert len(edge_lines) == emb.num_segments()

    def test_export_dot_cycle(self):
        from oddcolor.generators import cycle_embedding

        dot = export_dot(cycle_embedding(5))
        assert dot.count("{") == dot.count("}") == 1
        assert sum(1 for l in dot.splitlines() if "[shape=" in l) == 5
