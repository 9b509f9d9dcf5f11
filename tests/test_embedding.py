"""Rotation systems: faces, validation, smoothing, and surgery."""

import dataclasses
import hashlib
import random

import pytest

from conftest import embedding_cases
from oddcolor.embedding import (
    REAL,
    VIRTUAL,
    EmbeddingBuilder,
    Face,
    InvalidEmbeddingError,
    OnePlaneGraph,
    contract_uncrossed_edge,
    delete_g_edge,
    delete_real_vertices,
    g_edges,
    insert_crossing,
    plane_from_rotations,
    relabel_embedding,
    split_components,
    underlying_graph,
    validate,
)
from oddcolor.generators import (
    cycle_embedding,
    figure4_pattern,
    inject_adjacent_crossing,
    k7_star_embedding,
    path_embedding,
    random_one_plane,
    star_embedding,
)
from oddcolor.graphs import NotAnEdgeError, subdivided_complete
from oddcolor.io import embedding_to_text
from oddcolor.reduction import (
    PatternNotFoundError,
    SixFourSwap,
    uncross_six_four,
    uncross_two_face,
)


def one_crossing_pair() -> OnePlaneGraph:
    """Edges 0-1 and 2-3 crossing once at virtual 4."""
    kinds = {0: REAL, 1: REAL, 2: REAL, 3: REAL, 4: VIRTUAL}
    rot = {0: [0], 1: [3], 2: [4], 3: [7], 4: [1, 5, 2, 6]}
    return OnePlaneGraph(kinds, rot)


class TestFaces:
    def test_triangle_two_faces(self):
        emb = plane_from_rotations(3, {0: [1, 2], 1: [2, 0], 2: [0, 1]})
        assert sorted(f.len for f in emb.faces()) == [3, 3]

    def test_k2_single_face_of_two_darts(self):
        emb = plane_from_rotations(2, {0: [1], 1: [0]})
        faces = emb.faces()
        assert len(faces) == 1 and faces[0].len == 2

    def test_every_dart_on_one_face(self):
        emb = k7_star_embedding()
        seen = [d for f in emb.faces() for d in f.darts]
        assert sorted(seen) == emb.darts()

    def test_k7_star_euler(self):
        emb = k7_star_embedding()
        v = len(emb.vertices())
        e = emb.num_segments()
        f = len(emb.faces())
        assert v == 28 + emb.crossing_count()
        assert e == 42 + 2 * emb.crossing_count()
        assert v - e + f == 2

    @pytest.mark.parametrize(
        "emb", embedding_cases() + [pytest.param(star_embedding(10**4), id="star_embedding(10**4)")]
    )
    def test_matches_face_next_walk(self, emb):
        walked, seen = [], set()
        for d0 in emb.darts():
            if d0 in seen:
                continue
            cyc, d = [d0], emb.face_next(d0)
            while d != d0:
                cyc.append(d)
                d = emb.face_next(d)
            seen.update(cyc)
            walked.append(Face(tuple(cyc)))
        assert list(emb.faces()) == sorted(walked, key=lambda f: f.fid)


class TestValidate:
    def test_pentagon_clean(self):
        assert validate(cycle_embedding(5)) == []

    def test_degree_three_virtual(self):
        kinds = {0: REAL, 1: REAL, 2: REAL, 3: VIRTUAL}
        rot = {0: [0], 1: [2], 2: [4], 3: [1, 3, 5]}
        bad = validate(OnePlaneGraph(kinds, rot))
        assert any(v.code == "VirtualDegree" and v.subject == (3,) for v in bad)

    def test_virtual_virtual_edge(self):
        kinds = {0: REAL, 1: REAL, 2: VIRTUAL, 3: VIRTUAL}
        rot = {
            0: [0, 6, 10],
            1: [2, 8, 11],
            2: [1, 3, 4],
            3: [5, 7, 9],
        }
        bad = validate(OnePlaneGraph(kinds, rot))
        assert any(v.code == "VirtualVirtualEdge" for v in bad)

    def test_generated_k7_star_clean(self):
        assert validate(k7_star_embedding()) == []

    def test_nonplanar_rotation_fails_euler(self):
        # K4 with one twisted rotation embeds on the torus, not the plane
        rot = {0: [1, 2, 3], 1: [0, 2, 3], 2: [0, 1, 3], 3: [0, 1, 2]}
        emb = plane_from_rotations(4, rot)
        assert any(v.code == "EulerViolation" for v in validate(emb))

    @pytest.mark.parametrize(
        "kinds, rot",
        [
            pytest.param({0: REAL, 1: REAL}, {0: [0], 1: [1, 2]}, id="odd-dart-count"),
            pytest.param({0: REAL, 1: REAL}, {0: [0], 1: [2]}, id="dart-out-of-range"),
            pytest.param({0: REAL, 1: REAL}, {0: [0], 1: [0]}, id="repeated-dart"),
            pytest.param({0: REAL}, {0: [0, 1]}, id="loop"),
            pytest.param({0: REAL}, {0: [], 5: []}, id="unknown-vertex"),
            pytest.param({0: "ghost"}, {0: []}, id="unknown-kind"),
        ],
    )
    def test_dart_layout_checked_at_construction(self, kinds, rot):
        with pytest.raises(InvalidEmbeddingError):
            OnePlaneGraph(kinds, rot)


class TestUnderlying:
    def test_single_crossing_smooths_away(self):
        g = underlying_graph(one_crossing_pair())
        assert g.edges() == [(0, 1), (2, 3)]

    def test_crossing_free_is_identity(self):
        emb = cycle_embedding(6)
        g = underlying_graph(emb)
        assert g.edges() == [(i, j) for i, j in g.edges()]
        assert g.num_edges() == emb.num_segments()

    def test_k7_star_recovered(self):
        assert underlying_graph(k7_star_embedding()) == subdivided_complete(7)

    def test_g_edges_classifies_crossings(self):
        emb = one_crossing_pair()
        assert g_edges(emb) == {(0, 1): 4, (2, 3): 4}


class TestDerivedOnce:
    def test_second_call_returns_the_same_read_only_values(self):
        emb = random_one_plane(40, 0.5, seed=6)
        faces, comps = emb.faces(), emb.components()
        g, cross = underlying_graph(emb), g_edges(emb)
        assert validate(emb) == []
        assert emb.faces() is faces and emb.components() is comps
        assert underlying_graph(emb) is g and g_edges(emb) is cross
        with pytest.raises(TypeError):
            faces[0] = faces[1]
        with pytest.raises(dataclasses.FrozenInstanceError):
            faces[0].darts = ()
        with pytest.raises(TypeError):
            comps[0][0] = -1
        with pytest.raises(TypeError):
            cross[next(iter(cross))] = None


class TestInsertCrossing:
    def test_identity_on_abstract_graph(self):
        emb = cycle_embedding(4)
        g0 = underlying_graph(emb)
        # darts of edges (0,1) and (2,3) on a common face
        faces = emb.faces()
        f = faces[0]
        d_ab = next(d for d in f.darts if {emb.origin(d), emb.target(d)} == {0, 1})
        d_cd = next(d for d in f.darts if {emb.origin(d), emb.target(d)} == {2, 3})
        crossed = insert_crossing(emb, d_ab, d_cd)
        assert validate(crossed) == []
        assert crossed.crossing_count() == 1
        assert underlying_graph(crossed) == g0

    def test_requires_common_face(self):
        emb = cycle_embedding(6)
        f0 = next(f for f in emb.faces() if 0 in f.darts)
        other_side = emb.twin(next(d for d in f0.darts if d != 0))
        with pytest.raises(InvalidEmbeddingError):
            insert_crossing(emb, 0, other_side)


def delete_by_segment(emb, drop):
    """delete_real_vertices as one builder edit per segment, each an
    add_edge or a delete_edge: the reference the one-pass filter must match."""
    dropped = set(drop)
    b = EmbeddingBuilder.from_embedding(emb)
    for w in emb.virtual_vertices():
        r = list(b.rot[w])
        far = [b.other_end(e, w) for e in r]
        die_a = far[0] in dropped or far[2] in dropped
        die_b = far[1] in dropped or far[3] in dropped
        if die_a or die_b:
            for e in r if die_a and die_b else (r[0], r[2]) if die_a else (r[1], r[3]):
                b.delete_edge(e)
            if die_a != die_b:
                # the surviving edge's two segments become one, keeping the
                # far rotation slots: add x-y there, then delete both
                e1, e2 = b.rot[w]
                b.add_edge(b.other_end(e1, w), b.other_end(e2, w), e1, e2)
                b.delete_edge(e1)
                b.delete_edge(e2)
            assert not b.rot.pop(w)  # w is isolated now
            del b.kind[w]
    for v in dropped:
        for e in list(b.rot[v]):
            b.delete_edge(e)
        assert not b.rot.pop(v)
        del b.kind[v]
    return b.build()


def layout(emb):
    return emb.segments(), [(v, emb.kind(v), emb.rotation(v)) for v in emb.vertices()]


class TestSurgery:
    @pytest.mark.parametrize(
        "emb, drop",
        [
            (star_embedding(50), range(1, 51)),
            (star_embedding(50), range(1, 51, 3)),
            (star_embedding(50), [0]),
            (path_embedding(50), range(0, 50, 2)),
            (path_embedding(50), [0, 49, 25]),
            (random_one_plane(40, 0.5, seed=8), range(0, 40, 5)),
            (random_one_plane(40, 1.0, seed=9), [3, 4, 17]),
            (k7_star_embedding(), [0, 1]),
        ],
    )
    def test_delete_vertices_matches_segment_edits(self, emb, drop):
        # filtering each rotation once keeps rotation order, so the output
        # is the same embedding, segment numbering included
        assert layout(delete_real_vertices(emb, drop)) == layout(delete_by_segment(emb, drop))
    def test_delete_vertex_keeps_euler(self):
        emb = random_one_plane(20, 0.6, seed=11)
        out = delete_real_vertices(emb, [3])
        assert validate(out) == []
        assert underlying_graph(out) == underlying_graph(emb).delete_vertices([3])

    def test_delete_vertex_restores_crossed_partner(self):
        emb = one_crossing_pair()
        out = delete_real_vertices(emb, [0])
        assert out.crossing_count() == 0
        assert underlying_graph(out).edges() == [(2, 3)]

    def test_delete_g_edge_uncrossed(self):
        emb = cycle_embedding(5)
        out = delete_g_edge(emb, 0, 1)
        assert validate(out) == []
        assert underlying_graph(out).num_edges() == 4

    def test_delete_g_edge_crossed(self):
        emb = one_crossing_pair()
        out = delete_g_edge(emb, 0, 1)
        assert out.crossing_count() == 0
        assert underlying_graph(out).edges() == [(2, 3)]

    def test_contract_uncrossed(self):
        emb = cycle_embedding(5)
        out = contract_uncrossed_edge(emb, 0, 1)
        assert validate(out) == []
        g = underlying_graph(out)
        assert g.n == 4 and g.num_edges() == 4  # a 4-cycle on surviving ids
        assert 0 not in g

    def test_contract_crossed_refused(self):
        emb = one_crossing_pair()
        with pytest.raises(InvalidEmbeddingError):
            contract_uncrossed_edge(emb, 0, 1)

    def test_contract_on_random_corpus(self):
        emb = random_one_plane(18, 0.4, seed=2)
        g = underlying_graph(emb)
        for (x, y), w in sorted(g_edges(emb).items()):
            if w is None:
                out = contract_uncrossed_edge(emb, x, y)
                assert validate(out) == []
                assert underlying_graph(out) == g.contract(x, y)[0]

    def test_contract_deletes_edges_to_common_neighbors(self):
        # in the wheel on hub 0 and rim 1-2-3-4, spoke 1-0 has two common
        # neighbors: the contraction must not leave parallel edges behind
        emb = plane_from_rotations(
            5, {0: [1, 2, 3, 4], 1: [0, 4, 2], 2: [0, 1, 3], 3: [0, 2, 4], 4: [0, 3, 1]}
        )
        assert validate(emb) == []
        g = underlying_graph(emb)
        assert g.neighbors(1) & g.neighbors(0) == {2, 4}
        out = contract_uncrossed_edge(emb, 1, 0)
        assert validate(out) == []
        assert underlying_graph(out) == g.contract(1, 0)[0]

    @pytest.mark.parametrize("surgery", [delete_g_edge, contract_uncrossed_edge])
    def test_non_edge_raises(self, surgery):
        emb = cycle_embedding(5)
        with pytest.raises(NotAnEdgeError):
            surgery(emb, 0, 2)
        with pytest.raises(NotAnEdgeError):
            surgery(emb, 0, 7)

    def test_split_components(self):
        a = cycle_embedding(3)
        b = relabel_embedding(cycle_embedding(3), {0: 3, 1: 4, 2: 5})
        kinds = {v: REAL for v in range(6)}
        rot = {v: list(a.rotation(v)) for v in a.vertices()}
        rot.update(
            {v: [d + 6 for d in b.rotation(v)] for v in b.vertices()}
        )
        both = OnePlaneGraph(kinds, rot)
        assert validate(both) == []  # Euler holds per component
        parts = split_components(both)
        assert [sorted(p.vertices()) for p in parts] == [[0, 1, 2], [3, 4, 5]]
        for p in parts:
            assert validate(p) == []


# ----------------------------------------------------------------------
# Pinned surgery outputs
# ----------------------------------------------------------------------
#
# sha256 of the concatenated embedding_to_text of every output of one
# surgery over a fixed seeded corpus: how a surgery edits the drawing is
# free to change, the drawing it leaves (segment numbering included) is not.


def two_face_corpus() -> list:
    """Random drawings with one injected crossing of two edges at a vertex."""
    rng = random.Random(21)
    out = []
    while len(out) < 12:
        emb = random_one_plane(rng.randint(6, 20), rng.choice([0.0, 0.5]), seed=rng.randrange(10**6))
        v = rng.choice(emb.real_vertices())
        try:
            out.append(inject_adjacent_crossing(emb, v, rng.randrange(max(1, emb.degree(v)))))
        except ValueError:
            continue
    return out


def surgery_corpus() -> list:
    return [
        random_one_plane(16, 0.0, seed=1),
        random_one_plane(20, 0.5, seed=2),
        random_one_plane(24, 1.0, seed=3),
        random_one_plane(30, 0.7, seed=4),
        k7_star_embedding(),
        *two_face_corpus(),
    ]


def surgery_outputs(name: str):
    if name == "delete_real_vertices":
        for emb in surgery_corpus():
            reals = emb.real_vertices()
            for v in reals:
                yield delete_real_vertices(emb, [v])
            yield delete_real_vertices(emb, reals[::3])
    elif name == "delete_g_edge":
        for emb in surgery_corpus():
            for x, y in sorted(g_edges(emb)):
                yield delete_g_edge(emb, x, y)
    elif name == "contract_uncrossed_edge":
        # edges whose ends share no neighbor: the contraction deletes no edge
        for emb in surgery_corpus():
            g = underlying_graph(emb)
            for (x, y), w in sorted(g_edges(emb).items()):
                if w is None and not g.neighbors(x) & g.neighbors(y):
                    yield contract_uncrossed_edge(emb, x, y)
                    yield contract_uncrossed_edge(emb, y, x)
    elif name == "uncross_two_face":
        for emb in two_face_corpus():
            for w in emb.virtual_vertices():
                try:
                    yield uncross_two_face(emb, w)
                except PatternNotFoundError:
                    pass
    else:  # uncross_six_four, on relabelings of figure 4
        base = figure4_pattern()
        rng = random.Random(5)
        vs = base.vertices()
        for _ in range(12):
            perm = list(vs)
            rng.shuffle(perm)
            m = dict(zip(vs, perm))
            emb = relabel_embedding(base, m)
            yield uncross_six_four(emb, SixFourSwap(u=m[1], w=m[2], v=m[0], z=m[12], c=m[5]))


SURGERY_OUTPUTS = {
    "delete_real_vertices": "e6938940b435d785e82bd5d6c44d0829e5f87389eeef8511470b94105581cf43",
    "delete_g_edge": "ce50dc5daae0b194f931f95464f9ccaf40b881c2a5b176cfdf5411135a80b883",
    "contract_uncrossed_edge": "92cdedd88d22041565a7482d08d9414acc9e9c6db539cff41599b54679d5bf9b",
    "uncross_two_face": "f8e2fa294d8944747210afa09904833e33ab0ac3651659652e4d65daafc5d6e1",
    "uncross_six_four": "894c3f3ff905b180171770d4ad518b117bc2b0cd303b6ae3e497b03700ca161a",
}


def surgery_digest(name: str) -> tuple[str, int]:
    h, count = hashlib.sha256(), 0
    for out in surgery_outputs(name):
        h.update(embedding_to_text(out).encode())
        count += 1
    return h.hexdigest(), count


@pytest.mark.parametrize("name", sorted(SURGERY_OUTPUTS))
def test_surgery_outputs_pinned(name):
    digest, count = surgery_digest(name)
    assert count >= 12
    assert digest == SURGERY_OUTPUTS[name]
