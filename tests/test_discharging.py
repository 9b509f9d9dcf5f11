"""Charging rules: the -8 identity, rule flows, commutation, audit tags."""

import hashlib
import random
from fractions import Fraction

import pytest

from oddcolor.discharging import (
    NotConnectedError,
    apply_rules,
    apply_transfers,
    audit,
    discharge,
    initial_charges,
    rule_transfers,
)
from oddcolor.embedding import (
    OnePlaneGraph,
    REAL,
    plane_from_rotations,
    underlying_graph,
    validate,
)
from oddcolor.generators import (
    cycle_embedding,
    figure4_pattern,
    k7_star_embedding,
    random_one_plane,
)

MINUS_EIGHT = Fraction(-8)
AUDIT_DIGEST = "ccb18709f1a07c01f2a9e3cfa0a527b3203b6a85948c223a119588341bb6b906"


def leafy_cycle(n: int, leaves: dict[int, int]) -> OnePlaneGraph:
    """Cycle 0..n-1 with `leaves[i]` pendant vertices drawn inside face A."""
    nxt = n
    rot = {}
    extra_rot = {}
    for i in range(n):
        mine = list(range(nxt, nxt + leaves.get(i, 0)))
        nxt += len(mine)
        # pendants sit between the two cycle edges on one fixed side
        rot[i] = [(i - 1) % n, *mine, (i + 1) % n]
        for x in mine:
            extra_rot[x] = [i]
    rot.update(extra_rot)
    return plane_from_rotations(nxt, rot)


class TestInitialCharges:
    def test_triangle(self):
        emb = cycle_embedding(3)
        cm = initial_charges(emb)
        assert set(cm.vertex.values()) == {Fraction(-2)}
        assert sorted(cm.face.values()) == [Fraction(-1), Fraction(-1)]
        assert cm.total == MINUS_EIGHT

    def test_c5(self):
        cm = initial_charges(cycle_embedding(5))
        assert set(cm.vertex.values()) == {Fraction(-2)}
        assert sorted(cm.face.values()) == [Fraction(1), Fraction(1)]
        assert cm.total == MINUS_EIGHT

    @pytest.mark.parametrize("seed", range(8))
    def test_corpus_always_minus_eight(self, seed):
        emb = random_one_plane(20, 0.5, seed=seed)
        assert initial_charges(emb).total == MINUS_EIGHT

    def test_disconnected_rejected(self):
        disconnected = OnePlaneGraph(
            {0: REAL, 1: REAL, 2: REAL, 3: REAL},
            {0: [0], 1: [1], 2: [2], 3: [3]},
        )
        with pytest.raises(NotConnectedError):
            initial_charges(disconnected)


class TestRules:
    def test_totals_preserved_exactly(self):
        for seed in range(6):
            emb = random_one_plane(24, 0.5, seed=100 + seed)
            cm = initial_charges(emb)
            assert apply_rules(emb, cm).total == MINUS_EIGHT

    def test_k7_star_total(self):
        emb = k7_star_embedding()
        cm = initial_charges(emb)
        assert apply_rules(emb, cm).total == MINUS_EIGHT

    def test_rules_commute(self):
        emb = random_one_plane(22, 0.6, seed=9)
        cm = initial_charges(emb)
        r1, r2, r3 = rule_transfers(emb)
        orders = [r1 + r2 + r3, r3 + r1 + r2, r2 + r3 + r1]
        rng = random.Random(0)
        shuffled = (r1 + r2 + r3)[:]
        rng.shuffle(shuffled)
        orders.append(shuffled)
        results = [apply_transfers(cm, order) for order in orders]
        assert all(r == results[0] for r in results)

    def test_five_face_with_one_two_vertex_sends_one(self):
        # pentagon, one bare corner, the rest carrying pendants: both faces
        # stay 5-faces for the bare corner's side? pendants enlarge one face
        emb = leafy_cycle(5, {1: 1, 2: 1, 3: 1, 4: 1})
        r1, _, _ = rule_transfers(emb)
        into_zero = [t for t in r1 if t.dst == ("vertex", 0)]
        # one 5-face survives (the pendant-free side): it sends exactly 1
        assert any(t.amount == Fraction(1) for t in into_zero)

    def test_seven_face_with_two_two_vertices_sends_three_halves(self):
        emb = leafy_cycle(7, {1: 1, 2: 1, 4: 1, 5: 1, 6: 1})
        r1, _, _ = rule_transfers(emb)
        for target in (0, 3):
            amounts = [t.amount for t in r1 if t.dst == ("vertex", target)]
            assert Fraction(3, 2) in amounts

    def test_three_face_with_two_big_ends_at_zero(self):
        # triangle a-b-c, a and b inflated to degree 12 by pendants
        rot = {
            0: [1, *range(3, 13), 2],
            1: [2, *range(13, 23), 0],
            2: [0, 1],
        }
        for leaf in range(3, 13):
            rot[leaf] = [0]
        for leaf in range(13, 23):
            rot[leaf] = [1]
        emb = plane_from_rotations(23, rot)
        cm = initial_charges(emb)
        out = apply_rules(emb, cm)
        three_face = next(f for f in emb.faces() if f.len == 3)
        assert out.face[three_face.fid] == 0


class TestAudit:
    def test_triangle_report_names_small_claims(self):
        emb = cycle_embedding(3)
        _, _, report = discharge(emb)
        assert not report.empty
        tags = {t for e in report.entries for t in e.tags}
        assert "adjacent-small-vertices" in tags
        assert "3-face-lacks-two-big-vertices" in tags

    def test_two_vertex_on_two_four_faces_names_face_claim(self):
        emb = cycle_embedding(4)
        _, _, report = discharge(emb)
        vertex_entries = [e for e in report.entries if e.kind == "vertex"]
        assert vertex_entries
        for e in vertex_entries:
            assert "two-vertex-not-on-5plus-and-4plus-faces" in e.tags

    def test_d2_tag_on_violating_big_vertex(self):
        # hub 0 with six pendant triangle ears: degree 12, twelve 2-valent
        # neighbors and six incident 3-faces, so the hub sends 6 + 3 from
        # charge 8 and finishes at -1 with the d2 inequality badly violated
        rot = {0: list(range(1, 13))}
        for i in range(6):
            u, x = 2 * i + 1, 2 * i + 2
            rot[u] = [x, 0]
            rot[x] = [0, u]
        emb = plane_from_rotations(13, rot)
        assert sum(1 for f in emb.faces() if f.len == 3) == 6
        _, out, report = discharge(emb)
        assert out.vertex[0] == Fraction(-1)
        entry = next(e for e in report.entries if e.ident == 0)
        assert "d2-inequality-violated" in entry.tags

    def test_clean_on_none(self):
        # no generated valid instance can be configuration-free, so check
        # the report-empty branch on a synthetic all-nonnegative charge map
        emb = cycle_embedding(5)
        cm = initial_charges(emb)
        positive = type(cm)(
            {v: Fraction(0) for v in cm.vertex}, {f: Fraction(0) for f in cm.face}
        )
        assert audit(emb, positive).empty

    def test_report_is_json(self):
        import json

        _, _, report = discharge(cycle_embedding(3))
        parsed = json.loads(report.to_json())
        assert parsed["clean"] is False
        assert parsed["entries"]

    def test_output_pinned(self):
        # sha256 over the audit JSON and final charges of 14 instances whose
        # reports carry every 2-vertex tag
        h = hashlib.sha256()
        embs = [random_one_plane(50, p, s) for p in (0, 0.5, 1) for s in range(4)]
        for emb in [*embs, figure4_pattern(), k7_star_embedding()]:
            _, cm_star, report = discharge(emb)
            h.update(report.to_json().encode())
            h.update(repr(sorted(cm_star.vertex.items())).encode())
            h.update(repr(sorted(cm_star.face.items())).encode())
        assert h.hexdigest() == AUDIT_DIGEST

    def test_figure4_survives_rules(self):
        emb = figure4_pattern()
        cm = initial_charges(emb)
        out = apply_rules(emb, cm)
        assert out.total == MINUS_EIGHT


def wheel_embedding(spokes: int) -> OnePlaneGraph:
    rot = {0: list(range(1, spokes + 1))}
    for i in range(1, spokes + 1):
        before = spokes if i == 1 else i - 1
        after = 1 if i == spokes else i + 1
        rot[i] = [after, 0, before]
    emb = plane_from_rotations(spokes + 1, rot)
    assert validate(emb) == []
    return emb


class TestBigVertexBounds:
    def outflow(self, emb, v) -> Fraction:
        r1, r2, r3 = rule_transfers(emb)
        return sum(
            (t.amount for t in r2 + r3 if t.src == ("vertex", v)), Fraction(0)
        )

    def test_sixteen_plus_simulation_bound(self):
        # a big hub on a wheel: every incident face is a 3-face, no 2-valent
        # neighbors; actual outflow must stay under the simulated 3/4 per edge
        emb = wheel_embedding(20)
        assert self.outflow(emb, 0) <= Fraction(3, 4) * emb.degree(0)
        out = apply_rules(emb, initial_charges(emb))
        assert out.vertex[0] >= 0
        # and across the random corpus, wherever such vertices exist at all
        for seed in range(20):
            emb = random_one_plane(40, 0.2, seed=900 + seed)
            for v in emb.real_vertices():
                if emb.degree(v) >= 16:
                    assert self.outflow(emb, v) <= Fraction(3, 4) * emb.degree(v)

    def test_mid_big_with_d2_nonnegative_when_inequality_holds(self):
        # wheel with one subdivided spoke: hub degree 12, one 2-valent
        # neighbor, 2d = d2 + 23 exactly; the hub must finish nonnegative
        spokes = 12
        rot = {0: [13] + list(range(2, spokes + 1))}
        rot[13] = [1, 0]
        rot[1] = [2, 13, spokes]
        for i in range(2, spokes + 1):
            before = i - 1
            after = 1 if i == spokes else i + 1
            rot[i] = [after, 0, before]
        emb = plane_from_rotations(spokes + 2, rot)
        assert validate(emb) == []
        g = underlying_graph(emb)
        assert g.degree(0) == 12 and g.degree(13) == 2
        assert 2 * g.degree(0) >= 1 + 23
        out = apply_rules(emb, initial_charges(emb))
        assert out.vertex[0] >= 0
        # same bound across the corpus for every big vertex with a 2-valent
        # neighbor that satisfies the inequality
        for seed in range(20):
            emb = random_one_plane(40, 0.2, seed=950 + seed)
            g = underlying_graph(emb)
            out = apply_rules(emb, initial_charges(emb))
            for v in g.vertices():
                d = g.degree(v)
                d2 = sum(1 for u in g.neighbors(v) if g.degree(u) == 2)
                if 12 <= d <= 15 and d2 >= 1 and 2 * d >= d2 + 23:
                    assert out.vertex[v] >= 0
