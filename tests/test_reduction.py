"""Reduction engine: configuration search, surgeries, end-to-end coloring."""

import hashlib
import itertools
import random
import tracemalloc
from collections import Counter

import pytest

from conftest import assert_tables_recount
from oddcolor import embedding, reduction
from oddcolor.coloring import is_odd_coloring
from oddcolor.discharging import discharge
from oddcolor.embedding import OnePlaneGraph, relabel_embedding, underlying_graph, validate
from oddcolor.exact import chi_o
from oddcolor.graphs import bridges
from oddcolor.generators import (
    cycle_embedding,
    figure4_pattern,
    inject_adjacent_crossing,
    k7_star_embedding,
    path_embedding,
    random_one_plane,
    star_embedding,
)
from oddcolor.io import embedding_from_text, embedding_to_text
from oddcolor.reduction import (
    Bridge,
    OddLowVertex,
    PatternNotFoundError,
    SixFourSwap,
    SmallPair,
    Thresholds,
    TwoFaceUncross,
    check_config,
    find_reducible,
    odd_color_1planar,
    uncross_six_four,
    uncross_two_face,
)

TOY = Thresholds(K=7, BIG=4)


class TestThresholds:
    def test_defaults_consistent(self):
        t = Thresholds()
        assert (t.K, t.BIG, t.ODD_MAX) == (23, 12, 11)

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            Thresholds(K=10, BIG=12)


class TestFindReducible:
    def test_c5_small_pair(self):
        cfg = find_reducible(cycle_embedding(5))
        assert cfg == SmallPair(0, 1)

    def test_k2_bridge(self):
        # the edge is a bridge, but Bridge is the last resort
        emb = star_embedding(1)
        assert find_reducible(emb) == OddLowVertex(0)
        check_config(emb, Thresholds(), Bridge(0, 1))

    def test_k7_star_small_pair(self):
        emb = k7_star_embedding()
        cfg = find_reducible(emb)
        assert isinstance(cfg, SmallPair)
        check_config(emb, Thresholds(), cfg)
        g = underlying_graph(emb)
        # an original vertex paired with one of its subdivision vertices
        assert {g.degree(cfg.v), g.degree(cfg.w)} == {6, 2}

    def test_path_bridge_first(self):
        emb = path_embedding(4)
        assert find_reducible(emb) == OddLowVertex(0)
        # thresholds under which none of the six other configurations
        # exists leave the first bridge
        assert find_reducible(emb, Thresholds(K=1, BIG=1)) == Bridge(0, 1)

    def test_odd_low_vertex(self):
        # a triangle has odd degree 2? no: all degrees two -- use a wheel-ish
        # graph: triangle with a pendant subdivided twice keeps bridges, so
        # build a 2-edge-connected graph with an odd vertex instead
        from oddcolor.embedding import plane_from_rotations

        # K4 drawn planar: all degrees 3 (odd, small), 2-edge-connected
        rot = {0: [1, 2, 3], 1: [2, 0, 3], 2: [0, 1, 3], 3: [0, 2, 1]}
        emb = plane_from_rotations(4, rot)
        assert validate(emb) == []
        assert find_reducible(emb) == OddLowVertex(0)

    def test_two_face_found_when_no_deletion_applies(self):
        # inject a self-crossing into a big random instance; small
        # vertices still take priority, so check the config directly
        emb = inject_adjacent_crossing(random_one_plane(12, 0.0, seed=5), 0, 0)
        w = emb.virtual_vertices()[-1]
        cfg = TwoFaceUncross(w)
        check_config(emb, Thresholds(), cfg)

    def test_figure4_six_four_swap(self):
        emb = figure4_pattern()
        cfg = find_reducible(emb, TOY)
        assert cfg == SixFourSwap(u=1, w=2, v=0, z=12, c=5)
        check_config(emb, TOY, cfg)

    def test_disconnected_rejected(self):
        from oddcolor.embedding import OnePlaneGraph, REAL

        two = OnePlaneGraph({0: REAL, 1: REAL, 2: REAL, 3: REAL},
                            {0: [0], 1: [1], 2: [2], 3: [3]})
        with pytest.raises(ValueError):
            find_reducible(two)

    def test_exhaustion_raises_with_audit(self):
        # a single isolated vertex matches nothing; the engine never asks
        # (base case), but the standalone search must fail loudly and hand
        # over the discharging audit instead of pretending
        from oddcolor.embedding import OnePlaneGraph, REAL
        from oddcolor.reduction import NoConfigFoundError

        lone = OnePlaneGraph({0: REAL}, {0: []})
        with pytest.raises(NoConfigFoundError) as exc:
            find_reducible(lone)
        assert exc.value.report is not None


class TestUncrossTwoFace:
    def fuzz_cases(self, count: int):
        rng = random.Random(99)
        made = 0
        while made < count:
            n = rng.randint(6, 24)
            emb = random_one_plane(n, rng.choice([0.0, 0.3, 0.6]), seed=rng.randrange(10**6))
            v = rng.choice(emb.real_vertices())
            pos = rng.randrange(max(1, emb.degree(v)))
            try:
                injected = inject_adjacent_crossing(emb, v, pos)
            except ValueError:
                continue
            made += 1
            yield emb, injected

    def test_roundtrip_restores_graph(self):
        for base, injected in self.fuzz_cases(40):
            assert validate(injected) == []
            w = injected.virtual_vertices()[-1]
            out = uncross_two_face(injected, w)
            assert validate(out) == []
            assert out.crossing_count() == injected.crossing_count() - 1
            assert underlying_graph(out) == underlying_graph(base)

    def test_pattern_absent(self):
        emb = random_one_plane(10, 0.5, seed=1)
        for w in emb.virtual_vertices():
            with pytest.raises(PatternNotFoundError):
                uncross_two_face(emb, w)

    def test_not_virtual(self):
        with pytest.raises(PatternNotFoundError):
            uncross_two_face(cycle_embedding(4), 0)


class TestUncrossSixFour:
    def test_figure4_swap(self):
        emb = figure4_pattern()
        cfg = find_reducible(emb, TOY)
        out = uncross_six_four(emb, cfg)
        assert validate(out) == []
        assert out.crossing_count() == emb.crossing_count() - 1
        assert underlying_graph(out) == underlying_graph(emb)
        # u and w keep their corridors toward c, now crossing v's edges the
        # other way around; their mutual crossing is gone
        from oddcolor.embedding import g_edges

        edges = g_edges(out)
        assert edges[(1, 6)] is None  # u-p is uncrossed now
        assert edges[(2, 7)] is None  # w-q too

    def test_relabelled_variants(self):
        base = figure4_pattern()
        rng = random.Random(5)
        vs = base.vertices()
        for _ in range(25):
            perm = list(vs)
            rng.shuffle(perm)
            mapping = dict(zip(vs, perm))
            emb = relabel_embedding(base, mapping)
            cfg = SixFourSwap(
                u=mapping[1], w=mapping[2], v=mapping[0],
                z=mapping[12], c=mapping[5],
            )
            out = uncross_six_four(emb, cfg)
            assert validate(out) == []
            assert out.crossing_count() == emb.crossing_count() - 1
            assert underlying_graph(out) == underlying_graph(emb)

    def test_pattern_absent(self):
        emb = figure4_pattern()
        with pytest.raises(PatternNotFoundError):
            uncross_six_four(emb, SixFourSwap(u=3, w=4, v=0, z=12, c=5))


def path_crossed_by_second_component(n: int = 60):
    """A path whose edge (2, 3) is crossed at w by the edge a-b of a second
    component: deleting that bridge leaves three planarization parts."""
    from oddcolor.embedding import OnePlaneGraph, REAL, VIRTUAL

    a, b, w = n, n + 1, n + 2
    kinds = {v: REAL for v in range(n + 2)}
    kinds[w] = VIRTUAL
    edges = [(i, i + 1) for i in range(n - 1) if i != 2]
    edges += [(2, w), (w, 3), (a, w), (w, b)]
    rot = {v: [2 * i + (e[0] != v) for i, e in enumerate(edges) if v in e] for v in kinds}
    rot[w] = [2 * edges.index(e) + (e[0] != w) for e in ((2, w), (a, w), (w, 3), (w, b))]
    return OnePlaneGraph(kinds, rot)


class TestEngine:
    def test_rejects_small_palette(self):
        with pytest.raises(ValueError):
            odd_color_1planar(cycle_embedding(5), Thresholds(K=22, BIG=11))

    def test_c5(self):
        emb = cycle_embedding(5)
        c, trace = odd_color_1planar(emb)
        assert is_odd_coloring(underlying_graph(emb), c)
        assert len(c.colors_used()) <= 23

    def test_k7_star(self):
        emb = k7_star_embedding()
        c, trace = odd_color_1planar(emb)
        g = underlying_graph(emb)
        assert is_odd_coloring(g, c)
        assert max(c.colors_used()) <= 23
        assert trace.steps  # the 28-vertex instance must actually reduce

    def test_star_23_bridges_to_base(self):
        # one leaf goes as an odd low vertex, and the other 23 vertices are
        # a base case
        emb = star_embedding(23)
        c, trace = odd_color_1planar(emb)
        assert is_odd_coloring(underlying_graph(emb), c)
        assert [s.tag for s in trace.steps] == ["OddLowVertex", "BaseCase"]

    def test_trace_strictly_decreases(self, monkeypatch):
        # (|V|, crossings) falls at every step except Bridge, which deletes
        # an edge and leaves both numbers as they were
        emb = random_one_plane(45, 0.7, seed=17)
        for force_bridge in (False, True):
            if force_bridge:
                _checked_picks(monkeypatch, force_bridge=True)
            _, trace = odd_color_1planar(emb)
            assert force_bridge == any(s.tag == "Bridge" for s in trace.steps)
            for s in trace.steps:
                if s.tag == "BaseCase":
                    continue
                assert len(s.after) == 1
                if s.tag == "Bridge":
                    assert s.after == (s.before,)
                else:
                    (n0, c0), ((n, c),) = s.before, s.after
                    assert c < c0 or (c <= c0 and n < n0)

    @pytest.mark.parametrize("seed", range(10))
    def test_every_found_config_passes_hypothesis_check(self, seed):
        emb = random_one_plane(30, (seed % 4) / 3, seed=400 + seed)
        t = Thresholds()
        check_config(emb, t, find_reducible(emb, t))

    @pytest.mark.parametrize("seed", range(8))
    def test_random_instances(self, seed):
        rng = random.Random(seed)
        emb = random_one_plane(rng.randint(24, 50), rng.choice([0.0, 0.4, 0.8]), seed=seed)
        c, _ = odd_color_1planar(emb)
        g = underlying_graph(emb)
        assert is_odd_coloring(g, c)
        assert len(c.colors_used()) <= 23

    @pytest.mark.parametrize("seed", [1717400629, 314395342])
    def test_bridge_whose_sides_cross(self, seed):
        # deleting the bridge leaves the planarization in one piece, because
        # an edge on one side crosses an edge on the other
        emb = random_one_plane(100, 0.5, seed=seed)
        c, trace = odd_color_1planar(emb)
        assert is_odd_coloring(underlying_graph(emb), c)
        assert len(c.colors_used()) <= 23

    def test_bridge_crossed_by_another_component(self):
        emb = path_crossed_by_second_component()
        c, _ = odd_color_1planar(emb)
        assert is_odd_coloring(underlying_graph(emb), c)

    def test_engine_no_better_than_exact(self):
        # sanity only: the engine never beats the true odd chromatic number
        for seed in range(6):
            emb = random_one_plane(8, 0.0, seed=700 + seed)
            c, _ = odd_color_1planar(emb)
            assert len(c.colors_used()) >= chi_o(underlying_graph(emb))


# ----------------------------------------------------------------------
# Deeper engine branches
# ----------------------------------------------------------------------
#
# Random corpora resolve through odd low vertices almost alone, so the
# contraction, two-face and 2-valent-cluster branches of the driver need a
# purpose-built instance.  An antiprism host (every vertex degree 4) carries
# "crescent" pairs of 2-vertices whose four edges cross pairwise, one probe
# 2-vertex with crossing-free edges, and one injected self-crossing.  Run at
# the scaled big-vertex threshold (palette still 23, so the engine accepts),
# the driver must pass through UncrossedSmallEdge, TwoFaceUncross and
# D2Vertex before reaching its base case.


def antiprism_embedding(m: int):
    from oddcolor.embedding import plane_from_rotations

    rot = {}
    for i in range(m):
        rot[i] = [(i + 1) % m, (i - 1) % m, m + (i - 1) % m, m + i]
        rot[m + i] = [m + (i + 1) % m, (i + 1) % m, i, m + (i - 1) % m]
    emb = plane_from_rotations(2 * m, rot)
    assert validate(emb) == []
    return emb


def insert_crescent_pair(emb, face, start: int):
    """Two 2-vertices on four consecutive visits of a face, their four
    edges crossing pairwise at two new virtual vertices."""
    from oddcolor.embedding import EmbeddingBuilder, REAL, VIRTUAL

    b = EmbeddingBuilder.from_embedding(emb)
    visits = [(emb.origin(d), d // 2) for d in face.darts]
    (a, ea), (c, ec), (d, ed), (bb, eb) = (
        visits[(start + i) % len(visits)] for i in range(4)
    )
    assert len({a, c, d, bb}) == 4
    nid = b.fresh_vertex_id()
    x, y, s, t = nid, nid + 1, nid + 2, nid + 3
    for v, k in ((x, REAL), (y, REAL), (s, VIRTUAL), (t, VIRTUAL)):
        b.add_vertex(v, k)
    # added in the order that gives each new vertex its rotation:
    # s (c, a, y, x) crosses a-x with c-y, t (x, y, b, d) crosses x-b with y-d
    b.add_edge(c, s, ec)
    b.add_edge(a, s, ea)
    b.add_edge(s, y)
    b.add_edge(s, x)
    b.add_edge(x, t)
    b.add_edge(y, t)
    b.add_edge(t, bb, None, eb)
    b.add_edge(t, d, None, ed)
    return b.build()


def insert_plain_two_vertex(emb, face):
    """A 2-vertex joined crossing-free to two corners of a face."""
    from oddcolor.embedding import EmbeddingBuilder, REAL

    b = EmbeddingBuilder.from_embedding(emb)
    visits = [(emb.origin(d), d // 2) for d in face.darts]
    (p, ep), (q, eq) = visits[0], visits[1]
    assert p != q
    z = b.add_vertex(b.fresh_vertex_id(), REAL)
    b.add_edge(z, q, None, eq)
    b.add_edge(z, p, None, ep)
    return b.build(), z


class TestEngineBranches:
    @staticmethod
    def crescent_site(emb, hosts):
        """(face, start) whose four consecutive visits are distinct hosts."""
        for f in sorted(emb.faces(), key=lambda f: -f.len):
            vs = [emb.origin(d) for d in f.darts]
            for start in range(len(vs)):
                window = [vs[(start + i) % len(vs)] for i in range(4)]
                if len(set(window)) == 4 and all(v in hosts for v in window):
                    return f, start
        raise AssertionError("no crescent site left")

    def build_instance(self):
        emb = antiprism_embedding(10)
        hosts = set(range(20))
        for _ in range(4):
            face, start = self.crescent_site(emb, hosts)
            emb = insert_crescent_pair(emb, face, start)
            assert validate(emb) == []
        tri = next(
            f
            for f in emb.faces()
            if f.len == 3
            and len({emb.origin(d) for d in f.darts}) == 3
            and all(not emb.is_virtual(emb.origin(d)) for d in f.darts)
        )
        emb, z = insert_plain_two_vertex(emb, tri)
        assert validate(emb) == []
        # self-crossing between two host-host edges well away from z, so the
        # probe's contraction cannot swallow it before TwoFaceUncross runs
        hosts = set(range(20)) - set(underlying_graph(emb).neighbors(z))
        host, pos = next(
            (v, i)
            for v in sorted(hosts)
            for i in range(emb.degree(v))
            if {
                emb.target(emb.rotation(v)[i]),
                emb.target(emb.rotation(v)[(i + 1) % emb.degree(v)]),
            }
            <= hosts
            and emb.target(emb.rotation(v)[i])
            != emb.target(emb.rotation(v)[(i + 1) % emb.degree(v)])
        )
        emb = inject_adjacent_crossing(emb, host, pos)
        assert validate(emb) == []
        return emb, z

    def test_contraction_two_face_and_d2_branches(self):
        emb, z = self.build_instance()
        g = underlying_graph(emb)
        assert g.n > 23  # the driver must actually reduce
        scaled = Thresholds(K=23, BIG=4)
        coloring, trace = odd_color_1planar(emb, scaled)
        assert is_odd_coloring(g, coloring)
        assert len(coloring.colors_used()) <= 23
        tags = {s.tag for s in trace.steps}
        assert "UncrossedSmallEdge" in tags
        assert "TwoFaceUncross" in tags
        assert "D2Vertex" in tags


# ----------------------------------------------------------------------
# Pinned engine output
# ----------------------------------------------------------------------
#
# sha256 of (sorted coloring items, trace steps) per instance.  How the
# engine walks its reductions is free to change; which configuration it
# picks, the coloring it builds and the trace it reports are not.  Change
# a digest only with a deliberate change to the engine's choices.
# The same digests with a bridge picked whenever the instance has one, as
# the engine once ordered its configurations: no known input reaches Bridge
# as the last resort, so this keeps its surgery and extension exercised.
FORCED_BRIDGE_OUTPUTS = {
    "random_one_plane(100, 0.5, 1717400629)": "7c7528c7110cd82eb33cb93e771423c8ce7981d82f1524446ca30db0f32d4a79",
    "random_one_plane(100, 0.5, 314395342)": "cedcc42cdbe6da81c99dd5bf39b4637bb0a6cc570d199faece3d5cdd480afc88",
    "path_crossed_by_second_component": "5b70212ce2b2460aaa568f195be953b9da3b4d37e009c921a5081075b116efc6",
    "engine_branches(BIG=4)": "61f9ad5054c69b575851072d2865533cc7c8b9488c51d98075cf7cf5cb011deb",
    "path_embedding(64)": "fd45384b26956a8a3d2525d632353fbd2f2732c97a1b325ea73a987394968423",
    "star_embedding(63)": "0e0a567b27475a2b8c6636607552c75a84a05384f4d2f000bcc5120b1e4ee5fe",
}

PINNED_OUTPUTS = {
    "random_one_plane(100, 0.5, 1717400629)": "38a184e4655bb917408bcc666ad1f4064d44eec4068345bd22277adb8ab6e3de",
    "random_one_plane(100, 0.5, 314395342)": "95e270a9a733f48219bc813e2d1335b0cebdb897213a9d82e7957d003bb543be",
    "path_crossed_by_second_component": "c69a2a9708eb81c778423adf9b1b925c578560850af3bb1b78c0cf4e5ada962b",
    "engine_branches(BIG=4)": "b3dc995de48a2a45be23f89d85ba77003a2e037b333e9541fd59e790d588873f",
    "k7_star": "6358c5708d1c0c432ee43a51034b2d26cfaf6a2181e1ef55db67eea5bda1f8a0",
    "path_embedding(64)": "e74f630f3abc7b3ed7ff3fe3e867c8a57ff37d16dc10067e3fb2c0cb3268aa4b",
    "cycle_embedding(64)": "885b4a06e9d38d3b8a97d43c307005bdb6d8001e68fae81345ba8675fb00014a",
    "star_embedding(63)": "c86b5f52865543fea7d4dcf94019ecc79a5e2f3b908a776d4a222848b9012632",
    "random_one_plane(40, 0.0, 11)": "9f35e733e505428d601496322d93e1580467921ac2f6e4ee81c4ec40c43be0a7",
    "random_one_plane(50, 0.5, 12)": "b49e84f39d112e31db4feaf836b15447adc301f83cb773a7bad4afeb371d20b0",
    "random_one_plane(60, 1.0, 13)": "9a6b5c45736541285182720b33c1a24caf49c9b7b77b9d51a7a3cc80e93916df",
    "random_one_plane(80, 0.5, 14)": "8f67a3c788166eb76a33f01cb469677dcf6a54043a49451652cf53a492bd1c86",
    "random_one_plane(60, 0.0, 3, BIG=4)": "7af903c8f8b8aa9fcdd712af95f617aea72c190f36d10f3da3bd406f78f51eb0",
}


def _pinned_cases():
    t = Thresholds()
    for seed in (1717400629, 314395342):
        yield f"random_one_plane(100, 0.5, {seed})", random_one_plane(100, 0.5, seed=seed), t
    yield "path_crossed_by_second_component", path_crossed_by_second_component(), t
    branches, _ = TestEngineBranches().build_instance()
    yield "engine_branches(BIG=4)", branches, Thresholds(K=23, BIG=4)
    yield "k7_star", k7_star_embedding(), t
    yield "path_embedding(64)", path_embedding(64), t
    yield "cycle_embedding(64)", cycle_embedding(64), t
    yield "star_embedding(63)", star_embedding(63), t
    for n, p_cross, seed in ((40, 0.0, 11), (50, 0.5, 12), (60, 1.0, 13), (80, 0.5, 14)):
        yield f"random_one_plane({n}, {p_cross}, {seed})", random_one_plane(n, p_cross, seed=seed), t
    # five contractions, three of whose kept ends gain neighbors
    yield "random_one_plane(60, 0.0, 3, BIG=4)", random_one_plane(60, 0.0, seed=3), Thresholds(K=23, BIG=4)


def _output_digest(emb, t: Thresholds) -> str:
    c, trace = odd_color_1planar(emb, t)
    assert is_odd_coloring(underlying_graph(emb), c) and len(c.colors_used()) <= 23
    payload = repr((sorted(c.assign.items()), trace.steps))
    return hashlib.sha256(payload.encode()).hexdigest()


def test_output_pinned():
    got = {name: _output_digest(emb, t) for name, emb, t in _pinned_cases()}
    assert got == PINNED_OUTPUTS


def _checked_picks(monkeypatch, force_bridge: bool = False) -> list:
    """Wrap the engine's configuration search so that every configuration
    it picks passes check_config, and return the list of picks.  With
    force_bridge, a bridge is picked whenever the instance has one."""
    search = reduction.find_reducible
    picks = []

    def checked(emb, t=Thresholds()):
        br = bridges(underlying_graph(emb)) if force_bridge else []
        cfg = Bridge(*br[0]) if br else search(emb, t)
        check_config(emb, t, cfg)
        picks.append(cfg)
        return cfg

    monkeypatch.setattr(reduction, "find_reducible", checked)
    return picks


def test_forced_bridge_pinned(monkeypatch):
    picks = _checked_picks(monkeypatch, force_bridge=True)
    got = {}
    for name, emb, t in _pinned_cases():
        if name in FORCED_BRIDGE_OUTPUTS:
            picks.clear()
            got[name] = _output_digest(emb, t)
            assert any(isinstance(cfg, Bridge) for cfg in picks), name
    assert got == FORCED_BRIDGE_OUTPUTS


def test_every_pick_passes_check_config(monkeypatch):
    picks = _checked_picks(monkeypatch)
    cases = [(emb, t) for _, emb, t in _pinned_cases()] + [(OnePlaneGraph({}, {}), Thresholds())]
    for i, (n, p_cross) in enumerate(itertools.product((50, 100), (0.0, 0.5, 1.0))):
        cases += [(random_one_plane(n, p_cross, seed=600 + 5 * i + j), Thresholds()) for j in range(5)]
    for emb, t in cases:
        c, _ = odd_color_1planar(emb, t)
        assert is_odd_coloring(underlying_graph(emb), c) and len(c.colors_used()) <= 23
    assert len(picks) > len(cases)


@pytest.mark.parametrize("force_bridge", [False, True])
def test_tables_match_recount_at_every_record(monkeypatch, force_bridge):
    # after each replayed record, every vertex of that step's graph has the
    # tables a recount over its colored neighbors gives
    shrink, extend = reduction._shrink, reduction._extend
    graphs = []

    def keeping(emb, g, cfg):
        graphs.append(g)
        return shrink(emb, g, cfg)

    def checked(cfg, row, aux, tracker):
        extend(cfg, row, aux, tracker)
        assert_tables_recount(tracker, graphs.pop())

    monkeypatch.setattr(reduction, "_shrink", keeping)
    monkeypatch.setattr(reduction, "_extend", checked)
    picks = _checked_picks(monkeypatch, force_bridge=force_bridge)
    for _, emb, t in _pinned_cases():
        odd_color_1planar(emb, t)
        assert graphs == []
    assert force_bridge == any(isinstance(cfg, Bridge) for cfg in picks)


def _count_walks(monkeypatch) -> Counter:
    """Count the derivations behind the cached accessors: the calls that
    find nothing stored yet walk the faces or the components, or smooth the
    crossings.  Keyed by (name, embedding)."""
    walks = Counter()

    def counting(name, slot, fn):
        def counted(emb):
            walks[name, emb] += getattr(emb, slot) is None
            return fn(emb)

        return counted

    monkeypatch.setattr(embedding, "_smooth", counting("smooth", "_smoothing", embedding._smooth))
    for name in ("faces", "components"):
        accessor = getattr(OnePlaneGraph, name)
        monkeypatch.setattr(OnePlaneGraph, name, counting(name, "_" + name, accessor))
    return walks


def test_one_walk_per_reduce_step(monkeypatch):
    # each pass of the reduce loop walks its instance's components once (to
    # split it) and smooths it at most once; validate derives both for the
    # input, and the final check reuses them
    emb = random_one_plane(80, 0.5, seed=21)
    passes = []
    split = reduction.split_components

    def counting_split(emb):
        passes.append(emb)
        return split(emb)

    monkeypatch.setattr(reduction, "split_components", counting_split)
    walks = _count_walks(monkeypatch)
    _, trace = odd_color_1planar(emb)
    per_name = Counter()
    for (name, _), count in walks.items():
        per_name[name] += count
    assert len(passes) >= len(trace.steps) > 20
    assert per_name["smooth"] <= len(passes) + 1
    assert per_name["components"] <= len(passes) + 1


def test_one_derivation_per_embedding(monkeypatch):
    # validate, the engine, the final check and the discharging audit all
    # read the input's faces, components and underlying graph; the generator
    # has derived them for its own copy, so the test reads a fresh one
    emb = embedding_from_text(embedding_to_text(random_one_plane(80, 0.5, seed=21)))
    walks = _count_walks(monkeypatch)
    assert validate(emb) == []
    odd_color_1planar(emb)
    underlying_graph(emb)
    discharge(emb)
    assert [walks[name, emb] for name in ("faces", "components", "smooth")] == [1, 1, 1]


@pytest.mark.parametrize("family", [path_embedding, star_embedding, cycle_embedding])
def test_memory_linear_in_n(family):
    # the log keeps neighbor rows, not a graph per step: doubling n must
    # not quadruple the peak
    def peak(n):
        emb = family(n)
        tracemalloc.start()
        try:
            odd_color_1planar(emb)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(200) / peak(100) < 3
