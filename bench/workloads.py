"""The benchmark's four workloads, one per instance family.

Each workload builds, from a seed, a pool of *blocks*.  A block is a list
of instances with exact counts per class, in a seeded order; a run goes
through the pool's blocks in order and stops only between blocks.  Every
run therefore has the same mix, and the counts put the median and the p90
of instance time inside one class, not on a gap between two, on every
seed.  ``run`` executes one instance from its input to its checked output
and calls the package only through module attributes, so the tracer's
wrappers see every call.  A wrong output raises WrongOutput; other
exceptions and INCONCLUSIVE verdicts are failures that the caller counts.
"""

from __future__ import annotations

import importlib
import random
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

PACKAGE = "oddcolor"
SUBMODULES = ("coloring", "discharging", "embedding", "exact", "generators",
              "graphs", "io", "minor_closed", "reduction")
CONFIG_TAGS = ("BaseCase", "Bridge", "OddLowVertex", "SmallPair",
               "UncrossedSmallEdge", "TwoFaceUncross", "D2Vertex", "SixFourSwap")
ONE_PLANE_PALETTE = 23
P_CROSS = (0.0, 0.5, 1.0)
# Per-level node budget of the exact workload; see bench/README.md for the
# verdicts it gives on the reference relabelings of K6* and K7*.
EXACT_NODE_LIMIT = 50_000
REFERENCE_RELABELINGS = range(24)


class WrongOutput(AssertionError):
    """An output check failed: the result is wrong, not merely a failure."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise WrongOutput(what)


def import_package(src: Path):
    """Import oddcolor from src (and nowhere else) with the submodules used here."""
    sys.path.insert(0, str(src))
    package = importlib.import_module(PACKAGE)
    if Path(package.__file__).resolve().parent != (src / PACKAGE).resolve():
        raise ImportError(f"{PACKAGE} was imported from {package.__file__}, not {src}")
    for name in SUBMODULES:
        importlib.import_module(f"{PACKAGE}.{name}")
    return package


@dataclass
class Tally:
    """Outcomes of the instances of one kind of block (traced or not)."""

    spans: list[tuple[float, float]] = field(default_factory=list)  # (start, end) per instance
    block_seconds: list[float] = field(default_factory=list)
    failed: int = 0
    causes: Counter = field(default_factory=Counter)
    wrong: list[str] = field(default_factory=list)
    steps: int = 0
    configs: Counter = field(default_factory=Counter)
    contractions: int = 0

    @property
    def attempted(self) -> int:
        return len(self.spans)

    def count_reduction(self, trace) -> None:
        self.steps += len(trace.steps)
        self.configs.update(step.tag for step in trace.steps)


def _check_odd(oc, g, c, palette: int) -> None:
    check(set(c.assign) == set(g.vertices()), "coloring does not cover exactly the vertices")
    check(oc.coloring.is_odd_coloring(g, c), "coloring is not odd")
    check(max(c.assign.values(), default=1) <= palette, f"coloring uses a color above {palette}")


def _block(rng: random.Random, *classes: list) -> list:
    """One block: the items of every class, in a seeded order."""
    items = [item for items in classes for item in items]
    rng.shuffle(items)
    return items


# ----------------------------------------------------------------------
# onep-corpus: the whole 1-plane pipeline, generator included
# ----------------------------------------------------------------------


class OnePlaneCorpus:
    # (n, instances per block); each size cycles through P_CROSS.  The
    # median falls among the n = 50 instances and the p90 in the middle
    # of the n = 100 ones, the top fifth of every block.
    BLOCK = ((50, 12), (100, 3))
    # distinct blocks, more than a run goes through
    POOL = 32

    def build(self, oc, seed: int) -> list[list]:
        rng = random.Random(seed)
        return [_block(rng, *(
            [(n, P_CROSS[i % 3], rng.randrange(2**31)) for i in range(count)]
            for n, count in self.BLOCK
        )) for _ in range(self.POOL)]

    def run(self, oc, spec, tally: Tally):
        n, p_cross, gen_seed = spec
        emb = oc.generators.random_one_plane(n, p_cross, gen_seed)
        text = oc.io.embedding_to_text(emb)
        emb = oc.io.embedding_from_text(text)
        check(oc.io.embedding_to_text(emb) == text, "embedding text round trip is not byte-exact")
        c, trace = oc.reduction.odd_color_1planar(emb)
        ctext = oc.io.coloring_to_text(c)
        loaded = oc.io.coloring_from_text(ctext)
        check(oc.io.coloring_to_text(loaded) == ctext and loaded.assign == c.assign,
              "coloring text round trip is not byte-exact")
        _check_odd(oc, oc.embedding.underlying_graph(emb), loaded, ONE_PLANE_PALETTE)
        tally.count_reduction(trace)
        initial, final, _ = oc.discharging.discharge(emb)
        check(initial.total == -8 and final.total == -8,
              f"discharge totals {initial.total}, {final.total} are not both -8")


# ----------------------------------------------------------------------
# onep-bridges: the reduction engine on nested bridges
# ----------------------------------------------------------------------


class OnePlaneBridges:
    # (generator, n vertices, instances per block).  The inputs do not
    # depend on the seed, only their order does.  The median falls among
    # the n = 64 instances, the p90 among the n = 128 ones and the path
    # of 256 vertices is the slowest instance of every block.
    BLOCK = (("path_embedding", 64, 4), ("cycle_embedding", 64, 4), ("star_embedding", 64, 4),
             ("path_embedding", 128, 1), ("cycle_embedding", 128, 1), ("star_embedding", 128, 1),
             ("path_embedding", 256, 1))
    POOL = 4

    def build(self, oc, seed: int) -> list[list]:
        rng = random.Random(seed)
        gen = oc.generators
        # star_embedding takes its number of leaves, so the star has n vertices
        embs = {(family, n): getattr(gen, family)(n - 1 if family == "star_embedding" else n)
                for family, n, _ in self.BLOCK}
        return [_block(rng, *([(family, n, embs[family, n])] * count
                              for family, n, count in self.BLOCK))
                for _ in range(self.POOL)]

    def run(self, oc, spec, tally: Tally):
        _, _, emb = spec
        c, trace = oc.reduction.odd_color_1planar(emb)
        _check_odd(oc, oc.embedding.underlying_graph(emb), c, ONE_PLANE_PALETTE)
        tally.count_reduction(trace)


# ----------------------------------------------------------------------
# minor-closed: contraction coloring with 2d+1 colors
# ----------------------------------------------------------------------


def stacked_triangulation(oc, n: int, rng: random.Random):
    """Random planar stacked triangulation (Apollonian network), built in O(n)."""
    edges = [(0, 1), (1, 2), (0, 2)]
    faces = [(0, 1, 2)]
    for v in range(3, n):
        i = rng.randrange(len(faces))
        a, b, c = faces[i]
        edges += [(a, v), (b, v), (c, v)]
        faces[i] = (a, b, v)
        faces += [(b, c, v), (a, c, v)]
    return oc.graphs.Graph.from_edges(n, edges)


class MinorClosed:
    # d per family: trees are 1-degenerate, outerplanar graphs 2-degenerate
    # and planar graphs 5-degenerate, all under contraction
    D = {"tree": 1, "outerplanar": 2, "stacked": 5}
    # (family, n, instances per block).  Time grows about fourfold per
    # doubling of n, and tree < outerplanar < stacked at each n.  The
    # median falls among the trees with n = 256, the p90 among the
    # outerplanar graphs with n = 512.
    BLOCK = (("tree", 128, 3), ("outerplanar", 128, 3), ("stacked", 128, 3),
             ("tree", 256, 2), ("outerplanar", 256, 2), ("stacked", 256, 2),
             ("tree", 512, 2), ("outerplanar", 512, 2), ("stacked", 512, 1))
    POOL = 10

    def graph(self, oc, family: str, n: int, graph_seed: int):
        if family == "tree":
            return oc.generators.random_tree(n, graph_seed)
        if family == "outerplanar":
            return oc.generators.random_outerplanar(n, graph_seed)
        return stacked_triangulation(oc, n, random.Random(graph_seed))

    def build(self, oc, seed: int) -> list[list]:
        rng = random.Random(seed)
        pool = []
        for _ in range(self.POOL):
            block = []
            for family, n, count in self.BLOCK:
                for _ in range(count):
                    g = self.graph(oc, family, n, rng.randrange(2**31))
                    contractions = g.n - len(oc.graphs.connected_components(g))
                    block.append((family, self.D[family], g, contractions))
            rng.shuffle(block)
            pool.append(block)
        return pool

    def run(self, oc, spec, tally: Tally):
        _, d, g, contractions = spec
        c, traces = oc.minor_closed.odd_color_minor_closed(g, d)
        _check_odd(oc, g, c, 2 * d + 1)
        done = sum(len(t.steps) for t in traces)
        check(done == contractions, f"{done} contractions, expected {contractions}")
        tally.contractions += done


# ----------------------------------------------------------------------
# exact: chi_o under a per-level node budget
# ----------------------------------------------------------------------


def relabel(oc, g, seed: int):
    """g with its vertex ids permuted by a seeded shuffle."""
    vs = g.vertices()
    perm = vs[:]
    random.Random(seed).shuffle(perm)
    m = dict(zip(vs, perm))
    return oc.graphs.Graph({m[v]: [m[u] for u in g.neighbors(v)] for v in vs})


def chi_o_cycle(n: int) -> int:
    return 3 if n % 3 == 0 else 5 if n == 5 else 4


class Exact:
    """One block holding every reference relabeling, so that each run
    meets the same label-sensitive searches and the same failures."""

    def build(self, oc, seed: int) -> list[list]:
        rng = random.Random(seed)
        graphs = oc.graphs
        star = graphs.subdivided_complete

        def cycles(count, lo, hi):
            # one length from each of `count` equal slices of [lo, hi), so
            # that the class's median length is the same on every seed
            lengths = [lo + int((hi - lo) * (i + rng.random()) / count) for i in range(count)]
            return [("cycle", graphs.cycle(n), chi_o_cycle(n)) for n in lengths]

        def relabelings(p, seeds):
            return [(f"K{p}*", relabel(oc, star(p), s), p) for s in seeds]

        # The median falls where the cycles of 100-400 vertices and the
        # K6* relabelings overlap, the p90 among the K7* relabelings.
        return [_block(
            rng,
            cycles(12, 5, 60),
            cycles(36, 100, 400),
            # deeper than the default recursion limit: the search recurses
            # once per vertex and raises RecursionError
            cycles(4, 1200, 1600),
            relabelings(5, [rng.randrange(2**31) for _ in range(8)]),
            # the same label-sensitive relabelings on every seed
            relabelings(6, REFERENCE_RELABELINGS),
            relabelings(7, REFERENCE_RELABELINGS),
        )]

    def run(self, oc, spec, tally: Tally):
        _, g, expected = spec
        cfg = oc.exact.SearchConfig(node_limit=EXACT_NODE_LIMIT)
        got = oc.exact.chi_o(g, cfg)
        if got is oc.exact.INCONCLUSIVE:
            return "inconclusive"
        check(got == expected, f"chi_o = {got}, expected {expected}")
        witness = oc.exact.exists_odd_k_coloring(g, got, cfg)
        check(isinstance(witness, oc.coloring.Coloring), f"no witness at k = {got}")
        _check_odd(oc, g, witness, got)
        return None


WORKLOADS = {
    "onep-corpus": OnePlaneCorpus(),
    "onep-bridges": OnePlaneBridges(),
    "minor-closed": MinorClosed(),
    "exact": Exact(),
}
