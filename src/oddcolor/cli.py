"""Command-line front door.

Machine-readable JSON goes to stdout, human summaries to stderr.  Exit
codes: 0 success, 1 negative verification or infeasible, 2 usage error
(a path that cannot be read or written included), 3 internal failure (an
engine invariant broke or the tool rejected its own output).  Every
command that reads an embedding file except ``validate`` and ``dot`` exits
2 on a drawing that ``validate`` rejects; ``dot`` draws any planarization,
valid or not, since it is a debugging view.

    oddcolor gen --name cycle --n 5 --out c5.graph.json
    oddcolor gen --name random_one_plane --n 30 --p-cross 0.5 --seed 7 --out r.empl.json
    oddcolor validate r.empl.json
    oddcolor color --engine reduction r.empl.json --out r.coloring.json
    oddcolor color --engine minor-closed --d 2 outer.graph.json
    oddcolor color --engine exact c5.graph.json
    oddcolor verify c5.graph.json c5.coloring.json
    oddcolor chi c5.graph.json
    oddcolor discharge r.empl.json
    oddcolor stats r.empl.json
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter

from . import io as formats
from .coloring import Coloring, is_odd_coloring
from .embedding import OnePlaneGraph, require_valid, underlying_graph, validate
from .exact import INCONCLUSIVE, SearchConfig, chi_o, min_odd_coloring
from .generators import GENERATORS, gen
from .graphs import Graph, degeneracy_order
from .minor_closed import NotDegenerateError, odd_color_minor_closed
from .discharging import discharge
from .reduction import EngineInvariantError, NoConfigFoundError, odd_color_1planar

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj, indent=1) + "\n")


def _say(msg: str) -> None:
    sys.stderr.write(msg + "\n")


def _as_graph(thing: Graph | OnePlaneGraph) -> Graph:
    return underlying_graph(require_valid(thing)) if isinstance(thing, OnePlaneGraph) else thing


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------


def cmd_gen(args) -> int:
    thing = gen(args.name, **{p: getattr(args, p) for p in GENERATORS[args.name][1]})
    if isinstance(thing, OnePlaneGraph):
        text = formats.embedding_to_text(thing)
        _say(f"embedding: {thing!r}")
    else:
        text = formats.graph_to_text(thing)
        _say(f"graph: {thing!r}")
    _write_or_print(text, args.out)
    return EXIT_OK


def cmd_validate(args) -> int:
    emb = formats.load_embedding(args.input)
    bad = validate(emb)
    _emit(
        {
            "valid": not bad,
            "violations": [
                {"code": v.code, "subject": list(v.subject), "detail": v.detail}
                for v in bad
            ],
        }
    )
    _say("valid embedding" if not bad else f"{len(bad)} violation(s)")
    return EXIT_OK if not bad else EXIT_NEGATIVE


def _color_reduction(args, thing) -> tuple[Coloring, Graph, dict]:
    if not isinstance(thing, OnePlaneGraph):
        _say("error: the reduction engine needs an embedding file")
        raise SystemExit(EXIT_USAGE)
    coloring, trace = odd_color_1planar(thing)
    g = underlying_graph(thing)
    extra = {
        "trace_steps": len(trace.steps),
        "crossings": thing.crossing_count(),
    }
    if args.trace_out:
        with open(args.trace_out, "w") as fh:
            for s in trace.steps:
                fh.write(
                    json.dumps(
                        {
                            "config": s.tag,
                            "witness": list(s.witness),
                            "before": list(s.before),
                            "after": [list(a) for a in s.after],
                        }
                    )
                    + "\n"
                )
    return coloring, g, extra


def _color_minor_closed(args, thing) -> tuple[Coloring, Graph, dict]:
    g = _as_graph(thing)
    coloring, traces = odd_color_minor_closed(g, args.d)
    return coloring, g, {"d": args.d, "components": len(traces)}


def _color_exact(args, thing) -> tuple[Coloring, Graph, dict]:
    g = _as_graph(thing)
    witness = min_odd_coloring(g, SearchConfig(node_limit=args.node_limit))
    if witness is INCONCLUSIVE:
        _say("exact search inconclusive (node limit)")
        raise SystemExit(EXIT_NEGATIVE)
    return witness, g, {"chi_o": witness.k if g.n else 0}


def cmd_color(args) -> int:
    thing = formats.load_any(args.input)
    if args.engine == "reduction":
        coloring, g, extra = _color_reduction(args, thing)
    elif args.engine == "minor-closed":
        coloring, g, extra = _color_minor_closed(args, thing)
    else:
        coloring, g, extra = _color_exact(args, thing)
    ok = is_odd_coloring(g, coloring)
    payload = {
        "engine": args.engine,
        "k": coloring.k,
        "color_count": len(coloring.colors_used()),
        "valid": ok,
        "colors": {str(v): coloring.assign[v] for v in sorted(coloring.assign)},
        **extra,
    }
    _emit(payload)
    if args.out:
        formats.save_coloring(coloring, args.out)
    _say(f"{args.engine}: {payload['color_count']} colors, verifier {'OK' if ok else 'REJECTED'}")
    if not ok:
        return EXIT_INTERNAL
    return EXIT_OK


def cmd_verify(args) -> int:
    g = _as_graph(formats.load_any(args.graph))
    c = formats.load_coloring(args.coloring)
    stray = sorted(v for v in c.assign if v not in g)
    try:
        if stray:
            raise ValueError(f"coloring names vertices the graph lacks: {stray}")
        ok = is_odd_coloring(g, c)
    except Exception as exc:
        _emit({"valid": False, "error": str(exc)})
        _say(f"not verifiable: {exc}")
        return EXIT_NEGATIVE
    _emit({"valid": ok, "colors_used": len(c.colors_used())})
    _say("odd coloring OK" if ok else "NOT an odd coloring")
    return EXIT_OK if ok else EXIT_NEGATIVE


def cmd_chi(args) -> int:
    g = _as_graph(formats.load_any(args.input))
    got = chi_o(g, SearchConfig(max_k=args.max_k, node_limit=args.node_limit))
    if got is INCONCLUSIVE:
        _emit({"chi_o": None, "inconclusive": True})
        _say("inconclusive (node limit or max-k reached)")
        return EXIT_NEGATIVE
    _emit({"chi_o": got, "inconclusive": False})
    _say(f"odd chromatic number: {got}")
    return EXIT_OK


def cmd_discharge(args) -> int:
    emb = require_valid(formats.load_embedding(args.input))
    initial, final, report = discharge(emb)
    _emit(
        {
            "initial_total": str(initial.total),
            "final_total": str(final.total),
            "clean": report.empty,
            "audit": json.loads(report.to_json()),
        }
    )
    _say(f"total charge {initial.total} -> {final.total}; " + str(report).splitlines()[0])
    return EXIT_OK


def cmd_stats(args) -> int:
    emb = require_valid(formats.load_embedding(args.input))
    g = underlying_graph(emb)
    d, _ = degeneracy_order(g)
    degree_hist = Counter(g.degree(v) for v in g.vertices())
    face_hist = Counter(f.len for f in emb.faces())
    _emit(
        {
            "vertices": g.n,
            "edges": g.num_edges(),
            "crossings": emb.crossing_count(),
            "degeneracy": d,
            "degree_histogram": {str(k): v for k, v in sorted(degree_hist.items())},
            "face_histogram": {str(k): v for k, v in sorted(face_hist.items())},
        }
    )
    return EXIT_OK


def cmd_dot(args) -> int:
    emb = formats.load_embedding(args.input)
    _write_or_print(formats.export_dot(emb), args.out)
    return EXIT_OK


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="oddcolor", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="write a named or random instance")
    g.add_argument("--name", required=True, choices=GENERATORS)
    g.add_argument("--n", type=int)
    g.add_argument("--p-cross", type=float, default=0.0, dest="p_cross")
    g.add_argument("--seed", type=int)
    g.add_argument("--out")
    g.set_defaults(fn=cmd_gen)

    v = sub.add_parser("validate", help="check an embedding file")
    v.add_argument("input")
    v.set_defaults(fn=cmd_validate)

    c = sub.add_parser("color", help="produce an odd coloring")
    c.add_argument("--engine", required=True, choices=("reduction", "minor-closed", "exact"))
    c.add_argument("--d", type=int, default=2, help="degeneracy for minor-closed")
    c.add_argument("--node-limit", type=int, dest="node_limit")
    c.add_argument("--out")
    c.add_argument("--trace-out", dest="trace_out")
    c.add_argument("input")
    c.set_defaults(fn=cmd_color)

    w = sub.add_parser("verify", help="verify a coloring file against a graph")
    w.add_argument("graph")
    w.add_argument("coloring")
    w.set_defaults(fn=cmd_verify)

    x = sub.add_parser("chi", help="exact odd chromatic number")
    x.add_argument("input")
    x.add_argument("--max-k", type=int, dest="max_k")
    x.add_argument("--node-limit", type=int, dest="node_limit")
    x.set_defaults(fn=cmd_chi)

    d = sub.add_parser("discharge", help="run the charging rules and audit")
    d.add_argument("input")
    d.set_defaults(fn=cmd_discharge)

    s = sub.add_parser("stats", help="embedding statistics")
    s.add_argument("input")
    s.set_defaults(fn=cmd_stats)

    o = sub.add_parser("dot", help="export the planarization as DOT")
    o.add_argument("input")
    o.add_argument("--out")
    o.set_defaults(fn=cmd_dot)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for p in GENERATORS[args.name][1] if args.command == "gen" else ():
        if getattr(args, p) is None:
            parser.error(f"gen --name {args.name} requires --{p}")
    try:
        return args.fn(args)
    except NotDegenerateError as exc:
        _emit({"error": type(exc).__name__, "detail": str(exc)})
        _say(f"not {exc.d}-degenerate: {exc}")
        return EXIT_NEGATIVE
    except (formats.ParseError, OSError, ValueError) as exc:
        _say(f"error: {exc}")
        return EXIT_USAGE
    except (EngineInvariantError, NoConfigFoundError, RecursionError) as exc:
        payload = {"error": type(exc).__name__, "detail": str(exc)}
        if isinstance(exc, NoConfigFoundError):
            payload["audit"] = json.loads(exc.report.to_json())
        _emit(payload)
        _say(f"internal error: {exc}")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
