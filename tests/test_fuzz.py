"""A seeded fuzz test of the CLI's exit-code contract.

The writer outputs of all three file formats are mutated in one or two
places and every subcommand runs on each mutant through ``cli.main``.
Every exit code must be 0, 1 or 2, no exception may escape ``main``, and
a command other than ``dot`` may exit 0 on an embedding file only if
``validate`` finds nothing wrong with the drawing in it.
"""

import contextlib
import functools
import io
import json
import random

from oddcolor import cli
from oddcolor.embedding import validate
from oddcolor.generators import figure4_pattern, random_one_plane
from oddcolor.graphs import cycle, subdivided_complete
from oddcolor.io import (
    coloring_to_text,
    embedding_from_text,
    embedding_to_text,
    graph_to_text,
)
from oddcolor.minor_closed import odd_color_minor_closed
from oddcolor.reduction import odd_color_1planar

SEED = 17
MUTANTS = 300
# every subcommand but gen, each followed by the mutant's path; verify also
# takes the path of a coloring file
COMMANDS = (
    ["validate"],
    ["color", "--engine", "reduction"],
    ["color", "--engine", "exact", "--node-limit", "500"],
    ["color", "--engine", "minor-closed", "--d", "3"],
    ["verify"],
    ["chi", "--max-k", "5", "--node-limit", "500"],
    ["discharge"],
    ["stats"],
    ["dot"],
)


def _bases() -> list[tuple[str, str, str]]:
    """(kind, text, text of an odd coloring that fits it) per writer output;
    the last entry is the coloring file itself, fitted to cycle(7)."""
    out = []
    for emb in [random_one_plane(10, 0.6, s) for s in range(3)] + [figure4_pattern()]:
        fit = odd_color_1planar(emb)[0]
        out.append(("embedding", embedding_to_text(emb), coloring_to_text(fit)))
    for g in (cycle(7), subdivided_complete(4)):
        fit = odd_color_minor_closed(g, 3)[0]
        out.append(("graph", graph_to_text(g), coloring_to_text(fit)))
    out.append(("coloring", out[-2][2], out[-2][1]))
    return out


def _slots(node, ints: list, lists: list) -> None:
    """Every (container, key) holding an int, and every non-empty list."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, val in items:
        if type(val) is int:
            ints.append((node, key))
        elif isinstance(val, (dict, list)):
            if isinstance(val, list) and val:
                lists.append(val)
            _slots(val, ints, lists)


def _mutate(rng: random.Random, obj: dict) -> None:
    """One mutation, as likely on a list as on an int: an int set to 0-3,
    moved by one or set to 10**6; a list entry swapped with another,
    dropped or duplicated."""
    ints, lists = [], []
    _slots(obj, ints, lists)
    if not lists or rng.random() < 0.5:  # a colorings file has no list
        node, key = rng.choice(ints)
        val = node[key]
        # a graph file's n stays small: 10**6 vertices make a valid graph on
        # which the engines take seconds and close to a gigabyte, which
        # measures speed, not the contract
        big = [10**6] if key != "n" else []
        node[key] = rng.choice([rng.randint(0, 3), val + 1, val - 1, *big])
        return
    val = rng.choice(lists)
    i = rng.randrange(len(val))
    op = rng.choice(("swap", "drop", "dup"))
    if op == "swap":
        j = rng.randrange(len(val))
        val[i], val[j] = val[j], val[i]
    elif op == "drop":
        del val[i]
    else:
        val.insert(i, val[i])


def _run(argv: list[str]) -> int:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code


def test_exit_code_contract(tmp_path, monkeypatch):
    # main builds a fresh argparse parser per call, most of the time of
    # thousands of calls; one parser serves them all
    monkeypatch.setattr(cli, "build_parser", functools.lru_cache(cli.build_parser))
    rng = random.Random(SEED)
    bases = _bases()
    f, fit = tmp_path / "mutant.json", tmp_path / "fit.json"
    bad = []
    for m in range(MUTANTS):
        kind, text, fit_text = rng.choice(bases)
        obj = json.loads(text)
        for _ in range(rng.randint(1, 2)):
            _mutate(rng, obj)
        text = json.dumps(obj, indent=1) + "\n"
        f.write_text(text)
        fit.write_text(fit_text)
        try:
            drawing_ok = not validate(embedding_from_text(text))
        except ValueError:
            drawing_ok = None  # not an embedding file
        for cmd in COMMANDS:
            paths = [f]
            if cmd[0] == "verify":
                paths = [fit, f] if kind == "coloring" else [f, fit]
            code = _run(cmd + [str(path) for path in paths])
            if code not in (0, 1, 2):
                bad.append((m, cmd, f"exit {code}"))
            elif code == 0 and drawing_ok is False and cmd[0] != "dot":
                bad.append((m, cmd, "exit 0 on a drawing validate rejects"))
    assert not bad, bad[:10]
