"""Proof-step and hypothesis checks survive ``python -O``; the engines do
not recurse; every name the benchmark traces exists."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import oddcolor

SRC = Path(oddcolor.__file__).parent


def test_no_assert_statements():
    # python -O strips assert statements, so every check must raise instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_engines_do_not_recurse():
    # one Python frame per vertex or step overflows the interpreter's stack
    # on long paths and cycles, so the engines loop on explicit stacks
    found = [
        f"{name}:{node.lineno} {node.name}"
        for name in ("exact.py", "minor_closed.py", "reduction.py")
        for node in ast.walk(ast.parse((SRC / name).read_text(), name))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name)
            and call.func.id == node.name
            for call in ast.walk(node)
        )
    ]
    assert found == []


def test_check_config_raises_under_optimize():
    # vertex 0 of a 5-cycle has degree 2, so it is no odd low vertex
    script = (
        "from oddcolor.coloring import EngineInvariantError\n"
        "from oddcolor.generators import cycle_embedding\n"
        "from oddcolor.reduction import OddLowVertex, Thresholds, check_config\n"
        "try:\n"
        "    check_config(cycle_embedding(5), Thresholds(), OddLowVertex(0))\n"
        "except EngineInvariantError:\n"
        "    print('raised')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "raised\n"


def test_bench_traced_names_exist():
    # the benchmark's tracer exits on a name it cannot wrap, so a public
    # name it traces must not go without the benchmark changing with it
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module, public, _ in tracer.SPANS + tracer.COUNTS:
        owner = importlib.import_module(f"oddcolor.{module}")
        *owners, attr = public.split(".")
        for part in owners:
            owner = getattr(owner, part, None)
        if not callable(vars(owner).get(attr) if owner is not None else None):
            missing.append(f"{module}.{public}")
    assert missing == []
