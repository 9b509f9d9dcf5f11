"""Command-line behavior: exit codes, pipelines, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import FROZEN_DIGESTS
import oddcolor
from oddcolor import cli, coloring, exact
from oddcolor.cli import main
from oddcolor.coloring import Coloring
from oddcolor.discharging import discharge
from oddcolor.exact import chi_o, exists_odd_k_coloring
from oddcolor.embedding import plane_from_rotations
from oddcolor.generators import cycle_embedding, random_one_plane
from oddcolor.graphs import cycle
from oddcolor.io import load_embedding, save_coloring, save_embedding, save_graph
from oddcolor.reduction import EngineInvariantError, NoConfigFoundError


@pytest.fixture
def c4_file(tmp_path):
    p = tmp_path / "c4.graph.json"
    save_graph(cycle(4), p)
    return str(p)


@pytest.fixture
def emb_file(tmp_path):
    p = tmp_path / "r.empl.json"
    save_embedding(random_one_plane(26, 0.5, seed=7), p)
    return str(p)


def run(capsys, *argv) -> tuple[int, dict | None, str]:
    code = main(list(argv))
    out, err = capsys.readouterr()
    payload = json.loads(out) if out.strip().startswith("{") else None
    return code, payload, err


class TestGen:
    def test_gen_writes_graph(self, tmp_path, capsys):
        out = tmp_path / "c5.graph.json"
        code, _, _ = run(capsys, "gen", "--name", "cycle", "--n", "5", "--out", str(out))
        assert code == 0 and out.exists()

    def test_gen_random_needs_seed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--name", "random_one_plane", "--n", "9"])
        assert exc.value.code == 2

    def test_gen_needs_n(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--name", "cycle"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["--name", "complete", "--n", "-3"],
            ["--name", "star", "--n", "-2"],
            ["--name", "tree", "--n", "-4", "--seed", "1"],
        ],
    )
    def test_gen_negative_size_is_usage_error(self, tmp_path, capsys, argv):
        out = tmp_path / "g.graph.json"
        code, _, err = run(capsys, "gen", *argv, "--out", str(out))
        assert code == 2 and "error:" in err
        assert not out.exists()

    def test_gen_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.empl.json", tmp_path / "b.empl.json"
        run(capsys, "gen", "--name", "random_one_plane", "--n", "15",
            "--p-cross", "0.5", "--seed", "3", "--out", str(a))
        run(capsys, "gen", "--name", "random_one_plane", "--n", "15",
            "--p-cross", "0.5", "--seed", "3", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("name", sorted(FROZEN_DIGESTS))
    def test_gen_frozen_instance_bytes(self, name, capsys):
        assert main(["gen", "--name", name]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == FROZEN_DIGESTS[name]

    def test_python_dash_m_runs_the_cli(self):
        # an uninstalled checkout on PYTHONPATH has the same command line
        env = dict(os.environ, PYTHONPATH=str(Path(oddcolor.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "oddcolor", "gen", "--name", "k7_star_embedding"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        digest = hashlib.sha256(done.stdout.encode()).hexdigest()
        assert digest == FROZEN_DIGESTS["k7_star_embedding"]


class TestColorVerify:
    def test_exact_on_cycle5(self, tmp_path, capsys):
        p = tmp_path / "c5.graph.json"
        save_graph(cycle(5), p)
        code, payload, err = run(capsys, "color", "--engine", "exact", str(p))
        assert code == 0
        assert payload["chi_o"] == 5 and payload["valid"]

    def test_exact_is_one_ascending_search(self, c4_file, capsys, monkeypatch):
        g = cycle(4)
        best = chi_o(g)
        # the coloring the former second search at level chi_o returned
        witness = exists_odd_k_coloring(g, best)
        levels = []
        search = exact.exists_odd_k_coloring

        def counted(g, k, cfg=exact.SearchConfig()):
            levels.append(k)
            return search(g, k, cfg)

        monkeypatch.setattr(exact, "exists_odd_k_coloring", counted)
        code, payload, _ = run(capsys, "color", "--engine", "exact", c4_file)
        # one ascending search, from the proven lower bound, not from 1
        assert code == 0 and levels == list(range(exact._lower_bound(g), best + 1))
        assert payload["chi_o"] == payload["k"] == best
        assert payload["colors"] == {str(v): c for v, c in sorted(witness.assign.items())}

    @pytest.mark.parametrize("error", [EngineInvariantError, NoConfigFoundError])
    def test_internal_failure_exits_3(self, emb_file, capsys, monkeypatch, error):
        _, _, report = discharge(load_embedding(emb_file))
        exc = error(report) if error is NoConfigFoundError else error("broken step")

        def fail(*args):
            raise exc

        monkeypatch.setattr(cli, "odd_color_1planar", fail)
        code, payload, _ = run(capsys, "color", "--engine", "reduction", emb_file)
        assert code == 3 and payload["error"] == error.__name__
        if error is NoConfigFoundError:
            assert payload["audit"] == json.loads(report.to_json())

    def test_minor_closed_invariant_exits_3(self, tmp_path, capsys, monkeypatch):
        p = tmp_path / "c5.graph.json"
        save_graph(cycle(5), p)
        monkeypatch.setattr(coloring, "smallest_free", lambda banned, k: 1)
        code, payload, _ = run(capsys, "color", "--engine", "minor-closed", "--d", "2", str(p))
        assert code == 3 and payload["error"] == "EngineInvariantError"

    def test_not_degenerate_exits_1(self, tmp_path, capsys):
        # a valid file whose graph breaks the --d promise is a negative
        # answer, not a usage error
        p = tmp_path / "c5.graph.json"
        save_graph(cycle(5), p)
        code, payload, _ = run(capsys, "color", "--engine", "minor-closed", "--d", "1", str(p))
        assert code == 1 and payload["error"] == "NotDegenerateError"
        assert "exceeds d=1" in payload["detail"]

    def test_reduction_requires_embedding(self, c4_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["color", "--engine", "reduction", c4_file])
        assert exc.value.code == 2

    def test_reduction_k_floor(self, emb_file, capsys):
        # the reduction palette is fixed at 23; --k is not an option
        with pytest.raises(SystemExit) as exc:
            main(["color", "--engine", "reduction", "--k", "23", emb_file])
        assert exc.value.code == 2

    def test_reduction_pipeline_reverifies(self, emb_file, tmp_path, capsys):
        cpath = tmp_path / "out.coloring.json"
        code, payload, _ = run(
            capsys, "color", "--engine", "reduction", emb_file, "--out", str(cpath)
        )
        assert code == 0 and payload["valid"] and payload["color_count"] <= 23
        code2, payload2, _ = run(capsys, "verify", emb_file, str(cpath))
        assert code2 == 0 and payload2["valid"]

    def test_minor_closed_engine(self, tmp_path, capsys):
        from oddcolor.generators import random_outerplanar

        p = tmp_path / "outer.graph.json"
        save_graph(random_outerplanar(12, seed=1), p)
        code, payload, _ = run(capsys, "color", "--engine", "minor-closed", "--d", "2", str(p))
        assert code == 0 and payload["color_count"] <= 5

    def test_verify_rejects_bad_coloring(self, c4_file, tmp_path, capsys):
        bad = tmp_path / "bad.coloring.json"
        save_coloring(Coloring(4, {0: 1, 1: 2, 2: 1, 3: 2}), bad)
        code, payload, _ = run(capsys, "verify", c4_file, str(bad))
        assert code == 1 and payload["valid"] is False

    def test_verify_rejects_vertices_the_graph_lacks(self, tmp_path, capsys):
        g, bad = tmp_path / "c5.graph.json", tmp_path / "bad.coloring.json"
        save_graph(cycle(5), g)
        # an odd coloring of C5, plus two vertices C5 lacks
        save_coloring(Coloring(5, {0: 1, 1: 2, 2: 3, 3: 4, 4: 5, 99: 1, -3: 2}), bad)
        code, payload, _ = run(capsys, "verify", str(g), str(bad))
        assert code == 1 and payload["valid"] is False and "[-3, 99]" in payload["error"]

    def test_verify_rejects_non_int_color(self, tmp_path, capsys):
        g, bad = tmp_path / "c3.graph.json", tmp_path / "bad.coloring.json"
        save_graph(cycle(3), g)
        bad.write_text('{"version": 1, "k": 3, "colors": {"0": 1, "1": 2, "2": 3.7}}')
        code, payload, err = run(capsys, "verify", str(g), str(bad))
        assert code == 2 and payload is None and "colors.2" in err

    def test_color_deterministic(self, emb_file, capsys):
        main(["color", "--engine", "reduction", emb_file])
        first, _ = capsys.readouterr()
        main(["color", "--engine", "reduction", emb_file])
        second, _ = capsys.readouterr()
        assert first == second

    def test_trace_out(self, emb_file, tmp_path, capsys):
        tr = tmp_path / "trace.jsonl"
        code, _, _ = run(capsys, "color", "--engine", "reduction", emb_file,
                         "--trace-out", str(tr))
        assert code == 0
        lines = [json.loads(l) for l in tr.read_text().splitlines()]
        assert lines and all("config" in l for l in lines)


class TestOtherCommands:
    def test_chi_c6(self, tmp_path, capsys):
        p = tmp_path / "c6.graph.json"
        save_graph(cycle(6), p)
        code, payload, err = run(capsys, "chi", str(p))
        assert code == 0 and payload["chi_o"] == 3

    def test_chi_long_cycle(self, tmp_path, capsys):
        # deeper than the default recursion limit
        p = tmp_path / "c1500.graph.json"
        save_graph(cycle(1500), p)
        code, payload, _ = run(capsys, "chi", str(p))
        assert code == 0 and payload["chi_o"] == 3

    def test_chi_recursion_error_exits_3(self, c4_file, capsys, monkeypatch):
        def fail(*args):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(cli, "chi_o", fail)
        code, payload, _ = run(capsys, "chi", c4_file)
        assert code == 3 and payload["error"] == "RecursionError" and payload["detail"]

    @pytest.mark.parametrize("argv", [("color", "--engine", "exact"), ("chi",)])
    def test_exact_invariant_exits_3(self, c4_file, capsys, monkeypatch, argv):
        # a search that refutes every level up to |G| breaks an invariant
        monkeypatch.setattr(exact, "exists_odd_k_coloring", lambda g, k, cfg=None: None)
        code, payload, _ = run(capsys, *argv, c4_file)
        assert code == 3 and payload["error"] == "EngineInvariantError" and payload["detail"]

    def test_chi_inconclusive_exit(self, tmp_path, capsys):
        p = tmp_path / "c5.graph.json"
        save_graph(cycle(5), p)
        code, payload, _ = run(capsys, "chi", str(p), "--node-limit", "2")
        assert code == 1 and payload["inconclusive"]

    @pytest.mark.parametrize("argv", [("chi",), ("color", "--engine", "exact")])
    @pytest.mark.parametrize("limit", ["0", "-5"])
    def test_node_limit_below_one_is_usage_error(self, c4_file, capsys, argv, limit):
        code, payload, err = run(capsys, *argv, c4_file, "--node-limit", limit)
        assert code == 2 and payload is None and "node_limit must be >= 1" in err

    @pytest.mark.parametrize("argv", [
        ("chi", "--jobs", "2"),
        ("color", "--engine", "exact", "--jobs", "2"),
        ("color", "--engine", "exact", "--max-k", "3"),
    ])
    def test_removed_options_are_usage_errors(self, c4_file, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, c4_file])
        assert exc.value.code == 2

    def test_validate(self, emb_file, capsys):
        code, payload, _ = run(capsys, "validate", emb_file)
        assert code == 0 and payload["valid"]

    def test_discharge_total(self, emb_file, capsys):
        code, payload, _ = run(capsys, "discharge", emb_file)
        assert code == 0
        assert payload["initial_total"] == "-8"
        assert payload["final_total"] == "-8"

    def test_discharge_any_connected_embedding(self, tmp_path, capsys):
        p = tmp_path / "c5.empl.json"
        save_embedding(cycle_embedding(5), p)
        code, payload, _ = run(capsys, "discharge", str(p))
        assert code == 0 and payload["initial_total"] == "-8"

    def test_stats(self, emb_file, capsys):
        code, payload, _ = run(capsys, "stats", emb_file)
        assert code == 0
        assert payload["crossings"] >= 0
        assert payload["degeneracy"] <= 7
        assert sum(payload["degree_histogram"].values()) == payload["vertices"]

    @pytest.fixture
    def torus_k4_file(self, tmp_path):
        # K4 with one twisted rotation: it loads, but embeds on the torus
        rot = {0: [1, 2, 3], 1: [0, 2, 3], 2: [0, 1, 3], 3: [0, 1, 2]}
        p = tmp_path / "torus.empl.json"
        save_embedding(plane_from_rotations(4, rot), p)
        return str(p)

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["discharge"], id="discharge"),
            pytest.param(["stats"], id="stats"),
            pytest.param(["color", "--engine", "reduction"], id="color"),
            pytest.param(["color", "--engine", "exact"], id="color-exact"),
            pytest.param(
                ["color", "--engine", "minor-closed", "--d", "3"], id="color-minor-closed"
            ),
            pytest.param(["chi"], id="chi"),
        ],
    )
    def test_invalid_drawing_is_usage_error(self, torus_k4_file, capsys, argv):
        code, payload, err = run(capsys, *argv, torus_k4_file)
        assert code == 2 and payload is None
        assert "EulerViolation" in err
        assert run(capsys, "validate", torus_k4_file)[0] == 1

    def test_verify_on_invalid_drawing_is_usage_error(
        self, torus_k4_file, tmp_path, capsys
    ):
        # K4 colored 1..4 is an odd coloring of K4, but not of this file
        col = tmp_path / "k4.coloring.json"
        save_coloring(Coloring(4, {v: v + 1 for v in range(4)}), col)
        code, payload, err = run(capsys, "verify", torus_k4_file, str(col))
        assert code == 2 and payload is None
        assert "EulerViolation" in err

    @pytest.mark.parametrize("command", ["validate", "chi", "stats"])
    def test_deeply_nested_json_is_usage_error(self, tmp_path, capsys, command):
        p = tmp_path / "deep.graph.json"
        p.write_text('{"version": 1, "n": ' + "[" * 10**5 + "]" * 10**5 + "}")
        code, _, err = run(capsys, command, str(p))
        assert code == 2 and "nested too deeply" in err

    def test_dot_draws_an_invalid_drawing(self, torus_k4_file, capsys):
        code = main(["dot", torus_k4_file])
        out, _ = capsys.readouterr()
        assert code == 0 and out.startswith("graph planarization {")

    def test_dot(self, emb_file, capsys):
        code = main(["dot", emb_file])
        out, _ = capsys.readouterr()
        assert code == 0 and out.startswith("graph planarization {")

    def test_missing_file_is_usage_error(self, capsys):
        assert main(["chi", "/nonexistent/file.graph.json"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["validate", "{dir}"], id="validate"),
            pytest.param(["gen", "--name", "cycle", "--n", "5", "--out", "{dir}"], id="gen-out"),
            pytest.param(["color", "--engine", "exact", "--out", "{dir}", "{emb}"], id="color-out"),
            pytest.param(
                ["color", "--engine", "reduction", "--trace-out", "{dir}", "{emb}"], id="color-trace-out"
            ),
            pytest.param(["dot", "--out", "{dir}", "{emb}"], id="dot-out"),
        ],
    )
    def test_unusable_path_is_usage_error(self, emb_file, tmp_path, capsys, argv):
        # a directory where a file is read or written raises an OSError
        # other than FileNotFoundError: one error line and exit 2
        code, _, err = run(capsys, *(a.format(dir=tmp_path, emb=emb_file) for a in argv))
        assert code == 2 and err.splitlines()[-1].startswith("error: [Errno")
