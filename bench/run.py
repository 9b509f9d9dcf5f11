"""Benchmark of oddcolor's three engines and its random 1-plane generator.

Run from the root of a source checkout:

    python3 bench/run.py --workload onep-corpus --seed 1 --seconds 20 --trace 0

One caller runs the workload's instances in a closed loop: the next
instance starts when the previous one has returned and its output has been
checked.  The loop runs whole blocks of the seeded instance pool until the
run is as close to --seconds as a whole block allows.  With --trace 0 it
reports the end-to-end metrics, with times scaled to a reference machine
speed (see bench/reference.py); with --trace 1 it alternates traced and
untraced runs of each block and reports the per-layer split of the traced
ones, in unscaled seconds, writing their spans to bench/out/.  The last line of standard output is
one JSON object.  The exit code is 1 if an output was wrong, 2 if the
package is not found and 3 if a name the tracer wraps is missing.  See
bench/README.md for the workloads.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from reference import Reference  # noqa: E402
from tracer import MissingNameError, Tracer  # noqa: E402

SETUP_RUNS = 11
SELF_TIME_TOLERANCE = 0.10

# Times one set-up in a fresh interpreter: importing the package and
# building the workload's inputs, as every new process pays it.  The
# reference kernel runs in the same process, before and after, because the
# interpreter may run on another core than the benchmark.  Prints the
# unscaled and the scaled time.
SETUP_PROBE = """
import sys
from time import perf_counter
sys.path.insert(0, sys.argv[1])
from reference import Reference
ref = Reference()
for _ in range(5):
    ref.sample()
t0 = perf_counter()
import workloads
from pathlib import Path
oc = workloads.import_package(Path(sys.argv[2]))
workloads.WORKLOADS[sys.argv[3]].build(oc, int(sys.argv[4]))
t1 = perf_counter()
for _ in range(5):
    ref.sample()
print(t1 - t0, (t1 - t0) * ref.scale(t0, t1))
"""


def time_setup(workload: str, seed: int) -> tuple[float, float]:
    """Median set-up time, scaled to the reference speed and unscaled."""
    raw, scaled = [], []
    for _ in range(SETUP_RUNS):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(BENCH), str(SRC), workload, str(seed)],
            capture_output=True, text=True, check=True, timeout=60,
        )
        seconds, scaled_seconds = map(float, out.stdout.split()[-2:])
        raw.append(seconds)
        scaled.append(scaled_seconds)
    return statistics.median(scaled), statistics.median(raw)


def run_block(wl, oc, items, tally: workloads.Tally, ref: Reference | None = None,
              tracer: Tracer | None = None) -> None:
    t_block = perf_counter()
    for item in items:
        # each instance starts with no garbage left by the one before it
        gc.collect()
        if ref is not None:
            ref.sample()
        t0 = perf_counter()
        try:
            if tracer is None:
                cause = wl.run(oc, item, tally)
            else:
                cause = tracer.call("bench.instance", wl.run, oc, item, tally)
        except workloads.WrongOutput as exc:
            cause = "wrong output"
            tally.wrong.append(f"{item[:2]}: {exc}")
        except Exception as exc:  # counted as a failure, never dropped
            cause = type(exc).__name__
        tally.spans.append((t0, perf_counter()))
        if cause:
            tally.failed += 1
            tally.causes[cause] += 1
    if ref is not None:
        ref.sample()
    tally.block_seconds.append(perf_counter() - t_block)


def keep_going(elapsed: float, blocks: int, seconds: float) -> bool:
    """Another whole block, if it ends closer to `seconds` than stopping now."""
    return blocks == 0 or elapsed + elapsed / blocks / 2 < seconds


def raw_seconds(tally: workloads.Tally) -> list[float]:
    return [end - start for start, end in tally.spans]


def end_to_end(tally: workloads.Tally, ref: Reference, setup_s: float) -> dict:
    seconds = [(end - start) * ref.scale(start, end) for start, end in tally.spans]
    ms = sorted(1000 * s for s in seconds)
    return {
        "instances_per_s": (tally.attempted / sum(seconds), "1/s"),
        "instance_ms_p50": (statistics.median(ms), "ms"),
        "instance_ms_p90": (statistics.quantiles(ms, n=10)[-1], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
        "ops_ok_ratio": (1 - tally.failed / tally.attempted, "ratio"),
    }


# Layers reported with both a call count and inclusive seconds.
TIMED_LAYERS = (
    "generators.random_one_plane", "embedding.validate", "embedding.underlying_graph",
    "embedding.faces", "embedding.build", "embedding.surgery", "graphs.bridges",
    "graphs.contract", "coloring.greedy_extend", "coloring.is_odd_coloring",
    "discharging.discharge",
)


def per_layer(tr: Tracer, tally: workloads.Tally, overhead: float) -> dict:
    n = tally.attempted

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for layer in TIMED_LAYERS:
        m[f"{layer}.calls"] = (tr.calls[layer] / n, "count/inst")
        m[f"{layer}.s"] = (tr.total_s[layer] / n, "s/inst")
    m["io.roundtrip.s"] = (tr.total_s["io.roundtrip"] / n, "s/inst")
    m["embedding.build.per_step"] = (ratio(tr.scoped_calls["embedding.build"], tally.steps), "ratio")
    m["reduction.odd_color_1planar.s"] = (tr.total_s["reduction.odd_color_1planar"] / n, "s/inst")
    m["reduction.find_reducible.calls"] = (tr.calls["reduction.find_reducible"] / n, "count/inst")
    m["reduction.find_reducible.self_s"] = (tr.self_s["reduction.find_reducible"] / n, "s/inst")
    m["reduction.steps"] = (tally.steps / n, "count/inst")
    for tag in workloads.CONFIG_TAGS:
        m[f"reduction.config.{tag}"] = (tally.configs[tag] / n, "count/inst")
    m["coloring.set.calls"] = (tr.calls["coloring.set"] / n, "count/inst")
    m["minor_closed.odd_color_minor_closed.s"] = (
        tr.total_s["minor_closed.odd_color_minor_closed"] / n, "s/inst")
    m["minor_closed.contractions"] = (tally.contractions / n, "count/inst")
    m["exact.chi_o.s"] = (tr.total_s["exact.chi_o"] / n, "s/inst")
    m["exact.searches"] = (tr.calls["exact.search"] / n, "count/inst")
    m["exact.nodes"] = (tr.calls["exact.nodes"] / n, "count/inst")
    m["exact.nodes_per_search"] = (ratio(tr.calls["exact.nodes"], tr.calls["exact.search"]), "count")
    m["exact.refute.s"] = (tr.outcome_s["exact.search", "NoneType"] / n, "s/inst")
    m["exact.witness.s"] = (tr.outcome_s["exact.search", "Coloring"] / n, "s/inst")
    m["exact.inconclusive"] = (tally.causes["inconclusive"] / n, "count/inst")
    m["exact.recursion_errors"] = (tally.causes["RecursionError"] / n, "count/inst")
    m["trace.overhead_ratio"] = (overhead, "ratio")
    return m


def report(name: str, seed: int, tally: workloads.Tally, metrics: dict, correct: bool) -> None:
    raw_ms = [1000 * s for s in raw_seconds(tally)]
    print(f"workload {name} seed {seed}: {len(tally.block_seconds)} blocks in "
          f"{sum(tally.block_seconds):.2f} s, {tally.attempted} instances, "
          f"{tally.failed} failed {dict(tally.causes)}; unscaled instance ms "
          f"p50 {statistics.median(raw_ms):.2f}, p90 {statistics.quantiles(raw_ms, n=10)[-1]:.2f}")
    for wrong in tally.wrong[:10]:
        print(f"  WRONG {wrong}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:<40} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / workloads.PACKAGE / "__init__.py").is_file():
        print(f"no {workloads.PACKAGE} package under {SRC}: run from a source checkout",
              file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    oc = workloads.import_package(SRC)
    pool = wl.build(oc, args.seed)
    # the inputs stay alive all run: keep them out of the collector's scans
    gc.collect()
    gc.freeze()

    plain = workloads.Tally()
    if not args.trace:
        ref = Reference()
        setup_s, raw_setup_s = time_setup(args.workload, args.seed)
        print(f"set-up {raw_setup_s:.4f} s unscaled")
        while keep_going(sum(plain.block_seconds), len(plain.block_seconds), args.seconds):
            run_block(wl, oc, pool[len(plain.block_seconds) % len(pool)], plain, ref)
        report(args.workload, args.seed, plain, end_to_end(plain, ref, setup_s), not plain.wrong)
        return 1 if plain.wrong else 0

    # each block runs traced, then untraced
    tracer = Tracer(oc)
    traced = workloads.Tally()
    while keep_going(sum(plain.block_seconds) + sum(traced.block_seconds),
                     len(traced.block_seconds), args.seconds):
        block = pool[len(traced.block_seconds) % len(pool)]
        try:
            tracer.install()
        except MissingNameError as exc:
            print(f"tracer: {exc}", file=sys.stderr)
            return 3
        try:
            run_block(wl, oc, block, traced, tracer=tracer)
        finally:
            tracer.uninstall()
        run_block(wl, oc, block, plain)

    wall = sum(traced.block_seconds)
    self_sum = sum(tracer.self_s.values())
    overhead = sum(raw_seconds(traced)) / sum(raw_seconds(plain))
    print(f"self times sum to {self_sum:.3f} s of {wall:.3f} s traced wall time")
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    tracer.write(out / f"spans-{args.workload}-{args.seed}.json.gz",
                 {"workload": args.workload, "seed": args.seed, "traced_wall_s": wall})
    correct = not plain.wrong and not traced.wrong
    if abs(self_sum - wall) > SELF_TIME_TOLERANCE * wall:
        print("self times do not account for the traced wall time", file=sys.stderr)
        correct = False
    report(args.workload, args.seed, traced, per_layer(tracer, traced, overhead), correct)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
