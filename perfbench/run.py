"""qwfold benchmark: one workload per run, checked against an independent oracle.

    python3 perfbench/run.py --workload race|reproduce|cli --seed N --seconds S --trace 0|1

Run from the root of a qwfold checkout; the package is imported from src/.
The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

--trace 0 times the workload: set-up (measured in this process and in
SETUP_PROBES fresh interpreters; median), then rounds of the workload until
--seconds have passed (at least MIN_ROUNDS), then the oracle checks.
BENCHMARK.json lists race and cli; reproduce runs the same way but is not
listed there (README.md says why).
--trace 1 runs one pass of set-up plus one round untraced and the same pass
again with spans at every qwfold module boundary (tracer.py), and reports
per-layer self time and counts.  See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from workloads import ROOT, SRC, WORKLOADS

SETUP_PROBES = 2
MIN_ROUNDS = 3
OUT_DIR = ROOT / ".perfbench_out"
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "GOTO_NUM_THREADS",
)

END_TO_END_UNITS = {"op_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

NAMED_UNITS = {
    "setup_s": "s",
    "race_torus_pairs_per_s": "pairs/s",
    "race_lattice_pairs_per_s": "pairs/s",
    "reproduce_s": "s",
    "cli_pipeline_s": "s",
    "cli_startup_s": "s",
    "peak_rss_mb": "MB",
    "failed_frac": "frac",
}

# Per-layer metric -> the spans whose self time it sums (see tracer.py).
SELF_TIME_METRICS = {
    "graphs.build_s": ("graphs.GraphFamilySpec.build", "graphs.build_cycle", "graphs.build_weighted_line",
                       "graphs.cartesian_power", "graphs.cartesian_product"),
    "graphs.bfs_s": ("graphs.bfs_distances", "graphs.Graph.is_connected"),
    "graphs.json_io_s": ("graphs.load_graph", "graphs.save_graph", "graphs.load_group_map",
                         "graphs.save_group_map"),
    "graphs.adjacency_s": ("graphs.Graph.adjacency_matrix",),
    "convolve.reduce_s": ("convolve.hypercube_to_line", "convolve.cycle_to_line",
                          "convolve.hypercycle_to_lattice", "convolve.lattice_fold", "convolve.compose_maps",
                          "convolve.partial_hypercycle_convolution"),
    "dynamics.sink_integrate_s": ("dynamics._lindblad_diagonals", "dynamics.lindblad_evolve"),
    "dynamics.classical_s": ("dynamics.classical_evolve",),
    "dynamics.hitting_s": ("dynamics.hitting_step",),
    "dynamics.unitary_s": ("dynamics.unitary_evolve",),
    "dynamics.eigh_s": ("numpy.linalg.eigh", "dynamics._symmetric_eigh"),
    "dynamics.curve_validate_s": ("dynamics.WalkCurve.__post_init__",),
    "dynamics.curve_csv_s": ("dynamics.WalkCurve.to_csv",),
    "harness.sample_pairs_s": ("harness.sample_pairs",),
    "harness.race_s": ("harness.run_hitting_races",),
    "harness.chain_s": ("harness.equivalence_chain", "harness.run_equivalence_experiment",
                        "harness.farthest_node"),
    "harness.csv_s": ("harness.races_to_csv", "harness.export_couplings"),
    "analysis.spectrum_s": ("analysis.spectrum", "analysis.distinct_eigenvalues"),
    "analysis.minimality_s": ("analysis.minimality_report",),
    "analysis.groups_s": ("analysis.equiprobable_groups",),
    "analysis.verify_s": ("analysis.verify_equivalence",),
    "cli.dispatch_s": ("cli.cli_dispatch",),
}

# The traced pass may leave at most this share of its wall time outside every
# span (benchmark glue) when tracing cost nothing measurable.
UNACCOUNTED_FLOOR = 0.02


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only time one set-up in this fresh interpreter and print it")
    return p.parse_args(argv)


def import_qwfold():
    sys.path.insert(0, str(SRC))
    from qwfold import analysis, cli, convolve, dynamics, graphs, harness

    return {"graphs": graphs, "convolve": convolve, "dynamics": dynamics,
            "analysis": analysis, "harness": harness, "cli": cli}


def namespace(modules):
    from types import SimpleNamespace

    return SimpleNamespace(**modules)


def timed_setup(args, workdir):
    """One set-up: import, input build, reductions and the warm-up call."""
    workload = WORKLOADS[args.workload](args.seed, workdir)
    start = time.perf_counter()
    q = namespace(import_qwfold())
    workload.setup(q)
    return time.perf_counter() - start, workload, q


def probe_setup(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True, cwd=ROOT)
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def timed_run(args, workdir):
    setups = []
    seconds, workload, q = timed_setup(args, workdir)
    setups.append(seconds)
    setups += [probe_setup(args) for _ in range(SETUP_PROBES)]

    samples = defaultdict(list)
    start = time.perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
        rounds += 1
        for label, values in workload.round(q).items():
            samples[label] += values
    loop_s = time.perf_counter() - start
    if hasattr(workload, "measure_startup"):
        samples["startup"] = workload.measure_startup(q)
    rss = peak_rss_mb(children=args.workload == "cli")

    attempted, failed, notes = workload.check()
    metrics = {
        "op_s": statistics.median(samples[workload.MAIN]) / workload.PER_OP,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
    }
    named = dict(workload.named(samples), setup_s=metrics["setup_s"], peak_rss_mb=rss,
                 failed_frac=failed / attempted)
    info = {"samples": dict(samples), "setup_samples": setups, "loop_s": loop_s}
    return workload, attempted, failed, notes, metrics, named, info


def traced_run(args, workdir):
    from tracer import LAYERS, Tracer

    modules = import_qwfold()
    q = namespace(modules)
    passes = []
    for traced in (False, True):
        workload = WORKLOADS[args.workload](args.seed, workdir / f"traced{int(traced)}", inprocess=True)
        tracer = Tracer()
        if traced:
            tracer.install(modules)
        start = time.perf_counter()
        try:
            run_q = tracer.proxies(modules) if traced else q
            workload.setup(run_q)
            round_start = time.perf_counter()
            workload.round(run_q)
        finally:
            tracer.uninstall()
        end = time.perf_counter()
        passes.append((workload, tracer, end - start, end - round_start))
    (plain, _, _, untraced_round_s), (workload, tracer, traced_s, traced_round_s) = passes

    metrics = {name: tracer.self_seconds(spans) for name, spans in SELF_TIME_METRICS.items()}
    metrics["dynamics.guard_eigvalsh_s"] = tracer.self_seconds(("numpy.linalg.eigvalsh",), "dynamics")
    steps = tracer.counts["sink_steps"]
    metrics["dynamics.sink_steps"] = steps
    metrics["dynamics.sink_step_us"] = metrics["dynamics.sink_integrate_s"] / steps * 1e6 if steps else 0.0
    metrics["dynamics.sink_gflop_computed"] = tracer.counts["sink_flop"] / 1e9
    metrics["dynamics.guard_checks"] = tracer.counts["guard_checks"]
    layer_self = tracer.layer_self_seconds()
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
    accounted = sum(layer_self.values())
    metrics["trace_overhead_frac"] = traced_round_s / untraced_round_s - 1.0
    metrics["trace.unaccounted_frac"] = 1.0 - accounted / traced_s
    metrics["trace.spans"] = len(tracer.spans)

    attempted, failed, notes = 0, 0, []
    for w in (plain, workload):
        a, f, n = w.check()
        attempted, failed, notes = attempted + a, failed + f, notes + n
    attempted += 1
    slack = max(traced_round_s - untraced_round_s, UNACCOUNTED_FLOOR * traced_s)
    if not 0.0 <= traced_s - accounted <= slack:
        failed += 1
        notes.append(f"layer self times sum to {accounted:.4f} s of {traced_s:.4f} s traced")
    unnamed = tracer.span_names() - {s for spans in SELF_TIME_METRICS.values() for s in spans} - {
        "numpy.linalg.eigvalsh"}
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl.gz")
    info = {"traced_s": traced_s, "traced_round_s": traced_round_s, "untraced_round_s": untraced_round_s,
            "spans_in_no_metric": sorted(unnamed),
            "calls": dict(sorted(tracer.calls.items()))}
    return (plain, workload), attempted, failed, notes, metrics, info


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        config = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: {f: config[k].get(f) for f in ("name", "version", "openblas configuration")}
                for k in ("blas", "lapack")}
    except (TypeError, KeyError):
        blas = None
    commit = None  # a plain source checkout has no commit; src_sha256 identifies it
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                    cwd=ROOT, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "qwfold").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "blas": blas,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def remove_empty_dirs(top: Path) -> None:
    for path in sorted(top.rglob("*"), reverse=True) + [top]:
        if path.is_dir() and not any(path.iterdir()):
            path.rmdir()


def result_line(correct, attempted, failed, metrics, units) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units(name)} for name, value in metrics.items()},
    })


def per_layer_unit(name: str) -> str:
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "frac"
    if name.endswith("gflop_computed"):
        return "GFLOP"
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qwfold" / "__init__.py").is_file():
        print(f"perfbench: no qwfold package under {SRC}; run from a qwfold checkout", file=sys.stderr)
        return 2
    workdir = OUT_DIR / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    if args.setup_probe:
        seconds, _, _ = timed_setup(args, workdir)
        remove_empty_dirs(workdir)
        print(json.dumps({"setup_s": seconds}))
        return 0

    if args.trace:
        workloads, attempted, failed, notes, metrics, info = traced_run(args, workdir)
        units = per_layer_unit
    else:
        workload, attempted, failed, notes, metrics, named, info = timed_run(args, workdir)
        workloads = (workload,)
        units = END_TO_END_UNITS.get
        for name, unit in NAMED_UNITS.items():
            value = named.get(name)
            print(f"{name:26s} {'n/a' if value is None else f'{value:.6g}':>12s} {unit}")
    for w in workloads:
        if hasattr(w, "cleanup"):
            w.cleanup()
    remove_empty_dirs(workdir)
    for note in notes:
        print(f"perfbench: check failed: {note}", file=sys.stderr)
    info.update(workload=args.workload, trace=args.trace, environment=environment(args.seed))
    print("perfbench-info " + json.dumps(info))
    print(result_line(failed == 0, attempted, failed, metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
