"""Command-line front end.

Exit codes: 0 success, 1 domain/validation error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import analysis, convolve, dynamics, harness
from .graphs import (
    GraphFamilySpec,
    GraphValidationError,
    load_graph,
    load_group_map,
    save_graph,
    save_group_map,
    write_text,
)


def _couplings(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from exc


def _family_spec(args) -> GraphFamilySpec:
    fam = args.family
    if fam == "weighted_lattice":
        rows = args.rows
        cols = args.couplings if args.couplings else args.rows
        return GraphFamilySpec(fam, row_couplings=rows, col_couplings=cols)
    return GraphFamilySpec(
        fam,
        dim=args.dim,
        k=args.k,
        couplings=args.couplings,
    )


def _add_family_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--family",
        choices=["hypercube", "cycle", "hypercycle", "weighted_line", "weighted_lattice"],
        help="graph family to construct",
    )
    p.add_argument("--dim", type=int, help="dimension D (hypercube, hypercycle)")
    p.add_argument("--k", type=int, help="even ring size k >= 4 (cycle, hypercycle)")
    p.add_argument(
        "--couplings",
        type=_couplings,
        help="comma-separated couplings (weighted_line; column axis of weighted_lattice)",
    )
    p.add_argument(
        "--rows",
        type=_couplings,
        help="comma-separated row-axis couplings (weighted_lattice)",
    )


def _grid(args, default_tmax=10.0, default_dt=0.05) -> dynamics.TimeGrid:
    tmax = args.tmax if args.tmax is not None else default_tmax
    dt = args.dt if args.dt is not None else default_dt
    return dynamics.TimeGrid(tmax, dt)


def _cmd_graph_build(args) -> int:
    save_graph(_family_spec(args).build(), args.out or sys.stdout)
    return 0


def _cmd_convolve(args) -> int:
    if args.infile:
        lattice = load_graph(args.infile)
        side = round(lattice.node_count**0.5)
        result = convolve.lattice_fold(lattice, side)
    elif args.family == "hypercube":
        result = convolve.hypercube_to_line(args.dim)
    elif args.family == "cycle":
        result = convolve.cycle_to_line(args.k)
    elif args.family == "hypercycle":
        if args.partial:
            result = convolve.partial_hypercycle_convolution(args.k)
        else:
            result = convolve.hypercycle_to_lattice(args.dim, args.k)
    else:
        raise GraphValidationError(
            "convolve needs --in LATTICE.json (fold) or --family hypercube/cycle/hypercycle"
        )
    if args.out:
        save_graph(result.reduced, args.out)
    if args.map:
        save_group_map(result.map, args.map)
    print(
        f"{result.method}: {result.map.source_count} -> {result.map.target_count} nodes, "
        f"{result.reduced.edge_count} edges"
    )
    return 0


def _cmd_simulate(args) -> int:
    g = load_graph(args.infile)
    start = args.start
    if args.sink or args.kind == "lindblad":
        grid = _grid(args, default_dt=0.01)
        n = g.node_count
        if args.target is not None and not 0 <= args.target < n:
            raise GraphValidationError(f"--target {args.target} out of range: the graph has nodes 0..{n - 1}")
        target = args.target if args.target is not None else harness.farthest_node(g, start)
        sink = dynamics.SinkSpec(target, n, args.gamma)
        curve = dynamics.sink_evolve(g, start, sink, grid)
    elif args.kind == "classical":
        curve = dynamics.classical_evolve(g, start, _grid(args))
    else:
        curve = dynamics.unitary_evolve(g, start, _grid(args))
    curve.to_csv(args.out or sys.stdout)
    return 0


def _cmd_compare(args) -> int:
    if args.family:
        spec = _family_spec(args)
        grid = _grid(args, default_dt=0.01 if args.family in ("hypercycle", "weighted_lattice") else 0.05)
        config = harness.ExperimentConfig(source=spec, seed=0, grid=grid, gamma=args.gamma)
        outcome = harness.run_equivalence_experiment(config)
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            for name, curve in outcome.curves.items():
                curve.to_csv(os.path.join(args.out, f"{name}.csv"))
        print(outcome.deviations_json())
        return 0
    if not (args.orig and args.reduced and args.map):
        raise GraphValidationError("compare needs --family or all of --orig, --reduced, --map")
    g_orig = load_graph(args.orig)
    g_red = load_graph(args.reduced)
    gmap = load_group_map(args.map)
    result = convolve.ConvolutionResult(g_red, gmap, "loaded")
    n = g_orig.node_count
    if gmap.source_count != n:
        raise GraphValidationError(f"map covers {gmap.source_count} nodes but the original graph has {n}")
    for flag, node in (("--start", args.start), ("--target", args.target)):
        if node is not None and not 0 <= node < n:
            raise GraphValidationError(f"{flag} {node} out of range for the {n}-node original graph")
    start = args.start
    start_red = gmap.assignment[start]
    if args.sink:
        target = args.target if args.target is not None else harness.farthest_node(g_orig, start)
        pair = (
            dynamics.SinkSpec(target, g_orig.node_count, args.gamma),
            dynamics.SinkSpec(gmap.assignment[target], g_red.node_count, args.gamma),
        )
        grid = _grid(args, default_dt=0.01)
        dev = analysis.verify_equivalence(g_orig, start, result, start_red, grid, pair)
    else:
        dev = analysis.verify_equivalence(g_orig, start, result, start_red, _grid(args))
    print(f"{dev:.12g}")
    return 0


def _cmd_spectrum(args) -> int:
    g = load_graph(args.infile)
    spec = analysis.spectrum(g)
    doc = {
        "eigenvalues": [float(v) for v in spec.values],
        "distinct": analysis.distinct_eigenvalues(spec, args.tol),
        "tol": args.tol,
    }
    write_text(json.dumps(doc, indent=1) + "\n", args.out or sys.stdout)
    return 0


def _cmd_groups(args) -> int:
    g = load_graph(args.infile)
    part = analysis.equiprobable_groups(g, args.start, tol=args.tol)
    doc = {
        "group_count": part.group_count,
        "groups": [
            {"nodes": list(nodes), "d": d, "probability_series": series.tolist()}
            for nodes, d, series in zip(part.groups, part.distances, part.probabilities)
        ],
        "sample_times": list(part.sample_times),
    }
    write_text(json.dumps(doc, indent=1) + "\n", args.out or sys.stdout)
    return 0


def _cmd_minimality(args) -> int:
    g = load_graph(args.infile)
    report = analysis.minimality_report(g, args.start, distinct_tol=args.tol)
    write_text(json.dumps(report, indent=1) + "\n", args.out or sys.stdout)
    return 0


def _cmd_race(args) -> int:
    if args.infile:
        source: GraphFamilySpec | str = args.infile
    elif args.family:
        source = _family_spec(args)
    else:
        raise GraphValidationError("race needs --family or --in")
    config = harness.ExperimentConfig(
        source=source,
        seed=args.seed,
        pair_count=args.pairs,
        grid=_grid(args, default_tmax=20.0, default_dt=0.1),
        gamma=args.gamma,
        threshold=dynamics.ThresholdPolicy(
            {"ln": "natural", "log2": "base2", "log10": "base10"}[args.threshold_base]
        ),
    )
    records, summary = harness.run_hitting_races(config)
    harness.races_to_csv(records, args.out or sys.stdout)
    print(json.dumps(summary, indent=1), file=sys.stderr)
    return 0


def _cmd_export_couplings(args) -> int:
    harness.export_couplings(load_graph(args.infile), args.out or sys.stdout)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qwfold",
        description="Quantum-walk graph reduction toolkit: build graph families, "
        "reduce them while preserving walk dynamics, and verify the equivalence.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_graph = sub.add_parser("graph", help="graph construction commands")
    graph_sub = p_graph.add_subparsers(dest="graph_command", required=True)
    p_build = graph_sub.add_parser("build", help="construct a family member and save it")
    _add_family_flags(p_build)
    p_build.add_argument("--out", help="output graph JSON path (stdout if omitted)")
    p_build.set_defaults(handler=_cmd_graph_build)

    p_conv = sub.add_parser("convolve", help="reduce a graph, emitting the witness map")
    _add_family_flags(p_conv)
    p_conv.add_argument("--in", dest="infile", help="square lattice JSON to fold")
    p_conv.add_argument("--partial", action="store_true",
                        help="transform only one ring factor of the 2D hypercycle")
    p_conv.add_argument("--out", help="reduced graph JSON path")
    p_conv.add_argument("--map", help="witness map JSON path")
    p_conv.set_defaults(handler=_cmd_convolve)

    p_sim = sub.add_parser("simulate", help="evolve a walk and emit its probability curve")
    p_sim.add_argument("--in", dest="infile", required=True, help="graph JSON")
    p_sim.add_argument("--kind", choices=["unitary", "classical", "lindblad"], default="unitary")
    p_sim.add_argument("--start", type=int, default=0)
    p_sim.add_argument("--sink", action="store_true", help="attach a sink (implies lindblad)")
    p_sim.add_argument("--target", type=int, help="sink target (default: farthest node)")
    p_sim.add_argument("--gamma", type=float, default=1.0)
    p_sim.add_argument("--tmax", type=float)
    p_sim.add_argument("--dt", type=float)
    p_sim.add_argument("--out", help="curve CSV path (stdout if omitted)")
    p_sim.set_defaults(handler=_cmd_simulate)

    p_cmp = sub.add_parser("compare", help="max deviation between a graph and its reduction")
    _add_family_flags(p_cmp)
    p_cmp.add_argument("--orig", help="original graph JSON")
    p_cmp.add_argument("--reduced", help="reduced graph JSON")
    p_cmp.add_argument("--map", help="witness map JSON")
    p_cmp.add_argument("--sink", action="store_true", help="compare sink populations")
    p_cmp.add_argument("--start", type=int, default=0)
    p_cmp.add_argument("--target", type=int)
    p_cmp.add_argument("--gamma", type=float, default=1.0)
    p_cmp.add_argument("--tmax", type=float)
    p_cmp.add_argument("--dt", type=float)
    p_cmp.add_argument("--out", help="directory for per-representation curve CSVs (family mode)")
    p_cmp.set_defaults(handler=_cmd_compare)

    p_spec = sub.add_parser("spectrum", help="adjacency eigenvalues and distinct values")
    p_spec.add_argument("--in", dest="infile", required=True)
    p_spec.add_argument("--tol", type=float, default=1e-6)
    p_spec.add_argument("--out")
    p_spec.set_defaults(handler=_cmd_spectrum)

    p_grp = sub.add_parser("groups", help="equiprobable node groups from a start node")
    p_grp.add_argument("--in", dest="infile", required=True)
    p_grp.add_argument("--start", type=int, default=0)
    p_grp.add_argument("--tol", type=float, default=1e-8)
    p_grp.add_argument("--out")
    p_grp.set_defaults(handler=_cmd_groups)

    p_min = sub.add_parser("minimality", help="group count vs distinct eigenvalue count")
    p_min.add_argument("--in", dest="infile", required=True)
    p_min.add_argument("--start", type=int, default=0)
    p_min.add_argument("--tol", type=float, default=1e-6)
    p_min.add_argument("--out")
    p_min.set_defaults(handler=_cmd_minimality)

    p_race = sub.add_parser("race", help="seeded classical-vs-quantum hitting races")
    _add_family_flags(p_race)
    p_race.add_argument("--in", dest="infile", help="graph JSON (alternative to --family)")
    p_race.add_argument("--pairs", type=int, default=300)
    p_race.add_argument("--seed", type=int, required=True)
    p_race.add_argument("--gamma", type=float, default=1.0)
    p_race.add_argument("--tmax", type=float)
    p_race.add_argument("--dt", type=float)
    p_race.add_argument("--threshold-base", dest="threshold_base",
                        choices=["ln", "log2", "log10"], default="ln")
    p_race.add_argument("--out", help="race CSV path (stdout if omitted)")
    p_race.set_defaults(handler=_cmd_race)

    p_exp = sub.add_parser("export-couplings", help="waveguide coupling table of a line graph")
    p_exp.add_argument("--in", dest="infile", required=True)
    p_exp.add_argument("--out")
    p_exp.set_defaults(handler=_cmd_export_couplings)

    return parser


def cli_dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.handler(args)
    except (GraphValidationError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
