"""Experiment orchestration: equivalence chains and hitting-time races.

Everything here is deterministic given the configuration: pair sampling uses
a self-contained splitmix64 stream (documented below) so identical seeds give
byte-identical CSV output on any platform.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .analysis import _curve_deviation
from .convolve import (
    ConvolutionResult,
    compose_maps,
    cycle_to_line,
    hypercube_to_line,
    hypercycle_to_lattice,
    lattice_fold,
)
from .dynamics import (
    SinkSpec,
    ThresholdPolicy,
    TimeGrid,
    WalkCurve,
    _sink_diagonals,
    classical_evolve,
    hitting_step,
    sink_evolve,
    unitary_evolve,
)
from .graphs import Graph, GraphFamilySpec, GraphValidationError, bfs_distances, load_graph, write_text

RACE_CSV_HEADER = "pair,source,target,d,classical_steps,quantum_steps,winner"


class SplitMix64:
    """splitmix64 sequence: state += 0x9E3779B97F4A7C15; output mixes with
    shift-xor-multiply constants 0xBF58476D1CE4E5B9 and 0x94D049BB133111EB.

    Bounded draws use rejection sampling on the top range, so the sampled
    sequence is identical on every platform.
    """

    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = seed & self.MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & self.MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection."""
        if n <= 0:
            raise ValueError("bound must be positive")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            z = self.next_u64()
            if z < limit:
                return z % n


def sample_pairs(node_count: int, pair_count: int, seed: int) -> list[tuple[int, int]]:
    """pair_count ordered (source, target) pairs, source != target, drawn
    uniformly from all n*(n-1) such pairs.

    Pairs are enumerated lexicographically; draws come without replacement
    (partial Fisher-Yates over the pair indices) while the pool lasts, and
    fall back to independent uniform draws when pair_count exceeds the pool.
    Both paths consume the same splitmix64 stream, so results replicate.
    """
    total = node_count * (node_count - 1)
    if pair_count < 1:
        raise ValueError("pair_count must be >= 1")
    rng = SplitMix64(seed)
    if pair_count <= total:
        indices = list(range(total))
        for i in range(pair_count):
            j = i + rng.below(total - i)
            indices[i], indices[j] = indices[j], indices[i]
        chosen = indices[:pair_count]
    else:
        chosen = [rng.below(total) for _ in range(pair_count)]

    def decode(idx: int) -> tuple[int, int]:
        src, rest = divmod(idx, node_count - 1)
        tgt = rest if rest < src else rest + 1
        return src, tgt

    return [decode(idx) for idx in chosen]


@dataclass(frozen=True, slots=True)
class HittingRecord:
    """One race: step indices (None = never crossed) and the resulting winner."""

    pair_index: int
    source: int
    target: int
    d: int
    classical_steps: int | None
    quantum_steps: int | None
    winner: str

    @staticmethod
    def decide(classical_steps: int | None, quantum_steps: int | None) -> str:
        if classical_steps is None and quantum_steps is None:
            return "both_failed"
        if quantum_steps is None:
            return "classical"
        if classical_steps is None:
            return "quantum"
        if classical_steps < quantum_steps:
            return "classical"
        if quantum_steps < classical_steps:
            return "quantum"
        return "tie"


@dataclass(frozen=True, slots=True)
class ExperimentConfig:
    """Inputs of a race or equivalence experiment.

    source   : graph family parameters, or a path to a graph document
    seed     : mandatory 64-bit seed for pair sampling
    substep  : RK4-only; changes no output.  Sink-detected runs are
               propagated exactly (dynamics.sink_evolve), with no integration
               step; the field stays so that configurations written for the
               RK4 integrator still construct.
    """

    source: GraphFamilySpec | str
    seed: int
    pair_count: int = 300
    grid: TimeGrid = field(default_factory=lambda: TimeGrid(20.0, 0.1))
    gamma: float = 1.0
    threshold: ThresholdPolicy = field(default_factory=ThresholdPolicy)
    substep: float = 0.005

    def __post_init__(self):
        if self.pair_count < 1:
            raise ValueError("pair_count must be >= 1")
        if not 0 <= self.gamma < np.inf:
            raise ValueError(f"gamma must be nonnegative and finite, got {self.gamma}")

    def resolve_graph(self) -> Graph:
        if isinstance(self.source, GraphFamilySpec):
            return self.source.build()
        return load_graph(self.source)


def farthest_node(g: Graph, start: int) -> int:
    """Farthest node from start by edge distance; smallest index breaks ties."""
    dist = bfs_distances(g, start)
    if any(d is None for d in dist):
        raise GraphValidationError("graph is disconnected; no farthest node")
    best = max(d for d in dist if d is not None)
    return dist.index(best)


def _square_side(g: Graph) -> int:
    side = round(g.node_count**0.5)
    if side * side != g.node_count:
        raise GraphValidationError(f"{g.node_count} nodes do not form a square lattice")
    return side


def equivalence_chain(spec: GraphFamilySpec) -> tuple[list[str], list[Graph], list[ConvolutionResult], bool]:
    """Resolve the reduction chain of a family.

    Returns (names, graphs, maps-from-original, sink_mode); maps[i] witnesses
    original -> graphs[i+1].
    """
    if spec.family == "hypercube":
        cube = spec.build()
        conv = hypercube_to_line(spec.dim)
        return (["hypercube", "line"], [cube, conv.reduced], [conv], False)
    if spec.family == "cycle":
        ring = spec.build()
        conv = cycle_to_line(spec.k)
        return (["cycle", "line"], [ring, conv.reduced], [conv], False)
    if spec.family == "hypercycle":
        if spec.dim != 2:
            raise GraphValidationError("equivalence chain is defined for the 2D hypercycle (torus)")
        torus = spec.build()
        to_lattice = hypercycle_to_lattice(2, spec.k)
        side = _square_side(to_lattice.reduced)
        fold = lattice_fold(to_lattice.reduced, side)
        composed = ConvolutionResult(
            fold.reduced, compose_maps(fold.map, to_lattice.map), "lattice_fold"
        )
        return (
            ["hypercycle", "lattice", "ultimate"],
            [torus, to_lattice.reduced, fold.reduced],
            [to_lattice, composed],
            True,
        )
    if spec.family == "weighted_lattice":
        lattice = spec.build()
        fold = lattice_fold(lattice, _square_side(lattice))
        return (["lattice", "ultimate"], [lattice, fold.reduced], [fold], True)
    raise GraphValidationError(f"no reduction chain defined for family {spec.family!r}")


@dataclass(frozen=True)
class EquivalenceOutcome:
    names: tuple[str, ...]
    curves: dict  # name -> WalkCurve
    targets: dict  # name -> watched node (sink target in sink mode)
    deviations: tuple[dict, ...]  # {"a", "b", "max_deviation"}

    def max_deviation(self) -> float:
        return max(row["max_deviation"] for row in self.deviations)

    def deviations_json(self) -> str:
        return json.dumps(list(self.deviations), indent=1)


def run_equivalence_experiment(config: ExperimentConfig) -> EquivalenceOutcome:
    """Walk one family's reduction chain and measure curve agreement.

    Each representation is evolved once, from the image of the original's
    corner (node 0) and with the image of its farthest node as target; both
    images are checked against the representation's own corner and farthest
    node.  Sink chains (torus, lattice) run sink-detected walks and compare
    every pair's sink populations; unitary chains (hypercube, cycle) run
    unitary walks and compare group-summed node probabilities through the
    witness map.
    """
    if not isinstance(config.source, GraphFamilySpec):
        raise GraphValidationError("equivalence experiment needs a graph family, not a file")
    names, graphs, convs, sink_mode = equivalence_chain(config.source)
    target = farthest_node(graphs[0], 0)
    maps = [None] + [conv.map for conv in convs]
    curves, targets = {}, {}
    for name, g, gmap in zip(names, graphs, maps):
        s, t = (0, target) if gmap is None else (gmap.assignment[0], gmap.assignment[target])
        if s != 0:
            raise GraphValidationError("chain start must map to the reduced corner")
        if farthest_node(g, 0) != t:
            raise GraphValidationError("reduced farthest node disagrees with the mapped target")
        if sink_mode:
            sink = SinkSpec(t, g.node_count, config.gamma)
            curves[name] = sink_evolve(g, s, sink, config.grid)
        else:
            curves[name] = unitary_evolve(g, s, config.grid)
        targets[name] = t
    # maps lead out of the original only, and unitary chains have two members
    deviations = tuple(
        {"a": a, "b": b,
         "max_deviation": _curve_deviation(curves[a], curves[b], maps[j] if i == 0 else None)}
        for (i, a), (j, b) in combinations(enumerate(names), 2)
    )
    return EquivalenceOutcome(tuple(names), curves, targets, deviations)


def run_hitting_races(config: ExperimentConfig) -> tuple[list[HittingRecord], dict]:
    """Race classical against sink-detected quantum walks on random pairs.

    For every sampled (source, target) pair the classical walk is watched at
    the target and the quantum walk at its sink, both against the threshold
    1/log(n) with n the graph's node count (the sink is detection apparatus,
    not a graph node).  Failure to cross within the grid horizon loses to any
    success.
    """
    g = config.resolve_graph()
    if not g.is_connected():
        raise GraphValidationError("hitting races need a connected graph")
    n = g.node_count
    threshold = config.threshold.value(n)  # config errors surface before any run
    pairs = sample_pairs(n, config.pair_count, config.seed)

    dist_rows = {src: bfs_distances(g, src) for src in {s for s, _ in pairs}}

    # classical curves depend only on the source; quantum runs propagate in
    # batches of eight with per-pair sink targets
    classical_curves = {src: classical_evolve(g, src, config.grid) for src in dist_rows}
    adjacency = g.adjacency_matrix()
    quantum_steps_by_pair: dict[int, int | None] = {}
    chunk = 8
    for lo in range(0, len(pairs), chunk):
        block = pairs[lo : lo + chunk]
        diags = _sink_diagonals(
            adjacency,
            [src for src, _ in block],
            [tgt for _, tgt in block],
            config.gamma,
            config.grid,
        )
        for row in range(len(block)):
            curve = WalkCurve(config.grid, diags[row], "lindblad")
            quantum_steps_by_pair[lo + row] = hitting_step(curve, n, config.threshold, n)

    records = []
    for idx, (src, tgt) in enumerate(pairs):
        c_steps = hitting_step(classical_curves[src], tgt, config.threshold, n)
        q_steps = quantum_steps_by_pair[idx]
        records.append(
            HittingRecord(
                pair_index=idx,
                source=src,
                target=tgt,
                d=dist_rows[src][tgt],
                classical_steps=c_steps,
                quantum_steps=q_steps,
                winner=HittingRecord.decide(c_steps, q_steps),
            )
        )
    records.sort(key=lambda r: r.pair_index)

    by_distance: dict[int, dict[str, int]] = {}
    for rec in records:
        bucket = by_distance.setdefault(
            rec.d, {"classical": 0, "quantum": 0, "tie": 0, "both_failed": 0, "total": 0}
        )
        bucket[rec.winner] += 1
        bucket["total"] += 1
    wins = {key: sum(b[key] for b in by_distance.values())
            for key in ("classical", "quantum", "tie", "both_failed")}
    summary = {
        "pair_count": config.pair_count,
        "threshold": threshold,
        "wins": wins,
        "by_distance": dict(sorted(by_distance.items())),
    }
    return records, summary


def races_to_csv(records: list[HittingRecord], destination) -> None:
    """Race table with failures rendered as -1; LF line endings."""
    lines = [RACE_CSV_HEADER]
    for r in records:
        c = -1 if r.classical_steps is None else r.classical_steps
        q = -1 if r.quantum_steps is None else r.quantum_steps
        lines.append(f"{r.pair_index},{r.source},{r.target},{r.d},{c},{q},{r.winner}")
    write_text("\n".join(lines) + "\n", destination)


def path_couplings(g: Graph) -> list[tuple[str, float]]:
    """Ordered (edge, coupling) rows of a path graph, 1-based end to end.

    Rejects anything that is not a single path: the rows are the waveguide
    spacing specification, which only makes sense for a chain.
    """
    if g.node_count < 2:
        raise GraphValidationError("a single node is not a path")
    degrees = g.degrees()
    ends = [v for v in range(g.node_count) if degrees[v] == 1]
    if len(ends) != 2 or np.any(degrees > 2) or g.edge_count != g.node_count - 1:
        raise GraphValidationError("graph is not a path")
    if not g.is_connected():
        raise GraphValidationError("graph is not a path (disconnected)")
    adj = g.neighbors()
    weights = {(min(i, j), max(i, j)): w for i, j, w in g.edges}
    order = [min(ends)]
    while len(order) < g.node_count:
        nxt = [v for v in adj[order[-1]] if len(order) < 2 or v != order[-2]]
        order.append(nxt[0])
    rows = []
    for pos in range(len(order) - 1):
        u, v = order[pos], order[pos + 1]
        rows.append((f"{pos + 1}-{pos + 2}", weights[(min(u, v), max(u, v))]))
    return rows


def export_couplings(g: Graph, destination) -> list[tuple[str, float]]:
    """Write the waveguide coupling table as `edge,coupling` CSV rows."""
    rows = path_couplings(g)
    lines = ["edge,coupling"] + [f"{edge},{w:.12g}" for edge, w in rows]
    write_text("\n".join(lines) + "\n", destination)
    return rows
