"""Spectral and symmetry analysis of walk graphs.

Provides adjacency spectra (via a self-contained cyclic Jacobi solver, kept
independent from the LAPACK path used for time evolution), duplicate-
eigenvalue clustering, equiprobable-group detection, and the numerical
equivalence check between a graph and its reduction, whose curve_deviation
also scores the reduction chains of harness.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .convolve import ConvolutionResult
from .dynamics import SinkSpec, TimeGrid, WalkCurve, sink_evolve, unitary_evolve, unitary_probabilities
from .graphs import Graph, GraphValidationError, GroupMap, bfs_distances

JACOBI_TOL = 1e-11
JACOBI_MAX_SWEEPS = 100


class EigensolverConvergenceError(RuntimeError):
    """Jacobi sweeps exhausted before the off-diagonal residual target."""


def jacobi_eigenvalues(matrix: np.ndarray, tol: float = JACOBI_TOL, max_sweeps: int = JACOBI_MAX_SWEEPS) -> np.ndarray:
    """Eigenvalues of a real symmetric matrix by cyclic Jacobi rotations.

    Sweeps rotate every off-diagonal pair until max |a_pq| <= tol; raises
    after max_sweeps unconverged sweeps.  Returns unsorted diagonal values.
    """
    a = np.array(matrix, dtype=float, copy=True)
    n = a.shape[0]
    if a.ndim != 2 or a.shape[1] != n:
        raise ValueError("matrix must be square")
    if np.abs(a - a.T).max() > 1e-12:
        raise ValueError("matrix is not symmetric")
    if n == 1:
        return a.diagonal().copy()
    for _ in range(max_sweeps):
        off = np.abs(a - np.diag(a.diagonal())).max()
        if off <= tol:
            return a.diagonal().copy()
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= tol / (10.0 * n):
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = np.sign(theta) / (abs(theta) + np.hypot(theta, 1.0))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.hypot(t, 1.0)
                s = t * c
                row_p, row_q = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
                col_p, col_q = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                a[p, q] = 0.0
                a[q, p] = 0.0
    off = np.abs(a - np.diag(a.diagonal())).max()
    raise EigensolverConvergenceError(
        f"Jacobi did not reach off-diagonal residual {tol:g} within "
        f"{max_sweeps} sweeps (residual {off:.3e})"
    )


@dataclass(frozen=True)
class Spectrum:
    """Adjacency eigenvalues sorted descending."""

    values: tuple[float, ...]


def spectrum(g: Graph) -> Spectrum:
    """Eigenvalues of the adjacency matrix, descending; their sum must match
    the zero trace within 1e-8 per unit of the largest coupling (at least 1)."""
    if g.node_count < 1:
        raise GraphValidationError("graph is empty")
    a = g.adjacency_matrix()
    vals = jacobi_eigenvalues(a)
    total = vals.sum()
    if abs(total) > 1e-8 * max(1.0, np.abs(a).max()):
        raise EigensolverConvergenceError(
            f"eigenvalue sum {total:.3e} deviates from the zero trace"
        )
    return Spectrum(tuple(sorted(vals, reverse=True)))


def distinct_eigenvalues(s: Spectrum, tol: float) -> list[float]:
    """One representative (cluster mean) per eigenvalue cluster, descending.

    Values within tol of their neighbor join the same cluster.  A gap between
    clusters smaller than 2*tol is ambiguous and emits a warning.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    values = list(s.values)
    clusters: list[list[float]] = [[values[0]]]
    for prev, cur in zip(values, values[1:]):
        if prev - cur <= tol:
            clusters[-1].append(cur)
        else:
            if prev - cur < 2.0 * tol:
                warnings.warn(
                    f"eigenvalue gap {prev - cur:.3e} between clusters lies in "
                    f"(tol, 2*tol); clustering may be ambiguous",
                    stacklevel=2,
                )
            clusters.append([cur])
    return [float(np.mean(c)) for c in clusters]


@dataclass(frozen=True)
class GroupPartition:
    """Nodes grouped by identical walk-probability trajectories and distance."""

    groups: tuple[tuple[int, ...], ...]
    distances: tuple[int, ...]
    probabilities: np.ndarray  # per group, summed over members; shape (groups, times)
    sample_times: tuple[float, ...]

    @property
    def group_count(self) -> int:
        return len(self.groups)


DEFAULT_SAMPLE_TIMES = tuple(0.25 * i for i in range(1, 21))


def equiprobable_groups(
    g: Graph,
    start: int,
    sample_times=DEFAULT_SAMPLE_TIMES,
    tol: float = 1e-8,
) -> GroupPartition:
    """Partition nodes whose probability trajectories coincide by symmetry.

    Two nodes share a group iff their unitary-walk probabilities agree within
    tol at every sample time AND they lie at the same edge distance from the
    start node.  Group probabilities are the sums over members, so the
    partition conserves total probability.
    """
    times = np.asarray(list(sample_times), dtype=float)
    if times.size == 0 or np.any(times <= 0):
        raise ValueError("sample_times must be non-empty and strictly positive")
    probs = unitary_probabilities(g, start, times)  # (times, nodes)
    dist = bfs_distances(g, start)

    groups: list[list[int]] = []
    reps: list[np.ndarray] = []
    gdist: list[int] = []
    for v in range(g.node_count):
        placed = False
        for gi in range(len(groups)):
            if gdist[gi] == dist[v] and np.abs(reps[gi] - probs[:, v]).max() <= tol:
                groups[gi].append(v)
                placed = True
                break
        if not placed:
            groups.append([v])
            reps.append(probs[:, v])
            gdist.append(-1 if dist[v] is None else dist[v])
    summed = np.stack([probs[:, idx].sum(axis=1) for idx in groups])
    return GroupPartition(
        tuple(tuple(gr) for gr in groups),
        tuple(gdist),
        summed,
        tuple(float(t) for t in times),
    )


def curve_deviation(orig: WalkCurve, reduced: WalkCurve, gmap: GroupMap | None) -> float:
    """Max deviation over sample times: sink populations for sink curves;
    otherwise each reduced node against its preimage (under gmap) summed."""
    if orig.has_sink:
        return float(np.abs(orig.sink_series() - reduced.sink_series()).max())
    onehot = np.zeros((orig.node_count, reduced.node_count))
    onehot[np.arange(orig.node_count), list(gmap.assignment)] = 1.0
    return float(np.abs(orig.probabilities @ onehot - reduced.probabilities).max())


def verify_equivalence(
    g_orig: Graph,
    start_orig: int,
    result: ConvolutionResult,
    start_reduced: int,
    grid: TimeGrid,
    sink_mode: tuple[SinkSpec, SinkSpec] | None = None,
    substep: float = 1e-3,
) -> float:
    """Max deviation between original and reduced walk dynamics.

    Without a sink: evolve both unitarily and compare, per reduced node, the
    summed probability of its preimage against the reduced node's own
    probability; returns the max over nodes and sample times.  With a sink
    pair (original, reduced): run both sink-detected walks with the shared
    rate and compare the sink populations.  The walks are propagated exactly
    (dynamics.sink_evolve), so ``substep``, an RK4 step, changes no output;
    it stays accepted for callers written for the RK4 integrator.
    """
    gmap = result.map
    n = g_orig.node_count
    if gmap.source_count != n:
        raise GraphValidationError(f"map covers {gmap.source_count} nodes but graph has {n}")
    for node in (start_orig,) if sink_mode is None else (start_orig, sink_mode[0].target):
        if not 0 <= node < n:
            raise GraphValidationError(f"node {node} out of range for the {n}-node original graph")
    if gmap.assignment[start_orig] != start_reduced:
        raise GraphValidationError(
            f"map sends start {start_orig} to {gmap.assignment[start_orig]}, "
            f"not to the reduced start {start_reduced}"
        )
    if sink_mode is None:
        orig = unitary_evolve(g_orig, start_orig, grid)
        red = unitary_evolve(result.reduced, start_reduced, grid)
    else:
        sink_orig, sink_red = sink_mode
        if sink_orig.rate != sink_red.rate:
            raise GraphValidationError("sink pair must share the decay rate")
        if gmap.assignment[sink_orig.target] != sink_red.target:
            raise GraphValidationError(
                f"map sends target {sink_orig.target} to {gmap.assignment[sink_orig.target]}, "
                f"not to the reduced target {sink_red.target}"
            )
        orig = sink_evolve(g_orig, start_orig, sink_orig, grid)
        red = sink_evolve(result.reduced, start_reduced, sink_red, grid)
    return curve_deviation(orig, red, gmap)


def minimality_report(
    g: Graph,
    start: int,
    distinct_tol: float = 1e-6,
    group_tol: float = 1e-8,
    sample_times=DEFAULT_SAMPLE_TIMES,
) -> dict:
    """Compare equiprobable-group count against distinct-eigenvalue count.

    The verdict is CONSISTENT when the two counts agree and DISCREPANT
    otherwise; nothing beyond the comparison is asserted.
    """
    partition = equiprobable_groups(g, start, sample_times, group_tol)
    spec = spectrum(g)
    distinct = distinct_eigenvalues(spec, distinct_tol)
    verdict = "CONSISTENT" if partition.group_count == len(distinct) else "DISCREPANT"
    return {
        "group_count": partition.group_count,
        "distinct_eigenvalue_count": len(distinct),
        "verdict": verdict,
        "groups": [
            {"nodes": list(nodes), "d": d}
            for nodes, d in zip(partition.groups, partition.distances)
        ],
        "eigenvalues": {
            "full": [float(v) for v in spec.values],
            "distinct": [float(v) for v in distinct],
        },
    }
