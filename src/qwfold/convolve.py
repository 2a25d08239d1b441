"""Dynamics-preserving graph reductions.

Every reduction is the quotient B = D^{-1/2} S^T A S D^{-1/2} of an equitable
partition S with cell sizes D (Godsil & Royle, Algebraic Graph Theory, ch. 9),
returned with the GroupMap witness of which original nodes merge.  Cartesian
products reduce factor by factor.  The hypercube alone keeps its closed form:
it is the one reduction that never builds the original 2^dim-node graph.
Starting the walk at the distinguished corner (all-zeros hypercube vertex,
ring node 0, torus origin), group-summed probabilities on the original graph
coincide with node probabilities on the reduced one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .graphs import (
    Graph,
    GraphValidationError,
    GroupMap,
    build_cycle,
    build_weighted_line,
    cartesian_product,
)


@dataclass(frozen=True)
class ConvolutionResult:
    """A reduced graph plus the original-node -> reduced-node witness."""

    reduced: Graph
    map: GroupMap
    method: str

    def __post_init__(self):
        if self.map.target_count != self.reduced.node_count:
            raise GraphValidationError(
                f"map targets {self.map.target_count} nodes but reduced graph has "
                f"{self.reduced.node_count}"
            )


def quotient(
    g: Graph, assignment, method: str, labels=None, meta: dict | None = None, tol: float = 1e-12
) -> ConvolutionResult:
    """Reduce g onto the cells of an equitable partition.

    assignment[v] is the cell of node v (cells numbered 0..m-1, all used).
    Raises GraphValidationError when an edge joins two nodes of one cell, or
    when the partition is not equitable: the residual max |AS - S D^{-1} S^T A S|,
    how far a node's weight into a cell strays from its cell's mean, must not
    exceed tol.  Cells P and Q with total weight t between them get the
    coupling sqrt(t^2 / (|P| |Q|)), not t / sqrt(|P| |Q|): where the radicand
    is an integer this rounds once, so the closed forms come out bit for bit.
    """
    gmap = GroupMap(g.node_count, max(assignment) + 1, assignment)
    m, cells = gmap.target_count, np.array(gmap.assignment)
    edges = np.array(g.edges).reshape(-1, 3)
    i, j, w = edges[:, 0].astype(int), edges[:, 1].astype(int), edges[:, 2]
    inside = np.flatnonzero(cells[i] == cells[j])
    if inside.size:
        e = inside[0]
        raise GraphValidationError(f"edge ({i[e]},{j[e]}) lies inside cell {cells[i[e]]}")
    to_cell = np.zeros((g.node_count, m))  # AS: weight from each node into each cell
    np.add.at(to_cell, (i, cells[j]), w)
    np.add.at(to_cell, (j, cells[i]), w)
    total = np.zeros((m, m))  # S^T A S: total weight between cells
    np.add.at(total, cells, to_cell)
    sizes = np.bincount(cells)
    deviation = np.abs(to_cell - (total / sizes[:, None])[cells])
    residual = deviation.max()
    if residual > tol:
        v, q = np.unravel_index(deviation.argmax(), deviation.shape)
        raise GraphValidationError(
            f"partition is not equitable: residual {residual:.3e} above tol {tol:g} "
            f"(weight from node {v} into cell {q})"
        )
    coupling = np.sqrt(total**2 / np.outer(sizes, sizes))
    reduced = [(int(p), int(q), float(coupling[p, q])) for p, q in zip(*np.nonzero(np.triu(total, 1)))]
    return ConvolutionResult(Graph(m, tuple(reduced), labels, meta), gmap, method)


def _product(factors: list[ConvolutionResult], method: str) -> ConvolutionResult:
    """Cartesian product of reductions: the Kronecker sum of the reduced graphs.

    Original node (u_1, ..., u_D), indexed row-major like cartesian_product,
    maps to (map_1(u_1), ..., map_D(u_D)) on the product of the reduced graphs.
    """
    reduced, assignment = factors[0].reduced, factors[0].map.assignment
    for f in factors[1:]:
        reduced = cartesian_product(reduced, f.reduced)
        assignment = tuple(a * f.map.target_count + b for a in assignment for b in f.map.assignment)
    return ConvolutionResult(reduced, GroupMap(len(assignment), reduced.node_count, assignment), method)


def hypercube_to_line(dim: int) -> ConvolutionResult:
    """Collapse the dim-hypercube onto a (dim+1)-node weighted line.

    Line node h collects every hypercube vertex at Hamming weight h from the
    all-zeros corner; the coupling between line nodes h and h+1 is
    sqrt((h+1) * (dim - h)) for h = 0..dim-1.
    """
    if dim < 1:
        raise GraphValidationError(f"hypercube dimension must be >= 1, got {dim}")
    couplings = [math.sqrt((h + 1) * (dim - h)) for h in range(dim)]
    line = build_weighted_line(couplings)
    n = 1 << dim
    assignment = tuple(bin(u).count("1") for u in range(n))
    return ConvolutionResult(line, GroupMap(n, dim + 1, assignment), "hypercube_line")


def cycle_to_line(k: int) -> ConvolutionResult:
    """Collapse the k-ring onto a (k/2 + 1)-node line by ring distance from node 0.

    The couplings are sqrt(2) at both ends and 1 inside.
    """
    conv = quotient(build_cycle(k), [min(j, k - j) for j in range(k)], "cycle_line")
    line = build_weighted_line([w for _, _, w in conv.reduced.edges])
    return replace(conv, reduced=line)


def hypercycle_to_lattice(dim: int, k: int) -> ConvolutionResult:
    """Collapse the (dim, k)-hypercycle onto the dim-fold power of its reduced line.

    Every ring factor is mapped by ring distance independently, so the torus
    coordinate tuple (j_1, ..., j_D) lands on (min(j_a, k - j_a))_a in the
    kappa x ... x kappa lattice.
    """
    if dim < 1:
        raise GraphValidationError(f"hypercycle dimension must be >= 1, got {dim}")
    return _product([cycle_to_line(k)] * dim, "product_of_lines")


def partial_hypercycle_convolution(k: int) -> ConvolutionResult:
    """Collapse only one ring factor of the 2D hypercycle, leaving a cylinder.

    The torus (j1, j2) maps to (ring distance of j1, j2) on the product of the
    reduced line with the untouched k-ring.
    """
    ring = ConvolutionResult(build_cycle(k), GroupMap.identity(k), "identity")
    return _product([cycle_to_line(k), ring], "cycle_line")


def _lattice_coords(g: Graph, side: int) -> None:
    """Validate that g is a side x side grid graph in row-major node order."""
    if g.node_count != side * side:
        raise GraphValidationError(
            f"expected a {side}x{side} lattice ({side * side} nodes), got {g.node_count}"
        )
    for i, j, _ in g.edges:
        a, b = divmod(i, side)
        c, d = divmod(j, side)
        if not ((abs(a - c) == 1 and b == d) or (a == c and abs(b - d) == 1)):
            raise GraphValidationError(
                f"edge ({i},{j}) connects non-neighboring lattice sites ({a},{b})-({c},{d})"
            )


def lattice_fold(lattice: Graph, side: int, tol: float = 1e-12) -> ConvolutionResult:
    """Fold a swap-symmetric side x side lattice across its main diagonal.

    Sites (a, b) and (b, a) merge into the unordered pair {a, b}; the folded
    graph lives on the side*(side+1)/2 pairs a <= b.  The partition is
    equitable exactly when the mirror symmetry (a, b) -> (b, a) preserves
    edge weights (within tol).  An edge pair exchanged by the mirror
    collapses to a single edge: where the pair meets the diagonal the two
    incident weights combine in quadrature, sqrt(w_side1^2 + w_side2^2);
    between two off-diagonal pair-nodes the common weight is kept.  The fold
    preserves walk dynamics only for walks started on the diagonal (corner
    (0, 0) in the experiments here).
    """
    _lattice_coords(lattice, side)
    pairs = [(a, b) for a in range(side) for b in range(a, side)]
    index = {ab: p for p, ab in enumerate(pairs)}
    sites = (divmod(v, side) for v in range(lattice.node_count))
    assignment = [index[min(r, c), max(r, c)] for r, c in sites]
    meta = {"family": "folded_lattice", "side": side}
    try:
        return quotient(lattice, assignment, "lattice_fold", pairs, meta, tol)
    except GraphValidationError as exc:
        raise GraphValidationError(f"lattice is not swap-symmetric: {exc}") from exc


def compose_maps(outer: GroupMap, inner: GroupMap) -> GroupMap:
    """Composition witness of two sequential reductions (inner applied first)."""
    if inner.target_count != outer.source_count:
        raise GraphValidationError(
            f"cannot compose: inner targets {inner.target_count} nodes, "
            f"outer expects {outer.source_count}"
        )
    assignment = tuple(outer.assignment[t] for t in inner.assignment)
    return GroupMap(inner.source_count, outer.target_count, assignment)
