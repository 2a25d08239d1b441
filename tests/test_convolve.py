import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwfold.analysis import verify_equivalence
from qwfold.convolve import (
    ConvolutionResult,
    compose_maps,
    cycle_to_line,
    hypercube_to_line,
    hypercycle_to_lattice,
    lattice_fold,
    partial_hypercycle_convolution,
    quotient,
)
from qwfold.dynamics import SinkSpec, TimeGrid
from qwfold.graphs import (
    Graph,
    GraphValidationError,
    GroupMap,
    build_cycle,
    build_hypercube,
    build_hypercycle,
    build_weighted_lattice,
    cartesian_product,
)

R2 = math.sqrt(2)
R3 = math.sqrt(3)
R6 = math.sqrt(6)


def couplings(g):
    return [w for _, _, w in g.edges]


# --- hypercube -> line -------------------------------------------------------


@pytest.mark.parametrize(
    "dim,expected",
    [
        (2, [R2, R2]),
        (3, [R3, 2.0, R3]),
        (4, [2.0, R6, R6, 2.0]),
    ],
)
def test_hypercube_line_couplings(dim, expected):
    conv = hypercube_to_line(dim)
    assert conv.reduced.node_count == dim + 1
    assert conv.method == "hypercube_line"
    np.testing.assert_allclose(couplings(conv.reduced), expected, atol=1e-15)


@pytest.mark.parametrize("dim", range(1, 8))
def test_hypercube_line_couplings_palindromic(dim):
    c = couplings(hypercube_to_line(dim).reduced)
    np.testing.assert_allclose(c, c[::-1], atol=0)


@pytest.mark.parametrize("dim", range(1, 7))
def test_hypercube_map_preimages_are_binomials(dim):
    conv = hypercube_to_line(dim)
    sizes = [len(p) for p in conv.map.preimages()]
    assert sizes == [math.comb(dim, h) for h in range(dim + 1)]
    # node goes to its Hamming weight
    for u in range(1 << dim):
        assert conv.map.assignment[u] == bin(u).count("1")


# --- cycle -> line -----------------------------------------------------------


@pytest.mark.parametrize(
    "k,expected",
    [
        (8, [R2, 1.0, 1.0, R2]),
        (6, [R2, 1.0, R2]),
        (4, [R2, R2]),
    ],
)
def test_cycle_line_couplings(k, expected):
    conv = cycle_to_line(k)
    assert conv.reduced.node_count == k // 2 + 1
    np.testing.assert_allclose(couplings(conv.reduced), expected, atol=1e-15)


def test_cycle4_line_equals_hypercube2_line():
    # the square is the 4-ring, so both rules must agree
    a = cycle_to_line(4).reduced.adjacency_matrix()
    b = hypercube_to_line(2).reduced.adjacency_matrix()
    np.testing.assert_allclose(a, b, atol=1e-15)


def test_cycle_map_is_ring_distance():
    conv = cycle_to_line(8)
    assert conv.map.assignment == (0, 1, 2, 3, 4, 3, 2, 1)
    sizes = [len(p) for p in conv.map.preimages()]
    assert sizes == [1, 2, 2, 2, 1]  # endpoints single, interior doubled


def test_cycle_line_rejects_odd():
    with pytest.raises(GraphValidationError):
        cycle_to_line(7)


# --- hypercycle -> lattice ---------------------------------------------------


def test_torus_k8_lattice_is_5x5():
    conv = hypercycle_to_lattice(2, 8)
    assert conv.reduced.node_count == 25
    assert conv.method == "product_of_lines"


def test_torus_k6_lattice_is_4x4():
    conv = hypercycle_to_lattice(2, 6)
    assert conv.reduced.node_count == 16
    # lattice equals the Kronecker sum of the reduced line with itself
    line = cycle_to_line(6).reduced.adjacency_matrix()
    expected = np.kron(line, np.eye(4)) + np.kron(np.eye(4), line)
    np.testing.assert_array_equal(conv.reduced.adjacency_matrix(), expected)


def test_hypercycle_d1_reduces_like_cycle():
    a = hypercycle_to_lattice(1, 6)
    b = cycle_to_line(6)
    np.testing.assert_array_equal(a.reduced.adjacency_matrix(), b.reduced.adjacency_matrix())
    assert a.map.assignment == b.map.assignment


def test_torus_map_is_per_axis_ring_distance():
    conv = hypercycle_to_lattice(2, 6)
    for j1 in range(6):
        for j2 in range(6):
            expected = min(j1, 6 - j1) * 4 + min(j2, 6 - j2)
            assert conv.map.assignment[j1 * 6 + j2] == expected


# --- partial convolution -----------------------------------------------------


def test_partial_convolution_k6_is_cylinder():
    conv = partial_hypercycle_convolution(6)
    assert conv.reduced.node_count == 4 * 6
    expected = cartesian_product(cycle_to_line(6).reduced, build_cycle(6))
    np.testing.assert_array_equal(
        conv.reduced.adjacency_matrix(), expected.adjacency_matrix()
    )


def test_partial_convolution_k4_size():
    assert partial_hypercycle_convolution(4).reduced.node_count == 3 * 4


def test_partial_convolution_preserves_sink_dynamics():
    # the cylinder's sink curve must coincide with the torus curve
    torus = build_hypercycle(2, 6)
    conv = partial_hypercycle_convolution(6)
    target = 3 * 6 + 3  # farthest corner-to-corner on the torus
    red_target = conv.map.assignment[target]
    grid = TimeGrid(5.0, 0.05)
    dev = verify_equivalence(
        torus,
        0,
        conv,
        0,
        grid,
        sink_mode=(
            SinkSpec(target, torus.node_count, 1.0),
            SinkSpec(red_target, conv.reduced.node_count, 1.0),
        ),
        substep=0.005,
    )
    assert dev < 1e-6


# --- lattice fold ------------------------------------------------------------


def test_fold_node_count_is_triangular():
    lat = hypercycle_to_lattice(2, 6).reduced
    fold = lattice_fold(lat, 4)
    assert fold.reduced.node_count == 4 * 5 // 2
    assert fold.method == "lattice_fold"


@pytest.mark.parametrize("side", [2, 3, 4, 5])
def test_fold_node_count_general(side):
    lat = build_weighted_lattice([1.0] * (side - 1), [1.0] * (side - 1))
    fold = lattice_fold(lat, side)
    assert fold.reduced.node_count == side * (side + 1) // 2


def test_fold_quadrature_doubles_central_sqrt2_edges():
    # conv-torus lattice has sqrt(2) couplings beside the corner; the two
    # mirror-related edges fold into a single edge of weight 2
    lat = hypercycle_to_lattice(2, 6).reduced
    fold = lattice_fold(lat, 4)
    weights = {(i, j): w for i, j, w in fold.reduced.edges}
    corner = 0  # (0,0)
    first_pair = 1  # (0,1) merged with (1,0)
    assert weights[(corner, first_pair)] == pytest.approx(2.0, abs=1e-12)
    # quadrature rule on equal sides: sqrt(w^2 + w^2)
    assert weights[(corner, first_pair)] == pytest.approx(math.hypot(R2, R2), abs=1e-12)


def test_fold_keeps_weight_between_offdiagonal_pairs():
    lat = hypercycle_to_lattice(2, 6).reduced
    fold = lattice_fold(lat, 4)
    labels = {lab: idx for idx, lab in enumerate(fold.reduced.labels)}
    weights = {(i, j): w for i, j, w in fold.reduced.edges}
    a, b = labels[(0, 1)], labels[(0, 2)]
    assert weights[(min(a, b), max(a, b))] == pytest.approx(1.0, abs=1e-12)


def test_fold_map_merges_mirror_sites_only():
    lat = hypercycle_to_lattice(2, 6).reduced
    fold = lattice_fold(lat, 4)
    m = fold.map
    for r in range(4):
        for c in range(4):
            assert m.assignment[r * 4 + c] == m.assignment[c * 4 + r]
    # diagonal stays injective
    diag_images = [m.assignment[r * 4 + r] for r in range(4)]
    assert len(set(diag_images)) == 4


def test_fold_rejects_asymmetric_lattice():
    lat = build_weighted_lattice([1.0, 2.0, 1.0], [1.0, 1.0, 1.0])
    with pytest.raises(GraphValidationError, match="swap-symmetric"):
        lattice_fold(lat, 4)


def test_fold_rejects_non_lattice():
    g = build_cycle(4)
    with pytest.raises(GraphValidationError):
        lattice_fold(g, 2)


def test_fold_preserves_unitary_dynamics_uniform():
    lat = build_weighted_lattice([1.0] * 3, [1.0] * 3)
    fold = lattice_fold(lat, 4)
    dev = verify_equivalence(lat, 0, fold, 0, TimeGrid(10.0, 0.1))
    assert dev < 1e-6


# --- dynamics preservation across the families -------------------------------

GRID = TimeGrid(10.0, 0.1)


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_hypercube_line_equivalence(dim):
    conv = hypercube_to_line(dim)
    dev = verify_equivalence(build_hypercube(dim), 0, conv, 0, GRID)
    assert dev < 1e-8


@pytest.mark.parametrize("k", [4, 6, 8, 10, 12])
def test_cycle_line_equivalence(k):
    conv = cycle_to_line(k)
    dev = verify_equivalence(build_cycle(k), 0, conv, 0, GRID)
    assert dev < 1e-8


@pytest.mark.parametrize("k", [4, 6, 8])
def test_torus_lattice_equivalence(k):
    conv = hypercycle_to_lattice(2, k)
    dev = verify_equivalence(build_hypercycle(2, k), 0, conv, 0, GRID)
    assert dev < 1e-8


def test_two_step_torus_equivalence():
    to_lat = hypercycle_to_lattice(2, 6)
    fold = lattice_fold(to_lat.reduced, 4)
    composed = ConvolutionResult(fold.reduced, compose_maps(fold.map, to_lat.map), "lattice_fold")
    dev = verify_equivalence(build_hypercycle(2, 6), 0, composed, 0, GRID)
    assert dev < 1e-8


# --- map composition ---------------------------------------------------------


def test_compose_with_identity():
    m = GroupMap(4, 2, (0, 0, 1, 1))
    assert compose_maps(m, GroupMap.identity(4)) == m
    assert compose_maps(GroupMap.identity(2), m) == m


def test_compose_torus_chain_counts():
    to_lat = hypercycle_to_lattice(2, 6)
    fold = lattice_fold(to_lat.reduced, 4)
    composed = compose_maps(fold.map, to_lat.map)
    assert composed.source_count == 36
    assert composed.target_count == 10
    assert len({composed.assignment[v] for v in range(36)}) == 10


def test_compose_rejects_mismatched_counts():
    with pytest.raises(GraphValidationError, match="compose"):
        compose_maps(GroupMap(3, 2, (0, 1, 1)), GroupMap(4, 2, (0, 0, 1, 1)))


# --- equitable-partition quotient ----------------------------------------------


def popcount_assignment(dim):
    return [bin(u).count("1") for u in range(1 << dim)]


@pytest.mark.parametrize("dim", range(1, 11))
def test_hypercube_closed_form_equals_quotient_bitwise(dim):
    closed = hypercube_to_line(dim)
    generic = quotient(build_hypercube(dim), popcount_assignment(dim), "hypercube_line")
    assert generic.reduced.node_count == closed.reduced.node_count
    assert generic.reduced.edges == closed.reduced.edges  # exact float equality
    assert generic.map == closed.map


@pytest.mark.parametrize("k", range(4, 60, 2))
def test_cycle_line_matches_closed_form_bitwise(k):
    expected = [R2] + [1.0] * (k // 2 - 2) + [R2]
    assert couplings(cycle_to_line(k).reduced) == expected


def test_quotient_rejects_non_equitable_partition():
    # path 0-1-2-3 with cells {0, 3}, {1}, {2}: node 0 sends weight 1 into
    # cell {1}, node 3 sends 0, so each strays 0.5 from the cell mean
    path = Graph(4, ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)))
    with pytest.raises(GraphValidationError, match=r"not equitable: residual 5\.000e-01"):
        quotient(path, [0, 1, 2, 0], "bad")


def test_quotient_rejects_edge_inside_cell():
    with pytest.raises(GraphValidationError, match="inside cell 1"):
        quotient(build_cycle(4), [0, 1, 1, 2], "bad")


def test_quotient_of_discrete_partition_is_the_graph():
    g = build_weighted_lattice([0.5, 2.0], [1.5, 0.25])
    conv = quotient(g, range(g.node_count), "identity")
    assert conv.reduced.edges == g.edges


@st.composite
def mirror_symmetric_lattices(draw):
    """Square lattice whose weights satisfy w(a,b ~ a,b+1) = w(b,a ~ b+1,a)."""
    side = draw(st.integers(2, 5))
    weight = st.floats(0.05, 5.0, allow_nan=False, allow_infinity=False)
    edges = []
    for a in range(side):
        for b in range(side - 1):
            w = draw(weight)
            edges.append((a * side + b, a * side + b + 1, w))  # row step
            edges.append((b * side + a, (b + 1) * side + a, w))  # its mirror image
    return side, Graph(side * side, tuple(edges))


@settings(max_examples=40, deadline=None)
@given(mirror_symmetric_lattices())
def test_fold_preserves_unitary_dynamics_random_mirror_lattice(case):
    side, lattice = case
    fold = lattice_fold(lattice, side)
    assert fold.reduced.node_count == side * (side + 1) // 2
    assert verify_equivalence(lattice, 0, fold, 0, TimeGrid(4.0, 0.1)) < 1e-8
