import io
import json
import math

import numpy as np
import pytest

from qwfold.graphs import (
    Graph,
    GraphFamilySpec,
    GraphValidationError,
    GroupMap,
    build_cycle,
    build_hypercube,
    build_hypercycle,
    build_weighted_lattice,
    build_weighted_line,
    cartesian_factors,
    cartesian_power,
    cartesian_product,
    distance_matrix,
    graph_distance,
    graph_to_document,
    load_graph,
    load_group_map,
    save_graph,
    save_group_map,
    translation_group,
)


def bfs_oracle(g: Graph, source: int) -> list:
    """Independent breadth-first search used to cross-check graph_distance."""
    adj = [[] for _ in range(g.node_count)]
    for i, j, _ in g.edges:
        adj[i].append(j)
        adj[j].append(i)
    dist = [None] * g.node_count
    dist[source] = 0
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if dist[v] is None:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


# --- cycles -----------------------------------------------------------------


def test_cycle4_edge_set():
    g = build_cycle(4)
    assert g.node_count == 4
    assert {(i, j) for i, j, _ in g.edges} == {(0, 1), (1, 2), (2, 3), (0, 3)}
    assert all(w == 1.0 for _, _, w in g.edges)


def test_cycle6_is_2_regular():
    g = build_cycle(6)
    assert g.node_count == 6 and g.edge_count == 6
    assert set(g.degrees()) == {2}


def test_cycle8_spectrum_matches_ring_cosines():
    # ring eigenvalues are 2 cos(2 pi m / k)
    g = build_cycle(8)
    vals = np.sort(np.linalg.eigvalsh(g.adjacency_matrix()))
    expected = np.sort([2 * math.cos(2 * math.pi * m / 8) for m in range(8)])
    np.testing.assert_allclose(vals, expected, atol=1e-12)
    r2 = math.sqrt(2)
    np.testing.assert_allclose(
        sorted(vals, reverse=True), [2, r2, r2, 0, 0, -r2, -r2, -2], atol=1e-12
    )


@pytest.mark.parametrize("k", [3, 5, 2, 0, -4])
def test_cycle_rejects_odd_or_small(k):
    with pytest.raises(GraphValidationError, match="even"):
        build_cycle(k)


# --- hypercubes -------------------------------------------------------------


def test_hypercube1_is_single_edge():
    g = build_hypercube(1)
    assert g.node_count == 2
    assert g.edges == ((0, 1, 1.0),)


def test_hypercube3_shape_and_spectrum():
    g = build_hypercube(3)
    assert g.node_count == 8 and g.edge_count == 12
    assert set(g.degrees()) == {3}
    vals = sorted(np.linalg.eigvalsh(g.adjacency_matrix()), reverse=True)
    np.testing.assert_allclose(vals, [3, 1, 1, 1, -1, -1, -1, -3], atol=1e-12)


def test_hypercube_labels_are_bitstrings():
    g = build_hypercube(3)
    for u in range(8):
        bits = g.labels[u]
        assert int("".join(map(str, bits)), 2) == u
    # adjacency iff Hamming distance one
    a = g.adjacency_matrix()
    for u in range(8):
        for v in range(8):
            ham = bin(u ^ v).count("1")
            assert (a[u, v] == 1.0) == (ham == 1)


def test_hypercube2_isomorphic_to_cycle4():
    g = build_hypercube(2)
    # explicit relabeling: square corners in ring order
    perm = [0, 1, 3, 2]
    a = g.adjacency_matrix()[np.ix_(perm, perm)]
    np.testing.assert_array_equal(a, build_cycle(4).adjacency_matrix())


def test_hypercube_dimension_guard():
    with pytest.raises(GraphValidationError):
        build_hypercube(0)
    with pytest.raises(GraphValidationError, match="limit"):
        build_hypercube(20)


# --- weighted lines ---------------------------------------------------------


def test_weighted_line_single_edge():
    g = build_weighted_line([1.0])
    assert g.node_count == 2 and g.edges == ((0, 1, 1.0),)


def test_weighted_line_cube_convolution_weights():
    r3 = math.sqrt(3)
    g = build_weighted_line([r3, 2.0, r3])
    assert g.node_count == 4
    np.testing.assert_allclose([w for _, _, w in g.edges], [r3, 2.0, r3])


def test_weighted_line_rejects_bad_couplings():
    with pytest.raises(GraphValidationError):
        build_weighted_line([])
    with pytest.raises(GraphValidationError):
        build_weighted_line([1.0, -2.0])
    with pytest.raises(GraphValidationError):
        build_weighted_line([0.0])


# --- cartesian product ------------------------------------------------------


def test_k2_times_k2_is_square():
    k2 = build_hypercube(1)
    g = cartesian_product(k2, k2)
    assert g.node_count == 4 and g.edge_count == 4
    assert set(g.degrees()) == {2}


def test_product_adjacency_equals_kronecker_sum():
    r2 = math.sqrt(2)
    line = build_weighted_line([r2, 1.0, r2])
    g = cartesian_product(line, line)
    l_mat = line.adjacency_matrix()
    eye = np.eye(4)
    expected = np.kron(l_mat, eye) + np.kron(eye, l_mat)
    assert g.node_count == 16
    np.testing.assert_array_equal(g.adjacency_matrix(), expected)


def test_product_of_unequal_factors():
    g = cartesian_product(build_cycle(4), build_weighted_line([3.0]))
    a_c, a_l = build_cycle(4).adjacency_matrix(), build_weighted_line([3.0]).adjacency_matrix()
    expected = np.kron(a_c, np.eye(2)) + np.kron(np.eye(4), a_l)
    np.testing.assert_array_equal(g.adjacency_matrix(), expected)


def test_product_labels_are_coordinate_tuples():
    g = cartesian_product(build_cycle(4), build_cycle(6))
    assert g.labels[1 * 6 + 5] == (1, 5)


# --- hypercycles ------------------------------------------------------------


def test_hypercycle_d1_equals_cycle():
    g = build_hypercycle(1, 8)
    assert g.adjacency_matrix().tolist() == build_cycle(8).adjacency_matrix().tolist()


@pytest.mark.parametrize("k,nodes,edges", [(4, 16, 32), (6, 36, 72), (8, 64, 128)])
def test_torus_is_4_regular(k, nodes, edges):
    g = build_hypercycle(2, k)
    assert g.node_count == nodes and g.edge_count == edges
    assert set(g.degrees()) == {4}


def test_torus_matches_kronecker_sum_of_rings():
    g = build_hypercycle(2, 6)
    ring = build_cycle(6).adjacency_matrix()
    expected = np.kron(ring, np.eye(6)) + np.kron(np.eye(6), ring)
    np.testing.assert_array_equal(g.adjacency_matrix(), expected)


def test_hypercycle_scale_guard():
    with pytest.raises(GraphValidationError, match="node"):
        build_hypercycle(4, 10)  # 10^4 nodes


def test_hypercube_equals_k2_power():
    direct = build_hypercube(3).adjacency_matrix()
    powered = cartesian_power(build_hypercube(1), 3).adjacency_matrix()
    np.testing.assert_array_equal(direct, powered)


# --- constructor-wide invariants --------------------------------------------


ALL_FAMILIES = [
    build_cycle(4),
    build_cycle(8),
    build_hypercube(2),
    build_hypercube(4),
    build_hypercycle(2, 6),
    build_weighted_line([math.sqrt(3), 2.0, math.sqrt(3)]),
    build_weighted_lattice([1.0, 1.0, 1.0], [1.0, 1.0, 1.0]),
]


@pytest.mark.parametrize("g", ALL_FAMILIES, ids=lambda g: f"n{g.node_count}e{g.edge_count}")
def test_adjacency_symmetric_zero_diagonal(g):
    a = g.adjacency_matrix()
    np.testing.assert_array_equal(a, a.T)
    assert np.all(np.diag(a) == 0)


@pytest.mark.parametrize("g", ALL_FAMILIES, ids=lambda g: f"n{g.node_count}e{g.edge_count}")
def test_distance_triangle_inequality_all_triples(g):
    if g.node_count > 36:
        pytest.skip("exhaustive triple check capped at 36 nodes")
    d = distance_matrix(g)
    assert np.all(d >= 0)
    # d[u,v] <= d[u,w] + d[w,v] for every triple
    n = g.node_count
    for u in range(n):
        for w in range(n):
            assert np.all(d[u, :] <= d[u, w] + d[w, :])


# --- distances --------------------------------------------------------------


def test_cycle8_antipodal_distance():
    assert graph_distance(build_cycle(8), 0, 4) == 4


def test_hypercube_distance_is_hamming():
    g = build_hypercube(3)
    assert graph_distance(g, 0b000, 0b111) == 3
    for u in range(8):
        for v in range(8):
            assert graph_distance(g, u, v) == bin(u ^ v).count("1")


def test_torus_distance_matches_bfs_oracle():
    g = build_hypercycle(2, 6)
    corner, target = 0, 3 * 6 + 3
    oracle = bfs_oracle(g, corner)
    assert oracle[target] == 6
    assert graph_distance(g, corner, target) == 6
    for v in range(36):
        assert graph_distance(g, corner, v) == oracle[v]


def test_distance_properties():
    g = build_cycle(6)
    assert graph_distance(g, 2, 2) == 0
    assert graph_distance(g, 1, 4) == graph_distance(g, 4, 1)


def test_unreachable_distance_is_none():
    g = Graph(4, ((0, 1, 1.0), (2, 3, 1.0)))
    assert graph_distance(g, 0, 3) is None


# --- validation -------------------------------------------------------------


def test_graph_rejects_self_loop():
    with pytest.raises(GraphValidationError, match="self-loop"):
        Graph(3, ((1, 1, 1.0),))


def test_graph_rejects_duplicate_pair():
    with pytest.raises(GraphValidationError, match="duplicate"):
        Graph(3, ((0, 1, 1.0), (1, 0, 2.0)))


def test_graph_rejects_nonpositive_weight():
    with pytest.raises(GraphValidationError):
        Graph(3, ((0, 1, 0.0),))
    with pytest.raises(GraphValidationError):
        Graph(3, ((0, 1, -0.5),))


@pytest.mark.parametrize(
    "args",
    [(2, ((0.5, 1, 1.0),)),
     (2, ((0, 1, 1.0),), ((0.7,), (1.2,))),
     (2.5, ((0, 1, 1.0),)),
     (True, ()),
     (2, ((True, 1, 1.0),)),
     (2, ((0, np.float64(1.0), 1.0),)),
     (2, ((0, 1, True),)),
     (2, ((0, 1, np.bool_(True)),)),
     (2, ((0, 1, 1.0),), (("0",), (1,))),
     (2, ((0, 1, "1"),)),
     (2, ((0, 1, None),)),
     (2, ((0, 1, 1j),)),
     (3, ((0, 1, 1.0), (1, 2, "2")))],
    ids=["fractional-endpoint", "fractional-labels", "fractional-nodes", "bool-nodes",
         "bool-endpoint", "float-endpoint", "bool-weight", "numpy-bool-weight", "string-label",
         "string-weight", "none-weight", "complex-weight", "one-string-weight-among-floats"],
)
def test_graph_rejects_non_integer_indices(args):
    with pytest.raises(GraphValidationError, match="integer|number"):
        Graph(*args)


def test_graph_accepts_numpy_integers():
    g = Graph(np.int64(3), ((np.int32(0), np.int64(2), 1.5), (1, 2, 2.0)),
              labels=((np.int8(0),), (1,), (np.uint16(2),)))
    assert g == Graph(3, ((0, 2, 1.5), (1, 2, 2.0)), labels=((0,), (1,), (2,)))
    assert all(type(x) is int for x in (g.node_count, *g.edges[0][:2], *g.labels[2]))
    json.dumps(graph_to_document(g))


def test_group_map_requires_surjectivity():
    with pytest.raises(GraphValidationError, match="surjective"):
        GroupMap(3, 3, (0, 0, 1))
    GroupMap(3, 2, (0, 0, 1))  # fine


@pytest.mark.parametrize(
    "entries",
    [(0, 1.7, True), (0, 1.0, 1), (0, True, 1), (0, np.float64(1.0), 1), (0, np.bool_(True), 1), (0, "1", 1)],
)
def test_group_map_rejects_non_integer_entries(entries):
    with pytest.raises(GraphValidationError, match="integers"):
        GroupMap(3, 2, entries)


def test_group_map_accepts_numpy_integers():
    m = GroupMap(3, 2, (np.int64(0), np.int32(1), 1))
    assert m.assignment == (0, 1, 1)
    assert all(type(a) is int for a in m.assignment)


# --- serialization ----------------------------------------------------------


def test_save_load_round_trip(tmp_path):
    g = build_cycle(4)
    path = tmp_path / "cycle.json"
    save_graph(g, path)
    loaded = load_graph(path)
    np.testing.assert_array_equal(loaded.adjacency_matrix(), g.adjacency_matrix())
    assert loaded.labels == g.labels
    assert loaded.meta == g.meta


def test_round_trip_preserves_weights_exactly(tmp_path):
    g = build_weighted_line([math.sqrt(3), 2.0, math.sqrt(3)])
    path = tmp_path / "line.json"
    save_graph(g, path)
    assert load_graph(path).edges == g.edges


def test_document_shape():
    buf = io.StringIO()
    save_graph(build_cycle(4), buf)
    doc = json.loads(buf.getvalue())
    assert doc["nodes"] == 4
    assert doc["edges"] == [[0, 1, 1.0], [0, 3, 1.0], [1, 2, 1.0], [2, 3, 1.0]]
    assert all(i < j for i, j, _ in doc["edges"])


def test_load_rejects_negative_weight():
    doc = json.dumps({"nodes": 2, "edges": [[0, 1, -1.0]]})
    with pytest.raises(GraphValidationError):
        load_graph(io.StringIO(doc))


def test_load_rejects_duplicate_orientations():
    doc = json.dumps({"nodes": 2, "edges": [[0, 1, 1.0], [1, 0, 2.0]]})
    with pytest.raises(GraphValidationError, match="duplicate"):
        load_graph(io.StringIO(doc))


def test_load_rejects_malformed_json():
    with pytest.raises(GraphValidationError, match="malformed"):
        load_graph(io.StringIO("{not json"))


def test_load_reports_bad_edge_entry():
    doc = json.dumps({"nodes": 2, "edges": [[0, 1]]})
    with pytest.raises(GraphValidationError, match="edge #0"):
        load_graph(io.StringIO(doc))


def test_group_map_round_trip(tmp_path):
    m = GroupMap(4, 2, (0, 1, 1, 0))
    path = tmp_path / "map.json"
    save_group_map(m, path)
    assert load_group_map(path) == m


# --- family specs -----------------------------------------------------------


def test_family_spec_builds():
    assert GraphFamilySpec("hypercube", dim=3).build().node_count == 8
    assert GraphFamilySpec("cycle", k=6).build().node_count == 6
    assert GraphFamilySpec("hypercycle", dim=2, k=6).build().node_count == 36
    assert GraphFamilySpec("weighted_line", couplings=(1.0, 2.0)).build().node_count == 3
    lat = GraphFamilySpec(
        "weighted_lattice", row_couplings=(1.0,), col_couplings=(2.0,)
    ).build()
    assert lat.node_count == 4


def test_family_spec_rejects_unknown():
    with pytest.raises(GraphValidationError):
        GraphFamilySpec("moebius").build()


# --- malformed documents ------------------------------------------------------


@pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf])
def test_graph_rejects_non_finite_weight(weight):
    with pytest.raises(GraphValidationError):
        Graph(2, ((0, 1, weight),))


def test_weighted_line_rejects_non_finite_couplings():
    with pytest.raises(GraphValidationError, match="non-finite"):
        build_weighted_line([math.nan, math.inf])


@pytest.mark.parametrize(
    "text",
    [
        '{"nodes": 2, "edges": [[0, 1, NaN]]}',
        '{"nodes": 2, "edges": [[0, 1, Infinity]]}',
        '{"nodes": 2, "edges": 5}',
        '{"nodes": 2, "edges": null}',
        '{"nodes": 2, "edges": [[0, 1, 1.0]], "labels": 7}',
        '{"nodes": 2, "edges": [[0, 1, 1.0]], "labels": [3, 4]}',
        '{"nodes": 2, "edges": [[0, 1, 1.0]], "labels": [["a"], ["b"]]}',
        '{"nodes": 2, "edges": [[false, true, 1.0]]}',
        '{"nodes": true, "edges": []}',
        '{"nodes": 2, "edges": [[0, 1, true]]}',
    ],
    ids=["nan-weight", "inf-weight", "edges-number", "edges-null", "labels-number",
         "label-not-array", "label-not-int", "bool-endpoints", "bool-nodes", "bool-weight"],
)
def test_load_graph_rejects_malformed_document(text):
    with pytest.raises(GraphValidationError):
        load_graph(io.StringIO(text))


@pytest.mark.parametrize(
    "text",
    [
        '{"assignment": 3}',
        '{"assignment": {"0": 1}}',
        '{"assignment": [0, 1.7, 1]}',
        '{"assignment": [0, true, 1]}',
        '{"assignment": [0, "1"]}',
    ],
    ids=["number", "object", "fractional", "bool", "string"],
)
def test_load_group_map_rejects_malformed_document(text):
    with pytest.raises(GraphValidationError):
        load_group_map(io.StringIO(text))


def test_save_graph_bytes_match_json_dump(tmp_path):
    g = build_weighted_line([math.sqrt(3), 2.0, math.sqrt(3)])
    path = tmp_path / "line.json"
    save_graph(g, path)
    buf = io.StringIO()
    save_graph(g, buf)
    expected = json.dumps(graph_to_document(g), indent=1)
    assert path.read_bytes() == expected.encode("utf-8")
    assert buf.getvalue() == expected


# --- translations ------------------------------------------------------------------


def _torus_variant(edit):
    torus = build_hypercycle(2, 4)
    edges, labels = list(torus.edges), list(torus.labels)
    edit(edges, labels)
    return Graph(torus.node_count, tuple(edges), tuple(labels))


@pytest.mark.parametrize(
    "g,k,dim",
    [(build_cycle(8), 8, 1), (build_hypercycle(2, 6), 6, 2), (build_hypercycle(3, 4), 4, 3),
     (build_hypercube(5), 2, 5)],
    ids=["ring", "torus", "hypercycle3", "hypercube"],
)
def test_translation_group_of_cayley_graphs(g, k, dim):
    shifts = translation_group(g)
    assert (shifts.k, shifts.dim) == (k, dim)
    # label(u) - label(v) mod k, read back as a row-major index
    for u, v in [(0, 1), (g.node_count - 1, 3), (5, 5), (2, g.node_count - 2)]:
        diff = tuple((a - b) % k for a, b in zip(g.labels[u], g.labels[v]))
        assert g.labels[shifts.difference(u, v)] == diff
    if k == 2:
        assert shifts.difference(13, 6) == 13 ^ 6


def _reweigh_first_edge(edges, labels):
    i, j, w = edges[0]
    edges[0] = (i, j, w * 1.5)


def _swap_two_labels(edges, labels):
    labels[0], labels[1] = labels[1], labels[0]


@pytest.mark.parametrize(
    "g",
    [_torus_variant(_reweigh_first_edge),
     _torus_variant(_swap_two_labels),
     build_weighted_lattice([1.0, 1.0, 1.0], [1.0, 1.0, 1.0]),
     build_weighted_line([1.0, 1.0, 1.0]),
     Graph(4, ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0))),
     Graph(3, ((0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)), ((0, 0), (0, 1), (1, 0)))],
    ids=["torus-one-weight", "torus-swapped-labels", "weighted-lattice", "weighted-line",
         "unlabelled", "incomplete-grid"],
)
def test_translation_group_rejects_other_graphs(g):
    assert translation_group(g) is None


# --- Cartesian factors ---------------------------------------------------------------


def _ring(n, w):
    """n-node ring of weight w; any n >= 3, unlike build_cycle."""
    return Graph(n, tuple((i, (i + 1) % n, w) for i in range(n)))


def _edge_line(w):
    return build_weighted_line([w])


@pytest.mark.parametrize(
    "g,factors",
    [(build_hypercycle(2, 6), [build_cycle(6)] * 2),
     (build_hypercycle(3, 4), [build_cycle(4)] * 3),
     (build_hypercube(7), [build_hypercube(1)] * 7),
     (build_weighted_lattice([0.5, 1.0, 2.0], [1.0, 1.5]),
      [build_weighted_line([0.5, 1.0, 2.0]), build_weighted_line([1.0, 1.5])]),
     (cartesian_product(_edge_line(1.3), _ring(5, 0.7)), [_edge_line(1.3), _ring(5, 0.7)])],
    ids=["torus6", "hypercycle444", "7-cube", "weighted-lattice4x3", "mixed2x5"],
)
def test_cartesian_factors_of_products(g, factors):
    found = cartesian_factors(g)
    assert len(found) == len(factors)
    for matrix, factor in zip(found, factors):
        np.testing.assert_array_equal(matrix, factor.adjacency_matrix())


def _add_diagonal_edge(edges, labels):
    edges.append((0, 5, 1.0))  # (0, 0) - (1, 1): two coordinates move


def _diagonal_edge_for_a_copy(edges, labels):
    # (1,1)-(1,2) becomes (1,1)-(2,2): the edge count and every weight still match
    edges[edges.index((5, 6, 1.0))] = (5, 10, 1.0)


def _reweigh_last_edge(edges, labels):
    i, j, w = edges[-1]
    edges[-1] = (i, j, w * 1.5)  # a copy away from the origin slice


def _drop_one_edge(edges, labels):
    del edges[-1]


def _ragged_labels(edges, labels):
    labels[3] = labels[3] + (0,)


def _negative_labels(edges, labels):
    labels[:] = [(a - 1, b) for a, b in labels]


def _no_labels(g):
    return Graph(g.node_count, g.edges)


NON_PRODUCTS = [
    _torus_variant(_reweigh_first_edge),
    _torus_variant(_reweigh_last_edge),
    _torus_variant(_swap_two_labels),
    _torus_variant(_add_diagonal_edge),
    _torus_variant(_diagonal_edge_for_a_copy),
    _torus_variant(_drop_one_edge),
    _torus_variant(_ragged_labels),
    _torus_variant(_negative_labels),
    _no_labels(build_hypercycle(2, 4)),
]
NON_PRODUCT_IDS = ["one-weight", "one-weight-off-origin", "swapped-labels", "diagonal-edge", "diagonal-for-a-copy",
                   "missing-copy", "ragged-labels", "negative-labels", "no-labels"]


@pytest.mark.parametrize("g", NON_PRODUCTS, ids=NON_PRODUCT_IDS)
def test_cartesian_factors_of_non_products_is_the_graph(g):
    (factor,) = cartesian_factors(g)
    np.testing.assert_array_equal(factor, g.adjacency_matrix())
    assert translation_group(g) is None


@pytest.mark.parametrize(
    "g", [build_cycle(8), build_weighted_line([1.0, 2.0]), Graph(4, ((0, 1, 1.0),))],
    ids=["one-axis-ring", "one-axis-line", "unlabelled"],
)
def test_cartesian_factors_of_single_axis_graphs(g):
    (factor,) = cartesian_factors(g)
    np.testing.assert_array_equal(factor, g.adjacency_matrix())
