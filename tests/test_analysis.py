import math
import warnings

import numpy as np
import pytest

from qwfold.analysis import (
    EigensolverConvergenceError,
    Spectrum,
    _round_robin,
    distinct_eigenvalues,
    equiprobable_groups,
    jacobi_eigenvalues,
    minimality_report,
    spectrum,
    verify_equivalence,
    weight_unit,
)
from qwfold.convolve import (
    ConvolutionResult,
    cycle_to_line,
    hypercube_to_line,
    hypercycle_to_lattice,
    lattice_fold,
)
from qwfold.dynamics import TimeGrid
from qwfold.graphs import (
    Graph,
    GraphValidationError,
    GroupMap,
    build_cycle,
    build_hypercube,
    build_hypercycle,
    build_weighted_lattice,
    build_weighted_line,
)

R2 = math.sqrt(2)


# --- jacobi solver -------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 5, 10, 24, 36])
def test_jacobi_matches_lapack_on_random_symmetric(n):
    rng = np.random.default_rng(n)
    a = rng.normal(size=(n, n))
    a = (a + a.T) / 2.0
    mine = np.sort(jacobi_eigenvalues(a))
    ref = np.sort(np.linalg.eigvalsh(a))
    np.testing.assert_allclose(mine, ref, atol=1e-10)


def test_jacobi_leaves_input_untouched():
    a = build_cycle(6).adjacency_matrix()
    before = a.copy()
    jacobi_eigenvalues(a)
    np.testing.assert_array_equal(a, before)


def test_jacobi_rejects_asymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        jacobi_eigenvalues(np.array([[0.0, 1.0], [2.0, 0.0]]))


def test_jacobi_reports_non_convergence():
    a = build_cycle(8).adjacency_matrix()
    with pytest.raises(EigensolverConvergenceError, match="sweeps"):
        jacobi_eigenvalues(a, max_sweeps=1)


def _random_symmetric(n):
    a = np.random.default_rng(n).normal(size=(n, n))
    return (a + a.T) / 2.0


JACOBI_CASES = {
    "cube7": build_hypercube(7).adjacency_matrix(),
    "torus12": build_hypercycle(2, 12).adjacency_matrix(),
    "odd3": _random_symmetric(3),
    "odd5": _random_symmetric(5),
    "odd51": _random_symmetric(51),
    "zero": np.zeros((6, 6)),
    "diagonal": np.diag([3.0, -1.0, 3.0, 0.5, 2.0]),
    "weights1e9": build_weighted_lattice((1e9,) * 3, (1e9,) * 3).adjacency_matrix(),
    # pairs across blocks have a_pq = 0 and a_pp = a_qq: theta would be 0/0
    "equal-diagonal-blocks": np.kron(np.eye(3), [[1.0, 2.0], [2.0, 1.0]]),
}


@pytest.mark.parametrize("a", JACOBI_CASES.values(), ids=JACOBI_CASES.keys())
def test_jacobi_matches_lapack_relative(a):
    mine = jacobi_eigenvalues(a)
    ref = np.linalg.eigvalsh(a)
    assert np.isfinite(mine).all()
    np.testing.assert_allclose(np.sort(mine), ref, rtol=0, atol=1e-12 * np.abs(ref).max())
    np.testing.assert_array_equal(jacobi_eigenvalues(a), mine)


@pytest.mark.parametrize("n", range(2, 10))
def test_round_robin_steps_cover_every_pair_once(n):
    steps = _round_robin(n)
    assert len(steps) == n - 1 + n % 2
    pairs = []
    for p, q in steps:
        assert (p < q).all() and len(set(p) | set(q)) == 2 * len(p)  # disjoint within a step
        pairs += zip(p.tolist(), q.tolist())
    assert sorted(pairs) == [(p, q) for p in range(n) for q in range(p + 1, n)]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_jacobi_rejects_non_finite(bad):
    a = build_cycle(4).adjacency_matrix()
    a[0, 2] = a[2, 0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        jacobi_eigenvalues(a)


# --- spectra ---------------------------------------------------------------------


def test_cycle4_spectrum():
    s = spectrum(build_cycle(4))
    np.testing.assert_allclose(s.values, [2.0, 0.0, 0.0, -2.0], atol=1e-10)


def test_hypercube3_spectrum():
    s = spectrum(build_hypercube(3))
    np.testing.assert_allclose(s.values, [3, 1, 1, 1, -1, -1, -1, -3], atol=1e-10)


def test_weighted_line_spectrum_cube_convolution():
    s = spectrum(build_weighted_line([math.sqrt(3), 2.0, math.sqrt(3)]))
    np.testing.assert_allclose(s.values, [3.0, 1.0, -1.0, -3.0], atol=1e-10)


def test_cycle8_spectrum_and_distinct():
    s = spectrum(build_cycle(8))
    np.testing.assert_allclose(
        s.values, [2, R2, R2, 0, 0, -R2, -R2, -2], atol=1e-10
    )
    d = distinct_eigenvalues(s, 1e-6)
    np.testing.assert_allclose(d, [2, R2, 0, -R2, -2], atol=1e-10)
    # 4-digit reference values
    np.testing.assert_allclose(d, [2, 1.4142, 0, -1.4142, -2], atol=1e-3)


def test_distinct_hypercube3():
    d = distinct_eigenvalues(spectrum(build_hypercube(3)), 1e-6)
    np.testing.assert_allclose(d, [3, 1, -1, -3], atol=1e-10)


def test_distinct_cycle4():
    d = distinct_eigenvalues(spectrum(build_cycle(4)), 1e-6)
    np.testing.assert_allclose(d, [2, 0, -2], atol=1e-10)


BIG_LINE = (1e9, 2e9, 5e8, 3e9)


@pytest.mark.parametrize(
    "g",
    [build_weighted_line(BIG_LINE), build_weighted_lattice((1e9,) * 3, (1e9,) * 3)],
    ids=["line", "lattice4x4"],
)
def test_spectrum_of_large_weights_matches_lapack(g):
    # the trace guard scales with the couplings; 1e-8 absolute rejects these
    values = np.array(spectrum(g).values)
    ref = np.sort(np.linalg.eigvalsh(g.adjacency_matrix()))[::-1]
    np.testing.assert_allclose(values, ref, rtol=0, atol=1e-12 * np.abs(ref).max())


def test_minimality_of_large_weights():
    report = minimality_report(build_weighted_line(BIG_LINE), 0)
    assert report["eigenvalues"]["full"] == list(spectrum(build_weighted_line(BIG_LINE)).values)
    assert report["verdict"] == "CONSISTENT"


@pytest.mark.parametrize("g", [build_cycle(8), build_weighted_line(BIG_LINE)], ids=["unit", "large"])
def test_spectrum_trace_guard_catches_wrong_eigenvalue(monkeypatch, g):
    from qwfold import analysis

    solve = analysis.jacobi_eigenvalues

    def shifted(matrix):
        vals = solve(matrix)
        vals[0] += 1e-6 * max(1.0, np.abs(matrix).max())
        return vals

    monkeypatch.setattr(analysis, "jacobi_eigenvalues", shifted)
    with pytest.raises(EigensolverConvergenceError, match="zero trace"):
        spectrum(g)


def test_distinct_warns_on_ambiguous_gap():
    s = Spectrum((1.0, 0.9999, 0.0))  # gap 1e-4
    with pytest.warns(UserWarning, match="ambiguous"):
        out = distinct_eigenvalues(s, 9e-5)
    assert len(out) == 3


@pytest.mark.parametrize(
    "make_orig,make_conv",
    [
        (lambda: build_hypercube(2), lambda: hypercube_to_line(2)),
        (lambda: build_hypercube(3), lambda: hypercube_to_line(3)),
        (lambda: build_hypercube(4), lambda: hypercube_to_line(4)),
        (lambda: build_cycle(4), lambda: cycle_to_line(4)),
        (lambda: build_cycle(6), lambda: cycle_to_line(6)),
        (lambda: build_cycle(8), lambda: cycle_to_line(8)),
    ],
)
def test_reduced_spectrum_is_distinct_set_of_original(make_orig, make_conv):
    orig = make_orig()
    conv = make_conv()
    distinct = distinct_eigenvalues(spectrum(orig), 1e-6)
    reduced_spec = spectrum(conv.reduced).values
    assert len(reduced_spec) == len(distinct)
    np.testing.assert_allclose(reduced_spec, distinct, atol=1e-9)


def test_true_2d_hypercycle_distinct_matches_lattice_distinct():
    # the genuine 64-node (D=2, k=8) hypercycle: its distinct eigenvalues
    # coincide with the distinct eigenvalues of its 5x5 lattice reduction
    torus = build_hypercycle(2, 8)
    lattice = hypercycle_to_lattice(2, 8).reduced
    d_torus = distinct_eigenvalues(spectrum(torus), 1e-6)
    d_lattice = distinct_eigenvalues(spectrum(lattice), 1e-6)
    np.testing.assert_allclose(d_torus, d_lattice, atol=1e-9)
    # and both differ from the 1D k=8 list: the 2D spectrum is the sumset
    ring_vals = np.array(distinct_eigenvalues(spectrum(build_cycle(8)), 1e-6))
    sumset = sorted({round(a + b, 9) for a in ring_vals for b in ring_vals}, reverse=True)
    np.testing.assert_allclose(d_torus, sumset, atol=1e-9)


# --- equiprobable groups ---------------------------------------------------------


def test_hypercube3_groups_are_hamming_shells():
    part = equiprobable_groups(build_hypercube(3), 0)
    assert part.group_count == 4
    assert [len(g) for g in part.groups] == [1, 3, 3, 1]
    assert part.distances == (0, 1, 2, 3)
    for nodes, d in zip(part.groups, part.distances):
        for u in nodes:
            assert bin(u).count("1") == d


def test_cycle6_groups():
    part = equiprobable_groups(build_cycle(6), 0)
    assert [len(g) for g in part.groups] == [1, 2, 2, 1]


def test_lattice_groups_by_distance_layout():
    # convoluted-torus 4x4 lattice from the corner: d=1 has one pair-group,
    # d=2 splits into a pair and a singleton
    lat = hypercycle_to_lattice(2, 6).reduced
    part = equiprobable_groups(lat, 0)
    by_d = {}
    for nodes, d in zip(part.groups, part.distances):
        by_d.setdefault(d, []).append(len(nodes))
    assert by_d[1] == [2]
    assert sorted(by_d[2]) == [1, 2]


def test_group_probability_sums_to_one():
    part = equiprobable_groups(build_hypercycle(2, 6), 0)
    totals = part.probabilities.sum(axis=0)
    np.testing.assert_allclose(totals, 1.0, atol=1e-9)


def test_group_refinement_monotone_in_tol():
    g = build_hypercycle(2, 6)
    coarse = equiprobable_groups(g, 0, tol=1e-6)
    fine = equiprobable_groups(g, 0, tol=5e-7)
    # halving tol can only split groups, never merge
    coarse_of = {}
    for gi, nodes in enumerate(coarse.groups):
        for v in nodes:
            coarse_of[v] = gi
    for nodes in fine.groups:
        assert len({coarse_of[v] for v in nodes}) == 1


def test_groups_reject_bad_sample_times():
    with pytest.raises(ValueError):
        equiprobable_groups(build_cycle(4), 0, sample_times=[])
    with pytest.raises(ValueError):
        equiprobable_groups(build_cycle(4), 0, sample_times=[0.0, 1.0])


def test_groups_merge_unreachable_nodes():
    # 2 and 3 are out of reach of 0: both stay at probability 0, one group
    part = equiprobable_groups(Graph(4, ((0, 1, 1.0), (2, 3, 1.0))), 0)
    assert part.groups == ((0,), (1,), (2, 3))
    assert part.distances == (0, 1, -1)
    np.testing.assert_allclose(part.probabilities.sum(axis=0), 1.0, atol=1e-12)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan], ids=["zero", "negative", "nan"])
def test_groups_and_clusters_reject_bad_tol(tol):
    with pytest.raises(ValueError, match="tol must be positive"):
        equiprobable_groups(build_cycle(4), 0, tol=tol)
    with pytest.raises(ValueError, match="tol must be positive"):
        distinct_eigenvalues(spectrum(build_cycle(4)), tol)


def test_eigenvalue_clusters_are_free_of_the_weight_unit():
    unit = build_weighted_lattice((1.0,) * 3, (1.0,) * 3)
    big = build_weighted_lattice((1e9,) * 3, (1e9,) * 3)
    assert weight_unit(unit) == 1.0 and weight_unit(big) == 1e9
    assert weight_unit(build_weighted_line([0.25, 0.5])) == 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        clusters = distinct_eigenvalues(spectrum(big), 1e-6 * weight_unit(big))
    assert len(distinct_eigenvalues(spectrum(unit), 1e-6)) == len(clusters) == 9


# --- equivalence verification ------------------------------------------------------


def test_identity_convolution_deviation_zero():
    families = [
        build_cycle(4),
        build_cycle(8),
        build_hypercube(3),
        build_hypercube(6),
        build_hypercycle(2, 6),
        build_hypercycle(2, 8),
        build_weighted_line([math.sqrt(3), 2.0, math.sqrt(3)]),
        hypercycle_to_lattice(2, 6).reduced,
        lattice_fold(hypercycle_to_lattice(2, 6).reduced, 4).reduced,
    ]
    assert all(g.node_count <= 64 for g in families)
    for g in families:
        ident = ConvolutionResult(g, GroupMap.identity(g.node_count), "cycle_line")
        dev = verify_equivalence(g, 0, ident, 0, TimeGrid(5.0, 0.25))
        assert dev < 1e-12


def test_hypercube_line_equivalence_tight():
    conv = hypercube_to_line(3)
    dev = verify_equivalence(build_hypercube(3), 0, conv, 0, TimeGrid(10.0, 0.1))
    assert dev < 1e-10


def test_verify_rejects_start_mismatch():
    conv = hypercube_to_line(3)
    with pytest.raises(GraphValidationError, match="start"):
        verify_equivalence(build_hypercube(3), 0, conv, 2, TimeGrid(1.0, 0.5))


def test_verify_range_checks_start():
    for start in (9, -1):
        with pytest.raises(GraphValidationError, match="out of range"):
            verify_equivalence(build_cycle(6), start, cycle_to_line(6), 1, TimeGrid(1, 0.5))


def test_verify_sink_mode_range_checks_target():
    from qwfold.dynamics import SinkSpec

    for target in (6, -1):
        pair = (SinkSpec(target, 7, 1.0), SinkSpec(3, 4, 1.0))
        with pytest.raises(GraphValidationError, match="out of range"):
            verify_equivalence(build_cycle(6), 0, cycle_to_line(6), 0, TimeGrid(1, 0.5), sink_mode=pair)


def test_verify_rejects_wrong_graph_size():
    conv = hypercube_to_line(3)
    with pytest.raises(GraphValidationError, match="map covers"):
        verify_equivalence(build_hypercube(2), 0, conv, 0, TimeGrid(1.0, 0.5))


def test_verify_sink_mode_rejects_rate_mismatch():
    from qwfold.dynamics import SinkSpec

    conv = hypercube_to_line(2)
    cube = build_hypercube(2)
    pair = (SinkSpec(3, 4, 1.0), SinkSpec(2, 3, 0.5))
    with pytest.raises(GraphValidationError, match="rate"):
        verify_equivalence(cube, 0, conv, 0, TimeGrid(1.0, 0.5), sink_mode=pair)


def test_verify_sink_mode_torus_chain():
    conv = hypercycle_to_lattice(2, 6)
    from qwfold.dynamics import SinkSpec

    torus = build_hypercycle(2, 6)
    pair = (SinkSpec(21, 36, 1.0), SinkSpec(15, 16, 1.0))
    dev = verify_equivalence(
        torus, 0, conv, 0, TimeGrid(4.0, 0.05), sink_mode=pair, substep=0.005
    )
    assert dev < 1e-6


# --- minimality --------------------------------------------------------------------


def test_minimality_hypercube3():
    rep = minimality_report(build_hypercube(3), 0)
    assert rep["group_count"] == 4
    assert rep["distinct_eigenvalue_count"] == 4
    assert rep["verdict"] == "CONSISTENT"


def test_minimality_cycle8():
    rep = minimality_report(build_cycle(8), 0)
    assert rep["group_count"] == 5
    assert rep["distinct_eigenvalue_count"] == 5
    assert rep["verdict"] == "CONSISTENT"


def test_minimality_conv_torus_lattice_regression():
    # frozen outcome: the 4x4 convoluted-torus lattice has 10 trajectory
    # groups from the corner but only 9 distinct eigenvalues, so the
    # group-count criterion and the spectrum criterion disagree here
    lat = hypercycle_to_lattice(2, 6).reduced
    rep = minimality_report(lat, 0)
    assert rep["group_count"] == 10
    assert rep["distinct_eigenvalue_count"] == 9
    assert rep["verdict"] == "DISCREPANT"
    np.testing.assert_allclose(
        rep["eigenvalues"]["distinct"], [4, 3, 2, 1, 0, -1, -2, -3, -4], atol=1e-9
    )


def test_minimality_is_free_of_the_weight_unit():
    unit = minimality_report(build_weighted_lattice((1.0,) * 3, (1.0,) * 3), 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        big = minimality_report(build_weighted_lattice((1e9,) * 3, (1e9,) * 3), 0)
    assert (unit["group_count"], unit["distinct_eigenvalue_count"]) == (10, 9)
    for key in ("group_count", "distinct_eigenvalue_count", "verdict", "groups"):
        assert big[key] == unit[key]
    np.testing.assert_allclose(big["eigenvalues"]["distinct"], 1e9 * np.array(unit["eigenvalues"]["distinct"]),
                               rtol=0, atol=1e-12 * np.abs(big["eigenvalues"]["full"]).max())


def test_minimality_report_is_json_ready():
    import json

    rep = minimality_report(build_cycle(4), 0)
    parsed = json.loads(json.dumps(rep))
    assert parsed["verdict"] in ("CONSISTENT", "DISCREPANT")
    assert {"group_count", "distinct_eigenvalue_count", "verdict", "groups", "eigenvalues"} <= set(parsed)
