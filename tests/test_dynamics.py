import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from qwfold.dynamics import (
    IntegrationAccuracyError,
    NumericalFailureError,
    SinkSpec,
    ThresholdPolicy,
    TimeGrid,
    ThresholdConfigError,
    WalkCurve,
    _lindblad_diagonals,
    _sink_diagonals,
    classical_evolve,
    classical_hitting_steps,
    hitting_step,
    lindblad_evolve,
    sink_evolve,
    sink_hitting_steps,
    transition_matrix,
    unitary_evolve,
    unitary_probabilities,
)
from qwfold.graphs import (
    Graph,
    GraphValidationError,
    build_cycle,
    build_hypercube,
    build_hypercycle,
    build_weighted_line,
)
from qwfold.convolve import hypercube_to_line

K2 = build_hypercube(1)


def superop_diagonals(a_sys, start, target, gamma, times):
    """Exact master-equation solution via the vectorized-generator exponential.

    Row-major vec convention: vec(A X B) = kron(A, B^T) vec(X).  Independent
    oracle for the RK4 path.
    """
    n = a_sys.shape[0]
    m = n + 1
    h = np.zeros((m, m), dtype=complex)
    h[:n, :n] = a_sys
    lop = np.zeros((m, m))
    lop[n, target] = 1.0
    proj = lop.T @ lop
    eye = np.eye(m)
    gen = -1j * (np.kron(h, eye) - np.kron(eye, h.T)) + gamma * (
        np.kron(lop, lop.conj()) - 0.5 * (np.kron(proj, eye) + np.kron(eye, proj.T))
    )
    rho0 = np.zeros(m * m, dtype=complex)
    rho0[start * m + start] = 1.0
    rows = []
    for t in times:
        rho_t = (expm(gen * t) @ rho0).reshape(m, m)
        rows.append(rho_t.diagonal().real)
    return np.asarray(rows)


# --- time grid ----------------------------------------------------------------


def test_grid_times():
    grid = TimeGrid(1.0, 0.25)
    np.testing.assert_allclose(grid.times(), [0.0, 0.25, 0.5, 0.75, 1.0])


def test_grid_rejects_non_divisible():
    with pytest.raises(ValueError, match="integer"):
        TimeGrid(1.0, 0.3)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 2.0)
    with pytest.raises(ValueError):
        TimeGrid(-1.0, 0.1)


@pytest.mark.parametrize("t_max,dt", [(math.inf, 0.1), (math.nan, 0.1), (1.0, math.nan), (math.inf, math.inf)])
def test_grid_rejects_non_finite(t_max, dt):
    with pytest.raises(ValueError, match="finite"):
        TimeGrid(t_max, dt)


def test_grid_rejects_overflowing_sample_count():
    # both finite, but t_max / dt overflows to infinity
    with pytest.raises(ValueError, match="finite"):
        TimeGrid(1e300, 1e-300)


# --- unitary ------------------------------------------------------------------


def test_k2_unitary_is_sine_squared():
    # two-level closed form: P_target(t) = sin^2(t)
    grid = TimeGrid(10.0, 0.01)
    curve = unitary_evolve(K2, 0, grid)
    t = grid.times()
    np.testing.assert_allclose(curve.series(1), np.sin(t) ** 2, atol=1e-12)
    np.testing.assert_allclose(curve.series(0), np.cos(t) ** 2, atol=1e-12)


def test_unitary_starts_at_indicator():
    for g in (build_cycle(6), build_hypercube(3)):
        curve = unitary_evolve(g, 2, TimeGrid(1.0, 0.5))
        row0 = curve.probabilities[0]
        assert row0[2] == pytest.approx(1.0, abs=1e-12)
        assert row0.sum() == pytest.approx(1.0, abs=1e-12)


def test_hypercube_shells_match_line_via_expm_oracle():
    # evolve both Hamiltonians by dense matrix exponentials (independent of
    # the eigh path used in unitary_evolve) and compare shell sums
    cube = build_hypercube(3)
    conv = hypercube_to_line(3)
    a_cube = cube.adjacency_matrix()
    a_line = conv.reduced.adjacency_matrix()
    psi_c = np.zeros(8, dtype=complex)
    psi_c[0] = 1.0
    psi_l = np.zeros(4, dtype=complex)
    psi_l[0] = 1.0
    for t in np.linspace(0.3, 9.7, 17):
        pc = np.abs(expm(-1j * a_cube * t) @ psi_c) ** 2
        pl = np.abs(expm(-1j * a_line * t) @ psi_l) ** 2
        shell = np.zeros(4)
        for u in range(8):
            shell[bin(u).count("1")] += pc[u]
        np.testing.assert_allclose(shell, pl, atol=1e-10)
    # and the production path agrees with the oracle route
    grid = TimeGrid(9.0, 0.3)
    curve = unitary_evolve(cube, 0, grid)
    for s, t in enumerate(grid.times()):
        pc = np.abs(expm(-1j * a_cube * t) @ psi_c) ** 2
        np.testing.assert_allclose(curve.probabilities[s], pc, atol=1e-10)


def test_unitary_norm_conserved():
    for g in (build_cycle(8), build_hypercycle(2, 6), build_hypercube(4)):
        curve = unitary_evolve(g, 0, TimeGrid(10.0, 0.25))
        sums = curve.probabilities.sum(axis=1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-9)


def test_unitary_grid_independent():
    # halving dt reproduces identical values at shared times
    g = build_cycle(8)
    coarse = unitary_evolve(g, 0, TimeGrid(5.0, 0.5))
    fine = unitary_evolve(g, 0, TimeGrid(5.0, 0.25))
    np.testing.assert_array_equal(coarse.probabilities, fine.probabilities[::2])


def test_unitary_rejects_bad_start():
    with pytest.raises(GraphValidationError):
        unitary_evolve(K2, 5, TimeGrid(1.0, 0.5))


# --- lindblad -----------------------------------------------------------------


def test_lindblad_gamma_zero_matches_unitary():
    g = build_cycle(6)
    grid = TimeGrid(5.0, 0.05)
    sink = SinkSpec(3, 6, 0.0)
    ld = lindblad_evolve(g, 0, sink, grid, substep=1e-3)
    un = unitary_evolve(g, 0, grid)
    np.testing.assert_allclose(ld.probabilities[:, :6], un.probabilities, atol=1e-8)
    assert np.all(ld.sink_series() == 0.0)


def test_k2_sink_matches_superoperator_oracle():
    grid = TimeGrid(5.0, 0.05)
    curve = lindblad_evolve(K2, 0, SinkSpec(1, 2, 1.0), grid, substep=1e-3)
    oracle = superop_diagonals(K2.adjacency_matrix(), 0, 1, 1.0, grid.times())
    assert np.abs(curve.probabilities - oracle).max() < 1e-8


def test_rk4_error_scales_fourth_order():
    grid = TimeGrid(4.0, 0.04)
    oracle = superop_diagonals(K2.adjacency_matrix(), 0, 1, 1.0, grid.times())
    errs = []
    for sub in (0.04, 0.02):
        curve = lindblad_evolve(K2, 0, SinkSpec(1, 2, 1.0), grid, substep=sub)
        errs.append(np.abs(curve.probabilities - oracle).max())
    ratio = errs[0] / errs[1]
    assert 8.0 <= ratio <= 32.0


def test_lindblad_trace_conserved_and_sink_monotone():
    for g, gamma in ((build_cycle(8), 1.0), (build_hypercycle(2, 6), 2.0)):
        grid = TimeGrid(3.0, 0.05)
        sink = SinkSpec(1, g.node_count, gamma)
        curve = lindblad_evolve(g, 0, sink, grid, substep=1e-3)
        sums = curve.probabilities.sum(axis=1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-8)
        sink_pop = curve.sink_series()
        assert np.all(np.diff(sink_pop) >= -1e-9)


def test_lindblad_rejects_wrong_sink_index():
    with pytest.raises(GraphValidationError, match="appended"):
        lindblad_evolve(build_cycle(4), 0, SinkSpec(1, 3, 1.0), TimeGrid(1.0, 0.1))


def test_lindblad_detects_positivity_loss():
    # a deliberately huge step degrades RK4 until the guard trips
    g = build_hypercycle(2, 6)
    with pytest.raises((NumericalFailureError, IntegrationAccuracyError)):
        lindblad_evolve(g, 0, SinkSpec(21, 36, 1.0), TimeGrid(20.0, 0.1), substep=0.1)


def test_sink_spec_validation():
    with pytest.raises(ValueError):
        SinkSpec(3, 2, 1.0)
    with pytest.raises(ValueError):
        SinkSpec(0, 4, -0.5)
    for rate in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            SinkSpec(0, 4, rate)


def _random_weighted_graph(n, seed):
    """Connected graph: a random spanning path plus random chords, weights in [0.5, 1.5]."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    pairs = {tuple(sorted((int(u), int(v)))) for u, v in zip(order, order[1:])}
    pairs |= {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4}
    return Graph(n, tuple((i, j, float(rng.uniform(0.5, 1.5))) for i, j in sorted(pairs)))


@pytest.mark.parametrize("gamma", [0.0, 1.0, 4.0])  # gamma = 4 is K2's exceptional point
@pytest.mark.parametrize(
    "g,starts,targets",
    [(K2, [0, 1, 0], [1, 0, 0]),
     (_random_weighted_graph(5, 1), [0, 4, 2, 3], [3, 1, 2, 0]),
     (_random_weighted_graph(6, 2), [5, 0, 1], [0, 5, 4])],
    ids=["K2", "random5", "random6"],
)
def test_batch_with_per_member_targets(g, starts, targets, gamma):
    # both sink kernels: the RK4 reference integrator and the exact propagator
    grid = TimeGrid(2.0, 0.05)
    a = g.adjacency_matrix()
    batch = _lindblad_diagonals(a, starts, targets, gamma, grid, 1e-3)
    exact = _sink_diagonals(a, starts, targets, gamma, grid)
    for row, (s, t) in enumerate(zip(starts, targets)):
        sink = SinkSpec(t, g.node_count, gamma)
        oracle = superop_diagonals(a, s, t, gamma, grid.times())
        alone = lindblad_evolve(g, s, sink, grid, substep=1e-3)
        assert np.abs(batch[row] - alone.probabilities).max() <= 1e-12
        assert np.abs(batch[row] - oracle).max() < 1e-8
        assert np.array_equal(exact[row], sink_evolve(g, s, sink, grid).probabilities)
        assert np.abs(exact[row] - oracle).max() < 1e-10
        assert np.abs(exact[row] - alone.probabilities).max() < 1e-8
        if gamma == 0.0:
            assert np.all(batch[row][:, -1] == 0.0)
            assert np.all(exact[row][:, -1] == 0.0)


@pytest.mark.parametrize("history_bytes", [1 << 22, 1], ids=["one-block", "one-column-blocks"])
def test_batch_blocks_match_single_walks(monkeypatch, history_bytes):
    # 40 members on 11 distinct targets: two exponential chunks, uneven groups
    # (padding), and with a tiny history budget one member per stepping block
    import qwfold.dynamics as dynamics

    monkeypatch.setattr(dynamics, "_HISTORY_BYTES", history_bytes)
    g = _random_weighted_graph(12, 3)
    rng = np.random.default_rng(8)
    starts = rng.integers(0, 12, 40)
    targets = np.concatenate([np.full(20, 5), rng.integers(0, 11, 20)])
    grid = TimeGrid(3.0, 0.1)
    batch = _sink_diagonals(g.adjacency_matrix(), starts, targets, 1.5, grid)
    assert len(np.unique(targets)) > dynamics._TARGETS_PER_EXPM
    for row, (s, t) in enumerate(zip(starts, targets)):
        alone = sink_evolve(g, int(s), SinkSpec(int(t), 12, 1.5), grid)
        assert np.array_equal(batch[row], alone.probabilities)


@st.composite
def weighted_walks(draw):
    """Connected weighted graph on 2-7 nodes (a path plus chords), start and target."""
    n = draw(st.integers(2, 7))
    weight = st.floats(0.05, 5.0, allow_nan=False, allow_infinity=False)
    order = draw(st.permutations(range(n)))
    pairs = {tuple(sorted(p)) for p in zip(order, order[1:])}
    pairs |= set(draw(st.lists(st.sampled_from([(i, j) for i in range(n) for j in range(i + 1, n)]))))
    g = Graph(n, tuple((i, j, draw(weight)) for i, j in sorted(pairs)))
    return g, draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))


@settings(max_examples=60, deadline=None)
@given(weighted_walks())
def test_sink_propagator_properties_on_random_graphs(case):
    g, start, target = case
    grid = TimeGrid(6.0, 0.1)
    closed = sink_evolve(g, start, SinkSpec(target, g.node_count, 0.0), grid)
    np.testing.assert_allclose(
        closed.probabilities[:, :-1], unitary_probabilities(g, start, grid.times()), atol=1e-10
    )
    assert np.all(closed.sink_series() == 0.0)
    for gamma in (1.0, 100.0, 1e8):
        curve = sink_evolve(g, start, SinkSpec(target, g.node_count, gamma), grid)
        assert np.diff(curve.sink_series()).min() >= -1e-12
        np.testing.assert_allclose(curve.probabilities.sum(axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize("g", [K2, build_cycle(6), build_hypercycle(2, 6)], ids=["K2", "ring6", "torus"])
@pytest.mark.parametrize("rate,grid", [(1e300, TimeGrid(20.0, 0.1)), (1e308, TimeGrid(100.0, 10.0))],
                         ids=["squarings", "overflow"])
def test_sink_propagator_at_extreme_rate_is_finite_or_fails_loudly(g, rate, grid):
    # rate*dt/2 = 5e298 takes about a thousand squarings; 5e308 overflows.
    # Either way a NaN must never escape.
    try:
        curve = sink_evolve(g, 0, SinkSpec(1, g.node_count, rate), grid)
    except NumericalFailureError:
        return
    assert np.all(np.isfinite(curve.probabilities))
    assert np.diff(curve.sink_series()).min() >= -1e-12


# --- classical ----------------------------------------------------------------


def test_k2_classical_closed_form():
    grid = TimeGrid(5.0, 0.01)
    curve = classical_evolve(K2, 0, grid)
    t = grid.times()
    np.testing.assert_allclose(curve.series(1), (1.0 - np.exp(-2.0 * t)) / 2.0, atol=1e-12)


def test_classical_starts_at_indicator():
    curve = classical_evolve(build_cycle(6), 4, TimeGrid(1.0, 0.5))
    assert curve.probabilities[0, 4] == pytest.approx(1.0, abs=1e-12)


def test_classical_cycle4_reaches_uniform():
    curve = classical_evolve(build_cycle(4), 0, TimeGrid(50.0, 25.0))
    np.testing.assert_allclose(curve.probabilities[-1], 0.25, atol=1e-6)


def test_classical_stochasticity():
    for g in (build_cycle(8), build_hypercube(4), build_hypercycle(2, 6)):
        curve = classical_evolve(g, 0, TimeGrid(10.0, 0.5))
        sums = curve.probabilities.sum(axis=1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-10)
        assert curve.probabilities.min() >= -1e-12


def test_classical_matches_expm_oracle():
    # independent route: dense expm of (T - I) t
    g = build_weighted_line([math.sqrt(2), 1.0, math.sqrt(2)])
    t_mat = transition_matrix(g)
    grid = TimeGrid(4.0, 0.5)
    curve = classical_evolve(g, 0, grid)
    p0 = np.zeros(4)
    p0[0] = 1.0
    for s, t in enumerate(grid.times()):
        expected = expm((t_mat - np.eye(4)) * t) @ p0
        np.testing.assert_allclose(curve.probabilities[s], expected, atol=1e-15)


# --- transition matrix ----------------------------------------------------------


def test_transition_matrix_cycle4():
    t = transition_matrix(build_cycle(4))
    np.testing.assert_allclose(t.sum(axis=0), 1.0, atol=1e-12)
    for col in range(4):
        nonzero = sorted(t[:, col][t[:, col] > 0])
        np.testing.assert_allclose(nonzero, [0.5, 0.5])


def test_transition_matrix_weighted_line():
    r2 = math.sqrt(2)
    t = transition_matrix(build_weighted_line([r2, 1.0, r2]))
    # departures from interior node 1: weight sqrt(2) back, 1 forward
    assert t[0, 1] == pytest.approx(r2 / (r2 + 1.0))
    assert t[2, 1] == pytest.approx(1.0 / (r2 + 1.0))
    np.testing.assert_allclose(t.sum(axis=0), 1.0, atol=1e-12)


def test_transition_matrix_k2_is_exchange():
    np.testing.assert_array_equal(transition_matrix(K2), [[0.0, 1.0], [1.0, 0.0]])


def test_transition_matrix_rejects_isolated_node():
    from qwfold.graphs import Graph

    g = Graph(3, ((0, 1, 1.0),))
    with pytest.raises(GraphValidationError, match="isolated"):
        transition_matrix(g)


# --- hitting ------------------------------------------------------------------


def test_hitting_step_on_forced_threshold():
    # sin^2(t) crosses 0.5 at pi/4 ~ 0.7854 -> step 79 on a 0.01 grid
    curve = unitary_evolve(K2, 0, TimeGrid(10.0, 0.01))
    step = hitting_step(curve, 1, ThresholdPolicy(), 2, threshold=0.5)
    assert step == 79


def test_hitting_step_failure_is_none():
    curve = classical_evolve(build_cycle(8), 0, TimeGrid(5.0, 0.1))
    # equilibrium on 8 nodes is 1/8; a 0.9 level is never reached
    assert hitting_step(curve, 4, ThresholdPolicy(), 8, threshold=0.9) is None


LATTICE = Graph(6, ((0, 1, 1.0), (1, 2, 2.0), (0, 3, 0.5), (1, 4, 1.5), (2, 5, 1.0), (3, 4, 1.0), (4, 5, 3.0)))


@pytest.mark.parametrize("g", [build_hypercycle(2, 4), LATTICE], ids=["torus4", "weighted-lattice"])
@pytest.mark.parametrize("gamma", [1.0, 2.5, 0.0])
@pytest.mark.parametrize("level", [0.1, 0.999], ids=["crossed", "never-crossed"])
def test_batch_hitting_steps_equal_single_curves(g, gamma, level):
    # walks unsorted and duplicated; each answer as hitting_step on its own curve
    n, grid, policy = g.node_count, TimeGrid(8.0, 0.1), ThresholdPolicy()
    walks = [(5, 0), (0, 3), (2, 4), (5, 0), (1, 1), (0, 3), (4, 2), (3, 0)]
    quantum = sink_hitting_steps(g, walks, gamma, grid, level)
    classical = classical_hitting_steps(g, walks, grid, level)
    assert sorted(quantum) == sorted(classical) == sorted(set(walks))
    for s, w in set(walks):
        curve = sink_evolve(g, s, SinkSpec(w, n, gamma), grid)
        assert quantum[s, w] == hitting_step(curve, n, policy, n, threshold=level)
        curve = classical_evolve(g, s, grid)
        assert classical[s, w] == hitting_step(curve, w, policy, n, threshold=level)
    if gamma == 0.0 or level == 0.999:
        assert set(quantum.values()) == {None}


def test_batch_hitting_steps_reject_bad_input():
    grid = TimeGrid(1.0, 0.1)
    with pytest.raises(GraphValidationError, match="out of range"):
        sink_hitting_steps(LATTICE, [(0, 6)], 1.0, grid, 0.5)
    with pytest.raises(GraphValidationError, match="out of range"):
        classical_hitting_steps(LATTICE, [(-1, 2)], grid, 0.5)
    with pytest.raises(ThresholdConfigError):
        classical_hitting_steps(LATTICE, [(0, 2)], grid, 1.0)


def test_threshold_values():
    pol = ThresholdPolicy()
    assert pol.value(36) == pytest.approx(1.0 / math.log(36))
    assert pol.value(36) == pytest.approx(0.2791, abs=5e-5)
    assert ThresholdPolicy("base2").value(16) == pytest.approx(0.25)
    assert ThresholdPolicy("base10").value(100) == pytest.approx(0.5)


def test_threshold_configuration_errors():
    with pytest.raises(ThresholdConfigError):
        ThresholdPolicy().value(2)  # 1/ln(2) > 1
    with pytest.raises(ThresholdConfigError):
        ThresholdPolicy("base10").value(10)  # exactly 1
    with pytest.raises(ThresholdConfigError):
        ThresholdPolicy("octal")


# --- curve container ------------------------------------------------------------


def test_curve_rejects_row_sum_violation():
    grid = TimeGrid(1.0, 0.5)
    bad = np.full((3, 4), 0.3)
    with pytest.raises(ValueError, match="sums"):
        WalkCurve(grid, bad, "unitary")


def test_curve_clamps_tiny_negatives():
    grid = TimeGrid(1.0, 0.5)
    probs = np.array([[1.0 + 1e-12, -1e-12], [1.0, 0.0], [0.5, 0.5]])
    curve = WalkCurve(grid, probs, "classical")
    assert curve.probabilities.min() >= -1e-9
    assert curve.probabilities.max() <= 1.0 + 1e-9


def test_curve_csv_format():
    curve = unitary_evolve(K2, 0, TimeGrid(1.0, 0.5))
    buf = io.StringIO()
    curve.to_csv(buf)
    lines = buf.getvalue().split("\n")
    assert lines[0] == "t,node_0,node_1"
    first = [float(x) for x in lines[1].split(",")]
    assert first[0] == 0.0
    assert first[1] == pytest.approx(1.0, abs=1e-12)
    assert first[2] == pytest.approx(0.0, abs=1e-12)
    assert len(lines) == 5  # 3 samples + header + trailing newline
    # 12 significant digits
    assert lines[2].startswith("0.5,")
    value = lines[2].split(",")[1]
    assert float(value) == pytest.approx(math.cos(0.5) ** 2, rel=1e-11)


def test_lindblad_csv_has_sink_column():
    curve = lindblad_evolve(K2, 0, SinkSpec(1, 2, 1.0), TimeGrid(1.0, 0.5), substep=0.01)
    buf = io.StringIO()
    curve.to_csv(buf)
    assert buf.getvalue().splitlines()[0] == "t,node_0,node_1,sink"
