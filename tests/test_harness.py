import io
import math

import numpy as np
import pytest

from qwfold.convolve import cycle_to_line, hypercube_to_line
from qwfold.dynamics import ThresholdConfigError, TimeGrid
from qwfold.graphs import GraphFamilySpec, GraphValidationError, build_cycle, build_weighted_line, save_graph
from qwfold.harness import (
    ExperimentConfig,
    HittingRecord,
    SplitMix64,
    equivalence_chain,
    export_couplings,
    farthest_node,
    path_couplings,
    races_to_csv,
    run_equivalence_experiment,
    run_hitting_races,
    sample_pairs,
)

R2 = math.sqrt(2)
R3 = math.sqrt(3)


# --- deterministic sampling -----------------------------------------------------


def test_splitmix64_reference_vector():
    # first outputs for seed 0 from the published splitmix64 sequence
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F


def test_splitmix64_bounded_draws():
    rng = SplitMix64(123)
    draws = [rng.below(7) for _ in range(1000)]
    assert set(draws) <= set(range(7))
    assert len(set(draws)) == 7


def test_sample_pairs_distinct_without_replacement():
    pairs = sample_pairs(8, 20, seed=5)
    assert len(pairs) == 20
    assert len(set(pairs)) == 20
    assert all(s != t for s, t in pairs)
    assert all(0 <= s < 8 and 0 <= t < 8 for s, t in pairs)


def test_sample_pairs_deterministic():
    assert sample_pairs(36, 300, seed=42) == sample_pairs(36, 300, seed=42)
    assert sample_pairs(36, 300, seed=42) != sample_pairs(36, 300, seed=43)


def test_sample_pairs_can_exhaust_pool():
    pairs = sample_pairs(4, 12, seed=9)
    assert sorted(set(pairs)) == [(s, t) for s in range(4) for t in range(4) if s != t]


def test_sample_pairs_fall_back_to_replacement():
    # 16 nodes expose only 240 ordered pairs; larger requests repeat pairs
    pairs = sample_pairs(16, 300, seed=1)
    assert len(pairs) == 300
    assert all(s != t for s, t in pairs)
    assert len(set(pairs)) <= 240


def test_sample_pairs_rejects_nonpositive():
    with pytest.raises(ValueError):
        sample_pairs(6, 0, seed=1)


# --- targets ----------------------------------------------------------------------


def test_farthest_node_on_ring_and_torus():
    assert farthest_node(build_cycle(8), 0) == 4
    from qwfold.graphs import build_hypercycle

    assert farthest_node(build_hypercycle(2, 6), 0) == 21


def test_farthest_node_tie_breaks_to_smallest_index():
    line = build_weighted_line([1.0, 1.0])
    assert farthest_node(line, 1) == 0


# --- hitting records ----------------------------------------------------------------


@pytest.mark.parametrize(
    "c,q,winner",
    [
        (3, 5, "classical"),
        (5, 3, "quantum"),
        (4, 4, "tie"),
        (None, 7, "quantum"),
        (7, None, "classical"),
        (None, None, "both_failed"),
    ],
)
def test_winner_decision_table(c, q, winner):
    assert HittingRecord.decide(c, q) == winner


def test_races_on_small_ring():
    config = ExperimentConfig(
        source=GraphFamilySpec("cycle", k=6), seed=7, pair_count=10
    )
    records, summary = run_hitting_races(config)
    assert len(records) == 10
    assert [r.pair_index for r in records] == list(range(10))
    for r in records:
        # winner must be recomputable from the stored steps
        assert r.winner == HittingRecord.decide(r.classical_steps, r.quantum_steps)
        assert 0 <= r.source < 6 and 0 <= r.target < 6 and r.source != r.target
        assert r.d >= 1
    total = sum(summary["wins"].values())
    assert total == 10
    assert summary["threshold"] == pytest.approx(1.0 / math.log(6))
    bucket_total = sum(b["total"] for b in summary["by_distance"].values())
    assert bucket_total == 10


def test_race_csv_deterministic_bytes():
    config = ExperimentConfig(
        source=GraphFamilySpec("cycle", k=6), seed=11, pair_count=6
    )
    outputs = []
    for _ in range(2):
        records, _ = run_hitting_races(config)
        buf = io.StringIO()
        races_to_csv(records, buf)
        outputs.append(buf.getvalue())
    assert outputs[0] == outputs[1]
    lines = outputs[0].splitlines()
    assert lines[0] == "pair,source,target,d,classical_steps,quantum_steps,winner"
    assert len(lines) == 7
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 7
        int(fields[4])  # failures render as -1, so these always parse
        int(fields[5])


def test_races_reject_tiny_graph_threshold():
    config = ExperimentConfig(
        source=GraphFamilySpec("hypercube", dim=1), seed=3, pair_count=2
    )
    with pytest.raises(ThresholdConfigError):
        run_hitting_races(config)


def test_races_reject_disconnected_graph(tmp_path):
    from qwfold.graphs import Graph

    g = Graph(4, ((0, 1, 1.0), (2, 3, 1.0)))
    path = tmp_path / "two_edges.json"
    save_graph(g, path)
    config = ExperimentConfig(source=str(path), seed=1, pair_count=2)
    with pytest.raises(GraphValidationError, match="connected"):
        run_hitting_races(config)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(source=GraphFamilySpec("cycle", k=6), seed=1, pair_count=0)
    with pytest.raises(ValueError):
        ExperimentConfig(source=GraphFamilySpec("cycle", k=6), seed=1, gamma=-1.0)
    for gamma in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            ExperimentConfig(source=GraphFamilySpec("cycle", k=6), seed=1, gamma=gamma)


# --- equivalence experiments ----------------------------------------------------------


def test_equivalence_chain_names():
    names, graphs, convs, sink = equivalence_chain(GraphFamilySpec("hypercycle", dim=2, k=6))
    assert names == ["hypercycle", "lattice", "ultimate"]
    assert [g.node_count for g in graphs] == [36, 16, 10]
    assert sink is True
    names, graphs, convs, sink = equivalence_chain(GraphFamilySpec("hypercube", dim=3))
    assert names == ["hypercube", "line"]
    assert sink is False


def test_equivalence_chain_rejects_unknown():
    with pytest.raises(GraphValidationError):
        equivalence_chain(GraphFamilySpec("weighted_line", couplings=(1.0,)))
    with pytest.raises(GraphValidationError):
        equivalence_chain(GraphFamilySpec("hypercycle", dim=3, k=4))


def test_hypercube_experiment_outcome():
    config = ExperimentConfig(
        source=GraphFamilySpec("hypercube", dim=3),
        seed=0,
        grid=TimeGrid(10.0, 0.05),
    )
    outcome = run_equivalence_experiment(config)
    assert outcome.names == ("hypercube", "line")
    assert outcome.max_deviation() < 1e-10
    assert outcome.curves["hypercube"].probabilities.shape == (201, 8)


def test_torus_experiment_outcome_quick():
    config = ExperimentConfig(
        source=GraphFamilySpec("hypercycle", dim=2, k=6),
        seed=0,
        grid=TimeGrid(2.0, 0.1),
        substep=0.005,
    )
    outcome = run_equivalence_experiment(config)
    assert outcome.names == ("hypercycle", "lattice", "ultimate")
    assert len(outcome.deviations) == 3
    assert outcome.max_deviation() < 1e-6
    assert outcome.targets == {"hypercycle": 21, "lattice": 15, "ultimate": 9}
    # every curve carries a sink column
    for curve in outcome.curves.values():
        assert curve.has_sink


def test_experiment_rejects_file_source(tmp_path):
    path = tmp_path / "ring.json"
    save_graph(build_cycle(6), path)
    config = ExperimentConfig(source=str(path), seed=0)
    with pytest.raises(GraphValidationError, match="family"):
        run_equivalence_experiment(config)


def test_deviation_table_is_json(tmp_path):
    import json

    config = ExperimentConfig(
        source=GraphFamilySpec("cycle", k=6), seed=0, grid=TimeGrid(5.0, 0.25)
    )
    outcome = run_equivalence_experiment(config)
    rows = json.loads(outcome.deviations_json())
    assert rows and set(rows[0]) == {"a", "b", "max_deviation"}


# --- coupling export ---------------------------------------------------------------


def test_export_cube_line_couplings():
    rows = path_couplings(hypercube_to_line(3).reduced)
    assert [edge for edge, _ in rows] == ["1-2", "2-3", "3-4"]
    np.testing.assert_allclose([w for _, w in rows], [R3, 2.0, R3])


def test_export_cycle8_line_couplings():
    rows = path_couplings(cycle_to_line(8).reduced)
    np.testing.assert_allclose([w for _, w in rows], [R2, 1.0, 1.0, R2])


def test_export_single_edge():
    rows = path_couplings(build_weighted_line([1.0]))
    assert rows == [("1-2", 1.0)]


def test_export_rejects_non_path():
    with pytest.raises(GraphValidationError, match="path"):
        path_couplings(build_cycle(4))


def test_export_writes_csv():
    buf = io.StringIO()
    export_couplings(hypercube_to_line(3).reduced, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "edge,coupling"
    assert lines[2].startswith("2-3,2")
