"""Quantum-walk graph families, dynamics-preserving reductions, and the
numerical machinery to verify that walks on the reduced graphs reproduce the
originals."""

from .analysis import (
    GroupPartition,
    Spectrum,
    distinct_eigenvalues,
    equiprobable_groups,
    jacobi_eigenvalues,
    minimality_report,
    spectrum,
    verify_equivalence,
    weight_unit,
)
from .convolve import (
    ConvolutionResult,
    compose_maps,
    cycle_to_line,
    hypercube_to_line,
    hypercycle_to_lattice,
    lattice_fold,
    partial_hypercycle_convolution,
)
from .dynamics import (
    SinkSpec,
    ThresholdPolicy,
    TimeGrid,
    WalkCurve,
    classical_evolve,
    hitting_step,
    lindblad_evolve,
    sink_evolve,
    transition_matrix,
    unitary_evolve,
)
from .graphs import (
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
    graph_distance,
    load_graph,
    load_group_map,
    save_graph,
    save_group_map,
)
from .harness import (
    ExperimentConfig,
    HittingRecord,
    export_couplings,
    farthest_node,
    run_equivalence_experiment,
    run_hitting_races,
    sample_pairs,
)

__version__ = "0.1.0"
