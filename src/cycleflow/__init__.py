"""Fuzzy module detection in directed weighted networks via cycle flows."""

from .graph import (
    DirectedGraph,
    Trajectory,
    Walk,
    check_strongly_connected,
    transition_matrix,
    stationary_distribution,
    edge_flow,
    flow_conservation_residual,
    simulate,
    read_edge_list,
    write_edge_list,
    read_trajectory,
    write_trajectory,
)
from .cycles import (
    canonical_cycle,
    reverse_cycle,
    CycleDecomposition,
    sample_decomposition,
    merge_decompositions,
    iterative_decomposition,
    verify_flow_decomposition,
    decomposition_to_json,
)
from .lifted import (
    node_to_cycle_matrix,
    cycle_to_node_matrix,
    cycle_stationary,
    SpectrumReport,
    spectrum,
    spectrum_reversible,
    verify_spectral_match,
    detailed_balance_residual,
    entropy_production_edge,
    entropy_production_cycle,
)
from .commgraph import (
    CommunicationGraph,
    communication_graph,
    cycle_graph,
    export_graph,
    Pipeline,
)
from .clustering import (
    ModuleCores,
    FuzzyPartition,
    estimate_num_modules,
    find_cores,
    committors,
    fuzzy_partition,
)
from .modularity import (
    labels_from_modules,
    modules_from_labels,
    score_qbar,
    score_q_directed,
    maximize,
    check_symmetrization_invariance,
    enumerate_set_partitions,
)
from .generators import barbell, barbell_closed_forms, wheel_switch, wheel_switch_beta_cycles, ring

__version__ = "0.1.0"
