"""Exact Hamilton-cycle machinery for finite cubic multigraphs and cut-chain
presentations of one- and two-ended infinite cubic graphs."""

from .multigraph import (
    EdgeRecord,
    GraphError,
    MultiGraph,
    from_doc,
    from_json,
    quotient,
    relabel_vertices,
)
from .hamilton import (
    EdgeParityReport,
    HamiltonCycle,
    count_by_trace,
    count_through,
    cycle_labels,
    edge_parity_report,
    enumerate_hamilton_cycles,
    first_hamilton_cycle,
    is_hamilton_cycle,
    second_cycle_lollipop,
    second_cycle_nearly_cubic,
)
from .incidence import (
    IncidenceMultigraph,
    PairSumReport,
    UniformParityReport,
    check_pair_sum_even,
    check_uniform_parity,
    incidence_multigraph,
    pair_states,
)
from .constructions import (
    BUILTIN_CHAINS,
    LabeledFragment,
    chain_G,
    chain_H,
    chain_Hprime,
    chain_double_ladder,
    chain_ladder,
    cube,
    k4,
    petersen,
    replacement_graph,
    tutte_fragment,
    tutte_quotient,
)
from .chains import (
    ChainError,
    ChainPiece,
    CutChain,
    LimitCount,
    LimitCycleCertificate,
    OneEndedChain,
    Tail,
    TransferLayer,
    TwoEndedChain,
    chain_from_doc,
    chain_from_json,
    chain_to_json,
    count_limit_hamilton_cycles,
    end_degree,
    initial_vector,
    materialize,
    prefix_counts,
    segment_minor,
    splice_certificate,
    surviving_states,
    transfer_dot,
    transfer_layer,
    truncation_consistency,
    truncation_minor,
    validate_certificate,
    witness_two_cycles,
)
from .sampling import (
    random_cubic_graph,
    random_cubic_hamiltonian,
    random_odd_degree_graph,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
