"""Distributed greedy action coordination over mesh networks.

Agents on a directed communication graph each pick one action from a private
menu to jointly maximize a normalized monotone set function (typically
coverage). The package provides the coordination rules, a synchronous-round
delay model, suboptimality-bound evaluation against a brute-force optimum,
and a grid-world mission simulator with a config-driven CLI.
"""

from meshcoord.objective import (
    GroundElement,
    Objective,
    CallableObjective,
    GridCoverageObjective,
    DiskCoverageObjective,
    StructureReport,
    curvature,
    total_curvature,
    validate_structure,
    subset_value_table,
    coin,
    coin_ring_bound,
    parse_road_mask,
    random_road_mask,
)
from meshcoord.topology import (
    MeshGraph,
    InfoDag,
    full_access_dag,
    knn_graph,
    line_graph,
    star_graph,
    complete_graph,
    edgeless_graph,
    from_undirected_edges,
    strongly_connected_line_plus,
    worst_case_cycle,
    shortest_hops,
    is_strongly_connected,
    is_complete,
    dfs_order,
)
from meshcoord.coordination import (
    IterationEvent,
    CoordinationOutcome,
    run_rag,
    run_sg,
    run_dsm,
    run_dfs_sg,
    run_random_baseline,
    brute_force_optimum,
)
from meshcoord.timing import (
    DelayModel,
    DecisionTime,
    tau_c_from_rate,
    decision_time,
    rag_time_bound,
)
from meshcoord.bounds import (
    BoundReport,
    apriori_bound,
    aposteriori_bound,
    approx_greedy_bound,
    curvature_only_bound,
    coin_sum,
    bound_report,
)
from meshcoord.scenario import (
    ALGORITHMS,
    MissionConfig,
    MissionTrace,
    StepRecord,
    VariationSummary,
    run_mission,
    monte_carlo,
    trace_rows,
)

__version__ = "0.1.0"
