"""Min-power Steiner and spanning tree toolkit.

Decomposition theorems, the component cut LP with max-flow separation,
iterative randomized rounding, exact desk-scale oracles, and the analysis
quantities behind the 3/2 (spanning) and 3 ln 4 - 9/4 (Steiner) factors.
"""

from .analysis import (
    build_binary_tree,
    check_delta_properties,
    classify_edges,
    delta_spanning,
    delta_steiner,
    harmonic,
    sample_witness,
    theoretical_factor,
    witness_stats,
)
from .components import ColumnSet, Component, enumerate_columns, min_power_component
from .decomposition import (
    Decomposition,
    attach_dummy_leaves,
    bounded_degree_decompose,
    component_graph,
    h_power_decompose,
    level_cut_parts,
)
from .exact import baseline_min_cost, exact_min_power
from .generators import generate
from .instance import (
    Instance,
    InstanceError,
    PowerTree,
    evaluate,
    parse_instance,
    reduce_cost_to_power,
    serialize,
)
from .irr import RunTrace, irr_solve, prune, zero_power_tree_exists
from .lp import LpState, lp_core_solve, separate, solve_lp
from .pathpower import PathResult, min_power_path
from .trees import CostedTree, random_full_component

__version__ = "0.1.0"

__all__ = [
    "ColumnSet", "Component", "CostedTree", "Decomposition", "Instance", "InstanceError",
    "LpState", "PathResult", "PowerTree", "RunTrace",
    "attach_dummy_leaves", "baseline_min_cost", "bounded_degree_decompose",
    "build_binary_tree", "check_delta_properties",
    "classify_edges", "component_graph", "delta_spanning", "delta_steiner",
    "enumerate_columns", "evaluate", "exact_min_power", "generate",
    "h_power_decompose", "harmonic", "irr_solve", "level_cut_parts",
    "lp_core_solve", "min_power_component", "min_power_path",
    "parse_instance", "prune", "random_full_component",
    "reduce_cost_to_power", "sample_witness", "separate", "serialize",
    "solve_lp", "theoretical_factor", "witness_stats",
    "zero_power_tree_exists",
]
