"""Dismantling sparse graphs: fragmentation oracles, heuristics and experiments."""

from .analysis import (
    DensityReport,
    EnumerationBudgetError,
    TailBound,
    admissible_delta,
    chernoff_upper_tail,
    components_pass_density,
    connected_vertex_sets,
    delta_sweep,
    dense_set_probability_bound,
    density_scan,
    giant_component_fraction,
    giant_fraction_limit,
)
from .exact import (
    DEFAULT_ORACLE_LIMIT,
    exact_max_forest,
    exact_max_induced,
    max_forest_by_enumeration,
    max_induced_by_enumeration,
)
from .experiments import (
    ConcentrationReport,
    CurveEstimate,
    CurvePoint,
    ExperimentConfig,
    GapDemoReport,
    ResultsFormatError,
    concentration_report,
    empirical_slopes,
    estimate_curve_k,
    estimate_curve_x,
    gap_demo,
    load_results,
    monotone_inverse,
    pool_adjacent_violators,
    save_results,
    verify_estimate,
)
from .fragmenters import (
    FragmentationResult,
    PipelineBudgetError,
    component_cap,
    decycle_heuristic,
    edge_decycling_count,
    fragment_forest,
    greedy_fragment,
    max_component_size,
    pipeline_fragment,
    strip_short_cycles,
    trim_components,
)
from .generators import (
    SamplingBudgetError,
    gnp,
    path,
    random_regular,
    random_tree,
    rng_for,
)
from .graph import (
    ComponentDecomposition,
    EdgeListFormatError,
    Graph,
    as_vertex_tuple,
    build_graph,
    components,
    count_short_cycles,
    excess,
    induced_subgraph,
    read_edgelist,
    write_edgelist,
)

__version__ = "0.2.0"
