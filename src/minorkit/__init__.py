"""minorkit: expander extraction and small complete-minor / subdivision
witnesses in graphs, with independent certification of every emitted object.
"""

from .errors import ConstructionStalled, InvariantViolation
from .expansion import (
    DerivedScales,
    ExpansionParams,
    ExtractionResult,
    FindDenseQuery,
    check_expansion_function,
    derived_scales,
    dichotomy_step,
    expansion_function_f,
    extract_expander,
    find_violating_set,
)
from .generate import GeneratedGraph, GeneratorSpec, generate, girth
from .graph import (
    Graph,
    InducedSubgraph,
    Path,
    average_degree,
    induced_subgraph,
    load_graph,
    neighborhood,
    parse_graph_text,
)
from .minor import (
    MinorModel,
    NiceSet,
    PipelineResult,
    build_small_minor,
    caro_wei_bound,
    conflict_prune,
    find_minor_pipeline,
    find_nice_sets,
    greedy_independent_set,
)
from .subdivision import (
    DegreeSplit,
    build_units_dense,
    build_units_sparse,
    connect_units,
    find_subdivision_pipeline,
    kt_edge_coloring,
    split_by_degree,
)
from .sweep import ExperimentRecord, run_experiment_sweep, run_one
from .verify import (
    VerificationReport,
    brute_force_expander_check,
    brute_force_has_minor,
    verify_minor_model,
    verify_subdivision,
    verify_unit,
)
from .witnesses import SubdivisionModel, Unit

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
