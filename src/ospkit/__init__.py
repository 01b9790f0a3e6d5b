"""Verification and synthesis for k-step obviously strategyproof mechanisms."""

from types import ModuleType as _ModuleType

from .cmon import (
    ClassPartition,
    EquivalenceReport,
    NegativeCycleWitness,
    OspGraph,
    ProfileClass,
    StickyResult,
    SynthesisResult,
    build_k_osp_graph,
    build_profile_classes,
    has_negative_cycle,
    k_vs_infinity_equivalence,
    sticky_edges_check,
    synthesize_payments,
)
from .fixtures import appendix_b, fixture_names, materialize
from .greedy import (
    GreedyResult,
    NeedAnswer,
    PSystem,
    QueryRecord,
    SearchResult,
    TwoWayReport,
    approx_ratio,
    as_cost_tree,
    compress,
    english_auction_tree,
    extract_tree,
    forward_greedy_solution,
    is_k_limitable,
    is_revealable,
    is_two_way_greedy,
    rank_quotient,
    removable,
    reverse_greedy_solution,
    run_two_way_greedy,
    search_two_way_greedy,
    serialize,
    surviving_solutions,
    unremovable,
)
from .io import (
    MechanismFormatError,
    dump_mechanism,
    dumps_mechanism,
    graph_to_data,
    instance_data_for,
    instance_to_data,
    load_instance,
    load_mechanism,
    loads_instance,
    loads_mechanism,
    mechanism_to_data,
    parse_horizon,
    render_csv,
    render_report,
    write_report,
)
from .model import (
    ImplementationTree,
    LeafNode,
    MechanismError,
    QueryNode,
    equivalence_class,
    k_step_neighborhood,
    normalize_horizon,
    query_count,
    random_k_limited_tree,
    require_binary_outcomes,
    scale_guard,
    tree_from_nested,
    validate_tree,
)
from .rational import Rat, format_rational, parse_rational
from .verifier import (
    AlmostOrderedResult,
    CheckResult,
    Constraint,
    KLimitedResult,
    PoolingFinding,
    QueryClass,
    TaxationFinding,
    check_k_step_osp,
    classify_query,
    is_almost_ordered,
    is_k_limited,
    reveal_at_k2,
    strong_ineffectiveness_check,
    taxation_diagnostics,
)

# the public API is exactly what is imported above
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)

__version__ = "0.1.0"
