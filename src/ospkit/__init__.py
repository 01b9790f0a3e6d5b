"""Verification and synthesis for k-step obviously strategyproof mechanisms.

Every public name is listed below with the module that defines it.  A
module is imported on the first use of one of its names (PEP 562), so
``import ospkit`` itself loads no submodule.
"""

from importlib import import_module as _import_module

# public name -> the submodule that defines it
_MODULE_OF = {
    **dict.fromkeys(
        (
            "ClassPartition",
            "EquivalenceReport",
            "NegativeCycleWitness",
            "OspGraph",
            "ProfileClass",
            "StickyResult",
            "SynthesisResult",
            "build_k_osp_graph",
            "build_profile_classes",
            "has_negative_cycle",
            "k_vs_infinity_equivalence",
            "sticky_edges_check",
            "synthesize_payments",
        ),
        "cmon",
    ),
    **dict.fromkeys(("appendix_b", "fixture_names", "materialize"), "fixtures"),
    **dict.fromkeys(
        (
            "GreedyResult",
            "NeedAnswer",
            "PSystem",
            "QueryRecord",
            "SearchResult",
            "TwoWayReport",
            "approx_ratio",
            "as_cost_tree",
            "compress",
            "english_auction_tree",
            "extract_tree",
            "forward_greedy_solution",
            "is_k_limitable",
            "is_revealable",
            "is_two_way_greedy",
            "rank_quotient",
            "removable",
            "reverse_greedy_solution",
            "run_two_way_greedy",
            "search_two_way_greedy",
            "serialize",
            "surviving_solutions",
            "unremovable",
        ),
        "greedy",
    ),
    **dict.fromkeys(
        (
            "MechanismFormatError",
            "dump_mechanism",
            "dumps_mechanism",
            "graph_to_data",
            "instance_data_for",
            "instance_to_data",
            "load_instance",
            "load_mechanism",
            "loads_instance",
            "loads_mechanism",
            "mechanism_to_data",
            "parse_horizon",
            "render_csv",
            "render_report",
            "write_report",
        ),
        "io",
    ),
    **dict.fromkeys(
        (
            "ImplementationTree",
            "LeafNode",
            "MechanismError",
            "QueryNode",
            "equivalence_class",
            "k_step_neighborhood",
            "normalize_horizon",
            "query_count",
            "random_k_limited_tree",
            "require_binary_outcomes",
            "scale_guard",
            "tree_from_nested",
            "validate_tree",
        ),
        "model",
    ),
    **dict.fromkeys(("Rat", "format_rational", "parse_rational"), "rational"),
    **dict.fromkeys(
        (
            "AlmostOrderedResult",
            "CheckResult",
            "Constraint",
            "KLimitedResult",
            "PoolingFinding",
            "QueryClass",
            "TaxationFinding",
            "check_k_step_osp",
            "classify_query",
            "is_almost_ordered",
            "is_k_limited",
            "reveal_at_k2",
            "strong_ineffectiveness_check",
            "taxation_diagnostics",
        ),
        "verifier",
    ),
}

# the public API is exactly the table above
__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_MODULE_OF))
