"""Exact matching at desk scale: brute-force oracles, an algebraic decider,
a gadget reduction to top-k perfect matching, and differential campaigns
that cross-check them.

The core question: given a graph whose edges are colored red or blue and an
integer k, is there a perfect matching using exactly k red edges? The
variants here are top-k perfect matching (maximize the sum of the k heaviest
matching edges), correct parity matching (red count congruent to k mod 2),
and its bounded form (additionally red count at most k).
"""

from .algebraic import (
    DEFAULT_TRIALS,
    EmDecision,
    NotBipartite,
    ParityDecision,
    algebraic_em_decide,
    bcpm_via_em,
    cpm_via_em,
    find_bipartition,
    sample_isolation_weights,
    symbolic_determinant,
)
from .campaign import (
    CampaignReport,
    Disagreement,
    exhaustive_instances,
    exhaustive_sweep,
    graph_classes_with_pm,
    merge_reports,
    randomized_campaign,
    report_to_json,
)
from .engines import (
    BudgetExhausted,
    EnumerationBudget,
    brute_bcpm,
    brute_cpm,
    brute_em,
    brute_tkpm,
    canonical_sort_key,
    enumerate_perfect_matchings,
    has_perfect_matching,
    tkpm_reaches,
)
from .formats import (
    InstanceFormatError,
    format_em_instance,
    format_matching,
    format_tkpm_instance,
    parse_em_instance,
    parse_matching,
    parse_tkpm_instance,
)
from .generator import GenSpec, gen_instance
from .graphs import (
    BLUE,
    RED,
    ColoredGraph,
    EmInstance,
    Matching,
    TkpmInstance,
    WeightedGraph,
    is_perfect_matching,
    red_count,
    top_k_weight,
    validate,
    validate_instance,
)
from .reduction import (
    GadgetMap,
    decide_em_via_tkpm,
    format_gadget_map,
    gadgetize,
    lift_matching,
    lifted_value,
    project_matching,
)

__version__ = "0.1.0"

__all__ = [
    "BLUE",
    "RED",
    "BudgetExhausted",
    "CampaignReport",
    "ColoredGraph",
    "DEFAULT_TRIALS",
    "Disagreement",
    "EmDecision",
    "EmInstance",
    "EnumerationBudget",
    "GadgetMap",
    "GenSpec",
    "InstanceFormatError",
    "Matching",
    "NotBipartite",
    "ParityDecision",
    "TkpmInstance",
    "WeightedGraph",
    "algebraic_em_decide",
    "bcpm_via_em",
    "brute_bcpm",
    "brute_cpm",
    "brute_em",
    "brute_tkpm",
    "canonical_sort_key",
    "cpm_via_em",
    "decide_em_via_tkpm",
    "enumerate_perfect_matchings",
    "exhaustive_instances",
    "exhaustive_sweep",
    "find_bipartition",
    "format_em_instance",
    "format_gadget_map",
    "format_matching",
    "format_tkpm_instance",
    "gadgetize",
    "gen_instance",
    "graph_classes_with_pm",
    "has_perfect_matching",
    "is_perfect_matching",
    "lift_matching",
    "lifted_value",
    "merge_reports",
    "parse_em_instance",
    "parse_matching",
    "parse_tkpm_instance",
    "project_matching",
    "randomized_campaign",
    "red_count",
    "report_to_json",
    "sample_isolation_weights",
    "symbolic_determinant",
    "tkpm_reaches",
    "top_k_weight",
    "validate",
    "validate_instance",
]
