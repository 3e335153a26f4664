"""Rainbow matchings in properly edge-coloured graphs.

The package centres on one guarantee: once a properly edge-coloured graph
has enough vertices relative to its minimum degree (just under four and a
half times it), a rainbow matching of size the minimum degree exists.  The
modules make that guarantee executable:

* :mod:`rainbowmatch.graphs`: coloured graphs, matchings, bounds.
* :mod:`rainbowmatch.io`: graph files, and result records as JSON and CSV.
* :mod:`rainbowmatch.solver`: exact branch-and-bound ground truth.
* :mod:`rainbowmatch.engine`: local improvement rules with replayable traces.
* :mod:`rainbowmatch.auditor`: structural audit of stuck states and the
  exhaustive counting-bound certificate.
* :mod:`rainbowmatch.latin`: Latin squares as coloured complete bipartite
  graphs; transversal counting.
* :mod:`rainbowmatch.generators`: seeded random and structured instances.
* :mod:`rainbowmatch.campaigns`: reproducible experiment sweeps and their
  ok / no / unknown verdicts.
* :mod:`rainbowmatch.cli`: the ``rainbowmatch`` command.
"""

from .errors import (
    BudgetExceeded,
    DuplicateEdge,
    Error,
    ImproperColoring,
    InfeasibleDegree,
    InvalidState,
    LoopEdge,
    NotCompleteBipartite,
    NotStuck,
    OrderTooLarge,
    ParseError,
    UnknownEdge,
    WrongColourCount,
    WrongWitness,
)
from .graphs import (
    Edge,
    EdgeColoredGraph,
    Matching,
    bound_n,
    build_graph,
    color_classes,
    is_rainbow_matching,
    max_degree,
    min_degree,
)
from .io import (
    dump_graph,
    dumps_graph,
    load_graph,
    parse_graph,
    records_to_csv,
    to_json,
)
from .solver import (
    SearchEvent,
    SolveResult,
    count_rainbow_matchings,
    max_rainbow_matching,
    rainbow_matching_at_least,
    solve_decision,
)
from .engine import (
    RuleStep,
    applicable_rules,
    greedy_rainbow,
    replay_trace,
    rule_direct,
    rule_exchange,
    rule_mono,
    rule_vertex_reduce,
    run_engine,
    trace_to_json_lines,
)
from .auditor import (
    AuditReport,
    CertResult,
    ClaimCheck,
    MatchedPair,
    audit_state,
    audit_stuck_state,
    certify_counting_bound,
    pick_mono_class,
)
from .latin import (
    LatinSquare,
    count_transversals,
    cyclic_square,
    dumps_square,
    graph_to_latin,
    latin_to_graph,
    load_square,
    parse_square,
)
from .generators import (
    SimpleGraph,
    greedy_proper_coloring,
    one_factorization,
    random_graph_min_degree,
    random_latin,
)
from .campaigns import (
    CampaignConfig,
    CampaignResult,
    CellResult,
    InstanceRecord,
    campaign_to_json,
    derive_seed,
    lesaulnier_exception,
    lesaulnier_threshold,
    run_campaign,
    wang_applies,
    wang_threshold,
    write_campaign_files,
)

__version__ = "0.1.0"

__all__ = [
    "AuditReport", "BudgetExceeded", "CampaignConfig", "CampaignResult",
    "CellResult", "CertResult", "ClaimCheck", "DuplicateEdge",
    "Edge", "EdgeColoredGraph", "Error", "ImproperColoring",
    "InfeasibleDegree", "InstanceRecord", "InvalidState", "LatinSquare",
    "LoopEdge", "MatchedPair", "Matching", "NotCompleteBipartite", "NotStuck",
    "OrderTooLarge", "ParseError", "RuleStep", "SearchEvent",
    "SimpleGraph", "SolveResult", "UnknownEdge", "WrongColourCount",
    "WrongWitness", "applicable_rules", "audit_state", "audit_stuck_state",
    "bound_n", "build_graph", "campaign_to_json",
    "certify_counting_bound", "color_classes", "count_rainbow_matchings",
    "count_transversals", "cyclic_square", "derive_seed", "dump_graph",
    "dumps_graph", "dumps_square",
    "graph_to_latin", "greedy_proper_coloring", "greedy_rainbow",
    "is_rainbow_matching", "latin_to_graph",
    "lesaulnier_exception", "lesaulnier_threshold", "load_graph",
    "load_square", "max_degree", "max_rainbow_matching", "min_degree",
    "one_factorization", "parse_graph", "parse_square", "pick_mono_class",
    "rainbow_matching_at_least", "random_graph_min_degree", "random_latin",
    "records_to_csv", "replay_trace", "rule_direct", "rule_exchange",
    "rule_mono", "rule_vertex_reduce", "run_campaign", "run_engine",
    "solve_decision", "to_json", "trace_to_json_lines",
    "wang_applies", "wang_threshold", "write_campaign_files",
]
