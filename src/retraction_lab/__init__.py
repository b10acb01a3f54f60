"""retraction_lab: exact and Monte Carlo counting of graph retractions,
the girth-5 trichotomy classifier, and the gadget machinery behind it."""

from .graphs import (
    DiGraph,
    Graph,
    common_neighbors,
    connected_components,
    girth,
    is_connected,
    neighbor_union,
    neighborhoods,
)
from .instances import Block, BlockedInstance, Coupling, ListedInstance, expand_blocked
from .exact import (
    count,
    count_blocked,
    count_compaction,
    count_hom,
    count_list_hom,
    count_retraction,
    count_surjective,
    enumerate_homs,
    stirling_surjections,
)
from .classifier import (
    Verdict,
    classify,
    has_induced_J3,
    is_caterpillar,
    is_double_looped_edge,
    is_irreflexive_star,
    is_pbrp,
    is_single_looped_vertex,
    neighborhood_witnesses,
)
from .csp import (
    CspInstance,
    build_digraph_from_csp,
    build_graph_from_csp,
    count_csp,
    count_dir_list_hom,
    pbrp_csp,
    strip_trivial_components,
    subtract_wrapper,
    translate_dirret_to_csp,
    translate_ret_to_csp,
)
from .fixedgraphs import (
    build_fixed_graph,
    build_hk,
    build_hk_prime,
    build_j_blocked,
    build_jq,
    build_pbrp,
    build_two_wrench,
    build_wr,
)
from .gadgets import (
    build_cut_instance,
    build_largecut_instance,
    choose_pq,
    count_large_cuts_bruteforce,
    count_multiterminal_cuts_bruteforce,
    cut_accounting,
    dirichlet_approx,
    estimate_multiterminal_cuts,
    find_J3_labels,
    pin_neighborhood_instance,
)
from .homtypes import (
    HomType,
    brute_count_by_type,
    dominance_report,
    enumerate_maximal_types,
    is_nonempty_type,
    lemma43_check,
    lemma43_scan,
    n_exact,
    nhat,
    symmetric_partner,
)
from .approx import (
    CoverageRun,
    ExactOracle,
    NoisyOracle,
    coverage_mc,
    enumerate_T,
    lhom_padding,
    powered_count,
    sample_hom,
)

__version__ = "0.1.0"
