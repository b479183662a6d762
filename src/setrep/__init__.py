"""Minimum set representations of line graphs and complete graphs.

The package computes the smallest universe over which a graph can be
realised as an intersection graph of nonempty sets under the simple /
distinct / antichain / uniform predicates, counts the isomorphism
classes of optimal solutions, constructs explicit witnesses, and -- for
everything it claims exactly -- can cross-check itself against an
exhaustive search oracle.
"""

from .classify import Classification, classify, find_semiwings, find_wings
from .cliquecover import (CliqueCover, egp_cover, egp_set, is_partition,
                          silly_partition, validate_cover)
from .errors import (DuplicateEdgeError, GraphFormatError, InvalidCoverError,
                     NoPlaneExists, NoSuchPlaneConstruction, SelfLoopError,
                     SetrepError, TheoremNotApplicable)
from .geometry import (LinearSpace, fls_to_cover, is_projective_plane,
                       n_pp, near_pencil, plane_order, projective_plane,
                       puncture, validate_linear_space)
from .graphs import (Graph, complete_graph, cycle_graph,
                     format_graph, line_graph, parse_graph, path_graph,
                     star_graph)
from .oracle import OracleResult, SearchBudget, oracle_search, verify_dbe
from .representations import (CategoryFlags, SetRepresentation,
                              canonical_form, category_flags, failing_pair,
                              isomorphic, partition_into_classes, represents)
from .theorems import (ThetaTauReport, theta_tau_complete,
                       theta_tau_linegraph, witness_sa, witness_sa_variants,
                       witness_sd, witness_sd_variants)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
