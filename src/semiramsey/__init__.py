"""Exact-arithmetic constructions, solvers and verifiers for homogeneous
subsets of semi-algebraic relations."""

from .constructions import (ConstructionInstance, base_construction,
                            base_relation, delta_index, frankl_wilson_graph,
                            one_dim_k4_construction, one_dim_k4_relation,
                            slope, step_up,
                            step_up_membership_rule, step_up_points,
                            step_up_relation, tower, verify_delta_properties,
                            verify_eps_deep_sampled, verify_eps_increasing)
from .errors import (ArgumentError, BudgetExhaustedError, DegenerateInputError,
                     PreconditionError, ResourceLimitError)
from .geometry import (Arrangement, Hyperplane, det, general_position_points,
                       general_position_hyperplanes, hyperplane_intersection,
                       is_convex_position, is_one_sided, one_sided_relation,
                       order_type_relation, orientation,
                       orientation_polynomial, project_onto_hyperplane,
                       solve_linear_system)
from .poly import (MultivariatePolynomial, derivative, from_univariate_coeffs,
                   univariate_coeffs, univariate_divmod)
from .relation import (Atom, Formula, OrderedPointSet, SemiAlgebraicRelation,
                       count_distinct_sign_vectors, eval_membership,
                       milnor_thom_bound, sign_vector)
from .rng import SeededRng
from .solvers import (HomogeneousResult, Hypergraph3, TransitiveColoring,
                      erdos_rado_greedy, find_bad_triples, homogeneous_check,
                      is_K4e_free, is_Ks3_free, longest_monotone_subsequence,
                      max_homogeneous, spencer_independent_set,
                      transitive_ramsey_number, verify_transitive_ramsey)
from .sturm import count_real_roots, sign_changes, sturm_sequence

__version__ = "0.1.0"

__all__ = [
    "ArgumentError", "Arrangement", "Atom", "BudgetExhaustedError",
    "ConstructionInstance", "DegenerateInputError", "Formula",
    "HomogeneousResult", "Hypergraph3", "Hyperplane",
    "MultivariatePolynomial", "OrderedPointSet", "PreconditionError",
    "ResourceLimitError", "SeededRng", "SemiAlgebraicRelation",
    "TransitiveColoring", "base_construction", "base_relation",
    "count_distinct_sign_vectors", "count_real_roots", "delta_index",
    "derivative", "det", "erdos_rado_greedy", "eval_membership",
    "find_bad_triples", "frankl_wilson_graph", "from_univariate_coeffs",
    "general_position_hyperplanes", "general_position_points",
    "homogeneous_check", "hyperplane_intersection", "is_K4e_free",
    "is_Ks3_free", "is_convex_position", "is_one_sided",
    "longest_monotone_subsequence", "max_homogeneous", "milnor_thom_bound",
    "one_dim_k4_construction", "one_dim_k4_relation", "one_sided_relation",
    "order_type_relation", "orientation", "orientation_polynomial",
    "project_onto_hyperplane", "sign_changes",
    "sign_vector", "slope", "solve_linear_system",
    "spencer_independent_set", "step_up", "step_up_membership_rule",
    "step_up_points", "step_up_relation", "sturm_sequence", "tower",
    "transitive_ramsey_number", "univariate_coeffs", "univariate_divmod",
    "verify_delta_properties", "verify_eps_deep_sampled",
    "verify_eps_increasing", "verify_transitive_ramsey",
]
