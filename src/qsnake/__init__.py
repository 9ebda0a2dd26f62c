"""Exact q-deformed rationals, snake graphs, dimer statistics, Kasteleyn determinants."""

from .laurent import LaurentFraction, LaurentPoly, laurent_gcd
from .matching import (case_recurrences_check, denominator_via_matchings,
                       enumerate_matchings, matching_stat_dp,
                       numerator_via_matchings, scalar_exponent, snake_fraction)
from .kasteleyn import (KasteleynMatrix, det_exact, kasteleyn_matrix,
                        number_vertices, verify_kasteleyn)
from .qrational import (RouteTable, all_routes, cf_expand,
                        fibonacci_families, q_cf_eval, q_continuant, q_int,
                        q_map_general, q_matrix_eval, q_rational)
from .snake import SnakeGraph, sign_sequence, snake_graph

__version__ = "0.1.0"

__all__ = [
    "LaurentFraction", "LaurentPoly", "laurent_gcd",
    "cf_expand", "q_int",
    "q_cf_eval", "q_matrix_eval", "q_continuant", "q_map_general",
    "q_rational", "RouteTable", "all_routes", "fibonacci_families",
    "SnakeGraph", "snake_graph", "sign_sequence",
    "enumerate_matchings", "matching_stat_dp",
    "scalar_exponent", "snake_fraction", "numerator_via_matchings",
    "denominator_via_matchings", "case_recurrences_check",
    "KasteleynMatrix", "number_vertices", "kasteleyn_matrix", "det_exact",
    "verify_kasteleyn",
    "__version__",
]
