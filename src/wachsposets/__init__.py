"""
Exact combinatorics of Wachs and signed Wachs permutations: enumeration,
pair/subset codes, Bruhat and weak orders on the induced posets, and a
verification suite for their closed-form structure.
"""

from .perms import (
    BLength, SizeCapError, StatRecord, check_perm, check_window, compose,
    descent_set_a, descent_set_b, embed_tilde, format_perm, format_window,
    identity, inverse, length_a, length_b, parse_perm, parse_window,
    signed_reflection, stats_a,
)
from .bruhat import (
    bruhat_leq_a, bruhat_leq_b, bruhat_up_sets, covers_a, covers_b,
)
from .qpoly import IntPolynomial, q_factorial, q_int
from .posets import (
    FinitePoset, build_poset, cartesian_product, characteristic_polynomial,
    dual_check, grade, inclusion_up_sets, lattice_checks, mobius_row,
    ordinal_product, poset_from_up, poset_isomorphic,
    rank_generating_polynomial, to_dot, to_json,
)
from .wachs import (
    KINDS, ClosedForms, Kind, chi_map, closed_polys, coatom_c, decode, encode,
    enumerate_wachs, f_map, involution_wa, involution_wb, is_wachs,
    kind_record, longest_element, mobius_closed, rank_lw, star, wachs_covers,
    wachs_leq,
)
from .weak import tl_set, weak_leq, weak_product_iso

__version__ = "0.1.0"
