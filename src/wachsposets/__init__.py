"""
Exact combinatorics of Wachs and signed Wachs permutations: enumeration,
pair/subset codes, Bruhat and weak orders on the induced posets, and a
verification suite for their closed-form structure.
"""

from .perms import (
    SizeCapError, StatRecord, compose, descent_set_a, embed_tilde,
    format_perm, format_window, identity, inverse, length_a, length_b,
    signed_reflection, stats_a,
)
from .bruhat import (
    bruhat_covers, bruhat_leq_a, bruhat_leq_b, bruhat_up_sets,
)
from .qpoly import IntPolynomial, q_factorial, q_int
from .posets import (
    FinitePoset, build_poset, characteristic_polynomial, dominance_up_sets,
    dual_check, grade, lattice_checks, mobius_rows, poset_from_up, to_dot,
)
from .wachs import (
    KINDS, ClosedForms, Kind, chi_map, closed_polys, coatom_c, decode, encode,
    enumerate_wachs, f_map, involution, involution_wa, involution_wb, is_wachs,
    kind_record, longest_element, mobius_closed, rank_lw, star, wachs_covers,
    wachs_leq, wachs_up_sets,
)
from .weak import tl_set, weak_leq, weak_product_iso

__version__ = "0.1.0"
