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
from .bruhat import bruhat_covers, bruhat_up_sets
from .qpoly import IntPolynomial, q_factorial, q_int
from .posets import (
    FinitePoset, characteristic_polynomial, dominance_up_sets, dual_check,
    grade, lattice_checks, mobius_rows, poset_from_up, to_dot,
)
from .wachs import (
    KINDS, ClosedForms, Kind, chi_map, closed_polys, coatom_c, decode, encode,
    enumerate_wachs, involution, is_wachs, kind_record, longest_element,
    mobius_closed, wachs_up_sets,
)
from .weak import weak_product_iso
from .reference import (
    bruhat_leq_a, bruhat_leq_b, build_poset, f_map, rank_lw, star, tl_set,
    tl_set_a, wachs_covers, wachs_leq, weak_leq,
)

__version__ = "0.1.0"
