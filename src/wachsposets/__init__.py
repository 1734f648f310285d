"""
Exact combinatorics of Wachs and signed Wachs permutations: enumeration,
pair/subset codes, Bruhat and weak orders on the induced posets, and a
verification suite for their closed-form structure.  Import each name
from its module.
"""
