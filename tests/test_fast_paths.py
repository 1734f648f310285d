"""The fast paths against their independent oracles: the Bruhat up-sets
against the tableau criterion, the weak-order masks against containment
of left-inversion sets, and enumeration by decoding against a membership
filter of the whole group, on every rank up to the default caps."""

import pytest

from wachsposets import checks, wachs
from wachsposets.bruhat import bruhat_leq_a, bruhat_leq_b, bruhat_up_sets
from wachsposets.perms import all_perms, all_windows, embed_tilde, inverse
from wachsposets.posets import build_poset
from wachsposets.weak import tl_set

CELLS = [(kind, n) for kind, top in (("A", 8), ("B", 6))
         for n in range(1, top + 1)]
GROUPS = {"A": all_perms, "B": all_windows}


def assert_same_poset(p, q):
    assert p.elements == q.elements and p.items == q.items
    assert p.up == q.up and p.down == q.down and p.covers == q.covers


def filtered_wachs(kind, n):
    """The enumeration oracle: every element of G_n, kept by is_wachs."""
    return sorted(w for w in GROUPS[kind](n) if wachs.is_wachs(w))


@pytest.mark.parametrize("kind,n", CELLS)
def test_bruhat_poset_matches_tableau_oracle(kind, n):
    k = wachs.kind_record(kind)
    oracle = build_poset(checks.wachs_elements(kind, n), k.leq, key=k.key)
    assert_same_poset(checks.bruhat_poset(kind, n), oracle)


def test_bruhat_up_sets_on_whole_groups():
    for n in range(1, 6):
        words = list(all_perms(n))
        assert bruhat_up_sets(words) == [
            sum(1 << j for j, v in enumerate(words) if bruhat_leq_a(u, v))
            for u in words]
    for n in range(1, 4):
        windows = list(all_windows(n))
        assert bruhat_up_sets([embed_tilde(w) for w in windows]) == [
            sum(1 << j for j, v in enumerate(windows) if bruhat_leq_b(u, v))
            for u in windows]


@pytest.mark.parametrize("side", ["L", "R"])
@pytest.mark.parametrize("kind,n", CELLS)
def test_weak_poset_matches_inversion_set_containment(kind, n, side):
    elems = checks.wachs_elements(kind, n)
    tls = {v: tl_set(inverse(v) if side == "L" else v, kind) for v in elems}
    oracle = build_poset(elems, lambda x, y: tls[x] <= tls[y],
                         key=wachs.kind_record(kind).key)
    assert_same_poset(checks.weak_poset(kind, n, side), oracle)


@pytest.mark.parametrize("kind,n", CELLS)
def test_decoded_enumeration_matches_filter(kind, n):
    assert wachs.enumerate_wachs(kind, n) == filtered_wachs(kind, n)


def test_enumeration_rejects_a_bad_decoding(monkeypatch):
    monkeypatch.setattr(wachs, "decode", lambda code, n: (1, 3, 2, 4))
    with pytest.raises(ValueError, match="not a Wachs permutation"):
        wachs.enumerate_wachs("A", 4)
