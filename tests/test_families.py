import gc
import itertools
import random
import time
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdspace import families
from bdspace.families import (RegularFamily, explicit, is_admissible,
                              is_member, is_spread, max_union, member_start,
                              member_stepper, profile_key, schreier,
                              singleton_plus_pair)
from oracles import bf_member, count_schreier1

S1 = schreier(1)
S2 = schreier(2)
SW = schreier(((1, 1),))          # omega
SW2 = schreier(((1, 1), (0, 1)))  # omega + 1


def test_s1_examples():
    assert is_member({1}, S1)
    assert not is_member({1, 2}, S1)
    assert is_member({3, 5, 7}, S1)


def test_admissible_examples():
    assert is_admissible([{2}, {3}], S1)
    assert not is_admissible([{1}, {2}], S1)
    assert is_admissible([{3, 4}, {5}, {9, 10}], S1)
    with pytest.raises(ValueError):
        is_admissible([{2, 5}, {3}], S1)


def test_spread_examples():
    assert is_spread({1, 2}, {3, 7})
    assert not is_spread({2, 5}, {2, 4})
    assert is_spread(set(), set())


def test_s1_cardinality_vs_bruteforce():
    for n in range(1, 13):
        members = sum(
            1 for size in range(0, n + 1)
            for F in itertools.combinations(range(1, n + 1), size)
            if is_member(F, S1))
        assert members == count_schreier1(n)


def subsets(F):
    F = sorted(F)
    for size in range(len(F) + 1):
        yield from itertools.combinations(F, size)


@pytest.mark.parametrize("fam", [S1, S2, SW, SW2,
                                 singleton_plus_pair(S1),
                                 explicit([{2, 5}, {3, 4, 9}]),
                                 max_union([S1, explicit([{1, 4}])])])
def test_hereditary_exhaustive(fam):
    # every generated member of size <= 6 inside [1, 8] has all subsets inside
    for size in range(1, 7):
        for F in itertools.combinations(range(1, 9), size):
            if is_member(F, fam):
                for G in subsets(F):
                    assert is_member(G, fam), (F, G)


@pytest.mark.parametrize("fam", [S1, S2, SW, singleton_plus_pair(S1),
                                 explicit([{2, 5}, {3, 4, 9}])])
def test_spreading(fam):
    small = [F for size in range(1, 4)
             for F in itertools.combinations(range(1, 7), size)
             if is_member(F, fam)]
    for F in small:
        for B in itertools.combinations(range(1, 21), len(F)):
            if is_spread(F, B):
                assert is_member(B, fam), (F, B)


def test_singletons_always_members():
    for fam in (S1, S2, SW, SW2, singleton_plus_pair(S2),
                explicit([{5, 6}])):
        for n in range(1, 20):
            assert is_member({n}, fam)


def test_pairplus_contains_base():
    B = singleton_plus_pair(S1)
    for size in range(1, 5):
        for F in itertools.combinations(range(1, 8), size):
            if is_member(F, S1):
                assert is_member(F, B)
    # {n} u B1 u B2 genuinely enlarges: S1 caps size by the minimum
    assert is_member({2, 3, 4, 5, 6}, B)
    assert not is_member({1, 2}, S1) and is_member({1, 2}, B)


def test_schreier_limit_ordinal():
    # S_omega membership uses the fundamental sequence lambda_n = n
    assert is_member({1}, SW)
    assert is_member({2, 3}, SW)          # in S_2 with n = 2 <= min
    assert is_member({3, 4, 5, 6, 7}, SW)
    assert not is_member({1, 2}, SW)      # S_1 with n = 1 rejects pairs at 1


def test_families_are_interned_and_held_weakly():
    # one object per (kind, payload), whichever way it is described, so
    # every cache a family keys compares it by identity
    assert schreier(1) is schreier(1) is S1
    assert schreier([(0, 1)]) is S1
    assert explicit([{2, 1}, {1, 2}, [3]]) is explicit([[3], {1, 2}])
    assert max_union([S1, singleton_plus_pair(S2)]) is max_union(
        (schreier(1), singleton_plus_pair(schreier(2))))
    assert schreier(2) is not S1 and max_union([S1]) is not S1
    # a family no one refers to is collected, and its entry goes with it
    fam = explicit([{101, 202, 303}])
    ref = weakref.ref(fam)
    key = ("explicit", fam.payload)
    assert RegularFamily._interned[key] is fam
    del fam
    gc.collect()
    assert ref() is None and key not in RegularFamily._interned


@settings(max_examples=50, deadline=None)
@given(st.sets(st.integers(min_value=1, max_value=15), max_size=5))
def test_union_is_or(F):
    u = max_union([S1, S2])
    assert is_member(F, u) == (is_member(F, S1) or is_member(F, S2))


@pytest.mark.parametrize("fam", [
    schreier(0), S1, S2, schreier(3), SW, SW2,
    schreier(((1, 2),)),                       # omega * 2
    schreier(((2, 1),)),                       # omega^2
    singleton_plus_pair(S1),
    max_union([explicit([{2, 5}, {3, 4, 9}]), S1])],
    ids=["S0", "S1", "S2", "S3", "Sw", "Sw+1", "Sw2", "Sww", "pairplus-S1",
         "explicit-or-S1"])
def test_membership_matches_definition_exhaustive(fam):
    # the budget automaton against the defining recursion, on every subset
    for size in range(12):
        for F in itertools.combinations(range(1, 12), size):
            assert is_member(F, fam) == bf_member(F, fam), F


def _walk(fam, F):
    """Membership of every prefix of the increasing tuple F, one step at a
    time; a prefix after a rejected one is rejected too (hereditary)."""
    step = member_stepper(fam, F[-1])
    state = member_start(fam, F[0])
    out = [True]
    for x in F[1:]:
        state = None if state is None else step(state, x)
        out.append(state is not None)
    return out


@pytest.mark.parametrize("fam", [
    S1, S2, SW2, schreier(((2, 1),)),
    singleton_plus_pair(S1),
    explicit([{2, 5}, {3, 4, 9}]),
    max_union([explicit([{2, 5}, {3, 4, 9}]), S1])],
    ids=["S1", "S2", "Sw+1", "Sww", "pairplus-S1", "explicit",
         "explicit-or-S1"])
def test_member_walk_matches_definition(fam):
    # the cached automaton (or the cached membership of the other shapes)
    # against the defining recursion, on seeded increasing sequences; the
    # second round starts from cleared caches halfway through
    rng = random.Random(29)
    seqs = [tuple(sorted(rng.sample(range(1, 25), rng.randint(1, 9))))
            for _ in range(300)]
    for round_ in range(2):
        for k, F in enumerate(seqs):
            if round_ and k == len(seqs) // 2:
                for cached in (families._open, families._step,
                               families._member):
                    cached.cache_clear()
            assert _walk(fam, F) == [bf_member(F[:j], fam)
                                     for j in range(1, len(F) + 1)], F


def _profile_violations(fam, key, bound=10, length=5):
    """Tuples in [1, bound] of length <= ``length`` whose key is shared by an
    earlier tuple of the same length with another membership profile (the
    membership of the coordinates at each set of positions)."""
    profile_of, bad = {}, []
    for n in range(1, length + 1):
        for coords in itertools.combinations(range(1, bound + 1), n):
            profile = tuple(is_member(sub, fam) for size in range(2, n + 1)
                            for sub in itertools.combinations(coords, size))
            first = profile_of.setdefault((n, key(fam, coords)), profile)
            if first != profile:
                bad.append(coords)
    return bad


PROFILE_FAMILIES = {
    "S1": S1, "S2": S2, "S3": schreier(3), "Sw": SW, "Sw+1": SW2,
    "Sw2": schreier(((1, 2),)), "Sww": schreier(((2, 1),)),
    "Sww+w2+2": schreier(((2, 1), (1, 2), (0, 2))),
    "S1-or-Sw+1": max_union([S1, SW2]),
    "explicit": explicit([{2, 5}, {3, 4, 9}]),
    "pairplus-S1": singleton_plus_pair(S1),
    "explicit-or-S1": max_union([explicit([{2, 5}, {3, 4, 9}]), S1])}


@pytest.mark.parametrize("fam", PROFILE_FAMILIES.values(),
                         ids=PROFILE_FAMILIES.keys())
def test_profile_key_keeps_membership_profile(fam):
    # every tuple of one length and key has one membership profile
    assert _profile_violations(fam, profile_key) == []
    if fam.kind == "schreier" or fam.kind == "union" and all(
            f.kind == "schreier" for f in fam.payload):
        # the key is the prefix before the first coords[j] >= n - j
        assert profile_key(fam, (2, 3, 4)) == (2,)
        assert profile_key(fam, (1, 3, 7, 8)) == (1,)
        assert profile_key(fam, (1, 2, 9)) == (1,)
        assert profile_key(fam, (5, 6)) == ()
    else:
        # shapes without a budget automaton are keyed by the coordinates
        for n in range(1, 6):
            for coords in itertools.combinations(range(1, 11), n):
                assert profile_key(fam, coords) == coords


def test_profile_key_check_can_fail():
    # one more clamp than the proof allows merges tuples whose profiles
    # differ, so the check above is not vacuous
    def clamp_too_far(fam, coords):
        n = len(coords)
        for j, x in enumerate(coords):
            if x + j >= n - 1:
                return coords[:j]
        return coords
    for fam in (S1, S2, SW2):
        assert _profile_violations(fam, clamp_too_far)


def _frames(cnf, n):
    """The frame count that ``MAX_FRAMES`` bounds: sum c * n^k, 0 at n = 1."""
    return sum(c * n ** k for k, c in cnf) if n > 1 else 0


@pytest.mark.parametrize("cnf, n", [
    (((0, 1),), 9), (((0, 2),), 9), (((1, 1),), 8), (((1, 1), (0, 1)), 8),
    (((1, 2),), 7), (((2, 1),), 7), (((2, 1), (1, 2), (0, 2)), 6),
    (((3, 1),), 5)],
    ids=["S1", "S2", "Sw", "Sw+1", "Sw2", "Sww", "Sww+w2+2", "Swww"])
def test_no_state_on_an_interval_outgrows_the_top_singleton(cnf, n):
    # every state of every set in [1, n] has at most sum c * n^k frames,
    # the count of {n}'s state, which the frame bound checks
    fam = schreier(cnf)
    step = member_stepper(fam, n)
    largest, seen = 0, set()
    todo = [(member_start(fam, m), m) for m in range(1, n + 1)]
    while todo:
        state, last = todo.pop()
        if (state, last) not in seen:
            seen.add((state, last))
            largest = max(largest, len(state))
            todo += [(nxt, x) for x in range(last + 1, n + 1)
                     if (nxt := step(state, x)) is not None]
    assert largest == len(member_start(fam, n)) == _frames(cnf, n)


def test_frame_bound_admits_and_refuses():
    # S_(omega^2) reaches 32^2 = MAX_FRAMES frames on [1, 32], and 33^2
    # on [1, 33]; omega^3 * 999999999 is refused at once, before any state
    # is built, where opening {5} would build 125 * 999999999 frames
    sww = schreier(((2, 1),))
    assert _frames(sww.payload, 32) == families.MAX_FRAMES
    assert member_stepper(sww, 32) is not None
    assert is_member(range(20, 33), sww)
    with pytest.raises(ValueError, match=r"^schreier:w\^2\*1 on \[1, 33\] "
                       "needs more than 1024 automaton frames$"):
        member_stepper(sww, 33)
    huge = schreier(((3, 999_999_999),))
    start = time.perf_counter()
    for refuse in (lambda: is_member({5, 6, 7}, huge),
                   lambda: member_stepper(huge, 7),
                   lambda: is_member({16}, schreier(((4, 1),))),
                   lambda: member_stepper(schreier(2000), 2)):
        with pytest.raises(ValueError, match="automaton frames$"):
            refuse()
    assert time.perf_counter() - start < 1
