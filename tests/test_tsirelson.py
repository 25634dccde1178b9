import gc
import hashlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdspace import tsirelson
from bdspace.exact import FinVec
from bdspace.families import (explicit, is_admissible, max_union, schreier,
                               singleton_plus_pair)
from bdspace.tsirelson import (CapExceeded, TsirelsonSpec,
                               build_dual_norming_set, certify_domination,
                               norming_functional, tree_l1_ceiling,
                               tree_support, tree_vec, tsirelson_norm,
                               vstar_norm)
from oracles import bf_best_split, bf_tsirelson, bf_vstar_norm

F = Fraction
S1 = schreier(1)
HALF = TsirelsonSpec(S1, F(1, 2))


def nat(entries):
    return FinVec("nat", entries)


def test_norm_examples():
    assert tsirelson_norm(nat({1: 1}), HALF) == 1
    assert tsirelson_norm(nat({1: 1, 2: 1}), HALF) == 1
    assert tsirelson_norm(nat({3: 1, 4: 1, 5: 1}), HALF) == F(3, 2)


def test_norm_banding_and_unconditionality():
    rng = random.Random(3)
    for _ in range(40):
        entries = {rng.randint(1, 9): F(rng.randint(-8, 8), 4)
                   for _ in range(rng.randint(1, 5))}
        x = nat(entries)
        n = tsirelson_norm(x, HALF)
        assert x.linf() <= n <= x.l1()
        flipped = nat({i: -v if rng.random() < 0.5 else v
                       for i, v in entries.items()})
        if flipped.support() == x.support():
            assert tsirelson_norm(flipped, HALF) == n


def test_oracle_equivalence_small_exhaustive():
    memo = {}
    for support in itertools.combinations(range(1, 7), 3):
        for vals in itertools.product((F(1), F(1, 2), F(-1)), repeat=3):
            x = dict(zip(support, vals))
            items = tuple((i, abs(v)) for i, v in sorted(x.items()))
            assert tsirelson_norm(nat(x), HALF) == bf_tsirelson(
                items, S1, F(1, 2), memo)


def test_oracle_equivalence_deeper_family():
    spec = TsirelsonSpec(schreier(2), F(1, 3))
    memo = {}
    rng = random.Random(7)
    for _ in range(25):
        sup = rng.sample(range(1, 9), rng.randint(1, 5))
        x = {i: F(rng.choice([1, -1, 2, -2]), rng.choice([1, 2])) for i in sup}
        items = tuple((i, abs(v)) for i, v in sorted(x.items()))
        assert tsirelson_norm(nat(x), spec) == bf_tsirelson(
            items, schreier(2), F(1, 3), memo)


@pytest.mark.parametrize("spec", [
    HALF, TsirelsonSpec(S1, F(1, 16)), TsirelsonSpec(schreier(2), F(1, 3)),
    TsirelsonSpec(schreier(((1, 1),)), F(1, 2)),
    TsirelsonSpec(max_union([explicit([{1, 4}, {2, 3, 5}]), S1]), F(1, 2))],
    ids=["S1-half", "S1-sixteenth", "S2-third", "Sw-half", "explicit-or-S1"])
def test_best_split_matches_dfs(spec):
    # the dynamic program returns the value and the breakpoints of the first
    # optimal split in the depth-first preorder; ties are frequent here, and
    # flat vectors tie a block with its own splits
    rng = random.Random(13)
    cases = []
    for _ in range(250):
        coords = tuple(sorted(rng.sample(range(1, 10), rng.randint(1, 6))))
        # magnitudes (1|2|4|8)/(1|2), doubled to integers
        halves = tuple(rng.choice((1, 2, 4, 8)) * rng.choice((1, 2))
                       for _ in coords)
        cases.append((coords, halves))
    cases += [(coords, (2,) * size) for size in range(2, 7)
              for coords in itertools.combinations(range(1, 10), size)]
    # one or two small entries before a flat run: under S_1 and S_2 the first
    # optimal split then can skip two or more positions, a split the search
    # reads from the suffix of its suffix
    cases += [(tuple(range(1, n + 1)), (1,) * k + (16,) * (n - k))
              for n in range(3, 11) for k in (1, 2)]
    nested = 0
    for coords, halves in cases:
        items = tuple((i, F(h, 2)) for i, h in zip(coords, halves))
        value, split = tsirelson._best_split(spec.key(), spec.family, spec.c,
                                             coords, halves)
        value = F(value, 2 * spec.c.denominator ** (len(coords) - 1))
        assert (value, split) == bf_best_split(items, spec), items
        nested += split is not None and split[0] >= 2
    if spec.family in (S1, schreier(2)) and spec.c >= F(1, 3):
        assert nested


def test_search_starts_one_first_block(fresh_memos, monkeypatch):
    # each search starts the family state of a first block once, at the
    # first coordinate: the splits that skip it are read from the suffix's
    # memo entry, not searched again
    search, start = tsirelson._search, tsirelson.member_start
    open_searches, starts = [], []

    def counted_search(*args):
        open_searches.append(0)
        try:
            return search(*args)
        finally:
            starts.append(open_searches.pop())

    def counted_start(fam, i):
        open_searches[-1] += 1
        return start(fam, i)

    monkeypatch.setattr(tsirelson, "_search", counted_search)
    monkeypatch.setattr(tsirelson, "member_start", counted_start)
    rng = random.Random(23)
    for spec in (HALF, TsirelsonSpec(schreier(2), F(1, 3))):
        for n in range(2, 9):
            coords = tuple(range(1, n + 1))
            tsirelson._best_split(spec.key(), spec.family, spec.c,
                                  coords, (1,) * n)
            tsirelson._norm_rec(spec.key(), spec.family, spec.c, coords,
                                tuple(rng.randint(1, 8) for _ in coords))
    assert max(starts) == 1


def test_norm_homogeneous_and_memo_keyed_by_direction():
    rng = random.Random(17)
    for _ in range(30):
        x = {i: F(rng.randint(-8, 8) or 1, rng.randint(1, 6))
             for i in rng.sample(range(1, 12), rng.randint(1, 7))}
        n = tsirelson_norm(x, HALF)
        entries = len(tsirelson._norm_memo)
        for lam in (F(3), F(1, 7), F(5, 2)):
            assert tsirelson_norm({i: lam * v for i, v in x.items()},
                                  HALF) == lam * n
        assert len(tsirelson._norm_memo) == entries


def test_norm_memo_is_bounded(monkeypatch):
    # a full memo is emptied: it never holds more than its cap, and norms
    # and witnesses searched across the emptying match the oracle
    monkeypatch.setattr(tsirelson, "_norm_memo", {})
    monkeypatch.setattr(tsirelson, "_NORM_MEMO_CAP", 8)
    memo = {}
    for support in itertools.combinations(range(2, 8), 4):
        x = dict(zip(support, (F(1), F(1, 2), F(-1), F(3, 4))))
        items = tuple((i, abs(v)) for i, v in sorted(x.items()))
        norm, _, f = norming_functional(x, HALF)
        assert norm == f.pair(nat(x)) == bf_tsirelson(items, S1, F(1, 2), memo)
        assert len(tsirelson._norm_memo) <= 8


@pytest.fixture()
def fresh_memos(monkeypatch):
    monkeypatch.setattr(tsirelson, "_norm_memo", {})
    monkeypatch.setattr(tsirelson, "_value_memo", {})


def clear_memos():
    tsirelson._norm_memo.clear()
    tsirelson._value_memo.clear()


# one vector, x = e_2 - e_3/2 + 3e_5/4 + e_10/3, in every input form
X_ITEMS = ((2, F(1)), (3, F(1, 2)), (5, F(3, 4)), (10, F(1, 3)))
X_FORMS = {
    "finvec": nat({2: F(1), 3: F(-1, 2), 5: F(3, 4), 10: F(1, 3)}),
    "string-keys": {"10": F(1, 3), "2": F(1), "3": F(-1, 2), "5": F(3, 4)},
    "pair-list": [(5, F(3, 4)), (2, F(1)), (10, F(1, 3)), (3, F(-1, 2))],
    "mixed-keys": {2: F(1), "3": F(-1, 2), 5: F(3, 4), "10": F(1, 3)},
    "str-values": {2: "1", 3: "-1/2", 5: "0.75", 10: "1/3"},
    "zero-entries": {0: 0, 1: F(0), 2: F(1), 3: F(-1, 2), 4: "0", 5: F(3, 4),
                     10: F(1, 3), 11: 0},
}
# 12x has integer entries: the same direction, another value
Y_ITEMS = ((2, F(12)), (3, F(6)), (5, F(9)), (10, F(4)))


@pytest.mark.parametrize("form", list(X_FORMS), ids=list(X_FORMS))
def test_value_memo_input_forms(fresh_memos, form):
    # a first call, a repeated one (a value-memo hit) and one after both
    # memos are emptied read the same entries and give the oracle's value
    expected = bf_tsirelson(X_ITEMS, S1, F(1, 2), {})
    x = X_FORMS[form]
    assert tsirelson_norm(x, HALF) == expected
    assert len(tsirelson._value_memo) == 1
    assert tsirelson_norm(x, HALF) == expected
    clear_memos()
    assert tsirelson_norm(x, HALF) == expected
    for y in ({i: 12 * v for i, v in X_ITEMS},
              {i: int(v) for i, v in Y_ITEMS}):
        assert tsirelson_norm(y, HALF) == 12 * expected


def test_value_memo_reads_an_iterator_once(fresh_memos):
    # the miss path scales what was read, it does not read x again
    expected = bf_tsirelson(X_ITEMS, S1, F(1, 2), {})
    for _ in range(2):
        assert tsirelson_norm(iter(X_FORMS["pair-list"]), HALF) == expected


def test_value_memo_rejects_coordinate_zero_on_repeat(fresh_memos):
    for x in ({0: F(1)}, {0: F(1), 2: F(1)}, {"0": 1, "3": 1}):
        for _ in range(2):
            with pytest.raises(ValueError, match="coordinate 0"):
                tsirelson_norm(x, HALF)
    assert tsirelson_norm({0: 0, 2: F(1)}, HALF) == 1


def test_value_memo_keyed_by_spec(fresh_memos):
    # one vector under S_1 and S_2, at c = 1/2 and 1/3: each spec keeps its
    # own value, however the calls interleave
    x = {i: F(1) for i in range(3, 8)}
    items = tuple(sorted(x.items()))
    specs = [TsirelsonSpec(fam, c) for fam in (S1, schreier(2))
             for c in (F(1, 2), F(1, 3))]
    expected = [bf_tsirelson(items, s.family, s.c, {}) for s in specs]
    assert len(set(expected)) == 4
    for _ in range(2):
        for spec, want in zip(specs, expected):
            assert tsirelson_norm(x, spec) == want
        for spec, want in reversed(list(zip(specs, expected))):
            assert tsirelson_norm(nat(x), spec) == want


def test_value_memo_spreads_of_other_profiles(fresh_memos):
    # {1, 2} is no S_1 member and {5, 6} is one: these spreads have other
    # membership profiles and norms, whichever of them warms the memos
    mags = (F(1), F(1, 2), F(1), F(1, 2))
    low = dict(zip((1, 2, 3, 4), mags))
    high = dict(zip((5, 6, 7, 8), mags))
    want = {k: bf_tsirelson(tuple(sorted(v.items())), S1, F(1, 2), {})
            for k, v in (("low", low), ("high", high))}
    assert want["low"] != want["high"]
    for order in (("low", "high"), ("high", "low")):
        clear_memos()
        for k in order + order:
            assert tsirelson_norm(low if k == "low" else high, HALF) == want[k]


def test_value_memo_is_bounded(fresh_memos, monkeypatch):
    # both memos are emptied at the cap, and values across the emptying
    # match the oracle, on a first call and on a repeat
    monkeypatch.setattr(tsirelson, "_NORM_MEMO_CAP", 8)
    memo, sizes = {}, set()
    for _ in range(2):
        for k, support in enumerate(itertools.combinations(range(1, 8), 3)):
            x = dict(zip(support, (F(1), F(-1, 2), F(k % 5 + 1, 4))))
            items = tuple((i, abs(v)) for i, v in sorted(x.items()))
            assert tsirelson_norm(x, HALF) == bf_tsirelson(
                items, S1, F(1, 2), memo)
            sizes.add((len(tsirelson._norm_memo),
                       len(tsirelson._value_memo)))
    assert max(a for a, _ in sizes) == max(b for _, b in sizes) == 8


@pytest.mark.parametrize("spec", [HALF, TsirelsonSpec(schreier(2), F(1, 3))],
                         ids=["S1-half", "S2-third"])
def test_oracle_equivalence_wide_supports(spec):
    # supports in [1, 30] have coordinates of at least the number of
    # coordinates from them on, which the memo key clamps; magnitudes from
    # a short list make later vectors hit entries made by other coordinates
    memo = {}
    rng = random.Random(23)
    for _ in range(60):
        sup = sorted(rng.sample(range(1, 31), rng.randint(1, 6)))
        x = {i: F(rng.choice([1, -1, 2]), rng.choice([1, 2])) for i in sup}
        items = tuple((i, abs(v)) for i, v in sorted(x.items()))
        assert tsirelson_norm(nat(x), spec) == bf_tsirelson(
            items, spec.family, spec.c, memo), x


def test_shifts_share_memo_entries_under_schreier_only():
    # every coordinate of x is at least its support size, so all sets of
    # its coordinates (and of its shifts) of one size are S_1 members or
    # not alike: the shifts reuse x's entries.  An explicit family keys
    # by the coordinates, so a shift is a new search
    x = {5: F(1), 7: F(1, 2), 8: F(1), 11: F(1, 3), 12: F(2)}
    shifts = [{i + k: v for i, v in x.items()} for k in range(1, 6)]
    fams = {"schreier": S1, "explicit": explicit([{5, 7, 8, 11, 12}])}
    for kind, fam in fams.items():
        spec = TsirelsonSpec(fam, F(1, 2))
        n = tsirelson_norm(nat(x), spec)
        entries = len(tsirelson._norm_memo)
        for y in shifts:
            tsirelson_norm(nat(y), spec)
            grew = len(tsirelson._norm_memo) > entries
            assert grew == (kind == "explicit"), (kind, y)
            entries = len(tsirelson._norm_memo)
        if kind == "schreier":
            assert all(tsirelson_norm(nat(y), spec) == n for y in shifts)


@pytest.mark.parametrize("spec", [HALF, TsirelsonSpec(schreier(2), F(1, 3))],
                         ids=["S1-half", "S2-third"])
def test_norming_functional_on_shifts_uses_real_coordinates(spec):
    # the memo is shared by shifted vectors, the witness trees are not:
    # each is admissible on the vector's own support and pairs to its norm
    rng = random.Random(31)
    for _ in range(10):
        sup = sorted(rng.sample(range(1, 13), rng.randint(2, 6)))
        x = {i: F(rng.randint(-8, 8) or 1, 8) for i in sup}
        for k in (0, 1, 4, 15):
            y = nat({i + k: v for i, v in x.items()})
            n, tree, vec = norming_functional(y, spec)
            assert n == tsirelson_norm(y, spec)
            assert vec.pair(y) == n
            assert set(tree_support(tree)) <= set(y.support())
            assert _admissible_tree(tree, spec.family), (y, tree)


def _admissible_tree(tree, fam):
    if tree[0] == "leaf":
        return tree[1] in (1, -1)
    kids = tree[1]
    return (len(kids) >= 2 and all(_admissible_tree(k, fam) for k in kids)
            and is_admissible([tree_support(k) for k in kids], fam))


@pytest.mark.parametrize("spec", [HALF, TsirelsonSpec(schreier(2), F(1, 3))],
                         ids=["S1-half", "S2-third"])
def test_norming_functional_attains(spec):
    rng = random.Random(11)
    xs = []
    for _ in range(25):
        sup = rng.sample(range(1, 9), rng.randint(1, 4))
        xs.append(nat({i: F(rng.randint(-8, 8), 8) for i in sup}))
    # flat vectors whose witnesses are wide (S_2) or nested (S_1) trees
    xs += [nat({i: 1 for i in range(a, b + 1)}) for a, b in ((3, 8), (3, 10))]
    for x in xs:
        if not x:
            continue
        n, tree, vec = norming_functional(x, spec)
        assert n == tsirelson_norm(x, spec)
        assert vec.pair(x) == n
        assert set(vec.support()) <= set(x.support())
        assert _admissible_tree(tree, spec.family)


def test_dual_norming_set_examples():
    d0 = build_dual_norming_set(HALF, 0, 3)
    assert sorted(tuple(v.items()) for v in d0.members()) == sorted(
        ((j, F(s)),) for j in (1, 2, 3) for s in (1, -1))
    d1 = build_dual_norming_set(HALF, 1, 3)
    vecs = set(d1.members())
    assert nat({2: F(1, 2), 3: F(1, 2)}) in vecs
    assert nat({1: F(1, 2), 2: F(1, 2)}) not in vecs


def test_dual_norming_set_norms_from_below():
    d2 = build_dual_norming_set(HALF, 2, 5)
    d1 = build_dual_norming_set(HALF, 1, 5)
    rng = random.Random(5)
    for _ in range(20):
        x = nat({i: F(rng.randint(-4, 4), 4) for i in rng.sample(range(1, 6), 3)})
        n = tsirelson_norm(x, HALF)
        best1 = max((abs(v.pair(x)) for v in d1.members()), default=F(0))
        best2 = max((abs(v.pair(x)) for v in d2.members()), default=F(0))
        assert best1 <= best2 <= n
    # the deepest level attains the norm on vectors inside the bound
    x = nat({3: 1, 4: 1, 5: 1})
    assert max(abs(v.pair(x)) for v in d2.members()) == tsirelson_norm(x, HALF)


def test_dual_norming_set_pinned_at_six_and_seven_blocks():
    spec = TsirelsonSpec(S1, F(1, 16))
    d6 = build_dual_norming_set(spec, 6, 6)
    assert len(d6.trees) == 1460
    # trees, their order, levels and vectors as first generated by the
    # search that recomputed every support inside its loop
    listing = repr([(t, d6.level_of[t]) for t in d6.trees]).encode()
    assert hashlib.sha256(listing).hexdigest() == (
        "78db572509efb66c96f7a4782bfcdfd13a9f0d80de84b6fcbc4a9e2dda9b90be")
    vectors = repr([d6.vec_of[t] for t in d6.trees]).encode()
    assert hashlib.sha256(vectors).hexdigest() == (
        "42243d41aff64da7b819415f4d6da5abdf30f869c75cd595016ee95204431dae")
    assert len(build_dual_norming_set(spec, 7, 7).trees) == 12202


@pytest.mark.parametrize("spec, n", [
    (TsirelsonSpec(S1, F(1, 16)), 6),
    (TsirelsonSpec(schreier(2), F(1, 3)), 6),
    (TsirelsonSpec(max_union([explicit([{1, 4}, {2, 3, 5}]), S1]), F(1, 2)),
     6),
    (TsirelsonSpec(singleton_plus_pair(S1), F(1, 4)), 5)],
    ids=["S1-sixteenth", "S2-third", "explicit-or-S1", "pairplus-S1"])
def test_dual_norming_members_match_their_trees(spec, n):
    # members are built from their children's vectors; tree_vec rebuilds
    # each one from its leaves
    dns = build_dual_norming_set(spec, n, n)
    assert len(dns.trees) > 100
    for tree in dns.trees:
        assert dns.vec_of[tree] == tree_vec(tree, spec), tree


def test_dual_norming_set_cap():
    with pytest.raises(CapExceeded):
        build_dual_norming_set(HALF, 3, 9, member_cap=50)


@pytest.mark.parametrize("k, c, n", [
    (1, F(1, 2), 6), (1, F(3, 4), 6), (2, F(1, 4), 6), (2, F(1, 2), 5),
    (1, F(1, 16), 5), (1, F(1, 2), 2)])
def test_tree_l1_ceiling_is_the_largest_tree_l1(k, c, n):
    # every tree that is no leaf, enumerated: the ceiling is their largest
    # l1, attained
    spec = TsirelsonSpec(schreier(k), c)
    dns = build_dual_norming_set(spec, n, n)
    assert tree_l1_ceiling(spec, n) == max(
        (dns.vec_of[t].l1() for t in dns.trees if t[0] == "node"),
        default=0)


def test_tree_l1_ceiling_under_s1_sixteenth():
    # c times floor((n + 1)/2): below 1 through n = 30, exactly 1 at 31 and
    # 32, where ||1_[1,n]|| = 1 still, and above 1 from 33 on
    spec = TsirelsonSpec(S1, F(1, 16))
    assert [tree_l1_ceiling(spec, n) for n in (16, 30, 31, 32, 33)] == [
        F(8, 16), F(15, 16), 1, 1, F(17, 16)]
    ones = {i: 1 for i in range(1, 33)}
    assert tsirelson_norm(ones, spec) == 1


@pytest.mark.parametrize("call", [
    lambda: tsirelson_norm({i: F(i, 97) for i in range(1, 12)}, HALF),
    lambda: norming_functional({i: F(i, 89) for i in range(1, 10)}, HALF),
    lambda: build_dual_norming_set(TsirelsonSpec(S1, F(1, 16)), 4, 5),
    lambda: tree_l1_ceiling(TsirelsonSpec(S1, F(1, 16)), 9)],
    ids=["tsirelson_norm", "norming_functional", "build_dual_norming_set",
         "tree_l1_ceiling"])
def test_searches_leave_no_reference_cycles(fresh_memos, call):
    # each recursive search unbinds itself before it returns, so its tables
    # are freed then, not at the next pass of the cyclic GC
    gc.collect()
    assert call() is not None
    assert gc.collect() == 0


def test_tree_vec_scaling():
    tree = ("node", (("leaf", 1, 2), ("leaf", -1, 3)))
    assert tree_vec(tree, HALF) == nat({2: F(1, 2), 3: F(-1, 2)})


def test_vstar_norm_matches_plus_tree_oracle():
    # every vector with entries 0, 1, 2 and at most three nonzero, or
    # entries 0, 1 and four nonzero, on [1, 7]
    grid = [dict(zip(Q, a)) for k in (1, 2, 3)
            for Q in itertools.combinations(range(1, 8), k)
            for a in itertools.product((1, 2), repeat=k)]
    grid += [dict.fromkeys(Q, 1) for Q in itertools.combinations(range(1, 8), 4)]
    for coeffs in grid:
        assert vstar_norm(coeffs, HALF) == bf_vstar_norm(coeffs, HALF), coeffs
    # past the reach of the oracle's enumeration: e*_3 + e*_7 + e*_12 acts
    # on e_3 + e_7 + e_12, of norm 3/2
    assert vstar_norm({3: 1, 7: 1, 12: 1}, HALF) == 2


def test_domination_identity_and_scaling():
    # z_i = t_{q_i}: the least constant is 1, and 2 once the blocks are
    # doubled; the norming set is the dual norming set on [1, 5]
    norming = build_dual_norming_set(HALF, 5, 5).members()
    blocks = [nat({3: 1}), nat({4: 1}), nat({5: 1})]
    cert = certify_domination(blocks, [3, 4, 5], HALF, 1, norming)
    assert cert.status == "PASS"
    assert cert.best == 1
    assert cert.witness in norming
    doubled = [b.scale(2) for b in blocks]
    cert = certify_domination(doubled, [3, 4, 5], HALF, 1, norming)
    assert cert.status == "FAIL"
    assert cert.best == 2
    assert vstar_norm({q: abs(cert.witness.pair(z))
                       for q, z in zip([3, 4, 5], doubled)}, HALF) == 2
    cert = certify_domination(doubled, [3, 4, 5], HALF, 2 - F(1, 10 ** 6),
                              norming)
    assert cert.status == "FAIL"
    assert certify_domination(doubled, [3, 4, 5], HALF, 2,
                              norming).status == "PASS"


def test_domination_requires_increasing_indices():
    # blocks need not be successive, but each coefficient needs a
    # coordinate of its own
    norming = build_dual_norming_set(HALF, 5, 5).members()
    blocks = [nat({3: 1, 5: 1}), nat({4: 1})]
    assert certify_domination(blocks, [3, 4], HALF, 2, norming).best > 0
    for qs in ([4, 4], [4, 3]):
        with pytest.raises(ValueError, match="strictly increase"):
            certify_domination(blocks, qs, HALF, 1, norming)


@settings(max_examples=30, deadline=None)
@given(st.dictionaries(st.integers(min_value=1, max_value=7),
                       st.fractions(min_value=-2, max_value=2,
                                    max_denominator=4), max_size=4))
def test_triangle_inequality(entries):
    x = nat(entries)
    y = nat({i + 1: v for i, v in entries.items()})
    nx, ny = tsirelson_norm(x, HALF), tsirelson_norm(y, HALF)
    assert tsirelson_norm(x + y, HALF) <= nx + ny
