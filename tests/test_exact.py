import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdspace.exact import FinVec, TriangularBasisChange, UniverseMismatch
from oracles import dense_unitriangular_solve

F = Fraction


def fv(entries, uni="u"):
    return FinVec(uni, entries)


def test_l1_norm_examples():
    assert fv({}).l1() == 0
    assert fv({1: F(1, 2), 2: F(-1, 2)}).l1() == 1
    assert fv({1: F(3, 10), 2: F(3, 10), 3: F(4, 5)}).l1() == F(7, 5)


def test_linf_norm_examples():
    assert fv({}).linf() == 0
    assert fv({1: F(-3, 4)}).linf() == F(3, 4)
    assert fv({1: F(1, 2), 2: F(1)}).linf() == 1


def test_pair_examples():
    assert fv({5: 1}).pair(fv({5: 1})) == 1
    assert fv({1: F(1, 2)}).pair(fv({2: 1})) == 0
    assert fv({1: F(1, 3), 2: F(2, 3)}).pair(fv({1: 3, 2: F(-3, 2)})) == 0


def test_pair_universe_mismatch():
    with pytest.raises(UniverseMismatch):
        fv({1: 1}, "a").pair(fv({1: 1}, "b"))


def test_zero_entries_never_stored():
    v = fv({1: 1, 2: 0})
    assert v.support() == (1,)
    w = v + fv({1: -1})
    assert not w and w.support() == ()


def test_constructor_coerces_every_input_form():
    # Fraction, int and str values; Fraction zeros dropped; indices made
    # int; pairs summed per index; a Mapping that is not a dict
    from types import MappingProxyType
    v = fv({"3": F(1, 2), 1: 2, 2: F(0), 4: "-1/3"})
    assert list(v.items()) == [(1, F(2)), (3, F(1, 2)), (4, F(-1, 3))]
    assert all(type(x) is Fraction for _, x in v.items())
    assert fv([(1, F(1, 2)), ("1", F(-1, 2)), (2, 1)]).support() == (2,)
    assert fv(MappingProxyType({5: F(1, 5)})) == fv({5: F(1, 5)})


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=8)
vectors = st.dictionaries(st.integers(min_value=1, max_value=12), rationals,
                          max_size=6)


@settings(max_examples=60, deadline=None)
@given(vectors, vectors, rationals)
def test_norm_axioms(a, b, r):
    va, vb = fv(a), fv(b)
    assert va.scale(r).l1() == abs(r) * va.l1()
    assert va.scale(r).linf() == abs(r) * va.linf()
    assert (va + vb).l1() <= va.l1() + vb.l1()
    assert (va + vb).linf() <= va.linf() + vb.linf()


@settings(max_examples=40, deadline=None)
@given(vectors, vectors)
def test_pair_bilinear(a, b):
    va, vb = fv(a), fv(b)
    assert (va + vb).pair(vb) == va.pair(vb) + vb.pair(vb)
    assert abs(va.pair(vb)) <= va.l1() * vb.linf()


# -- triangular basis change -------------------------------------------------

def depth3_change():
    """A small correction table: index i corrects onto earlier indices."""
    rows = {
        0: fv({}), 1: fv({}), 2: fv({0: F(1, 2)}),
        3: fv({1: F(1, 3), 2: F(-1, 4)}),
        4: fv({0: F(1), 3: F(2, 5)}),
        5: fv({2: F(-1, 2), 4: F(1, 7)}),
    }
    bc = TriangularBasisChange("u", lambda g: g, lambda g: rows[g])
    return bc, rows


def test_to_d_trivial_cases():
    bc, rows = depth3_change()
    # no correction: d = e
    assert bc.to_d(fv({1: 1})) == fv({1: 1})
    # one-step substitution: e_2 = d_2 + (1/2) e_0 with c_0 = 0
    assert bc.to_d(fv({2: 1})) == fv({2: 1, 0: F(1, 2)})


def test_unitriangularity():
    bc, rows = depth3_change()
    for g in rows:
        a = bc.to_d(fv({g: 1}))
        assert a[g] == 1
        assert all(i <= g for i in a.support())


@settings(max_examples=50, deadline=None)
@given(st.dictionaries(st.integers(min_value=0, max_value=5), rationals,
                       max_size=6))
def test_round_trip_and_dense_oracle(entries):
    bc, rows = depth3_change()
    v = fv(entries)
    a = bc.to_d(v)
    assert bc.from_d(a) == v
    expect = dense_unitriangular_solve(list(range(6)), rows, dict(v.items()))
    assert dict(a.items()) == expect


def test_to_d_dense_oracle_on_shuffled_order():
    # random unitriangular systems on 30-40 indices whose order is a seeded
    # shuffle of the ids, with ties in rank broken against id order
    rng = random.Random(23)
    for _ in range(40):
        size = rng.randint(30, 40)
        ids = list(range(size))
        rng.shuffle(ids)
        rank = {g: pos // 3 for pos, g in enumerate(ids)}
        key = {g: (rank[g], -g) for g in ids}
        order = sorted(ids, key=key.__getitem__)
        rows = {}
        for pos, g in enumerate(order):
            earlier = rng.sample(order[:pos], min(pos, rng.randint(0, 4)))
            rows[g] = fv({i: F(rng.randint(-3, 3), rng.randint(1, 4))
                          for i in earlier})
        bc = TriangularBasisChange("u", key.__getitem__, rows.__getitem__)
        v = fv({g: F(rng.randint(-5, 5), rng.randint(1, 3))
                for g in rng.sample(ids, rng.randint(1, 8))})
        a = bc.to_d(v)
        assert dict(a.items()) == dense_unitriangular_solve(
            order, rows, dict(v.items()))
        assert bc.from_d(a) == v


def test_to_d_rejects_row_on_non_earlier_index():
    rows = {0: fv({}), 1: fv({0: 1}), 2: fv({1: F(1, 2), 3: 1}),
            3: fv({})}
    bc = TriangularBasisChange("u", lambda g: (g,), rows.__getitem__)
    with pytest.raises(ValueError, match="correction row of 2 touches "
                                         "non-earlier index 3"):
        bc.to_d(fv({2: 1}))


def test_projection_through_basis_change():
    bc, _ = depth3_change()
    v = fv({0: 1, 3: F(2, 3), 5: F(-1, 2)})
    p = bc.project(v, lambda g: g <= 3)
    assert bc.project(p, lambda g: g <= 3) == p
    assert bc.to_d(p).support() == tuple(
        g for g in bc.to_d(v).support() if g <= 3)


def test_json_round_trip():
    v = fv({3: F(-2, 7), 9: F(1, 3)}, "nat")
    assert FinVec.from_json_obj(v.to_json_obj()) == v
    assert v.to_json_obj()["entries"] == [[3, -2, 7], [9, 1, 3]]
