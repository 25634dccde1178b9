import gc
import random
import re
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from bdspace import bdcore
from bdspace.bdcore import BDBuild, BuildError, Gamma1
from bdspace.exact import FinVec
from conftest import replaced
from oracles import (bf_apply_Jm, bf_block_component, bf_dcoords,
                     bf_estar_dcoords, bf_project_estar)

F = Fraction


def tiny_build():
    """Handmade four-stage build exercising both element types."""
    bd = BDBuild("bd:tiny")
    u = lambda e: FinVec("bd:tiny", e)  # noqa: E731
    a = bd.add_type0(1, 0, u({}))
    b = bd.add_type0(1, 0, u({}))
    c = bd.add_type0(2, F(1, 2), u({a: F(1, 2), b: F(1, 2)}))
    d = bd.add_type0(2, 0, u({}))
    e = bd.add_type1(3, F(1, 4), 1, a, F(1, 8), u({c: F(2, 3), d: F(1, 3)}))
    f = bd.add_type0(3, F(1), u({a: F(-1, 2), c: F(1, 2)}))
    g = bd.add_type1(4, F(1), 2, c, F(1, 8), u({e: 1}))
    h = bd.add_type1(4, F(1, 3), 1, b, F(1, 2), u({d: 1}))  # exempt: c*_d = 0
    bd.freeze()
    return bd, (a, b, c, d, e, f, g, h)


def test_dropped_build_leaves_no_reference_cycle():
    # the basis change holds the build's tables, not the build, so a build
    # is freed when its last reference goes, not at a pass of the cyclic GC
    gc.collect()
    bd, _ = tiny_build()
    assert bd.bc.to_d(bd.estar(0)) == bd.estar(0)
    del bd
    assert gc.collect() == 0


def test_copy_grows_apart_from_its_build():
    # a copy starts equal to its build; appending to one of its stages and
    # to the c* rows under a leaves every table of the build as it was
    bd, (a, *_) = tiny_build()
    before = (bd.to_json_obj(), {n: list(v) for n, v in bd.stages.items()},
              {t: list(v) for t, v in bd._cstar_rows.items()}, dict(bd.rank),
              bd._next)
    new = bd.copy()
    assert not new.frozen and new.to_json_obj() == bd.to_json_obj()
    g = new.add_type1(4, 1, 1, a, 0, u({}))
    assert g == bd._next and g in new.stage(4) and g in new._cstar_rows[a]
    assert bdcore.validate_schema(new).ok
    assert (bd.to_json_obj(), bd.stages, bd._cstar_rows, bd.rank,
            bd._next) == before


def test_schema_valid():
    bd, _ = tiny_build()
    assert bdcore.validate_schema(bd).ok


def test_schema_fault_injection():
    bd, ids = tiny_build()
    a, b, c, *_ = ids
    bd.cstar_table[c] = FinVec("bd:tiny", {a: F(1, 3)})
    rep = bdcore.validate_schema(bd)
    assert not rep.ok
    assert any(str(c) in v for v in rep.violations)


def test_schema_catches_skewed_cstar_index():
    # c drops out of the rows listed under a although c*_c(a) = 1/4:
    # dcoords(e_a) then misses <d*_c, e_a>, and the schema suite names the
    # entry the c* table disagrees with
    bd, ids = tiny_build()
    a, b, c, *_ = ids
    bd._cstar_rows[a].remove(c)
    assert bd.dcoords(bd.estar(a)) != bf_dcoords(bd, bd.estar(a))
    rep = bdcore.validate_schema(bd)
    assert [v.split(" lists")[0] for v in rep.violations] == [
        f"c*-support index of {a}"]


def tampered(bd, g, **fields):
    """A copy of bd whose element g has the given fields changed."""
    return replaced(bd, elems={**bd.elems,
                               g: replaced(bd.elems[g], **fields)})


def u(entries, universe="bd:tiny"):
    return FinVec(universe, entries)


# each constraint of the element rule, broken two ways over tiny_build (ids
# a..h = 0..7): an entry point of the builder, and one field of a built
# element in a copy; the builder raises the text, the schema suite reports
# it against the element
ELEMENT_RULES = {
    "rank": (
        "rank must be >= 1",
        lambda bd: bd.add_type0(0, 0, u({})),
        lambda bd: (0, replaced(bd, rank={**bd.rank, 0: 0}))),
    "beta": (
        "beta must lie in [0, 1]",
        lambda bd: bd.add_type0(2, 2, u({})),
        lambda bd: (3, tampered(bd, 3, beta=F(2)))),
    "alpha-beta": (
        "alpha, beta must lie in [0, 1]",
        lambda bd: bd.add_type1(3, 2, 1, 0, 0, u({})),
        lambda bd: (4, tampered(bd, 4, alpha=F(2)))),
    "rank-1": (
        "rank-1 elements must carry c* = 0",
        lambda bd: bd.add_type0(1, F(1, 2), u({})),
        lambda bd: (0, tampered(bd, 0, beta=F(1, 2)))),
    "k": (
        "need 1 <= k <= rank - 2, got k=2, rank=3",
        lambda bd: bd.add_type1(3, 1, 2, 2, 0, u({})),
        lambda bd: (4, tampered(bd, 4, k=2))),
    "xi": (
        "xi must lie in Delta_1",
        lambda bd: bd.add_type1(3, 1, 1, 2, 0, u({})),
        lambda bd: (4, tampered(bd, 4, xi=2))),
    "universe": (
        "b* universe mismatch",
        lambda bd: bd.add_type0(2, 0, u({}, "bd:other")),
        lambda bd: (3, tampered(bd, 3, bstar=u({}, "bd:other")))),
    "ball": (
        "b* outside the l1 ball: 3",
        lambda bd: bd.add_type0(2, F(1, 2), u({0: 3})),
        lambda bd: (5, tampered(bd, 5, bstar=u({0: 3})))),
    "support": (
        "b* support index 2 outside Gamma_1",
        lambda bd: bd.add_type0(2, 0, u({2: 1})),
        lambda bd: (3, tampered(bd, 3, bstar=u({2: 1})))),
    "support-k": (
        "b* support index 0 outside Gamma_2 minus Gamma_1",
        lambda bd: bd.add_type1(3, 1, 1, 0, 0, u({0: 1})),
        lambda bd: (4, tampered(bd, 4, bstar=u({0: 1})))),
}


@pytest.mark.parametrize("rule", ELEMENT_RULES)
def test_element_rule_refused_and_reported(rule):
    text, add, tamper = ELEMENT_RULES[rule]
    bd, _ = tiny_build()
    bd.frozen = False
    with pytest.raises(BuildError, match=f"^{re.escape(text)}$"):
        add(bd)
    assert len(bd.rank) == 8
    g, copy = tamper(tiny_build()[0])
    assert f"{g}: {text}" in bdcore.validate_schema(copy).violations


def test_schema_reports_every_broken_rule():
    # the builder raises the first constraint an element breaks; the
    # schema suite lists them all, in the same order
    bd, (a, *_, e, f, g, h) = tiny_build()
    copy = tampered(bd, e, alpha=F(2), k=2, bstar=u({a: 2}))
    assert bdcore.validate_schema(copy).violations == [
        f"{e}: {v}" for v in ("alpha, beta must lie in [0, 1]",
                              "need 1 <= k <= rank - 2, got k=2, rank=3",
                              "xi must lie in Delta_2",
                              "b* outside the l1 ball: 2",
                              f"b* support index {a} outside Gamma_2 "
                              "minus Gamma_2")] + [
        f"{e}: stored c* differs from recomputation"]


@pytest.mark.parametrize("cuts, text", [
    (lambda rec, n: rec.cuts[:-1] + (n + 1,), "final cut is not the rank"),
    (lambda rec, n: (n,) + rec.cuts, "cuts not strictly increasing"),
], ids=["final-cut", "increasing"])
def test_analysis_cut_checks(monkeypatch, cuts, text):
    # an analysis whose cut set ends past the rank, or repeats a cut, keeps
    # its terms, so only the cut check that it breaks reports it
    bd, ids = tiny_build()
    g = ids[6]
    analyze = bd.analyze

    def faulty(t):
        rec = analyze(t)
        if t == g:
            rec.cuts = cuts(rec, bd.rank[g])
        return rec

    monkeypatch.setattr(bd, "analyze", faulty)
    assert bdcore.verify_analysis(bd).violations == [f"{g}: {text}"]


def test_projection_examples():
    bd, ids = tiny_build()
    a, b, c, d, e, f, g, h = ids
    # an element with vanishing correction projects to itself
    assert bd.cstar(d) == FinVec("bd:tiny")
    assert bd.project(bd.estar(d), 1, 3) == bd.estar(d)
    # elements of Gamma_k die under P*_(k, m]
    assert bd.project(bd.estar(a), 1, 3) == FinVec("bd:tiny")
    assert bd.project(bd.estar(c), 2, 4) == FinVec("bd:tiny")


def test_projection_idempotence_random():
    bd, _ = tiny_build()
    rep = bdcore.verify_projection_idempotence(bd)
    assert rep.ok, rep.violations


def test_projection_idempotence_fault_injection(monkeypatch):
    # a to_d that drops the first entry of its input: to_d(from_d(e_t))
    # misses e_t wherever c*_t != 0
    bd, ids = tiny_build()
    to_d = bd.bc.to_d

    def faulty(v):
        return to_d(v.restrict(lambda i: i != v.support()[0]))

    monkeypatch.setattr(bd.bc, "to_d", faulty)
    rep = bdcore.verify_projection_idempotence(bd)
    assert rep.violations
    assert all(v.startswith("to_d(from_d(e_") for v in rep.violations)


def test_projection_is_dstar_filter():
    bd, ids = tiny_build()
    rng = random.Random(4)
    for _ in range(30):
        v = FinVec("bd:tiny", {g: F(rng.randint(-6, 6), 3)
                               for g in rng.sample(ids, 3)})
        k, m = sorted(rng.sample(range(0, 5), 2))
        p = bd.project(v, k, m)
        dp = bd.bc.to_d(p)
        assert all(k < bd.rank[t] <= m for t in dp.support())
        dv = bd.bc.to_d(v)
        assert dp == dv.restrict(lambda t: k < bd.rank[t] <= m)


def test_constants_trivial_stage():
    bd, _ = tiny_build()
    rep = bdcore.compute_constants(bd, F(1, 4))
    assert rep.ok
    cn = rep.details["C_n"]
    assert cn[1] == 0 and cn[2] == 0  # no type-1 elements through stage 2
    assert rep.details["M_computed"] <= 1 + cn[4]


def test_constants_fault_injection():
    # c*_c moved onto e*_a, a of rank 1: P*_[1,1] e*_c = c*_c, so the
    # prefix norms on every Gamma_n holding c exceed 1 + C_n; at weight
    # 1000 the projection P*_(1,2] e*_c = e*_c - c*_c, which b*_e reads,
    # also lifts C_3 and C_4 past max(2t/(1-2t), C_n(t)) = 1 at t = 1/4
    for weight, first in ((2, "||P*_[1,1]|_l1(Gamma_2)|| = 2 > 1 + C_2 = 1"),
                          (1000, "C_3 = 2003/24 exceeds max(2t/(1-2t), "
                                 "C_n(t)) = 1")):
        bd, ids = tiny_build()
        a, b, c, *_ = ids
        bd.cstar_table[c] = FinVec("bd:tiny", {a: weight})
        rep = bdcore.compute_constants(bd, F(1, 4))
        assert rep.verdict is bdcore.Verdict.FAIL
        assert rep.violations[0] == first
        assert len(rep.violations) == (3 if weight == 2 else 5)


def test_weight_split_and_apriori_bound():
    bd, _ = tiny_build()
    rep = bdcore.condition_weight_split(bd, F(1, 4))
    assert rep.ok  # weights 1/8, 1/8 <= 1/4; weight 1/2 exempt via b* = e*_d
    assert bdcore.apriori_bound(F(1, 4)) == 2
    assert bdcore.decomposition_constant(bd) == (F(1, 8), 2)
    rep = bdcore.condition_weight_split(bd, F(1, 16))
    assert not rep.ok  # 1/8 > 1/16 and its b* is not exempt


def test_weight_split_needs_theta_below_half():
    # every weight of the tiny build is below 3/4, yet no theta >= 1/2
    # bounds the decomposition constant, so the split FAILs there
    bd, _ = tiny_build()
    for theta in (F(1, 2), F(3, 4)):
        rep = bdcore.condition_weight_split(bd, theta)
        assert rep.violations == [f"theta = {theta} >= 1/2: no a priori M"]
    assert bdcore.condition_weight_split(bd, F(1, 8)).ok


def test_apriori_bound_has_one_home():
    bd, _ = tiny_build()
    theta = F(1, 4)
    assert bdcore.apriori_bound(theta) == 2
    assert bdcore.apriori_bound(F(3, 8)) == 4  # 1/(1 - 3/4)
    rep = bdcore.compute_constants(bd, theta)
    assert bdcore.condition_weight_split(bd, theta).ok
    assert rep.details["M_bound_apriori"] == bdcore.apriori_bound(theta)
    theta_star = bdcore.split_theta(bd)
    assert bdcore.decomposition_constant(bd) == (
        theta_star, bdcore.apriori_bound(theta_star))


def test_report_verdict():
    V = bdcore.Verdict
    assert bdcore.Report("r").verdict is V.PASS
    rep = bdcore.Report("r", unsettled=V.AT_CAP, reason="capped")
    assert rep.verdict is V.AT_CAP and rep.ok
    assert rep.to_json_obj()["verdict"] == "AT-CAP"
    assert rep.to_json_obj()["reason"] == "capped"
    # a violation overrides a recorded unsettled verdict
    rep.violations.append("witness")
    assert rep.verdict is V.FAIL and not rep.ok
    assert rep.to_json_obj()["verdict"] == "FAIL"
    assert {str(v) for v in V} == {"PASS", "FAIL", "INCONCLUSIVE", "AT-CAP"}


def test_extension_restriction_identity():
    bd, ids = tiny_build()
    rng = random.Random(8)
    for m in (1, 2, 3):
        gam = bd.gamma_upto(m)
        x = FinVec("bd:tiny", {g: F(rng.randint(-8, 8), 8) for g in gam})
        jx = bd.apply_Jm(x, m)
        assert jx.restrict(lambda i: bd.rank[i] <= m) == x


def test_extension_isometry_on_stage_patterns():
    bd, _ = tiny_build()
    for m in sorted(bd.stages):
        rep = bdcore.verify_extension_isometry(bd, m)
        assert rep.ok, rep.violations
        assert rep.details["norm"] == 1


def test_extension_isometry_fault_injection():
    # one changed c* entry: c*_f gains e*_d, so every synthesis adds x(d)
    # to x(f) and row f of the columns J_2 e_t, t in Delta_2, has l1 above
    # 1; only stage 2 sees it (x(d) = 0 in the columns of other stages).
    # It goes through the table's writer, which lists f under d: the
    # synthesis reads only the rows the index leads it to
    bd, ids = tiny_build()
    a, b, c, d, e, f, g, h = ids
    bd._set_cstar(f, bd.cstar(f) + FinVec("bd:tiny", {d: 1}))
    for m in sorted(bd.stages):
        rep = bdcore.verify_extension_isometry(bd, m)
        if m == 2:
            assert rep.violations == [
                f"||J_2 on l_inf(Delta_2)|| = {rep.details['norm']} != 1"]
            assert rep.details["norm"] > 1
        else:
            assert rep.ok, (m, rep.violations)


def test_extension_compatibility():
    bd, _ = tiny_build()
    rep = bdcore.verify_extension_compatibility(bd)
    assert rep.ok, rep.violations


def test_extension_compatibility_fault_injection(monkeypatch):
    # J_2 off by e_e, e of rank 3: the rank filter J_2 e_t = d_t fails on
    # each t in Delta_2 and nowhere else, as J_2 is applied only there
    bd, ids = tiny_build()
    apply_Jm = bd.apply_Jm

    def faulty(x, m):
        out = apply_Jm(x, m)
        return out + FinVec("bd:tiny", {ids[4]: 1}) if m == 2 else out

    monkeypatch.setattr(bd, "apply_Jm", faulty)
    rep = bdcore.verify_extension_compatibility(bd)
    assert rep.violations == [f"J_2 e_{t} != d_{t}" for t in bd.stage(2)]


def test_extension_compatibility_catches_faulty_dcoords(monkeypatch):
    # a dcoords that forgets the correction <c*_t, x>: it still gives
    # dcoords(e_t) = {t: 1} at rank t, so the rank filter holds, but
    # dcoords(d_t) is d_t itself, which differs from e_t exactly for the t
    # that some row c*_s reads
    bd, ids = tiny_build()
    table = bd.cstar_table

    def faulty(x):
        return {t: v for t, v in x.items() if t in table}

    monkeypatch.setattr(bd, "dcoords", faulty)
    rep = bdcore.verify_extension_compatibility(bd)
    read = [t for t in ids if any(t in table[s] for s in ids)]
    assert 0 < len(read) < len(ids)
    assert rep.violations == [f"dcoords(d_{t}) != e_{t}" for t in read]


def test_dual_norm_band_catches_dcoords_off_the_index(monkeypatch):
    # a dcoords that reads only the rows t in supp x, not the rows the
    # c*-support index lists under supp x: right on every d_t and at rank
    # t, so compat holds, but dcoords(e_t) misses -c*_s(t) for the rows s
    # that read t; the columns J_n e_t of dual-norms are built from the
    # d*-coordinates of each e_t, so they become d_t, and ||J_n|| leaves
    # ||P*_[1,n]|| and, at the top rank, M
    bd, ids = tiny_build()
    table = bd.cstar_table

    def faulty(x):
        return {t: v for t in x.support()
                if t in table and (v := x[t] - table[t].pair(x))}

    monkeypatch.setattr(bd, "dcoords", faulty)
    assert bdcore.verify_extension_compatibility(bd).ok
    rep = bdcore.verify_dual_norms(bd, bdcore.decomposition_constant(bd)[1])
    assert rep.violations == ["||J_2|| = 3/2 != ||P*_[1,2]|| = 1",
                              "||J_3|| = 2 != ||P*_[1,3]|| = 221/192",
                              "||J_4|| = 21/8 exceeds M = 2"]


def test_compat_and_prefix_norms_expand_each_element_once(monkeypatch):
    # one to_d of e*_g for all the prefix norms of g, not one per rank
    # m = 1 .. N-1 (24 here), and one column J_m e_t per element for compat,
    # not every J_m e_t, t in Gamma_m, each re-extended (32 here)
    bd, ids = tiny_build()
    calls = []
    for obj, name in ((bd.bc, "to_d"), (bd, "apply_Jm")):
        def counted(*args, _f=getattr(obj, name), _name=name):
            calls.append(_name)
            return _f(*args)
        monkeypatch.setattr(obj, name, counted)
    bdcore.prefix_norms(bd)
    assert calls.count("to_d") == len(ids) == 8
    calls.clear()
    assert bdcore.verify_extension_compatibility(bd).ok
    assert calls.count("apply_Jm") == len(ids)


def test_isometry_and_dual_norms_synthesize_each_element_once(monkeypatch):
    # the columns J_m e_t are d_t = synthesize({t: 1}) for isometry, and
    # sum <d*_s, e_t> d_s for dual-norms: one synthesis per element of the
    # stage, or one dcoords and one synthesis per element of the build, and
    # no J_m applied (dual-norms applied one per column at every rank, 24)
    bd, ids = tiny_build()
    calls = []
    for name in ("synthesize", "apply_Jm", "dcoords"):
        def counted(*args, _f=getattr(bd, name), _name=name):
            calls.append((_name, *args))
            return _f(*args)
        monkeypatch.setattr(bd, name, counted)
    assert bdcore.verify_dual_norms(bd, 2).ok
    assert calls == [("dcoords", bd.estar(t)) for t in bd.ids()] + [
        ("synthesize", {t: 1}) for t in bd.ids()]
    for m in sorted(bd.stages):
        calls.clear()
        assert bdcore.verify_extension_isometry(bd, m).ok
        assert calls == [("synthesize", {t: 1}) for t in bd.stage(m)]


def test_extension_norm_bound():
    bd, _ = tiny_build()
    mbound = bdcore.decomposition_constant(bd)[1]
    rng = random.Random(9)
    for _ in range(30):
        m = rng.choice(list(bd.stages))
        x = FinVec("bd:tiny", {g: F(rng.randint(-4, 4), 4)
                               for g in bd.gamma_upto(m)})
        assert bd.apply_Jm(x, m).linf() <= mbound * x.linf()


def test_analysis_records():
    bd, ids = tiny_build()
    a, b, c, d, e, f, g, h = ids
    rec = bd.analyze(c)
    assert len(rec.terms) == 1 and rec.cuts == (2,)  # type-0 root
    assert bd.analyze(e).cuts == (1, 3)
    rec = bd.analyze(g)
    assert rec.cuts == (2, 4)  # chain passes through xi = c directly
    rep = bdcore.verify_analysis(bd)
    assert rep.ok, rep.violations


def test_analysis_fault_injection():
    # c*_f gains 2 e*_d: the analysis of f re-expands e*_f through
    # d*_f = e*_f - c*_f, which moves, and no other expansion changes
    bd, ids = tiny_build()
    a, b, c, d, e, f, g, h = ids
    bd.cstar_table[f] = bd.cstar(f) + FinVec("bd:tiny", {d: 2})
    rep = bdcore.verify_analysis(bd)
    assert rep.verdict is bdcore.Verdict.FAIL
    assert rep.violations == [f"{f}: analysis expansion differs from e*"]


def test_analysis_partial_coefficients():
    bd, ids = tiny_build()
    g = ids[6]
    rec = bd.analyze(g)
    # alpha multipliers multiply down the chain
    alphas = [t[0] for t in rec.terms]
    assert alphas[-1] == 1
    chain_elem = bd.elems[g]
    assert isinstance(chain_elem, Gamma1)
    assert alphas[-2] == chain_elem.alpha


def test_dual_norm_band():
    bd, _ = tiny_build()
    m = bdcore.decomposition_constant(bd)[1]
    rep = bdcore.verify_dual_norms(bd, m)
    assert rep.ok, rep.violations
    jn = rep.details["||J_n||"]
    assert max(jn.values()) == bdcore.compute_constants(
        bd, F(1, 4)).details["M_computed"]


def test_dual_norm_band_projection_fault_injection(monkeypatch):
    # a faulty P*_(k,m] that adds mass on rank 1 <= k: the band reads its
    # columns off one d-expansion of each e*_g and never projects, but the
    # c* rows of the type-1 elements and their analyses are projections,
    # so schema and analysis see the fault
    bd, ids = tiny_build()
    a, b, c, d, e, f, g, h = ids
    m = bdcore.decomposition_constant(bd)[1]
    project = bd.project

    def faulty(v, k, n):
        out = project(v, k, n)
        return out + FinVec("bd:tiny", {a: 1000}) if k >= 1 else out

    monkeypatch.setattr(bd, "project", faulty)
    assert bdcore.validate_schema(bd).violations == [
        f"{t}: stored c* differs from recomputation" for t in (e, g, h)]
    assert bdcore.verify_analysis(bd).violations == [
        f"{t}: analysis expansion differs from e*" for t in (e, g, h)]
    assert bdcore.verify_dual_norms(bd, m).ok


def test_dual_norm_band_catches_large_d_expansion(monkeypatch):
    # a faulty to_d(e*_f) that gains 1000 d*_d, d of rank 2: the columns
    # P*_(m,3] e*_f for m < 2 carry it, far past 2M^2 = 8
    bd, ids = tiny_build()
    a, b, c, d, e, f, g, h = ids
    to_d = bd.bc.to_d

    def faulty(v):
        out = to_d(v)
        return out + FinVec("bd:tiny", {d: 1000}) if v == bd.estar(f) else out

    monkeypatch.setattr(bd.bc, "to_d", faulty)
    rep = bdcore.verify_dual_norms(bd, bdcore.decomposition_constant(bd)[1])
    assert rep.verdict is bdcore.Verdict.FAIL
    assert [v for v in rep.violations if "2M^2" in v] == [
        f"l1(P*_(0,3] e*_{f}) = 1001 exceeds 2M^2 l1(y*) = 8",
        f"l1(P*_(1,3] e*_{f}) = 2003/2 exceeds 2M^2 l1(y*) = 8"]


def test_dual_norm_band_to_d_fault_injection(monkeypatch):
    # a faulty to_d(e*_f) that gains d*_d: the rows P*_[1,n] e*_g read it
    # and the columns J_n e_t, synthesized from the c* table, do not, so
    # the two readings of ||J_2|| and ||J_3|| disagree; were both sides
    # read off to_d, they would agree on norms <= M = 2 and pass
    bd, ids = tiny_build()
    a, b, c, d, e, f, g, h = ids
    to_d = bd.bc.to_d

    def faulty(v):
        out = to_d(v)
        return out + FinVec("bd:tiny", {d: 1}) if v == bd.estar(f) else out

    monkeypatch.setattr(bd.bc, "to_d", faulty)
    rep = bdcore.verify_dual_norms(bd, bdcore.decomposition_constant(bd)[1])
    assert rep.verdict is bdcore.Verdict.FAIL
    assert rep.violations == ["||J_2|| = 1 != ||P*_[1,2]|| = 2",
                              "||J_3|| = 221/192 != ||P*_[1,3]|| = 2"]


def test_dual_norm_band_synthesize_fault_injection(monkeypatch):
    # a synthesis that drops the term c*_f(a) x(a): the columns J_n e_t
    # read it and the rows P*_[1,n] e*_g, from to_d, do not, so ||J_3||
    # differs from ||P*_[1,3]||: the column side does not lean on the rows
    bd, ids = tiny_build()
    a, b, c, d, e, f, g, h = ids
    table = bd.cstar_table

    def faulty(coeffs):
        x = {}
        for s in bd.ids():
            v = coeffs.get(s, 0) + sum(w * x.get(t, 0)
                                       for t, w in table[s].items()
                                       if (s, t) != (f, a))
            if v:
                x[s] = v
        return FinVec(bd.universe, x)

    monkeypatch.setattr(bd, "synthesize", faulty)
    rep = bdcore.verify_dual_norms(bd, bdcore.decomposition_constant(bd)[1])
    assert rep.violations == ["||J_3|| = 3/2 != ||P*_[1,3]|| = 221/192"]


def test_synthesize_rejects_row_on_non_earlier_rank():
    # c*_e reaching f (same rank, later id) and c*_f reaching e (same rank,
    # earlier id): forward substitution needs rows on lower ranks only, and
    # the synthesis of e_a reads both rows
    for row, reach in ((4, 5), (5, 4)):
        bd, ids = tiny_build()
        g, t = ids[row], ids[reach]
        bd._set_cstar(g, bd.cstar(g) + FinVec("bd:tiny", {t: 1}))
        with pytest.raises(ValueError, match=(
                f"correction row of {g} touches non-earlier index {t}")):
            bd.synthesize({ids[0]: 1})


@pytest.fixture(params=["acc", "lifted"])
def big_build(request):
    if request.param == "acc":
        return request.getfixturevalue("acc_build").bd
    return request.getfixturevalue("acc_lifted").bd


def test_dexp_is_unit_on_own_rank(big_build):
    bd = big_build
    for g in bd.ids():
        own = bd.bc.to_d(bd.estar(g)).restrict(
            lambda t: bd.rank[t] == bd.rank[g])
        assert own == FinVec(bd.universe, {g: 1})


def component(bd, x, j: int):
    """The j-th FDD component of x: the synthesis of its rank-j
    d*-coordinates."""
    return bd.synthesize({t: v for t, v in bd.dcoords(x).items()
                          if bd.rank[t] == j})


def test_extension_operators_match_oracles(big_build):
    bd = big_build
    N, ids = bd.max_rank(), bd.ids()
    rng = random.Random(11)
    for _ in range(6):
        m = rng.randint(1, N)
        x = FinVec(bd.universe, {g: F(rng.randint(-8, 8), 8)
                                 for g in bd.gamma_upto(m)})
        assert bd.apply_Jm(x, m) == bf_apply_Jm(bd, x, m)
        # an arbitrary vector, not an extension of its restrictions
        y = FinVec(bd.universe, {g: F(rng.randint(-8, 8), 8)
                                 for g in rng.sample(ids, rng.randint(1, 12))})
        for j in range(1, N + 1):
            assert component(bd, y, j) == bf_block_component(bd, y, j)
        assert bd.synthesize(bd.dcoords(y)) == y


@pytest.fixture(params=["acc", "halfnorm", "6x16", "lifted"])
def any_build(request):
    name = {"acc": "acc_build", "halfnorm": "halfnorm_build8",
            "6x16": "build_6x16", "lifted": "acc_lifted"}[request.param]
    return request.getfixturevalue(name).bd


def test_synthesize_matches_dense_oracle(any_build):
    # coefficient maps over every rank, the top rank included, some with
    # zero coefficients: x(g) = sum_t <e*_g, d_t> a_t, with <e*_g, d_t> the
    # d*-coordinates of e*_g from dense elimination
    bd = any_build
    ids = bd.ids()
    estar_d = bf_estar_dcoords(bd)
    rng = random.Random(13)
    for _ in range(12):
        a = {t: F(rng.randint(-8, 8), rng.randint(1, 4))
             for t in rng.sample(ids, rng.randint(1, min(30, len(ids))))}
        want = FinVec(bd.universe, {
            g: sum((v * a[t] for t, v in estar_d[g].items() if t in a),
                   F(0))
            for g in ids})
        assert bd.synthesize(a) == want


class _CountingTable(dict):
    """A c* table that records which rows are read."""

    def __init__(self, table):
        super().__init__(table)
        self.reads = []

    def __getitem__(self, g):
        self.reads.append(g)
        return super().__getitem__(g)


def test_synthesize_reads_only_reached_rows(any_build, monkeypatch):
    # a unit vector on the top stage reaches no other row, so its synthesis
    # reads that one row; from a lower coefficient map the synthesis reads
    # each row once, in (rank, id) order: supp a and the rows c*_g that meet
    # the support of the result, and no other
    bd = any_build
    rows = bd.cstar_table
    table = _CountingTable(rows)
    monkeypatch.setattr(bd, "cstar_table", table)
    for g in bd.stage(bd.max_rank()):
        table.reads.clear()
        assert bd.synthesize({g: 1}) == bd.estar(g)
        assert table.reads == [g]
    rng = random.Random(14)
    for _ in range(6):
        a = {t: F(rng.randint(1, 8), 8)
             for t in rng.sample(bd.gamma_upto(2), 2)}
        table.reads.clear()
        x = bd.synthesize(a)
        reached = set(a) | {g for g in bd.ids()
                            if any(t in x for t in rows[g].support())}
        assert table.reads == sorted(reached, key=bd.bc.order_key)
        assert len(reached) < len(bd.ids())


def test_dcoords_matches_full_scan(any_build):
    # every basis vector, seeded random vectors, and one vector with an
    # index outside the build (no d*-coordinate there); same values, same
    # (id) order as the scan of the whole c* table
    bd = any_build
    ids = bd.ids()
    rng = random.Random(12)
    xs = [bd.estar(t) for t in ids]
    for _ in range(20):
        xs.append(FinVec(bd.universe, {g: F(rng.randint(-8, 8), 8)
                                       for g in rng.sample(ids, 12)}))
    xs.append(xs[-1] + FinVec(bd.universe, {max(ids) + 5: 1}))
    for x in xs:
        assert list(bd.dcoords(x).items()) == list(bf_dcoords(bd, x).items())


def test_lifted_columns_match_oracle(acc_lifted):
    # the lift adds elements after the c*-support index exists; every
    # column J_m e_t, t in Gamma_m, of the lifted build matches the dense
    # oracle (for t below rank m it reads the rows c*_s that meet t)
    bd = acc_lifted.bd
    assert any(bd.rank[g] == bd.max_rank() for g in acc_lifted.theta)
    for m in sorted(bd.stages):
        for t in bd.gamma_upto(m):
            assert bd.apply_Jm(bd.estar(t), m) == bf_apply_Jm(
                bd, bd.estar(t), m)


GRID = [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)]
WEIGHTS = [F(0), F(1, 8), F(1, 4), F(3, 8)]  # type-1: theta* < 1/2


@st.composite
def random_builds(draw):
    """A build of 1-6 ranks with 1-5 elements each, made through
    ``add_type0``/``add_type1`` only, so every table it holds is valid:
    alpha and beta on a grid (type-1 weights below 1/2, so M exists), b*
    in the l1 ball on the ranks its type allows."""
    uni = "bd:rand"
    bd = BDBuild(uni)
    for r in range(1, draw(st.integers(1, 6)) + 1):
        for _ in range(draw(st.integers(1, 5))):
            if r == 1:
                bd.add_type0(1, 0, FinVec(uni))
                continue
            k = draw(st.integers(0, r - 2))  # 0: type 0
            pool = [g for g in bd.ids() if k < bd.rank[g] < r]
            sup = draw(st.lists(st.sampled_from(pool), max_size=3,
                                unique=True))
            num = [draw(st.sampled_from((-2, -1, 1, 2))) for _ in sup]
            den = max(sum(map(abs, num)), draw(st.integers(1, 4)))
            bstar = FinVec(uni, {t: F(v, den) for t, v in zip(sup, num)})
            if k:
                bd.add_type1(r, draw(st.sampled_from(GRID)), k,
                             draw(st.sampled_from(bd.stage(k))),
                             draw(st.sampled_from(WEIGHTS)), bstar)
            else:
                bd.add_type0(r, draw(st.sampled_from(GRID)), bstar)
    bd.freeze()
    return bd


# no shrink or explain phase: a BDBuild prints as its id, so a shrunk build
# reads no better, and a failing run took minutes to shrink and then ended
# in an internal error of the explain phase instead of the failure
@settings(max_examples=40, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(random_builds(), st.randoms(use_true_random=False))
def test_random_builds_match_dense_oracles(bd, rnd):
    ids, N, rank = bd.ids(), bd.max_rank(), bd.rank
    # prefix norms: the dense columns P*_[1,m] e*_g, maxima over Gamma_n
    assert bdcore.prefix_norms(bd) == {
        (m, n): max(bf_project_estar(bd, g, 0, m).l1()
                    for g in bd.gamma_upto(n))
        for n in range(1, N + 1) for m in range(n)}
    # ladders: the l1 of the projection onto each prefix of a rank order
    orders = [range(1, N + 1), range(N, 0, -1), rnd.sample(range(1, N + 1), N)]
    vecs = [bd.estar(g) for g in ids] + [
        e.bstar for e in bd.elems.values() if isinstance(e, Gamma1)]
    for v in vecs:
        for order in orders:
            assert bdcore._l1_ladder(bd, v, order) == [
                bd.bc.project(v, lambda t: rank[t] in order[:j + 1]).l1()
                for j in range(N)]
    # the factored identity: P*_(m,n] of the restriction of P*_(m,n] e*_g
    # to ranks m+1 .. n is P*_(m,n] e*_g; what it drops lives on ranks <= m
    for g in ids:
        n = rank[g]
        for m in range(n):
            y = bd.project(bd.estar(g), m, n)
            assert y == bf_project_estar(bd, g, m, n)
            assert bd.project(y.restrict(lambda i: m < rank[i] <= n),
                              m, n) == y
    # the extension operators: one random vector on Gamma_m
    m = rnd.randint(1, N)
    x = FinVec(bd.universe, {g: F(rnd.randint(-4, 4), 4)
                             for g in bd.gamma_upto(m)})
    assert bd.dcoords(x) == bf_dcoords(bd, x)
    assert bd.apply_Jm(x, m) == bf_apply_Jm(bd, x, m)
    # ||J_n||: the largest row l1 of the dense columns J_n e_t, t in Gamma_n,
    # (J_n e_t)(g) = <P*_[1,n] e*_g, e_t> as in bf_apply_Jm, with each
    # P*_[1,n] e*_g solved once instead of once per column
    proj = {(g, n): bf_project_estar(bd, g, 0, n)
            for g in ids for n in range(1, N + 1)}
    assert bdcore._jn_norms(bd) == {
        n: max(sum((abs(proj[g, n][t]) for t in bd.gamma_upto(n)), F(0))
               for g in ids)
        for n in range(1, N + 1)}
    # synthesis and FDD components: a random vector over the whole build,
    # against the dense solves
    y = FinVec(bd.universe, {g: F(rnd.randint(-4, 4), 4) for g in
                             rnd.sample(ids, rnd.randint(1, len(ids)))})
    estar_d = bf_estar_dcoords(bd)
    assert bd.synthesize(dict(y.items())) == FinVec(bd.universe, {
        g: sum((v * y[t] for t, v in estar_d[g].items()), F(0)) for g in ids})
    for j in range(1, N + 1):
        assert component(bd, y, j) == bf_block_component(bd, y, j)
    theta, mbound = bdcore.decomposition_constant(bd)
    for rep in (bdcore.verify_extension_compatibility(bd),
                bdcore.verify_projection_idempotence(bd),
                bdcore.verify_dual_norms(bd, mbound)):
        assert rep.verdict is bdcore.Verdict.PASS, rep.violations
    # one c* entry written into the table, past its writer: schema FAILs
    g, t = ids[-1], ids[0]
    bd.cstar_table[g] = bd.cstar(g) + FinVec(bd.universe, {t: 1})
    assert bdcore.validate_schema(bd).verdict is bdcore.Verdict.FAIL
