import gc
import random
from fractions import Fraction

import pytest

from bdspace import bdcore, construction
from bdspace.bdcore import Verdict
from bdspace.construction import (build_embedding, embed_phi, i0_of_rank,
                                  interval_from_rank, interval_rank, m_seq,
                                  phi_functional_identity, verify_coding,
                                  verify_cuts, verify_embedding)
from bdspace.decomp import unit_restrictions
from bdspace.exact import FinVec
from conftest import replaced
from oracles import bf_apply_Jm, bf_maximize

F = Fraction


def test_interval_rank_examples():
    assert interval_rank(1, 2) == 3
    assert interval_rank(2, 3) == 5
    assert interval_rank(1, 1) == 1
    # the displayed enumeration: 1, 2, [1,2], 3, [2,3], [1,3], 4, ...
    order = [interval_from_rank(n) for n in range(1, 8)]
    assert order == [(1, 1), (2, 2), (1, 2), (3, 3), (2, 3), (1, 3), (4, 4)]


def test_interval_rank_inverse_bijective():
    for n in range(1, 200):
        a, b = interval_from_rank(n)
        assert interval_rank(a, b) == n


def test_m_sequence():
    assert [m_seq(j) for j in (1, 2, 3)] == [1, 2, 4]
    assert m_seq(4) == 7
    assert [m_seq(j) for j in range(1, 7)] == [1, 2, 4, 7, 11, 16]
    # m_j is the rank of the one-point interval [j, j]
    for j in range(1, 10):
        assert interval_rank(j, j) == m_seq(j)


def test_i0_window():
    for n in range(1, 40):
        i0 = i0_of_rank(n)
        assert m_seq(i0) <= n < m_seq(i0 + 1)


# -- the coding ---------------------------------------------------------------

def test_dropped_embedding_leaves_no_reference_cycle(acc_seed, acc_D):
    # an embedding and its build are freed when the last reference goes,
    # not at a pass of the cyclic GC
    gc.collect()
    eb = build_embedding(acc_seed, acc_D, stage_bound=8)
    assert eb.bd.max_rank() == 8
    del eb
    assert gc.collect() == 0


def test_every_stage_nonempty(acc_build):
    for n in range(1, acc_build.stage_bound + 1):
        assert acc_build.bd.stage(n), f"stage {n} empty"


def test_block_stages_have_zero_correction(acc_build):
    for j in (1, 2, 3, 4):
        for g in acc_build.bd.stage(m_seq(j)):
            assert not acc_build.bd.cstar(g)
            assert acc_build.info[g].case == "i"


def test_coding_report(acc_build):
    rep = verify_coding(acc_build)
    assert rep.ok, rep.violations


def test_all_cases_materialize(acc_build):
    cases = {inf.case for inf in acc_build.info.values()}
    assert cases == {"i", "ii", "iii", "iv"}


def test_schema_weights_and_constants(acc_build):
    bd = acc_build.bd
    assert bdcore.validate_schema(bd).ok
    theta = 2 * acc_build.seed.c
    assert bdcore.condition_weight_split(bd, theta).ok
    rep = bdcore.compute_constants(bd, theta)
    assert rep.ok
    assert rep.details["M_computed"] <= 2


def test_partial_order_sets(acc_build):
    # the order around each block stage m_j follows from the coding suite's
    # span and window checks: a block element's coded rank moved across
    # m_j, which puts it in the wrong below- or above-set, FAILs coding
    bd = acc_build.bd
    assert verify_coding(acc_build).ok
    for j in (1, 2, 3, 4):
        g = bd.stage(m_seq(j))[0]
        for rank in (m_seq(j) - 1, m_seq(j) + 1):
            if rank < 1:
                continue
            rep = verify_coding(_with_info(acc_build, g, rank=rank))
            assert rep.verdict is Verdict.FAIL
            assert rep.violations[0] == (
                f"{g}: rank does not match the support span")


def test_rank_window_vs_support(acc_build):
    for g, inf in acc_build.info.items():
        i0 = inf.supp_blocks[-1]
        assert m_seq(i0) <= inf.rank < m_seq(i0 + 1)


def test_references_are_earlier(acc_build):
    bd = acc_build.bd
    for g, inf in acc_build.info.items():
        if inf.case == "i":
            continue
        xi = acc_build.code_of[inf.xi]
        eta = acc_build.code_of[inf.eta]
        assert bd.rank[xi] < bd.rank[eta] <= inf.rank - 1


def test_analysis_identity_on_coding(acc_build):
    rep = bdcore.verify_analysis(acc_build.bd)
    assert rep.ok, rep.violations
    # the identity was exercised on a chained element of depth >= 3
    assert any(len(inf.entries) >= 3 for inf in acc_build.info.values())


def test_stage_dimension_counts(acc_build):
    # the extension of a stage is injective, so image dimensions match the
    # stage and cumulative-stage cardinalities
    bd = acc_build.bd
    for m in sorted(bd.stages):
        basis = [bd.apply_Jm(FinVec(bd.universe, {g: 1}), m)
                 for g in bd.gamma_upto(m)]
        restricted = [b.restrict(lambda i: bd.rank[i] <= m) for b in basis]
        assert len({tuple(r.items()) for r in restricted}) == len(
            bd.gamma_upto(m))


# -- the embedding -----------------------------------------------------------

def test_phi_functional_identity_exact(acc_build):
    s = acc_build.seed
    rng = random.Random(5)
    for _ in range(15):
        x = FinVec(s.universe, {i: F(rng.randint(-8, 8), 8)
                                for i in rng.sample(range(1, 5), 2)})
        rep = phi_functional_identity(acc_build, x)
        assert rep.ok, rep.violations[:3]


def test_phi_zero_and_homogeneity(acc_build):
    s = acc_build.seed
    assert embed_phi(acc_build, FinVec(s.universe)) == FinVec(acc_build.bd.universe)
    x = FinVec(s.universe, {1: F(1, 2), 3: F(-1, 4)})
    assert embed_phi(acc_build, x.scale(F(3, 7))) == embed_phi(
        acc_build, x).scale(F(3, 7))


def test_phi_block_action(acc_build):
    # coordinates of a one-block image at its hosting stage are r x*(x)
    s, bd, D = acc_build.seed, acc_build.bd, acc_build.D
    x = FinVec(s.universe, {2: F(3, 4)})
    img = embed_phi(acc_build, x)
    for g in bd.stage(m_seq(2)):
        (r, j), = acc_build.info[g].entries
        assert img[g] == r * D.members[j].vec.pair(x)


def test_phi_matches_blockwise_oracle(acc_build):
    # phi x = sum over blocks i of J_{m_i} of the stage-m_i pattern
    s, bd, D = acc_build.seed, acc_build.bd, acc_build.D
    rng = random.Random(6)
    for _ in range(8):
        x = FinVec(s.universe, {i: F(rng.randint(-8, 8), 8)
                                for i in range(1, s.nblocks + 1)})
        expect = FinVec(bd.universe)
        for blk in range(1, s.nblocks + 1):
            xb = s.restrict_blocks(x, blk, blk)
            mi = m_seq(blk)
            u = FinVec(bd.universe, {
                g: r * D.members[j].vec.pair(xb) for g in bd.stage(mi)
                for r, j in acc_build.info[g].entries})
            expect = expect + bf_apply_Jm(bd, u, mi)
        assert embed_phi(acc_build, x) == expect


def block_samples(eb, count, seed):
    """Seeded vectors with entries k/8 on at most 3 covered blocks."""
    s, covered = eb.seed, eb.nblocks_covered()
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        blocks = rng.sample(range(1, covered + 1),
                            rng.randint(1, min(3, covered)))
        x = FinVec(s.universe, {b: F(rng.randint(-8, 8), 8) for b in blocks})
        if x:
            out.append(x)
    return out


def assert_two_sided(eb, rep, x):
    """lambda*||x|| <= ||phi x|| <= ||x||, lambda* the report's constant."""
    nx, up = eb.seed.primal_norm(x), embed_phi(eb, x).linf()
    assert rep.details["lambda*"] * nx <= up <= nx, x


def test_embedding_bounds_and_witnesses(acc_build):
    rep = verify_embedding(acc_build)
    assert rep.verdict is Verdict.PASS, (rep.violations[:3], rep.reason)
    assert rep.details["||phi||"] <= 1
    assert rep.details["lambda*"] >= 1 - acc_build.seed.eps
    # the proven bound, checked on samples
    for x in block_samples(acc_build, 40, 3):
        assert_two_sided(acc_build, rep, x)


def test_unit_vectors_witnessed(acc_build):
    s = acc_build.seed
    rep = verify_embedding(acc_build)
    assert rep.verdict is Verdict.PASS
    # single-block action through the scaled dense set: the image norm is
    # at least 1/(1 + eps/4) >= (1 - eps/4) * ||x||
    factor = 1 + s.eps / 4
    for i in range(1, 5):
        x = FinVec(s.universe, {i: 1})
        up = embed_phi(acc_build, x).linf()
        assert up >= 1 / factor
        assert up >= (1 - s.eps / 4) * s.primal_norm(x)
        assert_two_sided(acc_build, rep, x)


def test_embedding_zero_phi_fails(acc_build, monkeypatch):
    # with phi replaced by 0 the identity fails on every basis vector
    monkeypatch.setattr(construction, "embed_phi",
                        lambda eb, x: FinVec(acc_build.bd.universe))
    rep = verify_embedding(acc_build)
    assert rep.verdict is Verdict.FAIL
    assert all("e*(phi x) = 0 != " in v for v in rep.violations)


def test_embedding_verdict_pass_when_certified(acc_build):
    rep = verify_embedding(acc_build)
    assert rep.verdict is Verdict.PASS and rep.reason == ""
    # ||phi||, the constant on the 4 covered blocks and the dual point of
    # the worst gauge: e*_1 = (129/128) v_g for the block-1 atom v_g
    assert rep.details == {"||phi||": F(128, 129), "lambda*": F(128, 129),
                           "witness": {1: F(-129, 128)}}


@pytest.mark.parametrize("build", ["acc_build", "halfnorm_build8"])
def test_embedding_witness_attains_lambda(build, request):
    # the dual point x of the worst gauge has ||x|| = 1/lambda* and
    # ||phi x|| = max_g |v_g(x)| = 1, so no larger constant holds
    eb = request.getfixturevalue(build)
    rep = verify_embedding(eb)
    x = FinVec(eb.seed.universe, rep.details["witness"])
    assert eb.seed.primal_norm(x) == 1 / rep.details["lambda*"]
    assert embed_phi(eb, x).linf() == 1


def _with_info(eb, g, **changes):
    """A copy of the build whose element g carries changed coded data."""
    info = dict(eb.info)
    info[g] = replaced(info[g], **changes)
    return replaced(eb, info=info)


def _first(eb, case):
    return next(g for g, inf in sorted(eb.info.items()) if inf.case == case)


def empty_stage(eb):
    n = eb.stage_bound
    bd = replaced(eb.bd, stages={**eb.bd.stages, n: []})
    b = construction.interval_from_rank(n)[1]
    return replaced(eb, bd=bd), f"stage {n} empty though blocks reach {b}"


def early_d_support(eb):
    # a block-rank element recoded to the next block: its d-support, on its
    # own rank, starts before m of that block
    g = _first(eb, "i")
    (b,) = eb.info[g].supp_blocks
    return (_with_info(eb, g, supp_blocks=(b + 1,)),
            f"{g}: d-support starts before m_(min block)")


def block_rank_cstar(eb):
    g = _first(eb, "i")
    table = {**eb.bd.cstar_table, g: eb.bd.estar(0)}
    return (replaced(eb, bd=replaced(eb.bd, cstar_table=table)),
            f"{g}: block-rank element with c* != 0")


def coded_cstar(eb):
    g = next(g for g, inf in sorted(eb.info.items()) if inf.case != "i")
    alpha, beta = eb.info[g].coeffs
    return (_with_info(eb, g, coeffs=(alpha, beta + F(1, 64))),
            f"{g}: schema c* differs from alpha e_xi + beta e_eta "
            "(projection must fix e_eta)")


@pytest.mark.parametrize("tamper", [empty_stage, early_d_support,
                                    block_rank_cstar, coded_cstar])
def test_coding_reports_tampered_build(acc_build, tamper):
    eb, text = tamper(acc_build)
    assert text in verify_coding(eb).violations
    assert verify_coding(acc_build).ok


def test_embedding_perturbed_coefficient_fails(acc_build):
    # the identity compares e*_g(phi x) with v_g, and the coding suite ties
    # v_g to sum r_j x*_j over D: a coefficient moved in the coded tuple
    # FAILs coding, and one moved in v_g FAILs the embedding as well
    g = next(g for g, inf in acc_build.info.items() if len(inf.entries) >= 2)
    (r, j), *rest = acc_build.info[g].entries
    tie = f"{g}: v_g differs from sum r_j x*_j over D"
    eb = _with_info(acc_build, g, entries=((r + F(1, 64), j), *rest))
    assert verify_coding(eb).violations == [tie]
    moved = acc_build.info[g].vecsum + acc_build.D.members[j].vec.scale(
        F(1, 64))
    eb = _with_info(acc_build, g, vecsum=moved)
    assert tie in verify_coding(eb).violations
    rep = verify_embedding(eb)
    assert rep.verdict is Verdict.FAIL
    assert any(v.startswith(f"{g}: e*(phi x) = ") for v in rep.violations)


def test_embedding_vecsum_above_dual_unit_fails(acc_build, monkeypatch):
    # the identity reads v_g too and would fail on the doubled one; it is
    # taken out so that the upper bound alone is judged
    s = acc_build.seed
    g = max(acc_build.info, key=lambda g: s.dual_norm(acc_build.info[g].vecsum))
    eb = _with_info(acc_build, g, vecsum=acc_build.info[g].vecsum.scale(2))
    monkeypatch.setattr(construction, "phi_functional_identity",
                        lambda eb, x: bdcore.Report("embedding-identity"))
    rep = verify_embedding(eb)
    assert rep.verdict is Verdict.FAIL
    assert rep.details["||phi||"] > 1
    assert rep.violations == [
        f"upper bound fails: ||phi|| = {rep.details['||phi||']} > 1"]


def test_embedding_dropped_coded_element_is_inconclusive(acc_build,
                                                         monkeypatch):
    # the worst gauge represents e*_1 by the v_g tight at its dual point x
    # (|v_g(x)| = 1), here +-v_g of the block-1 atom; every optimal
    # representation uses only those, so without them lambda* falls, here
    # below 1 - eps.  The identity check reads every stage element, so it
    # is taken out: the lower bound reads only the v_g
    rep = verify_embedding(acc_build)
    x = FinVec(acc_build.seed.universe, rep.details["witness"])
    tight = {g for g, inf in acc_build.info.items()
             if abs(inf.vecsum.pair(x)) == 1}
    assert tight and all(acc_build.info[g].rank == 1 for g in tight)
    eb = replaced(acc_build, info={
        g: inf for g, inf in acc_build.info.items() if g not in tight})
    monkeypatch.setattr(construction, "phi_functional_identity",
                        lambda eb, x: bdcore.Report("embedding-identity"))
    dropped = verify_embedding(eb)
    lam = dropped.details["lambda*"]
    assert lam < rep.details["lambda*"] and lam < 1 - acc_build.seed.eps
    assert dropped.ok and dropped.verdict is Verdict.INCONCLUSIVE
    assert dropped.reason == (f"lower bound lambda* = {lam} < 1 - eps = "
                              "31/32 on the built stages")
    assert lam == F(341, 688)
    # with no v_g on coordinate 1 alone, no column lies inside supp e*_1
    # and the gauge starts from all of them; with no v_g reaching
    # coordinate 1 at all, e*_1 is outside their span and lambda* = 0
    for dropped, expect in ((lambda v: v.support() == (1,),
                             F(174592, 528427)), (lambda v: 1 in v, 0)):
        eb = replaced(acc_build, info={
            g: inf for g, inf in acc_build.info.items()
            if not dropped(inf.vecsum)})
        rep = verify_embedding(eb)
        assert rep.verdict is Verdict.INCONCLUSIVE
        assert rep.details["lambda*"] == expect
        assert (rep.details["witness"] is None) == (expect == 0)


def test_embedding_gauge_prices_columns_outside_supp_u(acc_build,
                                                       monkeypatch):
    # with the block-1 atoms' v_g shrunk to a quarter, the columns inside
    # supp e*_1 give it gauge 129/32, and v_g reaching other blocks do
    # better: the price must add them.  lambda* is then 1 / max_u rho(u),
    # each rho(u) one LP over every +-v_g at once.  The identity reads v_g
    # too, so it is taken out: the lower bound alone is judged
    eb = replaced(acc_build, info={
        g: replaced(inf, vecsum=inf.vecsum.scale(F(1, 4)))
        if inf.rank == 1 else inf for g, inf in acc_build.info.items()})
    monkeypatch.setattr(construction, "phi_functional_identity",
                        lambda eb, x: bdcore.Report("embedding-identity"))
    rep = verify_embedding(eb)
    vecs = [inf.vecsum for inf in eb.info.values()]

    def rho(u):
        A = [[s * v[i] for v in vecs for s in (1, -1)] for i in range(1, 5)]
        return -bf_maximize([-1] * len(A[0]), A_eq=A,
                            b_eq=[u[i] for i in range(1, 5)])[0]
    worst = max(rho(u) for u in unit_restrictions(eb.seed, [(1, 4)]))
    assert rep.details["lambda*"] == 1 / worst == F(174592, 528427)
    assert worst < F(129, 32) and rep.verdict is Verdict.INCONCLUSIVE


def test_halfnorm_embedding_pass_at_stage_8(halfnorm_build8):
    # the per-interval norming certificate read delta 128/129 on [1,4] and
    # [2,4] here; the exact constant passes
    rep = verify_embedding(halfnorm_build8)
    assert rep.verdict is Verdict.PASS, (rep.violations[:3], rep.reason)
    assert rep.details["||phi||"] == F(128, 129)
    assert rep.details["lambda*"] == F(128, 129)
    for x in block_samples(halfnorm_build8, 40, 4):
        assert_two_sided(halfnorm_build8, rep, x)


def test_halfnorm_embedding_pass_at_stage_10(halfnorm_build10):
    rep = verify_embedding(halfnorm_build10)
    assert rep.verdict is Verdict.PASS, (rep.violations[:3], rep.reason)
    assert rep.details["||phi||"] == F(128, 129)
    assert rep.details["lambda*"] == F(128, 129)
    for x in block_samples(halfnorm_build10, 40, 4):
        assert_two_sided(halfnorm_build10, rep, x)


def test_cuts_verdict_is_inconclusive(acc_build):
    rep = verify_cuts(acc_build)
    assert rep.ok and rep.verdict is Verdict.INCONCLUSIVE and rep.reason
    bd = acc_build.bd
    assert rep.details == {
        "distinct_cut_sets": len({bd.cuts(g) for g in bd.ids()})}
    # why no finite stage settles it: a coded tuple and its extension have
    # cut sets in proper-prefix relation
    pool = {bd.cuts(g): g for g in bd.ids()}
    found = False
    for ca, ga in pool.items():
        for cb, gb in pool.items():
            if len(cb) == len(ca) + 1 and cb[: len(ca)] == ca:
                ta = acc_build.info[ga].entries
                tb = acc_build.info[gb].entries
                if len(tb) == len(ta) + 1 and tb[: len(ta)] == ta:
                    found = True
    assert found


