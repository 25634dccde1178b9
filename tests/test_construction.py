import itertools
import random
from fractions import Fraction

from bdspace import bdcore, construction
from bdspace.bdcore import Verdict
from bdspace.construction import (build_embedding, check_block_rank_order,
                                  cuts_family, embed_phi, i0_of_rank,
                                  interval_from_rank, interval_rank, m_seq,
                                  phi_functional_identity, verify_coding,
                                  verify_cuts, verify_embedding)
from bdspace.exact import FinVec
from bdspace.families import chain_compactness_probe, longest_prefix_chain
from oracles import bf_apply_Jm

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
    for j in (1, 2, 3, 4):
        assert check_block_rank_order(acc_build, j).ok


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
                                for i in range(1, s.ncoords + 1)})
        expect = FinVec(bd.universe)
        for blk in range(1, s.nblocks + 1):
            xb = s.restrict_blocks(x, blk, blk)
            mi = m_seq(blk)
            u = FinVec(bd.universe, {
                g: r * D.members[j].vec.pair(xb) for g in bd.stage(mi)
                for r, j in acc_build.info[g].entries})
            expect = expect + bf_apply_Jm(bd, u, mi, bd.max_rank())
        assert embed_phi(acc_build, x) == expect


def test_embedding_bounds_and_witnesses(acc_build):
    rep, samples = verify_embedding(acc_build, 40, seed_rng=3)
    assert rep.ok, rep.violations[:3]
    assert all(s.status in ("WITNESSED", "INCONCLUSIVE") for s in samples)
    for s in samples:
        assert s.image_norm <= s.norm
        if s.status == "INCONCLUSIVE":
            assert s.witness_stage > acc_build.stage_bound


def test_unit_vectors_witnessed(acc_build):
    s = acc_build.seed
    units = [FinVec(s.universe, {i: 1}) for i in range(1, 5)]
    rep, samples = verify_embedding(acc_build, units)
    assert rep.ok
    assert all(x.status == "WITNESSED" for x in samples)
    # single-block action through the scaled dense set: the image norm is
    # at least 1/(1 + eps/4) >= (1 - eps/4) * ||x||
    factor = 1 + s.eps / 4
    for x, out in zip(units, samples):
        assert out.image_norm >= 1 / factor
        assert out.image_norm >= (1 - s.eps / 4) * out.norm


def test_cuts_probe_value_is_derivable(acc_build):
    # a coded tuple and its extension give cut sets in proper-prefix
    # relation, so the probe (as defined) returns False on every build
    # that codes a decomposition of length >= 2
    fam = cuts_family(acc_build)
    assert chain_compactness_probe(fam, acc_build.stage_bound) is False
    # and the prefix pairs really are coded extensions
    pool = {acc_build.bd.cuts(g): g for g in acc_build.bd.ids()}
    found = False
    for ca, ga in pool.items():
        for cb, gb in pool.items():
            if len(cb) == len(ca) + 1 and cb[: len(ca)] == ca:
                ta = acc_build.info[ga].entries
                tb = acc_build.info[gb].entries
                if len(tb) == len(ta) + 1 and tb[: len(ta)] == ta:
                    found = True
    assert found


def test_embedding_unwitnessed_sample_is_inconclusive(acc_build,
                                                      monkeypatch):
    # with phi replaced by 0 (and its identity check by an empty report),
    # no built coordinate witnesses the lower bound, while the best norming
    # member still reaches it: INCONCLUSIVE, not FAIL
    monkeypatch.setattr(construction, "embed_phi",
                        lambda eb, x: FinVec(acc_build.bd.universe))
    monkeypatch.setattr(construction, "phi_functional_identity",
                        lambda eb, x, img: bdcore.Report("embedding-identity"))
    units = [FinVec(acc_build.seed.universe, {i: 1}) for i in (1, 2)]
    rep, samples = verify_embedding(acc_build, units)
    assert [x.status for x in samples] == ["INCONCLUSIVE"] * 2
    assert rep.ok and rep.verdict is Verdict.INCONCLUSIVE
    assert "2 of 2 samples" in rep.reason


def test_embedding_verdict_pass_when_witnessed(acc_build):
    rep, samples = verify_embedding(acc_build, 20)
    assert rep.verdict is Verdict.PASS and rep.reason == ""
    assert rep.details["witness_rate"] == (len(samples), len(samples))


def test_cuts_verdict_is_inconclusive(acc_build):
    rep = verify_cuts(acc_build)
    assert rep.ok and rep.verdict is Verdict.INCONCLUSIVE and rep.reason
    fam = sorted(set(cuts_family(acc_build)))
    assert rep.details["probe"] is False
    assert rep.details["distinct_cut_sets"] == len(fam)
    assert rep.details["longest_prefix_chain"] == longest_prefix_chain(fam)


def test_longest_prefix_chain():
    assert longest_prefix_chain([(1,), (2,)]) == 1
    assert longest_prefix_chain([(1,), (1, 3), (1, 3, 4), (2,), (2, 5)]) == 3
    # the longest chain need not take the first listed extension: from
    # (1,) it runs through (1, 3), not (1, 2)
    assert longest_prefix_chain([(1,), (1, 2), (1, 3), (1, 3, 4)]) == 3
    assert longest_prefix_chain([(1, 3, 4), (1, 3), (1, 2), (1,)]) == 3
    # against every subset that is a chain, on small seeded families
    rng = random.Random(3)
    for _ in range(200):
        fam = list({tuple(sorted(rng.sample(range(1, 6), rng.randint(1, 3))))
                    for _ in range(rng.randint(1, 7))})
        by_len = sorted(fam, key=len)
        best = max(len(s) for k in range(1, len(fam) + 1)
                   for s in itertools.combinations(by_len, k)
                   if all(len(a) < len(b) and b[:len(a)] == a
                          for a, b in zip(s, s[1:])))
        assert longest_prefix_chain(fam) == best, fam


def test_pruned_build_keeps_references():
    from conftest import make_acceptance_seed
    from bdspace.decomp import build_norming_set_D
    seed = make_acceptance_seed()
    D = build_norming_set_D(seed)
    eb = build_embedding(seed, D, stage_bound=8, stage_caps=3)
    assert eb.pruned and eb.prune_log
    # every reference of a kept element is kept, so all checks still run
    assert verify_coding(eb).ok
    assert bdcore.validate_schema(eb.bd).ok
    rep = bdcore.verify_analysis(eb.bd)
    assert rep.ok
