import dataclasses
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


def block_samples(eb, count, seed):
    """Seeded vectors with entries k/8 on at most 3 covered blocks."""
    s, covered = eb.seed, eb.nblocks_covered()
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        blocks = rng.sample(range(1, covered + 1),
                            rng.randint(1, min(3, covered)))
        x = FinVec(s.universe, {i: F(rng.randint(-8, 8), 8) for b in blocks
                                for i in s.block_coords(b)})
        if x:
            out.append(x)
    return out


def assert_two_sided(eb, rep, x):
    """(1 - delta)||x|| <= ||phi x|| <= ||x||, delta the report's margin on
    the block span of x."""
    s = eb.seed
    lo, hi = s.block_range(x)
    nx, up = s.primal_norm(x), embed_phi(eb, x).linf()
    assert (1 - rep.details[f"delta[{lo},{hi}]"]) * nx <= up <= nx, x


def test_embedding_bounds_and_witnesses(acc_build):
    rep = verify_embedding(acc_build)
    assert rep.verdict is Verdict.PASS, (rep.violations[:3], rep.reason)
    assert rep.details["||phi||"] <= 1
    eps = acc_build.seed.eps
    assert all(v <= eps for k, v in rep.details.items()
               if k.startswith("delta"))
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
    # ||phi|| and one margin per interval of the 4 covered blocks
    assert rep.details == {"||phi||": F(128, 129)} | {
        f"delta[{lo},{hi}]": F(1, 129)
        for lo in range(1, 5) for hi in range(lo, 5)}


def _with_info(eb, g, **changes):
    """A copy of the build whose element g carries changed coded data."""
    info = dict(eb.info)
    info[g] = dataclasses.replace(info[g], **changes)
    return dataclasses.replace(eb, info=info)


def test_embedding_perturbed_coefficient_fails(acc_build):
    g = next(g for g, inf in acc_build.info.items() if len(inf.entries) >= 2)
    (r, j), *rest = acc_build.info[g].entries
    eb = _with_info(acc_build, g, entries=((r + F(1, 64), j), *rest))
    rep = verify_embedding(eb)
    assert rep.verdict is Verdict.FAIL
    assert all(v.startswith(f"{g}: ") for v in rep.violations)


def test_embedding_vecsum_above_dual_unit_fails(acc_build):
    s = acc_build.seed
    g = max(acc_build.info, key=lambda g: s.dual_norm(acc_build.info[g].vecsum))
    eb = _with_info(acc_build, g, vecsum=acc_build.info[g].vecsum.scale(2))
    rep = verify_embedding(eb)
    assert rep.verdict is Verdict.FAIL
    assert rep.details["||phi||"] > 1
    assert rep.violations == [
        f"upper bound fails: ||phi|| = {rep.details['||phi||']} > 1"]


def test_embedding_dropped_coded_element_is_inconclusive(acc_build):
    # the norming targets of the acceptance seed are the +-e*_i, so without
    # the codes of block 1's stage nothing within eps of +-e*_1 is coded;
    # the stage of the dropped codes is named
    eb = dataclasses.replace(acc_build, code_of={
        t: g for t, g in acc_build.code_of.items()
        if acc_build.info[g].rank != 1})
    rep = verify_embedding(eb)
    assert rep.ok and rep.verdict is Verdict.INCONCLUSIVE
    short = {k for k, v in rep.details.items()
             if k.startswith("delta") and v > acc_build.seed.eps}
    assert short == {f"delta[1,{hi}]" for hi in range(1, 5)}
    assert (f"[1,1] (delta {rep.details['delta[1,1]']}; the codes up to "
            "stage 1 would certify it)") in rep.reason


def test_halfnorm_embedding_inconclusive_at_stage_8(halfnorm_build8):
    rep = verify_embedding(halfnorm_build8)
    assert rep.ok and rep.verdict is Verdict.INCONCLUSIVE
    assert rep.details["||phi||"] == F(128, 129)
    short = {k for k, v in rep.details.items()
             if k.startswith("delta") and v > halfnorm_build8.seed.eps}
    assert short == {"delta[1,4]", "delta[2,4]"}
    for lo in (1, 2):
        assert (f"[{lo},4] (delta 128/129; the codes up to stage 9 would "
                "certify it)") in rep.reason


def test_halfnorm_embedding_pass_at_stage_10(halfnorm_build10):
    rep = verify_embedding(halfnorm_build10)
    assert rep.verdict is Verdict.PASS, (rep.violations[:3], rep.reason)
    assert rep.details["||phi||"] == F(128, 129)
    assert rep.details["delta[1,4]"] == F(87, 11008)
    for x in block_samples(halfnorm_build10, 40, 4):
        assert_two_sided(halfnorm_build10, rep, x)


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
