import random
from fractions import Fraction

import pytest

from bdspace import decomp, lp
from bdspace.bdcore import Verdict
from bdspace.decomp import (SeedSpace, SeedSpaceError, build_norming_set_D,
                            check_subsequential_upper,
                            decomposition_closure_report, default_eps_seq,
                            member_band_report, norming_certificate,
                            optimal_c_decomposition, rounding_error_report,
                            tsirelson_seed, verify_norming_set, vstar_norm)
from bdspace.exact import FinVec
from bdspace.families import schreier
from bdspace.tsirelson import TsirelsonSpec, build_dual_norming_set
from conftest import make_acceptance_seed
from oracles import polytope_vertices

F = Fraction
S1 = schreier(1)


def l1(v):
    return v.l1()


# -- greedy decomposition -----------------------------------------------------

def test_greedy_spec_example():
    x = FinVec("l1", {1: F(3, 10), 2: F(3, 10), 3: F(4, 5)})
    dec = optimal_c_decomposition(x, F(1, 2), l1)
    assert dec.breakpoints == (1, 2, 3, 4)
    assert [dict(b.items()) for b in dec.blocks()] == [
        {1: F(3, 10)}, {2: F(3, 10)}, {3: F(4, 5)}]


def test_greedy_single_coordinate():
    x = FinVec("l1", {4: F(7, 8)})
    dec = optimal_c_decomposition(x, F(1, 2), l1)
    assert dec.blocks() == (x,)


def test_greedy_all_small_one_block():
    x = FinVec("l1", {1: F(1, 10), 2: F(1, 10), 3: F(1, 10)})
    dec = optimal_c_decomposition(x, F(1, 2), l1)
    assert dec.blocks() == (x,)
    assert dec.breakpoints == (1, 4)


def test_greedy_reconstruction_and_adjacency():
    rng = random.Random(0)
    for trial in range(1000):
        sup = rng.sample(range(1, 12), rng.randint(1, 6))
        x = FinVec("l1", {i: F(rng.randint(-16, 16), 16) for i in sup})
        if not x:
            continue
        c = F(rng.randint(1, 6), 8)
        dec = optimal_c_decomposition(x, c, l1)
        total = FinVec("l1")
        for p in dec.pieces:
            total = total + p
        assert total == x
        blocks = dec.blocks()
        for a, b in zip(blocks, blocks[1:]):
            assert a.support()[-1] < b.support()[0]
        for p in blocks:
            assert len({i for i in p.support()}) == 1 or l1(p) <= c
        # adjacent pairs from the raw breakpoint pieces exceed c
        for j in range(len(dec.pieces) // 2):
            pair_sum = dec.pieces[2 * j] + dec.pieces[2 * j + 1]
            assert l1(pair_sum) > c


# -- seed spaces -----------------------------------------------------------------

def test_eps_seq_rule():
    eps = F(1, 32)
    seq = default_eps_seq(eps, 5)
    assert sum(seq) < eps / 8
    for n in range(5):
        assert sum(seq[n + 1:], F(0)) < seq[n] / 2


def test_seed_validation_rejects_bad_eps():
    with pytest.raises(SeedSpaceError):
        SeedSpace("bad", [1], [FinVec("seed:bad", {1: 1})], F(1, 16), F(1, 8))


def test_tsirelson_seed_norm_matches_module(acc_seed):
    spec = TsirelsonSpec(S1, F(1, 16))
    from bdspace.tsirelson import tsirelson_norm
    rng = random.Random(1)
    for _ in range(25):
        entries = {i: F(rng.randint(-8, 8), 8)
                   for i in rng.sample(range(1, 5), rng.randint(1, 3))}
        x = FinVec(acc_seed.universe, entries)
        assert acc_seed.primal_norm(x) == tsirelson_norm(
            FinVec("nat", entries), spec)


def tree_functionals(universe, c, nblocks=4):
    """The unpruned generators of a Tsirelson seed: its tree functionals."""
    dns = build_dual_norming_set(TsirelsonSpec(S1, F(c)), nblocks, nblocks)
    return [FinVec(universe, dict(v.items())) for v in dns.members()]


def test_dual_norm_against_vertex_oracle(acc_seed):
    # dual norm = max over the vertices of the primal ball, cross-checked
    # on the two-block section; the ball comes from the unpruned tree
    # functionals, not from the generators the seed kept
    rows = [[g[1], g[2]] for g in tree_functionals(acc_seed.universe, F(1, 16))
            if g[1] or g[2]]
    verts = polytope_vertices(rows, 2)
    rng = random.Random(2)
    for _ in range(10):
        f = FinVec(acc_seed.universe,
                   {1: F(rng.randint(-4, 4), 4), 2: F(rng.randint(-4, 4), 4)})
        if not f:
            continue
        by_vertex = max(abs(f[1] * v[0] + f[2] * v[1]) for v in verts)
        assert acc_seed.dual_norm(f) == by_vertex


def full_dual_norm(gens, f):
    """Minimal l1 weight representing f over the whole +-gens, g and -g as
    two columns per generator, nothing dropped."""
    coords = sorted({i for g in gens for i in g.support()} | set(f.support()))
    A = [[s * g[i] for g in gens for s in (1, -1)] for i in coords]
    return -lp.maximize([-1] * (2 * len(gens)), A_eq=A,
                        b_eq=[f[i] for i in coords])[0]


@pytest.mark.parametrize("c, kept", [(F(1, 16), 8), (F(1, 2), 36)],
                         ids=["acc-pruned", "S1-half-dedup"])
def test_reduced_generators_keep_norms(c, kept):
    # the acceptance generators lose 28 of 36 to pruning; the (S_1, 1/2)
    # generators are all dual-unit, so only the +-g dedup acts on them
    gens = tree_functionals("seed:ref", c)
    seed = SeedSpace("ref", [1] * 4, gens, F(1, 16), F(1, 32))
    assert len(gens) == 36 and len(seed.norming) == kept
    rng = random.Random(7)
    for _ in range(30):
        entries = {i: F(rng.randint(-8, 8), 8)
                   for i in rng.sample(range(1, 5), rng.randint(1, 4))}
        x = FinVec(seed.universe, entries)
        assert seed.primal_norm(x) == max(abs(g.pair(x)) for g in gens)
        if x:
            assert seed.dual_norm(x) == full_dual_norm(gens, x)


def nb_generators(uni="seed:nb"):
    """(1, 1), (0, 1) and (3/5, 3/10): e*_1 is not among them."""
    return [FinVec(uni, v) for v in ({1: 1, 2: 1}, {2: 1},
                                     {1: F(3, 5), 2: F(3, 10)})]


def test_pruning_keeps_bimonotone_failure():
    # ||(3/5, 3/10)||_* = 9/10 drops it, though its block-1 restriction
    # has dual norm 6/5; the unit generator (1, 1) still exposes the seed
    gens = nb_generators()
    seed = SeedSpace("nb", [1, 1], gens + [-g for g in gens],
                     F(1, 16), F(1, 32))
    dropped = gens[2]
    assert seed.dual_norm(dropped) == F(9, 10)
    assert dropped not in seed.norming and -dropped not in seed.norming
    assert seed.dual_norm(seed.restrict_blocks(dropped, 1, 1)) == F(6, 5)
    # (the dense sets +-e*_1, +-e*_2 are off the sphere too, reported apart)
    issues = [i for i in seed.validate() if "not bimonotone" in i]
    assert issues == [f"norming[{seed.norming.index(g)}] restricted to blocks "
                      "[1,1] exceeds the dual ball (seed not bimonotone)"
                      for g in (-gens[0], gens[0])]


def lp_spy(monkeypatch):
    """Record the column count and equality matrix of every LP solved."""
    seen = []
    maximize = lp.maximize

    def spy(c, A_ub=(), b_ub=(), A_eq=(), b_eq=()):
        seen.append((len(c), A_eq))
        return maximize(c, A_ub, b_ub, A_eq, b_eq)

    monkeypatch.setattr(lp, "maximize", spy)
    return seen


def test_dual_norm_lp_has_one_column_per_generator(acc_seed, monkeypatch):
    # the acceptance seed keeps exactly the 8 +-e_i, and each enters the
    # dual-norm LP once: 8 structural columns, not 2 x 36.  Its norm is the
    # sup norm, so ||sign f|| = 1 and the bounds settle dual_norm without
    # it; with the upper bound taken away, dual_norm calls lp.gauge
    units = {FinVec(acc_seed.universe, {i: s}) for i in range(1, 5)
             for s in (1, -1)}
    assert set(acc_seed.norming) == units and len(acc_seed.norming) == 8
    seen = lp_spy(monkeypatch)
    f = FinVec(acc_seed.universe, {1: F(3, 997), 4: F(-5, 991)})
    assert acc_seed.dual_norm(f) == F(3, 997) + F(5, 991)
    assert seen == []
    monkeypatch.setattr(acc_seed, "_dual_cache", {})
    monkeypatch.setattr(SeedSpace, "_dual_upper", lambda self, f: None)
    assert acc_seed.dual_norm(f) == F(3, 997) + F(5, 991)
    (ncols, A), = seen
    assert ncols == 8
    columns = {FinVec(acc_seed.universe, dict(zip(range(1, 5), col)))
               for col in zip(*A)}
    assert columns == units


@pytest.mark.parametrize("kind", ["acc", "S1-three-quarters", "nb"])
def test_dual_norm_bounds_match_full_lp(kind, monkeypatch):
    # acc: the sup norm, every call settled by the bounds; (S_1, 3/4) tree
    # functionals: ||sign f|| > 1 on some supports, so bounds and LPs mix;
    # nb: e*_1 is no generator, so a functional touching coordinate 1 has
    # no upper bound and always takes the LP
    if kind == "nb":
        gens = nb_generators("seed:ref")
        gens += [-g for g in gens]
    else:
        gens = tree_functionals("seed:ref", F(1, 16) if kind == "acc"
                                else F(3, 4))
    n = 2 if kind == "nb" else 4
    seed = SeedSpace("ref", [1] * n, gens, F(1, 16), F(1, 32))
    seen = lp_spy(monkeypatch)
    rng = random.Random(11)
    settled = solved = 0
    done = set()
    for _ in range(60):
        x = FinVec(seed.universe, {i: F(rng.randint(-8, 8), 8) for i in
                                   rng.sample(range(1, n + 1),
                                              rng.randint(1, n))})
        if not x or x in done:
            continue
        done.add(x)
        before = len(seen)
        val = seed.dual_norm(x)
        made = len(seen) - before
        assert made <= 1
        assert val == full_dual_norm(gens, x)
        if kind == "nb":
            assert made == (1 in x)
        settled += not made
        solved += made
    if kind == "acc":
        assert solved == 0
    else:
        assert settled and solved


@pytest.mark.parametrize("k, n", [(1, n) for n in range(2, 8)] + [(2, 6)],
                         ids=[f"S1-{n}" for n in range(2, 8)] + ["S2-6"])
def test_tsirelson_seed_cut_matches_unpruned(k, n):
    # c * n < 1, so the seed is built from the 2n leaves alone; every other
    # tree has l1 <= c * n < 1 and the full set must give the same seed
    c = F(1, 16)
    members = build_dual_norming_set(TsirelsonSpec(schreier(k), c),
                                     n, n).members()
    full = SeedSpace("cut", [1] * n, members, c, c / 2)
    cut = tsirelson_seed("cut", schreier(k), c, n)
    assert cut.to_json_obj() == full.to_json_obj()
    assert len(cut.norming) == 2 * n


def test_seed_space_first_pass(monkeypatch):
    # +-e*_1, +-e*_2 and (1/2, 1/2) have l1 = 1 and are kept; (1/4, 1/2)
    # has l1 = 3/4 and goes before its lower bound is asked or an LP runs;
    # duplicates, the zero vector and copies from another universe collapse
    uni = "seed:fp"
    units = [FinVec(uni, {i: s}) for i in (1, 2) for s in (1, -1)]
    half = FinVec(uni, {1: F(1, 2), 2: F(1, 2)})
    small = FinVec(uni, {1: F(1, 4), 2: F(1, 2)})
    gens = units + [half, small, units[0], FinVec(uni), FinVec("nat", {2: 1}),
                    FinVec("other", dict(half.items()))]
    asked = []
    lower = SeedSpace._dual_lower
    monkeypatch.setattr(SeedSpace, "_dual_lower",
                        lambda self, f: asked.append(f) or lower(self, f))
    monkeypatch.setattr(lp, "maximize", None)
    seed = SeedSpace("fp", [1, 1], gens, F(1, 16), F(1, 32))
    assert seed.norming == [FinVec(uni, {1: -1}), half, FinVec(uni, {1: 1}),
                            FinVec(uni, {2: -1}), FinVec(uni, {2: 1})]
    assert small not in asked
    assert seed.dual_norm(small) == F(3, 4)


def test_bounds_decide_without_lp(monkeypatch):
    # the sup-normed seeds: every generator and every restriction is decided
    # by the bounds, so no LP runs
    monkeypatch.setattr(lp, "maximize", None)
    for seed in (tsirelson_seed("t8", S1, F(1, 16), 8),
                 make_acceptance_seed()):
        assert seed.validate() == []


def test_dual_norm_lp_counts_and_values(monkeypatch):
    # (S_2, 1/2) tree functionals on 4 blocks: choosing the 28 kept of the
    # 44 takes 16 LPs over the survivors; the dual norms after that run LPs
    # over the 28 kept, all on one matrix.  The counts are those of the LP
    # over all of +-G that this replaced
    seen = lp_spy(monkeypatch)
    gens = build_dual_norming_set(TsirelsonSpec(schreier(2), F(1, 2)),
                                  4, 4).members()
    seed = SeedSpace("s2", [1] * 4, gens, F(1, 16), F(1, 32))
    assert (len(gens), len(seed.norming), len(seen)) == (44, 28, 16)
    rng = random.Random(7)
    xs = [FinVec(seed.universe, {i: F(rng.randint(-8, 8), 8) for i in
                                 rng.sample(range(1, 5), rng.randint(1, 4))})
          for _ in range(30)]
    vals = [seed.dual_norm(x) for x in xs if x]
    assert len(seen) == 16 + 8
    assert seed.validate() == [] and len(seen) == 16 + 8 + 8
    assert all(A == seen[16][1] for _, A in seen[16:])
    assert {ncols for ncols, _ in seen[16:]} == {len(seed.norming)}
    assert vals == [full_dual_norm(gens, x) for x in xs if x]


def test_dual_norm_columns_built_once_per_generator_list(monkeypatch):
    # the same seed: the 16 LPs that choose the 28 kept share one column
    # list, +-S over the survivors S, and the 16 LPs after them share one,
    # +-G' over the kept
    handed = []
    gauge = lp.gauge
    monkeypatch.setattr(lp, "gauge", lambda f, columns: (
        handed.append(columns) or gauge(f, columns)))
    gens = build_dual_norming_set(TsirelsonSpec(schreier(2), F(1, 2)),
                                  4, 4).members()
    seed = SeedSpace("s2", [1] * 4, gens, F(1, 16), F(1, 32))
    rng = random.Random(7)
    for _ in range(30):
        x = FinVec(seed.universe, {i: F(rng.randint(-8, 8), 8) for i in
                                   rng.sample(range(1, 5), rng.randint(1, 4))})
        seed.dual_norm(x)
    assert seed.validate() == []
    lists = list({id(c): c for c in handed}.values())
    assert len(handed) == 32 and len(lists) == 2
    assert [handed.count(c) for c in lists] == [16, 16]
    assert set(lists[1]) == {sg for g in seed.norming for sg in (g, -g)}


def test_sixteen_block_seed_builds_from_its_leaves(monkeypatch):
    # c * 16 = 1, but every tree that is no leaf has l1 at most c times the
    # best split of 1_[1,16], 8/16 under (S_1, 1/16): the 32 leaves give the
    # seed, where enumerating every tree ran into the member cap
    def enumerate_all(spec, depth, bound, member_cap=200_000):
        assert depth == 0, "every tree enumerated"
        return build_dual_norming_set(spec, depth, bound)
    monkeypatch.setattr(decomp, "build_dual_norming_set", enumerate_all)
    seed = tsirelson_seed("t16", S1, F(1, 16), 16)
    assert len(seed.norming) == 32
    assert {g.support() for g in seed.norming} == {(i,) for i in range(1, 17)}
    assert seed.validate() == []


def test_functional_outside_span_raises():
    # every coordinate is reached, but no combination of +-(1, 1) gives
    # e*_1 or (1, -1); sign(1, -1) even has norm 0
    seed = SeedSpace("sp", [1, 1], [FinVec("seed:sp", {1: 1, 2: 1})],
                     F(1, 16), F(1, 32))
    for f in ({1: 1}, {1: 1, 2: -1}):
        with pytest.raises(SeedSpaceError, match="outside the span"):
            seed.dual_norm(FinVec(seed.universe, f))
    # -(1, 1) is not a generator, yet the LP has it as a column
    assert seed.dual_norm(FinVec(seed.universe, {1: -2, 2: -2})) == 2
    # no generator reaches coordinate 3, so the LP has no row for it and
    # would read (1, 1, 1) as (1, 1), of dual norm 1
    seed = SeedSpace("sp", [1, 1, 1], [FinVec("seed:sp", {1: 1, 2: 1})],
                     F(1, 16), F(1, 32))
    with pytest.raises(SeedSpaceError, match="outside the span"):
        seed.dual_norm(FinVec(seed.universe, {1: 1, 2: 1, 3: 1}))


@pytest.mark.parametrize("fault, match", [
    # each id names the fault and the side of the certificate it breaks
    pytest.param("negative weight", "not primal feasible",
                 id="negative weight-a negative weight"),
    pytest.param("moved weight", "not primal feasible",
                 id="moved weight-weights miss f"),
    pytest.param("wrong value", "objective values differ",
                 id="wrong value-weights miss the value"),
    pytest.param("dual scaled up", "not dual feasible",
                 id="dual scaled up-outside the unit ball"),
    pytest.param("dual scaled down", "objective values differ",
                 id="dual scaled down-dual point misses the value"),
])
def test_dual_norm_lp_certificate_fault_injection(fault, match, monkeypatch):
    # on the (S_1, 3/4) tree functionals e*_2 + e*_3 has bounds 4/3 (sign
    # vector of norm 3/2) and 2, so its dual norm takes the LP; each fault
    # breaks one side of the certificate, and the check in lp.maximize
    # must refuse it
    gens = tree_functionals("seed:ref", F(3, 4))
    f = FinVec("seed:ref", {2: 1, 3: 1})
    clean = SeedSpace("ref", [1] * 4, gens, F(1, 16), F(1, 32))
    assert clean.dual_norm(f) == F(4, 3)
    seed = SeedSpace("ref", [1] * 4, gens, F(1, 16), F(1, 32))
    solve = lp._solve

    def faulty(*args):
        v, x, y = solve(*args)
        j = next(j for j, w in enumerate(x) if w > 0)
        if fault == "negative weight":
            x = x[:j] + [-x[j]] + x[j + 1:]
        elif fault == "moved weight":
            x = x[:j] + [x[j] + 1] + x[j + 1:]
        elif fault == "wrong value":
            v -= F(1, 7)
        else:
            y = [w * (2 if fault == "dual scaled up" else F(1, 2)) for w in y]
        return v, x, y

    monkeypatch.setattr(lp, "_solve", faulty)
    with pytest.raises(lp.CertificateError, match=match):
        seed.dual_norm(f)


def test_seed_bimonotone_validation(acc_seed):
    assert acc_seed.validate() == []


# -- the norming set ---------------------------------------------------------------

def test_atoms_equal_scaled_dense_sets(acc_seed, acc_D):
    factor = 1 + acc_seed.eps / 4
    for blk in range(1, acc_seed.nblocks + 1):
        atoms = {acc_D.members[i].vec for i in acc_D.atoms_of(blk)}
        expect = {a.scale(1 / factor) for a in acc_seed.atilde[blk - 1]}
        assert atoms == expect
        # the single-block intersection holds nothing besides the atoms
        assert set(acc_D.indices_in(blk, blk)) == set(acc_D.atoms_of(blk))


def test_norming_set_cap_flags_pruned(acc_seed):
    D = build_norming_set_D(acc_seed, size_cap=5)
    assert D.pruned
    assert len(D.members) <= 5
    # whatever was kept still satisfies the per-member invariants
    assert member_band_report(D) == []
    assert rounding_error_report(D) == []
    assert decomposition_closure_report(D) == []


def test_member_band_exact(acc_seed, acc_D):
    assert member_band_report(acc_D) == []
    for m in acc_D.members:
        n = acc_seed.dual_norm(m.vec)
        assert F(1, 2) <= n <= 1


def test_rounding_error_exact(acc_D):
    assert rounding_error_report(acc_D) == []


def test_decomposition_closure(acc_D):
    assert decomposition_closure_report(acc_D) == []


def test_norming_certificates_all_intervals(acc_seed, acc_D):
    for lo in range(1, acc_seed.nblocks + 1):
        for hi in range(lo, acc_seed.nblocks + 1):
            w, detail = norming_certificate(acc_D, lo, hi,
                                            acc_D.indices_in(lo, hi))
            assert w <= acc_seed.eps, (lo, hi, w)
            assert detail
            # measured over no member, every target is at distance 1
            assert norming_certificate(acc_D, lo, hi, [])[0] == 1


def test_verify_norming_set(acc_seed, acc_D, monkeypatch):
    rep = verify_norming_set(acc_D, acc_seed.nblocks)
    assert rep.verdict is Verdict.PASS
    assert len(rep.details) == 10  # the intervals [lo, hi] of 4 blocks
    assert rep.details["delta[1,4]"] == norming_certificate(
        acc_D, 1, 4, acc_D.indices_in(1, 4))[0]
    # a margin above eps on any interval fails the suite
    monkeypatch.setattr(decomp, "norming_certificate",
                        lambda D, lo, hi, members: (acc_seed.eps + F(1, 1000),
                                                       []))
    rep = verify_norming_set(acc_D, 2)
    assert rep.verdict is Verdict.FAIL
    assert len(rep.violations) == 3
    assert rep.violations[0].startswith("norming margin")


def test_case_coverage_for_coding(acc_D):
    # decompositions with a multi-block first piece exist (drives the
    # type-0 recoding case downstream)
    found = False
    for m in acc_D.members:
        if m.atom_block is None:
            first = acc_D.members[m.decomp[0][1]]
            if first.block_hi > first.block_lo:
                found = True
    assert found


# -- subsequential upper estimates --------------------------------------------------

def test_vstar_norm_examples():
    spec = TsirelsonSpec(S1, F(1, 2))
    assert vstar_norm({1: F(1)}, spec) == 1
    assert vstar_norm({1: F(1), 2: F(1)}, spec) == 2
    # e*_3 + e*_4 + e*_5 acts on e_3 + e_4 + e_5 of norm 3/2
    assert vstar_norm({3: F(1), 4: F(1), 5: F(1)}, spec) == 2


def test_vstar_norm_lp_certificate_fault_injection(monkeypatch):
    # an LP answer whose value is off: the check in lp.maximize must
    # refuse it
    solve = lp._solve

    def faulty(*args):
        v, x, y = solve(*args)
        return v + F(1, 7), x, y

    monkeypatch.setattr(lp, "_solve", faulty)
    with pytest.raises(lp.CertificateError, match="objective values differ"):
        vstar_norm({3: F(1), 4: F(1), 5: F(1)}, TsirelsonSpec(S1, F(1, 2)))


def test_upper_estimate_single_coordinate(acc_seed):
    spec = TsirelsonSpec(S1, F(1, 2))
    z = FinVec(acc_seed.universe, {2: F(1, 2)})
    cert = check_subsequential_upper([z], acc_seed, spec, 1)
    assert cert.status == "PASS"
    assert cert.checked == 1
    assert cert.max_value == F(1, 2)


def test_upper_estimate_c0_type_failure():
    # sup-normed seed: the coordinate functionals sum with no decay, so the
    # l1-type target with C = 1 must fail on the two-coordinate functional
    uni = "seed:c0"
    norming = [FinVec(uni, {1: 1}), FinVec(uni, {1: -1}),
               FinVec(uni, {2: 1}), FinVec(uni, {2: -1})]
    seed = SeedSpace("c0", [1, 1], norming, F(1, 16), F(1, 32))
    assert seed.validate() == []
    spec = TsirelsonSpec(S1, F(1, 2))
    z = FinVec(uni, {1: 1, 2: 1})
    cert = check_subsequential_upper([z], seed, spec, 1)
    assert cert.status == "FAIL"
    assert cert.witness[2] == 2  # the evaluated value || v*_1 + v*_2 ||


def test_upper_estimate_logged_constant(acc_seed, acc_D):
    # every cut sequence is checked, so the largest value is the exact
    # constant: it passes, and a constant just below it fails
    spec = TsirelsonSpec(S1, F(1, 2))
    members = [m.vec for m in acc_D.members][:10]
    probe = check_subsequential_upper(members, acc_seed, spec, 10 ** 6)
    logged = probe.max_value
    cert = check_subsequential_upper(members, acc_seed, spec, logged)
    assert cert.status == "PASS"
    assert cert.max_value == logged
    cert = check_subsequential_upper(members, acc_seed, spec,
                                     logged - F(1, 10 ** 6))
    assert cert.status == "FAIL"
    assert cert.witness[2] == cert.max_value == logged


@pytest.mark.parametrize("name, checked", [("acc_build", 60),
                                           ("build_6x16", 284)],
                         ids=["acc", "6x16"])
def test_upper_estimates_exhaustive_counts(request, name, checked):
    # every member of D, and for each every subset of its interior cuts
    eb = request.getfixturevalue(name)
    cert = check_subsequential_upper([m.vec for m in eb.D.members], eb.seed,
                                     TsirelsonSpec(S1, F(1, 2)), 4)
    assert cert.checked == sum(2 ** (m.block_hi - m.block_lo)
                               for m in eb.D.members) == checked
    assert cert.status == "PASS"
    assert cert.max_value == F(128, 129)


def test_upper_estimate_report_verdicts(acc_seed, monkeypatch):
    # every cut sequence checked: PASS; a witness: FAIL; more sequences
    # than the budget: AT-CAP, with the count
    spec = TsirelsonSpec(S1, F(1, 2))
    z = FinVec(acc_seed.universe, {2: F(1, 2)})
    rep = check_subsequential_upper([z], acc_seed, spec, 1).report()
    assert rep.ok and rep.verdict is Verdict.PASS
    assert rep.details == {"checked": 1, "max_value": F(1, 2)}
    z = FinVec(acc_seed.universe, {1: 1, 2: 1, 3: 1})
    rep = check_subsequential_upper([z], acc_seed, spec, F(1, 2)).report()
    assert rep.verdict is Verdict.FAIL
    assert rep.violations[0].startswith("witness: (0, ")
    monkeypatch.setattr(decomp, "CUT_BUDGET", 3)  # z has 4 cut sequences
    rep = check_subsequential_upper([z], acc_seed, spec, 10).report()
    assert rep.ok and rep.verdict is Verdict.AT_CAP
    assert rep.details["checked"] == 3
    assert rep.reason.startswith("cut budget 3 reached after 3 cut sequences")
