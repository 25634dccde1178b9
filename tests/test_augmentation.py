import gc
import random
from fractions import Fraction

import pytest

from bdspace import bdcore, cli, lp
from bdspace.augmentation import (AugmentedBuild, Window,
                                  _annihilating_witness, _hull_distance,
                                  certify_lower_estimate,
                                  lift_dual_functional, verify_augmentation,
                                  verify_lift_identities)
from bdspace.bdcore import BuildError
from bdspace.construction import embed_phi
from bdspace.exact import FinVec
from bdspace.families import schreier
from bdspace.tsirelson import TsirelsonSpec, tree_vec
from conftest import lift_acceptance, replaced
from oracles import bf_hull_distance, bf_psi

F = Fraction
S1 = schreier(1)
VHALF = TsirelsonSpec(S1, F(1, 2))


@pytest.fixture()
def aug_half(acc_build):
    """Augmentation toward the (S1, 1/2) space with weight 1/16."""
    return AugmentedBuild(acc_build, VHALF, F(1, 16))


def carriers(aug, ranks=(2, 6, 11)):
    return [aug.make_carrier(r) for r in ranks]


def window_for(aug, theta, z=None):
    r = aug.bd.rank[theta]
    if z is None:
        z = aug.carrier_block(theta)
    v, bvec, f = _annihilating_witness(aug, r - 1, r + 1, z)
    return Window(r - 1, r + 1, bvec, f), v, z


def test_annihilating_witness_lp_certificate_fault_injection(aug_half,
                                                             monkeypatch):
    # an LP answer with a primal point moved off its constraints
    solve = lp._solve

    def faulty(*args):
        v, x, y = solve(*args)
        return v, [w + 1 for w in x], y

    theta = aug_half.make_carrier(2)
    monkeypatch.setattr(lp, "_solve", faulty)
    with pytest.raises(lp.CertificateError, match="not primal feasible"):
        window_for(aug_half, theta)


# -- psi -----------------------------------------------------------------------

def test_psi_restriction_identity(aug_half):
    base = aug_half.base
    rng = random.Random(1)
    for _ in range(8):
        x = FinVec(base.seed.universe,
                   {i: F(rng.randint(-8, 8), 8) for i in range(1, 5)})
        img = aug_half.to_merged(embed_phi(base, x))
        back = aug_half.pi(aug_half.psi(img))
        assert back == FinVec(base.bd.universe, dict(img.items()))


def test_psi_blockwise_isometry(aug_half):
    base = aug_half.base
    rng = random.Random(2)
    for j in sorted(base.bd.stages):
        stage = base.bd.stage(j)
        for _ in range(4):
            u = FinVec(base.bd.universe,
                       {g: rng.choice((1, -1)) for g in stage})
            x = base.bd.apply_Jm(u, j)
            assert aug_half.psi(aug_half.to_merged(x)).linf() == x.linf()


def test_psi_matches_blockwise_oracle(acc_lifted):
    aug = acc_lifted
    base = aug.base
    rng = random.Random(3)
    for _ in range(6):
        x = FinVec(base.seed.universe,
                   {i: F(rng.randint(-8, 8), 8) for i in range(1, 5)})
        img = aug.to_merged(embed_phi(base, x))
        assert aug.psi(img) == bf_psi(aug, img)
        # any base vector, not only the image of the seed
        ids = rng.sample(base.bd.ids(), 6)
        z = FinVec(aug.bd.universe, {g: F(rng.randint(-8, 8), 8) for g in ids})
        assert aug.psi(z) == bf_psi(aug, z)


def test_psi_isometry_check_fault_injection(aug_half, monkeypatch):
    # a psi that adds 1 at a new coordinate still agrees with x on the base
    # coordinates; the row l1 of the columns psi(J_j e_t) exposes it
    theta = aug_half.make_carrier(2)
    assert verify_augmentation(aug_half).ok
    psi = aug_half.psi
    monkeypatch.setattr(aug_half, "psi", lambda x: psi(x) + FinVec(
        aug_half.bd.universe, {theta: 1}))
    rep = verify_augmentation(aug_half)
    assert rep.violations == [f"psi not isometric on a stage-{j} pattern"
                              for j in sorted(aug_half.base.bd.stages)]


def test_new_elements_annihilate_psi(aug_half):
    ths = carriers(aug_half)
    for t in ths:
        for sx in aug_half.spanning:
            assert aug_half.bd.cstar(t).pair(sx) == 0


def seed_images(aug):
    """psi(phi e_i) for every seed basis vector, over the build as it is."""
    seed = aug.base.seed
    return [aug.psi(aug.to_merged(embed_phi(aug.base, seed.basis_vector(i))))
            for i in range(1, seed.ncoords + 1)]


def test_psi_never_moves(acc_lifted):
    # the carriers and the certificate's lift adjoin elements whose c*
    # annihilates psi(X), so psi(phi e_i) over the grown build is still
    # the spanning vector computed before any of them
    aug = acc_lifted
    assert len(aug.bd.rank) > len(aug.base_ids)
    assert seed_images(aug) == aug.spanning


def last_only_coordinate(aug):
    """The lowest coordinate t that only the last spanning vector sx
    reaches, with sx."""
    *rest, sx = aug.spanning
    t = min((i for i in sx.support() if not any(s[i] for s in rest)),
            key=lambda i: (aug.bd.rank[i], i))
    return t, sx


def test_unadmitted_element_fails_verification(aug_half):
    # a (0,1) element adjoined past _adjoin, with a b* that pairs negatively
    # with the last spanning vector only: psi(phi e_4) gains a value at the
    # new coordinate, and verification names the element
    t, sx = last_only_coordinate(aug_half)
    sign = -1 if sx[t] > 0 else 1
    rank = aug_half.bd.rank[t] + 1
    bstar = FinVec(aug_half.bd.universe, {t: sign})
    g = aug_half.bd.add_type0(rank, aug_half.c_aug, bstar, free=("01", rank))
    v = aug_half.c_aug * sign * sx[t]
    assert seed_images(aug_half)[-1][g] == v < 0
    rep = verify_augmentation(aug_half)
    assert rep.verdict == "FAIL"
    assert f"{g}: c* does not annihilate psi(X): {v}" in rep.violations


# -- class guards -----------------------------------------------------------------

def test_carrier_is_class_01(aug_half):
    t = aug_half.make_carrier(2)
    inf = aug_half.theta[t]
    assert inf.klass == "01" and inf.vcode.kind == "d0"
    e = aug_half.bd.elems[t]
    assert e.beta == aug_half.c_aug
    assert e.bstar.l1() <= 1


def test_dense_set_registration_guards(aug_half):
    with pytest.raises(BuildError):
        aug_half.register_b(0, 1, FinVec(aug_half.bd.universe, {0: F(3, 2)}))
    # a vector that fails to annihilate the reembedded space is rejected
    probe = FinVec(aug_half.bd.universe, {0: 1})
    if any(probe.pair(sx) for sx in aug_half.spanning):
        with pytest.raises(BuildError):
            aug_half.register_b(0, 1, probe)
    # so is one that only the last spanning vector sees, and one a rank
    # past the interval; an admitted vector is registered with both signs
    t, _ = last_only_coordinate(aug_half)
    r, unit = aug_half.bd.rank[t], FinVec(aug_half.bd.universe, {t: 1})
    with pytest.raises(BuildError, match="must annihilate psi"):
        aug_half.register_b(0, r, unit)
    with pytest.raises(BuildError, match="outside the interval span"):
        aug_half.register_b(0, r - 1, unit)
    assert aug_half.bentries == []
    b = aug_half.bd.elems[aug_half.make_carrier(2)].bstar
    assert [e.vec for e in aug_half.bentries] == [b, -b]


def test_lift_n1_both_signs(aug_half):
    t = aug_half.make_carrier(2)
    w, v, z = window_for(aug_half, t)
    for sign in (1, -1):
        tree = ("leaf", sign, w.q)
        g = lift_dual_functional(aug_half, tree, {w.q: w})
        rep = verify_lift_identities(aug_half, g, tree, {w.q: w})
        assert rep.ok, rep.violations
        # the window projection is exactly c beta z*
        proj = aug_half.bd.project(aug_half.bd.estar(g), w.p, w.q - 1)
        assert proj == w.zstar.scale(sign * aug_half.c_aug)


def carrier_windows(aug):
    wins = {}
    for t in carriers(aug):
        w, v, z = window_for(aug, t)
        wins[w.q] = w
    return wins


def nested_tree(qs):
    """A leaf, then a node: its lift adds a class-(1,2) element of weight
    1/2 whose b* = e*_eta has c*_eta != 0."""
    return ("node", (("leaf", 1, qs[0]),
                     ("node", (("leaf", 1, qs[1]), ("leaf", -1, qs[2])))))


def lift_shapes(qs):
    """Flat pair, flat triple, nested both ways: together their lifts adjoin
    every class."""
    return [
        ("node", (("leaf", 1, qs[0]), ("leaf", -1, qs[1]))),
        ("node", (("leaf", 1, qs[0]), ("leaf", 1, qs[1]), ("leaf", 1, qs[2]))),
        nested_tree(qs),
        ("node", (("node", (("leaf", 1, qs[0]), ("leaf", 1, qs[1]))),
                  ("leaf", 1, qs[2]))),
    ]


def test_lift_flat_and_nested_shapes(aug_half):
    wins = carrier_windows(aug_half)
    for tree in lift_shapes(sorted(wins)):
        g = lift_dual_functional(aug_half, tree, wins)
        rep = verify_lift_identities(aug_half, g, tree, wins)
        assert rep.ok, (tree, rep.violations)
        # the whole augmentation is judged after each shape, so a shape
        # that breaks it is named, not hidden behind a later verdict
        rep = verify_augmentation(aug_half)
        assert rep.verdict == "PASS", (tree, rep.violations[:5], rep.reason)
    klasses = {i.klass for i in aug_half.theta.values()}
    assert klasses == {"01", "02", "11", "12"}


def test_class_table(aug_half):
    # each element's class, type, alpha, beta, xi and b* follow from its
    # shadow: a d0 carrier has weight c; a prefix element starts the prefix
    # (type 0) or extends xi, whose shadow is its prefix (type 1, alpha 1);
    # a leaf r v*_q has weight c c_V and b* = r bvec of window q, a node
    # weight c_V and b* = e*_eta, where eta's shadow is the node's pieces
    wins = carrier_windows(aug_half)
    for tree in lift_shapes(sorted(wins)):
        lift_dual_functional(aug_half, tree, wins)
    bd, c, cv = aug_half.bd, aug_half.c_aug, aug_half.vspec.c
    table = []
    for g, inf in sorted(aug_half.theta.items()):
        e, vc = bd.elems[g], inf.vcode
        if vc.kind == "d0":
            assert (inf.klass, type(e), e.beta) == ("01", bdcore.Gamma0, c)
            table.append("d0")
            continue
        *prefix, piece = vc.payload
        leaf = piece[0] == "leaf"
        klass = ("1" if prefix else "0") + ("1" if leaf else "2")
        assert inf.klass == klass, g
        assert e.beta == (c * cv if leaf else cv), g
        if leaf:
            _, sign, q = piece
            assert e.bstar == wins[q].bvec.scale(sign), g
        else:
            (eta,) = e.bstar.support()
            assert e.bstar == bd.estar(eta), g
            assert aug_half.theta[eta].vcode.payload == piece[1], g
        if prefix:
            assert isinstance(e, bdcore.Gamma1) and e.alpha == 1, g
            assert aug_half.theta[e.xi].vcode.payload == tuple(prefix), g
            assert e.k == bd.rank[e.xi], g
        else:
            assert isinstance(e, bdcore.Gamma0), g
        table.append(klass)
    assert sorted(table) == sorted(["d0"] * 3 + ["01"] * 5 + ["11"] * 6
                                   + ["02", "12"])
    assert verify_augmentation(aug_half).verdict == "PASS"


def test_refused_adjoins_change_nothing(aug_half):
    # a refused call leaves the merged build, the shadows and the dense
    # set as they were; on a frozen build every entry point refuses, and
    # the same calls adjoin once it thaws
    wins = carrier_windows(aug_half)
    q0, q1, q2 = sorted(wins)
    carrier = min(aug_half.theta)
    start = aug_half.add_leaf(q0, 1, wins[q0].bvec, None)
    pair = lift_dual_functional(
        aug_half, ("node", (("leaf", 1, q1), ("leaf", -1, q2))), wins)

    def state():
        return (dict(aug_half.bd.rank), list(aug_half.bentries),
                {g: (i.klass, i.vcode.payload)
                 for g, i in aug_half.theta.items()})

    before = state()
    refused = [
        (lambda: aug_half.add_theta_01(q2, 0, wins[q2].bvec), "sign must be"),
        (lambda: aug_half.add_leaf(q1, 0, wins[q1].bvec, start),
         "sign must be"),
        (lambda: aug_half.add_leaf(q1, 1, wins[q1].bvec, carrier),
         "xi must be a new element with a prefix shadow"),
        (lambda: aug_half.add_node(wins[q2].q + 3, pair, carrier),
         "xi must be a new element with a prefix shadow"),
        (lambda: aug_half.add_node(wins[q2].p, start, None),
         "eta must carry a complete multi-piece shadow"),
        (lambda: aug_half.add_node(wins[q2].q + 3, carrier, start),
         "eta must carry a complete multi-piece shadow"),
    ]
    for call, why in refused:
        with pytest.raises(BuildError, match=f"^{why}"):
            call()
        assert state() == before, why
    valid = [lambda: aug_half.add_theta_01(q2, 1, wins[q2].bvec),
             lambda: aug_half.add_leaf(q2, -1, wins[q2].bvec, None),
             lambda: aug_half.add_leaf(q1, 1, wins[q1].bvec, start),
             lambda: aug_half.add_node(wins[q2].q + 3, pair, start),
             lambda: aug_half.add_node(wins[q2].q + 3, pair, None)]
    aug_half.bd.freeze()
    for call in valid:
        with pytest.raises(BuildError, match="^build is frozen$"):
            call()
        assert state() == before
    aug_half.bd.frozen = False
    klasses = [aug_half.theta[call()].klass for call in valid]
    assert klasses == ["01", "01", "11", "12", "02"]
    assert verify_augmentation(aug_half).verdict == "PASS"


def test_flat_signed_lift_passes_verification(aug_half):
    # a -1 leaf registers its signed dense-set vector; verification of the
    # augmentation reads PASS over the acceptance carriers
    wins = carrier_windows(aug_half)
    qs = sorted(wins)
    tree = ("node", (("leaf", 1, qs[0]), ("leaf", -1, qs[1])))
    g = lift_dual_functional(aug_half, tree, wins)
    assert verify_lift_identities(aug_half, g, tree, wins).ok
    rep = verify_augmentation(aug_half)
    assert (rep.verdict, rep.violations) == ("PASS", [])
    assert aug_half.dense_set_ledger()[-2:] == [
        {"interval": [b.k, b.n], "l1": [b.vec.l1().numerator,
                                       b.vec.l1().denominator]}
        for b in aug_half.bentries[-2:]]


def test_lift_leaves_no_reference_cycles(acc_build):
    # the recursive lift unbinds itself before lift_dual_functional returns,
    # so no reference cycle holds the augmentation until the cyclic GC runs;
    # dropped, the augmentation and its merged build go at once
    gc.collect()
    aug = lift_acceptance(acc_build)
    assert gc.collect() == 0
    assert aug.theta
    del aug
    assert gc.collect() == 0


def test_lift_window_separation_enforced(aug_half):
    t1 = aug_half.make_carrier(2)
    t2 = aug_half.make_carrier(5)  # too close: q1 + 1 = 4 >= p2 = 4
    w1, _, _ = window_for(aug_half, t1)
    w2, _, _ = window_for(aug_half, t2)
    tree = ("node", (("leaf", 1, w1.q), ("leaf", 1, w2.q)))
    with pytest.raises(BuildError):
        lift_dual_functional(aug_half, tree, {w1.q: w1, w2.q: w2})


def test_tree_vec_gives_lift_coefficients():
    # the lift reads beta_n, the tree functional at v_n, from tree_vec
    tree = ("node", (("leaf", 1, 3),
                     ("node", (("leaf", -1, 7), ("leaf", 1, 12)))))
    betas = tree_vec(tree, VHALF)
    assert dict(betas.items()) == {3: F(1, 2), 7: F(-1, 4), 12: F(1, 4)}


# -- merged-build structure -----------------------------------------------------

def test_merged_schema_and_constants(aug_half):
    ths = carriers(aug_half)
    blocks = [aug_half.carrier_block(t) for t in ths]
    certify_lower_estimate(aug_half, blocks)
    assert bdcore.validate_schema(aug_half.bd).ok
    assert bdcore.verify_analysis(aug_half.bd).ok
    rep = bdcore.compute_constants(aug_half.bd, 2 * F(1, 16))
    assert rep.ok


def test_spread_condition_on_thetas(aug_half):
    from bdspace.families import is_spread
    ths = carriers(aug_half)
    wins = {}
    for t in ths:
        w, _, _ = window_for(aug_half, t)
        wins[w.q] = w
    qs = sorted(wins)
    tree = ("node", (("leaf", 1, qs[0]), ("leaf", 1, qs[1]), ("leaf", 1, qs[2])))
    lift_dual_functional(aug_half, tree, wins)
    for g, inf in aug_half.theta.items():
        cuts = aug_half.bd.cuts(g)
        assert is_spread(inf.vcode.minima(), cuts), (g, cuts)
        assert inf.vcode.max_support() <= aug_half.bd.rank[g]


# -- certificates -----------------------------------------------------------------

def test_certificate_passes(aug_half):
    ths = carriers(aug_half)
    blocks = [aug_half.carrier_block(t) for t in ths]
    cert = certify_lower_estimate(aug_half, blocks)
    assert cert.status == "PASS"
    assert cert.exact_value >= cert.bound
    # the window witness is feasible for the distance LP, so the ends are
    # ordered; here they are the acceptance interval
    assert (cert.delta0.lower, cert.delta0.upper) == (F(16, 17), 1)
    assert cert.detail == ""


@pytest.mark.parametrize("mode", ["fdd", "free"])
def test_certificate_in_both_modes(acc_build, mode):
    # the former admission modes are one: neither name is taken as a
    # keyword, and the one rule (annihilation of psi(X)) certifies the
    # lower end with the acceptance values
    with pytest.raises(TypeError, match="mode"):
        AugmentedBuild(acc_build, VHALF, F(1, 16), mode=mode)
    aug = AugmentedBuild(acc_build, VHALF, F(1, 16))
    cert = certify_lower_estimate(aug, [aug.carrier_block(t)
                                        for t in carriers(aug)])
    assert cert.status == "PASS"
    assert (cert.exact_value, cert.bound) == (F(3, 34), F(31, 1496))
    assert (cert.delta0.lower, cert.delta0.upper) == (F(16, 17), 1)
    assert not any(cert.delta0.witness.pair(sx) for sx in aug.spanning)


def test_certificate_records_derived_m(aug_half):
    # the acceptance lift's largest bounded weight is c_aug * 1/2 = 1/32,
    # and apriori_bound(1/32) = 2; both go into the certificate
    blocks = [aug_half.carrier_block(t) for t in carriers(aug_half)]
    cert = certify_lower_estimate(aug_half, blocks)
    assert cert.status == "PASS"
    assert (cert.theta_star, cert.m_bound) == (F(1, 32), 2)
    assert bdcore.decomposition_constant(aug_half.bd) == (F(1, 32), 2)
    obj = cert.to_json_obj()
    assert (obj["theta_star"], obj["M"]) == ([1, 32], [2, 1])


def test_certificate_inconclusive_when_weight_split_fails(aug_half):
    # after the nested lift the weight split fails at every theta < 1/2,
    # so no a priori M exists: the certificate names theta* and has no bound
    wins = carrier_windows(aug_half)
    lift_dual_functional(aug_half, nested_tree(sorted(wins)), wins)
    assert bdcore.decomposition_constant(aug_half.bd) == (F(1, 2), None)
    ths = [t for t, th in aug_half.theta.items() if th.vcode.kind == "d0"]
    cert = certify_lower_estimate(
        aug_half, [aug_half.carrier_block(t) for t in ths])
    assert cert.status == "INCONCLUSIVE"
    assert (cert.theta_star, cert.m_bound, cert.bound) == (F(1, 2), None, None)
    assert "theta* = 1/2" in cert.detail
    with pytest.raises(BuildError, match="no a priori bound"):
        bdcore.apriori_bound(cert.theta_star)
    # verification of the augmentation itself needs no M
    rep = verify_augmentation(aug_half)
    assert (rep.verdict, rep.violations) == ("PASS", [])


def test_verify_suites_name_theta_star_when_weight_split_fails(
        acc_build, aug_half):
    # verify derives (theta*, M) from the build it is given: on the merged
    # build after the nested lift theta* = 1/2, so weight-split FAILs, the
    # suites that need M are INCONCLUSIVE, and each names theta*
    wins = carrier_windows(aug_half)
    lift_dual_functional(aug_half, nested_tree(sorted(wins)), wins)
    eb = replaced(acc_build, bd=aug_half.bd)
    runners = cli._suite_runners(eb, {})
    got = {name: runners[name]() for name in
           ("weight-split", "projection-norms", "dual-norms")}
    assert {name: [r.verdict for r in reps] for name, reps in got.items()} == {
        "weight-split": ["FAIL"], "projection-norms": ["INCONCLUSIVE"],
        "dual-norms": ["INCONCLUSIVE"]}
    split, = got["weight-split"]
    assert split.details["theta"] == F(1, 2)
    assert split.violations == ["theta = 1/2 >= 1/2: no a priori M"]
    for name in ("projection-norms", "dual-norms"):
        rep, = got[name]
        assert rep.violations == [] and "theta* = 1/2" in rep.reason, name


def test_hull_distance_matches_whole_vector_oracle(acc_lifted):
    # the dual LP against the primal one (slow, so few vectors): the
    # carrier blocks, a vector matched on the spanning supports U with mass
    # off U, and random vectors on and off the span
    aug = acc_lifted
    span = aug.spanning
    rng = random.Random(5)
    ids = aug.bd.ids()
    U = {i for sx in span for i in sx.support()}
    off = [g for g in ids if g not in U]
    on = span[0].scale(F(1, 2)) + span[1]
    offmass = on + FinVec(aug.bd.universe, {off[0]: F(5, 7), off[-1]: F(-1, 3)})
    carrier = {aug.bd.rank[t]: t for t, th in aug.theta.items()
               if th.klass == "01"}
    zs = [aug.carrier_block(carrier[r]) for r in (2, 6, 11)]
    zs.append(offmass)
    for _ in range(2):
        zs.append(FinVec(aug.bd.universe, {g: F(rng.randint(-8, 8), 8)
                                           for g in rng.sample(ids, 8)}))
    zs.append(zs[-1] + span[rng.randrange(len(span))])
    dist = [_hull_distance(aug, z) for z in zs]
    assert dist == [bf_hull_distance(aug, z) for z in zs]
    assert dist[-1] == dist[-2]
    # the acceptance carriers are at distance exactly 1; off U no
    # combination moves z, so max |z_i| there is the distance
    assert dist[:4] == [1, 1, 1, F(5, 7)]
    # vectors in the span are at distance 0 by construction, which needs
    # no oracle
    for z in (on, span[0] + span[1].scale(F(-1, 2)), span[2].scale(F(3, 2))):
        assert _hull_distance(aug, z) == 0


def test_hull_distance_lp_certificate_fault_injection(aug_half,
                                                      monkeypatch):
    # an LP answer whose reported value is off by one is refused
    solve = lp._solve

    def faulty(*args):
        v, x, y = solve(*args)
        return v + 1, x, y

    z = aug_half.carrier_block(aug_half.make_carrier(2))
    monkeypatch.setattr(lp, "_solve", faulty)
    with pytest.raises(lp.CertificateError, match="objective values differ"):
        _hull_distance(aug_half, z)


def test_certificate_single_block(aug_half):
    t = aug_half.make_carrier(2)
    cert = certify_lower_estimate(aug_half, [aug_half.carrier_block(t)])
    assert cert.status == "PASS"
    # value = c beta_1 z*_1(z_1) with a single norming coefficient
    (q, beta), = cert.betas
    assert cert.exact_value == aug_half.c_aug * beta * cert.delta0.lower


def test_certificate_not_applicable_inside_psi(aug_half):
    aug_half.make_carrier(2)
    aug_half.make_carrier(6)
    # a block inside psi(X) has certified distance zero
    bd = aug_half.bd
    comp = bd.synthesize({t: v for t, v in bd.dcoords(aug_half.spanning[0])
                          .items() if bd.rank[t] == 1})
    cert = certify_lower_estimate(aug_half, [comp])
    assert cert.status == "INCONCLUSIVE"


def test_certificate_gap_condition(aug_half):
    t1 = aug_half.make_carrier(2)
    t2 = aug_half.make_carrier(4)
    with pytest.raises(BuildError):
        certify_lower_estimate(aug_half, [aug_half.carrier_block(t1),
                                          aug_half.carrier_block(t2)])


def test_domination_after_augmentation(acc_build):
    # the certified blocks are dominated by the target basis vectors within
    # the reciprocal of the guaranteed lower constant; the space is sup
    # normed, so the coordinate functionals on the blocks' supports norm it
    # and the least constant is exact
    from bdspace.tsirelson import certify_domination
    aug = AugmentedBuild(acc_build, VHALF, F(1, 16))
    ths = carriers(aug)
    blocks = [aug.carrier_block(t) for t in ths]
    coords = [aug.bd.dcoords(z) for z in blocks]
    cert = certify_lower_estimate(aug, blocks)
    assert cert.status == "PASS"
    blocks_ext = [aug.bd.synthesize(a) for a in coords]
    qs = [aug.bd.rank[t] + 1 for t in ths]
    eps = aug.base.seed.eps
    d0p = cert.delta0.lower / (1 + eps)
    constant = 2 * 2 / (aug.c_aug * (1 - eps) * d0p)
    universe = blocks_ext[0].universe
    gammas = sorted({g for z in blocks_ext for g in z.support()})
    norming = [FinVec(universe, {g: 1}) for g in gammas]
    dom = certify_domination(blocks_ext, qs, VHALF, constant, norming)
    assert len(gammas) == 6
    assert dom.status == "PASS"
    assert dom.best == 1
    assert dom.witness in norming
    below = certify_domination(blocks_ext, qs, VHALF, 1 - F(1, 10 ** 6),
                               norming)
    assert below.status == "FAIL"
