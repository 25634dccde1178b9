"""Acceptance run: one exactly checked criterion per test, one line each.

Every tolerance is zero unless a criterion states otherwise; finite-stage
limitations surface as INCONCLUSIVE statuses, never as loosened asserts.
"""

import itertools
import json
import random
import time
from fractions import Fraction

import pytest

from bdspace import bdcore
from bdspace.augmentation import (AugmentedBuild, Window,
                                  _annihilating_witness,
                                  certify_lower_estimate,
                                  lift_dual_functional,
                                  verify_lift_identities)
from bdspace.bdcore import Verdict
from bdspace.construction import (embed_phi, phi_functional_identity,
                                  verify_embedding)
from bdspace.decomp import (decomposition_closure_report, member_band_report,
                            norming_certificate, optimal_c_decomposition,
                            rounding_error_report)
from bdspace.exact import FinVec
from bdspace.families import schreier
from bdspace.tsirelson import TsirelsonSpec, tsirelson_norm
from oracles import bf_tsirelson

F = Fraction
S1 = schreier(1)


def report(num, text):
    print(f"\n[PASS] criterion {num}: {text}")


@pytest.fixture(scope="module")
def aug_paper(acc_build):
    """Paper-conform augmentation: V = (S1, 1/16), weights satisfy the
    theta split, so the merged decomposition bound stays at 2."""
    aug = AugmentedBuild(acc_build, TsirelsonSpec(S1, F(1, 16)), F(1, 16))
    thetas = [aug.make_carrier(r) for r in (2, 6, 11)]
    blocks = [aug.carrier_block(t) for t in thetas]
    cert = certify_lower_estimate(aug, blocks)
    assert cert.status == "PASS"
    return aug


def test_criterion_1_tsirelson_oracle_equivalence():
    spec = TsirelsonSpec(S1, F(1, 2))
    vals = (F(1), F(1, 2), F(-1), F(-1, 2))
    memo = {}
    t0 = time.time()
    count = 0
    for k in range(1, 8):
        for support in itertools.combinations(range(1, 10), k):
            for assign in itertools.product(vals, repeat=k):
                x = dict(zip(support, assign))
                expected = bf_tsirelson(
                    tuple((i, abs(v)) for i, v in zip(support, assign)),
                    S1, F(1, 2), memo)
                assert tsirelson_norm(x, spec) == expected
                count += 1
    assert tsirelson_norm({3: 1, 4: 1, 5: 1}, spec) == F(3, 2)
    elapsed = time.time() - t0
    assert elapsed < 300, f"budget exceeded: {elapsed:.0f}s"
    report(1, f"memoized norm == brute-force partition trees on {count} "
              f"vectors ({elapsed:.0f}s), including ||e3+e4+e5|| = 3/2")


def test_criterion_2_projection_norm_ladder(acc_build, aug_paper):
    theta = 2 * acc_build.seed.c
    assert theta <= F(1, 8)
    for label, bd in (("base", acc_build.bd), ("augmentation", aug_paper.bd)):
        assert bdcore.condition_weight_split(bd, theta).ok, label
        rep = bdcore.compute_constants(bd, theta)
        assert rep.ok, (label, rep.violations[:3])
        cn = rep.details["C_n"]
        for (m, n), val in rep.details["prefix_norms"].items():
            assert val <= 1 + cn[n]
        assert rep.details["M_computed"] <= 2
        assert bdcore.apriori_bound(theta) == 2
        assert bdcore.decomposition_constant(bd) == (0, 2), label
    report(2, "||P*_[1,m]|| <= 1 + C_n, theta-split bounds, and M <= 2 "
              "exact on the base build and its augmentation")


def test_criterion_3_extension_isometry(acc_build, aug_paper):
    checked = 0
    for bd in (acc_build.bd, aug_paper.bd):
        for m in sorted(bd.stages):
            rep = bdcore.verify_extension_isometry(bd, m)
            assert rep.ok, (m, rep.violations[:3])
            checked += 1
    report(3, f"J_m isometric on stage patterns, zero violations over "
              f"{checked} stages (exact: ||J_m on l_inf(Delta_m)|| = 1)")


def test_criterion_4_dual_norm_band(acc_build, aug_paper):
    theta = 2 * acc_build.seed.c
    jmax = []
    for bd in (acc_build.bd, aug_paper.bd):
        rep = bdcore.verify_dual_norms(bd, 2)
        assert rep.ok, rep.violations[:3]
        jmax.append(max(rep.details["||J_n||"].values()))
        assert jmax[-1] == bdcore.compute_constants(
            bd, theta).details["M_computed"]
    assert jmax[0] == F(64553, 32768)
    report(4, "dual-norm inequalities hold exactly (||J_n|| <= 2 from "
              "columns, equal to ||P*_[1,n]|| from rows, 2M^2 on every "
              "column P*_(m,n] e*_g) on both builds; max ||J_n|| = "
              "M_computed")


def test_criterion_5_norming_set_suite(acc_seed, acc_D):
    assert member_band_report(acc_D) == []
    assert rounding_error_report(acc_D) == []
    assert decomposition_closure_report(acc_D) == []
    worst = F(0)
    for lo in range(1, acc_seed.nblocks + 1):
        for hi in range(lo, acc_seed.nblocks + 1):
            w, _ = norming_certificate(acc_D, lo, hi, acc_D.indices_in(lo, hi))
            worst = max(worst, w)
            assert w <= acc_seed.eps, (lo, hi, w)
    report(5, f"norming-set band, rounding, closure and (1-eps)-norming "
              f"exact on {len(acc_D.members)} members "
              f"(worst margin {worst} <= eps = {acc_seed.eps})")


def test_criterion_6_embedding(acc_build):
    rep = verify_embedding(acc_build)
    assert rep.verdict is Verdict.PASS, (rep.violations[:3], rep.reason)
    s = acc_build.seed
    lam = rep.details["lambda*"]
    assert lam >= 1 - s.eps
    # no larger constant holds: the witness has ||phi w|| = lambda* ||w||
    w = FinVec(s.universe, rep.details["witness"])
    assert s.primal_norm(w) == 1 / lam and embed_phi(acc_build, w).linf() == 1
    # the proven bound, rechecked on 100 seeded vectors
    rng = random.Random(2026)
    samples = []
    while len(samples) < 100:
        blocks = rng.sample(range(1, 4), rng.randint(1, 3))
        x = FinVec(s.universe, {b: F(rng.randint(-8, 8), 8) for b in blocks})
        if x:
            samples.append(x)
    for x in samples:
        img = embed_phi(acc_build, x)
        assert phi_functional_identity(acc_build, x, img).ok
        nx, up = s.primal_norm(x), img.linf()
        assert lam * nx <= up <= nx
    report(6, f"functional identity exact on a basis; ||phi|| = "
              f"{rep.details['||phi||']} <= 1; lower bound lambda*||x|| "
              f"for every x, lambda* = {lam} >= 1 - eps, attained by an "
              f"exact witness; both rechecked on 100 samples")


def test_criterion_7_chain_identities(acc_build):
    vhalf = TsirelsonSpec(S1, F(1, 2))
    aug = AugmentedBuild(acc_build, vhalf, F(1, 16))
    thetas = [aug.make_carrier(r) for r in (2, 6, 11)]
    wins = {}
    for t in thetas:
        r = aug.bd.rank[t]
        z = aug.carrier_block(t)
        _, bvec, f = _annihilating_witness(aug, r - 1, r + 1, z)
        wins[r + 1] = Window(r - 1, r + 1, bvec, f)
    qs = sorted(wins)
    trees = {
        1: ("leaf", 1, qs[0]),
        2: ("node", (("leaf", 1, qs[0]), ("leaf", 1, qs[1]))),
        3: ("node", (("leaf", 1, qs[0]), ("leaf", 1, qs[1]),
                     ("leaf", 1, qs[2]))),
        "nested": ("node", (("leaf", 1, qs[0]),
                            ("node", (("leaf", 1, qs[1]),
                                      ("leaf", -1, qs[2]))))),
    }
    for n, tree in trees.items():
        g = lift_dual_functional(aug, tree, wins)
        rep = verify_lift_identities(aug, g, tree, wins)
        assert rep.ok, (n, rep.violations[:3])
    # single-block certified value against the guaranteed constant
    aug2 = AugmentedBuild(acc_build, vhalf, F(1, 16))
    t = aug2.make_carrier(2)
    cert = certify_lower_estimate(aug2, [aug2.carrier_block(t)])
    assert cert.status == "PASS"
    assert cert.exact_value >= cert.bound
    report(7, f"chain identities exact for N in {{1,2,3}} and a nested "
              f"shape over the (S1, 1/2) norming set; single-block value "
              f"{cert.exact_value} meets the bound {cert.bound}")


def test_criterion_8_decomposition_properties():
    rng = random.Random(7)
    l1 = lambda v: v.l1()  # noqa: E731
    reconstructed = adjacent = 0
    for _ in range(1000):
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
        reconstructed += 1
        for j in range(len(dec.pieces) // 2):
            assert l1(dec.pieces[2 * j] + dec.pieces[2 * j + 1]) > c
            adjacent += 1
    report(8, f"decompositions reconstruct exactly on {reconstructed} "
              f"random functionals; {adjacent} adjacent pairs exceed c "
              f"under the bimonotone l1 norm")


def test_criterion_9_build_determinism(tmp_path):
    from bdspace.cli import main
    cfg = {
        "schema": "bdspace-config-v1",
        "seed": {"kind": "tsirelson", "name": "det", "family": "schreier:1",
                 "c": "1/16", "blocks": 4, "unconditional": False},
        "eps": "1/32",
        "stage_bound": 8,
    }
    p = tmp_path / "config.json"
    p.write_text(json.dumps(cfg))
    assert main(["build", "--config", str(p), "--out", str(tmp_path / "a")]) == 0
    assert main(["build", "--config", str(p), "--out", str(tmp_path / "b")]) == 0
    names = ["manifest.json", "stages.json", "seed.json", "normingset.json"]
    for name in names:
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes())
    report(9, f"two runs produced byte-identical dumps ({', '.join(names)})")
