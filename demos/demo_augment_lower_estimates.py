"""Augmenting a built space to graft lower estimates, with certificates.

New elements are adjoined whose shadows live on a target space with a
1-unconditional basis.  Their difference functionals annihilate the
reembedded copy of the seed space, so block vectors far from it can be
normed by a single chained element: the chain constructor lifts a dual
coefficient functional w* = sum beta_n v*_{q_n} into one element gamma with

    P*_(p_n, q_n)(e*_gamma) = c beta_n z*_n     exactly, for every n.

The lower-estimate certificate then compares the exact pairing against the
guaranteed constant; the distance to the reembedded space is reported as an
exact interval whose certified end comes from an annihilating functional.
"""

from fractions import Fraction

from bdspace import (AugmentedBuild, build_embedding, build_norming_set_D,
                     certify_lower_estimate, lift_dual_functional, schreier,
                     verify_augmentation, verify_lift_identities)
from bdspace.augmentation import Window, _annihilating_witness
from bdspace.decomp import SeedSpace
from bdspace.exact import FinVec
from bdspace.tsirelson import TsirelsonSpec, build_dual_norming_set

c = Fraction(1, 16)
dns = build_dual_norming_set(TsirelsonSpec(schreier(1), c), 4, 4)
norming = [FinVec("seed:demo", dict(v.items())) for v in dns.members()]
seed = SeedSpace("demo", [1, 1, 1, 1], norming, c, c / 2)
D = build_norming_set_D(seed)
base = build_embedding(seed, D, stage_bound=8)

# target: the (S_1, 1/2) space; augmentation weight stays at 1/16
vspec = TsirelsonSpec(schreier(1), Fraction(1, 2))
aug = AugmentedBuild(base, vspec, c)

# carriers: new coordinates at distance-interval [16/17, 1] from the
# reembedded space, placed with the separation the chain needs
thetas = [aug.make_carrier(r) for r in (2, 6, 11)]
print("carrier ranks:", [aug.bd.rank[t] for t in thetas])

# a hand lift: w* = c_V (v*_3 + v*_7 + v*_12), all identities re-verified
wins = {}
for t in thetas:
    r = aug.bd.rank[t]
    val, bvec, f = _annihilating_witness(aug, r - 1, r + 1,
                                         aug.carrier_block(t))
    wins[r + 1] = Window(r - 1, r + 1, bvec, f)
tree = ("node", tuple(("leaf", 1, q) for q in sorted(wins)))
g = lift_dual_functional(aug, tree, wins)
print(f"\nlifted element id {g} at rank {aug.bd.rank[g]}")
print("identities exact:", verify_lift_identities(aug, g, tree, wins).ok)

# nested coefficient functionals drive the remaining two classes: a leading
# inner node yields a piece-referencing type-0 element, a trailing one a
# piece-referencing type-1 element
qs = sorted(wins)
for nested in (
        ("node", (("node", (("leaf", 1, qs[0]), ("leaf", 1, qs[1]))),
                  ("leaf", -1, qs[2]))),
        ("node", (("leaf", 1, qs[0]),
                  ("node", (("leaf", 1, qs[1]), ("leaf", 1, qs[2])))))):
    g2 = lift_dual_functional(aug, nested, wins)
    print(f"nested lift id {g2} at rank {aug.bd.rank[g2]}, identities exact:",
          verify_lift_identities(aug, g2, nested, wins).ok)

# block vectors must carry values on every built coordinate, so they are
# materialized after the lift enlarged the index set
blocks = [aug.carrier_block(t) for t in thetas]
print("block norms  :", [str(z.linf()) for z in blocks])
cert = certify_lower_estimate(aug, blocks)
print("\nlower-estimate certificate:")
print("  status      :", cert.status)
print("  exact value :", cert.exact_value)
print("  bound       :", cert.bound)
print("  delta_0     : [", cert.delta0.lower, ",", cert.delta0.upper, "]")
print("  coefficients:", cert.betas)

print("\nwhole augmentation verifies:", verify_augmentation(aug).ok)
print("new-element classes:",
      sorted({i.klass for i in aug.theta.values()}))
