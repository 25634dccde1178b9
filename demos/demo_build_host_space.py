"""Building the host space around a seed and embedding it, exactly.

The index set is coded from the norming set: an element is an initial
segment of a member's special c-decomposition, ranked by the position of
its block span in the interval well order.  Every element is recoded into
the two-type schema, the projection-norm ladder is computed exactly, the
extension operators are isometric on stage patterns, and the embedding of
the seed space satisfies its functional identity coordinate by coordinate,
which bounds ||phi(x)|| on both sides for every x: above by the largest
dual norm of a coded functional, below by the exact constant lambda*, with
a witness that attains it.
"""

from fractions import Fraction

from bdspace import (bdcore, build_embedding, build_norming_set_D, embed_phi,
                     interval_from_rank, m_seq, phi_functional_identity,
                     schreier, verify_coding, verify_embedding)
from bdspace.decomp import SeedSpace
from bdspace.exact import FinVec
from bdspace.tsirelson import TsirelsonSpec, build_dual_norming_set

c = Fraction(1, 16)
dns = build_dual_norming_set(TsirelsonSpec(schreier(1), c), 4, 4)
norming = [FinVec("seed:demo", dict(v.items())) for v in dns.members()]
seed = SeedSpace("demo", [1, 1, 1, 1], norming, c, c / 2)
D = build_norming_set_D(seed)

eb = build_embedding(seed, D, stage_bound=8)
print("stages (rank: size, interval, hosts a seed block?):")
for n in sorted(eb.bd.stages):
    a, b = interval_from_rank(n)
    host = next((j for j in (1, 2, 3, 4) if m_seq(j) == n), None)
    note = f"  <- block {host}" if host else ""
    print(f"  {n}: {len(eb.bd.stage(n))} elements, interval [{a},{b}]{note}")

print("\ncoding cases present:",
      sorted({inf.case for inf in eb.info.values()}))
print("coding checks       :", verify_coding(eb).ok)
print("schema checks       :", bdcore.validate_schema(eb.bd).ok)
print("analysis identity   :", bdcore.verify_analysis(eb.bd).ok)

theta, m = bdcore.decomposition_constant(eb.bd)
const = bdcore.compute_constants(eb.bd, theta)
print(f"\nweight split at theta* = {theta}: a priori decomposition bound "
      f"M = {m}")
print(f"projection norms exact: {const.ok}; computed decomposition bound "
      f"{const.details['M_computed']} <= {m}")

for m in (1, 2, 4, 7):
    rep = bdcore.verify_extension_isometry(eb.bd, m)
    print(f"extension isometry on stage {m}: {rep.ok} "
          f"(||J_{m} on l_inf(Delta_{m})|| = {rep.details['norm']})")

x = FinVec(seed.universe, {1: 1, 2: Fraction(-1, 2), 3: Fraction(1, 4)})
img = embed_phi(eb, x)
print(f"\nembedding of {dict(x.items())}:")
print("  ||x||            =", seed.primal_norm(x))
print("  ||phi(x)||       =", img.linf())
print("  identity exact   =", phi_functional_identity(eb, x, img).ok)

rep = verify_embedding(eb)
lam = rep.details["lambda*"]
print(f"\nembedding bounds for every x: {rep.verdict}; "
      f"{lam} ||x|| <= ||phi(x)|| <= {rep.details['||phi||']} ||x||")
w = FinVec(seed.universe, rep.details["witness"])
print(f"  lambda* = {lam} >= 1 - eps = {1 - seed.eps}, and no larger "
      "constant holds:")
print("  the witness w = " + " + ".join(f"({v}) e_{i}" for i, v in w.items())
      + f" has ||w|| = {seed.primal_norm(w)} and ||phi(w)|| = "
      f"{embed_phi(eb, w).linf()}")
