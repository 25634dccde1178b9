"""Seed spaces, greedy c-decompositions, and the rounded norming set.

A seed space is a blocked finite-dimensional space whose norm is the exact
maximum over a finite symmetric set of dual functionals.  From it we build
a norming set D in the dual band [1/2, 1]: normalized interval combinations
over dyadic nets, split greedily into pieces that are single-block or of
norm at most c, with every scalar rounded back into the nets and every
piece again a member.  Each claimed inequality is certified exactly.
"""

from fractions import Fraction

from bdspace import (build_norming_set_D, norming_certificate,
                     optimal_c_decomposition, schreier)
from bdspace.decomp import (decomposition_closure_report, member_band_report,
                            rounding_error_report)
from bdspace.exact import FinVec
from bdspace.tsirelson import TsirelsonSpec, build_dual_norming_set
from bdspace.decomp import SeedSpace

# -- the greedy decomposition on a plain l1 dual --------------------------------

x = FinVec("l1", {1: Fraction(3, 10), 2: Fraction(3, 10), 3: Fraction(4, 5)})
dec = optimal_c_decomposition(x, Fraction(1, 2), lambda v: v.l1())
print("greedy 1/2-decomposition of (3/10, 3/10, 4/5):")
print("  breakpoints:", dec.breakpoints)
print("  blocks     :", [dict(b.items()) for b in dec.blocks()])

# -- a Tsirelson-normed seed space ------------------------------------------------

c = Fraction(1, 16)
fam = schreier(1)
dns = build_dual_norming_set(TsirelsonSpec(fam, c), 4, 4)
norming = [FinVec("seed:demo", dict(v.items())) for v in dns.members()]
seed = SeedSpace("demo", [1, 1, 1, 1], norming, c, c / 2)
print(f"\nseed space: 4 blocks, {len(dns.members())} tree functionals"
      f" ({len(seed.norming)} of dual norm 1 kept), c = {seed.c},"
      f" eps = {seed.eps}")
print("validation issues:", seed.validate())

D = build_norming_set_D(seed)
print(f"\nnorming set D: {len(D.members)} members")
print("band violations     :", member_band_report(D))
print("rounding violations :", rounding_error_report(D))
print("closure violations  :", decomposition_closure_report(D))

m = next(m for m in D.members if m.atom_block is None)
print("\na member with its recorded special decomposition:")
print("  vector:", {i: str(v) for i, v in m.vec.items()})
for r, j in m.decomp:
    piece = D.members[j]
    print(f"  piece r = {r}, blocks [{piece.block_lo},{piece.block_hi}]")

worst = Fraction(0)
for lo in range(1, 5):
    for hi in range(lo, 5):
        w, _ = norming_certificate(D, lo, hi, D.indices_in(lo, hi))
        worst = max(worst, w)
print(f"\n(1 - eps)-norming certificate: worst margin {worst} "
      f"<= eps = {seed.eps}: {worst <= seed.eps}")
