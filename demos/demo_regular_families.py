"""Regular families: Schreier hierarchy, admissibility, spreads, closures.

A regular family contains all singletons and is compact, hereditary and
spreading.  Membership here is an exact decision procedure over finitely
described families, including Schreier families for every ordinal below
omega^omega in Cantor normal form.
"""

from bdspace import (is_admissible, is_member, is_spread, max_union, schreier,
                     singleton_plus_pair)
from bdspace.families import explicit

S1 = schreier(1)
S2 = schreier(2)
SW = schreier(((1, 1),))  # the omega-th family

print("S_1 membership: a set may be as large as its minimum")
for F in ({1}, {1, 2}, {3, 5, 7}, {2, 3, 4}):
    print(f"  {sorted(F)} in S_1: {is_member(F, S1)}")

print("\nS_2 = at most min F successive chunks, each in S_1")
for F in ({2, 3, 4}, {3, 4, 5, 6, 7, 8}, {1, 2}):
    print(f"  {sorted(F)} in S_2: {is_member(F, S2)}")

print("\nS_omega diagonalizes: F is tested in S_n for some n <= min F")
for F in ({2, 3}, {1, 2}, {3, 4, 5, 6, 7}):
    print(f"  {sorted(F)} in S_omega: {is_member(F, SW)}")

print("\nadmissibility = the block minima form a member")
print("  [{2},{3}] S_1-admissible:", is_admissible([{2}, {3}], S1))
print("  [{1},{2}] S_1-admissible:", is_admissible([{1}, {2}], S1))

print("\nspreads move elements to the right, membership survives")
print("  {1,2} -> {3,7}:", is_spread({1, 2}, {3, 7}))
print("  {2,5} -> {2,4}:", is_spread({2, 5}, {2, 4}))

print("\nthe singleton-plus-two-members closure strictly enlarges")
B = singleton_plus_pair(S1)
print("  {1,2} in S_1:", is_member({1, 2}, S1), " in closure:",
      is_member({1, 2}, B))

print("\nregular closure of explicit sets, and unions")
E = explicit([{2, 5}, {3, 4, 9}])
print("  {3,6} (spread of a subset of {2,5}):", is_member({3, 6}, E))
U = max_union([S1, E])
print("  union membership is disjunction:", is_member({3, 6}, U))
