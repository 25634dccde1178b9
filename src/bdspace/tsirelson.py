"""Exact Tsirelson norms and their finite dual norming sets.

The norm is the implicit fixed point

    ||x|| = ||x||_inf  v  sup { c * sum_i ||A_i x|| :
                                A_1 < ... < A_n admissible for the family },

computed here by recursion over interval decompositions of the support with
memoization.  Two exact reductions are used, both provable by induction on
the defining recursion and both tested against a brute-force oracle:

* the value of any admissible partition tree depends only on the coordinate
  magnitudes (leaves contribute absolute values, inner nodes nonnegative
  sums), so vectors are canonicalized to their entrywise absolute value;

* the supremum is attained on blocks that are contiguous runs of the
  support from each chosen breakpoint to just before the next one; interior
  gaps never help (absorbing skipped points into the preceding block keeps
  every block minimum and can only increase block norms), while dropping an
  initial segment of the support can help and is enumerated.

Functionals realizing the norm are admissible trees: a leaf is
(sign, coordinate), an inner node scales the sum of its successive children
by c.  There is one search: the memo holds values only, and a witness tree
is read off top-down by re-running the search on each chosen block, where
every norm it needs is already memoized.  The trees with k >= 2 children
built level by level form the natural dual norming set; its members 1-norm
every vector supported in the enumerated range.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .exact import FinVec
from .families import RegularFamily, is_member

NAT = "nat"  # universe tag for c00(N) vectors


@dataclass(frozen=True)
class TsirelsonSpec:
    family: RegularFamily
    c: Fraction

    def __post_init__(self):
        c = Fraction(self.c)
        object.__setattr__(self, "c", c)
        if not (0 < c < 1):
            raise ValueError("weight must satisfy 0 < c < 1")

    def key(self):
        return (self.family, self.c)


class CapExceeded(RuntimeError):
    """A configured hard cap on enumeration size was hit."""


# ---------------------------------------------------------------------------
# the norm
# ---------------------------------------------------------------------------

_norm_memo: dict = {}


def _items_of(x) -> tuple[tuple[int, Fraction], ...]:
    if isinstance(x, FinVec):
        return tuple(x.items())
    return tuple(sorted((int(i), Fraction(v)) for i, v in dict(x).items() if v))


def _norm_rec(spec_key, fam: RegularFamily, c: Fraction,
              items: tuple[tuple[int, Fraction], ...]) -> Fraction:
    memo_key = (spec_key, items)
    got = _norm_memo.get(memo_key)
    if got is None:
        got, _ = _best_split(spec_key, fam, c, items)
        _norm_memo[memo_key] = got
    return got


def _best_split(spec_key, fam: RegularFamily, c: Fraction,
                items: tuple[tuple[int, Fraction], ...]):
    """(norm, breakpoints) of a canonical vector.  The breakpoints are the
    positions in ``items`` where the blocks of the first optimal split found
    start, or None when no split beats the sup norm."""
    best = max((v for _, v in items), default=Fraction(0))
    best_split = None
    n = len(items)
    coords = [i for i, _ in items]

    # DFS over breakpoint position sets; prefixes of admissible minima sets
    # are admissible (hereditary), so dead prefixes prune the whole branch.
    def extend(chosen: list[int], minima: list[int]):
        nonlocal best, best_split
        start = chosen[-1] + 1 if chosen else 0
        for s in range(start, n):
            if not is_member(minima + [coords[s]], fam):
                continue
            chosen.append(s)
            minima.append(coords[s])
            if len(chosen) >= 2:
                total = Fraction(0)
                for a, b in zip(chosen, chosen[1:] + [n]):
                    total += _norm_rec(spec_key, fam, c, items[a:b])
                val = c * total
                if val > best:
                    best, best_split = val, tuple(chosen)
            extend(chosen, minima)
            chosen.pop()
            minima.pop()

    if n >= 2:
        extend([], [])
    return best, best_split


def tsirelson_norm(x, spec: TsirelsonSpec) -> Fraction:
    """Exact norm of a finitely supported vector."""
    items = tuple((i, abs(v)) for i, v in _items_of(x))
    return _norm_rec(spec.key(), spec.family, spec.c, items)


# ---------------------------------------------------------------------------
# norming trees
# ---------------------------------------------------------------------------
# tree := ("leaf", sign, coord) | ("node", (child, ...))

def tree_support(tree) -> tuple[int, ...]:
    if tree[0] == "leaf":
        return (tree[2],)
    out = []
    for ch in tree[1]:
        out.extend(tree_support(ch))
    return tuple(out)


def tree_vec(tree, spec: TsirelsonSpec, universe: str = NAT) -> FinVec:
    if tree[0] == "leaf":
        return FinVec(universe, {tree[2]: Fraction(tree[1])})
    acc = FinVec(universe)
    for ch in tree[1]:
        acc = acc + tree_vec(ch, spec, universe)
    return acc.scale(spec.c)


def _witness_tree(spec_key, fam, c, items):
    """(norm, optimal all-plus tree), read off the splits of the memoized
    search: below the top every norm it needs is a memo hit."""
    value, split = _best_split(spec_key, fam, c, items)
    if split is None:
        return value, ("leaf", 1, next(i for i, v in items if v == value))
    return value, ("node", tuple(
        _witness_tree(spec_key, fam, c, items[a:b])[1]
        for a, b in zip(split, split[1:] + (len(items),))))


def _flip_signs(tree, sign_of: Callable[[int], int]):
    if tree[0] == "leaf":
        return ("leaf", sign_of(tree[2]), tree[2])
    return ("node", tuple(_flip_signs(ch, sign_of) for ch in tree[1]))


def norming_functional(x, spec: TsirelsonSpec, universe: str = NAT):
    """An optimal admissible tree for x: returns (norm, tree, functional).

    The functional pairs with x to exactly the norm; its tree is a member of
    the dual norming set (or a signed unit vector).
    """
    items = _items_of(x)
    signs = {i: (1 if v >= 0 else -1) for i, v in items}
    abs_items = tuple((i, abs(v)) for i, v in items)
    if not abs_items:
        return Fraction(0), None, FinVec(universe)
    value, tree = _witness_tree(spec.key(), spec.family, spec.c, abs_items)
    tree = _flip_signs(tree, lambda i: signs.get(i, 1))
    vec = tree_vec(tree, spec, universe)
    return value, tree, vec


# ---------------------------------------------------------------------------
# dual norming set
# ---------------------------------------------------------------------------

@dataclass
class DualNormingSet:
    spec: TsirelsonSpec
    depth: int
    support_bound: int
    trees: list          # canonical trees, all levels, deduplicated
    level_of: dict       # tree -> first level it appears at
    vec_of: dict         # tree -> FinVec

    def members(self) -> list[FinVec]:
        return [self.vec_of[t] for t in self.trees]


def build_dual_norming_set(spec: TsirelsonSpec, depth: int, support_bound: int,
                           member_cap: int = 200_000,
                           signs: tuple[int, ...] = (1, -1)) -> DualNormingSet:
    """All members of the first ``depth`` levels with support in [1, bound].

    Level 0 holds the signed unit functionals; level n+1 holds c times sums
    of k >= 2 successive lower-level members whose support minima form a
    member of the family.  Raises CapExceeded past ``member_cap``.
    """
    fam = spec.family
    level_of: dict = {}
    vec_of: dict = {}
    trees: list = []

    def admit(tree, level):
        if tree in level_of:
            return
        if len(trees) >= member_cap:
            raise CapExceeded(f"dual norming set cap {member_cap} hit")
        level_of[tree] = level
        vec_of[tree] = tree_vec(tree, spec)
        trees.append(tree)

    for j in range(1, support_bound + 1):
        for s in signs:
            admit(("leaf", s, j), 0)

    pool = list(trees)
    for level in range(1, depth + 1):
        # members available to combine: everything from lower levels
        by_min = sorted(pool, key=lambda t: tree_support(t)[0])
        fresh = []

        def grow(seq, minima, max_supp):
            for t in by_min:
                sup = tree_support(t)
                if sup[0] <= max_supp:
                    continue
                if sup[-1] > support_bound:
                    continue
                if not is_member(minima + [sup[0]], fam):
                    continue
                seq.append(t)
                minima.append(sup[0])
                if len(seq) >= 2:
                    node = ("node", tuple(seq))
                    if node not in level_of:
                        admit(node, level)
                        fresh.append(node)
                grow(seq, minima, sup[-1])
                seq.pop()
                minima.pop()

        grow([], [], 0)
        if not fresh:
            break
        pool.extend(fresh)

    return DualNormingSet(spec, depth, support_bound, trees, level_of, vec_of)


def plus_tree_vectors(spec: TsirelsonSpec, support_bound: int,
                      member_cap: int = 200_000) -> list[FinVec]:
    """All-plus admissible tree functionals with support in [1, bound].

    Depth ``support_bound`` saturates: every node has >= 2 children with
    disjoint successive supports, so nesting depth is bounded by the support
    size.  These vectors cut out the unit ball of the space restricted to
    [1, bound] (as one-sided constraints on the positive cone).
    """
    dns = build_dual_norming_set(spec, support_bound, support_bound,
                                 member_cap=member_cap, signs=(1,))
    return dns.members()


# ---------------------------------------------------------------------------
# domination certificates
# ---------------------------------------------------------------------------

@dataclass
class DominationCertificate:
    status: str                  # "FAIL" | "PASS-AT-BUDGET"
    constant: Fraction
    trials: int
    witness: tuple | None        # coefficient tuple violating the bound
    witness_values: tuple | None  # (lhs norm, rhs norm) at the witness


def certify_domination(lhs: Sequence[FinVec], rhs_indices: Sequence[int],
                       spec: TsirelsonSpec, constant, trial_budget: int = 200,
                       lhs_norm: Callable[[FinVec], Fraction] | None = None,
                       seed: int = 0,
                       raw_support_check: bool = True) -> DominationCertificate:
    """Bounded search for a violation of ||sum a_i z_i|| <= C ||sum a_i t_{m_i}||.

    PASS-AT-BUDGET lists only that the checked coefficient families passed;
    it is a bounded-search certificate, not a proof.  The left norm defaults
    to the same Tsirelson norm (for blocks living in c00(N)); pass
    ``lhs_norm`` to certify blocks of another space, and disable the raw
    coordinate successiveness check when blocks are successive with respect
    to a decomposition rather than to their raw indices.
    """
    constant = Fraction(constant)
    k = len(lhs)
    if k != len(rhs_indices):
        raise ValueError("lhs and rhs_indices must have equal length")
    if raw_support_check:
        sup = [v.support() for v in lhs]
        for a, b in zip(sup, sup[1:]):
            if a and b and a[-1] >= b[0]:
                raise ValueError("lhs must be a successive block sequence")
    if lhs_norm is None:
        lhs_norm = lambda v: tsirelson_norm(v, spec)  # noqa: E731
    universe = lhs[0].universe if lhs else NAT

    rng = random.Random(seed)
    candidates: list[tuple] = []
    for i in range(k):
        e = [0] * k
        e[i] = 1
        candidates.append(tuple(e))
    if 2 ** k <= max(trial_budget, 0):
        candidates.extend(itertools.product((1, -1), repeat=k))
    else:
        for _ in range(trial_budget // 2):
            candidates.append(tuple(rng.choice((1, -1)) for _ in range(k)))
    while len(candidates) < trial_budget:
        candidates.append(tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 8))
                                for _ in range(k)))
    candidates = candidates[:max(trial_budget, k)]

    trials = 0
    for a in candidates:
        trials += 1
        zsum = FinVec(universe)
        for ai, z in zip(a, lhs):
            if ai:
                zsum = zsum + z.scale(ai)
        vsum = FinVec(NAT, {m: Fraction(ai) for ai, m in zip(a, rhs_indices)})
        left = lhs_norm(zsum)
        right = tsirelson_norm(vsum, spec)
        if left > constant * right:
            return DominationCertificate("FAIL", constant, trials, a,
                                         (left, right))
    return DominationCertificate("PASS-AT-BUDGET", constant, trials, None, None)
