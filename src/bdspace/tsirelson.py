"""Exact Tsirelson norms and their finite dual norming sets.

The norm is the implicit fixed point

    ||x|| = ||x||_inf  v  sup { c * sum_i ||A_i x|| :
                                A_1 < ... < A_n admissible for the family },

computed here by recursion over interval decompositions of the support with
memoization.  Four exact reductions are used, each provable by induction on
the defining recursion and tested against a brute-force oracle:

* the value of any admissible partition tree depends only on the coordinate
  magnitudes (leaves contribute absolute values, inner nodes nonnegative
  sums), so vectors are canonicalized to their entrywise absolute value;

* the norm is positively homogeneous, so the magnitudes are scaled to
  primitive positive integers (gcd 1) and the memo is keyed by them; x and
  every positive multiple of x share one entry.  With c = p/q, q^(n-1)
  times the norm of an integer vector on n coordinates is an integer (a
  norming tree has depth at most n - 1), so the memo stores that integer
  and the search adds and compares ints, not fractions;

* the supremum is attained on blocks that are contiguous runs of the
  support from each chosen breakpoint to just before the next one; interior
  gaps never help (absorbing skipped points into the preceding block keeps
  every block minimum and can only increase block norms), while dropping an
  initial segment of the support can help and is read from the suffix (see
  the recurrence below);

* after the reductions above, the only test that reads a coordinate is
  membership of the breakpoint minima, so the norm is a function of the
  magnitudes and of the support's membership profile: which sets of its
  positions carry members.  The memo is keyed by (spec key,
  ``families.profile_key(family, coords)``, integer magnitudes), and
  supports of one profile share one search.  For Schreier families the
  key is the prefix of coordinates below the number of coordinates from
  them on, so spreads of x whose coordinates are all that large share
  x's entry.  The search itself runs on the real coordinates, so its
  split and witness trees do not depend on which support filled an entry.

``tsirelson_norm`` first reads a memo of norms keyed by (spec key, profile
key, each magnitude's (|numerator|, denominator)), before any lcm, gcd or
scaling.  Both memos are emptied at ``_NORM_MEMO_CAP`` entries.

The best split is a dynamic program over (position, family state): G(s, q)
is the largest sum of block norms over the splits of the support from
position s on whose first block starts at s, where q is the membership
state (``families.member_start``/``member_stepper``) of the breakpoint minima
so far.  Equal states accept the same further minima, so G depends on
nothing else; for Schreier families the state is a short stack of chunk
budgets and the program is polynomial.  The step function is fetched from
the family once per search.  Its memo lives for one call and holds, per
(s, q), only the value G(s, q) and an argmax pointer (next breakpoint, next
state); block norms come from the global memo, and a block of one
coordinate is its magnitude.  The recursive step is a closure that refers
to itself, so the search unbinds it before returning: no reference cycle
keeps the memo or the block table alive until the cyclic GC runs.
Candidates are scanned in the preorder of the depth-first search over
breakpoint sets (a split before its extensions, next breakpoints in
increasing order) and replaced only on a strictly larger value, so the
split returned is the first optimal one in that order.

The splits whose first block starts at s >= 1 are exactly the splits of the
suffix x[1:], on the same coordinates, so

    ||x|| = max(|x_1|, ||x[1:]||, c * G(0, start(x_1))),

since ||x[1:]|| is the larger of ||x[1:]||_inf and c times the suffix's
best split, and |x_1| supplies the rest of ||x||_inf.  The suffix's norm is
a memo entry (the splits from 0 read it as their last block [1, n)), so the
program runs from position 0 only.  Preorder lists the splits from 0 before
those of the suffix, so the suffix replaces the best only when it is
strictly larger, and then the first optimal split is the suffix's own,
shifted by one.  Either candidate is skipped when c times the l1 norm of
its support cannot beat the best so far.  The breakpoints are rebuilt by
walking the pointers, and only when a caller asks for them.

Functionals realizing the norm are admissible trees: a leaf is
(sign, coordinate), an inner node scales the sum of its successive children
by c.  There is one search: the global memo holds values only, and a
witness tree is read off top-down by re-running the search on each chosen
block and walking its pointers; every norm it needs is already memoized.
The trees with k >= 2 children built level by level form the natural dual
norming set; its members 1-norm every vector supported in the enumerated
range.  A member's vector is c times the merged entries of its children's
vectors, whose supports are successive, so each member costs one merge,
not a walk over its leaves.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import cache
from math import gcd, lcm
from typing import TYPE_CHECKING, Callable, Sequence

from .exact import FinVec
from .families import (RegularFamily, member_start, member_stepper,
                       profile_key)

if TYPE_CHECKING:
    from .bdcore import Verdict

NAT = "nat"  # universe tag for c00(N) vectors


class TsirelsonSpec:
    """The Tsirelson norm of a regular family at a weight 0 < c < 1: a
    value, equal to and hashed as any spec of the same family and weight."""

    __slots__ = ("family", "c", "_key")

    def __init__(self, family: RegularFamily, c):
        c = Fraction(c)
        if not (0 < c < 1):
            raise ValueError("weight must satisfy 0 < c < 1")
        self.family, self.c = family, c
        # c as two ints: memo keys are hashed on every lookup
        self._key = (family, c.numerator, c.denominator)

    def key(self):
        return self._key

    def __eq__(self, other):
        if not isinstance(other, TsirelsonSpec):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)


class CapExceeded(RuntimeError):
    """A configured hard cap on enumeration size was hit."""


# ---------------------------------------------------------------------------
# the norm
# ---------------------------------------------------------------------------

# (spec key, profile key of the coords, primitive magnitudes)
#   -> q^(n-1) * norm, see _norm_rec; the magnitudes carry the length n,
#   which the profile key leaves out.  It is emptied when it holds
#   _NORM_MEMO_CAP entries, so a long run stays within bounded memory; an
#   entry is only a value, and a search recomputes what it misses.
_norm_memo: dict = {}
_NORM_MEMO_CAP = 1 << 16
# (spec key, profile key of the coords, _entries pairs) -> the norm
_value_memo: dict = {}


def _entries(x) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(coords, pairs) of the nonzero entries of x, each read once: coords
    increasing, magnitudes flat as (|numerator|, denominator) in lowest
    terms.  Raises ValueError on a coordinate below 1: the space is c00(N)."""
    if isinstance(x, FinVec):
        items = x.items()
    else:
        x = x if type(x) is dict else dict(x)
        try:
            items = sorted(x.items())  # keys are unique: no value is compared
        except TypeError:  # keys of several types
            items = None
        if not items or type(items[0][0]) is not int:  # say string keys
            items = sorted({int(i): v for i, v in x.items()}.items())
    coords, pairs = [], []
    for i, v in items:
        m, d = (v if type(v) is Fraction else Fraction(v)).as_integer_ratio()
        if m:
            coords.append(i)
            pairs += (m if m > 0 else -m, d)
    if coords and coords[0] < 1:
        raise ValueError(f"coordinate {coords[0]} is not in N = {{1, 2, ...}}")
    return tuple(coords), tuple(pairs)


def _canonical(pairs: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """(mags, den): the ``_entries`` magnitudes are mags / den, mags ints."""
    mags, dens = pairs[::2], pairs[1::2]
    den = lcm(*dens)
    if den > 1:
        mags = tuple(m * (den // d) for m, d in zip(mags, dens))
    return mags, den


def _norm_rec(spec_key, fam: RegularFamily, c: Fraction,
              coords: tuple[int, ...], mags: tuple[int, ...]) -> int:
    """q^(n-1) times the norm of the vector with positive integer magnitudes
    ``mags``, where c = p/q and n = len(mags): an integer, because leaves of
    a norming tree on n coordinates sit at depth at most n - 1.  The norm is
    positively homogeneous, so the memo holds primitive directions only, and
    a function of the membership profile of ``coords``, so supports with one
    ``profile_key`` share an entry."""
    g = gcd(*mags)
    if g > 1:
        mags = tuple(m // g for m in mags)
    memo_key = (spec_key, profile_key(fam, coords), mags)
    got = _norm_memo.get(memo_key)
    if got is None:
        got = _search(spec_key, fam, c, coords, mags)[0]
        if len(_norm_memo) >= _NORM_MEMO_CAP:
            _norm_memo.clear()
        _norm_memo[memo_key] = got
    return g * got


def _search(spec_key, fam: RegularFamily, c: Fraction,
            coords: tuple[int, ...], mags: tuple[int, ...]):
    """(q^(n-1) * norm, first, tails) of the vector with positive integer
    magnitudes ``mags`` on ``coords``, as in ``_norm_rec``.

    The search stores values and argmax pointers only.  ``first`` is
    (0, t, state) when the first optimal split in preorder starts at 0: its
    first block is [0, t), and the family state after the minima at 0 and t
    is ``state``.  It is (1, None, None) when that split is the suffix's,
    the first optimal split of coords[1:], and None when no split beats the
    sup norm.  ``tails[t]`` maps a state to (G(t, state), next t, next
    state), where next t is None when the block at t is the last.
    ``_best_split`` walks the pointers, or searches the suffix for its split.
    """
    n = len(mags)
    p, q = c.numerator, c.denominator
    best, first = max(mags) * q ** (n - 1), None
    tails: list[dict] = [{} for _ in range(n)]
    if n < 2:
        return best, first, tails
    # a block of a split has at most n - 1 coordinates, so q^(n-2) times its
    # norm is an integer: sums and comparisons below are exact int arithmetic
    unit = [q ** (n - 1 - length) for length in range(n)]
    step = member_stepper(fam, coords[-1])
    # blocks[s][t]: q^(n-2) times the norm of the block [s, t), filled on
    # first use; a block of one coordinate has its magnitude as its norm
    blocks = [[None] * (n + 1) for _ in range(n)]
    for s in range(n):
        blocks[s][s + 1] = unit[1] * mags[s]

    def block(s: int, t: int) -> int:
        v = blocks[s][t] = unit[t - s] * _norm_rec(spec_key, fam, c,
                                                   coords[s:t], mags[s:t])
        return v

    def later(s: int, state, found):
        # the best (sum, next t, next state) of ``found`` and the splits of
        # [s, n) whose first block starts at s with family state ``state``
        # and is followed by another; a candidate replaces the best so far
        # only when it is strictly larger
        row = blocks[s]
        for t in range(s + 1, n):
            nxt = step(state, coords[t])
            if nxt is None:
                continue
            got = tails[t].get(nxt)
            if got is None:
                # G(t, nxt): the block at t may also be the last
                last = blocks[t][n]
                if last is None:
                    last = block(t, n)
                got = tails[t][nxt] = later(t, nxt, (last, None, None))
            b = row[t]
            v = got[0] + (b if b is not None else block(s, t))
            if found is None or v > found[0]:
                found = v, t, nxt
        return found

    # c * l1 bounds the splits of x, and of its suffix x[1:]: a candidate
    # whose bound cannot beat best is not searched
    l1 = unit[1] * sum(mags)
    if p * l1 > best:
        found = later(0, member_start(fam, coords[0]), None)
        if found is not None and p * found[0] > best:
            best, first = p * found[0], (0,) + found[1:]
        # the splits whose first block starts at s >= 1 are the suffix's
        if p * (l1 - unit[1] * mags[0]) > best:
            rest = blocks[1][n]
            if rest is None:
                rest = block(1, n)
            if q * rest > best:
                best, first = q * rest, (1, None, None)
    later = None  # it refers to itself: free blocks now, not at a GC pass
    return best, first, tails


def _best_split(spec_key, fam: RegularFamily, c: Fraction,
                coords: tuple[int, ...], mags: tuple[int, ...]):
    """(q^(n-1) * norm, breakpoints) of the vector with positive integer
    magnitudes ``mags`` on ``coords``, as in ``_norm_rec``.  The breakpoints
    are the positions where the blocks of the first optimal split in
    preorder start, or None when no split beats the sup norm.  When that
    split is the suffix's, they are the suffix's breakpoints shifted by
    one."""
    value, first, tails = _search(spec_key, fam, c, coords, mags)
    if first is None:
        return value, None
    s, t, state = first
    if t is None:  # the suffix's split
        split = _best_split(spec_key, fam, c, coords[1:], mags[1:])[1]
        return value, tuple(b + 1 for b in split)
    split = [s]
    while t is not None:
        split.append(t)
        _, t, state = tails[t][state]
    return value, tuple(split)


def tsirelson_norm(x, spec: TsirelsonSpec) -> Fraction:
    """Exact norm of a finitely supported vector."""
    coords, pairs = _entries(x)
    if not coords:
        return Fraction(0)
    key = (spec._key, profile_key(spec.family, coords), pairs)
    got = _value_memo.get(key)
    if got is None:
        mags, den = _canonical(pairs)
        got = Fraction(_norm_rec(spec._key, spec.family, spec.c, coords, mags),
                       den * spec.c.denominator ** (len(mags) - 1))
        if len(_value_memo) >= _NORM_MEMO_CAP:
            _value_memo.clear()
        _value_memo[key] = got
    return got


def tree_l1_ceiling(spec: TsirelsonSpec, n: int) -> Fraction:
    """The largest l1 of a tree functional on [1, n] that is no leaf: c
    times the best split of 1_[1,n], the largest sum of ||1_E|| over the
    blocks E of an admissible split of [1, n] into two or more.  A child on
    E has l1 at most ||1_E|| (its all-plus tree pairs with 1_E to it), and
    the blocks' norming trees attain the bound.  ||1_[1,n]|| = max(1, this)
    cannot tell a ceiling of 1 from one below 1."""
    fam, step = spec.family, member_stepper(spec.family, n)
    ones = cache(lambda s, t: tsirelson_norm(dict.fromkeys(range(s, t), 1),
                                             spec))  # ||1_[s,t)||

    @cache
    def split(s: int, state, first: bool) -> Fraction:
        # the best split of [s, n] from s in ``state``; ``first``: 2+ blocks
        best = Fraction(0) if first else ones(s, n + 1)
        for t in range(s + 1, n + 1):
            nxt = step(state, t)
            if nxt is not None:
                best = max(best, ones(s, t) + split(t, nxt, False))
        return best
    best = spec.c * max((split(s, member_start(fam, s), True)
                         for s in range(1, n + 1)), default=Fraction(0))
    split = None  # it refers to itself: free its cache now, not at a GC pass
    return best


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


def tree_vec(tree, spec: TsirelsonSpec) -> FinVec:
    if tree[0] == "leaf":
        return FinVec(NAT, {tree[2]: Fraction(tree[1])})
    acc = FinVec(NAT)
    for ch in tree[1]:
        acc = acc + tree_vec(ch, spec)
    return acc.scale(spec.c)


def _witness_tree(spec_key, fam, c, coords, mags):
    """(q^(n-1) * norm, optimal all-plus tree) as in ``_norm_rec``, read off
    the splits of the memoized search: below the top every norm it needs is
    a memo hit."""
    value, split = _best_split(spec_key, fam, c, coords, mags)
    if split is None:
        return value, ("leaf", 1, coords[mags.index(max(mags))])
    return value, ("node", tuple(
        _witness_tree(spec_key, fam, c, coords[a:b], mags[a:b])[1]
        for a, b in zip(split, split[1:] + (len(mags),))))


def _flip_signs(tree, sign_of: Callable[[int], int]):
    if tree[0] == "leaf":
        return ("leaf", sign_of(tree[2]), tree[2])
    return ("node", tuple(_flip_signs(ch, sign_of) for ch in tree[1]))


def norming_functional(x, spec: TsirelsonSpec):
    """An optimal admissible tree for x: returns (norm, tree, functional).

    The functional pairs with x to exactly the norm; its tree is a member of
    the dual norming set (or a signed unit vector).
    """
    if not isinstance(x, FinVec):
        x = FinVec(NAT, x)
    coords, pairs = _entries(x)
    if not coords:
        return Fraction(0), None, FinVec(NAT)
    mags, den = _canonical(pairs)
    value, tree = _witness_tree(spec.key(), spec.family, spec.c, coords, mags)
    value = Fraction(value, den * spec.c.denominator ** (len(mags) - 1))
    tree = _flip_signs(tree, lambda i: 1 if x[i] > 0 else -1)
    vec = tree_vec(tree, spec)
    return value, tree, vec


# ---------------------------------------------------------------------------
# dual norming set
# ---------------------------------------------------------------------------

class DualNormingSet:
    def __init__(self, spec: TsirelsonSpec, trees: list, level_of: dict,
                 vec_of: dict):
        self.spec = spec
        self.trees = trees        # canonical trees, all levels, deduplicated
        self.level_of = level_of  # tree -> first level it appears at
        self.vec_of = vec_of      # tree -> FinVec

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
    fam, c = spec.family, spec.c
    step = member_stepper(fam, support_bound)
    level_of: dict = {}
    vec_of: dict = {}
    span_of: dict = {}   # tree -> (min, max) of its support
    trees: list = []

    def admit(tree, level, span, vec):
        if tree in level_of:
            return
        if len(trees) >= member_cap:
            raise CapExceeded(f"dual norming set cap {member_cap} hit")
        level_of[tree] = level
        vec_of[tree] = vec
        span_of[tree] = span
        trees.append(tree)

    scaled_of: dict = {}  # tree -> entries of c * vec_of[tree], once each

    def scaled(tree):
        got = scaled_of.get(tree)
        if got is None:
            got = scaled_of[tree] = [(i, c * v)
                                     for i, v in vec_of[tree].items()]
        return got

    for j in range(1, support_bound + 1):
        for s in signs:
            leaf = ("leaf", s, j)
            admit(leaf, 0, (j, j), tree_vec(leaf, spec))

    # every member has support in [1, support_bound]: leaves do, and a node's
    # support is the union of its children's
    pool = list(trees)
    for level in range(1, depth + 1):
        # members available to combine: everything from lower levels
        by_min = sorted(pool, key=lambda t: span_of[t][0])
        spans = [span_of[t] for t in by_min]
        mins = [lo for lo, _ in spans]
        fresh = []

        def grow(seq, state, max_supp):
            for k in range(bisect_right(mins, max_supp), len(by_min)):
                lo, hi = spans[k]
                nxt = step(state, lo) if seq else member_start(fam, lo)
                if nxt is None:
                    continue
                seq.append(by_min[k])
                if len(seq) >= 2:
                    node = ("node", tuple(seq))
                    if node not in level_of:
                        # the children have successive supports, so their
                        # merged entries times c are tree_vec(node)
                        vec = FinVec(NAT, [e for ch in seq
                                           for e in scaled(ch)])
                        admit(node, level, (span_of[seq[0]][0], hi), vec)
                        fresh.append(node)
                grow(seq, nxt, hi)
                seq.pop()

        grow([], None, 0)
        if not fresh:
            break
        pool.extend(fresh)

    grow = None  # it refers to itself: free spans and scaled entries now
    return DualNormingSet(spec, trees, level_of, vec_of)


# ---------------------------------------------------------------------------
# the dual norm and domination certificates
# ---------------------------------------------------------------------------

def vstar_norm(coeffs: dict[int, Fraction], spec: TsirelsonSpec) -> Fraction:
    """Exact dual norm ||sum_q a_q v*_q|| for coefficients a_q >= 0.

    Let Q = supp a.  The space is 1-unconditional, so the projection onto
    Q has norm one and the value is the gauge of a over the tree functionals
    on Q and their sign changes: ``lp.gauge`` from the e*_q, priced by
    ``norming_functional``.  Its tree pairs with the dual point p to ||p||
    over both signs, so it is a violated column exactly when ||p|| > 1, and
    it sits on supp p inside Q, which carries finitely many trees.
    """
    from . import lp
    if any(v < 0 for v in coeffs.values()):
        raise ValueError("coefficients must be nonnegative")
    Q = sorted(q for q, v in coeffs.items() if v)
    if not Q:
        return Fraction(0)

    def price(point):
        norm, _, f = norming_functional(point, spec)
        return f if norm > 1 else None
    return lp.gauge({q: coeffs[q] for q in Q}, [{q: 1} for q in Q],
                    price)[0]


class DominationCertificate:
    def __init__(self, status: Verdict, constant: Fraction, best: Fraction,
                 witness: FinVec | None):
        self.status = status      # PASS or FAIL
        self.constant = constant  # the C checked
        self.best = best          # the least C for which the estimate holds
        self.witness = witness    # a member of ``norming`` attaining ``best``


def certify_domination(lhs: Sequence[FinVec], rhs_indices: Sequence[int],
                       spec: TsirelsonSpec, constant,
                       norming: Sequence[FinVec]) -> DominationCertificate:
    """Decide ||sum a_i z_i|| <= C ||sum a_i v_{q_i}|| for every a, where
    z_i = ``lhs[i]``, q_i = ``rhs_indices[i]`` and v is the basis of the
    Tsirelson space of ``spec``, by the least constant C* that holds.

    ``norming`` is a finite norming set of the space of the z_i: ||z|| =
    max |f(z)| over f in ``norming`` for every z in their span (say the
    coordinate functionals for a sup norm, or ``build_dual_norming_set`` on
    a range holding the supports for a Tsirelson norm).  Then the estimate
    holds for every a exactly when, for each f, |sum a_i f(z_i)| <=
    C ||sum a_i v_{q_i}|| for every a: when the functional
    sum_i f(z_i) v*_{q_i} has norm at most C on span{v_{q_i}}.  The space
    is 1-unconditional, so the projection onto those coordinates has norm
    one and sign changes are isometries: that norm is ``vstar_norm`` of
    {q_i: |f(z_i)|}.  So C* is the largest of these values over f, attained
    by the f kept as witness, and the certificate is PASS when C* <= C and
    FAIL otherwise.  The q_i must strictly increase, so that each
    coefficient has a coordinate of its own.
    """
    from .bdcore import Verdict
    constant = Fraction(constant)
    if len(lhs) != len(rhs_indices):
        raise ValueError("lhs and rhs_indices must have equal length")
    if any(a >= b for a, b in zip(rhs_indices, rhs_indices[1:])):
        raise ValueError("rhs_indices must strictly increase")
    best, witness = Fraction(0), None
    for f in norming:
        val = vstar_norm({q: abs(f.pair(z)) for q, z in zip(rhs_indices, lhs)},
                         spec)
        if witness is None or val > best:
            best, witness = val, f
    status = Verdict.PASS if best <= constant else Verdict.FAIL
    return DominationCertificate(status, constant, best, witness)
