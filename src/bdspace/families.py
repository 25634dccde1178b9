"""Regular families of finite subsets of N: Schreier families and closures.

A family is *regular* when it contains all singletons and is compact,
hereditary (closed under subsets) and spreading (closed under moving
elements to the right).  Four finitely described shapes are supported:

* ``schreier(alpha)`` for ordinals alpha < omega^omega given in Cantor
  normal form.  The recursion we fix (the literature has several
  equivalent conventions at limits) is:

    - S_0       = { {} } union all singletons,
    - S_(a+1)   = { F : F splits into at most min(F) consecutive chunks,
                    each a member of S_a } union { {} },
    - S_lambda  = { F : F in S_(mu + omega^(k-1) * n) for some n <= min F }
                  union { {} },  where lambda = mu + omega^k in CNF, k >= 1.

  With this convention S_1 = { F : |F| <= min F } union { {} }.

* ``singleton_plus_pair(base)``: sets of the form {n} u B1 u B2 with
  B1, B2 in the base family (and the empty set).

* ``explicit(sets)``: the regular closure of a finite list of sets, i.e.
  everything that is a spread of a subset of a listed set, plus all
  singletons.

* ``max_union(families)``: the union of finitely many regular families.

Schreier membership runs a budget automaton over the sorted elements (see
``_open`` and ``_step``), and refuses a family whose automaton would pass
``MAX_FRAMES`` frames on the sets asked about; the other shapes are decided
by their definitions.
``member_start`` and the step function from ``member_stepper`` expose
membership one element at a time, which is how the Tsirelson norm and the
dual norming set walk the minima of admissible block sequences.  The
automaton's transitions are pure functions of ints and tuples, so both are
memoized in bounded LRU caches, as are membership answers; ``cache_info()``
on ``_open``, ``_step`` and ``_member`` reports their hit rates.  All tests
are exact.

``profile_key(fam, coords)`` rests on the same automaton: after an element
whose value is at least the number of set elements from it on, every
continuation is accepted.  So for Schreier families (and unions of them)
such a value can be lowered to that number without changing which sets of
positions are members, and the key keeps only the coordinates below that
clamp.  The Tsirelson norm keys its memo by it; ``profile_key`` has the
proof.
"""

from __future__ import annotations

import weakref
from functools import lru_cache
from typing import Iterable, Sequence


def _cnf(ordinal) -> tuple[tuple[int, int], ...]:
    """Normalize an ordinal below omega^omega to CNF ((exp, coeff), ...).

    Accepts a plain int n (the finite ordinal n) or an iterable of
    (exp, coeff) pairs with strictly decreasing exponents.
    """
    if isinstance(ordinal, int):
        if ordinal < 0:
            raise ValueError("ordinal must be >= 0")
        return ((0, ordinal),) if ordinal else ()
    cnf = tuple((int(k), int(m)) for k, m in ordinal)
    exps = [k for k, _ in cnf]
    if exps != sorted(exps, reverse=True) or len(set(exps)) != len(exps):
        raise ValueError("CNF exponents must be strictly decreasing")
    if any(m <= 0 or k < 0 for k, m in cnf):
        raise ValueError("CNF coefficients must be positive")
    return cnf


class RegularFamily:
    """Immutable descriptor with a memoized membership oracle.  Families
    are interned, one object per (kind, payload) while referenced (the
    table holds them weakly), so every cache compares them by identity."""

    __slots__ = ("kind", "payload", "__weakref__")
    _interned = weakref.WeakValueDictionary()

    def __new__(cls, kind: str, payload):
        fam = cls._interned.get((kind, payload))
        if fam is None:
            fam = cls._interned[kind, payload] = object.__new__(cls)
            object.__setattr__(fam, "kind", kind)
            object.__setattr__(fam, "payload", payload)
        return fam

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("RegularFamily is immutable")

    def __repr__(self):
        return f"RegularFamily({self.kind}, {self.payload!r})"


def schreier(ordinal) -> RegularFamily:
    return RegularFamily("schreier", _cnf(ordinal))


def singleton_plus_pair(base: RegularFamily) -> RegularFamily:
    return RegularFamily("pairplus", base)


def explicit(sets: Iterable[Iterable[int]]) -> RegularFamily:
    return RegularFamily("explicit",
                         tuple(sorted({frozenset(map(int, s)) for s in sets},
                                      key=lambda s: (len(s), sorted(s)))))


def max_union(fams: Sequence[RegularFamily]) -> RegularFamily:
    return RegularFamily("union", tuple(fams))


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------

# The bound of the membership caches.  Their working sets are small: a norm
# search over coordinates in [1, 16] makes 120 distinct automaton
# transitions under S_1 and 664 under S_2, and the S_1 dual norming set at
# N = 7 makes 21.  2^16 entries hold those of many families at once, with
# the sets the other shapes test; past the bound the least recently used
# answers are recomputed, so the bound costs time, never correctness.
_CACHE_SIZE = 1 << 16


@lru_cache(maxsize=_CACHE_SIZE)
def _member(fam: RegularFamily, F: tuple[int, ...]) -> bool:
    if not F:
        return True
    if any(n < 1 for n in F):
        raise ValueError("family members are subsets of {1, 2, ...}")
    if fam.kind == "schreier":
        return _schreier_member(fam.payload, F)
    if fam.kind == "pairplus":
        return _pairplus_member(fam.payload, F)
    if fam.kind == "explicit":
        if len(F) == 1:
            return True
        return any(_dominated(F, A) for A in fam.payload)
    if fam.kind == "union":
        return any(_member(f, F) for f in fam.payload)
    raise ValueError(f"unknown family kind {fam.kind!r}")


def _dominated(F: tuple[int, ...], A: frozenset) -> bool:
    # F (sorted) is a spread of a subset of A iff the k smallest elements
    # of A fit under F elementwise.
    if len(F) > len(A):
        return False
    smallest = sorted(A)[: len(F)]
    return all(a <= f for a, f in zip(smallest, F))


def _schreier_member(cnf: tuple[tuple[int, int], ...], F: tuple[int, ...]) -> bool:
    _check_frames(cnf, F[-1])
    state = _open(cnf, F[0])
    for x in F[1:]:
        state = _step(state, x)
        if state is None:
            return False
    return True


# The Schreier automaton.  A state is a stack of frames (beta, r), outermost
# first: frame j says "we are inside an S_(beta+1) set, its current chunk is
# an S_beta set (described by the frames below), and r more chunks may be
# opened".  A frame without budget is dropped: it can never open a chunk,
# and using a frame above it reopens everything below that one anyway.  So
# the bottom frame is the lowest one that can still open a chunk, and the
# empty stack accepts nothing more.  The automaton is exact for two reasons:
#
# * longest-chunk greedy is optimal: S_beta is hereditary, so a shorter first
#   chunk leaves a larger remainder, which needs at least as many chunks;
#   hence F is in S_(beta+1) iff greedily maximal S_beta chunks number at
#   most min F, and a chunk ends exactly where the frames below stop
#   accepting;
# * at a limit lambda = mu + omega^k only n = min F needs testing, because
#   the approximants S_(mu + omega^(k-1) * n) are nested in n.

@lru_cache(maxsize=_CACHE_SIZE)
def _open(cnf: tuple[tuple[int, int], ...], m: int) -> tuple:
    """The state of the one-element set {m} in S_cnf."""
    if m == 1:  # every frame would open with no budget
        return ()
    frames = []
    while cnf:
        k, c = cnf[-1]
        head = cnf[:-1] + (((k, c - 1),) if c > 1 else ())
        if k == 0:  # successor: this chunk is in S_head, m - 1 more may follow
            cnf = head
            frames.append((cnf, m - 1))
        else:       # limit: the approximant mu + omega^(k-1) * m
            cnf = head + ((k - 1, m),)
    return tuple(frames)


# The most frames the automaton builds.  ``_open(cnf, m)`` builds
# sum c * m^k of them over the CNF terms (k, c), for m >= 2: a successor
# unit opens one frame, and a limit omega^k opens as m copies of
# omega^(k-1).  No state of a set in [1, n] holds more than {n}'s (the
# tests check this exhaustively on small families), so one count admits a
# family for every set in [1, n] before any state is built.  The largest
# state the tests reach is S_(omega^2)'s on [1, 24], 576 frames, and the
# bound is the next power of two: a state of 2^10 frames takes about
# 0.2 MB and 3 ms to open, and a step copies its stack in about 10 us.  It
# admits S_k for k <= 1024, S_omega on [1, 1024], S_(omega^2) on [1, 32]
# and S_(omega^3) on [1, 10], and refuses S_(omega^4) on [1, 16] (65,536
# frames, 12 MB and 0.3 s to open, 1.6 ms a step).
MAX_FRAMES = 1 << 10


@lru_cache(maxsize=_CACHE_SIZE)
def _check_frames(cnf: tuple[tuple[int, int], ...], n: int) -> None:
    """Raise ValueError when a set in [1, n] takes the automaton of S_cnf
    past ``MAX_FRAMES`` frames.  Exponents are capped where n^k already
    exceeds the bound, so a huge CNF costs nothing to refuse."""
    cap = MAX_FRAMES.bit_length()
    if n > 1 and sum(c * n ** min(k, cap) for k, c in cnf) > MAX_FRAMES:
        text = "+".join(f"w^{k}*{c}" if k else str(c) for k, c in cnf)
        raise ValueError(f"schreier:{text} on [1, {n}] needs more than "
                         f"{MAX_FRAMES} automaton frames")


@lru_cache(maxsize=_CACHE_SIZE)
def _step(state: tuple, x: int) -> tuple | None:
    """The state after appending x > max F, or None when F u {x} is not a
    member: the bottom frame opens a new chunk at x and reopens the frames
    below it there."""
    if not state:
        return None
    beta, r = state[-1]
    return state[:-1] + (((beta, r - 1),) if r > 1 else ()) + _open(beta, x)


def _pairplus_member(base: RegularFamily, F: tuple[int, ...]) -> bool:
    # F = {n} u B1 u B2 with B1, B2 in base.  Try each n in F and each
    # 2-coloring of the rest; hereditary base lets us demand a partition.
    rest_cache: dict[tuple[int, ...], bool] = {}

    def base_member(S: tuple[int, ...]) -> bool:
        r = rest_cache.get(S)
        if r is None:
            r = _member(base, S)
            rest_cache[S] = r
        return r

    for x in F:
        rest = tuple(y for y in F if y != x)
        if base_member(rest):  # B2 empty
            return True
        k = len(rest)
        # fix rest[0] into B2 to skip the symmetric half of the colorings
        for mask in range(1 << k):
            if k and mask & 1:
                continue
            b1 = tuple(rest[i] for i in range(k) if mask >> i & 1)
            b2 = tuple(rest[i] for i in range(k) if not mask >> i & 1)
            if base_member(b1) and base_member(b2):
                return True
    return False


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def is_member(F: Iterable[int], fam: RegularFamily) -> bool:
    """Exact membership test for a finite set of naturals."""
    return _member(fam, tuple(sorted(set(map(int, F)))))


def member_start(fam: RegularFamily, m: int):
    """Membership state of the one-element set {m}, a member of every
    regular family.  Feed later elements to ``member_stepper(fam, n)``."""
    if m < 1:
        raise ValueError("family members are subsets of {1, 2, ...}")
    return _open(fam.payload, m) if fam.kind == "schreier" else (m,)


def member_stepper(fam: RegularFamily, n: int):
    """The step function of ``fam`` on sets in [1, n]: it maps (state of F,
    x) for x > max F to the state of F u {x}, or to None when that is not a
    member.

    Schreier families step their automaton, and a ValueError refuses one
    whose states on [1, n] would pass ``MAX_FRAMES``; the other shapes
    carry F itself and test it.  States are hashable, and equal states
    accept the same continuations.  A search fetches the function once, so
    it dispatches on the family's shape once, not at every step.
    """
    if fam.kind == "schreier":
        _check_frames(fam.payload, n)
        return _step

    def step(F: tuple[int, ...], x: int):
        F = F + (x,)
        return F if _member(fam, F) else None
    return step


@lru_cache(maxsize=_CACHE_SIZE)
def profile_key(fam: RegularFamily, coords: tuple[int, ...]) -> tuple:
    """A key that two increasing tuples of one length share only when, for
    every set of positions, the coordinates there form a member for both or
    for neither (their *membership profile*).  The length is not part of it.

    Schreier families, and unions whose parts all are, give ``coords[:j]``
    for the first position j with coords[j] >= n - j, where n = len(coords):
    as if each coordinate were clamped to min(coords[i], n - i), which keeps
    that prefix and turns the rest into n - j, ..., 1.  Why this is exact:
    the automaton reads an element's value m only in ``_open(beta, m)``,
    which gives every frame it opens budget m - 1, and each later element
    uses up one opening.  So an element whose value m is at least the
    number L of set elements from it on never lets the state run empty:
    all L - 1 continuations are accepted, whatever their values, just as at
    value L (m = 1 forces L = 1; the empty ``beta`` opens nothing and reads
    nothing).  A set's elements from position i on number at most n - i, so
    every coordinate past the prefix is such an element, and the run reads
    the prefix and n only.  A union is a member where one of its parts is.
    Every other shape returns ``coords`` itself.
    """
    if fam.kind == "schreier" or (fam.kind == "union" and all(
            f.kind == "schreier" for f in fam.payload)):
        n = len(coords)
        for j, x in enumerate(coords):
            if x + j >= n:
                return coords[:j]
    return coords


def is_spread(A: Iterable[int], B: Iterable[int]) -> bool:
    """True iff |A| = |B| and B dominates A elementwise after sorting."""
    a, b = sorted(set(A)), sorted(set(B))
    return len(a) == len(b) and all(x <= y for x, y in zip(a, b))


def is_admissible(blocks: Sequence[Iterable[int]], fam: RegularFamily) -> bool:
    """True iff the blocks are successive and their minima form a member.

    Raises ValueError when the blocks are not successive (max of one block
    must be strictly below the min of the next).
    """
    sets = [sorted(set(map(int, b))) for b in blocks]
    if any(not s for s in sets):
        raise ValueError("blocks must be nonempty")
    for s, t in zip(sets, sets[1:]):
        if s[-1] >= t[0]:
            raise ValueError(f"blocks not successive: {s} !< {t}")
    return is_member([s[0] for s in sets], fam)
