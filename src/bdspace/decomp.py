"""Seed spaces, greedy c-decompositions, and net-rounded norming sets.

A *seed space* is a finite-dimensional space with a blocked coordinate
system: blocks E_1, ..., E_N (dimensions given), a finite symmetric set G of
dual functionals defining the norm ||x|| = max_{g in G} |g(x)|, per-block
dense subsets of the dual spheres, and implicit dyadic scalar nets.  G is
stored reduced to its members of dual norm one, the only ones that attain
the maximum, so `seed.json` lists only those.  Primal norms are finite
maxima; dual norms are exact minimal-l1 representations over +-G.  Two
exact bounds come first, l1(f) from above and f(y)/||y|| at y = sign(f)
from below; when they are equal they are the value, and otherwise the
certified LP ``lp.gauge`` over +-G gives it.  Bimonotonicity (every
interval coordinate projection has norm one) is validated exactly.

From a seed space the norming-set builder produces a finite set D of dual
functionals in the band 1/2 <= ||f|| <= 1 together with a recorded *special
c-decomposition* per member: normalized interval combinations over the nets
are split greedily into blocks that are single-coordinate or of norm at
most c, each scalar is rounded into the net of its block, and the rounded
pieces are themselves members.  The builder is target-driven: for every
block interval it materializes members approximating each restriction of G,
which yields an exactly checkable (1 - eps)-norming certificate while
keeping the set small (the full set of the underlying recursion is
astronomically large).  D is never cut: a build that reaches
``D_SIZE_CAP`` members is refused.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Callable, Sequence

from . import lp
from .bdcore import Report, Verdict
from .exact import FinVec
from .families import RegularFamily
from .tsirelson import (TsirelsonSpec, build_dual_norming_set,
                        tree_l1_ceiling, vstar_norm)

WEIGHT_CAP = Fraction(1, 16)  # the largest weight c of a seed or augmentation
D_SIZE_CAP = 20_000  # members of D; a build that reaches it is refused


def _pow2_at_least(x: Fraction) -> int:
    k = 1
    while k < x:
        k *= 2
    return k


def default_eps_seq(eps: Fraction, n: int) -> list[Fraction]:
    """eps_i = (eps/16) * 4^(1-i): sums below eps/8, tails below eps_n / 2."""
    eps = Fraction(eps)
    return [eps / 16 * Fraction(1, 4) ** (i - 1) for i in range(1, n + 1)]


class SeedSpaceError(ValueError):
    pass


class SeedSpace:
    """Blocked finite-dimensional space with exact primal and dual norms.

    ``dual_norm(f)`` first computes two exact bounds.

     * Upper: when +-e*_i is among the generators for every i in supp f,
       then ||f||_* <= sum |f_i| ||e*_i||_* <= l1(f).  For any other f
       there is no upper bound, and the LP runs at once.
     * Lower: y = sign(f) has ||y|| = ``primal_norm(y)``, and y/||y|| lies
       in the unit ball, so ||f||_* >= f(y)/||y|| = l1(f)/||y||.

    The two are equal exactly when ||sign f|| = 1, and then the common value
    is ||f||_*: it is as exact as the LP, not an approximation.  Only when
    they differ does an LP run: ``lp.gauge`` of f over the columns +-G,
    each once, whose certificate bounds ||f||_* from both sides (the dual
    point p has |g(p)| <= 1 for every g, since the columns are symmetric).
    The columns are built once per generator list, when its first LP runs.

    The given generators are reduced to G' = { g in G : ||g||_* = 1 } in
    one pass.  First every g whose upper bound is < 1 is dropped, before
    any dedup, sort or LP; the +-e*_i that the bound needs have l1 = 1, so
    none of them is dropped.  The survivors S are deduped and sorted by
    entries, and each is kept when its lower bound is >= 1 (g in G already
    gives ||g||_* <= 1), or else when the LP over +-S gives 1.  That is
    exact: G' is contained in S, so S has the primal norm and the dual
    ball of G (below).  The kept ones stay in their order, and ``norming``
    holds only them.  This changes no norm and no output:

     * a g with ||g||_* < 1 never attains max |g(x)| in ``primal_norm``
       (|g(x)| <= ||g||_* ||x|| < ||x|| for x != 0), so the primal norm, the
       dual norm and the dual norms cached while pruning are unchanged;
     * the dual ball is conv(+-G) = conv(+-G'), because its extreme points
       lie in +-G and have dual norm 1, so checking bimonotonicity on G'
       alone is complete;
     * in a bimonotone seed every restriction of a dropped g has dual norm
       at most ||g||_* < 1, so the unit restrictions, and with them D and
       every dump built from it, are the same as over G.
    """

    def __init__(self, name: str, block_dims: Sequence[int],
                 norming: Sequence[FinVec], c, eps=None,
                 eps_seq: Sequence[Fraction] | None = None):
        self.name = name
        self.universe = f"seed:{name}"
        self.block_dims = [int(d) for d in block_dims]
        for b, d in enumerate(self.block_dims, start=1):
            if d != 1:
                raise SeedSpaceError(f"block {b} has dimension {d}: the dense "
                                     "sets are built for dimension 1 only")
        self.nblocks = len(self.block_dims)
        self.offsets = [1]
        for d in self.block_dims:
            self.offsets.append(self.offsets[-1] + d)
        self.ncoords = self.offsets[-1] - 1
        for gi, g in enumerate(norming):
            sup = g.support()  # increasing
            if sup and not 1 <= sup[0] <= sup[-1] <= self.ncoords:
                bad = sup[0] if sup[0] < 1 else sup[-1]
                raise SeedSpaceError(f"generator {gi} has coordinate {bad} "
                                     f"outside 1..{self.ncoords}")
        self.c = Fraction(c)
        self.eps = Fraction(eps) if eps is not None else self.c / 2
        if not (0 < self.eps < self.c <= WEIGHT_CAP):
            raise SeedSpaceError(f"need 0 < eps < c <= {WEIGHT_CAP}")
        self.eps_seq = ([Fraction(e) for e in eps_seq] if eps_seq is not None
                        else default_eps_seq(self.eps, self.nblocks))
        if len(self.eps_seq) != self.nblocks:
            raise SeedSpaceError("eps_seq length must match block count")
        if sum(self.eps_seq) >= self.eps / 8:
            raise SeedSpaceError("sum of eps_i must be < eps/8")
        for n in range(self.nblocks):
            if sum(self.eps_seq[n + 1:], Fraction(0)) >= self.eps_seq[n] / 2:
                raise SeedSpaceError("eps_i tails must drop below eps_n / 2")

        # the reduction to G' (class docstring); while the survivors are
        # decided, primal_norm and the LP read them as ``norming``
        self._unit_coords = {g.support()[0] for g in norming
                             if len(g) == 1 and g.l1() == 1}
        kept = set()
        for g in norming:
            hi = self._dual_upper(g)
            if hi is None or hi >= 1:
                kept.add(g if g.universe == self.universe
                         else FinVec(self.universe, dict(g.items())))
        if not kept:
            raise SeedSpaceError("norming set must be nonempty")
        self._dual_cache: dict[FinVec, Fraction] = {}
        self._columns = (None, None)  # a generator list and its +-G columns
        self.norming = sorted(kept, key=lambda v: tuple(v.items()))
        self.norming = [g for g in self.norming
                        if self._dual_lower(g) >= 1 or self.dual_norm(g) == 1]

        # scalar nets R_i = { k / K_i : 1 <= k <= K_i }, step <= eps_i / 8
        self.net_den = [_pow2_at_least(8 / e) for e in self.eps_seq]

        # the dense set of a one-dimensional block: its +-e*_i
        self.atilde = [[FinVec(self.universe, {i: 1}),
                        FinVec(self.universe, {i: -1})]
                       for i in self.offsets[:-1]]

    # -- coordinates ------------------------------------------------------

    def block_of(self, idx: int) -> int:
        for b in range(1, self.nblocks + 1):
            if self.offsets[b - 1] <= idx < self.offsets[b]:
                return b
        raise SeedSpaceError(f"coordinate {idx} outside universe")

    def block_coords(self, b: int) -> range:
        return range(self.offsets[b - 1], self.offsets[b])

    def restrict_blocks(self, v: FinVec, lo: int, hi: int) -> FinVec:
        a, b = self.offsets[lo - 1], self.offsets[hi]
        return v.restrict(lambda i: a <= i < b)

    def block_range(self, v: FinVec) -> tuple[int, int] | None:
        sup = v.support()
        if not sup:
            return None
        return self.block_of(sup[0]), self.block_of(sup[-1])

    def basis_vector(self, coord: int) -> FinVec:
        return FinVec(self.universe, {coord: 1})

    # -- norms --------------------------------------------------------------

    def primal_norm(self, x: FinVec) -> Fraction:
        return max((abs(g.pair(x)) for g in self.norming), default=Fraction(0))

    def _dual_upper(self, f: FinVec) -> Fraction | None:
        """l1(f) >= ||f||_* when every +-e*_i on supp f is a generator, else
        None (no upper bound); the argument is in the class docstring."""
        if all(i in self._unit_coords for i in f.support()):
            return f.l1()
        return None

    def _dual_lower(self, f: FinVec) -> Fraction:
        """l1(f)/||sign f|| <= ||f||_*; the argument is in the class
        docstring.  Asked only where ||sign f|| > 0: for a generator f, or
        when every +-e*_i on supp f is one."""
        sign = FinVec(self.universe, {i: v / abs(v) for i, v in f.items()})
        return f.l1() / self.primal_norm(sign)

    def dual_norm(self, f: FinVec) -> Fraction:
        """Exact dual norm: minimal l1 weight representing f over +-G."""
        got = self._dual_cache.get(f)
        if got is not None:
            return got
        if not f:
            self._dual_cache[f] = Fraction(0)
            return Fraction(0)
        try:
            val = self._dual_upper(f)
            if val is None or self._dual_lower(f) != val:
                if self._columns[0] is not self.norming:
                    self._columns = (self.norming, dict.fromkeys(
                        sg for g in self.norming for sg in (g, -g)))
                val = lp.gauge(f, self._columns[1])[0]
        except lp.Infeasible:
            raise SeedSpaceError(
                "functional outside the span of the norming set") from None
        self._dual_cache[f] = val
        return val

    # -- nets ------------------------------------------------------------------

    def net_contains(self, r: Fraction, block: int) -> bool:
        K = self.net_den[block - 1]
        return 0 < r <= 1 and (r * K).denominator == 1

    def net_round(self, s: Fraction, block: int, cap: Fraction | None = None) -> Fraction:
        """Smallest net point within eps_block/4 of s (deterministic).

        With ``cap`` set the point must also stay <= cap; the net step is at
        most eps_block/8, so a qualifying point exists whenever s <= cap.
        """
        e4 = self.eps_seq[block - 1] / 4
        K = self.net_den[block - 1]
        lo = s - e4
        k = max(1, -((-lo * K) // 1))  # ceil(lo * K), at least 1
        r = Fraction(int(k), K)
        hi = min(s + e4, Fraction(1), cap if cap is not None else Fraction(1))
        if r > hi:
            raise SeedSpaceError(
                f"no net point near {s} in block {block} (cap {cap})")
        return r

    def nearest_atilde(self, block: int, direction: FinVec) -> int:
        """Index of the dense-set member closest to a unit dual direction."""
        best = None
        for idx, a in enumerate(self.atilde[block - 1]):
            d = self.dual_norm(direction - a)
            if best is None or d < best[0]:
                best = (d, idx)
        return best[1]

    # -- validation -----------------------------------------------------------

    def validate(self) -> list[str]:
        """Exact structural checks; returns a list of violations (empty = ok)."""
        issues = []
        one = Fraction(1)
        for b in range(1, self.nblocks + 1):
            for idx, a in enumerate(self.atilde[b - 1]):
                sup = a.support()
                if not sup or not all(i in self.block_coords(b) for i in sup):
                    issues.append(f"atilde[{b}][{idx}] not supported on block {b}")
                    continue
                if self.dual_norm(a) != one:
                    issues.append(f"atilde[{b}][{idx}] is not on the dual sphere")
                if -a not in {v for v in self.atilde[b - 1]}:
                    issues.append(f"atilde[{b}] not symmetric at index {idx}")
        for gi, g in enumerate(self.norming):
            for lo in range(1, self.nblocks + 1):
                for hi in range(lo, self.nblocks + 1):
                    r = self.restrict_blocks(g, lo, hi)
                    if r and self.dual_norm(r) > one:
                        issues.append(
                            f"norming[{gi}] restricted to blocks [{lo},{hi}] "
                            "exceeds the dual ball (seed not bimonotone)")
        return issues

    # -- output -------------------------------------------------------------------

    def to_json_obj(self) -> dict:
        return {
            "name": self.name,
            "block_dims": self.block_dims,
            "c": [self.c.numerator, self.c.denominator],
            "eps": [self.eps.numerator, self.eps.denominator],
            "eps_seq": [[e.numerator, e.denominator] for e in self.eps_seq],
            "net_den": self.net_den,
            "norming": [g.to_json_obj() for g in self.norming],
            "atilde": [[a.to_json_obj() for a in blk] for blk in self.atilde],
        }


def tsirelson_seed(name: str, family: RegularFamily, c, nblocks: int,
                   eps=None, eps_seq=None) -> SeedSpace:
    """Truncation of the Tsirelson space to [1, nblocks], one block per basis
    vector, normed exactly by its admissible tree functionals.

    A tree that is no leaf has l1 at most ``tree_l1_ceiling``, c times the
    best split of 1_[1,nblocks].  Every +-e*_i is a leaf, so when that
    ceiling is below 1 ``SeedSpace`` would drop each such tree by its l1
    bound; the seed is then built from the 2 * nblocks leaves alone, and
    from every tree otherwise.  Under (S_1, 1/16) the ceiling is
    floor((nblocks + 1)/2)/16, below 1 through 30 blocks."""
    c = Fraction(c)
    spec = TsirelsonSpec(family, c)
    depth = 0 if tree_l1_ceiling(spec, nblocks) < 1 else nblocks
    dns = build_dual_norming_set(spec, depth, nblocks)
    return SeedSpace(name, [1] * nblocks, dns.members(), c, eps,
                     eps_seq=eps_seq)


# ---------------------------------------------------------------------------
# optimal c-decompositions
# ---------------------------------------------------------------------------

class CDecomposition:
    def __init__(self, parent: FinVec, pieces: tuple[FinVec, ...],
                 breakpoints: tuple[int, ...]):
        self.parent = parent
        self.pieces = pieces            # aligned with consecutive breakpoints
        self.breakpoints = breakpoints  # n_1 < ... < n_{l+1}

    def blocks(self) -> tuple[FinVec, ...]:
        return tuple(p for p in self.pieces if p)


def optimal_c_decomposition(x: FinVec, c, norm: Callable[[FinVec], Fraction],
                            block_of: Callable[[int], int] | None = None
                            ) -> CDecomposition:
    """The greedy decomposition: breakpoints advance one step past any block
    whose single norm exceeds c, otherwise to the first prefix exceeding c,
    otherwise to the end."""
    c = Fraction(c)
    if not (0 < c < 1):
        raise ValueError("weight must satisfy 0 < c < 1")
    if block_of is None:
        block_of = lambda i: i  # noqa: E731
    if not x:
        return CDecomposition(x, (), ())
    blocks = sorted({block_of(i) for i in x.support()})
    first, last = blocks[0], blocks[-1]

    def between(a, b):  # restriction to block indices in [a, b]
        return x.restrict(lambda i: a <= block_of(i) <= b)

    bps = [first]
    while bps[-1] != last + 1:
        nj = bps[-1]
        single = between(nj, nj)
        if norm(single) > c:
            bps.append(nj + 1)
            continue
        nxt = None
        for n in range(nj + 1, last + 1):
            if norm(between(nj, n)) > c:
                nxt = n
                break
        bps.append(nxt if nxt is not None else last + 1)
    pieces = tuple(between(a, b - 1) for a, b in zip(bps, bps[1:]))
    return CDecomposition(x, pieces, tuple(bps))


# ---------------------------------------------------------------------------
# the norming set D
# ---------------------------------------------------------------------------

class DMember:
    def __init__(self, vec: FinVec, pre: FinVec, block_lo: int, block_hi: int,
                 decomp: tuple = (), atom_block: int | None = None,
                 atom_index: int | None = None):
        self.vec = vec                # the functional (after rounding)
        self.pre = pre                # the normalized combination it rounds
        self.block_lo, self.block_hi = block_lo, block_hi
        self.decomp = decomp          # ((r_i, member_index), ...)
        self.atom_block = atom_block  # set for single-block members
        self.atom_index = atom_index  # index into the block's dense set


class NormingSetCap(RuntimeError):
    pass


class NormingSetD:
    def __init__(self, seed: SeedSpace, members: list[DMember]):
        self.seed, self.members = seed, members

    def indices_in(self, lo: int, hi: int) -> list[int]:
        return [i for i, m in enumerate(self.members)
                if lo <= m.block_lo and m.block_hi <= hi]

    def atoms_of(self, block: int) -> list[int]:
        return [i for i, m in enumerate(self.members) if m.atom_block == block]

    def to_json_obj(self) -> dict:
        return {
            "seed": self.seed.name,
            "pruned": False,  # D is never cut; bench/run.py pins this dump
            "members": [
                {
                    "vec": m.vec.to_json_obj(),
                    "blocks": [m.block_lo, m.block_hi],
                    "decomposition": [[r.numerator, r.denominator, j]
                                      for r, j in m.decomp],
                    "atom": ([m.atom_block, m.atom_index]
                             if m.atom_block is not None else None),
                }
                for m in self.members
            ],
        }


class _DBuilder:
    """D member by member.  Every atom and combination is normalized to dual
    norm 1/factor, factor = 1 + eps/4, whatever the seed: rounding moves a
    member by at most the sum of the eps_i, below eps/8, and the headroom
    1 - 1/factor >= eps/5 absorbs that, so every member stays in the band
    [1/2, 1] with no claim about the seed's basis.  The norming-set suite
    checks the band and each rounding error exactly."""

    def __init__(self, seed: SeedSpace):
        self.seed = seed
        self.members: list[DMember] = []
        self.by_pre: dict[FinVec, int] = {}
        self.factor = 1 + seed.eps / 4

    def _admit(self, m: DMember) -> int:
        if len(self.members) >= D_SIZE_CAP:
            raise NormingSetCap(f"norming set cap {D_SIZE_CAP} hit")
        self.members.append(m)
        self.by_pre[m.pre] = len(self.members) - 1
        return len(self.members) - 1

    def atom(self, block: int, aidx: int) -> int:
        s = self.seed
        a = s.atilde[block - 1][aidx]
        pre = a.scale(1 / self.factor)
        got = self.by_pre.get(pre)
        if got is not None:
            return got
        m = DMember(vec=pre, pre=pre, block_lo=block, block_hi=block,
                    atom_block=block, atom_index=aidx)
        i = self._admit(m)
        m.decomp = ((Fraction(1), i),)
        return i

    def from_combination(self, entries: tuple, lo: int) -> int:
        """entries: per block lo..lo+k-1, pairs (a_i in net, atilde index)."""
        s = self.seed
        u = FinVec(s.universe)
        for off, (a, aidx) in enumerate(entries):
            u = u + s.atilde[lo + off - 1][aidx].scale(a)
        nu = s.dual_norm(u)
        if nu == 0:
            raise SeedSpaceError("zero combination")
        pre = u.scale(1 / (self.factor * nu))
        got = self.by_pre.get(pre)
        if got is not None:
            return got
        if len(entries) == 1:
            # normalization collapses the scalar; this is the block's atom
            return self.atom(lo, entries[0][1])

        cprime = s.c / self.factor
        dec = optimal_c_decomposition(pre, cprime, s.dual_norm, s.block_of)
        pieces = [(a, b - 1, p) for (a, b), p in
                  zip(zip(dec.breakpoints, dec.breakpoints[1:]), dec.pieces) if p]
        assert len(pieces) >= 2, "norm above c/(1+eps/4) must split"
        parts = []
        vec = FinVec(s.universe)
        for _, _, piece in pieces:
            plo, phi = s.block_range(piece)
            sub_entries = entries[plo - lo: phi - lo + 1]
            child = self.from_combination(sub_entries, plo)
            s_i = s.dual_norm(s.restrict_blocks(u, plo, phi)) / nu
            cap = s.c if phi > plo else None
            r_i = s.net_round(s_i, phi, cap)
            parts.append((r_i, child))
            vec = vec + self.members[child].vec.scale(r_i)
        rng = s.block_range(pre)
        return self._admit(DMember(vec=vec, pre=pre, block_lo=rng[0],
                                   block_hi=rng[1], decomp=tuple(parts)))

    def combination_for_target(self, g: FinVec) -> tuple[tuple, int]:
        """Net/dense-set combination entries approximating a dual target."""
        s = self.seed
        lo, hi = s.block_range(g)
        entries = []
        for b in range(lo, hi + 1):
            gb = s.restrict_blocks(g, b, b)
            if gb:
                nb = s.dual_norm(gb)
                aidx = s.nearest_atilde(b, gb.scale(1 / nb))
                a = s.net_round(min(nb, Fraction(1)), b, cap=None)
            else:
                aidx = 0
                a = Fraction(1, s.net_den[b - 1])
            entries.append((a, aidx))
        return tuple(entries), lo


def unit_restrictions(seed: SeedSpace,
                      intervals: Sequence[tuple[int, int]]) -> list[FinVec]:
    """Distinct restrictions of +-G to the block intervals with dual norm 1.

    These are the norming targets: D gets a member for each, the norming
    certificate measures D against each, and the embedding's lower bound
    gauges each.  Order: generator, then sign, then interval, so each u
    comes right before -u when there is one interval.
    """
    out: list[FinVec] = []
    seen = set()
    for g in seed.norming:
        for sg in (g, -g):
            for lo, hi in intervals:
                r = seed.restrict_blocks(sg, lo, hi)
                if r and r not in seen and seed.dual_norm(r) == 1:
                    seen.add(r)
                    out.append(r)
    return out


def build_norming_set_D(seed: SeedSpace) -> NormingSetD:
    """Target-driven construction of D with recorded decompositions.

    Materializes every dense-set atom, one member per interval restriction
    of the (symmetrized) norming set, and a full-support and a head-light
    member per block interval.  Every member referenced by a recorded
    decomposition is materialized too.  D is built whole or not at all:
    reaching ``D_SIZE_CAP`` members (read when the call runs) raises
    ``NormingSetCap``.
    """
    b = _DBuilder(seed)
    nb = seed.nblocks
    for blk in range(1, nb + 1):
        for aidx in range(len(seed.atilde[blk - 1])):
            b.atom(blk, aidx)
    # only unit restrictions matter: the extreme points of every section
    # dual ball lie among them, and they 1-norm the section
    targets = unit_restrictions(
        seed, [(lo, hi) for lo in range(1, nb + 1)
               for hi in range(lo, nb + 1)])
    seen = set(targets)
    for lo in range(1, nb + 1):
        for hi in range(lo + 1, nb + 1):
            full = FinVec(seed.universe,
                          {seed.offsets[blk - 1]: 1 for blk in range(lo, hi + 1)})
            nrm = seed.dual_norm(full)
            full = full.scale(1 / nrm)
            if full not in seen:
                seen.add(full)
                targets.append(full)
            # head-light profile: leading blocks below the splitting
            # threshold, so the greedy decomposition opens with a
            # multi-block piece
            graded = FinVec(seed.universe,
                            dict([(seed.offsets[blk - 1], seed.c / 4)
                                  for blk in range(lo, hi)]
                                 + [(seed.offsets[hi - 1], 1)]))
            graded = graded.scale(1 / seed.dual_norm(graded))
            if graded not in seen:
                seen.add(graded)
                targets.append(graded)
    for g in targets:
        b.from_combination(*b.combination_for_target(g))
    return NormingSetD(seed, b.members)


# ---------------------------------------------------------------------------
# exact certificates over D
# ---------------------------------------------------------------------------

def member_band_report(D: NormingSetD) -> list[str]:
    """Exact check that every member lies in B_{X*} minus (1/2) B_{X*}."""
    s = D.seed
    out = []
    for i, m in enumerate(D.members):
        n = s.dual_norm(m.vec)
        if not (Fraction(1, 2) <= n <= 1):
            out.append(f"member {i} has dual norm {n} outside [1/2, 1]")
    return out


def rounding_error_report(D: NormingSetD) -> list[str]:
    """Exact check of ||h~ - h|| <= sum of eps_j over the support blocks."""
    s = D.seed
    out = []
    for i, m in enumerate(D.members):
        bound = sum((s.eps_seq[blk - 1] for blk in range(m.block_lo, m.block_hi + 1)
                     if s.restrict_blocks(m.vec, blk, blk)), Fraction(0))
        err = s.dual_norm(m.vec - m.pre)
        if err > bound:
            out.append(f"member {i}: rounding error {err} exceeds {bound}")
    return out


def decomposition_closure_report(D: NormingSetD) -> list[str]:
    """Pieces of each recorded decomposition are members, sum exactly, are
    successive, respect the nets, and are single-block or of norm <= c."""
    s = D.seed
    out = []
    for i, m in enumerate(D.members):
        if m.atom_block is not None:
            if m.decomp != ((Fraction(1), i),):
                out.append(f"atom {i} should be its own decomposition")
            continue
        total = FinVec(s.universe)
        prev_hi = 0
        for r, j in m.decomp:
            piece = D.members[j]
            total = total + piece.vec.scale(r)
            if piece.block_lo <= prev_hi:
                out.append(f"member {i}: decomposition pieces not successive")
            prev_hi = piece.block_hi
            if not s.net_contains(r, piece.block_hi):
                out.append(f"member {i}: scalar {r} not in net of block "
                           f"{piece.block_hi}")
            if piece.block_lo != piece.block_hi and r > s.c:
                out.append(f"member {i}: multi-block piece scaled by {r} > c")
        if total != m.vec:
            out.append(f"member {i}: decomposition does not sum to the member")
    return out


def verify_norming_set(D: NormingSetD, nblocks: int) -> Report:
    """The three member checks above, and the (1 - eps)-norming certificate
    on every block interval [lo, hi] inside the first nblocks blocks."""
    rep = Report("norming-set", member_band_report(D)
                 + rounding_error_report(D) + decomposition_closure_report(D))
    for lo in range(1, nblocks + 1):
        for hi in range(lo, nblocks + 1):
            w, _ = norming_certificate(D, lo, hi, D.indices_in(lo, hi))
            rep.details[f"delta[{lo},{hi}]"] = w
            if w > D.seed.eps:
                rep.violations.append(
                    f"norming margin {w} exceeds eps on [{lo},{hi}]")
    return rep


def norming_certificate(D: NormingSetD, lo: int, hi: int,
                        members: Sequence[int]):
    """Exact (1 - eps)-norming certificate for blocks [lo, hi] by the given
    members of D (indices into ``D.members``).

    Every x supported there has ||x|| = max |g(x)| over restrictions of the
    norming set; for each such restriction some given member is within
    delta of it in dual norm, so  max_f |f(x)| >= (1 - delta)||x||  over the
    given f.  Returns (delta, per-target distances); the certificate passes
    when delta <= eps.
    """
    s = D.seed
    targets = unit_restrictions(s, [(lo, hi)])
    worst = Fraction(0)
    detail = []
    for g in targets:
        best = None
        for i in members:
            d = s.dual_norm(g - D.members[i].vec)
            if best is None or d < best:
                best = d
            if best == 0:
                break
        if best is None:
            best = Fraction(1)
        detail.append((g, best))
        if best > worst:
            worst = best
    return worst, detail


# ---------------------------------------------------------------------------
# subsequential upper-estimate checker
# ---------------------------------------------------------------------------

class UpperEstimateCertificate:
    def __init__(self, status: Verdict, constant: Fraction, checked: int,
                 max_value: Fraction, witness: tuple | None):
        self.status = status        # PASS, FAIL or AT_CAP
        self.constant = constant
        self.checked = checked
        self.max_value = max_value
        self.witness = witness      # (member index, cut tuple, value)

    def report(self) -> Report:
        """The upper-estimates suite: PASS when every cut sequence of every
        member was checked, FAIL with the witness, AT-CAP past the budget."""
        details = {"checked": self.checked, "max_value": self.max_value}
        if self.status is Verdict.FAIL:
            return Report("upper-estimates", [f"witness: {self.witness}"],
                          details)
        if self.status is Verdict.AT_CAP:
            return Report("upper-estimates", details=details,
                          unsettled=Verdict.AT_CAP,
                          reason=f"cut budget {CUT_BUDGET} reached after "
                          f"{self.checked} cut sequences; max value "
                          f"{self.max_value} <= C = {self.constant}")
        return Report("upper-estimates", details=details)


CUT_BUDGET = 2_000  # cut sequences checked before AT-CAP; 8 blocks need 1,124


def check_subsequential_upper(functionals: Sequence[FinVec], seed: SeedSpace,
                              vspec: TsirelsonSpec, constant
                              ) -> UpperEstimateCertificate:
    """For each functional z* and each cut sequence n_1 < ... < n_{k+1} of
    its block span [lo, hi], that is n_1 = lo, n_{k+1} = hi + 1 and any
    subset of the interior cuts lo + 1, ..., hi, evaluate exactly

        || sum_i ||z* o P_[n_i, n_{i+1})|| v*_{n_i} ||_{V*}  <=  C.

    Every sequence is checked, so PASS holds on the finite stage; the
    first violation gives FAIL with its witness, and AT-CAP is returned
    once CUT_BUDGET sequences were checked and more remain.
    """
    constant = Fraction(constant)
    checked = 0
    max_value = Fraction(0)
    for zi, z in enumerate(functionals):
        span = seed.block_range(z)
        if span is None:
            continue
        lo, hi = span
        interior = range(lo + 1, hi + 1)
        for k in range(len(interior) + 1):
            for inner in combinations(interior, k):
                if checked >= CUT_BUDGET:
                    return UpperEstimateCertificate(Verdict.AT_CAP, constant,
                                                    checked, max_value, None)
                checked += 1
                cuts = (lo,) + inner + (hi + 1,)
                pieces = {a: seed.restrict_blocks(z, a, b - 1)
                          for a, b in zip(cuts, cuts[1:])}
                val = vstar_norm({a: seed.dual_norm(p)
                                  for a, p in pieces.items() if p}, vspec)
                max_value = max(max_value, val)
                if val > constant:
                    return UpperEstimateCertificate(Verdict.FAIL, constant,
                                                    checked, max_value,
                                                    (zi, cuts, val))
    return UpperEstimateCertificate(Verdict.PASS, constant, checked,
                                    max_value, None)
