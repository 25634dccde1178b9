"""Seed spaces, greedy c-decompositions, and net-rounded norming sets.

A *seed space* is a finite-dimensional space with a blocked coordinate
system: blocks E_1, ..., E_N (dimensions given), a finite symmetric set G of
dual functionals defining the norm ||x|| = max_{g in G} |g(x)|, per-block
dense subsets of the dual spheres, and implicit dyadic scalar nets.  G is
stored reduced to its members of dual norm one, the only ones that attain
the maximum, so `seed.json` lists only those.  Primal norms are finite
maxima; dual norms are exact minimal-l1 representations over +-G.  Two
exact bounds come first, l1(f) from above and f(y)/||y|| at y = sign(f)
from below; when they are equal they are the value.  Otherwise a rational
LP gives it, and ``lp.check`` certifies its answer on both sides: the
primal weights represent f with total weight equal to the value, and the
dual point lies in the unit ball and pairs with f to the value, so a wrong
LP answer raises.  Bimonotonicity (every interval coordinate projection has
norm one) is validated exactly.

From a seed space the norming-set builder produces a finite set D of dual
functionals in the band 1/2 <= ||f|| <= 1 together with a recorded *special
c-decomposition* per member: normalized interval combinations over the nets
are split greedily into blocks that are single-coordinate or of norm at
most c, each scalar is rounded into the net of its block, and the rounded
pieces are themselves members.  The builder is target-driven: for every
block interval it materializes members approximating each restriction of G,
which yields an exactly checkable (1 - eps)-norming certificate while
keeping the set small (the full set of the underlying recursion is
astronomically large; pruning is dependency-closed by construction).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from . import lp
from .bdcore import Report, Verdict
from .exact import FinVec
from .families import RegularFamily
from .tsirelson import (TsirelsonSpec, build_dual_norming_set,
                        plus_tree_vectors)


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
    they differ does an LP run, with one column per member of +-G (its
    equality matrix built once per generator set), posed as maximizing
    -sum(lambda) so that ``lp.check`` certifies the answer before it is
    returned: the primal weights are >= 0, represent f and sum to the value
    v (so ||f||_* <= v), and the dual point y has g(y) >= -1 for every
    column g, that is |g(y)| <= 1 since the columns are symmetric, and
    f(y) = -v (so -y is in the unit ball and ||f||_* >= v).  A mismatch
    raises ``lp.CertificateError``.

    The given generators are reduced to G' = { g in G : ||g||_* = 1 }, each
    decided over the full +-G: dropped when its upper bound is < 1 (its
    lower bound is then never computed, which matters when G is large),
    kept when its lower bound is >= 1 (g in G already gives ||g||_* <= 1),
    and measured by the LP only when neither bound decides.  The kept ones stay
    in their order, and ``norming`` holds only them.  This changes no norm
    and no output:

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
                 norming: Sequence[FinVec], c, eps,
                 eps_seq: Sequence[Fraction] | None = None,
                 atilde: Sequence[Sequence[FinVec]] | None = None,
                 unconditional: bool = False):
        self.name = name
        self.universe = f"seed:{name}"
        self.block_dims = [int(d) for d in block_dims]
        if any(d < 1 for d in self.block_dims):
            raise SeedSpaceError("block dimensions must be >= 1")
        self.nblocks = len(self.block_dims)
        self.offsets = [1]
        for d in self.block_dims:
            self.offsets.append(self.offsets[-1] + d)
        self.ncoords = self.offsets[-1] - 1
        self.c = Fraction(c)
        self.eps = Fraction(eps)
        if not (0 < self.eps < self.c <= Fraction(1, 16)):
            raise SeedSpaceError("need 0 < eps < c <= 1/16")
        self.eps_seq = ([Fraction(e) for e in eps_seq] if eps_seq is not None
                        else default_eps_seq(self.eps, self.nblocks))
        if len(self.eps_seq) != self.nblocks:
            raise SeedSpaceError("eps_seq length must match block count")
        if sum(self.eps_seq) >= self.eps / 8:
            raise SeedSpaceError("sum of eps_i must be < eps/8")
        for n in range(self.nblocks):
            if sum(self.eps_seq[n + 1:], Fraction(0)) >= self.eps_seq[n] / 2:
                raise SeedSpaceError("eps_i tails must drop below eps_n / 2")
        self.unconditional = bool(unconditional)

        vecs = []
        for g in norming:
            if g.universe != self.universe:
                g = FinVec(self.universe, dict(g.items()))
            vecs.append(g)
        seen = set()
        gens: list[FinVec] = []
        for g in sorted(vecs, key=lambda v: tuple(v.items())):
            if g and g not in seen:
                seen.add(g)
                gens.append(g)
        if not gens:
            raise SeedSpaceError("norming set must be nonempty")
        self._dual_cache: dict[FinVec, Fraction] = {}
        self._set_generators(gens)
        self._set_generators([g for g in gens if self._dual_unit(g)])

        # scalar nets R_i = { k / K_i : 1 <= k <= K_i }, step <= eps_i / 8
        self.net_den = [_pow2_at_least(8 / e) for e in self.eps_seq]

        if atilde is None:
            atilde = []
            for b in range(1, self.nblocks + 1):
                if self.block_dims[b - 1] != 1:
                    raise SeedSpaceError(
                        "atilde must be supplied for blocks of dimension > 1")
                i = self.offsets[b - 1]
                atilde.append([FinVec(self.universe, {i: 1}),
                               FinVec(self.universe, {i: -1})])
        self.atilde = [list(a) for a in atilde]

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

    def _set_generators(self, gens: Sequence[FinVec]):
        """Norm the space by gens: ``norming``, the columns of the dual-norm
        LP, one per member of +-gens (g and -g each once, also when gens
        holds both), and the coordinates i with +-e*_i among them."""
        self.norming: list[FinVec] = list(gens)
        cols: list[FinVec] = []
        seen = set()
        for g in gens:
            for sg in (g, -g):
                if sg not in seen:
                    seen.add(sg)
                    cols.append(sg)
        self._lp_coords = sorted({i for g in cols for i in g.support()})
        self._lp_A = [[g[i] for g in cols] for i in self._lp_coords]
        self._lp_cost = [Fraction(-1)] * len(cols)
        self._unit_coords = {g.support()[0] for g in cols
                             if len(g) == 1 and g.l1() == 1}

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

    def _dual_unit(self, g: FinVec) -> bool:
        """Whether a generator g, which has ||g||_* <= 1, has ||g||_* = 1."""
        hi = self._dual_upper(g)
        if hi is not None and hi < 1:
            return False
        return self._dual_lower(g) >= 1 or self.dual_norm(g) == 1

    def dual_norm(self, f: FinVec) -> Fraction:
        """Exact dual norm: minimal l1 weight representing f over +-G."""
        got = self._dual_cache.get(f)
        if got is not None:
            return got
        if not f:
            self._dual_cache[f] = Fraction(0)
            return Fraction(0)
        try:
            if any(i not in self._lp_coords for i in f.support()):
                raise lp.Infeasible  # a coordinate no generator reaches
            val = self._dual_upper(f)
            if val is None or self._dual_lower(f) != val:
                val = self._lp_dual_norm(f)
        except lp.Infeasible:
            raise SeedSpaceError(
                "functional outside the span of the norming set") from None
        self._dual_cache[f] = val
        return val

    def _lp_dual_norm(self, f: FinVec) -> Fraction:
        """The dual-norm LP, max -sum(lambda) over lambda >= 0 with
        A lambda = f, its answer certified by ``lp.check``."""
        b = [f[i] for i in self._lp_coords]
        val, lam, y = lp.maximize(self._lp_cost, A_eq=self._lp_A, b_eq=b)
        return -lp.check(self._lp_cost, val, lam, y, A_eq=self._lp_A, b_eq=b)

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

    # -- construction helpers ---------------------------------------------------

    def extended(self, nblocks: int) -> "SeedSpace":
        """Seed with extra one-dimensional sup-normed tail blocks appended."""
        if nblocks <= self.nblocks:
            return self
        dims = self.block_dims + [1] * (nblocks - self.nblocks)
        extra = []
        start = self.ncoords + 1
        for t in range(start, start + (nblocks - self.nblocks)):
            extra.append(FinVec(self.universe, {t: 1}))
            extra.append(FinVec(self.universe, {t: -1}))
        eps_seq = default_eps_seq(self.eps, nblocks)
        norm2 = [FinVec(self.universe, dict(g.items())) for g in self.norming]
        at = [list(a) for a in self.atilde] + [
            [FinVec(self.universe, {t: 1}), FinVec(self.universe, {t: -1})]
            for t in range(start, start + (nblocks - self.nblocks))]
        out = SeedSpace(self.name, dims, norm2 + extra, self.c, self.eps,
                        eps_seq=eps_seq, atilde=None, unconditional=self.unconditional)
        # reuse the explicit dense sets (constructor rebuilt 1-dim defaults,
        # which coincide, but keep any supplied multi-dim data)
        out.atilde = [[FinVec(out.universe, dict(v.items())) for v in a] for a in at]
        return out

    def to_json_obj(self) -> dict:
        return {
            "name": self.name,
            "block_dims": self.block_dims,
            "c": [self.c.numerator, self.c.denominator],
            "eps": [self.eps.numerator, self.eps.denominator],
            "eps_seq": [[e.numerator, e.denominator] for e in self.eps_seq],
            "net_den": self.net_den,
            "unconditional": self.unconditional,
            "norming": [g.to_json_obj() for g in self.norming],
            "atilde": [[a.to_json_obj() for a in blk] for blk in self.atilde],
        }


def tsirelson_seed(name: str, family: RegularFamily, c, nblocks: int,
                   eps=None, unconditional: bool = True) -> SeedSpace:
    """Truncation of the Tsirelson space to [1, nblocks], one block per basis
    vector, normed exactly by its admissible tree functionals."""
    c = Fraction(c)
    spec = TsirelsonSpec(family, c)
    dns = build_dual_norming_set(spec, nblocks, nblocks)
    uni = f"seed:{name}"
    norming = [FinVec(uni, dict(v.items())) for v in dns.members()]
    if eps is None:
        eps = c / 2
    return SeedSpace(name, [1] * nblocks, norming, c, eps,
                     unconditional=unconditional)


# ---------------------------------------------------------------------------
# optimal c-decompositions
# ---------------------------------------------------------------------------

@dataclass
class CDecomposition:
    parent: FinVec
    pieces: tuple[FinVec, ...]       # aligned with consecutive breakpoints
    breakpoints: tuple[int, ...]     # n_1 < ... < n_{l+1}

    def blocks(self) -> tuple[FinVec, ...]:
        return tuple(p for p in self.pieces if p)


def optimal_c_decomposition(x: FinVec, c, norm: Callable[[FinVec], Fraction],
                            block_of: Callable[[int], int] | None = None
                            ) -> CDecomposition:
    """The greedy decomposition: breakpoints advance one step past any block
    whose single norm exceeds c, otherwise to the first prefix exceeding c,
    otherwise to the end."""
    c = Fraction(c)
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

@dataclass
class DMember:
    vec: FinVec                       # the functional (after rounding)
    pre: FinVec                       # the normalized combination it rounds
    block_lo: int
    block_hi: int
    decomp: tuple = ()                # ((r_i, member_index), ...)
    atom_block: int | None = None     # set for single-block members
    atom_index: int | None = None     # index into the block's dense set
    target: FinVec | None = None      # norming target this member approximates

    @property
    def level(self) -> int:
        return self.block_hi - self.block_lo + 1


class NormingSetCap(RuntimeError):
    pass


@dataclass
class NormingSetD:
    seed: SeedSpace
    members: list[DMember]
    pruned: bool = False

    def indices_in(self, lo: int, hi: int) -> list[int]:
        return [i for i, m in enumerate(self.members)
                if lo <= m.block_lo and m.block_hi <= hi]

    def atoms_of(self, block: int) -> list[int]:
        return [i for i, m in enumerate(self.members) if m.atom_block == block]

    def to_json_obj(self) -> dict:
        return {
            "seed": self.seed.name,
            "pruned": self.pruned,
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
    def __init__(self, seed: SeedSpace, size_cap: int):
        self.seed = seed
        self.cap = size_cap
        self.members: list[DMember] = []
        self.by_pre: dict[FinVec, int] = {}
        self.factor = Fraction(1) if seed.unconditional else 1 + seed.eps / 4

    def _admit(self, m: DMember) -> int:
        if len(self.members) >= self.cap:
            raise NormingSetCap(f"norming set cap {self.cap} hit")
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

    These are the norming targets: D gets a member for each, and the
    norming certificate measures D against each, so both enumerate them
    here.  Order: generator, then sign, then interval.
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


def build_norming_set_D(seed: SeedSpace,
                        size_cap: int = 20_000) -> NormingSetD:
    """Target-driven construction of D with recorded decompositions.

    Materializes every dense-set atom, one member per interval restriction
    of the (symmetrized) norming set, and a full-support and a head-light
    member per block interval.  All members referenced by a recorded
    decomposition are materialized too, so pruning is dependency-closed by
    construction.
    """
    b = _DBuilder(seed, size_cap)
    nb = seed.nblocks
    pruned = False
    try:
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
            entries, lo = b.combination_for_target(g)
            idx = b.from_combination(entries, lo)
            if b.members[idx].target is None:
                b.members[idx].target = g
    except NormingSetCap:
        pruned = True
    return NormingSetD(seed, b.members, pruned=pruned)


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

_ball_cache: dict = {}


def vstar_norm(coeffs: dict[int, Fraction], vspec: TsirelsonSpec) -> Fraction:
    """Exact dual-Tsirelson norm of sum coeff_i v*_i, coefficients >= 0."""
    if not coeffs:
        return Fraction(0)
    if any(v < 0 for v in coeffs.values()):
        raise ValueError("coefficients must be nonnegative")
    bound = max(coeffs)
    key = (vspec.key(), bound)
    cons = _ball_cache.get(key)
    if cons is None:
        cons = plus_tree_vectors(vspec, bound)
        _ball_cache[key] = cons
    coords = list(range(1, bound + 1))
    A = [[f[i] for i in coords] for f in cons]
    b = [Fraction(1)] * len(cons)
    obj = [coeffs.get(i, Fraction(0)) for i in coords]
    val, x, y = lp.maximize(obj, A_ub=A, b_ub=b)
    return lp.check(obj, val, x, y, A_ub=A, b_ub=b)


@dataclass
class UpperEstimateCertificate:
    status: Verdict          # FAIL or AT_CAP
    constant: Fraction
    checked: int
    max_value: Fraction
    witness: tuple | None    # (member index, cut tuple, value)

    def report(self) -> Report:
        """The upper-estimates suite: FAIL with the witness, or else
        AT-CAP, since finitely many cut sequences prove no estimate."""
        details = {"status": self.status, "max_value": self.max_value}
        if self.status is Verdict.FAIL:
            return Report("upper-estimates", [f"witness: {self.witness}"],
                          details)
        return Report("upper-estimates", details=details,
                      unsettled=Verdict.AT_CAP,
                      reason=f"no violation in {self.checked} cut sequences; "
                      f"max value {self.max_value} <= C = {self.constant}")


CUT_BUDGET = 500  # cut sequences checked before AT-CAP


def check_subsequential_upper(functionals: Sequence[FinVec], seed: SeedSpace,
                              vspec: TsirelsonSpec, constant
                              ) -> UpperEstimateCertificate:
    """For each functional and cut sequence, evaluate exactly

        || sum_i ||z* o P_[n_i, n_{i+1})|| v*_{n_i} ||_{V*}  <=  C.

    Cuts at all support-block boundaries come first, then random coarser
    subdivisions (a fixed-seed draw), CUT_BUDGET sequences in all.
    """
    constant = Fraction(constant)
    rng = random.Random(0)
    checked = 0
    max_value = Fraction(0)
    for zi, z in enumerate(functionals):
        rngspan = seed.block_range(z)
        if rngspan is None:
            continue
        blocks = sorted({seed.block_of(i) for i in z.support()})
        base = tuple(blocks) + (blocks[-1] + 1,)
        cut_sets = [base]
        interior = list(base[1:-1])
        trials = 0
        while trials < 8 and interior:
            trials += 1
            keep = [base[0]] + [n for n in interior if rng.random() < 0.5] + [base[-1]]
            t = tuple(sorted(set(keep)))
            if len(t) >= 2 and t not in cut_sets:
                cut_sets.append(t)
        for cuts in cut_sets:
            if checked >= CUT_BUDGET:
                return UpperEstimateCertificate(Verdict.AT_CAP, constant,
                                                checked, max_value, None)
            checked += 1
            coeffs = {}
            for a, b2 in zip(cuts, cuts[1:]):
                piece = seed.restrict_blocks(z, a, min(b2 - 1, seed.nblocks))
                if piece:
                    coeffs[a] = seed.dual_norm(piece)
            val = vstar_norm(coeffs, vspec)
            if val > max_value:
                max_value = val
            if val > constant:
                return UpperEstimateCertificate(Verdict.FAIL, constant,
                                                checked, max_value,
                                                (zi, cuts, val))
    return UpperEstimateCertificate(Verdict.AT_CAP, constant, checked,
                                    max_value, None)
