"""Building a Bourgain-Delbaen host space around a seed space.

The index set is coded combinatorially: an element is a nonempty initial
segment (r_1 x*_1, ..., r_j x*_j) of the recorded special c-decomposition of
some norming-set member.  Bounded intervals of N are well ordered by

    [n1, n2] < [m1, m2]  iff  n2 < m2, or n2 = m2 and n1 > m1,

and the rank of a coded element is the position of the interval spanned by
its support blocks in that order.  Block j of the seed embeds at rank
m_j = 1 + j(j-1)/2 (so m_1, m_2, ... = 1, 2, 4, 7, 11, ...), where the
rank-m_j stage consists of the scaled single-block elements.

Each coded element is recoded into the type-0/type-1 schema, in four cases
keyed by the shape of the tuple; the correction functional is
alpha e*_xi + beta e*_eta with xi, eta earlier coded elements, and the
recoded projected form agrees with it exactly because the referenced
elements sit late enough in the well order.  The embedding of the seed
space maps block i through the stage-m_i coordinates and extends by the
J operators; the identity

    e*_gamma(phi(x)) = sum_j r_j x*_j(x)

holds exactly for every built element on a basis, hence for every x.  It
gives lambda*||x|| <= ||phi(x)|| <= ||x|| for every x on the covered blocks:
the upper bound from the dual norms of the coded functionals, the lower
bound with the exact constant lambda* of the built stages, one certified
gauge per unit restriction of the norming set, and a witness attaining it
(INCONCLUSIVE, naming lambda*, when lambda* < 1 - eps).
"""

from __future__ import annotations

from fractions import Fraction

from . import lp
from .bdcore import BDBuild, BuildError, Report, Verdict
from .decomp import NormingSetD, SeedSpace, unit_restrictions
from .exact import FinVec


# ---------------------------------------------------------------------------
# the interval well order and the m sequence
# ---------------------------------------------------------------------------

def interval_rank(a: int, b: int) -> int:
    """Position of the interval [a, b] in the well order (1-based)."""
    if not (1 <= a <= b):
        raise ValueError("need 1 <= a <= b")
    return (b - 1) * b // 2 + (b - a + 1)


def interval_from_rank(n: int) -> tuple[int, int]:
    if n < 1:
        raise ValueError("rank must be >= 1")
    b = 1
    while b * (b + 1) // 2 < n:
        b += 1
    rem = n - (b - 1) * b // 2
    return (b - rem + 1, b)


def m_seq(j: int) -> int:
    """m_1 = 1 and m_{j+1} = m_j + j: the ranks hosting the seed blocks."""
    if j < 1:
        raise ValueError("index must be >= 1")
    return 1 + j * (j - 1) // 2


def i0_of_rank(n: int) -> int:
    """The unique i with m_i <= n < m_{i+1}."""
    i = 1
    while m_seq(i + 1) <= n:
        i += 1
    return i


def is_block_rank(n: int) -> bool:
    a, b = interval_from_rank(n)
    return a == b


# ---------------------------------------------------------------------------
# coded elements
# ---------------------------------------------------------------------------

class CodedInfo:
    def __init__(self, entries: tuple, case: str, rank: int, vecsum: FinVec,
                 supp_blocks: tuple[int, ...], xi: tuple | None = None,
                 eta: tuple | None = None, coeffs: tuple | None = None):
        self.entries = entries    # ((r, member index), ...)
        self.case = case          # "i" | "ii" | "iii" | "iv"
        self.rank = rank
        self.vecsum = vecsum      # sum r_i x*_i over the seed coordinates
        self.supp_blocks = supp_blocks
        self.xi = xi              # coded tuple of the xi reference
        self.eta = eta            # coded tuple of the eta reference
        self.coeffs = coeffs      # (alpha, beta) of c* = alpha e_xi + beta e_eta


class EmbeddingBuild:
    def __init__(self, seed: SeedSpace, D: NormingSetD, stage_bound: int,
                 bd: BDBuild, code_of: dict, info: dict):
        self.seed, self.D = seed, D
        self.stage_bound = stage_bound
        self.bd = bd
        self.code_of = code_of    # coded tuple -> bd id
        self.info = info          # bd id -> CodedInfo

    def nblocks_covered(self) -> int:
        return min(i0_of_rank(self.stage_bound), self.seed.nblocks)


def _tuple_blocks(D: NormingSetD, entries: tuple) -> tuple[int, ...]:
    s = D.seed
    blocks = set()
    for _, j in entries:
        m = D.members[j]
        for b in range(m.block_lo, m.block_hi + 1):
            if s.restrict_blocks(m.vec, b, b):
                blocks.add(b)
    return tuple(sorted(blocks))


def _tuple_rank(D: NormingSetD, entries: tuple) -> int:
    """The rank of a coded tuple: the position of its block span."""
    blocks = _tuple_blocks(D, entries)
    return interval_rank(blocks[0], blocks[-1])


def _recode(D: NormingSetD, t: tuple):
    """Recoding case of a coded tuple: (case, xi_t, eta_t, alpha, beta).

    The correction functional is alpha e*_xi + beta e*_eta, with xi and eta
    the coded tuples referenced; a single-block tuple is case "i" and
    references nothing.
    """
    if len(_tuple_blocks(D, t)) == 1:
        return "i", None, None, None, None
    head = D.members[t[0][1]]
    if len(t) == 1:
        dec = tuple(head.decomp)
        r1, sm = t[0][0], dec[-1][0]
        return ("ii", dec[:-1], tuple(D.members[dec[-1][1]].decomp),
                r1, r1 * sm)
    if len(t) == 2 and head.block_lo == head.block_hi:
        return ("iii", ((Fraction(1), t[0][1]),),
                tuple(D.members[t[1][1]].decomp), t[0][0], t[1][0])
    return ("iv", t[:-1], tuple(D.members[t[-1][1]].decomp),
            Fraction(1), t[-1][0])


def build_embedding(seed: SeedSpace, D: NormingSetD,
                    stage_bound: int) -> EmbeddingBuild:
    """Generate the coded index set up to ``stage_bound`` and register it:
    every prefix of every member's recorded decomposition whose rank is at
    most ``stage_bound``, so no stage is ever cut."""
    s = seed

    # collect every prefix of every member's recorded decomposition
    tuples: set[tuple] = set()
    for m in D.members:
        dec = tuple(m.decomp)
        for j in range(1, len(dec) + 1):
            tuples.add(dec[:j])

    ranked: dict[tuple, int] = {t: _tuple_rank(D, t) for t in tuples}
    kept = {t for t, r in ranked.items() if r <= stage_bound}

    bd = BDBuild(f"bd:{s.name}")
    code_of: dict[tuple, int] = {}
    info: dict[int, CodedInfo] = {}

    for t in sorted(kept, key=lambda t: (ranked[t], t)):
        rk = ranked[t]
        blocks = _tuple_blocks(D, t)
        vecsum = sum((D.members[j].vec.scale(r) for r, j in t),
                     FinVec(s.universe))
        case, xi_t, eta_t, alpha, beta = _recode(D, t)
        if case == "i":
            if not is_block_rank(rk) or len(t) != 1:
                raise BuildError(f"coded element {t} misclassified")
            g = bd.add_type0(rk, 0, FinVec(bd.universe), free=t)
            info[g] = CodedInfo(t, "i", rk, vecsum, blocks)
            code_of[t] = g
            continue
        xi_id, eta_id = code_of[xi_t], code_of[eta_t]
        k = bd.rank[xi_id]
        if not (k < bd.rank[eta_id] <= rk - 1):
            raise BuildError(
                f"reference ranks out of order for {t}: "
                f"rk(xi)={k}, rk(eta)={bd.rank[eta_id]}, rk={rk}")
        if case == "ii":
            bstar = FinVec(bd.universe, {xi_id: Fraction(1, 2),
                                         eta_id: beta / (2 * alpha)})
            g = bd.add_type0(rk, 2 * alpha, bstar, free=t)
        else:
            g = bd.add_type1(rk, alpha, k, xi_id,
                             beta, FinVec(bd.universe, {eta_id: 1}), free=t)
        info[g] = CodedInfo(t, case, rk, vecsum, blocks, xi_t, eta_t,
                            (alpha, beta))
        code_of[t] = g

    bd.freeze()
    return EmbeddingBuild(seed, D, stage_bound, bd, code_of, info)


# ---------------------------------------------------------------------------
# structural verification of the coding
# ---------------------------------------------------------------------------

def verify_coding(eb: EmbeddingBuild) -> Report:
    """Exact per-element checks tying the coded data to the schema data.
    The span and window checks also fix the order around each block stage:
    rank < m_j exactly when the last support block b < j, and rank > m_j
    exactly when b >= j and the support is not the one block j."""
    rep = Report("coding")
    bd, D, s = eb.bd, eb.D, eb.seed
    covered = eb.nblocks_covered()
    for n in range(1, eb.stage_bound + 1):
        a, b = interval_from_rank(n)
        if b <= covered and not bd.stage(n):
            rep.violations.append(f"stage {n} empty though blocks reach {b}")
    for g, inf in eb.info.items():
        # the interval position of the support matches the rank
        if interval_rank(inf.supp_blocks[0], inf.supp_blocks[-1]) != inf.rank:
            rep.violations.append(f"{g}: rank does not match the support span")
        # m_{i0} <= rk < m_{i0+1} exactly when i0 is the largest support block
        i0 = inf.supp_blocks[-1]
        if not (m_seq(i0) <= inf.rank < m_seq(i0 + 1)):
            rep.violations.append(f"{g}: rank window violates the block index")
        # minimal stage touched by e*_g is at least m_{min block}
        min_rank = min(bd.rank[t] for t in bd.bc.to_d(bd.estar(g)).support())
        if min_rank < m_seq(inf.supp_blocks[0]):
            rep.violations.append(f"{g}: d-support starts before m_(min block)")
        # v_g, which the embedding suite reads, is sum r_j x*_j over D
        vsum = sum((D.members[j].vec.scale(r) for r, j in inf.entries),
                   FinVec(s.universe))
        if inf.vecsum != vsum:
            rep.violations.append(f"{g}: v_g differs from sum r_j x*_j over D")
        if inf.case == "i":
            if bd.cstar(g):
                rep.violations.append(f"{g}: block-rank element with c* != 0")
            continue
        xi_id, eta_id = eb.code_of[inf.xi], eb.code_of[inf.eta]
        alpha, beta = inf.coeffs
        coded_cstar = FinVec(bd.universe, {xi_id: alpha, eta_id: beta})
        if coded_cstar != bd.cstar(g):
            rep.violations.append(
                f"{g}: schema c* differs from alpha e_xi + beta e_eta "
                "(projection must fix e_eta)")
        # coefficient identity on the seed side
        lhs = inf.vecsum
        rhs = (eb.info[xi_id].vecsum.scale(alpha)
               + eb.info[eta_id].vecsum.scale(beta))
        if lhs != rhs:
            rep.violations.append(f"{g}: seed-side coefficient identity fails")
    return rep


# ---------------------------------------------------------------------------
# the embedding
# ---------------------------------------------------------------------------

def embed_phi(eb: EmbeddingBuild, x: FinVec) -> FinVec:
    """Image of a seed vector: block i acts on the rank-m_i stage and is
    extended by J_{m_i}.  The stage-m_i patterns are d*-coordinates, so the
    image is one synthesis of them over the built stages."""
    s, bd, D = eb.seed, eb.bd, eb.D
    if x.universe != s.universe:
        raise BuildError("vector not over the seed space")
    u = {}
    for blk in range(1, s.nblocks + 1):
        xb = s.restrict_blocks(x, blk, blk)
        if not xb:
            continue
        stage = bd.stage(m_seq(blk))
        if not stage:
            raise BuildError(f"stage bound too low for block {blk}")
        for g in stage:
            (r, j), = eb.info[g].entries
            u[g] = r * D.members[j].vec.pair(xb)
    return bd.synthesize(u)


def phi_functional_identity(eb: EmbeddingBuild, x: FinVec,
                            image: FinVec | None = None) -> Report:
    """e*_g(phi(x)) = v_g(x), v_g = sum_j r_j x*_j, for every built
    element, exactly; ``verify_coding`` ties each v_g to D."""
    rep = Report("embedding-identity")
    if image is None:
        image = embed_phi(eb, x)
    for g, inf in eb.info.items():
        expect = inf.vecsum.pair(x)
        if image[g] != expect:
            rep.violations.append(
                f"{g}: e*(phi x) = {image[g]} != {expect}")
    return rep


def verify_embedding(eb: EmbeddingBuild) -> Report:
    """lambda*||x|| <= ||phi(x)|| <= ||x|| for every x on the covered blocks
    [1, n], from three exact checks.

    Identity: phi is linear, so the functional identity on a basis of the
    covered blocks gives e*_g(phi x) = v_g(x), v_g = sum_j r_j x*_j (tied
    to D by ``verify_coding``), for every x.  Upper: ||phi x|| = max_g |v_g(x)|, so ||phi|| is the largest
    ||v_g||*.  Lower: ||x|| = max_u u(x) over the unit restrictions u of +-G
    to [1, n], so the best constant is lambda* = 1 / max_u rho(u), rho the
    gauge of conv(+-v_g) (bipolar theorem); every block interval lies in
    [1, n], so it bounds them all.  Each rho(u) = rho(-u) is one
    ``lp.gauge``, started from the columns inside supp u (from all when
    those miss u's span) and priced by a scan of every v_g, so its dual
    point certifies rho over every built g; a u outside their span gives
    lambda* = 0.  The dual point x of the worst gauge is the witness:
    ||x|| = 1/lambda* and ||phi x|| = 1.  PASS when lambda* >= 1 - eps,
    otherwise INCONCLUSIVE, naming lambda*: later stages add v_g.
    """
    s = eb.seed
    rep = Report("embedding-bounds")
    covered = eb.nblocks_covered()
    for b in range(1, covered + 1):
        rep.violations.extend(
            phi_functional_identity(eb, s.basis_vector(b)).violations)
    norm = max((s.dual_norm(inf.vecsum) for inf in eb.info.values()),
               default=Fraction(0))
    rep.details["||phi||"] = norm
    if norm > 1:
        rep.violations.append(f"upper bound fails: ||phi|| = {norm} > 1")

    columns = list(dict.fromkeys(sv for inf in eb.info.values()
                                 for sv in (inf.vecsum, -inf.vecsum)))

    def price(p):  # the +-v_g largest at p, when it exceeds 1
        x = FinVec(s.universe, p)
        h = max(columns, key=x.pair)
        return h if h.pair(x) > 1 else None

    def gauge(u):
        supp = set(u.support())
        for start in ([h for h in columns if supp.issuperset(h.support())],
                      columns):
            try:
                return lp.gauge(u, start, price)
            except lp.Infeasible:  # u is outside the start's span
                continue
        return None

    # one u per sign pair, since unit_restrictions lists u right before -u
    rhos = [gauge(u) for u in unit_restrictions(s, [(1, covered)])[::2]]
    worst = None if None in rhos else max(rhos, key=lambda r: r[0])
    lam = 1 / worst[0] if worst else Fraction(0)
    rep.details["lambda*"] = lam
    rep.details["witness"] = worst[1] if worst else None
    if lam < 1 - s.eps:
        rep.unsettled = Verdict.INCONCLUSIVE
        rep.reason = (f"lower bound lambda* = {lam} < 1 - eps = {1 - s.eps} "
                      "on the built stages")
    return rep


def verify_cuts(eb: EmbeddingBuild) -> Report:
    """The distinct cut sets of the built elements.  The verdict is
    INCONCLUSIVE: prefix pairs occur by construction (a coded tuple and its
    extension), so no finite stage settles compactness either way."""
    return Report("cuts-compact", details={
        "distinct_cut_sets": len({eb.bd.cuts(g) for g in eb.bd.ids()})},
        unsettled=Verdict.INCONCLUSIVE,
        reason="no finite stage settles compactness of the cut family")
