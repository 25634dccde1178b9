"""Finite stages of Bourgain-Delbaen index sets with exact verification.

A build holds finite stages Delta_1, Delta_2, ... of elements gamma, each of
type 0 (rank, beta, b*, free) or type 1 (rank, alpha, k, xi, beta, b*, free),
and derives the associated functionals

    c*_gamma = beta b*                         (type 0)
    c*_gamma = alpha e*_xi + beta P*_(k, n] b*  (type 1, rank n+1)

with d*_gamma = e*_gamma - c*_gamma.  Since c*_gamma is supported on earlier
stages, the d* family is a unitriangular basis of l1(Gamma_n): interval
projections, norm constants and the stagewise analysis of each e*_gamma are
all exact rational computations.

A vector x of the space is handled through its d*-coordinates
a_t = <d*_t, x> = x(t) - <c*_t, x> (``dcoords``) and rebuilt over the whole
build by the synthesis x = sum_t a_t d_t (``synthesize``): x(g) = a_g +
<c*_g, x>, forward substitution, as c*_g reads only lower ranks.  Both read
the c* table through the index that its one writer, ``BDBuild._set_cstar``,
keeps (each s listed under every t in supp c*_s; ``validate_schema``
rebuilds it).  a_t can be nonzero only for t in supp x or for a row c*_t
meeting supp x, and x(g) only for g in supp a or for a row c*_g meeting
supp x: ``dcoords`` reads only those rows, and ``synthesize`` only the rows
it reaches from supp a, in (rank, id) order.  It keeps no memo and never
calls ``to_d``, so the columns J_n e_t and the rows P*_[1,n] e*_g of the
dual-norm suite share no code.  J_m x (``apply_Jm``) is the synthesis of
the d*-coordinates of x of rank <= m.  The pair is also the one encoding of
a vector while a build grows: c*_g is fixed when g is added, so the
d*-coordinates of x taken before, synthesized after, keep every old value
and give an added g the value <c*_g, x>.

Verified here, stage by stage and with zero tolerance, nothing sampled:
linear identities on a basis, operator norms exactly from columns.
 * schema conformance: every element against the element rule
   (``element_faults``, whose first fault ``add_type0``/``add_type1``
   raise), the stored c* table against ``BDBuild.cstar_of``, and the
   c*-support index against the table;
 * the projection-norm ladder ||P*_[1,m]|_{l1(Gamma_n)}|| <= 1 + C_n and the
   theta-split bound C_n <= max(2 theta/(1-2 theta), C_n(theta));
 * the weight condition (each type-1 weight is <= theta unless b* is a unit
   vector with vanishing correction), which caps the decomposition constant
   at M = max(1/(1-2 theta), 2), derived by ``decomposition_constant``;
 * extension operators J_m: the compatibility and restriction identities
   for every x (R_m J_m = id among them), from biorthogonality, dcoords(d_t)
   = e_t, and J_m e_t = d_t at m = rank t, both checked once per element,
   and isometry on l_inf(Delta_m) from those columns d_t, t in Delta_m;
 * idempotence of the interval projections P*_(k,m];
 * the analysis of gamma: the unfolding of e*_gamma into d* terms and
   projected b* terms, re-verified by exact expansion, with its cut set;
 * dual-norm banding between the l1 norm and the space norm through the
   exact ||J_n|| <= M, and the interval projections held to 2M^2 on l1.
The prefix norms, the C_n values and the 2M^2 columns each take one
d-expansion per vector, its d*-terms added rank by rank (``_l1_ladder``),
and the columns J_n e_t = d_t - sum c*_s(t) d_s, over the rows s of rank
<= n that read t, one synthesis d_s per element for every n (``_jn_norms``).
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from heapq import heappop, heappush
from .exact import FinVec, TriangularBasisChange


class Gamma0:
    def __init__(self, beta: Fraction, bstar: FinVec, free: object = None):
        self.beta, self.bstar, self.free = beta, bstar, free


class Gamma1:
    def __init__(self, alpha: Fraction, k: int, xi: int, beta: Fraction,
                 bstar: FinVec, free: object = None):
        self.alpha, self.k, self.xi = alpha, k, xi
        self.beta, self.bstar, self.free = beta, bstar, free


class AnalysisRecord:
    def __init__(self, gamma: int, terms: list, cuts: tuple[int, ...]):
        self.gamma = gamma
        self.terms = terms  # (alpha_j, xi_j, beta_j, bstar_j, (p_{j-1}, p_j))
        self.cuts = cuts


class BuildError(ValueError):
    pass


def raise_first(faults: list[str], where: str = ""):
    """A builder's refusal: the first of a rule's ``faults``, if any."""
    if faults:
        raise BuildError(where + faults[0])


def element_faults(build: BDBuild, rank: int, e: Gamma0 | Gamma1) -> list[str]:
    """Every constraint that e, an element of Delta_rank over ``build``,
    breaks: the one statement of the element rule, in the order in which
    ``add_type0``/``add_type1`` raise the first and ``validate_schema``
    reports them all."""
    one = isinstance(e, Gamma1)
    k, alpha = (e.k, e.alpha) if one else (0, 0)
    out = ["rank must be >= 1"] if rank < 1 and not one else []
    if not (0 <= alpha <= 1 and 0 <= e.beta <= 1):
        out.append("alpha, " * one + "beta must lie in [0, 1]")
    if one:
        if not 1 <= k <= rank - 2:
            out.append(f"need 1 <= k <= rank - 2, got k={k}, rank={rank}")
        if build.rank.get(e.xi) != k:
            out.append(f"xi must lie in Delta_{k}")
    elif rank == 1 and (e.beta or e.bstar):
        out.append("rank-1 elements must carry c* = 0")
    if e.bstar.universe != build.universe:
        out.append("b* universe mismatch")
    if e.bstar.l1() > 1:
        out.append(f"b* outside the l1 ball: {e.bstar.l1()}")
    i = next((i for i in e.bstar.support()
              if not k < build.rank.get(i, 0) <= rank - 1), None)
    if i is not None:
        out.append(f"b* support index {i} outside Gamma_{rank - 1}"
                   + (f" minus Gamma_{k}" if k else ""))
    return out


class BDBuild:
    """Mutable while stages are added; freeze before verification runs."""

    def __init__(self, universe: str):
        self.universe = universe
        self.elems: dict[int, Gamma0 | Gamma1] = {}
        self.rank: dict[int, int] = {}
        self.stages: dict[int, list[int]] = {}
        self.cstar_table: dict[int, FinVec] = {}
        self._cstar_rows: dict[int, list[int]] = {}  # t -> [s : t in supp c*_s]
        self.frozen = False
        self._next = 0
        # accessors that hold the tables, not the build: no reference cycle
        rank = self.rank
        self.bc = TriangularBasisChange(universe, lambda g: (rank[g], g),
                                        self.cstar_table.__getitem__)

    # -- structure ----------------------------------------------------------

    def ids(self) -> list[int]:
        return sorted(self.rank, key=self.bc.order_key)

    def stage(self, n: int) -> list[int]:
        return self.stages.get(n, [])

    def max_rank(self) -> int:
        return max(self.stages, default=0)

    def gamma_upto(self, n: int) -> list[int]:
        return [g for g in self.ids() if self.rank[g] <= n]

    def cstar(self, g: int) -> FinVec:
        return self.cstar_table[g]

    def estar(self, g: int) -> FinVec:
        return FinVec(self.universe, {g: 1})

    def dstar(self, g: int) -> FinVec:
        return self.estar(g) - self.cstar_table[g]

    # -- construction ---------------------------------------------------------

    def add_type0(self, rank: int, beta, bstar: FinVec, free=None) -> int:
        return self._append(rank, Gamma0(Fraction(beta), bstar, free))

    def add_type1(self, rank: int, alpha, k: int, xi: int, beta,
                  bstar: FinVec, free=None) -> int:
        return self._append(rank, Gamma1(Fraction(alpha), k, xi,
                                         Fraction(beta), bstar, free))

    def cstar_of(self, rank: int, e: Gamma0 | Gamma1) -> FinVec:
        """c* of e in Delta_rank: beta b* (type 0), alpha e*_xi + beta
        P*_(k, rank-1] b* (type 1); ``verify_analysis`` unfolds it apart."""
        if isinstance(e, Gamma0):
            return e.bstar.scale(e.beta)
        return (FinVec(self.universe, {e.xi: e.alpha})
                + self.project(e.bstar, e.k, rank - 1).scale(e.beta))

    def _append(self, rank: int, e: Gamma0 | Gamma1) -> int:
        """Append e to Delta_rank with its c*, or raise the first constraint
        of ``element_faults`` that it breaks."""
        raise_first(element_faults(self, rank, e))
        if self.frozen:
            raise BuildError("build is frozen")
        g = self._next
        self._next += 1
        self.elems[g] = e
        self.rank[g] = rank
        self.stages.setdefault(rank, []).append(g)
        self._set_cstar(g, self.cstar_of(rank, e))
        return g

    def _set_cstar(self, g: int, cs: FinVec):
        """The one writer of ``cstar_table``: stores c*_g and lists g under
        every t in its support.  Ids only grow, so each list is in id order."""
        self.cstar_table[g] = cs
        for t in cs.support():
            self._cstar_rows.setdefault(t, []).append(g)

    def freeze(self):
        self.frozen = True

    def copy(self) -> BDBuild:
        """An unfrozen build with this one's universe, ids and tables, whose
        dicts and lists are its own, so that it grows apart from this one."""
        new = BDBuild(self.universe)  # its accessors hold its own tables
        new.elems.update(self.elems)
        new.rank.update(self.rank)
        new.cstar_table.update(self.cstar_table)
        new.stages.update((n, list(v)) for n, v in self.stages.items())
        new._cstar_rows.update((t, list(v))
                               for t, v in self._cstar_rows.items())
        new._next = self._next
        return new

    # -- projections and expansions ---------------------------------------------

    def project(self, v: FinVec, k: int, m: int) -> FinVec:
        """P*_(k, m]: zero the d-coordinates outside ranks k+1 .. m."""
        if k >= m:
            return FinVec(self.universe)
        return self.bc.project(v, lambda g: k < self.rank[g] <= m)

    # -- extension operators ----------------------------------------------------

    def dcoords(self, x: FinVec) -> dict[int, Fraction]:
        """The nonzero d*-coordinates <d*_t, x> = x(t) - <c*_t, x> of x, in
        id order, read off the rows t in supp x and the rows meeting it."""
        table, rows = self.cstar_table, self._cstar_rows
        hit = {t for t in x.support() if t in table}
        for i in x.support():
            hit.update(rows.get(i, ()))
        out = {}
        for t in sorted(hit):
            v = x[t] - table[t].pair(x)
            if v:
                out[t] = v
        return out

    def synthesize(self, a) -> FinVec:
        """sum_t a_t d_t, ``a`` mapping ids of the build to coefficients:
        x(g) = a_g + <c*_g, x> on the rows reached from supp a through the
        c*-support index, read in (rank, id) order."""
        rank, table, rows = self.rank, self.cstar_table, self._cstar_rows
        todo = sorted((rank[g], g) for g in a)  # a sorted list is a heap
        x, seen = {}, set(a)
        while todo:
            r, g = heappop(todo)
            v = a.get(g, 0)
            for t, c in table[g].items():
                if rank[t] >= r:
                    raise ValueError(f"correction row of {g} touches "
                                     f"non-earlier index {t}")
                w = x.get(t)
                if w is not None:
                    v += c * w
            if v:
                x[g] = v
                for s in rows.get(g, ()):
                    if s not in seen:
                        seen.add(s)
                        heappush(todo, (rank[s], s))
        return FinVec(self.universe, x)

    def apply_Jm(self, x: FinVec, m: int) -> FinVec:
        """Extension of x from Gamma_m: (J_m x)(g) = <P*_[1,m] e*_g, x>, the
        synthesis of the d*-coordinates of x of rank <= m."""
        for i in x.support():
            if self.rank.get(i, m + 1) > m:
                raise BuildError(f"x not supported on Gamma_{m}")
        return self.synthesize({t: v for t, v in self.dcoords(x).items()
                                if self.rank[t] <= m})

    # -- analysis ------------------------------------------------------------------

    def analyze(self, g: int) -> AnalysisRecord:
        """Unfold e*_g through its type-1 chain down to a type-0 root."""
        chain = [g]
        seen = {g}
        cur = self.elems[g]
        while isinstance(cur, Gamma1):
            nxt = cur.xi
            if nxt in seen:
                raise BuildError(f"cyclic reference through {nxt}")
            seen.add(nxt)
            chain.append(nxt)
            cur = self.elems[nxt]
        chain.reverse()  # xi_1 (type 0 root) first
        terms = []
        # multipliers accumulate top-down; compute them per position
        mults = [Fraction(1)] * len(chain)
        for j in range(len(chain) - 1, 0, -1):
            e = self.elems[chain[j]]
            mults[j - 1] = mults[j] * e.alpha
        cuts = []
        prev_p = 0
        for j, gid in enumerate(chain):
            e = self.elems[gid]
            p = self.rank[gid]
            beta = e.beta
            bstar = e.bstar
            k = prev_p if j else 0
            terms.append((mults[j], gid, mults[j] * beta, bstar, (k, p)))
            cuts.append(p)
            prev_p = p
        return AnalysisRecord(g, terms, tuple(cuts))

    def analysis_expansion(self, rec: AnalysisRecord) -> FinVec:
        acc = FinVec(self.universe)
        for alpha, xi, beta, bstar, (p0, p1) in rec.terms:
            acc = acc + self.dstar(xi).scale(alpha)
            if beta and bstar:
                acc = acc + self.project(bstar, p0, p1 - 1).scale(beta)
        return acc

    def cuts(self, g: int) -> tuple[int, ...]:
        return self.analyze(g).cuts

    # -- serialization -----------------------------------------------------------

    def to_json_obj(self) -> dict:
        stages = {}
        for n in sorted(self.stages):
            rows = []
            for g in self.stages[n]:
                e = self.elems[g]
                row = {"id": g, "type": 0,
                       "beta": [e.beta.numerator, e.beta.denominator],
                       "bstar": e.bstar.to_json_obj()["entries"],
                       "free": repr(e.free) if e.free is not None else None}
                if isinstance(e, Gamma1):
                    row.update({"type": 1, "k": e.k, "xi": e.xi, "alpha": [
                        e.alpha.numerator, e.alpha.denominator]})
                rows.append(row)
            stages[str(n)] = rows
        return {"universe": self.universe, "stages": stages}


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

class Verdict(str, Enum):
    """A check's outcome.  INCONCLUSIVE and AT-CAP: a finite stage or a
    capped search settled nothing past itself, and so refuted nothing."""
    PASS = "PASS"
    FAIL = "FAIL"
    INCONCLUSIVE = "INCONCLUSIVE"
    AT_CAP = "AT-CAP"

    def __str__(self) -> str:
        return self.value


class Report:
    """A check's violations and details; a check that cannot settle its
    property records INCONCLUSIVE or AT-CAP as ``unsettled``, and why."""

    def __init__(self, name: str, violations: list | None = None,
                 details: dict | None = None,
                 unsettled: Verdict | None = None, reason: str = ""):
        self.name = name
        self.violations = [] if violations is None else violations
        self.details = {} if details is None else details
        self.unsettled = unsettled
        self.reason = reason

    @property
    def verdict(self) -> Verdict:
        return Verdict.FAIL if self.violations else (
            self.unsettled or Verdict.PASS)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_obj(self) -> dict:
        return {"name": self.name, "ok": self.ok, "verdict": str(self.verdict),
                "reason": self.reason,
                "violations": [str(v) for v in self.violations],
                "details": _detail_json(self.details)}


def _detail_json(v):
    """A report detail as JSON: dicts with string keys (a tuple key as
    "m,n"), tuples and lists as lists, every other value as its str, so a
    Fraction reads "p/q"."""
    if isinstance(v, dict):
        return {(",".join(map(str, k)) if isinstance(k, tuple) else str(k)):
                _detail_json(x) for k, x in v.items()}
    if isinstance(v, (tuple, list)):
        return [_detail_json(x) for x in v]
    return str(v)


def validate_schema(build: BDBuild) -> Report:
    """Recheck every stored element against the element rule
    (``element_faults``), and its stored c* against ``BDBuild.cstar_of``."""
    rep = Report("schema")
    for n in sorted(build.stages):
        if not build.stages[n]:
            rep.violations.append(f"stage {n} is empty")
    for g in build.ids():
        e, n = build.elems[g], build.rank[g]
        rep.violations += [f"{g}: {f}" for f in element_faults(build, n, e)]
        if build.cstar_of(n, e) != build.cstar_table[g]:
            rep.violations.append(f"{g}: stored c* differs from recomputation")
        if n == 1 and build.cstar_table[g]:
            rep.violations.append(f"{g}: rank-1 element with nonzero c*")
    index: dict[int, list[int]] = {}
    for s in sorted(build.cstar_table):
        for t in build.cstar_table[s].support():
            index.setdefault(t, []).append(s)
    for t in sorted(index.keys() | build._cstar_rows.keys()):
        if index.get(t, []) != build._cstar_rows.get(t, []):
            rep.violations.append(
                f"c*-support index of {t} lists {build._cstar_rows.get(t, [])}"
                f", the c* table gives {index.get(t, [])}")
    return rep


def _split_weights(build: BDBuild):
    """(g, beta) for each type-1 element whose weight the weight split
    bounds: every one except where b* is a unit vector e*_eta with
    c*_eta = 0 (and then the projected b* has norm at most one)."""
    for g in build.ids():
        e = build.elems[g]
        if isinstance(e, Gamma1):
            sup = e.bstar.support()
            if not (len(sup) == 1 and e.bstar[sup[0]] == 1
                    and not build.cstar_table[sup[0]]):
                yield g, e.beta


def split_theta(build: BDBuild) -> Fraction:
    """theta*: the largest weight ``condition_weight_split`` bounds, so the
    split holds at theta exactly when theta >= theta*."""
    return max((b for _, b in _split_weights(build)), default=Fraction(0))


def condition_weight_split(build: BDBuild, theta) -> Report:
    """Each type-1 weight is <= theta unless its b* is exempt (see
    ``_split_weights``), for a theta < 1/2: no larger one bounds M."""
    theta = Fraction(theta)
    rep = Report("weight-split", details={"theta": theta})
    if not theta < Fraction(1, 2):
        rep.violations.append(f"theta = {theta} >= 1/2: no a priori M")
    for g, beta in _split_weights(build):
        if beta > theta:
            rep.violations.append(
                f"{g}: weight {beta} > theta without exempt b*")
    return rep


def compute_constants(build: BDBuild, theta) -> Report:
    """Exact C_n(theta), C_n, prefix projection norms, and the bounds tying
    them together.  Operator norms on l1 are exact column maxima."""
    theta = Fraction(theta)
    rep = Report("projection-norms", details={"theta": theta})
    N = build.max_rank()

    cn_theta: dict[int, Fraction] = {}
    cn: dict[int, Fraction] = {}
    vals = []  # (rank of gamma, max over m of beta ||P*_(k,m] b*||, beta)
    for g in build.ids():
        e = build.elems[g]
        if isinstance(e, Gamma1):
            n = build.rank[g]
            ladder = _l1_ladder(build, e.bstar, range(e.k + 1, n))
            vals.append((n, e.beta * max(ladder, default=Fraction(0)),
                         e.beta))
    for n in range(1, N + 1):
        cn_theta[n] = max((v for rk, v, b in vals if rk <= n and b > theta),
                          default=Fraction(0))
        cn[n] = max((v for rk, v, b in vals if rk <= n and b > 0),
                    default=Fraction(0))
        cap = max(2 * theta / (1 - 2 * theta), cn_theta[n])
        if cn[n] > cap:
            rep.violations.append(
                f"C_{n} = {cn[n]} exceeds max(2t/(1-2t), C_n(t)) = {cap}")

    prefix_norm = prefix_norms(build)
    for (m, n), val in prefix_norm.items():
        if val > 1 + cn[n]:
            rep.violations.append(
                f"||P*_[1,{m}]|_l1(Gamma_{n})|| = {val} > 1 + C_{n} "
                f"= {1 + cn[n]}")
    mbound = max(prefix_norm.values(), default=Fraction(0))
    rep.details.update({
        "C_n(theta)": cn_theta, "C_n": cn, "prefix_norms": prefix_norm,
        "M_computed": mbound, "M_bound_apriori": apriori_bound(theta),
    })
    return rep


def _l1_ladder(build: BDBuild, v: FinVec, ranks) -> list[Fraction]:
    """l1 of sum a_t d*_t over the t of the ranks seen so far, after each
    rank of ``ranks`` in turn, for a = to_d(v): one d-expansion of v gives
    the norms of its projections onto every prefix of ``ranks``.  Each
    d*_t = e*_t - c*_t is read off the c* table, for whatever ranks a
    reaches."""
    rank, table = build.rank, build.cstar_table
    by_rank: dict[int, list] = {}
    for t, at in build.bc.to_d(v).items():
        by_rank.setdefault(rank[t], []).append((t, at))
    acc: dict[int, Fraction] = {}
    l1, out = Fraction(0), []
    for r in ranks:
        for t, at in by_rank.get(r, ()):
            for i, w in [(t, at)] + [(i, -at * c) for i, c in table[t].items()]:
                old = acc.get(i, 0)
                acc[i] = new = old + w
                l1 += abs(new) - abs(old)
        out.append(l1)
    return out


def prefix_norms(build: BDBuild) -> dict[tuple[int, int], Fraction]:
    """||P*_[1,m]|_{l1(Gamma_n)}|| for 0 <= m < n <= N, as exact column
    maxima: the largest l1(P*_[1,m] e*_g) over g in Gamma_n, every m from
    one ``_l1_ladder`` of e*_g, and the maxima kept cumulatively in n."""
    N = build.max_rank()
    best = [Fraction(0)] * N  # best[m]: the largest over Gamma_n so far
    out = {}
    for n in range(1, N + 1):
        for g in build.stage(n):
            col = _l1_ladder(build, build.estar(g), range(1, N))
            best[1:] = map(max, best[1:], col)
        out.update(((m, n), best[m]) for m in range(n))
    return out


def apriori_bound(theta: Fraction) -> Fraction:
    """The a priori bound max(1/(1 - 2 theta), 2) on the decomposition
    constant of a build whose weight split holds at theta < 1/2."""
    if not theta < Fraction(1, 2):
        raise BuildError(f"no a priori bound at theta = {theta} >= 1/2")
    return max(1 / (1 - 2 * theta), Fraction(2))


def decomposition_constant(build: BDBuild) -> tuple[Fraction, Fraction | None]:
    """(theta*, M) of the build, the one place both are derived: theta* =
    ``split_theta`` and M = ``apriori_bound(theta*)``, or None when theta*
    >= 1/2 and no a priori bound applies."""
    theta = split_theta(build)
    return theta, apriori_bound(theta) if theta < Fraction(1, 2) else None


def row_l1_max(cols) -> Fraction:
    """Largest row l1 of the matrix with these columns: its exact norm as an
    operator between sup-normed spaces."""
    rows: dict[int, Fraction] = {}
    for col in cols:
        for g, v in col.items():
            rows[g] = rows.get(g, 0) + abs(v)
    return max(rows.values(), default=Fraction(0))


def verify_extension_isometry(build: BDBuild, m: int) -> Report:
    """J_m on sup-normed patterns on Delta_m is an isometry: R_m J_m = id
    (compat) gives ||J_m x|| >= ||x||, and the largest row l1 of the columns
    J_m e_t = d_t (compat), t in Delta_m, its exact norm there, is 1."""
    rep = Report(f"extension-isometry-{m}")
    stage = build.stage(m)
    if not stage:
        rep.violations.append(f"stage {m} empty")
        return rep
    norm = row_l1_max(build.synthesize({t: 1}) for t in stage)
    rep.details["norm"] = norm
    if norm != 1:
        rep.violations.append(f"||J_{m} on l_inf(Delta_{m})|| = {norm} != 1")
    return rep


def verify_extension_compatibility(build: BDBuild) -> Report:
    """R_m J_m = id and J_n R_n J_m = J_m for m <= n, for every x, from two
    checks on each element t: biorthogonality, dcoords(d_t) = e_t for
    d_t = synthesize({t: 1}), and the rank filter of ``apply_Jm``, J_m e_t =
    d_t for m = rank t.

    Write S = synthesize and, for x on Gamma_m, a = dcoords(x) and J_m x =
    S(a restricted to ranks <= m).  dcoords o S = id on the finite Gamma,
    so S is its two-sided inverse: S(a) = x.  On Gamma_m, S(b) reads b only
    on ranks <= m (c*_g reads lower ranks than g), so R_m J_m x = R_m S(a)
    = x.  For y = J_m x and m <= n, dcoords(y) = a restricted to ranks
    <= m, and <d*_s, y> for s of rank <= n reads y only on Gamma_n, so
    dcoords(R_n y) agrees with dcoords(y) on ranks <= n, and J_n R_n y =
    S(a restricted to ranks <= m) = y.  All maps are linear, so checks on
    the basis cover every x."""
    rep = Report("extension-compat")
    for t in build.ids():
        m = build.rank[t]
        dt = build.synthesize({t: 1})
        if build.dcoords(dt) != {t: 1}:
            rep.violations.append(f"dcoords(d_{t}) != e_{t}")
        if build.apply_Jm(build.estar(t), m) != dt:
            rep.violations.append(f"J_{m} e_{t} != d_{t}")
    return rep


def verify_analysis(build: BDBuild) -> Report:
    """Exact re-expansion of the analysis identity for every element."""
    rep = Report("analysis-identity")
    for g in build.ids():
        rec = build.analyze(g)
        if build.analysis_expansion(rec) != build.estar(g):
            rep.violations.append(f"{g}: analysis expansion differs from e*")
        if rec.cuts[-1] != build.rank[g]:
            rep.violations.append(f"{g}: final cut is not the rank")
        if list(rec.cuts) != sorted(set(rec.cuts)):
            rep.violations.append(f"{g}: cuts not strictly increasing")
    return rep


def verify_projection_idempotence(build: BDBuild) -> Report:
    """P*_(k,m]^2 = P*_(k,m] for every k < m: each is from_d o (keep ranks
    k+1 .. m) o to_d, so it is enough that to_d o from_d = id on a basis.
    On a rank-triangular table that is an identity: what this checks is
    the basis change's code."""
    rep = Report("projection-idempotence")
    for t in build.ids():
        e = build.estar(t)
        if build.bc.to_d(build.bc.from_d(e)) != e:
            rep.violations.append(f"to_d(from_d(e_{t})) != e_{t}")
    return rep


def _jn_norms(build: BDBuild) -> dict[int, Fraction]:
    """||J_n|| for every rank n: the largest row l1 of the columns J_n e_t =
    sum <d*_s, e_t> d_s over s of rank <= n, t in Gamma_n, each d_s made
    once and added in rank order, the row sums kept as entries change."""
    reads: dict[int, list] = {}  # s -> [(t, <d*_s, e_t>)], from dcoords(e_t)
    for t in build.ids():
        for s, a in build.dcoords(build.estar(t)).items():
            reads.setdefault(s, []).append((t, a))
    cols, rows, out = {}, {}, {}
    for n in sorted(build.stages):
        for s in build.stage(n):
            ds = build.synthesize({s: 1}).items()
            for t, a in reads.get(s, ()):
                col = cols.setdefault(t, {})
                for g, v in ds:
                    old = col.pop(g, 0)
                    new = old + a * v
                    if new:  # J_N e_t = e_t: most entries cancel on the way
                        col[g] = new
                    rows[g] = rows.get(g, 0) + abs(new) - abs(old)
        out[n] = max(rows.values(), default=Fraction(0))
    return out


def verify_dual_norms(build: BDBuild, mbound) -> Report:
    """Dual-norm banding ||y*||_* <= ||y*||_l1 <= M ||y*||_* on l1(Gamma_n).

    The upper end is trivial; the lower end pairs y* with J_n(sign y*)/M
    (R_n J_n = id), so it holds for all y* exactly when ||J_n|| <= M.  That
    norm is the largest row l1 of the columns J_n e_t, t in Gamma_n, and by
    duality max_g l1(P*_[1,n] e*_g); both are checked equal, so the largest
    ||J_n|| is the M_computed of ``compute_constants``.  The columns come
    from ``dcoords`` and ``synthesize`` (``_jn_norms``), the rows from ``to_d``.

    l1(P*_(m,n] y*) <= 2M^2 l1(y*) (from ||P_(m,n]|| <= 2M and the band) is
    a column bound, and P*_(m,n] e*_g = P*_(m,rank g] e*_g for m < rank g <=
    n: for each g, one ``_l1_ladder`` of e*_g over the ranks rank g, ..., 1
    gives every m < rank g and so covers every n.
    """
    mbound, N = Fraction(mbound), build.max_rank()
    prefix, jnorm = prefix_norms(build), _jn_norms(build)
    rep = Report("dual-norm-band", details={"M": mbound, "||J_n||": jnorm})
    for n, norm in jnorm.items():
        if norm > mbound:
            rep.violations.append(f"||J_{n}|| = {norm} exceeds M = {mbound}")
        if n < N and norm != prefix[(n, N)]:
            rep.violations.append(
                f"||J_{n}|| = {norm} != ||P*_[1,{n}]|| = {prefix[(n, N)]}")
    bound = 2 * mbound ** 2
    for g in build.ids():
        n = build.rank[g]
        ladder = _l1_ladder(build, build.estar(g), range(n, 0, -1))
        for m, l1 in enumerate(reversed(ladder)):  # P*_(m,n] e*_g
            if l1 > bound:
                rep.violations.append(
                    f"l1(P*_({m},{n}] e*_{g}) = {l1} exceeds "
                    f"2M^2 l1(y*) = {bound}")
    return rep
