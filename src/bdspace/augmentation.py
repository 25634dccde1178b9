"""Augmenting a built index set toward a space with 1-unconditional basis.

An augmentation adjoins new elements to the stages of a base build so that
the union is again a valid sequence of index sets.  Each new element carries
a *shadow* on the target space V, a prefix of one of V's norming trees, and
the cut set of the element is a spread of the shadow's piece minima.  An
element starts the prefix (type 0) or extends the one of an earlier element
xi (type 1, k = rank xi), by a signed leaf r v*_n (b* = r b from the dense
set, weight c c_V) or by a complete node eta (b* = e*_eta, weight c_V):

  (0,1)  (n, c c_V, r b)           (1,1)  (n, 1, k, xi, c c_V, r b)
  (0,2)  (n, c_V, e*_eta)          (1,2)  (n, 1, k, xi, c_V, e*_eta)

A carrier or a one-leaf lift adjoins the (0,1) element (n, c, r b) whose
shadow is r v*_n itself.  All go through ``AugmentedBuild._adjoin``.

Admission, in ``_adjoin``, asks that each new c*_g annihilate psi(X), the
blockwise reembedding of the base space: a leaf's b* joins the dense set
only if it annihilates psi(X), a node's b* = e*_eta reads a new coordinate,
and a type-1 c* is checked whole.  Then the synthesis gives psi x(g) =
<c*_g, psi x> = 0 at every new coordinate, so psi(X) never moves and
``AugmentedBuild.spanning``, the images of the seed's basis, is computed
once.  ``verify_augmentation`` asks the same of every element outside the
base, however it was adjoined.

The chain constructor lifts a dual coefficient functional w* = sum beta_n
v*_{q_n} (a member of V's norming set) into a single element gamma whose
projections reproduce prescribed block functionals exactly:

    P*_(p_n, q_n)(e*_gamma) = c beta_n z*_n   for every n,

provided the windows are separated by q_n + n < p_{n+1}.  Lower-estimate
certificates evaluate e*_gamma on a block combination exactly and compare
against the guaranteed constant, whose decomposition constant M is derived
from the merged build.  The distance from a block to psi(X) is reported as
an interval: its lower end is certified by an l1-normalized window
functional annihilating psi(X), its upper end is the exact l_inf distance
on the built coordinates, from one certified LP.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from . import lp
from .bdcore import (BDBuild, BuildError, Gamma0, Report, Verdict,
                     decomposition_constant, row_l1_max)
from .construction import EmbeddingBuild, embed_phi
from .decomp import WEIGHT_CAP
from .exact import FinVec
from .families import is_admissible, is_spread
from .tsirelson import (TsirelsonSpec, norming_functional, tree_support,
                        tree_vec)


def _enc(v: Fraction | None):
    """A rational as JSON: [numerator, denominator], or None."""
    return None if v is None else [v.numerator, v.denominator]


# ---------------------------------------------------------------------------
# V-side shadows
# ---------------------------------------------------------------------------

class VCode:
    def __init__(self, kind: str, payload: tuple):
        self.kind = kind          # "d0" | "pfx"
        self.payload = payload    # d0: ("leaf", sign, j); pfx: tuple of trees

    def trees(self) -> tuple:
        return (self.payload,) if self.kind == "d0" else self.payload

    def supports(self) -> list[tuple[int, ...]]:
        return [tuple(sorted(tree_support(t))) for t in self.trees()]

    def minima(self) -> tuple[int, ...]:
        return tuple(s[0] for s in self.supports())

    def max_support(self) -> int:
        return max(s[-1] for s in self.supports())


def vcode_admissible(vc: VCode, vspec: TsirelsonSpec) -> bool:
    try:
        return is_admissible(vc.supports(), vspec.family)
    except ValueError:  # the pieces are not successive
        return False


# ---------------------------------------------------------------------------
# dense-set registry
# ---------------------------------------------------------------------------

class BEntry:
    def __init__(self, vec: FinVec, k: int, n: int):
        self.vec, self.k, self.n = vec, k, n


class ThetaInfo:
    def __init__(self, klass: str, vcode: VCode):
        self.klass = klass    # "01" | "02" | "11" | "12"
        self.vcode = vcode


class AugmentedBuild:
    """Base build replayed into a larger universe, plus the new elements."""

    def __init__(self, base: EmbeddingBuild, vspec: TsirelsonSpec, c_aug):
        self.base = base
        self.vspec = vspec
        self.c_aug = Fraction(c_aug)
        if not (0 < self.c_aug <= WEIGHT_CAP):
            raise BuildError(
                f"augmentation weight must satisfy 0 < c <= {WEIGHT_CAP}")
        self.bd = BDBuild(base.bd.universe + ":aug")
        self.theta: dict[int, ThetaInfo] = {}
        self.bentries: list[BEntry] = []
        self._replay()
        self.spanning = [
            self.psi(self.to_merged(embed_phi(base, base.seed.basis_vector(i))))
            for i in range(1, base.seed.ncoords + 1)]

    # -- plumbing -----------------------------------------------------------

    def _replay(self):
        src = self.base.bd
        for g in src.ids():
            e = src.elems[g]
            bstar = self.to_merged(e.bstar)
            if isinstance(e, Gamma0):
                nid = self.bd.add_type0(src.rank[g], e.beta, bstar, e.free)
            else:
                nid = self.bd.add_type1(src.rank[g], e.alpha, e.k, e.xi,
                                        e.beta, bstar, e.free)
            if nid != g:
                raise BuildError("replay must preserve identifiers")
        self.base_ids = set(src.rank)

    def to_merged(self, v: FinVec) -> FinVec:
        return FinVec(self.bd.universe, dict(v.items()))

    def pi(self, z: FinVec) -> FinVec:
        return FinVec(self.base.bd.universe,
                      {i: val for i, val in z.items() if i in self.base_ids})

    # -- psi ---------------------------------------------------------------------

    def psi(self, x: FinVec) -> FinVec:
        """Blockwise reembedding of a base-span vector into the augmentation.

        x is given by its coordinates over the merged universe but supported
        on base indices.  Its rank-j base d*-coordinates u_j are a pattern on
        Delta_j, whose merged d*-coordinates of rank <= j are u_j itself
        (c*_t reads only ranks below rank t), so J_j u_j is the merged
        synthesis of u_j, and psi x, the sum of these, is the merged
        synthesis of the base d*-coordinates of x.
        """
        src = self.base.bd
        return self.bd.synthesize(
            src.dcoords(FinVec(src.universe, dict(x.items()))))

    # -- dense sets ------------------------------------------------------------------

    def register_b(self, k: int, n: int, vec: FinVec):
        """Register +-vec for the interval (k, n]: it must lie in the l1
        ball, be supported on ranks k+1..n and, projected to the interval,
        annihilate psi(X).  A frozen build takes no new members."""
        if self.bd.frozen:
            raise BuildError("build is frozen")
        if vec.l1() > 1:
            raise BuildError("dense-set member outside the l1 ball")
        for i in vec.support():
            if not (k < self.bd.rank[i] <= n):
                raise BuildError("dense-set member outside the interval span")
        proj = self.bd.project(vec, k, n)
        if any(proj.pair(sx) for sx in self.spanning):
            raise BuildError("dense-set member must annihilate psi(X)")
        self.bentries += [BEntry(vec, k, n), BEntry(-vec, k, n)]

    def dense_set_ledger(self) -> list[dict]:
        """The registry as JSON: each entry's interval and l1 norm."""
        return [{"interval": [b.k, b.n], "l1": _enc(b.vec.l1())}
                for b in self.bentries]

    # -- admission and the four classes ---------------------------------------------

    def _admission_ok(self, cstar: FinVec) -> tuple[bool, str]:
        for sx in self.spanning:
            v = cstar.pair(sx)
            if v:
                return False, f"c* does not annihilate psi(X): {v}"
        return True, ""

    def _adjoin(self, klass: str, rank: int, vcode: VCode, beta,
                bstar: FinVec, xi: int | None) -> int:
        """Adjoin one element of class ``klass``: check its shadow, register
        a leaf's b* in the dense set, admit a type-1 c* against psi(X), then
        append the element (type 1, alpha = 1, k = rank xi, when xi is
        given) and record its shadow."""
        if not vcode_admissible(vcode, self.vspec):
            raise BuildError("shadow tuple is not admissible")
        if vcode.max_support() > rank:
            raise BuildError("shadow support exceeds the stage index")
        k = 0 if xi is None else self.bd.rank[xi]
        if klass[1] == "1":
            self.register_b(k, rank - 1, bstar)
        if xi is None:
            g = self.bd.add_type0(rank, beta, bstar, free=(klass, rank))
        else:
            ok, why = self._admission_ok(
                self.bd.type1_cstar(rank, 1, xi, beta, bstar))
            if not ok:
                raise BuildError(
                    f"admission filter rejects the candidate: {why}")
            g = self.bd.add_type1(rank, 1, k, xi, beta, bstar,
                                  free=(klass, rank))
        self.theta[g] = ThetaInfo(klass, vcode)
        return g

    def _prefix(self, xi: int | None) -> tuple:
        """The shadow pieces that an element extending xi starts from."""
        if xi is None:
            return ()
        inf = self.theta.get(xi)
        if inf is None or inf.vcode.kind != "pfx":
            raise BuildError("xi must be a new element with a prefix shadow")
        return inf.vcode.payload

    def add_theta_01(self, rank: int, sign: int, bvec: FinVec) -> int:
        """(0,1) with the one-leaf shadow r v*_rank itself, r = sign: weight
        c and b* = r bvec, the element of a carrier or a one-leaf lift."""
        return self._adjoin("01", rank, VCode("d0", _leaf(sign, rank)),
                            self.c_aug, bvec.scale(sign), None)

    def add_leaf(self, rank: int, sign: int, bvec: FinVec,
                 xi: int | None) -> int:
        """Start a prefix shadow with the leaf r v*_rank, r = sign, as class
        (0,1) when xi is None, or extend xi's by it as class (1,1): weight
        c c_V and b* = r bvec."""
        vc = VCode("pfx", self._prefix(xi) + (_leaf(sign, rank),))
        return self._adjoin("01" if xi is None else "11", rank, vc,
                            self.vspec.c * self.c_aug, bvec.scale(sign), xi)

    def add_node(self, rank: int, eta: int, xi: int | None) -> int:
        """Start a prefix shadow with eta's complete decomposition as one
        node, as class (0,2) when xi is None, or extend xi's by it as class
        (1,2): weight c_V and b* = e*_eta."""
        inf = self.theta.get(eta)
        if inf is None or inf.vcode.kind != "pfx" or len(inf.vcode.payload) < 2:
            raise BuildError("eta must carry a complete multi-piece shadow")
        vc = VCode("pfx", self._prefix(xi) + (("node", inf.vcode.payload),))
        return self._adjoin("02" if xi is None else "12", rank, vc,
                            self.vspec.c, self.bd.estar(eta), xi)

    # -- carriers -------------------------------------------------------------------

    def make_carrier(self, rank: int) -> int:
        """A class-(0,1) element whose coordinate is far from psi(X).

        The dense-set vector is an exact kernel combination of earlier unit
        functionals (annihilating psi(X)), normalized into the ball.
        """
        earlier = [g for g in self.bd.ids() if self.bd.rank[g] <= rank - 1]
        if not earlier:
            raise BuildError("no earlier coordinates to build from")
        rows = [[ (self.bd.estar(g)).pair(sx) for g in earlier]
                for sx in self.spanning]
        vec = _kernel_vector(rows, len(earlier))
        if vec is None:
            raise BuildError("no annihilating combination available")
        b = FinVec(self.bd.universe, dict(zip(earlier, vec)))
        b = b.scale(1 / b.l1())
        return self.add_theta_01(rank, 1, b)

    def carrier_block(self, g: int) -> FinVec:
        """The unit vector of the carrier's coordinate, extended to the top."""
        pattern = FinVec(self.bd.universe, {g: 1})
        return self.bd.apply_Jm(pattern, self.bd.rank[g])


def _leaf(sign: int, rank: int) -> tuple:
    """The shadow piece r v*_rank, r = sign = +-1."""
    if sign not in (1, -1):
        raise BuildError("sign must be +-1")
    return ("leaf", sign, rank)


def _kernel_vector(rows: list[list[Fraction]], n: int) -> list[Fraction] | None:
    """A nonzero rational solution of rows . x = 0 (Gaussian elimination)."""
    m = len(rows)
    A = [[Fraction(v) for v in r] for r in rows]
    piv_cols = []
    r = 0
    for c in range(n):
        p = next((i for i in range(r, m) if A[i][c]), None)
        if p is None:
            continue
        A[r], A[p] = A[p], A[r]
        A[r] = [v / A[r][c] for v in A[r]]
        for i in range(m):
            if i != r and A[i][c]:
                f = A[i][c]
                A[i] = [a - f * b for a, b in zip(A[i], A[r])]
        piv_cols.append(c)
        r += 1
        if r == m:
            break
    free = [c for c in range(n) if c not in piv_cols]
    if not free:
        return None
    x = [Fraction(0)] * n
    x[free[0]] = Fraction(1)
    for i, c in enumerate(piv_cols):
        x[c] = -A[i][free[0]]
    return x


# ---------------------------------------------------------------------------
# the chain constructor
# ---------------------------------------------------------------------------

class Window:
    def __init__(self, p: int, q: int, bvec: FinVec, zstar: FinVec):
        self.p, self.q = p, q
        self.bvec = bvec    # dense-set member, unit-vector support in (p, q-1]
        self.zstar = zstar  # its projection onto the open window, inside it


def lift_dual_functional(aug: AugmentedBuild, wtree,
                         windows: dict[int, Window]) -> int:
    """Build the element whose interval projections realize c beta_n z*_n.

    ``wtree`` is a norming-set tree over V supported on window coordinates
    q; ``windows[q]`` holds the interval and the block functional.  The
    windows must be separated: q_n + n < p_{n+1} in the order of use.
    """
    ws = sorted(windows)
    for i in range(len(ws) - 1):
        if windows[ws[i]].q + (i + 1) >= windows[ws[i + 1]].p:
            raise BuildError(
                f"windows too close: q_{i + 1} + {i + 1} >= p_{i + 2}")
    for q, w in windows.items():
        if w.q != q:
            raise BuildError("window key must be its upper index")
        if w.bvec.l1() > 1:
            raise BuildError(f"window {q}: dense-set member outside the ball")
        for i in w.bvec.support():
            if not (w.p < aug.bd.rank[i] <= w.q - 1):
                raise BuildError(f"window {q}: b* support outside (p, q-1]")
        if aug.bd.project(w.bvec, w.p, w.q - 1) != w.zstar:
            raise BuildError(f"window {q}: z* is not the projection of b*")

    def lift(tree) -> int:
        if tree[0] == "leaf":
            _, sign, q = tree
            return aug.add_theta_01(q, sign, windows[q].bvec)
        children = tree[1]
        assert len(children) >= 2
        prev = None
        for j, ch in enumerate(children):
            if ch[0] == "leaf":
                _, sign, q = ch
                prev = aug.add_leaf(q, sign, windows[q].bvec, prev)
                continue
            eta = lift(ch)
            if j == 0:
                rank = windows[min(tree_support(children[1]))].p
            else:
                leaves = tree_support(ch)
                rank = windows[max(leaves)].q + len(leaves) + 1
            prev = aug.add_node(rank, eta, prev)
        return prev

    g = lift(wtree)
    lift = None  # it refers to itself: release aug now, not at a GC pass
    return g


def verify_lift_identities(aug: AugmentedBuild, g: int, wtree,
                           windows: dict[int, Window]) -> Report:
    """Exact re-verification of the defining identities of the lift."""
    rep = Report("lift-identities")
    betas = tree_vec(wtree, aug.vspec)  # beta_n: the tree functional at v_n
    e = aug.bd.estar(g)
    for q, beta in betas.items():
        w = windows[q]
        if aug.bd.project(e, w.p, w.q - 1) != w.zstar.scale(aug.c_aug * beta):
            rep.violations.append(
                f"window {q}: P*(e*) != c beta z* (beta = {beta})")
    ok, why = aug._admission_ok(aug.bd.cstar(g))
    if not ok:  # psi x(g) = <c*_g, psi x> must vanish
        rep.violations.append(f"{g}: {why}")
    return rep


# ---------------------------------------------------------------------------
# verification of a whole augmentation
# ---------------------------------------------------------------------------

def verify_augmentation(aug: AugmentedBuild) -> Report:
    rep = Report("augmentation")
    bd = aug.bd
    # every element outside the base annihilates psi(X): by induction in
    # rank order, psi x(g) = <c*_g, psi x> = 0, so psi(X) is aug.spanning
    for g in bd.ids():
        if g not in aug.base_ids:
            ok, why = aug._admission_ok(bd.cstar(g))
            if not ok:
                rep.violations.append(f"{g}: {why}")
    # shadows: admissible, rank-bounded, and cut sets spread the minima
    for g, inf in sorted(aug.theta.items()):
        vc = inf.vcode
        if not vcode_admissible(vc, aug.vspec):
            rep.violations.append(f"{g}: inadmissible shadow")
        if vc.max_support() > bd.rank[g]:
            rep.violations.append(f"{g}: shadow support exceeds the rank")
        cuts = bd.cuts(g)
        if not is_spread(vc.minima(), cuts):
            rep.violations.append(
                f"{g}: cuts {cuts} are not a spread of {vc.minima()}")
        e = bd.elems[g]
        if inf.klass in ("01", "11"):
            if e.beta not in (aug.c_aug, aug.c_aug * aug.vspec.c):
                rep.violations.append(f"{g}: unexpected weight {e.beta}")
        else:
            if e.beta > aug.vspec.c:
                rep.violations.append(
                    f"{g}: piece scalar {e.beta} above the V weight")
    # psi is isometric on each block: psi(J_j u) agrees with J_j u (norm
    # ||u||) on base coordinates, and the columns psi(J_j e_t), J_j e_t = d_t
    # (compat), t in Delta_j, have row l1 <= 1, so ||psi(J_j u)|| = ||u||;
    # pi o psi = id on these columns, so on the whole base space by linearity
    src = aug.base.bd
    for j in sorted(src.stages):
        cols = [src.synthesize({t: 1}) for t in src.stage(j)]
        images = [aug.psi(aug.to_merged(x)) for x in cols]
        if (any(aug.pi(y) != x for x, y in zip(cols, images))
                or row_l1_max(images) > 1):
            rep.violations.append(f"psi not isometric on a stage-{j} pattern")
    return rep


# ---------------------------------------------------------------------------
# lower-estimate certificates
# ---------------------------------------------------------------------------

class DistanceInterval:
    def __init__(self, lower: Fraction, upper: Fraction, witness: FinVec):
        self.lower = lower      # certified: witnessed by an annihilating f
        self.upper = upper      # exact: the distance on the built coordinates
        self.witness = witness


class LowerEstimateCertificate:
    def __init__(self, status: Verdict, gamma: int | None = None,
                 exact_value: Fraction | None = None,
                 bound: Fraction | None = None,
                 delta0: DistanceInterval | None = None,
                 betas: tuple | None = None, detail: str = "",
                 theta_star: Fraction | None = None,
                 m_bound: Fraction | None = None):
        self.status = status              # PASS, FAIL or INCONCLUSIVE
        self.gamma = gamma
        self.exact_value = exact_value
        self.bound = bound
        self.delta0 = delta0
        self.betas = betas
        self.detail = detail
        self.theta_star = theta_star      # the merged build's split theta
        self.m_bound = m_bound            # apriori_bound(theta_star)

    def to_json_obj(self) -> dict:
        return {
            "status": self.status,
            "gamma": self.gamma,
            "exact_value": _enc(self.exact_value),
            "bound": _enc(self.bound),
            "delta0": None if self.delta0 is None else
                [_enc(self.delta0.lower), _enc(self.delta0.upper)],
            "detail": self.detail,
            "theta_star": _enc(self.theta_star),
            "M": _enc(self.m_bound),
        }


def _annihilating_witness(aug: AugmentedBuild, p: int, q: int,
                          z: FinVec) -> tuple[Fraction, FinVec, FinVec]:
    """Best block functional for the window (p, q) pairing with z.

    Maximizes f(z) over f = sum a_g d*_g with d-support strictly inside the
    window, subject to the full l1 weight of f's unit-vector coordinates
    being at most one (so both f and its interval representative lie in the
    dual ball) and the representative annihilating every spanning vector.
    The spanning vectors are single-block, so every interval projection of
    the representative, f among them, then annihilates psi(X); that f does
    is checked.  So f is feasible for the LP of ``_hull_distance`` and, by
    weak duality, its value is a certified lower bound for the distance
    from z to psi(X).  Returns (value, representative b*,
    its window projection z* = f).
    """
    bd = aug.bd
    span = [g for g in bd.ids() if p < bd.rank[g] < q]
    if not span:
        raise BuildError(f"no coordinates strictly inside ({p}, {q})")
    dvecs = [bd.dstar(g) for g in span]
    coords = sorted({i for v in dvecs for i in v.support()})
    inside = lambda i: p < bd.rank[i] <= q - 1  # noqa: E731
    zeros = [Fraction(0)] * len(coords)

    def row(vals, t):
        # variables: a_g split +-, then t_i, the l1 majorants of f's
        # coordinates, with coefficients t
        return [w for v in vals for w in (v, -v)] + t
    obj = row((d.pair(z) for d in dvecs), zeros)
    A_ub, b_ub = [], []
    for r in range(len(coords)):
        t = [Fraction(-1) if k == r else Fraction(0)
             for k in range(len(coords))]
        col = [d[coords[r]] for d in dvecs]
        A_ub += [row(col, t), row((-v for v in col), t)]
        b_ub += [Fraction(0), Fraction(0)]
    A_ub.append(row([Fraction(0)] * len(span), [Fraction(1)] * len(coords)))
    b_ub.append(Fraction(1))
    # the representative, the restriction of f to the window, pairs to
    # zero with every spanning vector
    reps = [d.restrict(inside) for d in dvecs]
    A_eq = [row((r.pair(sx) for r in reps), zeros) for sx in aug.spanning]
    b_eq = [Fraction(0)] * len(A_eq)
    val, sol, _ = lp.maximize(obj, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq)
    f = FinVec(bd.universe)
    for j, d in enumerate(dvecs):
        if sol[2 * j] != sol[2 * j + 1]:
            f = f + d.scale(sol[2 * j] - sol[2 * j + 1])
    if any(f.pair(sx) for sx in aug.spanning):
        raise BuildError(
            f"window ({p}, {q}) witness does not annihilate psi(X)")
    return val, f.restrict(inside), f


def _hull_distance(aug: AugmentedBuild, z: FinVec) -> Fraction:
    """The exact l_inf distance from z to span psi(X) on the built
    coordinates (the upper end of the interval), as one certified LP:

        maximize f(z)  subject to  l1(f) <= 1,  f(s) = 0 for every s in
        aug.spanning,

    with f = f+ - f- on the coordinates C of z and of the spanning vectors;
    off C neither z nor any combination has mass.  This is the LP dual of

        minimize t  subject to  |z_i - sum_j a_j s_j(i)| <= t  for i in C

    (t pairs with the l1 row, each free a_j with an annihilation row), so
    by LP duality its value is min over a of ||z - sum_j a_j s_j||_inf, the
    distance itself.  The window witness of ``_annihilating_witness`` has
    l1 norm at most one and annihilates psi(X), so it is feasible here, and
    by weak duality the certified lower end never exceeds this value."""
    span = aug.spanning
    coords = sorted({*z.support(), *(i for s in span for i in s.support())})
    obj = [v for i in coords for v in (z[i], -z[i])]
    A_ub, b_ub = [[Fraction(1)] * len(obj)], [Fraction(1)]
    A_eq = [[v for i in coords for v in (s[i], -s[i])] for s in span]
    b_eq = [Fraction(0)] * len(span)
    return lp.maximize(obj, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq)[0]


def certify_lower_estimate(aug: AugmentedBuild, blocks: Sequence[FinVec]
                           ) -> LowerEstimateCertificate:
    """Certify that a separated normalized block sequence dominates the
    corresponding target basis vectors at the guaranteed constant.

    Builds annihilating block functionals exactly, realizes a norming
    coefficient functional of the target combination through the chain
    constructor, and compares the exact pairing against

        c (1 - eps) delta_0' / (2 M) * || sum_j v_{q_j} ||,

    with (theta*, M) from ``bdcore.decomposition_constant`` on the merged
    build after the lift; both go into the certificate.  When theta* >= 1/2 no a
    priori M exists and the certificate is INCONCLUSIVE.

    Blocks must carry their values on every currently built coordinate.
    Each block's d*-coordinates are taken before the lift and their sum is
    synthesized once after it, over the grown build (see ``bdcore``).
    """
    bd = aug.bd
    coords = [bd.dcoords(z) for z in blocks]
    sup = [sorted({bd.rank[t] for t in a}) for a in coords]
    for s in sup:
        if not s:
            return LowerEstimateCertificate(Verdict.INCONCLUSIVE,
                                            detail="empty block")
    for n, (a, b) in enumerate(zip(sup, sup[1:]), start=1):
        if a[-1] + n + 2 >= b[0]:
            raise BuildError("blocks violate the separation condition")
    ps = [s[0] - 1 for s in sup]
    qs = [s[-1] + 1 for s in sup]

    witnesses = []
    vals = []
    for z, p, q in zip(blocks, ps, qs):
        v, bvec, f = _annihilating_witness(aug, p, q, z)
        if v <= 0:
            return LowerEstimateCertificate(Verdict.INCONCLUSIVE, detail=(
                "block indistinguishable from psi(X): distance lower bound 0"))
        witnesses.append((bvec, f))
        vals.append(v)
    delta_lower = min(vals)
    delta_upper = min(_hull_distance(aug, z) for z in blocks)
    d0 = DistanceInterval(delta_lower, delta_upper,
                          witnesses[vals.index(delta_lower)][1])

    target = FinVec("nat", {q: 1 for q in qs})
    vnorm, wtree, betas = norming_functional(target, aug.vspec)

    windows = {}
    for z, p, q, (bvec, f) in zip(blocks, ps, qs, witnesses):
        if q in betas:
            windows[q] = Window(p, q, bvec, f)
    g = lift_dual_functional(aug, wtree, windows)

    # the lift enlarged the coordinate system: the sum of the blocks is
    # the synthesis of their d*-coordinates over it
    total: dict[int, Fraction] = {}
    for a in coords:
        for t, v in a.items():
            total[t] = total.get(t, 0) + v
    exact = bd.synthesize(total)[g]
    cross = sum((aug.c_aug * betas[q] * windows[q].zstar.pair(z)
                 for z, q in zip(blocks, qs) if q in windows),
                Fraction(0))
    theta_star, m = decomposition_constant(aug.bd)
    bound, detail = None, ""
    if m is not None:
        eps = aug.base.seed.eps
        d0p = delta_lower / (1 + eps)
        bound = aug.c_aug * (1 - eps) * d0p / (2 * m) * vnorm
    if exact != cross:
        status = Verdict.FAIL
        detail = f"pairing expansion mismatch: {exact} vs {cross}"
    elif m is None:
        status = Verdict.INCONCLUSIVE
        detail = (f"weight split fails at every theta < 1/2 (theta* = "
                  f"{theta_star}): no a priori M")
    else:
        status = Verdict.PASS if exact >= bound else Verdict.FAIL
    return LowerEstimateCertificate(status, g, exact, bound, d0,
                                    tuple(betas.items()), detail, theta_star,
                                    m)
