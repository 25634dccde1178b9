"""Independent oracles the tests check the library against.

These deliberately avoid the library's algorithmic shortcuts: membership
follows the defining recursion of the regular families (every chunk split,
every approximant at limits), the Tsirelson oracle enumerates arbitrary
successive block subsets (not only interval runs), the split oracle runs
the depth-first search over breakpoint sets that the library's dynamic
program replaced, the triangular-solve oracle runs dense Gaussian
elimination, the extension-operator oracles apply the defining formulas of
J_m, the FDD components and psi to d-coordinates from that dense solve, the
d*-coordinate oracle scans the whole c* table, the hull-distance oracle
solves the primal LP over every built coordinate where the library solves
its dual on the supports, the dual-norm oracle enumerates polytope
vertices, the LP oracle pivots a ``Fraction`` tableau where the library
keeps integer rows, and the V*-norm oracle solves one LP over every
plus-tree inside the support where the library adds priced columns one
at a time.  Values computed here are exact.
"""

from __future__ import annotations

import itertools
import weakref
from fractions import Fraction

from bdspace.exact import FinVec
from bdspace.lp import Infeasible, Unbounded
from bdspace.tsirelson import build_dual_norming_set, tsirelson_norm

_member_memo: dict = {}    # (family, F) -> bool
_schreier_memo: dict = {}  # (cnf, F) -> bool
_chunks_memo: dict = {}    # (cnf, F) -> fewest chunks


def bf_member(F, family) -> bool:
    """Membership by the definitions in ``bdspace.families``, memoized.

    Schreier successors try every cut into consecutive chunks, limits try
    every approximant n <= min F, explicit families every subset of every
    listed set, and ``singleton_plus_pair`` every point and 2-coloring.
    """
    F = tuple(sorted(set(F)))
    key = (family, F)
    got = _member_memo.get(key)
    if got is None:
        got = _member_memo[key] = _bf_member(F, family)
    return got


def _bf_member(F: tuple, family) -> bool:
    if not F:
        return True
    kind, payload = family.kind, family.payload
    if kind == "schreier":
        return _bf_schreier(payload, F)
    if kind == "union":
        return any(bf_member(F, f) for f in payload)
    if kind == "explicit":
        return len(F) == 1 or any(
            all(a <= f for a, f in zip(B, F)) for A in payload
            for B in itertools.combinations(sorted(A), len(F)))
    if kind == "pairplus":
        for x in F:
            rest = [y for y in F if y != x]
            for colors in itertools.product((0, 1), repeat=len(rest)):
                parts = ([y for y, k in zip(rest, colors) if k == side]
                         for side in (0, 1))
                if all(bf_member(B, payload) for B in parts):
                    return True
        return False
    raise ValueError(f"unknown family kind {kind!r}")


def _bf_schreier(cnf: tuple, F: tuple) -> bool:
    key = (cnf, F)
    got = _schreier_memo.get(key)
    if got is not None:
        return got
    if not cnf:  # S_0
        got = len(F) <= 1
    elif cnf[-1][0] == 0:  # successor: at most min F chunks in S_pred
        m = cnf[-1][1]
        pred = cnf[:-1] + (((0, m - 1),) if m > 1 else ())
        got = _bf_chunks(pred, F) <= F[0]
    else:  # limit lambda = mu + omega^k: some n <= min F
        k, m = cnf[-1]
        mu = cnf[:-1] + (((k, m - 1),) if m > 1 else ())
        got = any(_bf_schreier(mu + ((k - 1, n),), F)
                  for n in range(1, F[0] + 1))
    _schreier_memo[key] = got
    return got


def _bf_chunks(pred: tuple, F: tuple) -> int:
    """Fewest consecutive chunks in S_pred covering F (len(F) + 1 if none)."""
    key = (pred, F)
    got = _chunks_memo.get(key)
    if got is None:
        got = 0 if not F else min(
            (1 + _bf_chunks(pred, F[j:]) for j in range(1, len(F) + 1)
             if _bf_schreier(pred, F[:j])), default=len(F) + 1)
        _chunks_memo[key] = got
    return got


def bf_tsirelson(items: tuple, family, c: Fraction, memo: dict) -> Fraction:
    """Brute-force maximization over all admissible partition trees.

    ``items`` is a sorted tuple of (coordinate, magnitude) pairs; partition
    tree values depend only on the magnitudes (leaves contribute absolute
    values, inner nodes nonnegative sums), so callers canonicalize signs.
    Blocks range over arbitrary successive subsets of the support: a covered
    subset is chosen and then cut into consecutive runs.
    """
    got = memo.get(items)
    if got is not None:
        return got
    best = max((v for _, v in items), default=Fraction(0))
    n = len(items)
    full = tuple(range(n))
    for size in range(1, n + 1):
        for T in itertools.combinations(range(n), size):
            # cut T into consecutive runs: breakpoints after any gap position
            for mask in range(1 << (size - 1)) if size > 1 else (0,):
                if T == full and mask == 0:
                    continue  # the trivial single block of everything
                parts = [[T[0]]]
                for i in range(1, size):
                    if mask >> (i - 1) & 1:
                        parts.append([T[i]])
                    else:
                        parts[-1].append(T[i])
                minima = [items[p[0]][0] for p in parts]
                if not bf_member(minima, family):
                    continue
                total = Fraction(0)
                for p in parts:
                    sub = tuple(items[i] for i in p)
                    total += bf_tsirelson(sub, family, c, memo)
                val = c * total
                if val > best:
                    best = val
    memo[items] = best
    return best


def bf_best_split(items: tuple, spec) -> tuple:
    """(norm, breakpoints) by depth-first search over breakpoint sets.

    The breakpoints are the positions in ``items`` where the blocks of the
    first optimal split in preorder start, or None when no split beats the
    sup norm.  Blocks run from one breakpoint to just before the next; their
    norms come from the library.
    """
    best = max((v for _, v in items), default=Fraction(0))
    best_split = None
    n = len(items)

    def extend(chosen: list, minima: list):
        nonlocal best, best_split
        for s in range(chosen[-1] + 1 if chosen else 0, n):
            if not bf_member(minima + [items[s][0]], spec.family):
                continue
            chosen.append(s)
            minima.append(items[s][0])
            if len(chosen) >= 2:
                val = spec.c * sum(
                    (tsirelson_norm(dict(items[a:b]), spec)
                     for a, b in zip(chosen, chosen[1:] + [n])), Fraction(0))
                if val > best:
                    best, best_split = val, tuple(chosen)
            extend(chosen, minima)
            chosen.pop()
            minima.pop()

    extend([], [])
    return best, best_split


def dense_unitriangular_solve(order: list, cstar_rows: dict, target: dict
                              ) -> dict:
    """Solve sum a_g d_g = target by dense elimination, d_g = e_g - c_g.

    ``order`` lists indices in a rank-compatible total order; rows are the
    correction vectors in unit-vector coordinates.
    """
    n = len(order)
    pos = {g: i for i, g in enumerate(order)}
    # column j holds the coordinates of d_{order[j]}
    M = [[Fraction(0)] * n for _ in range(n)]
    for j, g in enumerate(order):
        M[pos[g]][j] += 1
        for i, v in cstar_rows[g].items():
            M[pos[i]][j] -= v
    b = [Fraction(0)] * n
    for i, v in target.items():
        b[pos[i]] = Fraction(v)
    a = [Fraction(0)] * n
    for j in range(n - 1, -1, -1):
        aj = b[pos[order[j]]] / M[pos[order[j]]][j]
        a[j] = aj
        if aj:
            for i in range(n):
                if M[i][j]:
                    b[i] -= M[i][j] * aj
    return {order[j]: a[j] for j in range(n) if a[j]}



# build -> (size, {g: d-coordinates of e*_g}); an entry goes with its build
_estar_memo: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def bf_estar_dcoords(bd) -> dict:
    """{g: a} with e*_g = sum_t a_t d*_t for every element of a build, by
    dense elimination over its stored c* table (memoized per build size)."""
    size, got = _estar_memo.get(bd, (None, None))
    if size != len(bd.rank):
        order = sorted(bd.rank, key=lambda g: (bd.rank[g], g))
        got = {g: dense_unitriangular_solve(order, bd.cstar_table, {g: 1})
               for g in order}
        _estar_memo[bd] = (len(bd.rank), got)
    return got


def bf_dcoords(bd, x) -> dict:
    """The nonzero <d*_t, x> = x(t) - <c*_t, x>, scanning every row of the
    c* table in its (id) order."""
    out = {}
    for t, cs in bd.cstar_table.items():
        v = x[t] - cs.pair(x)
        if v:
            out[t] = v
    return out


def bf_project_estar(bd, g, k: int, m: int):
    """P*_(k,m] e*_g = sum over k < rank t <= m of a_t (e*_t - c*_t), with
    a the dense d*-coordinates of e*_g."""
    f: dict = {}
    for t, at in bf_estar_dcoords(bd)[g].items():
        if k < bd.rank[t] <= m:
            f[t] = f.get(t, 0) + at
            for i, c in bd.cstar_table[t].items():
                f[i] = f.get(i, 0) - at * c
    return FinVec(bd.universe, f)


def bf_apply_Jm(bd, x, m: int):
    """(J_m x)(g) = <P*_[1,m] e*_g, x> for every g of the build."""
    return FinVec(bd.universe, {g: bf_project_estar(bd, g, 0, m).pair(x)
                                for g in bf_estar_dcoords(bd)})


def bf_block_component(bd, x, j: int):
    """The j-th FDD component J_j R_j x - J_{j-1} R_{j-1} x."""
    rj = x.restrict(lambda i: bd.rank[i] <= j)
    rj1 = x.restrict(lambda i: bd.rank[i] <= j - 1)
    return bf_apply_Jm(bd, rj, j) - bf_apply_Jm(bd, rj1, j - 1)


def bf_psi(aug, x):
    """psi of a base-span vector as the per-block loop: each base component
    restricted to its base stage, extended by J_j of the merged build."""
    src, bd = aug.base.bd, aug.bd
    out = FinVec(bd.universe)
    for j in sorted(src.stages):
        comp = bf_block_component(src, x, j)
        u = FinVec(bd.universe, {i: v for i, v in comp.items()
                                 if src.rank[i] == j})
        out = out + bf_apply_Jm(bd, u, j)
    return out


def bf_hull_distance(aug, z):
    """min over a of ||z - sum_j a_j sx_j||_inf over every spanning vector,
    as the primal LP: with t = ||z||_inf - u, maximize u subject to
    |z_i - sum_j a_j sx_j(i)| <= t on every built coordinate i, each
    a_j = a+_j - a-_j (a = 0, u = 0 is feasible, so every right side is at
    least 0), solved by ``bf_maximize``."""
    span, top = aug.spanning, z.linf()
    A_ub, b_ub = [], []
    for i in aug.bd.ids():
        row = [Fraction(1)]
        for sx in span:
            row += [-sx[i], sx[i]]
        A_ub += [row, [row[0]] + [-v for v in row[1:]]]
        b_ub += [top - z[i], top + z[i]]
    c = [Fraction(1)] + [Fraction(0)] * (2 * len(span))
    return top - bf_maximize(c, A_ub=A_ub, b_ub=b_ub)[0]


def count_schreier1(n: int) -> int:
    """|{F in S_1 : F subset of [1, n]}| by direct enumeration."""
    count = 1  # empty set
    for size in range(1, n + 1):
        for F in itertools.combinations(range(1, n + 1), size):
            if len(F) <= F[0]:
                count += 1
    return count


def polytope_vertices(constraints: list[list[Fraction]], dim: int
                      ) -> list[list[Fraction]]:
    """Vertices of { x : |a . x| <= 1 for each constraint row }."""
    rows = []
    for a in constraints:
        rows.append(([Fraction(v) for v in a], Fraction(1)))
        rows.append(([-Fraction(v) for v in a], Fraction(1)))
    verts = []
    for combo in itertools.combinations(range(len(rows)), dim):
        A = [rows[i][0][:] for i in combo]
        b = [rows[i][1] for i in combo]
        x = _solve_square(A, b)
        if x is None:
            continue
        if all(sum(c * v for c, v in zip(r, x)) <= bb + 0
               for r, bb in rows):
            if x not in verts:
                verts.append(x)
    return verts


def _solve_square(A, b):
    n = len(A)
    M = [row[:] + [bb] for row, bb in zip(A, b)]
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col]), None)
        if piv is None:
            return None
        M[col], M[piv] = M[piv], M[col]
        inv = Fraction(1) / M[col][col]
        M[col] = [v * inv for v in M[col]]
        for r in range(n):
            if r != col and M[r][col]:
                f = M[r][col]
                M[r] = [v - f * w for v, w in zip(M[r], M[col])]
    return [M[r][n] for r in range(n)]


def _bf_pivot(T, basis, row, col):
    piv = T[row][col]
    inv = Fraction(1) / piv
    T[row] = [v * inv for v in T[row]]
    for r, line in enumerate(T):
        if r != row and line[col]:
            f = line[col]
            prow = T[row]
            T[r] = [a - f * b for a, b in zip(line, prow)]
    basis[row] = col


def _bf_simplex(T, basis, ncols):
    """Maximize with objective in the last row; Bland's rule throughout."""
    m = len(T) - 1
    while True:
        obj = T[-1]
        col = next((j for j in range(ncols) if obj[j] > 0), None)
        if col is None:
            return
        best = None
        for r in range(m):
            a = T[r][col]
            if a > 0:
                ratio = T[r][-1] / a
                if best is None or ratio < best[0] or (
                        ratio == best[0] and basis[r] < basis[best[1]]):
                    best = (ratio, r)
        if best is None:
            raise Unbounded()
        _bf_pivot(T, basis, best[1], col)


def bf_maximize(c: Sequence, A_ub=(), b_ub=(), A_eq=(), b_eq=()):
    """``lp.maximize`` as a two-phase simplex in ``Fraction`` arithmetic:
    the same columns, Bland's rule and dual read-off, so it returns the
    same (value, x, y) or raises the same exception."""
    c = [Fraction(v) for v in c]
    n = len(c)
    rows = []
    slack_count = len(A_ub)
    for a, b in zip(A_ub, b_ub):
        rows.append(([Fraction(v) for v in a], Fraction(b), "ub"))
    for a, b in zip(A_eq, b_eq):
        rows.append(([Fraction(v) for v in a], Fraction(b), "eq"))
    m = len(rows)

    # columns: n structural, slack_count slacks, m artificials, rhs
    ncols = n + slack_count + m
    T = []
    basis = []
    flipped = []
    si = 0
    for r, (a, b, kind) in enumerate(rows):
        flipped.append(b < 0)
        if b < 0:
            a = [-v for v in a]
            b = -b
            kind = "eq" if kind == "eq" else "lb"  # flipped <= becomes >=
        line = a + [Fraction(0)] * (slack_count + m) + [b]
        if kind == "ub":
            line[n + si] = Fraction(1)
            si += 1
        elif kind == "lb":
            line[n + si] = Fraction(-1)
            si += 1
        line[n + slack_count + r] = Fraction(1)
        T.append(line)
        basis.append(n + slack_count + r)

    # phase 1: minimize sum of artificials
    obj = [Fraction(0)] * (ncols + 1)
    for r in range(m):
        for j in range(ncols + 1):
            obj[j] += T[r][j]
    for j in range(n + slack_count, ncols):
        obj[j] = Fraction(0)
    T.append(obj)
    _bf_simplex(T, basis, n + slack_count)
    if T[-1][-1] != 0:
        raise Infeasible()
    T.pop()

    # drive artificials out of the basis where possible
    for r in range(m):
        if basis[r] >= n + slack_count:
            col = next((j for j in range(n + slack_count) if T[r][j] != 0), None)
            if col is not None:
                _bf_pivot(T, basis, r, col)

    # phase 2
    obj = [Fraction(0)] * (ncols + 1)
    for j in range(n):
        obj[j] = c[j]
    # reduced costs must be zero on all basic columns
    for r in range(m):
        if obj[basis[r]]:
            f = obj[basis[r]]
            obj = [a - f * b for a, b in zip(obj, T[r])]
    T.append(obj)
    _bf_simplex(T, basis, n + slack_count)

    x = [Fraction(0)] * n
    for r in range(m):
        if basis[r] < n:
            x[basis[r]] = T[r][-1]
    value = sum(ci * xi for ci, xi in zip(c, x))
    # Artificial column r starts as the unit vector of (possibly negated)
    # row r at cost 0, so its final reduced cost is -(c_B B^-1)_r; the
    # dual of the original row undoes the negation.
    obj, art = T[-1], n + slack_count
    y = [obj[art + r] if flipped[r] else -obj[art + r] for r in range(m)]
    return value, x, y


def bf_vstar_norm(coeffs: dict, spec) -> Fraction:
    """The dual Tsirelson norm of sum_q a_q v*_q, a_q >= 0, as one LP: the
    max of a.x over x >= 0 on Q = supp a under f.x <= 1 for every all-plus
    tree functional f of ``build_dual_norming_set`` with support inside Q,
    solved by ``bf_maximize``."""
    Q = sorted(q for q, v in coeffs.items() if v)
    if not Q:
        return Fraction(0)
    trees = build_dual_norming_set(spec, Q[-1], Q[-1], signs=(1,))
    rows = [[f[q] for q in Q] for f in trees.members()
            if set(f.support()) <= set(Q)]
    return bf_maximize([coeffs[q] for q in Q], A_ub=rows,
                       b_ub=[1] * len(rows))[0]
