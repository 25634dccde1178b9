"""Small exact linear programming over the rationals.

Two-phase primal simplex with Bland's rule on an integer-row tableau: each
row is a list of Python ints over one positive row denominator, and a pivot
updates a row by integer cross-multiplication, cut by one gcd per row
(Edmonds 1967, Bareiss 1968).  Only the inputs and the returned answer are
``Fraction``s.  The rows are a ``Fraction`` tableau's rows scaled by their
denominators, so the pivots and the answers are that tableau's.  Intended
for the modest problem sizes this package produces (dozens of variables);
termination is guaranteed by Bland's rule and results are exact, which is
what the certificate-style checks require.  scipy's solvers are floating
point and therefore unusable here.

Problems are stated as

    maximize    c . x
    subject to  A_ub x <= b_ub,   A_eq x = b_eq,   x >= 0.

Every solve also reads an optimal solution y of the dual problem

    minimize    b . y
    subject to  y_ub >= 0,   A^T y >= c   (A = A_ub over A_eq),

off the final tableau, and ``maximize`` returns an answer only once
``check`` has certified it: x and y feasible and c . x = b . y make both
optimal.  ``gauge`` poses the gauge LPs of this package on top of it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence


class Infeasible(Exception):
    pass


class Unbounded(Exception):
    pass


class CertificateError(ArithmeticError):
    """An LP answer failed the exact check of its primal or dual side."""


def _row(values) -> tuple[list[int], int]:
    """Rationals as (integer numerators, positive common denominator)."""
    values = [Fraction(v) for v in values]
    d = lcm(*(v.denominator for v in values))
    return [v.numerator * (d // v.denominator) for v in values], d


def _reduced(nums, d):
    """nums/d with the gcd of d and all of nums cancelled."""
    g = gcd(d, *nums)
    return ([v // g for v in nums], d // g) if g > 1 else (nums, d)


def _eliminate(line, den, prow, d, col):
    """line/den minus line[col]/den times the pivot row prow/d, whose entry
    at col is d."""
    f = line[col]
    return _reduced([a * d - f * b for a, b in zip(line, prow)], den * d)


def _pivot(T, D, basis, row, col):
    prow, d = T[row], T[row][col]
    if d < 0:
        prow, d = [-v for v in prow], -d
    prow, d = _reduced(prow, d)
    T[row], D[row] = prow, d
    for r, line in enumerate(T):
        if r != row and line[col]:
            T[r], D[r] = _eliminate(line, D[r], prow, d, col)
    basis[row] = col


def _simplex(T, D, basis, ncols):
    """Maximize with objective in the last row; Bland's rule throughout.
    Denominators are positive, so signs and ratios read off numerators."""
    m = len(T) - 1
    while True:
        obj = T[-1]
        col = next((j for j in range(ncols) if obj[j] > 0), None)
        if col is None:
            return
        best = None
        for r in range(m):
            line = T[r]
            a = line[col]
            if a > 0:
                if best is None:
                    best = r
                    continue
                lhs, rhs = line[-1] * T[best][col], T[best][-1] * a
                if lhs < rhs or (lhs == rhs and basis[r] < basis[best]):
                    best = r
        if best is None:
            raise Unbounded()
        _pivot(T, D, basis, best, col)


def maximize(c: Sequence, A_ub=(), b_ub=(), A_eq=(), b_eq=()):
    """Solve the LP and return (optimal value, primal solution x, dual
    solution y), y listing the rows of A_ub and then those of A_eq, once
    ``check`` has certified them.  Raises Infeasible, Unbounded or
    CertificateError.  All inputs may be ints or Fractions."""
    value, x, y = _solve(c, A_ub, b_ub, A_eq, b_eq)
    check(c, value, x, y, A_ub, b_ub, A_eq, b_eq)
    return value, x, y


def gauge(target, columns, price=None) -> tuple[Fraction, dict]:
    """(v, p): v the least sum(lambda) over lambda >= 0 with sum_h lambda_h
    h = target, where the target and the columns map coordinates to
    rationals, and p its certified dual point, a dict of its nonzero entries.

    Each round is one ``maximize`` of -sum(lambda), with one equality row
    per coordinate a column reaches, in sorted order (a target outside the
    columns' cone raises Infeasible).  Its certificate bounds the value
    v from both sides: the weights represent the target with total v, and
    the dual point p = -y has h(p) <= 1 on every column h and target(p) = v.
    With ``price`` the columns are a start drawn from a set K: ``price(p)``
    returns an h in K with h(p) > 1, which joins the columns (column
    generation, Gilmore and Gomory 1961), or None when K has none, and then
    p certifies v over all of K.  A returned h with h(p) <= 1 raises
    ValueError, so a faulty price cannot loop.
    """
    cols = list(columns)
    while True:
        rows = {i: r for r, i in enumerate(
            sorted({i for h in cols for i, _ in h.items()}))}
        b = [0] * len(rows)
        for i, v in target.items():
            if i not in rows:
                raise Infeasible  # a coordinate no column reaches
            b[rows[i]] = v
        A = [[0] * len(cols) for _ in rows]
        for j, h in enumerate(cols):
            for i, v in h.items():
                A[rows[i]][j] = v
        value, _, y = maximize([-1] * len(cols), A_eq=A, b_eq=b)
        point = {i: -y[r] for i, r in rows.items() if y[r]}
        h = price(point) if price else None
        if h is None:
            return -value, point
        if sum(v * point.get(i, 0) for i, v in h.items()) <= 1:
            raise ValueError("price returned a column that p satisfies")
        cols.append(h)


def _solve(c, A_ub, b_ub, A_eq, b_eq):
    c = [Fraction(v) for v in c]
    n = len(c)
    slack_count = len(A_ub)
    rows = [(a, b, "ub") for a, b in zip(A_ub, b_ub)]
    rows += [(a, b, "eq") for a, b in zip(A_eq, b_eq)]
    m = len(rows)

    # columns: n structural, slack_count slacks, m artificials, rhs
    ncols = n + slack_count + m
    T, D = [], []
    basis = []
    flipped = []
    si = 0
    for r, (a, b, kind) in enumerate(rows):
        nums, d = _row(list(a) + [b])
        flipped.append(nums[-1] < 0)
        if flipped[-1]:  # a flipped <= becomes >=
            nums = [-v for v in nums]
        line = nums[:n] + [0] * (slack_count + m) + nums[n:]
        if kind == "ub":
            line[n + si] = -d if flipped[-1] else d
            si += 1
        line[n + slack_count + r] = d
        T.append(line)
        D.append(d)
        basis.append(n + slack_count + r)

    # phase 1: minimize sum of artificials
    L = lcm(*D)
    obj = [sum(line[j] * (L // d) for line, d in zip(T, D))
           for j in range(ncols + 1)]
    for j in range(n + slack_count, ncols):
        obj[j] = 0
    T.append(obj)
    D.append(L)
    _simplex(T, D, basis, n + slack_count)
    if T[-1][-1] != 0:
        raise Infeasible()
    T.pop()
    D.pop()

    # drive artificials out of the basis where possible
    for r in range(m):
        if basis[r] >= n + slack_count:
            col = next((j for j in range(n + slack_count) if T[r][j] != 0), None)
            if col is not None:
                _pivot(T, D, basis, r, col)

    # phase 2
    obj, den = _row(c + [0] * (ncols - n + 1))
    # reduced costs must be zero on all basic columns
    for r in range(m):
        if obj[basis[r]]:
            obj, den = _eliminate(obj, den, T[r], D[r], basis[r])
    T.append(obj)
    D.append(den)
    _simplex(T, D, basis, n + slack_count)

    x = [Fraction(0)] * n
    for r in range(m):
        if basis[r] < n:
            x[basis[r]] = Fraction(T[r][-1], D[r])
    value = sum(ci * xi for ci, xi in zip(c, x))
    # Artificial column r starts as the unit vector of (possibly negated)
    # row r at cost 0, so its final reduced cost is -(c_B B^-1)_r; the
    # dual of the original row undoes the negation.
    obj, art = T[-1], n + slack_count
    y = [Fraction(obj[art + r] if flipped[r] else -obj[art + r], D[-1])
         for r in range(m)]
    return value, x, y


def check(c, value, x, y, A_ub=(), b_ub=(), A_eq=(), b_eq=()) -> Fraction:
    """Check an answer of ``maximize`` exactly and return its value: x >= 0,
    A_ub x <= b_ub, A_eq x = b_eq; y_ub >= 0, A^T y >= c; and c . x = value
    = b . y, which makes both optimal.  Raises CertificateError otherwise,
    also when x, y or a row of A does not fit the problem's shape.  A x
    and A^T y are summed over the nonzero entries of x and y only."""
    A, b = list(A_ub) + list(A_eq), list(b_ub) + list(b_eq)
    k, n = len(A_ub), len(c)
    support = [(j, v) for j, v in enumerate(x) if v]
    if (len(x) != n or len(b_ub) != k or len(b) != len(A)
            or any(len(row) != n for row in A) or any(v < 0 for v in x)):
        raise CertificateError("LP answer: x is not primal feasible")
    ax = [sum(row[j] * v for j, v in support) for row in A]
    if any(l > r for l, r in zip(ax, b_ub)) or ax[k:] != b[k:]:
        raise CertificateError("LP answer: x is not primal feasible")
    aty = [0] * n
    for row, v in zip(A, y):
        if v:
            for j, a in enumerate(row):
                if a:
                    aty[j] += a * v
    if (len(y) != len(A) or any(v < 0 for v in y[:k])
            or any(l < r for l, r in zip(aty, c))):
        raise CertificateError("LP answer: y is not dual feasible")
    if not sum(c[j] * v for j, v in support) == value == sum(
            bi * v for bi, v in zip(b, y) if v):
        raise CertificateError("LP answer: objective values differ")
    return value
