"""Small exact linear programming over the rationals.

Two-phase primal simplex with Bland's rule, every pivot carried out in
`fractions.Fraction` arithmetic.  Intended for the modest problem sizes this
package produces (dozens of variables); termination is guaranteed by Bland's
rule and results are exact, which is what the certificate-style checks
require.  scipy's solvers are floating point and therefore unusable here.

Problems are stated as

    maximize    c . x
    subject to  A_ub x <= b_ub,   A_eq x = b_eq,   x >= 0.

Every solve also returns an optimal solution y of the dual problem

    minimize    b . y
    subject to  y_ub >= 0,   A^T y >= c   (A = A_ub over A_eq),

read off the final tableau, so a caller can check the answer exactly:
x and y are feasible and c . x = b . y certify that both are optimal.
``check`` does that and raises ``CertificateError`` when it fails.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


class Infeasible(Exception):
    pass


class Unbounded(Exception):
    pass


class CertificateError(ArithmeticError):
    """An LP answer failed the exact check of its primal or dual side."""


def _pivot(T, basis, row, col):
    piv = T[row][col]
    inv = Fraction(1) / piv
    T[row] = [v * inv for v in T[row]]
    for r, line in enumerate(T):
        if r != row and line[col]:
            f = line[col]
            prow = T[row]
            T[r] = [a - f * b for a, b in zip(line, prow)]
    basis[row] = col


def _simplex(T, basis, ncols):
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
        _pivot(T, basis, best[1], col)


def maximize(c: Sequence, A_ub=(), b_ub=(), A_eq=(), b_eq=()):
    """Solve the LP; returns (optimal value, primal solution x, dual
    solution y), y listing the rows of A_ub and then those of A_eq.

    Raises Infeasible or Unbounded.  All inputs may be ints or Fractions.
    """
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
    _simplex(T, basis, n + slack_count)
    if T[-1][-1] != 0:
        raise Infeasible()
    T.pop()

    # drive artificials out of the basis where possible
    for r in range(m):
        if basis[r] >= n + slack_count:
            col = next((j for j in range(n + slack_count) if T[r][j] != 0), None)
            if col is not None:
                _pivot(T, basis, r, col)

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
    _simplex(T, basis, n + slack_count)

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


def check(c, value, x, y, A_ub=(), b_ub=(), A_eq=(), b_eq=()) -> Fraction:
    """Check an answer of ``maximize`` exactly and return its value: x >= 0,
    A_ub x <= b_ub, A_eq x = b_eq; y_ub >= 0, A^T y >= c; and c . x = value
    = b . y, which makes both optimal.  Raises CertificateError otherwise."""
    A, b = list(A_ub) + list(A_eq), list(b_ub) + list(b_eq)
    ax = [sum(a * v for a, v in zip(row, x)) for row in A]
    if (len(x) != len(c) or any(v < 0 for v in x)
            or any(l > r for l, r in zip(ax, b_ub))
            or ax[len(A_ub):] != b[len(A_ub):]):
        raise CertificateError("LP answer: x is not primal feasible")
    aty = [sum(row[j] * v for row, v in zip(A, y)) for j in range(len(c))]
    if (len(y) != len(A) or any(v < 0 for v in y[:len(A_ub)])
            or any(l < r for l, r in zip(aty, c))):
        raise CertificateError("LP answer: y is not dual feasible")
    if not sum(ci * v for ci, v in zip(c, x)) == value == sum(
            bi * v for bi, v in zip(b, y)):
        raise CertificateError("LP answer: objective values differ")
    return value
