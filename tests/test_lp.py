import random
from fractions import Fraction

import pytest

from bdspace import lp
from bdspace.decomp import check_subsequential_upper
from bdspace.families import schreier
from bdspace.tsirelson import TsirelsonSpec, build_dual_norming_set
from conftest import lift_acceptance
from oracles import bf_maximize

F = Fraction


def test_basic_maximize():
    v, x, _ = lp.maximize([3, 2], A_ub=[[1, 1], [1, 0]], b_ub=[4, 2])
    assert v == 10 and x == [F(2), F(2)]


def test_equality_constraints():
    # min x0 + x1 as max -(x0 + x1)
    v, x, _ = lp.maximize([-1, -1], A_eq=[[1, -1]], b_eq=[0], A_ub=[[-1, 0]],
                          b_ub=[-2])
    assert v == -4 and x == [F(2), F(2)]


def test_infeasible():
    with pytest.raises(lp.Infeasible):
        lp.maximize([1], A_ub=[[1], [-1]], b_ub=[1, -2])


def test_unbounded():
    with pytest.raises(lp.Unbounded):
        lp.maximize([1], A_ub=[[-1]], b_ub=[0])


def test_degenerate_cycling_guard():
    # classical Beale-style degeneracy; Bland's rule must terminate
    v, _, _ = lp.maximize(
        [F(3, 4), -150, F(1, 50), -6],
        A_ub=[[F(1, 4), -60, F(-1, 25), 9],
              [F(1, 2), -90, F(-1, 50), 3],
              [0, 0, 1, 0]],
        b_ub=[0, 0, 1])
    assert v == F(1, 20)


def test_exactness_no_drift():
    # tiny coefficients that would misbehave in floating point
    eps = F(1, 10**12)
    v, x, _ = lp.maximize([1, 1], A_ub=[[1, 0], [eps, 1]], b_ub=[eps, eps])
    assert x[0] == eps and x[1] == eps - eps * eps
    assert v == 2 * eps - eps * eps


def certified(c, A_ub=(), b_ub=(), A_eq=(), b_eq=()):
    """Solve and check the answer exactly: x primal feasible, y dual
    feasible (y_ub >= 0, A^T y >= c) and c.x = b.y = value."""
    v, x, y = lp.maximize(c, A_ub, b_ub, A_eq, b_eq)
    A, b = list(A_ub) + list(A_eq), list(b_ub) + list(b_eq)
    ax = [sum(a * xi for a, xi in zip(row, x)) for row in A]
    assert all(xi >= 0 for xi in x)
    assert all(l <= r for l, r in zip(ax, b_ub))
    assert ax[len(A_ub):] == list(b_eq)
    assert len(y) == len(A) and all(yi >= 0 for yi in y[:len(A_ub)])
    assert all(sum(A[r][j] * y[r] for r in range(len(A))) >= c[j]
               for j in range(len(c)))
    assert v == sum(ci * xi for ci, xi in zip(c, x)) == sum(
        bi * yi for bi, yi in zip(b, y))
    return v


def test_dual_certifies_basic_and_degenerate():
    assert certified([3, 2], A_ub=[[1, 1], [1, 0]], b_ub=[4, 2]) == 10
    assert certified(
        [F(3, 4), -150, F(1, 50), -6],
        A_ub=[[F(1, 4), -60, F(-1, 25), 9],
              [F(1, 2), -90, F(-1, 50), 3],
              [0, 0, 1, 0]],
        b_ub=[0, 0, 1]) == F(1, 20)
    # a redundant equality row keeps an artificial in the basis
    assert certified([1, 2, 1], A_ub=[[1, 1, 1]], b_ub=[3],
                     A_eq=[[1, -1, 0], [2, -2, 0]], b_eq=[0, 0]) == F(9, 2)


def test_strong_duality_on_random_bounded_lps():
    # feasible by construction (x0 satisfies every row), bounded by the
    # last row; zero slacks make many of them degenerate, and negative
    # right-hand sides exercise the flipped rows
    rng = random.Random(20)
    for _ in range(120):
        n = rng.randint(1, 5)
        x0 = [F(rng.randint(0, 4), rng.choice((1, 2))) for _ in range(n)]
        A_ub = [[rng.randint(-3, 3) for _ in range(n)]
                for _ in range(rng.randint(0, 4))]
        b_ub = [sum(a * xi for a, xi in zip(row, x0)) + rng.choice((0, 0, 1, 2))
                for row in A_ub]
        A_ub.append([1] * n)
        b_ub.append(sum(x0) + rng.randint(0, 3))
        A_eq = [[rng.randint(-2, 2) for _ in range(n)]
                for _ in range(rng.randint(0, 2))]
        if A_eq and rng.random() < 0.5:
            A_eq.append([2 * a for a in A_eq[0]])
        b_eq = [sum(a * xi for a, xi in zip(row, x0)) for row in A_eq]
        c = [rng.randint(-3, 3) for _ in range(n)]
        certified(c, A_ub, b_ub, A_eq, b_eq)


@pytest.mark.parametrize("fault, match", [
    ("x off a row", "not primal feasible"),
    ("y negative", "not dual feasible"),
    ("y too small", "not dual feasible"),
    ("value off", "objective values differ"),
    ("x too short", "not primal feasible"),
    ("a row too short", "not primal feasible"),
    ("y too long", "not dual feasible"),
])
def test_check_fault_injection(fault, match):
    c, A_ub, b_ub = [3, 2], [[1, 1], [1, 0]], [4, 2]
    v, x, y = lp.maximize(c, A_ub=A_ub, b_ub=b_ub)
    assert lp.check(c, v, x, y, A_ub=A_ub, b_ub=b_ub) == 10
    if fault == "x off a row":
        x = [x[0] + 1, x[1]]
    elif fault == "y negative":
        y = [-y[0], y[1]]
    elif fault == "y too small":
        y = [w / 2 for w in y]
    elif fault == "x too short":
        x = x[:1]
    elif fault == "a row too short":
        A_ub = [A_ub[0], A_ub[1][:1]]
    elif fault == "y too long":
        y = y + [1]
    else:
        v += 1
    with pytest.raises(lp.CertificateError, match=match):
        lp.check(c, v, x, y, A_ub=A_ub, b_ub=b_ub)


def test_check_on_equality_only_minimization():
    # the dual-norm LP shape: min sum(lambda) over lambda >= 0 with
    # A lambda = f, columns +-g, posed as max -sum(lambda) for lp.check;
    # here g = (1, 1), (1, -1), (0, 1) and f = (2, 1) has ||f||_* = 2
    gens = [[1, 1], [1, -1], [0, 1]]
    cols = [[s * v for v in g] for g in gens for s in (1, -1)]
    A = [[col[i] for col in cols] for i in range(2)]
    b = [2, 1]
    c = [-1] * len(cols)
    v, x, y = lp.maximize(c, A_eq=A, b_eq=b)
    assert -lp.check(c, v, x, y, A_eq=A, b_eq=b) == 2
    with pytest.raises(lp.CertificateError, match="not dual feasible"):
        lp.check(c, v, x, [2 * w for w in y], A_eq=A, b_eq=b)


def outcome(solver, *lp_args):
    """(value, x, y), or the exception class the solver raised."""
    try:
        return solver(*lp_args)
    except (lp.Infeasible, lp.Unbounded) as exc:
        return type(exc)


def random_lp(rng):
    """A small LP with no feasibility or boundedness built in: ub and eq
    rows, integer and fractional entries, negative right-hand sides, and
    sometimes all-zero ones or a repeated (redundant) equality row."""
    n = rng.randint(1, 6)

    def coef():
        return rng.choice((0, rng.randint(-4, 4),
                           F(rng.randint(-6, 6), rng.randint(1, 5))))
    A_ub = [[coef() for _ in range(n)] for _ in range(rng.randint(0, 5))]
    A_eq = [[coef() for _ in range(n)] for _ in range(rng.randint(0, 3))]
    if A_eq and rng.random() < 0.3:
        A_eq.append([2 * a for a in A_eq[0]])
    if rng.random() < 0.2:
        b_ub, b_eq = [0] * len(A_ub), [0] * len(A_eq)
    else:
        b_ub = [rng.choice((0, rng.randint(-3, 6),
                            F(rng.randint(-5, 9), rng.randint(1, 4))))
                for _ in A_ub]
        b_eq = [rng.randint(-3, 3) for _ in A_eq]
        if A_eq and len(A_eq) > 1 and A_eq[-1] == [2 * a for a in A_eq[0]]:
            b_eq[-1] = 2 * b_eq[0]
    return [coef() for _ in range(n)], A_ub, b_ub, A_eq, b_eq


def test_maximize_matches_fraction_oracle_on_random_lps():
    # the integer-row tableau makes the same Bland pivots as the Fraction
    # one, so every answer and every exception is the same
    rng = random.Random(10)
    seen = {"optimal": 0, lp.Infeasible: 0, lp.Unbounded: 0,
            "negative rhs": 0, "zero rhs": 0}
    for _ in range(600):
        args = random_lp(rng)
        got = outcome(lp.maximize, *args)
        assert got == outcome(bf_maximize, *args), args
        seen[got if isinstance(got, type) else "optimal"] += 1
        rhs = args[2] + args[4]
        seen["negative rhs"] += any(b < 0 for b in rhs)
        seen["zero rhs"] += bool(rhs) and not any(rhs)
    assert min(seen.values()) >= 50, seen


def test_pipeline_lps_match_fraction_oracle(acc_build, acc_lifted, acc_seed,
                                            acc_D, monkeypatch):
    # every LP of the acceptance lower-estimate certificate and of the
    # upper-estimates suite (every cut sequence of every member of D, with
    # its pricing rounds in lp.gauge), checked against the oracle
    calls = []
    solve = lp.maximize

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return solve(*args, **kwargs)
    monkeypatch.setattr(lp, "maximize", spy)
    aug = lift_acceptance(acc_build)
    assert aug.bd.to_json_obj() == acc_lifted.bd.to_json_obj()
    # per block, one annihilating witness and one distance LP
    assert len(calls) == 6
    members = [m.vec for m in acc_D.members]
    cert = check_subsequential_upper(members, acc_seed,
                                     TsirelsonSpec(schreier(1), F(1, 2)), 4)
    assert cert.checked == 60
    # one round per sequence: on acc the first optimum is already in the ball
    assert len(calls) == 6 + 60
    for args, kwargs in calls:
        assert solve(*args, **kwargs) == bf_maximize(*args, **kwargs)


def certified_gauge(target, columns, price=None, full=None):
    """The value of ``lp.gauge``, once its dual point p is seen to certify
    it: target(p) = value, and h(p) <= 1 on every column, given or priced
    (``full``, the list a price draws from)."""
    value, point = lp.gauge(target, columns, price)

    def at(h):
        return sum(v * point.get(i, 0) for i, v in h.items())
    assert at(target) == value
    assert all(at(h) <= 1 for h in [*columns, *(full or ())])
    return value


def full_gauge(target, columns):
    """The gauge as one LP over all the columns, solved by the oracle."""
    coords = sorted({i for h in columns for i in h} | set(target))
    A = [[h.get(i, 0) for h in columns] for i in coords]
    return -bf_maximize([-1] * len(columns), A_eq=A,
                        b_eq=[target.get(i, 0) for i in coords])[0]


def symmetric(vectors):
    return [{i: s * v for i, v in h.items()} for h in vectors for s in (1, -1)]


def tree_columns(c):
    """The (S_1, c) tree functionals on 4 coordinates, a symmetric set:
    with c = 1/16 the generators of the acceptance seed, with c = 1/2 the
    halfnorm ones."""
    members = build_dual_norming_set(TsirelsonSpec(schreier(1), F(c)),
                                     4, 4).members()
    return [dict(m.items()) for m in members]


def random_columns(rng):
    n = rng.randint(1, 4)
    return symmetric({i: F(rng.randint(-4, 4), rng.randint(1, 3))
                      for i in rng.sample(range(1, 6), rng.randint(1, n))}
                     for _ in range(rng.randint(1, 5)))


def test_gauge_matches_one_full_lp():
    # the columns as given, on the acceptance and halfnorm generators and
    # on small random symmetric sets, some of which miss the target's span
    rng = random.Random(25)
    sets = [tree_columns(F(1, 16)), tree_columns(F(1, 2))]
    sets += [random_columns(rng) for _ in range(40)]
    seen = {"value": 0, lp.Infeasible: 0}
    for columns in sets:
        for _ in range(6):
            target = {i: F(rng.randint(-6, 6), rng.randint(1, 4))
                      for i in rng.sample(range(1, 5), rng.randint(1, 4))}
            target = {i: v for i, v in target.items() if v}
            got = outcome(certified_gauge, target, columns)
            assert got == outcome(full_gauge, target, columns)
            seen["value" if not isinstance(got, type) else got] += 1
    assert min(seen.values()) >= 20, seen


def scan(columns, calls):
    """A price that returns the first column of the list that the dual
    point violates, recording each point it is asked about."""
    def price(point):
        calls.append(point)
        # each column joins at most once
        assert len(calls) <= len(columns) + 1
        return next((h for h in columns if sum(
            v * point.get(i, 0) for i, v in h.items()) > 1), None)
    return price


def test_gauge_priced_by_a_scan_matches_one_full_lp():
    # started from two columns whose cone holds the target, a price that
    # scans the full list adds the first violated column each round
    rng = random.Random(26)
    rounds = []
    for columns in (tree_columns(F(1, 16)), tree_columns(F(1, 2))):
        for _ in range(15):
            start = rng.sample(columns, 2)
            a, b = F(rng.randint(1, 5), 3), F(rng.randint(0, 5), 2)
            target = {i: a * start[0].get(i, 0) + b * start[1].get(i, 0)
                      for i in {*start[0], *start[1]}}
            target = {i: v for i, v in target.items() if v}
            calls = []
            assert certified_gauge(target, start, scan(columns, calls),
                                   columns) == full_gauge(target, columns)
            rounds.append(len(calls))
    assert max(rounds) > 2
    # a priced column that reaches a coordinate the start does not adds
    # its row, with target 0 there: (3, 1) at p = (1), then (0, -1) at
    # p = (1, -2), and (1, 0) = 1/3 (3, 1) + 1/3 (0, -1)
    columns, calls = [{1: 1}, {1: 3, 2: 1}, {2: -1}], []
    assert certified_gauge({1: 1}, columns[:1], scan(columns, calls),
                           columns) == F(2, 3)
    assert full_gauge({1: 1}, columns) == F(2, 3)
    assert calls == [{1: 1}, {1: 1, 2: -2}, {1: F(2, 3), 2: -1}]


def test_gauge_raises_on_unreached_coordinate_and_faulty_price():
    with pytest.raises(lp.Infeasible):
        lp.gauge({1: 1, 3: 1}, [{1: 1}, {2: 1}])
    with pytest.raises(lp.Infeasible):
        lp.gauge({3: 1}, [{1: 1}], price=lambda point: {3: 2})
    # a price returning a column the dual point satisfies: (1, 1) has
    # gauge 2 over the unit columns, at the dual point (1, 1); a price
    # asked a second time means the satisfied column was taken
    columns = [{1: 1}, {2: 1}]
    assert certified_gauge({1: 1, 2: 1}, columns, lambda point: None) == 2
    for column in ({1: 1}, {1: F(1, 2), 2: F(1, 2)}):
        asked = []

        def price(point):
            assert not asked, "priced again after a satisfied column"
            asked.append(point)
            return column
        with pytest.raises(ValueError, match="satisfies"):
            lp.gauge({1: 1, 2: 1}, columns, price)
        assert asked == [{1: 1, 2: 1}]
