"""Exact rational vectors and the unitriangular basis change they ride on.

Everything downstream works with finitely supported vectors whose entries are
`fractions.Fraction` values, indexed by opaque integer handles drawn from a
tagged universe.  Two coordinate systems matter: the unit-vector coordinates
(e-coordinates) and the difference coordinates d = e - c, where each index
carries a "correction" vector c supported on strictly earlier indices.  The
change of basis is unitriangular, so it is invertible by a single
back-substitution pass and all conversions are exact.

No floating point is used anywhere in this module, and none of the returned
values are approximate.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from typing import Callable, Iterable, Mapping


class UniverseMismatch(ValueError):
    """Raised when two vectors from different index universes are combined."""


class FinVec:
    """Finitely supported vector with exact rational entries.

    Entries equal to zero are never stored.  Instances are immutable and
    hashable; arithmetic returns new vectors.  The ``universe`` tag guards
    against pairing vectors that live over different index sets.
    """

    __slots__ = ("universe", "_d", "_hash")

    def __init__(self, universe: str, entries: Mapping | Iterable = ()):
        # dict first: it answers at once, where the Mapping ABC check is slow
        items = (entries.items()
                 if isinstance(entries, dict) or isinstance(entries, Mapping)
                 else entries)
        d: dict[int, Fraction] = {}
        for i, v in items:
            if type(v) is not Fraction:
                v = Fraction(v)
            if not v:
                continue
            i = int(i)
            w = d.get(i)
            if w is None:
                d[i] = v
            else:
                w = w + v
                if w:
                    d[i] = w
                else:
                    del d[i]
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "_d", dict(sorted(d.items())))
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("FinVec is immutable")

    # -- basic access -----------------------------------------------------

    def __getitem__(self, i: int) -> Fraction:
        return self._d.get(i, Fraction(0))

    def __contains__(self, i: int) -> bool:
        return i in self._d

    def __len__(self) -> int:
        return len(self._d)

    def __bool__(self) -> bool:
        return bool(self._d)

    def items(self):
        """Entries as (index, value) pairs, sorted by index."""
        return self._d.items()

    def support(self) -> tuple[int, ...]:
        return tuple(self._d.keys())

    # -- arithmetic -------------------------------------------------------

    def _check(self, other: "FinVec"):
        if self.universe != other.universe:
            raise UniverseMismatch(
                f"universe {self.universe!r} vs {other.universe!r}")

    def __add__(self, other: "FinVec") -> "FinVec":
        self._check(other)
        d = dict(self._d)
        for i, v in other._d.items():
            w = d.get(i)
            d[i] = v if w is None else w + v
        return FinVec(self.universe, d)  # drops the entries that cancel

    def __sub__(self, other: "FinVec") -> "FinVec":
        return self + (-other)

    def __neg__(self) -> "FinVec":
        return FinVec(self.universe, {i: -v for i, v in self._d.items()})

    def scale(self, r) -> "FinVec":
        r = Fraction(r)
        if not r:
            return FinVec(self.universe)
        return FinVec(self.universe, {i: r * v for i, v in self._d.items()})

    def restrict(self, keep: Callable[[int], bool]) -> "FinVec":
        """Entries whose index satisfies the predicate; exact, no copies of zeros."""
        return FinVec(self.universe, {i: v for i, v in self._d.items() if keep(i)})

    # -- norms and pairing --------------------------------------------------

    def l1(self) -> Fraction:
        return sum((abs(v) for v in self._d.values()), Fraction(0))

    def linf(self) -> Fraction:
        return max((abs(v) for v in self._d.values()), default=Fraction(0))

    def pair(self, other: "FinVec") -> Fraction:
        """Dual pairing: sum of entrywise products over the common support."""
        self._check(other)
        a, b = self._d, other._d
        if len(b) < len(a):
            a, b = b, a
        return sum((v * b[i] for i, v in a.items() if i in b), Fraction(0))

    # -- equality / hashing -------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, FinVec) and self.universe == other.universe
                and self._d == other._d)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.universe, tuple(self._d.items())))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        inner = ", ".join(f"{i}: {v}" for i, v in self._d.items())
        return f"FinVec({self.universe!r}, {{{inner}}})"

    # -- serialization --------------------------------------------------------

    def to_json_obj(self) -> dict:
        return {
            "universe": self.universe,
            "entries": [[i, v.numerator, v.denominator] for i, v in self._d.items()],
        }

    @staticmethod
    def from_json_obj(obj: dict) -> "FinVec":
        return FinVec(obj["universe"],
                      ((i, Fraction(n, d)) for i, n, d in obj["entries"]))


class TriangularBasisChange:
    """Conversion between e-coordinates and d-coordinates, d_g = e_g - c_g.

    ``cstar_row(i)`` must return the correction vector of index ``i`` in
    e-coordinates, supported on indices that are strictly earlier under
    ``order_key``.  The induced map is unitriangular, hence exactly
    invertible; ``to_d`` runs one back-substitution pass from the latest
    index downward and ``from_d`` is a direct expansion.
    """

    def __init__(self, universe: str, order_key: Callable[[int], tuple],
                 cstar_row: Callable[[int], FinVec]):
        self.universe = universe
        self.order_key = order_key
        self.cstar_row = cstar_row

    def to_d(self, v: FinVec) -> FinVec:
        """Coefficients a with v = sum a_g d_g, computed exactly."""
        if v.universe != self.universe:
            raise UniverseMismatch(f"{v.universe!r} vs {self.universe!r}")
        order_key, cstar_row = self.order_key, self.cstar_row
        work = dict(v.items())
        # the indices met so far, latest last: a row reaches only strictly
        # earlier indices, so each is taken once, in decreasing order
        pending = sorted((order_key(g), g) for g in work)
        out: dict[int, Fraction] = {}
        while pending:
            kg, g = pending.pop()
            t = work.pop(g)
            if not t:
                continue
            out[g] = t
            for i, cv in cstar_row(g).items():
                ki = order_key(i)
                if ki >= kg:
                    raise ValueError(
                        f"correction row of {g} touches non-earlier index {i}")
                w = work.get(i)
                if w is None:
                    work[i] = t * cv
                    insort(pending, (ki, i))
                else:
                    work[i] = w + t * cv
        return FinVec(self.universe, out)

    def from_d(self, a: FinVec) -> FinVec:
        """Inverse of ``to_d``: expand sum a_g d_g back into e-coordinates."""
        if a.universe != self.universe:
            raise UniverseMismatch(f"{a.universe!r} vs {self.universe!r}")
        acc = dict(a.items())
        for g, t in a.items():
            for i, cv in self.cstar_row(g).items():
                w = acc.get(i)
                acc[i] = -t * cv if w is None else w - t * cv
        return FinVec(self.universe, acc)  # drops the entries that cancel

    def project(self, v: FinVec, keep: Callable[[int], bool]) -> FinVec:
        """Project onto the span of the kept d-basis vectors, exactly."""
        return self.from_d(self.to_d(v).restrict(keep))
