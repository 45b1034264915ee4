"""Univariate polynomials over Q and column Hermite forms of Q[t]-modules.

The polynomial variable plays the role of the derivation acting on a
finitely generated module.  Submodules of Q[t]^n are represented by a list
of generating columns kept in a canonical column echelon form (monic
pivots, off-pivot entries in pivot rows reduced), which makes membership
and equality tests exact and deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

Q = Fraction


class UPoly:
    """Dense univariate polynomial with Fraction coefficients.

    Coefficients are stored lowest degree first with no trailing zeros,
    so two equal polynomials always compare equal structurally.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Q] = ()):
        cs = [Q(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def const(cls, c) -> "UPoly":
        return cls((Q(c),))

    @classmethod
    def monomial(cls, c, degree: int) -> "UPoly":
        c = Q(c)
        if c == 0:
            return cls()
        return cls((Q(0),) * degree + (c,))

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree, -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def leading(self) -> Q:
        if not self.coeffs:
            return Q(0)
        return self.coeffs[-1]

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, UPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: "UPoly") -> "UPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UPoly(out)

    def __neg__(self) -> "UPoly":
        return UPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "UPoly") -> "UPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, UPoly):
            if not self.coeffs or not other.coeffs:
                return UPoly()
            out = [Q(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return UPoly(out)
        return self.scale(Q(other))

    __rmul__ = __mul__

    def scale(self, c) -> "UPoly":
        c = Q(c)
        if c == 0:
            return UPoly()
        return UPoly(tuple(a * c for a in self.coeffs))

    def divmod(self, other: "UPoly") -> tuple["UPoly", "UPoly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return UPoly(), self
        quo = [Q(0)] * (dq + 1)
        lead = other.coeffs[-1]
        for k in range(dq, -1, -1):
            c = rem[k + len(other.coeffs) - 1] / lead
            if c != 0:
                quo[k] = c
                for j, b in enumerate(other.coeffs):
                    rem[k + j] -= c * b
        return UPoly(quo), UPoly(rem)

    def __repr__(self):
        if not self.coeffs:
            return "UPoly(0)"
        parts = []
        for d, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if d == 0:
                parts.append(str(c))
            elif d == 1:
                parts.append(f"{c}*t")
            else:
                parts.append(f"{c}*t^{d}")
        return "UPoly(" + " + ".join(parts) + ")"


ZERO = UPoly()
ONE = UPoly.const(1)

Column = tuple  # tuple[UPoly, ...], one entry per module generator


def _pivot_row(col: Sequence[UPoly]):
    for r, p in enumerate(col):
        if not p.is_zero():
            return r
    return None


class PolyModule:
    """Submodule of Q[t]^n given by generating columns, in canonical form.

    The echelon basis has one column per pivot row; pivots are monic and
    every other basis column is reduced modulo the pivots above its own.
    Equality of canonical forms is equality of submodules.
    """

    def __init__(self, nrows: int, columns: Iterable[Sequence[UPoly]] = ()):
        self.nrows = nrows
        self._basis: dict[int, list[UPoly]] = {}
        for col in columns:
            self._insert(list(col))
        self._canonicalize()

    # -- construction ---------------------------------------------------

    def _insert(self, col: list[UPoly]) -> None:
        while True:
            r = _pivot_row(col)
            if r is None:
                return
            cur = self._basis.get(r)
            if cur is None:
                self._basis[r] = col
                return
            q, rem = col[r].divmod(cur[r])
            if not q.is_zero():
                col = [c - q * b for c, b in zip(col, cur)]
            if col[r].is_zero():
                continue
            # smaller-degree remainder becomes the new pivot column
            self._basis[r] = col
            col = cur

    def _canonicalize(self) -> None:
        for r in self._basis:
            col = self._basis[r]
            lead = col[r].leading()
            if lead != 1:
                inv = Q(1) / lead
                self._basis[r] = [p.scale(inv) for p in col]
        # reduce off-pivot entries; only columns with pivot above r carry
        # a nonzero entry in row r
        for r in sorted(self._basis):
            piv = self._basis[r]
            for r2, col in self._basis.items():
                if r2 >= r or col[r].is_zero():
                    continue
                q, _ = col[r].divmod(piv[r])
                if not q.is_zero():
                    self._basis[r2] = [c - q * b for c, b in zip(col, piv)]

    # -- queries ---------------------------------------------------------

    def reduce(self, col: Sequence[UPoly]) -> list[UPoly]:
        """Remainder of a vector modulo the module; zero iff it is a member."""
        col = list(col)
        for r in sorted(self._basis):
            if col[r].is_zero():
                continue
            piv = self._basis[r]
            q, _ = col[r].divmod(piv[r])
            if not q.is_zero():
                col = [c - q * b for c, b in zip(col, piv)]
        return col

    def contains(self, col: Sequence[UPoly]) -> bool:
        return all(p.is_zero() for p in self.reduce(col))

    def basis_columns(self) -> list[Column]:
        return [tuple(self._basis[r]) for r in sorted(self._basis)]

    def canonical_key(self):
        return tuple(
            (r, tuple(p.coeffs for p in self._basis[r])) for r in sorted(self._basis)
        )

    def __eq__(self, other):
        return (
            isinstance(other, PolyModule)
            and self.nrows == other.nrows
            and self.canonical_key() == other.canonical_key()
        )

    def __hash__(self):
        return hash((self.nrows, self.canonical_key()))

    def is_zero_module(self) -> bool:
        return not self._basis
