"""Univariate polynomials over Q and column Hermite forms of Q[t]-modules.

The polynomial variable plays the role of the derivation acting on a
finitely generated module; a polynomial is a ``linalg.Sparse`` keyed by
degree, so its coefficients are exact ints or Fractions.  Submodules of
Q[t]^n are represented by a list of generating columns kept in a
canonical column echelon form (monic pivots, off-pivot entries in pivot
rows reduced), which makes membership and equality tests exact and
deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .linalg import Sparse, iadd

Q = Fraction


class UPoly(Sparse):
    """Univariate polynomial over Q: a Sparse combination keyed by degree.

    Built from its coefficients lowest degree first, or from a
    ``{degree: coefficient}`` dict.  Sum, difference, negation, scaling,
    equality and hashing are the Sparse ones.
    """

    __slots__ = ()

    def __init__(self, coeffs: Iterable | dict = ()):
        super().__init__(coeffs if isinstance(coeffs, dict) else dict(enumerate(coeffs)))

    @classmethod
    def const(cls, c) -> "UPoly":
        return cls({0: c})

    @classmethod
    def monomial(cls, c, degree: int) -> "UPoly":
        return cls({degree: c})

    @property
    def degree(self) -> int:
        """Degree, -1 for the zero polynomial."""
        return max(self.coeffs, default=-1)

    def leading(self):
        return self.coeffs.get(self.degree, 0)

    def __mul__(self, other):
        if not isinstance(other, UPoly):
            return self.scale(other)
        out: dict = {}
        for i, a in self.coeffs.items():
            # distinct degrees j give distinct i + j
            iadd(out, {i + j: b for j, b in other.coeffs.items()}, a)
        return self._like(out)

    __rmul__ = __mul__

    def divmod(self, other: "UPoly") -> tuple["UPoly", "UPoly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        db = other.degree
        lead = Q(other.coeffs[db])
        quo: dict = {}
        rem = dict(self.coeffs)
        while rem and (dr := max(rem)) >= db:
            # cancels the top term of the remainder
            c = quo[dr - db] = rem[dr] / lead
            iadd(rem, {dr - db + j: b for j, b in other.coeffs.items()}, -c)
        return UPoly(quo), self._like(rem)

    def __repr__(self):
        if not self.coeffs:
            return "UPoly(0)"
        parts = []
        for d, c in sorted(self.coeffs.items()):
            if d == 0:
                parts.append(str(c))
            elif d == 1:
                parts.append(f"{c}*t")
            else:
                parts.append(f"{c}*t^{d}")
        return "UPoly(" + " + ".join(parts) + ")"


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
            (r, tuple(tuple(sorted(p.coeffs.items())) for p in self._basis[r]))
            for r in sorted(self._basis)
        )

    def __eq__(self, other):
        return (
            isinstance(other, PolyModule)
            and self.nrows == other.nrows
            and self.canonical_key() == other.canonical_key()
        )

    def __hash__(self):
        return hash((self.nrows, self.canonical_key()))
