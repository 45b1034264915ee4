"""Exact sparse linear algebra over Q with dict-backed vectors.

Coefficients are exact: an ``int`` when the value is integral and a
``fractions.Fraction`` otherwise, never a float.  ``exact`` is the one
place that normalizes a coefficient to that form; the ``Sparse``
constructor, ``iadd`` and ``scale`` pass every value they store through
it, so integral work runs on machine integers.  An ``int`` and the
``Fraction`` of the same value compare and hash equal.

``Sparse`` is the one sparse combination type: CVec, UElem, TensorElem and
the polynomials UPoly of the series modules are Sparse, and the
lambda-polynomials LPoly, ULPoly and LMPoly are ``SparsePoly`` with vector
coefficients.  ``iadd`` is the only place that adds coefficients; with
``scale`` it is the one add-and-drop-zero kernel underneath, shared with
the plain dicts of law series, slotted polynomials and manifold points.
Labels of an echelon span are totally ordered, which makes pivoting
deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from numbers import Number, Rational

Q = Fraction

# Most digits of a `.lca` integer literal, and of a point value or a law
# table coefficient in all (`dsl`, `lawtable`).  It is CPython's default
# limit for converting between int and str, past which `int` raises; an
# exponent, which would build the value digit by digit before that check,
# is not part of any of these syntaxes.
DIGITS_LIMIT = 4300


def exact(v):
    """v as an exact coefficient: an int when integral, else a Fraction.

    Raises TypeError on a float, any other inexact number or a string.  A
    value that is not a number, such as the Sparse coefficient vector of a
    polynomial, passes through unchanged.
    """
    t = type(v)
    if t is int:
        return v
    if t is Fraction:
        return v.numerator if v.denominator == 1 else v
    if isinstance(v, Rational):
        return exact(Fraction(v))
    if isinstance(v, (Number, str)):
        raise TypeError(f"not an exact coefficient: {v!r}; use an int or a Fraction")
    return v


def iadd(acc: dict, other: dict, c=1) -> dict:
    """acc += c * other in place, dropping zero coefficients; returns acc.

    Values need ``+``, truth testing and ``* c``, so the Sparse coefficient
    vectors of polynomials add through here too.
    """
    if c == 0:
        return acc
    unit = c == 1
    get = acc.get
    for k, v in other.items():
        if not unit:
            v = v * c
        old = get(k)
        nv = exact(v if old is None else old + v)
        if nv:
            acc[k] = nv
        else:
            acc.pop(k, None)
    return acc


def scale(a: dict, c) -> dict:
    c = exact(c)
    if c == 0:
        return {}
    return {k: exact(v * c) for k, v in a.items()}


class Sparse:
    """Finite rational combination ``{label: nonzero coefficient}``.

    The one place that normalizes, adds, negates, scales, compares and
    hashes sparse combinations.  Elements of different classes never
    compare equal, even with the same coefficients.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict | None = None):
        cs = {}
        if coeffs:
            for k, v in coeffs.items():
                v = exact(v)
                if v != 0:
                    cs[k] = v
        self.coeffs = cs

    @classmethod
    def _like(cls, coeffs: dict):
        # an element of the class around an already normalized dict
        res = object.__new__(cls)
        res.coeffs = coeffs
        return res

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return other.__class__ is self.__class__ and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(sorted(self.coeffs.items())))

    def __add__(self, other):
        return self._like(iadd(dict(self.coeffs), other.coeffs))

    def __neg__(self):
        return self._like({k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        return self._like(scale(self.coeffs, c))

    def __mul__(self, c):
        # scalar multiple, so combinations can be coefficients in turn
        return self.scale(c)

    def iadd_scaled(self, other, c=1) -> None:
        """self += c * other in place."""
        iadd(self.coeffs, other.coeffs, c)

    def __repr__(self):
        return f"{self.__class__.__name__}({self.coeffs!r})"


class SparsePoly(Sparse):
    """Sparse polynomial: exponent keys, Sparse coefficients.

    Subclasses name their coefficient class by its zero element ``zero``;
    plain dict coefficients are converted to it.  Coefficients are values:
    ``add_term`` replaces the one it adds to by a fresh one, so a
    coefficient shared with another polynomial or a caller never changes.
    """

    __slots__ = ()
    # coefficients may be mutable, so polynomials stay unhashable
    __hash__ = None

    def __init__(self, coeffs: dict | None = None):
        cs = {}
        if coeffs:
            for n, v in coeffs.items():
                if isinstance(v, dict):
                    v = self.zero.__class__(v)
                if v:
                    cs[n] = v
        self.coeffs = cs

    @property
    def degree(self) -> int:
        """-1 for the zero polynomial."""
        return max(self.coeffs, default=-1)

    def coeff(self, n):
        return self.coeffs.get(n, self.zero)

    def add_term(self, key, v, c=1) -> None:
        """Add c * v to the coefficient at key."""
        cur = self.coeffs.get(key, self.zero)
        fresh = cur._like(iadd(dict(cur.coeffs), v.coeffs, c))
        if fresh:
            self.coeffs[key] = fresh
        else:
            self.coeffs.pop(key, None)


class Echelon:
    """Row echelon span of Q-vectors over totally ordered labels.

    A row's pivot is its least label and rows are never back-reduced, so
    eliminating a pivot only brings in larger labels and one ascending
    pass reduces a vector.  Rows inserted together with a combination also
    record, in ``history``, that combination reduced alongside them.
    """

    def __init__(self):
        # pivot label -> normalized row (pivot coefficient 1)
        self.rows: dict = {}
        # pivot label -> combination recorded with the row
        self.history: dict = {}

    def reduce(self, v: dict, combo: dict | None = None) -> dict:
        """Remainder of v modulo the rows; combo follows the eliminations."""
        v = dict(v)
        heap = list(v)
        heapify(heap)
        last = None
        while heap:
            label = heappop(heap)
            if label == last:
                continue
            last = label
            row = self.rows.get(label)
            if row is None or label not in v:
                continue
            c = -v[label]
            for k in row:
                if k not in v:
                    heappush(heap, k)
            iadd(v, row, c)
            if combo is not None:
                iadd(combo, self.history[label], c)
        return v

    def insert(self, v: dict, combo: dict | None = None) -> dict | None:
        """Add v to the span; returns the normalized new row or None.

        With a combination, it is reduced in place alongside v and, when v
        is independent, recorded scaled like the new row.
        """
        v = self.reduce(v, combo)
        if not v:
            return None
        piv = min(v)
        inv = Q(1) / v[piv]
        row = scale(v, inv)
        self.rows[piv] = row
        if combo is not None:
            self.history[piv] = scale(combo, inv)
        return row


def kernel_basis(columns: list[dict]) -> list[dict]:
    """Kernel of the linear map sending unit vector i to columns[i].

    Returns combination dicts {column index: coefficient}, reduced so the
    result is deterministic for a fixed column order.
    """
    ech = Echelon()
    kernel: list[dict] = []
    for i, col in enumerate(columns):
        combo = {i: Q(1)}
        if ech.insert(col, combo) is None:
            kernel.append(combo)
    return kernel
