"""Exact sparse linear algebra over Q with dict-backed vectors.

Vectors are maps from hashable coordinate labels to nonzero coefficients.
``iadd`` and ``scale`` are the one add-and-drop-zero kernel that every
sparse combination in the package (CVec, UElem, TensorElem, law-series
polynomials, manifold points) is built on.  Labels of an echelon span are
totally ordered, which makes pivoting deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush

Q = Fraction


def iadd(acc: dict, other: dict, c=1) -> dict:
    """acc += c * other in place, dropping zero coefficients; returns acc.

    Values only need ``+`` and truth testing when c is 1, so coefficient
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
        nv = v if old is None else old + v
        if nv:
            acc[k] = nv
        else:
            acc.pop(k, None)
    return acc


def scale(a: dict, c) -> dict:
    c = Q(c)
    if c == 0:
        return {}
    return {k: v * c for k, v in a.items()}


def vec_add(a: dict, b: dict, cb=1) -> dict:
    """a + cb*b with zero coefficients dropped."""
    return iadd(dict(a), b, cb)


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
