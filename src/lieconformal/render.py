"""Canonical text rendering of algebra values.

Vectors and their one- and two-variable polynomials render through one
term loop over (variable prefix, vector) pairs.  Term order is fixed
(variable degrees, then generator order, then depth) so golden files and
command output are byte-stable across runs.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .core import CVec, LcaPresentation

Q = Fraction


def _coeff_prefix(c: Q, body: str) -> str:
    if body == "":
        return str(c)
    if c == 1:
        return body
    if c == -1:
        return "-" + body
    if c.denominator == 1:
        return f"{c.numerator}*{body}"
    return f"({c.numerator}/{c.denominator})*{body}"


def _join(parts: list[str]) -> str:
    # no part holds " + ", so each " + -" is a join before a negative part
    return " + ".join(parts).replace(" + -", " - ") if parts else "0"


def _power(var: str, n: int) -> str:
    """Factor prefix ``var*`` or ``var^n*``; empty for n = 0."""
    if n == 0:
        return ""
    if n == 1:
        return f"{var}*"
    return f"{var}^{n}*"


def _dpow(pres, sym) -> str:
    g, d = sym
    return _power("D", d) + pres.gen_name(g)


def _terms_text(pres: LcaPresentation, terms) -> str:
    """Sum over (variable prefix, vector) terms, in the order given."""
    parts = []
    for prefix, vec in terms:
        for sym, c in sorted(vec.coeffs.items()):
            d = sym[1]
            # fold the divided-power normalization into the coefficient
            c = Q(c, math.factorial(d)) if d else c
            parts.append(_coeff_prefix(c, prefix + _dpow(pres, sym)))
    return _join(parts)


def vector_text(pres: LcaPresentation, v: CVec) -> str:
    return _terms_text(pres, [("", v)])


def vector_coord_text(pres: LcaPresentation, v: CVec) -> str:
    """Coordinate form ``g[d]=c`` used for points."""
    parts = [f"{pres.symbol_label(sym)}={c}" for sym, c in sorted(v.coeffs.items())]
    return ", ".join(parts) if parts else "0"


def poly_text(pres: LcaPresentation, poly) -> str:
    """An LPoly, whose int keys are powers of lambda, or an LMPoly, whose
    pair keys (i, j) are the powers of lambda and mu."""
    def prefix(key) -> str:
        i, j = (key, 0) if isinstance(key, int) else key
        return _power("lambda", i) + _power("mu", j)
    return _terms_text(pres, ((prefix(key), poly.coeffs[key]) for key in sorted(poly.coeffs)))


def word_text(basis, word) -> str:
    if not word:
        return "1"
    return ":" + " ".join(_letter(basis, k) for k in word) + ":"


def _letter(basis, key) -> str:
    label = basis.label(key)
    return label[:-3] if label.endswith("[0]") else label


def uelem_text(basis, u) -> str:
    parts = []
    for word in sorted(u.terms):
        parts.append(_coeff_prefix(u.terms[word], word_text(basis, word) if word else ""))
    return _join(parts)
