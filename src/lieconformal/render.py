"""Canonical text rendering of algebra values.

Term order is fixed (generator order, then depth, then variable degree)
so golden files and command output are byte-stable across runs.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .core import CVec, LMPoly, LPoly, LcaPresentation

Q = Fraction


def frac(c: Q) -> str:
    return str(c)


def _coeff_prefix(c: Q, body: str) -> str:
    if body == "":
        return frac(c)
    if c == 1:
        return body
    if c == -1:
        return "-" + body
    if c.denominator == 1:
        return f"{c.numerator}*{body}"
    return f"({c.numerator}/{c.denominator})*{body}"


def _join(parts: list[str]) -> str:
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        if p.startswith("-"):
            out += " - " + p[1:]
        else:
            out += " + " + p
    return out


def vector_text(pres: LcaPresentation, v: CVec) -> str:
    parts = []
    for sym in sorted(v.coeffs):
        c = v.coeffs[sym]
        g, d = sym
        # fold the divided-power normalization into the coefficient
        parts.append(_coeff_prefix(c / math.factorial(d) if d else c, _dpow(pres, sym)))
    return _join(parts)


def _dpow(pres, sym) -> str:
    g, d = sym
    name = pres.gen_name(g)
    if d == 0:
        return name
    if d == 1:
        return f"D*{name}"
    return f"D^{d}*{name}"


def vector_coord_text(pres: LcaPresentation, v: CVec) -> str:
    """Coordinate form ``g[d]=c`` used for points."""
    parts = []
    for (g, d) in sorted(v.coeffs):
        parts.append(f"{pres.gen_name(g)}[{d}]={frac(v.coeffs[(g, d)])}")
    return ", ".join(parts) if parts else "0"


def lpoly_text(pres: LcaPresentation, poly: LPoly) -> str:
    parts = []
    for n in sorted(poly.coeffs):
        vec = poly.coeffs[n]
        for sym in sorted(vec.coeffs):
            c = vec.coeffs[sym]
            g, d = sym
            body = _dpow(pres, sym)
            if n == 1:
                body = "lambda*" + body
            elif n > 1:
                body = f"lambda^{n}*" + body
            parts.append(_coeff_prefix(c / math.factorial(d) if d else c, body))
    return _join(parts)


def lmpoly_text(pres: LcaPresentation, poly: LMPoly) -> str:
    parts = []
    for (i, j) in sorted(poly.coeffs):
        vec = poly.coeffs[(i, j)]
        for sym in sorted(vec.coeffs):
            c = vec.coeffs[sym]
            g, d = sym
            body = _dpow(pres, sym)
            if j == 1:
                body = "mu*" + body
            elif j > 1:
                body = f"mu^{j}*" + body
            if i == 1:
                body = "lambda*" + body
            elif i > 1:
                body = f"lambda^{i}*" + body
            parts.append(_coeff_prefix(c / math.factorial(d) if d else c, body))
    return _join(parts)


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
