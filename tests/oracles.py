"""Independent reference implementations used to pin golden values.

Each oracle recomputes a quantity along a different path from the
package code: the bracket extension applies one derivative at a time,
the Lie bracket integrates the polynomial term by term, and word
rewriting resolves the rightmost inversion first (agreement with the
leftmost-first strategy is a confluence check).  A manifold product sums
the table cell of every exponent pair, none skipped by weight, and the
inner series of a point pair is rebuilt from every word over its
support, none skipped, each coefficient summed over the index tuples of
its word rather than built from its prefix.
The direct bracket, Jacobi residual and axiom report redo the
divided-power extension of the generator table for every symbol pair,
where the package reads it from a table kept per presentation.  The
report's sesquilinearity residual expands the bracket of a vanishing
derivative power by the binomial theorem, where the package reads that
power's row, and its antisymmetry check runs on every generator pair,
where the package checks the diagonal alone.
The law Jacobi check is rerun with one three-sum per position, each
carried to the stop over all positions, none cut at its own position's
stop, and each composed coefficient built for its one position.  The
three-sum itself is rerun naively: each binomial weight from its own
falling product, and every term added, empty or not.
A law table cell is rebuilt from the products' definitions, the λ-bracket
and the ordered product of a divided power, the vacuum taking no
shortcut, where the package reads kept word products and the axiom.
The coalgebra helpers split words over position subsets on their own,
and points add as plain dicts.  The two-factor product wraps each word
as an element and reads the element products and bounds, where the
package reads the word pairs' own.  Brackets and ordered products of words
are rebuilt in λ-coefficient form, [u_λ v] = Σ_n λ^n/n! u_(n)v, by peel
formulas of their own: the n!, the integral weights and the derivative
shifts the package's n-th-product form does without.
The composer's capped product of slotted polynomials is rerun over
monomials spelled as sorted (letter, exponent) pairs, degrees read from
a map and exponents merged through a dict, where the package spells a
monomial as its sorted letters.
The `.lca` format is read by its first implementation: a lexer that steps
one character at a time and builds a span for every token, the same
grammar over its tokens, and a lowering that keeps every literal and
monomial coefficient a Fraction.
"""

import math
from dataclasses import dataclass
from fractions import Fraction as Q
from itertools import combinations_with_replacement, product

from lieconformal.bialgebra import TensorElem
from lieconformal.core import AxiomReport, CheckResult, CVec, GeneratorSpec, LcaPresentation, LMPoly, LPoly
from lieconformal.dsl import (
    MONOMIAL_LIMIT,
    POW_LIMIT,
    AlgebraFile,
    BracketDecl,
    Diagnostic,
    DslError,
    GeneratorDecl,
    SourceSpan,
    _nesting_bounded,
)
from lieconformal.enveloping import UElem, ULPoly
from lieconformal.errors import TruncationInsufficient
from lieconformal.lawtable import (
    _Composer,
    _guard_table,
    _poly_madd,
    _slot_monomial,
    word_from_midx,
    word_top,
)
from lieconformal.linalg import iadd


def midx_factorial(m) -> int:
    """Π e! over the exponents e of a multi-index ((key, e), ...)."""
    return math.prod(math.factorial(e) for _, e in m)


def binom_z(n: int, k: int) -> int:
    """Binomial coefficient with integer (possibly negative) upper index."""
    if k < 0:
        return 0
    num = 1
    for s in range(k):
        num *= n - s
    return num // math.factorial(k)


def naive_three_sum(l: int, t: int, j: int, stops, terms) -> dict:
    """Residual of the Borcherds three-sum identity, term by term.

    The same sums as `core.three_sum`, each weight C(top, i) taken by
    `binom_z` on its own and every term added, also an empty one.
    """
    first, second, third = terms

    def weights(top, count):
        # binomials C(top, i) for i < count; past a nonnegative top they vanish
        return ((i, binom_z(top, i)) for i in range(min(count, top + 1) if top >= 0 else count))

    out: dict = {}
    for i, c in weights(l, stops[0] - j):
        iadd(out, first(t + l - i, j + i), -c if i & 1 else c)
    for i, c in weights(l, stops[1] - t):
        iadd(out, second(j + l - i, t + i), c if (l + i) & 1 else -c)
    for i, c in weights(t, stops[2] - l):
        iadd(out, third(t + j - i, l + i), -c)
    return out


def oracle_bracket(pres, v: CVec, w: CVec) -> LPoly:
    """Bracket extension by single derivative steps on either side."""

    def pair_bracket(sym_a, sym_b) -> LPoly:
        (g, d), (h, dp) = sym_a, sym_b
        if d > 0:
            # left rule, one derivative at a time, divided-power scaling
            inner = pair_bracket((g, d - 1), sym_b)
            out = LPoly()
            for n, vec in inner.coeffs.items():
                out.add_term(n + 1, vec.scale(Q(-1, d)))
            return out
        if dp > 0:
            inner = pair_bracket(sym_a, (h, dp - 1))
            out = LPoly()
            for n, vec in inner.coeffs.items():
                out.add_term(n, pres.partial(vec).scale(Q(1, dp)))
                out.add_term(n + 1, vec.scale(Q(1, dp)))
            return out
        return pres.gen_bracket(g, h)

    out = LPoly()
    for sa, ca in v.coeffs.items():
        for sb, cb in w.coeffs.items():
            part = pair_bracket(sa, sb)
            for n, vec in part.coeffs.items():
                out.add_term(n, vec.scale(ca * cb))
    return out


def direct_antisym_image(pres, poly: LPoly) -> LPoly:
    """The antisymmetry image of a bracket, term by term."""
    out = LPoly()
    for n, vec in poly.coeffs.items():
        sign = (-1) ** n
        for s in range(n + 1):
            c = -sign * math.comb(n, s) * math.factorial(s)
            out.add_term(n - s, pres.partial_div(vec, s), c)
    return out


def direct_bracket(pres, v: CVec, w: CVec) -> LPoly:
    """Divided-power extension of the generator table, redone for every
    symbol pair: both derivative powers applied in closed form."""
    out = LPoly()
    for (g, d), cv in v.coeffs.items():
        for (h, dp), cw in w.coeffs.items():
            if g <= h:
                base = pres.brackets.get((g, h), LPoly())
            else:
                base = direct_antisym_image(pres, pres.brackets.get((h, g), LPoly()))
            scale = cv * cw
            for s in range(dp + 1):
                c1 = Q(1, math.factorial(dp - s))
                for n, vec in base.coeffs.items():
                    shifted = pres.partial_div(vec, s)
                    if shifted:
                        c = scale * c1 * Q((-1) ** d, math.factorial(d))
                        out.add_term(n + dp - s + d, shifted, c)
    return out


def direct_jacobi_residual(pres, a: CVec, b: CVec, c: CVec) -> LMPoly:
    """Two-variable conformal Jacobi residual from `direct_bracket`."""
    out = LMPoly()
    for n, vec in direct_bracket(pres, a, b).coeffs.items():
        for m, w in direct_bracket(pres, vec, c).coeffs.items():
            for s in range(m + 1):
                out.add_term((n + s, m - s), w, math.comb(m, s))
    for n, vec in direct_bracket(pres, a, c).coeffs.items():
        for m, w in direct_bracket(pres, b, vec).coeffs.items():
            out.add_term((n, m), w)
    for m, vec in direct_bracket(pres, b, c).coeffs.items():
        for n, w in direct_bracket(pres, a, vec).coeffs.items():
            out.add_term((n, m), w, -1)
    return out


def direct_torsion_residual(pres, i: int, j: int, poly: LPoly) -> LPoly:
    """Sesquilinearity residual of the stored [g_i λ g_j] in closed form:
    the bracket of a vanishing derivative power ∂^t g, t the torsion
    order, left argument first.  [∂^t g λ h] = (-λ)^t [g λ h] and
    [g λ ∂^t h] = (λ + ∂)^t [g λ h], expanded by the binomial theorem."""
    ti, tj = pres.generators[i].torsion, pres.generators[j].torsion
    out = LPoly()
    if ti is not None:
        for n, vec in poly.coeffs.items():
            out.add_term(n + ti, vec, (-1) ** ti)
    elif tj is not None:
        for s in range(tj + 1):
            for n, vec in poly.coeffs.items():
                full = pres.partial_div(vec, s).scale(math.factorial(s))
                out.add_term(n + tj - s, full, math.comb(tj, s))
    return out


def direct_check_axioms(pres) -> AxiomReport:
    """`LcaPresentation.check_axioms` with every bracket and residual from
    the direct extension and the closed forms above, antisymmetry checked
    on every pair i <= j."""
    ngen = len(pres.generators)
    units = [CVec.unit((g, 0)) for g in range(ngen)]

    def first_failure(name, cases) -> CheckResult:
        hit = next(((w, r) for w, r in cases if r), None)
        return CheckResult(name, True) if hit is None else CheckResult(name, False, *hit)

    return AxiomReport([
        first_failure("sesquilinearity", (
            ((i, j), direct_torsion_residual(pres, i, j, poly))
            for (i, j), poly in sorted(pres.brackets.items())
        )),
        first_failure("antisymmetry", (
            ((i, j), direct_bracket(pres, units[i], units[j])
             - direct_antisym_image(pres, direct_bracket(pres, units[j], units[i])))
            for i in range(ngen) for j in range(i, ngen)
        )),
        first_failure("jacobi", (
            ((i, j, k), direct_jacobi_residual(pres, units[i], units[j], units[k]))
            for i, j, k in product(range(ngen), repeat=3)
        )),
    ])


def oracle_lie_bracket(pres, v: CVec, w: CVec) -> CVec:
    """Definite integral of the bracket polynomial, term by term.

    Integrates each power of the variable from minus the derivative to
    zero: the antiderivative at zero vanishes, and at the lower limit the
    power becomes a signed derivative power acting on the coefficient.
    """
    poly = direct_bracket(pres, v, w)
    out = CVec()
    for n, vec in poly.coeffs.items():
        full = pres.partial_div(vec, n + 1).scale(math.factorial(n + 1))
        lower = full.scale(Q((-1) ** (n + 1), n + 1))
        out = out - lower
    return out


def oracle_straighten(alg, word) -> UElem:
    """Rewriting into ordered words resolving the rightmost inversion first."""
    word = tuple(word)
    pos = None
    for i in range(len(word) - 2, -1, -1):
        if word[i] > word[i + 1]:
            pos = i
            break
    if pos is None:
        return UElem.monomial(word)
    swapped = word[:pos] + (word[pos + 1], word[pos]) + word[pos + 2 :]
    res = oracle_straighten(alg, swapped)
    br = alg._lie(word[pos], word[pos + 1])
    for bw, c in br.terms.items():
        res = res + oracle_straighten(alg, word[:pos] + bw + word[pos + 2 :]).scale(c)
    return res


def oracle_mul(alg, u: UElem, v: UElem) -> UElem:
    out = UElem()
    for wu, cu in u.terms.items():
        for wv, cv in v.terms.items():
            out.iadd_scaled(oracle_straighten(alg, wu + wv), cu * cv)
    return out


def skew_bracket(alg, u: UElem, v: UElem):
    """Bracket computed through the skew-symmetry identity.

    Expands the transposed bracket at the negated shifted variable; the
    derivative acts on the coefficients through the translation operator.
    """
    base = alg.bracket(v, u)
    out = {}
    for n, elem in base.coeffs.items():
        for s in range(n + 1):
            c = Q(-((-1) ** n) * math.comb(n, s))
            shifted = alg.partial_pow(elem, s).scale(c)
            if shifted:
                cur = out.setdefault(n - s, UElem())
                cur.iadd_scaled(shifted, 1)
    return ULPoly({k: v2 for k, v2 in out.items() if v2})


def nth_law_cell(env, k, kp, n: int) -> dict:
    """Single-letter part of e_k (n) e_k' divided by k! k'!, by letter, from
    the products' definitions: for n >= 0 the λ^n coefficient of [u_λ v]
    times n!, for n < 0 the ordered product (∂^(-n-1) u / (-n-1)!)_(-1) v,
    with the vacuum on either side built like any other word."""
    u = UElem.monomial(word_from_midx(k))
    v = UElem.monomial(word_from_midx(kp))
    if n >= 0:
        prod = env.bracket(u, v).coeff(n).scale(math.factorial(n))
    else:
        prod = env.nop(env.partial_div(u, -n - 1), v)
    norm = Q(1, midx_factorial(k) * midx_factorial(kp))
    return {w[0]: c * norm for w, c in prod.terms.items() if len(w) == 1}


def brute_combine(M, left: list, right: list, n: int) -> dict:
    """Index-n cells of a vertex manifold summed over every word pair of
    total length 1..N of two (sorted word, length, coefficient) lists."""
    out: dict = {}
    for wu, s, w in left:
        for wv, sp, wp in right:
            if 0 < s + sp <= M.N:
                for pos, v in M.table_entry(wu, wv, n).items():
                    out[pos] = out.get(pos, 0) + w * wp * v
    return {pos: v for pos, v in out.items() if v}


def brute_inner_series(M, b, c, q: int) -> list:
    """x^q coefficients of the (b, c) product series of a vertex manifold,
    as (w, |w|, coefficient), from every sorted word w of length 0..N over
    the letters of the series, in order of length, then lex.  A word's coefficient sums
    the products of its letters' coefficients over every index tuple
    m_1 + ... + m_s + s - 1 = q; the series from lo up hold every index
    such a tuple can take."""
    n_bc = M.truncation_bound(b, c)
    lo = q + 1 - M.N * max(n_bc, 1)
    heads: dict = {}
    for m in range(lo, n_bc):
        for pos, v in brute_combine(M, M._powers(b), M._powers(c), m).items():
            heads.setdefault(pos, {})[m] = v
    out = []
    for s in range(M.N + 1):
        for word in combinations_with_replacement(sorted(heads), s):
            total = sum(math.prod(v for _, v in terms)
                        for terms in product(*(heads[f].items() for f in word))
                        if sum(m for m, _ in terms) + s - 1 == q)
            if total:
                out.append((word, s, total))
    return out


def point_add(a: dict, b: dict, cb=1) -> dict:
    """a + cb*b as a plain dict, zero coefficients dropped."""
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + cb * v
    return {k: v for k, v in out.items() if v}


def naive_tensor_nth(alg, s: TensorElem, t: TensorElem, n: int) -> TensorElem:
    """`bialgebra.tensor_nth` through the element products: each word is
    wrapped as a monomial and read by `trunc_bound` and `nth`."""
    out = TensorElem()
    for (u1, u2), c1 in s.terms.items():
        e_u1, e_u2 = UElem.monomial(u1), UElem.monomial(u2)
        for (v1, v2), c2 in t.terms.items():
            e_v1, e_v2 = UElem.monomial(v1), UElem.monomial(v2)
            n1 = alg.trunc_bound(e_u1, e_v1)
            n2 = alg.trunc_bound(e_u2, e_v2)
            c = c1 * c2
            for m in range(n - n2, n1):
                p1 = alg.nth(e_u1, e_v1, m)
                if not p1:
                    continue
                p2 = alg.nth(e_u2, e_v2, n - m - 1)
                if not p2:
                    continue
                for w1, a in p1.terms.items():
                    for w2, b in p2.terms.items():
                        out.iadd((w1, w2), c * a * b)
    return out


def flip(t: TensorElem) -> TensorElem:
    """The two tensor slots swapped."""
    return TensorElem({(b, a): c for (a, b), c in t.terms.items()})


def delta_on_component(t: TensorElem, component: int) -> dict:
    """The coproduct applied to one tensor slot, as {(x, y, z): c}: each
    word of that slot splits over every subset of its positions."""
    out: dict = {}
    for (a, b), c in t.terms.items():
        word = (a, b)[component]
        n = len(word)
        for mask in range(1 << n):
            left = tuple(word[i] for i in range(n) if mask >> i & 1)
            right = tuple(word[i] for i in range(n) if not mask >> i & 1)
            key = (left, right, b) if component == 0 else (a, left, right)
            out[key] = out.get(key, 0) + c
    return {k: v for k, v in out.items() if v}


class LambdaPeel:
    """Brackets [u_λ v] kept as λ-coefficients and ordered products of an
    enveloping algebra, by the λ-form peel rules: the integral of the nested
    bracket, the derivative shift e^{∂ d/dλ} of each head, and ordered-product
    corrections scaled by m!.  Only straightening, the associative product
    and the divided powers are read off the algebra."""

    def __init__(self, alg):
        self.alg = alg
        self._bracket_memo: dict = {}
        self._nop_memo: dict = {}

    def bracket(self, u: UElem, v: UElem) -> ULPoly:
        out = ULPoly()
        for wu, cu in u.terms.items():
            for wv, cv in v.terms.items():
                for n, val in self.bracket_words(wu, wv).coeffs.items():
                    out.add_term(n, val, cu * cv)
        return out

    def nop(self, u: UElem, v: UElem) -> UElem:
        out = UElem()
        for wu, cu in u.terms.items():
            for wv, cv in v.terms.items():
                out.iadd_scaled(self.nop_words(wu, wv), cu * cv)
        return out

    def bracket_words(self, wu, wv) -> ULPoly:
        key = (wu, wv)
        if key in self._bracket_memo:
            return self._bracket_memo[key]
        alg = self.alg
        out = ULPoly()
        if not wu or not wv:
            pass
        elif len(wu) == 1 and len(wv) == 1:
            base = alg.pres.bracket(alg.basis.vector(wu[0]), alg.basis.vector(wv[0]))
            for n, vec in base.coeffs.items():
                out.add_term(n, alg.embed(vec))
        elif len(wu) == 1:
            # [a_λ (b rest)] = [a_λ b] rest + b [a_λ rest] + ∫_0^λ [[a_λ b]_μ rest] dμ
            b, rest = wv[0], UElem.monomial(wv[1:])
            ab = self.bracket_words(wu, (b,))
            for n, r in ab.coeffs.items():
                out.add_term(n, alg.mul(r, rest))
            for n, r in self.bracket_words(wu, wv[1:]).coeffs.items():
                out.add_term(n, alg.mul(UElem.monomial((b,)), r))
            for n, r in ab.coeffs.items():
                for m, s in self.bracket(r, rest).coeffs.items():
                    out.add_term(n + m + 1, s, Q(1, m + 1))
        else:
            # [(a rest)_λ v] = :(e^{∂ d/dλ} a)[rest_λ v]: + :(e^{∂ d/dλ} rest)[a_λ v]:
            #                  + ∫_0^λ [rest_μ [a_{λ-μ} v]] dμ
            a, rest = wu[:1], wu[1:]
            av = self.bracket_words(a, wv)
            for head, poly in ((a, self.bracket_words(rest, wv)), (rest, av)):
                for n, q in poly.coeffs.items():
                    for s in range(n + 1):
                        shifted = self.nop(alg._dpow(head, s), q)
                        out.add_term(n - s, shifted, math.perm(n, s))
            for n, p in av.coeffs.items():
                for m, r in self.bracket(UElem.monomial(rest), p).coeffs.items():
                    for s in range(n + 1):
                        out.add_term(n + m + 1, r, Q((-1) ** s * math.comb(n, s), m + s + 1))
        self._bracket_memo[key] = out
        return out

    def nop_words(self, wu, wv) -> UElem:
        key = (wu, wv)
        if key in self._nop_memo:
            return self._nop_memo[key]
        alg = self.alg
        if len(wu) <= 1:
            out = alg.straighten(wu + wv)
        else:
            a, rest = wu[:1], wu[1:]
            out = self.nop(UElem.monomial(a), self.nop_words(rest, wv))
            for head, poly in ((a, self.bracket_words(rest, wv)), (rest, self.bracket_words(a, wv))):
                for m, r in poly.coeffs.items():
                    out = out + self.nop(alg._dpow(head, m + 1), r).scale(math.factorial(m))
        self._nop_memo[key] = out
        return out


class Degrees(dict):
    """Total degree of each exponent-spelled monomial, summed once when first asked."""

    def __missing__(self, m: tuple) -> int:
        d = self[m] = sum(e for _, e in m)
        return d


def naive_poly_madd(out: dict, p1: dict, p2: dict, cap: int, degree: Degrees, c=1) -> dict:
    """out += c * p1 * p2 for polynomials over monomials ((letter, exponent),
    ...), sorted by letter, in place, dropping terms of degree above cap;
    returns out.  ``degree`` gives each monomial's total degree."""
    for m1, c1 in p1.items():
        room = cap - degree[m1]
        row: dict = {}
        for m2, c2 in p2.items():
            if degree[m2] > room:
                continue
            merged: dict = dict(m1)
            for v, e in m2:
                merged[v] = merged.get(v, 0) + e
            # distinct m2 give distinct products with m1
            row[tuple(sorted(merged.items()))] = c2
        iadd(out, row, c * c1)
    return out


def _position_composed(comp, memo: dict, l, outer_n: int, inner_n: int, direct_slot: int,
                       inner_slots, substitute_first: bool) -> dict:
    """One position's mixed coefficient of the law applied to a law.

    ``direct_slot`` receives the unsubstituted word; the other is
    substituted by the composed series over ``inner_slots`` and the
    ``inner_n`` coefficient is taken.  A composition needing an index
    below the window raises at the position's first cell that needs it.
    """
    key = (l, outer_n, inner_n, direct_slot, inner_slots, substitute_first)
    out = memo.get(key)
    if out is not None:
        return out
    if outer_n < comp.lo:
        raise TruncationInsufficient(f"outer index {outer_n} outside window {comp.table.window}")
    out = {}
    for (wu, wv), c in comp._law.get(l, {}).get(outer_n, {}).items():
        direct, subst = (wv, wu) if substitute_first else (wu, wv)
        inner = comp.conv(subst, inner_n, inner_slots)
        if inner:
            _poly_madd(out, {_slot_monomial(direct, direct_slot): 1}, inner, comp.cap, c)
    memo[key] = out
    return out


def global_stop_law_jacobi(table, samples, cap: int) -> dict:
    """`check_law_jacobi` with every sum run to the one stop over all positions.

    The stops are one past the top inner index over every kept cell of the
    table, per substitution side, whatever the position.  Each position
    runs a three-sum of its own, `naive_three_sum`, whose terms
    `_position_composed` builds.
    """
    _guard_table(table, cap)
    if not table.positions:
        return {"pass": False, "checks": [], "reason": "table has no positions"}
    comp = _Composer(table, cap)
    memo: dict = {}
    kept = [pair for law in comp._law.values() for cell in law.values() for pair in cell]
    first = max((word_top(wu, comp.maxn) for wu, _ in kept), default=-1)
    second = max((word_top(wv, comp.maxn) for _, wv in kept), default=-1)
    stops = (second + 1, second + 1, first + 1)
    entries = []
    for (l, t, j) in samples:
        for pos in table.positions:
            terms = [
                lambda outer, inner, slot=slot, slots=slots, subst=subst:
                    _position_composed(comp, memo, pos, outer, inner, slot, slots, subst)
                for slot, slots, subst in ((0, (1, 2), False), (1, (0, 2), False), (2, (0, 1), True))
            ]
            resid = naive_three_sum(l, t, j, stops, terms)
            entries.append({"ltj": [l, t, j], "l": table.labels.get(pos, str(pos)),
                            "pass": not resid, "residual_monomials": len(resid)})
            if resid:
                return {"pass": False, "checks": entries}
    return {"pass": bool(entries), "checks": entries}


# -- the .lca text format, character by character -----------------------------

@dataclass
class NaiveToken:
    kind: str  # name, int, punct, eof
    text: str
    span: SourceSpan


_NAIVE_PUNCT = ("[", "]", "{", "}", "(", ")", ",", ";", ":", "=", "+", "-", "*", "^", "/")


def naive_tokenize(text: str) -> list:
    """Tokens one character at a time, a span built for each.

    A comment advances no column, and any `str.isdigit` character starts
    or continues an int token.
    """
    toks = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        start, sl, sc = i, line, col
        if ch.isdigit():
            while i < n and text[i].isdigit():
                i += 1
                col += 1
            toks.append(NaiveToken("int", text[start:i], SourceSpan(start, i, sl, sc)))
            continue
        if ch.isalpha() or ch == "_":
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
                col += 1
            toks.append(NaiveToken("name", text[start:i], SourceSpan(start, i, sl, sc)))
            continue
        if ch in _NAIVE_PUNCT:
            i += 1
            col += 1
            toks.append(NaiveToken("punct", ch, SourceSpan(start, i, sl, sc)))
            continue
        raise DslError(Diagnostic(f"unexpected character {ch!r}", SourceSpan(start, start + 1, sl, sc)))
    toks.append(NaiveToken("eof", "", SourceSpan(n, n, line, col)))
    return toks


class NaiveParser:
    """The recursive-descent grammar over `naive_tokenize`, every literal a Fraction."""

    def __init__(self, text: str):
        self.toks = naive_tokenize(text)
        self.pos = 0

    def peek(self) -> NaiveToken:
        return self.toks[self.pos]

    def next(self) -> NaiveToken:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def fail(self, expected: str):
        t = self.peek()
        got = t.text or "end of input"
        raise DslError(Diagnostic(f"expected {expected}, found {got!r}", t.span))

    def expect(self, kind: str, text: str | None = None) -> NaiveToken:
        t = self.peek()
        if t.kind != kind or (text is not None and t.text != text):
            self.fail(text if text is not None else kind)
        return self.next()

    def accept(self, kind: str, text: str | None = None):
        t = self.peek()
        if t.kind == kind and (text is None or t.text == text):
            return self.next()
        return None

    def parse_algebra(self) -> AlgebraFile:
        start = self.expect("name", "algebra")
        name = self.expect("name").text
        self.expect("punct", "{")
        self.expect("name", "generators")
        self.expect("punct", "{")
        gens = []
        seen = set()
        while not self.accept("punct", "}"):
            gname = self.expect("name")
            if gname.text in seen:
                raise DslError(Diagnostic(f"duplicate generator {gname.text!r}", gname.span))
            seen.add(gname.text)
            self.expect("punct", ":")
            kind = self.expect("name")
            torsion = None
            if kind.text == "torsion":
                self.expect("punct", "(")
                m = self.expect("int")
                torsion = int(m.text)
                if torsion < 1:
                    raise DslError(Diagnostic("torsion order must be positive", m.span))
                self.expect("punct", ")")
            elif kind.text != "free":
                raise DslError(Diagnostic("expected 'free' or 'torsion(m)'", kind.span))
            self.expect("punct", ";")
            gens.append(GeneratorDecl(gname.text, torsion, gname.span))
        brackets = []
        while not self.accept("punct", "}"):
            kw = self.expect("name", "bracket")
            self.expect("punct", "[")
            left = self.expect("name").text
            self.expect("punct", ",")
            right = self.expect("name").text
            self.expect("punct", "]")
            self.expect("punct", "=")
            expr = self.parse_expr()
            self.expect("punct", ";")
            brackets.append(BracketDecl(left, right, expr, kw.span))
        self.expect("eof")
        return AlgebraFile(name, gens, brackets, start.span)

    def parse_expr(self):
        span = self.peek().span
        terms = []
        negate = bool(self.accept("punct", "-"))
        node = self.parse_term()
        terms.append(("neg", node, span) if negate else node)
        while True:
            if self.accept("punct", "+"):
                terms.append(self.parse_term())
            elif self.accept("punct", "-"):
                t = self.parse_term()
                terms.append(("neg", t, t[-1]))
            else:
                break
        if len(terms) == 1:
            return terms[0]
        return ("add", terms, span)

    def parse_term(self):
        span = self.peek().span
        factors = [self.parse_factor()]
        while self.accept("punct", "*"):
            factors.append(self.parse_factor())
        if len(factors) == 1:
            return factors[0]
        return ("mul", factors, span)

    def parse_factor(self):
        node = self.parse_atom()
        if self.accept("punct", "^"):
            e = self.expect("int")
            if int(e.text) > POW_LIMIT:
                raise DslError(Diagnostic(f"exponent {e.text} is beyond the limit {POW_LIMIT}", e.span))
            return ("pow", node, int(e.text), node[-1])
        return node

    def parse_atom(self):
        t = self.peek()
        if t.kind == "int":
            self.next()
            num = int(t.text)
            if self.accept("punct", "/"):
                den = self.expect("int")
                return ("num", Q(num, int(den.text)), t.span)
            return ("num", Q(num), t.span)
        if t.kind == "name":
            self.next()
            return ("sym", t.text, t.span)
        if t.kind == "punct" and t.text == "(":
            self.next()
            node = self.parse_expr()
            self.expect("punct", ")")
            return node
        self.fail("a number, name or parenthesized expression")


def _naive_expand(node) -> list:
    kind = node[0]
    if kind == "num":
        return [(node[1], 0, [])]
    if kind == "sym":
        if node[1] == "lambda":
            return [(Q(1), 1, [])]
        return [(Q(1), 0, [(node[1], node[2])])]
    if kind == "neg":
        return [(-c, p, syms) for (c, p, syms) in _naive_expand(node[1])]
    if kind == "add":
        out = []
        for sub in node[1]:
            out.extend(_naive_expand(sub))
        return out
    if kind == "mul":
        out = [(Q(1), 0, [])]
        for sub in node[1]:
            out = _naive_times(out, _naive_expand(sub), node[-1])
        return out
    if kind == "pow":
        base = _naive_expand(node[1])
        out = [(Q(1), 0, [])]
        for _ in range(node[2]):
            out = _naive_times(out, base, node[-1])
        return out
    raise AssertionError(kind)


def _naive_times(left: list, right: list, span) -> list:
    if len(left) * len(right) > MONOMIAL_LIMIT:
        raise DslError(Diagnostic(
            f"expansion forms {len(left) * len(right)} monomials, beyond the limit {MONOMIAL_LIMIT}", span))
    return _naive_merge((c1 * c2, p1 + p2, s1 + s2) for (c1, p1, s1) in left for (c2, p2, s2) in right)


def _naive_merge(monomials) -> list:
    out: dict = {}
    for c, p, syms in monomials:
        key = (p, tuple(name for name, _ in syms))
        total, _, first = out.get(key, (0, p, syms))
        out[key] = (total + c, p, first)
    return [m for m in out.values() if m[0]]


def _naive_lower_expr(expr, gen_index, torsion, span):
    poly: dict = {}
    warnings = []
    for (coeff, lpow, syms) in _naive_expand(expr):
        if coeff == 0:
            continue
        dcount = 0
        gen = None
        gen_span = span
        for (name, sp) in syms:
            if name == "D":
                if gen is not None:
                    raise DslError(
                        Diagnostic("derivative operator must be applied to the left of a generator", sp)
                    )
                dcount += 1
            else:
                if name not in gen_index:
                    raise DslError(Diagnostic(f"unknown identifier {name!r}", sp))
                if gen is not None:
                    raise DslError(
                        Diagnostic("every monomial must contain exactly one generator", sp)
                    )
                gen = name
                gen_span = sp
        if gen is None:
            raise DslError(
                Diagnostic("every monomial must contain exactly one generator", span)
            )
        g = gen_index[gen]
        t = torsion[g]
        if t is not None and dcount >= t:
            warnings.append(
                Diagnostic(
                    f"derivative power {dcount} annihilates torsion generator {gen!r}; term dropped",
                    gen_span,
                )
            )
            continue
        iadd(poly.setdefault(lpow, {}), {(g, dcount): coeff * math.factorial(dcount)})
    return poly, warnings


@_nesting_bounded
def naive_load_presentation(text: str):
    """`dsl.load_presentation` over `naive_tokenize` and Fraction lowering."""
    ast = NaiveParser(text).parse_algebra()
    gen_index = {g.name: i for i, g in enumerate(ast.generators)}
    torsion = [g.torsion for g in ast.generators]
    table = {}
    warnings = []
    for decl in ast.brackets:
        for side in (decl.left, decl.right):
            if side not in gen_index:
                raise DslError(Diagnostic(f"unknown identifier {side!r}", decl.span))
        i, j = gen_index[decl.left], gen_index[decl.right]
        if i > j:
            raise DslError(
                Diagnostic(
                    f"bracket [{decl.left}, {decl.right}] must be stated as "
                    f"[{decl.right}, {decl.left}]; transposed entries are derived",
                    decl.span,
                )
            )
        if (i, j) in table:
            raise DslError(
                Diagnostic(f"bracket [{decl.left}, {decl.right}] declared twice", decl.span)
            )
        poly, warns = _naive_lower_expr(decl.expr, gen_index, torsion, decl.span)
        warnings.extend(warns)
        poly = LPoly(poly)
        if poly:
            table[(i, j)] = poly
    specs = [GeneratorSpec(g.name, g.torsion) for g in ast.generators]
    return LcaPresentation(ast.name, specs, table), warnings


@_nesting_bounded
def naive_parse_vector(text: str, pres) -> CVec:
    """`dsl.parse_vector` over `naive_tokenize` and Fraction lowering."""
    parser = NaiveParser(text)
    expr = parser.parse_expr()
    parser.expect("eof")
    span = SourceSpan(0, len(text), 1, 1)
    if any(t.kind == "name" and t.text == "lambda" for t in parser.toks):
        raise DslError(Diagnostic("lambda is not allowed here", span))
    gen_index = {g.name: i for i, g in enumerate(pres.generators)}
    torsion = [g.torsion for g in pres.generators]
    poly, _ = _naive_lower_expr(expr, gen_index, torsion, span)
    return CVec(poly.get(0, {}))
