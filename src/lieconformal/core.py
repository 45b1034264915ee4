"""Finitely presented Lie conformal algebras over Q.

Elements are finite rational combinations of divided-power symbols
``(g, d)`` standing for the d-th divided derivative of generator g.  The
bracket of two generators is a polynomial in the formal variable lambda
with such combinations as coefficients; everything else (derivative
shifts, antisymmetry-derived entries, products of composite elements) is
computed from the presentation table.

A presentation does not change once built, and it keeps what it derives
from its table: one lazily filled bracket row per ordered symbol pair,
and its conformal weights.  A row is a function of the presentation
alone, so filling it is idempotent: two threads that build the same row
store equal values, and a reader sees either no row or a whole one.
Results handed out share no dict with a row.

The row is the one sesquilinear extension of the table, and one pair
sum reads it: brackets, n-th products, the Lie bracket and the Jacobi
residual all take their λ-coefficients from that sum.
Rows and ∂ shift symbols through one helper, and `symbol_valid` states
the torsion rule for every other module.  `judge` is the one verdict of
a sampled check, which fails one that examined nothing.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from itertools import product
from types import MappingProxyType
from typing import NamedTuple

from .linalg import Echelon, Sparse, SparsePoly, exact, iadd, scale

Symbol = tuple  # (generator index, depth)


def three_sum(l: int, t: int, j: int, stops, terms) -> dict:
    """Residual of the Borcherds three-sum identity at indices (l, t, j).

    ``terms`` are the three nested products as callables of an (outer,
    inner) index pair returning sparse dicts: u_outer (v_inner w),
    v_outer (u_inner w) and (u_inner v)_outer w.  Their values are what
    `linalg.iadd` adds: exact scalars, keyed by whatever the caller likes
    (the law check keys them by position and monomial), or values with
    ``+``, truth testing and ``* c``.  ``stops`` are exclusive upper bounds
    on the inner index of each, past which the term vanishes.  Each sum's
    weights C(top, i) come from one pass of C(top, i+1) = C(top, i) (top - i)
    / (i + 1), in exact integer division; past a nonnegative top they are
    zero and the sum ends.  Every term is called, in order, but an empty
    one is not added.  The residual is zero exactly when the identity holds.
    """
    out: dict = {}
    # (term, top, outer index at i = 0, inner index at i = 0, count, sign at
    # i = 0, sign step): the three sums, the second signed -(-1)^(l+i) and
    # the third subtracted
    for term, top, outer, inner, count, c, alt in (
        (terms[0], l, t + l, j, stops[0] - j, 1, -1),
        (terms[1], l, j + l, t, stops[1] - t, 1 if l & 1 else -1, -1),
        (terms[2], t, t + j, l, stops[2] - l, -1, 1),
    ):
        for i in range(count):
            value = term(outer - i, inner + i)
            if value:
                iadd(out, value, c)
            c = c * alt * (top - i) // (i + 1)
            if not c:
                break
    return out


# why a check that examined no case fails
NO_CASE = "no case was checked"


def judge(entries) -> dict:
    """Report of a check over its entries, dicts with a ``"pass"`` verdict.

    The entries are judged in order, and the first failing one ends the
    check and the report's ``checks``.  A check that examined no entry
    fails, and its report gives ``NO_CASE`` as its ``"reason"``.
    """
    checks = []
    for entry in entries:
        checks.append(entry)
        if not entry["pass"]:
            return {"pass": False, "checks": checks}
    if checks:
        return {"pass": True, "checks": checks}
    return {"pass": False, "checks": checks, "reason": NO_CASE}


class CVec(Sparse):
    """Finite rational combination of divided-power basis symbols."""

    __slots__ = ()

    @classmethod
    def unit(cls, sym: Symbol, c=1) -> "CVec":
        return cls({sym: c})

    def max_depth(self) -> int:
        return max((d for (_, d) in self.coeffs), default=0)


ZERO_VEC = CVec()


class LPoly(SparsePoly):
    """Polynomial in one formal variable with CVec coefficients."""

    __slots__ = ()
    zero = ZERO_VEC


class LMPoly(SparsePoly):
    """Polynomial in two formal variables with CVec coefficients, keyed (i, j)."""

    __slots__ = ()
    zero = ZERO_VEC


class GeneratorSpec(NamedTuple):
    name: str
    torsion: int | None = None  # order m means the m-th derivative vanishes

    @property
    def is_free(self) -> bool:
        return self.torsion is None


class CheckResult(NamedTuple):
    name: str
    passed: bool
    witness: tuple | None = None
    residual: object | None = None


class AxiomReport(NamedTuple):
    checks: list

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def get(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def _exact_nonzero(acc: dict) -> dict:
    return {k: exact(v) for k, v in acc.items() if v}


def _clean(acc: dict) -> dict:
    # a row {n: {symbol: c}} of exact nonzero coefficients, empty rows dropped
    return {n: vec for n, raw in acc.items() if (vec := _exact_nonzero(raw))}


def _lpoly(row: dict) -> LPoly:
    return LPoly._like({n: CVec._like(dict(vec)) for n, vec in row.items()})


class LcaPresentation:
    """Generators, torsion orders and the generator bracket table.

    Brackets are stored only for index pairs (i, j) with i <= j in
    declaration order; the transposed entries are derived from the stored
    ones by antisymmetry.

    A presentation must not change once built: ``brackets`` is a read-only
    mapping, and its polynomials are not to be changed either, since what
    is derived from them is kept.  The symbol table maps an ordered symbol
    pair (a, b) to the λ-coefficients ``{n: {symbol: coefficient}}`` of
    [a λ b], extended from its generator pair by sesquilinearity and
    antisymmetry.  A row is built on first use and never changed or
    handed out afterwards: ``_bracket`` is the one sum of rows scaled by
    coefficients, and n-th products and the Lie bracket are read off its
    λ-coefficients.  Rows whose argument is a vanishing power ∂^(t)g of a
    generator of torsion order t are built only for the sesquilinearity
    check, which needs them to be zero.
    """

    def __init__(self, name: str, generators, brackets):
        self.name = name
        self.generators: list[GeneratorSpec] = list(generators)
        names = [g.name for g in self.generators]
        if len(set(names)) != len(names):
            raise ValueError("duplicate generator names")
        self._index = {g.name: i for i, g in enumerate(self.generators)}
        table = {}
        for (i, j), poly in brackets.items():
            if not (0 <= i <= j < len(self.generators)):
                raise ValueError(f"bracket key ({i}, {j}) out of order or range")
            if not isinstance(poly, LPoly):
                poly = LPoly(poly)
            for vec in poly.coeffs.values():
                for sym in vec.coeffs:
                    if not self.symbol_valid(sym):
                        raise ValueError(f"invalid symbol {sym} in bracket ({i},{j})")
            if poly:
                table[(i, j)] = poly
        self.brackets = MappingProxyType(table)
        self._rows: dict = {}
        self._lie_conformal: bool | None = None

    # -- structure -------------------------------------------------------

    def gen_index(self, name: str) -> int:
        return self._index[name]

    def gen_name(self, i: int) -> str:
        return self.generators[i].name

    def symbol_label(self, sym: Symbol) -> str:
        """The label ``name[d]`` of the symbol (g, d)."""
        g, d = sym
        return f"{self.gen_name(g)}[{d}]"

    def symbol_valid(self, sym: Symbol) -> bool:
        g, d = sym
        if not (0 <= g < len(self.generators)) or d < 0:
            return False
        t = self.generators[g].torsion
        return t is None or d < t

    def generator_vector(self, name: str) -> CVec:
        return CVec.unit((self.gen_index(name), 0))

    def symbols_up_to(self, depth: int) -> list[Symbol]:
        out = []
        for g, spec in enumerate(self.generators):
            top = depth if spec.is_free else min(depth, spec.torsion - 1)
            for d in range(top + 1):
                out.append((g, d))
        return out

    def conformal_weights(self) -> tuple | None:
        """Rational weights Δ_g grading the brackets, or None when none exist.

        Every term λ^n ∂^d g_k of a stored [g_i λ g_j] needs
        Δ_k + d = Δ_i + Δ_j - n - 1; then u_(n) v of homogeneous enveloping
        elements weighs Δu + Δv - n - 1.  Each free parameter of the solution
        is set to a distinct non-integer 1/97^t, which keeps apart the weights
        of words that the grading tells apart.  Solved on the first call and
        kept.
        """
        return self._weights

    @cached_property
    def _weights(self) -> tuple | None:
        one = len(self.generators)  # label of the constant, after every Δ
        ech = Echelon()
        for (i, j), poly in self.brackets.items():
            for n, vec in poly.coeffs.items():
                for k, d in vec.coeffs:
                    eq = iadd(iadd({k: 1, one: d + n + 1}, {i: 1}, -1), {j: 1}, -1)
                    row = ech.insert(eq)
                    if row is not None and min(row) == one:
                        return None  # 0 = nonzero: the equations contradict
        # rows are Δ_p + Σ_{h > p} c_h Δ_h = 0, so solve from the last label down
        value = {one: 1}
        free = 0
        for g in reversed(range(one)):
            row = ech.rows.get(g)
            if row is None:
                free += 1
                value[g] = Fraction(1, 97 ** free)
            else:
                value[g] = exact(-sum(c * value[h] for h, c in row.items() if h != g))
        return tuple(value[g] for g in range(one))

    def __eq__(self, other):
        return (
            isinstance(other, LcaPresentation)
            and self.generators == other.generators
            and self.brackets == other.brackets
        )

    # -- derivative action ------------------------------------------------

    def partial_div(self, v: CVec, times: int) -> CVec:
        """Divided derivative of order ``times`` in the symbol basis."""
        if times < 0:
            raise ValueError("negative derivative order")
        acc: dict = {}
        self._add_shifted(acc, v.coeffs, times, 1)
        return CVec(acc)

    def partial(self, v: CVec) -> CVec:
        return self.partial_div(v, 1)

    def _add_shifted(self, acc: dict, vec: dict, times: int, c) -> None:
        # acc += c * (divided derivative of order `times` of vec), on
        # coefficient dicts; the sums are left for `_clean` to normalize
        gens = self.generators
        for (g, d), v in vec.items():
            t = gens[g].torsion
            if t is None or d + times < t:
                key = (g, d + times)
                acc[key] = acc.get(key, 0) + v * c * math.comb(d + times, times)

    # -- lambda bracket ----------------------------------------------------

    def _antisym(self, row: dict) -> dict:
        # [b λ a] = -[a_{-λ-∂} b]: λ^n becomes -(-1)^n Σ_s n!/(n-s)! λ^(n-s) ∂^(s)
        acc: dict = {}
        for n, vec in row.items():
            for s in range(n + 1):
                c = (-1) ** (n + 1) * math.perm(n, s)
                self._add_shifted(acc.setdefault(n - s, {}), vec, s, c)
        return _clean(acc)

    def _row(self, a: Symbol, b: Symbol) -> dict:
        """The symbol-table row of (a, b): [∂^(d)g λ ∂^(d')h] is
        (-λ)^d/d! (λ+∂)^d'/d'! [g λ h], and [h λ g] for h > g the
        antisymmetry image of the stored [g λ h]."""
        row = self._rows.get((a, b))
        if row is None:
            (g, d), (h, dp) = a, b
            if d or dp:
                base = self._row((g, 0), (h, 0))
                acc: dict = {}
                for s in range(dp + 1):
                    den = math.factorial(d) * math.factorial(dp - s)
                    c = Fraction((-1) ** d, den) if den > 1 else (-1) ** d
                    for n, vec in base.items():
                        self._add_shifted(acc.setdefault(n + d + dp - s, {}), vec, s, c)
                row = _clean(acc)
            elif g <= h:
                stored = self.brackets.get((g, h))
                row = {n: vec.coeffs for n, vec in stored.coeffs.items()} if stored else {}
            else:
                row = self._antisym(self._row((h, 0), (g, 0)))
            self._rows[(a, b)] = row
        return row

    def _bracket(self, v: dict, w: dict) -> dict:
        # λ-coefficients of [v λ w] from coefficient dicts, sharing no dict with a row
        out: dict = {}
        rows = self._rows
        for a, cv in v.items():
            for b, cw in w.items():
                row = rows.get((a, b))
                if row is None:
                    row = self._row(a, b)
                if not row:
                    continue
                c = cv * cw
                for n, vec in row.items():
                    iadd(out.setdefault(n, {}), vec, c)
        return {n: vec for n, vec in out.items() if vec}

    def antisym_image(self, poly: LPoly) -> LPoly:
        """The bracket the antisymmetry axiom assigns to the swapped pair."""
        return _lpoly(self._antisym({n: vec.coeffs for n, vec in poly.coeffs.items()}))

    def gen_bracket(self, i: int, j: int) -> LPoly:
        return _lpoly(self._row((i, 0), (j, 0)))

    def bracket(self, v: CVec, w: CVec) -> LPoly:
        """Bilinear divided-power extension of the generator table."""
        out = self._bracket(v.coeffs, w.coeffs)
        return LPoly._like({n: CVec._like(vec) for n, vec in out.items()})

    def nth_product(self, v: CVec, w: CVec, n: int) -> CVec:
        if n < 0:
            raise ValueError("negative products live in the enveloping algebra")
        vec = self._bracket(v.coeffs, w.coeffs).get(n)
        # n! only for a nonzero coefficient: past the bracket's degree it is 0
        return CVec._like(scale(vec, math.factorial(n)) if vec else {})

    def lie_bracket(self, v: CVec, w: CVec) -> CVec:
        """Bracket of the underlying Lie algebra: the definite λ-integral
        Σ_n (-1)^n n! ∂^(n+1) of the λ^n coefficient of [v λ w]."""
        acc: dict = {}
        for n, vec in self._bracket(v.coeffs, w.coeffs).items():
            self._add_shifted(acc, vec, n + 1, (-1) ** n * math.factorial(n))
        return CVec._like(_exact_nonzero(acc))

    # -- axiom verification --------------------------------------------------

    def _torsion_residual(self, i: int, j: int) -> LPoly:
        # a vanishing power ∂^(t)g of a torsion argument g brackets to zero,
        # so t! times its row is the residual; the left argument is tried first
        ti, tj = self.generators[i].torsion, self.generators[j].torsion
        if ti is not None:
            return _lpoly(self._row((i, ti), (j, 0))).scale(math.factorial(ti))
        if tj is not None:
            return _lpoly(self._row((i, 0), (j, tj))).scale(math.factorial(tj))
        return LPoly()

    def check_axioms(self) -> AxiomReport:
        """The three axioms on generator pairs or triples; each reports its
        first case with a nonzero residual, in generator order.

        Sesquilinearity brackets the vanishing power of each torsion
        argument of a stored pair.  Antisymmetry is checked on the diagonal
        pairs [g λ g] alone: off the diagonal the row of [h λ g] is defined
        as the antisymmetry image of the stored [g λ h], and the image is
        an involution, so those pairs cannot fail.  Jacobi runs on every
        triple that holds a nonzero pair bracket.
        """
        ngen = len(self.generators)
        units = [CVec.unit((g, 0)) for g in range(ngen)]
        paired = {(i, j) for i, j in product(range(ngen), repeat=2) if self._row((i, 0), (j, 0))}

        def first_failure(name, cases) -> CheckResult:
            hit = next(((w, r) for w, r in cases if r), None)
            return CheckResult(name, True) if hit is None else CheckResult(name, False, *hit)

        return AxiomReport([
            first_failure("sesquilinearity", (
                ((i, j), self._torsion_residual(i, j)) for i, j in sorted(self.brackets)
            )),
            first_failure("antisymmetry", (
                ((g, g), self.gen_bracket(g, g) - self.antisym_image(self.gen_bracket(g, g)))
                for g in range(ngen)
            )),
            first_failure("jacobi", (
                ((i, j, k), self.jacobi_residual(units[i], units[j], units[k]))
                for i, j, k in product(range(ngen), repeat=3)
                # each term of the residual holds one of the three pair brackets
                if (i, j) in paired or (i, k) in paired or (j, k) in paired
            )),
        ])

    def is_lie_conformal(self) -> bool:
        """Whether `check_axioms` passes; checked on the first call and kept,
        as the presentation does not change once built."""
        if self._lie_conformal is None:
            self._lie_conformal = self.check_axioms().ok
        return self._lie_conformal

    def jacobi_residual(self, a: CVec, b: CVec, c: CVec) -> LMPoly:
        """Two-variable residual of the conformal Jacobi identity."""
        out: dict = {}

        def add(key, vec, k=1):
            iadd(out.setdefault(key, {}), vec, k)

        br = self._bracket
        a, b, c = a.coeffs, b.coeffs, c.coeffs
        # bracket of the bracket, evaluated at the summed variable
        for n, vec in br(a, b).items():
            for m, w in br(vec, c).items():
                for s in range(m + 1):
                    add((n + s, m - s), w, math.comb(m, s))
        # nested bracket with the outer arguments swapped
        for n, vec in br(a, c).items():
            for m, w in br(b, vec).items():
                add((n, m), w)
        # the double bracket both are compared against
        for m, vec in br(b, c).items():
            for n, w in br(a, vec).items():
                add((n, m), w, -1)
        return LMPoly._like({k: CVec._like(vec) for k, vec in out.items() if vec})


def build_presentation(name: str, generators, brackets=None) -> LcaPresentation:
    """Convenience constructor taking names instead of indices.

    ``generators`` is a list of (name, torsion-or-None); ``brackets`` maps
    (left name, right name) to {lambda degree: {(name, depth): coeff}}.
    """
    specs = [GeneratorSpec(n, t) for n, t in generators]
    index = {g.name: i for i, g in enumerate(specs)}
    table = {}
    for (ln, rn), poly in (brackets or {}).items():
        key = (index[ln], index[rn])
        conv = {}
        for deg, vec in poly.items():
            conv[deg] = {(index[gn], d): c for (gn, d), c in vec.items()}
        table[key] = LPoly(conv)
    return LcaPresentation(name, specs, table)
