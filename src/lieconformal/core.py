"""Finitely presented Lie conformal algebras over Q.

Elements are finite rational combinations of divided-power symbols
``(g, d)`` standing for the d-th divided derivative of generator g.  The
bracket of two generators is a polynomial in the formal variable lambda
with such combinations as coefficients; everything else (derivative
shifts, antisymmetry-derived entries, products of composite elements) is
computed from the presentation table.

Values are immutable once constructed and operations are pure functions
of their inputs, so everything here is safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .linalg import Echelon, Sparse, SparsePoly, exact, iadd

Q = Fraction
Symbol = tuple  # (generator index, depth)


def binom_z(n: int, k: int) -> int:
    """Binomial coefficient with integer (possibly negative) upper index."""
    if k < 0:
        return 0
    num = 1
    for s in range(k):
        num *= n - s
    return num // math.factorial(k)


def _sum_length(top: int, count: int) -> int:
    # binomials C(top, i) for i < count; past a nonnegative top they vanish
    return min(count, top + 1) if top >= 0 else count


def three_sum(l: int, t: int, j: int, stops, terms) -> dict:
    """Residual of the Borcherds three-sum identity at indices (l, t, j).

    ``terms`` are the three nested products as callables of an (outer,
    inner) index pair returning sparse dicts: u_outer (v_inner w),
    v_outer (u_inner w) and (u_inner v)_outer w.  ``stops`` are exclusive
    upper bounds on the inner index of each, past which the term vanishes.
    The residual is zero exactly when the identity holds.
    """
    first, second, third = terms

    def weights(top, count):
        return ((i, binom_z(top, i)) for i in range(_sum_length(top, count)))

    out: dict = {}
    for i, c in weights(l, stops[0] - j):
        iadd(out, first(t + l - i, j + i), -c if i & 1 else c)
    for i, c in weights(l, stops[1] - t):
        iadd(out, second(j + l - i, t + i), c if (l + i) & 1 else -c)
    for i, c in weights(t, stops[2] - l):
        iadd(out, third(t + j - i, l + i), -c)
    return out


def three_sum_outer(l: int, t: int, j: int, stops) -> tuple:
    """The outer indices each sum of `three_sum` asks for under ``stops``,
    in the order it asks for them.

    One descending ``range`` per sum, empty when the sum has no term.
    """
    return tuple(
        range(first, first - _sum_length(top, stop - inner), -1)
        for first, top, stop, inner in ((t + l, l, stops[0], j), (j + l, l, stops[1], t),
                                        (t + j, t, stops[2], l))
    )


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

    def shift_degree(self, p: int) -> "LPoly":
        return self._like({n + p: v for n, v in self.coeffs.items()})


class LMPoly(SparsePoly):
    """Polynomial in two formal variables with CVec coefficients, keyed (i, j)."""

    __slots__ = ()
    zero = ZERO_VEC


@dataclass(frozen=True)
class GeneratorSpec:
    name: str
    torsion: int | None = None  # order m means the m-th derivative vanishes

    @property
    def is_free(self) -> bool:
        return self.torsion is None


@dataclass
class CheckResult:
    name: str
    passed: bool
    witness: tuple | None = None
    residual: object | None = None


@dataclass
class AxiomReport:
    checks: list

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def get(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


class LcaPresentation:
    """Generators, torsion orders and the generator bracket table.

    Brackets are stored only for index pairs (i, j) with i <= j in
    declaration order; the transposed entries are derived from the
    stored ones, so they are never written by callers.
    """

    def __init__(self, name: str, generators, brackets):
        self.name = name
        self.generators: list[GeneratorSpec] = list(generators)
        names = [g.name for g in self.generators]
        if len(set(names)) != len(names):
            raise ValueError("duplicate generator names")
        self._index = {g.name: i for i, g in enumerate(self.generators)}
        self.brackets: dict = {}
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
                self.brackets[(i, j)] = poly
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
        of words that the grading tells apart.
        """
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
        if times == 0:
            return v
        gens = self.generators
        return CVec({
            (g, d + times): c * math.comb(d + times, times)
            for (g, d), c in v.coeffs.items()
            if gens[g].torsion is None or d + times < gens[g].torsion
        })

    def partial(self, v: CVec) -> CVec:
        return self.partial_div(v, 1)

    def partial_pow(self, v: CVec, times: int) -> CVec:
        """Full (undivided) derivative power."""
        return self.partial_div(v, times).scale(math.factorial(times))

    # -- lambda bracket ----------------------------------------------------

    def _stored_bracket(self, i: int, j: int) -> LPoly:
        return self.brackets.get((i, j), LPoly())

    def antisym_image(self, poly: LPoly) -> LPoly:
        """The bracket the antisymmetry axiom assigns to the swapped pair."""
        out = LPoly()
        for n, vec in poly.coeffs.items():
            sign = (-1) ** n
            for s in range(n + 1):
                c = -sign * math.comb(n, s) * math.factorial(s)
                out.add_term(n - s, self.partial_div(vec, s), c)
        return out

    def gen_bracket(self, i: int, j: int) -> LPoly:
        if i <= j:
            return self._stored_bracket(i, j)
        return self.antisym_image(self._stored_bracket(j, i))

    def bracket(self, v: CVec, w: CVec) -> LPoly:
        """Bilinear divided-power extension of the generator table."""
        out = LPoly()
        for (g, d), cv in v.coeffs.items():
            for (h, dp), cw in w.coeffs.items():
                base = self.gen_bracket(g, h)
                if not base:
                    continue
                scale = cv * cw
                # derivative on the right argument
                for s in range(dp + 1):
                    c1 = Q(1, math.factorial(dp - s))
                    for n, vec in base.coeffs.items():
                        shifted = self.partial_div(vec, s)
                        if not shifted:
                            continue
                        # derivative power on the left argument
                        c = scale * c1 * Q((-1) ** d, math.factorial(d))
                        out.add_term(n + dp - s + d, shifted, c)
        return out

    def nth_product(self, v: CVec, w: CVec, n: int) -> CVec:
        if n < 0:
            raise ValueError("negative products live in the enveloping algebra")
        # n! only for a nonzero coefficient: past the bracket's degree it is 0
        vec = self.bracket(v, w).coeff(n)
        return vec.scale(math.factorial(n)) if vec else CVec()

    def lie_bracket(self, v: CVec, w: CVec) -> CVec:
        """Bracket of the underlying Lie algebra (definite lambda integral)."""
        out = CVec()
        for n, vec in self.bracket(v, w).coeffs.items():
            out.iadd_scaled(self.partial_div(vec, n + 1), (-1) ** n * math.factorial(n))
        return out

    # -- axiom verification --------------------------------------------------

    def _torsion_residual(self, i: int, j: int, poly: LPoly) -> LPoly | None:
        """Derivative-compatibility residual forced by torsion arguments."""
        gi, gj = self.generators[i], self.generators[j]
        if gi.torsion is not None and poly:
            # the bracket of a vanishing derivative power must vanish
            return poly.shift_degree(gi.torsion).scale((-1) ** gi.torsion)
        if gj.torsion is not None and poly:
            m = gj.torsion
            out = LPoly()
            for s in range(m + 1):
                c = math.comb(m, s)
                for n, vec in poly.coeffs.items():
                    out.add_term(n + m - s, self.partial_pow(vec, s), c)
            return out if out else None
        return None

    def check_axioms(self) -> AxiomReport:
        """The three axioms on every generator pair or triple; each reports
        its first case with a nonzero residual, in generator order."""
        ngen = len(self.generators)
        units = [CVec.unit((g, 0)) for g in range(ngen)]

        def first_failure(name, cases) -> CheckResult:
            hit = next(((w, r) for w, r in cases if r), None)
            return CheckResult(name, True) if hit is None else CheckResult(name, False, *hit)

        return AxiomReport([
            first_failure("sesquilinearity", (
                ((i, j), self._torsion_residual(i, j, poly))
                for (i, j), poly in sorted(self.brackets.items())
            )),
            first_failure("antisymmetry", (
                ((i, j), self.bracket(units[i], units[j])
                 - self.antisym_image(self.bracket(units[j], units[i])))
                for i in range(ngen) for j in range(i, ngen)
            )),
            first_failure("jacobi", (
                ((i, j, k), self.jacobi_residual(units[i], units[j], units[k]))
                for i, j, k in product(range(ngen), repeat=3)
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
        out = LMPoly()
        # bracket of the bracket, evaluated at the summed variable
        ab = self.bracket(a, b)
        for n, vec in ab.coeffs.items():
            inner = self.bracket(vec, c)
            for m, w in inner.coeffs.items():
                for s in range(m + 1):
                    out.add_term((n + s, m - s), w, math.comb(m, s))
        # nested bracket with the outer arguments swapped
        ac = self.bracket(a, c)
        for n, vec in ac.coeffs.items():
            outer = self.bracket(b, vec)
            for m, w in outer.coeffs.items():
                out.add_term((n, m), w)
        # the double bracket both are compared against
        bc = self.bracket(b, c)
        for m, vec in bc.coeffs.items():
            outer = self.bracket(a, vec)
            for n, w in outer.coeffs.items():
                out.add_term((n, m), w, -1)
        return out


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
