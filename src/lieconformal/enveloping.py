"""Enveloping vertex algebra of a presented Lie conformal algebra.

Elements are rational combinations of weakly increasing words over an
ordered basis of the underlying algebra.  Arbitrary words are rewritten
into this form with commutator corrections.  The n-th products u_(n)v,
n >= 0, of composite words are kept as such, not as λ-coefficients, and
computed by the two recursion rules that peel one basis letter at a time
(Kac 1998, §3-4); their weights are binomials or 1, so integral structure
constants give integral products.  Only `bracket` divides by n! for the
λ view.  Negative-index products come from divided powers of the ordered
product.  A word pair's vanishing bound is read off its leading form, the
top product index and the product there, which the same peel rules give
from the leading forms of shorter pairs; the products themselves are built
only where the parts at the top cancel.

All operations are pure; the caches keyed by words are idempotent and
may be shared across threads or dropped at any time.  The divided powers
``∂^j w / j!`` of each word w are kept as one chain per word, which a
deeper index replaces by a longer tuple and never mutates; that cache
grows with the deepest index ever asked of each word.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .core import CVec, LcaPresentation, three_sum
from .filtration import RawBasis
from .linalg import Sparse, SparsePoly

Q = Fraction
Word = tuple

VACUUM: Word = ()


class UElem(Sparse):
    """Finite rational combination of ordered basis words."""

    __slots__ = ()
    terms = Sparse.coeffs

    @classmethod
    def monomial(cls, word: Word, c=1) -> "UElem":
        return cls({tuple(word): c})

    @classmethod
    def vacuum(cls, c=1) -> "UElem":
        return cls({VACUUM: c})


ZERO_U = UElem()


class ULPoly(SparsePoly):
    """Polynomial in the bracket variable with UElem coefficients."""

    __slots__ = ()
    zero = ZERO_U


class EnvelopingAlgebra:
    """Vertex algebra structure on the ordered-word span of a presentation."""

    def __init__(self, pres: LcaPresentation, basis=None):
        self.pres = pres
        self.basis = basis if basis is not None else RawBasis(pres)
        self._lie_memo: dict = {}
        self._straighten_memo: dict = {}
        self._bracket_memo: dict = {}
        self._nop_memo: dict = {}
        self._partial_memo: dict = {}
        # (top index, top product) of word pairs, for bounds; see `_lead`
        self._lead_memo: dict = {}
        self._lead_fallbacks = 0

    # -- embedding ----------------------------------------------------------

    def embed(self, v: CVec) -> UElem:
        """Conformal vector as a combination of single-letter words."""
        return UElem({(key,): c for key, c in self.basis.expand(v).items()})

    def letter(self, key) -> UElem:
        return UElem.monomial((key,))

    def pi(self, u: UElem) -> CVec:
        """Single-letter part mapped back to the algebra; kills the vacuum."""
        out = CVec()
        for w, c in u.terms.items():
            if len(w) == 1:
                out.iadd_scaled(self.basis.vector(w[0]), c)
        return out

    # -- ordered-word rewriting ----------------------------------------------

    def _lie(self, ka, kb) -> UElem:
        memo = self._lie_memo
        key = (ka, kb)
        if key not in memo:
            vec = self.pres.lie_bracket(self.basis.vector(ka), self.basis.vector(kb))
            memo[key] = self.embed(vec)
        return memo[key]

    def straighten(self, word) -> UElem:
        word = tuple(word)
        memo = self._straighten_memo
        cached = memo.get(word)
        if cached is not None:
            return cached
        pos = None
        for i in range(len(word) - 1):
            if word[i] > word[i + 1]:
                pos = i
                break
        if pos is None:
            res = UElem.monomial(word)
        else:
            swapped = word[:pos] + (word[pos + 1], word[pos]) + word[pos + 2 :]
            res = self.straighten(swapped)
            br = self._lie(word[pos], word[pos + 1])
            acc = UElem()
            for bw, c in br.terms.items():
                sub = self.straighten(word[:pos] + bw + word[pos + 2 :])
                acc.iadd_scaled(sub, c)
            res = res + acc
        memo[word] = res
        return res

    def mul(self, u: UElem, v: UElem) -> UElem:
        """Associative product (concatenate, then rewrite)."""
        out = UElem()
        for wu, cu in u.terms.items():
            for wv, cv in v.terms.items():
                out.iadd_scaled(self.straighten(wu + wv), cu * cv)
        return out

    # -- translation operator ---------------------------------------------------

    def _dpow(self, word: Word, j: int) -> UElem:
        """``∂^j word / j!`` off the word's kept chain ``(∂w, ∂²w/2!, ...)``.

        The one ∂-power path: a deeper j extends the chain by one ∂ pass
        per missing power, storing each longer tuple in the old one's place.
        """
        if j == 0:
            return UElem.monomial(word)
        memo = self._partial_memo
        chain = memo.get(word)
        if chain is None:
            first = UElem()
            for i, key in enumerate(word):
                dvec = self.pres.partial(self.basis.vector(key))
                for k2, c in self.basis.expand(dvec).items():
                    first.iadd_scaled(self.straighten(word[:i] + (k2,) + word[i + 1 :]), c)
            chain = memo[word] = (first,)
        while len(chain) < j:
            chain = memo[word] = chain + (self.partial(chain[-1]).scale(Q(1, len(chain) + 1)),)
        return chain[j - 1]

    def partial(self, u: UElem) -> UElem:
        out = UElem()
        for w, c in u.terms.items():
            out.iadd_scaled(self._dpow(w, 1), c)
        return out

    def partial_div(self, u: UElem, times: int) -> UElem:
        if times < 0:
            raise ValueError("negative derivative order")
        out = UElem()
        for w, c in u.terms.items():
            out.iadd_scaled(self._dpow(w, times), c)
        return out

    def partial_pow(self, u: UElem, times: int) -> UElem:
        return self.partial_div(u, times).scale(math.factorial(times))

    # -- n-th products and the λ view ----------------------------------------------

    def bracket(self, u: UElem, v: UElem) -> ULPoly:
        """[u_λ v] = Σ_n λ^n/n! u_(n)v, the λ view of the kept n-th products."""
        out = ULPoly()
        for n, p in self._products(u, v).coeffs.items():
            out.add_term(n, p, Q(1, math.factorial(n)))
        return out

    def _products(self, u: UElem, v: UElem) -> ULPoly:
        """u_(n)v for every n >= 0, keyed by n."""
        out = ULPoly()
        for wu, cu in u.terms.items():
            for wv, cv in v.terms.items():
                c = cu * cv
                for n, val in self._word_products(wu, wv).coeffs.items():
                    out.add_term(n, val, c)
        return out

    def _word_products(self, wu: Word, wv: Word) -> ULPoly:
        memo = self._bracket_memo
        key = (wu, wv)
        cached = memo.get(key)
        if cached is not None:
            return cached
        if not wu or not wv:
            res = ULPoly()
        elif len(wu) == 1 and len(wv) == 1:
            base = self.pres.bracket(self.basis.vector(wu[0]), self.basis.vector(wv[0]))
            res = ULPoly()
            for n, vec in base.coeffs.items():
                res.add_term(n, self.embed(vec), math.factorial(n))
        elif len(wu) == 1:
            res = self._left_peel(wu[0], wv)
        else:
            res = self._right_peel(wu, wv)
        memo[key] = res
        return res

    def _left_peel(self, a, wv: Word) -> ULPoly:
        """Products of a letter with a longer word, peeling the word's head b:
        a_(n)(b rest) = (a_(n)b) rest + b (a_(n)rest)
        + Σ_{j<n} C(n, j) (a_(j)b)_(n-1-j) rest (non-commutative Wick formula)."""
        b, rest = wv[:1], wv[1:]
        ab = self._word_products((a,), b)
        rest_elem = UElem.monomial(rest)
        out = ULPoly()
        for n, r in ab.coeffs.items():
            out.add_term(n, self.mul(r, rest_elem))
        for n, r in self._word_products((a,), rest).coeffs.items():
            out.add_term(n, self.mul(UElem.monomial(b), r))
        for j, r in ab.coeffs.items():
            for m, s in self._products(r, rest_elem).coeffs.items():
                out.add_term(j + m + 1, s, math.comb(j + m + 1, j))
        return out

    def _right_peel(self, wu: Word, wv: Word) -> ULPoly:
        """Products of a longer word with anything, peeling the head letter a:
        (a rest)_(n)v = Σ_{s>=0} (∂^(s)a)(rest_(n+s)v) + (∂^(s)rest)(a_(n+s)v)
        + Σ_{j<n} rest_(n-1-j)(a_(j)v) (Borcherds identity at m = -1), the
        first two sums of ordered products."""
        a, rest = wu[:1], wu[1:]
        out = ULPoly()
        for head, tail in ((a, rest), (rest, a)):
            for n, q in self._word_products(tail, wv).coeffs.items():
                for s in range(n + 1):
                    out.add_term(n - s, self.nop(self._dpow(head, s), q))
        rest_elem = UElem.monomial(rest)
        for j, p in self._word_products(a, wv).coeffs.items():
            for m, r in self._products(rest_elem, p).coeffs.items():
                out.add_term(m + j + 1, r)
        return out

    # -- ordered product and integer-indexed products ------------------------------

    def nop(self, u: UElem, v: UElem) -> UElem:
        out = UElem()
        self._nop_into(out, u, v, 1)
        return out

    def _nop_into(self, out: UElem, u: UElem, v: UElem, c) -> None:
        """Add c times the ordered product of u and v to out."""
        for wu, cu in u.terms.items():
            for wv, cv in v.terms.items():
                out.iadd_scaled(self._nop_words(wu, wv), c * cu * cv)

    def _nop_words(self, wu: Word, wv: Word) -> UElem:
        """(a rest)_(-1)v = a (rest_(-1)v) + Σ_{m>=0} (∂^(m+1)a)(rest_(m)v)
        + (∂^(m+1)rest)(a_(m)v)."""
        memo = self._nop_memo
        key = (wu, wv)
        cached = memo.get(key)
        if cached is not None:
            return cached
        if len(wu) <= 1:
            res = self.straighten(wu + wv)
        else:
            a, rest = wu[:1], wu[1:]
            res = UElem()
            self._nop_into(res, UElem.monomial(a), self._nop_words(rest, wv), 1)
            for head, tail in ((a, rest), (rest, a)):
                for m, r in self._word_products(tail, wv).coeffs.items():
                    self._nop_into(res, self._dpow(head, m + 1), r, 1)
        memo[key] = res
        return res

    def nth(self, u: UElem, v: UElem, n: int) -> UElem:
        out = UElem()
        if n >= 0:
            # read off each word pair's kept products, so a large n costs nothing
            for wu, cu in u.terms.items():
                for wv, cv in v.terms.items():
                    r = self._word_products(wu, wv).coeff(n)
                    if r:
                        out.iadd_scaled(r, cu * cv)
            return out
        # u_(n) v = (∂^j u / j!)_(-1) v for n = -j - 1 < 0
        for w, c in u.terms.items():
            self._nop_into(out, self._dpow(w, -n - 1), v, c)
        return out

    def trunc_bound(self, u: UElem, v: UElem) -> int:
        """Exact N with the n-th product zero for all n >= N.

        Two single words take `word_bound`, which may read the top product
        index off the swapped pair's kept products instead of building these.
        """
        if len(u.terms) == 1 and len(v.terms) == 1:
            (wu,), (wv,) = u.terms, v.terms
            return self.word_bound(wu, wv)
        return self._products(u, v).degree + 1

    def word_bound(self, wu: Word, wv: Word) -> int:
        """`trunc_bound` of two words, off their leading form (`_lead`).

        By skew-symmetry, v_(n)u = Σ_j (-1)^(n+j+1) ∂^(j)(u_(n+j)v) (Kac
        1998), so at the top product index N of (u, v) the swapped product
        is ±u_(N)v and the two pairs have the same top product index.  When
        the leading form of (wv, wu) is kept and that of (wu, wv) is not,
        its index is returned and nothing is built for (wu, wv).
        Skew-symmetry holds only in a vertex algebra, so this is done only
        when the presentation passes its axioms
        (`LcaPresentation.is_lie_conformal`, asked on the first such hit).
        """
        key = (wu, wv)
        if key not in self._lead_memo:
            swapped = self._lead_memo.get((wv, wu))
            if swapped is not None and self.pres.is_lie_conformal():
                return swapped[0] + 1
        return self._lead(wu, wv)[0] + 1

    def _lead(self, wu: Word, wv: Word) -> tuple:
        """(N, wu_(N)wv) for the top index N of the products, (-1, 0) for none.

        Read off the kept products when there are any.  Otherwise each
        part of the peel that `_word_products` would take gives its own top
        index and top product from the leading forms of shorter pairs: the
        pair's top index is the largest, and its top product the sum of the
        parts' at that index.  Only when those cancel are the products built.
        """
        memo = self._lead_memo
        key = (wu, wv)
        cached = memo.get(key)
        if cached is not None:
            return cached
        full = self._bracket_memo.get(key)
        if full is None and (not wu or not wv or len(wu) == len(wv) == 1):
            full = self._word_products(wu, wv)
        if full is None:
            # (top index of a nonzero part, its top product when asked for)
            parts = self._left_lead_parts(wu[0], wv) if len(wu) == 1 else self._right_lead_parts(wu, wv)
            top = max((n for n, _ in parts), default=-1)
            coef = UElem()
            for n, part in parts:
                if n == top:
                    coef.iadd_scaled(part())
            if coef or top < 0:
                memo[key] = (top, coef)
                return memo[key]
            self._lead_fallbacks += 1
            full = self._word_products(wu, wv)
        memo[key] = (full.degree, full.coeff(full.degree))
        return memo[key]

    def _left_lead_parts(self, a, wv: Word) -> list:
        # the parts of `_left_peel`: (a_(n)b) rest, b (a_(n)rest) and, per j
        # and word w of a_(j)b, C(n, j) w_(n-1-j) rest
        b, rest = wv[:1], wv[1:]
        ab = self._word_products((a,), b)
        parts = []
        if ab.coeffs:
            parts.append((ab.degree, lambda r=ab.coeff(ab.degree): self.mul(r, UElem.monomial(rest))))
        n, r = self._lead((a,), rest)
        if n >= 0:
            parts.append((n, lambda r=r: self.mul(UElem.monomial(b), r)))
        for j, p in ab.coeffs.items():
            for w, c in p.terms.items():
                n, r = self._lead(w, rest)
                if n >= 0:
                    parts.append((j + n + 1, lambda r=r, c=c * math.comb(j + n + 1, j): r.scale(c)))
        return parts

    def _right_lead_parts(self, wu: Word, wv: Word) -> list:
        # the parts of `_right_peel`: the two sums of ordered products top
        # out at s = 0, at a (rest_(n)v) and rest (a_(n)v); and, per j and
        # word w of a_(j)v, rest_(n-1-j) w
        a, rest = wu[:1], wu[1:]
        parts = []
        for head, tail in ((a, rest), (rest, a)):
            n, r = self._lead(tail, wv)
            if n >= 0:
                parts.append((n, lambda head=head, r=r: self.nop(UElem.monomial(head), r)))
        for j, p in self._word_products(a, wv).coeffs.items():
            for w, c in p.terms.items():
                n, r = self._lead(rest, w)
                if n >= 0:
                    parts.append((j + n + 1, lambda r=r, c=c: r.scale(c)))
        return parts

    def y_window(self, u: UElem, v: UElem, lo: int, hi: int):
        """Products for n in [lo, hi] plus the vanishing bound."""
        return {n: self.nth(u, v, n) for n in range(lo, hi + 1)}, self.trunc_bound(u, v)

    # -- coefficient Jacobi identity ------------------------------------------------

    def borcherds_residual(self, u: UElem, v: UElem, w: UElem, l: int, t: int, j: int) -> UElem:
        """Residual of the three-sum coefficient identity; zero when it holds."""

        def nested(x, y):
            # x_outer (y_inner w)
            def term(outer, inner):
                p = self.nth(y, w, inner)
                return self.nth(x, p, outer).terms if p else {}
            return term

        def composed(outer, inner):
            p = self.nth(u, v, inner)
            return self.nth(p, w, outer).terms if p else {}

        stops = (self.trunc_bound(v, w), self.trunc_bound(u, w), self.trunc_bound(u, v))
        return UElem(three_sum(l, t, j, stops, (nested(u, v), nested(v, u), composed)))
