"""Enveloping vertex algebra of a presented Lie conformal algebra.

Elements are rational combinations of weakly increasing words over an
ordered basis of the underlying algebra.  Arbitrary words are rewritten
into this form with commutator corrections.  The n-th products u_(n)v,
n >= 0, of composite words are kept as such, not as λ-coefficients, and
computed by the two recursion rules that peel one basis letter at a time
(Kac 1998, §3-4); their weights are binomials or 1, so integral structure
constants give integral products.  Only `bracket` divides by n! for the
λ view.  Negative-index products come from divided powers of the ordered
product.  `word_nth` reads a word pair's n-th product off what is kept,
the vacuum's by the vacuum axiom, and `nth` is its bilinear extension.
Each peel rule is stated once, in `_peel`, as its parts, and
read two ways: `_word_products` sums every part in full, and `_lead`
builds only the tops of the parts at the overall top index.  A word pair's
vanishing bound is read off that leading form, the top product index and
the product there; the products themselves are built only where the parts
at the top cancel.

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


# the unit weight and the plain lift of a part that adds x_(m)y unchanged
def _unit(n):
    return 1


def _plain(t, r):
    return r


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
        else:
            res = ULPoly()
            for x, y, shift, weight, lift, spread in self._peel(wu, wv):
                for m, r in self._word_products(x, y).coeffs.items():
                    for t in range(m + 1 if spread else 1):
                        res.add_term(m + shift - t, lift(t, r), weight(m + shift))
        memo[key] = res
        return res

    def _peel(self, wu: Word, wv: Word):
        """The parts of wu_(n)wv, for two words not both single letters.

        Each part (x, y, shift, weight, lift, spread) adds, for every
        nonzero r = x_(m)y, weight(m + shift) · lift(t, r) at index
        m + shift - t, for t = 0 only or, when spread, for t = 0..m; so a
        part tops out at t = 0.  A letter a peels the head b of the word
        (non-commutative Wick formula):
        a_(n)(b rest) = (a_(n)b) rest + b (a_(n)rest)
        + Σ_{j<n} C(n, j) (a_(j)b)_(n-1-j) rest.
        A longer word peels its own head letter a (Borcherds identity at
        m = -1; the first two sums are of ordered products):
        (a rest)_(n)v = Σ_{s>=0} (∂^(s)a)(rest_(n+s)v) + (∂^(s)rest)(a_(n+s)v)
        + Σ_{j<n} rest_(n-1-j)(a_(j)v).
        The inner sums have one part per j and word w of a_(j)b or a_(j)v,
        which is built when the reader reaches these parts, after the others.
        """
        if len(wu) == 1:
            b, rest = wv[:1], wv[1:]
            b_elem, rest_elem = UElem.monomial(b), UElem.monomial(rest)
            yield wu, b, 0, _unit, lambda t, r: self.mul(r, rest_elem), False
            yield wu, rest, 0, _unit, lambda t, r: self.mul(b_elem, r), False
            for j, p in self._word_products(wu, b).coeffs.items():
                for w, c in p.terms.items():
                    yield w, rest, j + 1, lambda n, j=j, c=c: c * math.comb(n, j), _plain, False
        else:
            a, rest = wu[:1], wu[1:]
            for head, tail in ((a, rest), (rest, a)):
                yield tail, wv, 0, _unit, lambda t, r, head=head: self.nop(self._dpow(head, t), r), True
            for j, p in self._word_products(a, wv).coeffs.items():
                for w, c in p.terms.items():
                    yield rest, w, j + 1, lambda n, c=c: c, _plain, False

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

    def word_nth(self, wu: Word, wv: Word, n: int) -> UElem:
        """wu_(n)wv for two ordered words, read off what is kept; the result
        may be a kept value, so callers must not change it.

        For n >= 0 it is the pair's kept product (`_word_products`), so a
        large n costs nothing; for n = -j - 1 < 0 it is the ordered product
        (∂^j wu / j!)_(-1) wv, read off the divided-power chain (`_dpow`)
        and the kept ordered products (`_nop_words`).  A side that is the
        vacuum takes the vacuum axiom (Kac 1998) and builds nothing:
        1_(n)v = δ_{n,-1} v, u_(n)1 = 0 for n >= 0 and ∂^j u / j! for n < 0.
        """
        if not wu:
            return UElem.monomial(wv) if n == -1 else ZERO_U
        if n >= 0:
            return self._word_products(wu, wv).coeffs.get(n, ZERO_U) if wv else ZERO_U
        if not wv:
            return self._dpow(wu, -n - 1)
        if n == -1:
            return self._nop_words(wu, wv)
        out = UElem()
        for w, c in self._dpow(wu, -n - 1).terms.items():
            out.iadd_scaled(self._nop_words(w, wv), c)
        return out

    def nth(self, u: UElem, v: UElem, n: int) -> UElem:
        """u_(n)v, the bilinear extension of `word_nth`."""
        out = UElem()
        for wu, cu in u.terms.items():
            for wv, cv in v.terms.items():
                out.iadd_scaled(self.word_nth(wu, wv, n), cu * cv)
        return out

    def trunc_bound(self, u: UElem, v: UElem) -> int:
        """Exact N with the n-th product zero for all n >= N.

        Two single words take `word_bound`, which may read the top product
        index off the swapped pair's leading form instead of building these.
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
        A side that is the vacuum takes 0 and builds nothing: by the vacuum
        axiom 1_(n)v and u_(n)1 vanish for n >= 0 (Kac 1998).
        """
        if not (wu and wv):
            return 0
        key = (wu, wv)
        if key not in self._lead_memo:
            swapped = self._lead_memo.get((wv, wu))
            if swapped is not None and self.pres.is_lie_conformal():
                return swapped[0] + 1
        return self._lead(wu, wv)[0] + 1

    def _lead(self, wu: Word, wv: Word) -> tuple:
        """(N, wu_(N)wv) for the top index N of the products, (-1, 0) for none.

        Read off the kept products when there are any.  Otherwise this is
        the second reader of `_peel`: each part tops out at t = 0, where its
        index and product come from the leading form of its own, shorter
        pair.  The pair's top index is the largest of these, and its top
        product the sum of the parts' at that index.  Only when those cancel
        are the products built.
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
            # (top index, weight, lift, top product of its pair) per part
            tops = []
            for x, y, shift, weight, lift, _spread in self._peel(wu, wv):
                m, r = self._lead(x, y)
                if m >= 0:
                    tops.append((m + shift, weight, lift, r))
            top = max((n for n, *_ in tops), default=-1)
            coef = UElem()
            for n, weight, lift, r in tops:
                if n == top:
                    coef.iadd_scaled(lift(0, r), weight(n))
            if coef or top < 0:
                memo[key] = (top, coef)
                return memo[key]
            self._lead_fallbacks += 1
            full = self._word_products(wu, wv)
        memo[key] = (full.degree, full.coeff(full.degree))
        return memo[key]

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
