"""Coalgebra layer on the enveloping vertex algebra.

The coproduct splits an ordered word over all position subsets; both
halves of a split stay ordered, so no rewriting is involved and the
subset expansion is an independent cross-check path against the product
machinery.  Primitive elements of a bounded word span are found one word
at a time, testing only the vacuum and the single letters.
"""

from __future__ import annotations

from fractions import Fraction

from .core import judge
from .enveloping import EnvelopingAlgebra, UElem, VACUUM, Word
from .linalg import Sparse, iadd

Q = Fraction


class TensorElem(Sparse):
    """Rational combination of pairs of ordered words."""

    __slots__ = ()
    terms = Sparse.coeffs

    def iadd(self, key, c) -> None:
        iadd(self.terms, {key: c})


def _word_splits(word: Word):
    """All (left, right) subsequence splits of an ordered word."""
    n = len(word)
    for mask in range(1 << n):
        left = tuple(word[i] for i in range(n) if mask >> i & 1)
        right = tuple(word[i] for i in range(n) if not mask >> i & 1)
        yield left, right


def coproduct(u: UElem) -> TensorElem:
    out = TensorElem()
    for word, c in u.terms.items():
        for left, right in _word_splits(word):
            out.iadd((left, right), c)
    return out


def counit(u: UElem) -> Q:
    return u.terms.get(VACUUM, Q(0))


def _primitive_residual(u: UElem) -> TensorElem:
    """coproduct(u) - u⊗1 - 1⊗u; zero exactly when u is primitive."""
    out = coproduct(u)
    for w, c in u.terms.items():
        out.iadd((w, VACUUM), -c)
        out.iadd((VACUUM, w), -c)
    return out


def is_primitive(u: UElem) -> bool:
    return not _primitive_residual(u)


def primitives_up_to(alg: EnvelopingAlgebra, max_len: int, depth: int) -> list[UElem]:
    """Basis of the primitive part of the bounded word span."""
    # Every split of an ordered word carries exactly that word's letters, so
    # the residuals of distinct words have disjoint supports.  A combination
    # of words is then primitive only when each of its words is, and the
    # primitive words alone span the kernel of the residual map.  A word w
    # of two or more letters is not: its split ((w[0],), w[1:]) carries the
    # multiplicity of w[0], and the residual subtracts only (w, 1) and (1, w).
    keys = alg.basis.keys_up_to_depth(depth)
    words = [VACUUM] + [(k,) for k in keys if max_len > 0]
    return [u for u in map(UElem.monomial, words) if is_primitive(u)]


def tensor_nth(alg: EnvelopingAlgebra, s: TensorElem, t: TensorElem, n: int) -> TensorElem:
    """Integer-indexed product of the two-factor vertex algebra.

    The inner index range is finite through the per-factor vanishing
    bounds.  Each factor's products and bound are read off its word pair
    (`word_nth`, `word_bound`).
    """
    out = TensorElem()
    for (u1, u2), c1 in s.terms.items():
        for (v1, v2), c2 in t.terms.items():
            n1 = alg.word_bound(u1, v1)
            n2 = alg.word_bound(u2, v2)
            c = c1 * c2
            for m in range(n - n2, n1):
                p1 = alg.word_nth(u1, v1, m)
                if not p1:
                    continue
                p2 = alg.word_nth(u2, v2, n - m - 1)
                if not p2:
                    continue
                for w1, a in p1.terms.items():
                    for w2, b in p2.terms.items():
                        out.iadd((w1, w2), c * a * b)
    return out


def check_delta_is_vertex_hom(alg: EnvelopingAlgebra, samples, window) -> dict:
    """Verify the coproduct intertwines all products over the window.

    ``samples`` is a list of UElem pairs; ``window`` an inclusive (lo, hi)
    index range.  Returns a JSON-ready report dict, judged by
    `core.judge`: it stops at the first failing entry and fails when no
    entry was checked.
    """
    from .render import uelem_text

    lo, hi = window

    def entries():
        for u, v in samples:
            du, dv = coproduct(u), coproduct(v)
            for n in range(lo, hi + 1):
                prod = alg.nth(u, v, n)
                lhs = coproduct(prod)
                rhs = tensor_nth(alg, du, dv, n)
                resid = lhs - rhs
                ce = counit(prod) - (counit(u) * counit(v) if n == -1 else Q(0))
                yield {
                    "left": uelem_text(alg.basis, u),
                    "right": uelem_text(alg.basis, v),
                    "n": n,
                    "pass": resid.is_zero() and ce == 0,
                    "residual_terms": len(resid.terms),
                    "counit_residual": str(ce),
                }

    return judge(entries())
