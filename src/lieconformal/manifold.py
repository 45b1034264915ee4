"""Integration of nilpotent presentations into polynomial product structures.

A nilpotent presentation gives the coordinate space a family of exact
polynomial products, one per integer index: the coefficient on a pair of
monomials, each spelled as the sorted word of its letters, is the
single-letter part of the product of the two words, divided by the
factorials of their letter multiplicities (`law_cell`), and the
nilpotency degree prunes everything of higher total degree.  The
enveloping words are spelled in adapted basis keys, so that part is read
off as adapted coordinates, as the coefficient-law extraction reads it.
Products of concrete rational points are finite sums; the identity
element is the origin.

By conformal weight, u_(n) v weighs Δu + Δv - n - 1, so a cell whose
weight no letter of any depth has is zero and is stored as such without
computing the enveloping product.  A product of points groups its
word pairs by their summed weight and reads, at each index, only the
groups whose cells some letter can weigh; the other cells are never read.
A presentation without conformal weights, or an adapted basis whose
letters mix symbols, takes the trivial grading: every pair weighs 0, so
all form one group, and every cell is computed.

Tables fill lazily per cell and never change once computed, so sharing a
structure across threads is safe as long as the cell caches are treated
as idempotent inserts.  The same holds for the other memos, all kept for
the manifold's life and never released: the truncation bound per joint
support of two points, the powers p^w per point, the inner series memo,
the coefficients of the product series of a point pair, kept per pair
because every outer index and outer point of a composed product reads
the same ones, and the Jacobi entries.  The inner series fill builds a
word only from a prefix that kept a coefficient, and only if it can
reach a stored index: no other can.  A Jacobi residual keeps one entry
per point triple: its three three-sum stops (N times the bound of each
pair, at least 1, plus 1) and its three sides.  A side is one composed
product over three points, kept per side and points for every triple
that reads it: copies of its points, its values per (outer, series)
index pair, and its grouped word pairs per series index for every
outer index to read.  The memos key a point by its (key,
numerator, denominator) triples, which hash as ints, and an int and the
equal Fraction give the same key; a warm residual keys its three points,
makes one lookup and reads its terms by int pairs.  Kept entries hold
data only, no callable over the manifold, so a dropped manifold is freed
without the cyclic collector.  The inner series multiply as exact
rationals through `word_series`.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from itertools import combinations_with_replacement, product

from .core import NO_CASE, CVec, LcaPresentation, LPoly, three_sum
from .enveloping import EnvelopingAlgebra, UElem
from .errors import AxiomFailure, NotNilpotent
from .filtration import AdaptedBasis, LowerCentralSeries
from .lawtable import _Grading, law_cell, word_factorial, word_series
from .linalg import exact, iadd

Q = Fraction

Point = dict  # basis key -> nonzero Fraction


def point_key(p: Point) -> tuple:
    """The point as sorted (key, numerator, denominator) triples: ints hash
    fast, and an int and the equal Fraction give the same key."""
    return tuple(sorted([(k,) + v.as_integer_ratio() for k, v in p.items()]))


def _scalar_madd(out: dict, q: int, tail, head) -> None:
    """out[q] += tail * head, an int when integral, as `iadd` stores it."""
    out[q] = exact(out.get(q, 0) + tail * head)


class ProductResult:
    """Window of point products plus the index past which all vanish."""

    def __init__(self, slices: dict, bound: int):
        self.slices = slices
        self.bound = bound


class VertexManifold:
    """Product tables of an integrated nilpotent presentation."""

    def __init__(self, pres: LcaPresentation, series: LowerCentralSeries,
                 basis: AdaptedBasis, env: EnvelopingAlgebra):
        self.pres = pres
        self.series = series
        self.basis = basis
        self.env = env
        self.N = series.nilpotency_degree
        self._table: dict = {}
        self._support_bounds: dict = {}
        self._powers_memo: dict = {}
        # the cell weights against every letter
        self._grading = _Grading(env)
        # per point-key triple of a Jacobi residual: (its stops, its sides)
        self._triples: dict = {}
        # per (side, ka, kb, kc): (side, point copies, {(p, q): point}, {q: groups})
        self._sides: dict = {}
        self._inner_memo: dict = {}

    # -- table cells ------------------------------------------------------

    def table_entry(self, wu: tuple, wv: tuple, n: int) -> Point:
        """Adapted coordinates of `law_cell` of two sorted words."""
        key = (wu, wv, n)
        cached = self._table.get(key)
        if cached is None:
            grading = self._grading
            if len(wu) + len(wv) > self.N or not grading.depths[grading.cell(wu, wv, n)]:
                cached = {}
            else:
                cached = law_cell(self.env, wu, wv, n)
            self._table[key] = cached
        return cached

    # -- products of points ----------------------------------------------------

    def _powers(self, p: Point) -> list:
        """(w, |w|, p^w) over the sorted words of length 0..N over the
        point's support, by length, nonzero only."""
        key = point_key(p)
        cached = self._powers_memo.get(key)
        if cached is None:
            cached = self._powers_memo[key] = []
            supp = sorted(p)
            for s in range(self.N + 1):
                for w in combinations_with_replacement(supp, s):
                    c = math.prod(p[x] for x in w)
                    if c:
                        cached.append((w, s, c))
        return cached

    def _weights(self, left: list, right: list) -> list:
        """(W, [(wu, wv, c * c'), ...]) over the word pairs of total length
        1..N, grouped by the summed weight W = weight[wu] + weight[wv].

        Both sides list (word, length, coefficient) in order of length, as
        `_powers` and `_inner_series` give them; each group keeps that order.
        """
        N = self.N
        weight = self._grading.weight
        groups: dict = {}
        for wu, s, c in left:
            weight_u = weight[wu]
            for wv, sp, cp in right:
                if s + sp > N:
                    break
                if s + sp:
                    groups.setdefault(weight_u + weight[wv], []).append((wu, wv, c * cp))
        return list(groups.items())

    def _combine(self, groups: list, n: int) -> Point:
        """Index-n table cells of the grouped word pairs, summed.

        A group is read only when some letter weighs W - step * (n + 1):
        `table_entry` stores the cells of every other group as zero.
        """
        out: Point = {}
        depths, shift = self._grading.depths, self._grading.step * (n + 1)
        for W, pairs in groups:
            if depths[W - shift]:
                for k, kp, w in pairs:
                    iadd(out, self.table_entry(k, kp, n), w)
        return out

    def _point_weights(self, a: Point, b: Point) -> list:
        return self._weights(self._powers(a), self._powers(b))

    def product(self, a: Point, b: Point, n: int) -> Point:
        return self._combine(self._point_weights(a, b), n)

    def truncation_bound(self, a: Point, b: Point) -> int:
        """Index with all higher products of the two points zero.

        It reads only the joint support, so it is kept per support.
        """
        supp = frozenset(a).union(b)
        bound = self._support_bounds.get(supp)
        if bound is None:
            unit = self._powers(dict.fromkeys(supp, 1))
            bound = 0
            for _, pairs in self._weights(unit, unit):
                for wu, wv, _ in pairs:
                    bound = max(bound, self.env.word_bound(wu, wv))
            self._support_bounds[supp] = bound
        return bound

    def product_window(self, a: Point, b: Point, lo: int, hi: int) -> ProductResult:
        weights = self._point_weights(a, b)
        slices = {n: self._combine(weights, n) for n in range(lo, hi + 1)}
        return ProductResult(slices, self.truncation_bound(a, b))

    def exponential_element(self, a: Point) -> UElem:
        """Degree-truncated coordinate exponential in the enveloping algebra."""
        out = UElem.vacuum()
        for w, s, c in self._powers(a):
            if s:
                out.iadd_scaled(UElem.monomial(w), Q(c, word_factorial(w)))
        return out

    # -- composed products (series substituted into a polynomial slot) -----------

    def _inner_series(self, b: Point, c: Point, q: int) -> list:
        """x^q coefficients of the (b, c) product series, as (w, |w|, coefficient).

        The sorted words w run over the support of the series with length
        1..N, plus () when q = -1, in order of length, then lex: all that
        `composed` and `composed_first` read, whatever their outer point and
        index.  One fill per pair files every q from its own up; only a
        lower q fills again, from a deeper window.  Zero coefficients are not
        stored.  The series coordinates enter `word_series` as exact
        rationals, and no word product outlives its fill.

        Words are built length by length from (), each extended by the letters
        from its last one on, and only if its series kept a coefficient: a
        word's kept series comes from its prefix's alone.  Each letter tops
        at n_bc - 1 at most, so word + (f,) and its extensions reach q only
        if the tops of the series of word and of f, plus n_bc per letter
        still to come, do; that bound never lies below its floor.
        """
        key = (point_key(b), point_key(c))
        filled = self._inner_memo.get(key)
        if filled is None or q < filled[0]:
            n_bc = self.truncation_bound(b, c)
            lo = q + 1 - self.N * max(n_bc, 1)
            weights = self._point_weights(b, c)
            heads: dict = {}
            for m in range(lo, n_bc):
                for pos, v in self._combine(weights, m).items():
                    heads.setdefault(pos, {})[m] = v
            letters = sorted(heads)
            tops = [max(heads[f]) for f in letters]
            memo: dict = {(): {-1: 1}}
            filled = self._inner_memo[key] = (q, {})
            words = deque([((), 0)])  # (word, index of its last letter), by length, then lex
            while words:
                word, i = words.popleft()
                series = word_series(word, heads, lambda pos: n_bc - 1, lo, _scalar_madd, memo)
                for t, v in series.items():
                    if t >= q:
                        filled[1].setdefault(t, []).append((word, len(word), v))
                if series and len(word) < self.N:
                    need = q - (self.N - len(word) - 1) * n_bc - max(series) - 1
                    words.extend((word + (letters[j],), j) for j in range(i, len(letters)) if tops[j] >= need)
        return filled[1].get(q, [])

    def _side(self, kind: str, keys: tuple, a: Point, b: Point, c: Point) -> tuple:
        """The kept entry of a composed product over the points keyed
        ``keys``; side "second" substitutes the (b, c) series into the second
        slot, "first" the (a, b) series into the first.  It keeps copies of
        the points, so a point changed in place leaves it intact."""
        side = self._sides.get((kind, *keys))
        if side is None:
            side = self._sides[(kind, *keys)] = (kind, (dict(a), dict(b), dict(c)), {}, {})
        return side

    def _term(self, side: tuple, p: int, q: int) -> Point:
        """Coefficient q of a side's composed product; the grouped word
        pairs are kept per q for every p."""
        kind, (a, b, c), products, weights = side
        value = products.get((p, q))
        if value is None:
            groups = weights.get(q)
            if groups is None:
                if kind == "second":
                    groups = self._weights(self._powers(a), self._inner_series(b, c, q))
                else:
                    groups = self._weights(self._inner_series(a, b, q), self._powers(c))
                weights[q] = groups
            value = products[p, q] = self._combine(groups, p)
        return value

    def composed(self, a: Point, b: Point, c: Point, p: int, q: int) -> Point:
        """Coefficient q of the product of a with the (b, c) product series."""
        return self._term(self._side("second", (point_key(a), point_key(b), point_key(c)), a, b, c), p, q)

    def composed_first(self, a: Point, b: Point, c: Point, p: int, q: int) -> Point:
        """Coefficient q of the product of the (a, b) series with point c."""
        return self._term(self._side("first", (point_key(a), point_key(b), point_key(c)), a, b, c), p, q)

    # -- axiom suite ------------------------------------------------------------

    def jacobi_residual(self, a: Point, b: Point, c: Point, l: int, t: int, j: int) -> Point:
        """Residual of the Jacobi (Borcherds three-sum) identity of a, b and c
        at (l, t, j), in adapted coordinates; empty exactly when it holds.

        Its sums read a_(p)(b_(q)c), b_(p)(a_(q)c) and (a_(q)b)_(p)c.  The
        residual keys its points once and keeps one entry per point-key
        triple: the stops, N times the truncation bound of (b, c), (a, c)
        and (a, b), at least 1, plus 1, and the three sides (`_side`).  A
        side is kept per its own keys, so triples that share it share its
        values, and holds copies of its points, so a point dict changed in
        place after the call does not change what it computes.  A warm
        residual makes one lookup and reads the values by (p, q).  The term
        readers are made per call, so nothing kept refers to the manifold.
        """
        ka, kb, kc = keys = point_key(a), point_key(b), point_key(c)
        entry = self._triples.get(keys)
        if entry is None:
            stops = tuple(self.N * max(self.truncation_bound(x, y), 1) + 1 for x, y in ((b, c), (a, c), (a, b)))
            sides = (self._side("second", keys, a, b, c), self._side("second", (kb, ka, kc), b, a, c),
                     self._side("first", keys, a, b, c))
            entry = self._triples[keys] = (stops, sides)
        term = self._term

        def reader(side):
            products = side[2]

            def read(p, q):
                value = products.get((p, q))
                return term(side, p, q) if value is None else value
            return read

        return three_sum(l, t, j, entry[0], [reader(side) for side in entry[1]])

    def check_axioms(self, sample_count: int, seed: int, window) -> dict:
        """Randomized verification of the four product axioms.

        Each axiom stops at its first failing case; the Jacobi entry names
        that case as its witness.  An axiom passes only when it checked at
        least one case and none failed; one that checked no case gives
        `core.NO_CASE` as its reason.
        """
        import random

        rng = random.Random(seed)
        lo, hi = window
        self.basis.ensure_depth(2)
        keys = self.basis.keys_up_to_depth(2)

        def sample_point() -> Point:
            supp = rng.sample(keys, k=min(len(keys), rng.randint(1, 3)))
            out = {}
            for pos in supp:
                num = rng.randint(-4, 4)
                den = rng.randint(1, 3)
                if num:
                    out[pos] = Q(num, den)
            return out

        points = [sample_point() for _ in range(sample_count)]
        successors = points[1:] + points[:1]

        def unit_case(a, weights, n) -> bool:
            # with the origin as one factor only the (-1)-product survives
            return self._combine(weights, n) == (a if n == -1 else {})

        triples = list(zip(points, successors, points[2:] + points[:2]))[:6]
        cases = {
            # weak truncation through the stored polynomial coefficients,
            # each of the first eight samples against its successor
            "weak_truncation": (
                (None, not self._combine(weights, n))
                for a, b in zip(points[:8], successors)
                for bound, weights in [(self.truncation_bound(a, b), self._point_weights(a, b))]
                for n in range(bound, bound + 5)
            ),
            # identity element on the left
            "left_identity": (
                (None, unit_case(a, weights, n))
                for a in points for weights in [self._point_weights({}, a)]
                for n in range(lo, hi + 1)
            ),
            # creation against the identity element
            "creation": (
                (None, unit_case(a, weights, n))
                for a in points for weights in [self._point_weights(a, {})]
                for n in [*range(0, hi + 1), -1]
            ),
            # every (l, t, j) in {-1, 0, 1}^3 on each of the first six sample triples
            "jacobi": (
                ((ltj, abc), not self.jacobi_residual(*abc, *ltj))
                for abc in triples for ltj in product((-1, 0, 1), repeat=3)
            ),
        }
        checks = []
        for name, outcomes in cases.items():
            # an axiom passes only when it checked a case and none failed
            entry, good = {"axiom": name, "pass": False}, None
            for case, good in outcomes:
                entry["pass"] = good
                if not good:
                    break
            if good is None:
                entry["reason"] = NO_CASE
            elif not good and case:
                ltj, abc = case
                entry["witness"] = {
                    "ltj": list(ltj),
                    "points": [{self.basis.label(k): str(v) for k, v in p.items()} for p in abc],
                }
            checks.append(entry)

        return {"pass": all(c["pass"] for c in checks), "checks": checks}

    # -- tangent structure -------------------------------------------------------

    def tangent_presentation(self) -> tuple[LcaPresentation, dict]:
        """Presentation read back from the degree-(1, 1) table slices.

        Returns the presentation over the original generators together
        with the basis change (adapted label -> conformal vector).
        """
        pres = self.pres
        ngen = len(pres.generators)
        coords = [self.basis.expand(CVec.unit((g, 0))) for g in range(ngen)]
        brackets = {}
        for i in range(ngen):
            for j in range(i, ngen):
                poly = LPoly()
                top = max(self.env.word_bound((u,), (v,)) for u in coords[i] for v in coords[j])
                for n in range(top):
                    acc = CVec()
                    for u, cu in coords[i].items():
                        for v, cv in coords[j].items():
                            cell = self.table_entry((u,), (v,), n)
                            for pos, c in cell.items():
                                acc.iadd_scaled(self.basis.vector(pos), c * cu * cv)
                    poly.add_term(n, acc, Q(1, math.factorial(n)))
                if poly:
                    brackets[(i, j)] = poly
        recon = LcaPresentation(pres.name, pres.generators, brackets)
        change = {
            self.basis.label(bv.key): bv.vec for bv in self.basis.issued
        }
        return recon, change


def integrate(pres: LcaPresentation) -> VertexManifold:
    """Product structure of a nilpotent presentation; exact and lazy."""
    if not pres.is_lie_conformal():
        raise AxiomFailure(f"{pres.name!r} fails the axiom checks", pres.check_axioms())
    series = LowerCentralSeries(pres)
    if not series.nilpotent:
        raise NotNilpotent(
            f"{pres.name!r} is not nilpotent; series stabilizes nonzero",
            series.stable_generators(),
        )
    basis = AdaptedBasis(pres, series)
    basis.ensure_depth(2)
    env = EnvelopingAlgebra(pres, basis)
    return VertexManifold(pres, series, basis, env)
