"""Lower central series, nilpotency weights and ordered bases.

The series is computed at the module level over the polynomial ring in
the derivation, with torsion handled by adjoining the vanishing
derivative columns to every term.  Bases of the depth-bounded slice come
in two flavours: the plain divided-power basis (always available) and a
weight-adapted basis for nilpotent presentations, where each vector is
tagged with the deepest series term containing it.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .core import CVec, LcaPresentation, Symbol
from .errors import NotNilpotent, OutsideBasis, SeriesDivergent
from .linalg import Echelon, kernel_basis
from .polyring import PolyModule, UPoly

Q = Fraction

_SERIES_CAP = 100


def vec_to_column(pres: LcaPresentation, v: CVec) -> tuple:
    """Conformal vector as a column over the polynomial ring."""
    per_gen = [{} for _ in pres.generators]
    for (g, d), c in v.coeffs.items():
        per_gen[g][d] = Q(c, math.factorial(d))
    return tuple(UPoly(entries) for entries in per_gen)


def column_to_vec(pres: LcaPresentation, col) -> CVec:
    return CVec({
        (g, d): c * math.factorial(d)
        for g, poly in enumerate(col)
        for d, c in poly.coeffs.items()
        if pres.symbol_valid((g, d))
    })


def relation_columns(pres: LcaPresentation) -> list[tuple]:
    cols = []
    ngen = len(pres.generators)
    for g, spec in enumerate(pres.generators):
        if spec.torsion is None:
            continue
        col = [UPoly() for _ in range(ngen)]
        col[g] = UPoly.monomial(1, spec.torsion)
        cols.append(tuple(col))
    return cols


class LowerCentralSeries:
    """Descending chain of bracket ideals of a presentation."""

    def __init__(self, pres: LcaPresentation):
        self.pres = pres
        ngen = len(pres.generators)
        rels = relation_columns(pres)
        self.relations = PolyModule(ngen, rels)
        full = []
        for g in range(ngen):
            col = [UPoly() for _ in range(ngen)]
            col[g] = UPoly.const(1)
            full.append(tuple(col))
        self.modules = [PolyModule(ngen, full + rels)]
        self.stabilized = False
        self._compute()

    def _is_zero(self, module: PolyModule) -> bool:
        return module == self.relations

    def _compute(self) -> None:
        pres = self.pres
        gens = [CVec.unit((g, 0)) for g in range(len(pres.generators))]
        for _ in range(_SERIES_CAP):
            cur = self.modules[-1]
            if self._is_zero(cur):
                return
            cols = list(relation_columns(pres))
            for gvec in gens:
                for bcol in cur.basis_columns():
                    h = column_to_vec(pres, bcol)
                    if not h:
                        continue
                    # the n-th product is n! times the λ^n coefficient, and a
                    # Q[t]-module holds every rational multiple of its members
                    for vec in pres.bracket(gvec, h).coeffs.values():
                        cols.append(vec_to_column(pres, vec))
            nxt = PolyModule(len(pres.generators), cols)
            if nxt == cur:
                self.stabilized = True
                return
            self.modules.append(nxt)
            if self._is_zero(nxt):
                return
        raise SeriesDivergent(
            f"lower central series of {pres.name!r} did not stabilize "
            f"within {_SERIES_CAP} steps"
        )

    # -- queries -----------------------------------------------------------

    @property
    def nilpotent(self) -> bool:
        return not self.stabilized and self._is_zero(self.modules[-1])

    @property
    def nilpotency_degree(self) -> int:
        """Largest j with a nonzero j-th term; requires nilpotency."""
        if not self.nilpotent:
            raise NotNilpotent(
                f"{self.pres.name!r} is not nilpotent",
                self.stable_generators(),
            )
        return len(self.modules) - 1

    def stable_generators(self) -> list[CVec]:
        out = []
        for col in self.modules[-1].basis_columns():
            v = column_to_vec(self.pres, col)
            if v:
                out.append(v)
        return out

    def member(self, j: int, v: CVec) -> bool:
        """Whether v lies in the j-th series term (j >= 1)."""
        if j <= 1:
            return True
        # past the end of the chain every term equals the last one
        idx = min(j, len(self.modules)) - 1
        return self.modules[idx].contains(vec_to_column(self.pres, v))

    def weight(self, v: CVec):
        """Deepest series term containing v; infinity exactly for zero."""
        if not v:
            return math.inf
        top = len(self.modules)
        for j in range(top, 0, -1):
            if self.member(j, v):
                if j == top and self.stabilized:
                    return math.inf
                return j
        return 1


class BasisVector:
    __slots__ = ("key", "vec", "weight", "label")

    def __init__(self, key, vec, weight, label):
        self.key = key
        self.vec = vec
        self.weight = weight
        self.label = label

    def __repr__(self):
        return f"BasisVector({self.label}, weight={self.weight})"


class RawBasis:
    """Divided-power symbol basis ordered by (generator, depth)."""

    def __init__(self, pres: LcaPresentation):
        self.pres = pres

    def vector(self, key) -> CVec:
        return CVec.unit(key)

    def label(self, key) -> str:
        return self.pres.symbol_label(key)

    def expand(self, v: CVec) -> dict:
        return dict(v.coeffs)

    def keys_up_to_depth(self, cap: int) -> list:
        return sorted(self.pres.symbols_up_to(cap))


class AdaptedBasis:
    """Weight-adapted ordered basis of the depth-bounded slice.

    Vectors are issued lazily per depth stratum; once issued, a vector
    and its position relative to other issued vectors never change.  For
    weight-graded presentations the basis is the divided-power basis
    reordered by (weight, generator, depth); otherwise complements are
    computed stratum by stratum with exact linear algebra.
    """

    def __init__(self, pres: LcaPresentation, series: LowerCentralSeries):
        if not series.nilpotent:
            raise NotNilpotent(
                f"{pres.name!r} is not nilpotent", series.stable_generators()
            )
        self.pres = pres
        self.series = series
        self.depth_cap = -1
        self._by_key: dict = {}
        self._order: list = []
        self._grades = [series.weight(CVec.unit((g, 0))) for g in range(len(pres.generators))]
        self.graded = self._check_graded()
        if not self.graded:
            self._strata_seq = [0] * (series.nilpotency_degree + 2)
            self._expander = Echelon()

    def _check_graded(self) -> bool:
        for (i, j), poly in self.pres.brackets.items():
            need = self._grades[i] + self._grades[j]
            for vec in poly.coeffs.values():
                for (h, _d) in vec.coeffs:
                    if self._grades[h] < need:
                        return False
        return True

    # -- lazy extension ------------------------------------------------------

    def ensure_depth(self, cap: int) -> None:
        if cap <= self.depth_cap:
            return
        if self.graded:
            self._extend_graded(cap)
        else:
            self._extend_general(cap)
        self.depth_cap = cap

    def _add(self, bv: BasisVector) -> None:
        self._by_key[bv.key] = bv
        self._order.append(bv)

    def _extend_graded(self, cap: int) -> None:
        pres = self.pres
        for g, d in pres.symbols_up_to(cap):
            if d > self.depth_cap:
                key = (self._grades[g], g, d)
                label = pres.symbol_label((g, d))
                self._add(BasisVector(key, CVec.unit((g, d)), self._grades[g], label))
        self._order.sort(key=lambda bv: bv.key)

    def _extend_general(self, cap: int) -> None:
        pres = self.pres
        series = self.series
        symbols = sorted(pres.symbols_up_to(cap))
        ndeg = series.nilpotency_degree
        # slice of each series term inside the depth-capped symbol space
        slices = []
        for j in range(1, ndeg + 2):
            idx = min(j, len(series.modules)) - 1
            module = series.modules[idx]
            cols = []
            for sym in symbols:
                rem = module.reduce(vec_to_column(pres, CVec.unit(sym)))
                cols.append(
                    {(g, d): c for g, poly in enumerate(rem) for d, c in poly.coeffs.items()}
                )
            combos = kernel_basis(cols)
            vecs = []
            for combo in combos:
                vecs.append(CVec({symbols[i]: c for i, c in combo.items()}))
            slices.append(vecs)
        # stratum complements, deepest first so spans are available
        new_vectors = []
        for j in range(ndeg, 0, -1):
            span = Echelon()
            for v in slices[j]:  # slice of the (j+1)-th term
                span.insert(dict(v.coeffs))
            issued_here = [bv for bv in self._order if bv.weight == j]
            for bv in issued_here:
                span.insert(dict(bv.vec.coeffs))
            for cand in slices[j - 1]:
                red = span.insert(dict(cand.coeffs))
                if red is None:
                    continue
                vec = CVec(red)
                seq = self._strata_seq[j]
                self._strata_seq[j] += 1
                key = (j, seq)
                new_vectors.append(BasisVector(key, vec, j, f"b{j}_{seq}"))
        for bv in sorted(new_vectors, key=lambda b: b.key):
            self._add(bv)
        self._order.sort(key=lambda bv: bv.key)
        self._rebuild_expander()

    def _rebuild_expander(self) -> None:
        self._expander = Echelon()
        for bv in self._order:
            self._expander.insert(bv.vec.coeffs, {bv.key: Q(1)})

    # -- queries ---------------------------------------------------------------

    @property
    def issued(self) -> tuple:
        """Issued basis vectors in order; stable under extension."""
        return tuple(self._order)

    def key_for_symbol(self, sym: Symbol):
        g, d = sym
        if self.graded:
            return (self._grades[g], g, d)
        raise TypeError("general-path basis keys do not track single symbols")

    def vector(self, key) -> CVec:
        return self._by_key[key].vec

    def weight(self, key) -> int:
        return self._by_key[key].weight

    def label(self, key) -> str:
        return self._by_key[key].label

    def depth(self, key) -> int:
        if self.graded:
            return key[2]
        return self._by_key[key].vec.max_depth()

    def keys_up_to_depth(self, cap: int) -> list:
        self.ensure_depth(cap)
        return [bv.key for bv in self._order if self.depth(bv.key) <= cap]

    def expand(self, v: CVec) -> dict:
        """Coordinates of v in the adapted basis."""
        if not v:
            return {}
        self.ensure_depth(v.max_depth())
        if self.graded:
            return {(self._grades[g], g, d): c for (g, d), c in v.coeffs.items()}
        combo: dict = {}
        if self._expander.reduce(v.coeffs, combo):
            raise OutsideBasis(f"vector outside the issued basis slice of depth {self.depth_cap}")
        return {k: -c for k, c in combo.items()}


def adapted_basis(pres: LcaPresentation, depth_cap: int, series=None) -> AdaptedBasis:
    series = series or LowerCentralSeries(pres)
    basis = AdaptedBasis(pres, series)
    basis.ensure_depth(depth_cap)
    return basis
