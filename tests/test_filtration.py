import math
import random
from fractions import Fraction as Q

import golden
import pytest

from lieconformal.core import CVec
from lieconformal.errors import NotNilpotent, OutsideBasis
from lieconformal.filtration import (
    AdaptedBasis,
    LowerCentralSeries,
    RawBasis,
    adapted_basis,
    column_to_vec,
    vec_to_column,
)


def rand_vec(rng, pres, depth=2):
    syms = pres.symbols_up_to(depth)
    out = {}
    for s in rng.sample(syms, k=min(len(syms), rng.randint(1, 3))):
        c = rng.randint(-3, 3)
        if c:
            out[s] = Q(c)
    return CVec(out)


def test_series_shapes():
    h = golden.heisenberg()
    s = LowerCentralSeries(h)
    assert s.nilpotent and s.nilpotency_degree == 2
    assert len(s.modules) == 3
    # middle term is the span of the central generator
    k = h.generator_vector("k")
    a = h.generator_vector("a")
    assert s.member(2, k) and not s.member(2, a)

    s1 = LowerCentralSeries(golden.abelian1())
    assert s1.nilpotent and s1.nilpotency_degree == 1 and len(s1.modules) == 2

    sv = LowerCentralSeries(golden.virasoro())
    assert sv.stabilized and not sv.nilpotent
    v = golden.virasoro()
    stable = sv.modules[-1]
    assert stable.contains(vec_to_column(v, v.generator_vector("L")))

    s3 = LowerCentralSeries(golden.n3_current())
    assert s3.nilpotency_degree == 3


def test_weights():
    h = golden.heisenberg()
    s = LowerCentralSeries(h)
    assert s.weight(h.generator_vector("a")) == 1
    assert s.weight(h.generator_vector("k")) == 2
    assert s.weight(CVec()) == math.inf
    sv = LowerCentralSeries(golden.virasoro())
    assert sv.weight(golden.virasoro().generator_vector("L")) == math.inf


def test_column_roundtrip():
    rng = random.Random(2)
    for build in [golden.heisenberg, golden.virasoro, golden.mixed]:
        pres = build()
        for _ in range(30):
            v = rand_vec(rng, pres)
            assert column_to_vec(pres, vec_to_column(pres, v)) == v


def test_filtration_property():
    # products of series terms land as deep as the index sum
    for build in [golden.heisenberg, golden.n3_current, golden.mixed]:
        pres = build()
        s = LowerCentralSeries(pres)
        top = len(s.modules)
        for j in range(1, top + 1):
            for jp in range(1, top + 1):
                mods_j = s.modules[min(j, top) - 1]
                mods_jp = s.modules[min(jp, top) - 1]
                for colj in mods_j.basis_columns():
                    u = column_to_vec(pres, colj)
                    for coljp in mods_jp.basis_columns():
                        w = column_to_vec(pres, coljp)
                        poly = pres.bracket(u, w)
                        for n in poly.coeffs:
                            prod = poly.coeff(n).scale(math.factorial(n))
                            assert s.member(min(j + jp, top + 1), prod)


def test_weight_properties():
    rng = random.Random(8)
    for build in [golden.heisenberg, golden.n3_current, golden.mixed]:
        pres = build()
        s = LowerCentralSeries(pres)
        for _ in range(40):
            a, b = rand_vec(rng, pres), rand_vec(rng, pres)
            wa, wb = s.weight(a), s.weight(b)
            assert s.weight(pres.partial(a)) >= wa
            for n in range(0, 3):
                assert s.weight(pres.nth_product(a, b, n)) >= wa + wb
            assert s.weight(pres.lie_bracket(a, b)) >= wa + wb
            assert s.weight(a + b) >= min(wa, wb)


def test_module_generator_sufficiency():
    # the bracket ideal built from module generators absorbs derivative shifts
    rng = random.Random(4)
    for build in [golden.heisenberg, golden.n3_current, golden.mixed]:
        pres = build()
        s = LowerCentralSeries(pres)
        for j in range(2, len(s.modules) + 1):
            mod = s.modules[j - 1]
            prev = s.modules[j - 2]
            for _ in range(10):
                a = pres.partial_div(rand_vec(rng, pres, 1), rng.randint(0, 2))
                for col in prev.basis_columns():
                    b = column_to_vec(pres, col)
                    for n in range(0, 4):
                        prod = pres.nth_product(a, pres.partial_div(b, 1), n)
                        assert mod.contains(vec_to_column(pres, prod))


def test_adapted_basis_graded_path():
    h = golden.heisenberg()
    basis = adapted_basis(h, 2)
    assert basis.graded
    labels = [(basis.label(k), basis.weight(k)) for k in basis.keys_up_to_depth(2)]
    assert labels == [("a[0]", 1), ("a[1]", 1), ("a[2]", 1), ("k[0]", 2)]

    ab = adapted_basis(golden.abelian1(), 3)
    assert all(ab.weight(k) == 1 for k in ab.keys_up_to_depth(3))

    with pytest.raises(NotNilpotent):
        adapted_basis(golden.virasoro(), 2)


def test_adapted_basis_general_path():
    m = golden.mixed()
    basis = adapted_basis(m, 1)
    assert not basis.graded
    keys = basis.keys_up_to_depth(1)
    weights = [basis.weight(k) for k in keys]
    assert weights == [1, 1, 1, 1, 2]
    deep = basis.vector(keys[-1])
    # the deep vector is the normalized stratum generator
    assert deep == CVec({(1, 1): 1, (2, 0): Q(1, 2)})
    # expansion solves coordinates exactly
    k = m.generator_vector("k")
    coords = basis.expand(k)
    recon = CVec()
    for key, c in coords.items():
        recon = recon + basis.vector(key).scale(c)
    assert recon == k


def test_expand_outside_the_basis_raises_package_error():
    # k has torsion 1 in mixed, so k[1] is no symbol of the basis
    basis = adapted_basis(golden.mixed(), 1)
    with pytest.raises(OutsideBasis):
        basis.expand(CVec.unit((2, 1)))


def test_lazy_extension_is_stable():
    for build in [golden.heisenberg, golden.mixed]:
        pres = build()
        b1 = adapted_basis(pres, 1)
        issued = [(bv.key, bv.vec) for bv in b1._order]
        b1.ensure_depth(3)
        later = {bv.key: bv.vec for bv in b1._order}
        # issued vectors and their relative order survive extension
        for key, vec in issued:
            assert later[key] == vec
        keys_after = [bv.key for bv in b1._order]
        positions = [keys_after.index(key) for key, _ in issued]
        assert positions == sorted(positions)
        # a fresh basis at the larger cap spans the same weight slices
        from lieconformal.linalg import Echelon

        b2 = adapted_basis(pres, 3)
        for j in range(1, 4):
            e1, e2 = Echelon(), Echelon()
            for bv in b1._order:
                if bv.weight >= j:
                    e1.insert(dict(bv.vec.coeffs))
            for bv in b2._order:
                if bv.weight >= j:
                    e2.insert(dict(bv.vec.coeffs))
            assert e1.rows == e2.rows


def test_raw_basis_interface():
    v = golden.virasoro()
    basis = RawBasis(v)
    keys = basis.keys_up_to_depth(2)
    assert keys == [(0, 0), (0, 1), (0, 2), (1, 0)]
    assert basis.label((0, 1)) == "L[1]"
    vec = CVec({(0, 2): Q(1, 2)})
    assert basis.expand(vec) == {(0, 2): Q(1, 2)}
