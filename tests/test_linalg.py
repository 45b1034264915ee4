"""Exact echelon computations checked against sympy as an independent oracle."""

import random
from fractions import Fraction as Q

import golden
import sympy

from lieconformal.core import CVec
from lieconformal.filtration import AdaptedBasis, LowerCentralSeries
from lieconformal.linalg import kernel_basis


def rational(c):
    return sympy.Rational(c.numerator, c.denominator)


def random_columns(rng, nrows, ncols):
    columns = []
    for _ in range(ncols):
        if columns and rng.random() < 0.4:
            # a combination of earlier columns, so the kernel is not trivial
            col = {}
            for other in rng.sample(columns, k=min(len(columns), 2)):
                c = Q(rng.randint(-2, 2), rng.randint(1, 2))
                for r, v in other.items():
                    col[r] = col.get(r, 0) + c * v
        else:
            col = {r: Q(rng.randint(-3, 3), rng.randint(1, 3))
                   for r in range(nrows) if rng.random() < 0.6}
        columns.append({r: v for r, v in col.items() if v})
    return columns


def test_kernel_basis_matches_sympy_nullspace():
    for seed in range(40):
        rng = random.Random(seed)
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
        columns = random_columns(rng, nrows, ncols)
        M = sympy.Matrix(nrows, ncols,
                         lambda r, i: rational(columns[i].get(r, Q(0))))
        expected = M.nullspace()
        kernel = kernel_basis(columns)
        assert len(kernel) == len(expected), seed
        if not kernel:
            continue
        K = sympy.Matrix.hstack(*[
            sympy.Matrix([rational(combo.get(i, Q(0))) for i in range(ncols)])
            for combo in kernel
        ])
        assert (M * K).is_zero_matrix, seed
        assert K.rank() == len(kernel), seed
        assert sympy.Matrix.hstack(K, *expected).rank() == len(kernel), seed


def test_adapted_expand_reconstructs_on_the_general_path():
    pres = golden.mixed()
    basis = AdaptedBasis(pres, LowerCentralSeries(pres))
    assert not basis.graded
    keys = basis.keys_up_to_depth(3)
    symbols = sorted(pres.symbols_up_to(3))
    assert len(symbols) <= 8 and len(keys) <= 8
    B = sympy.Matrix(len(symbols), len(keys), lambda r, i: rational(
        basis.vector(keys[i]).coeffs.get(symbols[r], Q(0))))
    rng = random.Random(5)
    for _ in range(25):
        v = CVec({sym: Q(rng.randint(-4, 4), rng.randint(1, 3))
                  for sym in rng.sample(symbols, k=rng.randint(1, len(symbols)))})
        coords = basis.expand(v)
        recon = CVec()
        for key, c in coords.items():
            recon = recon + basis.vector(key).scale(c)
        assert recon == v
        x = B.solve(sympy.Matrix([rational(v.coeffs.get(s, Q(0))) for s in symbols]))
        assert {keys[i]: Q(int(c.p), int(c.q)) for i, c in enumerate(x) if c != 0} == coords
