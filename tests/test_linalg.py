"""Exact echelon computations checked against sympy as an independent oracle,
and the integer-first normalization of every stored coefficient."""

import json
import random
import re
from fractions import Fraction as Q
from pathlib import Path

import golden
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from lieconformal import build_presentation, dsl, lawtable
from lieconformal.bialgebra import TensorElem
from lieconformal.cli import run
from lieconformal.core import CVec, LMPoly, LPoly
from lieconformal.enveloping import EnvelopingAlgebra, UElem, ULPoly
from lieconformal.filtration import AdaptedBasis, LowerCentralSeries
from lieconformal.lawtable import extract_law
from lieconformal.linalg import Sparse, kernel_basis, scale
from lieconformal.manifold import integrate

DATA = Path(__file__).parent / "data"


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


# -- the sparse combination base under CVec, UElem and TensorElem ----------------

# ints and Fractions mixed, integral Fractions such as 4/2 included; zero included
COEFF = st.one_of(st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=4))
WORD = st.lists(st.integers(0, 2), max_size=3).map(tuple)
LABELS = {
    CVec: st.tuples(st.integers(0, 2), st.integers(0, 3)),
    UElem: WORD,
    TensorElem: st.tuples(WORD, WORD),
}


def ref_add(a: dict, b: dict, c=1) -> dict:
    """a + c*b over plain Fractions, zeros dropped."""
    out = {k: Q(v) for k, v in a.items()}
    for k, v in b.items():
        out[k] = out.get(k, Q(0)) + c * Q(v)
    return {k: v for k, v in out.items() if v != 0}


def exact_form(coeffs: dict) -> bool:
    """Every coefficient an int exactly when it is integral, else a Fraction."""
    return all(type(c) is (int if Q(c).denominator == 1 else Q) for c in coeffs.values())


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_sparse_arithmetic_matches_a_plain_fraction_reference(data):
    cls = data.draw(st.sampled_from(sorted(LABELS, key=lambda c: c.__name__)))
    raw_a = data.draw(st.dictionaries(LABELS[cls], COEFF, max_size=6))
    raw_b = data.draw(st.dictionaries(LABELS[cls], COEFF, max_size=6))
    c = data.draw(COEFF)
    a, b = cls(raw_a), cls(raw_b)
    ra, rb = ref_add({}, raw_a), ref_add({}, raw_b)
    assert a.coeffs == ra and b.coeffs == rb  # zero coefficients dropped
    assert bool(a) == (not a.is_zero()) == bool(ra)
    assert (a + b).coeffs == ref_add(ra, rb)
    assert (a - b).coeffs == ref_add(ra, rb, -1)
    assert (-a).coeffs == ref_add({}, ra, -1)
    assert a.scale(c).coeffs == ref_add({}, ra, c)
    acc = cls(raw_a)
    acc.iadd_scaled(b, c)
    assert acc.coeffs == ref_add(ra, rb, c)
    for res in (a, b, a + b, a - b, -a, a.scale(c), acc):
        assert exact_form(res.coeffs), res
    assert a.coeffs == ra and b.coeffs == rb  # operands untouched
    assert a == cls(ra) and type(a + b) is type(a.scale(c)) is cls
    assert hash(a) == hash(tuple(sorted(a.coeffs.items())))
    if cls is not CVec:
        assert a.terms is a.coeffs


@given(st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), COEFF, max_size=4))
def test_classes_with_the_same_coefficients_compare_unequal(raw):
    elems = [CVec(raw), UElem(raw), TensorElem(raw)]
    for x in elems:
        for y in elems:
            assert (x == y) == (x is y)


@pytest.mark.parametrize("poly_cls, key, other, make", [
    (LPoly, 1, 2, lambda: CVec({(0, 0): 1, (1, 2): Q(1, 2)})),
    (ULPoly, 1, 2, lambda: UElem({(0,): 1, (0, 1): Q(1, 2)})),
    (LMPoly, (1, 0), (0, 2), lambda: CVec({(0, 0): 1, (1, 2): Q(1, 2)})),
])
def test_add_term_never_stores_the_callers_coefficient(poly_cls, key, other, make):
    poly = poly_cls()
    v = make()
    poly.add_term(key, v)
    poly.add_term(other, v, 3)
    before = {n: dict(x.coeffs) for n, x in poly.coeffs.items()}
    v.iadd_scaled(make(), 2)
    v.coeffs[next(iter(v.coeffs))] = Q(7)
    assert {n: dict(x.coeffs) for n, x in poly.coeffs.items()} == before
    # a coefficient shared with another polynomial is replaced, not mutated
    shared = poly_cls(poly.coeffs)
    shared.add_term(key, make(), -1)
    assert key not in shared.coeffs and poly.coeff(key).coeffs == before[key]
    half = poly_cls(poly.coeffs)
    half.iadd_scaled(poly, Q(-1, 2))
    assert half == poly.scale(Q(1, 2)) != poly
    assert {n: dict(x.coeffs) for n, x in poly.coeffs.items()} == before
    with pytest.raises(TypeError):
        hash(poly)


# -- no float, and no integral Fraction, is ever stored ----------------------------

def _leaves(x):
    """Coefficients inside combinations, polynomials and containers of them."""
    if isinstance(x, Sparse):
        x = x.coeffs
    if isinstance(x, dict):
        x = list(x.values())
    if isinstance(x, (tuple, list)):
        for y in x:
            yield from _leaves(y)
    else:
        yield x


def _assert_exact(values, where):
    n = 0
    for c in _leaves(values):
        assert type(c) in (int, Q), (where, c)
        assert type(c) is int or c.denominator != 1, (where, c)
        n += 1
    return n


def test_no_float_or_integral_fraction_is_stored(monkeypatch):
    for name in ("heisenberg", "n3current"):
        pres, _ = dsl.load_presentation((DATA / f"{name}.lca").read_text(encoding="utf-8"))
        env = EnvelopingAlgebra(pres)
        table = extract_law(env, 2, 2, (-8, 8))
        # straighten, ∂ chains, word brackets, leading forms, nop and Lie brackets
        memos = [v for k, v in vars(env).items() if k.endswith("_memo")]
        assert len(memos) == 6 and _assert_exact(memos, (name, "memos")) > 0
        assert _assert_exact(table.entries, (name, "entries")) > 0
    # lower central series bases over Q[∂] and the adapted basis vectors of
    # every shipped algebra; mixed takes the general stratum path
    for name in ("heisenberg", "virasoro", "abelian1", "abelian2", "n3current", "mixed"):
        pres, _ = dsl.load_presentation((DATA / f"{name}.lca").read_text(encoding="utf-8"))
        series = LowerCentralSeries(pres)
        bases = [m.basis_columns() for m in series.modules]
        assert _assert_exact(bases, (name, "series")) > 0
        if series.nilpotent:
            basis = AdaptedBasis(pres, series)
            basis.ensure_depth(2)
            assert basis.graded == (name != "mixed")
            assert _assert_exact([bv.vec for bv in basis.issued], (name, "basis")) > 0
    # the composer's convolution memo after one Jacobi check of the law
    composers = []

    class Recording(lawtable._Composer):
        def __init__(self, *args):
            super().__init__(*args)
            composers.append(self)

    monkeypatch.setattr(lawtable, "_Composer", Recording)
    assert lawtable.check_law_jacobi(table, [(0, 0, 0), (-1, 0, 1)], 2)["pass"]
    assert _assert_exact([composers[0]._conv_memo], "convolution") > 0
    # manifold cells and accumulated point products
    M = integrate(golden.mixed())
    assert M.check_axioms(3, seed=1, window=(-2, 2))["pass"]
    products = [side[2] for side in M._sides.values()]
    assert _assert_exact([M._table, products], "manifold") > 0
    # every JSON payload of the recorded session: numbers in exact form only
    transcript = json.loads((DATA / "cli_transcript.json").read_text(encoding="utf-8"))
    payloads = 0
    for entry in transcript:
        if "json" not in entry["argv"]:
            continue
        argv = [str(DATA / a) if a.endswith(".lca") else a for a in entry["argv"]]
        code, text = run(argv)
        assert code == entry["exit"]
        for x in _leaves(json.loads(text)):
            assert not isinstance(x, float), (entry["argv"], x)
            if isinstance(x, str) and re.fullmatch(r"[-+0-9./eE]+", x):
                assert re.fullmatch(r"-?\d+(/\d+)?", x), (entry["argv"], x)
        payloads += 1
    assert payloads == 10
    # a float coefficient is refused at the normalization point
    for bad in (0.5, 1.0, "1/2"):
        with pytest.raises(TypeError):
            CVec({(0, 0): bad})
    with pytest.raises(TypeError):
        scale({(0, 0): 1}, 0.5)
    with pytest.raises(TypeError):
        UElem({(0,): 1}).iadd_scaled(UElem({(0,): 1}), 0.5)
    with pytest.raises(TypeError):
        build_presentation("h", [("a", None), ("k", 1)], {("a", "a"): {1: {("k", 0): 0.5}}})
