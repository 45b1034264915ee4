"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single PASS line when its criterion holds; every
comparison is exact rational equality (tolerance zero).
"""

import random
import time
from fractions import Fraction as Q
from itertools import combinations_with_replacement, product as iproduct
from pathlib import Path

import golden
from oracles import (
    delta_on_component, flip, midx_factorial, oracle_bracket, oracle_straighten, point_add,
)

from lieconformal.bialgebra import (
    check_delta_is_vertex_hom,
    coproduct,
    is_primitive,
    primitives_up_to,
)
from lieconformal.core import CVec
from lieconformal.enveloping import EnvelopingAlgebra, UElem, VACUUM
from lieconformal.lawtable import (
    check_convergence_bound,
    check_identities,
    check_law_jacobi,
    extract_law,
    midx_from_word,
    midx_norm,
    word_from_midx,
)
from lieconformal.manifold import integrate
from lieconformal.errors import NotNilpotent

DATA = Path(__file__).parent / "data"

FIVE_GOLDEN = [golden.abelian1, golden.abelian2, golden.heisenberg,
               golden.virasoro, golden.n3_current]
NILPOTENT = [golden.abelian1, golden.abelian2, golden.heisenberg,
             golden.n3_current, golden.mixed]


def rand_vec(rng, pres, depth=2):
    syms = pres.symbols_up_to(depth)
    out = {}
    for s in rng.sample(syms, k=min(len(syms), rng.randint(1, 3))):
        c = rng.randint(-3, 3)
        if c:
            out[s] = Q(c, rng.randint(1, 2))
    return CVec(out)


def rand_word(rng, keys, max_len=3):
    return tuple(sorted(rng.choices(keys, k=rng.randint(0, max_len))))


def test_criterion_1_axiom_suite():
    for build in FIVE_GOLDEN:
        t0 = time.time()
        report = build().check_axioms()
        elapsed = time.time() - t0
        assert report.ok, build.__name__
        assert elapsed < 1.0, (build.__name__, elapsed)
    for build, check in [
        (golden.corrupted_heisenberg, "antisymmetry"),
        (golden.corrupted_jacobi, "jacobi"),
        (golden.corrupted_torsion, "sesquilinearity"),
    ]:
        t0 = time.time()
        report = build().check_axioms()
        assert time.time() - t0 < 1.0
        entry = report.get(check)
        assert not entry.passed
        assert entry.residual is not None and not entry.residual.is_zero()
    print("PASS criterion 1: axiom suite on golden and fault-injected presentations")


def test_criterion_2_oracle_equivalence():
    t0 = time.time()
    rng = random.Random(1001)
    for build in FIVE_GOLDEN:
        pres = build()
        for _ in range(200):
            v, w = rand_vec(rng, pres), rand_vec(rng, pres)
            assert pres.bracket(v, w) == oracle_bracket(pres, v, w)
    for build in [golden.heisenberg, golden.n3_current]:
        U = EnvelopingAlgebra(build())
        keys = U.basis.keys_up_to_depth(2)[:3]
        for length in range(5):
            for word in iproduct(keys, repeat=length):
                assert U.straighten(word) == oracle_straighten(U, word)
    elapsed = time.time() - t0
    assert elapsed < 10.0, elapsed
    print(f"PASS criterion 2: oracle equivalence ({elapsed:.1f}s)")


def test_criterion_3_vertex_algebra_laws():
    t0 = time.time()
    rng = random.Random(2002)
    one = UElem.vacuum()
    for build in FIVE_GOLDEN:
        pres = build()
        U = EnvelopingAlgebra(pres)
        keys = U.basis.keys_up_to_depth(1)
        for _ in range(100):
            u = UElem()
            for _t in range(rng.randint(1, 2)):
                c = rng.randint(-3, 3)
                if c:
                    u.iadd_scaled(UElem.monomial(rand_word(rng, keys)), c)
            # vacuum, creation and translation identities
            assert U.nop(one, u) == u
            for n in (-2, -1, 0, 1):
                expect = u if n == -1 else UElem()
                assert U.nth(one, u, n) == expect
            for j in range(0, 3):
                assert U.nth(u, one, -j - 1) == U.partial_div(u, j)
            for n in range(0, 3):
                assert U.nth(u, one, n).is_zero()
        # derivative is a derivation of the ordered product and shifts brackets
        for _ in range(25):
            u = UElem.monomial(rand_word(rng, keys, 2))
            v = UElem.monomial(rand_word(rng, keys, 2))
            assert U.partial(U.nop(u, v)) == U.nop(U.partial(u), v) + U.nop(u, U.partial(v))
            base = U.bracket(u, v)
            left = U.bracket(U.partial(u), v)
            for n, e in base.coeffs.items():
                assert left.coeff(n + 1) == e.scale(-1)
        # coefficient identity on random triples
        for _ in range(50):
            u = UElem.monomial(rand_word(rng, keys))
            v = UElem.monomial(rand_word(rng, keys))
            w = UElem.monomial(rand_word(rng, keys))
            l, t, j = (rng.randint(-3, 3) for _ in range(3))
            assert U.borcherds_residual(u, v, w, l, t, j).is_zero(), (
                build.__name__, (l, t, j))
    elapsed = time.time() - t0
    assert elapsed < 60.0, elapsed
    print(f"PASS criterion 3: vertex algebra laws ({elapsed:.1f}s)")


def test_criterion_4_bialgebra_laws():
    t0 = time.time()
    rng = random.Random(3003)
    for build in FIVE_GOLDEN:
        pres = build()
        U = EnvelopingAlgebra(pres)
        keys = U.basis.keys_up_to_depth(2)
        words = [VACUUM]
        for length in range(1, 5):
            words.extend(tuple(w) for w in combinations_with_replacement(keys, length))
        for word in words:
            d = coproduct(UElem.monomial(word))
            assert flip(d) == d
            assert delta_on_component(d, 0) == delta_on_component(d, 1)
            left = UElem()
            right = UElem()
            for (x, y), c in d.terms.items():
                if not x:
                    left.iadd_scaled(UElem.monomial(y), c)
                if not y:
                    right.iadd_scaled(UElem.monomial(x), c)
            assert left == UElem.monomial(word) and right == UElem.monomial(word)
        # the coproduct intertwines the products
        samples = []
        for _ in range(8):
            samples.append(
                (UElem.monomial(rand_word(rng, keys, 2)), UElem.monomial(rand_word(rng, keys, 2)))
            )
        assert check_delta_is_vertex_hom(U, samples, (-3, 3))["pass"], build.__name__
        # primitives of the bounded word span are exactly the algebra slice
        prims = primitives_up_to(U, 4, 2)
        slice_syms = pres.symbols_up_to(2)
        assert len(prims) == len(slice_syms)
        assert sorted(w for p in prims for w in p.terms) == sorted((s,) for s in slice_syms)
        for p in prims:
            assert is_primitive(p)
    elapsed = time.time() - t0
    assert elapsed < 60.0, elapsed
    print(f"PASS criterion 4: bialgebra laws and primitive recovery ({elapsed:.1f}s)")


def test_criterion_5_law_axioms():
    t0 = time.time()
    # identity slices for every golden table
    for build in FIVE_GOLDEN:
        U = EnvelopingAlgebra(build())
        T = extract_law(U, 2, 2, (-8, 6))
        rep = check_identities(T)
        assert rep["left_identity"] and rep["right_identity"], build.__name__
    # convergence bound within the stated window, frozen from the degree scan
    pres = golden.heisenberg()
    U = EnvelopingAlgebra(pres)
    T6 = extract_law(U, 2, 2, (-6, 6))
    index_set = [(0, 0), (0, 1), (1, 0)]
    expected = 0
    for k, kp in T6.pair_bounds:
        if midx_norm(k) + midx_norm(kp) > 2:
            continue
        if all(p in index_set for p, _ in k) and all(p in index_set for p, _ in kp):
            expected = max(expected, T6.pair_bounds[(k, kp)])
    rep = check_convergence_bound(T6, 2, index_set)
    assert rep["found"] and rep["bound"] == expected == 4
    # coefficient identity at truncation, degree 2 and the degree-3
    # normalization-discriminating case
    T = extract_law(U, 2, 2, (-8, 6))
    samples = [(l, t, j) for l in (-1, 0, 1) for t in (-1, 0, 1) for j in (-1, 0, 1)]
    assert check_law_jacobi(T, samples, 2)["pass"]
    n3 = golden.n3_current()
    U3 = EnvelopingAlgebra(n3)
    T3 = extract_law(U3, 3, 2, (-8, 8))
    assert T3.coefficient((3, 0), 1, (((0, 0), 2),), (((1, 0), 1),)) == Q(1, 2)
    assert check_law_jacobi(T3, [(0, 0, 0)], 3)["pass"]
    # spot-check the composition machinery against the enveloping products
    from lieconformal.lawtable import _Composer

    comp = _Composer(T3, 3)
    positions = T3.positions
    midxes = [()]
    for s in range(1, 3):
        midxes.extend(midx_from_word(w) for w in combinations_with_replacement(positions, s))
    # triples of total norm <= 3, enumerated by norm rather than filtered
    by_norm: dict = {}
    for k in midxes:
        by_norm.setdefault(midx_norm(k), []).append(k)
    triples = [
        (k, kp, kpp)
        for a, b, c in iproduct(by_norm, repeat=3)
        if a + b + c <= 3
        for k in by_norm[a]
        for kp in by_norm[b]
        for kpp in by_norm[c]
    ]
    for (p, q) in [(0, 0), (-1, 0), (0, -1), (-2, 1)]:
        for l_key in [(2, 0), (3, 0)]:
            # every position's coefficients at once, keyed by position and
            # monomial; read this position's
            values, raises = comp.composed(p, q, 0, (1, 2), False)
            assert l_key not in raises, (l_key, p, q)
            got = {m: c for (pos, m), c in values.items() if pos == l_key}
            expect = {}
            for k, kp, kpp in triples:
                u = UElem.monomial(word_from_midx(k))
                v = UElem.monomial(word_from_midx(kp))
                w = UElem.monomial(word_from_midx(kpp))
                inner = U3.nth(v, w, q)
                if not inner:
                    continue
                c = U3.nth(u, inner, p).terms.get((l_key,), Q(0))
                if c:
                    mono = tuple(
                        sorted(
                            [(0, kk) for kk in word_from_midx(k)]
                            + [(1, kk) for kk in word_from_midx(kp)]
                            + [(2, kk) for kk in word_from_midx(kpp)]
                        )
                    )
                    c = c / (midx_factorial(k) * midx_factorial(kp) * midx_factorial(kpp))
                    expect[mono] = expect.get(mono, Q(0)) + c
            expect = {m: c for m, c in expect.items() if c}
            assert got == expect, (l_key, p, q)
    elapsed = time.time() - t0
    assert elapsed < 120.0, elapsed
    print(f"PASS criterion 5: law identity, convergence and Jacobi checks ({elapsed:.1f}s)")


def test_criterion_6_structure_constant_slice():
    for build in FIVE_GOLDEN:
        pres = build()
        U = EnvelopingAlgebra(pres)
        T = extract_law(U, 2, 1, (-4, 5))
        for i in T.positions:
            for j in T.positions:
                vi, vj = U.basis.vector(i), U.basis.vector(j)
                for n in range(0, T.window[1] + 1):
                    prod = pres.nth_product(vi, vj, n)
                    for l in T.positions:
                        assert T.coefficient(l, n, ((i, 1),), ((j, 1),)) == prod.coeffs.get(l, 0)
    print("PASS criterion 6: unit-exponent slice reproduces structure constants")


def test_criterion_7_nilpotent_integration():
    t0 = time.time()
    assert integrate(golden.heisenberg()).N == 2
    assert integrate(golden.abelian1()).N == 1
    assert integrate(golden.abelian2()).N == 1
    assert integrate(golden.n3_current()).N == 3
    try:
        integrate(golden.virasoro())
        raise AssertionError("virasoro must not integrate")
    except NotNilpotent:
        pass
    rng = random.Random(4004)
    for build in [golden.heisenberg, golden.abelian2, golden.n3_current, golden.mixed]:
        M = integrate(build())
        report = M.check_axioms(20, seed=7, window=(-4, 4))
        assert report["pass"], (build.__name__, report)
        # truncation probed beyond the reported bound
        for _ in range(10):
            keys = M.basis.keys_up_to_depth(1)
            p = {k: Q(rng.randint(-3, 3)) for k in rng.sample(keys, k=2)}
            p = {k: v for k, v in p.items() if v}
            q = {k: Q(rng.randint(-3, 3)) for k in rng.sample(keys, k=2)}
            q = {k: v for k, v in q.items() if v}
            bound = M.truncation_bound(p, q)
            for n in range(bound, bound + 5):
                assert M.product(p, q, n) == {}
    Ma = integrate(golden.abelian2())
    keys = Ma.basis.keys_up_to_depth(2)
    for _ in range(50):
        p = {k: Q(rng.randint(-4, 4), rng.randint(1, 3)) for k in rng.sample(keys, k=3)}
        p = {k: v for k, v in p.items() if v}
        q = {k: Q(rng.randint(-4, 4), rng.randint(1, 3)) for k in rng.sample(keys, k=3)}
        q = {k: v for k, v in q.items() if v}
        assert Ma.product(p, q, -1) == point_add(p, q)
    elapsed = time.time() - t0
    assert elapsed < 120.0, elapsed
    print(f"PASS criterion 7: nilpotent integration and product axioms ({elapsed:.1f}s)")


def test_criterion_8_roundtrip():
    for build in NILPOTENT:
        pres = build()
        M = integrate(pres)
        recon, change = M.tangent_presentation()
        assert recon == pres, build.__name__
        for bv in M.basis._order:
            assert change[M.basis.label(bv.key)] == bv.vec
    print("PASS criterion 8: tangent structure reproduces every nilpotent input")


def test_criterion_9_cli_contract():
    from lieconformal import dsl
    from lieconformal.cli import run

    # parse-print roundtrip on the golden files
    for name in ["heisenberg.lca", "virasoro.lca", "abelian1.lca", "abelian2.lca",
                 "n3current.lca", "mixed.lca"]:
        text = (DATA / name).read_text()
        pres, _ = dsl.load_presentation(text)
        again, _ = dsl.load_presentation(dsl.emit_algebra(pres))
        assert again == pres, name
    # every exit code is reachable
    assert run(["check", str(DATA / "heisenberg.lca")])[0] == 0
    assert run(["check", str(DATA / "badheis.lca")])[0] == 1
    assert run(["check", str(DATA / "badsyntax.lca")])[0] == 2
    assert run(["integrate", str(DATA / "virasoro.lca")])[0] == 3
    assert run(["fvl", str(DATA / "heisenberg.lca"), "--deg", "2", "--depth", "1",
                "--window=-2..1", "--check-jacobi", "2"])[0] == 4
    # byte-identical reruns under a fixed seed
    argv = ["verify-manifold", str(DATA / "heisenberg.lca"), "--samples", "10",
            "--seed", "23", "--window=-4..4", "--format", "json"]
    assert run(argv) == run(argv)
    print("PASS criterion 9: command-line contract")
