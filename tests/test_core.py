import math
import random
from fractions import Fraction as Q
from itertools import product
from pathlib import Path

import golden
import pytest
from oracles import (
    binom_z,
    direct_bracket,
    direct_check_axioms,
    direct_jacobi_residual,
    naive_three_sum,
    oracle_bracket,
    oracle_lie_bracket,
)

from lieconformal import build_presentation, dsl
from lieconformal.cli import _report
from lieconformal.core import CVec, LMPoly, LPoly, judge, three_sum

DATA = Path(__file__).parent / "data"
# every presentation under tests/data that parses, torsion ones included
DATA_ALGEBRAS = sorted(p.stem for p in DATA.glob("*.lca") if p.stem != "badsyntax")


def load(name):
    return dsl.load_presentation((DATA / f"{name}.lca").read_text(encoding="utf-8"))[0]


def rand_vec(rng, pres, depth=2):
    syms = pres.symbols_up_to(depth)
    out = {}
    for s in rng.sample(syms, k=min(len(syms), rng.randint(1, 3))):
        c = rng.randint(-3, 3)
        if c:
            out[s] = Q(c, rng.randint(1, 2))
    return CVec(out)


def test_partial_divided_shift():
    h = golden.heisenberg()
    a = h.generator_vector("a")
    assert h.partial_div(a, 1) == CVec({(0, 1): 1})
    k = h.generator_vector("k")
    assert h.partial_div(k, 1).is_zero()
    da = CVec({(0, 1): 1})
    assert h.partial_div(da, 1) == CVec({(0, 2): 2})
    # divided shifts compose with binomial weights
    assert h.partial_div(a, 2) == CVec({(0, 2): 1})
    assert h.partial_div(da, 2) == CVec({(0, 3): 3})


def test_bracket_table_and_derived_entries():
    h = golden.heisenberg()
    a = h.generator_vector("a")
    assert h.bracket(a, a) == LPoly({1: {(1, 0): 1}})
    da = h.partial(a)
    assert h.bracket(da, a) == LPoly({2: {(1, 0): -1}})
    v = golden.virasoro()
    L = v.generator_vector("L")
    assert v.bracket(L, L) == LPoly({0: {(0, 1): 1}, 1: {(0, 0): 2}, 3: {(1, 0): Q(1, 12)}})


def test_nth_products():
    h = golden.heisenberg()
    a = h.generator_vector("a")
    assert h.nth_product(a, a, 1) == CVec({(1, 0): 1})
    assert h.nth_product(a, a, 0).is_zero()
    v = golden.virasoro()
    L = v.generator_vector("L")
    assert v.nth_product(L, L, 3) == CVec({(1, 0): Q(1, 2)})
    try:
        h.nth_product(a, a, -1)
    except ValueError:
        pass
    else:
        raise AssertionError("negative index must be rejected")


def test_lie_bracket_examples_and_oracle():
    h = golden.heisenberg()
    a = h.generator_vector("a")
    assert h.lie_bracket(a, a).is_zero()
    # current algebra with a central torsion target: the bracket is a
    # total derivative and the torsion kills it
    cur = golden.build_current_heisenberg()
    x, y = cur.generator_vector("x"), cur.generator_vector("y")
    assert cur.lie_bracket(x, y) == oracle_lie_bracket(cur, x, y)
    assert cur.lie_bracket(x, y).is_zero()
    # with a free target the total derivative survives
    n3 = golden.n3_current()
    x, y = n3.generator_vector("x"), n3.generator_vector("y")
    assert n3.lie_bracket(x, y) == CVec({(2, 1): 1})
    assert n3.lie_bracket(x, y) == oracle_lie_bracket(n3, x, y)


def test_lie_bracket_is_a_lie_bracket():
    rng = random.Random(5)
    for build in [golden.heisenberg, golden.n3_current, golden.mixed]:
        pres = build()
        for _ in range(25):
            u, v, w = (rand_vec(rng, pres) for _ in range(3))
            assert pres.lie_bracket(u, v) + pres.lie_bracket(v, u) == CVec()
            jac = (
                pres.lie_bracket(u, pres.lie_bracket(v, w))
                + pres.lie_bracket(v, pres.lie_bracket(w, u))
                + pres.lie_bracket(w, pres.lie_bracket(u, v))
            )
            assert jac.is_zero()
            assert pres.lie_bracket(u, v) == oracle_lie_bracket(pres, u, v)


def test_bracket_oracle_agreement():
    rng = random.Random(9)
    for build in golden.ALL_GOLDEN + [golden.mixed]:
        pres = build()
        for _ in range(50):
            v, w = rand_vec(rng, pres), rand_vec(rng, pres)
            assert pres.bracket(v, w) == oracle_bracket(pres, v, w)


def test_sesquilinearity_by_construction():
    rng = random.Random(3)
    for build in [golden.heisenberg, golden.virasoro, golden.n3_current]:
        pres = build()
        for _ in range(30):
            v, w = rand_vec(rng, pres), rand_vec(rng, pres)
            base = pres.bracket(v, w)
            left = pres.bracket(pres.partial(v), w)
            expect_left = LPoly()
            for n, vec in base.coeffs.items():
                expect_left.add_term(n + 1, -vec)
            assert left == expect_left
            right = pres.bracket(v, pres.partial(w))
            expect_right = LPoly()
            for n, vec in base.coeffs.items():
                expect_right.add_term(n, pres.partial(vec))
                expect_right.add_term(n + 1, vec)
            assert right == expect_right


def test_antisymmetry_extension_on_random_vectors():
    rng = random.Random(17)
    for build in golden.ALL_GOLDEN:
        pres = build()
        for _ in range(100):
            v, w = rand_vec(rng, pres), rand_vec(rng, pres)
            assert pres.bracket(v, w) == pres.antisym_image(pres.bracket(w, v))


def test_axiom_reports():
    for build in golden.ALL_GOLDEN + [golden.mixed]:
        assert build().check_axioms().ok, build.__name__
    bad = golden.corrupted_heisenberg().check_axioms()
    anti = bad.get("antisymmetry")
    assert not anti.passed
    assert anti.witness == (0, 0)
    # the reported residual is twice the bogus constant bracket
    assert anti.residual == LPoly({0: {(1, 0): 2}})
    jac = golden.corrupted_jacobi().check_axioms().get("jacobi")
    assert not jac.passed and jac.residual is not None
    tor = golden.corrupted_torsion().check_axioms().get("sesquilinearity")
    assert not tor.passed


def test_axiom_reports_pinned():
    # (name, passed, witness, residual) of every axiom: the first failing
    # case in generator order, recorded before the checks were rewritten
    from pathlib import Path

    from lieconformal import dsl

    text = (Path(__file__).parent / "data" / "badheis.lca").read_text()
    antisym = [
        ("sesquilinearity", True, None, None),
        ("antisymmetry", False, (0, 0), LPoly({0: {(1, 0): 2}})),
        ("jacobi", True, None, None),
    ]
    pinned = {
        "badheis": antisym,
        "badheis.lca": antisym,
        "badjac": [
            ("sesquilinearity", True, None, None),
            ("antisymmetry", True, None, None),
            ("jacobi", False, (0, 1, 2), LMPoly({(0, 0): {(2, 0): -1}})),
        ],
        "badtor": [
            ("sesquilinearity", False, (0, 1), LPoly({1: {(0, 0): 1}, 0: {(0, 1): 1}})),
            ("antisymmetry", True, None, None),
            ("jacobi", True, None, None),
        ],
    }
    presentations = {
        "badheis": golden.corrupted_heisenberg(),
        "badheis.lca": dsl.load_presentation(text)[0],
        "badjac": golden.corrupted_jacobi(),
        "badtor": golden.corrupted_torsion(),
    }
    for name, pres in presentations.items():
        got = [(c.name, c.passed, c.witness, c.residual) for c in pres.check_axioms().checks]
        assert got == pinned[name], name


def test_jacobi_residual_on_random_triples():
    rng = random.Random(21)
    for build in [golden.heisenberg, golden.virasoro, golden.n3_current, golden.mixed]:
        pres = build()
        for _ in range(20):
            a, b, c = (rand_vec(rng, pres) for _ in range(3))
            assert pres.jacobi_residual(a, b, c).is_zero()


def test_antisym_image_is_an_involution():
    rng = random.Random(101)
    for build in golden.ALL_GOLDEN + [golden.mixed]:
        pres = build()
        for _ in range(40):
            v, w = rand_vec(rng, pres), rand_vec(rng, pres)
            poly = pres.bracket(v, w)
            assert pres.antisym_image(pres.antisym_image(poly)) == poly


def test_empty_presentation_edge():
    empty = build_presentation("nothing", [])
    assert empty.check_axioms().ok
    assert empty.symbols_up_to(3) == []


@pytest.mark.parametrize("name", DATA_ALGEBRAS)
def test_table_products_match_the_direct_extension(name):
    # the kept symbol table against the extension redone for every pair,
    # on a presentation whose table fills up as the draws go on
    rng = random.Random(sum(map(ord, name)))
    pres = load(name)
    for _ in range(30):
        v, w, u = (rand_vec(rng, pres, depth=3) for _ in range(3))
        want = direct_bracket(pres, v, w)
        assert pres.bracket(v, w) == want
        for n in range(want.degree + 2):
            assert pres.nth_product(v, w, n) == want.coeff(n).scale(math.factorial(n))
        assert pres.lie_bracket(v, w) == oracle_lie_bracket(pres, v, w)
        assert pres.jacobi_residual(v, w, u) == direct_jacobi_residual(pres, v, w, u)


def outer_pair_only():
    """Jacobi first fails at (a, b, c), whose only nonzero pair bracket is
    the outer one, [a λ c]: the residual is [b μ [a λ c]]."""
    return build_presentation(
        "outer", [("a", None), ("b", None), ("c", None)],
        {("a", "c"): {0: {("b", 0): 1}}, ("b", "b"): {0: {("b", 1): 1}, 1: {("b", 0): 2}}},
    )


def torsion_pair(left: int | None, right: int | None):
    """A presentation failing sesquilinearity on its one stored pair
    [l λ r], whose arguments have the given torsion orders (None: free).
    The bracket has λ-degrees 0 and 1 and torsion targets, so the
    vanishing powers shift it past the torsion of its own terms."""
    def build():
        gens = [("l", left), ("r", right), ("a", None), ("k", 3)]
        bracket = {0: {("a", 1): 1, ("k", 1): 2}, 1: {("k", 0): Q(1, 2), ("a", 0): -1}}
        return build_presentation(f"tor_{left}_{right}", gens, {("l", "r"): bracket})
    build.__name__ = f"torsion_pair_{left}_{right}"
    return build


AXIOM_CASES = [(name, lambda name=name: load(name)) for name in DATA_ALGEBRAS] + [
    (build.__name__, build)
    for build in (golden.corrupted_heisenberg, golden.corrupted_jacobi, golden.corrupted_torsion,
                  outer_pair_only,
                  *(torsion_pair(left, right) for left, right in
                    ((1, None), (2, None), (3, None), (None, 2), (None, 3), (2, 3), (3, 1))))
]


@pytest.mark.parametrize("name, build", AXIOM_CASES, ids=[n for n, _ in AXIOM_CASES])
def test_axiom_reports_match_the_direct_extension(name, build):
    pres = build()
    want = direct_check_axioms(pres)
    got = pres.check_axioms()
    assert [(c.name, c.passed, c.witness, c.residual) for c in got.checks] == \
        [(c.name, c.passed, c.witness, c.residual) for c in want.checks]
    # the reports render to the same witnesses and residual text
    assert _report(pres, got) == _report(pres, want)


def test_bracket_table_is_read_only():
    pres = load("heisenberg")
    with pytest.raises(TypeError):
        pres.brackets[(0, 0)] = LPoly({0: {(1, 0): 1}})
    with pytest.raises(TypeError):
        pres.brackets[(0, 1)] = LPoly({0: {(1, 0): 1}})


@pytest.mark.parametrize("name", DATA_ALGEBRAS)
def test_a_filled_table_leaves_the_presentation_as_loaded(name):
    rng = random.Random(3)
    pres = load(name)
    for _ in range(10):
        v, w = rand_vec(rng, pres, depth=3), rand_vec(rng, pres, depth=3)
        pres.bracket(v, w), pres.lie_bracket(v, w), pres.nth_product(v, w, 1)
    pres.check_axioms(), pres.conformal_weights()
    assert pres._rows and pres == load(name)
    assert dsl.emit_algebra(pres) == dsl.emit_algebra(load(name))
    assert dsl.load_presentation(dsl.emit_algebra(pres))[0] == pres


def test_returned_values_share_nothing_with_the_table():
    # changing a result in place leaves the next result as a fresh
    # presentation computes it
    L, C = CVec({(0, 0): 1}), CVec({(0, 1): 2, (1, 0): 1})
    x, y, z = (CVec({(g, 0): 1}) for g in range(3))
    calls = [
        (golden.virasoro, lambda p: p.bracket(L, L)),
        (golden.virasoro, lambda p: p.bracket(C, L)),
        (golden.virasoro, lambda p: p.gen_bracket(0, 0)),
        (golden.virasoro, lambda p: p.antisym_image(p.bracket(L, C))),
        (golden.corrupted_jacobi, lambda p: p.jacobi_residual(x, y, z)),
    ]
    for build, call in calls:
        pres = build()
        got = call(pres)
        assert got
        got.add_term(next(iter(got.coeffs)), CVec({(0, 5): 1}), 3)
        assert call(pres) == call(build())
        for vec in call(pres).coeffs.values():
            vec.iadd_scaled(CVec({(0, 7): 1}))
        assert call(pres) == call(build())
    for call in (lambda p: p.nth_product(L, L, 1), lambda p: p.lie_bracket(C, L)):
        pres = golden.virasoro()
        call(pres).iadd_scaled(CVec({(0, 7): 1}))
        assert call(pres) == call(golden.virasoro())


def test_three_sum_matches_the_naive_sum():
    # seeded term tables whose values are empty, int-valued, Fraction-valued
    # or mixed, some cancelling across terms; each residual is the naive
    # sum's, and the terms are called in the same order
    rng = random.Random(28)

    def value():
        kind = rng.randrange(4)
        if kind == 0:
            return {}
        keys = rng.sample("pqr", rng.randint(1, 3))
        if kind == 1:
            return {k: rng.choice([-2, -1, 1, 3]) for k in keys}
        if kind == 2:
            return {k: Q(rng.choice([-3, -1, 1, 2]), rng.choice([2, 3])) for k in keys}
        return {k: rng.choice([1, -1, Q(1, 2), Q(-5, 6)]) for k in keys}

    tables = [{(p, q): value() for p in range(-14, 5) for q in range(-3, 6)} for _ in range(3)]
    calls: list = []

    def reader(i):
        return lambda p, q: calls.append((i, p, q)) or tables[i][p, q]

    terms = [reader(i) for i in range(3)]
    triples = list(product(range(7), repeat=3))
    nonzero = fractions = 0
    for l, t, j in product(range(-3, 3), repeat=3):
        # every stop 0..6 on each sum, and a sample of the other triples
        for stops in [(s, 6 - s, 3 * s % 7) for s in range(7)] + rng.sample(triples, 20):
            calls.clear()
            got = three_sum(l, t, j, stops, terms)
            seen = list(calls)
            calls.clear()
            assert got == naive_three_sum(l, t, j, stops, terms), (l, t, j, stops)
            assert seen == calls, (l, t, j, stops)
            nonzero += bool(got)
            fractions += any(type(c) is Q for c in got.values())
            # integral coefficients are stored as ints, as `iadd` stores them
            assert all(c and type(c) is (int if Q(c).denominator == 1 else Q) for c in got.values())
    assert nonzero > 5_000 and fractions > 4_000, (nonzero, fractions)
    # the reference binomial, at a negative and a nonnegative upper index
    assert [binom_z(-3, i) for i in range(5)] == [1, -3, 6, -10, 15]
    assert [binom_z(2, i) for i in range(5)] == [1, 2, 1, 0, 0]


def test_judge_stops_at_the_first_failure_and_fails_an_empty_check():
    pulled = []

    def entries(verdicts):
        for good in verdicts:
            pulled.append(good)
            yield {"pass": good}

    assert judge(entries([True, True])) == {"pass": True, "checks": [{"pass": True}] * 2}
    # the entries after the first failing one are never built
    assert judge(entries([True, False, True])) == {
        "pass": False, "checks": [{"pass": True}, {"pass": False}]}
    assert pulled == [True, True, True, False]
    assert judge(entries([])) == {"pass": False, "checks": [], "reason": "no case was checked"}
