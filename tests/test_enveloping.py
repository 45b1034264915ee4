import math
import random
from fractions import Fraction
from itertools import combinations_with_replacement
from itertools import product as iproduct
from pathlib import Path

import golden
import pytest
from oracles import LambdaPeel, naive_three_sum, oracle_mul, oracle_straighten, skew_bracket

from lieconformal import dsl
from lieconformal.core import CVec
from lieconformal.enveloping import EnvelopingAlgebra, UElem, ULPoly

DATA = Path(__file__).parent / "data"
DATA_ALGEBRAS = ["abelian1", "abelian2", "heisenberg", "mixed", "n3current", "virasoro"]


def alg_of(build):
    return EnvelopingAlgebra(build())


def data_alg(name):
    pres, _ = dsl.load_presentation((DATA / f"{name}.lca").read_text())
    return EnvelopingAlgebra(pres)


def rand_monomial(rng, keys, max_len=3):
    return UElem.monomial(tuple(sorted(rng.choices(keys, k=rng.randint(0, max_len)))))


def rand_elem(rng, keys, max_len=3, terms=2):
    out = UElem()
    for _ in range(rng.randint(1, terms)):
        c = rng.randint(-3, 3)
        if c:
            out.iadd_scaled(rand_monomial(rng, keys, max_len), c)
    return out


class TestStraighten:
    def test_sorted_word_is_fixed(self):
        U = alg_of(golden.heisenberg)
        assert U.straighten(((0, 0),)) == UElem.monomial(((0, 0),))

    def test_trivial_inversion(self):
        U = alg_of(golden.heisenberg)
        # the commutator of the shifted pair vanishes, pure swap
        assert U.straighten(((0, 1), (0, 0))) == UElem.monomial(((0, 0), (0, 1)))

    def test_single_swap_with_bracket(self):
        n3 = golden.n3_current()
        U = EnvelopingAlgebra(n3)
        x, y = (0, 0), (1, 0)
        lie = U._lie(y, x)
        expect = UElem.monomial((x, y)) + lie
        assert U.straighten((y, x)) == expect
        # and the commutator is minus the derivative of the target
        assert U.pi(lie) == -n3.lie_bracket(n3.generator_vector("x"), n3.generator_vector("y"))

    def test_agrees_with_rightmost_rewriting(self):
        rng = random.Random(31)
        for build in [golden.heisenberg, golden.n3_current, golden.mixed]:
            U = alg_of(build)
            keys = U.basis.keys_up_to_depth(1)
            for _ in range(40):
                word = tuple(rng.choices(keys, k=rng.randint(0, 4)))
                assert U.straighten(word) == oracle_straighten(U, word)


class TestAssociativeProduct:
    def test_unital(self):
        U = alg_of(golden.heisenberg)
        one = UElem.vacuum()
        rng = random.Random(1)
        keys = U.basis.keys_up_to_depth(2)
        for _ in range(20):
            u = rand_elem(rng, keys)
            assert U.mul(one, u) == u
            assert U.mul(u, one) == u

    def test_sorted_concatenation(self):
        U = alg_of(golden.heisenberg)
        a = U.letter((0, 0))
        assert U.mul(a, a) == UElem.monomial(((0, 0), (0, 0)))

    def test_associativity_via_free_quotient(self):
        rng = random.Random(13)
        for build in [golden.n3_current, golden.mixed]:
            U = alg_of(build)
            keys = U.basis.keys_up_to_depth(1)
            for _ in range(50):
                u = rand_elem(rng, keys, 2)
                v = rand_elem(rng, keys, 2)
                w = rand_elem(rng, keys, 2)
                assert U.mul(U.mul(u, v), w) == U.mul(u, U.mul(v, w))
                assert U.mul(u, v) == oracle_mul(U, u, v)

    def test_all_short_words_over_three_symbols(self):
        for build in [golden.heisenberg, golden.n3_current]:
            U = alg_of(build)
            keys = U.basis.keys_up_to_depth(2)[:3]
            for length in range(5):
                for word in iproduct(keys, repeat=length):
                    assert U.straighten(word) == oracle_straighten(U, word)

    def test_commutator_identity(self):
        rng = random.Random(77)
        for build in [golden.heisenberg, golden.n3_current, golden.mixed]:
            pres = build()
            U = EnvelopingAlgebra(pres)
            keys = U.basis.keys_up_to_depth(2)
            for _ in range(100):
                ka, kb = rng.choice(keys), rng.choice(keys)
                a, b = U.letter(ka), U.letter(kb)
                comm = U.mul(a, b) - U.mul(b, a)
                lie = pres.lie_bracket(U.basis.vector(ka), U.basis.vector(kb))
                assert U.pi(comm) == lie
                assert comm == U.embed(lie)


class TestTranslation:
    def test_vacuum_and_letters(self):
        U = alg_of(golden.heisenberg)
        assert U.partial(UElem.vacuum()).is_zero()
        a = U.letter((0, 0))
        assert U.partial(a) == U.letter((0, 1))
        assert U.partial(U.letter((1, 0))).is_zero()

    def test_derivation_on_words(self):
        U = alg_of(golden.heisenberg)
        aa = U.mul(U.letter((0, 0)), U.letter((0, 0)))
        assert U.partial(aa) == UElem.monomial(((0, 0), (0, 1)), 2)

    def test_matches_negative_second_product(self):
        rng = random.Random(12)
        for build in [golden.heisenberg, golden.n3_current]:
            U = alg_of(build)
            keys = U.basis.keys_up_to_depth(1)
            for _ in range(30):
                u = rand_elem(rng, keys)
                assert U.nth(u, UElem.vacuum(), -2) == U.partial(u)

    def test_derivation_of_nop_and_bracket(self):
        rng = random.Random(6)
        for build in [golden.heisenberg, golden.n3_current, golden.mixed]:
            U = alg_of(build)
            keys = U.basis.keys_up_to_depth(1)
            for _ in range(20):
                u = rand_elem(rng, keys, 2)
                v = rand_elem(rng, keys, 2)
                assert U.partial(U.nop(u, v)) == U.nop(U.partial(u), v) + U.nop(u, U.partial(v))
                lhs = U.bracket(U.partial(u), v)
                base = U.bracket(u, v)
                expect = ULPoly()
                for n, e in base.coeffs.items():
                    expect.add_term(n + 1, e, -1)
                assert lhs == expect

    def test_divided_powers_match_partial_pow(self):
        rng = random.Random(31)
        for name in DATA_ALGEBRAS:
            U = data_alg(name)
            keys = U.basis.keys_up_to_depth(1)
            for _ in range(6):
                u = rand_elem(rng, keys)
                top = rng.randint(0, 5)
                # reference: j single ∂ passes, then one division by j!
                expect = u
                for j in range(top + 1):
                    got = U.partial_div(u, j)
                    assert got == expect.scale(Fraction(1, math.factorial(j))), (name, u, j)
                    expect = U.partial(expect)


class TestBracket:
    def test_left_peel_example(self):
        U = alg_of(golden.heisenberg)
        a = U.letter((0, 0))
        aa = U.mul(a, a)
        poly = U.bracket(a, aa)
        assert poly.coeffs == {1: UElem.monomial(((0, 0), (1, 0)), 2)}

    def test_vacuum_brackets_vanish(self):
        rng = random.Random(3)
        U = alg_of(golden.n3_current)
        keys = U.basis.keys_up_to_depth(1)
        for _ in range(20):
            v = rand_elem(rng, keys)
            assert U.bracket(UElem.vacuum(), v).is_zero()
            assert U.bracket(v, UElem.vacuum()).is_zero()

    def test_right_peel_example_n3(self):
        n3 = golden.n3_current()
        U = EnvelopingAlgebra(n3)
        x, y = U.letter((0, 0)), U.letter((1, 0))
        xx = U.mul(x, x)
        poly = U.bracket(xx, y)
        z, w1 = (2, 0), (3, 0)
        assert poly.coeff(0) == UElem.monomial(((0, 0), z), 2)
        assert poly.coeff(1) == UElem.monomial((w1,))
        assert poly.degree == 1

    def test_skew_symmetry_oracle(self):
        # pins the derivative-shift convention in the head-peeling rule
        rng = random.Random(19)
        for build in [golden.heisenberg, golden.n3_current, golden.mixed]:
            U = alg_of(build)
            keys = U.basis.keys_up_to_depth(1)
            for _ in range(25):
                u = rand_monomial(rng, keys, 2)
                v = rand_monomial(rng, keys, 2)
                assert U.bracket(u, v) == skew_bracket(U, u, v)


class TestOrderedProduct:
    def test_vacuum_cases(self):
        U = alg_of(golden.heisenberg)
        aa = U.mul(U.letter((0, 0)), U.letter((0, 0)))
        assert U.nop(aa, UElem.vacuum()) == aa
        assert U.nop(UElem.vacuum(), aa) == aa

    def test_letter_rule(self):
        U = alg_of(golden.heisenberg)
        a = U.letter((0, 0))
        aa = U.mul(a, a)
        assert U.nop(a, aa) == UElem.monomial(((0, 0), (0, 0), (0, 0)))

    def test_quasi_associativity_corrections(self):
        U = alg_of(golden.heisenberg)
        a = U.letter((0, 0))
        aa = U.mul(a, a)
        # golden value fixed from the correction-sum expansion by hand
        expect = UElem.monomial(((0, 0), (0, 0), (0, 0))) + UElem.monomial(((0, 2), (1, 0)), 2)
        assert U.nop(aa, a) == expect


class TestIndexedProducts:
    def test_nonnegative_and_shift(self):
        U = alg_of(golden.heisenberg)
        a = U.letter((0, 0))
        aa = U.mul(a, a)
        assert U.nth(a, aa, 1) == UElem.monomial(((0, 0), (1, 0)), 2)
        one = UElem.vacuum()
        rng = random.Random(23)
        keys = U.basis.keys_up_to_depth(1)
        for _ in range(100):
            v = rand_elem(rng, keys)
            assert U.nth(one, v, -1) == v
            for n in (-2, 0, 1):
                assert U.nth(one, v, n).is_zero()
            assert U.nop(one, v) == v
            for j in range(0, 3):
                assert U.nth(v, one, -j - 1) == U.partial_div(v, j)
            for n in range(0, 3):
                assert U.nth(v, one, n).is_zero()

    def test_window_and_bound(self):
        U = alg_of(golden.heisenberg)
        a = U.letter((0, 0))
        products, bound = U.y_window(a, a, -1, 3)
        assert bound == 2
        assert products[-1] == UElem.monomial(((0, 0), (0, 0)))
        assert products[0].is_zero()
        assert products[1] == U.letter((1, 0))
        assert products[2].is_zero() and products[3].is_zero()
        # creation series
        products, _ = U.y_window(a, UElem.vacuum(), -3, 0)
        assert products[-1] == a
        assert products[-2] == U.letter((0, 1))
        assert products[-3] == U.letter((0, 2))
        assert products[0].is_zero()

    def test_window_reads_one_chain(self):
        # every word keeps its divided-power chain, so a window repeated
        # on a warm algebra makes no ∂ pass at all
        counts = []
        for lo in (-8, -16):
            U = alg_of(golden.heisenberg)
            a = U.letter((0, 0))
            aa = U.mul(a, a)
            cold = U.y_window(aa, a, lo, 0)
            calls = []
            inner = U.partial
            U.partial = lambda u: calls.append(u) or inner(u)
            assert U.y_window(aa, a, lo, 0) == cold
            counts.append(len(calls))
        assert counts == [0, 0]

    def test_cold_window_extends_each_chain_once(self):
        # a cold window builds each word's chain once, shared by the window
        # itself, the bracket peels and the ordered-product corrections;
        # rebuilding the chains per call took 179 / 1,013 / 6,697 passes
        counts = []
        for lo in (-8, -16, -32):
            U = alg_of(golden.heisenberg)
            a = U.letter((0, 0))
            aa = U.mul(a, a)
            calls = []
            inner = U.partial
            U.partial = lambda u: calls.append(u) or inner(u)
            products, _ = U.y_window(aa, a, lo, 0)
            counts.append(len(calls))
            for n in range(lo, 0):
                expect = aa
                for _ in range(-n - 1):
                    expect = inner(expect)
                expect = expect.scale(Fraction(1, math.factorial(-n - 1)))
                assert products[n] == U.nop(expect, a), (lo, n)
        assert counts == [42, 150, 558]

    def test_abelian_window_all_zero(self):
        U = alg_of(golden.abelian2)
        u = U.mul(U.letter((0, 0)), U.letter((1, 0)))
        v = U.letter((0, 0))
        products, bound = U.y_window(u, v, 0, 5)
        assert bound == 0
        assert all(p.is_zero() for p in products.values())

    def test_truncation_probe(self):
        rng = random.Random(41)
        for build in [golden.heisenberg, golden.n3_current, golden.mixed]:
            U = alg_of(build)
            keys = U.basis.keys_up_to_depth(1)
            for _ in range(25):
                u = rand_elem(rng, keys)
                v = rand_elem(rng, keys)
                bound = U.trunc_bound(u, v)
                for n in range(bound, bound + 5):
                    assert U.nth(u, v, n).is_zero()


class TestProjection:
    def test_examples(self):
        U = alg_of(golden.heisenberg)
        assert U.pi(UElem.vacuum()).is_zero()
        aa = U.mul(U.letter((0, 0)), U.letter((0, 0)))
        k3 = U.letter((1, 0)).scale(3)
        assert U.pi(aa + k3) == CVec({(1, 0): 3})

    def test_n3_composite(self):
        U = alg_of(golden.n3_current)
        x, y = U.letter((0, 0)), U.letter((1, 0))
        xx = U.mul(x, x)
        assert U.pi(U.nth(xx, y, 1)) == CVec({(3, 0): 1})

    def test_weight_bound_and_pruning(self):
        # single-letter parts respect the weight sum and die past the
        # nilpotency degree
        from lieconformal.filtration import AdaptedBasis, LowerCentralSeries

        rng = random.Random(53)
        for build in [golden.heisenberg, golden.n3_current, golden.mixed]:
            pres = build()
            series = LowerCentralSeries(pres)
            basis = AdaptedBasis(pres, series)
            basis.ensure_depth(1)
            U = EnvelopingAlgebra(pres, basis)
            N = series.nilpotency_degree
            keys = basis.keys_up_to_depth(1)
            for _ in range(30):
                wu = tuple(sorted(rng.choices(keys, k=rng.randint(1, 2))))
                wv = tuple(sorted(rng.choices(keys, k=rng.randint(1, 2))))
                u, v = UElem.monomial(wu), UElem.monomial(wv)
                weight_u = sum(basis.weight(k) for k in wu)
                weight_v = sum(basis.weight(k) for k in wv)
                bound = U.trunc_bound(u, v)
                for n in range(-3, bound + 3):
                    part = U.pi(U.nth(u, v, n))
                    assert series.weight(part) >= weight_u + weight_v
                    if len(wu) + len(wv) > N:
                        assert part.is_zero()


class TestBorcherds:
    def test_zero_bracket_algebra(self):
        U = alg_of(golden.abelian2)
        keys = U.basis.keys_up_to_depth(1)
        u = UElem.monomial((keys[0], keys[1]))
        v = UElem.monomial((keys[2],))
        w = UElem.monomial((keys[0],))
        for l, t, j in [(0, 0, 0), (1, 2, 0), (2, 1, 3)]:
            assert U.borcherds_residual(u, v, w, l, t, j).is_zero()

    def test_heisenberg_examples(self):
        U = alg_of(golden.heisenberg)
        a = U.letter((0, 0))
        aa = U.mul(a, a)
        assert U.borcherds_residual(a, a, a, 0, 0, 0).is_zero()
        assert U.borcherds_residual(a, a, aa, 1, 0, -1).is_zero()

    def test_random_triples_all_golden(self):
        rng = random.Random(97)
        for build in [golden.abelian2, golden.heisenberg, golden.virasoro,
                      golden.n3_current, golden.mixed]:
            U = alg_of(build)
            keys = U.basis.keys_up_to_depth(1)
            for _ in range(12):
                u = rand_monomial(rng, keys)
                v = rand_monomial(rng, keys)
                w = rand_monomial(rng, keys)
                l, t, j = (rng.randint(-3, 3) for _ in range(3))
                assert U.borcherds_residual(u, v, w, l, t, j).is_zero(), (
                    build.__name__, u.terms, v.terms, w.terms, (l, t, j))

    @pytest.mark.parametrize("build, keys, ltj, expected", [
        (golden.heisenberg, ((0, 0), (0, 1), (0, 0)), (-2, 1, -1), {}),
        (golden.virasoro, ((0, 0), (0, 0), (0, 0)), (-1, -1, -1), {}),
        (golden.mixed, ((0, 0), (0, 1), (0, 0)), (-2, 1, -1), {}),
        (golden.corrupted_heisenberg, ((0, 0), (0, 0), (0, 0)), (-1, -1, 1),
         {((0, 0), (1, 0)): Fraction(4, 21)}),
    ])
    def test_residual_is_exact_for_negative_sign_exponents(self, build, keys, ltj, expected):
        # the sign (-1)^(l + i) of the second sum has a negative exponent here
        U = alg_of(build)
        u = U.letter(keys[0]).scale(Fraction(1, 3))
        v = U.letter(keys[1]).scale(Fraction(2, 7))
        w = U.letter(keys[2])
        resid = U.borcherds_residual(u, v, w, *ltj)
        assert resid.terms == expected
        assert all(type(c) is Fraction for c in resid.terms.values())

    def test_residuals_equal_the_naive_sum(self):
        # badheis fails antisymmetry, so its residuals are not zero; each is
        # the naive three-sum's over the same nested products, whole
        U = data_alg("badheis")
        keys = U.basis.keys_up_to_depth(1)
        rng = random.Random(28)
        nonzero = 0
        for _ in range(6):
            u, v, w = (rand_monomial(rng, keys, 2).scale(Fraction(rng.choice([1, -2, 3]), 2))
                       for _ in range(3))

            def nested(x, y):
                return lambda p, q: U.nth(x, U.nth(y, w, q), p).terms

            terms = (nested(u, v), nested(v, u), lambda p, q: U.nth(U.nth(u, v, q), w, p).terms)
            stops = (U.trunc_bound(v, w), U.trunc_bound(u, w), U.trunc_bound(u, v))
            for l, t, j in iproduct(range(-2, 2), repeat=3):
                got = U.borcherds_residual(u, v, w, l, t, j)
                assert got.terms == naive_three_sum(l, t, j, stops, terms), (u, v, w, l, t, j)
                nonzero += bool(got.terms)
        assert nonzero > 20, nonzero


class TestDepthBudget:
    def test_products_respect_the_depth_budget(self):
        # every word of an indexed product carries at least the depth the
        # arguments brought in, minus the (nonnegative) product index;
        # this is what makes depth-capped law tables usable at bounded
        # sample indices
        rng = random.Random(123)
        for build in [golden.heisenberg, golden.virasoro, golden.n3_current,
                      golden.mixed]:
            U = alg_of(build)
            keys = U.basis.keys_up_to_depth(3)
            for _ in range(60):
                wu = tuple(sorted(rng.choices(keys, k=rng.randint(1, 3))))
                wv = tuple(sorted(rng.choices(keys, k=rng.randint(0, 2))))
                u, v = UElem.monomial(wu), UElem.monomial(wv)
                total = sum(d for (_, d) in wu) + sum(d for (_, d) in wv)
                bound = U.trunc_bound(u, v)
                for n in range(-4, bound):
                    for word in U.nth(u, v, n).terms:
                        got = sum(d for (_, d) in word)
                        assert got >= total - max(n, 0), (
                            build.__name__, wu, wv, n, word)


# every algebra in tests/data that parses, badheis (which fails antisymmetry)
# included; all of them are graded
PARSEABLE = sorted(p.stem for p in DATA.glob("*.lca") if p.stem != "badsyntax")
# gradings worked out by hand; a multiple of the central charge has weight 0
HAND_WEIGHTS = {"n3current": (1, 1, 1, 1, 1), "virasoro": (2, 0)}


def _assert_homogeneous_products(U, delta):
    """Every n-th product of words of length <= 2, n in -4..3, has the weight
    W(u) + W(v) - n - 1; the letters go to depth 1 on up to three generators
    and stay at depth 0 on more."""

    def weight(word):
        return sum(delta[g] + d for g, d in word)

    letters = U.basis.keys_up_to_depth(1 if len(delta) <= 3 else 0)
    words = [()] + [(a,) for a in letters] + [
        (a, b) for i, a in enumerate(letters) for b in letters[i:]
    ]
    nonzero = 0
    for wu in words:
        for wv in words:
            u, v = UElem.monomial(wu), UElem.monomial(wv)
            for n in range(-4, 4):
                want = weight(wu) + weight(wv) - n - 1
                got = U.nth(u, v, n)
                assert all(weight(w) == want for w in got.terms), (wu, wv, n)
                nonzero += bool(got)
    return nonzero


@pytest.mark.parametrize("name", PARSEABLE)
def test_products_are_homogeneous_in_the_conformal_weight(name):
    pres, _ = dsl.load_presentation((DATA / f"{name}.lca").read_text())
    delta = pres.conformal_weights()
    assert delta is not None and len(delta) == len(pres.generators)
    # the solved weights satisfy every term of every bracket, the transposed
    # ones included, recomputed from the bracket extension
    ngen = len(pres.generators)
    terms = 0
    for i in range(ngen):
        for j in range(ngen):
            poly = pres.bracket(CVec.unit((i, 0)), CVec.unit((j, 0)))
            for n, vec in poly.coeffs.items():
                for k, d in vec.coeffs:
                    assert delta[k] + d == delta[i] + delta[j] - n - 1, (i, j, n, k, d)
                    terms += 1
    assert terms or not pres.brackets
    # free parameters are non-integers, so a letter and a word of two
    # letters of an abelian algebra never weigh the same
    if not pres.brackets:
        assert all(Fraction(x).denominator > 1 for x in delta)
    U = EnvelopingAlgebra(pres)
    assert _assert_homogeneous_products(U, delta) > 0
    if name in HAND_WEIGHTS:
        assert _assert_homogeneous_products(EnvelopingAlgebra(pres), HAND_WEIGHTS[name]) > 0


@pytest.mark.parametrize("name", PARSEABLE)
def test_products_match_the_lambda_coefficient_peel(name):
    # the kept n-th products, read as brackets and ordered products, equal
    # the λ-coefficient peel formulas on every pair of words of length <= 3;
    # the letters go to depth 1 on up to three generators and stay at depth
    # 0 on more
    pres, _ = dsl.load_presentation((DATA / f"{name}.lca").read_text())
    U = EnvelopingAlgebra(pres)
    ref = LambdaPeel(EnvelopingAlgebra(pres))
    letters = sorted(U.basis.keys_up_to_depth(1 if len(pres.generators) <= 3 else 0))
    words = [w for s in range(4) for w in combinations_with_replacement(letters, s)]
    nonzero = 0
    for wu in words:
        for wv in words:
            u, v = UElem.monomial(wu), UElem.monomial(wv)
            got = U.bracket(u, v)
            assert got == ref.bracket(u, v), (wu, wv)
            assert U.nop(u, v) == ref.nop(u, v), (wu, wv)
            nonzero += bool(got)
    assert nonzero or not pres.brackets


@pytest.mark.parametrize("name", DATA_ALGEBRAS)
def test_word_bound_of_a_vacuum_side_is_0_and_builds_nothing(name):
    # 1_(n)v and u_(n)1 vanish for n >= 0 by the vacuum axiom
    env = data_alg(name)
    word = tuple(sorted(env.basis.keys_up_to_depth(1)))[:2]
    for pair in (((), word), (word, ()), ((), ())):
        assert env.word_bound(*pair) == 0
    assert not env._lead_memo and not env._bracket_memo and not env._straighten_memo
