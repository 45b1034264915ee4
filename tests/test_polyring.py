import random
from fractions import Fraction as Q

import sympy

from lieconformal.polyring import ONE, PolyModule, UPoly


def rand_poly(rng, deg=3):
    return UPoly([Q(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rng.randint(0, deg + 1))])


def test_upoly_arithmetic():
    a = UPoly([1, 2, 3])
    b = UPoly([0, 1])
    assert a + b == UPoly([Q(1), Q(3), Q(3)])
    assert (a - a).is_zero()
    assert a * b == UPoly([Q(0), Q(1), Q(2), Q(3)])
    assert a.degree == 2 and b.degree == 1
    assert UPoly().degree == -1


def test_upoly_divmod_random():
    rng = random.Random(1)
    for _ in range(200):
        a = rand_poly(rng, 5)
        b = rand_poly(rng, 3)
        if b.is_zero():
            continue
        q, r = a.divmod(b)
        assert q * b + r == a
        assert r.degree < b.degree or r.is_zero()


def _sympy_coeffs(poly) -> dict:
    return {d: Q(int(c.p), int(c.q)) for (d,), c in poly.as_dict().items()}


def test_upoly_divmod_matches_sympy():
    # an oracle independent of the sparse kernel: sympy's division over QQ
    t = sympy.Symbol("t")
    rng = random.Random(5)

    def sparse(top):
        # a few terms at random degrees, so zero gaps are the rule
        return UPoly({rng.randint(0, top): Q(rng.randint(-6, 6), rng.randint(1, 4))
                      for _ in range(rng.randint(1, 4))})

    divisors = [UPoly.monomial(1, m) for m in (1, 2, 7, 30)]  # torsion relations t^m
    divisors += [UPoly({0: -3, 5: 1}), UPoly({0: Q(1, 2), 3: 2, 9: Q(-5, 3)})]
    cases = [(sparse(40), b) for b in divisors for _ in range(5)]
    cases += [(rand_poly(rng, 6), rand_poly(rng, 3)) for _ in range(60)]
    cases += [(sparse(60), sparse(20)) for _ in range(60)]
    checked = 0
    for a, b in cases:
        if b.is_zero():
            continue
        q, r = a.divmod(b)
        A, B = (sympy.Poly({(d,): sympy.Rational(c.numerator, c.denominator)
                            for d, c in p.coeffs.items()}, t, domain="QQ") for p in (a, b))
        sq, sr = sympy.div(A, B, t)
        assert q.coeffs == _sympy_coeffs(sq) and r.coeffs == _sympy_coeffs(sr), (a, b)
        for c in (*q.coeffs.values(), *r.coeffs.values()):
            assert type(c) is int or c.denominator != 1, (a, b, c)
        checked += 1
    assert checked > 100


def test_module_membership_and_equality():
    # columns over two generators
    x = UPoly([0, 1])
    one = ONE
    zero = UPoly()
    m1 = PolyModule(2, [(x, zero), (zero, one)])
    assert m1.contains((x * x, x))
    assert not m1.contains((one, zero))
    # same module from redundant generators
    m2 = PolyModule(2, [(x, zero), (x * x, zero), (zero, one), (x, one)])
    assert m1 == m2
    assert m1.canonical_key() == m2.canonical_key()


def test_module_random_membership():
    rng = random.Random(7)
    for _ in range(30):
        cols = [tuple(rand_poly(rng) for _ in range(3)) for _ in range(3)]
        mod = PolyModule(3, cols)
        # random combinations of the generators are members
        for _ in range(5):
            combo = [UPoly() for _ in range(3)]
            for col in cols:
                c = rand_poly(rng, 2)
                combo = [acc + c * entry for acc, entry in zip(combo, col)]
            assert mod.contains(combo)


def test_zero_and_torsion_columns():
    x = UPoly([0, 1])
    rel = PolyModule(2, [(x, UPoly()), (UPoly(), UPoly([0, 0, 1]))])
    assert rel == PolyModule(2, [(x, UPoly()), (UPoly(), UPoly([0, 0, 1])), (x * x, UPoly())])
    assert PolyModule(2).basis_columns() == []
