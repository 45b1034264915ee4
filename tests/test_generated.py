"""The paper's theorems on generated nilpotent presentations.

Each case is the current algebra Cur(g) of a Lie algebra g of strictly
upper-triangular rational matrices, drawn from a fixed seed (see
`generated.py`).  On each: the axiom report equals the direct oracle's,
integration followed by the tangent presentation returns the input (Lie's
third theorem), the primitives of the word span are exactly the letters
(Milnor–Moore; the vacuum is group-like, Δ1 = 1 ⊗ 1), and a law table
satisfies the law Jacobi identity at every (l, t, j) in {-1, 0, 1}^3.
On three of them the three readings of the three-sum identity agree.
"""

import random
from fractions import Fraction as Q

import pytest
from generated import nilpotent_current
from oracles import direct_check_axioms

from lieconformal import EnvelopingAlgebra, integrate
from lieconformal.bialgebra import primitives_up_to
from lieconformal.enveloping import UElem
from lieconformal.lawtable import check_law_jacobi, extract_law

ALL_LTJ = [(l, t, j) for l in (-1, 0, 1) for t in (-1, 0, 1) for j in (-1, 0, 1)]

# (matrix size, matrices drawn, seed) -> (dim g, stored brackets): the sizes
# pin the generator, and every case has a nonzero bracket
CASES = {
    (3, 2, 0): (3, 1),
    (3, 2, 5): (3, 1),
    (4, 2, 6): (4, 3),
    (4, 3, 0): (5, 5),
    (4, 3, 1): (5, 7),
    (4, 3, 3): (6, 10),
    (4, 3, 7): (6, 12),
}


def _report(report):
    return [(c.name, c.passed, c.witness, c.residual) for c in report.checks]


@pytest.mark.parametrize("case", sorted(CASES), ids=lambda c: "n{}_draws{}_seed{}".format(*c))
def test_generated_current_algebra(case):
    n, draws, seed = case
    pres = nilpotent_current(seed, n, draws)
    assert (len(pres.generators), len(pres.brackets)) == CASES[case]
    report = pres.check_axioms()
    assert report.ok
    assert _report(report) == _report(direct_check_axioms(pres))
    # Lie's third theorem: the tangent structure of the integral is the input
    assert integrate(pres).tangent_presentation()[0] == pres
    # Milnor–Moore: the primitives are the letters
    env = EnvelopingAlgebra(pres)
    letters = [UElem.monomial((key,)) for key in env.basis.keys_up_to_depth(2)]
    assert primitives_up_to(env, 3, 2) == letters
    # the law Jacobi identity on a degree-2, depth-1 table
    table = extract_law(EnvelopingAlgebra(pres), 2, 1, (-8, 8))
    assert check_law_jacobi(table, ALL_LTJ, 2)["pass"]


@pytest.mark.parametrize("case", [(4, 2, 6), (4, 3, 0), (4, 3, 1)],
                         ids=lambda c: "n{}_draws{}_seed{}".format(*c))
def test_three_readings_of_the_three_sum_agree(case):
    # at every (l, t, j) the Borcherds residual of three letters, the law
    # Jacobi check of a table and the Jacobi residual of three points vanish;
    # one warm manifold reads the points in four orders, and a fresh one per
    # order reads the same residuals in reverse
    n, draws, seed = case
    pres = nilpotent_current(seed, n, draws)
    rng = random.Random(seed)
    env = EnvelopingAlgebra(pres)
    u, v, w = (UElem.monomial((key,)) for key in rng.sample(env.basis.keys_up_to_depth(1), 3))
    table = extract_law(EnvelopingAlgebra(pres), 2, 1, (-8, 8))
    M = integrate(pres)
    keys = M.basis.keys_up_to_depth(1)
    a, b, c = ({k: Q(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2])) for k in rng.sample(keys, 2)}
               for _ in range(3))
    orders = [(a, b, c), (b, a, c), (c, b, a), (a, c, b)]
    for ltj in ALL_LTJ:
        assert not env.borcherds_residual(u, v, w, *ltj), ltj
        assert check_law_jacobi(table, [ltj], 2)["pass"], ltj
        for pts in orders:
            assert M.jacobi_residual(*pts, *ltj) == {}, (pts, ltj)
    for pts in orders:
        fresh = integrate(pres)
        for ltj in reversed(ALL_LTJ):
            assert fresh.jacobi_residual(*pts, *ltj) == M.jacobi_residual(*pts, *ltj), (pts, ltj)
