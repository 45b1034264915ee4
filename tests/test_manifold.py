import math
import random
from fractions import Fraction as Q
from functools import partial
from itertools import permutations, product
from pathlib import Path

import golden
import pytest
from oracles import brute_combine, brute_inner_series, midx_factorial, naive_three_sum, point_add

from lieconformal import dsl
from lieconformal.core import CVec, three_sum
from lieconformal.enveloping import UElem
from lieconformal.errors import AxiomFailure, NotNilpotent
from lieconformal.manifold import integrate, point_key

DATA = Path(__file__).parent / "data"


def rand_point(rng, M, depth=1, bound=4):
    keys = M.basis.keys_up_to_depth(depth)
    out = {}
    for k in rng.sample(keys, k=min(len(keys), rng.randint(1, 3))):
        num = rng.randint(-bound, bound)
        if num:
            out[k] = Q(num, rng.randint(1, 3))
    return out


def test_integrate_shapes():
    assert integrate(golden.heisenberg()).N == 2
    assert integrate(golden.abelian2()).N == 1
    assert integrate(golden.n3_current()).N == 3
    assert integrate(golden.mixed()).N == 2
    with pytest.raises(NotNilpotent) as err:
        integrate(golden.virasoro())
    assert err.value.stable_generators
    with pytest.raises(AxiomFailure):
        integrate(golden.corrupted_heisenberg())


def test_product_examples():
    M = integrate(golden.heisenberg())
    a = M.basis.key_for_symbol((0, 0))
    k = M.basis.key_for_symbol((1, 0))
    alpha, beta = Q(3, 2), Q(-2)
    out = M.product({a: alpha}, {a: beta}, 1)
    assert out == {k: alpha * beta}
    # every index-zero product of points vanishes here
    rng = random.Random(2)
    for _ in range(10):
        assert M.product(rand_point(rng, M), rand_point(rng, M), 0) == {}


def test_identity_slice_sum():
    # with all corrections killed, the index -1 product is the sum
    M = integrate(golden.abelian2())
    rng = random.Random(5)
    for _ in range(50):
        p, q = rand_point(rng, M, 2), rand_point(rng, M, 2)
        assert M.product(p, q, -1) == point_add(p, q)
        # and the products are linear in each slot separately
        for n in range(-3, 2):
            double = M.product({k: 2 * v for k, v in p.items()}, q, n)
            base = M.product(p, q, n)
            only_q = M.product({}, q, n)
            assert double == point_add(
                {k: 2 * v for k, v in point_add(base, {k2: -v2 for k2, v2 in only_q.items()}).items()},
                only_q,
            )


def test_abelian_matches_trivial_vertex_products():
    # the integrated structure of a zero bracket coincides with the
    # enveloping products of vacuum-shifted elements
    M = integrate(golden.abelian2())
    rng = random.Random(9)
    for _ in range(20):
        p, q = rand_point(rng, M, 1), rand_point(rng, M, 1)
        Ep, Eq = M.exponential_element(p), M.exponential_element(q)
        for n in range(-3, 3):
            expect = M.basis.expand(M.env.pi(M.env.nth(Ep, Eq, n)))
            assert M.product(p, q, n) == expect


def test_truncation_bounds():
    M = integrate(golden.heisenberg())
    a0 = M.basis.key_for_symbol((0, 0))
    a1 = M.basis.key_for_symbol((0, 1))
    assert M.truncation_bound({a0: Q(1)}, {a0: Q(1)}) == 2
    # golden value frozen from the degree scan over the support pairs
    assert M.truncation_bound({a0: Q(1), a1: Q(1)}, {a0: Q(1), a1: Q(2)}) == 4
    Ma = integrate(golden.abelian1())
    b0 = Ma.basis.key_for_symbol((0, 0))
    assert Ma.truncation_bound({b0: Q(1)}, {b0: Q(2)}) == 0


def test_window_consistency_and_probe():
    rng = random.Random(33)
    for build in [golden.heisenberg, golden.abelian2, golden.n3_current, golden.mixed]:
        M = integrate(build())
        for _ in range(12):
            p, q = rand_point(rng, M), rand_point(rng, M)
            res = M.product_window(p, q, -3, 3)
            for n in range(-3, 4):
                assert res.slices[n] == M.product(p, q, n)
        # vanishing holds at and well past the reported bound
        for _ in range(50):
            p, q = rand_point(rng, M), rand_point(rng, M)
            bound = M.truncation_bound(p, q)
            for n in range(bound, bound + 5):
                assert M.product(p, q, n) == {}


def test_exponential_oracle_all_nilpotent():
    rng = random.Random(77)
    for build in [golden.heisenberg, golden.n3_current, golden.mixed]:
        M = integrate(build())
        for _ in range(8):
            p, q = rand_point(rng, M), rand_point(rng, M)
            Ep, Eq = M.exponential_element(p), M.exponential_element(q)
            for n in range(-4, 4):
                expect = M.basis.expand(M.env.pi(M.env.nth(Ep, Eq, n)))
                assert M.product(p, q, n) == expect, (build.__name__, n)


def test_corollary_pruning_is_sound():
    # recomputing products without the degree cutoff changes nothing
    M = integrate(golden.heisenberg())
    a0 = M.basis.key_for_symbol((0, 0))
    k0 = M.basis.key_for_symbol((1, 0))
    p = {a0: Q(2), k0: Q(1)}
    q = {a0: Q(-1)}
    for n in range(-3, 3):
        pruned = M.product(p, q, n)
        full = {}
        # direct sum over all support pairs regardless of total degree
        from itertools import combinations_with_replacement

        from lieconformal.lawtable import midx_from_word

        supp_p, supp_q = sorted(p), sorted(q)
        for sp in range(0, 5):
            for wl in combinations_with_replacement(supp_p, sp):
                for sq in range(0, 5):
                    for wr in combinations_with_replacement(supp_q, sq):
                        if sp == 0 and sq == 0:
                            continue
                        k = midx_from_word(wl)
                        kp = midx_from_word(wr)
                        u = UElem.monomial(wl)
                        v = UElem.monomial(wr)
                        vec = M.env.pi(M.env.nth(u, v, n))
                        norm = Q(1, midx_factorial(k) * midx_factorial(kp))
                        ca = math.prod(p[x] for x in wl) * math.prod(q[x] for x in wr) * norm
                        if ca == 0:
                            continue
                        for pos, c in M.basis.expand(vec).items():
                            nv = full.get(pos, 0) + c * ca
                            if nv == 0:
                                full.pop(pos, None)
                            else:
                                full[pos] = nv
        assert pruned == full, n


def test_axiom_suite_and_fault_injection():
    # the Jacobi axiom reads six sample triples
    for build in [golden.heisenberg, golden.abelian2, golden.mixed, golden.ungraded]:
        M = integrate(build())
        report = M.check_axioms(8, seed=5, window=(-4, 4))
        assert report["pass"], (build.__name__, report)

    M = integrate(golden.heisenberg())
    a0 = M.basis.key_for_symbol((0, 0))
    k0 = M.basis.key_for_symbol((1, 0))
    a1 = M.basis.key_for_symbol((0, 1))
    # corrupt one shifted table cell, then the identity must fail
    key = ((a1,), (a0,), 2)
    M.table_entry(*key)
    M._table[key] = {k0: Q(5)}
    report = M.check_axioms(8, seed=5, window=(-4, 4))
    jac = [c for c in report["checks"] if c["axiom"] == "jacobi"][0]
    assert not jac["pass"]
    assert "witness" in jac and jac["witness"]["ltj"]


def test_roundtrip_all_nilpotent():
    for build in [golden.abelian1, golden.abelian2, golden.heisenberg,
                  golden.n3_current, golden.mixed]:
        pres = build()
        M = integrate(pres)
        recon, change = M.tangent_presentation()
        assert recon == pres, build.__name__
        # the recorded change of basis reproduces every basis vector
        for bv in M.basis._order:
            assert change[M.basis.label(bv.key)] == bv.vec
        # the creation slice of the table reproduces the derivative action
        for key in M.basis.keys_up_to_depth(1):
            cell = M.table_entry((key,), (), -2)
            expected = M.basis.expand(M.pres.partial(M.basis.vector(key)))
            assert dict(CVec(cell).coeffs) == expected, (build.__name__, key)


def test_jacobi_residual_golden_spread():
    rng = random.Random(3)
    for build in [golden.heisenberg, golden.n3_current, golden.mixed, golden.ungraded]:
        M = integrate(build())
        pts = [rand_point(rng, M) for _ in range(3)]
        for l in (-1, 0, 1):
            for t in (-1, 0, 1):
                for j in (-1, 0, 1):
                    assert not M.jacobi_residual(*pts, l, t, j), (build.__name__, l, t, j)


def test_composed_products_match_exponential_oracle():
    # both substitution slots of the composed products agree with the
    # iterated enveloping products of coordinate exponentials
    rng = random.Random(55)
    for build in [golden.heisenberg, golden.n3_current, golden.mixed]:
        M = integrate(build())
        keys = M.basis.keys_up_to_depth(0)
        for _ in range(2):
            pts = []
            for _ in range(3):
                pt = {}
                for kk in rng.sample(keys, k=min(2, len(keys))):
                    v = rng.randint(-2, 2)
                    if v:
                        pt[kk] = Q(v)
                pts.append(pt)
            a, b, c = pts
            Ea, Eb, Ec = (M.exponential_element(p) for p in pts)
            for p in range(-2, 2):
                for q in range(-2, 2):
                    inner = M.env.nth(Eb, Ec, q)
                    expect = M.basis.expand(M.env.pi(M.env.nth(Ea, inner, p)))
                    assert M.composed(a, b, c, p, q) == expect
                    inner = M.env.nth(Ea, Eb, q)
                    expect = M.basis.expand(M.env.pi(M.env.nth(inner, Ec, p)))
                    assert M.composed_first(a, b, c, p, q) == expect


def _n3_slow_triple(M):
    keys = {M.basis.label(k): k for k in M.basis.keys_up_to_depth(1)}
    a = {keys["z[1]"]: Q(1)}
    b = {keys["z[1]"]: Q(-1, 2), keys["w1[0]"]: Q(3, 2)}
    c = {keys["y[0]"]: Q(2), keys["y[1]"]: Q(-1)}
    return a, b, c


def test_inner_series_convolved_once_per_pair(monkeypatch):
    # the (b, c) series and its word products do not depend on the outer
    # index or point, and one fill at the lowest q serves every higher q;
    # a fill builds only the words that can reach q from a prefix that kept
    # a coefficient: 732 word products here, where reaching each word's
    # floor made 1,343, every word over the support 9,180, and a fill per
    # (pair, q) 27 fills and 31,370 convolutions
    import lieconformal.manifold as manifold

    calls = []
    word_series = manifold.word_series

    def counting(word, *args):
        calls.append(word)
        return word_series(word, *args)

    monkeypatch.setattr(manifold, "word_series", counting)
    M = integrate(golden.n3_current())
    a, b, c = _n3_slow_triple(M)
    for l in (-1, 0, 1):
        for t in (-1, 0, 1):
            for j in (-1, 0, 1):
                assert not M.jacobi_residual(a, b, c, l, t, j), (l, t, j)
    # one fill per point pair, each starting from the empty word
    pairs = {(point_key(x), point_key(y)) for x, y in [(b, c), (a, c), (a, b)]}
    assert set(M._inner_memo) == pairs and calls.count(()) == 3
    assert len(calls) <= 1_000, len(calls)


def test_residuals_key_each_point_once(monkeypatch):
    # a residual keys a, b and c once and hands the keys to every composed
    # product it reads, 81 keys here; only the fills of the memos behind
    # them key points again (90 more).  Keyed per composed product, these
    # 27 residuals made 981 point_key calls
    import lieconformal.manifold as manifold

    calls = []
    point_key = manifold.point_key
    monkeypatch.setattr(manifold, "point_key", lambda p: calls.append(p) or point_key(p))
    M = integrate(golden.n3_current())
    a, b, c = _n3_slow_triple(M)
    for l in (-1, 0, 1):
        for t in (-1, 0, 1):
            for j in (-1, 0, 1):
                assert not M.jacobi_residual(a, b, c, l, t, j), (l, t, j)
    assert len(calls) <= 200, len(calls)
    # a second pass reads kept entries only: it makes no product, grouping,
    # series or bound, and keys each residual's three points once
    calls.clear()
    work = []
    for name in ("_combine", "_weights", "_inner_series", "truncation_bound"):
        monkeypatch.setattr(M, name, partial(lambda name, f, *args: work.append(name) or f(*args),
                                             name, getattr(M, name)))
    for ltj in product((-1, 0, 1), repeat=3):
        assert not M.jacobi_residual(a, b, c, *ltj), ltj
    assert not work and len(calls) == 3 * 27, (work, len(calls))
    # each value is filed under the keys of the points it was computed from,
    # here and on a heisenberg triple taken in both orders of its first two
    H = integrate(golden.heisenberg())
    rng = random.Random(8)
    x, y, z = (rand_point(rng, H) for _ in range(3))
    for l, t, j in [(-1, -1, -1), (0, -1, 1), (1, 0, -1)]:
        assert not H.jacobi_residual(x, y, z, l, t, j), (l, t, j)
        assert not H.jacobi_residual(y, x, z, l, t, j), (l, t, j)
    for warm, build in [(M, golden.n3_current), (H, golden.heisenberg)]:
        fresh = integrate(build())
        for (side, *keys), (kind, copies, products, _) in warm._sides.items():
            pts = [{k: Q(n, d) for k, n, d in pk} for pk in keys]
            assert kind == side and list(copies) == pts, (build.__name__, side)
            entry = fresh.composed if side == "second" else fresh.composed_first
            for (p, q), got in products.items():
                assert entry(*pts, p, q) == got, (build.__name__, side, p, q)


def test_inner_series_builds_every_word_that_keeps_a_coefficient():
    # the pruned fill gives the lists of a sum over every word's index
    # tuples, in the same order, on each q's own fill (highest q first, so
    # each q fills anew)
    from lieconformal.lawtable import word_floor, word_top

    rng = random.Random(21)
    for build in [golden.heisenberg, golden.mixed, golden.n3_current]:
        M = integrate(build())
        pairs = [(rand_point(rng, M), rand_point(rng, M)) for _ in range(3)]
        if build is golden.n3_current:
            a, b, c = _n3_slow_triple(M)
            pairs += [(b, c), (a, b)]
        kept = 0
        for b, c in pairs:
            for q in (1, 0, -1):
                got = M._inner_series(b, c, q)
                assert got == brute_inner_series(M, b, c, q), (build.__name__, b, c, q)
                kept += len(got)
        assert kept, build.__name__
    # the fill's closed forms for the constant top n - 1 over N letters: the
    # floor of word + (f,), each further letter raising the top by n, and
    # the index word + (f,) must reach, n - 1 above that floor
    N = 4
    for n in range(1, 5):
        for q in (-1, 0, 1):
            lo = q + 1 - N * n
            for word in [(), ("x",), ("x", "y"), ("y", "y", "z")]:
                for f in ("x", "z"):
                    floor = word_floor(word + (f,), lambda pos: n - 1, lo)
                    assert floor == lo + len(word) * n
                    rest = ("z",) * (N - len(word) - 1)
                    tops = [word_top(w, lambda pos: n - 1) for w in (word + (f,), word + (f,) + rest)]
                    assert tops[1] == tops[0] + len(rest) * n
                    assert q - (N - len(word) - 1) * n == floor + n - 1


def test_slow_triple_extends_each_chain_once():
    # the table cells of one triple read kept divided-power chains; a chain
    # rebuilt per cell made 4,544 ∂ passes over these 27 residuals
    M = integrate(golden.n3_current())
    calls = []
    inner = M.env.partial
    M.env.partial = lambda u: calls.append(u) or inner(u)
    a, b, c = _n3_slow_triple(M)
    for l in (-1, 0, 1):
        for t in (-1, 0, 1):
            for j in (-1, 0, 1):
                assert not M.jacobi_residual(a, b, c, l, t, j), (l, t, j)
    assert len(calls) <= 500, len(calls)


def test_memos_survive_points_in_swapped_roles():
    for build in [golden.heisenberg, golden.n3_current]:
        M = integrate(build())
        if build is golden.n3_current:
            a, b, c = _n3_slow_triple(M)
        else:
            rng = random.Random(8)
            a, b, c = (rand_point(rng, M) for _ in range(3))
        for x, y, z in [(a, b, c), (b, a, c), (c, b, a), (a, c, b)]:
            for l, t, j in [(-1, -1, -1), (0, -1, 1), (1, 0, -1)]:
                assert not M.jacobi_residual(x, y, z, l, t, j), (build.__name__, l, t, j)
        fresh = integrate(build())
        # the fresh manifold reads the keys in reverse order, so its memos
        # fill in another order than the warm one's
        for key, (_, _, products, _) in reversed(list(M._sides.items())):
            slot = key[0]
            pts = [{k: Q(n, d) for k, n, d in pk} for pk in key[1:4]]
            for (p, q), got in reversed(list(products.items())):
                if slot == "second":
                    assert fresh.composed(*pts, p, q) == got, (build.__name__, key, p, q)
                else:
                    assert fresh.composed_first(*pts, p, q) == got, (build.__name__, key, p, q)
        for x, y in [(a, b), (b, a), (b, c), (c, b), (a, c)]:
            window = M.product_window(x, y, -4, 3)
            for n, got in window.slices.items():
                assert got == M.product(x, y, n) == fresh.product(x, y, n)


def test_weak_truncation_pairs_each_sample_with_its_successor():
    M = integrate(golden.heisenberg())
    pairs = []
    bound = M.truncation_bound

    def recording(x, y):
        pairs.append((x, y))
        return bound(x, y)

    M.truncation_bound = recording
    # seed 15 draws the same point second and fifth among its eight samples
    assert M.check_axioms(8, seed=15, window=(-2, 2))["pass"]
    checked = pairs[:8]
    points = [x for x, _ in checked]
    assert points[1] == points[4] and points[2] != points[5]
    assert [y for _, y in checked] == points[1:] + points[:1]


def test_axiom_without_a_checked_case_fails():
    # a reversed window leaves the left-identity axiom no index to compare;
    # creation still checks its (-1)-product, the other two their samples
    M = integrate(golden.heisenberg())
    report = M.check_axioms(5, seed=0, window=(3, -3))
    assert report == {
        "pass": False,
        "checks": [
            {"axiom": "weak_truncation", "pass": True},
            {"axiom": "left_identity", "pass": False, "reason": "no case was checked"},
            {"axiom": "creation", "pass": True},
            {"axiom": "jacobi", "pass": True},
        ],
    }
    assert M.check_axioms(0, seed=0, window=(-2, 2))["checks"] == [
        {"axiom": name, "pass": False, "reason": "no case was checked"}
        for name in ("weak_truncation", "left_identity", "creation", "jacobi")]


def test_table_cells_match_projected_enveloping_products(monkeypatch):
    # a cell reads the one-letter words of the enveloping product as adapted
    # coordinates; the reference projects the product to the algebra and
    # expands it in the adapted basis (the general path on mixed).  On the
    # graded algebras most cells are skipped by conformal weight, and skipped
    # cells must equal the reference too; mixed has conformal weights but an
    # ungraded basis, whose letters mix symbols, and ungraded has no weights,
    # so both take the trivial grading and every cell is computed
    from itertools import combinations_with_replacement

    import lieconformal.manifold as manifold
    from lieconformal.lawtable import midx_from_word

    calls = []
    law_cell = manifold.law_cell
    monkeypatch.setattr(manifold, "law_cell", lambda *args: calls.append(args) or law_cell(*args))
    for build, depth, window in [(golden.heisenberg, 2, range(-6, 5)),
                                 (golden.mixed, 1, range(-4, 4)),
                                 (golden.ungraded, 2, range(-6, 5)),
                                 (golden.n3_current, 2, range(-6, 5))]:
        M = integrate(build())
        env = M.env
        keys = M.basis.keys_up_to_depth(depth)
        words = [w for s in range(M.N + 1) for w in combinations_with_replacement(keys, s)]
        calls.clear()
        cells = nonzero = 0
        for wu in words:
            for wv in words:
                if len(wu) + len(wv) > M.N:
                    continue
                u = UElem.monomial(wu)
                v = UElem.monomial(wv)
                norm = Q(1, midx_factorial(midx_from_word(wu)) * midx_factorial(midx_from_word(wv)))
                for n in window:
                    vec = env.pi(env.nth(u, v, n))
                    want = {pos: c * norm for pos, c in M.basis.expand(vec).items()}
                    assert M.table_entry(wu, wv, n) == want, (build.__name__, wu, wv, n)
                    cells += 1
                    nonzero += bool(want)
        assert nonzero, build.__name__
        assert len(M._table) == cells, build.__name__
        if build is golden.mixed:
            assert M.pres.conformal_weights() is not None and not M.basis.graded
            assert len(calls) == cells
        elif build is golden.ungraded:
            # every cell weighs 0, so no other weight was asked for
            assert M.pres.conformal_weights() is None and M.basis.graded
            assert len(calls) == cells and M._grading.depths == {0: (0,)}
        else:
            # 62 of 495 cells on heisenberg, 3,806 of 60,016 on n3current
            assert nonzero <= len(calls) <= cells // 7, (build.__name__, len(calls), cells)


def test_grouped_products_equal_every_exponent_pair():
    # the products read only the weight groups some letter can take at the
    # index; the oracle sums every exponent pair's cell on a fresh manifold,
    # over point products, vacuum pairs and the inner series lists that the
    # composed products read; mixed and ungraded take the trivial grading,
    # so their one group is read
    rng = random.Random(31)
    for build in [golden.heisenberg, golden.n3_current, golden.mixed, golden.ungraded]:
        M, fresh = integrate(build()), integrate(build())
        a, b, c = (rand_point(rng, M) for _ in range(3))
        if build is golden.n3_current:
            a, b, c = _n3_slow_triple(M)
        pairs = [(M._powers(x), M._powers(y)) for x, y in [(a, b), (b, c), (a, {}), ({}, b)]]
        pairs += [(M._powers(a), M._inner_series(b, c, q)) for q in (-1, 0)]
        pairs += [(M._inner_series(a, b, q), M._powers(c)) for q in (-1, 0)]
        nonzero = 0
        for left, right in pairs:
            groups = M._weights(left, right)
            for n in range(-8, 4):
                want = brute_combine(fresh, left, right, n)
                assert M._combine(groups, n) == want, (build.__name__, n)
                nonzero += bool(want)
        assert nonzero, build.__name__
        for x, y in [(a, b), (b, c), (a, {}), ({}, b)]:
            window = M.product_window(x, y, -8, 3)
            assert sorted(window.slices) == list(range(-8, 4))
            for n, got in window.slices.items():
                assert got == fresh.product(x, y, n), (build.__name__, n)
    # an int and the equal Fraction key a point the same way
    k = M.basis.keys_up_to_depth(0)[0]
    assert point_key({k: 2}) == point_key({k: Q(2)}) != point_key({k: Q(2, 3)})


def test_slow_triple_skips_weightless_cells(monkeypatch):
    # these 27 residuals meet 3,063 distinct cells; all but 96 have a
    # conformal weight no letter has, and the products visit only the
    # exponent pairs whose summed weight some letter can take, so only the
    # 96 are read and stored
    import lieconformal.manifold as manifold

    calls = []
    law_cell = manifold.law_cell
    monkeypatch.setattr(manifold, "law_cell", lambda *args: calls.append(args) or law_cell(*args))
    M = integrate(golden.n3_current())
    a, b, c = _n3_slow_triple(M)
    for l in (-1, 0, 1):
        for t in (-1, 0, 1):
            for j in (-1, 0, 1):
                assert not M.jacobi_residual(a, b, c, l, t, j), (l, t, j)
    assert len(M._table) == 96
    assert len(calls) <= 120, len(calls)


def test_truncation_bound_reads_only_the_support():
    rng = random.Random(12)
    for build in [golden.heisenberg, golden.n3_current, golden.mixed]:
        M = integrate(build())
        fresh = integrate(build())
        for _ in range(15):
            a, b = rand_point(rng, M, 2), rand_point(rng, M, 2)
            bound = M.truncation_bound(a, b)
            assert M.truncation_bound(b, a) == bound
            # other nonzero values on the same support
            a2 = {pos: 3 * v + 1 if 3 * v + 1 else Q(5) for pos, v in a.items()}
            assert M.truncation_bound(a2, b) == bound
            assert M.truncation_bound({**a, **b}, {}) == bound
            assert fresh.truncation_bound(a2, b) == bound, build.__name__
        # the memo is keyed by support, apart from the cell-pair bounds
        assert all(isinstance(key, frozenset) for key in M._support_bounds)
        assert not any(isinstance(key, frozenset) for key in M.env._lead_memo)


def test_point_powers_are_kept_per_point():
    from itertools import combinations_with_replacement

    M = integrate(golden.n3_current())
    a, b, _ = _n3_slow_triple(M)
    powers = M._powers(a)
    assert M._powers(dict(reversed(list(a.items())))) is powers
    assert M._powers(b) is not powers
    # one entry per sorted word of length 0..N over the support, by length
    want = [(w, s) for s in range(M.N + 1)
            for w in combinations_with_replacement(sorted(b), s)]
    assert [(w, s) for w, s, _ in M._powers(b)] == want
    assert all(c == math.prod(b[x] for x in w) != 0 for w, _, c in M._powers(b))


def test_fault_injection_reports_pinned():
    # whole reports for two corrupted cells, recorded before the checks
    # were rewritten: which axioms fail, and the first Jacobi witness
    M0 = integrate(golden.heisenberg())
    a0 = M0.basis.key_for_symbol((0, 0))
    a1 = M0.basis.key_for_symbol((0, 1))
    k0 = M0.basis.key_for_symbol((1, 0))
    points = [
        {"a[0]": "-1", "a[2]": "-1/2"},
        {"a[1]": "-2", "k[0]": "-2/3"},
        {"a[0]": "-1", "a[2]": "-2", "k[0]": "-4"},
    ]
    cases = [
        (((a1,), (a0,), 2), {k0: Q(5)}, True, [1, -1, 1]),
        (((a0,), (), -1), {a0: Q(2)}, False, [-1, -1, -1]),
    ]
    for key, cell, creation, ltj in cases:
        M = integrate(golden.heisenberg())
        M.table_entry(*key)
        M._table[key] = cell
        assert M.check_axioms(8, seed=5, window=(-4, 4)) == {
            "pass": False,
            "checks": [
                {"axiom": "weak_truncation", "pass": True},
                {"axiom": "left_identity", "pass": True},
                {"axiom": "creation", "pass": creation},
                {"axiom": "jacobi", "pass": False,
                 "witness": {"ltj": ltj, "points": points}},
            ],
        }


def _data_manifolds() -> dict:
    """Every presentation under tests/data that integrates, by name."""
    out = {}
    for path in sorted(DATA.glob("*.lca")):
        if path.stem != "badsyntax":
            try:
                out[path.stem] = integrate(dsl.load_presentation(path.read_text(encoding="utf-8"))[0])
            except (AxiomFailure, NotNilpotent):
                pass
    return out


def _stops(M, a, b, c) -> tuple:
    """The three-sum stops of a Jacobi residual, from the truncation bounds."""
    return tuple(M.N * max(M.truncation_bound(x, y), 1) + 1 for x, y in ((b, c), (a, c), (a, b)))


def test_jacobi_residuals_equal_the_naive_sums():
    # every nilpotent tests/data algebra, seeded points, (l, t, j) in -2..1:
    # each residual is the naive three-sum's over the public composed
    # products, as a whole dict.  The identity holds, so both are empty;
    # with the first term also in the second's place it does not, and the
    # driver's nonzero sums are the naive ones too
    manifolds = _data_manifolds()
    assert sorted(manifolds) == ["abelian1", "abelian2", "heisenberg", "mixed", "n3current"]
    rng = random.Random(28)
    nonzero = 0
    for name, M in manifolds.items():
        for _ in range(2):
            a, b, c = (rand_point(rng, M, bound=3) for _ in range(3))
            stops = _stops(M, a, b, c)
            terms = (partial(M.composed, a, b, c), partial(M.composed, b, a, c),
                     partial(M.composed_first, a, b, c))
            broken = (terms[0], terms[0], terms[2])
            for l, t, j in product(range(-2, 2), repeat=3):
                got = M.jacobi_residual(a, b, c, l, t, j)
                assert got == naive_three_sum(l, t, j, stops, terms) == {}, (name, l, t, j)
                got = three_sum(l, t, j, stops, broken)
                assert got == naive_three_sum(l, t, j, stops, broken), (name, l, t, j)
                nonzero += bool(got)
    assert nonzero > 100, nonzero


def test_kept_stops_equal_fresh_ones():
    # each residual keeps its three stops and sides per point-key triple;
    # each kept triple is the stops of a manifold that has kept nothing
    for build in (golden.heisenberg, golden.n3_current):
        M = integrate(build())
        rng = random.Random(5)
        points = [rand_point(rng, M) for _ in range(3)]
        for x, y, z in permutations(points):
            for ltj in [(-1, 0, 1), (0, -1, -1)]:
                assert not M.jacobi_residual(x, y, z, *ltj), (build.__name__, ltj)
        assert len(M._triples) == 6, M._triples
        fresh = integrate(build())
        for (ka, kb, kc), (stops, sides) in M._triples.items():
            a, b, c = ({k: Q(n, d) for k, n, d in pk} for pk in (ka, kb, kc))
            assert stops == _stops(fresh, a, b, c), (build.__name__, ka, kb, kc)
            kept = [M._sides[key] for key in [("second", ka, kb, kc), ("second", kb, ka, kc),
                                              ("first", ka, kb, kc)]]
            assert all(x is y for x, y in zip(sides, kept)), (build.__name__, ka, kb, kc)


def test_manifold_is_freed_without_the_cyclic_collector():
    # kept entries hold data only, so a manifold that has read residuals,
    # composed products and the axiom suite is freed once dropped
    import gc
    import weakref

    gc.disable()
    try:
        M = integrate(golden.heisenberg())
        rng = random.Random(4)
        a, b, c = (rand_point(rng, M) for _ in range(3))
        assert not M.jacobi_residual(a, b, c, -1, 0, 1)
        M.composed(a, b, c, -1, 0)
        M.composed_first(a, b, c, -1, 0)
        assert M.check_axioms(3, seed=1, window=(-2, 2))["pass"]
        ref = weakref.ref(M)
        del M
        assert ref() is None
    finally:
        gc.enable()


def test_kept_points_are_copies():
    # after a residual one of its point dicts changes in place; the entries
    # kept under the old keys still compute from the old content, so warm
    # reads of old and new content equal a fresh manifold's
    for build in (golden.heisenberg, golden.n3_current):
        M = integrate(build())
        rng = random.Random(6)
        a, b, c = (rand_point(rng, M) for _ in range(3))
        old = [dict(x) for x in (a, b, c)]
        assert not M.jacobi_residual(a, b, c, -1, -1, -1)
        b[next(iter(b))] += 1
        fresh = integrate(build())
        nonzero = 0
        for pts in ([dict(x) for x in old], [a, b, c]):
            for ltj in [(0, 1, -1), (1, 1, 1), (-1, 0, 0)]:
                assert M.jacobi_residual(*pts, *ltj) == fresh.jacobi_residual(*pts, *ltj) == {}, ltj
            for p, q in product((-2, -1, 0), repeat=2):
                for entry in ("composed", "composed_first"):
                    got = getattr(M, entry)(*pts, p, q)
                    assert got == getattr(fresh, entry)(*pts, p, q), (build.__name__, entry, p, q)
                    nonzero += bool(got)
        assert nonzero, build.__name__


@pytest.mark.parametrize("build", [golden.heisenberg, golden.mixed, golden.n3_current])
def test_manifold_spells_no_multi_index(build, monkeypatch):
    # a manifold reads sorted words throughout, its cells included: with
    # the multi-index helpers raising, every manifold entry point runs
    import lieconformal.lawtable as lawtable
    import lieconformal.manifold as manifold

    def refuse(*args):
        raise AssertionError(f"a multi-index helper was called on {args}")

    for name in ("word_from_midx", "midx_from_word", "midx_norm"):
        monkeypatch.setattr(lawtable, name, refuse)
        monkeypatch.setattr(manifold, name, refuse, raising=False)
    M = integrate(build())
    rng = random.Random(34)
    a, b, c = (rand_point(rng, M) for _ in range(3))
    window = M.product_window(a, b, -3, 3)
    assert window.bound == M.truncation_bound(a, b)
    assert any(window.slices.values()), build.__name__
    assert not M.jacobi_residual(a, b, c, -1, 0, 1)
    assert any(M.composed(a, b, c, p, q) for p, q in ((-1, -1), (0, -1), (-1, 0)))
    assert M.exponential_element(a)
    assert M.tangent_presentation()[0] == build()
    assert M.check_axioms(4, seed=5, window=(-2, 2))["pass"]


@pytest.mark.parametrize("build", [golden.heisenberg, golden.n3_current])
def test_vacuum_pairs_build_no_product(build):
    # by the vacuum axiom a pair with an empty side takes bound 0 and its
    # cells without an enveloping product; every bound asked for is the one
    # a fresh algebra's word_bound gives
    M = integrate(build())
    rng = random.Random(3)
    a, b, c = (rand_point(rng, M) for _ in range(3))
    env = M.env
    asked, word_bound = [], env.word_bound

    def spy(wu, wv):
        asked.append((wu, wv, word_bound(wu, wv)))
        return asked[-1][2]

    env.word_bound = spy
    M.truncation_bound(a, b)
    assert not M.jacobi_residual(a, b, c, -1, 0, 1)
    for memo in (env._lead_memo, env._bracket_memo, env._nop_memo):
        assert all(wu and wv for wu, wv in memo), build.__name__
    assert any(not wu or not wv for wu, wv, _ in asked), asked
    fresh = integrate(build()).env
    for wu, wv, bound in asked:
        assert bound == fresh.word_bound(wu, wv), (wu, wv)
