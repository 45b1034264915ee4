import hashlib
import json
import math
import random
import re
from fractions import Fraction as Q
from itertools import combinations_with_replacement, product
from pathlib import Path

import golden
import pytest
from generated import nilpotent_current
from oracles import Degrees, LambdaPeel, global_stop_law_jacobi, naive_poly_madd, nth_law_cell
from test_generated import CASES

from lieconformal import dsl, lawtable
from lieconformal.cli import run
from lieconformal.enveloping import EnvelopingAlgebra, UElem
from lieconformal.errors import TruncationInsufficient
from lieconformal.lawtable import (
    EMPTY,
    LawTable,
    _Composer,
    _Grading,
    _poly_madd,
    check_convergence_bound,
    check_identities,
    check_law_hom,
    check_law_jacobi,
    extract_law,
    law_cell,
    midx_factorial,
    midx_from_word,
    midx_norm,
    word_from_midx,
    word_series,
    word_top,
)

A0, A1, A2, K0 = (0, 0), (0, 1), (0, 2), (1, 0)


def heis_table(degree=2, depth=2, window=(-8, 6)):
    return extract_law(EnvelopingAlgebra(golden.heisenberg()), degree, depth, window)


def test_extraction_examples():
    T = heis_table()
    # structure constant at the unit-exponent slice
    assert T.coefficient(K0, 1, ((A0, 1),), ((A0, 1),)) == 1
    # the left-identity slice is exactly the second-slot variable
    for l in T.positions:
        assert T.coefficient(l, -1, EMPTY, ((l, 1),)) == 1
    # creation shifts on the first slot
    Ta = extract_law(EnvelopingAlgebra(golden.abelian1()), 2, 2, (-4, 4))
    assert Ta.coefficient((0, 1), -2, (((0, 0), 1),), EMPTY) == 1
    assert Ta.coefficient((0, 2), -3, (((0, 0), 1),), EMPTY) == 1
    # no positive-index entries at all for the zero bracket
    assert all(n < 0 for (_l, n) in Ta.entries)


def test_degree_one_one_slice_is_structure_constants():
    for build in golden.ALL_GOLDEN:
        pres = build()
        U = EnvelopingAlgebra(pres)
        T = extract_law(U, 2, 2, (-6, 6))
        positions = T.positions
        for i in positions:
            for j in positions:
                vi, vj = U.basis.vector(i), U.basis.vector(j)
                for n in range(0, T.window[1] + 1):
                    prod = pres.nth_product(vi, vj, n)
                    for l in positions:
                        got = T.coefficient(l, n, ((i, 1),), ((j, 1),))
                        assert got == prod.coeffs.get(l, 0)


def test_identity_checks_and_fault_injection():
    T = heis_table()
    rep = check_identities(T)
    assert rep["left_identity"] and rep["right_identity"]
    # corrupt the left-identity cell
    T.entries[(K0, -1)][(EMPTY, ((K0, 1),))] = Q(2)
    rep = check_identities(T)
    assert not rep["left_identity"]
    assert any(f["side"] == "left" and f["l"] == "k[0]" and f["n"] == -1 for f in rep["failures"])


def test_convergence_bounds():
    T = heis_table()
    rep = check_convergence_bound(T, 2, [A0, A1, K0])
    assert rep == {"found": True, "bound": 4}
    Ta = extract_law(EnvelopingAlgebra(golden.abelian1()), 2, 2, (-4, 4))
    assert check_convergence_bound(Ta, 2, [(0, 0), (0, 1)]) == {"found": True, "bound": 0}
    # a window too small for the Virasoro table cannot certify a bound
    Tv = extract_law(EnvelopingAlgebra(golden.virasoro()), 2, 0, (-2, 2))
    rep = check_convergence_bound(Tv, 2, [(0, 0)])
    assert not rep["found"]


def test_law_jacobi_heisenberg_and_guards():
    T = heis_table()
    samples = [(l, t, j) for l in (-1, 0, 1) for t in (-1, 0, 1) for j in (-1, 0, 1)]
    assert check_law_jacobi(T, samples, 2)["pass"]
    with pytest.raises(TruncationInsufficient):
        check_law_jacobi(T, samples, 3)  # degree above the table
    Tsmall = heis_table(window=(-2, 1))
    with pytest.raises(TruncationInsufficient):
        check_law_jacobi(Tsmall, samples, 2)


def test_law_jacobi_abelian_degenerate():
    Ta = extract_law(EnvelopingAlgebra(golden.abelian2()), 2, 1, (-5, 3))
    assert check_law_jacobi(Ta, [(0, 0, 0), (-1, -1, -1), (1, 1, 1)], 2)["pass"]


def test_law_jacobi_fault_injection():
    # scaling a structure constant alone yields another valid law; an
    # asymmetric corruption of a shifted cell breaks the identity
    T = heis_table(window=(-13, 6))
    T.entries[(K0, 2)][(((A1, 1),), ((A0, 1),))] = Q(5)
    rep = check_law_jacobi(T, [(0, 0, 0), (-2, 0, 2)], 2)
    assert not rep["pass"]
    bad = [c for c in rep["checks"] if not c["pass"]]
    assert bad and bad[0]["ltj"] == [-2, 0, 2]


def _h_oracle(U, T, l_key, p, q, cap):
    """First composition family recomputed from enveloping products."""
    out = {}
    positions = T.positions
    midxes = [EMPTY]
    for s in range(1, cap + 1):
        midxes.extend(midx_from_word(w) for w in combinations_with_replacement(positions, s))
    for k in midxes:
        for kp in midxes:
            for kpp in midxes:
                if midx_norm(k) + midx_norm(kp) + midx_norm(kpp) > cap:
                    continue
                u = UElem.monomial(word_from_midx(k))
                v = UElem.monomial(word_from_midx(kp))
                w = UElem.monomial(word_from_midx(kpp))
                inner = U.nth(v, w, q)
                if not inner:
                    continue
                c = U.nth(u, inner, p).terms.get((l_key,), Q(0))
                if c:
                    mono = tuple(
                        sorted(
                            [(0, kk) for kk in word_from_midx(k)]
                            + [(1, kk) for kk in word_from_midx(kp)]
                            + [(2, kk) for kk in word_from_midx(kpp)]
                        )
                    )
                    c = c / (midx_factorial(k) * midx_factorial(kp) * midx_factorial(kpp))
                    out[mono] = out.get(mono, Q(0)) + c
    return {m: c for m, c in out.items() if c}


def test_composition_matches_enveloping_oracle():
    pres = golden.heisenberg()
    U = EnvelopingAlgebra(pres)
    T = extract_law(U, 2, 2, (-8, 6))
    comp = _Composer(T, 2)
    for l_key in T.positions:
        for p in range(-3, 3):
            for q in range(-2, 3):
                # every position's coefficients at once, keyed by position
                # and monomial; read this position's
                values, raises = comp.composed(p, q, 0, (1, 2), False)
                got = {m: c for (pos, m), c in values.items() if pos == l_key}
                assert l_key not in raises and got == _h_oracle(U, T, l_key, p, q, 2), (l_key, p, q)


def _reference_table(env, degree, depth, window):
    """The law table built cell by cell from the n-th products."""
    positions = env.basis.keys_up_to_depth(depth)
    table = LawTable(env.pres.name, degree, depth, window, positions)
    table.labels = {k: env.basis.label(k) for k in positions}
    midxes = [EMPTY] + [
        midx_from_word(w)
        for size in range(1, degree + 1)
        for w in combinations_with_replacement(positions, size)
    ]
    for k in midxes:
        for kp in midxes:
            if midx_norm(k) + midx_norm(kp) > degree:
                continue
            u = UElem.monomial(word_from_midx(k))
            v = UElem.monomial(word_from_midx(kp))
            # the pair's own bracket, never the swapped pair's degree
            table.pair_bounds[(k, kp)] = env.bracket(u, v).degree + 1
            norm = Q(1, midx_factorial(k) * midx_factorial(kp))
            for n in range(window[0], window[1] + 1):
                for word, c in env.nth(u, v, n).terms.items():
                    if len(word) != 1:
                        continue
                    if word[0] in positions:
                        table.add_entry(word[0], n, k, kp, c * norm)
                    else:
                        table.overflow_degrees.add(midx_norm(k) + midx_norm(kp))
    return table


@pytest.mark.parametrize("name", ["heisenberg", "mixed", "virasoro", "n3current"])
def test_extraction_matches_cellwise_products(name):
    # the cells skipped by weight change neither an entry nor an overflow
    text = (Path(__file__).parent / "data" / f"{name}.lca").read_text()
    pres, _ = dsl.load_presentation(text)
    assert pres.conformal_weights() is not None
    got = extract_law(EnvelopingAlgebra(pres), 3, 2, (-8, 8)).to_json()
    want = _reference_table(EnvelopingAlgebra(pres), 3, 2, (-8, 8)).to_json()
    assert got["overflow_degrees"] == want["overflow_degrees"]
    assert got == want


ALL_DATA = ["abelian1", "abelian2", "badheis", "heisenberg", "mixed", "n3current", "virasoro"]


def _data(name):
    return dsl.load_presentation((Path(__file__).parent / "data" / f"{name}.lca").read_text())[0]


@pytest.mark.parametrize("name", [*ALL_DATA, "corrupted_jacobi"])
def test_pair_bounds_equal_the_bounds_of_directly_built_brackets(name):
    # a pair's bound may be read off the swapped pair's bracket by
    # skew-symmetry; it must be the one the pair's own bracket gives, also
    # on a presentation whose failing Jacobi identity breaks the symmetry
    pres = golden.corrupted_jacobi() if name == "corrupted_jacobi" else _data(name)
    direct = EnvelopingAlgebra(pres)
    shortcuts = 0
    for degree, depth in ((1, 2), (2, 0), (2, 1), (3, 1)):
        env = EnvelopingAlgebra(pres)
        table = extract_law(env, degree, depth, (-2, 2))
        for (k, kp), bound in table.pair_bounds.items():
            wu, wv = word_from_midx(k), word_from_midx(kp)
            want = direct.bracket(UElem.monomial(wu), UElem.monomial(wv)).degree + 1
            assert bound == want, (degree, depth, k, kp)
            # a vacuum pair's bound is the vacuum axiom's, built from no form
            if k and kp:
                shortcuts += (wu, wv) not in env._lead_memo
    # the comparison covers read-off bounds exactly on the valid presentations
    assert (shortcuts > 0) == pres.check_axioms().ok, shortcuts


@pytest.mark.parametrize("name, degree, depth, fallbacks", [
    *((name, 3, 1, 0) for name in ALL_DATA), ("corrupted_jacobi", 3, 1, 0),
    ("n3current", 4, 1, 2),
])
def test_leading_forms_equal_the_top_products(name, degree, depth, fallbacks):
    # every kept leading form, of a table pair or of a shorter pair it was
    # read from, is the top index and top product the pair's own products
    # give; the products are built only where the top parts cancel.  Those
    # products share the peel rules with the leading forms, so each form is
    # also checked against the top λ-coefficient of the λ-form peel, times n!
    pres = golden.corrupted_jacobi() if name == "corrupted_jacobi" else _data(name)
    env = EnvelopingAlgebra(pres)
    extract_law(env, degree, depth, (-2, 2))
    direct = EnvelopingAlgebra(pres)
    oracle = LambdaPeel(EnvelopingAlgebra(pres))
    for (wu, wv), (top, coef) in env._lead_memo.items():
        products = direct._word_products(wu, wv)
        assert (top, coef) == (products.degree, products.coeff(products.degree)), (wu, wv)
        lam = oracle.bracket_words(wu, wv)
        assert top == lam.degree, (wu, wv)
        assert coef == lam.coeff(top).scale(math.factorial(max(top, 0))), (wu, wv)
    assert env._lead_fallbacks == fallbacks
    assert any(pair not in env._bracket_memo for pair in env._lead_memo)


def test_failing_presentation_builds_both_brackets_of_a_pair(monkeypatch):
    # skew-symmetry holds only in a vertex algebra: on badheis, which fails
    # antisymmetry, every pair's bracket is built in both orders
    env = EnvelopingAlgebra(_data("badheis"))
    table = extract_law(env, 2, 1, (-3, 3))
    # a vacuum pair's bound is the vacuum axiom's, built from no bracket
    for k, kp in filter(all, table.pair_bounds):
        wu, wv = word_from_midx(k), word_from_midx(kp)
        assert (wu, wv) in env._bracket_memo and (wv, wu) in env._bracket_memo, (k, kp)
    # and the output is the one computed before bounds were read off, pinned
    # by its sha256 in text and JSON
    heis = str(Path(__file__).parent / "data" / "badheis.lca")
    fvl = ["fvl", heis, "--deg", "3", "--depth", "1", "--window=-4..4"]
    for argv, want in [
        (fvl, "627f7ad27fe476e5a0209b6e57361f940f5e66306139e119ad8bcf571e135474"),
        (["--format", "json", *fvl], "a68200e6a910a351c9476d331b28ec593a5e71b30dd878ebc8de46b5581589d8"),
    ]:
        code, out = run(argv)
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == want, argv
    # the axioms are checked once per presentation, however many tables
    pres = _data("n3current")
    calls = []
    check = type(pres).check_axioms
    monkeypatch.setattr(type(pres), "check_axioms", lambda self: calls.append(self) or check(self))
    for depth in (0, 1):
        extract_law(EnvelopingAlgebra(pres), 2, depth, (-2, 2))
    assert calls == [pres]


def test_w1_table_builds_one_bracket_per_unordered_pair():
    # the W1 table (n3current, degree 3, depth 2, window -8..8) kept 5,456
    # word brackets when every pair's bound built the pair's own bracket
    env = EnvelopingAlgebra(_data("n3current"))
    extract_law(env, 3, 2, (-8, 8))
    assert len(env._bracket_memo) <= 3000, len(env._bracket_memo)


@pytest.mark.parametrize("name, degree, depth", [("n3current", 3, 2), ("heisenberg", 4, 2), ("mixed", 3, 2)])
def test_kept_products_of_integral_presentations_are_integers(name, degree, depth):
    # n-th products recurse with binomial and unit weights only, so integral
    # structure constants keep no Fraction (virasoro's central (1/12)λ³C
    # keeps some)
    env = EnvelopingAlgebra(_data(name))
    extract_law(env, degree, depth, (-8, 8))
    coeffs = [c for poly in env._bracket_memo.values()
              for u in poly.coeffs.values() for c in u.terms.values()]
    assert coeffs and all(type(c) is int for c in coeffs), name


@pytest.mark.parametrize("name", ["heisenberg", "n3current"])
def test_composed_coefficients_kept_equal_fresh_ones(name, monkeypatch):
    # each composed coefficient is kept once per check; every kept value
    # equals one computed by a composer that has kept nothing, so no
    # caller of a kept coefficient changed it
    table = extract_law(EnvelopingAlgebra(_data(name)), 2, 1, (-8, 8))
    made = []

    class Recorded(_Composer):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(lawtable, "_Composer", Recorded)
    ltj = list(product((-1, 0, 1), repeat=3))
    assert check_law_jacobi(table, ltj, 2)["pass"]
    (comp,) = made
    kept = comp._composed_memo
    # a kept entry holds every position's nonzero coefficients at once,
    # keyed by (position, monomial), and the raises beside them: 90 entries
    # of 24 positions and 58 coefficients on heisenberg, 75 of 144 and 485
    # on n3current
    assert len(kept) > 50 and len({(key, pos) for key, (values, _) in kept.items() for pos, _ in values}) > 20
    for key, value in kept.items():
        assert _Composer(table, 2).composed(*key) == value, key
    # a raise stands for the whole coefficient of each position it reaches,
    # which holds no value, never a partial sum: below the window every
    # position's, and nothing is kept
    lo = table.window[0]
    fresh = _Composer(table, 2)
    values, below = fresh.composed(lo - 1, 0, 0, (1, 2), False)
    assert not values and list(below) == table.positions and not fresh._composed_memo
    assert {str(exc) for exc in below.values()} == {f"outer index {lo - 1} outside window {table.window}"}
    values, deep = fresh.composed(-1, 10 * lo, 0, (1, 2), False)
    assert deep and all(isinstance(exc, TruncationInsufficient) for exc in deep.values()), deep
    assert not {pos for pos, _ in values} & deep.keys(), values


def _outcome(check, table, samples, cap):
    try:
        return check(table, samples, cap)
    except TruncationInsufficient as exc:
        return type(exc).__name__, str(exc)


def test_position_stops_report_as_the_global_stop_does():
    # one three-sum per sample carries every position, whose terms from its
    # own stop on are left out; the report, or the raise and its message, is
    # that of one sum per position run to the stop over all positions.  At
    # the window (-1, 2) positions meet different raises first
    rng = random.Random(7)
    triples = list(product(range(-2, 3), repeat=3))
    seen, cut = set(), 0
    cases = [(name, degree, depth, window, (2, 3))
             for name in ALL_DATA
             for degree, depth in ((2, 1), (3, 0))
             for window in ((-2, 1), (-3, 3), (-1, 2), (-8, 8))]
    for name, degree, depth, window, caps in cases + [("virasoro", 3, 1, (-8, 8), (3,))]:
        table = extract_law(EnvelopingAlgebra(_data(name)), degree, depth, window)
        comp = _Composer(table, 2)
        cut += any(s != comp.global_stops for s in comp.stops.values())
        for cap in caps:
            # l = t = -2 carries the first sum's outer index deepest,
            # where the stop decides the index a raise names; at
            # (-2, 1, -2) it starts inside the window and the stop
            # alone carries it below
            samples = rng.sample(triples, 3) + [(-2, -2, 0), (-2, -2, 1), (-2, 1, -2)]
            for ltj in [samples, *([s] for s in samples)]:
                got = _outcome(check_law_jacobi, table, ltj, cap)
                want = _outcome(global_stop_law_jacobi, table, ltj, cap)
                assert got == want, (name, degree, depth, window, cap, ltj)
                seen.add(got["pass"] if isinstance(got, dict) else got[1].split()[0])
    assert seen == {True, False, "outer", "composition", "check", "table"}, seen
    # some positions stop short of the global stop
    assert cut, cut
    # the first position's own terms meet the outer index below the window
    # first; a later position's meet a composition below it earlier in the
    # sum, and that raise belongs to the later position alone
    table = extract_law(EnvelopingAlgebra(_data("heisenberg")), 2, 0, (-1, 2))
    assert _outcome(check_law_jacobi, table, [(-1, -2, 2)], 2) == (
        "TruncationInsufficient", "outer index -2 outside window (-1, 2)")


@pytest.mark.parametrize("name", [*ALL_DATA, "ungraded"])
def test_vacuum_rows_equal_the_cellwise_products(name):
    # pairs with an empty side are read off the vacuum axiom, 1_(n)v =
    # δ_{n,-1} v and u_(n)1 = 0 for n >= 0, so no enveloping product of the
    # empty left word is built; the table is the cell-by-cell one, also at
    # windows without the index -1
    pres = golden.ungraded() if name == "ungraded" else _data(name)
    for degree, depth, window in product((2, 3), (0, 1), ((-4, 4), (0, 3), (-3, -2))):
        env = EnvelopingAlgebra(pres)
        got = extract_law(env, degree, depth, window).to_json()
        want = _reference_table(EnvelopingAlgebra(pres), degree, depth, window).to_json()
        assert got == want, (degree, depth, window)
        for memo in (env._bracket_memo, env._nop_memo, env._lead_memo):
            assert all(wu for wu, _ in memo), (degree, depth, window)


@pytest.mark.parametrize("name", [*ALL_DATA, "ungraded"])
def test_law_cell_equals_the_products_by_definition(name):
    # every pair of degree <= 3 over the letters to depth 1, at every index
    # in -4..4, the vacuum on either side included; on n3current and
    # virasoro some nonzero cells are divided by k! k'! > 1
    pres = golden.ungraded() if name == "ungraded" else _data(name)
    env, fresh = EnvelopingAlgebra(pres), EnvelopingAlgebra(pres)
    positions = env.basis.keys_up_to_depth(1)
    midxes = [midx_from_word(w) for size in range(4) for w in combinations_with_replacement(positions, size)]
    scaled = 0
    for k in midxes:
        for kp in midxes:
            if midx_norm(k) + midx_norm(kp) > 3:
                continue
            for n in range(-4, 5):
                got = law_cell(env, k, kp, n)
                assert got == nth_law_cell(fresh, k, kp, n), (k, kp, n)
                scaled += bool(got) and midx_factorial(k) * midx_factorial(kp) > 1
    assert scaled or name not in ("n3current", "virasoro"), name


@pytest.mark.parametrize("case", sorted(CASES), ids=lambda c: "n{}_draws{}_seed{}".format(*c))
def test_extraction_matches_cellwise_products_on_generated(case):
    # degree 3, with the index -1 inside and outside the window
    n, draws, seed = case
    pres = nilpotent_current(seed, n, draws)
    reference = EnvelopingAlgebra(pres)
    for depth, window in product((0, 1), ((-4, 4), (0, 3), (-3, -2))):
        got = extract_law(EnvelopingAlgebra(pres), 3, depth, window).to_json()
        assert got == _reference_table(reference, 3, depth, window).to_json(), (depth, window)


@pytest.mark.parametrize("degree, depth, window, message", [
    (2, 0, (3, -3), "window [3, -3] is not two integers lo <= hi"),
    (-1, 0, (-2, 2), "degree -1 is not a nonnegative integer"),
    (2, -1, (-2, 2), "depth -1 is not a nonnegative integer"),
])
def test_extraction_refuses_what_from_json_refuses(degree, depth, window, message):
    # with from_json's own message, before any product is built
    env = EnvelopingAlgebra(golden.heisenberg())
    with pytest.raises(ValueError, match=re.escape(message)):
        extract_law(env, degree, depth, window)
    assert not (env._straighten_memo or env._bracket_memo or env._lead_memo or env._partial_memo)
    doc = heis_table(2, 0, (-2, 2)).to_json()
    with pytest.raises(ValueError, match=re.escape(message)):
        LawTable.from_json({**doc, "degree": degree, "depth": depth, "window": list(window)})


def test_extracted_tables_reload():
    for name in ("heisenberg", "virasoro"):
        for degree, depth, window in product((0, 1, 2), (0, 1), ((-2, 2), (0, 0), (-3, -3), (1, 4))):
            doc = extract_law(EnvelopingAlgebra(_data(name)), degree, depth, window).to_json()
            assert LawTable.from_json(doc).to_json() == doc, (name, degree, depth, window)


def law_table_specs() -> list:
    """(algebra, degree, depth, half window) of the benchmark's law tables."""
    specs = [("n3current", 3, 2, 8)]
    for name in ("heisenberg", "mixed", "virasoro", "n3current"):
        for degree, depth, half in product((2, 3), (0, 1, 2), (2, 4, 6, 8)):
            if not (name == "n3current" and degree == 3 and depth > 0):
                specs.append((name, degree, depth, half))
    return specs


def test_law_tables_keep_their_tables_and_check_outcomes():
    # one digest over every benchmark table, its identity report and its
    # law Jacobi report (or raise message) at the 27 samples in -1..1
    ltj = list(product((-1, 0, 1), repeat=3))
    digest = hashlib.sha256()
    specs = law_table_specs()
    for name, degree, depth, half in specs:
        table = extract_law(EnvelopingAlgebra(_data(name)), degree, depth, (-half, half))
        jacobi = _outcome(check_law_jacobi, table, ltj, 2)
        doc = [table.to_json(), check_identities(table), jacobi]
        digest.update(json.dumps(doc, sort_keys=True).encode())
    assert len(specs) == 89
    assert digest.hexdigest() == "2230d2c48fe7a6f3fa9bcb2de6abab838d5ee695ced09761ac40f7aa0fc0f448"


def test_ungraded_extraction_computes_every_cell():
    pres = golden.ungraded()
    assert pres.check_axioms().ok
    assert pres.conformal_weights() is None
    got = extract_law(EnvelopingAlgebra(pres), 3, 1, (-6, 6))
    want = _reference_table(EnvelopingAlgebra(pres), 3, 1, (-6, 6))
    assert got.to_json() == want.to_json()
    assert got.overflow_degrees and any(n == 3 for _l, n in got.entries)


def test_skip_rule_matches_the_in_depth_and_deep_rule(monkeypatch):
    # the rule before one grading served every presentation: a table skips
    # a cell when no in-depth position has its weight and either its degree
    # overflowed or no deeper letter has it; a manifold (depth -1) skips it
    # when no letter has it.  Letters come from keys_up_to_depth.  The
    # extraction must compute the cells that rule picks, in order: at
    # degree 2 up to depth 3, and at degree 3 up to depth 2.  Of the
    # left-vacuum cells, which the vacuum axiom fixes, it reads only the
    # (-1)-cells.
    calls = []
    monkeypatch.setattr(lawtable, "law_cell", lambda *args: calls.append(args[1:]) or law_cell(*args))
    for build in [golden.heisenberg, golden.virasoro, golden.n3_current, golden.mixed]:
        env = EnvelopingAlgebra(build())
        grading = _Grading(env)
        step, weight = grading.step, grading.weight
        assert step, build.__name__

        def letter_weight(key):
            return weight[((key, 1),)]

        for depth in range(4):
            positions = env.basis.keys_up_to_depth(depth)
            midxes = [midx_from_word(w) for size in range(4)
                      for w in combinations_with_replacement(positions, size)]
            # a pair's weight is that of its joint multi-index
            cell_weights = {weight[m] - step * (n + 1) for m in midxes for n in range(-8, 9)}
            # a letter one depth deeper weighs one step more
            least = min(map(letter_weight, env.basis.keys_up_to_depth(0)))
            letters = env.basis.keys_up_to_depth((max(cell_weights) - least) // step + 1)
            in_depth = {letter_weight(key) for key in positions}
            by_weight: dict = {}
            for g, d in letters:
                by_weight.setdefault(letter_weight((g, d)), set()).add(d)

            def deep(w, below):
                return any(d > below for d in by_weight.get(w, ()))

            def old_skips(w, overflowed):
                return w not in in_depth and (overflowed or not deep(w, depth))

            for w in cell_weights:
                ds = grading.depths[w]
                assert set(ds) == by_weight.get(w, set())
                assert (not ds) == (not deep(w, -1)), (build.__name__, w)
                for overflowed in (False, True):
                    new_skips = not ds or (overflowed and min(ds) > depth)
                    assert old_skips(w, overflowed) == new_skips, (build.__name__, depth, w)

            for degree in (2, 3) if depth <= 2 else (2,):
                calls.clear()
                table = extract_law(env, degree, depth, (-8, 8))
                want, overflow = [], set()
                below = [m for m in midxes if midx_norm(m) <= degree]
                for k in below:
                    for kp in below:
                        deg = midx_norm(k) + midx_norm(kp)
                        if deg > degree:
                            continue
                        top = min(8, env.word_bound(word_from_midx(k), word_from_midx(kp)) - 1)
                        for n in range(top, -9, -1):
                            if k == EMPTY and n != -1:
                                continue
                            if not old_skips(weight[k] + weight[kp] - step * (n + 1), deg in overflow):
                                want.append((k, kp, n))
                                if set(law_cell(env, k, kp, n)) - set(positions):
                                    overflow.add(deg)
                assert calls == want, (build.__name__, degree, depth)
                assert table.overflow_degrees == overflow


def test_extraction_builds_one_chain_per_left_index():
    # one ∂ chain per left multi-index: doubling the depth of the window
    # at most about doubles the ∂ passes (rebuilding ∂^j u for every n
    # and every right factor grows them fourfold)
    counts = []
    for lo in (-8, -16):
        env = EnvelopingAlgebra(golden.heisenberg())
        calls = []
        inner = env.partial
        env.partial = lambda u: calls.append(u) or inner(u)
        extract_law(env, 2, 1, (lo, 4))
        counts.append(len(calls))
    assert 0 < counts[1] <= 2.5 * counts[0], counts


def test_vacuum_cells_build_no_chain():
    # vacuum_(n) v is zero for n != -1, so the deep (vacuum, k') cells
    # read no ∂ chain of the empty word and a deeper window makes no
    # more ∂ passes (7 at -8..4 and 15 at -16..4 when they were computed)
    counts = []
    for lo in (-8, -16):
        env = EnvelopingAlgebra(golden.heisenberg())
        calls = []
        inner = env.partial
        env.partial = lambda u: calls.append(u) or inner(u)
        table = extract_law(env, 2, 1, (lo, 4))
        counts.append(len(calls))
        assert all(n == -1 for (_, n), cell in table.entries.items()
                   for k, _ in cell if k == EMPTY)
    assert counts[0] == counts[1], counts
    # the cells still read as the enveloping products do
    env = EnvelopingAlgebra(golden.heisenberg())
    for kp in [EMPTY, ((A1, 1),), midx_from_word((A0, A1))]:
        v = UElem.monomial(word_from_midx(kp))
        for n in range(-6, 3):
            want = {w[0]: c for w, c in env.nth(UElem.vacuum(), v, n).terms.items()
                    if len(w) == 1}
            assert law_cell(env, EMPTY, kp, n) == want, (kp, n)
    assert law_cell(env, EMPTY, ((A1, 1),), -1) == {A1: 1}


def test_monotone_reextraction():
    T1 = heis_table(degree=2, depth=1, window=(-4, 4))
    T2 = heis_table(degree=3, depth=2, window=(-6, 6))
    for (l, n), cell in T1.entries.items():
        for pair, c in cell.items():
            assert T2.coefficient(l, n, *pair) == c


def test_json_roundtrip_and_order():
    T = heis_table()
    doc = T.to_json()
    assert doc["algebra"] == "heisenberg"
    assert doc["window"] == [-8, 6]
    # deterministic serialization
    assert json.dumps(T.to_json(), indent=1) == json.dumps(T.to_json(), indent=1)
    T2 = LawTable.from_json(json.loads(json.dumps(T.to_json(), indent=1)))
    assert len(T2.entries) == len(T.entries)
    assert T2.complete_above
    # reloaded tables drive the same checks
    samples = [(0, 0, 0), (1, 0, -1)]
    assert check_law_jacobi(T2, samples, 2)["pass"]


def test_from_json_rejects_entries_the_document_cannot_hold():
    # an entry outside the window, or over a label outside the basis, is a
    # malformed document, not a cell to use or to ignore
    doc = json.loads(json.dumps(heis_table(window=(-8, 8)).to_json(), indent=1))
    assert LawTable.from_json(doc).window == (-8, 8)
    stray = doc["entries"][0]
    with pytest.raises(ValueError, match="entry index 10 outside window"):
        LawTable.from_json({**doc, "entries": doc["entries"] + [{**stray, "n": 10}]})
    with pytest.raises(ValueError, match="not in the basis"):
        LawTable.from_json({**doc, "entries": doc["entries"] + [{**stray, "k": {"b[0]": 1}}]})
    with pytest.raises(ValueError, match="not in the basis"):
        LawTable.from_json({**doc, "bounds": [[{"b[0]": 1}, {}, 3]]})


@pytest.mark.parametrize("change, message", [
    # a bound that is no int, or a negative one, certifies nothing
    (lambda doc: doc["bounds"][0].__setitem__(2, "7"), "bound '7' is not a nonnegative integer"),
    (lambda doc: doc["bounds"][0].__setitem__(2, -3), "bound -3 is not a nonnegative integer"),
    (lambda doc: doc["bounds"][0].__setitem__(2, 7.0), "bound 7.0 is not a nonnegative integer"),
    # a multi-index exponent is a positive integer
    (lambda doc: doc["entries"][0]["k"].update({"a[0]": 0}), r"exponents \[0\] are not positive"),
    (lambda doc: doc["entries"][0]["kprime"].update({"a[0]": -1}), r"exponents \[-1\] are not positive"),
    (lambda doc: doc["bounds"][0][0].update({"a[0]": 0}), r"exponents \[0\] are not positive"),
    # a pair beyond the document's degree
    (lambda doc: doc["entries"][0]["k"].update({"a[0]": 3}), "is beyond degree 2"),
    (lambda doc: doc["bounds"][0][1].update({"a[1]": 2}), "is beyond degree 2"),
    # a header whose degree, depth, window, basis or overflow degrees no
    # table has
    (lambda doc: doc.update(degree="2"), "degree '2' is not a nonnegative integer"),
    (lambda doc: doc.update(degree=2.5), "degree 2.5 is not a nonnegative integer"),
    (lambda doc: doc.update(degree=-1), "degree -1 is not a nonnegative integer"),
    (lambda doc: doc.update(depth="x"), "depth 'x' is not a nonnegative integer"),
    (lambda doc: doc.update(depth=True), "depth True is not a nonnegative integer"),
    (lambda doc: doc.update(window=[8, -8]), r"window \[8, -8\] is not two integers lo <= hi"),
    (lambda doc: doc.update(window=[-8, 8.0]), r"window \[-8, 8.0\] is not two integers"),
    (lambda doc: doc.update(window=[-8]), r"window \[-8\] is not two integers"),
    (lambda doc: doc["basis"].append(doc["basis"][0]), "is not of distinct string labels"),
    (lambda doc: doc["basis"].append(3), "is not of distinct string labels"),
    (lambda doc: doc.update(overflow_degrees=["q"]), r"overflow degrees \['q'\] are not integers in 0..2"),
    (lambda doc: doc.update(overflow_degrees=[3]), r"overflow degrees \[3\] are not integers in 0..2"),
    # a coefficient is the text `to_json` writes, p or p/q with q nonzero, in
    # at most DIGITS_LIMIT digits: no exponent, float, '_', zero q or null
    (lambda doc: doc["entries"][0].update(coeff="1e30000000"), "entry 0 coefficient '1e30000000' is not p"),
    (lambda doc: doc["entries"][0].update(coeff=0.1), "entry 0 coefficient 0.1 is not p"),
    (lambda doc: doc["entries"][0].update(coeff="1_0"), "entry 0 coefficient '1_0' is not p"),
    (lambda doc: doc["entries"][1].update(coeff="1/0"), "entry 1 coefficient '1/0' is not p"),
    (lambda doc: doc["entries"][0].update(coeff=None), "entry 0 coefficient None is not p"),
    (lambda doc: doc["entries"][0].update(coeff="1/" + "1" * dsl.DIGITS_LIMIT),
     f"coefficient '1/1+ is not p or p/q with q nonzero in at most {dsl.DIGITS_LIMIT} digits"),
    # an entry's index n is an int, k and k' are objects and l is a string:
    # a cell (l, 0.5) is one no check reads
    (lambda doc: doc["entries"][0].update(n=0.5), "entry index 0.5 is not an integer"),
    (lambda doc: doc["entries"][0].update(n=True), "entry index True is not an integer"),
    (lambda doc: doc["entries"][0].update(n="1"), "entry index '1' is not an integer"),
    (lambda doc: doc["entries"][0].update(k=[]), r"multi-index \[\] is not an object of label exponents"),
    (lambda doc: doc["entries"][0].update(kprime="a"), "multi-index 'a' is not an object of label"),
    (lambda doc: doc["entries"][0].update(l=["a[0]"]), r"output label \['a\[0\]'\] is not in the basis"),
])
def test_from_json_rejects_bounds_and_exponents_the_table_cannot_hold(change, message):
    doc = json.loads(json.dumps(heis_table(window=(-8, 8)).to_json(), indent=1))
    assert LawTable.from_json(doc).complete_above
    change(doc)
    with pytest.raises(ValueError, match=message):
        LawTable.from_json(doc)


def test_from_json_reads_coefficients_of_up_to_the_digit_limit():
    doc = heis_table(window=(-8, 8)).to_json()
    e = doc["entries"][0]
    k, kp = (tuple(sorted(e[side].items())) for side in ("k", "kprime"))
    for coeff in ("-" + "9" * dsl.DIGITS_LIMIT, "7/0003", "-0"):
        table = LawTable.from_json({**doc, "entries": [{**e, "coeff": coeff}]})
        assert table.coefficient(e["l"], e["n"], k, kp) == Q(coeff)


def test_from_json_rejects_an_output_label_outside_the_basis():
    # a cell filed under a label the basis lacks is no cell any check reads
    doc = json.loads(json.dumps(heis_table(window=(-8, 8)).to_json(), indent=1))
    stray = {**doc["entries"][0], "l": "b[0]"}
    with pytest.raises(ValueError, match="output label 'b\\[0\\]' is not in the basis"):
        LawTable.from_json({**doc, "entries": doc["entries"] + [stray]})


def test_law_hom_cases():
    T = heis_table()
    ident = {key: {((key, 1),): Q(1)} for key in T.positions}
    assert check_law_hom(ident, T, T)["pass"]
    zero = {key: {} for key in T.positions}
    assert check_law_hom(zero, T, T)["pass"]
    # rescaling the generator doubles, the center quadruples
    resc = {}
    for key in T.positions:
        g, _d = key
        resc[key] = {((key, 1),): Q(2 if g == 0 else 4)}
    assert check_law_hom(resc, T, T)["pass"]
    # a wrong rescale fails
    bad = {key: {((key, 1),): Q(2)} for key in T.positions}
    rep = check_law_hom(bad, T, T)
    assert not rep["pass"]
    with pytest.raises(ValueError):
        check_law_hom({T.positions[0]: {EMPTY: Q(1)}}, T, T)


def test_law_hom_guards_an_incomplete_source():
    # the homomorphism check guards its source table as the Jacobi check does
    T = heis_table()
    Tsmall = heis_table(window=(-2, 1))
    with pytest.raises(TruncationInsufficient, match="table window too small"):
        check_law_hom({}, Tsmall, T)


def test_n3_jacobi_degree_three():
    n3 = golden.n3_current()
    U = EnvelopingAlgebra(n3)
    T = extract_law(U, 3, 2, (-8, 8))
    # the factorial normalization shows in the squared-variable slice
    x0, y0, z0, w10 = (0, 0), (1, 0), (2, 0), (3, 0)
    assert T.coefficient(w10, 1, ((x0, 2),), ((y0, 1),)) == Q(1, 2)
    assert check_law_jacobi(T, [(0, 0, 0)], 3)["pass"]


def test_law_hom_through_json_interchange():
    # a table written to JSON and reloaded drives the homomorphism check
    T = heis_table()
    doc = json.loads(json.dumps(T.to_json(), indent=1))
    T2 = LawTable.from_json(doc)
    resc = {}
    for label in doc["basis"]:
        c = Q(2) if label.startswith("a") else Q(4)
        resc[label] = {((label, 1),): c}
    assert check_law_hom(resc, T2, T2)["pass"]
    bad = {label: {((label, 1),): Q(3)} for label in doc["basis"]}
    assert not check_law_hom(bad, T2, T2)["pass"]


def test_n3_deep_samples_fail_honestly_at_fixed_depth():
    # beyond the sample the depth-2 table certifies, the check reports a
    # nonzero residual instead of silently passing; the same identity is
    # verified exactly by the integrated product tables, whose depth is
    # unbounded (see test_manifold)
    n3 = golden.n3_current()
    U = EnvelopingAlgebra(n3)
    T = extract_law(U, 3, 2, (-8, 8))
    assert check_law_jacobi(T, [(0, 0, 0)], 3)["pass"]
    rep = check_law_jacobi(T, [(1, 0, -1)], 3)
    assert not rep["pass"]
    assert any(c["residual_monomials"] > 0 for c in rep["checks"] if not c["pass"])


def test_sampled_law_checks_fail_when_nothing_is_checked():
    # a check that examined nothing must say so and must not pass
    T = heis_table(depth=1, window=(-4, 4))
    assert check_law_jacobi(T, [], 2) == {"pass": False, "checks": []}
    # a table with no positions checks no case, and says so
    empty = extract_law(EnvelopingAlgebra(dsl.load_presentation("algebra e { generators { } }")[0]), 1, 0, (-1, 1))
    assert check_law_jacobi(empty, [(0, 0, 0)], 1) == {
        "pass": False, "checks": [], "reason": "table has no positions"}
    # below degree 1 every composed polynomial is empty, so nothing is compared
    for cap in (0, -1):
        with pytest.raises(ValueError, match="at least 1"):
            check_law_jacobi(T, [(0, 0, 0)], cap)
    with pytest.raises(ValueError, match="at least 1"):
        check_law_hom({}, heis_table(degree=0, depth=1, window=(-4, 4)), T)
    # the windows share no index, so no entry is compared
    far = heis_table(depth=1, window=(5, 8))
    assert check_law_hom({}, T, far) == {"pass": False, "checks": []}


def test_law_hom_stops_at_first_failing_entry():
    T = heis_table()
    bad = {key: {((key, 1),): Q(2)} for key in T.positions}
    passes = [c["pass"] for c in check_law_hom(bad, T, T)["checks"]]
    assert passes == [True] * (len(passes) - 1) + [False]


def _convolve(factors, q, series, maxn, window, cap, memo):
    """Coefficient q of the product of the series of ``factors``, recursing
    on the first factor: the reference for `word_series`."""
    if not factors:
        return {(): 1} if q == -1 else {}
    key = (factors, q)
    if key in memo:
        return memo[key]
    first, rest = factors[0], factors[1:]
    m = q - 1 - (sum(maxn(p) for p in rest) + len(rest) - 1) if rest else q
    if m < window[0]:
        raise TruncationInsufficient(f"composition needs index {m} below window {window}")
    out = {}
    for m in range(m, maxn(first) + 1):
        head = series(first, m)
        if head:
            tail = _convolve(rest, q - m - 1, series, maxn, window, cap, memo)
            if tail:
                _poly_madd(out, head, tail, cap)
    memo[key] = out
    return out


def _reader(series):
    """``series`` as the per-(letter, index) callable `_convolve` reads."""
    return lambda f, m: series.get(f, {}).get(m)


def _brute_force(word, q, coeffs, lo, maxn):
    """Coefficient q of a product of scalar series, summed over index tuples."""
    total = Q(0)
    for ms in product(*(range(lo, maxn[f] + 1) for f in word)):
        if sum(ms) + len(word) - 1 == q:
            term = Q(1)
            for f, m in zip(word, ms):
                term *= coeffs.get((f, m), 0)
            total += term
    return total


def test_word_series_matches_recursive_convolution_and_brute_force():
    # seeded series; as in the composer, maxn(f) is the top nonzero index
    # of f's series, or lo - 1 for a zero series.  The same coefficients
    # enter once as scalars, through the manifold's multiply-add, against
    # the sum over index tuples, and once as slotted polynomials with a
    # degree-1 term, through the composer's capped multiply-add, against
    # the recursive convolution
    from lieconformal.manifold import _scalar_madd

    rng = random.Random(12)
    ints = 0
    for _ in range(40):
        lo = rng.randint(-4, 1)
        cap = rng.randint(0, 2)
        maxn = {f: rng.randint(lo - 1, lo + 4) for f in "abc"}
        coeffs = {(f, m): Q(rng.randint(-3, 3), rng.randint(1, 3))
                  for f in "abc" for m in range(lo, maxn[f] + 1)}
        coeffs = {fm: c for fm, c in coeffs.items() if c or fm[1] == maxn[fm[0]]}
        for f in "abc":
            if maxn[f] >= lo:
                coeffs[f, maxn[f]] = coeffs.get((f, maxn[f])) or Q(1)

        # each letter's nonzero coefficients, none outside [lo, maxn]
        scalars = {f: {} for f in "abc"}
        slotted = {f: {} for f in "abc"}
        for (f, m), c in coeffs.items():
            if c:
                scalars[f][m] = c
                slotted[f][m] = {(): c, ((0, f),): Q(m)} if m else {(): c}
        assert all(lo <= m <= maxn[f] for f in scalars for m in scalars[f])
        series = _reader(slotted)

        def poly_madd(out, q, tail, head):
            _poly_madd(out.setdefault(q, {}), tail, head, cap)

        scalar_memo, slotted_memo = {(): {-1: 1}}, {(): {-1: {(): 1}}}
        for s in range(4):
            for word in combinations_with_replacement("abc", s):
                got = word_series(word, scalars, maxn.get, lo, _scalar_madd, scalar_memo)
                polys = word_series(word, slotted, maxn.get, lo, poly_madd, slotted_memo)
                top = word_top(word, maxn.get)
                # the empty word never raises
                floor = lo + top - min(map(maxn.get, word)) if word else lo - 8
                for q in range(lo - 8, top + 3):
                    try:
                        want = _convolve(word, q, series, maxn.get, (lo, None), cap, {})
                    except TruncationInsufficient:
                        assert q < floor, (word, q)
                        continue
                    assert q >= floor, (word, q)
                    assert polys.get(q, {}) == want, (word, q)
                    # the degree-0 part of a product is the product of scalars
                    assert got.get(q, 0) == want.get((), 0), (word, q)
                    if word:
                        assert got.get(q, 0) == _brute_force(word, q, coeffs, lo, maxn), (word, q)
                assert all(floor <= q <= top and p for q, p in got.items()), word
                assert all(floor <= q <= top and p for q, p in polys.items()), word
                # integral sums are stored as ints, as `iadd` stores them
                assert all(type(v) is (int if v.denominator == 1 else Q) for v in got.values())
                ints += sum(type(v) is int for v in got.values())
    assert ints


def _random_table(rng, lo, hi, positions):
    """A law table of seeded cells over the given positions."""
    table = LawTable("random", 3, 1, (lo, hi), positions)
    table.labels = {k: str(k) for k in positions}
    midxes = [EMPTY] + [midx_from_word(w) for s in (1, 2)
                        for w in combinations_with_replacement(positions, s)]
    for l in positions:
        for n in range(lo, rng.randint(lo - 1, hi) + 1):
            for _ in range(rng.randint(0, 3)):
                k, kp = rng.choice(midxes), rng.choice(midxes)
                table.add_entry(l, n, k, kp, Q(rng.randint(-3, 3), rng.randint(1, 2)))
    return table


def test_poly_madd_matches_the_exponent_spelled_product():
    # the composer's capped product over monomials spelled as sorted letters
    # against the reference over sorted (letter, exponent) pairs, mapped to
    # letters, on seeded polynomials, into an empty and a seeded sum
    rng = random.Random(33)
    letters = [(slot, key) for slot in range(3) for key in "ab"]

    def spelled(poly):
        return {tuple(v for v, e in m for _ in range(e)): c for m, c in poly.items()}

    def draw():
        poly = {}
        for _ in range(rng.randint(0, 4)):
            vs = sorted(rng.sample(letters, rng.randint(0, 2)))
            poly[tuple((v, rng.randint(1, 2)) for v in vs)] = Q(rng.randint(1, 3) * rng.choice((-1, 1)),
                                                               rng.randint(1, 2))
        return poly

    # x^2 - y^2 = (x - y)(x + y): the cross terms cancel inside one product
    x, y = (((0, "a"), 1),), (((1, "a"), 1),)
    cases = [({x: 1, y: -1}, {x: 1, y: 1})] + [(draw(), draw()) for _ in range(150)]
    kept = dropped = 0
    for p1, p2 in cases:
        for cap in range(4):
            for c in (1, -1, Q(3, 2)):
                for start in ({}, draw()):
                    want = spelled(naive_poly_madd(dict(start), p1, p2, cap, Degrees(), c))
                    got = _poly_madd(spelled(start), spelled(p1), spelled(p2), cap, c)
                    assert got == want, (p1, p2, cap, c, start)
                    kept += len(got)
                    # the same product with -c cancels it, to zero from {}
                    assert _poly_madd(got, spelled(p1), spelled(p2), cap, -c) == spelled(start)
                dropped += len(naive_poly_madd({}, p1, p2, 8, Degrees())) \
                    - len(naive_poly_madd({}, p1, p2, cap, Degrees()))
    assert _poly_madd({}, spelled({x: 1, y: -1}), spelled({x: 1, y: 1}), 2) \
        == {((0, "a"), (0, "a")): 1, ((1, "a"), (1, "a")): -1}
    assert kept > 1000 and dropped > 1000, (kept, dropped)


def test_composer_conv_matches_recursive_convolution():
    # every coefficient and every raise/no-raise decision of the composer
    # on seeded slotted tables, the empty word and q < -1 included
    rng = random.Random(7)
    positions = [(0, 0), (1, 0), (2, 0)]
    raised = compared = 0
    for _ in range(12):
        lo = rng.randint(-5, -1)
        table = _random_table(rng, lo, lo + 6, positions)
        for cap in (1, 2, 3):
            comp = _Composer(table, cap)
            for slots in ((0, 1), (1, 2)):
                sparse = comp.slotted(slots)
                # built once per slot pair, nonzero and inside [lo, maxn]
                assert comp.slotted(slots) is sparse
                assert all(lo <= m <= comp.maxn(f) and p for f in sparse for m, p in sparse[f].items())
                series = _reader(sparse)
                for s in range(4):
                    for word in combinations_with_replacement(positions, s):
                        for q in range(lo - 4, lo + 12):
                            try:
                                want = _convolve(word, q, series, comp.maxn, table.window, cap, {})
                            except TruncationInsufficient:
                                with pytest.raises(TruncationInsufficient):
                                    comp.conv(word, q, slots)
                                raised += 1
                                continue
                            assert comp.conv(word, q, slots) == want, (cap, slots, word, q)
                            compared += 1
    assert raised > 1000 and compared > 1000, (raised, compared)
    # a real table too, at each cap it certifies
    T = heis_table(degree=3, depth=1, window=(-5, 5))
    for cap in (1, 2, 3):
        comp = _Composer(T, cap)
        series = _reader(comp.slotted((1, 2)))
        for s in range(3):
            for word in combinations_with_replacement(T.positions, s):
                for q in range(-8, 8):
                    try:
                        want = _convolve(word, q, series, comp.maxn, T.window, cap, {})
                    except TruncationInsufficient:
                        with pytest.raises(TruncationInsufficient):
                            comp.conv(word, q, (1, 2))
                        continue
                    assert comp.conv(word, q, (1, 2)) == want, (cap, word, q)
