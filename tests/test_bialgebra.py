import random
import tracemalloc
from itertools import combinations_with_replacement
from pathlib import Path

import golden
import pytest
from oracles import delta_on_component, flip

from lieconformal import dsl
from lieconformal.bialgebra import (
    TensorElem,
    _primitive_residual,
    check_delta_is_vertex_hom,
    coproduct,
    counit,
    is_primitive,
    primitives_up_to,
    tensor_nth,
)
from lieconformal.enveloping import EnvelopingAlgebra, UElem, VACUUM
from lieconformal.linalg import kernel_basis

DATA = Path(__file__).parent / "data"


def words_up_to(keys, max_len):
    out = [VACUUM]
    for length in range(1, max_len + 1):
        out.extend(tuple(w) for w in combinations_with_replacement(keys, length))
    return out


def test_coproduct_examples():
    U = EnvelopingAlgebra(golden.heisenberg())
    a = U.letter((0, 0))
    da = coproduct(a)
    assert da.terms == {((((0, 0),)), VACUUM): 1, (VACUUM, (((0, 0),))): 1}
    aa = U.mul(a, a)
    daa = coproduct(aa)
    w = ((0, 0), (0, 0))
    assert daa.terms == {
        (w, VACUUM): 1,
        (((0, 0),), ((0, 0),)): 2,
        (VACUUM, w): 1,
    }
    assert coproduct(UElem.vacuum()).terms == {(VACUUM, VACUUM): 1}


def test_counit():
    U = EnvelopingAlgebra(golden.heisenberg())
    assert counit(UElem.vacuum()) == 1
    assert counit(U.letter((0, 0))) == 0
    aa = U.mul(U.letter((0, 0)), U.letter((0, 0)))
    assert counit(UElem.vacuum(3) + aa) == 3


def test_primitive_detection():
    U = EnvelopingAlgebra(golden.heisenberg())
    a = U.letter((0, 0))
    assert is_primitive(a)
    assert not is_primitive(U.mul(a, a))
    assert not is_primitive(UElem.vacuum())


def test_primitives_match_algebra_slice():
    for build in [golden.heisenberg, golden.virasoro, golden.n3_current]:
        pres = build()
        U = EnvelopingAlgebra(pres)
        for max_len, depth in [(2, 1), (3, 2)]:
            prims = primitives_up_to(U, max_len, depth)
            slice_syms = [s for s in pres.symbols_up_to(depth)]
            assert len(prims) == len(slice_syms)
            got = sorted(w for p in prims for w in p.terms)
            assert got == sorted((s,) for s in slice_syms)
            for p in prims:
                assert is_primitive(p)


def kernel_primitives(U, max_len, depth):
    """Reference: the kernel of the residual map over the whole word span."""
    words = words_up_to(U.basis.keys_up_to_depth(depth), max_len)
    columns = [_primitive_residual(UElem.monomial(w)).terms for w in words]
    return [UElem({words[i]: c for i, c in combo.items()}) for combo in kernel_basis(columns)]


# every algebra in tests/data that parses, nilpotent (heisenberg, mixed,
# n3current, abelian) or not (virasoro), and badheis, which fails antisymmetry
LOADABLE = sorted(p.stem for p in DATA.glob("*.lca") if p.stem != "badsyntax")


@pytest.mark.parametrize("name", LOADABLE)
def test_streamed_primitives_equal_the_kernel_basis(name):
    pres, _ = dsl.load_presentation((DATA / f"{name}.lca").read_text(encoding="utf-8"))
    U = EnvelopingAlgebra(pres)
    for max_len in range(4):
        for depth in range(3):
            assert primitives_up_to(U, max_len, depth) == kernel_primitives(U, max_len, depth)
    # the residuals of distinct words have disjoint supports, so the kernel
    # splits into one block per word
    supports = [set(_primitive_residual(UElem.monomial(w)).terms)
                for w in words_up_to(U.basis.keys_up_to_depth(2), 3)]
    assert len(set().union(*supports)) == sum(map(len, supports))


def test_primitives_hold_no_column_matrix():
    U = EnvelopingAlgebra(golden.n3_current())
    tracemalloc.start()
    try:
        prims = primitives_up_to(U, 3, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(prims) == 20
    assert peak < 1 << 20, peak


def test_tensor_nth_examples():
    U = EnvelopingAlgebra(golden.heisenberg())
    a_word = ((0, 0),)
    one = TensorElem({(VACUUM, VACUUM): 1})
    v = TensorElem({(a_word, a_word): 1})
    # the tensor vacuum reproduces at index -1
    assert tensor_nth(U, one, v, -1) == v
    # only one split survives the pairing of indices
    ax1 = TensorElem({(a_word, VACUUM): 1})
    out = tensor_nth(U, ax1, ax1, 1)
    assert out.terms == {((((1, 0),)), VACUUM): 1}
    # creation on both factors
    axa = TensorElem({(a_word, a_word): 1})
    for n in range(0, 4):
        assert tensor_nth(U, axa, one, n).is_zero()


def test_coalgebra_laws_on_short_words():
    for build in [golden.heisenberg, golden.n3_current]:
        pres = build()
        U = EnvelopingAlgebra(pres)
        keys = U.basis.keys_up_to_depth(2)
        for word in words_up_to(keys, 3):
            u = UElem.monomial(word)
            d = coproduct(u)
            # cocommutativity
            assert flip(d) == d
            # coassociativity
            assert delta_on_component(d, 0) == delta_on_component(d, 1)
            # counit laws collapse both slots
            left = UElem()
            right = UElem()
            for (x, y), c in d.terms.items():
                if not x:
                    left.iadd_scaled(UElem.monomial(y), c)
                if not y:
                    right.iadd_scaled(UElem.monomial(x), c)
            assert left == u and right == u


def test_primitive_closure():
    rng = random.Random(15)
    for build in [golden.heisenberg, golden.n3_current]:
        pres = build()
        U = EnvelopingAlgebra(pres)
        keys = U.basis.keys_up_to_depth(2)
        for _ in range(30):
            ka, kb = rng.choice(keys), rng.choice(keys)
            a, b = U.letter(ka), U.letter(kb)
            assert is_primitive(U.partial(a) if U.partial(a) else a)
            for n in range(0, 4):
                prod = U.nth(a, b, n)
                if prod:
                    assert is_primitive(prod)


def test_delta_is_vertex_hom():
    rng = random.Random(25)
    for build in [golden.heisenberg, golden.n3_current, golden.mixed]:
        U = EnvelopingAlgebra(build())
        keys = U.basis.keys_up_to_depth(1)
        samples = []
        for _ in range(6):
            u = UElem.monomial(tuple(sorted(rng.choices(keys, k=rng.randint(0, 2)))))
            v = UElem.monomial(tuple(sorted(rng.choices(keys, k=rng.randint(0, 2)))))
            samples.append((u, v))
        report = check_delta_is_vertex_hom(U, samples, (-3, 3))
        assert report["pass"], (build.__name__, report)


def test_delta_hom_known_cases():
    U = EnvelopingAlgebra(golden.heisenberg())
    a = U.letter((0, 0))
    aa = U.mul(a, a)
    # the central product is grouplike-compatible
    k = U.nth(a, a, 1)
    dk = coproduct(k)
    expect = tensor_nth(U, coproduct(a), coproduct(a), 1)
    assert dk == expect
    report = check_delta_is_vertex_hom(U, [(a, aa)], (-2, 2))
    assert report["pass"]
    report = check_delta_is_vertex_hom(U, [(UElem.vacuum(), aa)], (-3, 3))
    assert report["pass"]


def test_delta_hom_fails_when_nothing_is_checked():
    U = EnvelopingAlgebra(golden.heisenberg())
    a = U.letter((0, 0))
    assert check_delta_is_vertex_hom(U, [], (-2, 2)) == {"pass": False, "checks": []}
    # a reversed window holds no index
    assert check_delta_is_vertex_hom(U, [(a, a)], (2, -2)) == {"pass": False, "checks": []}


def test_delta_hom_report_shape():
    U = EnvelopingAlgebra(golden.heisenberg())
    a = U.letter((0, 0))
    report = check_delta_is_vertex_hom(U, [(a, a)], (-1, 1))
    assert report["pass"]
    for entry in report["checks"]:
        assert set(entry) == {"left", "right", "n", "pass", "residual_terms",
                              "counit_residual"}
        assert entry["left"] == ":a:"
