"""Shared golden presentations used across the test suite."""

from fractions import Fraction as Q

from lieconformal import build_presentation, dsl


def abelian1():
    return build_presentation("abelian1", [("a", None)])


def abelian2():
    return build_presentation("abelian2", [("a", None), ("b", None)])


def heisenberg():
    return build_presentation(
        "heisenberg",
        [("a", None), ("k", 1)],
        {("a", "a"): {1: {("k", 0): 1}}},
    )


def virasoro():
    return build_presentation(
        "virasoro",
        [("L", None), ("C", 1)],
        {
            ("L", "L"): {
                0: {("L", 1): 1},
                1: {("L", 0): 2},
                3: {("C", 0): Q(1, 12)},
            }
        },
    )


def n3_current():
    """Current algebra of the free 3-step nilpotent Lie algebra on x, y."""
    gens = [("x", None), ("y", None), ("z", None), ("w1", None), ("w2", None)]
    return build_presentation(
        "n3current",
        gens,
        {
            ("x", "y"): {0: {("z", 0): 1}},
            ("x", "z"): {0: {("w1", 0): 1}},
            ("y", "z"): {0: {("w2", 0): 1}},
        },
    )


def mixed():
    """Nilpotent algebra whose symbol basis is not weight-adapted."""
    return build_presentation(
        "mixed",
        [("a", None), ("b", 2), ("k", 1)],
        {("a", "a"): {1: {("k", 0): 1, ("b", 1): 2}}},
    )


UNGRADED = """algebra ungraded {
  generators { a: free; k: torsion(1); }
  bracket [a, a] = lambda*k + lambda^3*k;
}"""


def ungraded():
    """Nilpotent algebra without conformal weights: the two terms of its
    bracket force Δ_k = 2Δ_a - 2 and Δ_k = 2Δ_a - 4 at once."""
    pres, _ = dsl.load_presentation(UNGRADED)
    return pres


def corrupted_heisenberg():
    """Constant self-bracket; violates antisymmetry."""
    return build_presentation(
        "badheis",
        [("a", None), ("k", 1)],
        {("a", "a"): {0: {("k", 0): 1}}},
    )


def corrupted_jacobi():
    """Bracket table whose underlying Lie structure fails Jacobi."""
    return build_presentation(
        "badjac",
        [("x", None), ("y", None), ("z", None)],
        {
            ("x", "y"): {0: {("z", 0): 1}},
            ("x", "z"): {0: {("x", 0): 1}},
        },
    )


def corrupted_torsion():
    """Nonzero bracket against a torsion generator."""
    return build_presentation(
        "badtor",
        [("a", None), ("k", 1)],
        {("a", "k"): {0: {("a", 0): 1}}},
    )


NILPOTENT = [abelian1, abelian2, heisenberg, n3_current, mixed]
ALL_GOLDEN = [abelian1, abelian2, heisenberg, virasoro, n3_current]


def build_current_heisenberg():
    """Current algebra of the Heisenberg Lie algebra with a central torsion target."""
    return build_presentation(
        "heiscurrent",
        [("x", None), ("y", None), ("z", 1)],
        {("x", "y"): {0: {("z", 0): 1}}},
    )
