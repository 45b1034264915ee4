"""Generated presentations: current algebras of random nilpotent Lie algebras.

`nilpotent_current(seed, n)` draws strictly upper-triangular rational n×n
matrices from a fixed seed, closes their span under commutators with
`linalg.Echelon`, and emits the current algebra Cur(g) of the Lie algebra
g they span: one free generator per basis matrix, [e_i λ e_j] = [e_i, e_j]
with no λ-term.  Jacobi holds by construction, every strictly
upper-triangular algebra is nilpotent, and Cur(g) is graded with Δ = 1.
"""

import random
from fractions import Fraction as Q

from lieconformal import build_presentation
from lieconformal.linalg import Echelon, iadd


def _commutator(a: dict, b: dict) -> dict:
    # sparse matrices keyed (row, column)
    out: dict = {}
    for (i, k), x in a.items():
        for (k2, j), y in b.items():
            if k == k2:
                iadd(out, {(i, j): x * y})
            if j == i:
                iadd(out, {(k2, k): -x * y})
    return out


def _random_matrix(rng: random.Random, n: int) -> dict:
    cells = [(i, j) for i in range(n) for j in range(i + 1, n)]
    out: dict = {}
    for cell in rng.sample(cells, k=rng.randint(1, len(cells))):
        iadd(out, {cell: Q(rng.choice([-2, -1, 1, 2, 3]), rng.choice([1, 1, 2]))})
    return out


def nilpotent_current(seed: int, n: int, draws: int = 2):
    """Cur(g) for g spanned by ``draws`` random strictly upper-triangular
    n×n matrices and all their iterated commutators."""
    rng = random.Random(seed)
    ech = Echelon()
    basis: list = []  # matrices independent when inserted, in order

    def add(m: dict) -> None:
        if ech.insert(m, {len(basis): 1}) is not None:
            basis.append(m)

    for _ in range(draws):
        add(_random_matrix(rng, n))
    done = 0
    while done < len(basis):
        for other in basis[:done + 1]:
            add(_commutator(basis[done], other))
        done += 1

    def coordinates(m: dict) -> dict:
        # m minus the combination `reduce` records is zero, so m is minus it
        combo: dict = {}
        assert not ech.reduce(m, combo)
        return {i: -c for i, c in combo.items() if c}

    names = [f"e{i}" for i in range(len(basis))]
    brackets = {}
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            coords = coordinates(_commutator(basis[i], basis[j]))
            if coords:
                brackets[(names[i], names[j])] = {0: {(names[k], 0): c for k, c in coords.items()}}
    return build_presentation(f"cur{n}_{seed}", [(name, None) for name in names], brackets)
