"""Truncated coefficient tables of the dual vertex structure.

For every output basis position l and integer index n in a window, the
table stores the coefficients of the paired-variable power series whose
plain monomial ``X^k Y^k'`` carries ``<l-component of e_k (n) e_k'>``
divided by the factorials of both exponent multi-indices.  The divided
powers make the degree-(1, 1) slice reproduce the structure constants
on the nose, and the axiom checks below operate on the tables alone.

Monomial bookkeeping: the table's storage, its JSON and `check_law_hom`'s
substitutions spell a monomial as a multi-index, a sorted tuple of (basis
key, positive exponent) pairs; all else spells it as the sorted word of
its letters, each repeated by its exponent, as the enveloping algebra
does, so its degree is its length, a product is its factors' letters,
sorted, and `word_factorial` gives its exponents' factorials.  Composed
series spell monomials so over slotted letters (slot, basis key).

Extraction builds one record (multi-index, word, norm, weight) per
multi-index, once per table and by ascending norm, so a pair reads its
norm, weight and words off two records.  The left-vacuum row is filled
from the vacuum axiom before the other pairs: every bound is 0 and only
a (-1)-cell is read.  Every cell is read by `law_cell`, the one reader,
shared with `manifold`: the single letters of the product of the two
words that `EnvelopingAlgebra.word_nth` reads off the kept word
products, divided by k! k'! when that is not 1.

By conformal weight (``LcaPresentation.conformal_weights``) the cell
(k, k', n) can only hold letters of weight W(k) + W(k') - n - 1, so
extraction skips a cell when no letter has that weight, or only letters
out of depth do and the cell's degree has overflowed already; the table
is the one that computing every cell gives.  The indices a letter can
weigh are listed once per pair weight and top index, each with the
shallowest depth of such a letter, so a pair reads only those.  A
presentation without conformal weights, or a basis whose letters are not
one symbol, takes the trivial grading, under which every cell weighs 0
and is computed.

The law Jacobi check runs one three-sum per sample, whose terms carry
every position's polynomial at once as one flat map from (position,
slotted monomial) to a coefficient, so the residual adds exact scalars,
up to the stops over all positions; a position's terms from its own stop
on are zero and left out, and each position keeps the first raise its
own terms meet.  The pairs with an empty side are read off the vacuum
axiom (`law_cell`, `EnvelopingAlgebra.word_bound`), not built.

Each table cell is a pure function of the product caches, so extraction
may be parallelized over cells; report assembly is a deterministic
reduction independent of completion order.
"""

from __future__ import annotations

import math
import re
from collections import Counter, defaultdict
from fractions import Fraction
from functools import partial
from itertools import combinations_with_replacement

from .core import judge, three_sum
from .enveloping import EnvelopingAlgebra
from .errors import TruncationInsufficient
from .filtration import RawBasis
from .linalg import DIGITS_LIMIT, iadd, scale

Q = Fraction

# A coefficient as `LawTable.to_json` writes it, p or p/q with q nonzero.
_COEFF = re.compile(r"-?[0-9]+(?:/0*[1-9][0-9]*)?")

# the fields `LawTable.from_json` needs of a document and of an entry
_FIELDS = frozenset({"algebra", "degree", "depth", "window", "basis", "entries"})
_ENTRY_FIELDS = frozenset({"l", "n", "k", "kprime", "coeff"})

MIdx = tuple  # sorted ((key, exp), ...)
EMPTY: MIdx = ()


def midx_from_word(word) -> MIdx:
    out: dict = {}
    for k in word:
        out[k] = out.get(k, 0) + 1
    return tuple(sorted(out.items()))


def word_from_midx(m: MIdx) -> tuple:
    out = []
    for k, e in m:
        out.extend([k] * e)
    return tuple(sorted(out))


def midx_norm(m: MIdx) -> int:
    return sum(e for _, e in m)


def word_factorial(word: tuple) -> int:
    """Π e! over the letter multiplicities e of a sorted word."""
    out = run = 1
    for prev, letter in zip(word, word[1:]):
        run = run + 1 if letter == prev else 1
        out *= run
    return out


def _poly_madd(out: dict, p1: dict, p2: dict, cap: int, c=1) -> dict:
    """out += c * p1 * p2 for slotted polynomials, in place, dropping
    terms of degree above cap; returns out."""
    for m1, c1 in p1.items():
        room = cap - len(m1)
        # distinct m2 give distinct products with m1
        iadd(out, {tuple(sorted(m1 + m2)): c2 for m2, c2 in p2.items() if len(m2) <= room}, c * c1)
    return out


def word_top(word: tuple, maxn) -> int:
    """Top index of the product series of ``word``; -1 for the empty word."""
    return sum(maxn(f) + 1 for f in word) - 1


def word_floor(word: tuple, maxn, lo: int) -> int:
    """Least index of a nonempty word's product series needing no index below lo."""
    return lo + word_top(word, maxn) - min(map(maxn, word))


def word_series(word: tuple, series: dict, maxn, lo: int, madd, memo: dict) -> dict:
    """Product series {q: coefficient} of the series of the letters of ``word``.

    ``series[f]`` holds only the nonzero x-coefficients {m: coefficient} of
    letter f, none below ``lo`` or above ``maxn(f)``; a letter it lacks has
    the zero series.  The product of r series takes coefficient q from the
    index tuples with m_1 + ... + m_r + r - 1 = q.  Kept are the nonzero
    coefficients from `word_floor` to the top.  A word is its prefix times
    its last letter.  The caller picks the coefficients: ``madd(out, q,
    tail, head)`` adds tail * head into ``out[q]``, and ``memo`` starts out
    holding the empty word's series, {-1: the unit}.
    """
    cached = memo.get(word)
    if cached is not None:
        return cached
    floor = word_floor(word, maxn, lo)
    tails = word_series(word[:-1], series, maxn, lo, madd, memo).items()
    out: dict = {}
    for m, head in series.get(word[-1], {}).items():
        for t, tail in tails:
            if t + m + 1 >= floor:
                madd(out, t + m + 1, tail, head)
    cached = memo[word] = {t: p for t, p in out.items() if p}
    return cached


def _slot_monomial(word: tuple, slot: int) -> tuple:
    """The letters of a sorted word in one slot, in order."""
    return tuple((slot, k) for k in word)


def _check_ranges(degree, depth, window) -> None:
    """Raise ValueError unless degree and depth are nonnegative ints and the
    window is two ints lo <= hi, as a list or a tuple: the ranges a table
    document holds (`LawTable.from_json`)."""
    for name, value in (("degree", degree), ("depth", depth)):
        if type(value) is not int or value < 0:
            raise ValueError(f"{name} {value!r} is not a nonnegative integer")
    if type(window) not in (list, tuple) or len(window) != 2 \
            or any(type(e) is not int for e in window) or window[0] > window[1]:
        shown = list(window) if type(window) is tuple else window
        raise ValueError(f"window {shown!r} is not two integers lo <= hi")


class LawTable:
    """Coefficient law of a presentation, truncated in degree, depth, index."""

    def __init__(self, algebra: str, degree: int, depth: int, window, positions):
        self.algebra = algebra
        self.degree = degree
        self.depth = depth
        self.window = (int(window[0]), int(window[1]))
        self.positions = list(positions)  # ordered basis keys of the slice
        self.pos_index = {k: i for i, k in enumerate(self.positions)}
        self.labels: dict = {}
        # (l key, n) -> {(k, k'): coefficient}
        self.entries: dict = {}
        # (k, k') -> exact vanishing bound of the underlying product
        self.pair_bounds: dict = {}
        # degrees |k|+|k'| whose products had output positions beyond depth
        self.overflow_degrees: set = set()

    # -- storage -------------------------------------------------------------

    def add_entry(self, l, n: int, k: MIdx, kp: MIdx, c: Q) -> None:
        if c == 0:
            return
        cell = iadd(self.entries.setdefault((l, n), {}), {(k, kp): c})
        if not cell:
            del self.entries[(l, n)]

    def coefficient(self, l, n: int, k: MIdx, kp: MIdx) -> Q:
        return self.entries.get((l, n), {}).get((k, kp), Q(0))

    def series_entry(self, l, n: int) -> dict:
        return self.entries.get((l, n), {})

    @property
    def complete_above(self) -> bool:
        """All domain products certifiably vanish above the window top."""
        hi = self.window[1]
        return all(b - 1 <= hi for b in self.pair_bounds.values())

    # -- serialization ----------------------------------------------------------

    def _midx_json(self, m: MIdx) -> dict:
        return {self.labels[k]: e for k, e in m}

    def to_json(self) -> dict:
        # by position, index and pair; the pairs of a cell are distinct
        entries = [
            {"l": self.labels[l], "n": n, "k": self._midx_json(k), "kprime": self._midx_json(kp),
             "coeff": str(c)}
            for l, n in sorted(self.entries, key=lambda ln: (self.pos_index[ln[0]], ln[1]))
            for (k, kp), c in sorted(self.entries[l, n].items())
        ]
        bounds = [
            [self._midx_json(k), self._midx_json(kp), b]
            for (k, kp), b in sorted(self.pair_bounds.items())
            if b > 0
        ]
        return {
            "algebra": self.algebra,
            "degree": self.degree,
            "depth": self.depth,
            "window": list(self.window),
            "basis": [self.labels[k] for k in self.positions],
            "entries": entries,
            "bounds": bounds,
            "overflow_degrees": sorted(self.overflow_degrees),
        }

    @classmethod
    def from_json(cls, doc: dict) -> "LawTable":
        """The table of a `to_json` document; any other raises ValueError."""
        if type(doc) is not dict or not _FIELDS <= doc.keys():
            raise ValueError(f"document {doc!r:.60} is not an object with fields {sorted(_FIELDS)}")
        window = doc["window"]
        _check_ranges(doc["degree"], doc["depth"], window)
        for name in ("basis", "entries", "bounds", "overflow_degrees"):
            if type(doc.get(name, [])) is not list:
                raise ValueError(f"{name} {doc[name]!r:.40} is not a list")
        basis = doc["basis"]
        if any(type(k) is not str for k in basis) or len(set(basis)) != len(basis):
            raise ValueError(f"basis {basis!r} is not of distinct string labels")
        overflow = doc.get("overflow_degrees", [])
        bad = [d for d in overflow if type(d) is not int or not 0 <= d <= doc["degree"]]
        if bad:
            raise ValueError(f"overflow degrees {bad!r} are not integers in 0..{doc['degree']}")
        table = cls(doc["algebra"], doc["degree"], doc["depth"], window, basis)
        table.labels = {k: k for k in basis}

        def midx(d):
            if type(d) is not dict:
                raise ValueError(f"multi-index {d!r} is not an object of label exponents")
            stray = set(d) - table.labels.keys()
            if stray:
                raise ValueError(f"labels {sorted(stray)} are not in the basis")
            bad = [e for e in d.values() if type(e) is not int or e < 1]
            if bad:
                raise ValueError(f"exponents {bad} are not positive integers")
            return tuple(sorted(d.items()))

        def pair(k, kp):
            out = midx(k), midx(kp)
            if midx_norm(out[0]) + midx_norm(out[1]) > table.degree:
                raise ValueError(f"pair {k}, {kp} is beyond degree {table.degree}")
            return out

        cells = set()
        for i, e in enumerate(doc["entries"]):
            if type(e) is not dict or not _ENTRY_FIELDS <= e.keys():
                raise ValueError(f"entry {i} {e!r:.60} is not an object with fields {sorted(_ENTRY_FIELDS)}")
            if type(e["n"]) is not int:
                raise ValueError(f"entry index {e['n']!r} is not an integer")
            if not table.window[0] <= e["n"] <= table.window[1]:
                raise ValueError(f"entry index {e['n']} outside window {table.window}")
            if type(e["l"]) is not str or e["l"] not in table.labels:
                raise ValueError(f"output label {e['l']!r} is not in the basis")
            c = e["coeff"]
            if type(c) is not str or not _COEFF.fullmatch(c) \
                    or len(c) - c.count("/") - c.count("-") > DIGITS_LIMIT:
                raise ValueError(f"entry {i} coefficient {c!r:.40} is not p or p/q with q nonzero "
                                 f"in at most {DIGITS_LIMIT} digits")
            cell = (e["l"], e["n"], *pair(e["k"], e["kprime"]))
            if cell in cells:
                raise ValueError(f"entry {i} repeats the cell {e['l']}, {e['n']}, {e['k']}, {e['kprime']}")
            cells.add(cell)
            table.add_entry(*cell, Q(c))
        for i, bound in enumerate(doc.get("bounds", [])):
            if type(bound) is not list or len(bound) != 3:
                raise ValueError(f"bound {i} {bound!r:.40} is not a list [k, kprime, bound]")
            k, kp, b = bound
            if type(b) is not int or b < 0:
                raise ValueError(f"bound {b!r} is not a nonnegative integer")
            key = pair(k, kp)
            if key in table.pair_bounds:
                raise ValueError(f"bound {i} repeats the pair {k}, {kp}")
            table.pair_bounds[key] = b
        table.overflow_degrees = set(overflow)
        return table


def law_cell(env: EnvelopingAlgebra, wu: tuple, wv: tuple, n: int) -> dict:
    """Single-letter part of ``wu (n) wv`` for two sorted words, divided by
    their `word_factorial` k! k'!, by letter.

    The one reading of a table cell, shared with `manifold`: the product
    is read off the kept word products by `EnvelopingAlgebra.word_nth`,
    which takes a product with an empty side from the vacuum axiom and
    builds none, and it is scaled only when k! k'! is not 1.
    """
    prod = env.word_nth(wu, wv, n)
    cell = {w[0]: c for w, c in prod.terms.items() if len(w) == 1}
    norm = word_factorial(wu) * word_factorial(wv)
    return scale(cell, Q(1, norm)) if norm != 1 and cell else cell


class _Grading:
    """Conformal weights of cells, scaled to ints, for skipping cells.

    The cell (wu, wv, n) of two sorted words can only hold letters weighing
    ``weight[wu] + weight[wv] - step * (n + 1)``; a word's weight is kept
    once asked for, summed from the weights of its one-letter words.
    ``depths[w]`` holds the depths d < torsion at which some letter (g, d)
    weighs w, at most one per generator, kept once asked for.  A
    presentation without conformal weights, or a basis whose letters are
    not one symbol, takes the trivial grading: ∂ and every letter weigh 0,
    so every cell weighs 0 and a depth-0 letter can fill it.
    """

    def __init__(self, env: EnvelopingAlgebra):
        basis = env.basis
        delta = env.pres.conformal_weights()
        if delta is None or not (isinstance(basis, RawBasis) or basis.graded):
            # the trivial grading; no cell weighs other than 0
            self.step, self.weight, self.depths = 0, defaultdict(int), {0: (0,)}
            return
        self.step = step = math.lcm(*(Q(x).denominator for x in delta))
        gen_w = [int(x * step) for x in delta]
        symbol_valid = env.pres.symbol_valid

        class Weights(dict):
            def __missing__(self, word: tuple) -> int:
                if len(word) == 1:
                    ((g, d),) = basis.vector(word[0]).coeffs
                    w = self[word] = gen_w[g] + step * d
                else:
                    w = self[word] = sum(self[(key,)] for key in word)
                return w

        class Depths(dict):
            def __missing__(self, w: int) -> tuple:
                ds = self[w] = tuple(
                    d
                    for g, wg in enumerate(gen_w)
                    for d, r in (divmod(w - wg, step),)
                    if not r and symbol_valid((g, d))
                )
                return ds

        self.weight = Weights()
        self.depths = Depths()

    def cell(self, wu: tuple, wv: tuple, n: int) -> int:
        return self.weight[wu] + self.weight[wv] - self.step * (n + 1)


def extract_law(env: EnvelopingAlgebra, degree: int, depth: int, window) -> LawTable:
    """Fill the table from the enveloping products over the stated ranges.

    Each pair's indices are walked downward, so a degree's overflow shows
    at its shallowest cell.  A cell is computed only when an in-depth
    position has its weight, or a deeper letter has it and the degree has
    not overflowed yet; the others cannot change the table.  The walk is
    one list per pair weight and top index, built once per table: the
    indices from the top down to the window's bottom at which some letter
    has the cell's weight, each with the shallowest depth of such a letter.
    A pair reads its norms, weights and words off one record per
    multi-index, and hands its words to `law_cell`.  The left-vacuum row
    comes first, from the vacuum axiom: each of its pairs takes bound 0,
    and its (-1)-cell is read when the window holds -1 and some letter has
    the weight of k'.  A pair with an empty right side takes bound 0 as well.
    Raises ValueError on a degree, depth or window that
    `LawTable.from_json` would refuse, before anything is built.
    """
    _check_ranges(degree, depth, window)
    basis = env.basis
    positions = basis.keys_up_to_depth(depth)
    table = LawTable(env.pres.name, degree, depth, window, positions)
    table.labels = {k: basis.label(k) for k in positions}
    lo, hi = table.window
    grading = _Grading(env)
    step, depths, weight = grading.step, grading.depths, grading.weight

    # one record (multi-index, word, norm, weight) per multi-index, by
    # ascending norm; the first ends[d] have norm <= d.  The positions
    # ascend, so each word is sorted
    records = [(EMPTY, (), 0, 0)]
    ends = [1]
    for size in range(1, degree + 1):
        for w in combinations_with_replacement(positions, size):
            records.append((midx_from_word(w), w, size, weight[w]))
        ends.append(len(records))

    class Walks(dict):
        # (base, top) -> the indices n from top down to lo at which a letter
        # weighs base - step * n, each with the shallowest such depth
        def __missing__(self, key: tuple) -> tuple:
            base, top = key
            walk = self[key] = tuple(
                (n, min(ds))
                for n in range(top, lo - 1, -1)
                for ds in (depths[base - step * n],)
                if ds
            )
            return walk

    walks = Walks()
    bounds, overflow = table.pair_bounds, table.overflow_degrees
    # the left-vacuum row by the vacuum axiom: 1_(n)v = δ_{n,-1} v, so every
    # bound is 0 and only a (-1)-cell can be nonzero, one weighing W(k')
    for kp, wv, _, wkp in records[: ends[degree]]:
        bounds[EMPTY, kp] = 0
        if lo <= -1 <= hi and depths[wkp]:
            for l, c in law_cell(env, (), wv, -1).items():
                table.add_entry(l, -1, EMPTY, kp, c)
    for k, wu, dk, wk in records[1:]:
        # cell (k, k', n) weighs wk + wkp - step * (n + 1)
        base = wk - step
        for kp, wv, dkp, wkp in records[: ends[degree - dk]]:
            bound = bounds[k, kp] = env.word_bound(wu, wv)
            deg = dk + dkp
            overflowed = deg in overflow
            for n, shallowest in walks[base + wkp, min(hi, bound - 1)]:
                if overflowed and shallowest > depth:
                    continue
                for l, c in law_cell(env, wu, wv, n).items():
                    if l in table.pos_index:
                        table.add_entry(l, n, k, kp, c)
                    else:
                        overflow.add(deg)
                        overflowed = True
    return table


# -- identity-slice checks --------------------------------------------------------


def check_identities(table: LawTable) -> dict:
    """Left and right identity slices of the law; a table with no
    positions holds neither slice, so both fail."""
    failures = [{"side": side, "reason": "table has no positions"}
                for side in ("left", "right") if not table.positions]
    for (l, n), cell in sorted(
        table.entries.items(), key=lambda kv: (table.pos_index[kv[0][0]], kv[0][1])
    ):
        unit = ((l, 1),)
        for (k, kp), c in sorted(cell.items()):
            # the vacuum on either side leaves e_l alone at n = -1 and kills
            # the rest; the creation slices n < -1 on the right are free
            for side, vac, other in (("left", k, kp), ("right", kp, k)):
                if vac == EMPTY and (side == "left" or n >= -1) \
                        and c != (1 if n == -1 and other == unit else 0):
                    failures.append({"side": side, "l": table.labels[l], "n": n, "coeff": str(c)})
    # the identity slices themselves must be present
    for l in table.positions:
        for side, k, kp in (("left", EMPTY, ((l, 1),)), ("right", ((l, 1),), EMPTY)):
            if table.coefficient(l, -1, k, kp) != 1:
                failures.append({"side": side, "l": table.labels[l], "n": -1, "coeff": "missing"})
    left_ok = all(f["side"] != "left" for f in failures)
    right_ok = all(f["side"] != "right" for f in failures)
    return {"left_identity": left_ok, "right_identity": right_ok, "failures": failures}


def check_convergence_bound(table: LawTable, r: int, index_set) -> dict:
    """Least window index past which the (r, I)-relevant coefficients vanish."""
    idx = set(index_set)

    def relevant(k, kp):
        if midx_norm(k) + midx_norm(kp) > r:
            return False
        return all(p in idx for p, _ in k) and all(p in idx for p, _ in kp)

    top = -1
    for (l, n), cell in table.entries.items():
        if n < 0:
            continue
        if any(relevant(k, kp) for (k, kp) in cell):
            top = max(top, n)
    candidate = top + 1
    certified = all(
        b - 1 <= table.window[1]
        for (k, kp), b in table.pair_bounds.items()
        if relevant(k, kp)
    )
    if not certified:
        return {"found": False, "reason": "window too small to certify vanishing"}
    return {"found": True, "bound": candidate}


# -- composed-series machinery ----------------------------------------------------


class _Composer:
    """Coefficient-level composition of law series over slotted variables."""

    def __init__(self, table: LawTable, cap: int):
        self.table = table
        self.cap = cap
        self.lo, self.hi = table.window
        # each position's law series {n: {(wu, wv): c}} over the window, by
        # ascending n, each pair of multi-indices spelled as its two sorted
        # words, with the terms of degree above cap dropped
        self._law: dict = {}
        for (l, n), cell in sorted(table.entries.items(), key=lambda e: e[0][1]):
            words = {(word_from_midx(k), word_from_midx(kp)): c for (k, kp), c in cell.items()}
            kept = {ww: c for ww, c in words.items() if len(ww[0]) + len(ww[1]) <= cap}
            if kept and self.lo <= n <= self.hi:
                self._law.setdefault(l, {})[n] = kept
        self._maxn = {l: max(law) for l, law in self._law.items()}
        self._slotted: dict = {}
        # word product series per slot pair, seeded with the empty word's
        self._conv_memo = defaultdict(lambda: {(): {-1: {(): 1}}})
        self._madd = lambda out, q, tail, head: _poly_madd(out.setdefault(q, {}), tail, head, cap)
        # composed coefficients by their arguments; callers only read them
        self._composed_memo: dict = {}
        # certified stops of the three-sum terms at each position: one past
        # the top index of the product series of any word its kept cells
        # substitute, per substitution side (the second word in the first
        # two terms, the first in the third); a term at an inner
        # index from its position's stop on is zero there, and the
        # `global_stops` that the sums run to are the largest over all
        # positions
        self.stops: dict = {}
        for pos, law in self._law.items():
            kept = [pair for cell in law.values() for pair in cell]
            first = max(word_top(wu, self.maxn) for wu, _ in kept) + 1
            second = max(word_top(wv, self.maxn) for _, wv in kept) + 1
            self.stops[pos] = (second, second, first)
        self.global_stops = tuple(map(max, zip(*self.stops.values()))) or (0, 0, 0)

    def maxn(self, pos) -> int:
        return self._maxn.get(pos, self.lo - 1)

    def slotted(self, slots) -> dict:
        """Every position's kept law series as slotted polynomials, built
        once per slot pair."""
        out = self._slotted.get(slots)
        if out is None:
            # the slots ascend, so the halves join sorted, and distinct cells
            # give distinct monomials
            out = self._slotted[slots] = {
                pos: {n: {_slot_monomial(wu, slots[0]) + _slot_monomial(wv, slots[1]): c
                          for (wu, wv), c in cell.items()}
                      for n, cell in law.items()}
                for pos, law in self._law.items()
            }
        return out

    def conv(self, word: tuple, q: int, slots) -> dict:
        """x-coefficient q of the product of position series."""
        floor = word_floor(word, self.maxn, self.lo) if word else q
        if q < floor:
            # the least index of a position series that coefficient q needs
            raise TruncationInsufficient(
                f"composition needs index {self.lo + q - floor} below window {self.table.window}")
        memo = self._conv_memo[slots]
        return word_series(word, self.slotted(slots), self.maxn, self.lo, self._madd, memo).get(q, {})

    def composed(self, outer_n: int, inner_n: int, direct_slot: int,
                 inner_slots, substitute_first: bool) -> tuple:
        """One mixed coefficient of the law applied to a law, for every
        position at once, as (values, raises).

        ``direct_slot`` receives the unsubstituted word; the other word is
        substituted by the composed series over
        ``inner_slots`` and the ``inner_n`` coefficient is taken.  The
        values map (position, slotted monomial) to a nonzero coefficient;
        the raises map a position to the `TruncationInsufficient` its
        coefficient meets, and such a position has no values: every
        position when ``outer_n`` is below the window, else a position
        whose substituted series needs an index below it.  A position
        whose own stop for the substituted side is at most ``inner_n`` is
        left out: its coefficient is zero.
        """
        if outer_n < self.lo:
            exc = TruncationInsufficient(f"outer index {outer_n} outside window {self.table.window}")
            return {}, dict.fromkeys(self.table.positions, exc)
        key = (outer_n, inner_n, direct_slot, inner_slots, substitute_first)
        out = self._composed_memo.get(key)
        if out is not None:
            return out
        values, raises = out = self._composed_memo[key] = {}, {}
        # the substituted series' coefficient, by word
        inners: dict = {}
        for pos, law in self._law.items():
            cell = law.get(outer_n)
            if cell is None or self.stops[pos][2 if substitute_first else 0] <= inner_n:
                continue
            poly: dict = {}
            try:
                for (wu, wv), c in cell.items():
                    direct, subst = (wv, wu) if substitute_first else (wu, wv)
                    inner = inners.get(subst)
                    if inner is None:
                        inner = inners[subst] = self.conv(subst, inner_n, inner_slots)
                    if inner:
                        _poly_madd(poly, {_slot_monomial(direct, direct_slot): 1}, inner, self.cap, c)
            except TruncationInsufficient as exc:
                raises[pos] = exc
                continue
            for m, c in poly.items():
                values[pos, m] = c
        return out


def _guard_table(table: LawTable, cap: int) -> None:
    # Window and degree coverage are certified here; depth sufficiency is
    # not table-decidable (missing deep-argument cells would surface as a
    # nonzero residual, not a false pass) and is cross-checked against the
    # enveloping products in the test suite.
    if cap < 1:
        raise ValueError(f"check degree {cap} compares nothing; it must be at least 1")
    if cap > table.degree:
        raise TruncationInsufficient(
            f"check degree {cap} exceeds table degree {table.degree}"
        )
    if not table.complete_above:
        raise TruncationInsufficient(
            "table window too small to certify vanishing above its top"
        )


def check_law_jacobi(table: LawTable, samples, cap: int) -> dict:
    """Coefficient identity of the law at sampled integer triples.

    Verifies, for every output position and every monomial of total
    degree at most ``cap``, the three binomial-weighted composition sums.
    One three-sum per sample carries every position: its terms and its
    residual are flat maps from (position, slotted monomial) to an exact
    coefficient, and each sum runs to the stop over all positions, while
    a position's terms from its own stop on, one past the top inner index
    over the words its kept cells substitute, are zero and left
    out.  An outer index below the window raises
    `TruncationInsufficient` for every position, a composition needing an
    index below it only for the positions that substitute that word; each
    position keeps the first its own terms meet.  Positions are judged in
    order: a position's raise is raised, else a nonzero residual fails,
    naming its number of monomials, the residual's keys at the position.
    Judged by `core.judge`: stops at the first failing entry, and fails
    with its reason when no entry was checked.
    """
    _guard_table(table, cap)
    if not table.positions:
        return {"pass": False, "checks": [], "reason": "table has no positions"}
    comp = _Composer(table, cap)
    # each position's first raise in the current sample
    raised: dict = {}

    def term(args, outer, inner):
        values, raises = comp.composed(outer, inner, *args)
        for pos, exc in raises.items():
            raised.setdefault(pos, exc)
        # a position's terms from its first raise on are left out
        return {key: c for key, c in values.items() if key[0] not in raised} if raised else values

    # u_(v_ w), v_(u_ w) and (u_ v)_ w from the law composed with itself
    terms = [partial(term, args) for args in ((0, (1, 2), False), (1, (0, 2), False), (2, (0, 1), True))]

    def entries():
        for (l, t, j) in samples:
            raised.clear()
            resid = three_sum(l, t, j, comp.global_stops, terms)
            monomials_of = Counter(pos for pos, _ in resid)
            for pos in table.positions:
                if pos in raised:
                    raise raised[pos]
                monomials = monomials_of[pos]
                yield {"ltj": [l, t, j], "l": table.labels.get(pos, str(pos)),
                       "pass": not monomials, "residual_monomials": monomials}

    return judge(entries())


def check_law_hom(alpha: dict, src: LawTable, dst: LawTable) -> dict:
    """Whether a constant-free substitution intertwines two laws.

    ``alpha`` maps destination positions to polynomials over source
    positions, given as {midx over src keys: coefficient}.  Checked over
    the indices both windows share, and judged by `core.judge`: stops at
    the first failing entry and fails with its reason when no entry was
    checked.
    """
    if any(poly.get(EMPTY, 0) for poly in alpha.values()):
        raise ValueError("law homomorphisms have zero constant term")
    cap = min(src.degree, dst.degree)
    _guard_table(src, cap)
    comp = _Composer(src, cap)
    lo = max(src.window[0], dst.window[0])
    hi = min(src.window[1], dst.window[1])
    # alpha over sorted words, and per slot its terms of degree up to cap
    # slotted; distinct words give distinct slotted monomials
    alpha = {pos: {word_from_midx(m): c for m, c in poly.items()} for pos, poly in alpha.items()}
    slotted = {(pos, slot): iadd({}, {_slot_monomial(w, slot): c for w, c in poly.items() if len(w) <= cap})
               for pos, poly in alpha.items() for slot in (0, 1)}

    def entries():
        for dpos in dst.positions:
            apoly = alpha.get(dpos, {})
            for n in range(lo, hi + 1):
                # alpha applied to the source law series
                lhs: dict = {}
                for w, c in apoly.items():
                    iadd(lhs, comp.conv(w, n, (0, 1)), c)
                # destination law with substituted arguments
                rhs: dict = {}
                for (k, kp), c in dst.series_entry(dpos, n).items():
                    if midx_norm(k) + midx_norm(kp) > cap:
                        continue
                    poly = {(): 1}
                    for slot, m in ((0, k), (1, kp)):
                        for p in word_from_midx(m):
                            poly = _poly_madd({}, poly, slotted.get((p, slot), {}), cap)
                    iadd(rhs, poly, c)
                resid = iadd(dict(lhs), rhs, -1)
                yield {"target": dst.labels.get(dpos, str(dpos)), "n": n,
                       "pass": not resid, "residual_monomials": len(resid)}

    return judge(entries())
