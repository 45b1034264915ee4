"""The three benchmark workloads: inputs, operations and output checks.

A workload is built from the imported `lieconformal` package, the root of
the checkout, a seed and a `reduced` flag (the smaller input used by the
self-check).  Building it is the set-up a round times.  `operations()`
lists the timed calls of one round, `failed()` counts the operations that
hit a known fault, and `check()` compares the results against values made
apart from the code under test or against properties the method must
have; it returns one line per problem.

The seed changes only what does not change the amount of work: the order
of independent operations and the nonzero rational values of points and
vector coefficients.  Supports, truncations and windows are fixed.
"""

from __future__ import annotations

import json
import os
import random
from functools import partial
from fractions import Fraction as Q
from pathlib import Path

ALL_LTJ = [(l, t, j) for l in (-1, 0, 1) for t in (-1, 0, 1) for j in (-1, 0, 1)]
POINT_VALUES = [Q(1), Q(-1), Q(2), Q(-2), Q(1, 2), Q(-1, 2), Q(3, 2), Q(-3, 2)]


def _load(lc, root: Path, name: str):
    text = (root / "tests" / "data" / f"{name}.lca").read_text(encoding="utf-8")
    pres, _warnings = lc.dsl.load_presentation(text)
    return pres


# -- law_tables ------------------------------------------------------------------

# ROADMAP's W1: the degree-3 n3current table at depth 2
W1 = ("n3current", 3, 2, 8)
LAW_ALGEBRAS = ("heisenberg", "mixed", "virasoro", "n3current")
NILPOTENT = ("heisenberg", "mixed", "n3current")


def law_table_specs(reduced: bool) -> list[tuple]:
    """(algebra, degree, depth, half window) of every table in one round."""
    specs = [] if reduced else [W1]
    for alg in LAW_ALGEBRAS:
        for degree in ((2,) if reduced else (2, 3)):
            for depth in (0, 1, 2):
                # W1 stands for the deeper degree-3 n3current tables
                if alg == "n3current" and degree == 3 and depth > 0:
                    continue
                for half in ((2, 4) if reduced else (2, 4, 6, 8)):
                    specs.append((alg, degree, depth, half))
    return specs


class LawTables:
    """Cold coefficient-law extractions, each on a fresh enveloping algebra."""

    def __init__(self, lc, root: Path, seed: int, reduced: bool):
        self.lc = lc
        self.pres = {name: _load(lc, root, name) for name in LAW_ALGEBRAS}
        self.specs = law_table_specs(reduced)
        random.Random(seed).shuffle(self.specs)

    def operations(self) -> list:
        return [(spec, self._table_op(spec)) for spec in self.specs]

    def _table_op(self, spec):
        lc = self.lc
        alg, degree, depth, half = spec
        pres = self.pres[alg]
        if spec == W1:
            cap, samples = 3, [(0, 0, 0)]
        else:
            cap, samples = 2, ALL_LTJ

        def op():
            table = lc.extract_law(lc.EnvelopingAlgebra(pres), degree, depth, (-half, half))
            identities = lc.check_identities(table)
            try:
                jacobi = lc.check_law_jacobi(table, samples, cap)
            except lc.TruncationInsufficient:
                jacobi = None  # the table cannot certify the identity
            return table, identities, jacobi

        return op

    def failed(self, results) -> int:
        return 0

    def check(self, results) -> list[str]:
        problems = []
        slice_cache: dict = {}
        for spec, (table, identities, jacobi) in results:
            alg, _degree, _depth, half = spec
            if not (identities["left_identity"] and identities["right_identity"]):
                problems.append(f"{spec}: identity slices fail: {identities['failures'][:3]}")
            for l in table.positions:
                if table.coefficient(l, -1, (), ((l, 1),)) != 1 \
                        or table.coefficient(l, -1, ((l, 1),), ()) != 1:
                    problems.append(f"{spec}: identity slice missing at {table.labels[l]}")
            if jacobi is None:
                if half == 8 and alg in NILPOTENT:
                    problems.append(f"{spec}: a complete nilpotent table did not certify Jacobi")
            elif not jacobi["pass"]:
                problems.append(f"{spec}: law Jacobi fails")
            problems.extend(self._check_slice(spec, table, slice_cache))
            problems.extend(_check_json(self.lc, spec, table))
        return problems

    def _check_slice(self, spec, table, cache) -> list[str]:
        """The degree-(1, 1) slice equals the presentation's structure constants."""
        pres = self.pres[spec[0]]
        basis = self.lc.RawBasis(pres)
        out = []
        for i in table.positions:
            for j in table.positions:
                for n in range(0, table.window[1] + 1):
                    key = (spec[0], i, j, n)
                    if key not in cache:
                        cache[key] = pres.nth_product(basis.vector(i), basis.vector(j), n)
                    prod = cache[key]
                    for l in table.positions:
                        got = table.coefficient(l, n, ((i, 1),), ((j, 1),))
                        if got != prod.coeffs.get(l, 0):
                            out.append(f"{spec}: slice ({i}, {j}, n={n}) at {l} is {got}")
        return out


def _json_entries(doc: dict) -> dict:
    return {
        (e["l"], e["n"], tuple(sorted(e["k"].items())), tuple(sorted(e["kprime"].items()))):
            e["coeff"]
        for e in doc["entries"]
    }


def _check_json(lc, spec, table) -> list[str]:
    """`LawTable.from_json(table.to_json())` reproduces every entry and bound."""
    doc = json.loads(json.dumps(table.to_json()))
    again = lc.LawTable.from_json(doc).to_json()
    out = []
    entries = _json_entries(doc)
    if len(entries) != sum(len(cell) for cell in table.entries.values()):
        out.append(f"{spec}: JSON lost entries")
    if _json_entries(again) != entries:
        out.append(f"{spec}: JSON round trip changed entries")
    bounds = sorted(json.dumps(b, sort_keys=True) for b in doc["bounds"])
    if sorted(json.dumps(b, sort_keys=True) for b in again["bounds"]) != bounds:
        out.append(f"{spec}: JSON round trip changed bounds")
    return out


# -- manifold_jacobi ----------------------------------------------------------------

# point supports by adapted-basis label; the values come from the seed
MANIFOLD_TRIPLES = {
    "heisenberg": [
        (("a[0]",), ("a[0]", "a[1]"), ("a[1]", "k[0]")),
        (("a[0]", "k[0]"), ("a[1]",), ("a[0]",)),
        (("a[1]",), ("a[0]", "a[1]"), ("a[0]", "a[1]")),
    ],
    "mixed": [
        (("b1_0",), ("b1_0", "b1_1"), ("b1_3",)),
        (("b1_0", "b1_4"), ("b1_1",), ("b1_0", "b2_0")),
        (("b1_1",), ("b1_0",), ("b1_0", "b1_1")),
    ],
    "n3current": [
        # the slow triple: most of its time is the series convolution
        (("z[1]",), ("z[1]", "w1[0]"), ("y[0]", "y[1]")),
        (("x[0]",), ("y[0]",), ("y[1]",)),
        (("y[1]", "w1[0]"), ("y[0]",), ("z[0]",)),
        (("z[1]", "w2[0]"), ("x[0]",), ("z[1]",)),
        (("z[0]",), ("z[0]", "z[1]"), ("y[0]",)),
    ],
}
REDUCED_TRIPLES = {"heisenberg": [0], "mixed": [0], "n3current": [2]}
PAIR_WINDOW = (-3, 3)


class ManifoldJacobi:
    """Jacobi residuals and point products on warm integrated manifolds."""

    def __init__(self, lc, root: Path, seed: int, reduced: bool):
        self.lc = lc
        self.seed = seed
        self.pres = {name: _load(lc, root, name) for name in MANIFOLD_TRIPLES}
        self.manifolds = {name: lc.integrate(p) for name, p in self.pres.items()}
        rng = random.Random(seed)
        self.triples = []  # (algebra, (a, b, c))
        for name, triples in MANIFOLD_TRIPLES.items():
            keys = _label_keys(self.manifolds[name])
            chosen = [triples[i] for i in REDUCED_TRIPLES[name]] if reduced else triples
            for supports in chosen:
                pts = tuple({keys[s]: rng.choice(POINT_VALUES) for s in supp}
                            for supp in supports)
                self.triples.append((name, pts))

    def operations(self) -> list:
        ops = []
        for name, (a, b, c) in self.triples:
            M = self.manifolds[name]
            for l, t, j in ALL_LTJ:
                ops.append((("jacobi", name), partial(M.jacobi_residual, a, b, c, l, t, j)))
        for name, (a, b, c) in self.triples:
            M = self.manifolds[name]
            for p, q in ((a, b), (b, c)):
                ops.append((("window", name, p, q), partial(M.product_window, p, q, *PAIR_WINDOW)))
                ops.append((("bound", name, p, q), partial(M.truncation_bound, p, q)))
        return ops

    def failed(self, results) -> int:
        return 0

    def check(self, results) -> list[str]:
        problems = []
        fresh = {name: self.lc.integrate(pres) for name, pres in self.pres.items()}
        window_ns = list(range(PAIR_WINDOW[0], PAIR_WINDOW[1] + 1))
        for label, result in results:
            kind, name = label[0], label[1]
            if kind == "jacobi" and result:
                problems.append(f"{name}: nonzero Jacobi residual {result}")
            elif kind == "window":
                # the warm manifold's slices against a cold one's, built apart
                # from the workload's memos; all vanish from the bound on
                p, q = label[2], label[3]
                if sorted(result.slices) != window_ns:
                    problems.append(f"{name}: product_window covers {sorted(result.slices)}")
                for n, got in result.slices.items():
                    if got != fresh[name].product(p, q, n):
                        problems.append(f"{name}: product_window slice {n} differs "
                                        f"from a freshly integrated manifold")
                    if n >= result.bound and got:
                        problems.append(f"{name}: product_window slice {n} >= bound "
                                        f"{result.bound} is nonzero")
            elif kind == "bound":
                M, p, q = self.manifolds[name], label[2], label[3]
                for n in range(result, result + 5):
                    if M.product(p, q, n):
                        problems.append(f"{name}: product at n={n} >= bound {result} is nonzero")
        for name, pres in self.pres.items():
            recon, _change = self.manifolds[name].tangent_presentation()
            if recon != pres:
                problems.append(f"{name}: tangent presentation differs from the input")
        problems.extend(self._check_exponentials())
        return problems

    def _check_exponentials(self) -> list[str]:
        """Composed products equal enveloping products of coordinate exponentials.

        Runs on freshly integrated manifolds, so the workload's memos are
        left as the timed operations made them.  The points are small:
        the oracle's enveloping products grow fast with the support.
        """
        lc = self.lc
        rng = random.Random(self.seed)
        problems = []
        for name, pres in self.pres.items():
            M = lc.integrate(pres)
            env = M.env
            keys = M.basis.keys_up_to_depth(0)
            supports = [keys[:1], keys[1:2], keys[:1]] if name == "n3current" \
                else [keys[:2]] * 3
            # positive coordinates: a + b + c, the (-1, -1) product, cannot vanish
            pts = [{k: Q(rng.choice((1, 2, 3))) for k in supp} for supp in supports]
            a, b, c = pts
            Ea, Eb, Ec = (M.exponential_element(p) for p in pts)
            nonzero = 0
            for p, q in ((-1, -1), (0, -1), (-1, 0), (-2, 0)):
                want = M.basis.expand(env.pi(env.nth(Ea, env.nth(Eb, Ec, q), p)))
                if M.composed(a, b, c, p, q) != want:
                    problems.append(f"{name}: composed({p}, {q}) differs from exponentials")
                want_first = M.basis.expand(env.pi(env.nth(env.nth(Ea, Eb, q), Ec, p)))
                if M.composed_first(a, b, c, p, q) != want_first:
                    problems.append(f"{name}: composed_first({p}, {q}) differs")
                nonzero += bool(want) + bool(want_first)
            if not nonzero:
                problems.append(f"{name}: the exponential oracle compared only zeros")
        return problems


def _label_keys(M) -> dict:
    return {M.basis.label(k): k for k in M.basis.keys_up_to_depth(1)}


# -- cli_session ------------------------------------------------------------------

# the worked example of the root README, with its hand-derived products:
# a(n)a is a[1] at n=-2, 2a at n=-1, k at n=1, and vanishes from n=2 on
README_EVAL = (["eval", "heisenberg.lca", "--a", "a[0]=1", "--b", "a[0]=1", "--window=-2..2"],
               "n=-2: a[1]=1\nn=-1: a[0]=2\nn=0: 0\nn=1: k[0]=1\nn=2: 0\nbound: 2\n")

# commands that exit 0 today although the documented contract asks for an
# error exit; each counts as a failed operation until the program is fixed
KNOWN_FAULTS = [
    (["verify-manifold", "heisenberg.lca", "--samples", "0"], 1),
    (["primitives", "heisenberg.lca", "--max-len", "-2", "--depth", "2"], 2),
    (["fvl", "heisenberg.lca", "--deg", "-1", "--depth", "-3", "--window=-2..2"], 2),
]


def _coeff(rng) -> str:
    return str(rng.choice((Q(1), Q(2), Q(3), Q(1, 2), Q(3, 2), Q(2, 3))))


def _vec(rng, terms) -> str:
    """A seeded linear combination of the given terms, e.g. '3/2*x - 2*D*y'."""
    out = f"{_coeff(rng)}*{terms[0]}"
    for term in terms[1:]:
        out += f" {rng.choice('+-')} {_coeff(rng)}*{term}"
    return out


def _pt(rng, letters) -> str:
    return ", ".join(f"{s}={rng.choice(POINT_VALUES)}" for s in letters)


def cli_commands(seed: int, reduced: bool) -> list[tuple[list, int]]:
    """(argv with bare file names, expected exit code) for one round."""
    rng = random.Random(seed)
    cmds: list[tuple[list, int]] = []

    def add(code, *argv):
        cmds.append((list(argv), code))

    for alg in ("heisenberg", "mixed", "virasoro", "n3current", "abelian1", "abelian2"):
        add(0, "check", f"{alg}.lca")
        add(0, "--format", "json", "check", f"{alg}.lca")
    add(1, "check", "badheis.lca")
    add(1, "--format", "json", "check", "badheis.lca")
    add(2, "check", "badsyntax.lca")
    add(2, "check", "missing.lca")
    add(2, "bracket", "heisenberg.lca", "--left", "q", "--right", "a")
    for left, right in (("D*L", "L"), ("L", "C"), ("L + C", "D*L")):
        add(0, "bracket", "virasoro.lca", "--left", _vec(rng, [left]), "--right", right)
    for left, right in ((["x", "D*y"], ["z"]), (["x", "y"], ["D*z", "w1"]), (["z"], ["x", "y"])):
        add(0, "bracket", "n3current.lca", "--left", _vec(rng, left), "--right", _vec(rng, right))
    add(0, "bracket", "heisenberg.lca", "--left", _vec(rng, ["a", "D*a"]), "--right", "a")
    add(0, "bracket", "mixed.lca", "--left", _vec(rng, ["a"]), "--right", _vec(rng, ["a", "b"]))
    for n in (0, 1, 2, 3):
        add(0, "nth", "virasoro.lca", "--left", "L", "--right", _vec(rng, ["L", "C"]), "--n", str(n))
    for n in (0, 1):
        add(0, "nth", "n3current.lca", "--left", _vec(rng, ["x", "y"]), "--right", "z", "--n", str(n))
    add(2, "nth", "virasoro.lca", "--left", "L", "--right", "L", "--n", "-1")
    for left, right in ((":a a:", "a"), ("a", ":a k:"), (":a a[1]:", "a[1]")):
        add(0, "nop", "heisenberg.lca", "--left", left, "--right", right)
    for left, right in ((":L L:", "L"), ("L", ":L C:")):
        add(0, "nop", "virasoro.lca", "--left", left, "--right", right)
    for left, right in ((":x y:", "z"), (":x z:", "y"), ("w1", ":x y:")):
        add(0, "nop", "n3current.lca", "--left", left, "--right", right)
    add(0, "nop", "mixed.lca", "--left", ":a a:", "--right", "b")
    for alg, left, right, window in (
        ("heisenberg", "a", "1", "-3..0"), ("heisenberg", ":a a:", "a", "-2..2"),
        ("heisenberg", "a", "a", "-4..3"), ("virasoro", "L", "L", "-2..3"),
        ("virasoro", "L", ":L L:", "-1..2"), ("n3current", "x", ":y z:", "-2..2"),
        ("n3current", ":x y:", "z", "-2..1"), ("mixed", "a", "a", "-2..3"),
    ):
        add(0, "yprod", f"{alg}.lca", "--left", left, "--right", right, f"--window={window}")
    add(0, "--format", "json", "yprod", "virasoro.lca", "--left", "L", "--right", "L",
        "--window=-1..3")
    for alg, word in (("heisenberg", ":a a k:"), ("heisenberg", "a"), ("heisenberg", "1"),
                      ("n3current", ":x y z w1:"), ("n3current", ":x x y:"),
                      ("virasoro", ":L L C:"), ("mixed", ":a b k:")):
        add(0, "coproduct", f"{alg}.lca", "--elem", word)
    add(0, "--format", "json", "coproduct", "heisenberg.lca", "--elem", ":a a:")
    for alg, max_len, depth in (("heisenberg", 3, 1), ("heisenberg", 4, 2), ("n3current", 2, 1),
                                ("virasoro", 3, 1), ("mixed", 2, 1), ("abelian2", 3, 1)):
        add(0, "primitives", f"{alg}.lca", "--max-len", str(max_len), "--depth", str(depth))
    for alg, deg, depth, window, extra in (
        ("heisenberg", 2, 1, "-6..6", ["--check-identities", "--check-jacobi", "2"]),
        ("heisenberg", 2, 2, "-8..6", ["--check-identities"]),
        ("heisenberg", 3, 0, "-4..4", ["--check-identities", "--check-jacobi", "2"]),
        ("virasoro", 2, 0, "-2..2", ["--check-identities"]),
        ("virasoro", 2, 1, "-8..8", ["--check-identities", "--check-jacobi", "2"]),
        ("n3current", 2, 0, "-3..3", ["--check-identities", "--check-jacobi", "2"]),
        ("mixed", 2, 1, "-6..6", ["--check-identities", "--check-jacobi", "2"]),
        ("abelian2", 2, 1, "-5..3", ["--check-jacobi", "2"]),
    ):
        add(0, "fvl", f"{alg}.lca", "--deg", str(deg), "--depth", str(depth),
            f"--window={window}", *extra)
    add(0, "--format", "json", "fvl", "heisenberg.lca", "--deg", "2", "--depth", "1",
        "--window=-4..4", "--check-identities")
    add(4, "fvl", "heisenberg.lca", "--deg", "2", "--depth", "1", "--window=-2..1",
        "--check-jacobi", "2")
    add(4, "fvl", "heisenberg.lca", "--deg", "2", "--depth", "1", "--window=-2..2",
        "--check-jacobi", "3")
    for alg in ("heisenberg", "mixed", "n3current", "abelian1", "abelian2"):
        add(0, "integrate", f"{alg}.lca")
    add(0, "--format", "json", "integrate", "n3current.lca")
    add(3, "integrate", "virasoro.lca")
    add(3, "eval", "virasoro.lca", "--a", "L[0]=1", "--b", "L[0]=1", "--window=-1..1")
    add(0, *README_EVAL[0])
    for alg, a_letters, b_letters in (
        ("heisenberg", ["a[0]", "a[1]"], ["a[0]", "k[0]"]),
        ("heisenberg", ["a[1]"], ["a[0]", "a[1]"]),
        ("mixed", ["a[0]", "b[0]"], ["a[0]"]),
        ("mixed", ["a[0]", "k[0]"], ["a[1]", "b[1]"]),
        ("n3current", ["x[0]", "y[0]"], ["z[0]", "x[0]"]),
        ("n3current", ["y[0]", "z[1]"], ["x[0]", "w1[0]"]),
        ("abelian2", ["a[0]", "b[1]"], ["b[0]"]),
    ):
        add(0, "eval", f"{alg}.lca", "--a", _pt(rng, a_letters), "--b", _pt(rng, b_letters),
            "--window=-2..2")
    add(0, "--format", "json", "eval", "n3current.lca", "--a", _pt(rng, ["x[0]"]),
        "--b", _pt(rng, ["y[0]"]), "--window=-1..1")
    add(0, "eval", "heisenberg.lca", "--a", "a[0]=1", "--b", "0", "--window=-2..1", "--float")
    # the cli's own sample seed stays fixed: it picks supports, hence the work
    for alg, samples in (("heisenberg", "4"), ("mixed", "3"), ("n3current", "3"),
                         ("abelian2", "4")):
        add(0, "--seed", "3", "verify-manifold", f"{alg}.lca", "--samples", samples,
            "--window=-2..2")
    for alg in ("heisenberg", "mixed", "n3current", "abelian1", "abelian2"):
        add(0, "roundtrip", f"{alg}.lca")
    add(0, "--format", "json", "roundtrip", "mixed.lca")
    add(3, "roundtrip", "virasoro.lca")
    add(2, "fvl", "heisenberg.lca", "--deg", "2", "--depth", "1", "--window", "-2..2")
    add(2, "frobnicate", "heisenberg.lca")
    for argv, code in KNOWN_FAULTS:
        add(code, *argv)
    if reduced:
        cmds = [c for c in cmds[::4] if c not in KNOWN_FAULTS] + KNOWN_FAULTS
    rng.shuffle(cmds)
    return cmds


def _rerun_checked(argv: list) -> bool:
    """Seeded or formatted commands cheap enough to run twice."""
    if "verify-manifold" in argv:
        return any(a.endswith(("n3current.lca", "abelian2.lca")) for a in argv)
    return "eval" in argv or "--format" in argv


class CliSession:
    """One caller running `lcv` commands in-process through `cli.run`."""

    def __init__(self, lc, root: Path, seed: int, reduced: bool):
        import lieconformal.cli

        self.cli = lieconformal.cli
        self.lc = lc
        self.data = root / "tests" / "data"
        self.out_dir = root / "bench" / "out"
        self.out_dir.mkdir(exist_ok=True)
        self.table_path = self.out_dir / f"fvl-table-{os.getpid()}.json"
        self.commands = [(self._argv(argv), code) for argv, code in cli_commands(seed, reduced)]
        self.commands.append((self._argv(
            ["fvl", "heisenberg.lca", "--deg", "2", "--depth", "2", "--window=-8..6",
             "--check-identities", "--out", str(self.table_path)]), 0))
        self.known_faults = [self._argv(argv) for argv, _ in KNOWN_FAULTS]

    def _argv(self, argv: list) -> list:
        return [str(self.data / a) if a.endswith(".lca") else a for a in argv]

    def operations(self) -> list:
        return [((argv, code), partial(self._run, argv)) for argv, code in self.commands]

    def _run(self, argv):
        # looked up on every call, so a traced round sees the wrapped function
        return self.cli.run(argv)

    def failed(self, results) -> int:
        return sum(1 for (argv, code), (got, _out) in results
                   if argv in self.known_faults and got != code)

    def check(self, results) -> list[str]:
        problems = []
        readme_argv = self._argv(README_EVAL[0])
        for (argv, code), (got, out) in results:
            if got != code and argv not in self.known_faults:
                problems.append(f"{argv}: exit {got}, documented {code}: {out[:200]!r}")
            if argv == readme_argv and out != README_EVAL[1]:
                problems.append(f"README eval example printed {out!r}")
        # seeded reruns are byte-identical
        for (argv, code), first in results:
            if _rerun_checked(argv):
                if self.cli.run(argv) != first:
                    problems.append(f"{argv}: rerun differs")
        # the table written by fvl --out reloads and passes the identity check
        try:
            with open(self.table_path, encoding="utf-8") as fh:
                table = self.lc.LawTable.from_json(json.load(fh))
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"fvl --out table does not reload: {exc}")
        else:
            rep = self.lc.check_identities(table)
            if not (rep["left_identity"] and rep["right_identity"]):
                problems.append("fvl --out table fails check_identities")
            if not table.entries:
                problems.append("fvl --out table is empty")
        finally:
            self.table_path.unlink(missing_ok=True)
        return problems


WORKLOADS = {
    "law_tables": LawTables,
    "manifold_jacobi": ManifoldJacobi,
    "cli_session": CliSession,
}
