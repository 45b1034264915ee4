"""Command-line driver.

Exit codes: 0 success / all checks pass, 1 a verification failed,
2 parse or usage error, 3 the presentation is not nilpotent or its
lower central series did not stabilize, 4 a truncated table cannot
certify a check or a vector falls outside the issued basis slice.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

from . import dsl, render
from .bialgebra import coproduct, counit, primitives_up_to
from .core import CVec, LPoly
from .enveloping import EnvelopingAlgebra, UElem
from .errors import (
    AxiomFailure,
    NotNilpotent,
    OutsideBasis,
    SeriesDivergent,
    TruncationInsufficient,
)
from .lawtable import check_identities, check_law_jacobi, extract_law
from .manifold import integrate

Q = Fraction

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NOT_NILPOTENT = 3
EXIT_TRUNCATION = 4


# Deepest window a command takes: LO >= -WINDOW_LIMIT and HI - LO <= 2 * WINDOW_LIMIT.
# The work grows steeply with the depth.  Cold, on one core of a shared 2-core
# x86-64 host: `eval` of two three-letter n3current points, which skips the
# product cells whose conformal weight no letter has, takes 0.13 s at
# --window=-16..0, 0.55-0.75 s and 31 MB at -32..0 and 5 s and 100 MB at
# -64..0, while a window at -100000 does not finish.  `fvl` skips the cells
# of a graded presentation that cannot land in depth, so
# `fvl n3current.lca --deg 3 --depth 1` takes 0.1 s at -16..0 and at -32..0;
# on an ungraded presentation every cell is computed, which for the same
# table would take 3.2 s and 77 MB at -16..0 and 20 s and 323 MB at -32..0.
WINDOW_LIMIT = 32


def _window(text: str) -> tuple[int, int]:
    lo, hi = text.split("..", 1)
    lo, hi = int(lo), int(hi)
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty window {text!r}: {lo} > {hi}")
    return lo, hi


def _check_window(window) -> None:
    lo, hi = window
    if lo < -WINDOW_LIMIT or hi - lo > 2 * WINDOW_LIMIT:
        raise ValueError(
            f"window {lo}..{hi} is beyond the limit: LO >= {-WINDOW_LIMIT} "
            f"and HI - LO <= {2 * WINDOW_LIMIT}"
        )


# Largest --max-len `primitives` takes, largest --depth `primitives` and `fvl`
# take, and most --samples `verify-manifold` takes.  Only the vacuum and the
# letters of depth at most --depth are tested, whatever --max-len is.  Cold,
# on one core of a shared 2-core x86-64 host: `primitives n3current.lca
# --max-len 5 --depth 3` takes 0.01 s with a 21 MB peak (`primitives_up_to`
# at --max-len 12 --depth 6 0.001 s); `verify-manifold heisenberg.lca
# --samples 100` takes 0.06 s; `fvl n3current.lca --deg 2 --format json
# --window=-32..32` takes 0.07 s at --depth 3 and 9 s with a 224 MB peak
# at --depth 30.
MAX_LEN_LIMIT = 5
DEPTH_LIMIT = 3
SAMPLES_LIMIT = 1000

# Largest --deg `fvl` takes.  The table lists a bound for every pair of
# multi-indices up to the degree, and their number grows about fourfold per
# degree.  Cold, on one core of a shared 2-core x86-64 host, with
# --format json --window=-32..32 (CPU time, both limits lifted):
# `heisenberg.lca --depth 3` takes 0.07 s at --deg 5, 0.17 s at 6, 0.74 s
# at 7 and 1.6 s with a 96 MB peak at 8; `n3current.lca --depth 1` takes
# 0.2 s at 4, 1 s and 71 MB at 5 and 5.5 s and 301 MB at 6.
DEG_LIMIT = 5

# Most multi-index pairs `fvl` takes, a count known before any work: with P
# positions up to --depth, sum over a + b <= --deg of C(P+a-1, a) C(P+b-1, b).
# Extraction time and memory follow it.  Measured as above, n3current's
# 135,751 pairs at --deg 4 --depth 3 take 2.2-2.7 s and 126 MB and fit; its
# 324,632 at --deg 5 --depth 2 take 7.9 s and 367 MB and do not, nor do its
# 1,221,759 at --deg 5 --depth 3.
PAIR_LIMIT = 150_000


def _check_pairs(args, positions: int) -> None:
    # multi-indices of norm a over the positions (one, the empty one, of norm 0)
    sizes = [math.comb(max(positions + a - 1, 0), a) for a in range(args.deg + 1)]
    pairs = sum(sizes[a] * sizes[b] for a in range(args.deg + 1) for b in range(args.deg + 1 - a))
    if pairs > PAIR_LIMIT:
        raise ValueError(
            f"--deg {args.deg} --depth {args.depth} makes {pairs} multi-index pairs, "
            f"beyond the limit {PAIR_LIMIT}"
        )


# Most letter pairs `yprod` takes, a count known before any work: the
# negative indices n = lo..-1 form u_(n)v from the C(J - 1 + L, L) words of
# the divided powers ∂^(j)u, j < J = -lo, of an L-letter u, each multiplied
# by every letter pair of u and an L'-letter v: C(J - 1 + L, L) L L'.
# Measured as `nop` above, on words of depth 2: n3current's 4- and 4-letter
# words make 560 pairs at --window=-4..4 (1.1 s), 2,016 at -6..6 (3.1 s and
# 102 MB) and 5,280 at -8..8 (7.5 s); 2- and 2-letter words 2,112 at
# -32..32 (0.15 s on virasoro); a 4-letter u and a letter 1,980 at -9..9
# (0.5 s).  Depth-0 words cost less per pair: 3- and 2-letter n3current
# words make 35,904 at -32..32 (3.3 s), a 4-letter u and a letter 209,440
# (17 s and 675 MB).
YPROD_LIMIT = 2_500


def _check_yprod(left: tuple, right: tuple, lo: int) -> None:
    powers = max(-lo, 0)  # J, the divided powers ∂^(j)u with j < J
    pairs = math.comb(powers - 1 + len(left), len(left)) * len(left) * len(right) if powers else 0
    if pairs > YPROD_LIMIT:
        raise ValueError(
            f"words of {len(left)} and {len(right)} letters from n={lo} make {pairs} "
            f"letter pairs, beyond the limit {YPROD_LIMIT}"
        )


def _check_sizes(args) -> None:
    limits = {
        "primitives": (("max_len", MAX_LEN_LIMIT), ("depth", DEPTH_LIMIT)),
        "verify-manifold": (("samples", SAMPLES_LIMIT),),
        "fvl": (("deg", DEG_LIMIT), ("depth", DEPTH_LIMIT)),
    }
    for dest, limit in limits.get(args.command, ()):
        value = getattr(args, dest)
        if value > limit:
            option = "--" + dest.replace("_", "-")
            raise ValueError(f"{option} {value} is beyond the limit {limit}")


def _size(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"negative size {n}")
    return n


def _load(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return dsl.load_presentation(fh.read())


@dsl._nesting_bounded
def _parse_arg(arg: str, pres, key: str):
    """A word (``key`` "word") or point ("coords") as text, or @FILE holding
    {"word": [letter, ...]} or {"coords": {letter: number or string}}.

    Both forms pass through `dsl.word_from_letters` or `dsl.point_from_pairs`
    and their limits; JSON nested past the recursion limit is a diagnostic."""
    if not arg.startswith("@"):
        return (dsl.parse_word if key == "word" else dsl.parse_point)(arg, pres)
    with open(arg[1:], "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    value = doc.get(key) if isinstance(doc, dict) else None
    if key == "word" and isinstance(value, list) and all(isinstance(x, str) for x in value):
        return dsl.word_from_letters(value, pres)
    if key == "coords" and isinstance(value, dict) and all(
            isinstance(x, (str, int, float)) and not isinstance(x, bool) for x in value.values()):
        return dsl.point_from_pairs([(k, str(v)) for k, v in sorted(value.items())], pres)
    raise dsl.DslError(
        dsl.Diagnostic(f"unrecognized JSON argument in {arg[1:]!r}", dsl.SourceSpan(0, 0, 1, 1))
    )


def _vector_json(pres, v: CVec) -> dict:
    return {pres.symbol_label(sym): str(c) for sym, c in sorted(v.coeffs.items())}


def _uelem_json(basis, u: UElem) -> list:
    out = []
    for word in sorted(u.terms):
        out.append({"word": [basis.label(k) for k in word], "coeff": str(u.terms[word])})
    return out


def _residual_text(pres, residual) -> str:
    # a failing check's residual: an LPoly, or the LMPoly of the Jacobi check
    if isinstance(residual, LPoly):
        return render.lpoly_text(pres, residual)
    return render.lmpoly_text(pres, residual)


def _report_lines(pres, report) -> list[str]:
    lines = []
    for c in report.checks:
        lines.append(f"{c.name}: {'pass' if c.passed else 'fail'}")
        if not c.passed:
            names = tuple(pres.gen_name(i) for i in c.witness)
            lines.append(f"  witness: {names}")
            lines.append("  residual: " + _residual_text(pres, c.residual))
    return lines


def _report_json(pres, report) -> dict:
    out = []
    for c in report.checks:
        entry = {"name": c.name, "pass": c.passed}
        if not c.passed:
            entry["witness"] = [pres.gen_name(i) for i in c.witness]
            entry["residual"] = _residual_text(pres, c.residual)
        out.append(entry)
    return {"algebra": pres.name, "checks": out, "pass": report.ok}


class _Emitter:
    def __init__(self, fmt: str):
        self.fmt = fmt
        self.lines: list[str] = []
        self.doc = None

    def text(self, *lines: str):
        self.lines.extend(lines)

    def payload(self, doc):
        self.doc = doc

    def render(self) -> str:
        if self.fmt == "json":
            return json.dumps(self.doc, indent=1, sort_keys=True) + "\n"
        return "\n".join(self.lines) + ("\n" if self.lines else "")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once, by the first run(): parsing leaves the parsers unchanged.
    # The global flags set nothing when absent, so the subcommand's copy of a
    # flag does not overwrite one given before the subcommand; each run()
    # passes the defaults in a namespace of its own
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)

    ap = argparse.ArgumentParser(
        prog="lcv",
        parents=[common],
        description="Exact computations with Lie conformal algebras and their vertex structures.",
        epilog=(
            "Vector expressions use the bracket syntax without lambda, e.g. 'D*L + 3*C'. "
            "Ordered words are ':a a k:' with optional depth suffixes like 'a[1]', a bare "
            "letter, or '1' for the vacuum. Points are comma-separated assignments "
            "'a[0]=3/2, k[0]=-1'. Point and word arguments also accept @FILE with the "
            "JSON forms {\"coords\": {...}} and {\"word\": [...]}."
        ),
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common], help="verify the algebra axioms")
    p.add_argument("file")

    p = sub.add_parser("bracket", parents=[common], help="bracket of two vectors")
    p.add_argument("file")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)

    p = sub.add_parser("nth", parents=[common], help="nonnegative product of two vectors")
    p.add_argument("file")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("nop", parents=[common], help="ordered product of two words")
    p.add_argument("file")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)

    p = sub.add_parser("yprod", parents=[common], help="window of integer-indexed products")
    p.add_argument("file")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--window", type=_window, required=True)

    p = sub.add_parser("coproduct", parents=[common], help="coproduct of a word")
    p.add_argument("file")
    p.add_argument("--elem", required=True)

    p = sub.add_parser("primitives", parents=[common], help="primitive basis of a word span")
    p.add_argument("file")
    p.add_argument("--max-len", type=_size, required=True)
    p.add_argument("--depth", type=_size, required=True)

    p = sub.add_parser("fvl", parents=[common], help="extract the coefficient law table")
    p.add_argument("file")
    p.add_argument("--deg", type=_size, required=True)
    p.add_argument("--depth", type=_size, required=True)
    p.add_argument("--window", type=_window, required=True)
    p.add_argument("--check-identities", action="store_true")
    p.add_argument("--check-jacobi", type=int, default=None, metavar="DEG")
    p.add_argument("--out", default=None)

    p = sub.add_parser("integrate", parents=[common], help="integrate a nilpotent presentation")
    p.add_argument("file")

    p = sub.add_parser("eval", parents=[common], help="products of two points")
    p.add_argument("file")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--window", type=_window, required=True)
    p.add_argument(
        "--float",
        action="store_true",
        dest="as_float",
        help="render coordinates as floats (approximate; the core stays exact)",
    )

    p = sub.add_parser("verify-manifold", parents=[common], help="randomized product axiom suite")
    p.add_argument("file")
    p.add_argument("--samples", type=_size, default=20)
    p.add_argument("--window", type=_window, default=(-4, 4))

    p = sub.add_parser("roundtrip", parents=[common], help="tangent structure reproduces the input")
    p.add_argument("file")

    return ap


def run(argv) -> tuple[int, str]:
    """Execute one command; returns (exit code, output text)."""
    parser = _build_parser()
    buf = io.StringIO()
    try:
        with redirect_stdout(buf), redirect_stderr(buf):
            args = parser.parse_args(argv, argparse.Namespace(format="text", seed=0))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else EXIT_USAGE
        return (EXIT_USAGE if code not in (0,) else 0), buf.getvalue()

    em = _Emitter(args.format)
    try:
        code = _dispatch(args, em)
    except dsl.DslError as exc:
        return EXIT_USAGE, "\n".join(str(d) for d in exc.diagnostics) + "\n"
    except OSError as exc:
        return EXIT_USAGE, f"cannot open {exc.filename!r}\n"
    except (ValueError, ZeroDivisionError) as exc:
        return EXIT_USAGE, f"invalid argument: {exc}\n"
    except NotNilpotent as exc:
        return EXIT_NOT_NILPOTENT, _not_nilpotent_text(exc)
    except SeriesDivergent as exc:
        return EXIT_NOT_NILPOTENT, f"series did not stabilize: {exc}\n"
    except TruncationInsufficient as exc:
        return EXIT_TRUNCATION, f"truncation insufficient: {exc}\n"
    except OutsideBasis as exc:
        return EXIT_TRUNCATION, f"basis slice exceeded: {exc}\n"
    except AxiomFailure as exc:
        return EXIT_CHECK_FAILED, f"axiom failure: {exc}\n"
    return code, em.render()


def _not_nilpotent_text(exc: NotNilpotent) -> str:
    lines = [f"not nilpotent: {exc}"]
    # `_dispatch` renders the stable generators of the one NotNilpotent it lets out
    for txt in exc.rendered:
        lines.append(f"  stable: {txt}")
    return "\n".join(lines) + "\n"


def _dispatch(args, em: _Emitter) -> int:
    cmd = args.command
    if getattr(args, "window", None) is not None:
        _check_window(args.window)
    _check_sizes(args)
    pres, warnings = _load(args.file)
    for w in warnings:
        em.text(f"warning: {w}")

    if cmd == "check":
        report = pres.check_axioms()
        em.text(*_report_lines(pres, report))
        em.payload(_report_json(pres, report))
        return EXIT_OK if report.ok else EXIT_CHECK_FAILED

    if cmd == "bracket":
        v = dsl.parse_vector(args.left, pres)
        w = dsl.parse_vector(args.right, pres)
        poly = pres.bracket(v, w)
        em.text(render.lpoly_text(pres, poly))
        em.payload(
            {
                "lambda_poly": {
                    str(n): _vector_json(pres, vec) for n, vec in sorted(poly.coeffs.items())
                }
            }
        )
        return EXIT_OK

    if cmd == "nth":
        v = dsl.parse_vector(args.left, pres)
        w = dsl.parse_vector(args.right, pres)
        out = pres.nth_product(v, w, args.n)
        em.text(render.vector_text(pres, out))
        em.payload({"vector": _vector_json(pres, out)})
        return EXIT_OK

    alg = EnvelopingAlgebra(pres)

    if cmd == "nop":
        left = UElem.monomial(_parse_arg(args.left, pres, "word"))
        right = UElem.monomial(_parse_arg(args.right, pres, "word"))
        out = alg.nop(left, right)
        em.text(render.uelem_text(alg.basis, out))
        em.payload({"element": _uelem_json(alg.basis, out)})
        return EXIT_OK

    if cmd == "yprod":
        left, right = _parse_arg(args.left, pres, "word"), _parse_arg(args.right, pres, "word")
        lo, hi = args.window
        _check_yprod(left, right, lo)
        products, bound = alg.y_window(UElem.monomial(left), UElem.monomial(right), lo, hi)
        for n in range(lo, hi + 1):
            em.text(f"n={n}: " + render.uelem_text(alg.basis, products[n]))
        em.text(f"bound: {bound}")
        em.payload(
            {
                "bound": bound,
                "products": {str(n): _uelem_json(alg.basis, products[n]) for n in products},
            }
        )
        return EXIT_OK

    if cmd == "coproduct":
        elem = UElem.monomial(_parse_arg(args.elem, pres, "word"))
        tens = coproduct(elem)
        parts = []
        for (a, b) in sorted(tens.terms):
            c = tens.terms[(a, b)]
            lhs = render.word_text(alg.basis, a)
            rhs = render.word_text(alg.basis, b)
            prefix = "" if c == 1 else f"{c}*"
            parts.append(f"{prefix}{lhs} (x) {rhs}")
        em.text(" + ".join(parts) if parts else "0")
        em.text(f"counit: {counit(elem)}")
        em.payload(
            {
                "tensor": [
                    {
                        "left": [alg.basis.label(k) for k in a],
                        "right": [alg.basis.label(k) for k in b],
                        "coeff": str(tens.terms[(a, b)]),
                    }
                    for (a, b) in sorted(tens.terms)
                ],
                "counit": str(counit(elem)),
            }
        )
        return EXIT_OK

    if cmd == "primitives":
        basis = primitives_up_to(alg, args.max_len, args.depth)
        for u in basis:
            em.text(render.uelem_text(alg.basis, u))
        em.payload({"primitives": [_uelem_json(alg.basis, u) for u in basis]})
        return EXIT_OK

    if cmd == "fvl":
        _check_pairs(args, len(alg.basis.keys_up_to_depth(args.depth)))
        table = extract_law(alg, args.deg, args.depth, args.window)
        doc = table.to_json()
        failed = False
        reports = {}
        if args.check_identities:
            rep = check_identities(table)
            reports["identities"] = rep
            em.text(f"left identity: {'pass' if rep['left_identity'] else 'fail'}")
            em.text(f"right identity: {'pass' if rep['right_identity'] else 'fail'}")
            for f in rep["failures"]:
                em.text(f"  fail: {f}")
            failed = failed or not (rep["left_identity"] and rep["right_identity"])
        if args.check_jacobi is not None:
            samples = [(l, t, j) for l in (-1, 0, 1) for t in (-1, 0, 1) for j in (-1, 0, 1)]
            rep = check_law_jacobi(table, samples, args.check_jacobi)
            reports["jacobi"] = {k: rep[k] for k in ("pass", "reason") if k in rep}
            em.text(f"jacobi (degree {args.check_jacobi}): {'pass' if rep['pass'] else 'fail'}")
            if "reason" in rep:
                em.text(f"  fail: {rep['reason']}")
            if not rep["pass"] and rep["checks"]:
                # the first failing case: check_law_jacobi stops at it
                last = rep["checks"][-1]
                witness = {k: last[k] for k in ("ltj", "l", "residual_monomials")}
                reports["jacobi"]["witness"] = witness
                em.text("  witness: " + " ".join(f"{k}={v}" for k, v in witness.items()))
            failed = failed or not rep["pass"]
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=1, sort_keys=True)
            em.text(f"table written to {args.out}")
        else:
            em.text(f"entries: {sum(len(c) for c in table.entries.values())}")
        doc["reports"] = reports
        em.payload(doc)
        return EXIT_CHECK_FAILED if failed else EXIT_OK

    # remaining commands integrate the presentation
    try:
        manifold = integrate(pres)
    except NotNilpotent as exc:
        exc.rendered = [render.vector_text(pres, v) for v in exc.stable_generators]
        raise

    if cmd == "integrate":
        theta_table = {
            manifold.basis.label(bv.key): bv.weight for bv in manifold.basis.issued
        }
        change = {
            manifold.basis.label(bv.key): _vector_json(pres, bv.vec)
            for bv in manifold.basis.issued
        }
        em.text(f"nilpotency degree: {manifold.N}")
        for bv in manifold.basis.issued:
            em.text(f"  {manifold.basis.label(bv.key)}: weight {bv.weight}")
        em.payload({"N": manifold.N, "theta_table": theta_table, "basis_change": change})
        return EXIT_OK

    if cmd == "eval":
        a_vec = CVec(_parse_arg(args.a, pres, "coords"))
        b_vec = CVec(_parse_arg(args.b, pres, "coords"))
        a = manifold.basis.expand(a_vec)
        b = manifold.basis.expand(b_vec)
        lo, hi = args.window
        result = manifold.product_window(a, b, lo, hi)
        slices_json = {}
        for n in range(lo, hi + 1):
            pt = result.slices[n]
            vec = CVec()
            for key, c in pt.items():
                vec.iadd_scaled(manifold.basis.vector(key), c)
            if args.as_float:
                txt = ", ".join(
                    f"{pres.symbol_label(sym)}={float(c):.12g}"
                    for sym, c in sorted(vec.coeffs.items())
                ) or "0"
            else:
                txt = render.vector_coord_text(pres, vec)
            em.text(f"n={n}: {txt}")
            slices_json[str(n)] = {"coords": _vector_json(pres, vec)}
        em.text(f"bound: {result.bound}")
        em.payload({"bound": result.bound, "slices": slices_json})
        return EXIT_OK

    if cmd == "verify-manifold":
        lo, hi = args.window
        report = manifold.check_axioms(args.samples, args.seed, (lo, hi))
        for c in report["checks"]:
            em.text(f"{c['axiom']}: {'pass' if c['pass'] else 'fail'}")
            if "witness" in c:
                # each point as `eval --a` spells it, in the JSON report's order
                w = c["witness"]
                points = [", ".join(f"{k}={v}" for k, v in sorted(p.items())) or "0" for p in w["points"]]
                em.text(f"  witness: ltj={w['ltj']} points={' | '.join(points)}")
        em.payload(report)
        return EXIT_OK if report["pass"] else EXIT_CHECK_FAILED

    if cmd == "roundtrip":
        recon, change = manifold.tangent_presentation()
        same = recon == pres
        em.text(f"roundtrip: {'pass' if same else 'fail'}")
        for bv in manifold.basis.issued:
            label = manifold.basis.label(bv.key)
            em.text(f"  {label} = " + render.vector_text(pres, change[label]))
        em.payload(
            {
                "pass": same,
                "basis_change": {
                    label: _vector_json(pres, vec) for label, vec in sorted(change.items())
                },
            }
        )
        return EXIT_OK if same else EXIT_CHECK_FAILED

    raise AssertionError(cmd)


def main() -> None:
    code, text = run(sys.argv[1:])
    sys.stdout.write(text)
    raise SystemExit(code)


if __name__ == "__main__":
    main()
