"""Command-line driver.

Each subcommand is declared once, as an entry of `COMMANDS`: its help,
the options after FILE, the sizes it bounds and its handler.  A handler
takes the parsed arguments and the loaded presentation and returns
(exit code, text lines, JSON doc), both built in one pass; `run` prints
exactly one of the two, the lines under ``--format text`` (after the
presentation's warnings) and the doc under ``--format json``.

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
from typing import NamedTuple

from . import dsl, render
from .bialgebra import coproduct, counit, primitives_up_to
from .core import CVec
from .enveloping import EnvelopingAlgebra, UElem
from .errors import (
    AxiomFailure, NotNilpotent, OutsideBasis, SeriesDivergent, TruncationInsufficient,
)
from .lawtable import check_identities, check_law_jacobi, extract_law
from .manifold import integrate

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


def _size(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"negative size {n}")
    return n


class _Numeral(str):
    """A JSON number as written: a point value reads it exactly and counts
    its digits, where a float would round it and an int past CPython's
    4,300 digits would not be built."""


@dsl._nesting_bounded
def _parse_arg(arg: str, pres, key: str):
    """A word (``key`` "word") or point ("coords") as text, or @FILE holding
    {"word": [letter, ...]} or {"coords": {letter: number or string}}.

    Both forms pass through `dsl.word_from_letters` or `dsl.point_from_pairs`
    and their limits; JSON nested past the recursion limit is a diagnostic."""
    if not arg.startswith("@"):
        return (dsl.parse_word if key == "word" else dsl.parse_point)(arg, pres)
    with open(arg[1:], "r", encoding="utf-8") as fh:
        doc = json.load(fh, parse_int=_Numeral, parse_float=_Numeral)
    value = doc.get(key) if isinstance(doc, dict) else None
    if key == "word" and isinstance(value, list) and all(type(x) is str for x in value):
        return dsl.word_from_letters(value, pres)
    # a float here is NaN or Infinity, which a point value refuses
    if key == "coords" and isinstance(value, dict) and all(
            isinstance(x, (str, float)) for x in value.values()):
        return dsl.point_from_pairs([(k, str(v)) for k, v in sorted(value.items())], pres)
    raise dsl.DslError(
        dsl.Diagnostic(f"unrecognized JSON argument in {arg[1:]!r}", dsl.SourceSpan(0, 0, 1, 1))
    )


def _vector_json(pres, v: CVec) -> dict:
    return {pres.symbol_label(sym): str(c) for sym, c in sorted(v.coeffs.items())}


def _uelem_json(basis, u: UElem) -> list:
    return [{"word": [basis.label(k) for k in word], "coeff": str(u.terms[word])}
            for word in sorted(u.terms)]


def _report(pres, report) -> tuple[list, dict]:
    """Text lines and JSON doc of an axiom report, with the same witnesses
    and residuals."""
    lines, checks = [], []
    for c in report.checks:
        lines.append(f"{c.name}: {'pass' if c.passed else 'fail'}")
        entry = {"name": c.name, "pass": c.passed}
        if not c.passed:
            entry["witness"] = [pres.gen_name(i) for i in c.witness]
            entry["residual"] = render.poly_text(pres, c.residual)
            lines += [f"  witness: {tuple(entry['witness'])}", "  residual: " + entry["residual"]]
        checks.append(entry)
    return lines, {"algebra": pres.name, "checks": checks, "pass": report.ok}


def _verdict(passed: bool) -> int:
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def _integrated(pres):
    try:
        return integrate(pres)
    except NotNilpotent as exc:
        # `_not_nilpotent_text` prints the stable generators
        exc.rendered = [render.vector_text(pres, v) for v in exc.stable_generators]
        raise


class Command(NamedTuple):
    help: str
    options: tuple  # (flag, add_argument keywords) after FILE
    limits: tuple  # (dest, largest value)
    handler: object  # handler(args, pres) -> (exit code, text lines, JSON doc)


COMMANDS: dict[str, Command] = {}


def _command(name: str, help: str, *options, limits=()):
    def register(handler):
        COMMANDS[name] = Command(help, options, limits, handler)
        return handler
    return register


_REQUIRED = {"required": True}
_SIZE = {"type": _size, "required": True}
_WINDOW = ("--window", {"type": _window, "required": True})
_OPERANDS = (("--left", _REQUIRED), ("--right", _REQUIRED))


@_command("check", "verify the algebra axioms")
def _check(args, pres):
    report = pres.check_axioms()
    return (_verdict(report.ok), *_report(pres, report))


@_command("bracket", "bracket of two vectors", *_OPERANDS)
def _bracket(args, pres):
    poly = pres.bracket(dsl.parse_vector(args.left, pres), dsl.parse_vector(args.right, pres))
    doc = {str(n): _vector_json(pres, vec) for n, vec in sorted(poly.coeffs.items())}
    return EXIT_OK, [render.poly_text(pres, poly)], {"lambda_poly": doc}


@_command("nth", "nonnegative product of two vectors", *_OPERANDS,
          ("--n", {"type": int, "required": True}))
def _nth(args, pres):
    out = pres.nth_product(dsl.parse_vector(args.left, pres), dsl.parse_vector(args.right, pres),
                           args.n)
    return EXIT_OK, [render.vector_text(pres, out)], {"vector": _vector_json(pres, out)}


@_command("nop", "ordered product of two words", *_OPERANDS)
def _nop(args, pres):
    alg = EnvelopingAlgebra(pres)
    left = UElem.monomial(_parse_arg(args.left, pres, "word"))
    out = alg.nop(left, UElem.monomial(_parse_arg(args.right, pres, "word")))
    return EXIT_OK, [render.uelem_text(alg.basis, out)], {"element": _uelem_json(alg.basis, out)}


@_command("yprod", "window of integer-indexed products", *_OPERANDS, _WINDOW)
def _yprod(args, pres):
    left, right = _parse_arg(args.left, pres, "word"), _parse_arg(args.right, pres, "word")
    lo, hi = args.window
    _check_yprod(left, right, lo)
    alg = EnvelopingAlgebra(pres)
    products, bound = alg.y_window(UElem.monomial(left), UElem.monomial(right), lo, hi)
    lines, docs = [], {}
    for n in range(lo, hi + 1):
        lines.append(f"n={n}: " + render.uelem_text(alg.basis, products[n]))
        docs[str(n)] = _uelem_json(alg.basis, products[n])
    lines.append(f"bound: {bound}")
    return EXIT_OK, lines, {"bound": bound, "products": docs}


@_command("coproduct", "coproduct of a word", ("--elem", _REQUIRED))
def _coproduct(args, pres):
    basis = EnvelopingAlgebra(pres).basis
    elem = UElem.monomial(_parse_arg(args.elem, pres, "word"))
    parts, tensor = [], []
    for (a, b), c in sorted(coproduct(elem).terms.items()):
        prefix = "" if c == 1 else f"{c}*"
        parts.append(f"{prefix}{render.word_text(basis, a)} (x) {render.word_text(basis, b)}")
        tensor.append({"left": [basis.label(k) for k in a], "right": [basis.label(k) for k in b],
                       "coeff": str(c)})
    eps = str(counit(elem))
    return EXIT_OK, [" + ".join(parts) or "0", f"counit: {eps}"], {"tensor": tensor, "counit": eps}


@_command("primitives", "primitive basis of a word span", ("--max-len", _SIZE), ("--depth", _SIZE),
          limits=(("max_len", MAX_LEN_LIMIT), ("depth", DEPTH_LIMIT)))
def _primitives(args, pres):
    alg = EnvelopingAlgebra(pres)
    basis = primitives_up_to(alg, args.max_len, args.depth)
    return (EXIT_OK, [render.uelem_text(alg.basis, u) for u in basis],
            {"primitives": [_uelem_json(alg.basis, u) for u in basis]})


@_command("fvl", "extract the coefficient law table", ("--deg", _SIZE), ("--depth", _SIZE),
          _WINDOW, ("--check-identities", {"action": "store_true"}),
          ("--check-jacobi", {"type": int, "default": None, "metavar": "DEG"}),
          ("--out", {"default": None}),
          limits=(("deg", DEG_LIMIT), ("depth", DEPTH_LIMIT)))
def _fvl(args, pres):
    alg = EnvelopingAlgebra(pres)
    _check_pairs(args, len(alg.basis.keys_up_to_depth(args.depth)))
    table = extract_law(alg, args.deg, args.depth, args.window)
    doc = table.to_json()
    lines, reports, failed = [], {}, False
    if args.check_identities:
        rep = reports["identities"] = check_identities(table)
        lines.append(f"left identity: {'pass' if rep['left_identity'] else 'fail'}")
        lines.append(f"right identity: {'pass' if rep['right_identity'] else 'fail'}")
        lines += [f"  fail: {f}" for f in rep["failures"]]
        failed = not (rep["left_identity"] and rep["right_identity"])
    if args.check_jacobi is not None:
        samples = [(l, t, j) for l in (-1, 0, 1) for t in (-1, 0, 1) for j in (-1, 0, 1)]
        rep = check_law_jacobi(table, samples, args.check_jacobi)
        reports["jacobi"] = {k: rep[k] for k in ("pass", "reason") if k in rep}
        lines.append(f"jacobi (degree {args.check_jacobi}): {'pass' if rep['pass'] else 'fail'}")
        if "reason" in rep:
            lines.append(f"  fail: {rep['reason']}")
        if not rep["pass"] and rep["checks"]:
            # the first failing case: check_law_jacobi stops at it
            last = rep["checks"][-1]
            witness = reports["jacobi"]["witness"] = {
                k: last[k] for k in ("ltj", "l", "residual_monomials")}
            lines.append("  witness: " + " ".join(f"{k}={v}" for k, v in witness.items()))
        failed = failed or not rep["pass"]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
        lines.append(f"table written to {args.out}")
    else:
        lines.append(f"entries: {sum(len(c) for c in table.entries.values())}")
    doc["reports"] = reports
    return _verdict(not failed), lines, doc


@_command("integrate", "integrate a nilpotent presentation")
def _integrate(args, pres):
    manifold = _integrated(pres)
    lines, theta, change = [f"nilpotency degree: {manifold.N}"], {}, {}
    for bv in manifold.basis.issued:
        label = manifold.basis.label(bv.key)
        lines.append(f"  {label}: weight {bv.weight}")
        theta[label] = bv.weight
        change[label] = _vector_json(pres, bv.vec)
    return EXIT_OK, lines, {"N": manifold.N, "theta_table": theta, "basis_change": change}


def _float_text(pres, vec: CVec, n: int) -> str:
    parts = []
    for sym, c in sorted(vec.coeffs.items()):
        label = pres.symbol_label(sym)
        try:
            x = float(c)
        except OverflowError:
            raise ValueError(f"coordinate {label} at n={n} is beyond the float range") from None
        if not x:
            # c is nonzero, so 0 would misstate it
            raise ValueError(f"coordinate {label} at n={n} is below the float range")
        parts.append(f"{label}={x:.12g}")
    return ", ".join(parts) or "0"


@_command("eval", "products of two points", ("--a", _REQUIRED), ("--b", _REQUIRED), _WINDOW,
          ("--float", {"action": "store_true", "dest": "as_float",
                       "help": "render coordinates as floats (approximate; the core stays exact)"}))
def _eval(args, pres):
    manifold = _integrated(pres)
    a_vec = CVec(_parse_arg(args.a, pres, "coords"))
    b_vec = CVec(_parse_arg(args.b, pres, "coords"))
    a, b = manifold.basis.expand(a_vec), manifold.basis.expand(b_vec)
    lo, hi = args.window
    result = manifold.product_window(a, b, lo, hi)
    lines, slices = [], {}
    for n in range(lo, hi + 1):
        vec = CVec()
        for key, c in result.slices[n].items():
            vec.iadd_scaled(manifold.basis.vector(key), c)
        text = _float_text(pres, vec, n) if args.as_float else render.vector_coord_text(pres, vec)
        lines.append(f"n={n}: {text}")
        slices[str(n)] = {"coords": _vector_json(pres, vec)}
    lines.append(f"bound: {result.bound}")
    return EXIT_OK, lines, {"bound": result.bound, "slices": slices}


@_command("verify-manifold", "randomized product axiom suite",
          ("--samples", {"type": _size, "default": 20}),
          ("--window", {"type": _window, "default": (-4, 4)}),
          limits=(("samples", SAMPLES_LIMIT),))
def _verify_manifold(args, pres):
    report = _integrated(pres).check_axioms(args.samples, args.seed, args.window)
    lines = []
    for c in report["checks"]:
        lines.append(f"{c['axiom']}: {'pass' if c['pass'] else 'fail'}")
        if "witness" in c:
            # each point as `eval --a` spells it, in the JSON report's order
            w = c["witness"]
            points = [", ".join(f"{k}={v}" for k, v in sorted(p.items())) or "0"
                      for p in w["points"]]
            lines.append(f"  witness: ltj={w['ltj']} points={' | '.join(points)}")
    return _verdict(report["pass"]), lines, report


@_command("roundtrip", "tangent structure reproduces the input")
def _roundtrip(args, pres):
    manifold = _integrated(pres)
    recon, change = manifold.tangent_presentation()
    same = recon == pres
    lines, docs = [f"roundtrip: {'pass' if same else 'fail'}"], {}
    for label, vec in change.items():
        lines.append(f"  {label} = " + render.vector_text(pres, vec))
        docs[label] = _vector_json(pres, vec)
    return _verdict(same), lines, {"pass": same, "basis_change": docs}


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
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=command.help)
        p.add_argument("file")
        for flag, keywords in command.options:
            p.add_argument(flag, **keywords)
    return ap


def run(argv) -> tuple[int, str]:
    """Execute one command; returns (exit code, output text)."""
    parser = _build_parser()
    buf = io.StringIO()
    try:
        with redirect_stdout(buf), redirect_stderr(buf):
            args = parser.parse_args(argv, argparse.Namespace(format="text", seed=0))
    except SystemExit as exc:  # --help exits 0, a usage error 2
        return (EXIT_OK if exc.code == 0 else EXIT_USAGE), buf.getvalue()

    try:
        code, lines, doc = _dispatch(args)
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
    if args.format == "json":
        return code, json.dumps(doc, indent=1, sort_keys=True) + "\n"
    return code, "".join(line + "\n" for line in lines)


def _not_nilpotent_text(exc: NotNilpotent) -> str:
    lines = [f"not nilpotent: {exc}"]
    for txt in exc.rendered:
        lines.append(f"  stable: {txt}")
    return "\n".join(lines) + "\n"


def _dispatch(args) -> tuple[int, list, object]:
    """The window and bounded sizes checked, FILE loaded, then the handler;
    its text lines follow the warnings."""
    command = COMMANDS[args.command]
    if getattr(args, "window", None) is not None:
        _check_window(args.window)
    for dest, limit in command.limits:
        value = getattr(args, dest)
        if value > limit:
            raise ValueError(f"--{dest.replace('_', '-')} {value} is beyond the limit {limit}")
    with open(args.file, "r", encoding="utf-8") as fh:
        pres, warnings = dsl.load_presentation(fh.read())
    code, lines, doc = command.handler(args, pres)
    return code, [f"warning: {w}" for w in warnings] + lines, doc


def main() -> None:
    code, text = run(sys.argv[1:])
    sys.stdout.write(text)
    raise SystemExit(code)


if __name__ == "__main__":
    main()
