"""Declarative text format for algebra presentations.

The format is small enough for a hand-written recursive-descent parser;
every diagnostic carries a byte span and line/column of its origin.

    # rank-one example
    algebra heisenberg {
      generators { a: free; k: torsion(1); }
      bracket [a, a] = lambda*k;
    }

Bracket expressions are sums of products of rational constants, the
variable ``lambda``, the derivative symbol ``D`` and generator names,
with ``^`` for natural powers.  ``D`` is an operator: lowering requires
it to act from the left on the generator of its monomial.

Tokens are plain tuples ``(kind, text, begin, end, line, column)`` from
one pass of a compiled regex; the kind of a punctuation token is its
character.  Line and column come from the newlines between tokens, and
a comment advances no column.  A `SourceSpan` is built only for a token
the AST keeps, a name, a literal or the start of a compound node or
declaration, and for a token a diagnostic names.  Integer literals stay
ints and only ``p/q`` makes a Fraction, so a monomial's coefficient is
an int until a fraction enters; the lowering passes every coefficient
through `linalg.iadd`, which stores ints where they are integral either
way.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction
from typing import NamedTuple

from .core import GeneratorSpec, LPoly, LcaPresentation
from .linalg import DIGITS_LIMIT, iadd

Q = Fraction


class SourceSpan(NamedTuple):
    begin: int
    end: int
    line: int
    column: int

    def __str__(self):
        return f"{self.line}:{self.column}"


class Diagnostic(NamedTuple):
    message: str
    span: SourceSpan

    def __str__(self):
        return f"{self.span}: {self.message}"


class DslError(Exception):
    def __init__(self, diagnostics):
        if isinstance(diagnostics, Diagnostic):
            diagnostics = [diagnostics]
        super().__init__("; ".join(str(d) for d in diagnostics))
        self.diagnostics = diagnostics


# Blanks and comments, then one token: a newline, an ASCII name, decimal
# digits, punctuation, a name starting past ASCII (its first character
# must be alphabetic), the end, or any other character.  The groups are
# numbered in that order.
_TOKEN = re.compile(
    r"(?:[ \t\r]+|#[^\n]*)*(?:(\n)|([A-Za-z_]\w*)|(\d+)|([][{}(),;:=+*^/-])|([^\W\d]\w*)|()\Z|(.))")
_KIND = (None, None, "name", "int", None, "name")


def _span(tok) -> SourceSpan:
    return SourceSpan(tok[2], tok[3], tok[4], tok[5])


def _int(tok) -> int:
    digits = len(tok[1])
    if digits > DIGITS_LIMIT:
        raise DslError(Diagnostic(
            f"integer literal of {digits} digits is beyond the limit {DIGITS_LIMIT}", _span(tok)))
    return int(tok[1])


def tokenize(text: str) -> list[tuple]:
    toks = []
    append = toks.append
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        i = m.lastindex
        if i == 1:
            line += 1
            line_start = m.end()
            continue
        if i == 6:
            break
        begin, end = m.span(i)
        if i >= 5 and (i == 7 or not text[begin].isalpha()):
            raise DslError(Diagnostic(f"unexpected character {text[begin]!r}",
                                      SourceSpan(begin, begin + 1, line, begin - line_start + 1)))
        tok = m.group(i)
        append((_KIND[i] or tok, tok, begin, end, line, begin - line_start + 1))
    # a trailing comment on the last line advances no column
    n = len(text)
    hash_at = text.find("#", line_start)
    append(("eof", "", n, n, line, (n if hash_at < 0 else hash_at) - line_start + 1))
    return toks


# Largest exponent ``^k`` an expression takes.  Expanding a power copies
# every monomial's symbol list once per step.  Measured with in-process
# CPU time of `lcv bracket heisenberg.lca --left X --right a`, on one core
# of a shared 2-core x86-64 host: X = (1 + D)^k*a takes 0.03 s at k = 64,
# 0.7 s at 200, 1 s at 250 and 40 s at 1000; with the commuting lambda
# beside D, (1 + D + lambda)^k*a, which a bracket value expands and a vector
# argument refuses unexpanded, took 0.13 s at 32, 1.1 s at 64 and 5.5 s at 100.
POW_LIMIT = 64

# Most monomials one product step of an expansion may form, before like
# terms merge.  A power of a sum of symbols that do not commute in the
# expansion keeps every order of them apart, so it doubles per factor.
# Same measure as above: (D + a)^k*a, which the lowering rejects after the
# expansion, took 0.19 s at k = 12, 0.3 s at 13 and 3.8 s at 16 unbounded;
# at this limit k = 14 and 16 are refused in 0.18 s.  The largest step of
# (1 + D + lambda)^64 forms 6,240 monomials and of (1 + D)^64*(1 + D)^64*a
# 4,225, so both still expand, in 1.5 s and 0.15 s.
MONOMIAL_LIMIT = 8192

# Most letters a word or point argument takes, and the deepest letter.  A
# product of two words straightens every letter of one past the other, and
# each bracket of deep letters has a λ-polynomial of high degree, so the
# work grows steeply with both.  Measured with in-process CPU time of `lcv
# nop`, on one core of a shared 2-core x86-64 host, both words alike: four
# letters of depth 2 take 0.26 s on n3current (x y z w1) and 3 s on
# virasoro (L L L L), where depth 3 takes 0.4 s and 7.9 s, four letters of
# depth 4 on n3current 1.6 s, of depth 8 17 s and 409 MB, and of depth 16
# more than 1.9 GB; five letters take 1.5 s on n3current at depth 2 and
# 3.2 s on virasoro at depth 0, twelve letters of heisenberg 3.6 s.  A
# single letter costs less: `eval n3current.lca` of x[400] against y[400]
# took 59 s and 710 MB at --window=-1..1.
LETTER_LIMIT = 4
LETTER_DEPTH_LIMIT = 2


# -- expression AST -----------------------------------------------------------

# nodes: ("num", int | Q, span) | ("sym", name, span) | ("neg", node, span)
#        | ("add", [nodes], span) | ("mul", [nodes], span) | ("pow", node, int, span)


class BracketDecl(NamedTuple):
    left: str
    right: str
    expr: object
    span: SourceSpan


class GeneratorDecl(NamedTuple):
    name: str
    torsion: int | None
    span: SourceSpan


class AlgebraFile(NamedTuple):
    name: str
    generators: list
    brackets: list
    span: SourceSpan


class Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = tokenize(text)
        self.pos = 0

    # -- token helpers ----------------------------------------------------

    def fail(self, expected: str):
        t = self.toks[self.pos]
        got = t[1] or "end of input"
        raise DslError(Diagnostic(f"expected {expected}, found {got!r}", _span(t)))

    def expect(self, kind: str, text: str | None = None) -> tuple:
        t = self.toks[self.pos]
        if t[0] != kind or (text is not None and t[1] != text):
            self.fail(text if text is not None else kind)
        self.pos += 1
        return t

    def accept(self, kind: str) -> bool:
        if self.toks[self.pos][0] == kind:
            self.pos += 1
            return True
        return False

    # -- grammar -----------------------------------------------------------

    def parse_algebra(self) -> AlgebraFile:
        start = self.expect("name", "algebra")
        name = self.expect("name")[1]
        self.expect("{")
        self.expect("name", "generators")
        self.expect("{")
        gens = []
        seen = set()
        while not self.accept("}"):
            gname = self.expect("name")
            if gname[1] in seen:
                raise DslError(Diagnostic(f"duplicate generator {gname[1]!r}", _span(gname)))
            seen.add(gname[1])
            self.expect(":")
            kind = self.expect("name")
            torsion = None
            if kind[1] == "torsion":
                self.expect("(")
                m = self.expect("int")
                torsion = _int(m)
                if torsion < 1:
                    raise DslError(Diagnostic("torsion order must be positive", _span(m)))
                self.expect(")")
            elif kind[1] != "free":
                raise DslError(Diagnostic("expected 'free' or 'torsion(m)'", _span(kind)))
            self.expect(";")
            gens.append(GeneratorDecl(gname[1], torsion, _span(gname)))
        brackets = []
        while not self.accept("}"):
            kw = self.expect("name", "bracket")
            self.expect("[")
            left = self.expect("name")[1]
            self.expect(",")
            right = self.expect("name")[1]
            self.expect("]")
            self.expect("=")
            expr = self.parse_expr()
            self.expect(";")
            brackets.append(BracketDecl(left, right, expr, _span(kw)))
        self.expect("eof")
        return AlgebraFile(name, gens, brackets, _span(start))

    def parse_expr(self):
        first = self.toks[self.pos]
        negate = self.accept("-")
        node = self.parse_term()
        terms = [("neg", node, _span(first)) if negate else node]
        while True:
            if self.accept("+"):
                terms.append(self.parse_term())
            elif self.accept("-"):
                t = self.parse_term()
                terms.append(("neg", t, t[-1]))
            else:
                break
        if len(terms) == 1:
            return terms[0]
        return ("add", terms, _span(first))

    def parse_term(self):
        first = self.toks[self.pos]
        factors = [self.parse_factor()]
        while self.accept("*"):
            factors.append(self.parse_factor())
        if len(factors) == 1:
            return factors[0]
        return ("mul", factors, _span(first))

    def parse_factor(self):
        node = self.parse_atom()
        if self.accept("^"):
            e = self.expect("int")
            k = _int(e)
            if k > POW_LIMIT:
                raise DslError(Diagnostic(f"exponent {e[1]} is beyond the limit {POW_LIMIT}", _span(e)))
            return ("pow", node, k, node[-1])
        return node

    def parse_atom(self):
        t = self.toks[self.pos]
        kind = t[0]
        if kind == "int":
            self.pos += 1
            num = _int(t)
            if not self.accept("/"):
                return ("num", num, _span(t))
            den = self.expect("int")
            q = _int(den)
            if not q:
                raise DslError(Diagnostic("division by zero", _span(den)))
            return ("num", Q(num, q), _span(t))
        if kind == "name":
            self.pos += 1
            return ("sym", t[1], _span(t))
        if kind == "(":
            self.pos += 1
            node = self.parse_expr()
            self.expect(")")
            return node
        self.fail("a number, name or parenthesized expression")


def parse_algebra(text: str) -> AlgebraFile:
    return Parser(text).parse_algebra()


def _nesting_bounded(parse):
    """``parse(text, ...)`` reporting nesting past the recursion limit as a diagnostic."""
    @functools.wraps(parse)
    def bounded(text: str, *args):
        try:
            return parse(text, *args)
        except RecursionError:
            span = SourceSpan(0, len(text), 1, 1)
            raise DslError(Diagnostic("expression nested too deeply", span)) from None
    return bounded


# -- lowering ------------------------------------------------------------------

# a monomial during expansion: (coefficient, lambda power, ordered symbol list)


def _expand(node) -> list:
    kind = node[0]
    if kind == "num":
        return [(node[1], 0, [])]
    if kind == "sym":
        if node[1] == "lambda":
            return [(1, 1, [])]
        return [(1, 0, [(node[1], node[2])])]
    if kind == "neg":
        return [(-c, p, syms) for (c, p, syms) in _expand(node[1])]
    if kind == "add":
        out = []
        for sub in node[1]:
            out.extend(_expand(sub))
        return out
    if kind == "mul":
        out = [(1, 0, [])]
        for sub in node[1]:
            out = _times(out, _expand(sub), node[-1])
        return out
    if kind == "pow":
        # the base expanded once, then multiplied in exponent times
        base = _expand(node[1])
        out = [(1, 0, [])]
        for _ in range(node[2]):
            out = _times(out, base, node[-1])
        return out
    raise AssertionError(kind)


def _times(left: list, right: list, span) -> list:
    """Product of two expansions, like monomials merged; refused when it
    would form more than MONOMIAL_LIMIT monomials."""
    if len(left) * len(right) > MONOMIAL_LIMIT:
        raise DslError(Diagnostic(
            f"expansion forms {len(left) * len(right)} monomials, beyond the limit {MONOMIAL_LIMIT}", span))
    if len(left) == 1 == len(right):
        (c1, p1, s1), (c2, p2, s2) = left[0], right[0]
        c = c1 * c2
        return [(c, p1 + p2, s1 + s2)] if c else []
    return _merge((c1 * c2, p1 + p2, s1 + s2) for (c1, p1, s1) in left for (c2, p2, s2) in right)


def _merge(monomials) -> list:
    """Like monomials summed, keyed by lambda power and symbol names in
    order, with the spans of their first occurrence; zero sums drop."""
    out: dict = {}
    for c, p, syms in monomials:
        key = (p, tuple(name for name, _ in syms))
        total, _, first = out.get(key, (0, p, syms))
        out[key] = (total + c, p, first)
    return [m for m in out.values() if m[0]]


def _lower_expr(expr, gen_index, torsion, span):
    """Expression to {lambda degree: {(gen, depth): coeff}} plus warnings.

    An inner dict may be empty where its terms cancel; LPoly and CVec drop it.
    """
    poly: dict = {}
    warnings = []
    for (coeff, lpow, syms) in _expand(expr):
        if coeff == 0:
            continue
        dcount = 0
        gen = None
        gen_span = span
        for (name, sp) in syms:
            if name == "D":
                if gen is not None:
                    raise DslError(
                        Diagnostic("derivative operator must be applied to the left of a generator", sp)
                    )
                dcount += 1
            else:
                if name not in gen_index:
                    raise DslError(Diagnostic(f"unknown identifier {name!r}", sp))
                if gen is not None:
                    raise DslError(
                        Diagnostic("every monomial must contain exactly one generator", sp)
                    )
                gen = name
                gen_span = sp
        if gen is None:
            raise DslError(
                Diagnostic("every monomial must contain exactly one generator", span)
            )
        g = gen_index[gen]
        t = torsion[g]
        if t is not None and dcount >= t:
            warnings.append(
                Diagnostic(
                    f"derivative power {dcount} annihilates torsion generator {gen!r}; term dropped",
                    gen_span,
                )
            )
            continue
        # full derivative power in divided-power coordinates
        iadd(poly.setdefault(lpow, {}), {(g, dcount): coeff * math.factorial(dcount)})
    return poly, warnings


def lower(ast: AlgebraFile):
    """AlgebraFile to a presentation; returns (presentation, warnings)."""
    gen_index = {g.name: i for i, g in enumerate(ast.generators)}
    torsion = [g.torsion for g in ast.generators]
    table = {}
    warnings = []
    for decl in ast.brackets:
        for side in (decl.left, decl.right):
            if side not in gen_index:
                raise DslError(Diagnostic(f"unknown identifier {side!r}", decl.span))
        i, j = gen_index[decl.left], gen_index[decl.right]
        if i > j:
            raise DslError(
                Diagnostic(
                    f"bracket [{decl.left}, {decl.right}] must be stated as "
                    f"[{decl.right}, {decl.left}]; transposed entries are derived",
                    decl.span,
                )
            )
        if (i, j) in table:
            raise DslError(
                Diagnostic(f"bracket [{decl.left}, {decl.right}] declared twice", decl.span)
            )
        poly, warns = _lower_expr(decl.expr, gen_index, torsion, decl.span)
        warnings.extend(warns)
        poly = LPoly(poly)
        if poly:
            table[(i, j)] = poly
    specs = [GeneratorSpec(g.name, g.torsion) for g in ast.generators]
    return LcaPresentation(ast.name, specs, table), warnings


@_nesting_bounded
def load_presentation(text: str):
    return lower(parse_algebra(text))


# -- emitter -------------------------------------------------------------------


def emit_algebra(pres: LcaPresentation) -> str:
    from .render import poly_text

    lines = [f"algebra {pres.name} {{"]
    gens = []
    for g in pres.generators:
        kind = "free" if g.is_free else f"torsion({g.torsion})"
        gens.append(f"{g.name}: {kind};")
    lines.append("  generators { " + " ".join(gens) + " }")
    for (i, j) in sorted(pres.brackets):
        expr = poly_text(pres, pres.brackets[(i, j)])
        lines.append(f"  bracket [{pres.gen_name(i)}, {pres.gen_name(j)}] = {expr};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- command-line mini grammars ---------------------------------------------------


@_nesting_bounded
def parse_vector(text: str, pres: LcaPresentation):
    """Bracket-expression syntax without lambda, as a conformal vector."""
    parser = Parser(text)
    expr = parser.parse_expr()
    parser.expect("eof")
    span = SourceSpan(0, len(text), 1, 1)
    # refused before the expansion, which a power of a sum with lambda
    # makes long, and even where the lambda terms would cancel
    if any(t[1] == "lambda" for t in parser.toks):
        raise DslError(Diagnostic("lambda is not allowed here", span))
    gen_index = {g.name: i for i, g in enumerate(pres.generators)}
    torsion = [g.torsion for g in pres.generators]
    poly, _ = _lower_expr(expr, gen_index, torsion, span)
    from .core import CVec

    return CVec(poly.get(0, {}))


def _parse_letter(tok: str, pres: LcaPresentation):
    name, depth = tok, "0"
    if "[" in tok:
        if not tok.endswith("]"):
            raise DslError(Diagnostic(f"malformed basis letter {tok!r}", SourceSpan(0, 0, 1, 1)))
        name, depth = tok[:-1].split("[", 1)
    try:
        g = pres.gen_index(name)
    except KeyError:
        raise DslError(Diagnostic(f"unknown generator {name!r}", SourceSpan(0, 0, 1, 1)))
    try:
        sym = (g, int(depth))
    except ValueError:
        sym = None
    if sym is None or not pres.symbol_valid(sym):
        raise DslError(Diagnostic(f"invalid depth for generator {name!r}", SourceSpan(0, 0, 1, 1)))
    if sym[1] > LETTER_DEPTH_LIMIT:
        raise DslError(Diagnostic(
            f"letter {tok!r} of depth {sym[1]} is beyond the limit {LETTER_DEPTH_LIMIT}",
            SourceSpan(0, 0, 1, 1)))
    return sym


def _check_letters(kind: str, count: int) -> None:
    if count > LETTER_LIMIT:
        raise DslError(Diagnostic(
            f"{kind} of {count} letters is beyond the limit {LETTER_LIMIT}", SourceSpan(0, 0, 1, 1)))


def parse_word(text: str, pres: LcaPresentation) -> tuple:
    """Ordered-word syntax: ``:a a k:``, a bare letter, or ``1``."""
    text = text.strip()
    if text == "1":
        return ()
    colons = text.startswith(":") and text.endswith(":") and len(text) >= 2
    return word_from_letters(text[1:-1].split() if colons else [text], pres)


def word_from_letters(letters: list, pres: LcaPresentation) -> tuple:
    """Ordered word of letter texts, at most LETTER_LIMIT of them."""
    _check_letters("word", len(letters))
    return tuple(sorted(_parse_letter(tok, pres) for tok in letters))


def parse_point(text: str, pres: LcaPresentation) -> dict:
    """Assignments ``a[0]=3/2`` separated by commas; ``0`` is the origin."""
    text = text.strip()
    pairs = [] if text in ("", "0") else [piece.split("=", 1) for piece in text.split(",")]
    for pair in pairs:
        if len(pair) < 2:
            raise DslError(
                Diagnostic(f"expected coordinate assignment, found {pair[0].strip()!r}", SourceSpan(0, 0, 1, 1))
            )
    return point_from_pairs(pairs, pres)


# What `Fraction` reads beyond a point value's p, p/q or decimal p.q: an
# exponent, which would build the value digit by digit, or a '_' between digits.
_EXPONENT_OR_UNDERSCORE = re.compile(r"[\d.][eE]|\d_\d")


def _point_value(tok: str, text: str):
    """The value of coordinate ``tok``, read by `Fraction`, with no exponent
    or ``_`` and at most DIGITS_LIMIT digits in all."""
    if _EXPONENT_OR_UNDERSCORE.search(text):
        raise DslError(Diagnostic(f"coordinate {tok!r} has an exponent or '_'; "
                                  "write p, p/q or a decimal", SourceSpan(0, 0, 1, 1)))
    if (digits := sum(map(str.isdigit, text))) > DIGITS_LIMIT:
        raise DslError(Diagnostic(f"coordinate {tok!r} has {digits} digits, beyond the limit "
                                  f"{DIGITS_LIMIT}", SourceSpan(0, 0, 1, 1)))
    try:
        return Q(text)
    except ZeroDivisionError:
        raise DslError(Diagnostic(
            f"division by zero in coordinate {tok!r}", SourceSpan(0, 0, 1, 1))) from None


def point_from_pairs(pairs: list, pres: LcaPresentation) -> dict:
    """Point of (letter, value) text pairs, at most LETTER_LIMIT of them; a
    coordinate given twice is an error."""
    _check_letters("point", len(pairs))
    out: dict = {}
    for tok, value in pairs:
        tok = tok.strip()
        sym = _parse_letter(tok, pres)
        if sym in out:
            raise DslError(Diagnostic(f"coordinate {tok!r} given twice", SourceSpan(0, 0, 1, 1)))
        out[sym] = _point_value(tok, value.strip())
    return iadd({}, out)
