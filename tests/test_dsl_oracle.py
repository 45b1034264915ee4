"""The `.lca` lexer, parser and lowering against the character-by-character oracle.

`oracles.naive_tokenize`, `NaiveParser` and the Fraction lowering are the
format's first implementation.  Every data file and a seeded corpus of
mutated texts must give the package and the oracle an equal presentation
and equal warnings, or an equal diagnostic list.  Two defects of the
oracle are fixed in the package and asserted on their own: a digit that is
not decimal, such as ``²``, is an unexpected character, and a zero
denominator is a ``division by zero`` diagnostic.
"""

import importlib.util
import random
from pathlib import Path

import pytest
from oracles import naive_load_presentation, naive_parse_vector

from lieconformal import dsl
from lieconformal.cli import run

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
DATA_TEXTS = {p.name: p.read_text(encoding="utf-8") for p in sorted(DATA.glob("*.lca"))}

# Non-decimal digits and, for each, a character the oracle classes as the
# package classes the digit: numeric, so it continues a name, but neither
# alphabetic nor a digit, so it starts no token.
NON_DECIMAL = {"²": "½", "¹": "¼", "①": "¾"}

SNIPPETS = [
    *" \t\r\n#[]{}(),;:=+-*^/0123456789", "a", "k", "x", "D", "L", "C", "_", "é", "٣", "Ⅻ",
    "\xa0", "\x0b", "\f", *NON_DECIMAL, "\r\n", "lambda", "D*", "*lambda", "1/0", "/0", "0",
    "^65", "^64", "^2", "(", ")", "torsion(0)", "torsion(2)", "free", "# note", "bracket",
    " - ", "+ a", "1/2*", "algebra", "generators", "} }", "[a, a]",
]

BLANKS = [" ", "\t", "\n", "\r\n", "  # note\n", "\n\n"]
TERMS = [" + a", " - D*a", " + 2*lambda*k", " + (1/2)*D^2*k", " + lambda^2*D*L", " - 3/4*C",
         " + (1 + D)^3*L", " + (D + lambda)^2*x", " - z + z", " + 0*w1", " + 2/4*lambda*b",
         " + D*D*k", " - (lambda - 1)*a", " + y", "*0"]

SPECIAL = [
    # a trailing comment with no newline advances no column of the end token
    "algebra x { generators { a: free; }  # end",
    "algebra x { generators { a: free; }\n  # open",
    "algebra x {\r\n\tgenerators {\ta: free; k: torsion(1); }\r\n\tbracket [a, a] = lambda*k;\r\n}\r\n",
    "algebra x { generators { a: free; } bracket [a, a] =\xa0a; }",
    "algebra x { generators { a: free; } bracket [a, a] = D^65*a; }",
    "algebra x { generators { a: free; } bracket [a, a] = lambda^64*D^64*a; }",
    "algebra x { generators { a: free; } bracket [a, a] = (D + a)^7*(D + a)^7*a; }",
    "algebra x { generators { a: free; } bracket [a, a] = " + "(" * 30 + "a" + ")" * 30 + "; }",
    "algebra x { generators { a: free; k: torsion(2); } bracket [a, a] = D^2*k + 0*a + 4/2*a; }",
    "algebra x { generators { a: free; } bracket [a, a] = 2*a - 2*a + 0*D*a; }",
    "algebra x { generators { a: free; } bracket [a, a] = ٣*a; }",
]

# Nested far past the recursion limit.  They are not mutated: a mutation
# can leave a depth near the limit, and where the limit falls depends on
# the caller's stack, which differs between the package and the oracle.
DEEP = [
    "algebra x { generators { a: free; } bracket [a, a] = " + "(" * 400 + "a" + ")" * 400 + "; }",
    "algebra x { generators { a: free; } bracket [a, a] = " + "-(" * 400 + "a" + ")" * 400 + "; }",
]


def _typed(pres):
    """A presentation with the type of every stored coefficient beside it."""
    return (pres.name, [(g.name, g.torsion) for g in pres.generators],
            {ij: {n: sorted((k, type(c).__name__, c) for k, c in vec.coeffs.items())
                  for n, vec in poly.coeffs.items()}
             for ij, poly in pres.brackets.items()})


def _diags(diagnostics):
    return [(d.message, d.span.begin, d.span.end, d.span.line, d.span.column) for d in diagnostics]


def _outcome(load, text):
    try:
        pres, warnings = load(text)
    except dsl.DslError as exc:
        return "error", _diags(exc.diagnostics)
    return "ok", _typed(pres), _diags(warnings)


def _mutate(rng, text, ops):
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, len(text))
        j = min(len(text), i + rng.randint(1, 6))
        op = rng.choice(ops)
        if op == 0:
            text = text[:i] + text[j:]
        elif op == 1:
            text = text[:i] + rng.choice(SNIPPETS) + text[i:]
        elif op == 2:
            text = text[:i] + rng.choice(SNIPPETS) + text[j:]
        elif op == 3:
            text = text[:i] + text[i:j] + text[i:]
        elif op == 4:
            text = text[:i] + text[i:j][::-1] + text[j:]
        elif op == 5:
            # blanks beside a space, so that no name is split
            i = text.find(" ", i)
            text = text[:i] + rng.choice(BLANKS) + text[i:] if i >= 0 else text
        else:
            # a term added to a bracket expression, which often still lowers
            k = text.find("= ", i)
            k = text.find("= ") if k < 0 else k
            i = text.find(";", k)
            text = text[:i] + rng.choice(TERMS) + text[i:] if k >= 0 and i >= 0 else text
    return text


def corpus(seed: int = 31, count: int = 6000) -> list:
    rng = random.Random(seed)
    bases = list(DATA_TEXTS.values()) + SPECIAL
    texts = bases + DEEP
    while len(texts) < count:
        # every other text only gains blanks and terms, so that many lower
        ops = range(7) if len(texts) % 2 else (5, 6)
        texts.append(_mutate(rng, rng.choice(bases), ops))
    return texts


def _zero_denominator(text, diag):
    """Whether a diagnostic is a division by zero at a zero denominator."""
    message, begin, end, _, _ = diag
    before = text[:begin].rstrip(" \t\r\n")
    return message == "division by zero" and text[begin:end].isdecimal() \
        and int(text[begin:end]) == 0 and before.endswith("/")


def _agrees(got, naive, text):
    """The package's outcome ``got`` on ``text`` is the oracle's, but for the two fixes.

    A non-decimal digit is classed by the oracle as the character
    NON_DECIMAL gives for it, and a zero denominator, a ZeroDivisionError
    of the oracle, is one ``division by zero`` diagnostic.
    """
    shown = text.translate(str.maketrans(NON_DECIMAL))
    try:
        want = _outcome(naive, shown)
    except ZeroDivisionError:
        return got[0] == "error" and len(got[1]) == 1 and _zero_denominator(text, got[1][0])
    if shown != text:
        # names and messages show the character the oracle was given
        return repr(got) == repr(want).translate(str.maketrans({v: k for k, v in NON_DECIMAL.items()}))
    return got == want


def test_data_files_lower_as_the_oracle_lowers():
    for name, text in DATA_TEXTS.items():
        assert _outcome(dsl.load_presentation, text) == _outcome(naive_load_presentation, text), name


def test_mutated_texts_lower_as_the_oracle_lowers():
    texts = corpus()
    assert len(texts) >= 5000
    outcomes = {"ok": 0, "error": 0}
    for text in texts:
        got = _outcome(dsl.load_presentation, text)
        assert _agrees(got, naive_load_presentation, text), repr(text)
        outcomes[got[0]] += 1
    # the corpus reaches both the lowering and the diagnostics
    assert min(outcomes.values()) > 1500, outcomes


def test_special_texts_show_each_quirk():
    outcomes = {text: _outcome(dsl.load_presentation, text) for text in SPECIAL + DEEP}
    end = "expected bracket, found 'end of input'"
    n = len(SPECIAL[0])
    assert outcomes[SPECIAL[0]][1] == [(end, n, n, 1, SPECIAL[0].index("#") + 1)]
    n = len(SPECIAL[1])
    assert outcomes[SPECIAL[1]][1] == [(end, n, n, 2, 3)]
    assert outcomes[SPECIAL[2]][0] == "ok"
    begin = SPECIAL[3].index("\xa0")
    assert outcomes[SPECIAL[3]][1] == [("unexpected character '\\xa0'", begin, begin + 1, 1, begin + 1)]
    assert outcomes[SPECIAL[4]][1][0][0] == f"exponent 65 is beyond the limit {dsl.POW_LIMIT}"
    assert outcomes[SPECIAL[5]][0] == "ok"
    assert "beyond the limit 8192" in outcomes[SPECIAL[6]][1][0][0]
    assert outcomes[SPECIAL[7]][0] == "ok"
    for deep in DEEP:
        assert outcomes[deep][1] == [("expression nested too deeply", 0, len(deep), 1, 1)]


def test_unexpected_characters_keep_their_spans():
    for ch in ("\xa0", "\x0b", "\f", "½", "Ⅻ", "²"):
        text = f"algebra x {{\n  generators {{ a: free; }}\n  bracket [a, a] = {ch}*a; }}"
        begin = text.index(ch)
        assert _outcome(dsl.load_presentation, text) == (
            "error", [(f"unexpected character {ch!r}", begin, begin + 1, 3, 20)])


# -- the two fixed defects ------------------------------------------------------


def test_non_decimal_digits_are_unexpected_characters():
    for text, ch in (("algebra x { generators { k: torsion(¹); } }", "¹"),
                     ("algebra x { generators { k: torsion(1²); } }", "²"),
                     ("algebra x { generators { a: free; } bracket [a, a] = ①*a; }", "①")):
        begin = text.index(ch)
        with pytest.raises(dsl.DslError) as err:
            dsl.load_presentation(text)
        assert _diags(err.value.diagnostics) == [
            (f"unexpected character {ch!r}", begin, begin + 1, 1, begin + 1)]
    # inside a name a numeric character stays part of it, as before
    with pytest.raises(dsl.DslError, match="unknown identifier 'a²'"):
        dsl.load_presentation("algebra x { generators { a: free; } bracket [a, a] = a²; }")
    virasoro = str(DATA / "virasoro.lca")
    assert run(["bracket", virasoro, "--left", "²*L", "--right", "L"]) == (
        2, "1:1: unexpected character '²'\n")
    assert run(["nth", virasoro, "--left", "L", "--right", "3¹*L", "--n", "0"]) == (
        2, "1:2: unexpected character '¹'\n")


def test_zero_denominator_is_a_diagnostic():
    text = "algebra x { generators { a: free; } bracket [a, a] = 1/0*a; }"
    with pytest.raises(dsl.DslError) as err:
        dsl.load_presentation(text)
    begin = text.index("/0") + 1
    assert _diags(err.value.diagnostics) == [("division by zero", begin, begin + 1, 1, begin + 1)]
    with pytest.raises(ZeroDivisionError):
        naive_load_presentation(text)
    virasoro, heisenberg = str(DATA / "virasoro.lca"), str(DATA / "heisenberg.lca")
    assert run(["bracket", virasoro, "--left", "1/0*L", "--right", "L"]) == (2, "1:3: division by zero\n")
    assert run(["bracket", virasoro, "--left", "L", "--right", "(3/ 00)*L"]) == (
        2, "1:5: division by zero\n")
    assert run(["eval", heisenberg, "--a", "a[0]=1/0", "--b", "a[0]=1", "--window=-1..1"]) == (
        2, "1:1: division by zero in coordinate 'a[0]'\n")


def test_zero_denominator_in_a_json_point(tmp_path):
    arg = tmp_path / "point.json"
    arg.write_text('{"coords": {"a[0]": "2/0"}}', encoding="utf-8")
    assert run(["eval", str(DATA / "heisenberg.lca"), "--a", f"@{arg}", "--b", "0", "--window=-1..1"]) == (
        2, "1:1: division by zero in coordinate 'a[0]'\n")


# -- vector arguments -------------------------------------------------------------


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _vector_arguments():
    """(file, text) of every bracket and nth vector argument of a few benchmark rounds."""
    workloads = _workloads()
    out = set()
    for seed in range(4):
        for argv, _ in workloads.cli_commands(seed, reduced=False):
            if "bracket" in argv or "nth" in argv:
                name = next(a for a in argv if a.endswith(".lca"))
                out.update((name, argv[argv.index(opt) + 1]) for opt in ("--left", "--right"))
    return sorted(out)


def _vector_outcome(parse, text, pres):
    try:
        return "ok", sorted((k, type(c).__name__, c) for k, c in parse(text, pres).coeffs.items())
    except dsl.DslError as exc:
        return "error", _diags(exc.diagnostics)


def test_vector_arguments_agree_with_the_oracle():
    args = _vector_arguments() + [("virasoro.lca", "(1 + D)^40*L"), ("virasoro.lca", "lambda*L"),
                                  ("virasoro.lca", "(D + lambda - lambda)*L"),
                                  ("heisenberg.lca", "(D + a)^40*a"), ("heisenberg.lca", "2*a +")]
    assert len(args) > 20
    presentations = {}
    for name, text in args:
        if name not in presentations:
            presentations[name] = dsl.load_presentation(DATA_TEXTS[name])[0]
        pres = presentations[name]
        got = _vector_outcome(dsl.parse_vector, text, pres)
        assert got == _vector_outcome(naive_parse_vector, text, pres), (name, text)
    refused = _vector_outcome(dsl.parse_vector, "(D + lambda - lambda)*L", presentations["virasoro.lca"])
    assert refused == ("error", [("lambda is not allowed here", 0, 23, 1, 1)])
