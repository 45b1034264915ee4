import argparse
import itertools
import json
import math
import os
import re
import subprocess
import sys
import time
from fractions import Fraction as Q
from pathlib import Path

import golden
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from lieconformal import cli, dsl, filtration
from lieconformal.cli import DEG_LIMIT, DEPTH_LIMIT, MAX_LEN_LIMIT, SAMPLES_LIMIT, WINDOW_LIMIT, run
from lieconformal.core import CVec, LPoly
from lieconformal.enveloping import EnvelopingAlgebra, UElem
from lieconformal.manifold import VertexManifold, integrate

DATA = Path(__file__).parent / "data"

GOLDEN_FILES = [
    "heisenberg.lca",
    "virasoro.lca",
    "abelian1.lca",
    "abelian2.lca",
    "n3current.lca",
    "mixed.lca",
]


def read(name):
    return (DATA / name).read_text()


class TestParsing:
    def test_heisenberg_source(self):
        ast = dsl.parse_algebra(read("heisenberg.lca"))
        assert ast.name == "heisenberg"
        assert [(g.name, g.torsion) for g in ast.generators] == [("a", None), ("k", 1)]
        assert len(ast.brackets) == 1

    def test_golden_files_lower_to_golden_presentations(self):
        builders = {
            "heisenberg.lca": golden.heisenberg,
            "virasoro.lca": golden.virasoro,
            "abelian1.lca": golden.abelian1,
            "abelian2.lca": golden.abelian2,
            "n3current.lca": golden.n3_current,
            "mixed.lca": golden.mixed,
        }
        for name, build in builders.items():
            pres, warnings = dsl.load_presentation(read(name))
            assert not warnings
            assert pres == build(), name

    def test_syntax_error_has_span(self):
        with pytest.raises(dsl.DslError) as err:
            dsl.parse_algebra("algebra x { generators { a: free }")
        diag = err.value.diagnostics[0]
        assert diag.span.line >= 1 and diag.span.begin <= len("algebra x { generators { a: free }")

    def test_duplicate_generator(self):
        src = "algebra x { generators { a: free; a: free; } }"
        with pytest.raises(dsl.DslError) as err:
            dsl.parse_algebra(src)
        assert "duplicate" in str(err.value)

    def test_every_diagnostic_span_is_inside_source(self):
        bad_sources = [
            "algebra x { generators { a: free; } bracket [a, a] = lambda; }",
            "algebra x { generators { a: free; } bracket [a, a] = b; }",
            "algebra x { generators { a: free; b: free; } bracket [b, a] = a; }",
            "algebra x { generators { a: free; } bracket [a, a] = a*D; }",
            "algebra x { generators { a: }",
        ]
        for src in bad_sources:
            with pytest.raises(dsl.DslError) as err:
                pres, _ = dsl.load_presentation(src)
            for diag in err.value.diagnostics:
                assert 0 <= diag.span.begin <= diag.span.end <= len(src)


class TestLowering:
    def test_expression_normalization(self):
        src = (
            "algebra v { generators { L: free; C: torsion(1); } "
            "bracket [L, L] = (D + 2*lambda)*L + (1/12)*lambda^3*C; }"
        )
        pres, warnings = dsl.load_presentation(src)
        assert not warnings
        assert pres.brackets[(0, 0)] == LPoly(
            {0: {(0, 1): 1}, 1: {(0, 0): 2}, 3: {(1, 0): Q(1, 12)}}
        )
        # like terms are summed after each product, so a power's expansion
        # stays linear in its exponent rather than doubling per factor
        start = time.process_time()
        pres, _ = dsl.load_presentation(src.replace("(D + 2*lambda)*L", "(lambda + 1)^40*L"))
        assert pres.brackets[(0, 0)] == LPoly(
            {n: {(0, 0): math.comb(40, n)} for n in range(41)} | {3: {(0, 0): math.comb(40, 3), (1, 0): Q(1, 12)}}
        )
        assert dsl.parse_vector("(1 + D)^40*L", golden.virasoro()) == CVec(
            {(0, d): math.comb(40, d) * math.factorial(d) for d in range(41)}
        )
        assert time.process_time() - start < 1

    def test_expansion_refused_only_past_the_monomial_limit(self):
        # (D + a)^13 forms 8,192 monomials at its last step, so it expands and
        # the lowering rejects it; one factor more is refused at that step
        heis = golden.heisenberg()
        with pytest.raises(dsl.DslError) as err:
            dsl.parse_vector("(D + a)^13*a", heis)
        assert "exactly one generator" in str(err.value)
        start = time.process_time()
        with pytest.raises(dsl.DslError) as err:
            dsl.parse_vector("(D + a)^40*a", heis)
        assert f"forms 16384 monomials, beyond the limit {dsl.MONOMIAL_LIMIT}" in str(err.value)
        assert time.process_time() - start < 1

    def test_monomial_without_generator(self):
        src = "algebra x { generators { a: free; } bracket [a, a] = lambda; }"
        with pytest.raises(dsl.DslError) as err:
            dsl.load_presentation(src)
        assert "exactly one generator" in str(err.value)

    def test_transposed_bracket_rejected(self):
        src = "algebra x { generators { a: free; b: free; } bracket [b, a] = a; }"
        with pytest.raises(dsl.DslError) as err:
            dsl.load_presentation(src)
        assert "must be stated as [a, b]" in str(err.value)

    def test_torsion_annihilation_warns(self):
        src = (
            "algebra x { generators { a: free; k: torsion(1); } "
            "bracket [a, a] = lambda*k + lambda*D^2*k; }"
        )
        pres, warnings = dsl.load_presentation(src)
        assert warnings and "annihilates" in warnings[0].message
        assert pres.brackets[(0, 0)] == LPoly({1: {(1, 0): 1}})

    def test_right_applied_derivative_rejected(self):
        src = "algebra x { generators { a: free; } bracket [a, a] = lambda*a*D; }"
        with pytest.raises(dsl.DslError) as err:
            dsl.load_presentation(src)
        assert "left of a generator" in str(err.value)


class TestEmit:
    def test_parse_print_roundtrip(self):
        for name in GOLDEN_FILES:
            pres, _ = dsl.load_presentation(read(name))
            text = dsl.emit_algebra(pres)
            pres2, _ = dsl.load_presentation(text)
            assert pres2 == pres, name
            # printing is a fixed point after one normalization pass
            assert dsl.emit_algebra(pres2) == text


class TestMiniGrammars:
    def test_vector_expressions(self):
        pres = golden.virasoro()
        v = dsl.parse_vector("D*L + 3*C", pres)
        assert v == CVec({(0, 1): 1, (1, 0): 3})
        v = dsl.parse_vector("(1/2)*D^2*L", pres)
        assert v == CVec({(0, 2): 1})
        with pytest.raises(dsl.DslError):
            dsl.parse_vector("lambda*L", pres)

    def test_words(self):
        pres = golden.heisenberg()
        assert dsl.parse_word("1", pres) == ()
        assert dsl.parse_word("a", pres) == ((0, 0),)
        assert dsl.parse_word(":a a k:", pres) == ((0, 0), (0, 0), (1, 0))
        assert dsl.parse_word(":a[1] a:", pres) == ((0, 0), (0, 1))
        with pytest.raises(dsl.DslError):
            dsl.parse_word(":a q:", pres)
        with pytest.raises(dsl.DslError):
            dsl.parse_word(":k[2]:", pres)

    def test_points(self):
        pres = golden.heisenberg()
        assert dsl.parse_point("0", pres) == {}
        assert dsl.parse_point("a[0]=3/2, k[0]=-1", pres) == {
            (0, 0): Q(3, 2),
            (1, 0): Q(-1),
        }
        with pytest.raises(dsl.DslError):
            dsl.parse_point("a[0]", pres)


class TestCli:
    def test_exit_codes(self, tmp_path):
        assert run(["check", str(DATA / "heisenberg.lca")])[0] == 0
        assert run(["check", str(DATA / "badheis.lca")])[0] == 1
        assert run(["check", str(DATA / "badsyntax.lca")])[0] == 2
        assert run(["nonsense-command"])[0] == 2
        assert run(["integrate", str(DATA / "virasoro.lca")])[0] == 3
        code, _ = run(
            ["fvl", str(DATA / "heisenberg.lca"), "--deg", "2", "--depth", "1",
             "--window=-2..1", "--check-jacobi", "2"]
        )
        assert code == 4

    def test_check_text_output(self):
        code, text = run(["check", str(DATA / "heisenberg.lca")])
        assert code == 0
        assert "antisymmetry: pass" in text and "jacobi: pass" in text
        code, text = run(["check", str(DATA / "badheis.lca")])
        assert code == 1
        assert "antisymmetry: fail" in text and "2*k" in text

    def test_eval_example(self):
        code, text = run(
            ["eval", str(DATA / "heisenberg.lca"), "--a", "a[0]=1", "--b", "a[0]=1",
             "--window=-2..2"]
        )
        assert code == 0
        assert "n=1: k[0]=1" in text

    def test_json_outputs_validate(self):
        jsonschema = pytest.importorskip("jsonschema")
        report_schema = {
            "type": "object",
            "required": ["algebra", "checks", "pass"],
            "properties": {
                "algebra": {"type": "string"},
                "pass": {"type": "boolean"},
                "checks": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["name", "pass"],
                        "properties": {"name": {"type": "string"}, "pass": {"type": "boolean"}},
                    },
                },
            },
        }
        code, text = run(["check", str(DATA / "heisenberg.lca"), "--format", "json"])
        assert code == 0
        jsonschema.validate(json.loads(text), report_schema)

        table_schema = {
            "type": "object",
            "required": ["algebra", "degree", "depth", "window", "entries"],
            "properties": {
                "algebra": {"type": "string"},
                "degree": {"type": "integer"},
                "depth": {"type": "integer"},
                "window": {
                    "type": "array", "items": {"type": "integer"},
                    "minItems": 2, "maxItems": 2,
                },
                "entries": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["l", "n", "k", "kprime", "coeff"],
                        "properties": {
                            "l": {"type": "string"},
                            "n": {"type": "integer"},
                            "k": {"type": "object", "additionalProperties": {"type": "integer"}},
                            "kprime": {"type": "object", "additionalProperties": {"type": "integer"}},
                            "coeff": {"type": "string", "pattern": "^-?[0-9]+(/[0-9]+)?$"},
                        },
                    },
                },
            },
        }
        code, text = run(
            ["fvl", str(DATA / "heisenberg.lca"), "--deg", "2", "--depth", "2",
             "--window=-6..6", "--format", "json"]
        )
        assert code == 0
        jsonschema.validate(json.loads(text), table_schema)

        point_schema = {
            "type": "object",
            "required": ["bound", "slices"],
            "properties": {
                "bound": {"type": "integer"},
                "slices": {
                    "type": "object",
                    "additionalProperties": {
                        "type": "object",
                        "required": ["coords"],
                        "properties": {
                            "coords": {
                                "type": "object",
                                "additionalProperties": {"type": "string"},
                            }
                        },
                    },
                },
            },
        }
        code, text = run(
            ["eval", str(DATA / "heisenberg.lca"), "--a", "a[0]=1", "--b", "a[0]=1",
             "--window=-2..2", "--format", "json"]
        )
        assert code == 0
        jsonschema.validate(json.loads(text), point_schema)

        summary_schema = {
            "type": "object",
            "required": ["N", "theta_table", "basis_change"],
            "properties": {
                "N": {"type": "integer"},
                "theta_table": {"type": "object", "additionalProperties": {"type": "integer"}},
                "basis_change": {"type": "object"},
            },
        }
        code, text = run(["integrate", str(DATA / "mixed.lca"), "--format", "json"])
        assert code == 0
        jsonschema.validate(json.loads(text), summary_schema)

    def test_deterministic_reruns(self):
        argvs = [
            ["verify-manifold", str(DATA / "heisenberg.lca"), "--samples", "6",
             "--seed", "11", "--window=-3..3", "--format", "json"],
            ["fvl", str(DATA / "heisenberg.lca"), "--deg", "2", "--depth", "2",
             "--window=-6..6", "--format", "json"],
            ["integrate", str(DATA / "mixed.lca"), "--format", "json"],
            ["roundtrip", str(DATA / "n3current.lca")],
        ]
        for argv in argvs:
            first = run(argv)
            second = run(argv)
            assert first == second

    def test_verify_manifold_passes(self):
        code, text = run(
            ["verify-manifold", str(DATA / "heisenberg.lca"), "--samples", "8",
             "--seed", "2", "--window=-4..4"]
        )
        assert code == 0
        assert "jacobi: pass" in text

    def test_fvl_writes_table(self, tmp_path):
        out = tmp_path / "table.json"
        code, text = run(
            ["fvl", str(DATA / "heisenberg.lca"), "--deg", "2", "--depth", "2",
             "--window=-8..6", "--check-identities", "--check-jacobi", "2",
             "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["algebra"] == "heisenberg"
        assert any(e["n"] == 1 and e["l"] == "k[0]" for e in doc["entries"])

    def test_roundtrip_command(self):
        for name in ["heisenberg.lca", "abelian2.lca", "n3current.lca", "mixed.lca"]:
            code, text = run(["roundtrip", str(DATA / name)])
            assert code == 0, (name, text)
            assert "roundtrip: pass" in text


def test_empty_generator_block_parses():
    pres, _ = dsl.load_presentation("algebra none { generators { } }")
    assert pres.generators == []
    assert pres.check_axioms().ok


def test_identities_fail_on_a_table_with_no_positions(tmp_path):
    # a table with no positions holds neither identity slice
    path = tmp_path / "e.lca"
    path.write_text("algebra e { generators { } }\n")
    argv = ["fvl", str(path), "--deg", "1", "--depth", "0", "--window=-1..1",
            "--check-identities"]
    assert run(argv) == (1, "left identity: fail\nright identity: fail\n"
                            "  fail: {'side': 'left', 'reason': 'table has no positions'}\n"
                            "  fail: {'side': 'right', 'reason': 'table has no positions'}\n"
                            "entries: 0\n")
    code, text = run(["--format", "json", *argv])
    assert code == 1
    assert json.loads(text)["reports"] == {"identities": {
        "left_identity": False, "right_identity": False,
        "failures": [{"side": "left", "reason": "table has no positions"},
                     {"side": "right", "reason": "table has no positions"}]}}


def test_jacobi_fails_on_a_table_with_no_positions_and_says_why(tmp_path):
    # a table with no positions checks no (l, t, j) case, and the report
    # names that in check_identities' words
    path = tmp_path / "e.lca"
    path.write_text("algebra e { generators { } }\n")
    argv = ["fvl", str(path), "--deg", "1", "--depth", "0", "--window=-1..1", "--check-jacobi", "1"]
    assert run(argv) == (1, "jacobi (degree 1): fail\n  fail: table has no positions\nentries: 0\n")
    code, text = run(["--format", "json", *argv])
    assert code == 1
    assert json.loads(text)["reports"] == {"jacobi": {"pass": False, "reason": "table has no positions"}}


def test_check_prints_lowering_warnings_before_its_lines(tmp_path):
    path = tmp_path / "w.lca"
    path.write_text("algebra w {\n  generators { a: free; k: torsion(1); }\n"
                    "  bracket [a, a] = D*k + lambda*k;\n}\n")
    assert run(["check", str(path)]) == (
        0, "warning: 3:22: derivative power 1 annihilates torsion generator 'k'; term dropped\n"
           "sesquilinearity: pass\nantisymmetry: pass\njacobi: pass\n")
    code, text = run(["--format", "json", "check", str(path)])
    assert code == 0 and json.loads(text)["pass"]


def test_global_flags_before_or_after_the_subcommand(monkeypatch):
    heis = str(DATA / "heisenberg.lca")
    before = run(["--format", "json", "check", heis])
    assert before == run(["check", "--format", "json", heis])
    assert json.loads(before[1])["pass"] is True
    seeds = []
    check_axioms = VertexManifold.check_axioms

    def recording(self, samples, seed, window):
        seeds.append(seed)
        return check_axioms(self, samples, seed, window)

    monkeypatch.setattr(VertexManifold, "check_axioms", recording)
    before = run(["--seed", "3", "verify-manifold", heis, "--samples", "4"])
    assert before == run(["verify-manifold", "--seed", "3", heis, "--samples", "4"])
    assert before[0] == 0
    run(["verify-manifold", heis, "--samples", "4"])
    assert seeds == [3, 3, 0]


def test_series_divergent_exits_3_without_traceback(monkeypatch):
    # n3current is nilpotent, but its series needs three steps
    monkeypatch.setattr(filtration, "_SERIES_CAP", 2)
    code, text = run(["integrate", str(DATA / "n3current.lca")])
    assert code == 3
    assert text.startswith("series did not stabilize: ") and text.count("\n") == 1
    assert "Traceback" not in text


def test_outside_basis_exits_4_without_traceback(monkeypatch):
    # with no expander rows every nonzero vector of mixed (the non-graded
    # path) falls outside the issued slice
    monkeypatch.setattr(filtration.AdaptedBasis, "_rebuild_expander", lambda self: None)
    code, text = run(["eval", str(DATA / "mixed.lca"), "--a", "a[0]=1", "--b", "a[0]=1",
                      "--window=-1..1"])
    assert code == 4
    assert text.startswith("basis slice exceeded: ") and text.count("\n") == 1
    assert "Traceback" not in text


@pytest.mark.parametrize("limit, want", [(28, 0), (27, 2)])
def test_fvl_pair_budget(monkeypatch, limit, want):
    # heisenberg's 3 positions up to depth 1 make 28 pairs of total degree
    # at most 2: the budget admits them at its limit and refuses them above it
    monkeypatch.setattr(cli, "PAIR_LIMIT", limit)
    code, text = run(["fvl", str(DATA / "heisenberg.lca"), "--deg", "2", "--depth", "1",
                      "--window=-2..2"])
    assert code == want, text
    if want:
        assert text == ("invalid argument: --deg 2 --depth 1 makes 28 multi-index pairs, "
                        "beyond the limit 27\n")


def test_cli_rejects_bad_values(tmp_path):
    code, text = run(["nth", str(DATA / "heisenberg.lca"), "--left", "a",
                      "--right", "a", "--n", "-1"])
    assert code == 2 and "invalid argument" in text
    code, text = run(["eval", str(DATA / "heisenberg.lca"), "--a", "a[0]=x",
                      "--b", "0", "--window=-1..1"])
    assert code == 2
    heis = str(DATA / "heisenberg.lca")
    for argv, want in [
        (["eval", heis, "--a", "a[0]=1", "--b", "a[0]=1", "--window=5..-5"], 2),
        (["yprod", heis, "--left", "a", "--right", "a", "--window=1..0"], 2),
        (["fvl", heis, "--deg", "-1", "--depth", "2", "--window=-2..2"], 2),
        (["fvl", heis, "--deg", "2", "--depth", "-3", "--window=-2..2"], 2),
        (["primitives", heis, "--max-len", "-2", "--depth", "2"], 2),
        (["primitives", heis, "--max-len", "2", "--depth", "-1"], 2),
        (["verify-manifold", heis, "--samples", "-1"], 2),
        # a suite that examined no point does not pass
        (["verify-manifold", heis, "--samples", "0"], 1),
        # sizes beyond the limits exit 2 with one line, before any work
        (["primitives", heis, "--max-len", "12", "--depth", "6"], 2),
        (["primitives", heis, "--max-len", str(MAX_LEN_LIMIT + 1), "--depth", "1"], 2),
        (["primitives", heis, "--max-len", "2", "--depth", str(DEPTH_LIMIT + 1)], 2),
        (["primitives", heis, "--max-len", str(MAX_LEN_LIMIT), "--depth", str(DEPTH_LIMIT)], 0),
        (["verify-manifold", heis, "--samples", "100000000"], 2),
        (["verify-manifold", heis, "--samples", str(SAMPLES_LIMIT + 1)], 2),
        (["fvl", heis, "--deg", "100", "--depth", "1", "--window=-2..2"], 2),
        (["fvl", heis, "--deg", str(DEG_LIMIT + 1), "--depth", "1", "--window=-2..2"], 2),
        (["fvl", heis, "--deg", str(DEG_LIMIT), "--depth", "1", "--window=-2..2"], 0),
        (["fvl", heis, "--deg", "2", "--depth", str(DEPTH_LIMIT + 1), "--window=-2..2"], 2),
        (["fvl", heis, "--deg", "2", "--depth", str(DEPTH_LIMIT), "--window=-2..2"], 0),
        # 324,632 multi-index pairs, each value inside its own limit
        (["fvl", str(DATA / "n3current.lca"), "--deg", "5", "--depth", "2", "--window=-2..2"], 2),
    ]:
        start = time.monotonic()
        code, text = run(argv)
        assert code == want, (argv, text)
        if "beyond the limit" in text:
            assert time.monotonic() - start < 1, argv
            assert text.startswith("invalid argument: --") and text.count("\n") == 1, text
    # unreadable files and malformed @FILE arguments exit 2 with one line
    (tmp_path / "w.json").write_text(json.dumps({"word": [1, 2]}))
    (tmp_path / "c.json").write_text(json.dumps({"coords": [1]}))
    # JSON keys and values are read as given, never re-split as text
    (tmp_path / "split.json").write_text(json.dumps({"coords": {"a[0]=1, a[0]": 2}}))
    (tmp_path / "space.json").write_text(json.dumps({"word": ["a a"]}))
    (tmp_path / "null.json").write_text(json.dumps({"coords": {"a[0]": None}}))
    (tmp_path / "twice.json").write_text(json.dumps({"coords": {"a": 1, "a[0]": 2}}))
    deep = "(" * 2000 + "lambda*k" + ")" * 2000
    (tmp_path / "deep.lca").write_text(read("heisenberg.lca").replace("lambda*k", deep))
    fvl = ["fvl", heis, "--deg", "2", "--depth", "1", "--window=-4..4", "--check-jacobi"]
    for argv, want in [
        # a Jacobi check below degree 1 would compare only empty polynomials
        ([*fvl, "0"], "invalid argument: check degree 0 compares nothing; it must be at least 1\n"),
        ([*fvl, "-1"], "invalid argument: check degree -1 compares nothing; it must be at least 1\n"),
        # a coordinate given twice is rejected, not summed
        (["eval", heis, "--a", "a[0]=1, a[0]=2", "--b", "a[0]=1", "--window=1..1"],
         "1:1: coordinate 'a[0]' given twice\n"),
        (["eval", heis, "--a", "a=1, a[0]=2", "--b", "a[0]=1", "--window=1..1"],
         "1:1: coordinate 'a[0]' given twice\n"),
        (["eval", heis, "--a", f"@{tmp_path / 'twice.json'}", "--b", "0", "--window=1..1"],
         "1:1: coordinate 'a[0]' given twice\n"),
        (["eval", heis, "--a", f"@{tmp_path / 'split.json'}", "--b", "0", "--window=1..1"],
         "1:1: invalid depth for generator 'a'\n"),
        # a depth that is not an integer gets the diagnostic of a negative one
        (["eval", heis, "--a", "a[x]=1", "--b", "0", "--window=1..1"],
         "1:1: invalid depth for generator 'a'\n"),
        (["nop", heis, "--left", f"@{tmp_path / 'space.json'}", "--right", "a"],
         "1:1: unknown generator 'a a'\n"),
        (["eval", heis, "--a", f"@{tmp_path / 'null.json'}", "--b", "0", "--window=1..1"],
         f"1:1: unrecognized JSON argument in {str(tmp_path / 'null.json')!r}\n"),
        # nesting past the recursion limit is a diagnostic, not a traceback
        (["bracket", heis, "--left", "(" * 2000 + "a" + ")" * 2000, "--right", "a"],
         "1:1: expression nested too deeply\n"),
        (["check", str(tmp_path / "deep.lca")], "1:1: expression nested too deeply\n"),
        # an exponent past the limit is refused before any expansion
        (["bracket", heis, "--left", f"(1 + D)^{dsl.POW_LIMIT + 1}*a", "--right", "a"],
         f"1:9: exponent {dsl.POW_LIMIT + 1} is beyond the limit {dsl.POW_LIMIT}\n"),
        (["bracket", heis, "--left", "(1 + D)^1000*a", "--right", "a"],
         f"1:9: exponent 1000 is beyond the limit {dsl.POW_LIMIT}\n"),
        # a power whose every order of symbols is its own monomial is refused
        # at the product step that would form too many
        (["bracket", heis, "--left", "(D + a)^16*a", "--right", "a"],
         f"1:2: expansion forms 16384 monomials, beyond the limit {dsl.MONOMIAL_LIMIT}\n"),
        # a vector naming lambda is refused before its expansion, also
        # where a product cancels the lambda terms
        (["bracket", heis, "--left", "(lambda - lambda)*a + a", "--right", "a"],
         "1:1: lambda is not allowed here\n"),
        (["bracket", heis, "--left", "0*lambda*a + a", "--right", "a"],
         "1:1: lambda is not allowed here\n"),
        (["check", str(tmp_path)], f"cannot open {str(tmp_path)!r}\n"),
        (["nop", heis, "--left", f"@{tmp_path}", "--right", "a"], f"cannot open {str(tmp_path)!r}\n"),
        (["nop", heis, "--left", f"@{tmp_path / 'w.json'}", "--right", "a"],
         f"1:1: unrecognized JSON argument in {str(tmp_path / 'w.json')!r}\n"),
        (["eval", heis, "--a", f"@{tmp_path / 'c.json'}", "--b", "0", "--window=-1..1"],
         f"1:1: unrecognized JSON argument in {str(tmp_path / 'c.json')!r}\n"),
    ]:
        assert run(argv) == (2, want), argv
    # expanding (1 + D + lambda)^64 takes about a second of CPU, so the refusal comes first
    start = time.process_time()
    assert run(["bracket", heis, "--left", "(1 + D + lambda)^64*a", "--right", "a"]) \
        == (2, "1:1: lambda is not allowed here\n")
    assert time.process_time() - start < 0.1


def test_json_arguments_read_like_their_text_forms(tmp_path):
    # numbers, fractions as strings and decimals read as exact rationals
    heis = str(DATA / "heisenberg.lca")
    (tmp_path / "p.json").write_text(json.dumps({"coords": {"a[0]": 0.5, "k": "3/2"}}))
    (tmp_path / "w.json").write_text(json.dumps({"word": ["a[1]", "a"]}))
    (tmp_path / "one.json").write_text(json.dumps({"word": []}))
    for from_file, as_text in [
        (["eval", heis, "--a", f"@{tmp_path / 'p.json'}", "--b", "a[0]=1", "--window=-2..1"],
         ["eval", heis, "--a", "a[0]=1/2, k=3/2", "--b", "a[0]=1", "--window=-2..1"]),
        (["nop", heis, "--left", f"@{tmp_path / 'w.json'}", "--right", "a"],
         ["nop", heis, "--left", ":a a[1]:", "--right", "a"]),
        (["nop", heis, "--left", f"@{tmp_path / 'one.json'}", "--right", "a"],
         ["nop", heis, "--left", "1", "--right", "a"]),
    ]:
        assert run(from_file) == run(as_text) and run(as_text)[0] == 0, as_text


def test_word_and_point_limits_exit_2_with_one_line(tmp_path):
    # each refusal names its value and its limit, in text and @FILE form
    # alike, before any work
    heis, n3 = str(DATA / "heisenberg.lca"), str(DATA / "n3current.lca")
    lim, dlim, ylim = dsl.LETTER_LIMIT, dsl.LETTER_DEPTH_LIMIT, cli.YPROD_LIMIT
    deep = f"a[{dlim + 1}]"
    docs = {
        "word": {"word": ["a"] * (lim + 1)},
        "point": {"coords": {g: 1 for g in ["x", "y", "z", "w1", "w2"][:lim + 1]}},
        "deep_word": {"word": ["a", deep]},
        "deep_point": {"coords": {deep: 1}},
        "four": {"word": ["x", "y", "z", "w1"]},
    }
    for name, doc in docs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    # 100,000 nested arrays overflow the JSON reader's recursion
    (tmp_path / "nested.json").write_text('{"word": ' + "[" * 100_000 + "]" * 100_000 + "}")

    def at(name):
        return f"@{tmp_path / name}.json"

    long_word = ":" + " ".join(["a"] * (lim + 1)) + ":"
    long_point = ", ".join(f"{g}=1" for g in ["x", "y", "z", "w1", "w2"][:lim + 1])
    word_line = f"1:1: word of {lim + 1} letters is beyond the limit {lim}\n"
    point_line = f"1:1: point of {lim + 1} letters is beyond the limit {lim}\n"
    depth_line = f"1:1: letter {deep!r} of depth {dlim + 1} is beyond the limit {dlim}\n"
    four = ":x y z w1:"
    # C(J - 1 + 4, 4) * 4 * 4 letter pairs from n = -J: 2,016 at J = 6, 3,360 at J = 7
    yprod_line = f"invalid argument: words of 4 and 4 letters from n=-7 make 3360 letter pairs, " \
                 f"beyond the limit {ylim}\n"
    refusals = [
        (["nop", heis, "--left", long_word, "--right", "a"], word_line),
        (["nop", heis, "--left", "a", "--right", at("word")], word_line),
        (["coproduct", heis, "--elem", long_word], word_line),
        (["coproduct", heis, "--elem", at("word")], word_line),
        (["yprod", heis, "--left", long_word, "--right", "a", "--window=0..1"], word_line),
        (["eval", n3, "--a", long_point, "--b", "0", "--window=-1..1"], point_line),
        (["eval", n3, "--a", "0", "--b", at("point"), "--window=-1..1"], point_line),
        (["nop", heis, "--left", f":a {deep}:", "--right", "a"], depth_line),
        (["nop", heis, "--left", at("deep_word"), "--right", "a"], depth_line),
        (["eval", heis, "--a", f"{deep}=1", "--b", "0", "--window=-1..1"], depth_line),
        (["eval", heis, "--a", at("deep_point"), "--b", "0", "--window=-1..1"], depth_line),
        (["eval", n3, "--a", "x[400]=1", "--b", "y[400]=1", "--window=-1..1"],
         f"1:1: letter 'x[400]' of depth 400 is beyond the limit {dlim}\n"),
        (["yprod", n3, "--left", four, "--right", four, "--window=-7..7"], yprod_line),
        (["yprod", n3, "--left", at("four"), "--right", at("four"), "--window=-7..7"], yprod_line),
        (["nop", heis, "--left", at("nested"), "--right", "a"], "1:1: expression nested too deeply\n"),
        (["yprod", heis, "--left", "a", "--right", at("nested"), "--window=0..1"],
         "1:1: expression nested too deeply\n"),
    ]
    for argv, want in refusals:
        start = time.process_time()
        assert run(argv) == (2, want), argv
        assert time.process_time() - start < 1, argv
    # the limits themselves are admitted
    at_limits = [
        ["nop", heis, "--left", f":a a a a[{dlim}]:", "--right", f":a[{dlim}] k k a:"],
        ["eval", n3, "--a", f"x=1, y[{dlim}]=2, z=1, w1=1", "--b", "x=1", "--window=-1..1"],
        ["yprod", n3, "--left", four, "--right", at("four"), "--window=-6..6"],
    ]
    for argv in at_limits:
        assert run(argv)[0] == 0, argv
    # the library parses through the same limits
    pres, _ = dsl.load_presentation(read("heisenberg.lca"))
    with pytest.raises(dsl.DslError, match="beyond the limit"):
        dsl.parse_word(long_word, pres)
    with pytest.raises(dsl.DslError, match="beyond the limit"):
        dsl.parse_point(f"{deep}=1", pres)


LIMIT_LETTERS = ["a", "k", "q", "a[1]", "a[2]", "a[3]", "k[1]", "a[x]", "a[-1]",
                 "a[1000000]", "a[", "1", ""]


@settings(max_examples=80, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_word_and_point_arguments_near_the_limits_exit_with_a_code(tmp_path, data):
    # words and points of up to two letters past LETTER_LIMIT, letters past
    # LETTER_DEPTH_LIMIT and deeply nested JSON, as text or @FILE
    draw = data.draw
    heis = str(DATA / "heisenberg.lca")
    letters = st.lists(st.sampled_from(LIMIT_LETTERS), max_size=dsl.LETTER_LIMIT + 2)
    values = st.sampled_from(["1", "-3/2", "0", "x", "1/0"]) | st.integers(-2, 2) | st.floats()
    docs = itertools.count()

    def from_file(doc) -> str:
        path = tmp_path / f"arg{next(docs)}.json"
        if draw(st.booleans()):
            text = json.dumps(doc)
        else:
            depth = draw(st.sampled_from([10, 1000, 100_000]))
            text = json.dumps(doc)[:-1] + ', "x": ' + "[" * depth + "]" * depth + "}"
        path.write_text(text)
        return f"@{path}"

    def word_arg() -> str:
        ls = draw(letters)
        if draw(st.booleans()):
            return from_file({"word": ls})
        return ":" + " ".join(ls) + ":" if len(ls) != 1 else ls[0]

    def point_arg() -> str:
        pairs = draw(st.lists(st.tuples(st.sampled_from(LIMIT_LETTERS), values),
                              max_size=dsl.LETTER_LIMIT + 2))
        if draw(st.booleans()):
            return from_file({"coords": {k: v for k, v in pairs}})
        return ", ".join(f"{k}={v}" for k, v in pairs) or "0"

    window = draw(st.builds(lambda lo, width: f"--window={lo}..{lo + width}",
                            st.integers(-8, 1), st.integers(0, 3)))
    argv = draw(st.sampled_from([
        lambda: ["nop", heis, "--left", word_arg(), "--right", word_arg()],
        lambda: ["coproduct", heis, "--elem", word_arg()],
        lambda: ["yprod", heis, "--left", word_arg(), "--right", word_arg(), window],
        lambda: ["eval", heis, "--a", point_arg(), "--b", point_arg(), window],
    ]))()
    code, text = run(argv)
    assert 0 <= code <= 4, (argv, text)
    assert "Traceback" not in text, argv
    if "beyond the limit" in text or "nested too deeply" in text:
        assert code == 2 and text.count("\n") == 1, (argv, text)


def test_nth_of_a_vanishing_coefficient_returns_at_once():
    # a product index past the kept products' top index is read as zero at once
    heis = str(DATA / "heisenberg.lca")
    start = time.monotonic()
    code, text = run(["nth", heis, "--left", "a", "--right", "a", "--n", "1000000"])
    assert time.monotonic() - start < 1
    assert (code, text) == (0, "0\n")
    pres, _ = dsl.load_presentation((DATA / "heisenberg.lca").read_text(encoding="utf-8"))
    env = EnvelopingAlgebra(pres)
    a = UElem.monomial(((0, 0),))
    start = time.monotonic()
    assert not env.nth(a, a, 1000000) and env.nth(a, a, 1)
    assert time.monotonic() - start < 1


def test_failing_law_jacobi_names_its_first_failing_case():
    # text and JSON carry the same witness; a passing check prints none
    argv = ["fvl", str(DATA / "badheis.lca"), "--deg", "2", "--depth", "0", "--window=-4..4",
            "--check-jacobi", "2"]
    assert run(argv) == (1, "jacobi (degree 2): fail\n"
                            "  witness: ltj=[-1, -1, 1] l=k[0] residual_monomials=1\n"
                            "entries: 5\n")
    code, text = run(["--format", "json", *argv])
    assert code == 1
    assert json.loads(text)["reports"] == {"jacobi": {
        "pass": False, "witness": {"ltj": [-1, -1, 1], "l": "k[0]", "residual_monomials": 1}}}
    code, text = run(["fvl", str(DATA / "heisenberg.lca"), *argv[2:]])
    assert (code, text) == (0, "jacobi (degree 2): pass\nentries: 5\n")


def test_failing_manifold_jacobi_names_its_witness(monkeypatch):
    # the corrupted heisenberg cell of test_fault_injection_reports_pinned:
    # text and JSON name the same (l, t, j) and points, and each text point
    # reads back, as `eval --a` reads it, to the JSON one
    def corrupted(pres):
        M = integrate(pres)
        a0, a1, k0 = (M.basis.key_for_symbol(sym) for sym in [(0, 0), (0, 1), (1, 0)])
        key = (((a1, 1),), ((a0, 1),), 2)
        M.table_entry(*key)
        M._table[key] = {k0: Q(5)}
        return M

    monkeypatch.setattr(cli, "integrate", corrupted)
    argv = ["verify-manifold", str(DATA / "heisenberg.lca"), "--samples", "8", "--seed", "5",
            "--window=-4..4"]
    code, text = run(argv)
    assert (code, text) == (1, "weak_truncation: pass\nleft_identity: pass\ncreation: pass\n"
                               "jacobi: fail\n  witness: ltj=[1, -1, 1] points=a[0]=-1, a[2]=-1/2 | "
                               "a[1]=-2, k[0]=-2/3 | a[0]=-1, a[2]=-2, k[0]=-4\n")
    code, out = run(["--format", "json", *argv])
    witness = json.loads(out)["checks"][3]["witness"]
    assert code == 1 and witness["ltj"] == [1, -1, 1]
    pres = dsl.load_presentation((DATA / "heisenberg.lca").read_text(encoding="utf-8"))[0]
    points = text.split("points=")[1].strip().split(" | ")
    assert [dsl.parse_point(p, pres) for p in points] == [
        dsl.point_from_pairs(list(p.items()), pres) for p in witness["points"]]


def test_windows_beyond_the_limit_exit_2_at_once():
    heis = str(DATA / "heisenberg.lca")
    yprod = ["yprod", heis, "--left", ":a a:", "--right", "a"]
    start = time.monotonic()
    code, text = run([*yprod, "--window=-100000..-99999"])
    assert time.monotonic() - start < 1
    assert code == 2 and text.startswith("invalid argument: window -100000..-99999")
    assert text.count("\n") == 1 and "Traceback" not in text
    lim = WINDOW_LIMIT
    for window, want in [(f"{-lim}..{lim}", 0), (f"{-lim - 1}..0", 2), (f"0..{2 * lim + 1}", 2)]:
        assert run([*yprod, f"--window={window}"])[0] == want, window
    for argv in (["eval", heis, "--a", "a[0]=1", "--b", "a[0]=1"],
                 ["fvl", heis, "--deg", "1", "--depth", "0"],
                 ["verify-manifold", heis, "--samples", "1"]):
        assert run([*argv, f"--window={-lim - 1}..0"])[0] == 2, argv


def test_deep_fvl_window_skips_the_cells_that_cannot_land_in_depth(tmp_path):
    # every entry of this table sits at n >= -2, and the conformal weight of
    # each deeper cell matches no depth-1 position, so -32..0 keeps the
    # entries and overflow degrees of -3..0; computing every cell would take
    # 18 s and 320 MB, skipping them takes about 0.1 s on a 2-core x86-64 host
    n3 = str(DATA / "n3current.lca")
    docs = {}
    for window in ("-32..0", "-3..0"):
        out = tmp_path / f"{window}.json"
        start = time.process_time()
        code, text = run(["fvl", n3, "--deg", "3", "--depth", "1", f"--window={window}",
                          "--format", "json", "--out", str(out)])
        assert code == 0, text
        if window == "-32..0":
            assert time.process_time() - start < 3
        docs[window] = json.loads(out.read_text())
    deep, shallow = docs["-32..0"], docs["-3..0"]
    assert len(deep["entries"]) == 43 and deep["overflow_degrees"] == [1, 2, 3]
    for key in ("entries", "overflow_degrees", "bounds"):
        assert deep[key] == shallow[key], key


def test_deep_eval_window_skips_the_cells_that_cannot_land_in_depth():
    # most cells of a deep product slice have a conformal weight no letter
    # has; skipping them takes this eval from about 2.1 s and 68 MB to about
    # 0.55 s and 30 MB on a 2-core x86-64 host, each slice unchanged
    n3 = str(DATA / "n3current.lca")
    args = ["eval", n3, "--a", "x[0]=1, y[0]=2, z[1]=-1", "--b", "x[0]=3/2, w1[0]=1, y[1]=2"]
    start = time.process_time()
    code, deep = run([*args, "--window=-32..0"])
    assert code == 0, deep
    assert time.process_time() - start < 2
    code, shallow = run([*args, "--window=-16..0"])
    assert code == 0, shallow
    lines = deep.splitlines()
    assert len(lines) == 34 and lines[16:] == shallow.splitlines()  # 33 slices, bound
    # the deepest slice as computing every cell gives it
    assert lines[0] == "n=-32: x[31]=1, y[31]=2, z[32]=-35, w1[33]=201/4, w2[33]=96, w2[34]=70"


def _text_residuals(text):
    return [line.split("residual: ", 1)[1] for line in text.splitlines()
            if line.startswith("  residual: ")]


@pytest.mark.parametrize("name", ["badheis", "badjac"])
def test_json_check_carries_the_text_residual(tmp_path, name):
    # badheis fails antisymmetry (LPoly residual), badjac fails Jacobi (LMPoly)
    path = DATA / "badheis.lca"
    if name == "badjac":
        path = tmp_path / "badjac.lca"
        path.write_text(dsl.emit_algebra(golden.corrupted_jacobi()))
    code, text = run(["check", str(path)])
    jcode, jtext = run(["--format", "json", "check", str(path)])
    assert code == jcode == 1
    failed = [c for c in json.loads(jtext)["checks"] if not c["pass"]]
    assert [c["residual"] for c in failed] == _text_residuals(text) != []


@pytest.mark.parametrize("module", ["lieconformal", "lieconformal.cli"])
def test_python_dash_m_runs_the_command_line(module):
    src = str(Path(__file__).parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = ["check", str(DATA / "badheis.lca")]
    proc = subprocess.run([sys.executable, "-m", module, *argv], capture_output=True,
                          text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stdout) == run(argv)
    assert proc.returncode == 1 and "residual: 2*k" in proc.stdout


def test_eval_float_beyond_the_float_range_exits_2_with_one_line():
    heis = str(DATA / "heisenberg.lca")
    big = "1" + "0" * 400
    assert run(["eval", heis, "--a", f"a[0]={big}", "--b", "a[0]=1", "--window=-1..1", "--float"]) \
        == (2, "invalid argument: coordinate a[0] at n=-1 is beyond the float range\n")
    # a nonzero value below the float range would show as 0; a subnormal
    # still prints, and in-range lines keep their text
    assert run(["eval", heis, "--a", f"a[0]=1/{big}", "--b", "a[0]=1", "--window=0..1",
                "--float"]) == (2, "invalid argument: coordinate k[0] at n=1 is below the float range\n")
    assert run(["eval", heis, "--a", "a[0]=-1/1" + "0" * 310, "--b", "a[0]=1", "--window=0..1",
                "--float"]) == (0, "n=0: 0\nn=1: k[0]=-1e-310\nbound: 2\n")
    assert run(["eval", heis, "--a", "a[0]=1/3", "--b", "a[0]=2", "--window=-1..1", "--float"]) == \
        (0, "n=-1: a[0]=2.33333333333\nn=0: 0\nn=1: k[0]=0.666666666667\nbound: 2\n")


TOO_MANY_DIGITS = "1" * (dsl.DIGITS_LIMIT + 1)
EXPONENT = "has an exponent or '_'; write p, p/q or a decimal"


@pytest.mark.parametrize("value, message", [
    ("1e3000000", EXPONENT),
    ("2.5E-3", EXPONENT),
    ("1_0", EXPONENT),
    (TOO_MANY_DIGITS, f"has {dsl.DIGITS_LIMIT + 1} digits, beyond the limit {dsl.DIGITS_LIMIT}"),
    ("1/1" + "0" * dsl.DIGITS_LIMIT,
     f"has {dsl.DIGITS_LIMIT + 2} digits, beyond the limit {dsl.DIGITS_LIMIT}"),
], ids=["exponent", "signed-exponent", "underscore", "digits", "fraction-digits"])
def test_point_values_refuse_exponents_underscores_and_too_many_digits(tmp_path, value, message):
    heis = str(DATA / "heisenberg.lca")
    pres, _ = dsl.load_presentation(read("heisenberg.lca"))
    with pytest.raises(dsl.DslError, match=re.escape(f"coordinate 'a[0]' {message}")):
        dsl.parse_point(f"k=1, a[0]={value}", pres)
    (tmp_path / "p.json").write_text(json.dumps({"coords": {"a[0]": value}}))
    start = time.process_time()
    for a in (f"a[0]={value}", f"@{tmp_path / 'p.json'}"):
        assert run(["eval", heis, "--a", a, "--b", "0", "--window=-1..1"]) == \
            (2, f"1:1: coordinate 'a[0]' {message}\n")
    assert time.process_time() - start < 1


def test_point_values_within_the_syntax_read_as_before():
    pres, _ = dsl.load_presentation(read("heisenberg.lca"))
    (a,) = dsl.parse_point("a[0]=1", pres)
    for value, want in [("0.5", Q(1, 2)), ("-.5", Q(-1, 2)), ("+3/2", Q(3, 2)), ("7.", Q(7)),
                        ("9" * dsl.DIGITS_LIMIT, Q(int("9" * dsl.DIGITS_LIMIT)))]:
        assert dsl.parse_point(f"a[0]={value}", pres) == {a: want}, value
    heis = str(DATA / "heisenberg.lca")
    # a text that is no number keeps Fraction's message, an 'e' in a word too
    for value in ("x", "one"):
        assert run(["eval", heis, "--a", f"a[0]={value}", "--b", "0", "--window=-1..1"]) == \
            (2, f"invalid argument: Invalid literal for Fraction: {value!r}\n")


def test_json_point_numbers_read_as_written(tmp_path):
    heis = str(DATA / "heisenberg.lca")

    def eval_at(number):
        (tmp_path / "p.json").write_text('{"coords": {"a[0]": %s}}' % number)
        return run(["eval", heis, "--a", f"@{tmp_path / 'p.json'}", "--b", "0",
                    "--window=-1..-1"])

    # no float rounds the number, whose repr 1e-05 would hold an exponent
    assert eval_at("0.00001") == (0, "n=-1: a[0]=1/100000\nbound: 2\n")
    assert eval_at("0.30000000000000001") == \
        (0, "n=-1: a[0]=30000000000000001/100000000000000000\nbound: 2\n")
    assert eval_at("-3") == (0, "n=-1: a[0]=-3\nbound: 2\n")
    assert eval_at("1e-05") == (2, f"1:1: coordinate 'a[0]' {EXPONENT}\n")
    # an int past CPython's int-string limit is refused, not built
    assert eval_at(TOO_MANY_DIGITS) == \
        (2, f"1:1: coordinate 'a[0]' has {dsl.DIGITS_LIMIT + 1} digits, beyond the limit "
            f"{dsl.DIGITS_LIMIT}\n")
    assert eval_at("NaN") == (2, "invalid argument: Invalid literal for Fraction: 'nan'\n")


@pytest.mark.parametrize("template", [
    "algebra h {{ generators {{ a: free; k: torsion(1); }} bracket [a, a] = {n}*lambda*k; }}",
    "algebra h {{ generators {{ a: free; k: torsion(1); }} bracket [a, a] = {n}/2*lambda*k; }}",
    "algebra h {{ generators {{ a: free; k: torsion(1); }} bracket [a, a] = 1/{n}*lambda*k; }}",
    "algebra h {{ generators {{ a: free; k: torsion({n}); }} }}",
    "algebra h {{ generators {{ a: free; k: torsion(1); }}\n bracket [a, a] = lambda^{n}*k; }}",
], ids=["coefficient", "numerator", "denominator", "torsion", "power"])
def test_lca_integer_literals_past_the_digit_limit_are_spanned_diagnostics(tmp_path, template):
    text = template.format(n=TOO_MANY_DIGITS)
    begin = text.index(TOO_MANY_DIGITS)
    line = text.count("\n", 0, begin) + 1
    column = begin - (text.rfind("\n", 0, begin) + 1) + 1
    limit = dsl.DIGITS_LIMIT
    message = f"integer literal of {limit + 1} digits is beyond the limit {limit}"
    with pytest.raises(dsl.DslError) as err:
        dsl.load_presentation(text)
    (diag,) = err.value.diagnostics
    assert (diag.message, diag.span) == \
        (message, dsl.SourceSpan(begin, begin + len(TOO_MANY_DIGITS), line, column))
    (tmp_path / "big.lca").write_text(text)
    assert run(["check", str(tmp_path / "big.lca")]) == (2, f"{line}:{column}: {message}\n")
    # the same literal in a vector argument
    assert run(["bracket", str(DATA / "heisenberg.lca"), "--left", f"2*a + {TOO_MANY_DIGITS}*a",
                "--right", "a"]) == (2, f"1:7: {message}\n")


def test_command_table_matches_the_parser_the_transcript_and_the_readme():
    from test_cli_transcript import COMMANDS as TRANSCRIPT

    (sub,) = [a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == list(cli.COMMANDS)
    assert {name for argv in TRANSCRIPT for name in argv if name in cli.COMMANDS} == \
        set(cli.COMMANDS)
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## The `lcv` command", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    assert set(re.findall(r"^lcv ([\w-]+) FILE", block, re.M)) == set(cli.COMMANDS)


# -- fuzzing the command line -------------------------------------------------------

NAMES = ["a", "b", "k", "L", "C", "x", "y", "z", "w1", "w2", "q"]
RATIONAL = st.sampled_from(["1", "-1", "3/2", "0", "1/0", "x", "2.5"])


def _grammar(names):
    """Letter, word, vector and point strategies over generator names."""
    name = st.sampled_from(names)
    letter = st.builds(lambda g, d: g if d is None else f"{g}[{d}]",
                       name, st.none() | st.integers(0, 2))
    word = st.one_of(
        st.just("1"), letter,
        st.lists(letter, min_size=1, max_size=3).map(lambda ls: ":" + " ".join(ls) + ":"),
    )
    term = st.builds(lambda c, d, g: c + d + g, st.sampled_from(["", "3*", "(1/2)*", "lambda*"]),
                     st.sampled_from(["", "D*", "D^2*"]), name)
    # parenthesized sums raised to a power k <= 8 act on a generator
    summand = term | st.sampled_from(["1", "1/2", "D", "lambda"])
    power = st.builds(lambda ts, k, g: f"({' + '.join(ts)})^{k}*{g}",
                      st.lists(summand, min_size=1, max_size=3), st.integers(0, 8), name)
    vector = st.lists(term | power, min_size=1, max_size=3).map(" + ".join)
    point = st.just("0") | st.lists(st.builds(lambda l, r: f"{l}={r}", letter, RATIONAL),
                                    min_size=1, max_size=3).map(", ".join)
    return letter, word, vector, point


SCALAR = st.none() | st.booleans() | st.integers(-2, 2) | st.sampled_from(NAMES) | RATIONAL
JUNK = st.recursive(
    SCALAR,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["coords", "word", "x"]), inner, max_size=2),
    max_leaves=6,
)
WINDOW = st.builds(lambda lo, width: f"--window={lo}..{lo + width}",
                   st.integers(-3, 1), st.integers(-1, 3))
SIZE = st.integers(-1, 2)


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_cli_fuzz_exits_with_a_code_and_no_traceback(tmp_path, data):
    draw = data.draw
    files = sorted(str(p) for p in DATA.glob("*.lca"))
    file = draw(st.sampled_from([*files, str(tmp_path), str(tmp_path / "missing.lca")]))
    gens = re.findall(r"(\w+):", Path(file).read_text()) if file in files else []
    letter, word, vector, point = _grammar(draw(st.sampled_from([gens, NAMES])) or NAMES)
    docs = itertools.count()

    def arg(plain, key, value):
        # a plain argument, or @FILE holding the JSON form {key: value}, a
        # malformed one, a directory or nothing
        kind = draw(st.sampled_from(["json", "plain", "dir", "missing"]))
        if kind == "plain":
            return draw(plain)
        if kind == "json":
            path = tmp_path / f"arg{next(docs)}.json"
            doc = st.builds(lambda v: {key: v}, JUNK | value) | JUNK
            path.write_text(json.dumps(draw(doc)))
            return f"@{path}"
        return "@" + str(tmp_path if kind == "dir" else tmp_path / "missing.json")

    def word_arg():
        return arg(word, "word", st.lists(letter | SCALAR, max_size=3))

    def point_arg():
        return arg(point, "coords", st.dictionaries(letter, RATIONAL | SCALAR, max_size=3))

    options = {
        "check": lambda: [],
        "bracket": lambda: ["--left", draw(vector), "--right", draw(vector)],
        "nth": lambda: ["--left", draw(vector), "--right", draw(vector),
                        "--n", str(draw(st.integers(-2, 6)))],
        "nop": lambda: ["--left", word_arg(), "--right", word_arg()],
        "yprod": lambda: ["--left", word_arg(), "--right", word_arg(), draw(WINDOW)],
        "coproduct": lambda: ["--elem", word_arg()],
        "primitives": lambda: [
            "--max-len", str(draw(st.integers(-1, 3) | st.just(MAX_LEN_LIMIT + 1))),
            "--depth", str(draw(st.integers(-1, 2))),
        ],
        "fvl": lambda: ["--deg", str(draw(SIZE)), "--depth", str(draw(st.integers(-1, 1))),
                        draw(WINDOW), *draw(st.sampled_from([[], ["--check-identities"]])),
                        *draw(st.sampled_from([[], ["--check-jacobi", "1"]]))],
        "integrate": lambda: [],
        "eval": lambda: ["--a", point_arg(), "--b", point_arg(), draw(WINDOW),
                         *draw(st.sampled_from([[], ["--float"]]))],
        "verify-manifold": lambda: ["--samples", str(draw(SIZE)), draw(WINDOW)],
        "roundtrip": lambda: [],
    }
    command = draw(st.sampled_from(sorted(options)))
    flags = draw(st.sampled_from([[], ["--format", "json"], ["--seed", "5"]]))
    argv = [*flags, command, file, *options[command]()]
    start = time.monotonic()
    code, text = run(argv)
    # every drawn size is small: the slowest call takes about 0.1 s
    assert time.monotonic() - start < 10, argv
    assert 0 <= code <= 4, (argv, text)
    assert "Traceback" not in text, argv
