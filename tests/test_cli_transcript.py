"""Replay of a recorded `lcv` session: exit codes and output byte for byte.

The commands cover every subcommand over the presentations in tests/data,
in text form and a few in JSON form.  From the root of the repository,
`PYTHONPATH=src python tests/test_cli_transcript.py` records the transcript
again from the current code.
"""

import json
from pathlib import Path

import pytest

from lieconformal.cli import run

DATA = Path(__file__).parent / "data"
TRANSCRIPT = DATA / "cli_transcript.json"

COMMANDS = [
    ["check", "heisenberg.lca"],
    ["check", "badheis.lca"],
    ["check", "badsyntax.lca"],
    ["check", "--format", "json", "virasoro.lca"],
    ["check"],
    ["bracket", "virasoro.lca", "--left", "D*L", "--right", "L"],
    ["bracket", "--format", "json", "mixed.lca", "--left", "a", "--right", "a"],
    ["nth", "virasoro.lca", "--left", "L", "--right", "L", "--n", "3"],
    ["nth", "heisenberg.lca", "--left", "a", "--right", "a", "--n", "-1"],
    ["nop", "heisenberg.lca", "--left", ":a a:", "--right", "a"],
    ["nop", "virasoro.lca", "--left", "L", "--right", ":L L:"],
    ["yprod", "heisenberg.lca", "--left", "a", "--right", "1", "--window=-3..0"],
    ["yprod", "--format", "json", "heisenberg.lca", "--left", ":a a:", "--right", "a",
     "--window=-3..2"],
    ["coproduct", "heisenberg.lca", "--elem", ":a a k:"],
    ["coproduct", "--format", "json", "n3current.lca", "--elem", ":x y:"],
    ["primitives", "heisenberg.lca", "--max-len", "3", "--depth", "1"],
    ["primitives", "--format", "json", "mixed.lca", "--max-len", "2", "--depth", "1"],
    ["fvl", "heisenberg.lca", "--deg", "2", "--depth", "2", "--window=-8..6",
     "--check-identities", "--check-jacobi", "2"],
    ["fvl", "mixed.lca", "--deg", "2", "--depth", "1", "--window=-4..4",
     "--check-identities", "--check-jacobi", "2"],
    ["fvl", "n3current.lca", "--deg", "2", "--depth", "0", "--window=-3..3",
     "--check-jacobi", "2"],
    ["fvl", "heisenberg.lca", "--deg", "2", "--depth", "1", "--window=-1..0",
     "--check-jacobi", "2"],
    ["fvl", "--format", "json", "heisenberg.lca", "--deg", "1", "--depth", "0",
     "--window=-2..2", "--check-identities"],
    ["integrate", "n3current.lca"],
    ["integrate", "virasoro.lca"],
    ["integrate", "--format", "json", "mixed.lca"],
    ["eval", "heisenberg.lca", "--a", "a[0]=1", "--b", "a[0]=1", "--window=-2..2"],
    ["eval", "mixed.lca", "--a", "a[0]=1, b[0]=2", "--b", "a[1]=1/2", "--window=-2..2",
     "--float"],
    ["eval", "--format", "json", "n3current.lca", "--a", "x[0]=1, y[0]=2",
     "--b", "z[0]=3, x[0]=1", "--window=-2..1"],
    ["eval", "heisenberg.lca", "--a", "a[0]=x", "--b", "0", "--window=-1..1"],
    ["verify-manifold", "--seed", "3", "heisenberg.lca", "--samples", "4"],
    ["verify-manifold", "--format", "json", "--seed", "1", "mixed.lca", "--samples", "3",
     "--window=-2..2"],
    ["roundtrip", "heisenberg.lca"],
    ["roundtrip", "--format", "json", "mixed.lca"],
]


def _argv(cmd):
    return [str(DATA / a) if a.endswith(".lca") else a for a in cmd]


def record():
    entries = []
    for cmd in COMMANDS:
        code, text = run(_argv(cmd))
        entries.append({"argv": cmd, "exit": code, "stdout": text})
    TRANSCRIPT.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")


@pytest.mark.parametrize(
    "entry", json.loads(TRANSCRIPT.read_text(encoding="utf-8")),
    ids=lambda e: " ".join(e["argv"]),
)
def test_transcript(entry):
    assert run(_argv(entry["argv"])) == (entry["exit"], entry["stdout"])


if __name__ == "__main__":
    record()
