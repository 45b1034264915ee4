"""The benchmark still runs against the package.

`bench/tracer.py` wraps functions and methods by name and reads memo
attributes of the objects it registers; a rename under `src/` would break
`bench/run.py --trace 1` without failing any other test.  One reduced
round of each workload runs as the benchmark runs it, in a fresh process,
and must pass its own output checks; a traced one must also see the cell
tables it reads by name.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import golden
import pytest

from lieconformal.enveloping import EnvelopingAlgebra
from lieconformal.manifold import integrate

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "bench" / "tracer.py"
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _tracer()


@pytest.mark.parametrize("mod_name, attr, span", tracer.WRAPPED)
def test_wrapped_name_exists(mod_name, attr, span):
    module = importlib.import_module(f"lieconformal.{mod_name}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        # the tracer swaps the attribute in the class's own namespace
        assert callable(vars(getattr(module, cls_name)).get(meth)), attr
    else:
        assert callable(getattr(module, attr, None)), attr


def test_memo_attributes_exist():
    objects = {
        "EnvelopingAlgebra": EnvelopingAlgebra(golden.heisenberg()),
        "VertexManifold": integrate(golden.heisenberg()),
    }
    assert set(tracer.MEMOS) == set(objects)
    for cls_name, memos in tracer.MEMOS.items():
        for attr in memos:
            assert isinstance(getattr(objects[cls_name], attr, None), dict), (cls_name, attr)


def _reduced_round(workload: str, *flags: str) -> dict:
    """The JSON line of one seed-1 reduced round, checked to pass."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "round.py"), "--workload", workload,
         "--seed", "1", "--reduced", *flags],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["attempted"] > 0
    assert (result["problems"], result["failed"]) == ([], 0), result["problems"]
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_reduced_round_passes_its_checks(workload):
    _reduced_round(workload)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_reduced_round_sees_the_cell_tables(workload):
    # the manifold's cells are read through `VertexManifold.table_entry` and
    # kept in its `_table`; the law tables' cells are counted off `extract_law`
    layers = _reduced_round(workload, "--trace")["layers"]
    if workload == "manifold_jacobi":
        assert layers["manifold.table_entry.calls"] > 0, layers
        assert layers["manifold.table_entry.memo"] > 0, layers
    if workload == "law_tables":
        assert layers["lawtable.cells"] > 0, layers
