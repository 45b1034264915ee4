"""The names the traced benchmark wraps and reads still exist in the package.

`bench/tracer.py` wraps functions and methods by name and reads memo
attributes of the objects it registers; a rename under `src/` would break
`bench/run.py --trace 1` without failing any other test.
"""

import importlib
import importlib.util
from pathlib import Path

import golden
import pytest

from lieconformal.enveloping import EnvelopingAlgebra
from lieconformal.manifold import integrate

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


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
