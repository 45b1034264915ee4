"""Spans around the public entry points of each layer, for the traced run.

The wrappers live here and are installed only by a traced round; an
untraced round never imports this module.  Every call through a wrapped
function records one span (name, start, end, parent) in flat arrays.
When the round ends the spans are written out and reduced to per-layer
counts and self times: a span's self time is its duration minus the
durations of its direct child spans.

Memo sizes are read off the objects themselves.  Each `EnvelopingAlgebra`
and `VertexManifold` built while tracing is registered; objects built by
an operation are read when that operation ends and then released, objects
built during set-up are read when the round ends.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array

# (module, qualified attribute, span name); a class attribute is "Class.method"
WRAPPED = [
    ("dsl", "load_presentation", "dsl.load_presentation"),
    ("cli", "run", "cli.run"),
    ("core", "LcaPresentation.bracket", "core.bracket"),
    ("core", "LcaPresentation.check_axioms", "core.check_axioms"),
    ("filtration", "LowerCentralSeries.__init__", "filtration.series"),
    ("filtration", "AdaptedBasis.expand", "filtration.expand"),
    ("enveloping", "EnvelopingAlgebra.straighten", "enveloping.straighten"),
    ("enveloping", "EnvelopingAlgebra.partial", "enveloping.partial"),
    ("enveloping", "EnvelopingAlgebra.partial_pow", "enveloping.partial_pow"),
    ("enveloping", "EnvelopingAlgebra.partial_div", "enveloping.partial_div"),
    ("enveloping", "EnvelopingAlgebra.bracket", "enveloping.bracket"),
    ("enveloping", "EnvelopingAlgebra.nop", "enveloping.nop"),
    ("enveloping", "EnvelopingAlgebra.nth", "enveloping.nth"),
    ("bialgebra", "coproduct", "bialgebra.coproduct"),
    ("bialgebra", "primitives_up_to", "bialgebra.primitives_up_to"),
    ("lawtable", "extract_law", "lawtable.extract_law"),
    ("lawtable", "check_identities", "lawtable.check_identities"),
    ("lawtable", "check_law_jacobi", "lawtable.check_law_jacobi"),
    ("manifold", "VertexManifold.table_entry", "manifold.table_entry"),
    ("manifold", "VertexManifold.product", "manifold.product"),
    ("manifold", "VertexManifold.truncation_bound", "manifold.truncation_bound"),
    ("manifold", "VertexManifold.composed", "manifold.composed"),
    ("manifold", "VertexManifold.composed_first", "manifold.composed"),
    ("manifold", "VertexManifold.jacobi_residual", "manifold.jacobi_residual"),
]

# memo attribute of a registered object -> metric name
MEMOS = {
    "EnvelopingAlgebra": {
        "_straighten_memo": "enveloping.straighten.memo",
        "_partial_memo": "enveloping.partial.memo",
        "_bracket_memo": "enveloping.bracket.memo",
        "_nop_memo": "enveloping.nop.memo",
    },
    "VertexManifold": {"_table": "manifold.table_entry.memo"},
}

# reported per-layer metrics: name -> unit; the order of BENCHMARK.json
CALLS = [
    "dsl.load_presentation", "cli.run", "core.bracket", "filtration.expand",
    "enveloping.straighten", "enveloping.partial", "enveloping.partial_pow",
    "enveloping.partial_div", "enveloping.bracket", "enveloping.nop", "enveloping.nth",
    "bialgebra.coproduct", "manifold.table_entry", "manifold.product",
    "manifold.truncation_bound", "manifold.composed",
]
SELF = [
    "dsl.load_presentation", "cli.run", "core.bracket", "core.check_axioms",
    "filtration.series", "filtration.expand",
    "enveloping.straighten", "enveloping.partial", "enveloping.partial_pow",
    "enveloping.partial_div", "enveloping.bracket", "enveloping.nop", "enveloping.nth",
    "bialgebra.primitives_up_to", "lawtable.extract_law", "lawtable.check_identities",
    "lawtable.check_law_jacobi", "manifold.table_entry", "manifold.product",
    "manifold.composed", "manifold.jacobi_residual",
]
HIT_RATIOS = {
    "enveloping.straighten.hit_ratio": ("enveloping.straighten", "enveloping.straighten.memo"),
    "manifold.table_entry.hit_ratio": ("manifold.table_entry", "manifold.table_entry.memo"),
}


def metric_units() -> dict:
    """Every per-layer metric a traced round reports, with its unit."""
    units = {}
    for name in CALLS:
        units[name + ".calls"] = "count"
    for name in SELF:
        units[name + ".self_s"] = "s"
    for per_class in MEMOS.values():
        for metric in per_class.values():
            units[metric] = "count"
    for name in HIT_RATIOS:
        units[name] = "ratio"
    units["lawtable.cells"] = "count"
    return units


class Tracer:
    """Span recorder and memo registry for one traced round."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict = {}
        self.name_id = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._restore: list = []
        self._objects: list = []  # [registration index, object, made by an operation]
        self._memo_sizes: dict = {}  # registration index -> {metric: size}
        self._registered = 0
        self._in_op = False
        self.cells = 0

    # -- spans ---------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        nid = self._id(name)
        opener, closer = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = opener(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                closer(idx)

        return traced

    def op(self, fn):
        """Run one workload operation inside a root span, then read memos."""
        idx = self._open(self._id("op"))
        self._in_op = True
        try:
            return fn()
        finally:
            self._close(idx)
            self._in_op = False
            self._harvest(release_op_objects=True)

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        mods = {name: sys.modules[f"lieconformal.{name}"] for name in
                ("dsl", "cli", "core", "filtration", "enveloping", "bialgebra",
                 "lawtable", "manifold")}
        for mod_name, attr, span in WRAPPED:
            mod = mods[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(mod, cls_name)
                self._swap(owner, meth, self._wrap(owner.__dict__[meth], span))
            else:
                original = getattr(mod, attr)
                wrapped = self._wrap(original, span)
                if attr == "extract_law":
                    wrapped = self._count_cells(wrapped)
                # rebind every module of the package that imported the function
                for name, other in list(sys.modules.items()):
                    if (name == "lieconformal" or name.startswith("lieconformal.")) \
                            and getattr(other, attr, None) is original:
                        self._swap(other, attr, wrapped)
        for cls in (mods["enveloping"].EnvelopingAlgebra, mods["manifold"].VertexManifold):
            self._swap(cls, "__init__", self._registering(cls.__init__))

    def _swap(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Put every original back; later calls are not traced."""
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _count_cells(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            table = fn(*args, **kwargs)
            self.cells += sum(len(cell) for cell in table.entries.values())
            return table

        return counted

    def _registering(self, init):
        tracer = self

        @functools.wraps(init)
        def registering(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            tracer._objects.append([tracer._registered, obj, tracer._in_op])
            tracer._registered += 1

        return registering

    # -- memo sizes --------------------------------------------------------------

    def _harvest(self, release_op_objects: bool) -> None:
        kept = []
        for entry in self._objects:
            idx, obj, by_op = entry
            sizes = {metric: len(getattr(obj, attr))
                     for attr, metric in MEMOS[type(obj).__name__].items()}
            self._memo_sizes[idx] = sizes
            if not (release_op_objects and by_op):
                kept.append(entry)
        self._objects = kept

    # -- results -----------------------------------------------------------------

    def finish(self) -> dict:
        """Stop tracing and reduce the spans to per-layer metrics."""
        self.uninstall()
        self._harvest(release_op_objects=False)
        self._objects.clear()
        n = len(self.start)
        child = [0.0] * n
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = {name: 0 for name in self.names}
        self_s = {name: 0.0 for name in self.names}
        names, name_id = self.names, self.name_id
        for i in range(n):
            name = names[name_id[i]]
            calls[name] += 1
            self_s[name] += end[i] - start[i] - child[i]
        memo: dict = {}
        for sizes in self._memo_sizes.values():
            for metric, size in sizes.items():
                memo[metric] = memo.get(metric, 0) + size
        out = {}
        for name in CALLS:
            out[name + ".calls"] = calls.get(name, 0)
        for name in SELF:
            out[name + ".self_s"] = self_s.get(name, 0.0)
        for per_class in MEMOS.values():
            for metric in per_class.values():
                out[metric] = memo.get(metric, 0)
        for metric, (span, memo_metric) in HIT_RATIOS.items():
            n_calls = calls.get(span, 0)
            out[metric] = 1 - out[memo_metric] / n_calls if n_calls else 0.0
        out["lawtable.cells"] = self.cells
        return out

    def dump(self, path) -> None:
        """Write every span as gzipped JSON: names plus four parallel lists."""
        doc = {
            "names": self.names,
            "name": self.name_id.tolist(),
            "parent": self.parent.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))
