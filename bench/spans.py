"""Boundary tracing for the benchmark: span recording, self time, layer metrics.

A span covers one call that crosses into a layer of `latticepaths` from
outside it, or the execution of a layer module's body when it is imported.
Layers are the package's modules.  Spans are installed from outside the
program: a public function is rebound in the namespace of each *other*
package module that imported it, so recursion inside a module (such as
`trees.reg`) stays unwrapped and only boundary crossings are spanned.  The
public methods and operators of `PowerSeries` and `AlgebraicSubstitution`
are wrapped on the class.  `MarkerPoly` and `Fraction` arithmetic is not
spanned: it runs millions of times, and its time lands in the enclosing span.
"""

from __future__ import annotations

import functools
import importlib.machinery
import operator
import sys
import time
import types
from array import array
from typing import Dict, Iterable, List

PACKAGE = "latticepaths"
LAYERS = ("combinat", "series", "paths", "trees", "bijections",
          "pathseries", "treeseries", "asymptotics", "cli")
SERIES_CLASSES = ("PowerSeries", "AlgebraicSubstitution")
OPERATORS = frozenset({"__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                       "__rmul__", "__truediv__", "__rtruediv__", "__neg__",
                       "__pow__", "__eq__"})
IMPORT = "<import>"
# Span columns, one int64 each: index into `names`, perf_counter_ns at start
# and end, index of the enclosing span in the same table (-1 for none), 1 when
# an exception left the call, and the length of a returned list/tuple or the
# order of a returned series (-1 otherwise).
COLUMNS = ("name", "start", "end", "parent", "error", "size")


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def is_import(name: str) -> bool:
    return name.endswith("." + IMPORT)


def _size(result) -> int:
    if isinstance(result, (list, tuple)):
        return len(result)
    order = getattr(result, "order", None)
    return order if isinstance(order, int) else -1


class SpanTable:
    """The spans of one operation (id `op`), recorded in memory as columns.

    `scale` converts the table's durations to reference machine speed; the
    driver sets it from the pass's calibration samples.
    """

    def __init__(self, op: int = 0, names: Iterable[str] = ()):
        self.op = op
        self.scale = 1.0
        self.names: List[str] = list(names)
        self._index = {n: i for i, n in enumerate(self.names)}
        self.cols = {c: array("q") for c in COLUMNS}
        self._stack = [-1]

    def __len__(self) -> int:
        return len(self.cols["name"])

    def _intern(self, name: str) -> int:
        idx = self._index.get(name)
        if idx is None:
            idx = self._index[name] = len(self.names)
            self.names.append(name)
        return idx

    def add(self, name: str, start: int, end: int, parent: int = -1,
            error: int = 0, size: int = -1) -> int:
        """Append one finished span; return its index."""
        values = (self._intern(name), start, end, parent, error, size)
        for col, value in zip(COLUMNS, values):
            self.cols[col].append(value)
        return len(self) - 1

    def _opener(self, name: str):
        """Return open(), close(sid) for spans called `name`.

        Kept to plain appends on local names: a traced `check horton` opens
        about a million spans, and this cost lands in the caller's self time.
        """
        idx = self._intern(name)
        c = self.cols
        names, starts, ends = c["name"].append, c["start"].append, c["end"]
        parents, errors, sizes = c["parent"].append, c["error"].append, c["size"].append
        stack = self._stack
        push, pop, clock = stack.append, stack.pop, time.perf_counter_ns

        def open_() -> int:
            sid = len(ends)
            names(idx)
            parents(stack[-1])
            errors(0)
            sizes(-1)
            ends.append(0)
            push(sid)
            starts(clock())
            return sid

        def close(sid: int) -> None:
            ends[sid] = clock()
            pop()
        return open_, close

    def wrap(self, name: str, fn):
        """Return `fn` wrapped so that each call records one span `name`."""
        open_, close = self._opener(name)
        errors, sizes = self.cols["error"], self.cols["size"]

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            sid = open_()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[sid] = 1
                raise
            finally:
                close(sid)
            sizes[sid] = _size(result)
            return result
        return spanned

    def header(self) -> dict:
        return {"op": self.op, "names": self.names, "count": len(self)}

    def to_bytes(self) -> bytes:
        return b"".join(self.cols[c].tobytes() for c in COLUMNS)

    @classmethod
    def from_bytes(cls, header: dict, data: bytes) -> "SpanTable":
        table = cls(header["op"], header["names"])
        width = header["count"] * 8
        for i, col in enumerate(COLUMNS):
            table.cols[col].frombytes(data[i * width:(i + 1) * width])
        return table


# ----------------------------------------------------------------------
# installing spans
# ----------------------------------------------------------------------

class _TimedLoader:
    def __init__(self, loader, recorder: SpanTable, layer: str):
        self._loader = loader
        self._recorder = recorder
        self._layer = layer

    def create_module(self, spec):
        return self._loader.create_module(spec)

    def exec_module(self, module):
        open_, close = self._recorder._opener(f"{self._layer}.{IMPORT}")
        sid = open_()
        try:
            self._loader.exec_module(module)
        finally:
            close(sid)


class _ImportSpans:
    """Meta-path finder that spans the body of each layer module as it runs."""

    def __init__(self, recorder: SpanTable):
        self._recorder = recorder

    def find_spec(self, fullname, path=None, target=None):
        pkg, _, layer = fullname.partition(".")
        if pkg != PACKAGE or layer not in LAYERS:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is not None and spec.loader is not None:
            spec.loader = _TimedLoader(spec.loader, self._recorder, layer)
        return spec


def install_import_spans(recorder: SpanTable) -> None:
    """Span layer imports; call before `latticepaths` is first imported."""
    sys.meta_path.insert(0, _ImportSpans(recorder))


def install_boundary_spans(recorder: SpanTable) -> None:
    """Wrap every cross-module import and the series classes' public methods."""
    modules = {layer: sys.modules[f"{PACKAGE}.{layer}"] for layer in LAYERS}
    for importer, module in modules.items():
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or not callable(obj) or isinstance(obj, type):
                continue
            owner = getattr(obj, "__module__", "").rpartition(".")[2]
            if owner in LAYERS and owner != importer \
                    and obj.__module__ == f"{PACKAGE}.{owner}":
                setattr(module, attr, recorder.wrap(f"{owner}.{attr}", obj))
    for cls_name in SERIES_CLASSES:
        cls = getattr(modules["series"], cls_name)
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr not in OPERATORS:
                continue
            name = f"series.{cls_name}.{attr}"
            if isinstance(obj, staticmethod):
                setattr(cls, attr, staticmethod(recorder.wrap(name, obj.__func__)))
            elif isinstance(obj, types.FunctionType):
                setattr(cls, attr, recorder.wrap(name, obj))


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------

def self_times(table: SpanTable) -> array:
    """Per span: its duration minus the time its direct child spans cover.

    Spans of one operation nest properly (they come from one call stack), so
    the children of a span are disjoint and the covered time is their sum.
    """
    dur = array("q", map(operator.sub, table.cols["end"], table.cols["start"]))
    own = array("q", dur)
    for i, p in enumerate(table.cols["parent"]):
        if p >= 0:
            own[p] -= dur[i]
    return own


# Work counts: metric -> names of the spans whose calls it counts.
COUNTED_CALLS = {
    "paths.stat_calls": ("paths.path_stats", "paths.levels"),
    "trees.stat_calls": ("trees.reg", "trees.tree_stats"),
    "bijections.maps": tuple(f"bijections.{f}" for f in (
        "multiedge_to_3motzkin", "motzkin3_to_multiedge", "marked_to_skew",
        "skew_to_marked", "rotation_multiedge_to_unarybinary",
        "rotation_unarybinary_to_multiedge")),
    "series.mul": ("series.PowerSeries.__mul__", "series.PowerSeries.__rmul__"),
    "series.inverse": ("series.PowerSeries.inverse",),
    "series.sqrt": ("series.PowerSeries.sqrt",),
    "series.compose": ("series.PowerSeries.compose",),
    "series.invert": ("series.AlgebraicSubstitution.invert",),
    "combinat.trinomial_calls": ("combinat.trinomial", "combinat.trinomial_row"),
}
_COUNTED = {name: key for key, names in COUNTED_CALLS.items() for name in names}


def layer_metrics(tables: Iterable[SpanTable]):
    """Per-layer metrics and each layer's share of the time inside operations.

    Returns (metrics, shares).  Metrics are per-layer self time, calls and
    errors, plus the work counts.  Calls and errors count crossings only:
    spans whose parent lies in another layer or that have none.  Import spans
    add to self time but not to calls, and not to the shares, which split the
    self time of call spans between the layers.
    """
    m: Dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = 0.0
        m[f"{layer}.calls"] = 0
        m[f"{layer}.errors"] = 0
    for key in COUNTED_CALLS:
        m[key] = 0
    m["paths.objects"] = m["trees.objects"] = m["series.max_order"] = 0
    in_calls = {layer: 0.0 for layer in LAYERS}
    for table in tables:
        layers = [layer_of(n) for n in table.names]
        imports = [is_import(n) for n in table.names]
        counted = [_COUNTED.get(n) for n in table.names]
        objects = [f"{layer_of(n)}.objects" if n.startswith(("paths.gen_", "trees.gen_"))
                   else None for n in table.names]
        c = table.cols
        to_s = table.scale / 1e9
        for i, own in enumerate(self_times(table)):
            n = c["name"][i]
            layer = layers[n]
            own *= to_s
            m[f"{layer}.self_s"] += own
            if imports[n]:
                continue
            in_calls[layer] += own
            p = c["parent"][i]
            if p < 0 or layers[c["name"][p]] != layer:
                m[f"{layer}.calls"] += 1
                m[f"{layer}.errors"] += c["error"][i]
            if counted[n] is not None:
                m[counted[n]] += 1
            size = c["size"][i]
            if objects[n] is not None and size >= 0:
                m[objects[n]] += size
            if layer == "series" and size > m["series.max_order"]:
                m["series.max_order"] = size
    m["trees.stat_per_object"] = (m["trees.stat_calls"] / m["trees.objects"]
                                  if m["trees.objects"] else 0.0)
    total = sum(in_calls.values())
    shares = {layer: (t / total if total else 0.0) for layer, t in in_calls.items()}
    return m, shares
