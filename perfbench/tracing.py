"""Span tracing of the quiverstair layers, installed from outside the package.

``install`` wraps the public functions of each module and rebinds every name
under which the package imported them (``cycle.py`` holds its own reference
to ``row_compress``, ``cli.py`` its own ``regularize``, and so on), so the
package code is traced without being edited.  LAPACK SVDs are counted on
``numpy.linalg.svd`` and ``Representation`` objects on their
``__post_init__``.

Every span keeps its name, start, end, parent span and op id, plus up to two
numbers noted at the boundary (for example ``m*n*min(m, n)`` of an SVD
input).  Spans live in flat arrays while the run is going and are written out
once at the end.  Self time is a span's duration minus the time covered by its
direct children; calls are synchronous and single-threaded, so children never
overlap.
"""

import functools
import importlib
import os
from array import array
from time import perf_counter

import numpy as np

SETUP = -1  # op id of spans recorded while the instance pool is built
IDLE = -2  # op id of spans recorded outside setup and ops (there should be none)

PACKAGE_MODULES = (
    "quiverstair",
    "quiverstair.linalg",
    "quiverstair.chain",
    "quiverstair.cycle",
    "quiverstair.quiver",
    "quiverstair.oracle",
    "quiverstair.files",
    "quiverstair.cli",
)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _mnk(args, kwargs, result):
    m, n = np.shape(_arg(args, kwargs, 0, "a"))[-2:]
    return m * n * min(m, n), 0


def _nonempty(args, kwargs, result):
    return float(min(np.shape(_arg(args, kwargs, 0, "a"))) > 0), 0


def _live_strips(args, kwargs, result):
    sizes = [int(s) for s in _arg(args, kwargs, 1, "strip_sizes")]
    return sum(1 for s in sizes if s > 0), len(sizes)


def _shave_steps(args, kwargs, result):
    return len(result.steps), 0


def _file_bytes(args, kwargs, result):
    return os.path.getsize(_arg(args, kwargs, 0, "path")), 0


def _cli_span(args, kwargs):
    argv = _arg(args, kwargs, 0, "argv") if args or kwargs else None
    return "cli." + (argv[0] if argv else "main")


# (owner, attribute, span name or callable naming the span, note)
TARGETS = (
    ("numpy.linalg", "svd", "linalg.lapack_svd", _mnk),
    ("quiverstair.linalg", "two_sided_reduce", "linalg.two_sided_reduce", _nonempty),
    ("quiverstair.linalg", "staircase_reduce", "linalg.staircase_reduce", _live_strips),
    ("quiverstair.linalg", "row_compress", "linalg.row_compress", None),
    ("quiverstair.linalg", "col_compress", "linalg.col_compress", None),
    ("quiverstair.linalg", "singular_values", "linalg.singular_values", None),
    ("quiverstair.linalg", "svd_inverse", "linalg.svd_inverse", None),
    ("quiverstair.chain", "canon_chain", "chain.canon_chain", None),
    ("quiverstair.cycle", "shave", "cycle.shave", _shave_steps),
    ("quiverstair.cycle", "regularize", "cycle.regularize", None),
    ("quiverstair.cycle", "monodromy", "cycle.monodromy", None),
    ("quiverstair.quiver.Representation", "__post_init__", "quiver.Representation", None),
    ("quiverstair.quiver", "apply_isomorphism", "quiver.apply_isomorphism", None),
    ("quiverstair.quiver", "transpose_rep", "quiver.transpose_rep", None),
    ("quiverstair.quiver", "representation_scale", "quiver.representation_scale", None),
    ("quiverstair.oracle", "verify", "oracle.verify", None),
    ("quiverstair.oracle", "plant", "oracle.plant", None),
    ("quiverstair.files", "save_representation", "files.save_representation", _file_bytes),
    ("quiverstair.files", "load_representation", "files.load_representation", _file_bytes),
    ("quiverstair.cli", "main", _cli_span, None),
)


def _resolve(dotted: str):
    """Module, or class inside a module, named by a dotted path."""
    try:
        return importlib.import_module(dotted)
    except ModuleNotFoundError:
        mod, _, attr = dotted.rpartition(".")
        return getattr(importlib.import_module(mod), attr)


class Tracer:
    """In-memory span recorder; set ``op`` before each op."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op_id = array("q")
        self.x = array("d")
        self.y = array("d")
        self._stack: list[int] = []
        self.op = IDLE

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, span, note=None):
        fixed = None if callable(span) else self._id(span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(fixed if fixed is not None else self._id(span(args, kwargs)))
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op_id.append(self.op)
            self.end.append(0.0)
            self.x.append(0.0)
            self.y.append(0.0)
            self._stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self._stack.pop()
            if note is not None:
                self.x[idx], self.y[idx] = note(args, kwargs, result)
            return result

        return traced

    def columns(self) -> dict[str, np.ndarray]:
        cols = {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "op": self.op_id, "x": self.x, "y": self.y}
        return {k: np.array(v, dtype=np.int64 if v.typecode == "q" else np.float64)
                for k, v in cols.items()}

    def save(self, path):
        """Write every span out: one array per column plus the span names."""
        np.savez(path, names=np.array(self.names, dtype=str), **self.columns())


def install(tracer: Tracer):
    """Wrap every target and rebind it in each namespace that holds it.

    Returns ``(undo, sites)``: ``undo()`` restores the originals, and
    ``sites`` maps each span to the number of names rebound for it.
    """
    modules = [importlib.import_module(m) for m in PACKAGE_MODULES]
    restore = []
    sites: dict[str, int] = {}
    for owner_path, attr, span, note in TARGETS:
        owner = _resolve(owner_path)
        orig = vars(owner)[attr]
        traced = tracer.wrap(orig, span, note)
        label = span if isinstance(span, str) else owner_path.rpartition(".")[2] + "." + attr
        sites[label] = 0
        for ns in [owner] + modules:
            for key, value in list(vars(ns).items()):
                if value is orig:
                    setattr(ns, key, traced)
                    restore.append((ns, key, orig))
                    sites[label] += 1

    def undo():
        for ns, key, orig in reversed(restore):
            setattr(ns, key, orig)

    return undo, sites


class Summary:
    """Per-solve aggregates over the spans of ``ops`` traced ops.

    Counts are taken over the first ``pass_len`` ops (one pass over the
    instance pool), so they repeat exactly for a given seed whatever the run
    length; times are averaged over every traced op.
    """

    def __init__(self, tracer: Tracer, ops: int, pass_len: int):
        c = tracer.columns()
        dur = c["end"] - c["start"]
        has_parent = c["parent"] >= 0
        child = np.bincount(c["parent"][has_parent], weights=dur[has_parent], minlength=dur.size)
        self._self = dur - child
        self._dur = dur
        self._c = c
        self._ids = {n: i for i, n in enumerate(tracer.names)}
        self.ops = ops
        self.pass_len = pass_len
        self._in_op = c["op"] >= 0
        self._first = self._in_op & (c["op"] < pass_len)

    def _mask(self, span: str, where) -> np.ndarray:
        i = self._ids.get(span, -1)
        return where & (self._c["name"] == i)

    def calls(self, span: str) -> float:
        return float(np.count_nonzero(self._mask(span, self._first))) / self.pass_len

    def x(self, span: str) -> float:
        return float(self._c["x"][self._mask(span, self._first)].sum()) / self.pass_len

    def y(self, span: str) -> float:
        return float(self._c["y"][self._mask(span, self._first)].sum()) / self.pass_len

    def self_s(self, span: str) -> float:
        return float(self._self[self._mask(span, self._in_op)].sum()) / self.ops

    def total_s(self, span: str) -> float:
        return float(self._dur[self._mask(span, self._in_op)].sum()) / self.ops

    def per_call_s(self, span: str) -> float:
        """Mean duration over every call, setup included."""
        m = self._mask(span, np.ones_like(self._in_op))
        return float(self._dur[m].mean()) if m.any() else 0.0

    def mb_per_s(self, span: str) -> float:
        m = self._mask(span, self._in_op)
        t = float(self._dur[m].sum())
        return float(self._c["x"][m].sum()) / t / 1e6 if t else 0.0

    def prefix_self_s(self, prefix: str) -> float:
        m = np.zeros_like(self._in_op)
        for name, i in self._ids.items():
            if name.startswith(prefix):
                m |= self._c["name"] == i
        return float(self._self[m & self._in_op].sum()) / self.ops


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(s: Summary) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, named as in BENCHMARK.json, each per solve."""
    out: dict[str, tuple[float, str]] = {}
    out["linalg.lapack_svd.calls"] = (s.calls("linalg.lapack_svd"), "count")
    out["linalg.lapack_svd.self_s"] = (s.self_s("linalg.lapack_svd"), "s")
    out["linalg.lapack_svd.work_mnk"] = (s.x("linalg.lapack_svd"), "count")
    span = "linalg.two_sided_reduce"
    out[span + ".calls"] = (s.calls(span), "count")
    out[span + ".self_s"] = (s.self_s(span), "s")
    out[span + ".nonempty_ratio"] = (_ratio(s.x(span), s.calls(span)), "ratio")
    span = "linalg.staircase_reduce"
    out[span + ".calls"] = (s.calls(span), "count")
    out[span + ".self_s"] = (s.self_s(span), "s")
    out[span + ".live_strip_ratio"] = (_ratio(s.x(span), s.y(span)), "ratio")
    for fn in ("row_compress", "col_compress", "singular_values", "svd_inverse"):
        out[f"linalg.{fn}.calls"] = (s.calls("linalg." + fn), "count")
        out[f"linalg.{fn}.self_s"] = (s.self_s("linalg." + fn), "s")
    span = "chain.canon_chain"
    out[span + ".calls"] = (s.calls(span), "count")
    out[span + ".self_s"] = (s.self_s(span), "s")
    out[span + ".total_s"] = (s.total_s(span), "s")
    out["cycle.shave.self_s"] = (s.self_s("cycle.shave"), "s")
    out["cycle.shave.total_s"] = (s.total_s("cycle.shave"), "s")
    out["cycle.shave.steps"] = (s.x("cycle.shave"), "count")
    out["cycle.regularize.self_s"] = (s.self_s("cycle.regularize"), "s")
    out["cycle.regularize.total_s"] = (s.total_s("cycle.regularize"), "s")
    out["cycle.monodromy.total_s"] = (s.total_s("cycle.monodromy"), "s")
    out["quiver.Representation.calls"] = (s.calls("quiver.Representation"), "count")
    for fn in ("apply_isomorphism", "transpose_rep", "representation_scale"):
        out[f"quiver.{fn}.total_s"] = (s.total_s("quiver." + fn), "s")
    out["oracle.verify.self_s"] = (s.self_s("oracle.verify"), "s")
    out["oracle.verify.total_s"] = (s.total_s("oracle.verify"), "s")
    out["oracle.plant.total_s"] = (s.per_call_s("oracle.plant"), "s")
    out["files.save_representation.total_s"] = (s.total_s("files.save_representation"), "s")
    out["files.load_representation.total_s"] = (s.total_s("files.load_representation"), "s")
    out["files.bytes_written"] = (s.x("files.save_representation"), "bytes")
    out["files.bytes_read"] = (s.x("files.load_representation"), "bytes")
    out["files.save_mb_per_s"] = (s.mb_per_s("files.save_representation"), "MB/s")
    out["files.load_mb_per_s"] = (s.mb_per_s("files.load_representation"), "MB/s")
    for cmd in ("gen", "regularize", "verify"):
        out[f"cli.{cmd}.total_s"] = (s.total_s("cli." + cmd), "s")
    out["cli.self_s"] = (s.prefix_self_s("cli."), "s")
    return out


# Counts that must repeat bit for bit across runs with the same seed.
EXACT = (
    "linalg.lapack_svd.calls",
    "linalg.lapack_svd.work_mnk",
    "linalg.two_sided_reduce.calls",
    "cycle.shave.steps",
    "quiver.Representation.calls",
    "files.bytes_written",
    "files.bytes_read",
)
