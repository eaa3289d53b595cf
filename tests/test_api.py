"""The public name lists: every listed name is bound, and the package root
lists the user-facing API while the dense-kernel internals stay in linalg.
Every rank decision goes through linalg's one decision function.  Every
function the benchmark's tracer wraps is still bound where it looks and
still called by the workloads that expect its span, and every root name the
benchmark uses is still listed."""

import ast
import importlib
import importlib.util
import re
from collections import Counter
from pathlib import Path

import pytest

import quiverstair as qs
from quiverstair import linalg

MODULES = [
    "quiverstair",
    "quiverstair.linalg",
    "quiverstair.quiver",
    "quiverstair.chain",
    "quiverstair.cycle",
    "quiverstair.oracle",
    "quiverstair.files",
]

KERNEL_INTERNALS = ("svd", "row_compress", "col_compress", "two_sided_reduce", "staircase_reduce")


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_name_is_bound(name):
    module = importlib.import_module(name)
    assert len(set(module.__all__)) == len(module.__all__)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_kernel_internals_live_in_linalg_only():
    for name in KERNEL_INTERNALS:
        assert name not in qs.__all__
        assert not hasattr(qs, name)
        assert name in linalg.__all__


@pytest.mark.parametrize(
    "name",
    ["make_L", "is_regular", "zero_representation", "assemble_canonical", "staircase_residual"],
)
def test_second_paths_are_not_in_the_package(name):
    # sums of interval and walk summands come from quiver.assemble, regularity from
    # quiver.regularity_defect, and the staircase's demanded zeros from chain._staircase_keys
    assert name not in qs.__all__
    assert [m for m in MODULES if hasattr(importlib.import_module(m), name)] == []


def test_the_demanded_zero_rule_is_private():
    # both residual rules call it; no user does
    from quiverstair import chain

    assert callable(chain._staircase_keys)
    assert [m for m in MODULES if "_staircase_keys" in importlib.import_module(m).__all__] == []


@pytest.mark.parametrize("name", ["misfits", "residual"])
def test_a_shave_result_has_no_residual_rule(name):
    # a shave's glue is measured as part of the decomposition, by
    # RegularizingDecomposition.misfits
    assert not hasattr(qs.ShaveResult, name)


VALUE_RULE_MODULES = {"numbers", "cmath", "math"}


def test_value_rules_live_in_linalg_only():
    # integers, finite reals and finite numbers are judged by linalg's helpers alone
    package = Path(qs.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = {alias.name.partition(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = {node.module.partition(".")[0]}
            else:
                continue
            offenders += [f"{path.name}: {n}" for n in sorted(names & VALUE_RULE_MODULES)]
    assert [o for o in offenders if not o.startswith("linalg.py:")] == []
    assert offenders  # the rules themselves are still there


# the SVD itself and the count against a threshold, and who may reach them
SVD_CORE = {"_rank": {"_decide"}, "_lapack_svd": {"_decide", "svd", "singular_values"}}


def _references(tree: ast.AST):
    """``(enclosing function, name)`` for every name read in ``tree``."""
    out = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                out.append((where, child.id))
            elif isinstance(child, ast.Attribute):
                out.append((where, child.attr))
            elif isinstance(child, ast.alias):
                out.append((where, child.name))
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else where)

    visit(tree, "<module>")
    return out


def test_rank_decisions_go_through_one_function():
    # linalg._decide alone counts singular values against a threshold; it and the
    # plain SVD entry points alone call LAPACK
    package = Path(qs.__file__).parent
    reached = {name: set() for name in SVD_CORE}
    for path in sorted(package.glob("*.py")):
        for where, name in _references(ast.parse(path.read_text(encoding="utf-8"))):
            if name in SVD_CORE:
                reached[name].add(where if path.name == "linalg.py" else f"{path.name}:{where}")
    assert reached == SVD_CORE
    quiver_imports = {
        alias.name
        for node in ast.walk(ast.parse((package / "quiver.py").read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert quiver_imports & {"_rank", "singular_values"} == set()
    assert "_decide" in quiver_imports


# numpy's and scipy's SVD-backed routines: only linalg._lapack_svd may reach them
LAPACK_SVD = {"svd", "svdvals", "matrix_rank", "pinv", "lstsq", "cond"}


def _names_svd(dotted: str) -> bool:
    """Whether a dotted import path is numpy's or scipy's ``linalg`` or an SVD routine."""
    top, *rest = dotted.split(".")
    return top in ("numpy", "scipy") and bool(set(rest) & (LAPACK_SVD | {"linalg"}))


def _lapack_svd_reaches(source: str) -> set[str]:
    """The functions in ``source`` that reach a :data:`LAPACK_SVD` routine: by an
    attribute ``<x>.linalg.<routine>``, or by importing a routine or a ``linalg``
    module of numpy or scipy."""
    out = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute):
                if child.attr in LAPACK_SVD and getattr(child.value, "attr", None) == "linalg":
                    out.add(where)
            elif isinstance(child, ast.Import):
                if any(_names_svd(alias.name) for alias in child.names):
                    out.add(where)
            elif isinstance(child, ast.ImportFrom) and child.module:
                if any(_names_svd(f"{child.module}.{alias.name}") for alias in child.names):
                    out.add(where)
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else where)

    visit(ast.parse(source), "<module>")
    return out


def test_only_linalg_reaches_numpys_svd():
    # SVD_CORE above tracks the package's own names; a direct np.linalg.svd elsewhere
    # would bypass them, so numpy's SVD is tracked too
    package = Path(qs.__file__).parent
    reached = {
        f"{path.name}:{where}"
        for path in sorted(package.glob("*.py"))
        for where in _lapack_svd_reaches(path.read_text(encoding="utf-8"))
    }
    assert reached == {"linalg.py:_lapack_svd"}


@pytest.mark.parametrize(
    "source",
    [
        "def f(a):\n    return np.linalg.svd(a)\n",
        "def f(a):\n    return numpy.linalg.matrix_rank(a)\n",
        "def f(a):\n    from numpy.linalg import svd\n",
        "def f(a):\n    import numpy.linalg as la\n",
        "def f(a):\n    from scipy import linalg\n",
    ],
)
def test_the_svd_guard_sees_a_direct_call(source):
    assert _lapack_svd_reaches(source) == {"f"}


def test_the_svd_guard_passes_other_numpy_linalg():
    source = "def f(a):\n    np.linalg.norm(a), np.linalg.eigvals(a), np.linalg.qr(a)\n"
    assert _lapack_svd_reaches(source) == set()


def _keys(value) -> set:
    """Every dict key in a JSON-ready value, nested ones included."""
    if isinstance(value, dict):
        return set(value).union(*map(_keys, value.values()))
    if isinstance(value, list):
        return set().union(*map(_keys, value))
    return set()


# the keys of cli.py's own header; every other report field comes from the library
CLI_HEADER_KEYS = {"report_version", "command", "tolerance", "report"}


def test_report_fields_are_named_in_the_library_only():
    chain, truth = qs.plant(BENCH_CHAIN)
    form, trace = qs.canon_chain(chain)
    cycle, _ = qs.plant(BENCH_CYCLE)
    fields = (
        _keys(qs.report(chain, form, trace=trace))
        | _keys(qs.report(cycle, qs.regularize(cycle)))
        | _keys(qs.verify(chain, form, truth, trace=trace).to_dict())
    )
    assert {"labels", "pass_counts", "monodromy_eigenvalues", "checks"} <= fields
    tree = ast.parse((Path(qs.__file__).parent / "cli.py").read_text(encoding="utf-8"))
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            named.update(k.value for k in node.keys if isinstance(k, ast.Constant))
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "dict":
            named.update(k.arg for k in node.keywords if k.arg)
    assert "command" in named  # the guard still sees the header
    assert sorted((named & fields) - CLI_HEADER_KEYS) == []


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_perfbench(name: str):
    path = PERFBENCH / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _owner(dotted: str):
    try:
        return importlib.import_module(dotted)
    except ModuleNotFoundError:
        mod, _, attr = dotted.rpartition(".")
        return getattr(importlib.import_module(mod), attr)


def test_traced_targets_are_bound():
    targets = _load_perfbench("tracing").TARGETS
    assert targets
    missing = [f"{path}.{attr}" for path, attr, _, _ in targets if attr not in vars(_owner(path))]
    assert missing == []


def test_benchmark_root_names_are_listed():
    used = set()
    for path in PERFBENCH.glob("*.py"):
        used.update(re.findall(r"\bqs\.([A-Za-z_]\w*)", path.read_text(encoding="utf-8")))
    assert len(used) >= 10
    assert sorted(used - set(qs.__all__)) == []


BENCH_CHAIN = qs.PlantSpec(
    shape=qs.chain_shape(4, "><>"), labels=(((1, 2), 1), ((2, 4), 2), ((3, 3), 1)), seed=5
)
BENCH_CYCLE = qs.PlantSpec(
    shape=qs.cycle_shape(3, "><<"),
    labels=(((1, 4), 1), ((2, 3), 2), ((3, 3), 1)),
    regular_eigs=(2, 1 + 1j),
    seed=6,
)


def _gen_argv(spec) -> list[str]:
    """``gen``'s arguments after the output path for the cycle ``spec``, as ``cli-file`` writes them."""
    return [
        "--kind", "cycle", "--t", str(spec.shape.t), "--orientations", spec.shape.orientations,
        "--labels", ",".join(f"G:{l}:{r}:{m}" for (l, r), m in spec.labels),
        "--regular-eigs=" + ",".join(f"{z.real:.6f}{z.imag:+.6f}i" for z in spec.regular_eigs),
        "--seed", str(spec.seed),
    ]


@pytest.mark.parametrize(
    "spec, op, spans",
    [
        (BENCH_CHAIN, "_chain_op", ("_KERNEL",)),
        (BENCH_CYCLE, "_cycle_op", ("_CYCLE",)),
        (BENCH_CYCLE, "_cli_op", ("_CYCLE", "_FILES")),
    ],
    ids=["chain", "cycle", "cli"],
)
def test_benchmark_spans_are_recorded(spec, op, spans, tmp_path):
    # a workload's self-check requires each of its expected spans; a refactor that
    # stops calling a traced name fails here too
    tracing, workloads = _load_perfbench("tracing"), _load_perfbench("workloads")
    rep, truth = qs.plant(spec)
    counts = Counter(dict(spec.labels))
    want = (
        workloads._labels_of(counts)
        if spec.shape.kind == qs.CHAIN
        else workloads._cycle_want(counts, len(spec.regular_eigs))
    )
    if op == "_cli_op":  # the op plants the instance itself, through `gen`
        inst = workloads.Instance(truth, want, rep.dims, argv=_gen_argv(spec))
    else:
        inst = workloads.Instance(truth, want, rep.dims, rep)
    tracer = tracing.Tracer()
    undo, _ = tracing.install(tracer)
    try:
        tracer.op = 0
        outcome = getattr(workloads, op)(inst, str(tmp_path))
    finally:
        undo()
    assert outcome.ok
    recorded = {tracer.names[i] for i in tracer.name}
    expected = {name for group in spans for name in getattr(workloads, group)}
    assert sorted(expected - recorded) == []
