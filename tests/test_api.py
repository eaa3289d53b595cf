"""The public name lists: every listed name is bound, and the package root
lists the user-facing API while the dense-kernel internals stay in linalg.
Every function the benchmark's tracer wraps is still bound where it looks,
and every root name the benchmark uses is still listed."""

import ast
import importlib
import importlib.util
import re
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


@pytest.mark.parametrize("name", ["make_L", "is_regular"])
def test_second_paths_are_not_in_the_package(name):
    # intervals come from quiver.assemble, regularity from quiver.regularity_defect
    assert name not in qs.__all__
    assert [m for m in MODULES if hasattr(importlib.import_module(m), name)] == []


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


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_tracing():
    path = PERFBENCH / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
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
    targets = _load_tracing().TARGETS
    assert targets
    missing = [f"{path}.{attr}" for path, attr, _, _ in targets if attr not in vars(_owner(path))]
    assert missing == []


def test_benchmark_root_names_are_listed():
    used = set()
    for path in PERFBENCH.glob("*.py"):
        used.update(re.findall(r"\bqs\.([A-Za-z_]\w*)", path.read_text(encoding="utf-8")))
    assert len(used) >= 10
    assert sorted(used - set(qs.__all__)) == []
