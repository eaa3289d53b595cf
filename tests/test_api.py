"""The public name lists: every listed name is bound, and the package root
lists the user-facing API while the dense-kernel internals stay in linalg."""

import importlib

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
