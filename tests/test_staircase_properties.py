"""Property-based tests of the staircase kernel on drawn matrices and patterns."""

import numpy as np
import pytest

from conftest import random_complex
from quiverstair import linalg
from quiverstair.errors import ValidationError

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

TOL = linalg.DEFAULT_TOL
AXES = st.sampled_from([linalg.VERTICAL, linalg.HORIZONTAL])


@st.composite
def partitions(draw, total):
    """Strip sizes summing to ``total``, zero-width strips included."""
    cuts = draw(st.lists(st.integers(0, total), max_size=4))
    bounds = [0, *sorted(cuts), total]
    sizes = [b - a for a, b in zip(bounds, bounds[1:])]
    return sizes if total or draw(st.booleans()) else []


@st.composite
def staircase_cases(draw):
    """A matrix of drawn shape and rank, an axis, and strips along that axis."""
    rows, cols = draw(st.integers(0, 6), label="rows"), draw(st.integers(0, 6), label="cols")
    rank = draw(st.integers(0, min(rows, cols)), label="rank")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    a = random_complex(rng, rows, rank) @ random_complex(rng, rank, cols)
    axis = draw(AXES, label="axis")
    return a, draw(partitions(cols if axis == linalg.VERTICAL else rows), label="strips"), axis


@hypothesis.given(staircase_cases())
def test_reduction_reaches_the_pattern(case):
    a, sizes, axis = case
    tau = TOL.threshold(a)
    left, right, ls = linalg.staircase_reduce(a, sizes, axis, tau)
    assert linalg.staircase_residual(left @ a @ right, sizes, ls, axis) <= tau
    for q in (left, right):
        assert linalg.unitarity_defect(q) <= 1e-12 * max(1, *a.shape)
    strip_unitary = right if axis == linalg.VERTICAL else left
    bounds = np.cumsum([0, *sizes])
    outside = np.ones(strip_unitary.shape, dtype=bool)
    for b0, b1 in zip(bounds, bounds[1:]):
        outside[b0:b1, b0:b1] = False
    assert not strip_unitary[outside].any()
    assert sum(ls) == linalg.numerical_rank(a, tau)


@hypothesis.given(staircase_cases(), st.data())
def test_zero_width_strips_change_nothing(case, data):
    a, sizes, axis = case
    padded, inserted = list(sizes), [False] * len(sizes)
    for at in data.draw(st.lists(st.integers(0, len(sizes)), min_size=1, max_size=3), label="at"):
        padded.insert(at, 0)
        inserted.insert(at, True)
    tau = TOL.threshold(a)
    left, right, ls = linalg.staircase_reduce(a, sizes, axis, tau)
    p_left, p_right, p_ls = linalg.staircase_reduce(a, padded, axis, tau)
    assert np.array_equal(p_left, left) and np.array_equal(p_right, right)
    kept = iter(ls)
    assert p_ls == [0 if new else next(kept) for new in inserted]
    reduced = left @ a @ right
    assert linalg.staircase_residual(reduced, padded, p_ls, axis) == linalg.staircase_residual(
        reduced, sizes, ls, axis
    )


@hypothesis.given(
    strips=st.lists(st.integers(-1, 4), max_size=4),
    slack=st.integers(-1, 1),
    other=st.integers(0, 5),
    axis=AXES,
    data=st.data(),
)
def test_residual_raises_exactly_when_the_pattern_does_not_fit(strips, slack, other, axis, data):
    along = max(0, sum(strips) + slack)
    blocks = [data.draw(st.integers(-1, max(k, 0) + 1)) for k in strips]
    blocks += data.draw(st.lists(st.integers(0, 2), max_size=1), label="extra blocks")
    fits = (
        len(blocks) == len(strips)
        and sum(strips) == along
        and all(0 <= l <= k for l, k in zip(blocks, strips))
        and sum(blocks) <= other
    )
    shape = (other, along) if axis == linalg.VERTICAL else (along, other)
    a = np.ones(shape)
    if fits:
        assert linalg.staircase_residual(a, strips, blocks, axis) >= 0.0
    else:
        with pytest.raises(ValidationError):
            linalg.staircase_residual(a, strips, blocks, axis)
