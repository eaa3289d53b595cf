"""Property-based tests of the staircase kernel on drawn matrices and patterns."""

import numpy as np
import pytest

import quiverstair as qs
from conftest import random_complex
from quiverstair import linalg
from quiverstair.chain import ChainStep, ChainTrace
from quiverstair.errors import ValidationError
from strip_by_strip_loop import staircase_reduce_strip_by_strip
from strip_mask_loop import demanded_zeros, staircase_residual
from svd_strip_loop import staircase_reduce_by_svd

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
    assert staircase_residual(left @ a @ right, sizes, ls, axis) <= tau
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
    assert staircase_residual(reduced, padded, p_ls, axis) == staircase_residual(
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
        assert staircase_residual(a, strips, blocks, axis) >= 0.0
    else:
        with pytest.raises(ValidationError):
            staircase_residual(a, strips, blocks, axis)


@hypothesis.given(staircase_cases(), st.data())
def test_chain_misfit_equals_the_strip_mask_loop(case, data):
    # a one-step chain: the strips at vertex 1, the blocks claiming vertex 2, whose
    # arrow is clockwise for vertical strips; blocks are drawn to fit or not
    a, sizes, axis = case
    blocks = [data.draw(st.integers(-1, k + 1), label="block") for k in sizes]
    vertical = axis == linalg.VERTICAL
    shape = qs.chain_shape(2, ">" if vertical else "<")
    dims = a.shape[::-1] if vertical else a.shape
    step = ChainStep(shape.orientations, sizes, blocks)
    trace = ChainTrace([np.eye(d) for d in dims], 0.0, [step], a=qs.Representation(shape, dims, (a,)))
    try:
        want = staircase_residual(a, sizes, blocks, axis)
    except ValidationError:
        with pytest.raises(ValidationError, match="does not fit"):
            trace.misfits(shape, [a])
    else:
        assert trace.misfits(shape, [a]) == [want]


@st.composite
def columns(draw):
    """An ``n x 1`` complex column, n 1..8, scaled by up to 10^±200, with exact zeros."""
    n = draw(st.integers(1, 8), label="n")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    zeros = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n), label="zeros"))
    x = random_complex(rng, n, 1) * 10.0 ** draw(st.integers(-200, 200), label="exponent")
    x[zeros] = 0
    return x


@hypothesis.given(columns(), st.floats(-3, 3), st.booleans())
def test_one_column_strip_is_decided_by_its_norm(x, shift, zero_threshold):
    # every decision on one column takes the norm-and-reflector rule: each gets
    # numpy's rank, and its factors are an SVD's, u^H x = sigma e_1 with sigma real
    sigma = float(np.linalg.svd(x, compute_uv=False)[0])
    tau = 0.0 if zero_threshold else sigma * 10.0**shift
    hypothesis.assume(not sigma or abs(tau - sigma) > 4 * np.spacing(sigma))
    want = int(sigma > tau)
    n = len(x)
    assert linalg.numerical_rank(x, tau) == want

    p, s_mat, k = linalg.two_sided_reduce(x, tau)
    assert k == want
    assert np.array_equal(s_mat, [[1]])
    assert linalg.unitarity_defect(p) <= 1e-14
    if k:
        top = (p.conj().T @ x)[:, 0]
        assert abs(top[0] - sigma) <= 4e-15 * sigma  # real and positive, to rounding
        assert np.abs(top[1:]).max(initial=0.0) <= 1e-15 * sigma
    else:
        assert np.array_equal(p, np.eye(n))

    q, k = linalg.row_compress(x, tau)
    assert k == want
    assert linalg.unitarity_defect(q) <= 1e-14
    if k:  # q @ x = [0; r]
        moved = (q @ x)[:, 0]
        assert np.abs(moved[:-1]).max(initial=0.0) <= 1e-15 * sigma
        assert abs(moved[-1] - sigma) <= 4e-15 * sigma
    else:
        assert np.array_equal(q, np.eye(n))

    w, k = linalg.col_compress(x, tau)
    assert k == want
    assert np.array_equal(w, [[1]])  # x @ w = [c | 0]: c is x at rank 1, nothing at 0

    if n == 1:
        if sigma > linalg.DEFAULT_TOL.from_sigma(sigma):
            assert abs((linalg.svd_inverse(x) @ x)[0, 0] - 1) <= 4e-15
        else:
            with pytest.raises(ValidationError, match="numerically singular"):
                linalg.svd_inverse(x)


@st.composite
def wide_strip_cases(draw):
    """A matrix of drawn rank, an axis, and strips along it that are all at least 2 wide."""
    sizes = draw(st.lists(st.integers(2, 4), max_size=4), label="strips")
    other = draw(st.integers(0, 7), label="other")
    along = sum(sizes)
    rank = draw(st.integers(0, min(other, along)), label="rank")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    axis = draw(AXES, label="axis")
    rows, cols = (other, along) if axis == linalg.VERTICAL else (along, other)
    a = random_complex(rng, rows, rank) @ random_complex(rng, rank, cols)
    return a, sizes, axis


@hypothesis.given(wide_strip_cases())
def test_wide_strips_match_the_svd_loop_bit_for_bit(case):
    a, sizes, axis = case
    tau = TOL.threshold(a)
    left, right, ls = linalg.staircase_reduce(a, sizes, axis, tau)
    ref_left, ref_right, ref_ls = staircase_reduce_by_svd(a, sizes, axis, tau)
    assert ls == ref_ls
    assert np.array_equal(left, ref_left) and np.array_equal(right, ref_right)


# how a drawn one-column strip's column sits against the columns before it, in units of
# tau for its part off their span; "zero" is the zero column, "span" has no such part
COLUMN_KINDS = {
    "zero": None, "span": 0.0, "wide": None,
    "just below": 1 - 1e-10, "just above": 1 + 1e-10, "tenth": 0.1, "tenfold": 10.0,
}


@st.composite
def one_column_runs(draw):
    """A matrix, strips rich in runs of one-column strips, an axis and a threshold.

    Built in the vertical frame in the basis ``q`` of a random unitary: once
    ``p`` columns are rank 1, a column's part off their span lies along
    ``q[:, p]``.  A one-column strip is the zero column, in the span, off it
    by far ("wide"), or off it by tau times ``1 -+ 1e-10``, ``0.1`` or ``10``
    with a part in the span of at most tau; a planted column at tau's margin
    thus keeps that margin beyond rounding.  Zero-width strips and strips two
    columns wide, generic on two new directions, break in.
    """
    n = draw(st.integers(1, 8), label="rows")
    tau = 10.0 ** draw(st.integers(-7, -2), label="exponent of tau")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    q = qs.random_unitary(n, rng)
    widths = draw(st.lists(st.sampled_from([1, 1, 1, 1, 0, 2]), max_size=12), label="strips")
    cols, p = [], 0
    for w in widths:
        if w == 2:
            c = random_complex(rng, n, 2)
            c[p + 2 :] = 0
            c[p : p + 2] = [[1.0, 0.5], [0.0, 1.0]] if p + 2 <= n else c[p : p + 2]
            p = min(p + 2, n)
        elif w == 1:
            kind = draw(st.sampled_from(sorted(COLUMN_KINDS)), label="kind")
            c = random_complex(rng, n, 1)
            off = COLUMN_KINDS[kind]
            if kind == "zero":
                c[:] = 0
            elif kind != "wide":
                c[p:] = 0
                if off and p < n:
                    c *= tau / max(1.0, linalg._fro(c))  # the part in the span: at most tau
                    c[p] = off * tau * np.exp(2j * np.pi * rng.random())
            if p < n and (kind == "wide" or (off or 0) > 1):
                p += 1
        else:
            c = np.zeros((n, 0))
        cols.append(c)
    a = q @ np.concatenate(cols, axis=1) if cols else np.zeros((n, 0))
    axis = draw(AXES, label="axis")
    if axis == linalg.HORIZONTAL:  # the same strips, read in the flipped frame
        return linalg._flip(a), widths[::-1], axis, tau
    return a, widths, axis, tau


@hypothesis.given(one_column_runs())
def test_one_column_runs_decide_as_the_strip_by_strip_loop(case):
    a, sizes, axis, tau = case
    left, right, ls = linalg.staircase_reduce(a, sizes, axis, tau)
    ref_left, ref_right, ref_ls = staircase_reduce_strip_by_strip(a, sizes, axis, tau)
    assert ls == ref_ls
    for u in (left, right):
        assert linalg.unitarity_defect(u) <= 1e-13 * max(1, len(u))
    zeros = demanded_zeros(left @ a @ right, sizes, ls, axis)
    ref_zeros = demanded_zeros(ref_left @ a @ ref_right, sizes, ls, axis)
    # the zeros of a rank-1 column are rounding; the norm the others leave on the free
    # rows does not depend on those rows' basis
    assert abs(linalg._fro(zeros) - linalg._fro(ref_zeros)) <= 1e-13 * max(1.0, linalg._fro(a))
    assert np.abs(zeros).max(initial=0.0) <= tau
