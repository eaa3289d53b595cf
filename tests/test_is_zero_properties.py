"""Property tests of the stop rule's zero test: its bounds answer as the SVD would."""

from unittest import mock

import numpy as np
import pytest

from conftest import random_complex
from quiverstair import linalg

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# sigma_max / tau: just past the bounds' safety margin of 1e-12, inside it, and far off
FACTORS = (1 - 1e-13, 1 + 1e-13, 1 - 1e-11, 1 + 1e-11, 1e-3, 1e3)


@st.composite
def judged(draw):
    """``(m, tau, factor)``: an empty or all-zero ``m`` (``factor`` None), or a one-column
    or drawn-rank ``m`` scaled so that its largest singular value is ``tau * factor``."""
    form = draw(st.sampled_from(["empty", "zero", "column", "rank"]), label="form")
    tau = 10.0 ** draw(st.integers(-14, 4), label="log10 tau")
    if form == "empty":
        n = draw(st.integers(0, 6), label="n")
        return np.zeros(draw(st.sampled_from([(n, 0), (0, n)]), label="shape"), complex), tau, None
    rows = draw(st.integers(1, 6), label="rows")
    cols = 1 if form == "column" else draw(st.integers(1, 6), label="cols")
    if form == "zero":
        return np.zeros((rows, cols), complex), tau, None
    rank = draw(st.integers(1, min(rows, cols)), label="rank")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    a = random_complex(rng, rows, rank) @ random_complex(rng, rank, cols)
    factor = draw(st.sampled_from(FACTORS), label="factor")
    return a * (tau * factor / linalg.sigma_max(a)), tau, factor


@hypothesis.given(judged())
def test_is_zero_is_rank_zero(case):
    m, tau, factor = case
    with mock.patch.object(linalg, "_decide", wraps=linalg._decide) as decide, \
            mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as lapack:
        got = linalg._is_zero(m, tau)
    assert got == (linalg.numerical_rank(m, tau) == 0)
    if factor is None:
        assert got and decide.call_count == 0
        return
    # sigma_max sits farther from tau than any rounding reaches
    assert got == (factor < 1)
    if factor in (1e-3, 1e3):  # an entry above tau, or a norm below it, decides
        assert decide.call_count == lapack.call_count == 0
    elif abs(factor - 1) < 1e-12:  # max|m_ij| <= tau(1 + 1e-12) and ||m||_F >= tau(1 - 1e-12)
        assert decide.call_count == 1
        assert lapack.call_count == (m.shape[1] > 1)  # a column is decided by its norm
    else:
        assert decide.call_count <= 1 and lapack.call_count <= decide.call_count
