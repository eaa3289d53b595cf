"""The shave's revisit update: a row compression decided from the columns that left an
arrow answers as ``row_compress`` would, or declines, and the shave's answers do not
depend on whether it is used."""

import numpy as np
import pytest

import quiverstair as qs
from conftest import random_complex, wide_cycle_spec
from quiverstair import cycle, linalg

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

MARGIN = linalg._REVISIT_MARGIN
# where the planted singular value sits, as log10 of its ratio to tau
PLANTED_AT = (-8, -3, -1, -0.5, 0, 0.5, 1, 3, 8)


def _unitary(rng, n):
    q, r = np.linalg.qr(random_complex(rng, n, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def revisit(rng, k, m, s, c, eps, cond):
    """``(pending, cur)``: ``[pending | cur] = D Z`` with ``Z``'s ``k`` rows orthonormal,
    which is ``M S^H`` for ``M = D Z S`` (orthogonal rows of norms ``d``) and any unitary
    ``S``; ``d`` spans a factor ``cond``.  By the CS decomposition ``Z = [X Gamma P^H |
    X Sigma V^H]``; ``c`` of the directions ``X`` keep only ``eps`` of their length in
    ``cur``.  ``m >= k``."""
    x, p, v = _unitary(rng, k), _unitary(rng, s), _unitary(rng, m)[:, :k]
    sin = np.concatenate([np.full(c, eps), rng.uniform(0.2, 1.0, k - c)])
    cos = np.sqrt((1 - sin) * (1 + sin))
    cos[s:] = 0.0  # C has s columns; past them the row lies in cur alone
    sin[s:] = 1.0
    r = min(k, s)
    z_pending = (x[:, :r] * cos[:r]) @ p[:, :r].conj().T
    z_cur = (x * sin) @ v.conj().T
    d = 10.0 ** rng.uniform(0, np.log10(cond), k)
    return d[:, None] * z_pending, d[:, None] * z_cur


@st.composite
def revisits(draw):
    k = draw(st.integers(1, 10), label="k")
    s = draw(st.integers(1, 6), label="s")
    c = draw(st.integers(0, min(s, k)), label="c")
    m = draw(st.integers(k, k + 5), label="m")
    eps = 10.0 ** draw(st.sampled_from([-13, -9, -5]), label="log10 eps")
    cond = draw(st.sampled_from([1.0, 1e2, 1e6]), label="cond(d)")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    pending, cur = revisit(rng, k, m, s, c, eps, cond)
    sv = np.linalg.svd(cur, compute_uv=False)
    # the planted value: the largest of the c small ones, or the smallest if none
    planted = sv[k - max(c, 1)]
    tau = planted / 10.0 ** draw(st.sampled_from(PLANTED_AT), label="planted at")
    return pending, cur, tau, sv


@hypothesis.given(revisits())
def test_update_agrees_with_row_compress(case):
    pending, cur, tau, sv = case
    k = cur.shape[0]
    got = linalg._row_compress_revisit(cur, pending, tau)
    # a singular value inside the margin band, where the oracle is exact far below tau
    if sv[0] * k * 1e-14 < tau / MARGIN / 1e3:
        band = (sv > tau / MARGIN * (1 + 1e-9)) & (sv < tau * MARGIN * (1 - 1e-9))
        if band.any():
            assert got is None
    hypothesis.event("answered" if got is not None else "declined")
    if got is None:
        return
    block, kept = got
    q = linalg._left(block, np.eye(k, dtype=complex))  # Q^H of the reflectors, or I
    assert kept == linalg.row_compress(cur, tau)[1]
    assert linalg.unitarity_defect(q) <= 1e-12 * k
    reduced = q @ cur
    assert linalg._fro(reduced[: k - kept]) <= tau
    if kept:
        assert linalg.singular_values(reduced[k - kept :])[-1] > tau


# (planted at, eps): tau stays 10x below the other values, and a value planted above tau
# stays above what the Gram's rounding lets the update resolve (about 1e-7 here)
AWAY = [(-8, 1e-13), (-3, 1e-9), (3, 1e-5), (8, 1e-5)]


@pytest.mark.parametrize("planted_at, eps", AWAY)
@pytest.mark.parametrize("c", [0, 1, 3])
def test_update_answers_away_from_tau(planted_at, eps, c):
    # well-conditioned d and a planted value far from tau: both certificates hold
    rng = np.random.default_rng([7, c, planted_at + 10])
    pending, cur = revisit(rng, 12, 14, 4, c, eps, 1.0)
    sv = np.linalg.svd(cur, compute_uv=False)
    tau = sv[12 - max(c, 1)] / 10.0**planted_at
    _, kept = linalg._row_compress_revisit(cur, pending, tau)
    assert kept == linalg.row_compress(cur, tau)[1] == np.count_nonzero(sv > tau)


@pytest.mark.parametrize("planted_at", [-0.5, 0, 0.5])
def test_update_declines_inside_the_margin(planted_at):
    rng = np.random.default_rng(11)
    pending, cur = revisit(rng, 12, 14, 4, 2, 1e-9, 1.0)
    tau = np.linalg.svd(cur, compute_uv=False)[10] / 10.0**planted_at
    assert linalg._row_compress_revisit(cur, pending, tau) is None


def test_update_declines_rows_that_are_not_orthogonal():
    rng = np.random.default_rng(3)
    pending, cur = revisit(rng, 6, 8, 2, 1, 1e-9, 1.0)
    tau = np.linalg.svd(cur, compute_uv=False)[-1] * 1e3
    assert linalg._row_compress_revisit(cur, pending, tau)[1] == 5
    # the same cur, with pending cut to one of its two columns
    assert linalg._row_compress_revisit(cur, pending[:, :1], tau) is None


def test_update_declines_a_zero_row_and_no_rows():
    rng = np.random.default_rng(3)
    pending, cur = revisit(rng, 4, 5, 2, 1, 1e-9, 1.0)
    pending[2], cur[2] = 0, 0
    assert linalg._row_compress_revisit(cur, pending, 1e-3) is None
    assert linalg._row_compress_revisit(cur[:0], pending[:0], 1e-3) is None


def _answers(dec):
    return (
        dec.summands, dec.regular_dim(), dec.threshold, [(s.l, s.n) for s in dec.shaves],
    )


@pytest.mark.parametrize("scramble", ["unitary", "invertible"])
def test_same_answers_with_the_update_switched_off(monkeypatch, scramble):
    # with the update and a reflector block on every counterclockwise step that shaves,
    # whatever its size, against neither: row_compress and col_compress's dense unitaries
    answered, blocks = [], []
    update, reflectors = cycle._row_compress_revisit, cycle._reflector_block

    def counted(*args):
        out = update(*args)
        answered.append(out is not None)
        return out

    def counted_block(x):
        blocks.append(x.shape)
        return reflectors(x)

    with_update, without = [], []
    for seed in range(10):
        rep, truth = qs.plant(wide_cycle_spec(seed, scramble))
        assert min(rep.dims) >= linalg._REVISIT_MIN_DIM
        monkeypatch.setattr(cycle, "_row_compress_revisit", counted)
        monkeypatch.setattr(cycle, "_reflector_block", counted_block)
        monkeypatch.setattr(cycle, "_BLOCK_MIN_DIM", 1)
        dec = qs.regularize(rep)
        assert qs.verify(rep, dec, truth).passed
        with_update.append(_answers(dec))
        monkeypatch.setattr(cycle, "_row_compress_revisit", lambda *args: None)
        monkeypatch.setattr(cycle, "_BLOCK_MIN_DIM", np.inf)
        dec = qs.regularize(rep)
        assert qs.verify(rep, dec, truth).passed
        without.append(_answers(dec))
    assert with_update == without
    assert sum(answered) >= 10  # the update did decide revisits
    assert len(blocks) >= 10  # and counterclockwise steps applied reflectors
