"""Interval labels of a chain from its generalized rank invariant, and walk
labels of a cycle from the same invariant on its universal cover.

A chain representation with arrows of any orientation is a zigzag module;
its interval decomposition is its zigzag barcode (Carlsson & de Silva,
"Zigzag persistence", Found. Comput. Math. 10, 2010).  For ``1 <= i <= j <= t``
let ``rk(i, j)`` be the rank of the canonical map from the limit to the
colimit of the restriction to vertices ``i..j``: the number of intervals
that contain ``[i, j]`` (Kim & Mémoli, J. Appl. Comput. Topol. 5, 2021).
Möbius inversion gives the multiplicity of ``[i, j]``::

    m(i, j) = rk(i, j) - rk(i-1, j) - rk(i, j+1) + rk(i-1, j+1)

with ``rk = 0`` outside ``1..t``.  Every rank is an SVD rank of a block
matrix, so this shares no code with the staircase sweep: no strips, no
``assemble`` and no ``canon_chain``.

A cycle is read through its universal cover, the infinite zigzag whose
position ``q`` lies over vertex ``[q]`` and whose arrow ``q`` is cycle arrow
``[q]``.  The pullback of a walk module is the direct sum of the interval
lifts of the walk, and a regular (band) part, an isomorphism on every arrow,
pulls back to copies of the whole window (Gabriel, LNM 903, 1981; Bongartz &
Gabriel, Invent. Math. 65, 1982).  So on the window ``1..N`` the walk
multiplicities are the interval multiplicities that touch neither end, with
starts counted in one period, and the regular dimension is the multiplicity
of ``[1, N]``.  No shave, push-down or chain sweep is used.
"""

from collections import Counter

import numpy as np

import quiverstair as qs


def _rank(m: np.ndarray, tau: float) -> int:
    if min(m.shape) == 0:
        return 0
    return int(np.sum(np.linalg.svd(m, compute_uv=False) > tau))


def _null_space(m: np.ndarray, tau: float) -> np.ndarray:
    """Orthonormal basis of the kernel of ``m``."""
    if min(m.shape) == 0:
        return np.eye(m.shape[1], dtype=np.complex128)
    _, s, vh = np.linalg.svd(m)
    return vh[int(np.sum(s > tau)) :].conj().T


def generalized_rank(rep, i: int, j: int, tau: float) -> int:
    """Rank of lim -> colim of the restriction of the chain ``rep`` to ``i..j``.

    Over ``V``, the direct sum of the spaces at ``i..j``, the limit is the
    kernel ``K`` of the stacked relations ``x_w - A x_u`` (one per arrow
    ``u -> w``), and ``G = [ι_w A - ι_u]`` spans the relations the colimit
    divides out.  The map sends ``x`` to the class of ``ι_i x_i``, so its rank
    is ``rank([ι_i π_i K | G]) - rank(G)``.
    """
    if i < 1 or j > rep.shape.t:
        return 0
    dims = rep.dims[i - 1 : j]
    offsets = np.concatenate([[0], np.cumsum(dims)]).astype(int)
    total = int(offsets[-1])

    def block(v):  # rows or columns of vertex v within V
        return slice(offsets[v - i], offsets[v - i + 1])

    relations, glue = [], []
    for r in range(i, j):
        u, w = rep.shape.arrow_ends(r)
        a = rep.matrices[r - 1]
        rel = np.zeros((a.shape[0], total), dtype=np.complex128)
        rel[:, block(w)] = np.eye(a.shape[0])
        rel[:, block(u)] = -a
        relations.append(rel)
        g = np.zeros((total, a.shape[1]), dtype=np.complex128)
        g[block(w), :] = a
        g[block(u), :] = -np.eye(a.shape[1])
        glue.append(g)
    k = _null_space(np.vstack(relations or [np.zeros((0, total))]), tau)
    head = np.zeros_like(k)
    head[block(i), :] = k[block(i), :]
    g = np.hstack(glue or [np.zeros((total, 0))])
    return _rank(np.hstack([head, g]), tau) - _rank(g, tau)


def interval_counts(rep, tau: float) -> Counter:
    """Multiplicity of every interval ``[i, j]`` of the chain ``rep``."""
    t = rep.shape.t
    rk = {
        (i, j): generalized_rank(rep, i, j, tau) for i in range(0, t + 1) for j in range(i, t + 2)
    }
    out: Counter = Counter()
    for i in range(1, t + 1):
        for j in range(i, t + 1):
            m = rk[i, j] - rk[i - 1, j] - rk[i, j + 1] + rk[i - 1, j + 1]
            if m:
                out[(i, j)] = m
    return out


def cycle_counts(rep, tau: float) -> tuple[Counter, int]:
    """Walk multiplicities ``{(l, r): m}`` and the regular dimension of the cycle ``rep``.

    A walk of length ``L`` visits every vertex at least ``L // t`` times, so
    the window ``N = t + t * (min d + 1) + 2`` holds the lift of every walk
    that starts at ``2..t+1`` away from both ends, and no lift spans it all.
    Only ``rk(i, j)`` with ``i`` in ``1..t+1`` is needed.  A negative
    multiplicity, which flags rank decisions that contradict each other, is
    returned as it is.
    """
    shape, t = rep.shape, rep.shape.t
    n = t + t * (min(rep.dims) + 1) + 2
    cover = qs.Representation(
        qs.chain_shape(n, "".join(shape.orientations[shape.wrap(q) - 1] for q in range(1, n))),
        tuple(rep.dims[shape.wrap(q) - 1] for q in range(1, n + 1)),
        tuple(rep.matrices[shape.wrap(q) - 1] for q in range(1, n)),
    )
    rk: dict = {}

    def rank(i, j):
        if (i, j) not in rk:
            rk[i, j] = generalized_rank(cover, i, j, tau)
        return rk[i, j]

    walks: Counter = Counter()
    for i in range(2, t + 2):
        for j in range(i, n):
            m = rank(i, j) - rank(i - 1, j) - rank(i, j + 1) + rank(i - 1, j + 1)
            if m:
                walks[(shape.wrap(i), shape.wrap(i) + j - i)] = m
    return walks, rank(1, n)
