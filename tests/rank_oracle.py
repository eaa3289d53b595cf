"""Interval labels of a chain from its generalized rank invariant.

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
"""

from collections import Counter

import numpy as np


def _rank(m: np.ndarray, tau: float) -> int:
    if min(m.shape) == 0:
        return 0
    return int(np.sum(np.linalg.svd(m, compute_uv=False) > tau))


def _null_space(m: np.ndarray, tau: float) -> np.ndarray:
    """Orthonormal basis of the kernel of ``m``."""
    if min(m.shape) == 0:
        return np.eye(m.shape[1], dtype=np.complex128)
    vh = np.linalg.svd(m)[2]
    return vh[_rank(m, tau) :].conj().T


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
