"""The staircase strip loop that takes an SVD of every strip, a reference for
``staircase_reduce``.

``staircase_reduce`` reduces a one-column strip by its norm and one
reflector, reads strips straight from the input until a strip moves
``left``, and skips the update of a strip that got the identity.  This module
keeps the loop as it ran before those shortcuts: every nonempty strip with
free rows is read as ``left[pinned:, :] @ a[:, strip]``, reduced by a full
SVD, and applied to ``left`` and ``right``.  On strips that are all at least
two columns wide both loops must return the same unitaries bit for bit.
The rank is counted here on numpy's SVD, so this loop shares no rank code
with the package.
"""

import numpy as np

from quiverstair.linalg import HORIZONTAL, _flip, _strip_frame


def svd_two_sided_reduce(a, threshold):
    """``two_sided_reduce`` by the SVD alone, whatever the strip's width."""
    u, sig, vh = np.linalg.svd(a, full_matrices=True)
    k = int(np.count_nonzero(sig > threshold))
    n = np.shape(a)[1]
    return u, vh.conj().T[:, list(range(k, n)) + list(range(k))], k


def staircase_reduce_by_svd(a, strip_sizes, strip_axis, threshold):
    """``staircase_reduce`` with a full SVD and a full update for every live strip."""
    m, bounds = _strip_frame(a, strip_sizes, strip_axis)
    left = np.eye(m.shape[0], dtype=np.complex128)
    right = np.eye(m.shape[1], dtype=np.complex128)
    ls = []
    pinned = 0
    for c0, c1 in zip(bounds, bounds[1:]):
        if c0 == c1 or pinned == m.shape[0]:
            ls.append(0)
            continue
        with np.errstate(invalid="ignore", over="ignore"):
            strip = left[pinned:, :] @ m[:, c0:c1]
        p, s_mat, k = svd_two_sided_reduce(strip, threshold)
        left[pinned:, :] = p.conj().T @ left[pinned:, :]
        right[c0:c1, c0:c1] = s_mat
        ls.append(k)
        pinned += k
    if strip_axis == HORIZONTAL:
        return _flip(right), _flip(left), ls[::-1]
    return left, right, ls
