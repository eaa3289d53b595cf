"""The staircase strip loop that reduces every strip on its own, a reference for
``staircase_reduce``.

``staircase_reduce`` applies a one-column strip's reflector to ``left`` in
place and takes a run of one-column strips as one Householder QR, whose
leading columns it certifies against the strip-by-strip rule.  This module
keeps that rule as it ran before: every live strip, one column wide or
not, is one ``two_sided_reduce`` of ``left[pinned:, :] @ a[:, strip]``, whose
``p^H`` then multiplies ``left`` densely.  Both loops must return the same
block sizes; their unitaries may differ by a basis of the rows each
one-column block leaves free.
"""

import numpy as np

from quiverstair.linalg import HORIZONTAL, _flip, _strip_frame, two_sided_reduce


def staircase_reduce_strip_by_strip(a, strip_sizes, strip_axis, threshold):
    """``staircase_reduce`` with one ``two_sided_reduce`` and one dense update per live strip."""
    m, bounds = _strip_frame(a, strip_sizes, strip_axis)
    left = np.eye(m.shape[0], dtype=np.complex128)
    right = np.eye(m.shape[1], dtype=np.complex128)
    ls = []
    pinned = 0
    for c0, c1 in zip(bounds, bounds[1:]):
        if c0 == c1 or pinned == m.shape[0]:
            ls.append(0)
            continue
        p, s_mat, k = two_sided_reduce(left[pinned:, :] @ m[:, c0:c1], threshold)
        if c1 - c0 > 1 or k:  # a one-column strip of rank 0 gets the identity
            left[pinned:, :] = p.conj().T @ left[pinned:, :]
        right[c0:c1, c0:c1] = s_mat
        ls.append(k)
        pinned += k
    if strip_axis == HORIZONTAL:
        return _flip(right), _flip(left), ls[::-1]
    return left, right, ls
