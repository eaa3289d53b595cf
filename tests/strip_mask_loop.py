"""The staircase residual that builds its mask strip by strip, a reference for
``ChainTrace.misfits``.

``ChainTrace.misfits`` reads the demanded zeros of every step of a chain off
one comparison of per-vertex keys (``chain._staircase_keys``).  This module
keeps the plain pattern: for each strip, a boolean mask over the rows below
its block and over the strip's columns beside the block, in the vertical
frame ``staircase_reduce`` works in.  It shares only the strip check
``_strip_frame`` with the package.
"""

import numpy as np

from quiverstair.errors import ValidationError
from quiverstair.linalg import HORIZONTAL, _sizes, _strip_frame


def staircase_residual(a, strip_sizes, block_sizes, strip_axis: str) -> float:
    """Largest modulus in ``a`` where the staircase form demands a zero.

    The pattern is the one ``staircase_reduce`` produces for the given strip
    and block sizes; 0.0 when it demands no zero.  Each block must fit its
    strip (``0 <= l_i <= k_i``), and all of them the orthogonal axis.
    """
    m, bounds = _strip_frame(a, strip_sizes, strip_axis)
    ls = _sizes("block_sizes", block_sizes)
    if len(ls) != len(bounds) - 1:
        raise ValidationError("strip_sizes and block_sizes must have equal length")
    if strip_axis == HORIZONTAL:
        ls = ls[::-1]
    band = np.concatenate([[0], np.cumsum(ls)]).astype(int)
    if any(not 0 <= l <= k for l, k in zip(ls, np.diff(bounds))) or band[-1] > m.shape[0]:
        raise ValidationError(f"block sizes must fit their strips and sum to at most {m.shape[0]}")
    mask = np.zeros(m.shape, dtype=bool)
    for l, c0, c1, b0, b1 in zip(ls, bounds, bounds[1:], band, band[1:]):
        mask[b1:, c0:c1] = True
        mask[b0:b1, c0 : c1 - l] = True
    return float(np.abs(m[mask]).max(initial=0.0))
