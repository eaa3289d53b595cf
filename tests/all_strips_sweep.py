"""The chain sweep that carries every strip, a reference for ``canon_chain``.

``canon_chain`` drops a strip as soon as it holds no copies.  This module
keeps the loop as it ran before that drop: every strip ever opened, empty or
not, is carried to the end of the sweep and recorded in each step, so a
t-vertex chain records ``t(t-1)/2`` strip sizes.  ``staircase_reduce`` gives
an empty strip block size 0 and the identity, so both sweeps must return the
same labels, the same vertex unitaries bit for bit and the same residual.
"""

from collections import Counter

import numpy as np

from quiverstair.chain import ChainStep, ChainTrace
from quiverstair.linalg import DEFAULT_TOL, HORIZONTAL, VERTICAL, staircase_reduce


def canon_chain_all_strips(a, tol=DEFAULT_TOL) -> tuple[Counter, ChainTrace]:
    """Interval counts and trace of the chain ``a``, carrying every strip."""
    t = a.shape.t
    counts: Counter = Counter()
    tau = tol.threshold(*a.matrices)
    trace = ChainTrace([np.eye(d, dtype=np.complex128) for d in a.dims], tau, a=a)
    s = trace.vertex_transforms
    strips = [(1, a.dims[0])]
    for r in range(1, t):
        clockwise = a.shape.is_clockwise(r)
        sizes = [k for _, k in strips]
        axis = VERTICAL if clockwise else HORIZONTAL
        m = a.matrices[r - 1] @ s[r - 1].conj().T if clockwise else s[r - 1] @ a.matrices[r - 1]
        left, right, ls = staircase_reduce(m, sizes, axis, tau)
        s_here, s[r] = (right.conj().T, left) if clockwise else (left, right.conj().T)
        s[r - 1] = s_here @ s[r - 1]
        for (p, k), l in zip(strips, ls):
            if k - l:
                counts[(p, r)] += k - l
        bare = a.dims[r] - sum(ls)
        survivors = [(p, l) for (p, _), l in zip(strips, ls)]
        strips = survivors + [(r + 1, bare)] if clockwise else [(r + 1, bare)] + survivors
        trace.steps.append(ChainStep(a.shape.orientations[r - 1], sizes, ls))
    for p, k in strips:
        if k:
            counts[(p, t)] += k
    return counts, trace
