"""Shared test helpers: seeded instance generators and exact-arithmetic oracles."""

from collections import Counter

import numpy as np

import quiverstair as qs
from quiverstair.quiver import assemble, regularity_defect

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # tier-1 runs property tests reproducibly and fast: the same examples on
    # every run, nothing stored between runs
    settings.register_profile(
        "tier1", derandomize=True, database=None, deadline=None, max_examples=150
    )
    settings.load_profile("tier1")

EIG_CHOICES = (2, -2, 3, -3, 1 + 1j, 1 - 1j)


def bareiss_rank(mat) -> int:
    """Exact rank of an integer matrix by fraction-free (Bareiss) elimination.

    Independent of any SVD path: all arithmetic is exact over the integers.
    """
    rows = [[int(x) for x in row] for row in np.asarray(mat)]
    m = len(rows)
    n = len(rows[0]) if m else 0
    r = 0
    prev = 1
    for c in range(n):
        if r >= m:
            break
        piv = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, m):
            for j in range(c + 1, n):
                rows[i][j] = (rows[r][c] * rows[i][j] - rows[i][c] * rows[r][j]) // prev
            rows[i][c] = 0
        prev = rows[r][c]
        r += 1
    return r


def random_complex(rng, m, n):
    return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))


def random_cycle_spec(seed, *, t_range=(2, 6), max_total=40, max_len=8, scramble="unitary"):
    """Seeded random planted cycle: walk labels plus regular eigenvalues."""
    rng = np.random.default_rng([1000, seed])
    t = int(rng.integers(t_range[0], t_range[1] + 1))
    orient = "".join("><"[rng.integers(0, 2)] for _ in range(t))
    shape = qs.cycle_shape(t, orient)
    labels = Counter()
    n_reg = int(rng.integers(0, 5))
    eigs = tuple(EIG_CHOICES[rng.integers(0, len(EIG_CHOICES))] for _ in range(n_reg))
    total = n_reg * t
    for _ in range(int(rng.integers(0, 6))):
        length = int(rng.integers(1, max_len + 1))
        start = int(rng.integers(1, t + 1))
        if total + length > max_total:
            break
        labels[(start, start + length - 1)] += 1
        total += length
    return qs.PlantSpec(
        shape=shape, labels=tuple(labels.items()), regular_eigs=eigs, seed=seed, scramble=scramble
    )


def random_chain_spec(seed, *, t_range=(2, 8), max_dim=12):
    """Seeded random planted chain with per-vertex dimension cap."""
    rng = np.random.default_rng([2000, seed])
    t = int(rng.integers(t_range[0], t_range[1] + 1))
    orient = "".join("><"[rng.integers(0, 2)] for _ in range(t - 1))
    shape = qs.chain_shape(t, orient)
    labels = Counter()
    dims = [0] * t
    for _ in range(int(rng.integers(0, 9))):
        i = int(rng.integers(1, t + 1))
        j = int(rng.integers(i, t + 1))
        if max(dims[i - 1 : j]) + 1 > max_dim:
            continue
        labels[(i, j)] += 1
        for v in range(i, j + 1):
            dims[v - 1] += 1
    return qs.PlantSpec(shape=shape, labels=tuple(labels.items()), seed=seed)


def add_noise(rep, noise_scale, seed):
    """Perturb every entry by complex Gaussian noise of the given scale."""
    rng = np.random.default_rng([3000, seed])
    scale = qs.representation_scale(rep)
    mats = []
    for m in rep.matrices:
        if m.size:
            mats.append(m + noise_scale * scale * random_complex(rng, *m.shape))
        else:
            mats.append(m)
    return qs.Representation(rep.shape, rep.dims, tuple(mats))


def primed_chain_for_walk(shape, i, j):
    """The all-ones interval chain covering walk positions ``i..j`` plus its (l, n)."""
    length = j - i + 1
    l0 = i - 1 if i >= 2 else i - 1 + shape.t
    n0 = l0 + length - 1
    orient = "".join(
        shape.orientations[shape.wrap(l0 + c) - 1] for c in range(1, length)
    )
    chain = qs.chain_shape(length, orient)
    return assemble(chain, [((1, length), 1)]), l0, n0


def is_regular(rep, tol=qs.DEFAULT_TOL) -> bool:
    """Whether the cycle ``rep`` is regular at ``tol.threshold`` of all its matrices."""
    return regularity_defect(rep, tol.threshold(*rep.matrices)) is None


def noise_arrow_chain():
    """The chain ``C^4 -I-> C^4 -E-> C^4`` with ``E`` complex noise of scale 1e-9.

    Judged at the scale of the whole input, ``E`` is zero: the canonical form
    is ``L(1,2) x 4 + L(3,3) x 4``.  Judged at its own scale it would be full
    rank.
    """
    rng = np.random.default_rng(0)
    noise = 1e-9 * random_complex(rng, 4, 4)
    return qs.Representation(qs.chain_shape(3, ">>"), (4, 4, 4), (np.eye(4), noise))
