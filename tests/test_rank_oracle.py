"""canon_chain against an independent oracle: the generalized rank invariant."""

from collections import Counter

import numpy as np
import pytest

import quiverstair as qs
from rank_oracle import generalized_rank, interval_counts


def _orientations(rng, arrows: int) -> str:
    return "".join("><"[rng.integers(0, 2)] for _ in range(arrows))


def _planted(seed: int):
    rng = np.random.default_rng([4000, seed])
    t = int(rng.integers(1, 7))
    labels = Counter()
    for _ in range(int(rng.integers(0, 5))):
        i = int(rng.integers(1, t + 1))
        labels[(i, int(rng.integers(i, t + 1)))] += 1
    spec = qs.PlantSpec(qs.chain_shape(t, _orientations(rng, t - 1)), tuple(labels.items()), seed=seed)
    return qs.plant(spec)[0], labels


def _unplanted(seed: int):
    """Random chain: each arrow has a random rank, singular values in [1, 10]."""
    rng = np.random.default_rng([5000, seed])
    t = int(rng.integers(1, 8))
    shape = qs.chain_shape(t, _orientations(rng, t - 1))
    dims = tuple(int(d) for d in rng.integers(0, 5, size=t))
    mats = []
    for r in range(1, t):
        u, w = shape.arrow_ends(r)
        rows, cols = dims[w - 1], dims[u - 1]
        k = int(rng.integers(0, min(rows, cols) + 1))
        left = qs.random_unitary(rows, int(rng.integers(2**31)))[:, :k]
        right = qs.random_unitary(cols, int(rng.integers(2**31)))[:, :k]
        mats.append(left @ np.diag(rng.uniform(1, 10, size=k)) @ right.conj().T)
    return qs.Representation(shape, dims, tuple(mats))


@pytest.mark.parametrize("seed", range(60))
def test_planted_chain_oracle_truth_and_sweep_agree(seed):
    rep, truth = _planted(seed)
    form, trace = qs.canon_chain(rep)
    assert interval_counts(rep, trace.threshold) == truth == form.counts


@pytest.mark.parametrize("seed", range(60))
def test_unplanted_chain_oracle_and_sweep_agree(seed):
    rep = _unplanted(seed)
    form, trace = qs.canon_chain(rep)
    assert interval_counts(rep, trace.threshold) == form.counts


def test_rank_of_a_zigzag_by_hand():
    # C -1-> C <-0- C: [1, 2] and [3, 3]; the zero map cuts vertex 3 off
    rep = qs.Representation(qs.chain_shape(3, "><"), (1, 1, 1), (np.ones((1, 1)), np.zeros((1, 1))))
    ranks = {(i, j): generalized_rank(rep, i, j, 1e-12) for i in (1, 2, 3) for j in range(i, 4)}
    assert ranks == {(1, 1): 1, (1, 2): 1, (1, 3): 0, (2, 2): 1, (2, 3): 0, (3, 3): 1}
    assert interval_counts(rep, 1e-12) == Counter({(1, 2): 1, (3, 3): 1})
