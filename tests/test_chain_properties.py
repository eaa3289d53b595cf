"""Property-based tests: the live-strip sweep equals the sweep that carries every strip."""

from collections import Counter

import numpy as np
import pytest

import quiverstair as qs
from all_strips_sweep import canon_chain_all_strips
from conftest import random_complex

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

MAX_DIM = 5


@st.composite
def chains(draw):
    """A chain of t 1..8, any orientations, dims 0..5: planted, or random arrows of drawn rank."""
    t = draw(st.integers(1, 8), label="t")
    orient = "".join(draw(st.lists(st.sampled_from("><"), min_size=t - 1, max_size=t - 1)))
    shape = qs.chain_shape(t, orient)
    seed = draw(st.integers(0, 2**32 - 1), label="seed")
    if draw(st.booleans(), label="planted"):
        labels, dims = Counter(), [0] * t
        for i, j in draw(st.lists(st.tuples(st.integers(1, t), st.integers(1, t)), max_size=8)):
            i, j = min(i, j), max(i, j)
            if max(dims[i - 1 : j]) < MAX_DIM:
                labels[(i, j)] += 1
                dims[i - 1 : j] = [d + 1 for d in dims[i - 1 : j]]
        return qs.plant(qs.PlantSpec(shape, tuple(labels.items()), seed=seed))[0]
    dims = draw(st.lists(st.integers(0, MAX_DIM), min_size=t, max_size=t), label="dims")
    rng = np.random.default_rng(seed)
    mats = []
    for r in range(1, t):
        u, v = shape.arrow_ends(r)
        rank = draw(st.integers(0, min(dims[u - 1], dims[v - 1])), label="rank")
        mats.append(random_complex(rng, dims[v - 1], rank) @ random_complex(rng, rank, dims[u - 1]))
    return qs.Representation(shape, tuple(dims), tuple(mats))


def _zero_first():
    """Vertex 1 has dimension 0, and so does the last vertex."""
    shape = qs.chain_shape(4, "><>")
    return qs.plant(qs.PlantSpec(shape, (((2, 3), 2), ((2, 2), 1)), seed=3))[0]


def _one_vertex():
    return qs.Representation(qs.chain_shape(1, ""), (3,), ())


@hypothesis.given(chains())
@hypothesis.example(_zero_first())
@hypothesis.example(_one_vertex())
def test_live_strips_give_the_all_strips_outputs(rep):
    form, trace = qs.canon_chain(rep)
    counts, reference = canon_chain_all_strips(rep)
    assert form.counts == counts
    assert all(
        np.array_equal(x, y) for x, y in zip(trace.vertex_transforms, reference.vertex_transforms)
    )
    assert trace.residual == reference.residual
    assert trace.threshold == reference.threshold
    for step, ref in zip(trace.steps, reference.steps, strict=True):
        assert 0 not in step.strip_sizes
        live = [(k, l) for k, l in zip(ref.strip_sizes, ref.block_sizes) if k]
        assert list(zip(step.strip_sizes, step.block_sizes)) == live
