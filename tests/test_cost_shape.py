"""The north star's cost shape as exact operation counts against t and d.

Counting wrappers on numpy's SVD, ``linalg._decide`` and ``Representation`` count
what one solve (``canon_chain`` or ``regularize``) does on planted families: LAPACK
SVDs, their work ``sum min(m,n)^2 max(m,n)``, rank decisions and representation
builds.  The counts are exact, so the pins carry no timing noise.  Per added
vertex, the counts must not grow with ``t``; over a t = 4 cycle's dimension ``d``,
the SVD work is pinned relative to the input's (one SVD of every arrow).  A
counting wrapper on the results' ``misfits`` pins one residual measurement per
checked or reported solve, and none per bare solve.
"""

from collections import Counter
from dataclasses import dataclass

import numpy as np
import pytest

import quiverstair as qs
from quiverstair import cycle, linalg, quiver


@dataclass
class Cost:
    svds: int = 0
    work: int = 0
    decides: int = 0
    reps: int = 0


def _work(shape) -> int:
    m, n = shape[-2:]
    return m * n * min(m, n)


@pytest.fixture
def counted(monkeypatch):
    """A :class:`Cost` that counts every call made while the test runs."""
    cost = Cost()
    lapack, decide, build = np.linalg.svd, linalg._decide, quiver.Representation.__post_init__

    def svd(a, *args, **kwargs):
        cost.svds += 1
        cost.work += _work(np.shape(a))
        return lapack(a, *args, **kwargs)

    def counted_decide(*args, **kwargs):
        cost.decides += 1
        return decide(*args, **kwargs)

    def counted_build(self):
        cost.reps += 1
        return build(self)

    monkeypatch.setattr(np.linalg, "svd", svd)
    for module in (linalg, cycle, quiver):  # every module that binds the name
        monkeypatch.setattr(module, "_decide", counted_decide)
    monkeypatch.setattr(quiver.Representation, "__post_init__", counted_build)
    return cost


def _solve(rep, cost: Cost) -> Cost:
    """The cost of one solve of ``rep``, counted apart from its planting."""
    before = Cost(**vars(cost))
    if rep.shape.kind == qs.CHAIN:
        qs.canon_chain(rep)
    else:
        qs.regularize(rep)
    return Cost(*(getattr(cost, f) - getattr(before, f) for f in vars(cost)))


def chain(t: int) -> qs.Representation:
    """Intervals of lengths 1, 2 and 4 from every vertex, cut off at vertex ``t``:
    dimension 7 at every vertex past the third, whatever ``t``."""
    rng = np.random.default_rng([5000, t])
    labels = Counter((v, min(v + length - 1, t)) for v in range(1, t + 1) for length in (1, 2, 4))
    orient = "".join(rng.choice([">", "<"], t - 1))
    return qs.plant(qs.PlantSpec(qs.chain_shape(t, orient), tuple(labels.items()), seed=t))[0]


def cycle_fixed_dims(t: int) -> qs.Representation:
    """Walks of lengths 1..4 from every vertex plus 2 regular eigenvalues: dimension 12
    at every vertex, whatever ``t``."""
    rng = np.random.default_rng([6000, t])
    labels = tuple(((v, v + length - 1), 1) for v in range(1, t + 1) for length in range(1, 5))
    orient = "".join(rng.choice([">", "<"], t))
    spec = qs.PlantSpec(qs.cycle_shape(t, orient), labels, regular_eigs=(2, -1j), seed=t)
    return qs.plant(spec)[0]


def cycle_wide(d: int) -> qs.Representation:
    """A t = 4 cycle ``><><`` of dimension near ``d`` at every vertex: walks of lengths
    1..8 at seeded starts (9 per vertex on average) and ``d - 9`` regular eigenvalues."""
    rng = np.random.default_rng([7000, d])
    labels = Counter()
    for length in range(1, 9):
        start = int(rng.integers(1, 5))
        labels[(start, start + length - 1)] += 1
    eigs = tuple(complex(1 + 0.5 * np.cos(j), 0.5 * np.sin(j)) * (1 + j / d) for j in range(d - 9))
    shape = qs.cycle_shape(4, "><><")
    return qs.plant(qs.PlantSpec(shape, tuple(labels.items()), regular_eigs=eigs, seed=d))[0]


def _input_work(rep) -> int:
    return sum(_work(m.shape) for m in rep.matrices)


@pytest.mark.parametrize(
    "family, ts",
    [(chain, (8, 32, 128)), (cycle_fixed_dims, (8, 32, 96))],
    ids=["chain", "cycle"],
)
def test_counts_per_vertex_do_not_grow_with_t(counted, family, ts):
    # the count each added vertex costs, between successive t; the ends of a chain
    # cost a fixed amount, which these differences cancel.  A cost that grows with t
    # per vertex (quadratic in all) would grow it about 4x from the first to the second.
    costs = [vars(_solve(family(t), counted)) for t in ts]
    for field in ("svds", "decides", "reps"):
        per_vertex = [
            (b[field] - a[field]) / (tb - ta)
            for (a, ta), (b, tb) in zip(zip(costs, ts), zip(costs[1:], ts[1:]))
        ]
        assert per_vertex[1] <= per_vertex[0] * (1 + HEADROOM), (field, per_vertex)


# SVD work over the input's at d = 16, 48, 96, as measured.  The shave's revisit update
# brought d = 48 and d = 96 down from 3.15 and 3.93; d = 16 lies below its crossover.  A
# start scan that passes arrows of full row rank on tau's singular values brought d = 96
# down from 3.10.
WORK_RATIO = {16: 2.45, 48: 2.64, 96: 2.85}
# what a change may add to a pin before it must raise the pin and say why
HEADROOM = 0.05


@pytest.mark.parametrize("d", sorted(WORK_RATIO))
def test_svd_work_over_d_is_pinned(counted, d):
    rep = cycle_wide(d)
    assert min(rep.dims) >= d - 2
    cost = _solve(rep, counted)
    ratio = cost.work / _input_work(rep)
    assert ratio <= WORK_RATIO[d] * (1 + HEADROOM), ratio


CHAIN_SPEC = qs.PlantSpec(
    qs.chain_shape(5, "><>>"), (((1, 3), 2), ((2, 5), 1), ((4, 4), 1), ((1, 5), 1)), seed=4
)
CYCLE_SPEC = qs.PlantSpec(
    qs.cycle_shape(4, ">><<"), (((1, 6), 1), ((3, 4), 2), ((2, 2), 1)),
    regular_eigs=(2, -1j), seed=7,
)


# one interval or walk from every vertex, so most strips are one column wide and come in runs
RUN_CHAIN = qs.PlantSpec(
    qs.chain_shape(10, "><>>><<>>"), tuple(((v, min(v + 5, 10)), 1) for v in range(1, 11)), seed=2
)
RUN_CYCLE = qs.PlantSpec(
    qs.cycle_shape(4, "><>>"), tuple(((v, v + 9), 1) for v in range(1, 5)),
    regular_eigs=(2, -1j), seed=3,
)
# rank decisions per solve, as counted.  A run of at least three one-column strips is
# one QR and one decision; deciding its columns one by one took 39 and 66.
DECISIONS = {"chain": (RUN_CHAIN, 19), "cycle": (RUN_CYCLE, 54)}


@pytest.mark.parametrize("spec, want", DECISIONS.values(), ids=DECISIONS.keys())
def test_decisions_per_solve_are_pinned(counted, spec, want):
    rep, _ = qs.plant(spec)
    assert _solve(rep, counted).decides == want


@pytest.fixture
def measurements(monkeypatch) -> list:
    """The class of every result whose ``misfits`` runs: one residual measurement each."""
    calls = []
    for cls in (qs.ChainTrace, qs.RegularizingDecomposition):

        def counted(self, *args, _misfits=cls.misfits, **kwargs):
            calls.append(type(self).__name__)
            return _misfits(self, *args, **kwargs)

        monkeypatch.setattr(cls, "misfits", counted)
    return calls


def _verify_chain(rep, truth):
    form, trace = qs.canon_chain(rep)
    assert qs.verify(rep, form, truth, trace=trace).passed


def _verify_cycle(rep, truth):
    assert qs.verify(rep, qs.regularize(rep), truth).passed


def _report_cycle(rep, truth):
    assert qs.report(rep, qs.regularize(rep))["residual"] < 1e-12


def _verify_report_chain(rep, truth):
    # verify fills the residual it measured, so report measures nothing
    form, trace = qs.canon_chain(rep)
    assert qs.verify(rep, form, truth, trace=trace).passed
    assert qs.report(rep, form, trace=trace)["residual"] < 1e-12


def _verify_report_cycle(rep, truth):
    dec = qs.regularize(rep)
    assert qs.verify(rep, dec, truth).passed
    assert qs.report(rep, dec)["residual"] < 1e-12


SOLVES = {
    "canon_chain+verify": (CHAIN_SPEC, _verify_chain, ["ChainTrace"]),
    "regularize+verify": (CYCLE_SPEC, _verify_cycle, ["RegularizingDecomposition"]),
    "regularize+report": (CYCLE_SPEC, _report_cycle, ["RegularizingDecomposition"]),
    "canon_chain+verify+report": (CHAIN_SPEC, _verify_report_chain, ["ChainTrace"]),
    "regularize+verify+report": (CYCLE_SPEC, _verify_report_cycle, ["RegularizingDecomposition"]),
    "canon_chain": (CHAIN_SPEC, lambda rep, truth: qs.canon_chain(rep), []),
    "shave": (CYCLE_SPEC, lambda rep, truth: qs.shave(rep), []),
    "regularize": (CYCLE_SPEC, lambda rep, truth: qs.regularize(rep), []),
}


@pytest.mark.parametrize("spec, solve, want", SOLVES.values(), ids=SOLVES.keys())
def test_one_residual_measurement_per_checked_solve(measurements, spec, solve, want):
    rep, truth = qs.plant(spec)
    solve(rep, truth)
    assert measurements == want


@pytest.mark.parametrize("spec", [CHAIN_SPEC, CYCLE_SPEC], ids=["chain", "cycle"])
def test_residual_is_measured_on_first_read_by_the_rule(measurements, spec):
    rep, _ = qs.plant(spec)
    if spec is CHAIN_SPEC:
        results = [(rep, qs.canon_chain(rep)[1])]
    else:
        dec = qs.regularize(rep)
        results = [(rep, dec)]
        results += [(ch.a, ch) for ch in dec.chains if ch is not None]
    for a, res in results:
        assert res.residual == res.residual == qs.reduction_residual(a, res)  # bit for bit
    assert len(measurements) == 2 * len(results)  # each read once, then cached
