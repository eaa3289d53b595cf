from collections import Counter

import numpy as np
import pytest

import quiverstair as qs
from conftest import noise_arrow_chain, random_chain_spec
from quiverstair.errors import ValidationError


def worked_example():
    """The four-vertex instance whose canonical form is known in closed form."""
    d1 = np.array(
        [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0]],
        dtype=complex,
    )
    d2 = np.array(
        [[0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 0, 1], [0, 0, 0, 0, 0]],
        dtype=complex,
    )
    d3 = np.array(
        [[0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 0], [0, 0, 0, 0, 1]],
        dtype=complex,
    )
    shape = qs.chain_shape(4, ">><")
    rep = qs.Representation(shape, (4, 5, 4, 5), (d1, d2, d3))
    expected = Counter(
        {(1, 1): 1, (1, 2): 1, (1, 4): 2, (2, 2): 1, (2, 3): 1, (3, 4): 1, (4, 4): 2}
    )
    return rep, expected


class TestCanonChainBasics:
    def test_all_zero_matrices_split_every_vertex(self):
        shape = qs.chain_shape(3, "><")
        dims = (2, 1, 3)
        mats = []
        for i in range(1, 3):
            u, v = shape.arrow_ends(i)
            mats.append(np.zeros((dims[v - 1], dims[u - 1])))
        form, _ = qs.canon_chain(qs.Representation(shape, dims, tuple(mats)))
        assert form.counts == Counter({(1, 1): 2, (2, 2): 1, (3, 3): 3})

    @pytest.mark.parametrize("orient", [">>>", "<<<", "><>", "<><"])
    def test_all_identities_never_split(self, orient):
        shape = qs.chain_shape(4, orient)
        n = 3
        rep = qs.Representation(shape, (n,) * 4, tuple(np.eye(n) for _ in range(3)))
        form, _ = qs.canon_chain(rep)
        assert form.counts == Counter({(1, 4): n})

    def test_single_vertex_chain(self):
        shape = qs.chain_shape(1, "")
        rep = qs.Representation(shape, (4,), ())
        form, _ = qs.canon_chain(rep)
        assert form.counts == Counter({(1, 1): 4})

    def test_noise_arrow_is_judged_at_the_input_scale(self):
        rep = noise_arrow_chain()
        form, trace = qs.canon_chain(rep)
        assert form.counts == Counter({(1, 2): 4, (3, 3): 4})
        assert trace.threshold == qs.DEFAULT_TOL.threshold(*rep.matrices)

    def test_rejects_cycles(self):
        with pytest.raises(ValidationError):
            qs.canon_chain(qs.zero_representation(qs.cycle_shape(2, "><")))


class TestWorkedExample:
    def test_plain(self):
        rep, expected = worked_example()
        form, trace = qs.canon_chain(rep)
        assert form.counts == expected
        assert form.dims() == rep.dims
        assert trace.residual <= 1e-12

    def test_scrambled(self):
        rep, expected = worked_example()
        s = [qs.random_unitary(d, [40, v]) for v, d in enumerate(rep.dims, 1)]
        scrambled = qs.apply_isomorphism(rep, s)
        form, trace = qs.canon_chain(scrambled)
        assert form.counts == expected
        scale = qs.representation_scale(scrambled)
        assert trace.residual <= 1e-10 * scale
        assert qs.chain_pattern_residual(scrambled, trace) <= 1e-10 * scale


class TestResidualFromReturnedBases:
    """``trace.residual`` is measured from the input and the returned unitaries."""

    SPEC = qs.PlantSpec(
        qs.chain_shape(4, "><>"), (((1, 3), 2), ((2, 4), 1), ((2, 2), 1), ((1, 4), 1)), seed=5
    )

    def test_equals_the_pattern_residual(self):
        rep, _ = qs.plant(self.SPEC)
        _, trace = qs.canon_chain(rep)
        assert trace.residual == qs.chain_pattern_residual(rep, trace)

    def test_bookkeeping_drift_shows(self, monkeypatch):
        # a staircase step that hands back its left unitary with the rows
        # reversed: still unitary, but no longer the basis the step reduced in
        from quiverstair import chain

        reduce = chain.staircase_reduce

        def drifting(*args):
            left, right, ls = reduce(*args)
            return left[::-1], right, ls

        monkeypatch.setattr(chain, "staircase_reduce", drifting)
        rep, truth = qs.plant(self.SPEC)
        form, trace = qs.canon_chain(rep)
        assert trace.residual > 1e-8 * qs.representation_scale(rep)
        report = qs.verify(rep, form, truth, trace=trace)
        assert not next(c for c in report.checks if c.name == "residual").passed


class TestAssembleCanonical:
    def test_full_intervals(self):
        shape = qs.chain_shape(3, "><")
        form = qs.ChainCanonicalForm(3, Counter({(1, 3): 2}))
        rep = qs.assemble_canonical(form, shape)
        assert rep.dims == (2, 2, 2)
        assert all(np.array_equal(m, np.eye(2)) for m in rep.matrices)

    def test_empty_form(self):
        rep = qs.assemble_canonical(qs.ChainCanonicalForm(3, Counter()), qs.chain_shape(3, ">>"))
        assert rep.dims == (0, 0, 0)

    def test_worked_example_dims(self):
        # Oracle: sum the interval indicator vectors directly.
        _, expected = worked_example()
        indicator = [0, 0, 0, 0]
        for (i, j), m in expected.items():
            for v in range(i, j + 1):
                indicator[v - 1] += m
        form = qs.ChainCanonicalForm(4, expected)
        rep = qs.assemble_canonical(form, qs.chain_shape(4, ">><"))
        assert rep.dims == tuple(indicator) == (4, 5, 4, 5)


class TestChainProperties:
    def test_isomorphism_invariance(self):
        rep, expected = worked_example()
        for trial in range(20):
            s = [qs.random_unitary(d, [trial, v]) for v, d in enumerate(rep.dims, 1)]
            form, _ = qs.canon_chain(qs.apply_isomorphism(rep, s))
            assert form.counts == expected

    def test_completeness_random_multisets(self):
        # canon(assemble(F)) = F for random dimension-consistent multisets,
        # exhaustive over orientations at small t.
        rng = np.random.default_rng(30)
        for t in (2, 3, 4):
            for bits in range(2 ** (t - 1)):
                orient = "".join("><"[(bits >> a) & 1] for a in range(t - 1))
                shape = qs.chain_shape(t, orient)
                for _ in range(3):
                    counts = Counter()
                    for _ in range(int(rng.integers(1, 6))):
                        i = int(rng.integers(1, t + 1))
                        j = int(rng.integers(i, t + 1))
                        counts[(i, j)] += int(rng.integers(1, 3))
                    form = qs.ChainCanonicalForm(t, counts)
                    rep = qs.assemble_canonical(form, shape)
                    s = [qs.random_unitary(d, [91, v]) for v, d in enumerate(rep.dims, 1)]
                    got, _ = qs.canon_chain(qs.apply_isomorphism(rep, s))
                    assert got.counts == counts, (orient, dict(counts))

    def test_direct_sum_additivity(self):
        rng = np.random.default_rng(31)
        for seed in range(10):
            spec_a = random_chain_spec(seed, t_range=(3, 5))
            spec_b = random_chain_spec(seed + 100, t_range=(3, 5))
            shape = spec_a.shape
            # rebuild b on a's shape so the sum is defined
            labels_b = {
                (min(i, shape.t), min(j, shape.t)): m
                for (i, j), m in spec_b.labels
                if m
            }
            a = qs.assemble_canonical(qs.ChainCanonicalForm(shape.t, spec_a.label_counts()), shape)
            b = qs.assemble_canonical(qs.ChainCanonicalForm(shape.t, Counter(labels_b)), shape)
            both = qs.direct_sum(a, b)
            s = [qs.random_unitary(d, [seed, v]) for v, d in enumerate(both.dims, 1)]
            form, _ = qs.canon_chain(qs.apply_isomorphism(both, s))
            want = spec_a.label_counts()
            for k, v in Counter(labels_b).items():
                want[k] += v
            assert form.counts == Counter({k: v for k, v in want.items() if v})

    def test_transpose_invariance(self):
        # transposing flips every arrow, so every step runs the other staircase
        rep, expected = worked_example()
        form, _ = qs.canon_chain(qs.transpose_rep(rep))
        assert form.counts == expected
        for seed in range(20):
            rep, truth = qs.plant(random_chain_spec(seed))
            form, _ = qs.canon_chain(qs.transpose_rep(rep))
            assert form.counts == truth.label_counts(), seed

    def test_direct_sum_associative_up_to_isomorphism(self):
        shape = qs.chain_shape(3, "><")
        a = qs.make_L(1, 2, shape)
        b = qs.make_L(2, 3, shape)
        c = qs.make_L(1, 3, shape)
        left, _ = qs.canon_chain(qs.direct_sum(qs.direct_sum(a, b), c))
        right, _ = qs.canon_chain(qs.direct_sum(a, qs.direct_sum(b, c)))
        assert left.counts == right.counts == Counter({(1, 2): 1, (2, 3): 1, (1, 3): 1})

    def test_planted_recovery_and_trace_invariants(self):
        for seed in range(25):
            spec = random_chain_spec(seed)
            rep, truth = qs.plant(spec)
            form, trace = qs.canon_chain(rep)
            assert form.counts == truth.label_counts(), seed
            assert form.dims() == rep.dims
            dmax = max(rep.dims)
            for s in trace.vertex_transforms:
                assert qs.unitarity_defect(s) <= 1e-12 * max(1, dmax)
            scale = qs.representation_scale(rep)
            assert trace.residual <= 1e-8 * scale
            assert qs.chain_pattern_residual(rep, trace) <= 1e-8 * max(scale, 1.0)

    def test_step_records_partition_dimensions(self):
        rep, _ = worked_example()
        _, trace = qs.canon_chain(rep)
        for step in trace.steps:
            assert sum(step.strip_sizes) == rep.dims[step.r - 1]
            assert sum(step.block_sizes) <= min(rep.dims[step.r - 1], rep.dims[step.r])


class TestNonUnitaryScrambleStress:
    def test_bounded_condition_scrambles(self):
        for seed in range(10):
            spec = random_chain_spec(seed)
            spec = qs.PlantSpec(
                shape=spec.shape, labels=spec.labels, seed=seed, scramble="invertible"
            )
            rep, truth = qs.plant(spec)
            form, _ = qs.canon_chain(rep)
            assert form.counts == truth.label_counts(), seed
