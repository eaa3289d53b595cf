from collections import Counter

import numpy as np
import pytest

import quiverstair as qs
from conftest import noise_arrow_chain, random_chain_spec
from quiverstair.errors import NumericError, ValidationError
from quiverstair.quiver import assemble


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

    def test_numeric_error_names_the_step(self, monkeypatch):
        from quiverstair import chain

        reduce, calls = chain.staircase_reduce, []

        def failing_at_step_2(*args):
            calls.append(args)
            if len(calls) == 2:
                raise NumericError("SVD failed to converge")
            return reduce(*args)

        monkeypatch.setattr(chain, "staircase_reduce", failing_at_step_2)
        with pytest.raises(NumericError, match=r"^chain step 2: SVD failed to converge$"):
            qs.canon_chain(noise_arrow_chain())

    def test_rejects_cycles(self):
        with pytest.raises(ValidationError):
            qs.canon_chain(qs.assemble(qs.cycle_shape(2, "><"), ()))


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
        assert qs.reduction_residual(scrambled, trace) <= 1e-10 * scale


class TestResidualFromReturnedBases:
    """``trace.residual`` is measured from the input and the returned unitaries."""

    SPEC = qs.PlantSpec(
        qs.chain_shape(4, "><>"), (((1, 3), 2), ((2, 4), 1), ((2, 2), 1), ((1, 4), 1)), seed=5
    )

    def test_equals_the_pattern_residual(self):
        rep, _ = qs.plant(self.SPEC)
        _, trace = qs.canon_chain(rep)
        assert trace.residual == qs.reduction_residual(rep, trace)

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

    # v is 0-based; vertex 1 is left out: it is one strip whose copies all
    # cross arrow 1, so the staircase form leaves its basis free
    @pytest.mark.parametrize("v", [1, 2, 3])
    def test_one_swapped_vertex_unitary_shows(self, v):
        rep, _ = qs.plant(self.SPEC)
        _, trace = qs.canon_chain(rep)
        assert rep.dims[v] >= 2
        trace.vertex_transforms[v] = qs.random_unitary(rep.dims[v], [70, v])
        assert qs.reduction_residual(rep, trace) > 1e-8 * qs.representation_scale(rep)

    def test_trace_of_flipped_arrows_raises(self):
        # the transpose has the same dims, with every arrow flipped
        rep, _ = qs.plant(self.SPEC)
        _, trace = qs.canon_chain(rep)
        flipped = qs.transpose_rep(rep)
        assert flipped.dims == rep.dims and flipped.shape.orientations == "<><"
        with pytest.raises(ValidationError, match="does not fit"):
            qs.reduction_residual(flipped, trace)


    def test_trace_short_of_a_vertex_raises(self):
        # misfits takes the chain's dims from the trace's transforms
        rep, _ = qs.plant(self.SPEC)
        _, trace = qs.canon_chain(rep)
        trace.vertex_transforms.pop()
        with pytest.raises(ValidationError, match="does not fit"):
            trace.misfits(rep.shape, list(rep.matrices))

class TestAssembleCanonical:
    def test_full_intervals(self):
        shape = qs.chain_shape(3, "><")
        form = qs.ChainCanonicalForm(3, Counter({(1, 3): 2}))
        rep = qs.assemble(shape, form.sorted_labels())
        assert rep.dims == (2, 2, 2)
        assert all(np.array_equal(m, np.eye(2)) for m in rep.matrices)

    def test_empty_form(self):
        form = qs.ChainCanonicalForm(3, Counter())
        rep = qs.assemble(qs.chain_shape(3, ">>"), form.sorted_labels())
        assert rep.dims == (0, 0, 0)

    def test_worked_example_dims(self):
        # Oracle: sum the interval indicator vectors directly.
        _, expected = worked_example()
        indicator = [0, 0, 0, 0]
        for (i, j), m in expected.items():
            for v in range(i, j + 1):
                indicator[v - 1] += m
        form = qs.ChainCanonicalForm(4, expected)
        rep = qs.assemble(qs.chain_shape(4, ">><"), form.sorted_labels())
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
                    rep = qs.assemble(shape, form.sorted_labels())
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
            a = qs.assemble(shape, spec_a.labels)
            b = qs.assemble(shape, sorted(labels_b.items()))
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
        a, b, c = (assemble(shape, [(label, 1)]) for label in ((1, 2), (2, 3), (1, 3)))
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
            assert qs.reduction_residual(rep, trace) <= 1e-8 * max(scale, 1.0)

    def test_step_records_partition_dimensions(self):
        rep, _ = worked_example()
        _, trace = qs.canon_chain(rep)
        for r, step in enumerate(trace.steps, 1):
            assert sum(step.strip_sizes) == rep.dims[r - 1]
            assert sum(step.block_sizes) <= min(rep.dims[r - 1], rep.dims[r])


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


def chain_sweep_plant(seed=1, t=128):
    """A planted chain of the benchmark's ``chain-sweep`` recipe: 16 intervals of
    each length 1..8 per 128 vertices at drawn starts, balanced shuffled orientations."""
    rng = np.random.default_rng(seed)
    lengths = [ln for ln in range(1, 9) for _ in range(t // 8)]
    starts = [int(rng.integers(1, t - ln + 2)) for ln in lengths]
    labels = Counter((s, s + ln - 1) for s, ln in zip(starts, lengths))
    flags = np.array([">"] * (t // 2) + ["<"] * ((t - 1) // 2))
    rng.shuffle(flags)
    spec = qs.PlantSpec(qs.chain_shape(t, "".join(flags)), tuple(labels.items()), seed=seed)
    return qs.plant(spec)


class TestLiveStrips:
    """The sweep carries and records only strips that hold copies."""

    def test_steps_record_no_empty_strip(self):
        rep, truth = chain_sweep_plant()
        form, trace = qs.canon_chain(rep)
        assert form.counts == truth.label_counts()
        assert all(0 not in step.strip_sizes for step in trace.steps)
        # carrying every strip would record t(t-1)/2 = 8128 sizes
        assert sum(len(step.strip_sizes) for step in trace.steps) <= sum(rep.dims)

    def test_staircase_sees_no_zero_width_strip(self, monkeypatch):
        from quiverstair import chain

        reduce, seen = chain.staircase_reduce, []

        def recording(m, sizes, *args):
            seen.append(list(sizes))
            return reduce(m, sizes, *args)

        monkeypatch.setattr(chain, "staircase_reduce", recording)
        rep, _ = chain_sweep_plant()
        qs.canon_chain(rep)
        assert len(seen) == rep.shape.t - 1
        assert not any(0 in sizes for sizes in seen)

    def test_empty_first_vertex_opens_no_strip(self):
        rep = qs.plant(qs.PlantSpec(qs.chain_shape(3, "><"), (((2, 3), 2),), seed=1))[0]
        form, trace = qs.canon_chain(rep)
        assert rep.dims == (0, 2, 2)
        assert [step.strip_sizes for step in trace.steps] == [[], [2]]
        assert form.counts == Counter({(2, 3): 2})
