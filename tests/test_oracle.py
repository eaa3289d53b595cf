import dataclasses
import json
from collections import Counter

import numpy as np
import pytest

import quiverstair as qs
from conftest import is_regular, random_cycle_spec
from quiverstair import oracle
from quiverstair.errors import ValidationError
from quiverstair.oracle import random_invertible, random_unitary
from quiverstair.quiver import assemble


class TestRandomUnitary:
    def test_empty(self):
        assert qs.random_unitary(0, 1).shape == (0, 0)
        # the general path: a 0 x 0 complex matrix, and no draw from the stream
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        for m in (qs.random_unitary(0, rng), random_invertible(0, rng)):
            assert m.shape == (0, 0) and m.dtype == np.complex128
        assert rng.bit_generator.state == state

    def test_unitary_within_tolerance(self):
        for n in (1, 2, 5, 9):
            q = qs.random_unitary(n, n)
            assert qs.unitarity_defect(q) <= 1e-12 * n

    def test_deterministic_per_seed(self):
        a = qs.random_unitary(4, 123)
        b = qs.random_unitary(4, 123)
        assert np.array_equal(a, b)

    def test_seeds_give_distinct_matrices(self):
        mats = [qs.random_unitary(3, seed) for seed in range(100)]
        closest = np.inf
        for i in range(100):
            for j in range(i + 1, 100):
                closest = min(closest, np.linalg.norm(mats[i] - mats[j]))
        assert closest > 1e-3

    def test_negative_size_rejected(self):
        with pytest.raises(ValidationError):
            qs.random_unitary(-1, 0)


RANDOM_MATRICES = {"random_unitary": qs.random_unitary, "random_invertible": random_invertible}

BAD_SEEDS = {
    "negative": -1,
    "negative entry": [1, -1],
    "float": 2.5,
    "string": "x",
    "bool": True,
    "None": None,
    "empty list": [],
    "bool entry": [True],
    "float entry": [1.0],
    "nested": [[1, 2]],
    "array": np.array([1, 2]),
}

# each accepted seed, made fresh per call, and the plain seed it equals
GOOD_SEEDS = {
    "int": (lambda: 7, 7),
    "numpy int": (lambda: np.int64(7), 7),
    "list": (lambda: [7, 2], [7, 2]),
    "tuple": (lambda: (7, 2), [7, 2]),
    "numpy entries": (lambda: [np.uint8(7), np.int32(2)], [7, 2]),
    "generator": (lambda: np.random.default_rng(7), 7),
}


class TestSeeds:
    @pytest.mark.parametrize("make", RANDOM_MATRICES.values(), ids=RANDOM_MATRICES.keys())
    @pytest.mark.parametrize("seed", BAD_SEEDS.values(), ids=BAD_SEEDS.keys())
    def test_rejected(self, make, seed):
        with pytest.raises(ValidationError, match="seed"):
            make(3, seed)

    @pytest.mark.parametrize("make", RANDOM_MATRICES.values(), ids=RANDOM_MATRICES.keys())
    @pytest.mark.parametrize("seed, plain", GOOD_SEEDS.values(), ids=GOOD_SEEDS.keys())
    def test_accepted_and_deterministic(self, make, seed, plain):
        assert np.array_equal(make(3, seed()), make(3, seed()))
        assert np.array_equal(make(3, seed()), make(3, plain))


class TestRandomInvertible:
    def test_condition_bounded(self):
        for seed in range(20):
            m = random_invertible(5, seed, max_condition=1e3)
            s = np.linalg.svd(m, compute_uv=False)
            assert s[0] / s[-1] <= 1e3 * (1 + 1e-9)


class TestPlant:
    def test_deterministic(self):
        spec = random_cycle_spec(5)
        a, _ = qs.plant(spec)
        b, _ = qs.plant(spec)
        assert all(np.array_equal(x, y) for x, y in zip(a.matrices, b.matrices))

    @pytest.mark.parametrize("kind", [qs.CHAIN, qs.CYCLE])
    def test_plant_builds_fixed_number_of_representations(self, kind, monkeypatch):
        built = []
        post_init = qs.Representation.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(qs.Representation, "__post_init__", counting)
        t = 6
        shape = qs.QuiverShape(kind, t, "><>><<"[: t - 1 if kind == qs.CHAIN else t])
        eigs = () if kind == qs.CHAIN else (2.0, -1j)
        counts = []
        for n in (1, 5, 20):
            labels = tuple(((1 + k % 4, 1 + k % 4 + k % 3), 1 + k % 2) for k in range(n))
            built.clear()
            qs.plant(qs.PlantSpec(shape=shape, labels=labels, regular_eigs=eigs, seed=n))
            counts.append(len(built))
        assert counts[0] == counts[1] == counts[2], counts

    def test_unitary_scramble_is_the_adjoint_product_bit_for_bit(self):
        spec = qs.PlantSpec(
            qs.cycle_shape(3, "><<"), (((1, 4), 1), ((2, 3), 2)), regular_eigs=(2, 1j), seed=8
        )
        rep, _ = qs.plant(spec)
        base = assemble(spec.shape, spec.labels)
        base = qs.direct_sum(base, oracle._regular_summand(spec.shape, spec.regular_eigs))
        s = [random_unitary(d, [spec.seed, v]) for v, d in enumerate(base.dims, 1)]
        for i, m in enumerate(rep.matrices, 1):
            u, v = spec.shape.arrow_ends(i)
            assert m.tobytes() == (s[v - 1] @ base.matrices[i - 1] @ s[u - 1].conj().T).tobytes()

    @pytest.mark.parametrize("scramble", ["unitary", "invertible"])
    @pytest.mark.parametrize("max_condition", [1e8, 1e12])
    def test_max_condition_beyond_the_inverse_rejected(self, scramble, max_condition):
        # plant inverts the invertible scramble by SVD at DEFAULT_TOL, which finds a
        # matrix of condition number 1 / rel_factor singular
        with pytest.raises(ValidationError, match=r"field 'max_condition' must be below 1e\+08"):
            qs.PlantSpec(
                qs.cycle_shape(3, ">><"), (((1, 2), 4), ((2, 3), 3)), regular_eigs=(2, 3, 4, 5),
                seed=1, scramble=scramble, max_condition=max_condition,
            )

    def test_max_condition_below_the_bound_plants(self):
        spec = qs.PlantSpec(
            qs.cycle_shape(3, ">><"), (((1, 2), 4), ((2, 3), 3)), regular_eigs=(2, 3, 4, 5),
            seed=1, scramble="invertible", max_condition=1e7,
        )
        rep, _ = qs.plant(spec)  # every transform passes the SVD inverse's singularity test
        assert rep.dims == (8, 11, 7)

    def test_nilpotent_walk_plant(self):
        t = 3
        shape = qs.cycle_shape(t, ">>>")
        spec = qs.PlantSpec(shape=shape, labels=(((1, 2 * t), 1),), seed=9)
        rep, truth = qs.plant(spec)
        assert rep.dims == (2,) * t
        assert truth.label_counts() == Counter({(1, 2 * t): 1})
        assert not is_regular(rep)

    def test_pure_regular_plant(self):
        shape = qs.cycle_shape(3, ">><")
        spec = qs.PlantSpec(shape=shape, labels=(), regular_eigs=(2.0, 3.0), seed=4)
        rep, _ = qs.plant(spec)
        assert rep.dims == (2, 2, 2)
        assert is_regular(rep)
        _, eigs = qs.monodromy(rep)
        assert np.allclose(np.sort_complex(eigs), [2.0, 3.0], atol=1e-9)

    def test_chain_plant_dims(self):
        shape = qs.chain_shape(2, ">")
        spec = qs.PlantSpec(shape=shape, labels=(((1, 2), 1), ((2, 2), 1)), seed=0)
        rep, _ = qs.plant(spec)
        assert rep.dims == (1, 2)

    def test_zero_eigenvalue_rejected(self):
        shape = qs.cycle_shape(2, "><")
        with pytest.raises(ValidationError):
            qs.PlantSpec(shape=shape, labels=(), regular_eigs=(1e-10,), seed=0)

    def test_repeated_label_adds_up(self):
        spec = qs.PlantSpec(shape=qs.cycle_shape(3, ">><"), labels=(((1, 2), 1), ((1, 2), 2)))
        assert spec.labels == (((1, 2), 3),)
        rep, truth = qs.plant(spec)
        assert rep.dims == (3, 3, 0)
        assert qs.verify(rep, qs.regularize(rep), truth).passed

    def test_negative_count_rejected_before_summing(self):
        negative = r"label \(1, 2\) needs an integer multiplicity >= 0, got -1"
        with pytest.raises(ValidationError, match=negative):
            qs.PlantSpec(shape=qs.chain_shape(2, ">"), labels=(((1, 2), 2), ((1, 2), -1)))

    @pytest.mark.parametrize(
        "labels, seed",
        [
            ((((1, 2), 1),), -1),
            ((((1, 2), 1),), 2.5),
            ((((1, 1.5), 1),), 0),
            ((((1, 2), 1.5),), 0),
        ],
        ids=["negative-seed", "float-seed", "float-bound", "float-multiplicity"],
    )
    def test_non_integer_or_negative_fields_rejected(self, labels, seed):
        with pytest.raises(ValidationError, match="integer"):
            qs.PlantSpec(shape=qs.chain_shape(2, ">"), labels=labels, seed=seed)

    @pytest.mark.parametrize(
        "fields, name",
        [
            ({"max_condition": "50"}, "max_condition"),
            ({"max_condition": True}, "max_condition"),
            ({"max_condition": None}, "max_condition"),
            ({"regular_eigs": ("x",)}, "regular eigenvalue"),
            ({"regular_eigs": (None,)}, "regular eigenvalue"),
            ({"regular_eigs": (True,)}, "regular eigenvalue"),
        ],
        ids=["condition-string", "condition-bool", "condition-none", "eig-string", "eig-none", "eig-bool"],
    )
    def test_non_number_fields_rejected(self, fields, name):
        with pytest.raises(ValidationError, match=name):
            qs.PlantSpec(shape=qs.cycle_shape(2, "><"), labels=(), **fields)

    def test_eigenvalue_beyond_float_range_rejected(self):
        with pytest.raises(ValidationError, match="regular eigenvalue .* is not a finite number"):
            qs.PlantSpec(shape=qs.cycle_shape(2, "><"), labels=(), regular_eigs=(10**400,))

    def test_numpy_numbers_accepted(self):
        spec = qs.PlantSpec(
            shape=qs.cycle_shape(2, "><"), labels=(), regular_eigs=(np.int64(2), np.complex128(1j)),
            max_condition=np.int64(50),
        )
        assert spec.regular_eigs == (2, 1j)
        assert type(spec.max_condition) is float and spec.max_condition == 50.0

    def test_numpy_integers_accepted(self):
        spec = qs.PlantSpec(
            shape=qs.chain_shape(2, ">"), labels=(((np.int64(1), 2), np.int32(2)),), seed=np.int64(3)
        )
        assert spec.labels == (((1, 2), 2),)

    def test_label_range_validation(self):
        with pytest.raises(ValidationError):
            qs.PlantSpec(shape=qs.chain_shape(3, ">>"), labels=(((2, 4), 1),), seed=0)
        with pytest.raises(ValidationError):
            qs.PlantSpec(shape=qs.cycle_shape(3, ">>>"), labels=(((4, 5), 1),), seed=0)


def _trace_of_other_dims(trace):
    # same shape as TestVerify.CHAIN5, other vertex dimensions
    spec = qs.PlantSpec(qs.chain_shape(5, "><>>"), (((1, 5), 2), ((3, 4), 1)), seed=4)
    return qs.canon_chain(qs.plant(spec)[0])[1]


def _drop_last_step(trace):
    trace.steps.pop()
    return trace


def _oversize_first_block(trace):
    trace.steps[0].block_sizes = [k + 1 for k in trace.steps[0].strip_sizes]
    return trace


def _trace_of_flipped_arrows(trace):
    # the dims of TestVerify.CHAIN5, every arrow flipped
    spec = qs.PlantSpec(
        qs.chain_shape(5, "<><<"), (((1, 3), 2), ((2, 5), 1), ((4, 4), 1), ((1, 5), 1)), seed=4
    )
    return qs.canon_chain(qs.plant(spec)[0])[1]


TRACE_TAMPERS = {
    "other dims": _trace_of_other_dims,
    "flipped arrows": _trace_of_flipped_arrows,
    "a step short": _drop_last_step,
    "oversized block": _oversize_first_block,
}


class TestVerify:
    def test_self_consistent_cycle_plant_passes(self):
        spec = random_cycle_spec(8)
        rep, truth = qs.plant(spec)
        dec = qs.regularize(rep)
        report = qs.verify(rep, dec, truth)
        assert report.passed
        assert report.labels_match
        names = {c.name for c in report.checks}
        assert {"labels_match", "regular_dimension", "dimension_conservation",
                "eigenvalues", "residual", "unitarity"} <= names

    def test_tampered_truth_flagged(self):
        spec = random_cycle_spec(8)
        rep, truth = qs.plant(spec)
        dec = qs.regularize(rep)
        bad_labels = Counter(truth.label_counts())
        bad_labels[(1, 1)] += 1
        tampered = qs.PlantSpec(
            shape=truth.shape,
            labels=tuple(bad_labels.items()),
            regular_eigs=truth.regular_eigs,
            seed=truth.seed,
        )
        report = qs.verify(rep, dec, tampered)
        assert not report.passed
        assert not report.labels_match

    def test_eigenvalue_distance_counts_multiplicity(self):
        shape = qs.cycle_shape(2, "><")
        rep, _ = qs.plant(qs.PlantSpec(shape=shape, labels=(), regular_eigs=(1.5, 1.5, 5.0)))
        other = qs.PlantSpec(shape=shape, labels=(), regular_eigs=(1.5, 5.0, 5.0))
        report = qs.verify(rep, qs.regularize(rep), other)
        (check,) = [c for c in report.checks if c.name == "eigenvalues"]
        assert not check.passed
        assert report.eigenvalue_distance == check.measured == pytest.approx(3.5)

    def test_one_more_truth_eigenvalue_is_infinitely_far(self):
        shape = qs.cycle_shape(2, "><")
        rep, _ = qs.plant(qs.PlantSpec(shape=shape, labels=(), regular_eigs=(1.5, 5.0)))
        other = qs.PlantSpec(shape=shape, labels=(), regular_eigs=(1.5, 5.0, 2.0))
        report = qs.verify(rep, qs.regularize(rep), other)
        (check,) = [c for c in report.checks if c.name == "eigenvalues"]
        assert not check.passed
        assert report.eigenvalue_distance == check.measured == np.inf

    def test_chain_verification_with_trace(self):
        shape = qs.chain_shape(3, "><")
        spec = qs.PlantSpec(shape=shape, labels=(((1, 3), 2), ((2, 2), 1)), seed=3)
        rep, truth = qs.plant(spec)
        form, trace = qs.canon_chain(rep)
        report = qs.verify(rep, form, truth, trace=trace)
        assert report.passed

    def test_chain_verification_needs_trace(self):
        shape = qs.chain_shape(3, "><")
        rep, truth = qs.plant(qs.PlantSpec(shape=shape, labels=(((1, 3), 1),), seed=3))
        form, _ = qs.canon_chain(rep)
        with pytest.raises(ValidationError, match="ChainTrace"):
            qs.verify(rep, form, truth)

    CHAIN5 = qs.PlantSpec(
        qs.chain_shape(5, "><>>"), (((1, 3), 2), ((2, 5), 1), ((4, 4), 1), ((1, 5), 1)), seed=4
    )

    def test_swapped_chain_transforms_fail_the_residual_check(self):
        rep, truth = qs.plant(self.CHAIN5)
        form, trace = qs.canon_chain(rep)
        assert qs.verify(rep, form, truth, trace=trace).passed
        trace.vertex_transforms = [qs.random_unitary(d, 100 + v) for v, d in enumerate(rep.dims)]
        report = qs.verify(rep, form, truth, trace=trace)
        (check,) = [c for c in report.checks if c.name == "residual"]
        assert not check.passed
        assert report.residual == check.measured == qs.reduction_residual(rep, trace)

    @pytest.mark.parametrize("v", range(5))
    def test_nan_transform_fails_both_checks(self, v):
        rep, truth = qs.plant(self.CHAIN5)
        form, trace = qs.canon_chain(rep)
        trace.vertex_transforms[v] = np.full_like(trace.vertex_transforms[v], np.nan)
        report = qs.verify(rep, form, truth, trace=trace)
        failed = {c.name for c in report.checks if not c.passed}
        assert failed == {"residual", "unitarity"}

    @pytest.mark.parametrize("tamper", TRACE_TAMPERS.values(), ids=TRACE_TAMPERS.keys())
    def test_trace_that_does_not_fit_raises(self, tamper):
        rep, truth = qs.plant(self.CHAIN5)
        form, trace = qs.canon_chain(rep)
        with pytest.raises(ValidationError, match="does not fit|must fit"):
            qs.verify(rep, form, truth, trace=tamper(trace))

    def test_noisy_batch_passes_default_tolerances(self):
        from conftest import add_noise

        for seed in range(50):
            rep, truth = qs.plant(random_cycle_spec(seed))
            noisy = add_noise(rep, 1e-10, seed)
            dec = qs.regularize(noisy)
            report = qs.verify(noisy, dec, truth)
            assert report.passed, (seed, [c for c in report.checks if not c.passed])

    def test_shape_mismatch_rejected(self):
        spec = random_cycle_spec(8)
        rep, truth = qs.plant(spec)
        other = qs.PlantSpec(shape=qs.cycle_shape(2, "><"), labels=(), seed=0)
        dec = qs.regularize(rep)
        with pytest.raises(ValidationError):
            qs.verify(rep, dec, other)

    def test_result_from_another_quiver_rejected(self):
        def planted(shape, labels):
            return qs.plant(qs.PlantSpec(shape=shape, labels=labels, seed=2))

        rep3, _ = planted(qs.cycle_shape(3, "><>"), (((1, 2), 1),))
        rep4, truth4 = planted(qs.cycle_shape(4, ">><<"), (((1, 2), 1),))
        dec3 = qs.regularize(rep3)
        with pytest.raises(ValidationError, match="t=3 cycle '><>' does not fit a t=4 cycle '>><<'"):
            qs.verify(rep4, dec3, truth4)
        with pytest.raises(ValidationError, match="t=3 cycle '><>' does not fit a t=4 cycle '>><<'"):
            qs.report(rep4, dec3)

        chain3, _ = planted(qs.chain_shape(3, "><"), (((1, 3), 1),))
        chain4, ctruth4 = planted(qs.chain_shape(4, "><>"), (((1, 3), 1),))
        form, trace = qs.canon_chain(chain3)
        with pytest.raises(ValidationError, match="t=3 chain does not fit a t=4 chain '><>'"):
            qs.verify(chain4, form, ctruth4, trace=trace)
        with pytest.raises(ValidationError, match="t=3 chain does not fit a t=4 chain '><>'"):
            qs.report(chain4, form, trace=trace)


def _bad_report_arguments():
    """``(a, result, trace)`` triples that neither ``verify`` nor ``report`` accepts."""
    chain, _ = qs.plant(qs.PlantSpec(qs.chain_shape(3, "><"), (((1, 3), 1),), seed=2))
    chain4, _ = qs.plant(qs.PlantSpec(qs.chain_shape(4, "><>"), (((1, 3), 1),), seed=2))
    cycle, _ = qs.plant(qs.PlantSpec(qs.cycle_shape(3, "><>"), (((1, 2), 1),), seed=2))
    cycle4, _ = qs.plant(qs.PlantSpec(qs.cycle_shape(4, ">><<"), (((1, 2), 1),), seed=2))
    form, trace = qs.canon_chain(chain)
    return {
        "wrong-type": (chain, trace, None),
        "chain-without-trace": (chain, form, None),
        "chain-of-another-t": (chain4, form, trace),
        "cycle-of-another-shape": (cycle4, qs.regularize(cycle), None),
        "cycle-result-for-a-chain": (chain, qs.regularize(cycle), None),
    }


class TestReport:
    CHAIN = qs.PlantSpec(qs.chain_shape(4, "><>"), (((1, 4), 1), ((2, 3), 2)), seed=5)
    CYCLE = qs.PlantSpec(
        qs.cycle_shape(4, "><<>"), (((1, 1), 2), ((2, 5), 1)), regular_eigs=(2, 1j), seed=11
    )

    @pytest.mark.parametrize("case", list(_bad_report_arguments()))
    def test_rejects_what_verify_rejects_with_the_same_error(self, case):
        a, result, trace = _bad_report_arguments()[case]
        truth = qs.PlantSpec(a.shape, ())
        with pytest.raises(ValidationError) as by_verify:
            qs.verify(a, result, truth, trace=trace)
        with pytest.raises(ValidationError) as by_report:
            qs.report(a, result, trace=trace)
        assert str(by_report.value) == str(by_verify.value)

    def test_chain_fields_in_order(self):
        rep, _ = qs.plant(self.CHAIN)
        form, trace = qs.canon_chain(rep)
        out = qs.report(rep, form, trace=trace)
        assert list(out) == ["report_version", "t", "orientations", "labels",
                             "dimension_check", "residual", "threshold"]
        assert out["report_version"] == qs.REPORT_VERSION == 5
        assert (out["t"], out["orientations"]) == (4, "><>")
        assert out["labels"] == [
            {"kind": "L", "low": 1, "high": 4, "count": 1},
            {"kind": "L", "low": 2, "high": 3, "count": 2},
        ]
        assert out["dimension_check"] is True
        assert (out["residual"], out["threshold"]) == (trace.residual, trace.threshold)

    def test_cycle_fields_in_order(self):
        rep, _ = qs.plant(self.CYCLE)
        dec = qs.regularize(rep)
        out = qs.report(rep, dec)
        assert list(out) == ["report_version", "t", "orientations", "labels", "regular_dimension",
                             "monodromy_eigenvalues", "dimension_check", "residual", "threshold"]
        assert [(row["low"], row["high"], row["count"]) for row in out["labels"]] == [
            (1, 1, 2), (2, 5, 1)
        ]
        for row in out["labels"]:
            assert row["kind"] == "G"
            assert row["dims"] == list(qs.g_label_dims(rep.shape, row["low"], row["high"]))
            assert sum(row["pass_counts"]) == row["count"]
        assert out["regular_dimension"] == 2
        got = np.sort_complex([complex(re, im) for re, im in out["monodromy_eigenvalues"]])
        assert np.allclose(got, [1j, 2])
        assert (out["residual"], out["threshold"]) == (dec.residual, dec.threshold)

    def test_non_finite_floats_are_none(self):
        rep, _ = qs.plant(self.CYCLE)
        dec = qs.regularize(rep)
        dec.residual, dec.threshold = float("inf"), float("nan")
        out = qs.report(rep, dec)
        assert (out["residual"], out["threshold"]) == (None, None)
        json.dumps(out, allow_nan=False)

    def test_verification_dict_writes_non_finite_as_none(self):
        rep, truth = qs.plant(self.CYCLE)
        fewer = dataclasses.replace(truth, regular_eigs=truth.regular_eigs[:1])
        out = qs.verify(rep, qs.regularize(rep), fewer).to_dict()
        assert out["eigenvalue_distance"] is None
        check = next(c for c in out["checks"] if c["name"] == "eigenvalues")
        assert (check["passed"], check["measured"]) == (False, None)
        json.dumps(out, allow_nan=False)
