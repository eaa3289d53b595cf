import numpy as np
import pytest

import quiverstair as qs
from conftest import bareiss_rank, random_complex
from quiverstair import cycle, linalg, oracle, quiver
from quiverstair.errors import NumericError, ValidationError

TOL = linalg.DEFAULT_TOL


class TestBlockConstructors:
    def test_f1_and_g1_are_0x1(self):
        assert linalg.f_block(1).shape == (0, 1)
        assert linalg.g_block(1).shape == (0, 1)

    def test_f3(self):
        expect = np.array([[1, 0, 0], [0, 1, 0]], dtype=complex)
        assert np.array_equal(linalg.f_block(3), expect)

    def test_g3(self):
        expect = np.array([[0, 1, 0], [0, 0, 1]], dtype=complex)
        assert np.array_equal(linalg.g_block(3), expect)

    def test_jordan(self):
        assert np.array_equal(linalg.jordan_block(2, 0), np.array([[0, 1], [0, 0]]))
        j = linalg.jordan_block(3, 2 - 1j)
        assert j[0, 0] == 2 - 1j and j[1, 2] == 1

    def test_jordan_keeps_signed_zero(self):
        j = linalg.jordan_block(2, complex(-0.0, -0.0))
        d = j.diagonal()
        assert np.signbit(d.real).all() and np.signbit(d.imag).all()
        assert linalg.jordan_block(0, 1.0).shape == (0, 0)

    def test_invalid_sizes(self):
        with pytest.raises(ValidationError):
            linalg.f_block(0)
        with pytest.raises(ValidationError):
            linalg.g_block(-1)
        with pytest.raises(ValidationError):
            linalg.jordan_block(-2, 0.0)


class TestTolerancePolicy:
    def test_threshold_floor(self):
        tol = linalg.TolerancePolicy(abs_floor=1e-12, rel_factor=1e-8)
        assert tol.threshold(np.zeros((3, 3))) == 1e-12
        assert tol.threshold(np.zeros((0, 4))) == 1e-12

    def test_threshold_relative(self):
        tol = linalg.TolerancePolicy()
        a = 100.0 * np.eye(2)
        assert tol.threshold(a) == pytest.approx(1e-6)

    def test_negative_params_rejected(self):
        with pytest.raises(ValidationError):
            linalg.TolerancePolicy(abs_floor=-1.0)


    @pytest.mark.parametrize(
        "params", [{"abs_floor": float("inf")}, {"rel_factor": float("nan")}]
    )
    def test_non_finite_params_rejected(self, params):
        with pytest.raises(ValidationError, match="finite"):
            linalg.TolerancePolicy(**params)

    @pytest.mark.parametrize("field", ["abs_floor", "rel_factor"])
    @pytest.mark.parametrize(
        "value", ["1", None, 1e-8 + 0j, True], ids=["string", "none", "complex", "bool"]
    )
    def test_non_real_params_rejected(self, field, value):
        with pytest.raises(ValidationError, match="real numbers"):
            linalg.TolerancePolicy(**{field: value})

    @pytest.mark.parametrize("field", ["abs_floor", "rel_factor"])
    def test_integer_beyond_float_range_rejected(self, field):
        with pytest.raises(ValidationError, match=f"finite real numbers, got {field}="):
            linalg.TolerancePolicy(**{field: 10**400})

    def test_numpy_reals_accepted(self):
        tol = linalg.TolerancePolicy(abs_floor=np.float32(0.5), rel_factor=np.int64(0))
        assert tol.threshold(np.eye(2)) == 0.5

    def test_threshold_spans_every_matrix(self):
        tol = linalg.TolerancePolicy()
        assert tol.threshold(np.eye(2), 300.0 * np.eye(3), np.zeros((0, 2))) == pytest.approx(3e-6)
        assert tol.threshold() == 1e-12

    def test_zero_rel_factor_takes_no_svd(self, monkeypatch):
        def forbidden(a):
            raise AssertionError("no SVD expected")

        monkeypatch.setattr(linalg, "singular_values", forbidden)
        assert linalg.TolerancePolicy(abs_floor=0.5, rel_factor=0.0).threshold(np.eye(3)) == 0.5

class TestSvd:
    def test_identity(self):
        _, s, _ = linalg.svd(np.eye(3))
        assert np.allclose(s, [1, 1, 1])

    def test_zero_2x3(self):
        _, s, _ = linalg.svd(np.zeros((2, 3)))
        assert s.shape == (2,)
        assert np.allclose(s, 0)

    def test_singular_values_against_gram_eigenvalues(self):
        # Oracle: sigma_i are the square roots of the eigenvalues of A^H A.
        a = np.array([[3, 0], [4, 0]], dtype=complex)
        gram = np.sort(np.linalg.eigvalsh(a.conj().T @ a))[::-1]
        expect = np.sqrt(np.clip(gram, 0, None))
        assert np.allclose(expect, [5.0, 0.0])
        _, s, _ = linalg.svd(a)
        assert np.allclose(s, expect)

    @pytest.mark.parametrize("shape", [(4, 4), (3, 5), (6, 2), (0, 3), (3, 0), (0, 0)])
    def test_reconstruction_and_unitarity(self, shape):
        rng = np.random.default_rng(7)
        a = random_complex(rng, *shape)
        u, s, vh = linalg.svd(a)
        sig = np.zeros(shape)
        for i, x in enumerate(s):
            sig[i, i] = x
        assert np.linalg.norm(a - u @ sig @ vh) <= 1e-12 * max(1.0, np.linalg.norm(a))
        assert linalg.unitarity_defect(u) <= 1e-12 * max(1, shape[0])
        assert linalg.unitarity_defect(vh) <= 1e-12 * max(1, shape[1])
        assert np.all(np.diff(s) <= 0)

    @pytest.mark.parametrize("fn", [linalg.svd, linalg.singular_values])
    def test_convergence_failure_is_numeric_error(self, fn, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", no_convergence)
        with pytest.raises(NumericError, match="2x3 matrix"):
            fn(np.ones((2, 3)))


INF_ROW = [[np.inf, 1.0]]


class TestNonFiniteSvd:
    """LAPACK answers an inf entry with nan singular values; each entry point raises."""

    @pytest.mark.parametrize(
        "call, shape",
        [
            (lambda: linalg.svd(INF_ROW), "1x2"),
            (lambda: linalg.singular_values(INF_ROW), "1x2"),
            (lambda: linalg.numerical_rank(INF_ROW, 0.1), "1x2"),
            (lambda: linalg.row_compress(INF_ROW, 0.1), "1x2"),
            (lambda: linalg.col_compress(INF_ROW, 0.1), "1x2"),
            (lambda: linalg.two_sided_reduce(INF_ROW, 0.1), "1x2"),
            # the strip product meets 0 * inf before the SVD sees the strip
            (lambda: linalg.staircase_reduce(INF_ROW, [2], linalg.VERTICAL, 0.1), "1x2"),
            (lambda: linalg.sigma_max([[np.inf]]), "1x1"),
            (lambda: TOL.threshold(INF_ROW), "1x2"),
            (lambda: linalg.svd_inverse([[np.inf, 0.0], [0.0, 1.0]]), "2x2"),
        ],
        ids=[
            "svd", "singular_values", "numerical_rank", "row_compress", "col_compress",
            "two_sided_reduce", "staircase_reduce", "sigma_max", "threshold", "svd_inverse",
        ],
    )
    def test_raises_numeric_error(self, call, shape):
        with pytest.raises(NumericError, match=f"non-finite singular value on a {shape} matrix"):
            call()

    def test_message_carries_the_norm(self):
        with pytest.raises(NumericError, match="Frobenius norm inf$"):
            linalg.numerical_rank(INF_ROW, 0.1)


class TestNumericalRank:
    def test_identity(self):
        assert linalg.numerical_rank(np.eye(4), TOL.threshold(np.eye(4))) == 4

    def test_zero(self):
        assert linalg.numerical_rank(np.zeros((3, 3)), TOL.threshold(np.zeros((3, 3)))) == 0

    def test_empty(self):
        assert linalg.numerical_rank(np.zeros((0, 5)), TOL.threshold(np.zeros((0, 5)))) == 0

    def test_f3_against_elimination_oracle(self):
        f3 = linalg.f_block(3)
        assert bareiss_rank(f3.real.astype(int)) == 2
        assert linalg.numerical_rank(f3, TOL.threshold(f3)) == 2

    def test_random_integer_matrices_against_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            m, n = rng.integers(1, 9, size=2)
            a = rng.integers(-3, 4, size=(m, n))
            assert linalg.numerical_rank(a.astype(complex), TOL.threshold(a.astype(complex))) == bareiss_rank(a)


class TestRowCompress:
    def test_zero(self):
        q, k = linalg.row_compress(np.zeros((3, 2)), TOL.threshold(np.zeros((3, 2))))
        assert k == 0
        assert np.allclose(q @ np.zeros((3, 2)), 0)
        assert linalg.unitarity_defect(q) <= 1e-12 * 3

    def test_identity(self):
        q, k = linalg.row_compress(np.eye(2), TOL.threshold(np.eye(2)))
        assert k == 2

    def test_rank_one(self):
        a = np.array([[1, 1], [1, 1]], dtype=complex)
        q, k = linalg.row_compress(a, TOL.threshold(a))
        assert k == 1
        tau = TOL.threshold(a)
        moved = q @ a
        assert np.linalg.norm(moved[0, :]) <= tau
        assert linalg.numerical_rank(moved[1:, :], TOL.threshold(moved[1:, :])) == 1

    def test_rank_invariant_under_unitary_scrambles(self):
        from quiverstair import random_unitary

        rng = np.random.default_rng(3)
        a = random_complex(rng, 4, 6)
        a[:, 3:] = a[:, :3] @ random_complex(rng, 3, 3)  # rank <= 4 anyway; force structure
        base = linalg.row_compress(a, TOL.threshold(a))[1]
        for trial in range(20):
            left = random_unitary(4, [8, trial])
            right = random_unitary(6, [9, trial])
            assert linalg.row_compress(left @ a @ right, TOL.threshold(left @ a @ right))[1] == base


class TestColCompress:
    def test_zero(self):
        w, k = linalg.col_compress(np.zeros((2, 3)), TOL.threshold(np.zeros((2, 3))))
        assert k == 0

    def test_identity(self):
        w, k = linalg.col_compress(np.eye(2), TOL.threshold(np.eye(2)))
        assert k == 2

    def test_rank_one_transposed_oracle(self):
        # Mirror of the row_compress case through transposition.
        a = np.array([[1, 1], [1, 1]], dtype=complex)
        w, k = linalg.col_compress(a, TOL.threshold(a))
        assert k == 1
        moved = a @ w
        assert np.linalg.norm(moved[:, 1]) <= TOL.threshold(a)
        q, k_row = linalg.row_compress(a.T, TOL.threshold(a.T))
        assert k_row == k


class TestTwoSidedReduce:
    def test_zero(self):
        p, s, k = linalg.two_sided_reduce(np.zeros((2, 2)), TOL.threshold(np.zeros((2, 2))))
        assert k == 0
        assert np.allclose(p.conj().T @ np.zeros((2, 2)) @ s, 0)

    def test_identity(self):
        p, s, k = linalg.two_sided_reduce(np.eye(3), TOL.threshold(np.eye(3)))
        assert k == 3
        h = (p.conj().T @ np.eye(3) @ s)[:3, :]
        assert np.linalg.norm(np.abs(np.linalg.svd(h, compute_uv=False)) - 1) < 1e-12

    def test_diag_2_0(self):
        a = np.diag([2.0, 0.0]).astype(complex)
        p, s, k = linalg.two_sided_reduce(a, TOL.threshold(a))
        assert k == 1
        red = p.conj().T @ a @ s
        h = red[:1, 1:]
        assert np.linalg.norm(h) == pytest.approx(2.0)
        red[:1, 1:] = 0
        assert np.linalg.norm(red) <= TOL.threshold(a)

    def test_block_positions(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m, n = rng.integers(1, 7, size=2)
            r = int(rng.integers(0, min(m, n) + 1))
            a = random_complex(rng, m, r) @ random_complex(rng, r, n) if r else np.zeros((m, n), complex)
            p, s, k = linalg.two_sided_reduce(a, TOL.threshold(a))
            red = p.conj().T @ a @ s
            tau = TOL.threshold(a)
            # everything outside the top-right k x k block vanishes
            pattern = red.copy()
            pattern[:k, n - k :] = 0
            assert np.abs(pattern).max(initial=0.0) <= tau
            if k:
                assert np.linalg.svd(red[:k, n - k :], compute_uv=False)[-1] > tau

    def test_exact_rank_against_elimination_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            m, n = rng.integers(1, 9, size=2)
            a = rng.integers(-2, 3, size=(m, n))
            _, _, k = linalg.two_sided_reduce(a.astype(complex), TOL.threshold(a.astype(complex)))
            assert k == bareiss_rank(a)


class TestStaircase:
    def test_single_strip_degenerates_to_two_sided(self):
        rng = np.random.default_rng(2)
        a = random_complex(rng, 4, 3)
        left, right, ls = linalg.staircase_reduce(a, [3], linalg.VERTICAL, TOL.threshold(a))
        _, _, k = linalg.two_sided_reduce(a, TOL.threshold(a))
        assert ls == [k]
        red = left @ a @ right
        assert linalg.staircase_residual(red, [3], ls, linalg.VERTICAL) <= TOL.threshold(a)

    def test_zero_width_strips_are_carried(self):
        rng = np.random.default_rng(4)
        a = random_complex(rng, 3, 4)
        _, _, ls = linalg.staircase_reduce(a, [0, 4, 0], linalg.VERTICAL, TOL.threshold(a))
        assert ls[0] == 0 and ls[2] == 0
        _, _, k = linalg.two_sided_reduce(a, TOL.threshold(a))
        assert ls[1] == k

    def test_planted_echelon_recovery(self):
        # Plant the worked-example step-2 pattern: 4x5, strips (3, 2),
        # nonsingular blocks of sizes (2, 1), then scramble unitarily.
        from quiverstair import random_unitary

        rng = np.random.default_rng(6)
        b = np.zeros((4, 5), dtype=complex)
        b[0:2, 1:3] = random_complex(rng, 2, 2) + 3 * np.eye(2)
        b[0:3, 3:5] = random_complex(rng, 3, 2) * 0.5
        b[2, 3] = 0.0
        b[2, 4] = 2.0 + rng.standard_normal()
        q = random_unitary(4, 21)
        w = linalg.block_diag(random_unitary(3, 22), random_unitary(2, 23))
        a = q @ b @ w
        left, right, ls = linalg.staircase_reduce(a, [3, 2], linalg.VERTICAL, TOL.threshold(a))
        assert ls == [2, 1]
        red = left @ a @ right
        assert linalg.staircase_residual(red, [3, 2], ls, linalg.VERTICAL) <= TOL.threshold(a)

    @pytest.mark.parametrize("axis", [linalg.VERTICAL, linalg.HORIZONTAL])
    def test_random_pattern_rank_and_unitarity(self, axis):
        rng = np.random.default_rng(9)
        for trial in range(30):
            m, n = rng.integers(1, 8, size=2)
            along = n if axis == linalg.VERTICAL else m
            cuts = sorted(rng.integers(0, along + 1, size=2))
            sizes = [cuts[0], cuts[1] - cuts[0], along - cuts[1]]
            r = int(rng.integers(0, min(m, n) + 1))
            a = random_complex(rng, m, r) @ random_complex(rng, r, n) if r else np.zeros((m, n), complex)
            left, right, ls = linalg.staircase_reduce(a, sizes, axis, TOL.threshold(a))
            assert sum(ls) == linalg.numerical_rank(a, TOL.threshold(a))
            assert linalg.unitarity_defect(left) <= 1e-12 * max(1, max(a.shape))
            assert linalg.unitarity_defect(right) <= 1e-12 * max(1, max(a.shape))
            assert linalg.staircase_residual(left @ a @ right, sizes, ls, axis) <= TOL.threshold(a)
            # the strip-axis unitary acts within each strip
            strip_unitary = right if axis == linalg.VERTICAL else left
            inside = np.zeros(strip_unitary.shape, dtype=bool)
            bounds = np.cumsum([0] + sizes)
            for b0, b1 in zip(bounds[:-1], bounds[1:]):
                inside[b0:b1, b0:b1] = True
            assert not strip_unitary[~inside].any()

    @pytest.mark.parametrize(
        "axis, zeros",
        [
            # strips (1, 2) of columns, blocks (1, 1): strip 0 owns row 0,
            # strip 1 owns row 1 in its last column
            (linalg.VERTICAL, [(1, 0), (2, 0), (1, 1), (2, 1), (2, 2)]),
            # strips (2, 1) of rows, blocks (1, 1): strip 1 owns column 2,
            # strip 0 owns column 1 in its top row
            (linalg.HORIZONTAL, [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1)]),
        ],
    )
    def test_residual_reads_exactly_the_demanded_zeros(self, axis, zeros):
        sizes = [1, 2] if axis == linalg.VERTICAL else [2, 1]
        a = np.full((3, 3), 100.0, dtype=complex)
        for k, (i, j) in enumerate(zeros):
            a[i, j] = (k + 1) * 1j
        assert linalg.staircase_residual(a, sizes, [1, 1], axis) == len(zeros)
        a[zeros[-1]] = 0.0
        assert linalg.staircase_residual(a, sizes, [1, 1], axis) == len(zeros) - 1
        for i, j in zeros:
            a[i, j] = 0.0
        assert linalg.staircase_residual(a, sizes, [1, 1], axis) == 0.0

    @pytest.mark.parametrize(
        "strips, blocks, axis",
        [
            ([1, 1], [1, 1], linalg.VERTICAL),
            ([2, 2], [1, 1], linalg.HORIZONTAL),
            ([-1, 4], [0, 1], linalg.VERTICAL),
            ([3], [5], linalg.VERTICAL),
            ([3], [-1], linalg.VERTICAL),
            ([2, 1], [2, 1], linalg.VERTICAL),
            ([1, 1], [2, 0], linalg.HORIZONTAL),
        ],
        ids=[
            "a column short",
            "a row too many",
            "negative strip",
            "block wider than its strip",
            "negative block",
            "blocks need 3 of 2 rows",
            "block taller than its strip",
        ],
    )
    def test_residual_rejects_patterns_that_do_not_fit(self, strips, blocks, axis):
        a = np.arange(1.0, 7.0).reshape(2, 3)
        with pytest.raises(ValidationError):
            linalg.staircase_residual(a, strips, blocks, axis)

    def test_strip_size_mismatch_raises(self):
        with pytest.raises(ValidationError):
            linalg.staircase_reduce(np.eye(3), [2, 2], linalg.VERTICAL, TOL.threshold(np.eye(3)))
        with pytest.raises(ValidationError):
            linalg.staircase_reduce(np.eye(3), [1, 2], "diagonal", TOL.threshold(np.eye(3)))


class TestEmptyStripsTakeNoSvd:
    """A strip with no columns, or with every row already pinned, calls no ``two_sided_reduce``."""

    @pytest.fixture
    def calls(self, monkeypatch):
        shapes = []
        reduce = linalg.two_sided_reduce

        def counted(a, threshold):
            shapes.append(np.shape(a))
            return reduce(a, threshold)

        monkeypatch.setattr(linalg, "two_sided_reduce", counted)
        return shapes

    def test_zero_width_strips(self, calls):
        a = random_complex(np.random.default_rng(4), 3, 2)
        _, _, ls = linalg.staircase_reduce(a, [0, 2, 0], linalg.VERTICAL, TOL.threshold(a))
        assert calls == [(3, 2)]
        assert ls == [0, 2, 0]

    @pytest.mark.parametrize("axis", [linalg.VERTICAL, linalg.HORIZONTAL])
    def test_strip_after_every_row_is_pinned(self, calls, axis):
        a = random_complex(np.random.default_rng(8), 2, 4)
        if axis == linalg.HORIZONTAL:
            a = a.T
        # the first strip reduced (leftmost, or bottom for horizontal strips) is full rank 2
        left, right, ls = linalg.staircase_reduce(a, [2, 2], axis, TOL.threshold(a))
        assert calls == [(2, 2)]
        if axis == linalg.VERTICAL:
            assert ls == [2, 0]
            assert np.array_equal(right[2:, 2:], np.eye(2))
        else:
            assert ls == [0, 2]
            assert np.array_equal(left[:2, :2], np.eye(2))
        assert linalg.staircase_residual(left @ a @ right, [2, 2], ls, axis) <= TOL.threshold(a)

    def test_chain_sweep_passes_no_empty_matrix(self, calls):
        t = 32
        labels = tuple(((i, min(t, i + i % 5)), 1 + i % 2) for i in range(1, t + 1))
        spec = qs.PlantSpec(shape=qs.chain_shape(t, "><" * (t // 2 - 1) + ">"), labels=labels, seed=3)
        rep, _ = qs.plant(spec)
        form, _ = qs.canon_chain(rep)
        assert dict(form.counts) == {lab: m for lab, m in labels}
        assert calls and all(min(shape) > 0 for shape in calls)


class TestInverse:
    def test_inverse_roundtrip(self):
        rng = np.random.default_rng(17)
        a = random_complex(rng, 4, 4) + 4 * np.eye(4)
        inv = linalg.svd_inverse(a)
        assert np.linalg.norm(inv @ a - np.eye(4)) < 1e-10

    def test_singular_rejected(self):
        with pytest.raises(ValidationError, match="numerically singular"):
            linalg.svd_inverse(np.zeros((2, 2)))

    def test_empty(self):
        assert linalg.svd_inverse(np.zeros((0, 0))).shape == (0, 0)


def _regularity_defect(threshold):
    rep = quiver.Representation(quiver.cycle_shape(2, "><"), (2, 2), (np.eye(2), np.eye(2)))
    return quiver.regularity_defect(rep, threshold)


# every function that takes a rank threshold, called on a small input
THRESHOLD_TAKERS = {
    "numerical_rank": lambda tau: linalg.numerical_rank(np.eye(3), tau),
    "row_compress": lambda tau: linalg.row_compress(np.eye(3), tau),
    "col_compress": lambda tau: linalg.col_compress(np.eye(3), tau),
    "two_sided_reduce": lambda tau: linalg.two_sided_reduce(np.eye(3), tau),
    "staircase_reduce": lambda tau: linalg.staircase_reduce(np.eye(2), [1, 1], linalg.VERTICAL, tau),
    "staircase_reduce, no strips": lambda tau: linalg.staircase_reduce(
        np.zeros((2, 0)), [], linalg.VERTICAL, tau
    ),
    "regularity_defect": _regularity_defect,
}


class TestThresholdCheck:
    @pytest.mark.parametrize("fn", THRESHOLD_TAKERS.values(), ids=THRESHOLD_TAKERS.keys())
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0, "x", None, True])
    def test_bad_threshold_raises(self, fn, bad):
        with pytest.raises(ValidationError, match="threshold must be a finite real number >= 0"):
            fn(bad)

    @pytest.mark.parametrize("fn", THRESHOLD_TAKERS.values(), ids=THRESHOLD_TAKERS.keys())
    @pytest.mark.parametrize("good", [0, 1e-12, np.float64(1e-8)])
    def test_good_threshold_accepted(self, fn, good):
        fn(good)


class TestSizeCheck:
    @pytest.mark.parametrize(
        "bad", [[1.9, 1.1], [True, True], ["1", "1"], [1.0, 1.0], [np.bool_(True)] * 2]
    )
    def test_staircase_reduce_needs_integer_strips(self, bad):
        with pytest.raises(ValidationError, match="strip_sizes must be integers"):
            linalg.staircase_reduce(np.eye(2), bad, linalg.VERTICAL, 1e-12)

    def test_numpy_integer_strips_accepted(self):
        for dtype in (np.int64, np.uint8):
            sizes = np.array([1, 1], dtype=dtype)
            assert linalg.staircase_reduce(np.eye(2), sizes, linalg.VERTICAL, 1e-12)[2] == [1, 1]
            assert linalg.staircase_residual(np.eye(2), sizes, sizes, linalg.VERTICAL) == 0.0

    @pytest.mark.parametrize("name", ["strip_sizes", "block_sizes"])
    @pytest.mark.parametrize("bad", [1.9, True, "1", np.bool_(True)])
    def test_staircase_residual_needs_integer_sizes(self, name, bad):
        sizes = {"strip_sizes": [1, 1], "block_sizes": [1, 1]}
        sizes[name] = [bad, 1]
        with pytest.raises(ValidationError, match=f"{name} must be integers"):
            linalg.staircase_residual(np.eye(2), sizes["strip_sizes"], sizes["block_sizes"], linalg.VERTICAL)


_CYCLE2 = qs.cycle_shape(2, "><")
_CHAIN = qs.Representation(qs.chain_shape(2, ">"), (1, 1), (np.eye(1),))
_REGULAR = qs.Representation(_CYCLE2, (1, 1), (np.eye(1), np.eye(1)))

# every function that takes a TolerancePolicy, called on a small input
TOL_TAKERS = {
    "canon_chain": lambda tol: qs.canon_chain(_CHAIN, tol),
    "shave": lambda tol: cycle.shave(_REGULAR, tol),
    "regularize": lambda tol: cycle.regularize(_REGULAR, tol),
    "monodromy": lambda tol: cycle.monodromy(_REGULAR, tol),
    "svd_inverse": lambda tol: linalg.svd_inverse(np.eye(2), tol),
}


class TestToleranceCheck:
    @pytest.mark.parametrize("fn", TOL_TAKERS.values(), ids=TOL_TAKERS.keys())
    @pytest.mark.parametrize("bad", [1e-8, "x", None, linalg.DEFAULT_TOL.from_sigma])
    def test_non_policy_raises(self, fn, bad):
        with pytest.raises(ValidationError, match="tol must be a TolerancePolicy, got"):
            fn(bad)

    @pytest.mark.parametrize("fn", TOL_TAKERS.values(), ids=TOL_TAKERS.keys())
    def test_policy_accepted(self, fn):
        fn(linalg.TolerancePolicy(abs_floor=1e-10))


# (call, the argument its error must name)
BAD_BUILDING_BLOCK_ARGS = {
    "random_unitary(2.5)": (lambda: oracle.random_unitary(2.5, 0), "integer n"),
    "random_unitary(True)": (lambda: oracle.random_unitary(True, 0), "integer n"),
    "random_invertible(2.5)": (lambda: oracle.random_invertible(2.5, 0), "integer n"),
    "random_invertible(max_condition=0.5)": (
        lambda: oracle.random_invertible(2, 0, max_condition=0.5),
        "max_condition",
    ),
    "random_invertible(max_condition=inf)": (
        lambda: oracle.random_invertible(2, 0, max_condition=np.inf),
        "max_condition",
    ),
    "random_invertible(max_condition='9')": (
        lambda: oracle.random_invertible(2, 0, max_condition="9"),
        "max_condition",
    ),
    "jordan_block(2.5)": (lambda: linalg.jordan_block(2.5, 1), "integer n"),
    "jordan_block(lam='x')": (lambda: linalg.jordan_block(2, "x"), "lam"),
    "jordan_block(lam=nan)": (lambda: linalg.jordan_block(2, complex(1, np.nan)), "lam"),
    "jordan_block(lam=10**400)": (lambda: linalg.jordan_block(2, 10**400), "lam"),
    "jordan_block(lam=True)": (lambda: linalg.jordan_block(2, True), "lam"),
    "f_block(True)": (lambda: linalg.f_block(True), "integer n"),
    "f_block(2.0)": (lambda: linalg.f_block(2.0), "integer n"),
    "g_block('3')": (lambda: linalg.g_block("3"), "integer n"),
    "push_down(l=1.5)": (lambda: cycle.push_down(None, 1.5, 0.5, _CYCLE2), "integer l"),
    "push_down(l='a')": (lambda: cycle.push_down(None, "a", 0, _CYCLE2), "integer l"),
    "push_down(n=0.0)": (lambda: cycle.push_down(None, 1, 0.0, _CYCLE2), "integer n"),
}


class TestBuildingBlockArguments:
    @pytest.mark.parametrize(
        "call, name", BAD_BUILDING_BLOCK_ARGS.values(), ids=BAD_BUILDING_BLOCK_ARGS.keys()
    )
    def test_bad_argument_named(self, call, name):
        with pytest.raises(ValidationError, match=name):
            call()

    def test_numpy_numbers_accepted(self):
        two = np.int64(2)
        assert oracle.random_unitary(two, 0).shape == (2, 2)
        assert oracle.random_invertible(two, 0, max_condition=np.float32(10)).shape == (2, 2)
        assert linalg.jordan_block(two, np.complex64(1j))[1, 1] == 1j
        assert linalg.f_block(two).shape == linalg.g_block(two).shape == (1, 2)
        assert cycle.push_down(None, np.int64(1), np.int64(0), _CYCLE2).dims == (0, 0)
