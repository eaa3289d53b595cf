import warnings

import numpy as np
import pytest

import quiverstair as qs
from conftest import bareiss_rank, random_complex
from quiverstair import chain, cycle, linalg, oracle, quiver
from quiverstair.errors import NumericError, ValidationError
from strip_mask_loop import staircase_residual

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
        message = f"field '{field}' must be a finite real number >= 0, got"
        with pytest.raises(ValidationError, match=message):
            linalg.TolerancePolicy(**{field: value})

    @pytest.mark.parametrize("field", ["abs_floor", "rel_factor"])
    def test_integer_beyond_float_range_rejected(self, field):
        message = f"field '{field}' must be a finite real number >= 0, got 1000"
        with pytest.raises(ValidationError, match=message):
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
SVD_SAYS = "non-finite singular value on a {} matrix"
ENTRY_SAYS = "^non-finite entry in a {} matrix with Frobenius norm {}$"


class TestNonFiniteSvd:
    """An inf or nan entry gets one message from every entry point, whatever LAPACK
    made of it: a nan singular value or a convergence failure."""

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: linalg.svd(INF_ROW), ENTRY_SAYS.format("1x2", "inf")),
            (lambda: linalg.singular_values(INF_ROW), ENTRY_SAYS.format("1x2", "inf")),
            (lambda: linalg.numerical_rank(INF_ROW, 0.1), ENTRY_SAYS.format("1x2", "inf")),
            (lambda: linalg.row_compress(INF_ROW, 0.1), ENTRY_SAYS.format("1x2", "inf")),
            (lambda: linalg.col_compress(INF_ROW, 0.1), ENTRY_SAYS.format("1x2", "inf")),
            (lambda: linalg.two_sided_reduce(INF_ROW, 0.1), ENTRY_SAYS.format("1x2", "inf")),
            # a one-column input with a non-finite entry goes to the SVD, not the norm
            (
                lambda: linalg.two_sided_reduce([[np.inf], [1.0]], 0.1),
                ENTRY_SAYS.format("2x1", "inf"),
            ),
            # LAPACK fails to converge on a nan; the message is the same
            (lambda: linalg.two_sided_reduce([[np.nan]], 0.1), ENTRY_SAYS.format("1x1", "nan")),
            # refused up front, before a strip product or an SVD sees the entry
            (
                lambda: linalg.staircase_reduce(INF_ROW, [2], linalg.VERTICAL, 0.1),
                ENTRY_SAYS.format("1x2", "inf"),
            ),
            (lambda: linalg.sigma_max([[np.inf]]), ENTRY_SAYS.format("1x1", "inf")),
            (lambda: TOL.threshold(INF_ROW), ENTRY_SAYS.format("1x2", "inf")),
            (
                lambda: linalg.svd_inverse([[np.inf, 0.0], [0.0, 1.0]]),
                ENTRY_SAYS.format("2x2", "inf"),
            ),
        ],
        ids=[
            "svd", "singular_values", "numerical_rank", "row_compress", "col_compress",
            "two_sided_reduce", "two_sided_reduce-column-inf", "two_sided_reduce-column-nan",
            "staircase_reduce", "sigma_max", "threshold", "svd_inverse",
        ],
    )
    def test_raises_numeric_error(self, call, message):
        with pytest.raises(NumericError, match=message):
            call()

    def test_message_carries_the_norm(self):
        with pytest.raises(NumericError, match="Frobenius norm inf$"):
            linalg.numerical_rank(INF_ROW, 0.1)


class TestStaircaseRefusesNonFinite:
    """``staircase_reduce`` checks its whole input once, before any strip is reduced."""

    @pytest.mark.parametrize(
        "a, strips, axis, shape, norm",
        [
            ([[np.inf, 1], [0, 1]], [1, 1], linalg.VERTICAL, "2x2", "inf"),
            ([[1, 0], [1, np.inf], [0, 2]], [1, 2], linalg.HORIZONTAL, "3x2", "inf"),
            # the first strip pins the only row, so no later strip reads the inf
            ([[1, 0, np.inf]], [2, 1], linalg.VERTICAL, "1x3", "inf"),
            ([[1, 0], [np.nan, 1]], [2], linalg.HORIZONTAL, "2x2", "nan"),
        ],
        ids=["vertical", "horizontal", "behind-pinned-rows", "nan"],
    )
    def test_names_the_input(self, a, strips, axis, shape, norm):
        with pytest.raises(
            NumericError, match=f"^non-finite entry in a {shape} matrix with Frobenius norm {norm}$"
        ):
            linalg.staircase_reduce(a, strips, axis, 0.1)


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


class TestOneColumn:
    """A one-column input is decided by its scaled 2-norm and reduced by one reflector."""

    @pytest.mark.parametrize(
        "x, threshold",
        [
            ([[1e200], [1e200]], 1.0),
            ([[1e-200], [1e-200]], 0.0),
            ([[3e-300j], [0], [4e-300]], 1e-300),
        ],
        ids=["norm-squares-overflow", "norm-squares-underflow", "subnormal-squares"],
    )
    def test_extreme_scales_keep_rank_one(self, x, threshold):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p, s, k = linalg.two_sided_reduce(x, threshold)
        assert k == 1 and np.array_equal(s, [[1]])
        assert linalg.unitarity_defect(p) <= 1e-15
        reduced = p.conj().T @ np.asarray(x, dtype=complex)
        sigma = float(linalg.singular_values(x)[0])
        assert abs(reduced[0, 0]) == pytest.approx(sigma, rel=1e-15)
        assert np.abs(reduced[1:]).max() <= 1e-15 * sigma

    def test_rank_zero_gives_exact_identities(self):
        p, s, k = linalg.two_sided_reduce([[1e-3], [0], [-2e-3j]], 1e-2)
        assert k == 0
        assert np.array_equal(p, np.eye(3)) and np.array_equal(s, [[1]])

    def test_norm_overflow_goes_to_the_svd(self):
        # raised without a warning, though the norm in the message overflows too
        message = SVD_SAYS.format("2x1") + " with Frobenius norm inf$"
        with pytest.raises(NumericError, match=message):
            linalg.two_sided_reduce([[1.5e308], [1.5e308]], 1.0)


class TestStaircase:
    def test_single_strip_degenerates_to_two_sided(self):
        rng = np.random.default_rng(2)
        a = random_complex(rng, 4, 3)
        left, right, ls = linalg.staircase_reduce(a, [3], linalg.VERTICAL, TOL.threshold(a))
        _, _, k = linalg.two_sided_reduce(a, TOL.threshold(a))
        assert ls == [k]
        red = left @ a @ right
        assert staircase_residual(red, [3], ls, linalg.VERTICAL) <= TOL.threshold(a)

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
        assert staircase_residual(red, [3, 2], ls, linalg.VERTICAL) <= TOL.threshold(a)

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
            assert staircase_residual(left @ a @ right, sizes, ls, axis) <= TOL.threshold(a)
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
        assert staircase_residual(a, sizes, [1, 1], axis) == len(zeros)
        a[zeros[-1]] = 0.0
        assert staircase_residual(a, sizes, [1, 1], axis) == len(zeros) - 1
        for i, j in zeros:
            a[i, j] = 0.0
        assert staircase_residual(a, sizes, [1, 1], axis) == 0.0

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
            staircase_residual(a, strips, blocks, axis)

    def test_strip_size_mismatch_raises(self):
        with pytest.raises(ValidationError):
            linalg.staircase_reduce(np.eye(3), [2, 2], linalg.VERTICAL, TOL.threshold(np.eye(3)))
        with pytest.raises(ValidationError):
            linalg.staircase_reduce(np.eye(3), [1, 2], "diagonal", TOL.threshold(np.eye(3)))


TINY = 2.0**-1060  # 3 and 4 times it are subnormal, and exact


class TestFro:
    """``_fro``, the one Frobenius norm: finite wherever the true norm is, exactly scaled
    by powers of two, and non-finite entries read as themselves, with no warning."""

    @pytest.mark.parametrize(
        "m, want",
        [
            ([[3.0, 4.0j]], 5.0),
            ([[1.5e300, 2e300j]], 2.5e300),  # the squares overflow
            ([[3 * TINY], [4j * TINY]], 5 * TINY),  # the squares underflow
            ([[1.5e308, 1.5e308]], np.inf),  # the norm itself is beyond float64
            (np.zeros((0, 3)), 0.0),
            (np.zeros((2, 2)), 0.0),
            ([[np.inf, 1.0]], np.inf),
            ([[np.nan, np.inf]], np.nan),
        ],
        ids=["plain", "overflow", "underflow", "beyond", "empty", "zero", "inf", "nan"],
    )
    def test_norm(self, m, want):
        got = linalg._fro(np.asarray(m, dtype=complex))
        assert got == pytest.approx(want, rel=1e-15, nan_ok=True)

    def test_row_norms(self):
        m = np.array([[3e300, 4e300j], [6.0, 8.0]]) * 2.0**-500
        assert linalg._fro(m, axis=1) == pytest.approx([5e300 * 2.0**-500, 10 * 2.0**-500])
        assert linalg._fro(np.zeros((3, 0)), axis=1).tolist() == [0.0] * 3

    @pytest.mark.parametrize("big", [3e300, 3e-300], ids=["overflow", "underflow"])
    def test_each_row_takes_its_own_scale(self, big):
        # a row far below or above another keeps its norm: the rows are not scaled together
        m = np.array([[big, big * 4 / 3], [6.0, 8.0j]])
        assert linalg._fro(m, axis=1) == pytest.approx([big * 5 / 3, 10.0], rel=1e-15, abs=0)

    @pytest.mark.parametrize("k", [-1000, -600, 1, 600, 900])
    def test_power_of_two_scaling_is_exact(self, k):
        rng = np.random.default_rng(5)
        m = random_complex(rng, 7, 5)
        assert linalg._fro(m * 2.0**k) == linalg._fro(m) * 2.0**k
        assert np.array_equal(linalg._fro(m * 2.0**k, axis=1), linalg._fro(m, axis=1) * 2.0**k)


class TestIsZero:
    """``_is_zero`` answers "sigma_max <= tau?" from max|a_ij| and the Frobenius norm when
    they settle it; otherwise, and for an inf or nan entry, ``_decide`` answers."""

    @pytest.mark.parametrize(
        "m, size",
        [([[np.inf, 5.0]], "1x2"), ([[np.nan, 5.0]], "1x2"), ([[np.inf], [5.0]], "2x1"),
         ([[1e-300, np.nan], [0.0, 0.0]], "2x2")],
        ids=["inf-beside-an-entry-above-tau", "nan-beside-an-entry-above-tau", "column-inf",
             "nan-beside-tiny"],
    )
    def test_non_finite_entry_raises(self, m, size):
        norm = "inf" if np.isinf(m).any() else "nan"
        with pytest.raises(NumericError, match=ENTRY_SAYS.format(size, norm)):
            linalg._is_zero(np.asarray(m, dtype=complex), 0.1)

    @pytest.mark.parametrize(
        "tau, zero", [(1e-201, False), (1.4e-200, False), (1.42e-200, True), (1e-199, True)]
    )
    def test_norm_bound_does_not_underflow(self, tau, zero):
        # ||[1e-200, 1e-200]||_F = 1.414e-200, whose unscaled squares would underflow to 0
        m = np.array([[1e-200, 1e-200]], dtype=complex)
        assert linalg._is_zero(m, tau) is zero
        assert (linalg.numerical_rank(m, tau) == 0) is zero

    @pytest.mark.parametrize(
        "tau, svds", [(0.5, 0), (2.5, 0), (1.5, 1)], ids=["entry-above", "norm-below", "between"]
    )
    def test_svd_only_when_the_bounds_do_not_decide(self, monkeypatch, tau, svds):
        # max|a_ij| = 1 and ||a||_F = 2: tau between them leaves the answer to the SVD
        calls = []
        lapack = np.linalg.svd

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return lapack(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        a = np.ones((2, 2), dtype=complex)
        assert linalg._is_zero(a, tau) is (tau >= 2)
        assert len(calls) == svds


class TestReflectorBlock:
    """``_reflector_block(x)`` is ``Q = I - v t v^H``, unitary, with ``Q[:, :r]`` spanning
    ``x``; ``_left`` and ``_right`` apply ``Q^H`` and ``Q`` as the dense products would."""

    SIZES = [(1, 1), (5, 1), (6, 3), (6, 6), (40, 7), (70, 14)]

    @staticmethod
    def _dense(v, t):
        return np.eye(len(v)) - v @ t @ v.conj().T

    @pytest.mark.parametrize("n, r", SIZES)
    def test_block_is_unitary_and_spans_the_columns(self, n, r):
        rng = np.random.default_rng([n, r])
        x = random_complex(rng, n, r)
        v, t = linalg._reflector_block(x)
        assert v.shape == (n, r) and t.shape == (r, r)
        assert np.array_equal(np.triu(v, 1), np.zeros((n, r))) and np.all(np.diag(v) == 1)
        assert np.array_equal(np.tril(t, -1), np.zeros((r, r)))
        q = self._dense(v, t)
        assert linalg.unitarity_defect(q) <= 1e-14 * n
        # Q^H x is upper triangular, so Q[:, :r] spans x and Q[:, r:] is orthogonal to it
        assert linalg._fro(np.tril(q.conj().T @ x, -1)) <= 1e-14 * n * linalg._fro(x)

    @pytest.mark.parametrize("n, r", SIZES)
    def test_orthonormal_columns_come_back_up_to_unit_phases(self, n, r):
        x = np.linalg.qr(random_complex(np.random.default_rng([n, r, 1]), n, r))[0]
        v, t = linalg._reflector_block(x)
        d = (self._dense(v, t).conj().T @ x)[:r]
        assert np.allclose(d, np.diag(np.diag(d)), atol=1e-14 * n)
        assert np.allclose(np.abs(np.diag(d)), 1, atol=1e-14 * n)

    @pytest.mark.parametrize("n, r", SIZES)
    def test_applications_equal_the_dense_products(self, n, r):
        rng = np.random.default_rng([n, r, 2])
        v, t = block = linalg._reflector_block(random_complex(rng, n, r))
        q = self._dense(v, t)
        for m in (random_complex(rng, n, 3), random_complex(rng, n, n + 2)):
            assert linalg._fro(linalg._left(block, m) - q.conj().T @ m) <= 1e-13 * linalg._fro(m)
            mt = m.T.copy()
            assert linalg._fro(linalg._right(mt, block) - mt @ q) <= 1e-13 * linalg._fro(m)
            # a dense unitary s is applied as s @ m and m @ s^H
            s = q.conj().T
            assert np.array_equal(linalg._left(s, m), s @ m)
            assert np.array_equal(linalg._right(mt, s), mt @ s.conj().T)

    def test_no_columns_is_the_identity(self):
        m = random_complex(np.random.default_rng(3), 4, 5)
        v, t = block = linalg._reflector_block(np.zeros((4, 0), dtype=complex))
        assert v.shape == (4, 0) and t.shape == (0, 0)
        assert np.array_equal(linalg._left(block, m), m)
        assert np.array_equal(linalg._right(m.T, block), m.T)
        assert linalg._left(None, m) is m and linalg._right(m, None) is m

    @pytest.mark.parametrize("phase", [1.0, -1.0, 1j, np.exp(0.7j)])
    def test_unit_vectors_with_complex_phases(self, phase):
        # columns already on the axes: LAPACK's reflector for a real one is the identity
        # (tau = 0), for any other phase one that turns it real
        x = np.eye(5, 3, dtype=complex) * phase
        v, t = linalg._reflector_block(x)
        q = self._dense(v, t)
        assert linalg.unitarity_defect(q) <= 1e-14 * 5
        d = (q.conj().T @ x)[:3]
        assert np.allclose(d, np.diag(np.diag(d)), atol=1e-15)
        assert np.allclose(np.abs(np.diag(d)), 1, atol=1e-15)
        assert linalg._fro(q[3:, :3]) <= 1e-15 and linalg._fro(q[:3, 3:]) <= 1e-15


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
        assert staircase_residual(left @ a @ right, [2, 2], ls, axis) <= TOL.threshold(a)

    def test_chain_sweep_passes_no_empty_matrix(self, calls):
        t = 32
        labels = tuple(((i, min(t, i + i % 5)), 1 + i % 2) for i in range(1, t + 1))
        spec = qs.PlantSpec(shape=qs.chain_shape(t, "><" * (t // 2 - 1) + ">"), labels=labels, seed=3)
        rep, _ = qs.plant(spec)
        form, _ = qs.canon_chain(rep)
        assert dict(form.counts) == {lab: m for lab, m in labels}
        assert calls and all(min(shape) > 0 for shape in calls)


class TestStripCalls:
    """Every live strip is one traced ``two_sided_reduce`` call; a one-column one takes no SVD."""

    def test_planted_chain(self, monkeypatch):
        reduce, lapack, stair = linalg.two_sided_reduce, np.linalg.svd, linalg.staircase_reduce
        strips, svd_shapes, live, inside = [], [], [], []

        def counted_reduce(a, threshold):
            strips.append(np.shape(a))
            svd_shapes.append([])
            inside.append(True)
            try:
                return reduce(a, threshold)
            finally:
                inside.pop()

        def counted_svd(a, *args, **kwargs):
            if inside:
                svd_shapes[-1].append(np.shape(a))
            return lapack(a, *args, **kwargs)

        def live_strips(a, strip_sizes, strip_axis, threshold):
            left, right, ls = stair(a, strip_sizes, strip_axis, threshold)
            rows = np.shape(a)[0 if strip_axis == linalg.VERTICAL else 1]
            order = slice(None) if strip_axis == linalg.VERTICAL else slice(None, None, -1)
            pinned = 0
            for k, l in zip(list(strip_sizes)[order], ls[order]):
                if k and pinned < rows:
                    live.append((rows - pinned, k))
                pinned += l
            return left, right, ls

        monkeypatch.setattr(linalg, "two_sided_reduce", counted_reduce)
        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        monkeypatch.setattr(chain, "staircase_reduce", live_strips)
        t = 32
        labels = tuple(((i, min(t, i + i % 5)), 1 + i % 2) for i in range(1, t + 1))
        spec = qs.PlantSpec(shape=qs.chain_shape(t, "><" * (t // 2 - 1) + ">"), labels=labels, seed=3)
        rep, _ = qs.plant(spec)
        form, _ = qs.canon_chain(rep)
        assert dict(form.counts) == {lab: m for lab, m in labels}
        assert strips == live
        widths = {shape[1] for shape in strips}
        assert 1 in widths and max(widths) > 1
        for shape, svds in zip(strips, svd_shapes):
            assert svds == ([] if shape[1] == 1 else [shape])


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

    @pytest.mark.parametrize("n", [1, 2, 28, 95])
    def test_column_scaling_is_the_diagonal_product_bit_for_bit(self, n):
        # n = 1 takes the one-column rule's factors, the others LAPACK's
        rng = np.random.default_rng([23, n])
        a = random_complex(rng, n, n)
        s, _, _, u, vh = linalg._decide(a, linalg.DEFAULT_TOL, uv=True)
        want = vh.conj().T @ np.diag(1.0 / s) @ u.conj().T
        assert linalg.svd_inverse(a).tobytes() == want.tobytes()


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
    "_is_zero": lambda tau: linalg._is_zero(np.eye(3, dtype=complex), tau),
    "_is_zero, empty": lambda tau: linalg._is_zero(np.zeros((2, 0), dtype=complex), tau),
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


_EYE2 = qs.Representation(qs.chain_shape(2, ">"), (2, 2), (np.eye(2),))


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
            assert staircase_residual(np.eye(2), sizes, sizes, linalg.VERTICAL) == 0.0

    @pytest.mark.parametrize("name", ["strip_sizes", "block_sizes"])
    @pytest.mark.parametrize("bad", [1.9, True, "1", np.bool_(True)])
    def test_staircase_residual_needs_integer_sizes(self, name, bad):
        sizes = {"strip_sizes": [1, 1], "block_sizes": [1, 1]}
        sizes[name] = [bad, 1]
        with pytest.raises(ValidationError, match=f"{name} must be integers"):
            staircase_residual(np.eye(2), sizes["strip_sizes"], sizes["block_sizes"], linalg.VERTICAL)
        # the chain rule names the same list
        step = chain.ChainStep(">", sizes["strip_sizes"], sizes["block_sizes"])
        trace = chain.ChainTrace([np.eye(2), np.eye(2)], 0.0, [step], a=_EYE2)
        with pytest.raises(ValidationError, match=f"does not fit .*: {name} must be integers"):
            trace.misfits(_EYE2.shape, [np.eye(2)])


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
    "random_unitary(-1)": (
        lambda: oracle.random_unitary(-1, 0),
        "random_unitary needs an integer n >= 0, got -1",
    ),
    "random_invertible(2.5)": (lambda: oracle.random_invertible(2.5, 0), "integer n"),
    "random_invertible(-1)": (
        lambda: oracle.random_invertible(-1, 0),
        "random_invertible needs an integer n >= 0, got -1",
    ),
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
    "jordan_block(-2)": (
        lambda: linalg.jordan_block(-2, 0.0),
        "jordan_block needs an integer n >= 0, got -2",
    ),
    "jordan_block(lam='x')": (lambda: linalg.jordan_block(2, "x"), "lam"),
    "jordan_block(lam=nan)": (lambda: linalg.jordan_block(2, complex(1, np.nan)), "lam"),
    "jordan_block(lam=10**400)": (lambda: linalg.jordan_block(2, 10**400), "lam"),
    "jordan_block(lam=True)": (lambda: linalg.jordan_block(2, True), "lam"),
    "f_block(True)": (lambda: linalg.f_block(True), "integer n"),
    "f_block(2.0)": (lambda: linalg.f_block(2.0), "integer n"),
    "f_block(0)": (lambda: linalg.f_block(0), "f_block needs an integer n >= 1, got 0"),
    "g_block('3')": (lambda: linalg.g_block("3"), "integer n"),
    "g_block(-1)": (lambda: linalg.g_block(-1), "g_block needs an integer n >= 1, got -1"),
    "push_down(l=1.5)": (lambda: cycle.push_down(None, 1.5, 0.5, _CYCLE2), "integer l"),
    "push_down(l='a')": (lambda: cycle.push_down(None, "a", 0, _CYCLE2), "integer l"),
    "push_down(n=0.0)": (lambda: cycle.push_down(None, 1, 0.0, _CYCLE2), "integer n"),
    "push_down(n=l-2)": (
        lambda: cycle.push_down(None, 3, 1, _CYCLE2),
        "push_down needs an integer n >= 2, got 1",
    ),
    "push_down(l=uint8(3), n=0)": (
        lambda: cycle.push_down(None, np.uint8(3), 0, _CYCLE2),
        "push_down needs an integer n >= 2, got 0",
    ),
    "push_down(l=0, n=uint8(255))": (
        lambda: cycle.push_down(None, 0, np.uint8(255), _CYCLE2),
        r"push_down got no chain but n-l\+1=256 vertices",
    ),
    "check_label(m=-1)": (
        lambda: quiver.check_label(qs.chain_shape(3, ">>"), 1, 2, -1),
        r"^label \(1, 2\) needs an integer multiplicity >= 0, got -1$",
    ),
    "Representation(dims=(1, -1))": (
        lambda: qs.Representation(qs.chain_shape(2, ">"), (1, -1), (np.zeros((0, 1)),)),
        "^vertex 2 needs an integer dimension >= 0, got -1$",
    ),
    "random_unitary(seed=-1)": (
        lambda: oracle.random_unitary(2, -1),
        "^random_unitary needs an integer seed >= 0, got -1$",
    ),
    "random_invertible(seed=[3, -2])": (
        lambda: oracle.random_invertible(2, [3, -2]),
        "^random_invertible needs an integer seed entry >= 0, got -2$",
    ),
    "QuiverShape(chain, t=0)": (
        lambda: qs.QuiverShape(qs.CHAIN, 0, ""),
        "^a chain needs an integer t >= 1, got 0$",
    ),
    "QuiverShape(cycle, t=1)": (
        lambda: qs.QuiverShape(qs.CYCLE, 1, ">"),
        "^a cycle needs an integer t >= 2, got 1$",
    ),
    "staircase_reduce(strip_sizes=[3, -1])": (
        lambda: linalg.staircase_reduce(np.zeros((1, 2)), [3, -1], linalg.VERTICAL, 0.1),
        r"^strip sizes must be nonnegative, got -1 in \[3, -1\]$",
    ),
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
