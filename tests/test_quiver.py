from collections import Counter

import numpy as np
import pytest

import quiverstair as qs
from conftest import is_regular, random_complex
from quiverstair.errors import ValidationError
from quiverstair.quiver import assemble, label_dims


def iso_residual(a, b, transforms):
    """``max_arrows || S_v A_arrow - B_arrow S_u ||_F`` for the commuting squares."""
    assert a.shape == b.shape and a.dims == b.dims
    worst = 0.0
    for i in range(1, a.shape.arrow_count + 1):
        u, v = a.shape.arrow_ends(i)
        d = transforms[v - 1] @ a.matrices[i - 1] - b.matrices[i - 1] @ transforms[u - 1]
        worst = max(worst, float(np.linalg.norm(d)))
    return worst


class TestQuiverShape:
    def test_wrap(self):
        c = qs.cycle_shape(4, ">>>>")
        assert [c.wrap(n) for n in (0, 1, 4, 5, 9, -1)] == [4, 1, 4, 1, 1, 3]

    def test_arrow_ends(self):
        c = qs.cycle_shape(3, "><>")
        assert c.arrow_ends(1) == (1, 2)
        assert c.arrow_ends(2) == (3, 2)
        assert c.arrow_ends(3) == (3, 1)
        ch = qs.chain_shape(3, "<>")
        assert ch.arrow_ends(1) == (2, 1)
        assert ch.arrow_ends(2) == (2, 3)

    def test_validation(self):
        with pytest.raises(ValidationError):
            qs.cycle_shape(1, ">")
        with pytest.raises(ValidationError):
            qs.chain_shape(3, ">")
        with pytest.raises(ValidationError):
            qs.chain_shape(3, ">x")
        with pytest.raises(ValidationError):
            qs.QuiverShape("loop", 3, ">>>")

    @pytest.mark.parametrize(
        "kind, t, orientations, field",
        [
            (qs.CHAIN, "2", ">", "'t'"),
            (qs.CHAIN, 2.0, ">", "'t'"),
            (qs.CHAIN, True, "", "'t'"),
            (qs.CHAIN, 2, [">"], "'orientations'"),
            (5, 2, ">", "'kind'"),
        ],
        ids=["t-string", "t-float", "t-bool", "orientations-list", "kind-int"],
    )
    def test_wrong_field_type_named(self, kind, t, orientations, field):
        with pytest.raises(ValidationError, match=field):
            qs.QuiverShape(kind, t, orientations)

    def test_numpy_integer_t_accepted(self):
        assert qs.cycle_shape(np.int64(2), "><") == qs.cycle_shape(2, "><")

    def test_reversed(self):
        c = qs.cycle_shape(3, "><>")
        assert c.reversed().orientations == "<><"


_CHAIN2 = qs.chain_shape(2, ">")
_CYCLE2 = qs.cycle_shape(2, "><")

# every function that takes a quiver of one kind, called on the other kind
WRONG_KIND_CALLS = {
    "canon_chain": (lambda: qs.canon_chain(qs.assemble(_CYCLE2, ())), "chain", "cycle"),
    "shave": (lambda: qs.shave(qs.assemble(_CHAIN2, ())), "cycle", "chain"),
    "monodromy": (lambda: qs.monodromy(qs.assemble(_CHAIN2, ())), "cycle", "chain"),
    "regularize": (lambda: qs.regularize(qs.assemble(_CHAIN2, ())), "cycle", "chain"),
    "push_down": (lambda: qs.push_down(None, 1, 0, _CHAIN2), "cycle", "chain"),
    "g_label_dims": (lambda: qs.g_label_dims(_CHAIN2, 1, 1), "cycle", "chain"),
    "make_G": (lambda: qs.make_G(1, 1, _CHAIN2), "cycle", "chain"),
}


@pytest.mark.parametrize("who", WRONG_KIND_CALLS)
def test_wrong_kind_named(who):
    call, want, got = WRONG_KIND_CALLS[who]
    with pytest.raises(ValidationError, match=f"^{who} needs a {want}, got a {got}$"):
        call()


class TestRepresentation:
    def test_shape_validation(self):
        shape = qs.chain_shape(2, ">")
        with pytest.raises(ValidationError):
            qs.Representation(shape, (1, 2), (np.zeros((1, 1)),))
        qs.Representation(shape, (1, 2), (np.zeros((2, 1)),))

    def test_degenerate_shapes_disambiguated(self):
        shape = qs.chain_shape(2, ">")
        rep = qs.Representation(shape, (1, 0), (np.zeros((0, 1)),))
        assert rep.matrices[0].shape == (0, 1)
        with pytest.raises(ValidationError):
            qs.Representation(shape, (1, 0), (np.zeros((1, 0)),))

    @pytest.mark.parametrize("bad", [1.9, "1", True], ids=["float", "string", "bool"])
    def test_non_integer_dims_rejected(self, bad):
        with pytest.raises(ValidationError, match="'dims' must be integers"):
            qs.Representation(qs.chain_shape(2, ">"), (bad, 1), (np.eye(1),))

    def test_numpy_integer_dims_accepted(self):
        rep = qs.Representation(qs.chain_shape(2, ">"), (np.int64(1), np.int32(1)), (np.eye(1),))
        assert rep.dims == (1, 1) and all(type(d) is int for d in rep.dims)

    def test_non_finite_entry_names_the_arrow(self):
        with pytest.raises(ValidationError, match=r"arrow 2 \(3->2\): non-finite"):
            qs.Representation(qs.chain_shape(3, "><"), (1, 1, 1), (np.eye(1), [[np.nan]]))

    def test_matrices_read_only(self):
        rep = qs.Representation(qs.chain_shape(2, ">"), (1, 1), (np.eye(1),))
        with pytest.raises(ValueError):
            rep.matrices[0][0, 0] = 5


class TestDirectSum:
    def test_neutral_element(self):
        shape = qs.cycle_shape(2, "><")
        a = qs.Representation(shape, (1, 1), (np.eye(1), 2 * np.eye(1)))
        z = qs.assemble(shape, ())
        s = qs.direct_sum(a, z)
        assert s.dims == a.dims
        assert all(np.array_equal(x, y) for x, y in zip(s.matrices, a.matrices))

    def test_identity_blocks(self):
        shape = qs.cycle_shape(2, ">>")
        one = qs.Representation(shape, (1, 1), (np.eye(1), np.eye(1)))
        s = qs.direct_sum(one, one)
        assert s.dims == (2, 2)
        assert np.array_equal(s.matrices[0], np.eye(2))
        assert np.array_equal(s.matrices[1], np.eye(2))

    def test_degenerate_stacking_appends_zero_rows(self):
        # M_{p x q} (+) 0_{m x 0} = [M; 0_{m x q}]
        shape = qs.chain_shape(2, ">")
        m = np.array([[1, 2], [3, 4], [5, 6]], dtype=complex)
        a = qs.Representation(shape, (2, 3), (m,))
        b = qs.Representation(shape, (0, 2), (np.zeros((2, 0)),))
        s = qs.direct_sum(a, b)
        assert s.matrices[0].shape == (5, 2)
        assert np.array_equal(s.matrices[0][:3], m)
        assert np.allclose(s.matrices[0][3:], 0)

    def test_shape_mismatch(self):
        a = qs.assemble(qs.cycle_shape(2, "><"), ())
        b = qs.assemble(qs.cycle_shape(2, ">>"), ())
        with pytest.raises(ValidationError):
            qs.direct_sum(a, b)


class TestTranspose:
    def test_involution(self):
        rng = np.random.default_rng(0)
        shape = qs.cycle_shape(3, "><>")
        dims = (2, 3, 1)
        mats = []
        for i in range(1, 4):
            u, v = shape.arrow_ends(i)
            mats.append(random_complex(rng, dims[v - 1], dims[u - 1]))
        rep = qs.Representation(shape, dims, tuple(mats))
        back = qs.transpose_rep(qs.transpose_rep(rep))
        assert back.shape == rep.shape
        assert all(np.array_equal(x, y) for x, y in zip(back.matrices, rep.matrices))

    def test_transpose_not_conjugated(self):
        shape = qs.cycle_shape(2, "><")
        rep = qs.Representation(shape, (1, 1), (1j * np.eye(1), np.eye(1)))
        t = qs.transpose_rep(rep)
        assert t.matrices[0][0, 0] == 1j

    def test_isomorphic_pair_stays_isomorphic(self):
        # {S_v}: A -> B implies {S_v^T}: B^T -> A^T
        rng = np.random.default_rng(1)
        shape = qs.cycle_shape(2, ">>")
        dims = (2, 2)
        rep = qs.Representation(shape, dims, (random_complex(rng, 2, 2), random_complex(rng, 2, 2)))
        s = [qs.random_unitary(2, [5, v]) for v in (1, 2)]
        other = qs.apply_isomorphism(rep, s)
        st = [m.T for m in s]
        assert iso_residual(qs.transpose_rep(other), qs.transpose_rep(rep), st) < 1e-12


class TestIsomorphism:
    def _random_rep(self, seed=0):
        rng = np.random.default_rng(seed)
        shape = qs.cycle_shape(2, ">>")
        return qs.Representation(
            shape, (2, 2), (np.eye(2), qs.jordan_block(2, 0))
        ), rng

    def test_identity_transform(self):
        rep, _ = self._random_rep()
        out = qs.apply_isomorphism(rep, [np.eye(2), np.eye(2)])
        assert all(np.allclose(x, y) for x, y in zip(out.matrices, rep.matrices))

    def test_scalar_transform(self):
        rep, _ = self._random_rep()
        out = qs.apply_isomorphism(rep, [3.0 * np.eye(2), 3.0 * np.eye(2)])
        assert all(np.allclose(x, y) for x, y in zip(out.matrices, rep.matrices))

    def test_unitary_residual(self):
        rep, _ = self._random_rep()
        s = [qs.random_unitary(2, [77, v]) for v in (1, 2)]
        out = qs.apply_isomorphism(rep, s)
        assert iso_residual(rep, out, s) <= 1e-12 * qs.representation_scale(rep)

    def test_singular_transform_rejected(self):
        rep, _ = self._random_rep()
        with pytest.raises(ValidationError):
            qs.apply_isomorphism(rep, [np.zeros((2, 2)), np.eye(2)])

    def test_residual_zero_case_and_norm_case(self):
        rep, _ = self._random_rep()
        ident = [np.eye(2), np.eye(2)]
        zero = qs.Representation(rep.shape, rep.dims, (np.zeros((2, 2)), np.zeros((2, 2))))
        assert iso_residual(rep, rep, ident) == 0
        expect = max(np.linalg.norm(m) for m in rep.matrices)
        assert iso_residual(rep, zero, ident) == pytest.approx(expect)

    def test_residual_matches_entrywise_oracle(self):
        # Brute-force the commuting-square defect entry by entry.
        shape = qs.cycle_shape(2, ">>")
        a1 = np.array([[1, 2], [3, 4]], dtype=complex)
        a2 = np.array([[0, 1], [1, 0]], dtype=complex)
        b1 = np.array([[1, 0], [0, 1]], dtype=complex)
        b2 = np.array([[2, 0], [0, 2]], dtype=complex)
        s1 = np.diag([1.0, 2.0]).astype(complex)
        s2 = np.diag([3.0, 4.0]).astype(complex)
        a = qs.Representation(shape, (2, 2), (a1, a2))
        b = qs.Representation(shape, (2, 2), (b1, b2))
        worst = 0.0
        for mat_a, mat_b, s_src, s_tgt in ((a1, b1, s1, s2), (a2, b2, s2, s1)):
            acc = 0.0
            for r in range(2):
                for c in range(2):
                    lhs = sum(s_tgt[r, k] * mat_a[k, c] for k in range(2))
                    rhs = sum(mat_b[r, k] * s_src[k, c] for k in range(2))
                    acc += abs(lhs - rhs) ** 2
            worst = max(worst, acc**0.5)
        assert iso_residual(a, b, [s1, s2]) == pytest.approx(worst)


class TestMakeL:
    """Interval summands ``L(i, j)``, as :func:`assemble` makes them."""

    def test_single_vertex_on_two_chain(self):
        forward = assemble(qs.chain_shape(2, ">"), [((1, 1), 1)])
        assert forward.dims == (1, 0)
        assert forward.matrices[0].shape == (0, 1)
        backward = assemble(qs.chain_shape(2, "<"), [((1, 1), 1)])
        assert backward.matrices[0].shape == (1, 0)

    def test_full_interval(self):
        shape = qs.chain_shape(4, "><>")
        rep = assemble(shape, [((1, 4), 1)])
        assert rep.dims == (1, 1, 1, 1)
        assert all(np.array_equal(m, np.eye(1)) for m in rep.matrices)

    def test_inner_interval(self):
        rep = assemble(qs.chain_shape(4, ">>>"), [((2, 3), 1)])
        assert rep.dims == (0, 1, 1, 0)
        assert rep.matrices[1].shape == (1, 1)
        assert rep.matrices[0].shape == (1, 0)
        assert rep.matrices[2].shape == (0, 1)

    def test_out_of_range(self):
        shape = qs.chain_shape(3, ">>")
        for bad in ((0, 1), (2, 1), (1, 4)):
            with pytest.raises(ValidationError):
                assemble(shape, [(bad, 1)])


class TestMakeG:
    def test_golden_walk_on_six_cycle(self):
        shape = qs.cycle_shape(6, "><<>><")
        rep = qs.make_G(1, 9, shape)
        assert rep.dims == (2, 2, 2, 1, 1, 1)
        expect = [
            np.eye(2),
            np.eye(2),
            np.array([[1.0], [0.0]]),
            np.eye(1),
            np.eye(1),
            np.array([[0.0, 1.0]]),
        ]
        for got, want in zip(rep.matrices, expect):
            assert np.array_equal(got, want)

    def test_single_point_walk(self):
        shape = qs.cycle_shape(4, ">>>>")
        rep = qs.make_G(1, 1, shape)
        assert rep.dims == (1, 0, 0, 0)

    def test_nilpotent_walks(self):
        # G(l, l-1+pt) is all identities except a rank (p-1) nilpotent block
        # at arrow [l-1]: the Jordan block J_p(0) when that arrow points
        # counterclockwise, its transpose when clockwise.
        rng = np.random.default_rng(5)
        for trial in range(20):
            t = int(rng.integers(2, 6))
            orient = "".join("><"[rng.integers(0, 2)] for _ in range(t))
            shape = qs.cycle_shape(t, orient)
            l = int(rng.integers(1, t + 1))
            p = int(rng.integers(1, 4))
            rep = qs.make_G(l, l - 1 + p * t, shape)
            assert rep.dims == (p,) * t
            special = shape.wrap(l - 1)
            jp = qs.jordan_block(p, 0)
            for i in range(1, t + 1):
                m = rep.matrices[i - 1]
                if i != special:
                    assert np.array_equal(m, np.eye(p)), (trial, i)
                elif shape.is_clockwise(i):
                    assert np.array_equal(m, jp.T)
                else:
                    assert np.array_equal(m, jp)

    def test_at_most_one_entry_per_row_and_column(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            t = int(rng.integers(2, 7))
            orient = "".join("><"[rng.integers(0, 2)] for _ in range(t))
            shape = qs.cycle_shape(t, orient)
            l = int(rng.integers(1, t + 1))
            r = l + int(rng.integers(0, 3 * t))
            rep = qs.make_G(l, r, shape)
            assert sum(rep.dims) == r - l + 1
            for m in rep.matrices:
                assert np.abs(m).sum(axis=0).max(initial=0) <= 1
                assert np.abs(m).sum(axis=1).max(initial=0) <= 1

    def test_out_of_range(self):
        shape = qs.cycle_shape(3, ">>>")
        with pytest.raises(ValidationError):
            qs.make_G(0, 2, shape)
        with pytest.raises(ValidationError):
            qs.make_G(4, 5, shape)
        with pytest.raises(ValidationError):
            qs.make_G(2, 1, shape)


def _walk_summand(shape, l, r):
    """One interval or walk summand, built position by position as a reference.

    Position ``q`` of the walk lies over vertex ``[q]``; a vertex's basis is
    its positions in increasing order, and the step ``q -> q+1`` puts a 1 on
    arrow ``[q]`` in the direction that arrow points.
    """
    over = {v: [q for q in range(l, r + 1) if shape.wrap(q) == v] for v in range(1, shape.t + 1)}
    index = {q: k for v in over for k, q in enumerate(over[v])}
    dims = tuple(len(over[v]) for v in range(1, shape.t + 1))
    mats = []
    for a in range(1, shape.arrow_count + 1):
        u, v = shape.arrow_ends(a)
        mats.append(np.zeros((dims[v - 1], dims[u - 1]), dtype=complex))
    for q in range(l, r):
        a = shape.wrap(q)
        if shape.is_clockwise(a):
            mats[a - 1][index[q + 1], index[q]] = 1
        else:
            mats[a - 1][index[q], index[q + 1]] = 1
    return qs.Representation(shape, dims, tuple(mats))


def _random_labels(rng, shape):
    t = shape.t
    labels = []
    for _ in range(int(rng.integers(0, 6))):
        a = int(rng.integers(1, t + 1))
        if shape.kind == qs.CHAIN:
            b = int(rng.integers(a, t + 1))
        else:
            b = a + int(rng.integers(0, 3 * t))  # walks up to three times round
        labels.append(((a, b), int(rng.integers(0, 4))))
    return labels


class TestAssemble:
    @pytest.mark.parametrize("kind", [qs.CHAIN, qs.CYCLE])
    def test_equals_iterated_direct_sum(self, kind):
        rng = np.random.default_rng(11)
        for trial in range(60):
            t = int(rng.integers(1 if kind == qs.CHAIN else 2, 7))
            arrows = t - 1 if kind == qs.CHAIN else t
            shape = qs.QuiverShape(kind, t, "".join("><"[rng.integers(0, 2)] for _ in range(arrows)))
            labels = _random_labels(rng, shape)
            want = qs.assemble(shape, ())
            for (a, b), m in labels:
                for _ in range(m):
                    want = qs.direct_sum(want, _walk_summand(shape, a, b))
            got = assemble(shape, labels)
            assert got.dims == want.dims, (trial, labels)
            for x, y in zip(got.matrices, want.matrices):
                assert x.dtype == y.dtype and np.array_equal(x, y), (trial, labels)

    def test_negative_multiplicity_rejected(self):
        negative = r"label \(1, 2\) needs an integer multiplicity >= 0, got -1"
        with pytest.raises(ValidationError, match=negative):
            assemble(qs.chain_shape(3, ">>"), [((1, 2), 2), ((1, 2), -1)])

    @pytest.mark.parametrize(
        "build",
        [
            lambda: qs.make_G(1, 2.5, qs.cycle_shape(3, ">>>")),
            lambda: assemble(qs.chain_shape(3, ">>"), [((1.0, 2), 1)]),
            lambda: assemble(qs.chain_shape(3, ">>"), [((1, 2), 1.5)]),
            lambda: qs.g_label_dims(qs.cycle_shape(3, ">>>"), "1", 2),
        ],
        ids=["make-G-float-bound", "make-L-float-bound", "assemble-float-count", "g-dims-string-bound"],
    )
    def test_non_integer_label_rejected(self, build):
        with pytest.raises(ValidationError, match="must be integers"):
            build()

    def test_numpy_integer_labels_accepted(self):
        shape = qs.cycle_shape(3, ">>>")
        got = assemble(shape, [((np.int64(1), np.int32(2)), np.int64(2))])
        assert got.dims == assemble(shape, [((1, 2), 2)]).dims == (2, 2, 0)

    def test_label_dims(self):
        assert label_dims(2, []) == (0, 0)
        assert label_dims(4, [((4, 13), 1)]) == (3, 2, 2, 3)
        # (3, 7) wraps over vertices 3, 1, 2, 3, 1; a zero multiplicity adds nothing
        assert label_dims(3, [((1, 3), 2), ((2, 2), 0), ((3, 7), 1)]) == (4, 3, 4)
        assert label_dims(4, Counter({(1, 2): 1, (2, 4): 3}).items()) == (1, 4, 3, 3)

    def test_g_label_dims(self):
        shape = qs.cycle_shape(4, "<><>")
        assert qs.g_label_dims(shape, 1, 1) == (1, 0, 0, 0)
        assert qs.g_label_dims(shape, 2, 9) == (2, 2, 2, 2)
        assert qs.g_label_dims(shape, 4, 13) == (3, 2, 2, 3)
        with pytest.raises(ValidationError):
            qs.g_label_dims(qs.chain_shape(4, "<><"), 1, 2)


class TestIsRegular:
    """Regularity as :func:`regularity_defect` judges it at an input's threshold."""

    def test_identities(self):
        shape = qs.cycle_shape(2, "><")
        rep = qs.Representation(shape, (3, 3), (np.eye(3), np.eye(3)))
        assert is_regular(rep)

    def test_nilpotent_not_regular(self):
        shape = qs.cycle_shape(2, "><")
        rep = qs.Representation(shape, (2, 2), (np.eye(2), qs.jordan_block(2, 0)))
        assert not is_regular(rep)

    def test_jordan_nonzero_eigenvalue(self):
        shape = qs.cycle_shape(3, ">>>")
        rep = qs.Representation(shape, (2, 2, 2), (np.eye(2), np.eye(2), qs.jordan_block(2, 2.0)))
        assert is_regular(rep)

    def test_uneven_dims(self):
        shape = qs.cycle_shape(2, "><")
        rep = qs.Representation(shape, (1, 2), (np.zeros((2, 1)), np.zeros((2, 1))))
        assert not is_regular(rep)

    def test_judged_at_the_whole_input_scale(self):
        # 1e-3 * I is nonsingular at its own scale but zero beside 1e6 * I.
        shape = qs.cycle_shape(2, "><")
        rep = qs.Representation(shape, (2, 2), (1e6 * np.eye(2), 1e-3 * np.eye(2)))
        assert not is_regular(rep)
        assert is_regular(rep, qs.TolerancePolicy(rel_factor=1e-10))
