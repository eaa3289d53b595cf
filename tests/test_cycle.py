import dataclasses
import json
from collections import Counter

import numpy as np
import pytest

import quiverstair as qs
from conftest import (
    add_noise, is_regular, primed_chain_for_walk, random_cycle_spec, wide_cycle_spec,
)
from quiverstair import cli, cycle, files, linalg
from quiverstair.cycle import _walk_layout
from quiverstair.linalg import _fro
from quiverstair.errors import InconsistencyError, NumericError, ValidationError
from quiverstair.quiver import assemble, regularity_defect
from strip_mask_loop import staircase_residual


def assemble_cycle(spec):
    """Unscrambled direct sum described by a cycle plant spec."""
    rep = qs.assemble(spec.shape, ())
    for (a, b), mult in spec.labels:
        for _ in range(mult):
            rep = qs.direct_sum(rep, qs.make_G(a, b, spec.shape))
    if spec.regular_eigs:
        nd = len(spec.regular_eigs)
        mats = [np.eye(nd, dtype=complex) for _ in range(spec.shape.t)]
        x = np.diag(np.asarray(spec.regular_eigs, dtype=complex))
        if not spec.shape.is_clockwise(spec.shape.t):
            x = np.diag(1.0 / np.asarray(spec.regular_eigs, dtype=complex))
        mats[-1] = x
        rep = qs.direct_sum(rep, qs.Representation(spec.shape, (nd,) * spec.shape.t, tuple(mats)))
    return rep


class TestShaveBasics:
    def test_all_identities_nothing_to_shave(self):
        shape = qs.cycle_shape(3, ">>>")
        rep = qs.Representation(shape, (2, 2, 2), tuple(np.eye(2) for _ in range(3)))
        res = qs.shave(rep)
        assert res.l == shape.t + 1
        assert res.a_prime is None
        assert res.a_tilde.dims == rep.dims
        assert all(np.array_equal(x, y) for x, y in zip(res.a_tilde.matrices, rep.matrices))

    def test_nothing_to_shave_returns_the_input(self):
        shape = qs.cycle_shape(2, "><")
        rep = qs.Representation(shape, (2, 2), (np.eye(2), 3 * np.eye(2)))
        assert qs.shave(rep).a_tilde is rep

    def test_degenerate_zero_row_arrow_is_legal(self):
        # Clockwise arrows carrying 0 x q matrices satisfy the row condition
        # vacuously; the shave must pass through without error.
        shape = qs.cycle_shape(3, ">><")
        rep = qs.Representation(
            shape,
            (2, 0, 0),
            (np.zeros((0, 2)), np.zeros((0, 0)), np.zeros((0, 2))),
        )
        res = qs.shave(rep)
        assert res.l == shape.t + 1
        assert res.a_prime is None

    def test_precheck_skips_counterclockwise(self):
        shape = qs.cycle_shape(2, "><")
        rep = qs.Representation(shape, (1, 1), (np.eye(1), np.zeros((1, 1))))
        res = qs.shave(rep)
        assert res.l == 3
        assert res.a_prime is None

    def test_planted_nilpotent_shaves_completely(self):
        # Nilpotent walks G(l, l-1+pt) whose deficient arrow is clockwise are
        # consumed entirely by the first pass.
        for t, orient, start, p in ((2, ">>", 1, 2), (3, ">>>", 1, 2), (4, ">><>", 1, 2)):
            shape = qs.cycle_shape(t, orient)
            rep = qs.make_G(start, start - 1 + p * t, shape)
            s = [qs.random_unitary(d, [t, v]) for v, d in enumerate(rep.dims, 1)]
            scrambled = qs.apply_isomorphism(rep, s)
            res = qs.shave(scrambled)
            assert res.l <= t
            assert all(d == 0 for d in res.a_tilde.dims), (t, res.a_tilde.dims)
            pushed = qs.push_down(res.a_prime, res.l, res.n, shape)
            assert pushed.dims == rep.dims

    def test_dimension_ledger(self):
        for seed in range(20):
            rep, _ = qs.plant(random_cycle_spec(seed))
            res = qs.shave(rep)
            pushed = qs.push_down(res.a_prime, res.l, res.n, rep.shape)
            for v in range(rep.shape.t):
                assert pushed.dims[v] + res.a_tilde.dims[v] == rep.dims[v]

    def test_row_condition_on_tilde(self):
        for seed in range(20):
            rep, _ = qs.plant(random_cycle_spec(seed))
            res = qs.shave(rep)
            for i in range(1, rep.shape.t + 1):
                if rep.shape.is_clockwise(i):
                    m = res.a_tilde.matrices[i - 1]
                    assert qs.numerical_rank(m, threshold=res.threshold) == m.shape[0]

    def test_column_rank_preservation(self):
        # A counterclockwise arrow with independent columns keeps them.
        for seed in range(20):
            rep, _ = qs.plant(random_cycle_spec(seed))
            res = qs.shave(rep)
            for i in range(1, rep.shape.t + 1):
                if not rep.shape.is_clockwise(i):
                    m_in = rep.matrices[i - 1]
                    if qs.numerical_rank(m_in, threshold=res.threshold) == m_in.shape[1]:
                        m_out = res.a_tilde.matrices[i - 1]
                        assert (
                            qs.numerical_rank(m_out, threshold=res.threshold)
                            == m_out.shape[1]
                        ), (seed, i)

    def test_glue_residual_small(self):
        for seed in range(20):
            rep, _ = qs.plant(random_cycle_spec(seed))
            res = qs.shave(rep)
            scale = max(qs.representation_scale(rep), 1.0)
            assert max(block_loop_misfits(rep, res)) <= 1e-8 * scale

    @pytest.mark.parametrize(
        "shape, labels, count",
        [(qs.cycle_shape(2, ">>"), (((1, 4), 1), ((1, 1), 1)), 4), (qs.cycle_shape(3, "><>"), (), 0)],
        ids=["shaved", "nothing-to-shave"],
    )
    def test_steps_count_the_walk(self, shape, labels, count):
        rep, _ = qs.plant(qs.PlantSpec(shape, labels, regular_eigs=(2.0,), seed=1))
        res = qs.shave(rep)
        assert len(res.steps) == res.n - res.l + 1 == count

    def test_trace_unitary(self):
        rep, _ = qs.plant(random_cycle_spec(3))
        res = qs.shave(rep)
        for s in res.trace:
            assert qs.unitarity_defect(s) <= 1e-12 * max(1, max(rep.dims))

    def test_rejects_chains(self):
        with pytest.raises(ValidationError):
            qs.shave(qs.assemble(qs.chain_shape(2, ">"), ()))


def _glue_blocks(res, shape):
    """Per vertex, ``(position, offset, size)`` of each block of its basis after
    the shave: chain positions over it in walk order, then the cycle part at
    position ``inf``."""
    out = {}
    for v in range(1, shape.t + 1):
        blocks, off = [], 0
        for q in range(res.l + 1, res.n + 2):
            if shape.wrap(q) == v:
                size = res.a_prime.dims[q - res.l - 1]
                blocks.append((q, off, size))
                off += size
        out[v] = blocks + [(float("inf"), off, res.a_tilde.dims[v - 1])]
    return out


def block_loop_misfits(rep, res):
    """Per arrow, the norm of the input in the bases of ``res.trace`` minus
    ``push_down(a_prime) ⊕ a_tilde``, built by the public functions, over the
    blocks the glue pins, found by a loop: the check of each shave's glue, in
    the scaled norm of the composed residual."""
    shape, s, blocks = rep.shape, res.trace, _glue_blocks(res, rep.shape)
    glued = qs.direct_sum(qs.push_down(res.a_prime, res.l, res.n, shape), res.a_tilde)
    out = []
    for i in range(1, shape.t + 1):
        u, v = shape.arrow_ends(i)
        diff = s[v - 1] @ rep.matrices[i - 1] @ s[u - 1].conj().T - glued.matrices[i - 1]
        include = np.zeros(diff.shape, dtype=bool)
        for qr, r0, dr in blocks[v]:
            for qc, c0, dc in blocks[u]:
                if qr <= qc + 1 or (qr == float("inf") and qc == res.n + 1):
                    include[r0 : r0 + dr, c0 : c0 + dc] = True
        out.append(_fro(diff[include]))
    return out


def _moved(rep, res):
    s = res.trace
    ends = [rep.shape.arrow_ends(i) for i in range(1, rep.shape.t + 1)]
    return [s[v - 1] @ m @ s[u - 1].conj().T for m, (u, v) in zip(rep.matrices, ends)]


def _zero_maps(shape, dims):
    mats = []
    for i in range(1, shape.t + 1):
        u, v = shape.arrow_ends(i)
        mats.append(np.zeros((dims[v - 1], dims[u - 1])))
    return qs.Representation(shape, dims, tuple(mats))


class TestGlueMask:
    """The composed residual sees exactly the entries the first shave's glue pins outside
    its chain blocks and its cycle part: chain rows against chain columns above the block
    diagonal, chain rows against cycle columns, and cycle rows only against the last chain
    position ``n + 1``.  A chain block is the chain stage's to judge and the cycle part the
    second pass's; ``TestComposedResidual.test_mask_equals_the_block_loop`` covers both."""

    SHAPE = qs.cycle_shape(2, ">>")
    SPEC = qs.PlantSpec(SHAPE, (((1, 4), 1), ((1, 1), 1)), regular_eigs=(2.0,), seed=1)
    INF = float("inf")

    # (arrow, row position, column position, kept by the mask), in the first pass's frame
    CASES = [
        (1, 6, 3, False),  # chain x chain, qr > qc + 1
        (2, INF, 6, True),  # cycle rows x chain column at n + 1
        (2, INF, 4, False),  # cycle rows x another chain column
        (1, 4, INF, True),  # chain rows x cycle columns
    ]

    @pytest.fixture(scope="class")
    def solved(self):
        rep, _ = qs.plant(self.SPEC)
        dec = qs.regularize(rep)
        res = dec.shaves[0]
        assert (res.l, res.n, res.a_prime.dims) == (2, 5, (2, 1, 1, 1))
        return rep, dec

    @pytest.mark.parametrize("arrow, qr, qc, kept", CASES)
    def test_bump_in_block(self, solved, arrow, qr, qc, kept):
        # dec.trace lists the first pass's walk positions first at every vertex, then its
        # cycle part, so the first pass's blocks sit at the offsets its glue gives them
        rep, dec = solved
        u, v = self.SHAPE.arrow_ends(arrow)
        blocks = _glue_blocks(dec.shaves[0], self.SHAPE)
        r0 = next(off for q, off, size in blocks[v] if q == qr and size)
        c0 = next(off for q, off, size in blocks[u] if q == qc and size)
        bump = np.zeros(rep.matrices[arrow - 1].shape, dtype=complex)
        bump[r0, c0] = 1e-3
        s = dec.trace
        mats = list(rep.matrices)
        mats[arrow - 1] = mats[arrow - 1] + s[v - 1].conj().T @ bump @ s[u - 1]
        bumped = qs.Representation(self.SHAPE, rep.dims, tuple(mats))
        got = dataclasses.replace(dec, a=bumped).residual
        assert dec.residual <= 1e-14
        if kept:
            assert got == pytest.approx(1e-3, rel=1e-9)
        else:
            assert got == pytest.approx(dec.residual, abs=1e-15)


class TestShaveSteps:
    """What a shave step applies: no SVD to pass an arrow of full row rank, and no
    transform at all when a counterclockwise step shaves nothing."""

    def test_start_scan_compresses_only_the_arrow_it_stops_at(self, monkeypatch):
        # arrow 1 has full row rank, as tau's singular values show; arrow 2 lacks it
        shape = qs.cycle_shape(3, ">>>")
        mats = (np.eye(2), np.diag([1.0, 0.0]), np.eye(2))
        rep = qs.Representation(shape, (2, 2, 2), mats)
        seen = []
        compress = cycle.row_compress

        def counted(a, tau):
            seen.append(a)
            return compress(a, tau)

        monkeypatch.setattr(cycle, "row_compress", counted)
        res = qs.shave(rep)
        assert res.l == 2
        assert np.array_equal(seen[0], mats[1])
        # with rel_factor 0 the threshold takes no singular values: every arrow is compressed
        seen.clear()
        assert qs.shave(rep, qs.TolerancePolicy(rel_factor=0.0)).l == 2
        assert np.array_equal(seen[0], mats[0]) and np.array_equal(seen[1], mats[1])

    @pytest.mark.parametrize("seed", [8, 13, 27])
    def test_counterclockwise_step_of_rank_zero_moves_nothing(self, monkeypatch, seed):
        # at rank 0 any unitary is a valid answer of col_compress; if the step applied it,
        # cur, the trace at the vertex ahead and the next arrow would follow it
        rep, _ = qs.plant(random_cycle_spec(seed))
        plain = qs.shave(rep)
        compress = cycle.col_compress
        zero = []

        def scrambled(a, tau):
            w, k = compress(a, tau)
            if k:
                return w, k
            zero.append(a.shape)
            return qs.random_unitary(len(w), seed), k

        monkeypatch.setattr(cycle, "col_compress", scrambled)
        other = qs.shave(rep)
        assert any(rows for rows, _ in zero)  # a nonempty strip of rank 0
        for got, want in [
            (other.a_tilde.matrices, plain.a_tilde.matrices),
            (other.a_prime.matrices, plain.a_prime.matrices),
            (other.trace, plain.trace),
        ]:
            assert all(np.array_equal(x, y) for x, y in zip(got, want))


class TestShaveReductionResidual:
    """``reduction_residual`` of a decomposition, which measures both shaves' glue: exact
    zeros on zero maps, a fit to the input first, and the input's scale."""

    SHAPE, SPEC = TestGlueMask.SHAPE, TestGlueMask.SPEC

    @pytest.fixture(scope="class")
    def solved(self):
        rep, _ = qs.plant(self.SPEC)
        return rep, qs.regularize(rep)

    @pytest.mark.parametrize(
        "shape, dims",
        [(qs.cycle_shape(2, "><"), (2, 1)), (qs.cycle_shape(2, ">>"), (3, 0)),
         (qs.cycle_shape(3, "<><"), (2, 0, 3)), (qs.cycle_shape(3, ">>>"), (0, 0, 0))],
    )
    def test_all_zero_maps(self, shape, dims):
        assert qs.regularize(_zero_maps(shape, dims)).residual == 0.0

    def test_cycle_of_other_dims_raises(self, solved):
        rep, dec = solved
        other, _ = qs.plant(dataclasses.replace(self.SPEC, regular_eigs=(2.0, 3.0)))
        assert other.shape == rep.shape and other.dims != rep.dims
        with pytest.raises(ValidationError, match="does not fit"):
            qs.reduction_residual(other, dec)

    def test_split_that_does_not_fit_raises(self, solved):
        # a first shave that claims to have shaved nothing leaves more to the second
        # shave than its bases hold
        rep, dec = solved
        first, second = dec.shaves
        none = dataclasses.replace(first, a_prime=None, l=self.SHAPE.t + 1, n=self.SHAPE.t)
        short = dataclasses.replace(dec, shaves=(none, second), chains=(None, dec.chains[1]))
        with pytest.raises(ValidationError, match="does not fit"):
            qs.reduction_residual(rep, short)

    @pytest.mark.parametrize(
        "make",
        [lambda rep: qs.canon_chain(qs.assemble(qs.chain_shape(2, ">"), [((1, 2), 1)]))[0],
         qs.shave, lambda rep: object()],
        ids=["ChainCanonicalForm", "ShaveResult", "object"],
    )
    def test_result_without_a_rule_raises(self, solved, make):
        rep, _ = solved
        result = make(rep)
        want = f"^cannot measure a result of type {type(result).__name__}$"
        with pytest.raises(ValidationError, match=want):
            qs.reduction_residual(rep, result)

    def test_scaled_input_has_the_scaled_residual(self):
        # scaling by 2^900 is exact, entries near 1e270 stay finite, and so does the
        # max-abs scaled misfit, where a plain norm's squares overflow; every SVD is
        # taken at unit scale, so the whole run scales exactly
        rep, truth = qs.plant(wide_cycle_spec(0))
        big = qs.Representation(rep.shape, rep.dims, tuple(m * 2.0**900 for m in rep.matrices))
        dec, big_dec = qs.regularize(rep), qs.regularize(big)
        assert (big_dec.summands, big_dec.regular_dim()) == (dec.summands, dec.regular_dim())
        assert big_dec.threshold == dec.threshold * 2.0**900
        assert np.isfinite(big_dec.residual)
        assert big_dec.residual == pytest.approx(dec.residual * 2.0**900, rel=1e-12)
        assert qs.verify(big, big_dec, truth).passed


def staircase_mask(step, shape):
    """Where a chain step's staircase form demands a zero, read off ``staircase_residual``
    one unit matrix at a time."""
    axis = linalg.VERTICAL if step.orientation == ">" else linalg.HORIZONTAL
    out = np.zeros(shape, dtype=bool)
    for idx in np.ndindex(*shape):
        unit = np.zeros(shape)
        unit[idx] = 1.0
        out[idx] = staircase_residual(unit, step.strip_sizes, step.block_sizes, axis) > 0
    return out


def composed_block_loop_misfits(dec, moved):
    """Per arrow, the composed misfit of ``moved`` found by a loop over blocks: the reference
    for ``RegularizingDecomposition.misfits``.  Each pass, in its own frame, pins the blocks
    that ``block_loop_misfits`` pins, except that a chain block keeps only its staircase's
    demanded zeros and the pass's cycle part is left to the next pass; what remains after
    both is compared with ``regular_part``."""
    inf = float("inf")
    out = []
    for i, m in enumerate(moved, 1):
        frame, pieces = m, []
        for res, chain in zip(dec.shaves, dec.chains):
            shape = res.a_tilde.shape
            u, v = shape.arrow_ends(i)
            blocks = _glue_blocks(res, shape)
            include = np.zeros(frame.shape, dtype=bool)
            for qr, r0, dr in blocks[v]:
                for qc, c0, dc in blocks[u]:
                    rows, cols = slice(r0, r0 + dr), slice(c0, c0 + dc)
                    if qr == qc == inf:
                        continue
                    if qr < inf and qc < inf and abs(qr - qc) == 1 and (qr > qc) == shape.is_clockwise(i):
                        step = chain.steps[min(qr, qc) - res.l - 1]
                        include[rows, cols] = staircase_mask(step, (dr, dc))
                    elif qr <= qc + 1 or (qr == inf and qc == res.n + 1):
                        include[rows, cols] = True
            pieces.append(frame[include])
            frame = frame[blocks[v][-1][1] :, blocks[u][-1][1] :].T
        pieces.append((frame - dec.regular_part.matrices[i - 1]).ravel())
        out.append(_fro(np.concatenate(pieces)))
    return out


class TestComposedResidual:
    """``reduction_residual`` of a decomposition measures the composed reduction: both
    shaves' glue zeros, both chain stages' staircase zeros and the regular part, in the
    bases of ``dec.trace``, and ``verify`` reads nothing stored."""

    SPEC = TestGlueMask.SPEC

    @pytest.fixture(scope="class")
    def solved(self):
        rep, truth = qs.plant(self.SPEC)
        dec = qs.regularize(rep)
        assert qs.verify(rep, dec, truth).passed
        return rep, truth, dec

    # random cycles, and a t = 2 one with counterclockwise arrows, where a glue pins
    # positions on both sides of a chain block
    MASK_SPECS = [random_cycle_spec(seed) for seed in range(12)] + [
        qs.PlantSpec(qs.cycle_shape(2, "<>"), (((1, 4), 1), ((2, 5), 2), ((1, 1), 1)),
                     regular_eigs=(2.0,), seed=3),
    ]

    @pytest.mark.parametrize("k", range(len(MASK_SPECS)))
    def test_mask_equals_the_block_loop(self, k):
        # on random matrices every position counts, so a mask that differs anywhere shows
        rep, _ = qs.plant(self.MASK_SPECS[k])
        dec = qs.regularize(rep)
        rng = np.random.default_rng([73, k])
        moved = [rng.standard_normal(m.shape) + 1j * rng.standard_normal(m.shape) for m in rep.matrices]
        got = dec.misfits(rep.shape, moved)
        assert got == pytest.approx(composed_block_loop_misfits(dec, moved), rel=1e-12)
        assert dec.residual == max([0.0, *dec.misfits(rep.shape, _moved(rep, dec))])

    def test_planted_residuals_are_small(self):
        for seed in range(20):
            rep, _ = qs.plant(random_cycle_spec(seed))
            dec = qs.regularize(rep)
            assert dec.residual <= 1e-12 * max(qs.representation_scale(rep), 1.0), seed

    @pytest.mark.parametrize("v", range(2))
    def test_one_swapped_trace_unitary_fails_verify(self, solved, v):
        rep, truth, dec = solved
        trace = list(dec.trace)
        trace[v] = qs.random_unitary(rep.dims[v], [74, v])
        report = qs.verify(rep, dataclasses.replace(dec, trace=trace), truth)
        assert {c.name for c in report.checks if not c.passed} == {"residual"}

    def test_perturbed_regular_part_fails_verify(self, solved):
        rep, truth, dec = solved
        mats = list(dec.regular_part.matrices)
        mats[0] = mats[0] * 1.5
        regular = qs.Representation(dec.regular_part.shape, dec.regular_part.dims, tuple(mats))
        report = qs.verify(rep, dataclasses.replace(dec, regular_part=regular), truth)
        assert {c.name for c in report.checks if not c.passed} == {"residual"}

    def test_verify_measures_instead_of_reading(self, solved):
        rep, truth, dec = solved
        stale = dataclasses.replace(dec)
        stale.residual = 1.0
        report = qs.verify(rep, stale, truth)
        assert report.passed and report.residual == dec.residual < 1e-12

    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_a_matrix_per_arrow_or_raises(self, solved, count):
        rep, _, dec = solved
        moved = [*_moved(rep, dec), rep.matrices[0]][:count]
        assert len(moved) != rep.shape.t
        with pytest.raises(ValidationError, match="does not fit .* one per arrow"):
            dec.misfits(rep.shape, moved)

    def test_chain_stages_of_the_other_pass_raise(self, solved):
        # each pass's chain stage must fit that pass's shaved chain
        rep, _, dec = solved
        with pytest.raises(ValidationError, match="does not fit"):
            qs.reduction_residual(rep, dataclasses.replace(dec, chains=dec.chains[::-1]))

    # hand edits of a step that no staircase form fits; the first two read the
    # residual of the real stage unless the stage is checked
    STAGE_EDITS = {
        "float strip sizes": lambda step: dataclasses.replace(
            step, strip_sizes=[float(k) for k in step.strip_sizes]
        ),
        "flipped orientations": lambda step: dataclasses.replace(
            step, orientation="<" if step.orientation == ">" else ">"
        ),
        "strips that overfill their vertex": lambda step: dataclasses.replace(
            step, strip_sizes=[*step.strip_sizes, 1], block_sizes=[*step.block_sizes, 0]
        ),
    }

    @pytest.mark.parametrize("edit", STAGE_EDITS.values(), ids=STAGE_EDITS.keys())
    def test_hand_edited_chain_stage_raises(self, edit):
        spec = qs.PlantSpec(
            qs.cycle_shape(3, ">><"), (((1, 4), 2), ((2, 3), 1)), regular_eigs=(2, 3), seed=1
        )
        rep, _ = qs.plant(spec)
        dec = qs.regularize(rep)
        stage = dec.chains[0]
        assert stage.steps and qs.reduction_residual(rep, dec) < 1e-12
        edited = dataclasses.replace(stage, steps=[edit(step) for step in stage.steps])
        with pytest.raises(ValidationError, match="does not fit"):
            qs.reduction_residual(rep, dataclasses.replace(dec, chains=(edited, dec.chains[1])))

    def test_decomposition_that_does_not_fit_raises(self, solved):
        rep, _, dec = solved
        with pytest.raises(ValidationError, match="another quiver"):
            dec.misfits(qs.cycle_shape(2, "><"), _moved(rep, dec))
        short = dataclasses.replace(dec, regular_part=qs.assemble(self.SPEC.shape, ()))
        with pytest.raises(ValidationError, match="does not fit arrow 1"):
            qs.reduction_residual(rep, short)


class TestWalkLayout:
    def test_wrapping_walk_with_zero_sizes(self):
        # positions 2..6 lie over vertices 2, 3, 1, 2, 3
        shape = qs.cycle_shape(3, ">><")
        assert _walk_layout(shape, 2, [1, 2, 0, 3, 1]) == ([0, 0, 0, 1, 2], (0, 4, 3))

    def test_start_past_t(self):
        shape = qs.cycle_shape(3, ">>>")
        assert _walk_layout(shape, 5, [2, 1]) == ([0, 0], (0, 2, 1))

    def test_empty_walk(self):
        assert _walk_layout(qs.cycle_shape(2, "><"), 3, ()) == ([], (0, 0))


class TestPushDown:
    def test_empty_chain(self):
        shape = qs.cycle_shape(3, ">><")
        out = qs.push_down(None, shape.t + 1, shape.t, shape)
        assert out.dims == (0, 0, 0)

    def test_single_primed_vertex(self):
        # One chain vertex of dimension 1 over cycle vertex [l+1] = 2; every
        # cycle matrix is the degenerate zero block the dimensions dictate.
        shape = qs.cycle_shape(3, ">>>")
        chain = qs.Representation(qs.chain_shape(1, ""), (1,), ())
        out = qs.push_down(chain, 1, 1, shape)
        assert out.dims == (0, 1, 0)
        assert out.matrices[0].shape == (1, 0)
        assert out.matrices[1].shape == (0, 1)
        assert out.matrices[2].shape == (0, 0)

    def test_interval_pushes_to_walk(self):
        shape = qs.cycle_shape(4, "><<>")
        for i in range(1, 5):
            for j in range(i, i + 9):
                chain, l0, n0 = primed_chain_for_walk(shape, i, j)
                pushed = qs.push_down(chain, l0, n0, shape)
                walk = qs.make_G(i, j, shape)
                assert pushed.dims == walk.dims
                for x, y in zip(pushed.matrices, walk.matrices):
                    assert np.array_equal(x, y), (i, j)

    def test_padded_interval_matches_inner_walk(self):
        # Zero-dimension padding at both chain ends must not shift the walk.
        shape = qs.cycle_shape(3, ">><")
        l0, n0 = 2, 8
        m = n0 + 1 - l0
        orient = "".join(shape.orientations[shape.wrap(l0 + c) - 1] for c in range(1, m))
        chain_sh = qs.chain_shape(m, orient)
        inner = assemble(chain_sh, [((2, m - 1), 1)])
        pushed = qs.push_down(inner, l0, n0, shape)
        start = shape.wrap(l0 + 2)
        walk = qs.make_G(start, start + (m - 3), shape)
        assert pushed.dims == walk.dims
        for x, y in zip(pushed.matrices, walk.matrices):
            assert np.array_equal(x, y)

    def test_inconsistent_lengths_rejected(self):
        shape = qs.cycle_shape(3, ">>>")
        chain = assemble(qs.chain_shape(2, ">"), [((1, 2), 1)])
        with pytest.raises(ValidationError):
            qs.push_down(chain, 1, 4, shape)
        with pytest.raises(ValidationError):
            qs.push_down(None, 1, 3, shape)

    def test_orientation_mismatch_rejected(self):
        shape = qs.cycle_shape(3, ">>>")
        chain = assemble(qs.chain_shape(2, "<"), [((1, 2), 1)])
        with pytest.raises(ValidationError):
            qs.push_down(chain, 1, 2, shape)

    @pytest.mark.parametrize(
        "b_shape, l, n",
        [
            (qs.chain_shape(2, "<"), 1, 2),
            (qs.chain_shape(2, ">"), 1, 3),
            (qs.chain_shape(1, ""), 3, 2),
            (qs.cycle_shape(2, ">>"), 1, 2),
        ],
        ids=["orientation", "length", "walk-of-no-positions", "not-a-chain"],
    )
    def test_chain_off_the_walk_named(self, b_shape, l, n):
        # the one check: b's shape is the chain over walk positions l+1..n+1, compared whole
        b = qs.assemble(b_shape, ())
        want = rf"^push_down got a .*, not the chain over walk positions {l + 1}\.\.{n + 1}$"
        with pytest.raises(ValidationError, match=want):
            qs.push_down(b, l, n, qs.cycle_shape(3, ">>>"))


class TestMonodromy:
    def test_identities(self):
        shape = qs.cycle_shape(3, ">><")
        rep = qs.Representation(shape, (2, 2, 2), tuple(np.eye(2) for _ in range(3)))
        mono, eigs = qs.monodromy(rep)
        assert np.allclose(mono, np.eye(2))
        assert np.allclose(eigs, 1.0)

    def test_jordan_on_clockwise_closing_arrow(self):
        shape = qs.cycle_shape(3, ">>>")
        j = qs.jordan_block(3, 2.5)
        rep = qs.Representation(shape, (3, 3, 3), (np.eye(3), np.eye(3), j))
        _, eigs = qs.monodromy(rep)
        assert np.allclose(np.sort_complex(eigs), 2.5)

    def test_counterclockwise_arrow_uses_inverse(self):
        # Oracle: the explicit closed-form 2x2 inverse.
        shape = qs.cycle_shape(2, "><")
        m = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
        a1 = np.array([[2.0, 0.0], [0.0, 5.0]], dtype=complex)
        rep = qs.Representation(shape, (2, 2), (a1, m))
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        m_inv = np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]], dtype=complex) / det
        mono, _ = qs.monodromy(rep)
        assert np.allclose(mono, m_inv @ a1)

    def test_empty_cycle(self):
        rep = qs.assemble(qs.cycle_shape(3, "><>"), ())
        assert is_regular(rep)
        mono, eigs = qs.monodromy(rep)
        assert mono.shape == (0, 0) and eigs.shape == (0,) and eigs.dtype == np.complex128
        dec = qs.regularize(rep)
        assert dec.summands == Counter() and dec.regular_dim() == 0

    def test_requires_regular(self):
        # arrow 2 points counterclockwise: the inverse that would invert it rejects it
        shape = qs.cycle_shape(2, "><")
        rep = qs.Representation(shape, (2, 2), (np.eye(2), qs.jordan_block(2, 0)))
        with pytest.raises(ValidationError) as err:
            qs.monodromy(rep)
        assert str(err.value) == (
            "monodromy needs a regular representation: "
            "singular at arrow 2: sigma_min=0 <= threshold 1e-08"
        )

    @pytest.mark.parametrize(
        "orientations, mats",
        [
            ("><", (np.eye(2), np.diag([1.0, 1e-9]))),
            ("<>", (np.diag([1.0, 1e-9]), np.eye(2))),
            (">>", (np.eye(2), np.diag([1.0, 1e-9]))),
            ("<<", (np.diag([3.0, 2e-9]), np.diag([1.0, 1e-9]))),
            ("<>", (np.diag([3.0, 2e-9]), np.diag([1.0, 1e-9]))),
            ("><", (np.diag([3.0, 2e-9]), np.diag([1.0, 1e-9]))),
            ("<>", (np.ones((1, 1)), np.zeros((1, 1)))),
            ("><", (np.ones((1, 1)), np.zeros((1, 1)))),
            ("><", (np.ones((2, 1)), np.ones((2, 1)))),
        ],
        ids=["ccw", "ccw-first", "cw", "both-ccw", "ccw-then-cw", "cw-then-ccw",
             "cw-one-column", "ccw-one-column", "uneven"],
    )
    def test_defect_is_worded_as_regularity_defect_words_it(self, orientations, mats):
        # one wording, and the first offending arrow, whichever way it points
        shape = qs.cycle_shape(2, orientations)
        mats = tuple(np.asarray(m, dtype=complex) for m in mats)
        dims = (mats[0].shape[1], mats[0].shape[0]) if orientations[0] == ">" else mats[0].shape
        rep = qs.Representation(shape, dims, mats)
        tau = qs.DEFAULT_TOL.threshold(*rep.matrices)
        defect = regularity_defect(rep, tau)
        assert defect is not None
        with pytest.raises(ValidationError) as err:
            qs.monodromy(rep)
        assert str(err.value) == f"monodromy needs a regular representation: {defect}"

    @pytest.mark.parametrize(
        "diagonal, message",
        [((0.01, 100.0), "non-finite"), ((0.01, 0.02), "exactly 0")],
        ids=["overflow", "underflow"],
    )
    def test_product_out_of_range_is_numeric_error(self, tmp_path, capsys, recwarn, diagonal, message):
        # Every arrow is regular, but 200 of them multiply past the float64 range.
        a = np.diag(diagonal).astype(complex)
        rep = qs.Representation(qs.cycle_shape(200, ">" * 200), (2,) * 200, (a,) * 200)
        assert is_regular(rep)
        for entry in (qs.monodromy, qs.regularize):
            with pytest.raises(NumericError, match=message):
                entry(rep)
        path = tmp_path / "long.json"
        files.save_representation(path, rep)
        capsys.readouterr()
        assert cli.main(["regularize", str(path)]) == 3
        assert capsys.readouterr().err.startswith("numeric error: ")
        assert [w for w in recwarn if issubclass(w.category, RuntimeWarning)] == []


    @pytest.mark.parametrize("k", [200, -200])
    def test_product_beyond_float64_midway_keeps_the_decomposition(self, k):
        # six arrows scaled by 2^k, then six inverses scaled by 2^-k: the running
        # product passes 2^(6k) on the way round and ends near the unscaled one
        spec = qs.PlantSpec(
            qs.cycle_shape(12, ">>>>>><<<<<<"),
            (((1, 3), 1), ((5, 14), 2), ((9, 9), 1)),
            regular_eigs=(2, -1j, 0.5 + 0.5j),
            seed=4,
        )
        rep, _ = qs.plant(spec)
        scaled = qs.Representation(rep.shape, rep.dims, tuple(m * 2.0**k for m in rep.matrices))
        tol = qs.TolerancePolicy(abs_floor=1e-300)  # a floor below every scaled entry
        want, got = qs.regularize(rep, tol), qs.regularize(scaled, tol)
        assert (got.summands, got.regular_dim()) == (want.summands, want.regular_dim()) != ({}, 0)
        w, g = (np.sort_complex(d.monodromy_eigenvalues) for d in (want, got))
        np.testing.assert_allclose(g, w, rtol=1e-12, atol=0)


class TestRegularize:
    def test_regular_input_has_no_summands(self):
        shape = qs.cycle_shape(4, ">>><")
        j = qs.jordan_block(3, 3.0)
        # the closing arrow is counterclockwise, so carry the inverse block to
        # keep the monodromy eigenvalues at 3
        rep = qs.Representation(
            shape, (3, 3, 3, 3), (np.eye(3), np.eye(3), np.eye(3), np.linalg.inv(j))
        )
        s = [qs.random_unitary(3, [61, v]) for v in range(1, 5)]
        dec = qs.regularize(qs.apply_isomorphism(rep, s))
        assert not dec.summands
        assert dec.regular_dim() == 3
        assert np.allclose(np.sort_complex(dec.monodromy_eigenvalues), 3.0, atol=1e-6)

    def test_planted_walk_plus_regular(self):
        shape = qs.cycle_shape(4, "><<>")
        walk = qs.make_G(2, 5, shape)
        regular = qs.Representation(
            shape, (2, 2, 2, 2), (np.eye(2), np.eye(2), np.eye(2), np.diag([2.0, 3.0]))
        )
        rep = qs.direct_sum(walk, regular)
        s = [qs.random_unitary(d, [62, v]) for v, d in enumerate(rep.dims, 1)]
        dec = qs.regularize(qs.apply_isomorphism(rep, s))
        assert dec.summands == Counter({(2, 5): 1})
        assert dec.regular_dim() == 2
        assert np.allclose(np.sort_complex(dec.monodromy_eigenvalues), [2.0, 3.0], atol=1e-6)

    def test_kronecker_pencil_minimal_plus_nilpotent(self):
        shape = qs.cycle_shape(2, "><")
        f3, g3 = qs.f_block(3), qs.g_block(3)
        pencil = qs.Representation(shape, (3, 2), (f3, g3))
        nil = qs.Representation(shape, (2, 2), (np.eye(2), qs.jordan_block(2, 0)))
        rep = qs.direct_sum(pencil, nil)
        s = [qs.random_unitary(d, [63, v]) for v, d in enumerate(rep.dims, 1)]
        dec = qs.regularize(qs.apply_isomorphism(rep, s))
        assert dec.summands == Counter({(1, 5): 1, (1, 4): 1})
        assert dec.regular_dim() == 0

    def test_uniqueness_across_scrambles(self):
        spec = random_cycle_spec(12)
        base = assemble_cycle(spec)
        results = []
        for trial in range(2):
            s = [qs.random_unitary(d, [trial + 500, v]) for v, d in enumerate(base.dims, 1)]
            dec = qs.regularize(qs.apply_isomorphism(base, s))
            results.append((dec.summands, dec.regular_dim()))
        assert results[0] == results[1]

    def test_planted_recovery_batch(self):
        for seed in range(30):
            spec = random_cycle_spec(seed)
            rep, truth = qs.plant(spec)
            dec = qs.regularize(rep)
            report = qs.verify(rep, dec, truth)
            assert report.passed, (seed, [c for c in report.checks if not c.passed])

    def test_pass_provenance_accounts_for_all_labels(self):
        rep, _ = qs.plant(random_cycle_spec(7))
        dec = qs.regularize(rep)
        assert dec.summands_by_pass[0] + dec.summands_by_pass[1] == dec.summands

    def test_monodromy_spectrum_invariant_under_scramble(self):
        spec = random_cycle_spec(21)
        if not spec.regular_eigs:
            spec = qs.PlantSpec(
                shape=spec.shape, labels=spec.labels, regular_eigs=(2.0, -3.0), seed=21
            )
        base = assemble_cycle(spec)
        eigsets = []
        for trial in range(3):
            s = [qs.random_unitary(d, [trial + 900, v]) for v, d in enumerate(base.dims, 1)]
            dec = qs.regularize(qs.apply_isomorphism(base, s))
            eigsets.append(np.sort_complex(dec.monodromy_eigenvalues))
        for other in eigsets[1:]:
            assert np.allclose(eigsets[0], other, atol=1e-6 * max(abs(eigsets[0])))

    def test_composed_trace_is_unitary(self):
        rep, _ = qs.plant(random_cycle_spec(14))
        dec = qs.regularize(rep)
        for s in dec.trace:
            assert qs.unitarity_defect(s) <= 1e-12 * max(1, max(rep.dims))

    def test_composed_trace_exposes_regular_part(self):
        # Applying the two-pass trace to the input must leave the regular
        # part, entry for entry, in the trailing block of every arrow matrix.
        for seed in (2, 9, 14, 23):
            rep, _ = qs.plant(random_cycle_spec(seed))
            dec = qs.regularize(rep)
            d_reg = dec.regular_dim()
            moved = qs.apply_isomorphism(rep, dec.trace)
            scale = max(qs.representation_scale(rep), 1.0)
            for i in range(1, rep.shape.t + 1):
                m = moved.matrices[i - 1]
                block = m[m.shape[0] - d_reg :, m.shape[1] - d_reg :]
                gap = np.linalg.norm(block - dec.regular_part.matrices[i - 1])
                assert gap <= 1e-10 * scale, (seed, i, gap)

    def test_all_counterclockwise_cycle(self):
        # No clockwise arrows: the first pass is trivial and the transposed
        # pass must do all the work, with provenance recorded accordingly.
        shape = qs.cycle_shape(3, "<<<")
        spec = qs.PlantSpec(
            shape=shape, labels=(((2, 7), 1), ((1, 2), 1)), regular_eigs=(3.0,), seed=5
        )
        rep, truth = qs.plant(spec)
        dec = qs.regularize(rep)
        assert dec.summands == truth.label_counts()
        assert dec.regular_dim() == 1
        assert not dec.summands_by_pass[0]
        assert dec.summands_by_pass[1] == dec.summands
        assert dec.shaves[0].l == shape.t + 1

    def test_dimension_conservation(self):
        for seed in range(15):
            rep, _ = qs.plant(random_cycle_spec(seed))
            dec = qs.regularize(rep)
            assert dec.dims() == rep.dims

    def test_heavy_noise_does_not_crash(self):
        for seed in range(25):
            rep, _ = qs.plant(random_cycle_spec(seed))
            noisy = add_noise(rep, 1e-2, seed)
            try:
                dec = qs.regularize(noisy)
                assert dec.dims() == rep.dims
            except InconsistencyError:
                pass  # documented outcome on near-degenerate input

    def test_second_shave_keeps_the_first_threshold(self):
        # A walk at scale 1e6 beside a regular part at scale 1e-5: at the
        # input's scale the small part is noise and splits into G(v,v) pieces;
        # it must not be glued into a longer walk by a smaller second threshold.
        shape = qs.cycle_shape(3, "<><")

        def scaled(spec, factor):
            rep, _ = qs.plant(spec)
            return qs.Representation(shape, rep.dims, tuple(factor * m for m in rep.matrices))

        walk = scaled(qs.PlantSpec(shape=shape, labels=(((3, 8), 1),), seed=76), 1e6)
        small = scaled(qs.PlantSpec(shape=shape, labels=(), regular_eigs=(1.5,), seed=0), 1e-5)
        dec = qs.regularize(qs.direct_sum(walk, small))
        assert dec.summands == Counter({(1, 1): 1, (2, 2): 1, (3, 3): 1, (3, 8): 1})
        assert dec.regular_dim() == 0
        assert dec.shaves[0].threshold == dec.shaves[1].threshold == dec.threshold

    @pytest.mark.parametrize(
        "dims, mats, message",
        [
            ((2, 2), (np.eye(2), qs.jordan_block(2, 0)), "arrow 2: sigma_min=0"),
            ((1, 2), (np.ones((2, 1)), np.ones((2, 1))), r"uneven dimensions \(1, 2\)"),
        ],
        ids=["singular", "uneven"],
    )
    def test_irregular_leftover_raises_inconsistency(self, monkeypatch, dims, mats, message):
        from quiverstair import cycle

        def no_shave(a, tol=qs.DEFAULT_TOL):
            return cycle.ShaveResult(
                a_prime=None,
                a_tilde=a,
                l=a.shape.t + 1,
                n=a.shape.t,
                trace=[np.eye(d, dtype=complex) for d in a.dims],
                threshold=tol.threshold(*a.matrices),
            )

        monkeypatch.setattr(cycle, "shave", no_shave)
        rep = qs.Representation(qs.cycle_shape(2, "><"), dims, mats)
        with pytest.raises(InconsistencyError, match=message):
            qs.regularize(rep)

    def test_residual_covers_the_chain_stages(self, monkeypatch):
        # a chain stage that hands back one vertex transform swapped for another unitary:
        # the composed trace carries it, and verify measures the composed form
        from quiverstair import cycle

        canon_chain = cycle.canon_chain

        def bad_chain_stage(a, tol=qs.DEFAULT_TOL):
            form, trace = canon_chain(a, tol)
            v = next(c for c, d in enumerate(a.dims) if d >= 2)
            trace.vertex_transforms[v] = qs.random_unitary(a.dims[v], [72, v])
            return form, trace

        monkeypatch.setattr(cycle, "canon_chain", bad_chain_stage)
        rep, truth = qs.plant(TestGlueMask.SPEC)
        dec = qs.regularize(rep)
        assert dec.chains[0] is not None
        report = qs.verify(rep, dec, truth)
        assert report.labels_match
        (check,) = [c for c in report.checks if c.name == "residual"]
        assert not check.passed
        assert check.measured == dec.residual == qs.reduction_residual(rep, dec)

    def test_regularity_decided_once(self, tmp_path, capsys):
        # Each arrow's sigma_min is 1e-3, above the input threshold, so the part
        # is regular; the monodromy eigenvalues 1e-6 and 1e6 get no threshold of
        # their own, and every entry point agrees.
        a = np.diag([1e-3, 1e3]).astype(complex)
        rep = qs.Representation(qs.cycle_shape(2, ">>"), (2, 2), (a, a))
        dec = qs.regularize(rep)
        assert dec.summands == Counter()
        assert dec.regular_dim() == 2
        assert dec.dims() == rep.dims
        assert np.allclose(np.sort(np.abs(dec.monodromy_eigenvalues)), [1e-6, 1e6], rtol=1e-12)
        assert is_regular(rep)
        _, eigs = qs.monodromy(rep)
        assert np.array_equal(eigs, dec.monodromy_eigenvalues)
        path = tmp_path / "regular.json"
        files.save_representation(path, rep)
        capsys.readouterr()
        assert cli.main(["regularize", str(path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["regular_dimension"] == 2 and report["dimension_check"] is True

    def test_rejects_chains(self):
        with pytest.raises(ValidationError):
            qs.regularize(qs.assemble(qs.chain_shape(2, ">"), ()))


class TestSvdCount:
    """The decomposition takes one SVD per matrix per decision; a duplicate shows here."""

    SPEC = qs.PlantSpec(
        qs.cycle_shape(4, ">><<"), (((1, 6), 1), ((3, 4), 2), ((2, 2), 1)),
        regular_eigs=(2, -1j), seed=7,
    )

    @staticmethod
    def _count(monkeypatch) -> list:
        calls = []
        lapack = np.linalg.svd

        def counted(*args, **kwargs):
            calls.append(np.shape(args[0]))
            return lapack(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        return calls

    def test_regularize_takes_20_lapack_svds(self, monkeypatch):
        rep, _ = qs.plant(self.SPEC)
        calls = self._count(monkeypatch)
        dec = qs.regularize(rep)
        assert (dec.regular_dim(), dec.summands) == (2, Counter(dict(self.SPEC.labels)))
        # 20 = 4 for the threshold (the singular values of each arrow)
        #    + 12 compressions: 6 row_compress and 5 col_compress over both shaves,
        #      each start scan's last one reused by its first step, and 1 staircase
        #      strip in the chain stages (one-column ones take none)
        #    + 0 stop-rule fallbacks: the bounds decide every pending strip
        #    + 4 for the monodromy: 2 regularity checks of the clockwise arrows, and
        #      2 inverses of the counterclockwise arrows, each of which also decides
        #      its arrow's regularity
        assert len(calls) == 20

    @pytest.mark.parametrize("scramble, svds", [("unitary", 0), ("invertible", 4)])
    def test_plant_inverts_only_the_invertible_scramble_by_svd(self, monkeypatch, scramble, svds):
        # a unitary transform's inverse is its adjoint; an invertible one takes an SVD
        spec = dataclasses.replace(self.SPEC, scramble=scramble)
        calls = self._count(monkeypatch)
        rep, _ = qs.plant(spec)
        assert min(rep.dims) > 1  # every vertex's transform goes to LAPACK
        assert len(calls) == svds
