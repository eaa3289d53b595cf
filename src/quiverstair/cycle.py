"""Regularizing decomposition of cycle representations.

The shave walks around the cycle like a plane over wood.  Starting at the
first clockwise arrow whose matrix lacks full row rank, each step applies one
unitary change of basis at the vertex ahead of the current arrow, splitting
that vertex into a "shaved" part (which joins a growing chain living over the
cycle) and a reduced cycle part.  The walk stops once it has gone at least
all the way around and the newly shaved part receives only a zero block.
Gluing the chain back down onto the cycle (the push-down) and summing with
the remaining cycle representation recovers the input up to isomorphism.

Shaving the representation, then its transpose, leaves a regular part; the
two shaved chains decompose into intervals, and each interval pushes down to
a walk summand of the cycle.  That is the full decomposition: walk summands
plus a regular representation, whose isomorphism class is captured by the
eigenvalues of its monodromy.
"""

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .chain import canon_chain, reduction_residual
from .errors import InconsistencyError, NumericError, ValidationError
from .linalg import (
    DEFAULT_TOL,
    TolerancePolicy,
    _check_int,
    _check_tol,
    col_compress,
    numerical_rank,
    row_compress,
    svd_inverse,
)
from .quiver import (
    CHAIN,
    CYCLE,
    QuiverShape,
    Representation,
    direct_sum,
    label_dims,
    regularity_defect,
    transpose_rep,
    zero_representation,
)

__all__ = [
    "ShaveResult",
    "shave",
    "push_down",
    "monodromy",
    "RegularizingDecomposition",
    "regularize",
]


@dataclass
class ShaveResult:
    """Outcome of one full shave pass.

    ``a_prime`` is the shaved chain on the primed vertices ``(l+1)'..(n+1)'``
    (``None`` when nothing was shaved, i.e. ``l = t+1``); ``a_tilde`` is the
    reduced cycle representation, whose clockwise arrows all have full row
    rank.  ``trace`` holds the accumulated unitary applied at each cycle
    vertex; its leading block at every vertex corresponds to the shaved
    parts, in the order they were split off.  ``residual`` is
    :func:`reduction_residual` of the input and this result: how far the
    input, taken into the bases of ``trace``, is from the glued split.
    """

    a_prime: Representation | None
    a_tilde: Representation
    l: int
    n: int
    trace: list[np.ndarray]
    residual: float
    threshold: float

    @property
    def steps(self) -> range:
        """The walk's steps ``l..n``; empty when nothing was shaved."""
        return range(self.l, self.n + 1)

    def misfits(self, shape: QuiverShape, moved: list[np.ndarray]) -> list[float]:
        """Per arrow, the Frobenius norm of ``moved`` minus the glued split, where pinned.

        ``moved`` is the input taken into the bases of ``trace``, and the
        split is ``push_down(a_prime) ⊕ a_tilde``.  Pinned are the chain and
        cycle blocks themselves, the blocks zeroed by the compressions, and
        the strip dropped by the stopping rule.  Positions below the block
        diagonal are not; they carry couplings that the split removes exactly
        but only by non-unitary (triangular) changes of basis.  Raises
        :class:`ValidationError` if the split does not fit ``moved``.
        """
        glued = direct_sum(push_down(self.a_prime, self.l, self.n, shape), self.a_tilde)
        if [g.shape for g in glued.matrices] != [m.shape for m in moved]:
            raise ValidationError(f"the glued split of dims {glued.dims} does not fit the input")
        # the walk position of every basis vector; the cycle part's is inf
        sizes = self.a_prime.dims if self.a_prime is not None else ()
        offsets, _ = _walk_layout(shape, self.l + 1, sizes)
        pos = [np.full(d, np.inf) for d in glued.dims]
        for q, (off, size) in enumerate(zip(offsets, sizes), self.l + 1):
            pos[shape.wrap(q) - 1][off : off + size] = q
        out = []
        for i, (m, g) in enumerate(zip(moved, glued.matrices), 1):
            u, v = shape.arrow_ends(i)
            qr, qc = pos[v - 1][:, None], pos[u - 1]
            pinned = (qr <= qc + 1) | ((qr == np.inf) & (qc == self.n + 1))
            out.append(float(np.linalg.norm((m - g)[pinned])))
        return out


def _check_cycle(a: Representation, who: str):
    if a.shape.kind != CYCLE:
        raise ValidationError(f"{who} needs a cycle representation")


def shave(a: Representation, tol: TolerancePolicy = DEFAULT_TOL) -> ShaveResult:
    """Split a cycle representation into a shaved chain and a reduced cycle.

    Uses a single rank threshold, ``tol.threshold`` of all the input's
    matrices, so that strips consisting purely of noise compress to rank
    zero; ``threshold`` on the result reports it.  Raises
    :class:`InconsistencyError` if the walk exceeds its dimension-based step
    cap, which would indicate contradictory rank decisions.
    """
    _check_tol(tol)
    _check_cycle(a, "shave")
    shape = a.shape
    t = shape.t
    tau = tol.threshold(*a.matrices)

    l = t + 1
    for i in range(1, t + 1):
        if shape.is_clockwise(i):
            m = a.matrices[i - 1]
            if numerical_rank(m, tau) < m.shape[0]:
                l = i
                break

    trace = [np.eye(d, dtype=np.complex128) for d in a.dims]
    if l == t + 1:  # nothing to shave; the glue residual is exactly 0
        return ShaveResult(None, a, l, t, trace, residual=0.0, threshold=tau)

    mats = list(a.matrices)  # read-only; each step replaces entries
    chain_dims: list[int] = []
    chain_mats: list[np.ndarray] = []

    cap = t + 2 * sum(a.dims) + 2
    # strip of the current arrow's matrix hanging over the shaved part; the
    # walk starts at a clockwise arrow, where nothing has been shaved yet
    pending = np.zeros((a.dims[shape.wrap(l + 1) - 1], 0), dtype=np.complex128)
    r = l
    while True:
        if r > cap:
            raise InconsistencyError(
                f"shave exceeded its step cap ({cap}); rank decisions are inconsistent"
            )
        arrow = shape.wrap(r)
        vtx = shape.wrap(r + 1)  # the vertex ahead, and the next arrow
        cur = mats[arrow - 1]

        if shape.is_clockwise(arrow):
            # cur: d[vtx] x d[src]; shave off the row-deficient top part of vtx
            q, k = row_compress(cur, tau)
            shaved = cur.shape[0] - k
            mats[arrow - 1] = (q @ cur)[shaved:, :]
            c_mat = (q @ pending)[:shaved, :]  # chain matrix (r)' -> (r+1)'
            s_new = q
        else:
            # cur: d[tgt] x d[vtx]; the pending strip sits above it (rows)
            w, shaved = col_compress(pending, tau)
            c_mat = (pending @ w)[:, :shaved]  # chain matrix (r+1)' -> (r)'
            mats[arrow - 1] = (cur @ w)[:, shaved:]
            s_new = w.conj().T

        if r > l:
            chain_mats.append(c_mat)
        chain_dims.append(shaved)

        pre = a.dims[vtx - 1] - len(s_new)  # dimensions already shaved off vtx
        trace[vtx - 1][pre:] = s_new @ trace[vtx - 1][pre:]

        nxt_mat = mats[vtx - 1]
        if shape.is_clockwise(vtx):
            moved_nxt = nxt_mat @ s_new.conj().T
            pending_next = moved_nxt[:, :shaved]
            mats[vtx - 1] = moved_nxt[:, shaved:]
        else:
            moved_nxt = s_new @ nxt_mat
            pending_next = moved_nxt[:shaved, :]
            mats[vtx - 1] = moved_nxt[shaved:, :]

        if r >= t and numerical_rank(pending_next, tau) == 0:
            n = r
            break
        pending = pending_next
        r += 1

    prime_orients = "".join(shape.orientations[shape.wrap(q) - 1] for q in range(l + 1, n + 1))
    prime_shape = QuiverShape(CHAIN, n + 1 - l, prime_orients)
    a_prime = Representation(prime_shape, tuple(chain_dims), tuple(chain_mats))
    # vertex i's remaining dimension, read off arrow i, whose source or target it is
    dims = [m.shape[1 if shape.is_clockwise(i) else 0] for i, m in enumerate(mats, 1)]
    a_tilde = Representation(shape, dims, tuple(mats))
    res = ShaveResult(a_prime, a_tilde, l, n, trace, residual=0.0, threshold=tau)
    res.residual = reduction_residual(a, res)
    return res


def _walk_layout(shape: QuiverShape, start: int, sizes) -> tuple[list[int], tuple[int, ...]]:
    """Where the positions of a walk sit in the bases of the cycle's vertices.

    Position ``q = start + j`` lies over vertex ``[q]`` and takes the next
    ``sizes[j]`` basis vectors there, so every vertex lists its positions in
    walk order.  Returns each position's offset within its vertex's basis
    and the resulting vertex dimensions.
    """
    dims = [0] * shape.t
    offsets = []
    for q, size in enumerate(sizes, start):
        v = shape.wrap(q) - 1
        offsets.append(dims[v])
        dims[v] += size
    return offsets, tuple(dims)


def push_down(
    b: Representation | None, l: int, n: int, shape: QuiverShape
) -> Representation:
    """Glue a shaved chain back onto the cycle.

    The chain's vertex ``c`` (1-based) lives over cycle vertex ``[l + c]``;
    the matrix of every cycle arrow is the direct sum, in increasing walk
    order, of the chain matrices lying over it, padded with the degenerate
    boundary blocks at the two chain ends.
    """
    if shape.kind != CYCLE:
        raise ValidationError("push_down needs a cycle shape")
    _check_int("push_down", "l", l)
    _check_int("push_down", "n", n)
    m_len = n + 1 - l
    if m_len < 0:
        raise ValidationError(f"push_down got n={n} < l={l} - 1")
    if b is None:
        if m_len != 0:
            raise ValidationError(f"push_down got no chain but n-l+1={m_len} vertices")
        return zero_representation(shape)
    if b.shape.kind != CHAIN or b.shape.t != m_len:
        raise ValidationError(
            f"chain has {b.shape.t if b.shape.kind == CHAIN else 'non-chain'} vertices, "
            f"expected {m_len} from (l={l}, n={n})"
        )
    for j in range(1, m_len):
        want = shape.orientations[shape.wrap(l + j) - 1]
        if b.shape.orientations[j - 1] != want:
            raise ValidationError(
                f"chain arrow {j} is {b.shape.orientations[j - 1]!r} but cycle arrow "
                f"{shape.wrap(l + j)} is {want!r}"
            )

    offsets, dims = _walk_layout(shape, l + 1, b.dims)
    mats = []
    for i in range(1, shape.t + 1):
        u, v = shape.arrow_ends(i)
        mats.append(np.zeros((dims[v - 1], dims[u - 1]), dtype=np.complex128))
    for j, blockm in enumerate(b.matrices, start=1):
        i = shape.wrap(l + j)  # chain matrix j joins positions l+j and l+j+1
        if shape.is_clockwise(i):
            r0, c0 = offsets[j], offsets[j - 1]
        else:
            r0, c0 = offsets[j - 1], offsets[j]
        mats[i - 1][r0 : r0 + blockm.shape[0], c0 : c0 + blockm.shape[1]] = blockm
    return Representation(shape, dims, tuple(mats))


def monodromy(
    p: Representation, tol: TolerancePolicy = DEFAULT_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """Basepoint product of a regular cycle and its eigenvalues.

    Multiplies around the cycle starting from vertex 1, using the matrix of
    each clockwise arrow and the inverse of each counterclockwise one.  The
    eigenvalues of the product classify the regular representation; they are
    reported as a multiset, with no claim about Jordan structure.

    Raises :class:`ValidationError`, naming the defect, if ``p`` is not
    regular at ``tol.threshold`` of all its matrices, and
    :class:`NumericError` if the product leaves the float64 range: a
    non-finite entry or an eigenvalue that is exactly 0.
    """
    _check_tol(tol)
    _check_cycle(p, "monodromy")
    defect = regularity_defect(p, tol.threshold(*p.matrices))
    if defect:
        raise ValidationError(f"monodromy needs a regular representation: {defect}")
    out = np.eye(p.dims[0], dtype=np.complex128)
    with np.errstate(all="ignore"):
        for i in range(1, p.shape.t + 1):
            m = p.matrices[i - 1]
            out = (m if p.shape.is_clockwise(i) else svd_inverse(m, tol)) @ out
    if not np.isfinite(out).all():
        raise NumericError("monodromy product overflowed: non-finite entries")
    eigs = np.linalg.eigvals(out)
    if (eigs == 0).any():
        raise NumericError("monodromy product underflowed: an eigenvalue is exactly 0")
    return out, eigs


@dataclass
class RegularizingDecomposition:
    """Walk summands plus regular part of a cycle representation.

    ``summands`` maps walk labels ``(l, r)`` (start vertex in ``1..t``, walk
    length ``r - l + 1``) to multiplicities; ``summands_by_pass`` splits the
    count by the shave pass that produced each label (direct pass,
    transposed pass).  ``trace`` is the composed per-vertex unitary of both
    passes, acting on the original spaces.  ``residual`` is the largest of
    the two shaves' glue residuals and the two chain stages' pattern
    residuals, each measured from that stage's input and returned unitaries.
    """

    shape: QuiverShape
    summands: Counter
    summands_by_pass: tuple[Counter, Counter]
    regular_part: Representation
    monodromy_matrix: np.ndarray
    monodromy_eigenvalues: np.ndarray
    trace: list[np.ndarray]
    residual: float
    threshold: float
    shaves: tuple[ShaveResult, ShaveResult]

    def summand_dims(self) -> tuple[int, ...]:
        return label_dims(self.shape.t, self.summands.items())

    def regular_dim(self) -> int:
        return self.regular_part.dims[0]

    def dims(self) -> tuple[int, ...]:
        """Vertexwise dimensions of the direct sum the decomposition describes."""
        return tuple(d + self.regular_dim() for d in self.summand_dims())


def _chain_labels_to_walks(shape: QuiverShape, l: int, form_counts: Counter) -> Counter:
    out: Counter = Counter()
    for (i, j), m in form_counts.items():
        start = shape.wrap(l + i)
        out[(start, start + (j - i))] += m
    return out


def regularize(
    a: Representation, tol: TolerancePolicy = DEFAULT_TOL
) -> RegularizingDecomposition:
    """Full regularizing decomposition of a cycle representation.

    Three stages: shave the input, shave the transpose of what remains, and
    decompose both shaved chains into intervals.  Each interval maps to the
    walk summand its push-down produces; what survives both shaves is the
    regular part, whose monodromy eigenvalues are reported.

    The first shave fixes the rank threshold from the whole input; every
    later decision (second shave, both chain stages, the regularity check)
    reuses that number.  The regular part is judged only by each arrow's
    smallest singular value against it; the monodromy eigenvalues get no
    threshold of their own.

    Raises :class:`InconsistencyError` if the surviving part is not regular,
    naming the offending arrow and its smallest singular value, or the
    uneven dimensions; that signals tolerance trouble rather than a silent
    misclassification.
    """
    _check_tol(tol)
    _check_cycle(a, "regularize")
    first = shave(a, tol)
    fixed = TolerancePolicy(abs_floor=first.threshold, rel_factor=0.0)
    second = shave(transpose_rep(first.a_tilde), fixed)
    regular = transpose_rep(second.a_tilde)

    by_pass = []
    residual = max(first.residual, second.residual)
    for res in (first, second):
        if res.a_prime is None:
            by_pass.append(Counter())
        else:
            form, chain_trace = canon_chain(res.a_prime, fixed)
            residual = max(residual, chain_trace.residual)
            by_pass.append(_chain_labels_to_walks(a.shape, res.l, form.counts))
    summands = by_pass[0] + by_pass[1]

    try:
        mono, eigs = monodromy(regular, fixed)
    except ValidationError as exc:
        raise InconsistencyError(f"regular part: {exc}") from exc

    trace = [s.copy() for s in first.trace]
    for v in range(a.shape.t):
        shaved1 = a.dims[v] - first.a_tilde.dims[v]
        trace[v][shaved1:] = second.trace[v].conj() @ trace[v][shaved1:]

    return RegularizingDecomposition(
        shape=a.shape,
        summands=summands,
        summands_by_pass=(by_pass[0], by_pass[1]),
        regular_part=regular,
        monodromy_matrix=mono,
        monodromy_eigenvalues=eigs,
        trace=trace,
        residual=residual,
        threshold=first.threshold,
        shaves=(first, second),
    )
