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
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .chain import ChainTrace, _staircase_keys, canon_chain, reduction_residual
from .errors import InconsistencyError, NumericError, ValidationError
from .linalg import (
    DEFAULT_TOL,
    _BLOCK_MIN_DIM,
    _REVISIT_MIN_DIM,
    TolerancePolicy,
    _check_int,
    _check_tol,
    _decide,
    _fro,
    _is_zero,
    _left,
    _reflector_block,
    _right,
    _row_compress_revisit,
    col_compress,
    row_compress,
    svd_inverse,
)
from .quiver import (
    CHAIN,
    CYCLE,
    QuiverShape,
    Representation,
    _check_kind,
    _defect,
    _singular_arrow,
    label_dims,
    transpose_rep,
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
    parts, in the order they were split off.  It carries no residual: a
    decomposition measures both passes' splits (see
    :meth:`RegularizingDecomposition.misfits`).
    """

    a_prime: Representation | None
    a_tilde: Representation
    l: int
    n: int
    trace: list[np.ndarray]
    threshold: float

    @property
    def steps(self) -> range:
        """The walk's steps ``l..n``; empty when nothing was shaved."""
        return range(self.l, self.n + 1)


def shave(a: Representation, tol: TolerancePolicy = DEFAULT_TOL) -> ShaveResult:
    """Split a cycle representation into a shaved chain and a reduced cycle.

    Uses a single rank threshold, ``tol.threshold`` of all the input's
    matrices, so that strips consisting purely of noise compress to rank
    zero; ``threshold`` on the result reports it.  Each matrix takes at most
    one SVD per decision: the start scan passes an arrow of full row rank on
    the singular values the threshold took, and its compression of arrow
    ``l`` is step ``l``'s; the stop rule ``sigma_max(pending) <= tau`` is
    answered by the exact bounds ``max|a_ij| <= sigma_max <= ||a||_F``
    whenever they settle it, by an SVD only otherwise (see
    :func:`linalg._is_zero`).  A revisited clockwise arrow whose last visit
    was a full compression, of a block at least ``_REVISIT_MIN_DIM`` square,
    is decided from the columns that left it when two certificates settle
    its rank with margin, by an SVD otherwise (see
    :func:`linalg._row_compress_revisit`); the next revisit of that arrow is
    a full one.

    A step that moves only ``r`` directions of its vertex applies them as a
    block of ``r`` Householder reflectors (:func:`linalg._reflector_block`),
    in ``O(r n^2)`` where a dense unitary costs ``O(n^3)``: a certified
    revisit always, a counterclockwise step at a vertex of at least
    ``_BLOCK_MIN_DIM`` dimensions; a counterclockwise step of rank 0 applies
    nothing.  A full compression applies its dense unitary, which leaves the
    kept rows orthogonal for the next revisit.  ``trace`` holds dense
    unitaries either way.

    Raises :class:`InconsistencyError` if the walk exceeds its
    dimension-based step cap, which would indicate contradictory rank
    decisions.
    """
    _check_tol(tol)
    _check_kind("shave", a.shape, CYCLE)
    shape = a.shape
    t = shape.t
    tau, values = tol._threshold(a.matrices)

    # the first clockwise arrow that is row-deficient; its compression is step l's.  An
    # arrow that tau's singular values show of full row rank takes no other SVD.
    l = t + 1
    for i in range(1, t + 1):
        m = a.matrices[i - 1]
        if not shape.is_clockwise(i):
            continue
        if values and _decide(m, tau, known=values[i - 1])[1] == len(m):
            continue
        first = row_compress(m, tau)
        if first[1] < len(m):
            l = i
            break

    if l == t + 1:  # nothing to shave
        trace = [np.eye(d, dtype=np.complex128) for d in a.dims]
        return ShaveResult(None, a, l, t, trace, threshold=tau)

    mats = list(a.matrices)  # read-only; each step replaces entries
    trace: list[np.ndarray | None] = [None] * t  # the identity until a step moves it
    chain_dims: list[int] = []
    chain_mats: list[np.ndarray] = []

    cap = t + 2 * sum(a.dims) + 2
    # strip of the current arrow's matrix hanging over the shaved part; the
    # walk starts at a clockwise arrow, where nothing has been shaved yet
    pending = np.zeros((a.dims[shape.wrap(l + 1) - 1], 0), dtype=np.complex128)
    # clockwise arrows whose last visit was a full compression, leaving orthogonal rows
    compressed: set[int] = set()
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
            # cur: d[vtx] x d[src]; shave off the row-deficient top part of vtx.  A
            # revisit after a full compression is decided from pending when certified.
            update = None
            if arrow in compressed and min(cur.shape) >= _REVISIT_MIN_DIM:
                update = _row_compress_revisit(cur, pending, tau)
            s_new, k = first if r == l else update or row_compress(cur, tau)
            if update is None:
                compressed.add(arrow)
            else:  # the rows it keeps are not orthogonal: the next revisit is a full one
                compressed.discard(arrow)
            dim, shaved = cur.shape[0], cur.shape[0] - k
            mats[arrow - 1] = _left(s_new, cur)[shaved:, :]
            c_mat = _left(s_new, pending)[:shaved, :]  # chain matrix (r)' -> (r+1)'
        else:
            # cur: d[tgt] x d[vtx]; the pending strip sits above it (rows).  Only the
            # row space of pending moves, so a wide step applies it as reflectors.
            w, shaved = col_compress(pending, tau)
            dim = cur.shape[1]
            if not shaved:
                s_new = None
            elif dim >= _BLOCK_MIN_DIM:
                s_new = _reflector_block(w[:, :shaved])
            else:
                s_new = w.conj().T
            c_mat = _right(pending, s_new)[:, :shaved]  # chain matrix (r+1)' -> (r)'
            mats[arrow - 1] = _right(cur, s_new)[:, shaved:]

        if r > l:
            chain_mats.append(c_mat)
        chain_dims.append(shaved)

        if s_new is None:  # the identity: nothing at vtx moves
            pass
        elif trace[vtx - 1] is not None:
            pre = a.dims[vtx - 1] - dim  # dimensions already shaved off vtx
            trace[vtx - 1][pre:] = _left(s_new, trace[vtx - 1][pre:])
        elif isinstance(s_new, np.ndarray):  # nothing shaved off vtx yet: s_new @ I is s_new
            trace[vtx - 1] = np.ascontiguousarray(s_new)
        else:
            trace[vtx - 1] = _left(s_new, np.eye(dim, dtype=np.complex128))

        nxt_mat = mats[vtx - 1]
        if shape.is_clockwise(vtx):
            moved_nxt = _right(nxt_mat, s_new)
            pending_next = moved_nxt[:, :shaved]
            mats[vtx - 1] = moved_nxt[:, shaved:]
        else:
            moved_nxt = _left(s_new, nxt_mat)
            pending_next = moved_nxt[:shaved, :]
            mats[vtx - 1] = moved_nxt[shaved:, :]

        if r >= t and _is_zero(pending_next, tau):
            n = r
            break
        pending = pending_next
        r += 1

    trace = [np.eye(d, dtype=np.complex128) if s is None else s for d, s in zip(a.dims, trace)]
    a_prime = Representation(_walk_shape(shape, l, n), tuple(chain_dims), tuple(chain_mats))
    # vertex i's remaining dimension, read off arrow i, whose source or target it is
    dims = [m.shape[1 if shape.is_clockwise(i) else 0] for i, m in enumerate(mats, 1)]
    a_tilde = Representation(shape, dims, tuple(mats))
    return ShaveResult(a_prime, a_tilde, l, n, trace, threshold=tau)


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


def _walk_shape(shape: QuiverShape, l: int, n: int) -> QuiverShape:
    """The chain over the walk positions ``l+1..n+1`` of the cycle ``shape``, for ``n >= l``."""
    orientations = "".join(shape.orientations[shape.wrap(q) - 1] for q in range(l + 1, n + 1))
    return QuiverShape(CHAIN, n + 1 - l, orientations)


def push_down(
    b: Representation | None, l: int, n: int, shape: QuiverShape
) -> Representation:
    """Glue a shaved chain back onto the cycle.

    The chain's vertex ``c`` (1-based) lives over cycle vertex ``[l + c]``;
    the matrix of every cycle arrow is the direct sum, in increasing walk
    order, of the chain matrices lying over it, padded with the degenerate
    boundary blocks at the two chain ends.
    """
    _check_kind("push_down", shape, CYCLE)
    l = _check_int("push_down", "l", l)
    n = _check_int("push_down", "n", n, l - 1)
    if b is None:
        if n != l - 1:
            raise ValidationError(f"push_down got no chain but n-l+1={n + 1 - l} vertices")
    elif n == l - 1 or b.shape != _walk_shape(shape, l, n):
        raise ValidationError(
            f"push_down got a {b.shape.kind} of t={b.shape.t} with orientations "
            f"{b.shape.orientations!r}, not the chain over walk positions {l + 1}..{n + 1}"
        )
    offsets, dims = _walk_layout(shape, l + 1, b.dims if b is not None else ())
    ends = [shape.arrow_ends(i) for i in range(1, shape.t + 1)]
    mats = [np.zeros((dims[v - 1], dims[u - 1]), dtype=np.complex128) for u, v in ends]
    for j, blockm in enumerate(b.matrices if b is not None else (), start=1):
        i = shape.wrap(l + j)  # chain matrix j joins positions l+j and l+j+1
        if shape.is_clockwise(i):
            r0, c0 = offsets[j], offsets[j - 1]
        else:
            r0, c0 = offsets[j - 1], offsets[j]
        mats[i - 1][r0 : r0 + blockm.shape[0], c0 : c0 + blockm.shape[1]] = blockm
    return Representation(shape, dims, tuple(mats))


# monodromy rescales a partial product only when its largest modulus leaves [2^-64, 2^64]:
# one that stays there is used as it is, since LAPACK's eigenvalues of 2^k M are not bitwise
# 2^k times those of M, and one rescaled keeps 2^960 of room for the next factor
_MODERATE_EXPONENT = 64


def _ldexp(z: np.ndarray, k: int) -> np.ndarray:
    """``z * 2^k`` for a complex array, exact unless it leaves the normal float64 range."""
    return np.ldexp(np.ascontiguousarray(z).view(np.float64), k).view(np.complex128)


def monodromy(
    p: Representation, tol: TolerancePolicy = DEFAULT_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """Basepoint product of a regular cycle and its eigenvalues.

    Multiplies around the cycle starting from vertex 1, using the matrix of
    each clockwise arrow and the inverse of each counterclockwise one.  The
    eigenvalues of the product classify the regular representation; they are
    reported as a multiset, with no claim about Jordan structure.

    Raises :class:`ValidationError`, naming the defect as
    :func:`regularity_defect` does, if ``p`` is not regular at
    ``tol.threshold`` of all its matrices, and :class:`NumericError` if the
    product or its eigenvalues leave the float64 range: a non-finite entry
    or eigenvalue, or an eigenvalue that is exactly 0; the running product
    is kept as a matrix times a power of two, so a partial product may leave
    it.  Each arrow is decided by one SVD: a clockwise one by its singular
    values, a counterclockwise one by the :func:`svd_inverse` that also
    inverts it, at that threshold.
    """
    _check_tol(tol)
    _check_kind("monodromy", p.shape, CYCLE)
    tau = tol.threshold(*p.matrices)
    at_tau = TolerancePolicy(abs_floor=tau, rel_factor=0.0)
    defect = _defect(p, tau, ())  # uneven dimensions; the arrows are judged in order below
    factors = []
    with np.errstate(all="ignore"):
        for i, m in enumerate(p.matrices, 1):
            if defect:
                break
            if p.shape.is_clockwise(i):
                defect = _defect(p, tau, (i,))
                factors.append(m)
                continue
            try:
                factors.append(svd_inverse(m, at_tau))
            except ValidationError:  # singular; the same full SVD again gives its sigma_min
                defect = _singular_arrow(i, _decide(m, tau, uv=True)[0][-1], tau)
        if defect:
            raise ValidationError(f"monodromy needs a regular representation: {defect}")
        out, e = factors[0], 0  # the product is out * 2^e
        for f in factors[1:]:
            out = f @ out
            k = np.frexp(np.abs(out).max(initial=0.0))[1]  # 0 for a zero, inf or nan product
            if abs(k) > _MODERATE_EXPONENT:
                out, e = _ldexp(out, -k), e + k
        overflow = NumericError("monodromy product overflowed: non-finite entries")
        if not np.isfinite(out).all():  # a factor near the float64 limit, or a nan
            raise overflow
        mono, eigs = _ldexp(out, e), _ldexp(np.linalg.eigvals(out), e)
    if not (np.isfinite(mono).all() and np.isfinite(eigs).all()):
        raise overflow
    if (eigs == 0).any():
        raise NumericError("monodromy product underflowed: an eigenvalue is exactly 0")
    return mono, eigs


@dataclass
class _PassLabels:
    """One shave pass's labels of the basis vectors at one vertex, in the composed bases.

    The first ``cut`` vectors were shaved off the vertex, in walk order; the
    rest are the pass's cycle part.  ``row`` is a vector's walk position
    ``q``, ``n + 1.5`` on the cycle part, and ``col`` is ``q + 1``, ``inf``
    on the cycle part: the glue pins an entry iff its row's ``row`` is at
    most its column's ``col``, so chain rows against chain columns with
    ``q_row <= q_col + 1``, every row against cycle columns, and cycle rows
    against position ``n + 1``.  ``strip`` keys a shaved vector within the
    chain step on its right, ``band`` within the one on its left (see
    :func:`chain._staircase_keys`).
    """

    cut: int
    row: np.ndarray
    col: np.ndarray
    strip: np.ndarray
    band: np.ndarray


def _pass_labels(shape: QuiverShape, res: ShaveResult, stage: ChainTrace | None) -> list:
    """The :class:`_PassLabels` of every vertex of the cycle ``res`` shaved; ``stage`` is its
    chain stage.  A vertex lists its shaved vectors, then those of ``res.a_tilde``.

    The staircase keys come from :func:`chain._staircase_keys`, which raises
    :class:`ValidationError` unless ``stage`` fits the pass's shaved chain.
    The labels are built in walk order, then sorted stably by vertex, which
    lists every vertex's positions in walk order as :func:`_walk_layout` does.
    """
    t = shape.t
    chain = res.a_prime  # no chain is a one-vertex chain of dimension 0
    sizes, orientations = (chain.dims, chain.shape.orientations) if chain is not None else ((0,), "")
    strip, band = _staircase_keys(stage.steps if stage is not None else (), orientations, sizes)

    pos = np.repeat(np.arange(res.l + 1, res.l + 1 + len(sizes)), sizes).astype(np.float64)
    vertex = np.repeat((np.arange(res.l, res.l + len(sizes))) % t, sizes)
    cut = np.bincount(vertex, minlength=t)
    rest = np.array(res.a_tilde.dims)
    dims = cut + rest
    order = np.argsort(np.concatenate([vertex, np.repeat(np.arange(t), rest)]), kind="stable")
    cyc = int(rest.sum())
    row = np.concatenate([pos, np.full(cyc, res.n + 1.5)])[order]
    col = np.concatenate([pos + 1, np.full(cyc, np.inf)])[order]
    strip = np.concatenate([strip, np.zeros(cyc)])[order]
    band = np.concatenate([band, np.zeros(cyc)])[order]
    bounds = np.cumsum([0, *dims])
    return [
        _PassLabels(int(c), row[b0:b1], col[b0:b1], strip[b0:b1], band[b0:b1])
        for c, b0, b1 in zip(cut, bounds, bounds[1:])
    ]


def _glue_zeros(m: np.ndarray, head: _PassLabels, tail: _PassLabels, clockwise: bool):
    """The entries of ``m``, one pass's arrow in its own frame, where that pass demands a zero.

    These are the entries its glue pins outside its cycle part, except in a
    chain block, which joins walk position ``q`` to ``q + 1``; there, the
    entries where the chain step's staircase form demands a zero.
    """
    row = head.row[:, None]
    if clockwise:  # position q at the tail, q + 1 at the head
        kept = (row == tail.col) & (head.band[:, None] <= tail.strip)
    else:  # position q at the head, q + 1 at the tail
        kept = (row + 2 == tail.col) & (head.strip[:, None] >= tail.band)
    zero = row <= tail.col
    zero[kept] = False
    zero[head.cut :, tail.cut :] = False
    return m[zero]


@dataclass
class RegularizingDecomposition:
    """Walk summands plus regular part of a cycle representation.

    ``summands`` maps walk labels ``(l, r)`` (start vertex in ``1..t``, walk
    length ``r - l + 1``) to multiplicities; ``summands_by_pass`` splits the
    count by the shave pass that produced each label (direct pass,
    transposed pass).  ``trace`` is the composed per-vertex unitary of the
    whole reduction, acting on the original spaces: both shaves and both
    chain stages (``chains``, ``None`` where a pass shaved nothing).  In its
    bases the input takes the paper's form: the pushed-down staircase
    patterns, then ``regular_part``.  ``a`` is the input.  ``residual`` is
    :func:`reduction_residual` of ``a`` and this decomposition, measured when
    first read (see :meth:`misfits`).
    """

    shape: QuiverShape
    summands: Counter
    summands_by_pass: tuple[Counter, Counter]
    regular_part: Representation
    monodromy_matrix: np.ndarray
    monodromy_eigenvalues: np.ndarray
    trace: list[np.ndarray]
    threshold: float
    shaves: tuple[ShaveResult, ShaveResult]
    chains: tuple[ChainTrace | None, ChainTrace | None]
    a: Representation = field(kw_only=True, repr=False)

    @cached_property
    def residual(self) -> float:
        return reduction_residual(self.a, self)

    def summand_dims(self) -> tuple[int, ...]:
        return label_dims(self.shape.t, self.summands.items())

    def regular_dim(self) -> int:
        return self.regular_part.dims[0]

    def dims(self) -> tuple[int, ...]:
        """Vertexwise dimensions of the direct sum the decomposition describes."""
        return tuple(d + self.regular_dim() for d in self.summand_dims())

    def misfits(self, shape: QuiverShape, moved: list[np.ndarray]) -> list[float]:
        """Per arrow, the Frobenius norm of ``moved`` where the composed form demands a zero,
        together with its regular block minus ``regular_part``.

        ``moved`` is the input taken into the bases of ``trace``, where each
        vertex lists the first shave's walk positions, then the second's,
        then the regular part.  Each shave demands the zeros its glue pins
        (see :class:`_PassLabels`; the second in its transposed frame), and
        in each chain block the zeros of that chain step's staircase form.
        Each set is a union of blocks between walk positions, which the
        block-diagonal chain rotations and the second shave's rotation of the
        cycle part map to themselves, so its norm is what the stage left.
        Raises :class:`ValidationError` if the decomposition does not fit
        ``moved``.
        """
        if shape != self.shape:
            raise ValidationError("the decomposition lives on another quiver")
        first, second = (_pass_labels(shape, res, ch) for res, ch in zip(self.shaves, self.chains))
        out = []
        for i, m in enumerate(moved, 1):
            u, v = shape.arrow_ends(i)
            head, tail = first[v - 1], first[u - 1]
            rest = m[head.cut :, tail.cut :].T  # the second shave's arrow, in its frame
            head2, tail2 = second[u - 1], second[v - 1]
            regular = self.regular_part.matrices[i - 1]
            layout = [(len(head.row), len(tail.row)), (len(head2.row), len(tail2.row))]
            left = rest[head2.cut :, tail2.cut :].T  # the regular block
            if [m.shape, rest.shape] != layout or left.shape != regular.shape:
                raise ValidationError(f"the decomposition does not fit arrow {i}'s {m.shape} matrix")
            clockwise = shape.is_clockwise(i)
            out.append(_fro(np.concatenate([
                _glue_zeros(m, head, tail, clockwise),
                _glue_zeros(rest, head2, tail2, not clockwise),
                (left - regular).ravel(),
            ])))
        return out


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
    regular part, whose monodromy eigenvalues are reported.  The result's
    ``trace`` composes every stage's unitaries; no stage measures a
    residual, and the result's is measured from ``trace`` when first read.

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
    _check_kind("regularize", a.shape, CYCLE)
    first = shave(a, tol)
    fixed = TolerancePolicy(abs_floor=first.threshold, rel_factor=0.0)
    second = shave(transpose_rep(first.a_tilde), fixed)
    regular = transpose_rep(second.a_tilde)

    by_pass, chains = [], []
    for res in (first, second):
        if res.a_prime is None:
            by_pass.append(Counter())
            chains.append(None)
        else:
            form, chain_trace = canon_chain(res.a_prime, fixed)
            by_pass.append(_chain_labels_to_walks(a.shape, res.l, form.counts))
            chains.append(chain_trace)
    summands = by_pass[0] + by_pass[1]

    try:
        mono, eigs = monodromy(regular, fixed)
    except ValidationError as exc:
        raise InconsistencyError(f"regular part: {exc}") from exc

    trace = [s.copy() for s in first.trace]
    shaved1 = [d - e for d, e in zip(a.dims, first.a_tilde.dims)]
    for v in range(a.shape.t):
        trace[v][shaved1[v] :] = second.trace[v].conj() @ trace[v][shaved1[v] :]
    # a chain stage's transform of walk position q acts on q's rows at vertex [q]; the
    # second pass's, like its shave's, conjugated back from the transposed frame
    for res, chain_trace, start in ((first, chains[0], [0] * a.shape.t), (second, chains[1], shaved1)):
        if chain_trace is None:
            continue
        offsets, _ = _walk_layout(a.shape, res.l + 1, res.a_prime.dims)
        for q, off, s in zip(range(res.l + 1, res.n + 2), offsets, chain_trace.vertex_transforms):
            v = a.shape.wrap(q) - 1
            rows = slice(start[v] + off, start[v] + off + len(s))
            if len(s):
                trace[v][rows] = (s if res is first else s.conj()) @ trace[v][rows]

    return RegularizingDecomposition(
        shape=a.shape,
        summands=summands,
        summands_by_pass=(by_pass[0], by_pass[1]),
        regular_part=regular,
        monodromy_matrix=mono,
        monodromy_eigenvalues=eigs,
        trace=trace,
        threshold=first.threshold,
        shaves=(first, second),
        chains=(chains[0], chains[1]),
        a=a,
    )
