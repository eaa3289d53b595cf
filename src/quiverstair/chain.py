"""Canonical decomposition of chain representations by unitary staircase steps.

The algorithm sweeps the chain left to right.  Entering step ``r`` the basis
of vertex ``r`` is partitioned into strips, one per interval start vertex
``p_i`` with live copies, each strip holding ``k_i >= 1`` copies of a partial
interval ``p_i -> ... -> r``.  The staircase reduction of the matrix on arrow
``r`` reveals how many of those copies extend across the arrow (``l_i``); the
other ``k_i - l_i`` copies split off as finished summands ``L(p_i, r)``.
Vertical strips (clockwise arrow) are processed left to right, horizontal
strips (counterclockwise) bottom-up, and the surviving strips inherit the
basis order the staircase form leaves at vertex ``r+1``: blocks first and the
new bare vertex last for vertical steps, the bare vertex first for horizontal
steps.  That ordering is load-bearing; it encodes the flag of subspaces the
remaining transformations must respect.  A strip left with no copies is
dropped at once, so the sweep carries, and its trace records, only live
strips: at most ``d_r`` per step, and a cost linear in ``t``.

The vertex unitaries are the sweep's whole state.  Step ``r`` reads arrow
``r`` from the input, taken into vertex ``r``'s current basis (vertex
``r+1`` still has the input's), refines vertex ``r``'s unitary by the
staircase's block-diagonal one on the strips, and sets vertex ``r+1``'s
unitary to the staircase's other one.
"""

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import QuiverError, ValidationError
from .linalg import (
    DEFAULT_TOL,
    HORIZONTAL,
    VERTICAL,
    TolerancePolicy,
    _check_tol,
    _sizes,
    staircase_reduce,
)
from .quiver import (
    CHAIN,
    CLOCKWISE,
    QuiverShape,
    Representation,
    _check_kind,
    label_dims,
)

__all__ = [
    "ChainCanonicalForm",
    "ChainStep",
    "ChainTrace",
    "canon_chain",
    "reduction_residual",
]


@dataclass
class ChainCanonicalForm:
    """Multiset of interval labels ``(i, j)`` with multiplicities."""

    t: int
    counts: Counter

    def dims(self) -> tuple[int, ...]:
        """Vertexwise dimensions of the direct sum the form describes."""
        return label_dims(self.t, self.counts.items())

    def sorted_labels(self) -> list[tuple[tuple[int, int], int]]:
        return sorted(self.counts.items())


@dataclass
class ChainStep:
    """Audit record for one staircase step: its arrow's orientation and pattern."""

    orientation: str
    strip_sizes: list[int]
    block_sizes: list[int]


@dataclass
class ChainTrace:
    """Accumulated per-vertex unitaries, the run's rank threshold, and per-step bookkeeping.

    ``a`` is the input the trace reduces.  ``residual`` is
    :func:`reduction_residual` of ``a`` and this trace, measured when it is
    first read.
    """

    vertex_transforms: list[np.ndarray]
    threshold: float
    steps: list[ChainStep] = field(default_factory=list)
    a: Representation = field(kw_only=True, repr=False)

    @cached_property
    def residual(self) -> float:
        return reduction_residual(self.a, self)

    def misfits(self, shape: QuiverShape, moved: list[np.ndarray]) -> list[float]:
        """Per step, the largest modulus of its arrow of ``moved``, the input in these bases,
        where its staircase form demands a zero (see :func:`_staircase_keys`); raises
        :class:`ValidationError` unless both fit a chain of ``shape`` and these transforms' dims.
        """
        dims = [len(q) for q in self.vertex_transforms]
        keys = _staircase_keys(self.steps, shape.orientations, dims)
        strip, band = (np.split(x, np.cumsum(dims)[:-1]) for x in keys)  # per vertex
        out = []
        for j, (m, o, s, b) in enumerate(zip(moved, shape.orientations, strip, band[1:]), 1):
            zero = b[:, None] > s if o == CLOCKWISE else s[:, None] < b
            if zero.shape != np.shape(m):
                raise ValidationError(f"trace does not fit arrow {j}'s {np.shape(m)} matrix")
            out.append(float(np.abs(m[zero]).max(initial=0.0)))
        return out


def _staircase_keys(steps, orientations: str, dims) -> tuple[np.ndarray, np.ndarray]:
    """Keys on a chain's basis vectors that place the zeros its steps' staircase forms demand.

    ``strip`` and ``band`` key every vertex's vectors, vertex after vertex,
    on a chain of ``dims`` with arrows oriented as ``orientations``.  A
    vector of strip ``i`` gets ``2i``, plus 1 among the strip's ``l_i``
    block vectors, one of band ``b`` gets ``2b + 1`` and a bare one ``inf``;
    on arrow ``j``, an entry is a demanded zero iff its vector's ``band``
    key at vertex ``j + 1`` exceeds its vector's ``strip`` key at vertex
    ``j``.  A horizontal step is keyed in the flipped frame of
    :func:`linalg.staircase_reduce`, shifted by a constant no comparison
    sees: strip ``i`` is ``-i``, a strip lists its block vectors first, and
    the bare vectors come before the bands.

    Raises :class:`ValidationError` unless there is a step per arrow, oriented as it, with
    integer sizes, strips summing to its vertex and a block per strip, ``0 <= l_i <= k_i``,
    the blocks summing to at most the next vertex.
    """
    fit = f"trace does not fit a chain of orientations {orientations!r}, dims {list(map(int, dims))}"
    per_step = [len(step.strip_sizes) for step in steps]
    layout = [(step.orientation, len(step.block_sizes)) for step in steps]
    if not len(dims) - 1 == len(orientations) == len(steps) or layout != [*zip(orientations, per_step)]:
        raise ValidationError(f"{fit}: it needs a step per arrow, oriented as it, a block per strip")
    k = np.array(_sizes(f"{fit}: strip_sizes", [x for s in steps for x in s.strip_sizes]), np.int64)
    l = np.array(_sizes(f"{fit}: block_sizes", [x for s in steps for x in s.block_sizes]), np.int64)
    dims, per_step = np.asarray(dims, dtype=np.int64), np.array(per_step, dtype=np.int64)
    first = np.cumsum(per_step) - per_step  # each step's first strip among all strips
    step_of = np.repeat(np.arange(len(steps)), per_step)
    bare = dims[1:] - np.bincount(step_of, weights=l, minlength=len(steps)).astype(np.int64)
    misfit = (np.bincount(step_of, weights=k, minlength=len(steps)) != dims[:-1]) | (bare < 0)
    misfit[step_of[(l < 0) | (l > k)]] = True
    if misfit.any():
        j = int(np.flatnonzero(misfit)[0])
        ks, ls = k[step_of == j].tolist(), l[step_of == j].tolist()
        raise ValidationError(f"{fit}: step {j + 1} has strips {ks} and blocks {ls}")
    vertical = np.array([o == CLOCKWISE for o in orientations], dtype=bool)
    i = np.arange(len(k)) - first[step_of]
    key = np.where(vertical[step_of], 2 * i, -2 * i)
    # strip side, vertices 1..t-1: two runs per strip, its k - l other vectors keyed
    # key and its l block vectors key + 1; the last vertex opens no step
    runs = np.where(vertical[step_of], [k - l, l], [l, k - l]).T.ravel()
    keys = np.where(vertical[step_of], [key, key + 1], [key + 1, key]).T.ravel()
    strip = np.concatenate([np.repeat(keys, runs), np.zeros(dims[-1])])
    # band side, vertices 2..t: a run of l vectors keyed key + 1 per strip, and each
    # step's bare run after its bands, or before them for a horizontal step
    at = np.where(vertical, first + per_step, first)
    band_runs = np.repeat(np.insert(key + 1.0, at, np.inf), np.insert(l, at, bare))
    return strip, np.concatenate([np.zeros(dims[0]), band_runs])


def canon_chain(
    a: Representation, tol: TolerancePolicy = DEFAULT_TOL
) -> tuple[ChainCanonicalForm, ChainTrace]:
    """Canonical multiset of interval summands of a chain representation.

    Returns the multiset ``{(i, j): multiplicity}`` together with the trace:
    the accumulated unitary change of basis at every vertex, the strip/block
    sizes of every step, and the residual, measured when first read: the
    input taken into the returned bases, where some step's staircase form
    demands a zero (see :func:`reduction_residual`).

    Every step decides ranks against one threshold, ``tol.threshold`` of all
    the input's matrices, so a matrix consisting purely of noise does not
    count as full rank; the trace reports it.

    Numeric failures propagate with the step index attached.
    """
    _check_tol(tol)
    _check_kind("canon_chain", a.shape, CHAIN)
    t = a.shape.t
    counts: Counter = Counter()
    tau = tol.threshold(*a.matrices)
    trace = ChainTrace(
        vertex_transforms=[np.eye(d, dtype=np.complex128) for d in a.dims], threshold=tau, a=a
    )
    s = trace.vertex_transforms
    strips: list[tuple[int, int]] = [(1, a.dims[0])] if a.dims[0] else []

    for r in range(1, t):
        clockwise = a.shape.is_clockwise(r)
        sizes = [k for _, k in strips]
        axis = VERTICAL if clockwise else HORIZONTAL
        m = a.matrices[r - 1] @ s[r - 1].conj().T if clockwise else s[r - 1] @ a.matrices[r - 1]
        try:
            left, right, ls = staircase_reduce(m, sizes, axis, tau)
        except QuiverError as exc:
            raise type(exc)(f"chain step {r}: {exc}") from exc
        s_here, s[r] = (right.conj().T, left) if clockwise else (left, right.conj().T)
        s[r - 1] = s_here @ s[r - 1]

        for (p, k), l in zip(strips, ls):
            if k - l:
                counts[(p, r)] += k - l
        bare = a.dims[r] - sum(ls)
        survivors = [(p, l) for (p, _), l in zip(strips, ls)]
        strips = survivors + [(r + 1, bare)] if clockwise else [(r + 1, bare)] + survivors
        strips = [(p, k) for p, k in strips if k]
        trace.steps.append(ChainStep(a.shape.orientations[r - 1], sizes, ls))

    for p, k in strips:
        counts[(p, t)] += k
    return ChainCanonicalForm(t, counts), trace


def reduction_residual(a: Representation, result) -> float:
    """How far the input, taken into a result's unitary bases, is from the form it claims.

    ``result`` is a :class:`ChainTrace` (staircase patterns in the bases
    ``vertex_transforms``) or a ``RegularizingDecomposition`` (both shaves'
    splits, both chain stages' staircase patterns and the regular part, in
    the composed bases ``trace``); :func:`_staircase_keys` places the zeros of
    both.  Forms ``S_v A S_u^H`` on each arrow ``u -> v`` and returns the
    largest of ``result.misfits``; raises :class:`ValidationError` for a result
    of another type or one that does not fit ``a``, its chain steps included.
    """
    from .cycle import RegularizingDecomposition  # cycle imports this module

    if not isinstance(result, (ChainTrace, RegularizingDecomposition)):
        raise ValidationError(f"cannot measure a result of type {type(result).__name__}")
    s = result.vertex_transforms if isinstance(result, ChainTrace) else result.trace
    if [np.shape(q) for q in s] != [(d, d) for d in a.dims]:
        raise ValidationError(
            f"trace does not fit a {a.shape.kind} of dims {a.dims}: "
            "it needs a d x d transform per vertex"
        )
    ends = [a.shape.arrow_ends(i) for i in range(1, len(a.matrices) + 1)]
    moved = [s[v - 1] @ m @ s[u - 1].conj().T for m, (u, v) in zip(a.matrices, ends)]
    return float(np.max([0.0, *result.misfits(a.shape, moved)]))  # np.max: a nan anywhere wins
