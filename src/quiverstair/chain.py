"""Canonical decomposition of chain representations by unitary staircase steps.

The algorithm sweeps the chain left to right.  Entering step ``r`` the basis
of vertex ``r`` is partitioned into strips, one per interval start vertex
``p_i``, each strip holding ``k_i`` copies of a partial interval
``p_i -> ... -> r``.  The staircase reduction of the matrix on arrow ``r``
reveals how many of those copies extend across the arrow (``l_i``); the other
``k_i - l_i`` copies split off as finished summands ``L(p_i, r)``.  Vertical
strips (clockwise arrow) are processed left to right, horizontal strips
(counterclockwise) bottom-up, and the surviving strips inherit the basis
order the staircase form leaves at vertex ``r+1``: blocks first and the new
bare vertex last for vertical steps, the bare vertex first for horizontal
steps.  That ordering is load-bearing; it encodes the flag of subspaces the
remaining transformations must respect.

The vertex unitaries are the sweep's whole state.  Step ``r`` reads arrow
``r`` from the input, taken into vertex ``r``'s current basis (vertex
``r+1`` still has the input's), refines vertex ``r``'s unitary by the
staircase's block-diagonal one on the strips, and sets vertex ``r+1``'s
unitary to the staircase's other one.
"""

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import QuiverError, ValidationError
from .linalg import (
    DEFAULT_TOL,
    HORIZONTAL,
    VERTICAL,
    TolerancePolicy,
    _check_tol,
    staircase_reduce,
    staircase_residual,
)
from .quiver import (
    CHAIN,
    CLOCKWISE,
    QuiverShape,
    Representation,
    assemble,
    label_dims,
)

__all__ = [
    "ChainCanonicalForm",
    "ChainStep",
    "ChainTrace",
    "canon_chain",
    "assemble_canonical",
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

    ``residual`` is :func:`reduction_residual` of the input and this trace.
    """

    vertex_transforms: list[np.ndarray]
    threshold: float
    steps: list[ChainStep] = field(default_factory=list)
    residual: float = 0.0

    def misfits(self, shape: QuiverShape, moved: list[np.ndarray]) -> list[float]:
        """Each step's staircase residual on its arrow of ``moved``, the input in these bases.

        Raises :class:`ValidationError` unless the steps are oriented as ``shape``'s arrows.
        """
        if [step.orientation for step in self.steps] != list(shape.orientations):
            raise ValidationError(
                f"trace does not fit a chain of orientations {shape.orientations!r}: "
                "it needs a step per arrow, oriented as the arrow"
            )
        return [
            staircase_residual(
                m, step.strip_sizes, step.block_sizes,
                VERTICAL if step.orientation == CLOCKWISE else HORIZONTAL,
            )
            for m, step in zip(moved, self.steps)
        ]


def canon_chain(
    a: Representation, tol: TolerancePolicy = DEFAULT_TOL
) -> tuple[ChainCanonicalForm, ChainTrace]:
    """Canonical multiset of interval summands of a chain representation.

    Returns the multiset ``{(i, j): multiplicity}`` together with the trace:
    the accumulated unitary change of basis at every vertex, the strip/block
    sizes of every step, and the residual: the input taken into the returned
    bases, measured where some step's staircase form demands a zero (see
    :func:`reduction_residual`).

    Every step decides ranks against one threshold, ``tol.threshold`` of all
    the input's matrices, so a matrix consisting purely of noise does not
    count as full rank; the trace reports it.

    Numeric failures propagate with the step index attached.
    """
    _check_tol(tol)
    if a.shape.kind != CHAIN:
        raise ValidationError("canon_chain needs a chain representation")
    t = a.shape.t
    counts: Counter = Counter()
    tau = tol.threshold(*a.matrices)
    trace = ChainTrace(
        vertex_transforms=[np.eye(d, dtype=np.complex128) for d in a.dims], threshold=tau
    )
    s = trace.vertex_transforms
    strips: list[tuple[int, int]] = [(1, a.dims[0])]

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
        trace.steps.append(ChainStep(a.shape.orientations[r - 1], sizes, ls))

    for p, k in strips:
        if k:
            counts[(p, t)] += k
    trace.residual = reduction_residual(a, trace)
    return ChainCanonicalForm(t, counts), trace


def assemble_canonical(form: ChainCanonicalForm, shape: QuiverShape) -> Representation:
    """Direct sum of the form's interval summands, lexicographic label order."""
    if shape.kind != CHAIN or shape.t != form.t:
        raise ValidationError("shape does not match the canonical form")
    return assemble(shape, form.sorted_labels())


def reduction_residual(a: Representation, result) -> float:
    """How far the input, taken into a result's unitary bases, is from the form it claims.

    ``result`` is a :class:`ChainTrace` (staircase patterns in the bases
    ``vertex_transforms``) or a ``ShaveResult`` (the glued split in the bases
    ``trace``).  Forms ``S_v A S_u^H`` on each arrow ``u -> v`` and returns
    the largest of ``result.misfits`` on them; raises
    :class:`ValidationError` if the result does not fit ``a``.
    """
    s = result.vertex_transforms if isinstance(result, ChainTrace) else result.trace
    if [np.shape(q) for q in s] != [(d, d) for d in a.dims]:
        raise ValidationError(
            f"trace does not fit a {a.shape.kind} of dims {a.dims}: "
            "it needs a d x d transform per vertex"
        )
    ends = [a.shape.arrow_ends(i) for i in range(1, len(a.matrices) + 1)]
    moved = [s[v - 1] @ m @ s[u - 1].conj().T for m, (u, v) in zip(a.matrices, ends)]
    return float(np.max([0.0, *result.misfits(a.shape, moved)]))  # np.max: a nan anywhere wins
