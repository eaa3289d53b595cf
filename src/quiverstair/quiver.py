"""Chain and cycle quivers, their matrix representations, and the canonical
indecomposable building blocks.

Vertices are numbered ``1..t``.  Arrow ``i`` joins vertex ``i`` and vertex
``[i+1]``, where ``[n]`` is the unique value in ``1..t`` congruent to ``n``
mod ``t`` (chains have arrows ``1..t-1`` and no wraparound).  The orientation
flag ``">"`` (clockwise) means the arrow points ``i -> [i+1]``; ``"<"``
means ``[i+1] -> i``.  The matrix on an arrow ``u -> v`` has ``dims[v]``
rows and ``dims[u]`` columns, so degenerate ``p x 0`` / ``0 x q`` matrices
appear whenever a vertex has dimension zero.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .linalg import (
    _check_int,
    _decide,
    _is_int,
    as_matrix,
    block_diag,
    sigma_max,
    svd_inverse,
)

__all__ = [
    "CHAIN",
    "CYCLE",
    "CLOCKWISE",
    "COUNTERCLOCKWISE",
    "QuiverShape",
    "chain_shape",
    "cycle_shape",
    "Representation",
    "representation_scale",
    "direct_sum",
    "transpose_rep",
    "apply_isomorphism",
    "check_label",
    "label_dims",
    "assemble",
    "make_G",
    "g_label_dims",
    "regularity_defect",
]

CHAIN = "chain"
CYCLE = "cycle"
CLOCKWISE = ">"
COUNTERCLOCKWISE = "<"

# The label kind of each quiver kind: intervals ``L`` on a chain, walks ``G`` on a cycle.
LABEL_TAG = {CHAIN: "L", CYCLE: "G"}


@dataclass(frozen=True)
class QuiverShape:
    """A chain or cycle quiver: vertex count plus per-arrow orientations."""

    kind: str
    t: int
    orientations: str

    def __post_init__(self):
        if self.kind not in (CHAIN, CYCLE):
            raise ValidationError(f"field 'kind' must be 'chain' or 'cycle', got {self.kind!r}")
        if not _is_int(self.t):
            raise ValidationError(f"field 't' must be an integer, got {self.t!r}")
        object.__setattr__(self, "t", int(self.t))
        if not isinstance(self.orientations, str):
            raise ValidationError(
                f"field 'orientations' must be a string, got {self.orientations!r}"
            )
        _check_int(f"a {self.kind}", "t", self.t, 1 if self.kind == CHAIN else 2)
        if len(self.orientations) != self.arrow_count:
            raise ValidationError(
                f"expected {self.arrow_count} orientation flags, got {len(self.orientations)}"
            )
        if any(c not in (CLOCKWISE, COUNTERCLOCKWISE) for c in self.orientations):
            raise ValidationError("orientations must consist of '>' and '<'")

    @property
    def arrow_count(self) -> int:
        return self.t - 1 if self.kind == CHAIN else self.t

    def wrap(self, n: int) -> int:
        """The representative of ``n`` in ``1..t``."""
        return 1 + (n - 1) % self.t

    def is_clockwise(self, arrow: int) -> bool:
        self._check_arrow(arrow)
        return self.orientations[arrow - 1] == CLOCKWISE

    def arrow_ends(self, arrow: int) -> tuple[int, int]:
        """Source and target vertex of the given arrow (1-based)."""
        self._check_arrow(arrow)
        a, b = arrow, arrow + 1 if self.kind == CHAIN else self.wrap(arrow + 1)
        return (a, b) if self.orientations[arrow - 1] == CLOCKWISE else (b, a)

    def reversed(self) -> "QuiverShape":
        flipped = "".join(
            CLOCKWISE if c == COUNTERCLOCKWISE else COUNTERCLOCKWISE for c in self.orientations
        )
        return QuiverShape(self.kind, self.t, flipped)

    def _check_arrow(self, arrow: int):
        if not 1 <= arrow <= self.arrow_count:
            raise ValidationError(f"arrow index {arrow} out of range 1..{self.arrow_count}")


def _check_kind(who: str, shape: QuiverShape, kind: str) -> None:
    """The one kind rule: ``shape`` is a quiver of ``kind``."""
    if shape.kind != kind:
        raise ValidationError(f"{who} needs a {kind}, got a {shape.kind}")


def chain_shape(t: int, orientations: str) -> QuiverShape:
    return QuiverShape(CHAIN, t, orientations)


def cycle_shape(t: int, orientations: str) -> QuiverShape:
    return QuiverShape(CYCLE, t, orientations)


@dataclass(frozen=True)
class Representation:
    """A matrix representation: one complex matrix per arrow.

    Matrices are stored read-only; operations return new representations.
    """

    shape: QuiverShape
    dims: tuple[int, ...]
    matrices: tuple[np.ndarray, ...]

    def __post_init__(self):
        if not all(map(_is_int, self.dims)):
            raise ValidationError(f"field 'dims' must be integers, got {self.dims!r}")
        dims = tuple(int(d) for d in self.dims)
        if len(dims) != self.shape.t:
            raise ValidationError(
                f"need {self.shape.t} nonnegative dimensions, got {self.dims!r}"
            )
        for v, d in enumerate(dims, start=1):
            _check_int(f"vertex {v}", "dimension", d, 0)
        if len(self.matrices) != self.shape.arrow_count:
            raise ValidationError(
                f"need {self.shape.arrow_count} matrices, got {len(self.matrices)}"
            )
        mats = []
        for i, raw in enumerate(self.matrices, start=1):
            m = as_matrix(raw).copy()
            u, v = self.shape.arrow_ends(i)
            if not np.isfinite(m).all():
                raise ValidationError(f"arrow {i} ({u}->{v}): non-finite entries")
            want = (dims[v - 1], dims[u - 1])
            if m.shape != want:
                raise ValidationError(
                    f"arrow {i} ({u}->{v}): matrix is {m.shape[0]}x{m.shape[1]}, "
                    f"expected {want[0]}x{want[1]}"
                )
            m.setflags(write=False)
            mats.append(m)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "matrices", tuple(mats))


def representation_scale(rep: Representation) -> float:
    """Largest singular value over all matrices of the representation."""
    return sigma_max(*rep.matrices)


def direct_sum(a: Representation, b: Representation) -> Representation:
    """Vertexwise direct sum; matrices are stacked block-diagonally.

    Degenerate blocks follow the ``p x 0`` / ``0 x q`` stacking conventions,
    e.g. ``M ⊕ 0_{m x 0}`` appends ``m`` zero rows.
    """
    if a.shape != b.shape:
        raise ValidationError("direct_sum requires identical quiver shapes")
    dims = tuple(x + y for x, y in zip(a.dims, b.dims))
    mats = tuple(block_diag(ma, mb) for ma, mb in zip(a.matrices, b.matrices))
    return Representation(a.shape, dims, mats)


def transpose_rep(a: Representation) -> Representation:
    """Transpose every matrix (no conjugation) and flip every arrow."""
    mats = tuple(m.T for m in a.matrices)
    return Representation(a.shape.reversed(), a.dims, mats)


def apply_isomorphism(a: Representation, transforms, *, _inverses=None) -> Representation:
    """Change basis at every vertex: arrow ``u -> v`` maps to ``S_v A S_u^{-1}``.

    Inverses are computed by SVD at ``DEFAULT_TOL``; a numerically singular
    transform is rejected.  A caller that already holds the inverses (``plant``
    holds ``S^H`` of its unitaries) passes them as the private ``_inverses``,
    which are taken as they are.
    """
    if len(transforms) != a.shape.t:
        raise ValidationError(f"need {a.shape.t} vertex transforms, got {len(transforms)}")
    mats_s = [as_matrix(s) for s in transforms]
    for v, (m, d) in enumerate(zip(mats_s, a.dims), start=1):
        if m.shape != (d, d):
            raise ValidationError(
                f"vertex {v}: transform is {m.shape[0]}x{m.shape[1]}, expected {d}x{d}"
            )
    inverses = [svd_inverse(s) for s in mats_s] if _inverses is None else _inverses
    new = []
    for i in range(1, a.shape.arrow_count + 1):
        u, v = a.shape.arrow_ends(i)
        new.append(mats_s[v - 1] @ a.matrices[i - 1] @ inverses[u - 1])
    return Representation(a.shape, a.dims, tuple(new))


def check_label(shape: QuiverShape, a: int, b: int, m: int = 1):
    """Reject an interval label ``(i, j)`` outside ``1 <= i <= j <= t`` (chains)
    or a walk label ``(l, r)`` outside ``1 <= l <= t``, ``r >= l`` (cycles),
    and a multiplicity ``m`` that is negative; all three must be integers."""
    if not all(map(_is_int, (a, b, m))):
        raise ValidationError(
            f"label ({a!r}, {b!r}) x {m!r}: bounds and multiplicity must be integers"
        )
    _check_int(f"label ({a}, {b})", "multiplicity", m, 0)
    t = shape.t
    if shape.kind == CHAIN and not 1 <= a <= b <= t:
        raise ValidationError(f"interval label ({a}, {b}) out of range for t={t}")
    if shape.kind == CYCLE and not (1 <= a <= t and b >= a):
        raise ValidationError(f"walk label ({a}, {b}) out of range for t={t}")


def label_dims(t: int, labels) -> tuple[int, ...]:
    """Vertex dimensions of the summands named by ``(label, multiplicity)`` pairs.

    Position ``q`` of a label ``(a, b)``, for ``a <= q <= b``, adds the
    multiplicity to vertex ``[q]`` of a quiver with ``t`` vertices.  Labels
    are taken as given; :func:`check_label` validates them.
    """
    dims = [0] * t
    for (a, b), m in labels:
        for q in range(a, b + 1):
            dims[(q - 1) % t] += m
    return tuple(dims)


def assemble(shape: QuiverShape, labels) -> Representation:
    """Direct sum of the summands named by ``(label, multiplicity)`` pairs.

    A label is an interval ``(i, j)`` on a chain or a clockwise walk
    ``(l, r)`` on a cycle; either way the summand has one basis vector per
    position ``q`` of the walk, lying over vertex ``[q]``.  Summands enter in
    the given order with their copies consecutive, and a vertex's basis
    follows that order and then increasing ``q``.  Each walk step writes a
    single 1 into the matrix of the arrow it traverses, in the direction
    that arrow points, so every matrix has at most one 1 per row and column.
    """
    labels = list(labels)
    for (a, b), m in labels:
        check_label(shape, a, b, m)
    dims = label_dims(shape.t, labels)
    mats = []
    for a in range(1, shape.arrow_count + 1):
        u, v = shape.arrow_ends(a)
        mats.append(np.zeros((dims[v - 1], dims[u - 1]), dtype=np.complex128))
    clockwise = [c == CLOCKWISE for c in shape.orientations]
    used = [0] * shape.t
    for (l, r), m in labels:
        for _ in range(m):
            for q in range(l, r + 1):
                v = shape.wrap(q)
                k = used[v - 1]
                used[v - 1] += 1
                if q > l:  # the step q-1 -> q traverses arrow [q-1]
                    a = shape.wrap(q - 1)
                    if clockwise[a - 1]:
                        mats[a - 1][k, prev] = 1.0
                    else:
                        mats[a - 1][prev, k] = 1.0
                prev = k
    return Representation(shape, dims, tuple(mats))


def g_label_dims(shape: QuiverShape, l: int, r: int) -> tuple[int, ...]:
    """Vertex dimensions of ``G(l, r)``: how many walk positions lie over each vertex."""
    _check_kind("g_label_dims", shape, CYCLE)
    check_label(shape, l, r)
    return label_dims(shape.t, [((l, r), 1)])


def make_G(l: int, r: int, shape: QuiverShape) -> Representation:
    """Cycle indecomposable built from the clockwise walk ``l -> l+1 -> ... -> r``.

    The space at vertex ``v`` is spanned by the walk indices lying over ``v``
    (increasing order); see :func:`assemble` for where the ones go.
    """
    _check_kind("make_G", shape, CYCLE)
    return assemble(shape, [((l, r), 1)])


def regularity_defect(a: Representation, threshold: float) -> str | None:
    """Why the cycle representation ``a`` is not regular, or ``None`` if it is.

    Regular means that all vertex dimensions agree and that every matrix has
    its smallest singular value above ``threshold``.
    """
    return _defect(a, threshold, range(1, a.shape.arrow_count + 1))


def _defect(a: Representation, threshold: float, arrows) -> str | None:
    """:func:`regularity_defect` with only ``arrows`` judged; ``None`` if they pass."""
    if len(set(a.dims)) > 1:
        return f"uneven dimensions {a.dims}"
    for i in arrows:
        s, k = _decide(a.matrices[i - 1], threshold)[:2]
        if k < len(s):
            return _singular_arrow(i, s[-1], threshold)
    return None


def _singular_arrow(i: int, sigma_min: float, threshold: float) -> str:
    """The one wording of a regularity defect at arrow ``i``."""
    return f"singular at arrow {i}: sigma_min={sigma_min:.6g} <= threshold {threshold:.6g}"
