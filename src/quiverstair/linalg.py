"""Dense complex-matrix kernel: SVD-backed rank decisions and the unitary
compressions every reduction step in this package is built from.

All routines accept matrices with zero rows or zero columns.  A ``p x 0`` or
``0 x q`` matrix is the unique matrix of that size; it represents the linear
map ``0 -> C^p`` or ``C^q -> 0`` and counts as a zero matrix.  Degenerate
inputs yield empty/identity transforms and rank 0 without caller-side special
cases.
"""

import cmath
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ValidationError

__all__ = [
    "TolerancePolicy",
    "DEFAULT_TOL",
    "VERTICAL",
    "HORIZONTAL",
    "as_matrix",
    "block_diag",
    "f_block",
    "g_block",
    "jordan_block",
    "svd",
    "svd_inverse",
    "singular_values",
    "sigma_max",
    "numerical_rank",
    "row_compress",
    "col_compress",
    "two_sided_reduce",
    "staircase_reduce",
    "staircase_residual",
    "unitarity_defect",
]

VERTICAL = "vertical"
HORIZONTAL = "horizontal"


def _is_real(x) -> bool:
    """A real number of any type, numpy's included, but not a bool."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _is_int(x) -> bool:
    """A Python ``int`` or any ``numpy.integer``; neither ``bool`` nor ``numpy.bool_``."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _is_finite_real(x) -> bool:
    """A real number that float64 holds finitely; integers beyond its range fail."""
    try:
        return _is_real(x) and math.isfinite(x)
    except OverflowError:
        return False


def _is_finite_number(z) -> bool:
    """A real or complex number that complex128 holds finitely; not a bool."""
    try:
        return isinstance(z, numbers.Number) and not isinstance(z, bool) and cmath.isfinite(z)
    except OverflowError:
        return False


def _check_int(who: str, name: str, x) -> None:
    if not _is_int(x):
        raise ValidationError(f"{who} needs an integer {name}, got {x!r}")


def _check_threshold(threshold) -> None:
    if not (_is_finite_real(threshold) and threshold >= 0):
        raise ValidationError(f"threshold must be a finite real number >= 0, got {threshold!r}")


def _rank(s: np.ndarray, threshold) -> int:
    """The one rank rule: the number of singular values ``s`` above ``threshold``."""
    _check_threshold(threshold)
    return int(np.count_nonzero(s > threshold))


def _sizes(name: str, xs) -> list[int]:
    """``xs`` as a list of ints; only integers are accepted, numpy's included."""
    xs = list(xs)
    if not all(map(_is_int, xs)):
        raise ValidationError(f"{name} must be integers, got {xs!r}")
    return [int(x) for x in xs]


def as_matrix(a) -> np.ndarray:
    """Coerce ``a`` to a 2-D complex128 ndarray."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValidationError(f"expected a 2-D matrix, got ndim={m.ndim}")
    return m


def block_diag(*mats: np.ndarray) -> np.ndarray:
    """Block-diagonal stack of complex matrices, degenerate sizes included."""
    mats = [as_matrix(m) for m in mats]
    rows = cols = 0
    for m in mats:
        rows += m.shape[0]
        cols += m.shape[1]
    out = np.zeros((rows, cols), dtype=np.complex128)
    r = c = 0
    for m in mats:
        out[r : r + m.shape[0], c : c + m.shape[1]] = m
        r += m.shape[0]
        c += m.shape[1]
    return out


def f_block(n: int) -> np.ndarray:
    """The ``(n-1) x n`` matrix with ones on the main diagonal.

    For ``n = 1`` this is the unique ``0 x 1`` matrix.
    """
    _check_int("f_block", "n", n)
    if n < 1:
        raise ValidationError(f"f_block needs n >= 1, got {n}")
    return np.eye(n - 1, n, dtype=np.complex128)


def g_block(n: int) -> np.ndarray:
    """The ``(n-1) x n`` matrix with ones on the superdiagonal."""
    _check_int("g_block", "n", n)
    if n < 1:
        raise ValidationError(f"g_block needs n >= 1, got {n}")
    return np.eye(n - 1, n, k=1, dtype=np.complex128)


def jordan_block(n: int, lam: complex) -> np.ndarray:
    """The ``n x n`` upper Jordan block with eigenvalue ``lam``."""
    _check_int("jordan_block", "n", n)
    if not _is_finite_number(lam):
        raise ValidationError(f"jordan_block needs a finite number lam, got {lam!r}")
    if n < 0:
        raise ValidationError(f"jordan_block needs n >= 0, got {n}")
    out = np.eye(n, k=1, dtype=np.complex128)
    np.fill_diagonal(out, lam)
    return out


@dataclass(frozen=True)
class TolerancePolicy:
    """Rank-decision thresholds.

    The threshold for an input ``A_1, ..., A_n`` is ``max(abs_floor,
    rel_factor * sigma_max)`` with ``sigma_max`` the largest singular value
    over all the ``A_i`` (0 when they are all empty).  Each entry point
    derives it once from its whole input and every rank decision below uses
    that number, so a matrix made purely of noise is not promoted to full
    rank by its own tiny scale.  Every result reports the threshold it used.
    """

    abs_floor: float = 1e-12
    rel_factor: float = 1e-8

    def __post_init__(self):
        for name in ("abs_floor", "rel_factor"):
            x = getattr(self, name)
            if not _is_finite_real(x):
                raise ValidationError(
                    f"tolerance parameters must be finite real numbers, got {name}={x!r}"
                )
        if self.abs_floor < 0 or self.rel_factor < 0:
            raise ValidationError("tolerance parameters must be nonnegative")

    def from_sigma(self, sigma_max: float) -> float:
        return max(self.abs_floor, self.rel_factor * float(sigma_max))

    def threshold(self, *mats) -> float:
        """The rank threshold for the input made of ``mats``.

        Takes no SVD when ``rel_factor`` is 0: the threshold is then
        ``abs_floor`` whatever the input.
        """
        if self.rel_factor == 0:
            return self.abs_floor
        return self.from_sigma(sigma_max(*mats))


DEFAULT_TOL = TolerancePolicy()


def _check_tol(tol) -> None:
    if not isinstance(tol, TolerancePolicy):
        raise ValidationError(f"tol must be a TolerancePolicy, got {tol!r}")


def _lapack_svd(m: np.ndarray, **kwargs):
    """``np.linalg.svd`` with a convergence failure, or a non-finite singular value
    (LAPACK's answer to an inf or nan entry), reported as :class:`NumericError`."""

    def where() -> str:
        return f"on a {m.shape[0]}x{m.shape[1]} matrix with Frobenius norm {np.linalg.norm(m):.6g}"

    try:
        out = np.linalg.svd(m, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"SVD failed to converge {where()}: {exc}") from exc
    if not np.isfinite(out[1] if kwargs.get("compute_uv", True) else out).all():
        raise NumericError(f"SVD gave a non-finite singular value {where()}")
    return out


def svd(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full SVD ``a = u @ diag(s) @ vh`` with square unitary ``u`` and ``vh``.

    ``s`` has ``min(rows, cols)`` nonincreasing entries.  A convergence
    failure in the underlying solver, or a non-finite singular value (an inf
    or nan entry), is reported as :class:`NumericError` with the matrix norm
    attached.
    """
    return _lapack_svd(as_matrix(a), full_matrices=True)


def singular_values(a) -> np.ndarray:
    m = as_matrix(a)
    if min(m.shape) == 0:
        return np.zeros(0)
    return _lapack_svd(m, compute_uv=False)


def sigma_max(*mats) -> float:
    """Largest singular value over all ``mats``; 0.0 when every one is empty."""
    return max((float(s[0]) for s in map(singular_values, mats) if s.size), default=0.0)


def svd_inverse(a, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Inverse of a square matrix via SVD, rejecting numerically singular input."""
    _check_tol(tol)
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ValidationError(f"cannot invert a {m.shape[0]}x{m.shape[1]} matrix")
    if m.shape[0] == 0:
        return m.copy()
    u, s, vh = svd(m)
    tau = tol.from_sigma(s[0])
    if _rank(s, tau) < len(s):
        raise ValidationError(
            f"matrix is numerically singular: sigma_min={s[-1]:.6g} <= tau={tau:.6g}"
        )
    return vh.conj().T @ np.diag(1.0 / s) @ u.conj().T


def numerical_rank(a, threshold: float) -> int:
    """Number of singular values above ``threshold``."""
    return _rank(singular_values(a), threshold)


def row_compress(a, threshold: float) -> tuple[np.ndarray, int]:
    """Unitary ``q`` with ``q @ a = [0; r]``, ``r`` of full row rank ``k``.

    The zero block sits on top and has ``rows - k`` rows.
    """
    m = as_matrix(a)
    u, s = svd(m)[:2]  # drop vh now, not at return: it is as large as the result
    k = _rank(s, threshold)
    order = list(range(k, m.shape[0])) + list(range(k))
    q = u[:, order].conj().T
    return q, k


def col_compress(a, threshold: float) -> tuple[np.ndarray, int]:
    """Unitary ``w`` with ``a @ w = [c | 0]``, ``c`` of full column rank ``k``."""
    s, vh = svd(a)[1:]  # drop u now, not at return: it is as large as the result
    return vh.conj().T, _rank(s, threshold)


def two_sided_reduce(a, threshold: float) -> tuple[np.ndarray, np.ndarray, int]:
    """Unitary ``p``, ``s`` with ``p^H @ a @ s = [[0, h], [0, 0]]``.

    The ``k x k`` block ``h`` is nonsingular (its smallest singular value
    exceeds ``threshold``) and sits in the top-right corner.
    """
    m = as_matrix(a)
    u, sig, vh = svd(m)
    k = _rank(sig, threshold)
    n = m.shape[1]
    order = list(range(k, n)) + list(range(k))
    s_mat = vh.conj().T[:, order]
    return u, s_mat, k


def _flip(a: np.ndarray) -> np.ndarray:
    """``J a^T J`` with ``J`` the order reversal: the horizontal staircase's mirror."""
    return a[::-1, ::-1].T


def _strip_frame(a, strip_sizes, strip_axis: str) -> tuple[np.ndarray, np.ndarray]:
    """Check the strips; return ``a`` and their bounds in :func:`staircase_reduce`'s frame."""
    m = as_matrix(a)
    sizes = _sizes("strip_sizes", strip_sizes)
    if any(x < 0 for x in sizes):
        raise ValidationError("strip sizes must be nonnegative")
    if strip_axis not in (VERTICAL, HORIZONTAL):
        raise ValidationError(f"unknown strip axis {strip_axis!r}")
    along = m.shape[1] if strip_axis == VERTICAL else m.shape[0]
    if sum(sizes) != along:
        raise ValidationError(
            f"strip sizes sum to {sum(sizes)}, expected {along} for {strip_axis} strips"
        )
    if strip_axis == HORIZONTAL:
        m, sizes = _flip(m), sizes[::-1]
    return m, np.concatenate([[0], np.cumsum(sizes)]).astype(int)


def staircase_reduce(
    a, strip_sizes, strip_axis: str, threshold: float
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Reduce ``a`` to echelon-of-nonsingular-blocks form, strip by strip.

    ``strip_sizes`` partitions the columns (``strip_axis="vertical"``) or the
    rows (``"horizontal"``).  Vertical strips are processed left to right and
    claim rows from the top; horizontal strips are processed bottom-up and
    claim columns from the right.  Each strip ``i`` receives a nonsingular
    ``l_i x l_i`` block positioned rightmost in the strip (vertical) or at
    the top of the strip (horizontal); zeros fill the rest of the pattern,
    see :func:`staircase_residual`.  A horizontal call runs the vertical
    reduction on ``J a^T J`` (``J`` reverses order) with the strips reversed,
    and flips the results back.

    Returns ``(left, right, block_sizes)`` with ``left``, ``right`` unitary
    and ``left @ a @ right`` in staircase form.  The unitary on the strip
    axis (``right`` for vertical strips, ``left`` for horizontal ones) is
    block diagonal over the strips; the other one acts on the whole
    orthogonal axis.  All strips share the one ``threshold``.

    A strip with no columns, or one that meets no free row because the
    strips before it pinned them all, takes no SVD and no update: it gets
    block size 0 and the identity, exactly what the SVD of its empty
    matrix would give.
    """
    m, bounds = _strip_frame(a, strip_sizes, strip_axis)
    _check_threshold(threshold)
    left = np.eye(m.shape[0], dtype=np.complex128)
    right = np.eye(m.shape[1], dtype=np.complex128)
    ls = []
    pinned = 0
    for c0, c1 in zip(bounds, bounds[1:]):
        if c0 == c1 or pinned == m.shape[0]:
            # nothing to reduce: the SVD of an empty matrix gives identities and rank 0
            ls.append(0)
            continue
        # ``right`` is still the identity here: this is the strip of ``left @ m @ right``.
        # A non-finite entry is left to the SVD, which names it in a NumericError.
        with np.errstate(invalid="ignore", over="ignore"):
            strip = left[pinned:, :] @ m[:, c0:c1]
        p, s_mat, k = two_sided_reduce(strip, threshold)
        left[pinned:, :] = p.conj().T @ left[pinned:, :]
        right[c0:c1, c0:c1] = s_mat
        ls.append(k)
        pinned += k
    if strip_axis == HORIZONTAL:
        return _flip(right), _flip(left), ls[::-1]
    return left, right, ls


def staircase_residual(a, strip_sizes, block_sizes, strip_axis: str) -> float:
    """Largest modulus in ``a`` where the staircase form demands a zero.

    The pattern is the one :func:`staircase_reduce` produces for the given
    strip and block sizes; 0.0 when it demands no zero.  Each block must fit
    its strip (``0 <= l_i <= k_i``), and all of them the orthogonal axis.
    """
    m, bounds = _strip_frame(a, strip_sizes, strip_axis)
    ls = _sizes("block_sizes", block_sizes)
    if len(ls) != len(bounds) - 1:
        raise ValidationError("strip_sizes and block_sizes must have equal length")
    if strip_axis == HORIZONTAL:
        ls = ls[::-1]
    band = np.concatenate([[0], np.cumsum(ls)]).astype(int)
    if any(not 0 <= l <= k for l, k in zip(ls, np.diff(bounds))) or band[-1] > m.shape[0]:
        raise ValidationError(f"block sizes must fit their strips and sum to at most {m.shape[0]}")
    mask = np.zeros(m.shape, dtype=bool)
    for l, c0, c1, b0, b1 in zip(ls, bounds, bounds[1:], band, band[1:]):
        if c0 == c1:
            continue
        mask[b1:, c0:c1] = True
        mask[b0:b1, c0 : c1 - l] = True
    return float(np.abs(m[mask]).max(initial=0.0))


def unitarity_defect(q) -> float:
    """Frobenius distance of ``q^H q`` from the identity."""
    m = as_matrix(q)
    n = m.shape[1]
    return float(np.linalg.norm(m.conj().T @ m - np.eye(n)))
