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
from itertools import accumulate

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
    "unitarity_defect",
]

VERTICAL = "vertical"
HORIZONTAL = "horizontal"
_ONE = np.ones((1, 1), dtype=np.complex128)  # copied, never handed out


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


def _check_int(who: str, name: str, x, minimum: int | None = None) -> int:
    """The one integer rule: ``x`` is an integer, and at least ``minimum`` if given.

    Returns ``x`` as a Python ``int``, so later arithmetic cannot wrap around.
    """
    if not (_is_int(x) and (minimum is None or x >= minimum)):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ValidationError(f"{who} needs an integer {name}{bound}, got {x!r}")
    return int(x)


def _check_real(name: str, x, minimum: float) -> None:
    """The one real-bound rule: ``x`` is a finite real number of at least ``minimum``."""
    if type(x) is float and math.isfinite(x) and x >= minimum:
        return  # the common case, decided without the ``numbers.Real`` check
    if not (_is_finite_real(x) and x >= minimum):
        raise ValidationError(f"{name} must be a finite real number >= {minimum}, got {x!r}")


def _rank(s: np.ndarray, threshold: float) -> int:
    """The one rank rule: the number of singular values ``s`` above ``threshold``."""
    return int(np.count_nonzero(np.greater(s, threshold)))


def _sizes(name: str, xs) -> list[int]:
    """``xs`` as a list of ints; only integers are accepted, numpy's included."""
    xs = list(xs)
    if set(map(type, xs)) <= {int}:
        return xs  # the common case, decided without a call per entry
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
    _check_int("f_block", "n", n, 1)
    return np.eye(n - 1, n, dtype=np.complex128)


def g_block(n: int) -> np.ndarray:
    """The ``(n-1) x n`` matrix with ones on the superdiagonal."""
    _check_int("g_block", "n", n, 1)
    return np.eye(n - 1, n, k=1, dtype=np.complex128)


def jordan_block(n: int, lam: complex) -> np.ndarray:
    """The ``n x n`` upper Jordan block with eigenvalue ``lam``."""
    _check_int("jordan_block", "n", n, 0)
    if not _is_finite_number(lam):
        raise ValidationError(f"jordan_block needs a finite number lam, got {lam!r}")
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
            _check_real(f"field {name!r}", getattr(self, name), 0)

    def from_sigma(self, sigma_max: float) -> float:
        return max(self.abs_floor, self.rel_factor * float(sigma_max))

    def threshold(self, *mats) -> float:
        """The rank threshold for the input made of ``mats``.

        Takes no SVD when ``rel_factor`` is 0: the threshold is then
        ``abs_floor`` whatever the input.
        """
        return self._threshold(mats)[0]

    def _threshold(self, mats) -> tuple[float, list[np.ndarray] | None]:
        """:meth:`threshold` and the singular values of each of ``mats`` it took.

        The values are ``None`` when ``rel_factor`` is 0, which takes none.
        """
        if self.rel_factor == 0:
            return self.abs_floor, None
        values = [singular_values(m) for m in mats]
        return self.from_sigma(_largest(values)), values


DEFAULT_TOL = TolerancePolicy()


def _check_tol(tol) -> None:
    if not isinstance(tol, TolerancePolicy):
        raise ValidationError(f"tol must be a TolerancePolicy, got {tol!r}")


# A sum of squares within these bounds lost nothing to overflow, and less than 2^-62 of
# itself to squares that underflowed (each below 2^-1022, at most 2^60 of them).
_SQUARES_LOW, _SQUARES_HIGH = 2.0**-900, 2.0**900


def _fro(m: np.ndarray, axis: int | None = None):
    """The Frobenius norm of ``m``, or with ``axis=1`` the norm of each row.

    Taken over the real and imaginary parts.  A sum of squares that may
    have overflowed or underflowed is taken again from the parts scaled by
    the power of two that brings their largest modulus to ``[1/2, 1)``, as
    LAPACK's ``dznrm2`` scales, so the norm is finite wherever the true one
    is, and ``2^j`` times the norm of ``m / 2^j``; with ``axis=1`` each such
    row is scaled by its own power of two.  An ``inf`` entry gives ``inf``,
    a ``nan`` one ``nan``, and a norm beyond float64 reads ``inf``, all
    without a warning.  An empty ``m`` has norm 0.
    """
    if m.dtype.kind == "c":
        m = np.ascontiguousarray(m).view(np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        if axis is not None:
            squares = np.einsum("ij,ij->i", m, m)
            out = np.sqrt(squares)
            redo = ~((_SQUARES_LOW <= squares) & (squares <= _SQUARES_HIGH))
            if redo.any():
                rows = m[redo]
                e = np.frexp(np.abs(rows).max(axis=1, initial=0.0))[1]  # 0 for 0, inf, nan
                rows = np.ldexp(rows, -e[:, None])
                out[redo] = np.ldexp(np.sqrt(np.einsum("ij,ij->i", rows, rows)), e)
            return out
        y = m.ravel()
        squares = float(y.dot(y))
        if _SQUARES_LOW <= squares <= _SQUARES_HIGH:
            return math.sqrt(squares)
        lo, hi = (float(y.min()), float(y.max())) if y.size else (0.0, 0.0)
        top = max(hi, -lo) if lo == lo and hi == hi else math.nan
        if not 0 < top < math.inf:  # all zero, or an inf or nan entry
            return top
        e = math.frexp(top)[1]
        y = np.ldexp(y, -e)
        try:
            return math.ldexp(math.sqrt(float(y.dot(y))), e)
        except OverflowError:  # beyond float64
            return math.inf


def _numeric_error(m: np.ndarray, what: str, detail: str = "") -> NumericError:
    """``what`` about ``m``, with its shape and norm; an inf or nan entry gets one message."""
    if not np.isfinite(m).all():
        what, detail = "non-finite entry in", ""
    rows, cols = m.shape
    return NumericError(f"{what} a {rows}x{cols} matrix with Frobenius norm {_fro(m):.6g}{detail}")


# LAPACK's SVD rescales a matrix whose largest modulus lies beyond about 2^(+-457) by a
# factor that is not a power of two.  Inside that band its answer for 2^j m is exactly
# 2^j times its answer for m.  A sum of singular values within 2^(+-400) keeps the largest
# modulus inside it: that modulus lies between sigma_max / sqrt(rows * cols) and sigma_max.
_SVD_LOW, _SVD_HIGH = 2.0**-400, 2.0**400


def _lapack_svd(m: np.ndarray, **kwargs):
    """``np.linalg.svd``, exactly equivariant under scaling by powers of two.

    A matrix whose singular values sum beyond ``2^(+-400)`` is taken again,
    scaled by a power of two to a largest modulus in ``[1/2, 1)``, and its
    singular values are scaled back, so no entry point's answer depends on
    LAPACK's own inexact rescaling.  ``m`` is otherwise inspected, by
    :func:`_numeric_error`, only if the SVD fails.
    """
    uv = kwargs.get("compute_uv", True)
    try:
        out = np.linalg.svd(m, **kwargs)
        s = out[1] if uv else out
        total = float(s.sum())  # nan or inf if a singular value is
        if _SVD_LOW <= total <= _SVD_HIGH or not total:
            return out
        if not np.isfinite(s).all():
            raise _numeric_error(m, "SVD gave a non-finite singular value on")
        e = math.frexp(float(np.abs(m).max()))[1]
        out = np.linalg.svd(np.ldexp(m.real, -e) + 1j * np.ldexp(m.imag, -e), **kwargs)
    except np.linalg.LinAlgError as exc:
        raise _numeric_error(m, "SVD failed to converge on", f": {exc}") from exc
    return (out[0], np.ldexp(out[1], e), out[2]) if uv else np.ldexp(out, e)


def svd(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full SVD ``a = u @ diag(s) @ vh`` with square unitary ``u`` and ``vh``.

    ``s`` has ``min(rows, cols)`` nonincreasing entries.  A failure, or an inf
    or nan entry, raises :class:`NumericError` naming the shape and norm.
    """
    return _lapack_svd(as_matrix(a), full_matrices=True)


def singular_values(a) -> np.ndarray:
    m = as_matrix(a)
    if min(m.shape) == 0:
        return np.zeros(0)
    return _lapack_svd(m, compute_uv=False)


def sigma_max(*mats) -> float:
    """Largest singular value over all ``mats``; 0.0 when every one is empty."""
    return _largest(map(singular_values, mats))


def _largest(values) -> float:
    """The largest of the nonincreasing singular values ``values`` of some matrices; 0.0 if none."""
    return max((float(s[0]) for s in values if s.size), default=0.0)


def _decide(m: np.ndarray, threshold, uv: bool = False, known: np.ndarray | None = None):
    """The one rank decision on the complex matrix ``m``: ``(s, k, tau, u, vh)``.

    ``k`` counts the singular values ``s`` above ``tau``: ``threshold``, or a
    :class:`TolerancePolicy` applied to ``s[0]``.  ``uv`` adds the square
    unitaries of ``m = u @ diag(s) @ vh``.  ``known``, not given with ``uv``,
    is ``s`` taken before (the singular values of ``m``): no LAPACK runs.  A
    nonempty ``n x 1`` ``m`` with a finite norm takes no LAPACK: ``s`` is that
    norm, max-abs scaled as LAPACK's ``dznrm2`` scales it (no square overflows
    or underflows), ``vh = [[1]]``, and ``u`` is the identity at rank 0 and at
    rank 1 the Householder reflector, its first column rephased so that
    ``u^H @ m = s[0] e_1``, as an SVD's is.
    """
    policy = isinstance(threshold, TolerancePolicy)
    if not policy:
        _check_real("threshold", threshold, 0)
    rows, cols = m.shape
    u = vh = None
    sigma = math.inf
    if cols == 1 and rows and known is None:
        parts = m.view(np.float64)  # rows x 2: the real and imaginary parts
        amax = float(np.abs(parts).max())
        if math.isfinite(amax):
            y = (parts / (amax or 1.0)).ravel()
            nu = math.sqrt(float(np.dot(y, y)))
            sigma = amax * nu
    if known is not None:
        s = known
    elif math.isfinite(sigma):
        s = np.array([sigma])
    elif uv:
        u, s, vh = _lapack_svd(m, full_matrices=True)
    else:
        s = _lapack_svd(m, compute_uv=False) if m.size else np.zeros(0)
    tau = threshold.from_sigma(s[0] if s.size else 0.0) if policy else threshold
    k = _rank(s, tau)
    if uv and u is None:  # the one-column rule decided
        vh = _ONE  # every caller hands out a product of it, never the array
        if not k:
            u = np.eye(rows, dtype=np.complex128)
        else:
            # I - v v^H / (nu (nu + |y_0|)) takes y = m / amax to -nu phase e_1; v is built in y
            v = y.view(np.complex128)
            y0 = abs(v[0])
            phase = v[0] / y0 if y0 else 1.0
            v[0] += nu * phase  # the sign that cannot cancel
            u = v[:, None] * (v.conj() / -(nu * (nu + y0)))
            u.ravel()[:: rows + 1] += 1
            u[:, 0] *= -phase  # now u^H @ m = sigma e_1
    return s, k, tau, u, vh


_BOUND_SAFETY = 1e-12  # relative margin that rounding in either bound cannot cross


def _is_zero(m: np.ndarray, threshold: float) -> bool:
    """Whether ``m``'s largest singular value is at most ``threshold``: rank 0 by :func:`_decide`.

    Exact arithmetic gives ``max|m_ij| <= sigma_max <= ||m||_F``, so an entry
    above ``threshold`` by the safety margin makes ``m`` nonzero and a Frobenius
    norm below it by the margin makes ``m`` zero, with no SVD.  The norm is
    :func:`_fro`'s, whose squares neither overflow nor underflow.  Only when
    neither bound settles it, or an entry is ``inf`` or ``nan``, does
    :func:`_decide` answer, and raise its :class:`NumericError`.  An empty
    ``m`` is zero.
    """
    _check_real("threshold", threshold, 0)
    if not m.size:
        return True
    moduli = np.abs(m)
    amax = float(moduli.max())
    if math.isfinite(amax):
        if amax > threshold * (1 + _BOUND_SAFETY):
            return False
        if _fro(m) < threshold * (1 - _BOUND_SAFETY):
            return True
    return _decide(m, threshold)[1] == 0


def _to_back(x: np.ndarray, k: int) -> np.ndarray:
    """``x`` with its first ``k`` columns moved behind the rest (``x`` itself if none move)."""
    n = x.shape[1]
    return x if k == 0 or k == n else x[:, list(range(k, n)) + list(range(k))]


def svd_inverse(a, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Inverse of a square matrix via SVD, rejecting numerically singular input."""
    _check_tol(tol)
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ValidationError(f"cannot invert a {m.shape[0]}x{m.shape[1]} matrix")
    if m.shape[0] == 0:
        return m.copy()
    s, k, tau, u, vh = _decide(m, tol, uv=True)
    if k < len(s):
        raise ValidationError(
            f"matrix is numerically singular: sigma_min={s[-1]:.6g} <= tau={tau:.6g}"
        )
    return (vh.conj().T * (1.0 / s)) @ u.conj().T  # scales columns: no diagonal product


def numerical_rank(a, threshold: float) -> int:
    """Number of singular values above ``threshold``."""
    return _decide(as_matrix(a), threshold)[1]


def row_compress(a, threshold: float) -> tuple[np.ndarray, int]:
    """Unitary ``q`` with ``q @ a = [0; r]``, ``r`` of full row rank ``k``.

    The zero block sits on top and has ``rows - k`` rows.
    """
    _, k, _, u, _ = _decide(as_matrix(a), threshold, uv=True)
    return _to_back(u, k).conj().T, k


_REVISIT_MARGIN = 10.0  # how far on its side of tau each certificate of a revisit must land
# Fewest rows and columns of a revisited matrix that take the update.  Measured with one
# BLAS thread on planted revisits, update over row_compress: 1.6-2.1x at 16 x 16,
# 0.7-1.0x at 32 x 32, 0.5-0.7x at 40 x 40, 0.2-0.3x from 96 x 96; below about 32 the
# SVD costs less than the update's Python overhead.
_REVISIT_MIN_DIM = 40
# Fewest rows of a vertex at which a shave step that moves only some of its directions
# applies them as a reflector block, not as a dense unitary.  Measured with one BLAS
# thread on a counterclockwise step at n x n, block over dense, for r = 1..14 directions:
# 1.1-1.8x at 48, 0.9-2.0x at 56, 0.7-0.8x (r <= 4) and 1.2-1.5x (r = 8..14) at 64,
# 0.5-1.1x at 80, 0.4-0.7x at 96; below, building the block costs more than it saves.
_BLOCK_MIN_DIM = 64
_EPS = float(np.finfo(np.float64).eps)


def _reflector_block(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The unitary ``Q = I - v t v^H`` whose first ``r`` columns span those of ``x``.

    ``x`` is ``n x r`` of full column rank, ``r <= n``.  ``Q`` is the product
    of the ``r`` Householder reflectors ``I - tau_i v_i v_i^H`` of a QR
    factorization of ``x`` (LAPACK's ``geqrf``, so ``Q^H @ x`` is upper
    triangular), kept in the compact WY form (Schreiber & Van Loan, 1989):
    ``v`` is ``n x r`` unit lower trapezoidal and ``t`` is ``r x r`` upper
    triangular.  Applying ``Q`` or ``Q^H`` to ``n`` rows of ``m`` columns
    costs ``O(r n m)``, against ``O(n^2 m)`` for a dense ``n x n`` unitary;
    see :func:`_left` and :func:`_right`.  ``r = 0`` gives the identity.
    """
    r = x.shape[1]
    h, tau = np.linalg.qr(x, mode="raw")  # h^T holds R and, below it, the v_i
    v = np.tril(h.T, -1)
    np.fill_diagonal(v, 1.0)
    g = v.conj().T @ v
    t = np.zeros((r, r), dtype=np.complex128)
    for i in range(r):  # LAPACK's larft: column i of t from the columns before it
        t[:i, i] = -tau[i] * (t[:i, :i] @ g[:i, i])
        t[i, i] = tau[i]
    return v, t


def _left(s, m: np.ndarray) -> np.ndarray:
    """``s @ m`` for a unitary ``s``: ``None`` for the identity (``m`` itself comes
    back), a matrix, or a :func:`_reflector_block` ``(v, t)`` standing for ``Q^H``."""
    if s is None:
        return m
    if isinstance(s, np.ndarray):
        return s @ m
    v, t = s
    return m - v @ (t.conj().T @ (v.conj().T @ m))


def _right(m: np.ndarray, s) -> np.ndarray:
    """``m @ s^H`` for a unitary ``s`` as :func:`_left` takes it: ``m @ Q`` for a block."""
    if s is None:
        return m
    if isinstance(s, np.ndarray):
        return m @ s.conj().T
    v, t = s
    return m - ((m @ v) @ t) @ v.conj().T


def _row_compress_revisit(cur, pending, tau: float) -> tuple[tuple | None, int] | None:
    """:func:`row_compress` of ``cur`` decided from the columns that left it, or ``None``.

    Meant for ``[pending | cur] = M @ S^H``: ``M``'s ``k`` rows orthogonal
    (the rows a full compression kept, of norms ``d``), ``S`` unitary, and
    the ``s`` columns of ``pending`` split off since.  With ``d`` the row
    norms of ``[pending | cur]``, ``C = pending / d`` and ``W = cur / d`` row
    by row, ``C C^H + W W^H = I - E`` for a rounding error ``E``, so ``cur``
    loses rows only along ``x / d`` for the left singular vectors ``x`` of
    ``C`` whose singular values ``gamma`` are near 1.  Two certificates settle
    the rank; both are measured on the arguments as given, so rows that are
    not orthogonal can only make this decline:

    1. at least ``c`` singular values of ``cur`` lie below tau, since
       ``sigma_{k-c+1}(cur) <= ||Y^H cur||_F`` (min-max) for ``Y`` an
       orthonormal basis of ``c`` candidates ``x / d``.  This is checked:
       the norm must be at most ``tau / margin``;
    2. at most ``c`` lie below tau, since ``sigma_{k-c}(cur) >= min(d)
       sqrt(1 - gamma_{c+1}^2 - delta)`` with ``delta >= ||E||_2`` (Ostrowski,
       then Weyl).  This holds by the choice of ``c``: the fewest candidates
       that put the bound at ``margin * tau`` or more.

    Both also clear tau by what rounding in an SVD of ``cur`` can move a
    singular value, so an update never answers where a full
    :func:`row_compress` would decide on rounding noise.  Norms are
    compared, not their squares, and are taken by :func:`_fro`.

    Returns ``(q, k - c)`` as :func:`row_compress` would, but with ``q`` the
    :func:`_reflector_block` of the candidates, standing for the unitary
    ``Q^H`` (see :func:`_left`), or ``None`` for the identity when ``c = 0``:
    the ``c`` dropped rows of ``Q^H @ cur`` are on top.  Returns ``None``
    when certificate 1 fails, i.e. a singular value of ``cur`` may lie within
    the margin of tau, or when a row of ``[pending | cur]`` is zero; the
    caller then takes the SVD.
    """
    k, n = cur.shape[0], cur.shape[1] + pending.shape[1]
    d = np.hypot(_fro(pending, axis=1), _fro(cur, axis=1))
    if not (k and d.min() > 0):
        return None
    scale = d[:, None]
    c_mat, w_mat = pending / scale, cur / scale
    minus_e = c_mat @ c_mat.conj().T + w_mat @ w_mat.conj().T
    minus_e.ravel()[:: k + 1] -= 1
    # ||E|| as measured, plus what rounding in that product and in gamma can hide
    delta = _fro(minus_e) + n * k * _EPS
    x, gamma, _ = svd(c_mat)
    gap = np.ones(k)  # 1 - gamma^2, with gamma = 0 past the columns of C
    gap[: gamma.size] = (1 - gamma) * (1 + gamma)
    lower = float(d.min()) * np.sqrt(np.maximum(gap - delta, 0.0))  # nondecreasing
    # what rounding in an SVD of cur, or in a product with it, can move a singular value
    noise = k * _EPS * _fro(cur)
    c = int(np.count_nonzero(lower - noise < _REVISIT_MARGIN * tau))
    if not c:
        return None, k
    v, t = _reflector_block(x[:, :c] / scale)
    # the c dropped rows of Q^H @ cur, Q[:, :c] being an orthonormal basis of the candidates
    dropped = cur[:c] - v[:c] @ (t.conj().T @ (v.conj().T @ cur))
    if _fro(dropped) + c * noise > tau / _REVISIT_MARGIN:
        return None
    return (v, t), k - c


def col_compress(a, threshold: float) -> tuple[np.ndarray, int]:
    """Unitary ``w`` with ``a @ w = [c | 0]``, ``c`` of full column rank ``k``."""
    _, k, _, _, vh = _decide(as_matrix(a), threshold, uv=True)
    return vh.conj().T, k


def two_sided_reduce(a, threshold: float) -> tuple[np.ndarray, np.ndarray, int]:
    """Unitary ``p``, ``s`` with ``p^H @ a @ s = [[0, h], [0, 0]]``.

    The ``k x k`` block ``h`` is nonsingular (its smallest singular value
    exceeds ``threshold``) and sits in the top-right corner.
    """
    _, k, _, u, vh = _decide(as_matrix(a), threshold, uv=True)
    return u, _to_back(vh.conj().T, k), k


def _flip(a: np.ndarray) -> np.ndarray:
    """``J a^T J`` with ``J`` the order reversal: the horizontal staircase's mirror."""
    return a[::-1, ::-1].T


def _strip_frame(a, strip_sizes, strip_axis: str) -> tuple[np.ndarray, list[int]]:
    """Check the strips; return ``a`` and their bounds in :func:`staircase_reduce`'s frame."""
    m = as_matrix(a)
    sizes = _sizes("strip_sizes", strip_sizes)
    low = min(sizes, default=0)
    if low < 0:
        raise ValidationError(f"strip sizes must be nonnegative, got {low} in {sizes}")
    if strip_axis not in (VERTICAL, HORIZONTAL):
        raise ValidationError(f"unknown strip axis {strip_axis!r}")
    along = m.shape[1] if strip_axis == VERTICAL else m.shape[0]
    if sum(sizes) != along:
        raise ValidationError(
            f"strip sizes sum to {sum(sizes)}, expected {along} for {strip_axis} strips"
        )
    if strip_axis == HORIZONTAL:
        m, sizes = _flip(m), sizes[::-1]
    return m, list(accumulate(sizes, initial=0))


def staircase_reduce(
    a, strip_sizes, strip_axis: str, threshold: float
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Reduce ``a`` to echelon-of-nonsingular-blocks form, strip by strip.

    ``strip_sizes`` partitions the columns (``strip_axis="vertical"``) or the
    rows (``"horizontal"``).  Vertical strips are processed left to right and
    claim rows from the top; horizontal strips are processed bottom-up and
    claim columns from the right.  Each strip ``i`` receives a nonsingular
    ``l_i x l_i`` block positioned rightmost in the strip (vertical) or at
    the top of the strip (horizontal), and is zero past and beside it, as
    ``ChainTrace.misfits`` measures.  A horizontal call runs the vertical
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
    matrix would give.  A one-column strip is reduced by its norm and one
    reflector (see :func:`_decide`); at rank 0 it too gets the
    identity and no update.  Until a strip moves ``left``, it is the
    identity, so a strip is read from ``a`` itself and its ``p^H`` becomes
    ``left`` without a product.

    A non-finite entry in ``a`` raises :class:`NumericError` up front, with
    ``a``'s shape and Frobenius norm, wherever it sits in the strips.
    """
    m, bounds = _strip_frame(a, strip_sizes, strip_axis)
    _check_real("threshold", threshold, 0)
    if not np.isfinite(m).all():
        raise _numeric_error(m if strip_axis == VERTICAL else m.T, "non-finite entry in")
    left = None  # the identity until a strip moves it
    right = np.eye(m.shape[1], dtype=np.complex128)
    ls = []
    pinned = 0
    # An entry that overflows in a strip product is left to the SVD, which names it
    # in a NumericError.
    with np.errstate(invalid="ignore", over="ignore"):
        for c0, c1 in zip(bounds, bounds[1:]):
            if c0 == c1 or pinned == m.shape[0]:
                # nothing to reduce: the SVD of an empty matrix gives identities and rank 0
                ls.append(0)
                continue
            # ``right`` is still the identity here: this is the strip of ``left @ m @ right``.
            strip = m[:, c0:c1] if left is None else left[pinned:, :] @ m[:, c0:c1]
            p, s_mat, k = two_sided_reduce(strip, threshold)
            ls.append(k)
            if c1 - c0 > 1:
                right[c0:c1, c0:c1] = s_mat
            elif not k:
                continue  # the one-column rule gave both identities
            if left is None:
                left = np.ascontiguousarray(p.conj().T)  # pinned is 0: p^H @ I is p^H
            else:
                left[pinned:, :] = p.conj().T @ left[pinned:, :]
            pinned += k
    if left is None:
        left = np.eye(m.shape[0], dtype=np.complex128)
    if strip_axis == HORIZONTAL:
        return _flip(right), _flip(left), ls[::-1]
    return left, right, ls


def unitarity_defect(q) -> float:
    """Frobenius distance of ``q^H q`` from the identity."""
    m = as_matrix(q)
    n = m.shape[1]
    return float(np.linalg.norm(m.conj().T @ m - np.eye(n)))
