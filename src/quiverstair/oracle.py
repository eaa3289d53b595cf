"""Planted-instance generation, independent verification and the versioned report.

Build representations whose decomposition is known by construction, scramble
them with random changes of basis, run the decomposition, and compare.  The
random streams are seeded and documented: the basis change at vertex ``v``
draws from ``numpy.random.default_rng([seed, v])``, so plants are
reproducible bit for bit and vertices use independent substreams.
"""

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .chain import ChainCanonicalForm, ChainTrace, reduction_residual
from .cycle import RegularizingDecomposition
from .errors import ValidationError
from .linalg import DEFAULT_TOL, _check_int, _check_real, _is_finite_number, unitarity_defect
from .quiver import (
    CHAIN,
    QuiverShape,
    Representation,
    apply_isomorphism,
    assemble,
    check_label,
    direct_sum,
    g_label_dims,
    representation_scale,
)

__all__ = [
    "PlantSpec",
    "random_unitary",
    "random_invertible",
    "plant",
    "CheckResult",
    "VerificationReport",
    "verify",
    "REPORT_VERSION",
    "report",
]

UNITARY = "unitary"
INVERTIBLE = "invertible"

# a transform this ill-conditioned has sigma_min <= DEFAULT_TOL's threshold of itself
_MAX_CONDITION = 1 / DEFAULT_TOL.rel_factor

REPORT_VERSION = 5  # of report(), and of the command line's JSON that carries it


@dataclass(frozen=True)
class PlantSpec:
    """Recipe for a planted instance with known ground truth.

    ``labels`` holds ``(label, multiplicity)`` pairs, or is a mapping from
    labels to multiplicities: ``(i, j)`` intervals for chains, ``(l, r)``
    walks for cycles.  The multiplicities of a repeated label add up, and
    only labels with a positive total are stored.
    ``regular_eigs`` adds one regular dimension per eigenvalue (cycles
    only).  ``scramble`` selects unitary basis changes (default) or general
    invertible ones with condition number at most ``max_condition``, which
    must stay below ``1 / DEFAULT_TOL.rel_factor`` (1e8): ``plant`` inverts
    those by SVD at ``DEFAULT_TOL``, which rejects a worse-conditioned matrix.
    """

    shape: QuiverShape
    labels: tuple[tuple[tuple[int, int], int], ...]
    regular_eigs: tuple[complex, ...] = ()
    seed: int = 0
    scramble: str = UNITARY
    max_condition: float = 1e3

    def __post_init__(self):
        object.__setattr__(self, "seed", _check_int("PlantSpec", "seed", self.seed, 0))
        labels: Counter = Counter()
        for (a, b), m in (self.labels.items() if isinstance(self.labels, dict) else self.labels):
            check_label(self.shape, a, b, m)
            labels[(int(a), int(b))] += int(m)
        object.__setattr__(self, "labels", tuple(sorted((+labels).items())))
        eigs = []
        for z in self.regular_eigs:
            if not _is_finite_number(z):
                raise ValidationError(f"regular eigenvalue {z!r} is not a finite number")
            eigs.append(complex(z))
            if abs(eigs[-1]) <= 1e-9:
                raise ValidationError(f"regular eigenvalue {z!r} too close to zero")
        object.__setattr__(self, "regular_eigs", tuple(eigs))
        if self.scramble not in (UNITARY, INVERTIBLE):
            raise ValidationError(f"unknown scramble mode {self.scramble!r}")
        _check_real("field 'max_condition'", self.max_condition, 1)
        if self.max_condition >= _MAX_CONDITION:
            raise ValidationError(
                f"field 'max_condition' must be below {_MAX_CONDITION:g}, the condition number "
                f"at which plant's SVD inverse finds a matrix singular, got {self.max_condition!r}"
            )
        object.__setattr__(self, "max_condition", float(self.max_condition))
        if self.shape.kind == CHAIN and self.regular_eigs:
            raise ValidationError("chains have no regular part")

    def label_counts(self) -> Counter:
        return Counter(dict(self.labels))


def _rng(who: str, seed) -> np.random.Generator:
    """The random stream ``seed`` names, so that a result is deterministic per seed.

    A ``numpy.random.Generator`` is used as it is; a nonnegative integer
    (numpy's included, bools not) or a nonempty list or tuple of them seeds a
    new one.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    listed = isinstance(seed, (list, tuple))
    if listed and not seed:
        raise ValidationError(
            f"{who} needs a seed that is a Generator, a nonnegative integer or a nonempty "
            f"list or tuple of them, got {seed!r}"
        )
    for x in seed if listed else [seed]:
        _check_int(who, "seed entry" if listed else "seed", x, 0)
    return np.random.default_rng(seed)


def random_unitary(n: int, seed) -> np.ndarray:
    """Haar-distributed ``n x n`` unitary, deterministic per seed.

    ``seed`` is a ``numpy.random.Generator``, a nonnegative integer, or a
    nonempty list or tuple of them, like ``[seed, vertex]``.  Implemented
    as QR of a complex Gaussian matrix with the R-diagonal phases divided
    out (Mezzadri's recipe).
    """
    _check_int("random_unitary", "n", n, 0)
    rng = _rng("random_unitary", seed)
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r).copy()
    d[np.abs(d) == 0] = 1.0
    return q * (d / np.abs(d))


def random_invertible(n: int, seed, max_condition: float = 1e3) -> np.ndarray:
    """Random invertible matrix with condition number at most ``max_condition``.

    ``seed`` takes the forms :func:`random_unitary` takes.
    """
    _check_int("random_invertible", "n", n, 0)
    _check_real("random_invertible's max_condition", max_condition, 1)
    rng = _rng("random_invertible", seed)
    u = random_unitary(n, rng)
    v = random_unitary(n, rng)
    half = np.log(max_condition) / 2.0
    sig = np.exp(rng.uniform(-half, half, size=n))
    return (u * sig) @ v


def _regular_summand(shape: QuiverShape, eigs) -> Representation:
    nd = len(eigs)
    mats = [np.eye(nd, dtype=np.complex128) for _ in range(shape.t)]
    diag = np.asarray(eigs, dtype=np.complex128)
    mats[shape.t - 1] = np.diag(diag if shape.is_clockwise(shape.t) else 1.0 / diag)
    return Representation(shape, (nd,) * shape.t, tuple(mats))


def plant(spec: PlantSpec) -> tuple[Representation, PlantSpec]:
    """Assemble the requested direct sum and scramble it; returns (instance, truth).

    Summands enter the direct sum in sorted label order; the regular summand
    (cycles only) comes last, carrying one 1x1 Jordan block per requested
    eigenvalue on arrow ``t``, inverted when that arrow points
    counterclockwise so the monodromy eigenvalues equal ``regular_eigs``.
    The unitary scramble maps arrow ``u -> v`` to ``S_v A S_u^H``, with no
    SVD; the invertible one inverts each transform by SVD.
    """
    shape = spec.shape
    rep = assemble(shape, spec.labels)
    if spec.regular_eigs:
        rep = direct_sum(rep, _regular_summand(shape, spec.regular_eigs))
    if spec.scramble == UNITARY:
        transforms = [random_unitary(d, [spec.seed, v]) for v, d in enumerate(rep.dims, 1)]
        inverses = [s.conj().T for s in transforms]
        return apply_isomorphism(rep, transforms, _inverses=inverses), spec
    transforms = [
        random_invertible(d, [spec.seed, v], spec.max_condition)
        for v, d in enumerate(rep.dims, 1)
    ]
    return apply_isomorphism(rep, transforms), spec


def _matched_distance(xs, ys) -> float:
    """Greedy closest-pair matching distance between equal-size multisets.

    Pairs the globally closest points first, so well-separated clusters are
    matched cluster-to-cluster regardless of how rounding perturbs any
    sorting key.  Multiplicity-aware: infinite when the sizes differ.
    """
    xs = np.asarray(list(xs), dtype=np.complex128)
    ys = np.asarray(list(ys), dtype=np.complex128)
    if xs.size != ys.size:
        return float("inf")
    d = np.abs(xs[:, None] - ys[None, :])
    worst = 0.0
    for _ in range(xs.size):
        i, j = np.unravel_index(np.argmin(d), d.shape)
        worst = max(worst, float(d[i, j]))
        d[i, :] = np.inf
        d[:, j] = np.inf
    return worst


def _finite(x) -> float | None:
    """``x`` as a JSON-ready float, or ``None`` (JSON ``null``) if it is not finite."""
    return float(x) if np.isfinite(x) else None


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: float
    threshold: float

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "measured": _finite(self.measured),
            "threshold": _finite(self.threshold),
        }


@dataclass
class VerificationReport:
    """Per-check outcomes; every threshold sits next to its measured value."""

    labels_match: bool
    residual: float
    unitarity_defect: float
    eigenvalue_distance: float
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "labels_match": self.labels_match,
            "residual": _finite(self.residual),
            "unitarity_defect": _finite(self.unitarity_defect),
            "eigenvalue_distance": _finite(self.eigenvalue_distance),
            "checks": [c.to_dict() for c in self.checks],
        }


def _describe(shape: QuiverShape) -> str:
    return f"t={shape.t} {shape.kind} {shape.orientations!r}"


def _is_chain_result(a: Representation, result, trace: ChainTrace | None) -> bool:
    """Whether ``result`` is a chain form; :class:`ValidationError` if it does not fit ``a``."""
    is_chain = isinstance(result, ChainCanonicalForm)
    if is_chain:
        if trace is None:
            raise ValidationError("a chain canonical form needs its ChainTrace")
        what = f"canonical form of a t={result.t} chain"
        fits = (a.shape.kind, a.shape.t) == (CHAIN, result.t)
    elif isinstance(result, RegularizingDecomposition):
        what, fits = f"decomposition of a {_describe(result.shape)}", result.shape == a.shape
    else:
        raise ValidationError(f"cannot verify or report a result of type {type(result).__name__}")
    if not fits:
        raise ValidationError(f"a {what} does not fit a {_describe(a.shape)}")
    return is_chain


def _check_truth(a: Representation, truth: PlantSpec) -> None:
    """The truth check :func:`verify` makes first: ``truth`` plants a quiver of ``a``'s shape."""
    if a.shape != truth.shape:
        raise ValidationError("representation and truth have different shapes")


def verify(
    a: Representation,
    result,
    truth: PlantSpec,
    *,
    trace: ChainTrace | None = None,
) -> VerificationReport:
    """Compare a computed decomposition against planted ground truth.

    ``result`` is a :class:`ChainCanonicalForm`, which needs the matching
    :class:`ChainTrace` for the residual and unitarity checks, or a
    :class:`RegularizingDecomposition`.  The residual is measured here, by
    the one residual rule: :func:`reduction_residual` of ``a`` and the trace
    or the decomposition, whose composed ``trace`` carries every unitary of
    the reduction.  Nothing stored is read, so a unitary swapped after the
    run fails the ``residual`` check; :func:`reduction_residual` raises
    :class:`ValidationError` if the result does not fit ``a``.  When ``a``
    is the measured result's own input, the value fills its ``residual``, so
    a later :func:`report` measures nothing.  Failures are report entries,
    not exceptions.
    """
    _check_truth(a, truth)
    is_chain = _is_chain_result(a, result, trace)
    if is_chain:
        counts, transforms = result.counts, trace.vertex_transforms
    else:
        counts, transforms = result.summands, result.trace
    measured = trace if is_chain else result
    residual = reduction_residual(a, measured)
    if a is measured.a:
        measured.residual = residual  # the value its cached property would measure
    scale = representation_scale(a)
    truth_counts = truth.label_counts()
    got = Counter({lab: m for lab, m in counts.items() if m})
    labels_ok = got == truth_counts
    mismatched = sum((got - truth_counts).values()) + sum((truth_counts - got).values())
    checks = [CheckResult("labels_match", labels_ok, float(mismatched), 0.0)]
    if not is_chain:
        reg_gap = abs(result.regular_dim() - len(truth.regular_eigs))
        checks.append(CheckResult("regular_dimension", reg_gap == 0, float(reg_gap), 0.0))
    dim_gap = int(np.abs(np.asarray(result.dims()) - np.asarray(a.dims)).max())
    checks.append(CheckResult("dimension_conservation", dim_gap == 0, float(dim_gap), 0.0))

    pair = 0.0
    if not is_chain:
        eig_scale = max([1.0] + [abs(z) for z in truth.regular_eigs])
        pair = _matched_distance(result.monodromy_eigenvalues, truth.regular_eigs)
        eig_bound = 1e-6 * eig_scale
        checks.append(CheckResult("eigenvalues", pair <= eig_bound, pair, eig_bound))

    res_bound = 1e-8 * scale
    checks.append(CheckResult("residual", residual <= res_bound, residual, res_bound))

    udef = float(np.max([0.0, *map(unitarity_defect, transforms)]))  # np.max: a nan anywhere wins
    ubound = 1e-12 * max(a.dims, default=1)
    checks.append(CheckResult("unitarity", udef <= ubound, udef, ubound))
    return VerificationReport(labels_ok, residual, udef, pair, checks)


def report(a: Representation, result, *, trace: ChainTrace | None = None) -> dict:
    """The versioned, JSON-ready report of ``result``, a decomposition of ``a``.

    Takes :func:`verify`'s ``a``, ``result`` and ``trace``.  README's "Command
    line" section lists the keys; a non-finite float is written as ``None``.
    """
    is_chain = _is_chain_result(a, result, trace)
    out = {"report_version": REPORT_VERSION, "t": a.shape.t, "orientations": a.shape.orientations}
    if is_chain:
        out["labels"] = [
            {"kind": "L", "low": i, "high": j, "count": m} for (i, j), m in result.sorted_labels()
        ]
    else:
        out["labels"] = [
            {"kind": "G", "low": l, "high": r, "count": m,
             "dims": list(g_label_dims(a.shape, l, r)),
             "pass_counts": [int(p.get((l, r), 0)) for p in result.summands_by_pass]}
            for (l, r), m in sorted(result.summands.items())
        ]
        out["regular_dimension"] = result.regular_dim()
        out["monodromy_eigenvalues"] = [[z.real, z.imag] for z in result.monodromy_eigenvalues]
    measured = trace if is_chain else result  # each carries the residual and the threshold
    out["dimension_check"] = result.dims() == a.dims
    out["residual"], out["threshold"] = _finite(measured.residual), _finite(measured.threshold)
    return out
