"""Planted-instance generation and independent verification.

Build representations whose decomposition is known by construction, scramble
them with random changes of basis, run the decomposition, and compare.  The
random streams are seeded and documented: the basis change at vertex ``v``
draws from ``numpy.random.default_rng([seed, v])``, so plants are
reproducible bit for bit and vertices use independent substreams.
"""

import cmath
import numbers
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .chain import ChainCanonicalForm, ChainTrace, reduction_residual
from .cycle import RegularizingDecomposition
from .errors import ValidationError
from .linalg import _check_int, _is_finite_real, _is_int, unitarity_defect
from .quiver import (
    CHAIN,
    QuiverShape,
    Representation,
    apply_isomorphism,
    assemble,
    check_label,
    direct_sum,
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
]

UNITARY = "unitary"
INVERTIBLE = "invertible"


@dataclass(frozen=True)
class PlantSpec:
    """Recipe for a planted instance with known ground truth.

    ``labels`` holds ``(label, multiplicity)`` pairs, or is a mapping from
    labels to multiplicities: ``(i, j)`` intervals for chains, ``(l, r)``
    walks for cycles.  The multiplicities of a repeated label add up.
    ``regular_eigs`` adds one regular dimension per eigenvalue (cycles
    only).  ``scramble`` selects unitary basis changes (default) or general
    invertible ones with condition number at most ``max_condition``.
    """

    shape: QuiverShape
    labels: tuple[tuple[tuple[int, int], int], ...]
    regular_eigs: tuple[complex, ...] = ()
    seed: int = 0
    scramble: str = UNITARY
    max_condition: float = 1e3

    def __post_init__(self):
        if not (_is_int(self.seed) and self.seed >= 0):
            raise ValidationError(f"field 'seed' must be a nonnegative integer, got {self.seed!r}")
        object.__setattr__(self, "seed", int(self.seed))
        labels: Counter = Counter()
        for (a, b), m in (self.labels.items() if isinstance(self.labels, dict) else self.labels):
            check_label(self.shape, a, b, m)
            labels[(int(a), int(b))] += int(m)
        object.__setattr__(self, "labels", tuple(sorted(labels.items())))
        eigs = []
        for z in self.regular_eigs:
            if not isinstance(z, numbers.Number) or isinstance(z, bool):
                raise ValidationError(f"regular eigenvalue {z!r} is not a number")
            try:  # integers beyond float64 range
                eigs.append(complex(z))
            except OverflowError:
                raise ValidationError(f"regular eigenvalue {z!r} is not finite") from None
        object.__setattr__(self, "regular_eigs", tuple(eigs))
        if self.scramble not in (UNITARY, INVERTIBLE):
            raise ValidationError(f"unknown scramble mode {self.scramble!r}")
        if not (_is_finite_real(self.max_condition) and self.max_condition >= 1):
            raise ValidationError(
                f"field 'max_condition' must be a finite number >= 1, got {self.max_condition!r}"
            )
        object.__setattr__(self, "max_condition", float(self.max_condition))
        if self.shape.kind == CHAIN and self.regular_eigs:
            raise ValidationError("chains have no regular part")
        for z in self.regular_eigs:
            if not cmath.isfinite(z):
                raise ValidationError(f"regular eigenvalue {z} is not finite")
            if abs(z) <= 1e-9:
                raise ValidationError(f"regular eigenvalue {z} too close to zero")

    def label_counts(self) -> Counter:
        return Counter({lab: m for lab, m in self.labels if m})


def _rng(who: str, seed) -> np.random.Generator:
    """The random stream ``seed`` names, so that a result is deterministic per seed.

    A ``numpy.random.Generator`` is used as it is; a nonnegative integer
    (numpy's included, bools not) or a nonempty list or tuple of them seeds a
    new one.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    ints = seed if isinstance(seed, (list, tuple)) else [seed]
    if not (ints and all(_is_int(x) and x >= 0 for x in ints)):
        raise ValidationError(
            f"{who} needs a seed that is a Generator, a nonnegative integer or a nonempty "
            f"list or tuple of them, got {seed!r}"
        )
    return np.random.default_rng(seed)


def random_unitary(n: int, seed) -> np.ndarray:
    """Haar-distributed ``n x n`` unitary, deterministic per seed.

    ``seed`` is a ``numpy.random.Generator``, a nonnegative integer, or a
    nonempty list or tuple of them, like ``[seed, vertex]``.  Implemented
    as QR of a complex Gaussian matrix with the R-diagonal phases divided
    out (Mezzadri's recipe).
    """
    _check_int("random_unitary", "n", n)
    if n < 0:
        raise ValidationError("random_unitary needs n >= 0")
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
    _check_int("random_invertible", "n", n)
    if not (_is_finite_real(max_condition) and max_condition >= 1):
        raise ValidationError(
            f"random_invertible needs a finite max_condition >= 1, got {max_condition!r}"
        )
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
    """
    shape = spec.shape
    rep = assemble(shape, spec.labels)
    if spec.regular_eigs:
        rep = direct_sum(rep, _regular_summand(shape, spec.regular_eigs))
    transforms = []
    for v, d in enumerate(rep.dims, 1):
        if spec.scramble == UNITARY:
            transforms.append(random_unitary(d, [spec.seed, v]))
        else:
            transforms.append(random_invertible(d, [spec.seed, v], spec.max_condition))
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
            "measured": float(self.measured),
            "threshold": float(self.threshold),
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
            "residual": self.residual,
            "unitarity_defect": self.unitarity_defect,
            "eigenvalue_distance": self.eigenvalue_distance,
            "checks": [c.to_dict() for c in self.checks],
        }


def _describe(shape: QuiverShape) -> str:
    return f"t={shape.t} {shape.kind} {shape.orientations!r}"


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
    :class:`RegularizingDecomposition`.  A chain's residual is measured here
    by the one residual rule, :func:`reduction_residual` of ``a`` and the
    trace, which raises :class:`ValidationError` if the trace does not fit
    ``a``.  A cycle result's stored ``residual`` is still read as it is,
    since the result does not yet carry every unitary its residual is
    measured from.  Failures are report entries, not exceptions.
    """
    if a.shape != truth.shape:
        raise ValidationError("representation and truth have different shapes")
    is_chain = isinstance(result, ChainCanonicalForm)
    if is_chain:
        if trace is None:
            raise ValidationError("verifying a chain canonical form needs its ChainTrace")
        if (a.shape.kind, a.shape.t) != (CHAIN, result.t):
            raise ValidationError(
                f"a canonical form of a t={result.t} chain cannot verify a {_describe(a.shape)}"
            )
        counts, transforms = result.counts, trace.vertex_transforms
        residual = reduction_residual(a, trace)
    elif isinstance(result, RegularizingDecomposition):
        if result.shape != a.shape:
            raise ValidationError(
                f"a decomposition of a {_describe(result.shape)} cannot verify a {_describe(a.shape)}"
            )
        counts, residual, transforms = result.summands, result.residual, result.trace
    else:
        raise ValidationError(f"cannot verify result of type {type(result).__name__}")
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
    return VerificationReport(
        labels_match=labels_ok,
        residual=residual,
        unitarity_defect=udef,
        eigenvalue_distance=pair,
        checks=checks,
    )
