"""Rank thresholds, noise, and how to audit borderline decisions.

Every reduction in this package decides ranks by comparing singular values
against max(abs_floor, rel_factor * sigma_max).  This script shows a planted
cycle surviving entrywise noise ten orders of magnitude below its scale, the
same instance breaking apart once the noise crosses the threshold, and where
to look when that happens.

Run:  python demos/04_tolerance_and_noise.py
"""

import numpy as np

import quiverstair as qs

shape = qs.cycle_shape(5, ">><<>")
spec = qs.PlantSpec(
    shape=shape,
    labels=(((1, 3), 1), ((4, 9), 1)),
    regular_eigs=(-2.0, 3.0),
    seed=99,
)
rep, truth = qs.plant(spec)
scale = qs.representation_scale(rep)
print("planted:", dict(truth.label_counts()), "+ regular eigenvalues", truth.regular_eigs)
print(f"representation scale (largest singular value): {scale:.3f}")

rng = np.random.default_rng(5)


def perturbed(noise):
    mats = []
    for m in rep.matrices:
        bump = rng.standard_normal(m.shape) + 1j * rng.standard_normal(m.shape)
        mats.append(m + noise * scale * bump if m.size else m)
    return qs.Representation(rep.shape, rep.dims, tuple(mats))


for noise in (0.0, 1e-12, 1e-10):
    dec = qs.regularize(perturbed(noise))
    match = dec.summands == truth.label_counts() and dec.regular_dim() == 2
    print(
        f"noise {noise:7.0e}: recovered={match}, residual {dec.residual:.2e},"
        f" threshold used {dec.threshold:.2e}"
    )

# Push the noise past the relative threshold (1e-8): the instance is now a
# genuinely different representation and the report says so.
dec = qs.regularize(perturbed(1e-6))
print(
    f"noise   1e-06: summands {dict(dec.summands) or 'none'},"
    f" regular dim {dec.regular_dim()} (noise outruns the 1e-8 threshold)"
)

# Tolerances are explicit: loosening rel_factor re-absorbs that noise.
loose = qs.TolerancePolicy(rel_factor=1e-4)
dec = qs.regularize(perturbed(1e-6), loose)
match = dec.summands == truth.label_counts() and dec.regular_dim() == 2
print(f"noise   1e-06 with rel_factor 1e-4: recovered={match}")

# The same policy drives one-off rank questions.
a = np.array([[1.0, 1.0], [1.0, 1.0 + 3e-9]])
print("\nnumerical_rank of a nearly rank-1 matrix:")
for rel in (1e-8, 1e-10):
    tol = qs.TolerancePolicy(rel_factor=rel)
    tau = tol.threshold(a)
    print(f"  rel_factor {rel:0.0e}: rank {qs.numerical_rank(a, tau)} (threshold {tau:.2e})")
