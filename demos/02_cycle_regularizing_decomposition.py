"""Regularizing decomposition of a cycle of linear maps.

Plants a cycle representation made of two walk summands plus a regular part
with known monodromy eigenvalues, scrambles it, and takes it apart again:
first shave, transposed shave, then interval decomposition of both shaved
chains.

Run:  python demos/02_cycle_regularizing_decomposition.py
"""

import numpy as np

import quiverstair as qs

shape = qs.cycle_shape(4, "><<>")
print("cycle on 4 vertices, orientations", shape.orientations)

# Ground truth: walks G(2,5) and G(1,1), plus a 2-dimensional regular part
# whose monodromy has eigenvalues 2 and 1+1j.
spec = qs.PlantSpec(
    shape=shape,
    labels=(((2, 5), 1), ((1, 1), 1)),
    regular_eigs=(2.0, 1 + 1j),
    seed=7,
)
rep, truth = qs.plant(spec)
print("planted dimensions:", rep.dims)

dec = qs.regularize(rep)

print("\nrecovered walk summands:")
for (l, r), mult in sorted(dec.summands.items()):
    dims = qs.g_label_dims(shape, l, r)
    source = ["direct pass", "transposed pass"][
        0 if dec.summands_by_pass[0].get((l, r)) else 1
    ]
    print(f"  G({l},{r}) x {mult}   dims {dims}   from the {source}")

print("regular dimension:", dec.regular_dim())
print("monodromy eigenvalues:", np.round(np.sort_complex(dec.monodromy_eigenvalues), 10))
print(f"residual (input in the returned bases vs. the form claimed): {dec.residual:.2e}")

# The first shave alone already splits the representation: chain + cycle.
res = dec.shaves[0]
print("\nfirst shave: started at arrow", res.l, "stopped after step", res.n)
pushed = qs.push_down(res.a_prime, res.l, res.n, shape)
print("  shaved chain pushes down to dimensions", pushed.dims)
print("  remaining cycle has dimensions        ", res.a_tilde.dims)
print(f"  glue residual, reduction_residual(rep, res): {qs.reduction_residual(rep, res):.2e}")

report = qs.verify(rep, dec, truth)
print("\nverification against the planted truth:", "PASS" if report.passed else "FAIL")
for check in report.checks:
    print(f"  {check.name:25s} measured {check.measured:.3e}  threshold {check.threshold:.3e}")
