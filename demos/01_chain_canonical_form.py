"""Canonical form of a chain of linear maps, step by step.

Builds a four-vertex chain with mixed arrow directions, hides its structure
behind random unitary changes of basis, and recovers the interval summands
with `canon_chain`.  Every rank decision the staircase made is visible in
the returned trace.

Run:  python demos/01_chain_canonical_form.py
"""

import numpy as np

import quiverstair as qs

# A chain  1 -> 2 -> 3 <- 4  with dimensions (4, 5, 4, 5).  The three
# matrices below are already in "revealed" form: reading off their unit
# entries gives the interval decomposition directly.
d1 = np.array(
    [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0]],
    dtype=complex,
)
d2 = np.array(
    [[0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 0, 1], [0, 0, 0, 0, 0]],
    dtype=complex,
)
d3 = np.array(
    [[0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 0], [0, 0, 0, 0, 1]],
    dtype=complex,
)

shape = qs.chain_shape(4, ">><")
rep = qs.Representation(shape, (4, 5, 4, 5), (d1, d2, d3))

print("chain 1 -> 2 -> 3 <- 4, dimensions", rep.dims)

# Scramble with a random unitary at every vertex: same isomorphism class,
# unrecognizable matrices.
transforms = [qs.random_unitary(d, [42, v]) for v, d in enumerate(rep.dims, 1)]
hidden = qs.apply_isomorphism(rep, transforms)
print("\nafter scrambling, the first matrix looks like:")
with np.printoptions(precision=2, suppress=True):
    print(hidden.matrices[0].real)

form, trace = qs.canon_chain(hidden)

print("\nrecovered canonical form:")
for (i, j), mult in form.sorted_labels():
    print(f"  L({i},{j}) x {mult}")

print(f"\nrank threshold for every step (from the whole input): {trace.threshold:.2e}")
print("per-step staircase bookkeeping (strip sizes -> revealed block sizes):")
for r, step in enumerate(trace.steps, 1):
    print(
        f"  arrow {r} ({step.orientation}): strips {step.strip_sizes}"
        f" -> blocks {step.block_sizes}"
    )

print(f"\nlargest entry, in the returned bases, where a staircase demands a zero: {trace.residual:.2e}")
print("dimension ledger matches input:", form.dims() == rep.dims)

# The canonical form can be rebuilt and re-decomposed: a fixed point.
rebuilt = qs.assemble_canonical(form, shape)
again, _ = qs.canon_chain(rebuilt)
print("canon(assemble(form)) == form:", again.counts == form.counts)
