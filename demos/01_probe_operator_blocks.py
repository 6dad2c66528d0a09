"""Nondisturbing operators and their probe blocks.

An operator on base x probe that commutes with every atom of a base
context splits into one probe-space block per atom.  This script builds
such an operator from random blocks, recovers the blocks two independent
ways, and exercises the closed forms that only need the blocks.
"""

import numpy as np

from nondisturbing import (
    Context,
    ProbeDecomposition,
    classify,
    closed_form_partial_traces,
    commutator_defect,
    conjugate,
    extract_probes,
    extract_probes_by_matrix_elements,
    kron,
    max_abs,
    partial_trace,
    random_hermitian,
    random_povm,
    random_unitary,
)

rng_seed = 2024
n, dk = 3, 2

print("=== A nondisturbing operator from probe blocks ===")
context = Context.random(n, rng_seed)
blocks = tuple(
    random_hermitian(dk, rng_seed + i) + 1j * random_hermitian(dk, rng_seed + 10 + i)
    for i in range(n)
)
decomposition = ProbeDecomposition(context, blocks)
operator = decomposition.assemble()
print(f"base dimension {n}, probe dimension {dk}, operator is {operator.shape[0]}x{operator.shape[1]}")
print(f"largest commutator with a lifted atom: {commutator_defect(operator, context, dk):.2e}")

print("\n=== Recovering the blocks ===")
recovered = extract_probes(operator, context, dk)
print("partial-trace extraction error:",
      max(max_abs(a - b) for a, b in zip(blocks, recovered.probes)))
alternative = extract_probes_by_matrix_elements(
    operator, context, dk, probe_basis=random_unitary(dk, 99)
)
print("matrix-element extraction (random probe basis) error:",
      max(max_abs(a - b) for a, b in zip(blocks, alternative.probes)))

print("\n=== Partial traces straight from the blocks ===")
over_base, over_probe = closed_form_partial_traces(decomposition)
print("block sum vs direct partial trace:     ",
      max_abs(over_base - partial_trace(operator, n, dk, "left")))
print("weighted atoms vs direct partial trace:",
      max_abs(over_probe - partial_trace(operator, n, dk, "right")))

print("\n=== Structure is visible blockwise ===")
unitary_blocks = ProbeDecomposition(
    context, tuple(random_unitary(dk, rng_seed + i) for i in range(n))
)
povm_blocks = ProbeDecomposition(context, random_povm(dk, n, 7))
print("unitary blocks classify as:", classify(unitary_blocks))
print("POVM blocks classify as:   ", classify(povm_blocks))

print("\n=== Conjugating a product operator ===")
base_factor = random_hermitian(n, 5)
probe_factor = random_hermitian(dk, 6)
closed = conjugate(decomposition, base_factor, probe_factor)
direct = operator @ kron(base_factor, probe_factor) @ operator.conj().T
print("closed form vs direct triple product:", max_abs(closed - direct))
