"""Nondisturbing channels built from probe tables.

A nondisturbing channel is described by a table of probe-space Kraus
operators, one row per context atom, each row itself a channel.  On a
product state the output and both of its partial traces have closed
forms that never touch composite-space operators; this script checks
them against the brute-force Kraus action.
"""

import numpy as np

from nondisturbing import (
    Context,
    State,
    apply_product,
    kron,
    max_abs,
    nd_channel_from_kraus,
    partial_trace,
    random_density,
    random_nd_channel,
    reduced_product_outputs,
)

n, dk, kraus_terms = 3, 2, 2
context = Context.standard(n)
channel = random_nd_channel(context, dk, kraus_terms, seed=11)

print("=== The probe table ===")
print(f"{n} rows (one per atom), {kraus_terms} Kraus terms per row, "
      f"entries are {dk}x{dk}")
for i in range(n):
    row_sum = sum(b.conj().T @ b for b in channel.table[i])
    print(f"row {i} completeness defect: {max_abs(row_sum - np.eye(dk)):.2e}")

print("\n=== Action on a product state ===")
rho = State(random_density(n, 21))
eta = State(random_density(dk, 22))
closed = apply_product(channel, rho, eta)
direct = channel.as_operation().apply_matrix(kron(rho.matrix, eta.matrix))
print("closed form vs brute-force Kraus action:", max_abs(closed - direct))
print("output trace:", np.trace(closed).real)

print("\n=== Reduced outputs without partial-tracing anything ===")
reduced = reduced_product_outputs(channel, rho, eta)
print("base side vs partial trace: ",
      max_abs(reduced.base - partial_trace(direct, n, dk, "right")))
print("probe side vs partial trace:",
      max_abs(reduced.probe - partial_trace(direct, n, dk, "left")))

weights = context.weights(rho.matrix)
mixture = sum(
    w * channel.probe_channel(i).apply_matrix(eta.matrix)
    for i, w in enumerate(weights)
)
print("probe side is the weight-mixture of per-atom channels:",
      max_abs(reduced.probe - mixture))
print("weights:", np.round(weights, 4), "sum:", weights.sum())

print("\n=== Round trip through composite Kraus operators ===")
rebuilt = nd_channel_from_kraus(channel.induced_kraus, context, dk)
print("table distance after table -> Kraus -> table:",
      max_abs(rebuilt.table - channel.table))
