"""The two built-in unitary model families: swap and Fourier phase.

The swap family makes the meter read the base context directly; with a
sharp meter its measured observable is exactly the family of context
atoms.  The Fourier-phase family spreads the probe over all basis
states; with a meter diagonal in the probe basis every effect collapses
to its average eigenvalue times the identity, so the measurement reveals
nothing about the base state.
"""

import numpy as np

from nondisturbing import (
    DirectOracle,
    Observable,
    State,
    apply_product,
    fourier_model,
    fourier_observable_effect,
    max_abs,
    measured_observable_nd,
    random_density,
    random_povm,
    swap_model,
    swap_observable_effect,
    swap_product_output,
)

print("=== Swap family, n = 3, sharp meter ===")
model = swap_model(3)
for x, effect in zip(model.meter.labels, measured_observable_nd(model)):
    print(f"measured effect for outcome {x}: diag {np.diagonal(effect).real}")

rho = State(random_density(3, 1))
closed = swap_product_output(rho)
library = apply_product(model.nd, rho, model.probe_state)
print("channel closed form vs library action:", max_abs(closed - library))

weights = np.array([0.6, 0.3, 0.1])
measurable = State(np.diag(weights).astype(complex))
print("\nfeeding a context-diagonal state, outcome probabilities should be its weights:")
for x, out in zip(model.meter.labels, DirectOracle(model).instrument(measurable)):
    print(f"  outcome {x}: probability {np.trace(out).real:.4f} (weight {weights[int(x)]})")

print("\n=== Swap family with a fuzzy meter ===")
fuzzy = Observable.from_matrices(random_povm(3, 2, 5))
fuzzy_model = swap_model(3, fuzzy)
for x, f, effect in zip(fuzzy.labels, fuzzy.effects, measured_observable_nd(fuzzy_model)):
    expected = swap_observable_effect(f)
    print(f"outcome {x}: closed form vs library {max_abs(effect - expected):.2e}")

print("\n=== Fourier-phase family, (n, m) = (2, 5) ===")
phase = fourier_model(2, 5)
for x, f, effect in zip(phase.meter.labels, phase.meter.effects,
                        measured_observable_nd(phase)):
    average = np.trace(f).real / 5
    print(f"outcome {x}: effect is {effect[0, 0].real:.4f} * identity "
          f"(average eigenvalue {average:.4f}), "
          f"defect {max_abs(effect - average * np.eye(2)):.2e}")

print("\nwith a non-diagonal meter the observable is genuinely informative:")
meter = Observable.from_matrices(random_povm(5, 2, 9))
informative = fourier_model(2, 5, meter)
for x, f, effect in zip(meter.labels, meter.effects, measured_observable_nd(informative)):
    expected = fourier_observable_effect(2, 5, f)
    print(f"outcome {x}: diag {np.round(np.diagonal(effect).real, 4)}, "
          f"phase closed form agrees to {max_abs(effect - expected):.2e}")

print("\nthe constructor rejects dimension pairs with non-coprime phase indices:")
try:
    fourier_model(2, 2)
except ValueError as error:
    print(" ", error)
