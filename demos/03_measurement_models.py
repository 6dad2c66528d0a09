"""Measurement models: closed forms against the brute-force protocol.

The brute-force protocol tensors the input with the probe state, applies
the interaction channel, weights by a meter effect, and partial-traces.
For a nondisturbing interaction the same quantities collapse to small
sums over the probe table.  This script evaluates both paths for the
measured instrument, the measured observable, the post-interaction probe
instrument and observable, and the second-round (remeasured) effects,
whose oracle runs two brute-force rounds of the protocol.
"""

import numpy as np

from nondisturbing import (
    State,
    max_abs,
    measured_instrument_direct,
    measured_instrument_nd,
    measured_observable_nd,
    post_probe_instrument_direct,
    post_probe_instrument_nd,
    post_probe_observable,
    random_density,
    random_model,
    remeasured_effect,
    remeasured_effect_two_round,
)

model = random_model(dim_base=3, dim_probe=2, outcomes=3, kraus_count=2, seed=2)
rho = State(random_density(3, 3))
print(f"model: base dim {model.dim_base}, probe dim {model.dim_probe}, "
      f"meter outcomes {model.meter.labels}")

print("\n=== Measured instrument ===")
instrument = zip(model.meter.labels, measured_instrument_nd(model, rho),
                 measured_instrument_direct(model, rho))
for x, closed, direct in instrument:
    print(f"outcome {x}: probability {np.trace(closed).real:.4f}, "
          f"closed vs direct {max_abs(closed - direct):.2e}")

print("\n=== Measured observable ===")
observable = measured_observable_nd(model)
print("completeness defect:", max_abs(observable.effects.sum(axis=0) - np.eye(3)))
print("probabilities from the observable:",
      [round(float(np.trace(rho.matrix @ e).real), 4) for e in observable.effects])
print("every effect is diagonal in the context:",
      all(model.nd.context.is_measurable(e) for e in observable.effects))

print("\n=== Post-interaction probe ===")
sigma = State(random_density(2, 4))
probe_obs = post_probe_observable(model, rho)
probe_instrument = zip(model.meter.labels, post_probe_instrument_nd(model, rho, sigma),
                       post_probe_instrument_direct(model, rho, sigma))
for x, closed, direct in probe_instrument:
    paired = np.trace(sigma.matrix @ probe_obs.effect_matrix(x)).real
    print(f"outcome {x}: closed vs direct {max_abs(closed - direct):.2e}, "
          f"duality gap {abs(paired - np.trace(closed).real):.2e}")

print("\n=== The probe observable at each context atom ===")
for i in range(model.dim_base):
    obs = post_probe_observable(model, State(model.nd.context.atom(i)))
    defect = max_abs(obs.effects.sum(axis=0) - np.eye(2))
    print(f"atom {i}: probe observable completeness defect {defect:.2e}")

print("\n=== Remeasuring with the state-dependent meter ===")
remeasured = remeasured_effect(model, rho)
for x, closed, oracle in zip(model.meter.labels, remeasured,
                             remeasured_effect_two_round(model, rho)):
    print(f"outcome {x}: closed vs two-round oracle {max_abs(closed - oracle):.2e}")
summed = remeasured.sum(axis=0)
dephased = model.nd.context.dephase(rho.matrix)
print("outcome sum equals dim_base times the dephased input:",
      max_abs(summed - model.dim_base * dephased))
