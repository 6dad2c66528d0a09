"""Quantum measurement models with context-nondisturbing interactions.

A library for finite-dimensional measurement models whose base-probe
interaction commutes with a fixed measurement context.  It provides the
probe-operator decomposition of nondisturbing operators, nondisturbing
channels built from probe tables, and closed forms for measured
instruments and observables, all validated against brute-force
tensor-product oracles.
"""

from .linalg import (
    CONSTRUCTION_ATOL,
    DEFAULT_ATOL,
    hermitian_eig,
    hermitian_part,
    is_effect_matrix,
    is_hermitian,
    is_projection_matrix,
    is_psd,
    is_unitary,
    kron,
    loewner_leq,
    max_abs,
    partial_trace,
    psd_inv_sqrt,
    psd_sqrt,
    random_density,
    random_effect,
    random_hermitian,
    random_kraus_channel,
    random_povm,
    random_projection,
    random_unitary,
)
from .objects import (
    Context,
    KrausOperation,
    Observable,
    State,
    sharp_observable,
)
from .probes import (
    ProbeDecomposition,
    ProbeFlags,
    ReducedTraceFlags,
    classify,
    closed_form_partial_traces,
    commutator_defect,
    conjugate,
    extract_probes,
    extract_probes_by_matrix_elements,
    is_c_nondisturbing,
    order_leq_via_probes,
    reduced_trace_flags,
)
from .channels import (
    NDChannel,
    ReducedOutputs,
    apply_product,
    nd_channel_from_kraus,
    pair_overlap_kernel,
    probe_outputs,
    random_nd_channel,
    reduced_product_outputs,
)
from .models import (
    MeasurementModel,
    measured_instrument_direct,
    measured_instrument_nd,
    measured_observable_nd,
    post_probe_instrument_direct,
    post_probe_instrument_nd,
    post_probe_observable,
    random_model,
    remeasured_effect,
    remeasured_effect_two_round,
)
from .catalog import (
    fourier_model,
    fourier_observable_effect,
    fourier_pair_trace,
    fourier_unitaries,
    swap_instrument_output,
    swap_model,
    swap_observable_effect,
    swap_product_output,
    swap_unitaries,
)

__version__ = "0.1.0"
