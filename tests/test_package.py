import dataclasses
import functools
import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import nondisturbing
from nondisturbing.channels import NDChannel
from nondisturbing.linalg import random_kraus_channel
from nondisturbing.models import DirectOracle, random_model
from nondisturbing.objects import (
    Context,
    KrausOperation,
    Observable,
    State,
)
from nondisturbing.probes import ProbeDecomposition, extract_probes
from nondisturbing.verify import FAMILY_NAMES, _FAMILIES

# Public names removed from the package because no pipeline used them.
REMOVED = {
    "Instrument",
    "instrument_to_json",
    "instrument_from_json",
    "effect_of_event",
    "apply_operation",
    "measured_observable_of_instrument",
    "dual_channel",
    "adjoint_probes",
    "Apparatus",
    "AtomKernelMap",
    "apparatus_from_mm",
    "measured_instrument_kernel",
    "remeasure_apparatus",
    "remeasured_effect_by_substitution",
    "PartialState",
    "Effect",
    "probability",
    "_meter_stack",
    "dual_matrix",
    "effect_matrix",
    "hermitian_eig",
    "psd_inv_sqrt",
    "as_complex_matrix",
    "adjoint",
    "evolved_probe",
    "atom",
    "vector",
    "dephase",
    "fourier_pair_trace",
    "measured_instrument_direct",
    "post_probe_instrument_direct",
    "remeasured_effect_two_round",
    "example_scenario",
    "_example_model",
    "CONSTRUCTION_ATOL",
}

# ``__main__`` runs the CLI on import and exports nothing.
MODULES = sorted(
    info.name for info in pkgutil.iter_modules(nondisturbing.__path__) if info.name != "__main__"
)


def test_package_modules_are_found():
    assert {"objects", "serialization", "models", "probes", "channels"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves_once_and_names_nothing_removed(name):
    module = importlib.import_module(f"nondisturbing.{name}")
    exported = module.__all__
    assert len(set(exported)) == len(exported), f"duplicate entries in {name}.__all__"
    for attr in exported:
        assert hasattr(module, attr), f"{name}.__all__ names missing {attr!r}"
    assert not REMOVED & set(exported)
    assert not REMOVED & set(vars(module))
    for value in vars(module).values():
        if inspect.isclass(value):
            assert not REMOVED & set(vars(value)), f"{value.__name__} keeps a removed name"


def test_package_namespace_has_no_removed_name():
    assert not REMOVED & set(vars(nondisturbing))


def test_the_oracles_are_reached_through_direct_oracle():
    assert nondisturbing.DirectOracle is DirectOracle
    assert "DirectOracle" in nondisturbing.models.__all__


# The benchmark tracer (bench/tracer.py) wraps these attributes by name and kind.
def test_traced_attributes_keep_their_names_and_kinds():
    assert isinstance(_FAMILIES, dict)
    assert tuple(sorted(_FAMILIES)) == FAMILY_NAMES
    assert len(FAMILY_NAMES) == 13
    assert all(callable(check) for check in _FAMILIES.values())
    assert "as_operation" in NDChannel.__dict__
    assert isinstance(NDChannel.__dict__["induced_kraus"], functools.cached_property)
    assert isinstance(Observable.__dict__["from_matrices"], classmethod)
    # bench/workloads.py reads the probe table under its old name.
    assert isinstance(NDChannel.__dict__["table_array"], property)


def _stacked_families():
    mm = random_model(3, 2, 3, 2, 5, context=Context.random(3, 6))
    decomp = extract_probes(mm.nd.induced_kraus[0], mm.nd.context, 2)
    op = KrausOperation(random_kraus_channel(2, 3, 7))
    return mm.meter, mm.nd, decomp, op


FAMILY_IDS = [
    "meter.effects", "nd.table", "decomp.probes", "op.kraus", "nd.induced_kraus", "ctx.atoms"
]


def _stacks(meter, nd, decomp, op):
    return (meter.effects, nd.table, decomp.probes, op.kraus, nd.induced_kraus, nd.context.atoms)


def test_each_operator_family_is_one_stacked_array():
    meter, nd, decomp, op = _stacked_families()
    assert [f.name for f in dataclasses.fields(Observable)] == ["labels", "effects"]
    assert not {"outcomes", "effect"} & set(vars(Observable))
    assert nd.table_array is nd.table
    shapes = ((3, 2, 2), (3, 2, 2, 2), (3, 2, 2), (3, 2, 2), (2, 6, 6), (3, 3, 3))
    for stack, shape in zip(_stacks(meter, nd, decomp, op), shapes, strict=True):
        assert type(stack) is np.ndarray
        assert stack.shape == shape
        assert stack.dtype == complex


# A writable stack would let a caller corrupt caches built from it, such as
# the pulled-back meter of a model.
@pytest.mark.parametrize("index", range(len(FAMILY_IDS)), ids=FAMILY_IDS)
def test_stacked_families_are_read_only(index):
    stack = _stacks(*_stacked_families())[index]
    with pytest.raises(ValueError, match="read-only"):
        stack[0] = 0


def test_stacks_do_not_alias_the_caller_input():
    meter, nd, decomp, op = _stacked_families()
    effects, table, probes, kraus, basis = (
        meter.effects.copy(), nd.table.copy(), decomp.probes.copy(), op.kraus.copy(),
        nd.context.basis.copy(),
    )
    rebuilt = (
        Observable(meter.labels, effects),
        NDChannel(nd.context, table),
        ProbeDecomposition(decomp.context, probes),
        KrausOperation(kraus),
        Context(basis),
    )
    for source in (effects, table, probes, kraus, basis):
        source[0] = 0
    assert np.array_equal(rebuilt[0].effects, meter.effects)
    assert np.array_equal(rebuilt[1].table, nd.table)
    assert np.array_equal(rebuilt[1].induced_kraus, nd.induced_kraus)
    assert np.array_equal(rebuilt[2].probes, decomp.probes)
    assert np.array_equal(rebuilt[3].kraus, op.kraus)
    assert np.array_equal(rebuilt[4].atoms, nd.context.atoms)


def test_channels_keep_no_superoperator():
    assert "superoperator" not in vars(NDChannel)
    assert "superoperator" not in vars(KrausOperation)


# Value types, decoders, builders and psd_sqrt validate at the fixed
# DEFAULT_ATOL, so none takes a tolerance; nor do they take settings for which
# every caller used the default.
REMOVED_PARAMETERS = {
    "objects.Observable.from_matrices": ("atol", "labels"),
    "objects.sharp_observable": ("atol",),
    "channels.nd_channel_from_kraus": ("atol",),
    "probes.extract_probes": ("atol",),
    "serialization.observable_from_json": ("atol",),
    "serialization.nd_channel_from_json": ("atol",),
    "catalog.swap_model": ("atol", "probe_state"),
    "catalog.fourier_model": ("atol", "probe_state"),
    "linalg.psd_sqrt": ("atol",),
    "models.random_model": ("nondisturbing",),
    "linalg.random_hermitian": ("scale",),
}

# Predicates keep their tolerance argument.
PREDICATES = (
    "linalg.is_hermitian",
    "linalg.is_psd",
    "linalg.is_unitary",
    "linalg.is_projection_matrix",
    "linalg.is_effect_matrix",
    "linalg.loewner_leq",
    "probes.is_c_nondisturbing",
    "probes.classify",
    "probes.reduced_trace_flags",
    "probes.order_leq_via_probes",
    "objects.Context.is_measurable",
)


def _resolve(dotted: str):
    module, *attrs = dotted.split(".")
    target = importlib.import_module(f"nondisturbing.{module}")
    for attr in attrs:
        target = getattr(target, attr)
    return target


@pytest.mark.parametrize(
    "cls", [State, Observable, KrausOperation, Context, NDChannel, ProbeDecomposition]
)
def test_value_types_have_no_tolerance_field(cls):
    assert "atol" not in {f.name for f in dataclasses.fields(cls)}


@pytest.mark.parametrize("dotted", sorted(REMOVED_PARAMETERS))
def test_builders_take_no_removed_setting(dotted):
    kept = set(inspect.signature(_resolve(dotted)).parameters)
    assert not kept & set(REMOVED_PARAMETERS[dotted])


@pytest.mark.parametrize("dotted", PREDICATES)
def test_predicates_keep_their_tolerance(dotted):
    atol = inspect.signature(_resolve(dotted)).parameters["atol"]
    assert atol.default == nondisturbing.DEFAULT_ATOL
