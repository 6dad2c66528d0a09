import importlib
import pkgutil

import pytest

import nondisturbing

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


def test_package_namespace_has_no_removed_name():
    assert not REMOVED & set(vars(nondisturbing))
