"""Mutant catalogue: a plausible bug in any closed form, oracle or shared
helper makes the verification battery FAIL, and never makes it crash.

Each mutant is one textual change to the source of a real function.  The
changed function is compiled in its own module's namespace and bound in
place of the original, in every module of the package that holds it (or
on its class, for a method).
"""

import __future__
import inspect
import sys
import textwrap

import pytest

from nondisturbing import channels, linalg, models, probes
from nondisturbing.linalg import random_density
from nondisturbing.models import random_model
from nondisturbing.objects import Context, State
from nondisturbing.scenario import evaluate
from nondisturbing.verify import _run_family, run_verification

# The fewest trials at which every mutant below fails the battery.
TRIALS = 1

# (id, owner, function name, original text, mutated text, modules to patch;
# None patches every module of the package that binds the function).
MUTANTS = [
    ("transposed-kernel", channels, "pair_overlap_kernel",
     '"ikab,...jkba->...ij"', '"ikab,...jkba->...ji"', None),
    ("context-blind-instrument", models, "measured_instrument_nd",
     "basis = nd.context.basis", "basis = np.eye(nd.dim_base)", None),
    ("standard-basis-weights", models, "post_probe_observable",
     "weights = nd.context.weights(rho.matrix)",
     "weights = np.real(np.diagonal(rho.matrix))", None),
    ("trace-with-transposed-meter", models, "measured_observable_nd",
     '"iab,xba->xi"', '"iab,xab->xi"', None),
    ("first-atom-times-n", models, "remeasured_effect",
     "probe_outputs(nd, mm.probe_state.matrix).sum(axis=0)",
     "mm.dim_base * probe_outputs(nd, mm.probe_state.matrix)[0]", None),
    ("meter-times-mixed", models, "post_probe_instrument_nd",
     "hermitian_part(roots @ mixed @ roots)", "hermitian_part(mm.meter.effects @ mixed)", None),
    ("transposed-probe-adjoint", channels, "probe_outputs",
     "np.conj(np.swapaxes(t, -1, -2))", "np.swapaxes(t, -1, -2)", None),
    ("transposed-context-weights", Context, "weights",
     '"ai,ab,bi->i"', '"ai,ba,bi->i"', None),
    # The battery compares these block-trace flags with the traced operator.
    ("effect-bound-below-one", probes, "reduced_trace_flags",
     "traces.real <= 1 + atol", "traces.real <= 1 - atol", None),
    ("unitary-modulus-plus-one", probes, "reduced_trace_flags",
     "np.abs(np.abs(traces) - 1.0)", "np.abs(np.abs(traces) + 1.0)", None),
    ("identity-square-root", linalg, "psd_sqrt",
     "root = np.sqrt(np.clip(w, 0.0, None))", "root = np.clip(w, 0.0, None)", None),
    # Only the model code: the random generators need the true Hermitian part
    # to build valid inputs at all.
    ("symmetric-part", linalg, "hermitian_part",
     "np.swapaxes(arr.conj(), -1, -2)", "np.swapaxes(arr, -1, -2)", (models,)),
    # One mutant per oracle.  The first reads the composite as probe-major,
    # so its trace keeps the probe dimension but sums over the wrong factor.
    ("oracle-trace-over-wrong-factor", models.DirectOracle, "readings",
     'partial_trace(interacted, n, dk, over="left")',
     'partial_trace(interacted, dk, n, over="right")', None),
    ("oracle-transposed-meter", models.DirectOracle, "readings",
     "mm.meter.effects.reshape(-1, dk * dk)",
     "np.swapaxes(mm.meter.effects, 1, 2).reshape(-1, dk * dk)", None),
    ("oracle-without-dephasing", models.DirectOracle, "remeasure",
     "n * (basis * diag[:, None, :]) @ basis.conj().T", "n * outs", None),
    # A commutator bound that certifies every operator: only the battery's
    # rejection instance can see it.
    ("zero-commutator-bound", probes, "_context_bound",
     "float(bound.max())", "0.0", None),
    # An order too strict to hold with equality: only the battery's
    # reflexivity check can see it.
    ("loewner-strict", linalg, "loewner_leq", ">= -atol", ">= atol", None),
]


def _mutant(original, name, old, new):
    source = textwrap.dedent(inspect.getsource(original))
    assert source.count(old) == 1, f"{name}: the text to mutate is not in its source"
    code = compile(
        source.replace(old, new), inspect.getsourcefile(original), "exec",
        flags=__future__.annotations.compiler_flag, dont_inherit=True,
    )
    namespace = {}
    exec(code, original.__globals__, namespace)
    return namespace[name]


def _install(monkeypatch, owner, name, old, new, modules):
    original = getattr(owner, name)
    mutant = _mutant(original, name, old, new)
    if inspect.isclass(owner):
        monkeypatch.setattr(owner, name, mutant)
        return
    if modules is None:
        modules = [m for key, m in sys.modules.items()
                   if key == "nondisturbing" or key.startswith("nondisturbing.")]
    bound = [(m, attr) for m in modules for attr, value in vars(m).items() if value is original]
    assert bound
    for module, attr in bound:
        monkeypatch.setattr(module, attr, mutant)


@pytest.mark.parametrize(
    "owner, name, old, new, modules", [m[1:] for m in MUTANTS], ids=[m[0] for m in MUTANTS]
)
def test_mutant_fails_the_battery_without_raising(monkeypatch, owner, name, old, new, modules):
    _install(monkeypatch, owner, name, old, new, modules)
    results, ok = run_verification(42, TRIALS, 4, 1e-9)
    assert not ok
    # A raising instance also fails the battery; a mutant must not raise.
    assert all(r.error is None for r in results)


# The post-probe oracle takes its own square root and Hermitian part, so a
# bug in the shared helpers moves the closed form away from the oracle
# instead of moving both together.
@pytest.mark.parametrize("mutant", ["identity-square-root", "symmetric-part"])
def test_shared_helper_mutant_separates_closed_form_from_oracle(monkeypatch, mutant):
    mm = random_model(3, 3, 3, 2, 11)
    inputs = (State(random_density(3, 12)),)
    _, before = evaluate(mm, inputs, ["post_probe"])
    _install(monkeypatch, *next(m[1:] for m in MUTANTS if m[0] == mutant))
    _, after = evaluate(mm, inputs, ["post_probe"])
    names = [name for name in after if name.endswith(".closed_vs_direct")]
    assert names
    assert max(before[name] for name in names) < 1e-15
    assert max(after[name] for name in names) > 1e-2


# The unitary-specialization family builds its post-probe reference with the
# oracle's own square roots, so a wrong ``psd_sqrt`` fails that family too.
def test_square_root_mutant_fails_the_unitary_specialization_reference(monkeypatch):
    assert _run_family((42, "unitary-specialization", 1, 4)).max_residual < 1e-12
    _install(monkeypatch, *next(m[1:] for m in MUTANTS if m[0] == "identity-square-root"))
    assert _run_family((42, "unitary-specialization", 1, 4)).max_residual > 1e-2
