"""The four benchmark workloads: seeded inputs, one timed iteration, the gate.

Inputs are drawn by this file's own NumPy code from the workload seed,
never by the package's ``random_*`` helpers, so a change to those
helpers cannot change what is measured.  Every gate recomputes its
verdict from the program's output instead of trusting the report's own
``pass`` flag, and fails an empty or missing output.

The package is reached only through modules passed in by the caller
(``cli``, ``channels``, ``objects``, ``probes``), and functions are
looked up on those modules at call time, so wrappers installed by the
tracer are seen.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

VERIFY_TRIALS = 40
VERIFY_ARGS = ("--trials", str(VERIFY_TRIALS), "--max-dim", "4", "--tol", "1e-9")
VERIFY_TOL = 1e-9
VERIFY_FAMILIES = (
    "algebra-closure", "channel-partial-traces", "channel-round-trip",
    "classification", "conjugation-identity", "fourier-family",
    "measured-instrument", "post-probe", "probe-round-trip",
    "reduced-trace-closed-forms", "remeasurement", "swap-family",
    "unitary-specialization",
)
SWAP_N = 10
SWAP_TOL = 1e-10  # the CLI's default for `example`
SCENARIO_N = SCENARIO_DK = 12
SCENARIO_K = 3
SCENARIO_OUTCOMES = 6
SCENARIO_INPUTS = 8
SCENARIO_TOL = 1e-9
KRAUS_N = KRAUS_DK = 16
KRAUS_K = 2
KRAUS_TOL = 1e-9
PERTURBATION = 1e-3


def workload_rng(seed: int, workload: str) -> np.random.Generator:
    """Generator for one workload; distinct workloads never share a stream."""
    return np.random.default_rng(
        np.random.SeedSequence([seed, zlib.crc32(workload.encode("ascii"))])
    )


# -- generators (benchmark-owned NumPy code) ---------------------------------


def _gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def gen_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(_gaussian(rng, (dim, dim)))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def gen_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = _gaussian(rng, (dim, dim))
    rho = g @ g.conj().T
    rho = (rho + rho.conj().T) / 2
    return rho / np.trace(rho).real


def gen_povm(rng: np.random.Generator, dim: int, count: int) -> list[np.ndarray]:
    parts = []
    for _ in range(count):
        g = _gaussian(rng, (dim, dim))
        parts.append(g @ g.conj().T)
    w, v = np.linalg.eigh(sum(parts))
    inv_root = (v / np.sqrt(w)) @ v.conj().T
    effects = []
    for a in parts:
        f = inv_root @ a @ inv_root
        effects.append((f + f.conj().T) / 2)
    return effects


def gen_kraus_table(rng: np.random.Generator, n: int, kraus: int, dk: int) -> np.ndarray:
    """Table ``t[i, k]`` with every row a channel: ``sum_k t[i,k]* t[i,k] = I``."""
    table = np.empty((n, kraus, dk, dk), dtype=complex)
    for i in range(n):
        isometry, _ = np.linalg.qr(_gaussian(rng, (kraus * dk, dk)))
        table[i] = isometry.reshape(kraus, dk, dk)
    return table


def matrix_json(m: np.ndarray) -> dict[str, Any]:
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "data": [[float(z.real), float(z.imag)] for z in m.reshape(-1)],
    }


def matrix_unjson(obj: dict[str, Any]) -> np.ndarray:
    data = np.asarray(obj["data"], dtype=float)
    return (data[:, 0] + 1j * data[:, 1]).reshape(obj["rows"], obj["cols"])


@dataclass(frozen=True)
class ScenarioInputs:
    text: str           # the scenario document as written to disk
    basis: np.ndarray   # context basis, columns are the atoms' vectors
    table: np.ndarray   # (n, K, dk, dk)
    eta: np.ndarray
    effects: list[np.ndarray]


def gen_scenario(seed: int) -> ScenarioInputs:
    rng = workload_rng(seed, "scenario-nd12")
    n, dk = SCENARIO_N, SCENARIO_DK
    basis = gen_unitary(rng, n)
    table = gen_kraus_table(rng, n, SCENARIO_K, dk)
    eta = gen_density(rng, dk)
    effects = gen_povm(rng, dk, SCENARIO_OUTCOMES)
    states = [gen_density(rng, n) for _ in range(SCENARIO_INPUTS)]
    document = {
        "dimH": n,
        "dimK": dk,
        "eta": matrix_json(eta),
        "probe": {
            "outcomes": [
                {"label": str(x), "effect": matrix_json(f)} for x, f in enumerate(effects)
            ]
        },
        "channel": {
            "kind": "nd",
            "context": matrix_json(basis),
            "table": [[matrix_json(b) for b in row] for row in table],
        },
        "inputs": [matrix_json(rho) for rho in states],
        "requests": ["instrument", "observable", "post_probe"],
        "tol": SCENARIO_TOL,
        "seed": seed,
    }
    # Round-trip through the wire format so the reference values below are
    # exactly what the program reads.
    text = json.dumps(document)
    parsed = json.loads(text)
    return ScenarioInputs(
        text=text,
        basis=matrix_unjson(parsed["channel"]["context"]),
        table=np.array([[matrix_unjson(b) for b in row] for row in parsed["channel"]["table"]]),
        eta=matrix_unjson(parsed["eta"]),
        effects=[matrix_unjson(o["effect"]) for o in parsed["probe"]["outcomes"]],
    )


def scenario_observable(inputs: ScenarioInputs) -> list[np.ndarray]:
    """Reference effects ``sum_i tr(sum_k B_i^k eta B_i^k* F_x) P_i``."""
    t = inputs.table
    evolved = np.einsum("ikab,bc,ikdc->iad", t, inputs.eta, t.conj())
    out = []
    for f in inputs.effects:
        weights = np.einsum("iad,da->i", evolved, f).real
        out.append((inputs.basis * weights) @ inputs.basis.conj().T)
    return out


@dataclass(frozen=True)
class KrausInputs:
    basis: np.ndarray
    table: np.ndarray              # (n, K, dk, dk)
    kraus: tuple[np.ndarray, ...]  # composite S_k = sum_i P_i (x) B_i^k
    perturbed: tuple[np.ndarray, ...]


def gen_kraus(seed: int) -> KrausInputs:
    rng = workload_rng(seed, "kraus-import-n16")
    n, dk = KRAUS_N, KRAUS_DK
    basis = gen_unitary(rng, n)
    table = gen_kraus_table(rng, n, KRAUS_K, dk)
    atoms = [np.outer(basis[:, i], basis[:, i].conj()) for i in range(n)]
    kraus = tuple(
        sum(np.kron(atoms[i], table[i, k]) for i in range(n)) for k in range(KRAUS_K)
    )
    shift = np.roll(np.eye(n), 1, axis=0)
    perturbed = (kraus[0] + PERTURBATION * np.kron(shift, np.eye(dk)),) + kraus[1:]
    return KrausInputs(basis, table, kraus, perturbed)


# -- gates --------------------------------------------------------------------


def _max_abs(a: np.ndarray) -> float:
    return float(np.max(np.abs(a))) if a.size else 0.0


_FAMILY_LINE = re.compile(r"^(\S+)\s+trials=(\d+) max-residual=(\S+) (pass|FAIL)$")


def check_verify(rc: int, text: str, reference: str | None) -> list[str]:
    """Gate for `verify`: residuals re-read from the summary, output stable."""
    if rc != 0:
        return [f"exit code {rc}"]
    lines = text.splitlines()
    if not lines:
        return ["empty output"]
    failures = []
    families = [_FAMILY_LINE.match(line) for line in lines[1:-1]]
    if not all(families) or tuple(m.group(1) for m in families) != VERIFY_FAMILIES:
        failures.append(f"family lines {lines[1:-1]!r} do not name the {len(VERIFY_FAMILIES)} families")
    for match in filter(None, families):
        if int(match.group(2)) != VERIFY_TRIALS or not float(match.group(3)) <= VERIFY_TOL:
            failures.append(f"family line {match.group(0)!r} out of tolerance")
    count = len(VERIFY_FAMILIES)
    if lines[-1] != f"overall pass ({count}/{count} families)":
        failures.append(f"summary line {lines[-1]!r}")
    if reference is not None and text != reference:
        failures.append("output differs from the first iteration of this seed")
    return failures


def _check_report(
    rc: int, text: str, tol: float, counts: dict[str, int]
) -> tuple[list[str], dict[str, Any] | None]:
    if rc != 0:
        return [f"exit code {rc}"], None
    if not text.strip():
        return ["empty report"], None
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"], None
    failures = []
    if report.get("tolerance") != tol:
        failures.append(f"report tolerance {report.get('tolerance')!r} != {tol!r}")
    residuals = report.get("residuals") or {}
    if not residuals:
        failures.append("report has no residuals")
    bad = {k: v for k, v in residuals.items() if not (isinstance(v, float) and 0 <= v <= tol)}
    if bad:
        failures.append(f"{len(bad)} residuals above {tol!r}, e.g. {next(iter(bad.items()))}")
    results = report.get("results") or {}
    for request, count in counts.items():
        got = len(results.get(request) or [])
        if got != count:
            failures.append(f"{request}: {got} entries, expected {count}")
    return failures, report


def _check_effects(report: dict[str, Any], expected: list[np.ndarray], tol: float) -> list[str]:
    entries = report["results"].get("observable") or []
    by_label = {e["outcome"]: matrix_unjson(e["matrix"]) for e in entries}
    failures = []
    for x, want in enumerate(expected):
        got = by_label.get(str(x))
        if got is None:
            failures.append(f"observable effect {x} missing")
        elif got.shape != want.shape or _max_abs(got - want) > tol:
            failures.append(f"observable effect {x} differs from the reference")
    return failures


def check_swap(rc: int, text: str) -> list[str]:
    n = SWAP_N
    failures, report = _check_report(
        rc, text, SWAP_TOL,
        {"instrument": 2 * n, "observable": n, "post_probe": 2 * n, "remeasure": 2 * n},
    )
    if report is not None and not failures:
        eye = np.eye(n)
        failures += _check_effects(report, [np.outer(eye[x], eye[x]) for x in range(n)], SWAP_TOL)
    return failures


def check_scenario(rc: int, text: str, inputs: ScenarioInputs) -> list[str]:
    pairs = SCENARIO_INPUTS * SCENARIO_OUTCOMES
    failures, report = _check_report(
        rc, text, SCENARIO_TOL,
        {"instrument": pairs, "observable": SCENARIO_OUTCOMES, "post_probe": pairs},
    )
    if report is not None and not failures:
        failures += _check_effects(report, scenario_observable(inputs), SCENARIO_TOL)
    return failures


@dataclass
class KrausOutcome:
    table: np.ndarray | None
    by_elements: list[np.ndarray]
    rejected: BaseException | None


def check_kraus(outcome: KrausOutcome, inputs: KrausInputs) -> list[str]:
    failures = []
    if outcome.table is None or outcome.table.shape != inputs.table.shape:
        failures.append("no recovered table of the generated shape")
    elif _max_abs(outcome.table - inputs.table) > KRAUS_TOL:
        failures.append("recovered table differs from the generated one")
    if len(outcome.by_elements) != KRAUS_K:
        failures.append(f"matrix-element route gave {len(outcome.by_elements)} decompositions")
    for k, probes in enumerate(outcome.by_elements):
        if probes.shape != inputs.table[:, k].shape or _max_abs(probes - inputs.table[:, k]) > KRAUS_TOL:
            failures.append(f"matrix-element route disagrees for Kraus operator {k}")
    if not isinstance(outcome.rejected, ValueError):
        failures.append(f"perturbed family not rejected with ValueError: {outcome.rejected!r}")
    return failures


# -- workloads ------------------------------------------------------------------


def run_cli(cli, argv: list[str]) -> tuple[int, str]:
    """Call ``cli.main(argv)`` with standard output captured."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        rc = cli.main(argv)
    return rc, buffer.getvalue()


@dataclass
class Workload:
    """One workload bound to its inputs.

    ``run`` is the timed call; ``check`` returns the gate's failures for
    its result; ``wire_bytes`` gives the JSON bytes read and written.
    """

    run: Callable[[], Any]
    check: Callable[[Any], list[str]]
    wire_bytes: Callable[[Any], tuple[int, int]]


WHY = {
    "verify-t40": "verify battery at 40 trials: thousands of dim<=4 instances; Python overhead in objects, kron and small closed forms",
    "swap-n10": "example swap --n 10: remeasure oracle calls post_probe_observable 202 times through naive 3-operand einsum",
    "scenario-nd12": "run on a generated n=dk=12 K=3 scenario: brute-force oracles, repeated Kraus validation, JSON read and write",
    "kraus-import-n16": "library import of an n=dk=16 K=2 Kraus family: commutator test and both probe-extraction routes at size",
}


def build(name: str, seed: int, workdir: Path, modules: dict[str, Any]) -> Workload:
    """Generate the inputs of workload ``name`` and bind its timed call.

    ``modules`` maps ``cli``, ``channels``, ``objects`` and ``probes``
    to the package modules.
    """
    cli = modules["cli"]
    if name == "verify-t40":
        argv = ["verify", "--seed", str(seed), *VERIFY_ARGS]
        reference: list[str] = []

        def check(result):
            rc, text = result
            failures = check_verify(rc, text, reference[0] if reference else None)
            if not reference:
                reference.append(text)
            return failures

        return Workload(lambda: run_cli(cli, argv), check, lambda r: (0, 0))

    if name == "swap-n10":
        argv = ["example", "swap", "--n", str(SWAP_N)]
        return Workload(
            lambda: run_cli(cli, argv), lambda r: check_swap(*r), lambda r: (0, len(r[1].encode()))
        )

    if name == "scenario-nd12":
        inputs = gen_scenario(seed)
        path = workdir / f"scenario-seed{seed}.json"
        path.write_text(inputs.text, encoding="utf-8")
        size = path.stat().st_size
        argv = ["run", str(path)]
        return Workload(
            lambda: run_cli(cli, argv),
            lambda r: check_scenario(*r, inputs),
            lambda r: (size, len(r[1].encode())),
        )

    if name == "kraus-import-n16":
        inputs = gen_kraus(seed)
        channels, objects, probes = modules["channels"], modules["objects"], modules["probes"]

        def run():
            context = objects.Context(inputs.basis)
            nd = channels.nd_channel_from_kraus(list(inputs.kraus), context, KRAUS_DK)
            by_elements = [
                np.array(probes.extract_probes_by_matrix_elements(s, context, KRAUS_DK).probes)
                for s in inputs.kraus
            ]
            try:
                channels.nd_channel_from_kraus(list(inputs.perturbed), context, KRAUS_DK)
            except ValueError as exc:
                rejected: BaseException | None = exc
            else:
                rejected = None
            return KrausOutcome(np.array(nd.table_array), by_elements, rejected)

        return Workload(run, lambda r: check_kraus(r, inputs), lambda r: (0, 0))

    raise KeyError(f"unknown workload {name!r}; known: {', '.join(WHY)}")
