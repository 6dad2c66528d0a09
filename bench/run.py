"""Benchmark of the nondisturbing package: one workload per run.

Usage, from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the run measures the end-to-end metrics for
``--seconds`` seconds.  It interleaves warm iterations in this process
with fresh interpreters (``cold.py``), each of which times its import of
the package and most of which then time their first iteration; every
metric is a median.  With ``--trace 1`` it measures untraced warm iterations for half of
``--seconds``, then installs the span tracer (``tracer.py``), makes one
traced iteration and reports the per-layer metrics.  Every iteration's
output is checked; a failed check makes the exit code 1.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

The package is imported from ``src/`` of the checkout holding this file.
Without it the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MIN_WARM = MIN_COLD = 3
# Shares of the measured interval spent on fresh interpreters that make a
# cold iteration, and on ones that only time their set-up.
COLD_SHARE = 0.45
SETUP_SHARE = 0.15
CHILD_TIMEOUT_S = 150

END_TO_END = (
    ("setup_s", "s"),
    ("cold_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)


def per_layer_specs() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better)."""
    specs = []
    for layer in tracing.LAYERS:
        specs += [
            (f"{layer}.self_s", "s", "lower"),
            (f"{layer}.calls", "count", "lower"),
            (f"{layer}.errors", "count", "lower"),
        ]
    for name in (
        "models.post_probe_observable",
        "models.measured_instrument_direct",
        "probes.commutator_defect",
        "channels.pair_overlap_kernel",
    ):
        specs += [(f"{name}.self_s", "s", "lower"), (f"{name}.calls", "count", "lower")]
    specs += [
        ("models.post_probe_observable.distinct_ratio", "ratio", "higher"),
        ("models.remeasured_effect_by_substitution.self_s", "s", "lower"),
        ("models.post_probe_instrument_direct.self_s", "s", "lower"),
        ("kernel.einsum.calls", "count", "lower"),
        ("kernel.einsum.self_s", "s", "lower"),
        ("kernel.einsum.flop", "flop", "lower"),
        ("objects.KrausOperation.init_s", "s", "lower"),
        ("objects.KrausOperation.inits", "count", "lower"),
        ("objects.Effect.inits", "count", "lower"),
        ("objects.Observable.from_matrices.self_s", "s", "lower"),
        ("channels.as_operation.calls_per_channel", "ratio", "lower"),
        ("channels.nd_channel_from_kraus.self_s", "s", "lower"),
        ("channels.induced_kraus.self_s", "s", "lower"),
        ("linalg.kron.calls", "count", "lower"),
        ("linalg.kron.out_bytes", "B", "lower"),
        ("linalg.partial_trace.self_s", "s", "lower"),
        ("linalg.psd_sqrt.self_s", "s", "lower"),
        ("probes.extract_probes.self_s", "s", "lower"),
        ("probes.extract_probes_by_matrix_elements.self_s", "s", "lower"),
        ("serialization.matrix_to_json.self_s", "s", "lower"),
        ("serialization.matrix_from_json.self_s", "s", "lower"),
        ("serialization.bytes_in", "B", "lower"),
        ("serialization.bytes_out", "B", "lower"),
    ]
    specs += [(f"verify.family.{f}.s", "s", "lower") for f in workloads.VERIFY_FAMILIES]
    specs.append(("trace.overhead_ratio", "ratio", "lower"))
    return specs


@dataclass
class Sample:
    wall: float
    cpu: float
    failures: list[str]
    wire: tuple[int, int] = (0, 0)  # JSON bytes read and written


def timed(workload: workloads.Workload) -> Sample:
    """One iteration: the timed call, then the gate outside the timing."""
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        result = workload.run()
    except Exception:  # a failed operation is counted, not fatal
        t1, c1 = time.perf_counter(), time.process_time()
        return Sample(t1 - t0, c1 - c0, [traceback.format_exc()])
    t1, c1 = time.perf_counter(), time.process_time()
    return Sample(t1 - t0, c1 - c0, workload.check(result), workload.wire_bytes(result))


def warm_samples(workload: workloads.Workload, seconds: float) -> list[Sample]:
    """Iterate until another iteration of median length would overrun ``seconds``."""
    samples: list[Sample] = []
    begin = time.perf_counter()
    while not samples or time.perf_counter() - begin + statistics.median(s.wall for s in samples) <= seconds:
        samples.append(timed(workload))
    return samples


def fresh_run(*job: str) -> dict:
    """Start ``cold.py`` in a fresh interpreter and return its record.

    ``job`` is the workload, seed and work directory of a cold iteration;
    without it the child only times its set-up.
    """
    spawned_at = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "cold.py"), repr(spawned_at), *job],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    took = time.monotonic() - spawned_at
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        record = {"failures": [f"fresh interpreter exited with {proc.returncode}: {proc.stderr[-2000:]}"]}
    else:
        record = json.loads(lines[-1])
    record["took"] = took
    return record


def interleaved(workload: workloads.Workload, args, workdir: Path) -> tuple[list[dict], list[Sample]]:
    """Fresh-interpreter runs and warm iterations, interleaved over ``--seconds``.

    A set-up-only interpreter is started whenever those have used less
    than ``SETUP_SHARE`` of the elapsed time, else a cold iteration's
    whenever those have used less than ``COLD_SHARE`` of it, else a warm
    iteration runs, so every kind of sample spans the whole measured
    interval.  At least ``MIN_COLD`` cold and ``MIN_WARM`` warm
    iterations are taken.  The records of both kinds of fresh
    interpreter are returned in one list.
    """
    cold: list[dict] = []
    setup_only: list[dict] = []
    warm: list[Sample] = []
    job = (args.workload, str(args.seed), str(workdir))
    begin = time.monotonic()

    def step() -> float:
        lengths = []
        if cold:
            lengths.append(statistics.median(r["took"] for r in cold))
        if warm:
            lengths.append(statistics.median(s.wall for s in warm))
        return max(lengths, default=0.0)

    while time.monotonic() - begin + step() <= args.seconds:
        elapsed = time.monotonic() - begin
        if sum(r["took"] for r in setup_only) <= SETUP_SHARE * elapsed:
            setup_only.append(fresh_run())
        elif sum(r["took"] for r in cold) <= COLD_SHARE * elapsed:
            cold.append(fresh_run(*job))
        else:
            warm.append(timed(workload))
    while len(cold) < MIN_COLD:
        cold.append(fresh_run(*job))
    while len(warm) < MIN_WARM:
        warm.append(timed(workload))
    return cold + setup_only, warm


def git_commit() -> str | None:
    """The checked-out commit, or None outside a git repository.

    Git does not search above the checkout, so a checkout that is not a
    repository gives None even inside another repository.
    """
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except OSError:  # no git on this host
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "machine": platform.machine(),
    }


def import_package() -> dict:
    """Import the package from ``src/``; refuse any other copy."""
    sys.path.insert(0, str(SRC))
    import nondisturbing
    from nondisturbing import channels, cli, objects, probes

    if not Path(nondisturbing.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"nondisturbing was imported from {nondisturbing.__file__}, not {SRC}")
    return {"cli": cli, "channels": channels, "objects": objects, "probes": probes}


def per_layer_metrics(
    summary: dict, trc: tracing.Tracer, wire: tuple[int, int], overhead: float
) -> dict[str, float]:
    """Per-layer values of one traced iteration, keyed as in :func:`per_layer_specs`."""
    names, layers = summary["names"], summary["layers"]

    def name_stat(name: str, key: str) -> float:
        return names.get(name, {}).get(key, 0)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    values: dict[str, float] = {}
    for layer in tracing.LAYERS:
        entry = layers.get(layer, {})
        values[f"{layer}.self_s"] = entry.get("self_s", 0.0)
        values[f"{layer}.calls"] = entry.get("calls", 0)
        values[f"{layer}.errors"] = entry.get("errors", 0)
    for name, unit, _ in per_layer_specs():
        if name in values:
            continue
        base, _, stat = name.rpartition(".")
        if stat in ("self_s", "calls"):
            values[name] = name_stat(base, stat)
        elif name.startswith("verify.family."):
            values[name] = name_stat(base, "total_s")
    values["models.post_probe_observable.distinct_ratio"] = ratio(
        len(trc.distinct["models.post_probe_observable"]),
        name_stat("models.post_probe_observable", "calls"),
    )
    values["kernel.einsum.flop"] = trc.counters["kernel.einsum.flop"]
    values["objects.KrausOperation.init_s"] = name_stat("objects.KrausOperation.init", "total_s")
    values["objects.KrausOperation.inits"] = name_stat("objects.KrausOperation.init", "calls")
    values["objects.Effect.inits"] = name_stat("objects.Effect.init", "calls")
    values["channels.as_operation.calls_per_channel"] = ratio(
        name_stat("channels.as_operation", "calls"), len(trc.distinct["channels.as_operation"])
    )
    values["linalg.kron.out_bytes"] = trc.counters["linalg.kron.out_bytes"]
    values["serialization.bytes_in"], values["serialization.bytes_out"] = wire
    values["trace.overhead_ratio"] = overhead
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "nondisturbing" / "__init__.py").is_file():
        sys.stderr.write(f"error: no package sources at {SRC / 'nondisturbing'}\n")
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"tmp-{os.getpid()}"
    workdir.mkdir()
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir: Path) -> int:
    info = provenance(args.seed)
    modules = import_package()
    workload = workloads.build(args.workload, args.seed, workdir, modules)

    first = timed(workload)  # warms this process; never reported
    fresh: list[dict] = []
    if args.trace:
        warm = warm_samples(workload, args.seconds / 2)
        trc = tracing.Tracer()
        wrapped = tracing.install(trc)
        trc.iteration = 1
        traced = timed(workload)
        samples = [first, *warm, traced]
        overhead = traced.wall / statistics.median(s.wall for s in warm)
        values = per_layer_metrics(trc.summary(), trc, traced.wire, overhead)
        specs = [(name, unit) for name, unit, _ in per_layer_specs()]
        spans_dir = OUT / "spans"
        spans_dir.mkdir(exist_ok=True)
        spans_path = spans_dir / f"{args.workload}-seed{args.seed}.npz"
        trc.save(spans_path)
        note = (
            f"traced iteration: {traced.wall:.4f} s, {len(trc.name)} spans over "
            f"{wrapped} wrapped calls, written to {spans_path.relative_to(ROOT)}"
        )
    else:
        fresh, warm = interleaved(workload, args, workdir)
        samples = [first, *warm]
        walls = [s.wall for s in warm]
        done = [r for r in fresh if "cold_s" in r] or [dict.fromkeys(("setup_s", "cold_s", "peak_rss_mb"), 0.0)]
        setups = [r["setup_s"] for r in fresh if "setup_s" in r] or [0.0]
        values = {
            "setup_s": statistics.median(setups),
            "cold_s": statistics.median(r["cold_s"] for r in done),
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(s.cpu for s in warm),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in done),
        }
        specs = list(END_TO_END)
        note = (
            f"warm samples: {len(walls)}, slowest {max(walls):.4f} s; fresh-interpreter "
            f"samples: {len(fresh)}, {len(done)} with a cold iteration, slowest cold "
            f"{max(r['cold_s'] for r in done):.4f} s"
        )

    failures = [f for s in samples for f in s.failures] + [f for r in fresh for f in r["failures"]]
    attempted = len(samples) + len(fresh)
    failed = sum(1 for s in samples if s.failures) + sum(1 for r in fresh if r["failures"])
    for failure in failures:
        sys.stderr.write(f"check failed: {failure}\n")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in specs}

    print(f"workload {args.workload}: {workloads.WHY[args.workload]}")
    print("provenance: " + json.dumps(info, sort_keys=True))
    print(note)
    for name, entry in metrics.items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    print(f"fail_rate = {failed}/{attempted} = {failed / attempted:.6g}")

    results_dir = OUT / "results"
    results_dir.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "provenance": info,
        "in_process_wall_s": [s.wall for s in samples],
        "in_process_cpu_s": [s.cpu for s in samples],
        "fresh_interpreter_runs": fresh,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "metrics": metrics,
    }
    path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
