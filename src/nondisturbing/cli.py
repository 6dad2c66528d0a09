"""Command-line front end: verify, run, example.

Exit codes: 0 all checks passed; 1 numerical failure (report or
summary still written, residuals included; a ``verify`` instance that
raised is a failure of its family, named in the summary); 2 parse or
usage error; 3 validation error in the input of ``run`` or ``example``
(a model invariant is violated, e.g. requesting closed forms from a
model whose channel is not nondisturbing).

Reports are written byte for byte as ``json.dumps(report, indent=2,
sort_keys=True)`` writes them, by a writer that skips the pure-Python
indenting encoder ``json`` falls back to.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Any

from .scenario import DEFAULT_TOLERANCE, Scenario, example_scenario, run_scenario, scenario_from_json
from .serialization import SchemaError, observable_from_json
from .verify import format_summary, run_verification

__all__ = ["main", "entry"]

EXIT_PASS = 0
EXIT_NUMERICAL = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3


def _tolerance(text: str) -> float:
    """Type of every ``--tol``: a positive finite float."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not 0 < value <= sys.float_info.max:
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nondisturbing",
        description=(
            "Nondisturbing measurement models: run JSON scenarios with "
            "oracle residuals, or verify the closed forms on seeded "
            "random instances."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="Run the randomized verification battery")
    verify.add_argument("--seed", type=int, default=42)
    verify.add_argument("--trials", type=int, default=100)
    verify.add_argument("--max-dim", type=int, default=4)
    verify.add_argument("--tol", type=_tolerance, default=1e-9)

    run = sub.add_parser("run", help="Run a JSON scenario and emit a JSON report")
    run.add_argument("scenario", help="Path to the scenario JSON file")
    run.add_argument("-o", "--output", default=None, help="Report path (default stdout)")
    run.add_argument("--tol", type=_tolerance, default=None, help="Override the scenario tolerance")

    example = sub.add_parser("example", help="Run a built-in model family")
    example.add_argument("family", choices=["swap", "fourier"])
    example.add_argument("--n", type=int, required=True, help="Base dimension")
    example.add_argument("--m", type=int, default=None, help="Probe dimension (fourier)")
    example.add_argument(
        "--probe", default="sharp",
        help="'sharp' or a path to an observable JSON file",
    )
    example.add_argument("-o", "--output", default=None)
    example.add_argument("--tol", type=_tolerance, default=DEFAULT_TOLERANCE)
    return parser


_INF = float("inf")


def _float_text(value: float) -> str:
    """A float as json writes it: ``repr``, or ``NaN``/``Infinity``/``-Infinity``."""
    if value != value:
        return "NaN"
    if value == _INF:
        return "Infinity"
    if value == -_INF:
        return "-Infinity"
    return float.__repr__(value)


def _is_pair_list(value: list) -> bool:
    """True for a list of ``[float, float]`` lists, the shape of every matrix ``data``."""
    return (
        set(map(type, value)) == {list}
        and set(map(len, value)) == {2}
        and set(map(type, chain.from_iterable(value))) == {float}
    )


def _write_json(value: Any, indent: str, out: list[str]) -> None:
    """Append ``value`` to ``out`` as ``json.dumps(indent=2, sort_keys=True)`` writes it."""
    inner = indent + "  "
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None or isinstance(value, bool):
        out.append("null" if value is None else "true" if value else "false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(_float_text(value))
    elif isinstance(value, list) and _is_pair_list(value):
        pair, comma = f"[\n{inner}  %s,\n{inner}  %s\n{inner}]", f",\n{inner}"
        body = comma.join([pair % (re, im) for re, im in value])
        if "n" in body:  # str() wrote a nan or inf; json spells those differently
            body = comma.join([pair % (_float_text(re), _float_text(im)) for re, im in value])
        out.append(f"[\n{inner}{body}\n{indent}]")
    elif isinstance(value, list):
        out.append("[" if value else "[]")
        for k, item in enumerate(value):
            out.append(f",\n{inner}" if k else f"\n{inner}")
            _write_json(item, inner, out)
        out.append(f"\n{indent}]" if value else "")
    elif isinstance(value, dict):  # encode_basestring_ascii raises TypeError on a non-str key
        out.append("{" if value else "{}")
        for k, key in enumerate(sorted(value)):
            out.append(f",\n{inner}" if k else f"\n{inner}")
            out.append(encode_basestring_ascii(key) + ": ")
            _write_json(value[key], inner, out)
        out.append(f"\n{indent}}}" if value else "")
    else:
        raise TypeError(f"cannot write {type(value).__name__} to a report")


def _emit_report(report: dict[str, Any], output: str | None) -> None:
    out: list[str] = []
    _write_json(report, "", out)
    text = "".join(out) + "\n"
    if output is None:
        sys.stdout.write(text)
        return
    try:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise _FileError(f"cannot write {output}: {exc}") from exc


def _finish(scenario: Scenario, output: str | None) -> int:
    report = run_scenario(scenario)
    _emit_report(report, output)
    return EXIT_PASS if report["pass"] else EXIT_NUMERICAL


def _cmd_verify(args) -> int:
    if args.trials < 1:
        raise _UsageError("--trials must be >= 1")
    if args.max_dim < 2:
        raise _UsageError("--max-dim must be >= 2")
    if args.seed < 0:
        raise _UsageError("--seed must be >= 0")
    results, ok = run_verification(args.seed, args.trials, args.max_dim, args.tol)
    sys.stdout.write(format_summary(results, args.seed, args.trials, args.max_dim, args.tol))
    return EXIT_PASS if ok else EXIT_NUMERICAL


def _read_json(path: str) -> Any:
    """Parse the JSON file at ``path``; an unreadable or malformed file raises _FileError."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise _FileError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _FileError(
            f"{path} is not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from exc


def _cmd_run(args) -> int:
    scenario = scenario_from_json(_read_json(args.scenario))
    if args.tol is not None:
        scenario = dataclasses.replace(scenario, tolerance=args.tol)
    return _finish(scenario, args.output)


def _cmd_example(args) -> int:
    """Run a built-in family as ``run`` runs the equivalent ``example`` document."""
    if args.n < 1:
        raise _UsageError("--n must be >= 1")
    if args.family == "swap" and args.m is not None:
        raise _UsageError("--m is fourier-only; the swap probe dimension is --n")
    if args.family == "fourier" and args.m is None:
        raise _UsageError("fourier requires --m")
    if args.m is not None and args.m < 2:
        raise _UsageError("--m must be >= 2")
    meter = None if args.probe == "sharp" else observable_from_json(_read_json(args.probe), "probe")
    return _finish(example_scenario(args.family, args.n, args.m, meter, args.tol), args.output)


class _UsageError(Exception):
    pass


class _FileError(Exception):
    pass


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code else EXIT_PASS
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_example(args)
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_PARSE
    except _FileError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE
    except SchemaError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return EXIT_PARSE
    except ValueError as exc:
        sys.stderr.write(f"validation error: {exc}\n")
        return EXIT_VALIDATION


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
