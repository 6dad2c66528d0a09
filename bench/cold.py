"""The set-up, and optionally one cold iteration, in a fresh interpreter.

Started by ``run.py`` as

    python3 bench/cold.py SPAWNED_AT [WORKLOAD SEED WORKDIR]

where ``SPAWNED_AT`` is the parent's ``time.monotonic()`` just before the
spawn.  The package is imported first, so ``setup_s`` covers interpreter
start-up plus ``import nondisturbing.cli`` and nothing else.  Given a
workload, the inputs are generated next and one iteration is timed and
checked.  The last line of standard output is one JSON object with
``setup_s`` and ``failures``, and with a workload also ``cold_s``,
``cpu_s`` and ``peak_rss_mb``.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import nondisturbing.cli  # noqa: E402,F401  (the timed set-up)

IMPORTED_AT = time.monotonic()

import json  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402


def peak_rss_mb() -> float:
    """Peak resident memory of this process image.

    ``VmHWM`` starts afresh at ``exec``, unlike ``ru_maxrss``, which keeps
    the parent's peak from before the fork.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(argv: list[str]) -> int:
    spawned_at, *job = argv
    record = {"setup_s": IMPORTED_AT - float(spawned_at), "failures": []}
    if job:
        name, seed, workdir = job
        workload = workloads.build(name, int(seed), Path(workdir), run.import_package())
        sample = run.timed(workload)
        record.update(cold_s=sample.wall, cpu_s=sample.cpu, peak_rss_mb=peak_rss_mb(), failures=sample.failures)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
