"""invmark benchmark: run one workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {keygen,train,audit} --seed N \
        --seconds S --trace {0,1}

The package is imported from the checkout's ``src`` directory; without it the
command exits with code 2 and prints no result. Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end metrics
with ``--trace 0``, per-layer metrics with ``--trace 1``). The exit code is 0
only when every output check passed. See NOTES.md for what each workload
measures.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
FIXTURES = "fixtures-"  # prefix of a run's private fixture directory in OUT
# One load-generating thread: BLAS pools are pinned to a single thread
# (this numpy links OpenBLAS built with MAX_THREADS=64).
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("keygen", "train", "audit"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _exit_on_signal(signum, frame):
    # Unwind, so that the fixtures are removed on the way out.
    raise SystemExit(128 + signum)


def _remove_stale_fixtures():
    """Remove fixture directories of runs that were killed before they could
    clean up; a directory is named after the process that made it."""
    if not os.path.isdir(OUT):
        return
    for entry in os.listdir(OUT):
        if not entry.startswith(FIXTURES):
            continue
        pid = entry[len(FIXTURES):].split("-")[0]
        try:
            os.kill(int(pid), 0)  # signal 0: only asks whether it exists
        except ProcessLookupError:
            shutil.rmtree(os.path.join(OUT, entry), ignore_errors=True)
        except (ValueError, PermissionError):
            pass


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "invmark", "__init__.py")):
        print(f"error: no invmark sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [SRC, HERE]
    import invmark  # noqa: E402  (after the BLAS pin, which must precede numpy)

    if not os.path.abspath(invmark.__file__).startswith(SRC + os.sep):
        print(f"error: imported invmark from {invmark.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from runner import run_workload

    # The benchmark writes only inside its checkout, so the fixtures (the
    # audit's include the secret bundle) go to a private directory there,
    # removed on exit, on SIGTERM or SIGHUP, or by the next run if this one
    # is killed outright.
    for signum in (signal.SIGTERM, signal.SIGHUP):
        signal.signal(signum, _exit_on_signal)
    _remove_stale_fixtures()
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{FIXTURES}{os.getpid()}-", dir=OUT)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"blas threads pinned to {BLAS_THREADS} ({', '.join(BLAS_VARS)})")
    for line in result.lines:
        print(line)
    if result.tracer is not None:
        run_id = f"{args.workload}-seed{args.seed}"
        path = os.path.join(OUT, f"trace-{run_id}.jsonl.gz")
        result.tracer.write(path, run_id)
        print(f"spans written to {os.path.relpath(path, ROOT)}")
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()},
            }
        )
    )
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
