"""The repository benchmark: ``oneshot``, ``ingest`` and ``serve``.

Run from the root of a checkout::

    python3 perfbench/run.py --workload oneshot --seed 1 --seconds 15 --trace 0

Every workload builds its inputs from ``--seed`` with the recipe of
``repro.simulation.datasets.insect_like`` (n=144 taxa, three 64-bit key
words) before anything is timed, runs the program from ``src/`` of the
checkout for about ``--seconds`` seconds (serve's open-loop phase runs
until it has 1000 latency samples), and checks every answer against the
dict-backed ``bfhrf`` reference.  With ``--trace 0`` it
prints the end-to-end metrics listed in ``BENCHMARK.json``; with
``--trace 1`` it runs again under the span shims of ``tracer.py`` and
prints the per-layer metrics.  The last line of standard output is the
result object; metric lines, a provenance stamp and notes come before
it.  Any wrong answer makes the exit code 1.

``DEFAULT_SEED`` is the seed to tune against; ``HELD_OUT_SEED`` is kept
aside to confirm a claimed gain on a seed not used while writing it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(".perfbench_work")

DEFAULT_SEED = 1
HELD_OUT_SEED = 7919


def _fail_setup(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _source_digest(src: Path) -> str:
    """Content hash of the program under test (the checkout may not be a
    git repository, so this identifies the code when the SHA cannot)."""
    digest = hashlib.sha1()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def _git_sha() -> str:
    """HEAD of the checkout, or ``unknown`` when the checkout is not
    itself a git work tree (git does not look above the checkout)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return "unknown"
    return lines[1]


def _stamp(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    import numpy

    from repro.core.table import default_codec_name

    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "codec": default_codec_name(), "git_sha": _git_sha(),
            "src_digest": _source_digest(ROOT / "src" / "repro")}


def main(argv: list[str] | None = None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return _fail_setup(f"{spec_path} is missing")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return _fail_setup("no program source at src/repro in this checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        return _fail_setup(f"imported repro from {repro.__file__}, not from "
                           "this checkout's src/")
    spec = json.loads(spec_path.read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}

    os.chdir(ROOT)  # relative socket paths stay short in any checkout
    work = WORK / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        stamp = _stamp(args.workload, args.seed, args.seconds,
                       bool(args.trace))
        print("stamp " + json.dumps(stamp, sort_keys=True), flush=True)
        outcome = workloads.WORKLOADS[args.workload](
            seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
            work=work)
    except workloads.InvalidRun as exc:
        print(f"perfbench: run invalid, not scored: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run is still using it

    missing = sorted(set(units) - set(outcome.metrics))
    extra = sorted(set(outcome.metrics) - set(units))
    if missing or extra:
        print(f"perfbench: metric set mismatch: missing {missing}, "
              f"unexpected {extra}", file=sys.stderr)
        return 4
    for note in outcome.notes:
        print(f"note: {note}")
    for name in units:
        print(f"{name} = {outcome.metrics[name]:.6g} {units[name]}")
    correct = outcome.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": float(outcome.metrics[name]),
                           "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
