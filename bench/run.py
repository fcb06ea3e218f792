"""hypercom benchmark: one run of one workload, with its metrics and checks.

    python3 bench/run.py --workload com-bulk --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it reports the per-layer metrics of a traced run (see
README.md in this directory).  The last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it is the full result, also written to ``--out-dir``.

The workload runs in a fresh single-threaded interpreter (measure.py),
which also measures the set-up time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import PER_LAYER
from workloads import SIZES, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# The whole run, set-up and checks included, ends within this many seconds.
TIME_LIMIT = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("particles_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("failed_frac", "fraction"),
    ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    """The run could not be made; nothing is printed on stdout."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def check_layout() -> None:
    for needed in (SRC / "hypercom" / "cli.py", ROOT / "tests" / "oracles.py"):
        if not needed.is_file():
            raise BenchError(f"{needed} is missing; run from a hypercom checkout")


def run_child(cmd, timeout):
    try:
        done = subprocess.run(
            cmd, capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{cmd[1]} did not finish within {timeout:.0f} s") from exc
    if done.returncode != 0:
        raise BenchError(f"{' '.join(cmd[:2])} exited {done.returncode}:\n{done.stderr}")
    return done.stdout


def machine() -> dict:
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
    }


def source_identity() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "hypercom").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired, IndexError):
        pass
    return {"commit": commit, "source_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hypercom benchmark (see bench/README.md)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=SIZES, default="full",
                        help="tiny: small pools and one set-up sample, for the tests")
    parser.add_argument("--out-dir", default=".bench_out",
                        help="where results, spans and scratch files go")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    deadline = time.monotonic() + TIME_LIMIT
    try:
        check_layout()
        out_dir = Path(args.out_dir).resolve()
        out_dir.mkdir(parents=True, exist_ok=True)
        cmd = [
            sys.executable, str(BENCH / "measure.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", str(args.trace),
            "--size", args.size, "--out-dir", str(out_dir),
        ]
        lines = run_child(cmd, deadline - time.monotonic()).strip().splitlines()
        if not lines:
            raise BenchError("measure.py printed no result")
        child = json.loads(lines[-1])
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        names = PER_LAYER
        values = child["per_layer"]
    else:
        names = END_TO_END
        values = dict(child["end_to_end"], setup_s=statistics.median(child["setup_samples"]))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in names}
    result = {
        **machine(),
        **source_identity(),
        "seconds": args.seconds,
        "trace": args.trace,
        **child,
        "metrics": metrics,
    }
    path = out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result, sort_keys=True))
    print(json.dumps({
        "correct": child["correct"],
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
