"""One measured run of one workload, in the interpreter that runs this file.

``run.py`` starts this script in a fresh interpreter and reads the JSON
line it prints last.  The run is a closed loop with one caller:

1. make the seeded inputs and write any input files (untimed);
2. one warm-up pass over the pool (untimed);
3. whole passes until ``--seconds`` have elapsed, at least three; each
   op is timed on its own and the loop's bookkeeping is not timed;
   between passes, SETUP_REPEATS fresh interpreters spread over the run
   each time ``import hypercom.cli`` and ``build_parser()``;
4. with ``--trace 1``, the same again with the tracer installed, folding
   the spans into per-layer totals after each pass;
5. the output checks of ``checks.py``, after all timing.

Each item's latency is its fastest repeat over the passes.  On a shared
machine, contention comes and goes in spells and only ever adds time, so
the fastest of twenty or more repeats moves far less from run to run than
a median does.  Throughput is the number of ops that passed their checks
over the sum of those latencies; the p50 and the tail are taken across
items.  The tail is the item latency with exactly TAIL_BEYOND items above
it, so its percentile depends on the pool size only, not on how many
passes fit in the run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracer import OP, SUBCOMMANDS, Tracer

ROOT = Path(__file__).resolve().parent.parent

MIN_PASSES = 3
TAIL_BEYOND = 10
SPAN_FILE_LIMIT = 100_000
SETUP_REPEATS = 11

# Interpreter start-up and site imports happen before this code runs,
# so they are not part of the time it prints.
SETUP_PROBE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import hypercom.cli
hypercom.cli.build_parser()
print(time.perf_counter() - start)
"""


class SetupProbes:
    """Set-up times of fresh interpreters, taken between passes.

    Contention on a shared machine comes in spells of seconds, and one
    set-up takes tens of milliseconds, so probes taken back to back all
    land in the same spell; spread over the run, their median does not.
    """

    def __init__(self, count: int, seconds: float):
        self.count = count
        self.interval = seconds / max(count, 1)
        self.due = time.perf_counter()
        self.samples = []

    def _probe(self) -> None:
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(ROOT / "src")],
            capture_output=True, text=True, check=True, timeout=60,
        )
        self.samples.append(float(done.stdout))

    def between_passes(self, _passes: int) -> None:
        if len(self.samples) < self.count and time.perf_counter() >= self.due:
            self._probe()
            self.due += self.interval

    def finish(self) -> list[float]:
        while len(self.samples) < self.count:
            self._probe()
        return self.samples


class Passes:
    """Latencies and outcomes of whole passes over the pool."""

    def __init__(self, count: int):
        self.latency = [[] for _ in range(count)]
        self.passes = 0
        self.first = [None] * count
        self.diverged = set()

    def run(self, items, op, finish, seconds, min_passes=MIN_PASSES, after_pass=None):
        clock = time.perf_counter
        deadline = clock() + seconds
        while True:
            for i, item in enumerate(items):
                start = clock()
                try:
                    raw = op(item)
                except Exception as exc:  # a failed op is a measured outcome
                    elapsed = clock() - start
                    outcome = ("error", type(exc).__name__, str(exc)[:300])
                else:
                    elapsed = clock() - start
                    outcome = ("ok", finish(item, raw))
                self.latency[i].append(elapsed)
                if self.first[i] is None:
                    self.first[i] = outcome
                elif outcome != self.first[i]:
                    self.diverged.add(i)
            self.passes += 1
            if after_pass is not None:
                after_pass(self.passes)
            if self.passes >= min_passes and clock() >= deadline:
                return

    def best(self) -> list[float]:
        """Each item's fastest repeat."""
        return [min(lat) for lat in self.latency]

    def ops_per_s(self) -> float:
        return len(self.latency) / sum(self.best())


def verdicts(workload, inputs, passes):
    """(kind, detail) for each failed item, None for each correct one."""
    import checks  # mpmath loads only now, after the memory peak is read

    out = []
    for i, item in enumerate(inputs.items):
        outcome = passes.first[i]
        if i in passes.diverged:
            out.append(("wrong_value", "output differs between passes"))
        elif outcome[0] == "error":
            kind = outcome[1] if workload != "cli-mix" else f"traceback:{outcome[1]}"
            out.append((kind, outcome[2]))
        else:
            out.append(checks.check(workload, item, outcome[1], inputs.files))
    return out


def end_to_end(inputs, passes, verdict, rss_mb):
    items = inputs.items
    ok = [i for i, v in enumerate(verdict) if v is None]
    best = passes.best()
    per_pass = sum(best)
    ranked = sorted(best)
    # A pool too small to leave TAIL_BEYOND items beyond reports its maximum.
    beyond = TAIL_BEYOND if len(ranked) > TAIL_BEYOND else 0
    attempted = sum(len(lat) for lat in passes.latency)
    failed = sum(len(passes.latency[i]) for i, v in enumerate(verdict) if v is not None)
    metrics = {
        "ops_per_s": len(ok) / per_pass,
        "particles_per_s": sum(items[i].particles for i in ok) / per_pass,
        "latency_p50_ms": statistics.median(best) * 1e3,
        "latency_tail_ms": ranked[len(ranked) - 1 - beyond] * 1e3,
        "failed_frac": failed / attempted,
        "peak_rss_mb": rss_mb,
    }
    tail = {
        "percentile": 100.0 * (len(ranked) - beyond) / len(ranked),
        "items": len(ranked),
        "items_beyond": beyond,
        "latency_samples": attempted,
    }
    return metrics, tail, attempted, failed


def cli_metrics(workload, inputs, untraced, verdict):
    """Per-layer metrics the harness measures itself; zero off the CLI."""
    items = inputs.items
    out = {f"cli.{sub}.latency_p50_ms": 0.0 for sub in SUBCOMMANDS}
    out["cli.tracebacks"] = 0.0
    out["files.bytes_written"] = 0.0
    if workload != "cli-mix":
        return out
    for sub in SUBCOMMANDS:
        best = [min(untraced.latency[i]) for i, it in enumerate(items) if it.kind == sub]
        out[f"cli.{sub}.latency_p50_ms"] = statistics.median(best) * 1e3
    written = 0
    for i, outcome in enumerate(untraced.first):
        if outcome[0] == "ok":
            written += len(outcome[1]["stdout"].encode())
            if items[i].data["output"] is not None:
                written += len(outcome[1]["report"].encode())
    out["files.bytes_written"] = written / len(items)
    tracebacks = sum(1 for v in verdict if v is not None and v[0].startswith("traceback"))
    out["cli.tracebacks"] = tracebacks / len(items)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import hypercom

    expected = (ROOT / "src" / "hypercom").resolve()
    if Path(hypercom.__file__).resolve().parent != expected:
        print(f"imported hypercom from {hypercom.__file__}, not {expected}", file=sys.stderr)
        return 2

    phases = {}
    clock = time.perf_counter
    begun = clock()
    inputs = workloads.make_inputs(args.workload, args.seed, args.size)
    items = inputs.items
    out_dir = Path(args.out_dir)
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workloads.write_files(inputs, workdir)
        runner = workloads.Runner(args.workload, workdir)
        phases["inputs"] = clock() - begun
        Passes(len(items)).run(items, runner.run_op, runner.finish_op, 0.0, min_passes=1)
        phases["warmup"] = clock() - begun - sum(phases.values())
        untraced = Passes(len(items))
        repeats = 0 if args.trace else 1 if args.size == "tiny" else SETUP_REPEATS
        probes = SetupProbes(repeats, args.seconds)
        untraced.run(items, runner.run_op, runner.finish_op, args.seconds,
                     after_pass=probes.between_passes)
        result = {"workload": args.workload, "seed": args.seed, "size": args.size,
                  "setup_samples": probes.finish()}
        phases["timed"] = clock() - begun - sum(phases.values())
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced_op = tracer.wrap(runner.run_op, OP, OP)
                traced = Passes(len(items))
                traced.run(items, traced_op, runner.finish_op, args.seconds,
                           after_pass=lambda n: tracer.fold(SPAN_FILE_LIMIT if n == 1 else 0))
            finally:
                tracer.uninstall()
            spans = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.write_spans(spans)
            result["spans_file"] = str(spans)
            result["traced_passes"] = traced.passes
            # Tracing must not change what the program returns.
            untraced.diverged.update(
                i for i, first in enumerate(traced.first) if first != untraced.first[i]
            )
            phases["traced"] = clock() - begun - sum(phases.values())
        verdict = verdicts(args.workload, inputs, untraced)
        phases["checks"] = clock() - begun - sum(phases.values())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics, tail, attempted, failed = end_to_end(inputs, untraced, verdict, rss_mb)
    if args.trace:
        layer = tracer.totals.metrics()
        layer.update(cli_metrics(args.workload, inputs, untraced, verdict))
        layer["trace.overhead_frac"] = 1.0 - traced.ops_per_s() / untraced.ops_per_s()
        result["per_layer"] = layer
    failures = {}
    for i, v in enumerate(verdict):
        if v is not None:
            failures[v[0]] = failures.get(v[0], 0) + len(untraced.latency[i])
    result.update(
        correct=all(v is None or v[0] != "wrong_value" or items[i].defect
                    for i, v in enumerate(verdict)),
        attempted=attempted,
        failed=failed,
        passes=untraced.passes,
        pool=len(items),
        pool_particles=sum(item.particles for item in items),
        phase_seconds=phases,
        end_to_end=metrics,
        latency_tail=tail,
        failures_by_kind=failures,
        failed_items=[
            {"item": i, "kind": items[i].kind, "particles": items[i].particles,
             "failure": v[0], "detail": v[1], "known_defect": items[i].defect}
            for i, v in enumerate(verdict) if v is not None
        ],
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
