"""Spans around the hypercom layers, recorded from outside the package.

``Tracer.install`` wraps every public function of the layer modules and
rebinds the name in every ``hypercom`` module namespace that binds it;
public methods and ``__post_init__`` are wrapped on their class, and the
CLI parser's inherited ``parse_args`` on ``cli._Parser``.  Each call
appends one span (name, start, end, parent) to flat arrays kept in
memory.  ``fold`` turns the spans recorded so far into per-layer totals
(self time is a span's duration minus the time its child spans cover)
and clears them, so memory is bounded by one pass of the workload.
``errors`` says nothing about the work done, so it is not wrapped.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict

LAYERS = ("geometry", "barycenter", "karcher", "equilibria", "files", "cli")
SUBCOMMANDS = (
    "com", "equilibrium", "limit-sweep", "karcher-compare", "distance", "project", "unproject",
)
OP = "op"

# Layer group of each wrapped callable; anything else is "<layer>.other".
GROUPS = {
    "hpoint": "geometry.validate",
    "lpoint": "geometry.validate",
    "project": "geometry.project",
    "project_line": "geometry.project",
    "unproject": "geometry.unproject",
    "unproject_line": "geometry.unproject",
    "hyperboloid_distance": "geometry.distance",
    "disk_distance": "geometry.distance",
    "arclength_from_pole": "geometry.distance",
    "arc_between": "geometry.distance",
    "geodesic_between": "geometry.geodesic",
    "GeodesicSegment.point": "geometry.geodesic",
    "MassedSystem.__post_init__": "barycenter.system_build",
    "line_system": "barycenter.system_build",
    "disk_system": "barycenter.system_build",
    "hyperboloid_system": "barycenter.system_build",
    "log_ratio": "barycenter.log_ratio",
    "log_ratio_inv": "barycenter.log_ratio",
    "com_line": "barycenter.com",
    "com_disk": "barycenter.com",
    "com_hyperboloid": "barycenter.com",
    "com_euclidean": "barycenter.com",
    "euclidean_limit_error": "barycenter.com",
    "lever_point": "barycenter.lever_point",
    "lever_residual": "barycenter.lever_residual",
    "log_map": "karcher.log_map",
    "exp_map": "karcher.exp_map",
    "karcher_mean": "karcher.karcher_mean",
    "rotation_sweep": "equilibria.rotation_sweep",
    "balance_radius": "equilibria.balance",
    "balanced_pair": "equilibria.balance",
    "classify_balance": "equilibria.balance",
    "diametric_system": "equilibria.balance",
    "TwoBodyEquilibrium.__post_init__": "equilibria.balance",
    "read_system_text": "files.read",
    "load_system": "files.read",
    "file_digest": "files.digest",
    "report_text": "files.serialize",
    "csv_text": "files.serialize",
    "format_float": "files.serialize",
    "build_parser": "cli.build_parser",
    "_Parser.parse_args": "cli.parse_args",
}
# Both read the input file; the CLI calls one after the other.
FILE_READERS = ("load_system", "file_digest")
KARCHER_FAILURES = {"ConvergenceError": "convergence", "ValidationError": "validation"}

# Per-layer metrics with their units, in the order they are reported.
PER_LAYER = (
    [
        ("geometry.validate.calls", "count/op"),
        ("geometry.validate.self_frac", "fraction"),
        ("geometry.project.calls", "count/op"),
        ("geometry.unproject.calls", "count/op"),
        ("geometry.distance.calls", "count/op"),
        ("geometry.distance.self_frac", "fraction"),
        ("geometry.geodesic.self_frac", "fraction"),
        ("barycenter.system_build.calls", "count/op"),
        ("barycenter.system_build.self_frac", "fraction"),
        ("barycenter.log_ratio.calls", "count/op"),
        ("barycenter.log_ratio.self_frac", "fraction"),
        ("barycenter.com.self_frac", "fraction"),
        ("barycenter.lever_point.total_frac", "fraction"),
        ("barycenter.lever_point.distance_calls", "count"),
        ("karcher.iterations.mean", "count"),
        ("karcher.iterations.max", "count"),
        ("karcher.log_map.calls", "count/op"),
        ("karcher.log_map.self_frac", "fraction"),
        ("karcher.exp_map.self_frac", "fraction"),
        ("karcher.karcher_mean.total_frac", "fraction"),
        ("karcher.failed.convergence", "count/op"),
        ("karcher.failed.validation", "count/op"),
        ("karcher.failed.other", "count/op"),
        ("equilibria.rotation_sweep.total_frac", "fraction"),
        ("equilibria.rotation_sweep.system_builds", "count"),
        ("equilibria.balance.self_frac", "fraction"),
        ("files.read.self_frac", "fraction"),
        ("files.reads", "count/op"),
        ("files.digest.self_frac", "fraction"),
        ("files.serialize.self_frac", "fraction"),
        ("files.bytes_written", "B/op"),
        ("cli.build_parser.self_frac", "fraction"),
        ("cli.parse_args.self_frac", "fraction"),
    ]
    + [(f"cli.{sub}.latency_p50_ms", "ms") for sub in SUBCOMMANDS]
    + [("cli.tracebacks", "count/op"), ("trace.overhead_frac", "fraction")]
)


def group_of(qualname: str, layer: str) -> str:
    if qualname.startswith("check_"):
        return "geometry.validate"
    return GROUPS.get(qualname, f"{layer}.other")


class Tracer:
    """Span recorder for one interpreter; install, run, fold, uninstall."""

    def __init__(self):
        self.qualnames = []
        self.groups = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("l")
        self.errors = {}
        self.particles = {}
        self._stack = [-1]
        self._patches = []
        self.totals = _Totals()
        self.kept = None

    def _name_id(self, qualname: str, group: str) -> int:
        self.qualnames.append(qualname)
        self.groups.append(group)
        return len(self.qualnames) - 1

    def wrap(self, fn, qualname: str, group: str):
        name_id = self._name_id(qualname, group)
        start, end, parent, name = self.start, self.end, self.parent, self.name
        stack, errors, clock = self._stack, self.errors, time.perf_counter
        particles = self.particles if qualname == "karcher_mean" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(name)
            name.append(name_id)
            parent.append(stack[-1])
            end.append(0.0)
            if particles is not None:
                particles[index] = len((args[0] if args else kwargs["system"]).particles)
            stack.append(index)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                errors[index] = type(exc).__name__
                raise
            finally:
                end[index] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "hypercom" or n.startswith("hypercom.")]
        for layer in LAYERS:
            module = sys.modules[f"hypercom.{layer}"]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    traced = self.wrap(obj, attr, group_of(attr, layer))
                    for owner in modules:
                        for bound, value in list(vars(owner).items()):
                            if value is obj:
                                self._patch(owner, bound, traced)
                elif inspect.isclass(obj):
                    for method, fn in list(vars(obj).items()):
                        public = method == "__post_init__" or not method.startswith("_")
                        if public and inspect.isfunction(fn):
                            qualname = f"{obj.__name__}.{method}"
                            self._patch(obj, method, self.wrap(fn, qualname, group_of(qualname, layer)))
        parser = sys.modules["hypercom.cli"]._Parser
        self._patch(
            parser,
            "parse_args",
            self.wrap(argparse.ArgumentParser.parse_args, "_Parser.parse_args", "cli.parse_args"),
        )

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def fold(self, keep: int = 0) -> None:
        """Add the recorded spans to the totals and clear them.

        The first ``keep`` spans are also kept for ``write_spans``.
        """
        if keep:
            self.kept = (
                self.start[:keep], self.end[:keep], self.parent[:keep], self.name[:keep],
                {i: e for i, e in self.errors.items() if i < keep},
            )
        self.totals.add(self)
        for spans in (self.start, self.end, self.parent, self.name):
            del spans[:]
        self.errors.clear()
        self.particles.clear()

    def write_spans(self, path) -> None:
        """Write the kept spans as JSON lines, one per span."""
        start, end, parent, name, errors = self.kept
        with open(path, "w") as handle:
            origin = start[0] if start else 0.0
            for i in range(len(name)):
                handle.write(json.dumps({
                    "id": i,
                    "parent": parent[i],
                    "name": self.qualnames[name[i]],
                    "start_us": round((start[i] - origin) * 1e6, 3),
                    "dur_us": round((end[i] - start[i]) * 1e6, 3),
                    "error": errors.get(i),
                }) + "\n")


_MISSING = object()


class _Totals:
    """Per-layer sums over every folded span."""

    def __init__(self):
        self.ops = 0
        self.op_wall = 0.0
        self.self_time = defaultdict(float)
        self.inclusive = defaultdict(float)
        self.calls = defaultdict(int)
        self.qualname_calls = defaultdict(int)
        self.lever_distance_calls = 0
        self.sweep_system_builds = 0
        self.iterations = []
        self.karcher_failures = defaultdict(int)

    def add(self, tracer: Tracer) -> None:
        start, end, parent, name = tracer.start, tracer.end, tracer.parent, tracer.name
        groups, qualnames, errors = tracer.groups, tracer.qualnames, tracer.errors
        count = len(name)
        duration = [end[i] - start[i] for i in range(count)]
        covered = [0.0] * count
        for i in range(count):
            if parent[i] >= 0:
                covered[parent[i]] += duration[i]
        # Nearest enclosing lever_point / rotation_sweep / karcher_mean span.
        lever, sweep, karcher = [-1] * count, [-1] * count, [-1] * count
        log_maps = defaultdict(int)
        for i in range(count):
            group = groups[name[i]]
            p = parent[i]
            outermost = p < 0 or groups[name[p]] != group
            self.self_time[group] += duration[i] - covered[i]
            self.qualname_calls[qualnames[name[i]]] += 1
            if group == OP:
                self.ops += 1
                self.op_wall += duration[i]
            if outermost:
                self.calls[group] += 1
                self.inclusive[group] += duration[i]
            lever[i] = lever[p] if p >= 0 else -1
            sweep[i] = sweep[p] if p >= 0 else -1
            karcher[i] = karcher[p] if p >= 0 else -1
            if group == "barycenter.lever_point" and outermost:
                lever[i] = i
            elif group == "equilibria.rotation_sweep" and outermost:
                sweep[i] = i
            elif group == "karcher.karcher_mean" and outermost:
                karcher[i] = i
                if i in errors:
                    self.karcher_failures[KARCHER_FAILURES.get(errors[i], "other")] += 1
            elif group == "geometry.distance" and outermost and lever[i] >= 0:
                self.lever_distance_calls += 1
            elif group == "barycenter.system_build" and outermost and sweep[i] >= 0:
                self.sweep_system_builds += 1
            elif group == "karcher.log_map" and outermost and karcher[i] >= 0:
                log_maps[karcher[i]] += 1
        for index, n in tracer.particles.items():
            self.iterations.append(log_maps[index] / n)

    def metrics(self) -> dict:
        """Per-op counters and shares of op wall time, by metric name."""
        ops = max(self.ops, 1)
        wall = self.op_wall or 1.0
        out = {}
        for group in (
            "geometry.validate", "geometry.project", "geometry.unproject", "geometry.distance",
            "barycenter.system_build", "barycenter.log_ratio", "karcher.log_map",
        ):
            out[f"{group}.calls"] = self.calls[group] / ops
        for group in (
            "geometry.validate", "geometry.distance", "geometry.geodesic",
            "barycenter.system_build", "barycenter.log_ratio", "barycenter.com",
            "karcher.log_map", "karcher.exp_map", "equilibria.balance", "files.read",
            "files.digest", "files.serialize", "cli.build_parser", "cli.parse_args",
        ):
            out[f"{group}.self_frac"] = self.self_time[group] / wall
        for group in ("barycenter.lever_point", "karcher.karcher_mean", "equilibria.rotation_sweep"):
            out[f"{group}.total_frac"] = self.inclusive[group] / wall
        out["barycenter.lever_point.distance_calls"] = self.lever_distance_calls / max(
            self.calls["barycenter.lever_point"], 1
        )
        out["equilibria.rotation_sweep.system_builds"] = self.sweep_system_builds / max(
            self.calls["equilibria.rotation_sweep"], 1
        )
        out["karcher.iterations.mean"] = (
            sum(self.iterations) / len(self.iterations) if self.iterations else 0.0
        )
        out["karcher.iterations.max"] = max(self.iterations, default=0.0)
        for kind in ("convergence", "validation", "other"):
            out[f"karcher.failed.{kind}"] = self.karcher_failures[kind] / ops
        out["files.reads"] = sum(self.qualname_calls[q] for q in FILE_READERS) / ops
        return out
