"""Seeded inputs and single operations for the three benchmark workloads.

Every workload is a fixed-size pool of items whose composition (model
mix, particle counts per stratum, share of known-defect cases) does not
depend on the seed; the seed draws the values inside each stratum.  A
run cycles through the pool in whole passes, so every run measures the
same mix and the metrics of different seeds are comparable.

    com-bulk    library calls: build a validated system from raw floats
                and compute its averaging center
    crosscheck  library calls: the paper's verification pipeline on one
                hyperboloid system (Karcher mean, center, rotation
                sweep, and for pairs the lever point and residuals)
    cli-mix     in-process ``hypercom.cli.main(argv)`` over system files
                written once at set-up

Items are plain data (numbers, tuples, strings), so the same seed gives
identical items in every interpreter.  ``make_inputs`` needs no
hypercom import; ``Runner`` does.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("com-bulk", "crosscheck", "cli-mix")
SIZES = ("full", "tiny")

# com-bulk: systems per model, particle counts on a log-uniform grid over "n".
# Far hyperboloid systems put every point 29R-40R from the pole, beyond
# the ~27.6R at which projection rounds onto the rim band.
COM_BULK = {
    "full": {"disk": 40, "hyperboloid": 12, "far": 4, "line": 8, "n": (1e2, 1e4)},
    "tiny": {"disk": 3, "hyperboloid": 2, "far": 1, "line": 2, "n": (10.0, 60.0)},
}
DISK_REACH = 0.999
HYPERBOLOID_REACH = 8.0
FAR_RANGE = (29.0, 40.0)

# crosscheck: systems per particle count (weighted toward small n),
# spreads log-uniform over SPREAD_RANGE (in units of R).
CROSSCHECK = {
    "full": {"counts": {2: 46, 3: 34, 10: 23, 100: 11}},
    "tiny": {"counts": {2: 3, 3: 2}},
}
SPREAD_RANGE = (0.1, 5.0)
# The far-spread tail: mass 1 at the pole and mass 2 at distance tR on
# the x axis.  Which of these fail, and how, is sensitive to rounding,
# so the tail is fixed rather than drawn: 12R and 15R end in a
# ValidationError from the solver's own iterate, 25R in a
# ConvergenceError and 40R in a ZeroDivisionError; 20R returns a point
# 7e-5 R from the true mean, and 6R converges.
TAIL_SPREADS = {"full": (6.0, 12.0, 15.0, 20.0, 25.0, 40.0), "tiny": (12.0, 40.0)}


@dataclass(frozen=True)
class Item:
    """One operation of a workload: its kind, its inputs and its size.

    ``defect`` names the known defect an item reproduces.  Such items
    stay in the pool and count as failed while they fail; a wrong value
    anywhere else makes the run incorrect.
    """

    kind: str
    data: dict
    particles: int
    defect: str | None = None


@dataclass(frozen=True)
class Inputs:
    """A workload's pool, in the order a pass runs it, and its input files."""

    items: list
    files: dict = field(default_factory=dict)


def make_inputs(workload: str, seed: int, size: str = "full") -> Inputs:
    """The workload's inputs for ``seed``; equal seeds give equal inputs."""
    rng = random.Random(f"{workload}:{seed}")
    files = {}
    if workload == "com-bulk":
        items = _com_bulk(rng, COM_BULK[size])
    elif workload == "crosscheck":
        items = _crosscheck(rng, CROSSCHECK[size], TAIL_SPREADS[size])
    elif workload == "cli-mix":
        items, files = _cli_mix(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(items)
    return Inputs(items, files)


def _log_uniform(rng, count, lo, hi):
    """One log-uniform draw inside each of ``count`` equal strata."""
    a, b = math.log(lo), math.log(hi)
    return [math.exp(a + (b - a) * (k + rng.random()) / count) for k in range(count)]


def _log_grid(count, lo, hi):
    """The midpoints of ``count`` equal log-uniform strata."""
    a, b = math.log(lo), math.log(hi)
    return [math.exp(a + (b - a) * (k + 0.5) / count) for k in range(count)]


def _masses(rng, n):
    return [math.exp(rng.uniform(math.log(0.1), math.log(10.0))) for _ in range(n)]


def _sheet_point(distance, angle, radius):
    s = radius * math.sinh(distance / radius)
    return (s * math.cos(angle), s * math.sin(angle), radius * math.cosh(distance / radius))


def _com_bulk(rng, spec):
    lo, hi = spec["n"]
    items = []
    for kind in ("disk", "hyperboloid", "far", "line"):
        # Fixed sizes: the few largest systems set the latency tail, and
        # drawing their sizes moved it by 14% from seed to seed.
        for n in _log_grid(spec[kind], lo, hi):
            n = int(round(n))
            radius = math.exp(rng.uniform(math.log(0.5), math.log(4.0)))
            masses = _masses(rng, n)
            if kind == "disk":
                points = [
                    complex(
                        *_polar(DISK_REACH * radius * math.sqrt(rng.random()),
                                rng.uniform(0.0, 2.0 * math.pi))
                    )
                    for _ in range(n)
                ]
            elif kind == "line":
                points = [DISK_REACH * radius * rng.uniform(-1.0, 1.0) for _ in range(n)]
            else:
                near, far = (0.0, HYPERBOLOID_REACH), FAR_RANGE
                d_lo, d_hi = far if kind == "far" else near
                points = [
                    _sheet_point(radius * rng.uniform(d_lo, d_hi),
                                 rng.uniform(0.0, 2.0 * math.pi), radius)
                    for _ in range(n)
                ]
            model, defect = kind, None
            if kind == "far":
                model, defect = "hyperboloid", "points beyond ~27.6R rejected as not inside the disk"
            items.append(Item(model, {"radius": radius, "masses": masses, "points": points}, n, defect))
    return items


def _polar(r, angle):
    return r * math.cos(angle), r * math.sin(angle)


def _boosted(point, rapidity, angle):
    """Lorentz boost along x by ``rapidity``, then rotation by ``angle``."""
    x, y, z = point
    ch, sh = math.cosh(rapidity), math.sinh(rapidity)
    bx, bz = ch * x + sh * z, sh * x + ch * z
    c, s = math.cos(angle), math.sin(angle)
    return (c * bx - s * y, s * bx + c * y, bz)


def _crosscheck(rng, spec, tail):
    items = []
    for n, count in spec["counts"].items():
        for spread in _log_uniform(rng, count, *SPREAD_RANGE):
            radius = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
            # Points within spread/2 of a center up to 1R from the pole.
            rapidity = rng.uniform(0.0, 1.0)
            heading = rng.uniform(0.0, 2.0 * math.pi)
            points = [
                _boosted(
                    _sheet_point(radius * 0.5 * spread * math.sqrt(rng.random()),
                                 rng.uniform(0.0, 2.0 * math.pi), radius),
                    rapidity,
                    heading,
                )
                for _ in range(n)
            ]
            masses = [rng.uniform(0.2, 5.0) for _ in range(n)]
            items.append(Item("crosscheck", {"radius": radius, "masses": masses, "points": points}, n))
    for t in tail:
        points = [(0.0, 0.0, 1.0), _sheet_point(t, 0.0, 1.0)]
        items.append(Item("crosscheck", {"radius": 1.0, "masses": [1.0, 2.0], "points": points}, 2,
                          f"Karcher mean of a pair {t:g}R apart, beyond the 5R the tests cover"))
    return items


def _cli_mix(rng):
    """58 invocations of the 7 subcommands over nine system files."""
    systems = {}
    for k, model in enumerate(("disk", "hyperboloid", "line") * 3):
        n = 2 + (k * 18) // 8  # 2 .. 20 across the nine files
        systems[f"sys{k}.json"] = (n, *_system_text(rng, model, n))
    files = {name: text for name, (_, _, text) in systems.items()}
    files["malformed.json"] = '{"radius": 1.0, "model": "disk", "particles": ['
    items = []

    def add(sub, argv, particles, expect=0, output=None, defect=None):
        items.append(
            Item(sub, {"argv": argv, "expect": expect, "output": output}, particles, defect)
        )

    names = list(systems)
    for k, name in enumerate(names):
        n = systems[name][0]
        add("com", ["com", "--input", "{dir}/" + name], n)
        add("karcher-compare", ["karcher-compare", "--input", "{dir}/" + name], n)
        if k % 3 == 0:
            add("com", ["com", "--input", "{dir}/" + name, "--output", "{dir}/com.json"],
                n, output="com.json")
    for k, name in enumerate(names[:6]):
        n, radius, _ = systems[name]
        # Every image point lies within 0.95R, so radii from 1.05R on are valid.
        radii = [round(radius * rng.uniform(1.05, 2.0), 3) * 4.0 ** j for j in range(4)]
        sweep = ",".join(repr(r) for r in radii)
        fmt = "json" if k % 2 == 0 else "csv"
        add("limit-sweep", ["limit-sweep", "--input", "{dir}/" + name, "--sweep", sweep,
                            "--format", fmt], n)
    for k in range(10):
        m1, m2 = (round(rng.uniform(0.5, 4.0), 3) for _ in range(2))
        radius = round(rng.uniform(0.5, 3.0), 3)
        alpha = round(radius * rng.uniform(0.05, 0.7), 4)
        argv = ["equilibrium", "--m1", repr(m1), "--m2", repr(m2), "--alpha", repr(alpha),
                "--radius", repr(radius), "--angles", str((16, 32, 64)[k % 3]),
                "--format", "json" if k % 2 == 0 else "csv"]
        if k >= 7:
            add("equilibrium", argv + ["--output", "{dir}/eq.out"], 2, output="eq.out")
        else:
            add("equilibrium", argv, 2)
    for _ in range(6):
        radius = round(rng.uniform(0.5, 3.0), 3)
        coords = [repr(round(c * radius, 6)) for c in _disk_pair(rng)]
        add("distance", ["distance", *coords, "--radius", repr(radius)], 2)
    for _ in range(5):
        radius = round(rng.uniform(0.5, 3.0), 3)
        x, y, z = _sheet_point(radius * rng.uniform(0.0, 4.0), rng.uniform(0.0, 2 * math.pi), radius)
        add("project", ["project", repr(x), repr(y), repr(z), "--radius", repr(radius)], 1)
    for _ in range(5):
        radius = round(rng.uniform(0.5, 3.0), 3)
        re, im = _polar(radius * 0.95 * math.sqrt(rng.random()), rng.uniform(0.0, 2 * math.pi))
        add("unproject", ["unproject", repr(re), repr(im), "--radius", repr(radius)], 1)
    # Invalid input: exit 1 with a one-line message is the correct outcome.
    add("com", ["com", "--input", "{dir}/malformed.json"], 0, expect=1)
    add("project", ["project", "0.5", "0.0", "1.0", "--radius", "1.0"], 1, expect=1)
    add("limit-sweep", ["limit-sweep", "--input", "{dir}/sys0.json", "--sweep", "1.0,abc"],
        systems["sys0.json"][0], expect=1)
    # Known defects: both end in a traceback today instead of exit 1.
    add("equilibrium", ["equilibrium", "--m1", "1", "--m2", "2", "--alpha", "0.5",
                        "--radius", "1", "--angles", "0"], 2, expect=1,
        defect="--angles 0 ends in a ValueError traceback")
    add("com", ["com", "--input", "{dir}/sys0.json", "--output", "{dir}/missing/out.json"],
        systems["sys0.json"][0], expect=1,
        defect="--output into a missing directory ends in a FileNotFoundError traceback")
    return items, files


def _disk_pair(rng):
    out = []
    for _ in range(2):
        out.extend(_polar(0.9 * math.sqrt(rng.random()), rng.uniform(0.0, 2 * math.pi)))
    return out


def _system_text(rng, model, n):
    radius = round(rng.uniform(0.5, 3.0), 3)
    particles = []
    for _ in range(n):
        mass = round(rng.uniform(0.2, 5.0), 4)
        angle = rng.uniform(0.0, 2 * math.pi)
        if model == "disk":
            coords = list(_polar(radius * 0.9 * math.sqrt(rng.random()), angle))
        elif model == "line":
            coords = [radius * rng.uniform(-0.95, 0.95)]
        else:
            coords = list(_sheet_point(radius * rng.uniform(0.0, 2.5), angle, radius))
        particles.append({"mass": mass, "coords": coords})
    return radius, json.dumps({"radius": radius, "model": model, "particles": particles})


def write_files(inputs: Inputs, workdir: Path) -> None:
    """Write the cli-mix system files once, before anything is timed."""
    for name, text in inputs.files.items():
        (workdir / name).write_text(text)



class Runner:
    """Runs one item of a workload; ``run_op`` is the part timed as latency.

    Library functions are looked up on the package at call time, so a
    tracer that rebinds them in the package namespace sees every call.
    """

    def __init__(self, workload: str, workdir: Path):
        import hypercom
        import hypercom.cli

        self.hc = hypercom
        self.cli = hypercom.cli
        self.workdir = workdir
        self.captures_output = workload == "cli-mix"
        self.run_op = {
            "com-bulk": self._com_bulk_op,
            "crosscheck": self._crosscheck_op,
            "cli-mix": self._cli_op,
        }[workload]

    def _com_bulk_op(self, item: Item):
        hc, d = self.hc, item.data
        if item.kind == "disk":
            return hc.com_disk(hc.disk_system(d["masses"], d["points"], d["radius"])).center
        if item.kind == "line":
            return hc.com_line(hc.line_system(d["masses"], d["points"], d["radius"]))
        return tuple(hc.com_hyperboloid(d["masses"], d["points"], d["radius"]))

    def _crosscheck_op(self, item: Item):
        hc, d = self.hc, item.data
        radius, masses = d["radius"], d["masses"]
        system = hc.hyperboloid_system(masses, d["points"], radius)
        mean = hc.karcher_mean(system)
        center = hc.com_hyperboloid(masses, d["points"], radius)
        disk = hc.to_disk_system(system)
        sweep = hc.rotation_sweep(disk)
        out = {
            "karcher": tuple(mean),
            "center": tuple(center),
            "disk": disk.positions(),
            "sweep_base": sweep.base.center,
            "sweep": [(s.angle, s.com.center, s.defect) for s in sweep.samples],
            "max_defect": sweep.max_defect,
        }
        if len(masses) == 2:
            (m1, m2), (w1, w2) = masses, out["disk"]
            probes = (hc.project(center, radius), hc.project(mean, radius))
            out["lever"] = hc.lever_point(m1, w1, m2, w2, radius)
            out["lever_residuals"] = [
                (c, hc.lever_residual(m1, w1, m2, w2, c, radius)) for c in probes
            ]
        return out

    def _cli_op(self, item: Item):
        argv = [a.replace("{dir}", str(self.workdir)) for a in item.data["argv"]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def finish_op(self, item: Item, raw):
        """Output record of a finished op, gathered outside its timing."""
        if not self.captures_output:
            return raw
        code, stdout, stderr = raw
        report = stdout
        name = item.data["output"]
        if name is not None and code == 0:
            path = self.workdir / name
            report = path.read_text()
            path.unlink()
        return {"code": code, "report": report, "stdout": stdout, "stderr": stderr}
