"""Tests of the benchmark itself: metrics reported, failures counted, inputs seeded.

No test here asserts a timing, and none assumes a known defect is still
present.
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import measure  # noqa: E402
import workloads  # noqa: E402
from run import END_TO_END  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


def test_metric_tables_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_reports_every_metric_with_its_unit(tmp_path, workload, trace):
    done = run_bench(
        ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.05",
        "--trace", str(trace), "--size", "tiny", "--out-dir", str(tmp_path),
    )
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True
    assert 0 <= last["failed"] <= last["attempted"] and last["attempted"] >= 1
    table = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in last["metrics"].items()} == {
        m["name"]: m["unit"] for m in table
    }
    assert all(math.isfinite(m["value"]) for m in last["metrics"].values())
    full = json.loads(done.stdout.splitlines()[-2])
    for key in ("python", "nproc", "cpu_model", "commit", "seed", "attempted", "latency_tail"):
        assert key in full


def _perturb_com_bulk(item, out):
    return out + 1e-9 * item.data["radius"]


def _perturb_crosscheck(item, out):
    x, y, z = out["karcher"]
    return dict(out, karcher=(x + 1e-6 * item.data["radius"], y, z))


@pytest.mark.parametrize(
    "workload, perturb",
    [("com-bulk", _perturb_com_bulk), ("crosscheck", _perturb_crosscheck)],
)
def test_perturbed_center_is_counted_as_failed(tmp_path, workload, perturb):
    inputs = workloads.make_inputs(workload, 5, "tiny")
    items = inputs.items
    runner = workloads.Runner(workload, tmp_path)
    target = next(i for i, item in enumerate(items) if item.defect is None)

    def op(item):
        out = runner.run_op(item)
        return perturb(item, out) if item is items[target] else out

    passes = measure.Passes(len(items))
    passes.run(items, op, runner.finish_op, 0.0, min_passes=2)
    verdict = measure.verdicts(workload, inputs, passes)
    assert verdict[target][0] == "wrong_value"
    assert all(v is None or items[i].defect for i, v in enumerate(verdict) if i != target)
    _, _, attempted, failed = measure.end_to_end(inputs, passes, verdict, 1.0)
    failing = sum(1 for v in verdict if v is not None)
    assert failed == 2 * failing and attempted == 2 * len(items)


INPUT_DIGEST = """
import hashlib, sys
sys.path.insert(0, sys.argv[1])
import workloads
for name in workloads.WORKLOADS:
    print(hashlib.sha256(repr(workloads.make_inputs(name, 11)).encode()).hexdigest())
"""


def test_same_seed_gives_identical_inputs():
    digests = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        done = subprocess.run(
            [sys.executable, "-c", INPUT_DIGEST, str(BENCH)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        digests.append(done.stdout)
    assert digests[0] == digests[1]
    for name in workloads.WORKLOADS:
        assert workloads.make_inputs(name, 11) == workloads.make_inputs(name, 11)
        assert workloads.make_inputs(name, 11) != workloads.make_inputs(name, 12)


def test_tracer_restores_every_binding():
    import hypercom.cli

    modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("hypercom")]
    before = [dict(vars(m)) for m in modules]
    parse_args = hypercom.cli._Parser.parse_args
    tracer = Tracer()
    tracer.install()
    assert hypercom.com_disk is not before[0]["com_disk"]
    tracer.uninstall()
    assert [dict(vars(m)) for m in modules] == before
    assert hypercom.cli._Parser.parse_args is parse_args
    assert "parse_args" not in vars(hypercom.cli._Parser)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = run_bench(
        tmp_path, "--workload", "com-bulk", "--seed", "1", "--seconds", "1", "--trace", "0",
    )
    assert done.returncode != 0
    assert done.stdout == ""
