"""Black-box CLI tests: wire formats, exit codes, determinism."""

import cmath
import contextlib
import hashlib
import io
import json
import math
import random
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import hypercom.karcher as karcher
from hypercom import cli
from oracles import (
    euclidean_limit_error_highprec,
    pair_mean_highprec,
    sheet_distance_highprec,
    sheet_floor,
)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "hypercom", *args],
        capture_output=True,
        text=True,
    )


def write_system(path, radius, model, rows):
    payload = {
        "radius": radius,
        "model": model,
        "particles": [{"mass": m, "coords": list(c)} for m, c in rows],
    }
    path.write_text(json.dumps(payload))
    return path


@pytest.fixture
def pair_file(tmp_path):
    return write_system(
        tmp_path / "pair.json",
        1.0,
        "disk",
        [(1.0, (0.5, 0.0)), (1.0, (-0.5, 0.0))],
    )


@pytest.fixture
def lagrangian_file(tmp_path):
    rows = []
    for k in range(3):
        w = 0.5 * cmath.exp(2j * math.pi * k / 3.0)
        rows.append((1.0, (w.real, w.imag)))
    return write_system(tmp_path / "lagr.json", 1.0, "disk", rows)


def test_help():
    done = run_cli("--help")
    assert done.returncode == 0
    for name in (
        "com",
        "equilibrium",
        "limit-sweep",
        "karcher-compare",
        "distance",
        "project",
        "unproject",
    ):
        assert name in done.stdout


def test_project_unproject_distance_stdout():
    done = run_cli("project", "0", "0", "1", "--radius", "1")
    assert done.returncode == 0
    assert done.stdout == "0 0\n"

    done = run_cli("unproject", "0.5", "0", "--radius", "1")
    assert done.returncode == 0
    assert done.stdout == "1.3333333333333333 0 1.6666666666666667\n"

    done = run_cli("distance", "0", "0", "0.5", "0", "--radius", "1")
    assert done.returncode == 0
    assert float(done.stdout) == pytest.approx(math.log(3.0), rel=1e-15)


def test_com_single_particle_echoes_position(tmp_path):
    path = write_system(
        tmp_path / "one.json", 1.0, "disk", [(2.0, (0.25, -0.125))]
    )
    done = run_cli("com", "--input", str(path))
    assert done.returncode == 0
    report = json.loads(done.stdout)
    assert report["results"]["center_disk"] == [0.25, -0.125]
    assert report["results"]["total_mass"] == 2.0


def test_com_symmetric_pair_is_origin(pair_file):
    done = run_cli("com", "--input", str(pair_file))
    assert done.returncode == 0
    report = json.loads(done.stdout)
    re, im = report["results"]["center_disk"]
    assert abs(complex(re, im)) <= 1e-14
    assert report["results"]["center_hyperboloid"][2] == pytest.approx(1.0)


def test_com_lagrangian_file(lagrangian_file):
    done = run_cli("com", "--input", str(lagrangian_file))
    assert done.returncode == 0
    report = json.loads(done.stdout)
    re, im = report["results"]["center_disk"]
    assert re == pytest.approx(0.04186126023461038, abs=1e-10)
    assert abs(im) <= 1e-15


def test_com_line_and_hyperboloid_models(tmp_path):
    line = write_system(
        tmp_path / "line.json", 1.0, "line", [(1.0, (0.5,)), (2.0, (-0.1,))]
    )
    done = run_cli("com", "--input", str(line))
    assert done.returncode == 0
    report = json.loads(done.stdout)
    assert "center_interval" in report["results"]
    assert "center_hyperbola" in report["results"]

    lifted = write_system(
        tmp_path / "hyp.json",
        1.0,
        "hyperboloid",
        [(1.0, (4.0 / 3.0, 0.0, 5.0 / 3.0)), (1.0, (-4.0 / 3.0, 0.0, 5.0 / 3.0))],
    )
    done = run_cli("com", "--input", str(lifted))
    assert done.returncode == 0
    report = json.loads(done.stdout)
    re, im = report["results"]["center_disk"]
    assert abs(complex(re, im)) <= 1e-14


def test_com_line_report_mean_is_the_one_its_center_comes_from(tmp_path):
    # The line mean was read from a second, disk center, which can differ
    # from the center's own mean in the last bit; for this system it did.
    coords = [
        -0.14575715637048559, 0.006194641253095946, 0.4611474566258123,
        0.5343994536418499, -0.5864033070618914, -0.25265769547621336,
        0.04431806344573089, -0.3114906156236617, 0.6188961962497589,
        0.5780409751389022, -0.06169897958525442, -0.5064424351940495,
        -0.04935650589871744,
    ]
    masses = [
        3.0094, 1.6809, 0.6579, 4.6241, 3.1023, 2.3899, 2.5995, 3.8177,
        1.6072, 3.5837, 1.4664, 4.664, 4.4807,
    ]
    radius = 0.671

    def report(rows):
        path = write_system(tmp_path / "line.json", radius, "line", rows)
        done = run_cli("com", "--input", str(path))
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout)["results"]

    results = report(list(zip(masses, [(u,) for u in coords])))
    mean, imag = results["log_ratio_mean"]
    assert imag == 0.0
    assert radius * math.tanh(0.5 * mean) == results["center_interval"]
    # A single particle is its own center, and the mean its coordinate.
    results = report([(2.0, (0.3,))])
    assert results["center_interval"] == 0.3
    assert results["log_ratio_mean"] == [math.log((radius + 0.3) / (radius - 0.3)), 0.0]


def test_com_matches_library_bit_for_bit(pair_file, tmp_path):
    from hypercom import com_disk
    from hypercom.files import load_system

    out = tmp_path / "report.json"
    done = run_cli("com", "--input", str(pair_file), "--output", str(out))
    assert done.returncode == 0
    report = json.loads(out.read_text())
    com = com_disk(load_system(pair_file)[0])
    assert report["results"]["center_disk"] == [com.center.real, com.center.imag]
    assert report["results"]["total_mass"] == com.total_mass


def test_equilibrium_json(tmp_path):
    done = run_cli(
        "equilibrium", "--m1", "1", "--m2", "2", "--alpha", "0.5", "--radius", "1"
    )
    assert done.returncode == 0
    report = json.loads(done.stdout)
    results = report["results"]
    assert results["partner_radius"] == pytest.approx(
        2.0 - math.sqrt(3.0), rel=1e-14
    )
    assert results["relation"] == "less"
    assert results["matches_mass_order"] is True
    assert abs(results["lever_residual"]["value"]) <= results["lever_residual"][
        "tolerance"
    ]
    assert results["center_at_start"]["value"] <= results["center_at_start"][
        "tolerance"
    ]
    assert len(results["trace"]) == 64


def test_equilibrium_csv_trace():
    done = run_cli(
        "equilibrium",
        "--m1", "1", "--m2", "2", "--alpha", "0.5", "--radius", "1",
        "--angles", "8", "--format", "csv",
    )
    assert done.returncode == 0
    lines = done.stdout.strip().splitlines()
    assert lines[0] == "theta,re_wc,im_wc,defect"
    assert len(lines) == 9
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[3]) == 0.0  # no defect at the starting angle


def _sweep_csv(angles):
    done = run_cli(
        "equilibrium",
        "--m1", "1", "--m2", "2", "--alpha", "0.5", "--radius", "1",
        "--angles", str(angles), "--format", "csv",
    )
    assert done.returncode == 0
    return [[float(v) for v in line.split(",")] for line in done.stdout.splitlines()[1:]]


@pytest.mark.parametrize("angles", [8, 64])
def test_equilibrium_even_sweep_second_half_is_the_first_turned_by_pi(angles):
    rows = _sweep_csv(angles)
    assert len(rows) == angles
    for first, second in zip(rows, rows[angles // 2:]):
        # repr tells -0.0 from 0.0 apart.
        assert [repr(-v) for v in first[1:3]] == [repr(v) for v in second[1:3]]
        assert second[3] == first[3]


def test_equilibrium_odd_sweep_is_evaluated_angle_by_angle():
    from hypercom import balance_radius, disk_system, rotation_sweep

    system = disk_system([1.0, 2.0], [0.5, -balance_radius(1.0, 2.0, 0.5, 1.0)], 1.0)
    sweep = rotation_sweep(system, 7)
    assert _sweep_csv(7) == [
        [s.angle, s.com.center.real, s.com.center.imag, s.defect] for s in sweep.samples
    ]


def test_equilibrium_equal_masses():
    done = run_cli(
        "equilibrium", "--m1", "1", "--m2", "1", "--alpha", "0.5", "--radius", "1"
    )
    report = json.loads(done.stdout)
    assert report["results"]["partner_radius"] == pytest.approx(0.5, rel=1e-12)
    assert report["results"]["relation"] == "equal"
    assert report["results"]["matches_mass_order"] is True


def test_equilibrium_whose_lever_balance_cannot_be_certified_is_a_numerical_failure():
    # m1 = 1e-320 balances m2 = 1e300 only at a partner radius that
    # underflows to 0, which balances nothing.
    done = run_cli(
        "equilibrium", "--m1", "1e-320", "--m2", "1e300", "--alpha", "0.9", "--radius", "1"
    )
    _one_line_failure(done, 2)
    assert "cannot reproduce the lever balance" in done.stderr


HUGE_LEVER = ("--m1", "1e300", "--m2", "1e300", "--alpha", "5e99", "--radius", "1e100")


def test_equilibrium_report_past_the_doubles_is_a_numerical_failure(tmp_path):
    # The pair is certified, but its lever sides m R v are about 1.1e400
    # and the residual's tolerance, 1e-12 of them, is past the doubles too.
    done = run_cli("equilibrium", *HUGE_LEVER)
    assert done.returncode == 2
    assert done.stdout == ""
    assert len(done.stderr.splitlines()) == 1
    assert "JSON cannot carry" in done.stderr
    # The report fails before anything is written: no --output file either.
    target = tmp_path / "report.json"
    done = run_cli("equilibrium", *HUGE_LEVER, "--output", str(target))
    assert done.returncode == 2
    assert done.stdout == ""
    assert not target.exists()


def test_equilibrium_trace_past_the_doubles_is_reported():
    # The CSV trace never forms the lever sides.
    done = run_cli("equilibrium", *HUGE_LEVER, "--format", "csv")
    assert done.returncode == 0
    assert done.stderr == ""
    rows = done.stdout.splitlines()[1:]
    assert len(rows) == 64
    assert all(math.isfinite(float(v)) for row in rows for v in row.split(","))


def test_limit_sweep_csv(tmp_path):
    path = write_system(
        tmp_path / "pts.json", 1.0, "disk", [(1.0, (0.3, 0.0)), (1.0, (0.5, 0.0))]
    )
    done = run_cli(
        "limit-sweep", "--input", str(path), "--sweep", "10,20,40,80",
        "--format", "csv",
    )
    assert done.returncode == 0
    lines = done.stdout.strip().splitlines()
    assert lines[0] == "R,error"
    rows = [line.split(",") for line in lines[1:]]
    errors = [float(err) for _, err in rows]
    assert [float(r) for r, _ in rows] == [10.0, 20.0, 40.0, 80.0]
    assert all(a > b for a, b in zip(errors, errors[1:]))
    for ratio in (errors[0] / errors[1], errors[1] / errors[2], errors[2] / errors[3]):
        assert 3.5 <= ratio <= 4.5


def test_limit_sweep_symmetric_pair_is_flat(pair_file):
    done = run_cli(
        "limit-sweep", "--input", str(pair_file), "--sweep", "10,20",
        "--format", "csv",
    )
    assert done.returncode == 0
    for line in done.stdout.strip().splitlines()[1:]:
        _, err = line.split(",")
        assert float(err) <= 1e-14


def test_limit_sweep_rejects_outside_point(tmp_path):
    path = write_system(
        tmp_path / "wide.json", 10.0, "disk", [(1.0, (3.0, 0.0)), (1.0, (0.1, 0.0))]
    )
    done = run_cli("limit-sweep", "--input", str(path), "--sweep", "2,4")
    assert done.returncode == 1
    assert "outside the swept disk" in done.stderr


@pytest.mark.parametrize("sweep", ["2,0", "2,1e200"])
def test_limit_sweep_checks_each_radius_as_a_radius(pair_file, sweep):
    # The parser said "sweep radii must be positive" for 0, and let 1e200
    # through to a second check in the sweep.
    done = run_cli("limit-sweep", "--input", str(pair_file), "--sweep", sweep)
    assert done.returncode == 1
    assert "curvature radius" in done.stderr
    assert done.stderr.count("\n") == 1


def test_limit_sweep_accepts_far_sheet_input(tmp_path):
    # The point at 35R projects into the rim band of R = 1, and the
    # command exited 1 with "not inside the disk".  Only the smallest
    # swept radius bounds the images now.
    far = (math.sinh(35.0), 0.0, math.cosh(35.0))
    path = write_system(
        tmp_path / "far.json", 1.0, "hyperboloid", [(1.0, (0.0, 0.0, 1.0)), (2.0, far)]
    )
    done = run_cli("limit-sweep", "--input", str(path), "--sweep", "1.05,2,4,8")
    assert done.returncode == 0, done.stderr
    rows = json.loads(done.stdout)["results"]["rows"]
    image = far[0] / (1.0 + far[2])
    for (radius, error), want in zip(rows, (0.220, 0.0347, 0.00793, 0.00194)):
        assert error == pytest.approx(want, rel=2e-3)
        assert error == pytest.approx(
            euclidean_limit_error_highprec([1.0, 2.0], [0.0, image], radius), rel=1e-12
        )


def test_limit_sweep_ratio_over_a_zero_error_is_null(tmp_path):
    # A single particle is its own flat and curved center, so every error
    # is 0; the ratios were printed as Infinity, which is not JSON.
    path = write_system(tmp_path / "one.json", 1.0, "disk", [(1.0, (0.3, 0.2))])
    done = run_cli("limit-sweep", "--input", str(path), "--sweep", "1,2,4")
    assert done.returncode == 0, done.stderr

    def reject(token):
        raise AssertionError(f"{token} in the report")

    results = json.loads(done.stdout, parse_constant=reject)["results"]
    assert results["ratios"] == [None, None]
    assert [error for _, error in results["rows"]] == [0.0, 0.0, 0.0]


def _readme_system(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    text = re.search(r"^```json\n(.*?)^```$", readme, re.M | re.S).group(1)
    path = tmp_path / "system.json"
    path.write_text(text)
    data = json.loads(text)
    masses = [p["mass"] for p in data["particles"]]
    return path, masses, [complex(*p["coords"]) for p in data["particles"]]


def test_limit_sweep_of_the_readme_system_approaches_the_flat_limit(tmp_path):
    # log((R + w) / (R - w)) rounded the ratio to 1 + 2w/R: past
    # R = 1e5 the errors rose again (1.1e-12, 7.5e-12, 4.0e-10) and
    # strictly_decreasing read false.
    path, masses, points = _readme_system(tmp_path)
    sweep = [10.0, 100.0, 1000.0, 1e4, 1e5, 1e6, 1e7]
    done = run_cli("limit-sweep", "--input", str(path), "--sweep", "10,100,1000,1e4,1e5,1e6,1e7")
    assert done.returncode == 0, done.stderr
    results = json.loads(done.stdout)["results"]
    assert results["strictly_decreasing"] is True
    for (radius, error), want in zip(results["rows"], sweep):
        assert radius == want
        assert abs(error - euclidean_limit_error_highprec(masses, points, radius)) <= 1e-16


def test_limit_sweep_holds_the_flat_limit_at_huge_radii(tmp_path):
    # At the parent these rows read 3.8e-9, 0.026 and 0.2333 (the flat
    # mean itself: the center had rounded to the origin).
    path = write_system(
        tmp_path / "pair.json", 1.0, "disk", [(1.0, (0.5, 0.0)), (2.0, (0.1, 0.0))]
    )
    done = run_cli("limit-sweep", "--input", str(path), "--sweep", "1e8,1e15,1e17")
    assert done.returncode == 0, done.stderr
    for _, error in json.loads(done.stdout)["results"]["rows"]:
        assert error <= 1e-16


def test_limit_sweep_with_overflowing_products_reports_its_rows(tmp_path):
    # m w passes the double range in the flat mean: a traceback,
    # "ValueError: -inf + inf in fsum", exit 1.
    path = write_system(
        tmp_path / "heavy.json", 1e60, "disk", [(1e300, (1e50, 0.0)), (1e300, (-1e50, 0.0))]
    )
    done = run_cli("limit-sweep", "--input", str(path), "--sweep", "1e60,2e60")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["results"]["rows"] == [[1e60, 0.0], [2e60, 0.0]]


def test_report_with_a_non_finite_value_is_a_numerical_failure():
    from hypercom import NumericalError
    from hypercom.files import report_text

    for value in (math.inf, -math.inf, math.nan):
        with pytest.raises(NumericalError, match="JSON"):
            report_text({"results": {"value": value}})


def test_karcher_compare_single_particle(tmp_path):
    path = write_system(tmp_path / "one.json", 1.0, "disk", [(1.0, (0.3, 0.3))])
    done = run_cli("karcher-compare", "--input", str(path))
    assert done.returncode == 0
    report = json.loads(done.stdout)
    assert report["results"]["separation"] <= 1e-12


def test_karcher_compare_balanced_pair(tmp_path):
    path = write_system(
        tmp_path / "bal.json",
        1.0,
        "disk",
        [(1.0, (0.5, 0.0)), (2.0, (-(2.0 - math.sqrt(3.0)), 0.0))],
    )
    done = run_cli("karcher-compare", "--input", str(path))
    assert done.returncode == 0
    report = json.loads(done.stdout)
    assert report["results"]["separation"] <= 1e-8
    assert abs(report["results"]["lever_residual_karcher"]) <= 1e-8
    assert abs(report["results"]["lever_residual_com"]) <= 1e-8


def test_karcher_compare_generic_triple_reproducible(tmp_path):
    path = write_system(
        tmp_path / "tri.json",
        1.0,
        "disk",
        [(1.0, (0.3, 0.1)), (2.0, (-0.2, 0.4)), (1.5, (0.1, -0.5))],
    )
    first = run_cli("karcher-compare", "--input", str(path))
    second = run_cli("karcher-compare", "--input", str(path))
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    report = json.loads(first.stdout)
    assert report["results"]["separation"] > 0.0


def test_karcher_compare_checks_its_tolerance_and_reports_the_one_it_used(tmp_path):
    # The tolerance is karcher.GRADIENT_TOL R, not an option.
    readme, _, _ = _readme_system(tmp_path)
    done = run_cli("karcher-compare", "--input", str(readme), "--tol", "1e-10")
    _one_line_failure(done, 1)
    assert "unrecognized arguments: --tol 1e-10" in done.stderr
    pair = write_system(tmp_path / "pair.json", 3.0, "disk", [(1.0, (1.5, 0.0)), (2.0, (0.0, -1.0))])
    for path, radius in ((readme, 1.0), (pair, 3.0)):
        done = run_cli("karcher-compare", "--input", str(path))
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["tolerances"]["karcher_gradient"] == 1e-12 * radius


def test_karcher_compare_line_center_is_the_com_center(tmp_path):
    # karcher-compare took the line center from a disk system (cmath.log)
    # and com from the line (math.log); for this pair they differed in
    # the last bits: 0.00474934196794994 against 0.004749341967949956.
    path = write_system(
        tmp_path / "line.json", 1.0, "line", [(0.37, (0.535,)), (1.37, (-0.154,))]
    )
    reports = []
    for command in ("com", "karcher-compare"):
        done = run_cli(command, "--input", str(path))
        assert done.returncode == 0, done.stderr
        reports.append(json.loads(done.stdout)["results"])
    com, compare = reports
    assert compare["center_disk"] == [com["center_interval"], 0.0]


def test_reports_are_byte_identical_across_runs(pair_file, tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli("com", "--input", str(pair_file), "--output", str(out1)).returncode == 0
    assert run_cli("com", "--input", str(pair_file), "--output", str(out2)).returncode == 0
    assert out1.read_bytes() == out2.read_bytes()

    csv1 = run_cli(
        "equilibrium", "--m1", "1.5", "--m2", "0.7", "--alpha", "0.4",
        "--radius", "2", "--format", "csv",
    )
    csv2 = run_cli(
        "equilibrium", "--m1", "1.5", "--m2", "0.7", "--alpha", "0.4",
        "--radius", "2", "--format", "csv",
    )
    assert csv1.stdout == csv2.stdout


# --- exit codes -----------------------------------------------------------------


def test_exit_code_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    done = run_cli("com", "--input", str(path))
    assert done.returncode == 1
    assert "error" in done.stderr


def test_exit_code_schema_violations(tmp_path):
    cases = [
        {"radius": 1.0, "model": "disk"},
        {"radius": 1.0, "model": "torus", "particles": [{"mass": 1, "coords": [0, 0]}]},
        {"radius": 1.0, "model": "disk", "particles": []},
        {"radius": 1.0, "model": "disk", "particles": [{"mass": 1}]},
        {"radius": 1.0, "model": "disk", "particles": [{"mass": 1, "coords": [0]}]},
        {"radius": 1.0, "model": "disk", "particles": [{"mass": "x", "coords": [0, 0]}]},
        {"radius": -1.0, "model": "disk", "particles": [{"mass": 1, "coords": [0, 0]}]},
        {"radius": 1.0, "model": "disk", "particles": [{"mass": 1, "coords": [0, 0]}], "extra": 1},
    ]
    for k, payload in enumerate(cases):
        path = tmp_path / f"case{k}.json"
        path.write_text(json.dumps(payload))
        done = run_cli("com", "--input", str(path))
        assert done.returncode == 1, payload


def test_exit_code_domain_violations(tmp_path):
    outside = write_system(
        tmp_path / "outside.json", 1.0, "disk", [(1.0, (1.5, 0.0))]
    )
    assert run_cli("com", "--input", str(outside)).returncode == 1

    negative = write_system(
        tmp_path / "negmass.json", 1.0, "disk", [(-1.0, (0.1, 0.0))]
    )
    assert run_cli("com", "--input", str(negative)).returncode == 1

    off_sheet = write_system(
        tmp_path / "offsheet.json", 1.0, "hyperboloid", [(1.0, (0.5, 0.5, 1.0))]
    )
    assert run_cli("com", "--input", str(off_sheet)).returncode == 1

    missing = run_cli("com", "--input", str(tmp_path / "missing.json"))
    assert missing.returncode == 1


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "1e200"])
def test_non_finite_sheet_point_is_an_input_error(tmp_path, bad):
    # JSON allows NaN and Infinity; such a point used to pass the sheet
    # check and fail inside the barycenter (exit 2).
    path = tmp_path / "nan.json"
    path.write_text(
        '{"radius": 1.0, "model": "hyperboloid", "particles": ['
        '{"mass": 1.0, "coords": [0.0, 0.0, 1.0]}, '
        f'{{"mass": 2.0, "coords": [{bad}, 0.0, 5.0]}}]}}'
    )
    for command in ("karcher-compare", "com"):
        done = run_cli(command, "--input", str(path))
        assert done.returncode == 1, (command, done.stderr)
        assert "not on the upper sheet" in done.stderr


def test_exit_code_forced_nonconvergence(tmp_path, monkeypatch, capsys):
    # A tolerance below the rounding floor is answered at the floor, so
    # the step cap is what forces the ConvergenceError here.
    path = write_system(
        tmp_path / "tri.json",
        1.0,
        "disk",
        [(1.0, (0.3, 0.1)), (2.0, (-0.2, 0.4)), (1.5, (0.1, -0.5))],
    )
    monkeypatch.setattr(karcher, "MAX_STEPS", 0)
    assert cli.main(["karcher-compare", "--input", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "numerical failure" in err
    assert "within 0 steps" in err


@pytest.mark.parametrize("field", ["radius", "mass", "coordinate"])
@pytest.mark.parametrize("digits", [401, 5000])
def test_oversized_integer_in_a_system_file_is_an_input_error(tmp_path, field, digits):
    # Past the double range float() raised OverflowError, and past the
    # 4300 digits int() reads json.loads raised ValueError: tracebacks.
    big = "1" + "0" * (digits - 1)
    values = {"radius": "1.0", "mass": "1.0", "coordinate": "0.1"}
    values[field] = big
    path = tmp_path / "big.json"
    path.write_text(
        f'{{"radius": {values["radius"]}, "model": "line", "particles": '
        f'[{{"mass": {values["mass"]}, "coords": [{values["coordinate"]}]}}]}}'
    )
    for command in ("com", "karcher-compare"):
        done = run_cli(command, "--input", str(path))
        _one_line_failure(done, 1)
        assert "hypercom: error:" in done.stderr
        # A remedy the user of the CLI cannot apply.
        assert "set_int_max_str_digits" not in done.stderr


def test_exit_code_usage_errors():
    assert run_cli("com").returncode == 1
    assert run_cli("equilibrium", "--m1", "1").returncode == 1
    assert run_cli("no-such-command").returncode == 1
    assert run_cli("distance", "0", "0", "--radius", "1").returncode == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (("equilibrium", "--m1", "1", "--m2", "2", "--alpha", "0.5", "--radius", "1",
          "--angles", "1.5"),
         "hypercom equilibrium: error: argument --angles: invalid int value: '1.5'"),
        (("limit-sweep", "--input", "PAIR", "--sweep", ""), "hypercom: error: sweep list is empty"),
        (("com", "--input", "ARRAY"), "hypercom: error: system file must be a JSON object"),
    ],
    ids=["angles-not-an-int", "empty-sweep", "document-not-an-object"],
)
def test_input_error_is_one_line_naming_its_cause(argv, message, pair_file, tmp_path):
    array = tmp_path / "array.json"
    array.write_text("[1, 2]")
    paths = {"PAIR": str(pair_file), "ARRAY": str(array)}
    done = run_cli(*(paths.get(arg, arg) for arg in argv))
    _one_line_failure(done, 1)
    assert done.stderr == message + "\n"


def test_equilibrium_rejects_nonpositive_angles():
    for angles in ("0", "-4"):
        done = run_cli(
            "equilibrium", "--m1", "1", "--m2", "2", "--alpha", "0.5",
            "--radius", "1", "--angles", angles,
        )
        assert done.returncode == 1
        assert done.stdout == ""
        assert len(done.stderr.splitlines()) == 1
        assert "--angles" in done.stderr
        assert "Traceback" not in done.stderr


def test_equilibrium_refuses_angles_past_the_ceiling_before_allocating(capsys):
    # --angles 100000000 asked for tens of GB; the whole call stays under 1 MB.
    argv = ["equilibrium", "--m1", "1", "--m2", "2", "--alpha", "0.5", "--radius", "1",
            "--angles", "100000000"]
    cli.main(argv[:-2])  # the process's parser is built outside the measurement
    capsys.readouterr()
    tracemalloc.start()
    try:
        code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err == "hypercom: error: a rotation sweep takes at most 65536 angles, got count 100000000\n"
    assert peak < 2**20


def test_equilibrium_checks_the_whole_angle_count_before_the_balance():
    # These masses have no balancing radius inside the disk (exit 2); the
    # count past the ceiling was reported only after that failure.
    done = run_cli(
        "equilibrium", "--m1", "1e300", "--m2", "1e-300", "--alpha", "0.9",
        "--radius", "1", "--angles", "100000000",
    )
    _one_line_failure(done, 1)
    assert done.stderr == "hypercom: error: a rotation sweep takes at most 65536 angles, got count 100000000\n"


# Every subcommand that takes --output, in each of its formats; PAIR
# stands for the pair_file path.
EQUILIBRIUM = ("equilibrium", "--m1", "1", "--m2", "2", "--alpha", "0.5", "--radius", "1")
LIMIT_SWEEP = ("limit-sweep", "--input", "PAIR", "--sweep", "10,20")
OUTPUT_COMMANDS = {
    "com": ("com", "--input", "PAIR"),
    "equilibrium": EQUILIBRIUM,
    "equilibrium-csv": (*EQUILIBRIUM, "--format", "csv"),
    "limit-sweep": LIMIT_SWEEP,
    "limit-sweep-csv": (*LIMIT_SWEEP, "--format", "csv"),
    "karcher-compare": ("karcher-compare", "--input", "PAIR"),
}


def _output_argv(name, pair_file):
    return [str(pair_file) if arg == "PAIR" else arg for arg in OUTPUT_COMMANDS[name]]


@pytest.mark.parametrize("name", OUTPUT_COMMANDS)
def test_output_into_missing_directory(name, pair_file, tmp_path):
    target = tmp_path / "missing" / "report.json"
    done = run_cli(*_output_argv(name, pair_file), "--output", str(target))
    assert done.returncode == 1
    assert done.stdout == ""
    assert len(done.stderr.splitlines()) == 1
    assert "cannot write output" in done.stderr
    assert "Traceback" not in done.stderr
    assert not target.exists()


def _boosted(point, rapidity, heading):
    # Lorentz boost along x by ``rapidity``, then rotation by ``heading``.
    x, y, z = point
    ch, sh = math.cosh(rapidity), math.sinh(rapidity)
    bx, bz = ch * x + sh * z, sh * x + ch * z
    c, s = math.cos(heading), math.sin(heading)
    return (c * bx - s * y, s * bx + c * y, bz)


def test_karcher_compare_far_pairs_are_answered_at_the_rounding_floor(tmp_path):
    # A pair 2R apart, 20R from the pole off both axes, and masses 1 and 2
    # both 30R out at headings 0 and 0.1.  Doubles fix each point only to
    # about 3e-8 R and 6e-4 R across its heading, so the barycenter's
    # gradient norm stops above the default tolerance; the iteration
    # raised "stalled" there (exit 2), and now answers at its rounding
    # floor, on the pair's geodesic.
    near = _boosted((0.0, 0.0, 1.0), 20.0, 1.0)
    far = _boosted(
        (math.sinh(2.0) * math.cos(1.0), math.sinh(2.0) * math.sin(1.0), math.cosh(2.0)),
        20.0,
        1.0,
    )
    out = [(math.sinh(30.0) * math.cos(h), math.sinh(30.0) * math.sin(h), math.cosh(30.0))
           for h in (0.0, 0.1)]
    for name, rows in (("off-axis", [(1.0, near), (2.0, far)]),
                       ("30R", [(1.0, out[0]), (2.0, out[1])])):
        path = write_system(tmp_path / f"{name}.json", 1.0, "hyperboloid", rows)
        done = run_cli("karcher-compare", "--input", str(path))
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""
        results = json.loads(done.stdout)["results"]
        # m1 d1 - m2 d2 moves by at most M = 3 times the point's own move.
        floor = sheet_floor([point for _, point in rows], 1.0)
        assert abs(results["lever_residual_karcher"]) <= 3.0 * floor


def test_karcher_compare_answers_a_far_pair_the_iteration_could_not(tmp_path):
    # 170.7R and 218.7R out at R = 1e-100, headings 172 degrees apart: the
    # Newton iteration wandered for all 10,000 steps and exited 2.  The
    # pair's barycenter is its lever point, found in closed form.
    rows = [
        (4.48381524637585, (6.677262637037042e-27, -4.609145987026273e-28, 6.693151618727016e-27)),
        (8.710846656182762, (-4.868478111372277e-06, 1.0377670135845043e-06, 4.9778549090341185e-06)),
    ]
    path = write_system(tmp_path / "far.json", 1e-100, "hyperboloid", rows)
    done = run_cli("karcher-compare", "--input", str(path))
    assert done.returncode == 0, done.stderr
    mean = json.loads(done.stdout)["results"]["karcher_hyperboloid"]
    masses, points = [m for m, _ in rows], [c for _, c in rows]
    want = pair_mean_highprec(masses, points, 1e-100)
    assert sheet_distance_highprec(mean, want, 1e-100) <= sheet_floor([*points, mean], 1e-100)


def test_karcher_compare_far_pair_on_the_axis_converges(tmp_path):
    # Mass 1 at the pole, mass 2 at 15R on the x axis: the lever rule
    # m1 d1 = m2 d2 puts the mean at 10R.
    path = write_system(
        tmp_path / "far.json",
        1.0,
        "hyperboloid",
        [(1.0, (0.0, 0.0, 1.0)), (2.0, (math.sinh(15.0), 0.0, math.cosh(15.0)))],
    )
    done = run_cli("karcher-compare", "--input", str(path))
    assert done.returncode == 0
    results = json.loads(done.stdout)["results"]
    x, y, z = results["karcher_hyperboloid"]
    assert math.asinh(x) == pytest.approx(10.0, abs=1e-12)
    assert y == 0.0


def test_karcher_compare_far_sheet_pair_stays_on_the_sheet(tmp_path):
    # Mass 1 at the pole and mass 2 at 35R: the projected far point lies
    # in the rim band, and the command exited 1 with "not inside the
    # disk".  The center now comes from the band coordinate, as in
    # `com`, and the separation and lever residuals from sheet distances.
    near, far = (0.0, 0.0, 1.0), (math.sinh(35.0), 0.0, math.cosh(35.0))
    path = write_system(
        tmp_path / "far.json", 1.0, "hyperboloid", [(1.0, near), (2.0, far)]
    )
    done = run_cli("karcher-compare", "--input", str(path))
    assert done.returncode == 0, done.stderr
    results = json.loads(done.stdout)["results"]
    com = json.loads(run_cli("com", "--input", str(path)).stdout)["results"]
    assert results["center_disk"] == com["center_disk"]
    mean = results["karcher_hyperboloid"]
    assert math.asinh(mean[0]) == pytest.approx(35.0 * 2.0 / 3.0, rel=1e-15)
    center = com["center_hyperboloid"]
    separation = sheet_distance_highprec(center, mean, 1.0)
    assert abs(results["separation"] - separation) <= 1e-12
    for key, probe in (("lever_residual_com", center), ("lever_residual_karcher", mean)):
        want = sheet_distance_highprec(near, probe, 1.0) - 2.0 * sheet_distance_highprec(
            far, probe, 1.0
        )
        assert abs(results[key] - want) <= 1e-12 * 3.0 * 35.0


def test_disk_point_with_overflowing_modulus_is_an_input_error(tmp_path):
    # 1.7e308 + 1.7e308i is finite, but abs() of it overflowed: each of
    # these ended in an OverflowError traceback.
    path = write_system(
        tmp_path / "huge.json", 1.0, "disk",
        [(1.0, (1.7e308, 1.7e308)), (1.0, (0.1, 0.0))],
    )
    for argv in (
        ("com", "--input", str(path)),
        ("distance", "1.7e308", "1.7e308", "0", "0", "--radius", "1"),
        ("unproject", "1.7e308", "1.7e308", "--radius", "1"),
    ):
        done = run_cli(*argv)
        assert done.returncode == 1, argv
        assert done.stdout == ""
        assert len(done.stderr.splitlines()) == 1
        assert "not inside the disk" in done.stderr


def _radius_domain_runs(tmp_path, radius):
    w = 0.5 * radius
    sheet = [
        (1.0, (radius * math.sinh(1.0), 0.0, radius * math.cosh(1.0))),
        (2.0, (0.0, radius * math.sinh(0.5), radius * math.cosh(0.5))),
    ]
    line = write_system(
        tmp_path / "line.json", radius, "line", [(1.0, (w,)), (2.0, (-0.4 * w,))]
    )
    disk = write_system(
        tmp_path / "disk.json", radius, "disk", [(1.0, (w, 0.0)), (2.0, (0.0, -w))]
    )
    hyper = write_system(tmp_path / "sheet.json", radius, "hyperboloid", sheet)
    return [
        run_cli("com", "--input", str(line)),
        run_cli("com", "--input", str(disk)),
        run_cli("com", "--input", str(hyper)),
        run_cli("karcher-compare", "--input", str(hyper)),
        run_cli("unproject", "--radius", repr(radius), "--", repr(w), "0"),
    ]


@pytest.mark.parametrize("radius", [1e-100, 1e100])
def test_radius_domain_edges_give_finite_reports(tmp_path, radius):
    for done in _radius_domain_runs(tmp_path, radius):
        assert done.returncode == 0, done.stderr
        assert "NaN" not in done.stdout and "Infinity" not in done.stdout
        assert "inf" not in done.stdout and "nan" not in done.stdout


@pytest.mark.parametrize("radius", [1e-101, 1e101])
def test_radius_outside_domain_is_an_input_error(tmp_path, radius):
    # At 1e103 these reports held Infinity and NaN; at 1e-200 they ended
    # in ZeroDivisionError tracebacks.
    for done in _radius_domain_runs(tmp_path, radius):
        assert done.returncode == 1
        assert len(done.stderr.splitlines()) == 1
        assert "curvature radius" in done.stderr


def _one_line_failure(done, code):
    assert done.returncode == code
    assert done.stdout == ""
    assert len(done.stderr.splitlines()) == 1
    assert "Traceback" not in done.stderr


def test_com_past_the_double_range_of_sinh_reports_its_center(tmp_path):
    # At R = 1e-100 points 711R out on opposite sides read a = +-inf, and
    # `com` ended in a "-inf + inf in fsum" traceback.
    far = 1e-100 * math.exp(355.5) * (0.5 * math.exp(355.5))
    path = write_system(
        tmp_path / "far.json", 1e-100, "hyperboloid", [(1.0, (far, 0.0, far)), (2.0, (-far, 0.0, far))]
    )
    done = run_cli("com", "--input", str(path))
    assert done.returncode == 0, done.stderr
    a, b = json.loads(done.stdout)["results"]["log_ratio_mean"]
    assert a == pytest.approx(-237.0, rel=1e-15) and b == 0.0


def _mirror_pair_past_the_double_range(tmp_path):
    # At R = 1e-100, masses 1 and 2 711 R out on opposite sides: r / R
    # is past the largest double, so each rapidity asinh(r / R) reads inf.
    radius = 1e-100
    far, mirror = (3.04e208, 0.0, 3.04e208), (-3.04e208, 0.0, 3.04e208)
    for p in (far, mirror):
        distance = sheet_distance_highprec(p, (0.0, 0.0, radius), radius)
        assert distance / radius > math.asinh(sys.float_info.max)
    return write_system(
        tmp_path / "mirror.json", radius, "hyperboloid", [(1.0, far), (2.0, mirror)]
    )


def test_karcher_compare_particle_past_the_double_range_is_a_numerical_failure(tmp_path):
    # This ended in a "-inf + inf in fsum" traceback (exit 1) from the
    # solver's Minkowski start.
    path = _mirror_pair_past_the_double_range(tmp_path)
    done = run_cli("karcher-compare", "--input", str(path))
    _one_line_failure(done, 2)
    assert "numerical failure" in done.stderr
    assert "rapidity passes the double range" in done.stderr
    assert run_cli("com", "--input", str(path)).returncode == 0
    # With the pole in place of the mirror: the same failure.
    radius, far = 1e-100, (3.04e208, 0.0, 3.04e208)
    pair = write_system(
        tmp_path / "pole.json", radius, "hyperboloid", [(1.0, far), (2.0, (0.0, 0.0, radius))]
    )
    done = run_cli("karcher-compare", "--input", str(pair))
    _one_line_failure(done, 2)
    assert "rapidity passes the double range" in done.stderr


def test_com_far_sheet_pair_reports_its_center(tmp_path):
    # Mass 1 at the pole and mass m at s R: the projected far point lies
    # in the disk's rim band, and the command exited 1 with "not inside
    # the disk".  The band mean a = s m / (1 + m) carries the center.
    # For s = 45, m = 39 the center is 43.875R out and center_disk
    # rounds onto the rim; the report shows that rather than rejecting
    # the input.
    for s, m in ((35.0, 2.0), (45.0, 39.0)):
        far = (math.sinh(s), 0.0, math.cosh(s))
        path = write_system(
            tmp_path / "far.json", 1.0, "hyperboloid", [(1.0, (0.0, 0.0, 1.0)), (m, far)]
        )
        done = run_cli("com", "--input", str(path))
        assert done.returncode == 0, done.stderr
        for token in ("inf", "nan", "Infinity", "NaN"):
            assert token not in done.stdout
        results = json.loads(done.stdout)["results"]
        mean = s * m / (1.0 + m)
        a, b = results["log_ratio_mean"]
        assert a == pytest.approx(mean, rel=1e-15) and b == 0.0
        x, y, z = results["center_hyperboloid"]
        assert math.asinh(x) == pytest.approx(mean, rel=1e-15) and y == 0.0
        assert results["center_disk"] == [math.tanh(0.5 * a), 0.0]
    assert results["center_disk"] == [1.0, 0.0]


def test_com_center_on_the_band_rim_is_a_numerical_failure(tmp_path):
    path = write_system(
        tmp_path / "rim.json", 1.0, "hyperboloid",
        [(1.0, (0.0, 1e17, 1e17)), (3.0, (0.0, 2e17, 2e17))],
    )
    done = run_cli("com", "--input", str(path))
    _one_line_failure(done, 2)
    assert "numerical failure" in done.stderr


@pytest.mark.parametrize("model", ["line", "disk", "hyperboloid"])
def test_com_total_mass_past_the_double_range_is_an_input_error(tmp_path, model):
    # Two masses of 1e308 ended in "OverflowError: intermediate
    # overflow in fsum".
    coords = {"line": (0.1,), "disk": (0.1, 0.0), "hyperboloid": (0.0, 0.0, 1.0)}
    path = write_system(
        tmp_path / "heavy.json", 1.0, model, [(1e308, coords[model])] * 2
    )
    done = run_cli("com", "--input", str(path))
    _one_line_failure(done, 1)
    assert "total mass exceeds" in done.stderr


def test_project_with_an_overflowing_image_is_an_input_error():
    # R x overflowed, and the command printed "inf 0" with exit 0.
    done = run_cli("project", "1e308", "0", "1e308", "--radius", "2")
    _one_line_failure(done, 1)
    assert "no representable disk image" in done.stderr


def test_negative_exponent_coordinates_are_positionals():
    # "-3e-1" was read as an option: exit 1, "required: coords".
    done = run_cli("distance", "0.5", "0", "-3e-1", "0.2", "--radius", "1")
    assert done.returncode == 0, done.stderr
    marked = run_cli("distance", "--radius", "1", "--", "0.5", "0", "-0.3", "0.2")
    assert done.stdout == marked.stdout
    done = run_cli("project", "-1E0", "0", "1.4142135623730951", "--radius", "1")
    assert done.returncode == 0, done.stderr


def test_piped_input_reports_the_digest_of_the_piped_bytes(pair_file):
    # The file was read twice, and the second read of a pipe found it
    # empty: input_sha256 was the digest of zero bytes, e3b0c442...b855.
    data = pair_file.read_bytes()
    for argv in (
        ["com"],
        ["limit-sweep", "--sweep", "10,20"],
        ["karcher-compare"],
    ):
        done = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             "-m", "hypercom", *argv, "--input", "/dev/stdin"],
            input=data,
            capture_output=True,
        )
        assert done.returncode == 0, done.stderr
        assert done.stderr == b"", argv
        digest = json.loads(done.stdout)["input_sha256"]
        assert digest == hashlib.sha256(data).hexdigest(), argv


def test_com_near_rim_center_is_reported(tmp_path):
    # Both particles at one point just inside the rim band; the center
    # came out 1 ulp outside the band and com exited 1, blaming its own
    # center as "not inside the disk".
    w = complex(0.28209668578293506, 0.9593859806502719)
    path = write_system(
        tmp_path / "rim.json", 1.0, "disk",
        [(3.613456841520722, (w.real, w.imag)), (9.659776469147234, (w.real, w.imag))],
    )
    done = run_cli("com", "--input", str(path))
    assert done.returncode == 0, done.stderr
    results = json.loads(done.stdout)["results"]
    re_c, im_c = results["center_disk"]
    assert abs(re_c - w.real) <= math.ulp(w.real)
    assert abs(im_c - w.imag) <= math.ulp(w.imag)
    assert all(map(math.isfinite, results["center_hyperboloid"]))


def test_karcher_compare_gradient_that_overflows_is_a_numerical_failure(tmp_path):
    # Three particles at R = 1e100, each pair more than 710 R apart.
    radius = 1e100
    rows = [
        (m, (radius * math.sinh(b) * math.cos(h), radius * math.sinh(b) * math.sin(h),
             radius * math.cosh(b)))
        for m, b, h in ((4.0, 416.4, 0.98), (1.0, 346.7, 4.34), (1.0, 412.0, 3.59))
    ]
    path = write_system(tmp_path / "far.json", radius, "hyperboloid", rows)
    done = run_cli("karcher-compare", "--input", str(path))
    _one_line_failure(done, 2)
    assert re.fullmatch(
        r"hypercom: numerical failure: barycenter iterate \(.*\) or its gradient overflows\n",
        done.stderr,
    )


def test_karcher_compare_log_sum_past_the_double_range_is_a_numerical_failure(tmp_path):
    # Three particles each about 1359 R apart (test_karcher.FAR_TRIPLE):
    # the Newton loop's log sums passed the double range and
    # karcher-compare ended in a "-inf + inf in fsum" traceback.
    rows = [
        (9.980144493487254, (1.6877235372573954e244, -9.338926064519434e243, 1.9288769112097897e244)),
        (7.538424218255, (2.759683485111051e245, -1.4030419439598386e245, 3.095864925106598e245)),
        (5.381716783677549, (2.047606655302281e243, -2.0985667403122044e242, 2.058332538360515e243)),
    ]
    path = write_system(tmp_path / "far.json", 2.248785983625773e-52, "hyperboloid", rows)
    done = run_cli("karcher-compare", "--input", str(path))
    _one_line_failure(done, 2)
    assert re.fullmatch(
        r"hypercom: numerical failure: barycenter iterate \(.*\) or its gradient overflows\n",
        done.stderr,
    )


def test_karcher_compare_barycenter_without_a_disk_image_is_a_numerical_failure(tmp_path):
    # At R = 1e100 the barycenter of mass 1 at the pole and mass 2 at
    # 480R lies 320R out, where R x overflows; com takes this input, and
    # karcher-compare exited 1, blaming the barycenter as an input point.
    radius = 1e100
    far = (radius * math.sinh(480.0), 0.0, radius * math.cosh(480.0))
    path = write_system(
        tmp_path / "far.json", radius, "hyperboloid",
        [(1.0, (0.0, 0.0, radius)), (2.0, far)],
    )
    assert run_cli("com", "--input", str(path)).returncode == 0
    done = run_cli("karcher-compare", "--input", str(path))
    _one_line_failure(done, 2)
    assert "numerical failure" in done.stderr
    assert "barycenter" in done.stderr


def test_non_utf8_system_file_is_an_input_error(tmp_path):
    # read_text() raised UnicodeDecodeError, which ended in a traceback.
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff")
    for argv in (["com"], ["limit-sweep", "--sweep", "2"], ["karcher-compare"]):
        done = run_cli(*argv, "--input", str(path))
        _one_line_failure(done, 1)
        assert "cannot read system file" in done.stderr


def test_file_subcommands_use_no_default_encoding(pair_file, tmp_path):
    # The input was read and --output written in the locale's encoding.
    # The file holds the bytes the command prints without --output, and
    # nothing goes to stdout.
    out = tmp_path / "out.txt"
    for name in OUTPUT_COMMANDS:
        argv = [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
                "-m", "hypercom", *_output_argv(name, pair_file)]
        printed = subprocess.run(argv, capture_output=True)
        done = subprocess.run([*argv, "--output", str(out)], capture_output=True)
        for result in (printed, done):
            assert result.returncode == 0, (name, result.stderr)
            assert result.stderr == b"", name
        assert done.stdout == b"", name
        assert out.read_bytes() == printed.stdout, name
        if not name.endswith("-csv"):
            assert json.loads(printed.stdout)["command"] == OUTPUT_COMMANDS[name][0]


def _readme_examples():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    pattern = re.compile(r"^hypercom (.+?)\s+# -> (.*)$")
    return [
        match.groups()
        for match in map(pattern.match, readme.read_text().splitlines())
        if match
    ]


def test_readme_examples_print_what_the_readme_says():
    examples = _readme_examples()
    assert len(examples) >= 3
    for command, expected in examples:
        done = run_cli(*shlex.split(command))
        assert done.returncode == 0, command
        assert done.stdout == expected + "\n", command


def _in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_calls_in_one_process_share_a_parser_and_no_state(pair_file, tmp_path, monkeypatch):
    # main reuses one parser for every call in a process.  Every
    # subcommand, help, usage errors, a malformed file and a numerical
    # failure, in three orders, must give what a fresh process gives.
    monkeypatch.setenv("COLUMNS", "100")  # help text wraps at the same width
    line = write_system(tmp_path / "line.json", 1.0, "line", [(1.0, (0.5,)), (2.0, (-0.2,))])
    sheet = write_system(
        tmp_path / "sheet.json", 1.0, "hyperboloid",
        [(1.0, (0.0, 0.0, 1.0)), (2.0, (math.sinh(1.0), 0.0, math.cosh(1.0)))],
    )
    mirror = _mirror_pair_past_the_double_range(tmp_path)
    malformed = tmp_path / "malformed.json"
    malformed.write_text("{")
    report = tmp_path / "report.json"
    pair = str(pair_file)
    cases = [
        ("--help",),
        ("karcher-compare", "--help"),
        ("com", "--input", pair),
        ("com", "--input", str(line)),
        ("com", "--input", str(mirror)),
        ("com", "--input", pair, "--output", str(report)),
        ("equilibrium", "--m1", "1", "--m2", "2", "--alpha", "0.5", "--radius", "1"),
        ("equilibrium", "--m1", "1", "--m2", "3", "--alpha", "0.25", "--radius", "2",
         "--angles", "7", "--format", "csv"),
        ("limit-sweep", "--input", pair, "--sweep", "10,20,40"),
        ("limit-sweep", "--input", str(line), "--sweep", "10,20", "--format", "csv"),
        ("karcher-compare", "--input", str(sheet)),
        ("karcher-compare", "--input", str(sheet), "--tol", "1e-10"),
        ("distance", "0", "0", "0.5", "0", "--radius", "1"),
        ("project", "-1E0", "0", "1.4142135623730951", "--radius", "1"),
        ("unproject", "0.5", "0", "--radius", "1"),
        ("com",),
        ("no-such-command",),
        ("distance", "0", "0", "--radius", "1"),
        ("equilibrium", "--m1", "1", "--m2", "2", "--alpha", "0.5", "--radius", "1",
         "--angles", "0"),
        ("com", "--input", str(malformed)),
        ("karcher-compare", "--input", str(mirror)),
    ]

    def written():
        if not report.exists():
            return None
        text = report.read_text(encoding="utf-8")
        report.unlink()
        return text

    fresh = {}
    for argv in cases:
        done = run_cli(*argv)
        fresh[argv] = (done.returncode, done.stdout, done.stderr, written())
    assert {result[0] for result in fresh.values()} == {0, 1, 2}

    cli._parser.cache_clear()
    shuffled = list(cases)
    random.Random(2).shuffle(shuffled)
    calls = cases + cases[::-1] + shuffled
    for argv in calls:
        assert (*_in_process(argv), written()) == fresh[argv], argv
    cache = cli._parser.cache_info()
    assert (cache.misses, cache.hits) == (1, len(calls) - 1)
    assert cli.build_parser() is not cli.build_parser()
