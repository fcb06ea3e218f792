"""Acceptance suite: one test per criterion, at the stated tolerances.

Every test prints a single ``[criterion NN] ... PASS`` line with the
measured margin (visible with ``pytest -s``); pytest -v shows the same
pass/fail status per criterion.  Expected values tagged as frozen were
computed with the independent oracles in oracles.py, never taken on
faith.
"""

import cmath
import json
import math
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest

import hypercom.karcher as karcher
from hypercom import (
    arclength_from_pole,
    com_disk,
    diametric_system,
    disk_distance,
    disk_system,
    euclidean_limit_error,
    hyperboloid_system,
    karcher_mean,
    lagrangian_triple,
    lever_residual,
    mirror_pair,
    project,
    project_line,
    rotate_disk,
    rotation_sweep,
    unproject,
    unproject_line,
    classify_balance,
    cli,
)
from hypercom.geometry import HPoint, LPoint

from oracles import (
    balance_radius_bisection,
    com_disk_highprec,
    euclidean_limit_error_highprec,
)

RADII = (0.5, 1.0, 10.0)

# Frozen from euclidean_limit_error_highprec (50 digits) for masses
# (1, 1) at (0.3, 0.5).  The flat-limit error at R = 10.
LIMIT_ERROR_R10 = 4.0068122229608e-05
# Frozen from 50-digit arithmetic: tanh(log(1.125 / 0.875) / 6).
LAGRANGIAN_CENTER = 0.04186126023461038


def report(line):
    print(line)


def random_disk_points(rng, count, radius, max_ball=0.999):
    radii = rng.uniform(0.0, max_ball, count) * radius
    angles = rng.uniform(0.0, 2.0 * math.pi, count)
    return [r * cmath.exp(1j * a) for r, a in zip(radii, angles)]


def test_c01_projection_round_trips():
    # 1e5 random points per model across R in {0.5, 1, 10}, both
    # composition orders; max relative error 1e-12.
    rng = np.random.default_rng(101)
    per_radius = 100_000 // len(RADII) + 1  # 1e5 per composition direction
    worst = 0.0
    for radius in RADII:
        for w in random_disk_points(rng, per_radius, radius):
            back = project(unproject(w, radius), radius)
            worst = max(worst, abs(back - w) / max(radius, abs(w)))
        for arc in rng.uniform(0.0, 8.0, per_radius):
            angle = rng.uniform(0.0, 2.0 * math.pi)
            p = HPoint(
                radius * math.sinh(arc) * math.cos(angle),
                radius * math.sinh(arc) * math.sin(angle),
                radius * math.cosh(arc),
            )
            back = unproject(project(p, radius), radius)
            scale = max(abs(p.x), abs(p.y), p.z)
            err = max(abs(a - b) for a, b in zip(p, back)) / scale
            worst = max(worst, err)
    worst_1d = 0.0
    for radius in RADII:
        for u in rng.uniform(-0.999, 0.999, per_radius) * radius:
            back = project_line(unproject_line(float(u), radius), radius)
            worst_1d = max(worst_1d, abs(back - u) / max(radius, abs(u)))
        for arc in rng.uniform(-8.0, 8.0, per_radius):
            p = LPoint(radius * math.sinh(arc), radius * math.cosh(arc))
            back = unproject_line(project_line(p, radius), radius)
            scale = max(abs(p.x), p.y)
            worst_1d = max(worst_1d, max(abs(a - b) for a, b in zip(p, back)) / scale)
    assert worst <= 1e-12
    assert worst_1d <= 1e-12
    report(
        f"[criterion 01] projection round trips: PASS "
        f"(max rel err 2d {worst:.2e}, 1d {worst_1d:.2e})"
    )


def test_c02_metric_consistency():
    # dist(0, u) against the pole arclength to 1e-10 on 1e4 draws, and
    # rotation invariance of the disk distance to 1e-12.
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(10_000):
        radius = float(rng.choice(RADII))
        magnitude = 10.0 ** rng.uniform(-6.0, math.log10(0.999))
        u = math.copysign(magnitude, rng.uniform(-1.0, 1.0)) * radius
        d = disk_distance(0j, complex(u, 0.0), radius)
        worst = max(worst, abs(d - abs(arclength_from_pole(u, radius))))
    assert worst <= 1e-10

    worst_rot = 0.0
    for _ in range(3_000):
        radius = float(rng.choice(RADII))
        w1, w2 = random_disk_points(rng, 2, radius, max_ball=0.9)
        angle = float(rng.uniform(0.0, 2.0 * math.pi))
        d0 = disk_distance(w1, w2, radius)
        d1 = disk_distance(rotate_disk(w1, angle), rotate_disk(w2, angle), radius)
        worst_rot = max(worst_rot, abs(d0 - d1))
    assert worst_rot <= 1e-12
    report(
        f"[criterion 02] metric consistency: PASS "
        f"(arclength gap {worst:.2e}, rotation gap {worst_rot:.2e})"
    )


def _random_balanced_draw(rng):
    while True:
        m1, m2 = rng.uniform(0.2, 5.0, 2)
        radius = float(rng.choice(RADII))
        alpha = float(rng.uniform(0.05, 0.9)) * radius
        exponent = (m1 / (2.0 * m2)) * math.log((radius + alpha) / (radius - alpha))
        if exponent <= 5.5:
            return float(m1), float(m2), alpha, radius


def test_c03_lever_rule_reproduction():
    # 1e3 random balanced pairs: center at the origin to 1e-12 R and
    # m1 s1 = m2 s2 to 1e-10.
    rng = np.random.default_rng(103)
    worst_center = 0.0
    worst_balance = 0.0
    for _ in range(1_000):
        m1, m2, alpha, radius = _random_balanced_draw(rng)
        system = diametric_system(m1, m2, alpha, radius)
        center = com_disk(system).center
        worst_center = max(worst_center, abs(center) / radius)
        partner = -system.particles[1].position.real
        balance = m1 * arclength_from_pole(alpha, radius) - m2 * arclength_from_pole(
            partner, radius
        )
        worst_balance = max(worst_balance, abs(balance))
    assert worst_center <= 1e-12
    assert worst_balance <= 1e-10
    report(
        f"[criterion 03] lever rule reproduction: PASS "
        f"(|center|/R {worst_center:.2e}, imbalance {worst_balance:.2e})"
    )


def test_c04_radius_trichotomy():
    # Ordering of the balancing radius follows the mass ordering on 1e3
    # draws; equal masses give equal radii to 1e-12.
    rng = np.random.default_rng(104)
    for _ in range(1_000):
        m1, m2, alpha, radius = _random_balanced_draw(rng)
        verdict = classify_balance(m1, m2, alpha, radius)
        assert verdict.matches_mass_order, (m1, m2, alpha, radius)
    worst_equal = 0.0
    for _ in range(200):
        mass = float(rng.uniform(0.2, 5.0))
        radius = float(rng.choice(RADII))
        alpha = float(rng.uniform(0.05, 0.9)) * radius
        verdict = classify_balance(mass, mass, alpha, radius)
        assert verdict.relation == "equal"
        worst_equal = max(worst_equal, abs(verdict.partner_radius - alpha) / alpha)
    assert worst_equal <= 1e-12
    report(
        f"[criterion 04] radius trichotomy: PASS "
        f"(equal-mass radius gap {worst_equal:.2e})"
    )


def test_c05_containment():
    # 1e5 random systems with n <= 10: the center stays strictly inside.
    rng = np.random.default_rng(105)
    for _ in range(100_000):
        radius = float(rng.choice(RADII))
        n = int(rng.integers(1, 11))
        masses = rng.uniform(0.0, 10.0, n) + 1e-9
        positions = random_disk_points(rng, n, radius)
        center = com_disk(disk_system(masses, positions, radius)).center
        assert abs(center) < radius
    report("[criterion 05] containment: PASS (1e5 systems, all |center| < R)")


def test_c06_euclidean_limit():
    # Fixed system (1, 0.3), (1, 0.5): strictly decreasing error with
    # quadratic ratios, matching the 50-digit direct evaluation.
    masses, points = [1.0, 1.0], [0.3, 0.5]
    radii = (10.0, 20.0, 40.0, 80.0)
    errors = [euclidean_limit_error(masses, points, r) for r in radii]
    assert all(a > b for a, b in zip(errors, errors[1:]))
    ratios = [errors[k] / errors[k + 1] for k in range(3)]
    assert all(3.5 <= q <= 4.5 for q in ratios)
    oracle = euclidean_limit_error_highprec(masses, points, 10.0)
    assert oracle == pytest.approx(LIMIT_ERROR_R10, rel=1e-10)
    assert errors[0] == pytest.approx(oracle, rel=1e-4)
    report(
        f"[criterion 06] euclidean limit: PASS "
        f"(error(10) {errors[0]:.6e} matches the 50-digit oracle "
        f"{oracle:.6e}, ratios {ratios[0]:.3f}/{ratios[1]:.3f}/{ratios[2]:.3f})"
    )


def test_c07_karcher_oracle():
    # 1e3 random two-body systems: the barycenter satisfies the geodesic
    # lever rule to 1e-8; diametric pairs agree with com_disk to 1e-8.
    rng = np.random.default_rng(107)
    worst_residual = 0.0
    for _ in range(1_000):
        m1, m2 = rng.uniform(0.2, 5.0, 2)
        w1, w2 = random_disk_points(rng, 2, 1.0, max_ball=0.8)
        if abs(w1 - w2) < 1e-3:
            continue
        system = hyperboloid_system(
            [m1, m2], [unproject(w1, 1.0), unproject(w2, 1.0)], 1.0
        )
        mean_disk = project(karcher_mean(system), 1.0)
        worst_residual = max(
            worst_residual, abs(lever_residual(m1, w1, m2, w2, mean_disk, 1.0))
        )
    assert worst_residual <= 1e-8

    worst_gap = 0.0
    for _ in range(300):
        m1, m2 = rng.uniform(0.2, 5.0, 2)
        u1 = float(rng.uniform(0.05, 0.9))
        u2 = -float(rng.uniform(0.05, 0.9))
        system = disk_system([m1, m2], [u1, u2], 1.0)
        center = com_disk(system).center
        mean_disk = project(
            karcher_mean(
                hyperboloid_system(
                    [m1, m2], [unproject(u1, 1.0), unproject(u2, 1.0)], 1.0
                )
            ),
            1.0,
        )
        worst_gap = max(worst_gap, disk_distance(center, mean_disk, 1.0))
    assert worst_gap <= 1e-8
    report(
        f"[criterion 07] karcher oracle: PASS "
        f"(lever residual {worst_residual:.2e}, diametric gap {worst_gap:.2e})"
    )


def test_c08_lagrangian_evaluation():
    # Equal masses at 0.5 * cube roots of unity, R = 1: the center
    # matches the closed form, and is measurably NOT the origin; that
    # difference from the fixed-at-the-pole expectation is a documented
    # discrepancy, not a failure.
    _, com = lagrangian_triple(0.5, 1.0)
    with mp.workdps(40):
        closed = float(mp.tanh(mp.log(mp.mpf("1.125") / mp.mpf("0.875")) / 6))
    assert closed == pytest.approx(LAGRANGIAN_CENTER, rel=1e-12)
    assert abs(com.center - closed) <= 1e-10
    assert abs(com.center) > 0.04
    report(
        f"[criterion 08] lagrangian evaluation: PASS "
        f"(center {com.center.real:.7f}; FLAG: nonzero, i.e. not fixed at the "
        f"pole; documented discrepancy, not a failure)"
    )


def test_c09_symmetry_suite():
    # Oddness, conjugation equivariance, permutation and mass-scale
    # invariance, and the mirror-pair axis constraint; 1e4 random
    # systems each at the 1e-14 family of tolerances.
    rng = np.random.default_rng(109)
    worst = {"odd": 0.0, "conj": 0.0, "scale": 0.0, "mirror": 0.0}
    for _ in range(10_000):
        radius = float(rng.choice(RADII))
        n = int(rng.integers(1, 7))
        masses = list(rng.uniform(0.1, 10.0, n))
        positions = random_disk_points(rng, n, radius, max_ball=0.95)
        base = com_disk(disk_system(masses, positions, radius)).center

        mirrored = com_disk(
            disk_system(masses, [-w for w in positions], radius)
        ).center
        worst["odd"] = max(worst["odd"], abs(mirrored + base) / radius)

        conjugated = com_disk(
            disk_system(masses, [w.conjugate() for w in positions], radius)
        ).center
        worst["conj"] = max(
            worst["conj"], abs(conjugated - base.conjugate()) / radius
        )

        order = rng.permutation(n)
        shuffled = com_disk(
            disk_system(
                [masses[i] for i in order],
                [positions[i] for i in order],
                radius,
            )
        ).center
        assert shuffled == base  # bit-identical under reordering

        scale = 10.0 ** float(rng.uniform(-3.0, 3.0))
        scaled = com_disk(
            disk_system([scale * m for m in masses], positions, radius)
        ).center
        worst["scale"] = max(worst["scale"], abs(scaled - base) / radius)

        _, mirror_com = mirror_pair(masses[0], positions[0], radius)
        worst["mirror"] = max(
            worst["mirror"], abs(mirror_com.center.real) / radius
        )
    assert worst["odd"] <= 1e-14
    assert worst["conj"] <= 1e-14
    assert worst["scale"] <= 1e-14
    assert worst["mirror"] <= 1e-14
    report(
        f"[criterion 09] symmetry suite: PASS "
        f"(odd {worst['odd']:.1e}, conj {worst['conj']:.1e}, permutation "
        f"bit-exact, scale {worst['scale']:.1e}, mirror {worst['mirror']:.1e})"
    )


def test_c10_equivariance_defect_reproducibility():
    # The unequal-mass sweep (1, 2, alpha 0.5, R 1, 64 angles) matches a
    # 30-digit evaluation of the averaging formula pointwise to 1e-10.
    sweep = rotation_sweep(diametric_system(1.0, 2.0, 0.5, 1.0))
    partner = balance_radius_bisection(1.0, 2.0, 0.5, 1.0, dps=30)
    worst = 0.0
    worst_defect = 0.0
    with mp.workdps(30):
        for sample in sweep.samples:
            phase = mp.exp(mp.mpc(0.0, sample.angle))
            oracle = com_disk_highprec(
                [1.0, 2.0],
                [complex(mp.mpf("0.5") * phase), complex(-partner * phase)],
                1.0,
            )
            worst = max(worst, abs(sample.com.center - oracle))
            worst_defect = max(
                worst_defect, abs(sample.defect - abs(oracle))
            )
    assert worst <= 1e-10
    assert worst_defect <= 1e-10
    assert sweep.max_defect > 1e-3  # the defect curve is genuinely nonzero
    report(
        f"[criterion 10] equivariance defect reproducibility: PASS "
        f"(pointwise gap {worst:.2e}, max defect {sweep.max_defect:.6f})"
    )


def _run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "hypercom", *args], capture_output=True, text=True
    )


def test_c11_cli_black_box(tmp_path, monkeypatch, capsys):
    # Exit-code contract and byte-identical reports on repeated runs.
    good = tmp_path / "pair.json"
    good.write_text(
        json.dumps(
            {
                "radius": 1.0,
                "model": "disk",
                "particles": [
                    {"mass": 1.0, "coords": [0.5, 0.0]},
                    {"mass": 2.0, "coords": [-0.2679491924311227, 0.0]},
                ],
            }
        )
    )
    first = _run_cli("com", "--input", str(good))
    second = _run_cli("com", "--input", str(good))
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout

    sweep1 = _run_cli(
        "equilibrium", "--m1", "1", "--m2", "2", "--alpha", "0.5",
        "--radius", "1", "--format", "csv",
    )
    sweep2 = _run_cli(
        "equilibrium", "--m1", "1", "--m2", "2", "--alpha", "0.5",
        "--radius", "1", "--format", "csv",
    )
    assert sweep1.returncode == 0
    assert sweep1.stdout == sweep2.stdout
    assert sweep1.stdout.splitlines()[0] == "theta,re_wc,im_wc,defect"

    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert _run_cli("com", "--input", str(bad)).returncode == 1

    outside = tmp_path / "outside.json"
    outside.write_text(
        json.dumps(
            {
                "radius": 1.0,
                "model": "disk",
                "particles": [{"mass": 1.0, "coords": [2.0, 0.0]}],
            }
        )
    )
    assert _run_cli("com", "--input", str(outside)).returncode == 1

    triple = tmp_path / "triple.json"
    triple.write_text(
        json.dumps(
            {
                "radius": 1.0,
                "model": "disk",
                "particles": [
                    {"mass": 1.0, "coords": [0.3, 0.1]},
                    {"mass": 2.0, "coords": [-0.2, 0.4]},
                    {"mass": 1.5, "coords": [0.1, -0.5]},
                ],
            }
        )
    )
    # The step cap forces the ConvergenceError, in process.
    monkeypatch.setattr(karcher, "MAX_STEPS", 0)
    assert cli.main(["karcher-compare", "--input", str(triple)]) == 2
    assert "numerical failure" in capsys.readouterr().err
    report(
        "[criterion 11] cli black box: PASS "
        "(byte-identical reports; exit codes 0/1/2 verified)"
    )
