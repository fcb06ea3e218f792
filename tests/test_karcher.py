"""Exponential/log maps and the Riemannian barycenter iteration."""

import cmath
import math
import sys

import numpy as np
import pytest

import hypercom.karcher as karcher
from hypercom import (
    ConvergenceError,
    HPoint,
    NumericalError,
    TangentVector,
    ValidationError,
    com_hyperboloid,
    disk_distance,
    exp_map,
    geodesic_between,
    hyperboloid_distance,
    hyperboloid_system,
    karcher_mean,
    karcher_solve,
    lever_residual,
    line_system,
    log_map,
    project,
    rotate_disk,
    to_hyperboloid_system,
    unproject,
)

from oracles import (
    karcher_gradient_norm_highprec,
    line_mean_highprec,
    log_map_highprec,
    pair_mean_highprec,
    sheet_distance_highprec,
    sheet_floor,
)

POLE = HPoint(0.0, 0.0, 1.0)


def random_sheet_point(rng, radius=1.0, max_ball=0.95):
    r = float(rng.uniform(0.0, max_ball)) * radius
    a = float(rng.uniform(0.0, 2.0 * math.pi))
    return unproject(r * cmath.exp(1j * a), radius)


def random_system(rng, radius=1.0, max_n=5, max_ball=0.95):
    n = int(rng.integers(2, max_n + 1))
    masses = rng.uniform(0.1, 10.0, n)
    points = [random_sheet_point(rng, radius, max_ball) for _ in range(n)]
    return hyperboloid_system(masses, points, radius)


# --- exponential and logarithm maps --------------------------------------------


def test_exp_map_zero_vector_is_base():
    p = unproject(0.3 + 0.2j, 1.0)
    assert exp_map(TangentVector(base=p, along=0.0, across=0.0), 1.0) == p


def test_exp_map_of_a_step_that_underflows_is_its_base():
    # along / R = 1e-400 is 0 in doubles although the vector is not: the
    # zero-step return of geometry._step, which keeps the base's polar form.
    pole = HPoint(0.0, 0.0, 1e100)
    assert exp_map(TangentVector(pole, 1e-300, 0.0), 1e100) == pole
    base = exp_map(TangentVector(pole, 2e100, 1e100), 1e100)
    landed = exp_map(TangentVector(base, 1e-300, -1e-300), 1e100)
    assert math.dist(landed, base) <= 1e-15 * base.z


def test_exp_map_from_pole_closed_form():
    for s in (0.25, 1.0, 2.5):
        out = exp_map(TangentVector(base=POLE, along=s, across=0.0), 1.0)
        assert out == pytest.approx((math.sinh(s), 0.0, math.cosh(s)), rel=1e-14)
        assert hyperboloid_distance(POLE, out, 1.0) == pytest.approx(s, rel=1e-10)


@pytest.mark.parametrize("radius", [1.0, 2.5])
@pytest.mark.parametrize("rapidity", [1.0, 2.5, 10.0])
def test_exp_of_the_log_to_the_pole_lands_on_it_exactly_from_an_axis(rapidity, radius):
    # Along an axis the step's far side vanishes exactly, the r == 0 return
    # of geometry._step; off an axis the landing is about 1e-16 R away.
    far = radius * math.sinh(rapidity)
    near = radius * math.cosh(rapidity)
    pole = HPoint(0.0, 0.0, radius)
    for p in ((far, 0.0, near), (-far, 0.0, near), (0.0, far, near), (0.0, -far, near)):
        landed = exp_map(log_map(p, pole, radius), radius)
        assert repr(landed) == repr(pole), p  # +0.0, not -0.0


def test_log_map_examples():
    assert log_map(POLE, POLE, 1.0) == (POLE, 0.0, 0.0)
    q = HPoint(math.sinh(1.0), 0.0, math.cosh(1.0))
    assert log_map(POLE, q, 1.0)[1:] == pytest.approx((1.0, 0.0), rel=1e-12)
    # Away from the pole the frame turns with the base: from p on the +y
    # axis, the point farther out on that axis lies along, and the pole
    # straight back.
    p = HPoint(0.0, math.sinh(1.0), math.cosh(1.0))
    q = HPoint(0.0, math.sinh(3.0), math.cosh(3.0))
    assert log_map(p, q, 1.0)[1:] == pytest.approx((2.0, 0.0), rel=1e-12, abs=1e-15)
    assert log_map(p, POLE, 1.0)[1:] == pytest.approx((-1.0, 0.0), rel=1e-12, abs=1e-15)


def test_log_map_norm_equals_distance():
    rng = np.random.default_rng(31)
    for _ in range(100):
        radius = float(rng.choice((0.5, 1.0, 10.0)))
        p = random_sheet_point(rng, radius)
        q = random_sheet_point(rng, radius)
        vec = log_map(p, q, radius)
        assert vec.norm() == pytest.approx(
            hyperboloid_distance(p, q, radius), abs=1e-12 * radius
        )


def test_exp_log_roundtrips():
    rng = np.random.default_rng(32)
    for _ in range(200):
        p = random_sheet_point(rng)
        q = random_sheet_point(rng)
        vec = log_map(p, q, 1.0)
        back = exp_map(vec, 1.0)
        assert max(abs(a - b) for a, b in zip(back, q)) <= 1e-10
        # And the other composition, for small random tangent vectors.
        along, across = rng.uniform(-0.5, 0.5, 2)
        recovered = log_map(p, exp_map(TangentVector(p, along, across), 1.0), 1.0)
        assert recovered[1:] == pytest.approx((along, across), abs=1e-10)


def _far_pairs(seed, count=300, reach=40.0, radius=None):
    # R log-uniform in [0.5, 4] unless given, points out to `reach` R at
    # random headings.
    rng = np.random.default_rng(seed)
    for _ in range(count):
        r = radius or math.exp(rng.uniform(math.log(0.5), math.log(4.0)))
        p, q = (
            HPoint(r * math.sinh(s) * math.cos(h), r * math.sinh(s) * math.sin(h), r * math.cosh(s))
            for s, h in rng.uniform((0.0, 0.0), (reach, 2.0 * math.pi), (2, 2))
        )
        yield p, q, r


@pytest.mark.parametrize("reach, rtol", [(5.0, 5e-15), (40.0, 5e-14)])
def test_log_map_against_mpmath(reach, rtol):
    # From the pole log pushed back to p; the Minkowski projection of q
    # lost 2.4e-13 relative out to 40R and raised on some pairs.
    for p, q, radius in _far_pairs(43, reach=reach):
        want = log_map_highprec(p, q, radius)
        assert math.dist(log_map(p, q, radius)[1:], want) <= rtol * math.hypot(*want)


def test_log_map_near_the_top_of_the_double_range_against_mpmath():
    # r / R = 1.79e308, 710.5 R from the pole: 2 cosh(a) overflowed, and
    # inf * 0 read the along term as nan (NumericalError).  The second
    # pair is 710.6 R apart, where sinh of the distance passes the double
    # range too.  In the base's frame the worst error is 1.9e-16; the
    # ambient vector lost 1.0e-13, the ulp of a = 710.47 kept by cosh(a).
    radius, far = 1e-100, 1.79e208
    near = radius * math.sinh(0.1)
    pairs = [
        ((far, 0.0, far), (0.0, 0.0, radius)),
        (
            (near * math.cos(2.0), near * math.sin(2.0), radius * math.cosh(0.1)),
            (-far * math.cos(2.0), -far * math.sin(2.0), far),
        ),
        ((1.7e208, 3e207, math.hypot(1.7e208, 3e207)), (1e-100, 2e-100, math.sqrt(6.0) * 1e-100)),
    ]
    for p, q in pairs:
        want = log_map_highprec(p, q, radius)
        assert math.dist(log_map(p, q, radius)[1:], want) <= 2e-13 * math.hypot(*want)


def test_exp_map_past_the_overflow_of_sinh_against_mpmath():
    # At R = 1e-100 q is 710.57 R from p, and the step formed sinh of that
    # length before R scaled it down: exp_map raised ValidationError
    # "reaches no finite sheet point" for a point of coordinates 1.79e208.
    # A step that long carries an ulp of 1.1e-13, which e^t keeps as a
    # relative error: 1.9e-14 from the exact vector, 3.0e-13 round trip.
    radius, far = 1e-100, 1.79e208
    near = radius * math.sinh(0.1)
    p = (near * math.cos(2.0), near * math.sin(2.0), radius * math.cosh(0.1))
    q = (-far * math.cos(2.0), -far * math.sin(2.0), far)
    exact = exp_map(TangentVector(p, *log_map_highprec(p, q, radius)), radius)
    assert math.dist(exact, q) <= 3e-13 * far
    assert math.dist(exp_map(log_map(p, q, radius), radius), q) <= 5e-13 * far


def test_log_map_from_past_the_ambient_double_range_against_mpmath():
    # 707.6 R out, the ambient vector to the pole had components near
    # 7e309 and log_map raised NumericalError; its frame components are
    # the distance itself.
    p = (1e307, 0.0, 1e307)
    want = log_map_highprec(p, POLE, 1.0)
    assert want == pytest.approx((-707.5868, 0.0), rel=1e-7)
    got = log_map(p, POLE, 1.0)
    assert math.dist(got[1:], want) <= 1e-15 * math.hypot(*want)


def test_exp_map_endpoint_past_the_double_range_is_an_input_error():
    # cosh(800) overflows: this raised a bare OverflowError ("math range error").
    with pytest.raises(ValidationError, match="no finite sheet point"):
        exp_map(TangentVector(POLE, 800.0, 0.0), 1.0)
    for bad in (math.nan, math.inf, -math.inf):
        for along, across in ((bad, 0.0), (0.0, bad), (bad, bad)):
            with pytest.raises(ValidationError, match="reaches no finite sheet point"):
                exp_map(TangentVector(POLE, along, across), 1.0)
    # exp of log out to 40R: some of these raised OverflowError.
    for p, q, radius in _far_pairs(44):
        landed = exp_map(log_map(p, q, radius), radius)
        assert math.dist(landed, q) <= 1e-13 * max(p[2], q[2])


@pytest.mark.parametrize("radius", [1.0, 2.5])
@pytest.mark.parametrize("reach", [10.0, 20.0, 30.0])
def test_exp_of_the_log_lands_on_q_far_from_the_pole(reach, radius):
    # In ambient form the across component was read back as
    # v_y e_x - v_x e_y, which cancels far out: the landing missed q by up
    # to 1.5e-8, 1.4 and 4.9e9 max(z) out to 10, 20 and 30 R at R = 1.
    for p, q, _ in _far_pairs(45, 100, reach, radius):
        landed = exp_map(log_map(p, q, radius), radius)
        assert math.dist(landed, q) <= 1e-13 * max(p.z, q.z)


def test_exp_map_step_that_overflows_its_kernel_is_an_input_error():
    # A step 1500 R long overflows inside the step kernel, not only in
    # the endpoint it would reach.
    with pytest.raises(ValidationError, match="reaches no finite sheet point"):
        exp_map(TangentVector(POLE, 1500.0, 0.0), 1.0)


# --- barycenter iteration -------------------------------------------------------


def test_karcher_single_particle_exact():
    p = unproject(0.4 - 0.1j, 1.0)
    assert karcher_mean(hyperboloid_system([2.0], [p], 1.0)) == p


def test_karcher_symmetric_pair_at_pole():
    points = [unproject(0.5 + 0j, 1.0), unproject(-0.5 + 0j, 1.0)]
    mean = karcher_mean(hyperboloid_system([1.0, 1.0], points, 1.0))
    assert mean == pytest.approx((0.0, 0.0, 1.0), abs=1e-10)
    d1 = hyperboloid_distance(mean, points[0], 1.0)
    d2 = hyperboloid_distance(mean, points[1], 1.0)
    assert d1 == pytest.approx(d2, abs=1e-10)


def test_karcher_balanced_diametric_pair_matches_com():
    points = [
        unproject(0.5 + 0j, 1.0),
        unproject(-(2.0 - math.sqrt(3.0)) + 0j, 1.0),
    ]
    mean = karcher_mean(hyperboloid_system([1.0, 2.0], points, 1.0))
    assert mean == pytest.approx((0.0, 0.0, 1.0), abs=1e-8)
    com = com_hyperboloid([1.0, 2.0], points, 1.0)
    assert max(abs(a - b) for a, b in zip(mean, com)) <= 1e-8


def test_karcher_two_body_is_the_lever_point():
    rng = np.random.default_rng(33)
    for _ in range(50):
        m1, m2 = rng.uniform(0.2, 5.0, 2)
        w1 = complex(*rng.uniform(-0.6, 0.6, 2))
        w2 = complex(*rng.uniform(-0.6, 0.6, 2))
        if abs(w1 - w2) < 1e-3:
            continue
        system = hyperboloid_system(
            [m1, m2], [unproject(w1, 1.0), unproject(w2, 1.0)], 1.0
        )
        mean_disk = project(karcher_mean(system), 1.0)
        assert abs(lever_residual(m1, w1, m2, w2, mean_disk, 1.0)) <= 1e-8
        segment = geodesic_between(w1, w2, 1.0)
        on_curve = disk_distance(w1, mean_disk, 1.0) + disk_distance(
            mean_disk, w2, 1.0
        )
        assert abs(on_curve - segment.length) <= 1e-8


def test_karcher_rotation_equivariance():
    rng = np.random.default_rng(34)
    for _ in range(25):
        n = int(rng.integers(2, 5))
        masses = rng.uniform(0.2, 5.0, n)
        ws = [complex(*rng.uniform(-0.6, 0.6, 2)) for _ in range(n)]
        angle = float(rng.uniform(0.0, 2.0 * math.pi))
        base = karcher_mean(
            hyperboloid_system(masses, [unproject(w, 1.0) for w in ws], 1.0)
        )
        rotated = karcher_mean(
            hyperboloid_system(
                masses,
                [unproject(rotate_disk(w, angle), 1.0) for w in ws],
                1.0,
            )
        )
        expected = rotate_disk(project(base, 1.0), angle)
        assert abs(project(rotated, 1.0) - expected) <= 1e-9


def test_karcher_converges_on_random_trials():
    # Ball radius atanh(0.9866) ~ 2.5 R caps pairwise spreads right at
    # the documented 5 R window; every trial must converge at default
    # settings.
    rng = np.random.default_rng(36)
    for _ in range(10_000):
        radius = float(rng.choice((0.5, 1.0, 10.0)))
        system = random_system(rng, radius=radius, max_ball=0.9866)
        karcher_mean(system)


def _far_systems(seed):
    # Pairs out to 20R, 100R and 300R at R = 1, 1e-100 and 1e100, ten
    # per cell, then twenty systems of 3 to 5 particles out to 40R at
    # R = 1; distances uniform in [0, reach), masses in [0.1, 10).
    rng = np.random.default_rng(seed)
    shapes = [(2, reach, r) for reach in (20.0, 100.0, 300.0) for r in (1.0, 1e-100, 1e100)
              for _ in range(10)]
    shapes += [(int(rng.integers(3, 6)), 40.0, 1.0) for _ in range(20)]
    for n, reach, r in shapes:
        points = [
            HPoint(r * math.sinh(s) * math.cos(h), r * math.sinh(s) * math.sin(h), r * math.cosh(s))
            for s, h in rng.uniform((0.0, 0.0), (reach, 2.0 * math.pi), (n, 2))
        ]
        yield rng.uniform(0.1, 10.0, n).tolist(), points, r


def test_karcher_far_systems_are_answered_within_the_rounding_floor():
    # Far out the rounding floor of the gradient passes the tolerance
    # karcher.GRADIENT_TOL R; the solver raised ConvergenceError ("stalled") on
    # 40 of the 110 systems of seed 53.  The mpmath gradient norm bounds
    # the distance to the true mean (the Hessian is at least the identity).
    # The other seeds are those of 1 to 60 on which the Newton iteration
    # of a 300R pair ran to the step cap (21 of 1800 pairs), such as the
    # seed-5 pair at 170.7R and 218.7R, headings 172 degrees apart.  A pair
    # is now answered in closed form, out to 20R within a floor of the
    # lever point; farther out a distance over the floor reads 0.
    for seed in (53, 5, 7, 13, 16, 19, 24, 28, 30, 34, 35, 40, 43, 44, 47, 49, 51, 58, 59):
        for index, (masses, points, radius) in enumerate(_far_systems(seed)):
            result = karcher_solve(hyperboloid_system(masses, points, radius))
            floor = sheet_floor([*points, result.point], radius)
            gradient = karcher_gradient_norm_highprec(masses, points, result.point, radius)
            assert gradient <= max(1e-12 * radius, floor)
            if len(masses) == 2:
                assert result.iterations <= 1
            if index < 30:
                want = pair_mean_highprec(masses, points, radius)
                assert sheet_distance_highprec(result.point, want, radius) <= floor


def test_karcher_far_pair_stops_at_the_floor_of_its_iterate():
    # 94.5R and 22.4R out.  A floor read from the farthest particle,
    # R 2^-53 sinh(94.5) = 6e24 R, passes the gradient norm 23R of the
    # Minkowski start, which such a rule returned, 21.6R from the mean.
    # The iteration's own floor is that of its iterate; the solver
    # raised "stalled" here.
    masses = [4.158281159248235, 9.19938368363761]
    points = [
        (-3.8130335147350104e40, -3.9161287737238716e40, 5.465829228660594e40),
        (-32674663.57250493, 2696061103.243044, 2696259094.75697),
    ]
    result = karcher_solve(hyperboloid_system(masses, points, 1.0))
    assert karcher_gradient_norm_highprec(masses, points, result.point, 1.0) <= 1e-9


def _sheet_pairs(seed, reach, radius, count=25):
    # Pairs out to `reach` R at random headings, masses in [0.1, 10).
    rng = np.random.default_rng(seed)
    for _ in range(count):
        points = [
            HPoint(radius * math.sinh(s) * math.cos(h), radius * math.sinh(s) * math.sin(h),
                   radius * math.cosh(s))
            for s, h in rng.uniform((0.0, 0.0), (reach, 2.0 * math.pi), (2, 2))
        ]
        yield rng.uniform(0.1, 10.0, 2).tolist(), points


def test_karcher_pair_is_the_lever_point_against_mpmath():
    # A pair lies on one geodesic, so its barycenter is the lever point
    # m1 d1 = m2 d2, found in closed form and polished by at most one
    # Newton step.  Worst distance from it over the 100 pairs of each
    # reach, in sheet floors: 0.93 at 5R and 0.45 at 20R.  At 100R and
    # 300R the floor of the farthest particle is too coarse to judge the
    # answer (the worst reads 4.6e-8 of it), so there the distance is
    # read against the floor at the mean's own place: worst 15.9 at 100R
    # and 9.74 at 300R.  The heavier particle, an answer that is wrong,
    # reads at least 7.1e5 of that floor where the mean is within 30R of
    # the pole.  The Newton iteration raised ConvergenceError on one pair.
    bounds = {5.0: 1.0, 20.0: 0.5, 100.0: 20.0, 300.0: 20.0}
    for reach, bound in bounds.items():
        for radius in (1.0, 3.0, 1e-100, 1e100):
            for masses, points in _sheet_pairs(int(reach), reach, radius):
                result = karcher_solve(hyperboloid_system(masses, points, radius))
                assert result.iterations <= 1
                want = pair_mean_highprec(masses, points, radius)
                at = [want] if reach > 20.0 else [*points, result.point]
                floor = sheet_floor(at, radius)
                assert sheet_distance_highprec(result.point, want, radius) <= bound * floor


def test_karcher_pair_past_the_closed_form_range_is_answered_by_the_iteration():
    # 720R apart: the log of one particle seen from the other passes the
    # double range, so the closed form from the heavier particle gives no
    # finite gradient and the Newton iteration answers from the middle,
    # where each log is finite.  The mean lies 240R from the heavier
    # particle, at rapidity 120 on the axis.
    points = [HPoint(math.sinh(360.0), 0.0, math.cosh(360.0)),
              HPoint(-math.sinh(360.0), 0.0, math.cosh(360.0))]
    result = karcher_solve(hyperboloid_system([1.0, 2.0], points, 1.0))
    assert result == (HPoint(-6.520904391968161e51, -0.0, 6.520904391968161e51), 1, 0.0)
    assert math.asinh(-result.point.x) == 120.0


@pytest.mark.parametrize("count", [2, 3, 10, 100])
def test_karcher_lifted_line_system_is_its_mean_rapidity_against_mpmath(count):
    # The particles of a lifted line system lie on the x axis, so the
    # barycenter sits at their weighted mean signed rapidity; particles out
    # to 25R on either side.  Measured worst: 0.038 floors, at 2 particles.
    rng = np.random.default_rng(count)
    for radius in (1.0, 3.0, 1e-100, 1e100):
        for _ in range(10):
            arcs = rng.uniform(-25.0, 25.0, count)
            line = line_system(rng.uniform(0.1, 10.0, count), radius * np.tanh(arcs / 2.0), radius)
            system = to_hyperboloid_system(line)
            masses, points = system.masses(), system.positions()
            result = karcher_solve(system)
            assert result.iterations <= 1
            want = line_mean_highprec(masses, points, radius)
            floor = sheet_floor([*points, result.point], radius)
            assert sheet_distance_highprec(result.point, want, radius) <= 0.05 * floor


def test_karcher_step_cap_raises_convergence_error(monkeypatch):
    # This system converges in 3 steps.
    points = [
        (0.0, 0.0, 1.0),
        (math.sinh(2.0), 0.0, math.cosh(2.0)),
        (0.0, math.sinh(3.0), math.cosh(3.0)),
    ]
    system = hyperboloid_system([1.0] * 3, points, 1.0)
    monkeypatch.setattr(karcher, "MAX_STEPS", 1)
    with pytest.raises(ConvergenceError, match=r"did not reach .* within 1 steps") as info:
        karcher.karcher_solve(system)
    assert info.value.iterations == 1
    assert info.value.last_iterate is not None


def test_karcher_settings_validation():
    from hypercom import disk_system

    with pytest.raises(ValidationError):
        karcher_mean(disk_system([1.0], [0.2 + 0j], 1.0))


def test_karcher_masses_near_the_double_range():
    # Three masses of 5e307 (total 1.5e308, finite) overflowed m t^2 and
    # raised NumericalError ("iterate left the sheet", a nan point).
    # The solver now averages in the weights m / M, which stay at most 1.
    from hypercom import karcher_solve

    points = [
        (0.0, 0.0, 1.0),
        (math.sinh(2.0), 0.0, math.cosh(2.0)),
        (0.0, math.sinh(3.0), math.cosh(3.0)),
    ]
    heavy = karcher_solve(hyperboloid_system([5e307] * 3, points, 1.0))
    unit = karcher_solve(hyperboloid_system([1.0] * 3, points, 1.0))
    assert heavy.point == pytest.approx(unit.point, rel=4e-16, abs=0.0)
    gradient = karcher_gradient_norm_highprec([5e307] * 3, points, heavy.point, 1.0)
    assert gradient <= 1e-15


def test_karcher_masses_scaled_by_a_power_of_two_give_the_same_bits():
    # The solver averages in weights m / M, which scaling every mass by a
    # power of two leaves unchanged; these runs differed by 1 ulp in x.
    from hypercom import karcher_solve

    points = [
        (0.0, 0.0, 1.0),
        (math.sinh(2.0), 0.0, math.cosh(2.0)),
        (0.0, math.sinh(3.0), math.cosh(3.0)),
    ]
    unit = karcher_solve(hyperboloid_system([1.0] * 3, points, 1.0))
    for mass in (5e307, 2.0**-1000, 5e-324):
        assert karcher_solve(hyperboloid_system([mass] * 3, points, 1.0)) == unit


def test_karcher_particle_whose_rapidity_passes_the_double_range_fails_numerically():
    # At R = 1e-100 a point at (3.04e208, 0, 3.04e208) is 711 R out:
    # r / R is past the largest double, so its rapidity asinh(r / R)
    # reads inf.  With its mirror the Minkowski start summed inf - inf
    # and raised ValueError ("-inf + inf in fsum").
    from hypercom import karcher_solve

    radius = 1e-100
    far, mirror = (3.04e208, 0.0, 3.04e208), (-3.04e208, 0.0, 3.04e208)
    pole = (0.0, 0.0, radius)
    limit = math.asinh(sys.float_info.max)
    for p in (far, mirror):
        assert sheet_distance_highprec(p, pole, radius) / radius > limit
    for points in ([far, mirror], [pole, far], [far, far]):
        system = hyperboloid_system([1.0, 2.0], points, radius)
        with pytest.raises(NumericalError, match="rapidity passes the double range"):
            karcher_solve(system)
    # Just inside the double range the pair with the pole still solves,
    # and its mean obeys the lever rule m1 d1 = m2 d2.
    near = (1.7e208, 0.0, 1.7e208)
    assert sheet_distance_highprec(near, pole, radius) / radius < limit
    mean = karcher_solve(hyperboloid_system([1.0, 2.0], [near, pole], radius)).point
    assert sheet_distance_highprec(near, mean, radius) == pytest.approx(
        2.0 * sheet_distance_highprec(pole, mean, radius), rel=1e-13
    )


def test_karcher_gradient_that_overflows_fails_numerically():
    # Three particles at R = 1e100, each pair more than 710 R apart: the
    # gradient at an iterate of the Newton loop passes the double range.
    radius = 1e100
    points = [
        (radius * math.sinh(b) * math.cos(h), radius * math.sinh(b) * math.sin(h),
         radius * math.cosh(b))
        for b, h in ((416.4, 0.98), (346.7, 4.34), (412.0, 3.59))
    ]
    for k in range(3):
        assert sheet_distance_highprec(points[k - 1], points[k], radius) / radius > 710.0
    system = hyperboloid_system([4.0, 1.0, 1.0], points, radius)
    with pytest.raises(NumericalError, match=r"^barycenter iterate \(.*\) or its gradient overflows$"):
        karcher_solve(system)


# Three particles at rapidities 682.1, 684.9 and 679.9, headings -0.505,
# -0.470 and -0.102 rad, each pair about 1359 R apart: masses and points.
FAR_TRIPLE_RADIUS = 2.248785983625773e-52
FAR_TRIPLE = [
    (9.980144493487254, (1.6877235372573954e244, -9.338926064519434e243, 1.9288769112097897e244)),
    (7.538424218255, (2.759683485111051e245, -1.4030419439598386e245, 3.095864925106598e245)),
    (5.381716783677549, (2.047606655302281e243, -2.0985667403122044e242, 2.058332538360515e243)),
]


def test_karcher_log_sum_past_the_double_range_fails_numerically():
    # The logs seen from an iterate summed -inf + inf, and math.fsum's
    # ValueError escaped karcher_solve.
    masses, points = zip(*FAR_TRIPLE)
    for k in range(3):
        apart = sheet_distance_highprec(points[k - 1], points[k], FAR_TRIPLE_RADIUS)
        assert apart / FAR_TRIPLE_RADIUS > 1350.0
    system = hyperboloid_system(masses, points, FAR_TRIPLE_RADIUS)
    with pytest.raises(NumericalError, match=r"^barycenter iterate \(.*\) or its gradient overflows$"):
        karcher_solve(system)


@pytest.mark.parametrize("radius", [1.0, 3.0, 1e-100, 1e100])
def test_karcher_start_at_the_pole(radius):
    # Four equal masses 2R from the pole on the axes: the Minkowski mean
    # has no xy part, so the iteration starts at the pole, where it ends.
    far, z = radius * math.sinh(2.0), radius * math.cosh(2.0)
    points = [(far, 0.0, z), (-far, 0.0, z), (0.0, far, z), (0.0, -far, z)]
    result = karcher_solve(hyperboloid_system([1.0] * 4, points, radius))
    assert result.point == (0.0, 0.0, radius)
    assert result.iterations == 0
    assert result.gradient_norm < 1e-12 * radius


def test_every_sheet_reader_fails_numerically_at_a_rapidity_past_the_double_range():
    # The point 711 R out at R = 1e-100 has a rapidity asinh(r / R) that
    # is not a double.  The distance and log map raised the distance's
    # error, and exp_map blamed its valid vector with a ValidationError.
    from hypercom import karcher_solve

    radius = 1e-100
    far, pole = HPoint(3.04e208, 0.0, 3.04e208), HPoint(0.0, 0.0, radius)
    readers = [
        lambda: hyperboloid_distance(far, pole, radius),
        lambda: hyperboloid_distance(pole, far, radius),
        lambda: log_map(far, pole, radius),
        lambda: log_map(pole, far, radius),
        lambda: exp_map(TangentVector(far, radius, 0.0), radius),
        lambda: karcher_solve(hyperboloid_system([1.0, 2.0], [far, pole], radius)),
    ]
    for read in readers:
        with pytest.raises(NumericalError) as raised:
            read()
        assert str(raised.value) == (
            "point (3.04e+208, 0.0, 3.04e+208): its rapidity passes the double range"
        )
    # The zero vector reads no rapidity: it is its base.
    assert exp_map(TangentVector(far, 0.0, 0.0), radius) == far
