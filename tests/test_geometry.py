"""Projection, distance, arclength and geodesic behavior of hypercom.geometry."""

import cmath
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercom import (
    GeodesicSegment,
    HPoint,
    NumericalError,
    ValidationError,
    arc_between,
    arclength_from_pole,
    com_disk,
    disk_distance,
    disk_system,
    geodesic_between,
    hpoint,
    hyperboloid_distance,
    hyperboloid_system,
    lever_point,
    line_system,
    log_map,
    log_ratio,
    lpoint,
    mirror_pair,
    project,
    project_line,
    rotate_disk,
    unproject,
    unproject_line,
)

from oracles import (
    arclength_quadrature,
    disk_distance_asinh_highprec,
    disk_distance_highprec,
    sheet_distance_highprec,
    unproject_highprec,
)

RADII = (0.5, 1.0, 10.0)
EPS = 2.0**-52


def polar_hpoint(arc, angle, radius):
    # Point at geodesic distance `arc` from the pole, sampled directly on
    # the sheet (independent of unproject).
    t = arc / radius
    return HPoint(
        radius * math.sinh(t) * math.cos(angle),
        radius * math.sinh(t) * math.sin(angle),
        radius * math.cosh(t),
    )


disk_points = st.builds(
    lambda r, a: r * cmath.exp(1j * a),
    st.floats(0.0, 0.995),
    st.floats(0.0, 2.0 * math.pi),
)


# --- projection pair ---------------------------------------------------------


def test_pole_projects_to_origin():
    assert project(HPoint(0.0, 0.0, 1.0), 1.0) == 0j
    assert unproject(0j, 1.0) == HPoint(0.0, 0.0, 1.0)


def test_project_known_points():
    # Forward images of the lifted points 0.3+0.4i and 0.5.
    p = unproject(0.3 + 0.4j, 1.0)
    assert p == pytest.approx((0.8, 16.0 / 15.0, 5.0 / 3.0), rel=1e-14)
    assert p.x * p.x + p.y * p.y - p.z * p.z == pytest.approx(-1.0, rel=1e-12)
    assert project(p, 1.0) == pytest.approx(0.3 + 0.4j, rel=1e-14)

    q = unproject(0.5 + 0j, 1.0)
    assert q == pytest.approx((4.0 / 3.0, 0.0, 5.0 / 3.0), rel=1e-14)
    assert project(q, 1.0) == pytest.approx(0.5 + 0j, rel=1e-14)


def test_unproject_rejects_boundary():
    with pytest.raises(ValidationError):
        unproject(1.0 + 0j, 1.0)
    with pytest.raises(ValidationError):
        unproject(0.999999999999999, 1.0)
    with pytest.raises(ValidationError):
        unproject(3.0 + 0j, 2.0)


def test_project_rejects_off_surface_points():
    with pytest.raises(ValidationError):
        project((0.0, 0.0, 2.0), 1.0)
    with pytest.raises(ValidationError):
        project((1.0, 1.0, -math.sqrt(3.0)), 1.0)
    with pytest.raises(ValidationError):
        hpoint(0.1, 0.1, 1.0, 1.0)


@pytest.mark.parametrize(
    "coords", [(math.nan, 0.0, 5.0), (math.inf, 0.0, 5.0), (0.0, 0.0, math.inf),
               (0.0, math.nan, 1.0), (1e200, 0.0, 5.0), (1e200, 1e200, 1e200)]
)
def test_hpoint_rejects_non_finite_and_overflowing_points(coords):
    # Before, a NaN residual or inf - inf compared false against the
    # tolerance and these came back as points.
    with pytest.raises(ValidationError, match="not on the upper sheet"):
        hpoint(*coords, 1.0)


@pytest.mark.parametrize("coords", [(math.nan, 2.0), (math.inf, 2.0), (2.0, math.nan),
                                    (1e200, 5.0), (-math.inf, math.inf)])
def test_lpoint_rejects_non_finite_and_overflowing_points(coords):
    with pytest.raises(ValidationError, match="not on the upper branch"):
        lpoint(*coords, 1.0)


@pytest.mark.parametrize("radius", RADII)
def test_points_whose_squares_overflow_are_judged_relatively(radius):
    # 460R from the pole the coordinates near 1e199 R have squares beyond
    # the double range; the point divided by its largest coordinate
    # still satisfies the quadric.
    p = polar_hpoint(460.0 * radius, 0.7, radius)
    assert hpoint(*p, radius) == p
    assert lpoint(radius * math.sinh(460.0), radius * math.cosh(460.0), radius)
    with pytest.raises(ValidationError):
        hpoint(p.x, p.y, 0.5 * p.z, radius)


def test_line_projection_pair():
    assert project_line((0.0, 1.0), 1.0) == 0.0
    assert unproject_line(0.5, 1.0) == pytest.approx((4.0 / 3.0, 5.0 / 3.0), rel=1e-14)
    u = -0.9
    assert project_line(unproject_line(u, 1.0), 1.0) == pytest.approx(u, rel=1e-13)
    with pytest.raises(ValidationError):
        unproject_line(1.0, 1.0)
    with pytest.raises(ValidationError):
        lpoint(0.5, 0.9, 1.0)


@settings(max_examples=200, deadline=None)
@given(
    u=st.floats(-0.999, 0.999),
    t=st.floats(-460.0, 460.0),
    radius=st.sampled_from(RADII),
)
def test_line_maps_are_the_sheet_maps_at_y_zero(u, t, radius):
    # The 1D model is the y = 0 section of the sheet: its lift and its
    # projection are the sheet's, bit for bit.
    u *= radius
    lift = unproject(u, radius)
    assert unproject_line(u, radius) == (lift.x, lift.z)
    x, y = radius * math.sinh(t), radius * math.cosh(t)
    assert project_line((x, y), radius) == project((x, 0.0, y), radius).real


SPECIAL_COORDS = (math.nan, math.inf, -math.inf, 0.0, 1e200, -1e200, 1.7e308)


def _accepted(construct, *args):
    try:
        construct(*args)
    except ValidationError:
        return False
    return True


@settings(max_examples=300, deadline=None)
@given(
    coords=st.one_of(
        st.builds(
            lambda t, stretch: (math.sinh(t), stretch * math.cosh(t)),
            st.floats(-460.0, 460.0),
            st.sampled_from((1.0, 1.0 + 1e-10, 1.0 + 1e-8, -1.0)),
        ),
        st.tuples(
            st.one_of(st.floats(), st.sampled_from(SPECIAL_COORDS)),
            st.one_of(st.floats(), st.sampled_from(SPECIAL_COORDS)),
        ),
    ),
    radius=st.sampled_from(RADII),
)
def test_lpoint_accepts_exactly_what_hpoint_accepts_at_y_zero(coords, radius):
    x, y = radius * coords[0], radius * coords[1]
    assert _accepted(lpoint, x, y, radius) == _accepted(hpoint, x, 0.0, y, radius)


HUGE = complex(1.7e308, 1.7e308)  # finite, but its modulus overflows


@pytest.mark.parametrize(
    "call",
    [
        lambda: unproject(HUGE, 1.0),
        lambda: disk_distance(HUGE, 0.0, 1.0),
        lambda: geodesic_between(0.0, HUGE, 1.0),
        lambda: log_ratio(HUGE, 1.0),
        lambda: disk_system([1.0, 2.0], [0.1, HUGE], 1.0),
        lambda: mirror_pair(1.0, HUGE, 1.0),
        lambda: lever_point(1.0, 0.5, 2.0, HUGE, 1.0),
        lambda: lever_point(1.0, HUGE, 2.0, 0.5, 1.0),
    ],
    ids=["unproject", "disk_distance", "geodesic_between", "log_ratio",
         "disk_system", "mirror_pair", "lever_point_p2", "lever_point_p1"],
)
def test_disk_point_with_overflowing_modulus_is_outside(call):
    # Before, abs(w) raised OverflowError("absolute value too large").
    with pytest.raises(ValidationError, match="not inside the disk"):
        call()


@pytest.mark.parametrize("radius", [1e-100, 1e100])
def test_radius_domain_edges_are_accepted(radius):
    p = hpoint(radius * math.sinh(1.0), 0.0, radius * math.cosh(1.0), radius)
    w = project(p, radius)
    assert w == pytest.approx(radius * math.tanh(0.5), rel=1e-15)
    assert unproject(w, radius) == pytest.approx(p, rel=1e-14)
    assert disk_distance(0.0, w, radius) == pytest.approx(radius, rel=1e-14)
    com = com_disk(disk_system([1.0, 1.0], [w, -w], radius))
    assert abs(com.center) <= 1e-15 * radius
    assert arclength_from_pole(w.real, radius) == pytest.approx(radius, rel=1e-14)


@pytest.mark.parametrize("radius", [1e-101, 1e101, 1e-200, 1e103])
def test_radius_outside_domain_is_rejected(radius):
    # R^3 must stay a normal double; at 1e103 the models returned
    # Infinity and NaN, at 1e-200 they divided by zero.
    calls = [
        lambda: hpoint(0.0, 0.0, radius, radius),
        lambda: unproject(0.5 * radius, radius),
        lambda: line_system([1.0], [0.5 * radius], radius),
        lambda: disk_system([1.0], [0.5 * radius], radius),
        lambda: hyperboloid_system([1.0], [(0.0, 0.0, radius)], radius),
    ]
    for call in calls:
        with pytest.raises(ValidationError, match="outside"):
            call()


@settings(max_examples=200, deadline=None)
@given(w=disk_points, radius=st.sampled_from(RADII))
def test_disk_roundtrip_property(w, radius):
    w = w * radius
    back = project(unproject(w, radius), radius)
    assert abs(back - w) <= 1e-12 * radius


@settings(max_examples=200, deadline=None)
@given(
    arc=st.floats(0.0, 8.0),
    angle=st.floats(0.0, 2.0 * math.pi),
    radius=st.sampled_from(RADII),
)
def test_hyperboloid_roundtrip_property(arc, angle, radius):
    p = polar_hpoint(arc * radius, angle, radius)
    back = unproject(project(p, radius), radius)
    scale = max(abs(c) for c in p)
    assert max(abs(a - b) for a, b in zip(p, back)) <= 1e-12 * scale


def test_meridian_property():
    # Points on a line through the origin lift into the plane spanned by
    # that direction and the z axis.
    rng = np.random.default_rng(7)
    for _ in range(300):
        angle = rng.uniform(0.0, 2.0 * math.pi)
        t = rng.uniform(-0.995, 0.995)
        radius = float(rng.choice(RADII))
        p = unproject(t * radius * cmath.exp(1j * angle), radius)
        normal = abs(p.x * math.sin(angle) - p.y * math.cos(angle))
        assert normal <= 1e-12 * (abs(p.x) + abs(p.y) + radius)


def test_parallel_property():
    # Constant |w| lifts to constant z.
    rng = np.random.default_rng(8)
    for radius in RADII:
        for t in (0.1, 0.5, 0.9, 0.999):
            zs = [
                unproject(t * radius * cmath.exp(1j * a), radius).z
                for a in rng.uniform(0.0, 2.0 * math.pi, size=32)
            ]
            assert max(zs) - min(zs) <= 1e-12 * max(zs)


# --- distances ---------------------------------------------------------------


def test_distance_matches_quadrature():
    pole = HPoint(0.0, 0.0, 1.0)
    for u, expect in ((0.5, math.log(3.0)), (0.9, math.log(19.0))):
        oracle = arclength_quadrature(0.0, u, 1.0)
        assert oracle == pytest.approx(expect, abs=1e-13)
        d = hyperboloid_distance(pole, unproject(u, 1.0), 1.0)
        assert d == pytest.approx(oracle, abs=1e-12)
    assert hyperboloid_distance(pole, pole, 1.0) == 0.0


def test_disk_distance_is_pullback_and_rotation_invariant():
    # The disk distance is computed in the disk, no longer through the
    # lifts: it is held to mpmath (worst 3.5e-16 relative here) and to
    # the sheet distance of the lifts within that kernel's rounding.
    rng = np.random.default_rng(9)
    for _ in range(200):
        radius = float(rng.choice(RADII))
        w1 = complex(*rng.uniform(-0.7, 0.7, 2)) * radius
        w2 = complex(*rng.uniform(-0.7, 0.7, 2)) * radius
        d = disk_distance(w1, w2, radius)
        assert abs(d - disk_distance_highprec(w1, w2, radius)) <= 1e-15 * d
        lifted = hyperboloid_distance(
            unproject(w1, radius), unproject(w2, radius), radius
        )
        assert abs(d - lifted) <= 1e-13 * d
        rotated = disk_distance(
            rotate_disk(w1, 0.7), rotate_disk(w2, 0.7), radius
        )
        assert abs(rotated - d) <= 1e-12 * max(1.0, radius)
    assert disk_distance(0.25j, 0.25j, 1.0) == 0.0


def test_disk_distance_of_close_points_holds_at_every_radius():
    # R |w1 - w2| underflowed at R = 1e-100: from separations of 1e-109 R
    # down the distance lost digits, and 3e-101 to 3e-101 + 1e-224i read
    # 0.0.  Against the asinh form at 50 digits (the acosh oracle reads 0
    # there) on bases 0, 0.3 R and 0.9 R off the axis, wherever the
    # separation is a normal double.
    assert disk_distance(3e-101, 3e-101 + 1e-224j, 1e-100) == pytest.approx(
        2.1978021978021978e-224, rel=2.3e-16
    )
    for radius in (1e-100, 1.0, 3.0, 1e100):
        for k in range(20, 301):
            for c in (0.0, 0.3, 0.9):
                a = c * radius * cmath.exp(0.7j)
                b = a + 10.0**-k * radius * cmath.exp(1.1j)
                if min(abs((b - a).real), abs((b - a).imag)) < sys.float_info.min:
                    continue
                want = disk_distance_asinh_highprec(a, b, radius)
                assert abs(disk_distance(a, b, radius) - want) <= 1e-15 * want


def test_distance_consistent_with_pole_arclength():
    assert disk_distance(0j, 0.5 + 0j, 1.0) == pytest.approx(
        math.log(3.0), abs=1e-12
    )
    rng = np.random.default_rng(10)
    for _ in range(500):
        radius = float(rng.choice(RADII))
        u = float(rng.uniform(-0.999, 0.999)) * radius
        d = disk_distance(0j, complex(u, 0.0), radius)
        assert abs(d - abs(arclength_from_pole(u, radius))) <= 1e-10


def test_distance_accurate_for_nearby_points():
    # The difference form keeps tiny separations accurate to O(eps),
    # where the raw acosh argument would quantize at sqrt(eps).
    for u in (1e-8, 1e-6, 1e-4):
        d = disk_distance(0j, complex(u, 0.0), 1.0)
        assert d == pytest.approx(arclength_from_pole(u, 1.0), rel=1e-12)


def test_sheet_distance_far_out_against_mpmath():
    # The Minkowski gap of both points cancels here: this read 0.0.
    p = HPoint(math.sinh(35.0), 0.0, math.cosh(35.0))
    q = HPoint(math.sinh(23.3), 0.0, math.cosh(23.3))
    want = sheet_distance_highprec(p, q, 1.0)
    assert want == pytest.approx(11.7, abs=1e-9)
    assert abs(hyperboloid_distance(p, q, 1.0) - want) <= 1e-15 * want


def test_sheet_distance_past_the_double_range_is_a_numerical_error():
    # sinh^2(d / 2R) passes the double range beyond about 710 R: the
    # distance of this pair read inf and its log map (nan, nan, nan).
    radius = 1e-100
    p = (1.7e208, 0.0, 1.7e208)
    q = (1.6e208, 1e207, 1.6031219541881398e208)
    assert sheet_distance_highprec(p, q, radius) == pytest.approx(1413.85 * radius, rel=1e-5)
    with pytest.raises(NumericalError, match="double range"):
        hyperboloid_distance(p, q, radius)
    with pytest.raises(NumericalError, match="double range"):
        log_map(p, q, radius)
    # 700 R across the pole is still inside the domain.
    p, q = ((0.0, sign * math.sinh(350.0), math.cosh(350.0)) for sign in (-1.0, 1.0))
    assert hyperboloid_distance(p, q, 1.0) == pytest.approx(700.0, rel=1e-15)


def _sheet_pairs(seed, count, reach, angle=None):
    # R log-uniform in [0.5, 4]; points out to `reach` R, at random
    # headings or all on the ray at `angle`.
    rng = np.random.default_rng(seed)
    for _ in range(count):
        radius = math.exp(rng.uniform(math.log(0.5), math.log(4.0)))
        lo = 0.0 if angle is None else 20.0
        p, q = (
            polar_hpoint(
                radius * rng.uniform(lo, reach),
                rng.uniform(0.0, 2.0 * math.pi) if angle is None else angle,
                radius,
            )
            for _ in range(2)
        )
        yield p, q, radius


@pytest.mark.parametrize(
    "reach, angle, rtol, floors",
    [
        (5.0, None, 2e-15, math.inf),
        (40.0, None, 2e-15, math.inf),
        (40.0, 0.0, 1e-13, math.inf),
        (40.0, 0.7, math.inf, 1.0),
        (40.0, 0.5 * math.pi, 1e-12, math.inf),
    ],
    ids=["random-5R", "random-40R", "ray-x", "ray-0.7", "ray-y"],
)
def test_sheet_distance_against_mpmath(reach, angle, rtol, floors):
    # From rapidity and heading.  The Minkowski gap read 0.0 on nearly
    # every same-ray pair and raised NumericalError on most at angle
    # 0.7; the band form lost all digits on the y axis.  Off the axes a
    # double fixes a far point only to 2.2e-16 max(z_p, z_q): the floor.
    count = 300 if angle is None else 200
    for p, q, radius in _sheet_pairs(41, count, reach, angle):
        want = sheet_distance_highprec(p, q, radius)
        err = abs(hyperboloid_distance(p, q, radius) - want)
        assert err <= rtol * want
        assert err <= floors * 2.2e-16 * max(p.z, q.z)


def test_triangle_inequality():
    rng = np.random.default_rng(11)
    for _ in range(200):
        a, b, c = (complex(*rng.uniform(-0.6, 0.6, 2)) for _ in range(3))
        assert disk_distance(a, c, 1.0) <= disk_distance(a, b, 1.0) + disk_distance(
            b, c, 1.0
        ) + 1e-12


def _same_ray(rng, gap, angle, radius):
    # |w| = R (1 - delta), delta uniform in [gap / 100, gap].
    return radius * (1.0 - gap * rng.uniform(0.01, 1.0)) * cmath.exp(1j * angle)


@pytest.mark.parametrize("gap", [1e-6, 1e-8])
@pytest.mark.parametrize("angle", [0.0, 0.7])
def test_disk_distance_same_ray_near_the_rim(gap, angle):
    # Through the lift these lost everything: relative errors up to 15
    # and 31 at 1e-8, and NumericalError on most pairs off the axis.
    rng = np.random.default_rng(12)
    for _ in range(100):
        radius = float(rng.choice(RADII))
        w1, w2 = (_same_ray(rng, gap, angle, radius) for _ in range(2))
        if w1 == w2:
            continue
        want = disk_distance_highprec(w1, w2, radius)
        assert abs(disk_distance(w1, w2, radius) - want) <= 1e-15 * want


@pytest.mark.parametrize("radius", [1e-100, 1.0, 1e100])
def test_geodesic_from_a_near_rim_start_keeps_constant_speed(radius):
    # Evaluated from a start 1e-8 R from the rim, points back toward the
    # pole left the sheet (ValidationError from project).
    rng = np.random.default_rng(13)
    for _ in range(20):
        start = _same_ray(rng, 1e-8, rng.uniform(0.0, 2.0 * math.pi), radius)
        end = radius * complex(*rng.uniform(-0.99, 0.99, 2)) / math.sqrt(2.0)
        seg = geodesic_between(start, end, radius)
        for t in np.linspace(0.0, 1.0, 11):
            c = seg.point(float(t))
            along = disk_distance_highprec(start, c, radius)
            # Moving c by 4 ulps of R moves it this far along the curve.
            floor = 8.0 * EPS * radius**3 / ((radius - abs(c)) * (radius + abs(c)))
            assert abs(along - t * seg.length) <= 1e-13 * max(seg.length, radius) + floor


# --- arclengths ---------------------------------------------------------------


def test_arclength_examples_against_quadrature():
    assert arclength_from_pole(0.0, 1.0) == 0.0
    assert arclength_from_pole(0.5, 1.0) == pytest.approx(
        arclength_quadrature(0.0, 0.5, 1.0), abs=1e-13
    )
    assert arclength_from_pole(1.0, 2.0) == pytest.approx(
        2.0 * math.log(3.0), rel=1e-15
    )
    assert arclength_from_pole(1.0, 2.0) == pytest.approx(
        arclength_quadrature(0.0, 1.0, 2.0), abs=1e-13
    )


def test_arclength_odd_and_increasing():
    us = np.linspace(-0.95, 0.95, 41)
    values = [arclength_from_pole(float(u), 1.0) for u in us]
    for u, s in zip(us, values):
        assert s == pytest.approx(-arclength_from_pole(float(-u), 1.0), rel=1e-14)
    assert all(a < b for a, b in zip(values, values[1:]))
    with pytest.raises(ValidationError):
        arclength_from_pole(1.0, 1.0)


def test_arc_between():
    assert arc_between(0.3, 0.3, 1.0) == 0.0
    assert arc_between(0.0, 0.5, 1.0) == pytest.approx(
        arclength_quadrature(0.0, 0.5, 1.0), abs=1e-13
    )
    assert arc_between(0.2, 0.7, 1.0) == pytest.approx(
        arclength_quadrature(0.2, 0.7, 1.0), abs=1e-13
    )
    assert arc_between(0.2, 0.7, 1.0) == -arc_between(0.7, 0.2, 1.0)
    # Additivity along the diameter.
    total = arc_between(-0.4, 0.1, 1.0) + arc_between(0.1, 0.8, 1.0)
    assert total == pytest.approx(arc_between(-0.4, 0.8, 1.0), abs=1e-12)


# --- geodesics ----------------------------------------------------------------


def test_geodesic_through_origin_stays_on_diameter():
    seg = geodesic_between(0j, 0.5 + 0j, 1.0)
    for t in np.linspace(0.0, 1.0, 9):
        w = seg.point(float(t))
        assert abs(w.imag) <= 1e-15
    assert abs(seg.point(0.0) - 0j) <= 1e-15
    assert abs(seg.point(1.0) - 0.5) <= 1e-14


def test_geodesic_symmetric_midpoint():
    seg = geodesic_between(0.5 + 0j, -0.5 + 0j, 1.0)
    assert abs(seg.point(0.5)) <= 1e-14


def test_geodesic_midpoint_equidistant():
    a, b = 0.3j, 0.4 + 0j
    seg = geodesic_between(a, b, 1.0)
    mid = seg.point(0.5)
    d_total = disk_distance(a, b, 1.0)
    assert disk_distance(a, mid, 1.0) == pytest.approx(d_total / 2.0, abs=1e-12)
    assert disk_distance(mid, b, 1.0) == pytest.approx(d_total / 2.0, abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(
    a=disk_points,
    b=disk_points,
    t=st.floats(0.0, 1.0),
    radius=st.sampled_from(RADII),
)
def test_geodesic_constant_speed_and_additivity(a, b, t, radius):
    a, b = a * radius, b * radius
    if abs(a - b) < 1e-6 * radius:
        return
    seg = geodesic_between(a, b, radius)
    c = seg.point(t)
    da = disk_distance(a, c, radius)
    db = disk_distance(c, b, radius)
    assert abs(da - t * seg.length) <= 1e-9 * max(1.0, seg.length)
    assert abs(da + db - seg.length) <= 1e-9 * max(1.0, seg.length)


def test_geodesic_degenerate_raises():
    with pytest.raises(ValidationError):
        geodesic_between(0.25 + 0.25j, 0.25 + 0.25j, 1.0)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, 20.0, -0.5, 1.0 + 1e-15])
def test_geodesic_point_off_the_segment_raises(t):
    # point(nan) was nan+nanj, and point(20) a point outside the disk.
    seg = geodesic_between(0.5, -0.3 + 0.2j, 1.0)
    with pytest.raises(ValidationError, match=r"geodesic parameter must be in \[0, 1\]"):
        seg.point(t)


def test_geodesic_segment_fields():
    seg = geodesic_between(0.1 + 0j, 0.2 + 0j, 1.0)
    assert isinstance(seg, GeodesicSegment)
    assert seg.length == pytest.approx(
        arc_between(0.1, 0.2, 1.0), rel=1e-12
    )


# --- rotations ----------------------------------------------------------------


def test_rotation_examples():
    assert rotate_disk(0.37 - 0.2j, 0.0) == 0.37 - 0.2j
    assert rotate_disk(0.5, math.pi) == pytest.approx(-0.5 + 0j, abs=1e-16)
    assert rotate_disk(0.3 + 0.4j, math.pi / 2.0) == pytest.approx(
        -0.4 + 0.3j, abs=1e-16
    )


@settings(max_examples=150, deadline=None)
@given(w=disk_points, angle=st.floats(-7.0, 7.0))
def test_rotation_preserves_modulus(w, angle):
    assert abs(abs(rotate_disk(w, angle)) - abs(w)) <= 1e-15


def test_rotation_is_isometry():
    rng = np.random.default_rng(12)
    for _ in range(300):
        w1 = complex(*rng.uniform(-0.7, 0.7, 2))
        w2 = complex(*rng.uniform(-0.7, 0.7, 2))
        angle = float(rng.uniform(0.0, 2.0 * math.pi))
        d0 = disk_distance(w1, w2, 1.0)
        d1 = disk_distance(rotate_disk(w1, angle), rotate_disk(w2, angle), 1.0)
        assert abs(d0 - d1) <= 1e-12


@pytest.mark.parametrize("radius", [1.0, 3.7, 1e-50, 1e50])
@pytest.mark.parametrize("gap", [1e-8, 1e-11])
def test_unproject_near_the_rim_matches_the_oracle(radius, gap):
    # R^2 - |w|^2 formed as rr - ww lost about 1e-16 / gap relative:
    # 0.99999999 e^(0.7i) at R = 1 was off by 1.9e-9.
    w = (1.0 - gap) * radius * cmath.exp(0.7j)
    lifted = unproject(w, radius)
    for got, want in zip(lifted, unproject_highprec(w, radius)):
        assert abs(got - want) <= 1e-15 * abs(want)
