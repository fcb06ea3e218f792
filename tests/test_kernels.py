"""Trusted kernels against the validating loops they replace.

The centers, rotation_sweep and karcher_mean skip revalidating what
the system already validated, but keep the arithmetic of the validating
coordinate maps, of the per-angle rebuild and of the public
log_map/exp_map loop; the references in tests/oracles.py are those
paths, so agreement is exact equality, not a tolerance.
"""

import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercom import (
    HPoint,
    NumericalError,
    com_disk,
    com_hyperboloid,
    disk_system,
    hyperboloid_system,
    karcher_mean,
    project,
    rotation_sweep,
    unproject,
)

from oracles import (
    com_disk_reference,
    karcher_gradient_norm_highprec,
    karcher_mean_reference,
    rotation_sweep_reference,
)

RADII = (0.5, 1.0, 10.0)
# Disk radius of a point 2.5 R from the pole: pairwise spreads stay <= 5 R.
HALF_SPREAD = math.tanh(1.25)

unit_disk_points = st.builds(
    lambda r, a: r * cmath.exp(1j * a),
    st.floats(0.0, 0.999),
    st.floats(0.0, 2.0 * math.pi),
)


@st.composite
def disk_systems(draw, reach=0.999):
    radius = draw(st.sampled_from(RADII))
    n = draw(st.integers(1, 20))
    masses = draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n))
    scale = radius * reach / 0.999
    points = draw(st.lists(unit_disk_points, min_size=n, max_size=n))
    return disk_system(masses, [scale * w for w in points], radius)


@st.composite
def hyperboloid_systems(draw):
    disk = draw(disk_systems(reach=HALF_SPREAD))
    points = [unproject(w, disk.radius) for w in disk.positions()]
    return hyperboloid_system(disk.masses(), points, disk.radius)


@settings(max_examples=150, deadline=None)
@given(system=hyperboloid_systems())
def test_centers_equal_validating_coordinate_maps(system):
    radius = system.radius
    masses, points = system.masses(), system.positions()
    disk = disk_system(masses, [project(p, radius) for p in points], radius)
    assert com_disk(disk) == com_disk_reference(disk)
    expected = unproject(com_disk_reference(disk).center, radius)
    if len(points) == 1:
        expected = points[0]
    assert com_hyperboloid(masses, points, radius) == expected


@settings(max_examples=150, deadline=None)
@given(
    system=disk_systems(),
    angles=st.one_of(
        st.none(), st.lists(st.floats(-7.0, 7.0), min_size=1, max_size=8)
    ),
)
def test_rotation_sweep_equals_per_angle_rebuild(system, angles):
    assert rotation_sweep(system, angles) == rotation_sweep_reference(system, angles)


@settings(max_examples=150, deadline=None)
@given(system=hyperboloid_systems())
def test_karcher_mean_equals_public_map_loop(system):
    assert karcher_mean(system) == karcher_mean_reference(system)


@pytest.mark.parametrize("spread", [12.0, 15.0, 25.0, 40.0])
def test_karcher_far_pair_converges_or_fails_numerically(spread):
    # In double precision the damped iteration cannot place every such
    # mean; when it fails, the failure is the solver's, never the input's.
    points = [
        HPoint(0.0, 0.0, 1.0),
        HPoint(math.sinh(spread), 0.0, math.cosh(spread)),
    ]
    system = hyperboloid_system([1.0, 2.0], points, 1.0)
    try:
        mean = karcher_mean(system)
    except NumericalError:
        return
    gradient = karcher_gradient_norm_highprec([1.0, 2.0], points, mean, 1.0)
    assert gradient <= 1e-10 * max(1.0, mean.z)
