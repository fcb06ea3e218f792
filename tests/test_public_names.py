"""The package's public names: each is defined once, in its own module.

``hypercom`` re-exports the names its modules declare public, and
``from hypercom import *`` binds exactly those.
"""

import sys
import types

import hypercom
from hypercom import barycenter

PUBLIC = [
    "BalanceVerdict", "CenterOfMass", "ConvergenceError", "DISK", "GeodesicSegment",
    "HPoint", "HYPERBOLOID", "KarcherResult", "LINE", "LPoint", "MassedSystem",
    "NumericalError", "Particle", "RotationSample", "RotationSweep", "TangentVector",
    "TwoBodyEquilibrium", "ValidationError", "arc_between", "arclength_from_pole",
    "balance_radius", "classify_balance", "com_disk", "com_euclidean", "com_hyperboloid",
    "com_line", "diametric_system", "disk_distance", "disk_system", "euclidean_limit_error",
    "eulerian_triple", "exp_map", "geodesic_between", "hpoint",
    "hyperboloid_distance", "hyperboloid_system", "karcher_mean", "karcher_solve",
    "lagrangian_triple", "lever_point", "lever_residual", "line_system", "log_map",
    "log_ratio", "log_ratio_inv", "lpoint", "mirror_pair", "project",
    "project_line", "rotate_disk", "rotation_sweep", "to_disk_system",
    "to_hyperboloid_system", "uniform_angles", "unproject", "unproject_line",
]


def test_the_package_declares_each_public_name_once():
    assert len(PUBLIC) == 56
    assert sorted(hypercom.__all__) == PUBLIC
    assert len(set(hypercom.__all__)) == len(hypercom.__all__)


def test_the_public_bindings_are_the_declared_names():
    bound = {
        name
        for name, value in vars(hypercom).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(bound) == PUBLIC


def test_a_star_import_binds_the_declared_names():
    names = {}
    exec("from hypercom import *", names)
    del names["__builtins__"]
    assert sorted(names) == PUBLIC
    assert all(value is getattr(hypercom, name) for name, value in names.items())


def test_each_public_name_is_the_object_its_module_defines():
    tags = [name for name in PUBLIC if isinstance(getattr(hypercom, name), str)]
    assert tags == ["DISK", "HYPERBOLOID", "LINE"]
    for name in tags:
        assert getattr(hypercom, name) is getattr(barycenter, name)
    for name in set(PUBLIC) - set(tags):
        value = getattr(hypercom, name)
        assert value.__module__.startswith("hypercom."), name
        assert getattr(sys.modules[value.__module__], name) is value, name
