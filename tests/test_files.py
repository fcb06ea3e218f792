"""System files: the system read_system_text builds, and the digest load_system reports."""

import gc
import hashlib
import importlib.util
import json
import math
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercom import (
    NumericalError,
    ValidationError,
    disk_system,
    files,
    hyperboloid_system,
    line_system,
)

# The built-in sha256 modules, in the order files tries them.
BUILTIN_SHA256 = [name for name in ("_sha2", "_sha256") if importlib.util.find_spec(name)]


@pytest.mark.parametrize("size", [0, 1, 55, 56, 64, 1000, 3 * 2**19 + 7])
def test_sha256_equals_hashlib(size):
    data = random.Random(size).randbytes(size)
    assert files.sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()


def test_load_system_reports_the_sha256_of_a_file_over_a_megabyte(tmp_path):
    document = json.dumps(
        {"radius": 1.0, "model": "disk", "particles": [{"mass": 1.0, "coords": [0.5, 0.0]}]}
    )
    padding = "".join(random.Random(1).choices(" \t\n\r", k=2**20 + 3))
    data = (document + padding).encode("utf-8")
    path = tmp_path / "padded.json"
    path.write_bytes(data)
    system, digest = files.load_system(path)
    assert system.position_column == (0.5 + 0j,)
    assert digest == hashlib.sha256(data).hexdigest()


@pytest.mark.skipif(
    not BUILTIN_SHA256,
    reason="neither _sha2 nor _sha256 imports here: files digests through hashlib",
)
def test_importing_the_cli_leaves_the_openssl_binding_out():
    # import _hashlib, which hashlib does, adds about 3.5 MB of resident memory.
    done = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, hypercom.cli, hypercom.files as f; "
            "print(f.sha256.__module__, '_hashlib' in sys.modules)",
        ],
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [BUILTIN_SHA256[0], "False"]


def _document(model, radius, particles):
    return json.dumps(
        {
            "radius": radius,
            "model": model,
            "particles": [{"mass": m, "coords": c} for m, c in particles],
        }
    )


@pytest.mark.parametrize(
    "model, build, coords, positions",
    [
        ("line", line_system, [[1], [-1.5]], [1, -1.5]),
        ("disk", disk_system, [[0, 1], [0.25, -0.5]], [1j, 0.25 - 0.5j]),
        ("hyperboloid", hyperboloid_system, [[0, 0, 2], [1, 2, 3]], [(0, 0, 2), (1, 2, 3)]),
    ],
)
def test_a_system_file_reads_to_the_builders_system(model, build, coords, positions):
    # Integer numbers are stored as floats and sheet points as HPoints, as
    # the builder stores them; repr tells 1 from 1.0 and an HPoint from a tuple.
    system = files.read_system_text(_document(model, 2, [(1, coords[0]), (2.5, coords[1])]))
    expected = build([1, 2.5], positions, 2)
    assert system == expected
    assert repr(system) == repr(expected)


@pytest.mark.parametrize(
    "model, radius, particles, message",
    [
        ("disk", 0, [(1, [0.5, 0]), (-1, [2, 0])],
         "curvature radius must be positive and finite, got 0.0"),
        ("disk", 1, [(1, [0.5, 0]), (-1, [2, 0]), (1, [0.1, 0])],
         "mass must be positive and finite, got -1.0"),
        ("disk", 1, [(1, [0.5, 0]), (1, [2, 0]), (-1, [0.1, 0])],
         "point (2+0j) is not inside the disk of radius 1.0"),
        ("line", 2, [(2, [1]), (1, [-2]), (0, [1])],
         "coordinate -2.0 is not inside the interval (-2.0, 2.0)"),
        ("hyperboloid", 1, [(1, [0, 0, 1]), (1, [0, 0, 2]), (0, [0, 0, 1])],
         "point (0.0, 0.0, 2.0) is not on the upper sheet for radius 1.0"),
        # Each number is named by where it sits in the file.
        ("disk", "1", [(1, [0.5, 0])], "radius must be a number, got '1'"),
        ("disk", 1, [(1, [0.5, 0]), ("2", [0.1, 0])], "particles[1].mass must be a number, got '2'"),
        ("disk", 1, [(1, [0.5, True])], "particles[0].coords[1] must be a number, got True"),
        ("line", 1, [(1, [0.5]), (1, [0.1]), (1, [10**400])],
         "particles[2].coords[0] is outside the double range"),
        ("line", 1, [(1, [0.5]), (1, [0.1, 0.2])],
         "particles[1].coords must be a list of 1 numbers for model 'line'"),
    ],
)
def test_a_system_file_raises_its_first_error(model, radius, particles, message):
    with pytest.raises(ValidationError) as caught:
        files.read_system_text(_document(model, radius, particles))
    assert str(caught.value) == message


# --- reports and traces --------------------------------------------------------

FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, 1e16, 1.7976931348623157e308, 2.0**53, 1e-7]),
)
SCALARS = st.one_of(
    FLOATS,
    st.integers(min_value=-(10**40), max_value=10**40),
    st.booleans(),
    st.none(),
    st.text(),  # quotes, backslashes, control characters and non-ASCII included
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.lists(FLOATS, max_size=6),  # the writer joins float lists in one call
        st.dictionaries(st.text(max_size=8), inner, max_size=5),
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
def test_report_text_is_the_bytes_of_json_dumps(value):
    assert files.report_text(value) == (
        json.dumps(value, indent=2, sort_keys=True, allow_nan=False) + "\n"
    )


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "place",
    [
        lambda v: v,
        lambda v: {"a": v},
        lambda v: [1.0, 2.0, v],
        lambda v: {"rows": [[0.5, v]]},
        lambda v: {"b": ({"c": [None, "x", v]},)},
    ],
)
def test_a_non_finite_value_at_any_depth_is_a_numerical_failure(bad, place):
    with pytest.raises(NumericalError, match="JSON"):
        files.report_text(place(bad))


def test_report_text_leaves_no_cyclic_garbage():
    # json.dumps(..., indent=2) left 33 objects in a reference cycle per call.
    report = {"results": {"trace": [[0.0, 0.5, -0.0, 1e-17]] * 4, "ok": True}}
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        files.report_text(report)
        gc.collect()
        assert gc.garbage == []
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.floats(), min_size=1, max_size=5), max_size=6))
def test_csv_text_writes_each_value_as_format_float(rows):
    expected = "".join(
        line + "\n" for line in ["h,e,a,d.0"] + [",".join(map(files.format_float, row)) for row in rows]
    )
    assert files.csv_text("h,e,a,d.0", rows) == expected
