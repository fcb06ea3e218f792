"""System files: the digest load_system reports and where it comes from."""

import hashlib
import importlib.util
import json
import random
import subprocess
import sys

import pytest

from hypercom import files

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
