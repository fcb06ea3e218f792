"""System files and report serialization for the CLI.

A system file is one JSON document:

    {
      "radius": 1.0,
      "model": "disk",
      "particles": [
        {"mass": 1.0, "coords": [0.5, 0.0]},
        {"mass": 2.0, "coords": [-0.26794919243112270, 0.0]}
      ]
    }

``coords`` holds 1 number for "line", 2 ([re, im]) for "disk" and
3 ([x, y, z]) for "hyperboloid".  read_system_text builds each entry's
stored form (float, complex or HPoint) in the pass that checks its
numbers, then the MassedSystem once.  load_system reads a file once, as
UTF-8, and returns the sha256 of the bytes it parsed with the system
(from the built-in _sha2 or _sha256 module; hashlib where neither exists).
Reports are JSON with sorted keys and fixed indentation; CSV traces use
fixed headers.  Identical inputs therefore produce byte-identical output.
"""

from __future__ import annotations

import json
from pathlib import Path

from .barycenter import DISK, HYPERBOLOID, LINE, MODELS, MassedSystem
from .errors import NumericalError, ValidationError
from .geometry import HPoint

try:  # import _hashlib (OpenSSL, which hashlib loads) adds 3.5 MB RSS; _sha256 about 0
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256  # builds without the built-in hashes

# Per model: the number of coords and the stored form they build.
COORD_ARITY = {LINE: (1, float), DISK: (2, complex), HYPERBOLOID: (3, HPoint)}
TOP_LEVEL_KEYS = {"radius", "model", "particles"}
PARTICLE_KEYS = {"mass", "coords"}


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{where} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValidationError(f"{where} is outside the double range") from None


def read_system_text(text: str) -> MassedSystem:
    """Parse and validate a system document from its JSON text."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"system file is not valid JSON: {exc}") from exc
    except ValueError:
        # An integer past the digits int() reads; the JSON itself is valid.
        raise ValidationError("system file holds a number with too many digits") from None
    if not isinstance(data, dict):
        raise ValidationError("system file must be a JSON object")
    unknown = set(data) - TOP_LEVEL_KEYS
    if unknown:
        raise ValidationError(f"unknown system file keys: {sorted(unknown)}")
    missing = TOP_LEVEL_KEYS - set(data)
    if missing:
        raise ValidationError(f"system file is missing keys: {sorted(missing)}")
    radius = _number(data["radius"], "radius")
    model = data["model"]
    if model not in MODELS:
        raise ValidationError(
            f"model must be one of {list(MODELS)}, got {model!r}"
        )
    particles = data["particles"]
    if not isinstance(particles, list) or not particles:
        raise ValidationError("particles must be a nonempty list")
    arity, stored = COORD_ARITY[model]
    masses = []
    positions = []
    for index, entry in enumerate(particles):
        where = f"particles[{index}]"
        if not isinstance(entry, dict) or set(entry) != PARTICLE_KEYS:
            raise ValidationError(
                f"{where} must be an object with keys ['coords', 'mass']"
            )
        masses.append(_number(entry["mass"], f"{where}.mass"))
        raw = entry["coords"]
        if not isinstance(raw, list) or len(raw) != arity:
            raise ValidationError(
                f"{where}.coords must be a list of {arity} numbers for "
                f"model {model!r}"
            )
        positions.append(
            stored(*[_number(c, f"{where}.coords[{k}]") for k, c in enumerate(raw)])
        )
    return MassedSystem(tuple(masses), tuple(positions), radius, model)


def load_system(path) -> tuple[MassedSystem, str]:
    """Read a system file once, as UTF-8: the validated system and its sha256."""
    try:
        data = Path(path).read_bytes()
        text = data.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read system file {path!r}: {exc}") from exc
    return read_system_text(text), sha256(data).hexdigest()


def format_float(value: float) -> str:
    """Shortest decimal that round-trips; integral values lose the '.0'."""
    text = repr(float(value))
    if text.endswith(".0"):
        text = text[:-2]
    return text


def report_text(report: dict) -> str:
    """Deterministic JSON for report documents; NaN or infinity has no JSON form."""
    try:
        return json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericalError(f"the report holds a value JSON cannot carry: {exc}") from None


def csv_text(header: str, rows) -> str:
    """CSV with a fixed header; floats in shortest round-trip form."""
    lines = [header]
    for row in rows:
        lines.append(",".join(format_float(v) for v in row))
    return "\n".join(lines) + "\n"
