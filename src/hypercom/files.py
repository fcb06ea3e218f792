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
Location strings such as "particles[3].coords[1]" are formatted only for
an error.

A report is the text json.dumps(report, indent=2, sort_keys=True) gives,
plus a newline, written by one recursive writer here: keys are str, a
float is float.__repr__, an int int.__repr__, a string
json.encoder.encode_basestring_ascii, and a list of floats is one join.
json.dumps with indent runs json's pure-Python encoder before Python 3.13
and leaves a reference cycle per call; the writer is faster there and
leaves none.  NaN or an infinity anywhere is a NumericalError.  CSV traces
have a fixed header and each float in format_float's form.  Identical
inputs therefore produce byte-identical output.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote
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

_float_repr = float.__repr__
# json.dumps(..., allow_nan=False)'s message for NaN and the infinities.
_NOT_FINITE = "Out of range float values are not JSON compliant"


def _number(value, where: str, *at) -> float:
    """value as a float; an error names it by where.format(*at)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{where.format(*at)} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValidationError(f"{where.format(*at)} is outside the double range") from None


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
        if not isinstance(entry, dict) or set(entry) != PARTICLE_KEYS:
            raise ValidationError(
                f"particles[{index}] must be an object with keys ['coords', 'mass']"
            )
        masses.append(_number(entry["mass"], "particles[{}].mass", index))
        raw = entry["coords"]
        if not isinstance(raw, list) or len(raw) != arity:
            raise ValidationError(
                f"particles[{index}].coords must be a list of {arity} numbers for "
                f"model {model!r}"
            )
        positions.append(stored(*[
            _number(c, "particles[{}].coords[{}]", index, k) for k, c in enumerate(raw)
        ]))
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
    """Deterministic JSON for report documents; NaN or infinity has no JSON form.

    The bytes of json.dumps(report, indent=2, sort_keys=True,
    allow_nan=False) plus a newline, from _json.
    """
    try:
        return _json(report, "\n") + "\n"
    except ValueError as exc:
        raise NumericalError(f"the report holds a value JSON cannot carry: {exc}") from None


def _json(value, newline: str) -> str:
    """value as json.dumps(value, indent=2, sort_keys=True) writes it nested
    where newline, a line break and the indent of that depth, starts a line.

    Dict keys are str.  Of the type tests only bool before int is an order
    that matters; json makes the same choices for every other type.
    """
    if isinstance(value, float):
        text = _float_repr(value)
        if "n" in text:  # nan, inf and -inf; no finite repr has the letter
            raise ValueError(_NOT_FINITE)
        return text
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + "  "
        separator = "," + inner
        try:
            # A list of floats in one join; float.__repr__ refuses anything else.
            text = separator.join(map(_float_repr, value))
        except TypeError:
            return "[" + inner + separator.join([_json(item, inner) for item in value]) + newline + "]"
        if "n" in text:
            raise ValueError(_NOT_FINITE)
        return "[" + inner + text + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        return "{" + inner + ("," + inner).join([
            _quote(key) + ": " + _json(value[key], inner) for key in sorted(value)
        ]) + newline + "}"
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def csv_text(header: str, rows) -> str:
    """CSV with a fixed header; each value as format_float writes it."""
    body = "".join([",".join(map(_float_repr, map(float, row))) + "\n" for row in rows])
    # A repr ends in ".0" exactly when format_float drops those two characters.
    return header + "\n" + body.replace(".0,", ",").replace(".0\n", "\n")
