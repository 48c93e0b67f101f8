"""JSON file formats for matrices, instance pairs, and suite reports.

Matrix format (UTF-8 JSON)::

    {"n": <int>, "entries": [[[re, im], ...], ...]}   # row-major

Floats are emitted through Python's shortest round-trip representation
(at most 17 significant digits), so reading a file back reproduces the
matrix bit for bit. Pair files embed two matrices plus the generator
metadata; reports carry the config echo, per-check results, and a
summary block.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii

import numpy as np

from ..linalg import as_square_matrix

__all__ = [
    "matrix_from_obj",
    "matrix_to_obj",
    "read_pair",
    "write_pair",
    "write_report",
]


def matrix_to_obj(m) -> dict:
    m = as_square_matrix(m)
    return {
        "n": int(m.shape[0]),
        "entries": [[[float(v.real), float(v.imag)] for v in row]
                    for row in m],
    }


def matrix_from_obj(obj: dict) -> np.ndarray:
    n = int(obj["n"])
    entries = obj["entries"]
    if len(entries) != n or any(len(row) != n for row in entries):
        raise ValueError("entries shape does not match n")
    m = np.array([[complex(re, im) for re, im in row] for row in entries])
    return as_square_matrix(m)


def write_pair(path: str, x, y, metadata: dict) -> None:
    doc = dict(metadata)
    doc["x"] = matrix_to_obj(x)
    doc["y"] = matrix_to_obj(y)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def read_pair(path: str):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    x = matrix_from_obj(doc.pop("x"))
    y = matrix_from_obj(doc.pop("y"))
    return x, y, doc


def write_report(path: str, report: dict) -> None:
    """Write a report as ``json.dump(report, fh, indent=2)`` and a newline
    would, byte for byte, one list item at a time.

    Each result row is encoded field by field; a value other than a
    string, number, boolean, None or dict of them goes through
    ``json.dumps(indent=2)``, re-indented to its depth.
    """
    with open(path, "w", encoding="utf-8") as fh:
        if not (isinstance(report, dict) and report
                and all(type(key) is str for key in report)):
            fh.write(json.dumps(report, indent=2))
        else:
            sep = "{"
            for key, value in report.items():
                fh.write(f"{sep}\n  {encode_basestring_ascii(key)}: ")
                if isinstance(value, list) and value:
                    sep = "["
                    for item in value:
                        fh.write(f"{sep}\n    {_encode(item, 2)}")
                        sep = ","
                    fh.write("\n  ]")
                else:
                    fh.write(_encode(value, 1))
                sep = ","
            fh.write("\n}")
        fh.write("\n")


def _encode_float(value: float) -> str:
    return float.__repr__(value) if math.isfinite(value) else json.dumps(value)


# encoders of the exact scalar types, as json.dumps writes them
_SCALARS = {str: encode_basestring_ascii, float: _encode_float,
            int: int.__repr__, bool: lambda value: "true" if value else "false",
            type(None): lambda value: "null"}


def _encode(value, depth: int) -> str:
    """``json.dumps(value, indent=2)`` for a value nested ``depth`` levels
    deep in the document; exact scalar types and string-keyed dicts of
    them are encoded here, anything else by json.dumps."""
    scalar = _SCALARS.get(type(value))
    if scalar is not None:
        return scalar(value)
    if type(value) is dict and value:
        pad = "\n" + "  " * (depth + 1)
        items = []
        for key, item in value.items():
            if type(key) is not str:  # json.dumps converts it first
                break
            scalar = _SCALARS.get(type(item))
            items.append(pad + encode_basestring_ascii(key) + ": " + (
                scalar(item) if scalar is not None else _encode(item, depth + 1)))
        else:
            return "{" + ",".join(items) + "\n" + "  " * depth + "}"
    return json.dumps(value, indent=2).replace("\n", "\n" + "  " * depth)
