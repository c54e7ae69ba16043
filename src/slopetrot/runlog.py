"""Deterministic CSV writing for experiment logs.

Every file starts with '#'-prefixed header lines (config hash, seed,
version) so a run can be reproduced byte-for-byte from its own header.
Floats are written with repr(), the shortest round-tripping form.
"""

from __future__ import annotations

import hashlib

import numpy as np


def format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        # A numpy scalar's own repr() is np.float64(x), not a number.
        return repr(float(value))
    return str(value)


def write_csv(path, columns, rows, header: dict | None = None) -> None:
    lines = []
    if header:
        for key, value in header.items():
            lines.append(f"# {key}: {value}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(format_value(row[c]) for c in columns))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv(path):
    """Read back a CSV written by write_csv: (header dict, columns, rows of
    strings)."""
    header = {}
    columns = None
    rows = []
    with open(path) as fh:
        for line in fh.read().splitlines():
            if line.startswith("#"):
                key, _, value = line[1:].partition(":")
                header[key.strip()] = value.strip()
            elif columns is None:
                columns = line.split(",")
            elif line:
                rows.append(dict(zip(columns, line.split(","))))
    return header, columns or [], rows


def text_hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]
