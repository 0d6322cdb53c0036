"""CSV and JSON emission with exact-value round-tripping.

Exact rationals serialize as "p/q" strings (plain "p" for integers) and
parse back to identical values; floats use repr, the shortest decimal that
round-trips.  The interval CSVs (``generations.csv``, ``intervals.csv``)
are written as finished text, one string per block of intervals
(``IntervalSet.csv_text``).  numpy builds each block from the integer
numerators over the set's shared denominator: it reduces them, writes
their digits and the fixed text into a byte matrix and compacts it, with
no Fraction, Python format, tuple or ``csv.writer`` call per endpoint.
The bytes are those of a ``csv.writer`` formatting each endpoint as a
Fraction.  ``write_csv`` writes such text blocks as they are and formats
tuple rows value by value.  Every CLI run directory carries a manifest
echoing the full parameter set, the backend, the package version, the wall
time and the exit code, with the error of a failed run, so an exact-backend
run can be reproduced bit for bit from its manifest.
"""

from __future__ import annotations

import csv
import json
import math
import time
from fractions import Fraction
from pathlib import Path

from . import __version__
from .intervals import rational_str


def fmt(value) -> str:
    """One scalar to text: exact as p/q, float as shortest round-trip."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (Fraction, int)):
        return rational_str(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def jsonable(obj):
    """Recursively convert to JSON-safe types; exact values become p/q and
    non-finite floats the ``fmt`` text "inf", "-inf" or "nan"."""
    if isinstance(obj, Fraction):
        return rational_str(obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        return fmt(float(obj))
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    if isinstance(obj, dict):
        return {fmt(k) if not isinstance(k, str) else k: jsonable(v)
                for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    return str(obj)


def write_csv(path, header, rows) -> None:
    """Write a CSV file: the header row, then the items of ``rows`` in
    order, read one at a time.

    A tuple row goes through ``csv.writer``, str values as they are and
    others formatted by ``fmt``.  A str item is finished CSV text, CRLF
    line ends included, such as a block of ``IntervalSet.csv_text``, and
    is written as it is.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)

        def cells():
            # writerows writes each row before it asks for the next, so a
            # text item written here keeps its place
            for row in rows:
                if isinstance(row, str):
                    fh.write(row)
                else:
                    yield [v if isinstance(v, str) else fmt(v) for v in row]

        writer.writerows(cells())


def write_json(path, payload) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        json.dump(jsonable(payload), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


class ManifestTimer:
    """Collects run metadata from the start of a run; ``write(out_dir,
    exit_code, error)`` writes it, with the wall time so far, to
    manifest.json."""

    def __init__(self, subcommand: str, parameters: dict, backend: str):
        self.subcommand = subcommand
        self.parameters = parameters
        self.backend = backend
        self.start = time.perf_counter()

    def write(self, out_dir, exit_code: int, error=None) -> None:
        payload = {
            "subcommand": self.subcommand,
            "parameters": jsonable(self.parameters),
            "backend": self.backend,
            "version": __version__,
            "wall_time_s": time.perf_counter() - self.start,
            "exit_code": exit_code,
            "error": None if error is None else str(error),
        }
        write_json(Path(out_dir) / "manifest.json", payload)


def generation_rows(d, sets):
    """CSV text of the rows (n, chart, slope, lo, hi) for the generations
    0, 1, ... of direction d, yielded a block of intervals at a time
    (``IntervalSet.csv_text``): fed by ``iter_generations``, no generation
    is built before the rows of the one before it are written."""
    slope = rational_str(d.slope)
    for n, s in enumerate(sets):
        yield from s.csv_text(f"{n},{d.chart},{slope},")
