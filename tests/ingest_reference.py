"""Reference implementation that the bulk field-file parser in driftloc.ingest
replaced: the record loop that checks and stores one cell at a time.

Frozen copy of the earlier code, kept as an exactness oracle for the accepted
files (arrays, dtypes, header values) and for the first error of a rejected
one (type, line, message).  It allocates the grid from the header before
reading the body, so feed it only files with small ``rows`` and ``cols``.
"""

import numpy as np

from driftloc import FieldParseError, VectorField, Workspace

FORMAT_MAGIC = "driftfield"
FORMAT_VERSION = 1

_HEADER_KEYS = ("rows", "cols", "origin", "cell_size", "depth", "time")


def _parse_floats(parts, count, lineno, what):
    if len(parts) != count:
        raise FieldParseError(lineno, f"{what}: expected {count} values")
    try:
        return [float(p) for p in parts]
    except ValueError:
        raise FieldParseError(lineno, f"{what}: {parts!r} is not numeric") from None


def load_field(path) -> tuple[Workspace, VectorField]:
    """Parse a field file; all failures raise FieldParseError with a line number."""
    with open(path, "rb") as f:
        raw = f.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FieldParseError(0, f"not a text file: {exc}") from None

    header: dict = {"origin": (0.0, 0.0), "cell_size": (1.0, 1.0),
                    "depth": "", "time": ""}
    body_start = None
    lines = text.splitlines()
    seen_magic = False

    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if not seen_magic:
            if parts[0] != FORMAT_MAGIC:
                raise FieldParseError(lineno, f"expected '{FORMAT_MAGIC} <version>'")
            if len(parts) != 2 or parts[1] != str(FORMAT_VERSION):
                raise FieldParseError(
                    lineno, f"unsupported format version {parts[1:]}, "
                    f"expected {FORMAT_VERSION}"
                )
            seen_magic = True
            continue
        key = parts[0]
        if key == "cells":
            body_start = lineno
            break
        if key not in _HEADER_KEYS:
            raise FieldParseError(lineno, f"unknown header key {key!r}")
        if key in ("rows", "cols"):
            try:
                header[key] = int(parts[1])
            except (IndexError, ValueError):
                raise FieldParseError(lineno, f"{key} needs one integer") from None
        elif key in ("origin", "cell_size"):
            header[key] = tuple(_parse_floats(parts[1:], 2, lineno, key))
        else:  # depth / time: free-text label
            header[key] = stripped[len(key):].strip()

    if not seen_magic:
        raise FieldParseError(0, "empty file, no header found")
    if body_start is None:
        raise FieldParseError(len(lines), "missing 'cells' section")
    for key in ("rows", "cols"):
        if key not in header:
            raise FieldParseError(body_start, f"header is missing '{key}'")

    rows, cols = header["rows"], header["cols"]
    if rows < 2 or cols < 2:
        raise FieldParseError(body_start, f"grid {rows}x{cols} is smaller than 2x2")

    land = np.zeros((rows, cols), dtype=bool)
    u = np.full((rows, cols), np.nan)
    v = np.full((rows, cols), np.nan)
    n_records = 0

    for lineno, line in enumerate(lines[body_start:], start=body_start + 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 5:
            raise FieldParseError(lineno, "cell record needs 'row col land u v'")
        try:
            r_i, c_i, land_i = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            raise FieldParseError(lineno, f"bad cell record {stripped!r}") from None
        if not (0 <= r_i < rows and 0 <= c_i < cols):
            raise FieldParseError(lineno, f"cell ({r_i}, {c_i}) outside grid")
        if land_i not in (0, 1):
            raise FieldParseError(lineno, f"land flag must be 0 or 1, got {land_i}")
        u_i, v_i = _parse_floats(parts[3:], 2, lineno, "velocity")
        if not np.isnan(u[r_i, c_i]):
            raise FieldParseError(lineno, f"duplicate record for cell ({r_i}, {c_i})")
        if land_i:
            if u_i != 0.0 or v_i != 0.0:
                raise FieldParseError(lineno, "land cell must have u = v = 0")
        elif not (np.isfinite(u_i) and np.isfinite(v_i)):
            raise FieldParseError(
                lineno, f"non-finite velocity ({u_i}, {v_i}) on water cell "
                f"({r_i}, {c_i})"
            )
        land[r_i, c_i] = bool(land_i)
        u[r_i, c_i], v[r_i, c_i] = u_i, v_i
        n_records += 1

    if n_records != rows * cols:
        raise FieldParseError(
            len(lines), f"expected {rows * cols} cell records, found {n_records}"
        )

    w = Workspace(
        rows=rows, cols=cols, origin=header["origin"],
        cell_size=header["cell_size"], land_mask=land,
    )
    return w, VectorField(workspace=w, u=u, v=v)
