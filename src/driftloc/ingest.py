"""Field file I/O and synthetic analytic current fields.

Field file grammar (line-oriented text, "#" comments and blank lines are
ignored everywhere):

    driftfield 1                  magic + format version
    rows <int>                    grid height (>= 2)
    cols <int>                    grid width  (>= 2)
    origin <lon> <lat>            geographic center of cell (0, 0)
    cell_size <dlon> <dlat>       cell extent in degrees
    depth <free text>             label, kept as VectorField.depth
    time <free text>              label, kept as VectorField.time
    cells                         starts the body
    <row> <col> <land> <u> <v>    exactly rows*cols records, any order

``land`` is 0 or 1; land cells must carry u = v = 0, and at least one cell is
water.  Velocities are in cell units per unit time (eastward u, northward v).
origin/cell_size/depth/time are optional and default to (0, 0) / (1, 1) / "".
Lines break wherever ``str.splitlines`` breaks them, so a label holds none of
those characters.

row, col and land accept what ``int`` accepts, u and v what ``float``
accepts, with the same values.  The file is decoded once and cut into pieces
of about 24 KiB of text, each just after a newline, so that its lines are the
file's own.  numpy's reader parses the whole body in one call over the
pieces' lines, with the comment lines dropped from each piece whose text
holds a "#", and the columns are checked once, as arrays.  A body that numpy
refuses (a spelling such as ``1_0``, a malformed record) or that fails a
check is read once more by a loop over its records.  The loop raises
FieldParseError for the first failing record and check in file order, or for
the record count, or else fills the grids itself.  Parsing costs
O(rows * cols) time.  Beside the decoded text numpy's path holds the parsed
records, 40 bytes each, until the grids are filled: a load peaks
(tracemalloc) at 1.46 MiB for a 0.58 MB 100x130 file, 13.0 MiB at 300x400
(5.6 MB) and 109 MiB at 1000x1000 (47.7 MB).  The loop keeps a set of the
accepted cells: a bad last record at 300x400 peaks at 15.8 MiB.

Synthetic kinds stand in for externally produced current slices:

    uniform      constant (u, v)
    single_gyre  one circulation cell over the whole grid
    double_gyre  two counter-rotating gyres side by side along the columns
    saddle       hyperbolic flow around the grid center

Gyre fields follow the stream function psi = A sin(pi x) sin(pi y) on a unit
(or double-unit) domain, plus an inward spiral component decay * psi * grad
psi that contracts each gyre onto its center, so the long-term decomposition
has one compact attractor per gyre.  Trigonometric factors are evaluated
exactly at quarter turns, so stagnation points that fall on a cell center
have exactly zero velocity.
"""

from __future__ import annotations

import itertools
import math
import numbers
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FieldParseError
from .flowfield import VectorField, is_finite
from .gridworld import Workspace

FORMAT_MAGIC = "driftfield"
FORMAT_VERSION = 1

_HEADER_KEYS = ("rows", "cols", "origin", "cell_size", "depth", "time")


def save_field(path, field: VectorField) -> None:
    """Write a workspace + field, with its labels, as a field file (the
    inverse of load_field).  Raises ValueError if a label holds a line
    break, which the file could not carry as one header line."""
    for key, label in (("depth", field.depth), ("time", field.time)):
        if "".join(label.splitlines()) != label:
            raise ValueError(f"{key} label {label!r} holds a line break")
    w = field.workspace
    lines = [
        f"{FORMAT_MAGIC} {FORMAT_VERSION}",
        f"rows {w.rows}",
        f"cols {w.cols}",
        f"origin {float(w.origin[0])!r} {float(w.origin[1])!r}",
        f"cell_size {float(w.cell_size[0])!r} {float(w.cell_size[1])!r}",
        f"depth {field.depth}".rstrip(),
        f"time {field.time}".rstrip(),
        "cells",
    ]
    for row, (land_row, u_row, v_row) in enumerate(zip(w.land_mask, field.u, field.v)):
        cells = zip(land_row.tolist(), u_row.tolist(), v_row.tolist())
        for col, (land, u, v) in enumerate(cells):
            lines.append(f"{row} {col} {int(land)} {u!r} {v!r}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def _parse_floats(parts, count, lineno, what):
    if len(parts) != count:
        raise FieldParseError(lineno, f"{what}: expected {count} values")
    try:
        return [float(p) for p in parts]
    except ValueError:
        raise FieldParseError(lineno, f"{what}: {parts!r} is not numeric") from None


# Body text cut per pass, in characters.  Each piece ends just after a "\n",
# where str.splitlines always breaks, so a piece's lines are the whole text's
# lines from its first one on.
_PIECE_CHARS = 24 * 1024
_RECORD = np.dtype([("row", "i8"), ("col", "i8"), ("land", "i8"), ("u", "f8"), ("v", "f8")])


def _pieces(text):
    """The (number of the first line, lines) of each piece of ``text``."""
    lineno, pos = 1, 0
    while pos < len(text):
        end = text.find("\n", pos + _PIECE_CHARS - 1) + 1 or len(text)
        lines = text[pos:end].splitlines()
        yield lineno, lines
        lineno += len(lines)
        pos = end


def _lines(text):
    """The (line number, line) of each line of ``text``, one piece at a time."""
    for lineno, lines in _pieces(text):
        yield from enumerate(lines, start=lineno)


def _body(text, body_start):
    """The pieces of ``text`` after line ``body_start``, as _pieces gives them.

    The piece that holds line ``body_start`` gives the lines after it, perhaps
    none, so the last piece's last line is the last line of the text.
    """
    for lineno, lines in _pieces(text):
        skip = max(0, body_start + 1 - lineno)
        if skip <= len(lines):
            yield lineno + skip, lines[skip:]


def _check_records(text, body_start, rows, cols):
    """The land mask and the u, v grids from the cell records of ``text``
    after line ``body_start``, read one record at a time with int and float.

    Raises the FieldParseError of the first failing record, in file order, and
    its first failing check, or else the record count error.
    """
    n, seen = rows * cols, set()  # flat cell indices of the accepted records
    size = n if 9 * n <= len(text) else 0  # n records take at least 9 * n characters
    lands, us, vs = grids = [memoryview(np.empty(size, t)) for t in (bool, float, float)]
    for first, lines in _body(text, body_start):
        for lineno, line in enumerate(lines, start=first):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split()
            if len(parts) != 5:
                raise FieldParseError(lineno, "cell record needs 'row col land u v'")
            try:
                r, c, land = int(parts[0]), int(parts[1]), int(parts[2])
            except ValueError:
                raise FieldParseError(lineno, f"bad cell record {stripped!r}") from None
            if not (0 <= r < rows and 0 <= c < cols):
                raise FieldParseError(lineno, f"cell ({r}, {c}) outside grid")
            if land not in (0, 1):
                raise FieldParseError(lineno, f"land flag must be 0 or 1, got {land}")
            u, v = _parse_floats(parts[3:], 2, lineno, "velocity")
            if (cell := r * cols + c) in seen:
                raise FieldParseError(lineno, f"duplicate record for cell ({r}, {c})")
            if land:
                if u != 0.0 or v != 0.0:
                    raise FieldParseError(lineno, "land cell must have u = v = 0")
            elif not (math.isfinite(u) and math.isfinite(v)):
                raise FieldParseError(
                    lineno, f"non-finite velocity ({u}, {v}) on water cell ({r}, {c})"
                )
            seen.add(cell)
            if size:
                lands[cell], us[cell], vs[cell] = land, u, v
    if len(seen) != n:
        raise FieldParseError(first + len(lines) - 1,
                              f"expected {n} cell records, found {len(seen)}")
    return tuple(grid.obj.reshape(rows, cols) for grid in grids)


def _load_cells(text, body_start, rows, cols):
    """The land mask and the u, v grids from the cell records of ``text``
    after line ``body_start``, parsed by numpy's reader in one call and
    checked once, as arrays, or None if numpy refuses the body or a check
    fails.  The grids are allocated only once the records fill them.
    """
    n = rows * cols
    # Comment lines are dropped only from a piece whose text holds a "#".
    body = itertools.chain.from_iterable(
        [line for line in lines if not line.lstrip().startswith("#")]
        if "#" in "".join(lines) else lines for _, lines in _body(text, body_start))
    try:
        # numpy accepts a subset of int() and float(); the filter makes it refuse
        # a body without records and, before numpy 2, a float in an int column.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            records = np.loadtxt(body, _RECORD, comments=None, ndmin=1)
    except (ValueError, Warning, OverflowError):  # OverflowError: beyond int64
        return None
    r, c, land, u, v = (records[name] for name in _RECORD.names)
    ok = (0 <= r) & (r < rows) & (0 <= c) & (c < cols) & np.where(
        land == 0, np.isfinite(u) & np.isfinite(v), (land == 1) & (u == 0.0) & (v == 0.0))
    if len(records) == n and ok.all():
        cell = r * cols + c
        filled = np.zeros(n, bool)
        filled[cell] = True
        if filled.all():  # no two records for one cell
            grids = np.empty(n, bool), np.empty(n), np.empty(n)
            for grid, column in zip(grids, (land, u, v)):
                grid[cell] = column
            return tuple(grid.reshape(rows, cols) for grid in grids)
    return None


def load_field(path) -> tuple[Workspace, VectorField]:
    """Parse a field file; all failures raise FieldParseError with a line number."""
    with open(path, "rb") as f:
        raw = f.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FieldParseError(0, f"not a text file: {exc}") from None
    del raw  # as large as the file; freed before the body parse

    header: dict = {"origin": (0.0, 0.0), "cell_size": (1.0, 1.0),
                    "depth": "", "time": ""}
    body_start = None
    seen_magic = False

    for lineno, line in _lines(text):
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
    if body_start is None:  # the loop read every line
        raise FieldParseError(lineno, "missing 'cells' section")
    for key in ("rows", "cols"):
        if key not in header:
            raise FieldParseError(body_start, f"header is missing '{key}'")

    rows, cols = header["rows"], header["cols"]
    if rows < 2 or cols < 2:
        raise FieldParseError(body_start, f"grid {rows}x{cols} is smaller than 2x2")

    # numpy refused a spelling, a record fails a check, two share a cell, or the
    # count is wrong: the record loop reads the body again, and raises the first
    # error in file order or fills the grids itself.
    land, u, v = _load_cells(text, body_start, rows, cols) or _check_records(
        text, body_start, rows, cols)
    if land.all():  # named by the file's last line
        raise FieldParseError(sum(len(lines) for _, lines in _pieces(text)), "every cell is land")

    w = Workspace(
        rows=rows, cols=cols, origin=header["origin"],
        cell_size=header["cell_size"], land_mask=land,
    )
    return w, VectorField(
        workspace=w, u=u, v=v, depth=header["depth"], time=header["time"]
    )


# -- synthetic fields --------------------------------------------------------


def is_a(x, *types) -> bool:
    """``isinstance(x, types)``, except that a bool matches no type."""
    return isinstance(x, types) and not isinstance(x, bool)


def _sinpi(t: np.ndarray) -> np.ndarray:
    """sin(pi * t), exact (0 / +-1) whenever 2t is an integer."""
    t = np.asarray(t, dtype=np.float64)
    quarter = np.mod(t, 2.0) / 0.5
    exact = quarter == np.round(quarter)
    table = np.array([0.0, 1.0, 0.0, -1.0])
    idx = np.mod(np.round(quarter).astype(np.int64), 4)
    return np.where(exact, table[idx], np.sin(np.pi * t))


def _cospi(t: np.ndarray) -> np.ndarray:
    return _sinpi(np.asarray(t, dtype=np.float64) + 0.5)


@dataclass(frozen=True)
class SyntheticFieldSpec:
    """Parameters for one synthetic field kind.

    ``amplitude`` scales every kind; ``decay`` is the inward-spiral strength
    of the gyre kinds; ``u``/``v`` are the components of the uniform kind.
    """

    kind: str
    amplitude: float = 1.0
    decay: float = 0.0
    u: float = 0.0
    v: float = 0.0

    KINDS = ("uniform", "single_gyre", "double_gyre", "saddle")

    def validate(self, rows: int, cols: int) -> None:
        """Raise a ValueError, its message led by the parameter's name,
        unless this spec synthesizes a rows x cols field.  A bool is no number."""
        for name, value in (("rows", rows), ("cols", cols)):
            if not is_a(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("amplitude", "decay", "u", "v"):
            if not is_a(getattr(self, name), numbers.Real):
                raise ValueError(f"{name} must be a number, got {getattr(self, name)!r}")
        if self.kind not in self.KINDS:
            raise ValueError(f"kind must be one of {self.KINDS}, got {self.kind!r}")
        for name in ("amplitude", "decay", "u", "v"):
            if not is_finite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.kind != "uniform" and self.amplitude == 0.0:
            raise ValueError(f"amplitude must be nonzero for {self.kind}")
        if self.decay < 0.0:
            raise ValueError("decay must be >= 0")
        least = 2 if self.kind == "uniform" else 4
        if rows < least or cols < least:
            raise ValueError(
                f"rows and cols must be at least {least} for {self.kind}, got {rows}x{cols}"
            )


def _gyre_velocity(x, y, amplitude, decay):
    """Rotation + inward spiral of psi = A sin(pi x) sin(pi y).

    u = pi A sin(pi x) [-cos(pi y) + decay cos(pi x) sin^2(pi y)]
    v = pi A sin(pi y) [ cos(pi x) + decay sin^2(pi x) cos(pi y)]
    """
    sx, cx = _sinpi(x), _cospi(x)
    sy, cy = _sinpi(y), _cospi(y)
    u = np.pi * amplitude * sx * (-cy + decay * cx * sy * sy)
    v = np.pi * amplitude * sy * (cx + decay * sx * sx * cy)
    return u, v


def synthesize_field(
    spec: SyntheticFieldSpec, rows: int, cols: int
) -> tuple[Workspace, VectorField]:
    """Sample an analytic field at the cell centers of an all-water grid."""
    spec.validate(rows, cols)
    w = Workspace(rows=rows, cols=cols)

    col = np.arange(cols, dtype=np.float64)[None, :]
    row = np.arange(rows, dtype=np.float64)[:, None]
    yhat = (row + 0.5) / rows  # [0, 1] south to north
    zero = np.zeros((rows, cols))

    if spec.kind == "uniform":
        u = np.full((rows, cols), float(spec.u))
        v = np.full((rows, cols), float(spec.v))
    elif spec.kind == "single_gyre":
        xhat = (col + 0.5) / cols
        u_dom, v_dom = _gyre_velocity(xhat, yhat, spec.amplitude, spec.decay)
        u = u_dom * cols + zero
        v = v_dom * rows + zero
    elif spec.kind == "double_gyre":
        xhat = 2.0 * (col + 0.5) / cols  # [0, 2]: sign change splits the gyres
        u_dom, v_dom = _gyre_velocity(xhat, yhat, spec.amplitude, spec.decay)
        u = u_dom * cols / 2.0 + zero
        v = v_dom * rows + zero
    else:  # saddle
        xhat = (col + 0.5) / cols
        u = spec.amplitude * (xhat - 0.5) * cols + zero
        v = -spec.amplitude * (yhat - 0.5) * rows + zero

    return w, VectorField(workspace=w, u=u, v=v)


def resolve_field(source: dict, base=None) -> tuple[Workspace, VectorField]:
    """Build (Workspace, VectorField) from a config field source.  A relative
    ``path`` is read relative to the directory ``base`` when one is given."""
    if "path" in source:
        path = source["path"]
        return load_field(path if base is None else Path(base) / path)
    synth = dict(source["synthetic"])
    rows = synth.pop("rows")
    cols = synth.pop("cols")
    return synthesize_field(SyntheticFieldSpec(**synth), rows, cols)
