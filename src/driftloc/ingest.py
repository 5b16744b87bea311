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

Parse cost: the body is read in blocks of 256 lines.  numpy's text reader
converts a block in one call; it accepts a subset of what ``int`` and
``float`` accept, with the same values.  A block it refuses (a comment, no
records, ``1_0``, an int beyond int64, a malformed record) is split into
tokens for ``int`` and ``float``.  Record checks are array operations over
a block, then a sort by cell finds repeats and confirms the records fill
the grid, which is allocated only then.  A record loop (about 17 MB/s)
finds a rejected file's first failing record and check.  The 584 KB file
of a 100x130 grid loads in about 10 ms on a 2-vCPU x86 host (17 ms through
the tokens), with a tracemalloc peak of 2.5 MiB.

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

import math
import warnings
from dataclasses import dataclass
from typing import NoReturn

import numpy as np

from .errors import FieldParseError
from .flowfield import VectorField
from .gridworld import Workspace

FORMAT_MAGIC = "driftfield"
FORMAT_VERSION = 1

_HEADER_KEYS = ("rows", "cols", "origin", "cell_size", "depth", "time")


def save_field(
    path, field: VectorField, depth: str | None = None, time: str | None = None
) -> None:
    """Write a workspace + field as a field file (the inverse of load_field).

    ``depth`` and ``time`` default to the field's own labels.  Raises
    ValueError if a label holds a line break, which the file could not carry
    as one header line.
    """
    depth = field.depth if depth is None else depth
    time = field.time if time is None else time
    for key, label in (("depth", depth), ("time", time)):
        if "".join(label.splitlines()) != label:
            raise ValueError(f"{key} label {label!r} holds a line break")
    w = field.workspace
    lines = [
        f"{FORMAT_MAGIC} {FORMAT_VERSION}",
        f"rows {w.rows}",
        f"cols {w.cols}",
        f"origin {float(w.origin[0])!r} {float(w.origin[1])!r}",
        f"cell_size {float(w.cell_size[0])!r} {float(w.cell_size[1])!r}",
        f"depth {depth}".rstrip(),
        f"time {time}".rstrip(),
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


# Body lines parsed per pass.  The process keeps the memory that the tokens
# of a block numpy refuses took: through the tokens, loading a 2 436-cell
# file grew the resident size by 0.4 MiB at 256 lines and 1.3 MiB at 2 048.
_BLOCK_LINES = 256
_RECORD = np.dtype("i8,i8,i8,f8,f8")  # row, col, land, u, v


class _Rejected(Exception):
    """A cell record fails a check; the record loop finds which one."""


def _parse_block(lines, rows, cols):
    """The row, col, land, u and v arrays of the records in ``lines``, or None.

    Raises _Rejected if any record fails a check that needs no other record.
    """
    try:
        # numpy accepts a subset of int() and float(); the filter makes it refuse
        # a block without records and, before numpy 2, a float in an int column.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            records = np.loadtxt(lines, _RECORD, comments=None, ndmin=1)
        r, c, land, u, v = (records[name] for name in _RECORD.names)
    except (ValueError, Warning):
        # A line splits to no tokens iff it is blank, and its first token
        # starts with "#" iff it is a comment.
        tokens = [t for t in map(str.split, lines) if t and t[0][0] != "#"]
        if not tokens:
            return None
        if set(map(len, tokens)) != {5}:
            raise _Rejected
        n = len(tokens)
        columns = list(zip(*tokens))
        try:
            r, c, land = (np.fromiter(map(int, col), np.int64, n) for col in columns[:3])
            u, v = (np.fromiter(map(float, col), np.float64, n) for col in columns[3:])
        except (ValueError, OverflowError):  # OverflowError: beyond int64
            raise _Rejected from None
    bad = (r < 0) | (r >= rows) | (c < 0) | (c >= cols) | ((land != 0) & (land != 1))
    land = land == 1
    bad |= land & ((u != 0.0) | (v != 0.0))
    bad |= ~land & ~(np.isfinite(u) & np.isfinite(v))
    if bad.any():
        raise _Rejected
    return r, c, land, u, v


def _raise_first_error(lines, start, rows, cols, seen) -> NoReturn:
    """Raise the FieldParseError of the first failing cell record.

    Checks one record at a time from the line after ``start``, in the order
    the file gives them, so that the error names the first failing record
    and its first failing check.  ``seen`` holds the (row, col) cells of the
    records before that line, which must all have passed their checks.
    Runs only on files the bulk parse rejected.
    """
    for lineno, line in enumerate(lines[start:], start=start + 1):
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
        if (r, c) in seen:
            raise FieldParseError(lineno, f"duplicate record for cell ({r}, {c})")
        if land:
            if u != 0.0 or v != 0.0:
                raise FieldParseError(lineno, "land cell must have u = v = 0")
        elif not (math.isfinite(u) and math.isfinite(v)):
            raise FieldParseError(
                lineno, f"non-finite velocity ({u}, {v}) on water cell ({r}, {c})"
            )
        seen.add((r, c))
    raise FieldParseError(
        len(lines), f"expected {rows * cols} cell records, found {len(seen)}"
    )


def _load_cells(lines, body_start, rows, cols):
    """The land mask and u, v grids from the cell records after ``body_start``.

    Raises the FieldParseError of the first failing record, or the record
    count error; the grids are allocated only once the records fill them.
    """
    blocks = []
    try:
        for lo in range(body_start, len(lines), _BLOCK_LINES):
            block = _parse_block(lines[lo:lo + _BLOCK_LINES], rows, cols)
            if block is not None:
                blocks.append(block)
    except _Rejected:
        # Every record before line lo passed its own checks, so unless two of
        # them share a cell the first error is at line lo or after it.
        seen = {cell for r, c, *_ in blocks for cell in zip(r.tolist(), c.tolist())}
        if len(seen) < sum(len(r) for r, *_ in blocks):
            seen, lo = set(), body_start
        _raise_first_error(lines, lo, rows, cols, seen)
    try:
        if not blocks:
            raise _Rejected
        r, c, land, u, v = (np.concatenate(column) for column in zip(*blocks))
        order = np.lexsort((c, r))
        r, c = r[order], c[order]
        if len(order) != rows * cols or ((r[1:] == r[:-1]) & (c[1:] == c[:-1])).any():
            raise _Rejected
    except _Rejected:
        _raise_first_error(lines, body_start, rows, cols, set())
    # rows * cols distinct cells in range: the sorted records are the grid in
    # row-major order.
    shape = (rows, cols)
    return land[order].reshape(shape), u[order].reshape(shape), v[order].reshape(shape)


def load_field(path) -> tuple[Workspace, VectorField]:
    """Parse a field file; all failures raise FieldParseError with a line number."""
    with open(path, "rb") as f:
        raw = f.read()
    try:
        lines = raw.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise FieldParseError(0, f"not a text file: {exc}") from None
    del raw  # as large as the file; freed before the body parse sets the peak

    header: dict = {"origin": (0.0, 0.0), "cell_size": (1.0, 1.0),
                    "depth": "", "time": ""}
    body_start = None
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

    land, u, v = _load_cells(lines, body_start, rows, cols)
    if land.all():
        raise FieldParseError(len(lines), "every cell is land")

    w = Workspace(
        rows=rows, cols=cols, origin=header["origin"],
        cell_size=header["cell_size"], land_mask=land,
    )
    return w, VectorField(
        workspace=w, u=u, v=v, depth=header["depth"], time=header["time"]
    )


# -- synthetic fields --------------------------------------------------------


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

    def validate(self) -> None:
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown synthetic kind {self.kind!r}")
        for name in ("amplitude", "decay", "u", "v"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.kind != "uniform" and self.amplitude == 0.0:
            raise ValueError(f"{self.kind} needs a nonzero amplitude")
        if self.decay < 0.0:
            raise ValueError("decay must be >= 0")

    @classmethod
    def from_dict(cls, d: dict) -> "SyntheticFieldSpec":
        spec = cls(**d)
        spec.validate()
        return spec


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
    spec.validate()
    if spec.kind != "uniform" and (rows < 4 or cols < 4):
        raise ValueError(f"{spec.kind} needs at least a 4x4 grid")
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


def resolve_field(source: dict) -> tuple[Workspace, VectorField]:
    """Build (Workspace, VectorField) from a config field source."""
    if "path" in source:
        return load_field(source["path"])
    synth = dict(source["synthetic"])
    rows = synth.pop("rows")
    cols = synth.pop("cols")
    return synthesize_field(SyntheticFieldSpec.from_dict(synth), rows, cols)
