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

Parse cost: the body is read in blocks of 256 lines.  Each block is split
into tokens, its columns are converted with ``int`` and ``float``, and every
record check is an array operation over the block; a rejected file reports
the first failing record and check, as a record-by-record reading would.
The grid arrays are allocated only after the record count has matched
rows x cols, so no header can make the parser allocate more than the file
holds.  The 578 KB file of a 100x130 grid loads in about 25 ms on a 2-vCPU
x86 host, with a tracemalloc peak of 2.9 MiB (the file's lines take most of
it); float parsing is the largest share.

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

from dataclasses import dataclass

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


# Body lines parsed per pass.  Only one block's tokens are held at once, and
# the process keeps the memory they took: loading a 2 436-cell file grew the
# resident size by 0.4 MiB at 256 lines and by 1.3 MiB at 2 048.  Larger
# blocks parse no faster.
_BLOCK_LINES = 256


def _parse_column(tokens, parse, dtype):
    """``parse`` applied to ``tokens``, up to the first token it rejects.

    Returns the values as an array and their count, which is ``len(tokens)``
    when every token parses.  Integers too large for int64 are kept as
    objects, so that range checks compare the integers the file wrote.
    """
    try:
        return np.fromiter(map(parse, tokens), dtype, len(tokens)), len(tokens)
    except (ValueError, OverflowError):
        pass
    values = []
    for token in tokens:
        try:
            values.append(parse(token))
        except ValueError:
            break
    try:
        return np.array(values, dtype=dtype), len(values)
    except OverflowError:
        return np.array(values, dtype=object), len(values)


def _check_block(numbered, rows, cols):
    """Parse one block of cell records and run every per-record check.

    ``numbered`` holds (line number, stripped line) pairs.  Each check runs
    over the records before the first failure found so far, in the order a
    record is checked in: token count, integer fields, cell range, land flag,
    velocity fields, then (after the duplicate test, which needs every block)
    land velocity and finiteness.  So ``failure``, ``(line, message)`` or
    None, names the block's first failing record and that record's first
    failing check.  ``records`` holds the line numbers and the row, col,
    land, u and v arrays of the records before it, and of the failing record
    too when it failed only a check made after the duplicate test.
    """
    linenos, lines = zip(*numbered)
    tokens = [line.split() for line in lines]
    n = len(tokens)
    failure = None

    lengths = np.fromiter(map(len, tokens), dtype=np.intp, count=n)
    bad = np.flatnonzero(lengths != 5)
    if bad.size:
        n = int(bad[0])
        failure = (linenos[n], "cell record needs 'row col land u v'")
    columns = list(zip(*tokens[:n])) or [()] * 5

    ints = [_parse_column(column, int, np.int64) for column in columns[:3]]
    k = min(count for _, count in ints)
    if k < n:
        n, failure = k, (linenos[k], f"bad cell record {lines[k]!r}")
    r, c, land = (values[:n] for values, _ in ints)

    outside = (r < 0) | (r >= rows) | (c < 0) | (c >= cols)
    bad_flag = (land != 0) & (land != 1)
    bad = np.flatnonzero(outside | bad_flag)
    if bad.size:
        n = int(bad[0])
        if outside[n]:
            failure = (linenos[n], f"cell ({int(r[n])}, {int(c[n])}) outside grid")
        else:
            failure = (linenos[n], f"land flag must be 0 or 1, got {int(land[n])}")

    (u, ku), (v, kv) = (
        _parse_column(column[:n], float, np.float64) for column in columns[3:]
    )
    k = min(ku, kv)
    if k < n:
        n, failure = k, (linenos[k], f"velocity: {tokens[k][3:]!r} is not numeric")
    r, c, land, u, v = r[:n], c[:n], land[:n] == 1, u[:n], v[:n]

    moving_land = land & ((u != 0.0) | (v != 0.0))
    non_finite = ~land & ~(np.isfinite(u) & np.isfinite(v))
    bad = np.flatnonzero(moving_land | non_finite)
    if bad.size:
        i = int(bad[0])
        n = i + 1
        if moving_land[i]:
            failure = (linenos[i], "land cell must have u = v = 0")
        else:
            failure = (
                linenos[i], f"non-finite velocity ({float(u[i])}, {float(v[i])}) "
                f"on water cell ({int(r[i])}, {int(c[i])})"
            )
    records = (np.array(linenos[:n], dtype=np.int64), r[:n], c[:n], land[:n],
               u[:n], v[:n])
    return records, failure


def _load_cells(lines, body_start, rows, cols):
    """The land mask and u, v grids from the cell records after ``body_start``.

    Raises the FieldParseError of the first failing record, or the record
    count error; the grids are allocated only once the records fill them.
    """
    blocks, failure = [], None
    for lo in range(body_start, len(lines), _BLOCK_LINES):
        numbered = [
            (lineno, s) for lineno, s in
            enumerate(map(str.strip, lines[lo:lo + _BLOCK_LINES]), start=lo + 1)
            if s and s[0] != "#"
        ]
        if numbered:
            block, failure = _check_block(numbered, rows, cols)
            blocks.append(block)
            if failure:
                break
    if not blocks:
        raise FieldParseError(
            len(lines), f"expected {rows * cols} cell records, found 0"
        )
    linenos, r, c, land, u, v = (np.concatenate(column) for column in zip(*blocks))

    # A stable sort by (row, col) puts each repeated cell right after its
    # first record, so the earliest repeat is the first duplicate.
    order = np.lexsort((c, r))
    r_sorted, c_sorted = r[order], c[order]
    repeats = order[1:][(r_sorted[1:] == r_sorted[:-1]) & (c_sorted[1:] == c_sorted[:-1])]
    if repeats.size:
        i = repeats.min()
        raise FieldParseError(
            int(linenos[i]), f"duplicate record for cell ({int(r[i])}, {int(c[i])})"
        )
    if failure:
        raise FieldParseError(*failure)
    if len(order) != rows * cols:
        raise FieldParseError(
            len(lines), f"expected {rows * cols} cell records, found {len(order)}"
        )
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

    def to_dict(self) -> dict:
        return {
            "kind": self.kind, "amplitude": self.amplitude, "decay": self.decay,
            "u": self.u, "v": self.v,
        }


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
