"""Build current fields and inspect the Euler cell mapping.

The workspace is a south-west-origin grid of cells; a field assigns every
water cell an (eastward, northward) velocity in cell units per unit time.
One Euler step advects each cell center; the nearest admissible cell to the
endpoint is the cell's deterministic image.
"""

from driftloc import (
    Direction,
    SyntheticFieldSpec,
    build_cell_map,
    direction_between,
    synthesize_field,
)

# A uniform eastward current: every interior cell maps to its east neighbor.
w, field = synthesize_field(SyntheticFieldSpec(kind="uniform", u=1.0), 5, 8)
cm = build_cell_map(field)
print(f"uniform east on {w.rows}x{w.cols}: dt = {cm.dt}")
z = w.index(2, 3)
row, col = w.rowcol(z)
s = w.state_of(z)  # the cell map's arrays are indexed by water-cell state
print(f"  cell {z} at {(float(col), float(row))} -> endpoint {tuple(cm.endpoints[s].tolist())}"
      f" -> image {cm.images[s]}")

# A double gyre: two counter-rotating circulation cells with an inward
# spiral that contracts each gyre onto its center.
w, field = synthesize_field(
    SyntheticFieldSpec(kind="double_gyre", amplitude=1.0, decay=2.0), 21, 29
)
cm = build_cell_map(field)
image = dict(zip(w.free_cells.tolist(), cm.images.tolist()))
speed = field.speed()
print(f"\ndouble gyre on {w.rows}x{w.cols}: max speed {speed.max():.1f} cells/time,"
      f" dt = {cm.dt:.4f}")

# Render the image direction of every cell as a compass glyph.
GLYPH = {
    Direction.N: "^", Direction.NE: "/", Direction.E: ">", Direction.SE: ",",
    Direction.S: "v", Direction.SW: "L", Direction.W: "<", Direction.NW: "\\",
    Direction.IDLE: ".",
}
print("\ndeterministic image directions (north at the top):")
for row in range(w.rows - 1, -1, -1):
    line = []
    for col in range(w.cols):
        z = w.index(row, col)
        line.append(GLYPH[direction_between(w, z, image[z])])
    print("  " + "".join(line))

# Orbits: follow the deterministic map from a fast-band start.
z = w.index(10, 2)
orbit = [z]
for _ in range(14):
    z = image[z]
    orbit.append(z)
print("\norbit from (row 10, col 2):", [w.rowcol(c) for c in orbit])
