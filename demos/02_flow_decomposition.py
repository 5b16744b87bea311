"""Decompose a flow into attractors and their transient groups.

Widening the deterministic cell map with endpoint uncertainty gives a finite
Markov chain; its support graph splits the water cells into persistent
groups (attractors - closed, mutually communicating sets the drifter never
leaves) and transient groups keyed by which attractors each cell can reach.
Cells that can reach both attractors form the boundary region between the
two domains of attraction.
"""

from pathlib import Path

from driftloc import (
    build_cell_map,
    build_stochastic_map,
    decompose,
    load_field,
)

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "double_gyre_21x29.field"

w, field = load_field(FIXTURE)
smap = build_stochastic_map(build_cell_map(field), r=0.9)
dec = decompose(smap)

print(f"{dec.n_groups} attractors, {len(dec.transient_groups)} transient groups")
for i, g in enumerate(dec.persistent_groups):
    rows = [w.rowcol(int(z))[0] for z in g]
    cols = [w.rowcol(int(z))[1] for z in g]
    print(f"  B_{i + 1}: {len(g)} cells around (row {sum(rows) / len(g):.0f}, "
          f"col {sum(cols) / len(g):.0f})")
for k, cells in dec.transient_groups.items():
    label = "B(" + ",".join(map(str, k)) + ")"
    kind = "single-domicile" if len(k) == 1 else "multiple-domicile"
    print(f"  {label}: {len(cells)} cells ({kind})")

# Map view: 1/2 = attractor cells, a/b = their domains of attraction,
# * = boundary region reaching both.
symbol = {}
for i, g in enumerate(dec.persistent_groups):
    for z in g:
        symbol[int(z)] = str(i + 1)
marks = {(1,): "a", (2,): "b", (1, 2): "*"}
for k, cells in dec.transient_groups.items():
    for z in cells:
        symbol[int(z)] = marks.get(k, "?")

print("\nlong-term structure (north at the top):")
for row in range(w.rows - 1, -1, -1):
    print("  " + "".join(symbol.get(w.index(row, col), "#") for col in range(w.cols)))

# The same structure is independent of the uncertainty level r (for r < 1):
dec2 = decompose(build_stochastic_map(build_cell_map(field), 0.5))
same = all(
    (a == b).all() for a, b in zip(dec.persistent_groups, dec2.persistent_groups)
)
print(f"\nsame attractors at r = 0.5: {same}")
