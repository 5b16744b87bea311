import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftloc import (
    FieldParseError,
    SyntheticFieldSpec,
    VectorField,
    Workspace,
    build_cell_map,
    build_stochastic_map,
    decompose,
    load_field,
    resolve_field,
    save_field,
    synthesize_field,
)
from conftest import FIXTURE_FIELD, random_field

MINIMAL = """\
driftfield 1
rows 2
cols 2
cells
0 0 0 0.0 0.0
0 1 0 0.0 0.0
1 0 0 0.0 0.0
1 1 0 0.0 0.0
"""


def write(tmp_path, text, name="f.field"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestLoadField:
    def test_minimal_zero_field(self, tmp_path):
        w, f = load_field(write(tmp_path, MINIMAL))
        assert (w.rows, w.cols) == (2, 2)
        assert not w.land_mask.any()
        cm = build_cell_map(f)
        assert (cm.images == w.free_cells).all()  # identity dynamics

    def test_header_defaults_and_labels(self, tmp_path):
        text = MINIMAL.replace(
            "cells", "origin -118.2 33.4\ncell_size 0.02 0.01\n"
            "depth 10 m layer\ntime 2011-07-15 06:00\ncells"
        )
        w, f = load_field(write(tmp_path, text))
        assert w.origin == (-118.2, 33.4)
        assert w.cell_size == (0.02, 0.01)
        assert (f.depth, f.time) == ("10 m layer", "2011-07-15 06:00")
        _, f = load_field(write(tmp_path, MINIMAL))
        assert (f.depth, f.time) == ("", "")

    def test_nan_velocity_names_line(self, tmp_path):
        text = MINIMAL.replace("0 1 0 0.0 0.0", "0 1 0 nan 0.0")
        with pytest.raises(FieldParseError) as exc:
            load_field(write(tmp_path, text))
        assert exc.value.line == 6
        assert "non-finite" in str(exc.value)

    def test_record_count_mismatch(self, tmp_path):
        text = "\n".join(MINIMAL.splitlines()[:-1]) + "\n"
        with pytest.raises(FieldParseError, match="expected 4 cell records"):
            load_field(write(tmp_path, text))

    def test_duplicate_record(self, tmp_path):
        text = MINIMAL.replace("0 1 0 0.0 0.0", "0 0 0 0.0 0.0")
        with pytest.raises(FieldParseError, match="duplicate"):
            load_field(write(tmp_path, text))

    def test_land_with_velocity_rejected(self, tmp_path):
        text = MINIMAL.replace("1 1 0 0.0 0.0", "1 1 1 0.5 0.0")
        with pytest.raises(FieldParseError, match="land cell"):
            load_field(write(tmp_path, text))

    @pytest.mark.parametrize("line, record, message", [
        (8, "2 1 0 0.0 0.0", "cell (2, 1) outside grid"),
        (8, "-1 1 0 0.0 0.0", "cell (-1, 1) outside grid"),
        (8, "1 2 0 0.0 0.0", "cell (1, 2) outside grid"),
        # Read as a flat index, (1, -1) would be the cell (0, 1) it replaces.
        (6, "1 -1 0 0.0 0.0", "cell (1, -1) outside grid"),
        (8, "1 1 2 0.0 0.0", "land flag must be 0 or 1, got 2"),
        (8, "1 1 1 0.0 -inf", "land cell must have u = v = 0"),
        (8, "1 1 0 0.0 inf", "non-finite velocity (0.0, inf) on water cell (1, 1)"),
    ])
    def test_each_value_rule_names_line(self, tmp_path, line, record, message):
        """A file that numpy's reader accepts whole is still held to every
        value rule, and the error names the record's line."""
        lines = MINIMAL.splitlines()
        lines[line - 1] = record
        with pytest.raises(FieldParseError) as exc:
            load_field(write(tmp_path, "\n".join(lines) + "\n"))
        assert str(exc.value) == f"line {line}: {message}"

    def test_bad_magic(self, tmp_path):
        with pytest.raises(FieldParseError, match="driftfield"):
            load_field(write(tmp_path, "floes 3\n" + MINIMAL))

    def test_bad_version(self, tmp_path):
        with pytest.raises(FieldParseError, match="version"):
            load_field(write(tmp_path, MINIMAL.replace("driftfield 1", "driftfield 9")))

    def test_unknown_header_key(self, tmp_path):
        with pytest.raises(FieldParseError, match="unknown header key"):
            load_field(write(tmp_path, MINIMAL.replace("rows 2", "rosw 2")))

    def test_missing_cells_section(self, tmp_path):
        with pytest.raises(FieldParseError, match="cells"):
            load_field(write(tmp_path, "driftfield 1\nrows 2\ncols 2\n"))

    @pytest.mark.parametrize("junk", [
        b"", b"\x00\x01\x02\xff" * 40, b"not a field file at all\n",
        b"driftfield 1\nrows two\n",
    ])
    def test_arbitrary_bytes_raise_typed_errors(self, tmp_path, junk):
        p = tmp_path / "junk.field"
        p.write_bytes(junk)
        with pytest.raises(FieldParseError):
            load_field(p)

    def test_all_land_rejected(self, tmp_path):
        text = MINIMAL.replace(" 0 0.0 0.0", " 1 0.0 0.0")
        with pytest.raises(FieldParseError, match="line 8: every cell is land"):
            load_field(write(tmp_path, text))
        # The error names the file's last line, a comment or a blank one too.
        with pytest.raises(FieldParseError, match="line 11: every cell is land"):
            load_field(write(tmp_path, text + "# the end\n\n  \n"))

    @settings(max_examples=200, deadline=None, database=None)
    @given(data=st.one_of(st.binary(max_size=300), st.text(max_size=300).map(str.encode)))
    def test_arbitrary_input_raises_only_parse_errors(self, tmp_path_factory, data):
        p = tmp_path_factory.mktemp("junk") / "junk.field"
        p.write_bytes(data)
        try:
            load_field(p)
        except FieldParseError:
            pass

    @settings(max_examples=200, deadline=None, database=None)
    @given(
        # Both dimensions small, or both so large that numpy would refuse the
        # grid before allocating it.
        shape=st.one_of(st.tuples(st.integers(-2, 5), st.integers(-2, 5)),
                        st.tuples(st.integers(10**10, 10**30), st.integers(10**10, 10**30))),
        body=st.lists(st.one_of(
            st.text(alphabet=" 01-.#xnaif+_e\t\r\n\x0b\x85", max_size=24),
            st.lists(st.sampled_from(["0", "1", "2", "-1", "0.0", "-0.0", "0.5",
                                      "nan", "inf", "1_0", "99999999999999999999"]),
                     min_size=3, max_size=6).map(" ".join),
        ), max_size=30),
    )
    def test_any_body_raises_only_parse_errors(self, tmp_path_factory, shape, body):
        rows, cols = shape
        text = "\n".join(["driftfield 1", f"rows {rows}", f"cols {cols}", "cells", *body])
        p = tmp_path_factory.mktemp("body") / "body.field"
        p.write_bytes(text.encode())
        try:
            w, f = load_field(p)
        except FieldParseError:
            return
        assert (w.rows, w.cols) == (rows, cols) and not w.land_mask.all()

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        text = "# a field\n\n" + MINIMAL.replace("cells", "cells\n# body next")
        w, _ = load_field(write(tmp_path, text))
        assert w.n_free == 4


class TestRoundTrip:
    def test_save_load_identity(self, tmp_path):
        rng = np.random.default_rng(21)
        w, f = random_field(rng, 6, 5, land_prob=0.25)
        p = tmp_path / "rt.field"
        save_field(p, replace(f, depth="10 m", time="forecast 3"))
        w2, f2 = load_field(p)
        assert (w2.land_mask == w.land_mask).all()
        assert (f2.u == f.u).all()
        assert (f2.v == f.v).all()
        assert w2.origin == w.origin and w2.cell_size == w.cell_size
        assert (f2.depth, f2.time) == ("10 m", "forecast 3")
        save_field(p, replace(f2, time="forecast 4"))  # an explicit label wins
        _, f3 = load_field(p)
        assert (f3.depth, f3.time) == ("10 m", "forecast 4")

    @settings(max_examples=100, deadline=None, database=None)
    @given(
        shape=st.tuples(st.integers(2, 8), st.integers(2, 8)),
        seed=st.integers(0, 2**32 - 1),
        values=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                        min_size=128, max_size=128),
        origin=st.tuples(st.floats(-180, 180), st.floats(-90, 90)),
        cell_size=st.tuples(st.floats(1e-6, 10), st.floats(1e-6, 10)),
        labels=st.tuples(*[st.text(max_size=12).filter(lambda t: t.splitlines() in ([], [t]))] * 2),
    )
    def test_random_fields_with_land_round_trip(
        self, tmp_path_factory, shape, seed, values, origin, cell_size, labels
    ):
        rows, cols = shape
        rng = np.random.default_rng(seed)
        land = rng.random(shape) < 0.3
        land.flat[rng.integers(rows * cols)] = False
        u, v = (np.array(values[k::2][:rows * cols]).reshape(shape) for k in (0, 1))
        w = Workspace(rows=rows, cols=cols, origin=origin, cell_size=cell_size,
                      land_mask=land)
        f = VectorField(workspace=w, u=u, v=v, depth=labels[0], time=labels[1])
        p = tmp_path_factory.mktemp("rt") / "rt.field"
        save_field(p, f)
        w2, f2 = load_field(p)
        assert (w2.rows, w2.cols, w2.origin, w2.cell_size) == (rows, cols, origin, cell_size)
        assert w2.land_mask.tobytes() == land.tobytes()
        assert f2.u.tobytes() == f.u.tobytes() and f2.v.tobytes() == f.v.tobytes()
        # a header line is stripped, so the labels come back stripped
        assert (f2.depth, f2.time) == tuple(label.strip() for label in labels)
        text = p.read_text()
        save_field(p, f2)  # the labels as loaded
        _, f3 = load_field(p)
        assert (f3.depth, f3.time) == (f2.depth, f2.time)
        if labels == (f2.depth, f2.time):
            assert p.read_text() == text

    @pytest.mark.parametrize("key", ["depth", "time"])
    @pytest.mark.parametrize("brk", ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d",
                                     "\x1e", "\x85", "\u2028", "\u2029"])
    def test_label_with_line_break_rejected(self, tmp_path, key, brk):
        _, f = synthesize_field(SyntheticFieldSpec(kind="uniform", u=0.5), 3, 3)
        p = tmp_path / "l.field"
        with pytest.raises(ValueError, match=f"{key} label"):
            save_field(p, replace(f, **{key: f"layer{brk}2"}))
        with pytest.raises(ValueError, match=f"{key} label"):
            save_field(p, replace(f, **{key: f"layer 2{brk}"}))
        assert not p.exists()

    def test_shipped_fixture_matches_generator(self, tmp_path):
        w, f = synthesize_field(
            SyntheticFieldSpec(kind="double_gyre", amplitude=1.0, decay=2.0), 21, 29
        )
        p = tmp_path / "regen.field"
        save_field(p, replace(f, depth="synthetic mid-layer", time="static"))
        assert p.read_text() == FIXTURE_FIELD.read_text()


class TestSynthesize:
    def test_uniform_east(self):
        w, f = synthesize_field(SyntheticFieldSpec(kind="uniform", u=1.0), 5, 5)
        assert (f.u == 1.0).all()
        assert (f.v == 0.0).all()

    def test_single_gyre_stagnates_at_center(self):
        w, f = synthesize_field(
            SyntheticFieldSpec(kind="single_gyre", decay=0.5), 9, 9
        )
        assert f.u[4, 4] == 0.0
        assert f.v[4, 4] == 0.0
        assert f.speed().max() > 0.0

    def test_saddle_stagnates_at_center(self):
        w, f = synthesize_field(SyntheticFieldSpec(kind="saddle"), 9, 9)
        assert f.u[4, 4] == 0.0 and f.v[4, 4] == 0.0
        assert f.u[4, 8] > 0.0 and f.u[4, 0] < 0.0  # outflow along x
        assert f.v[8, 4] < 0.0 and f.v[0, 4] > 0.0  # inflow along y

    def test_double_gyre_decomposition_structure(self):
        w, f = synthesize_field(SyntheticFieldSpec(kind="double_gyre", decay=2.0), 21, 29)
        dec = decompose(build_stochastic_map(build_cell_map(f), 0.9))
        assert dec.n_groups == 2
        assert len(dec.transient_groups) >= 3

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            SyntheticFieldSpec(kind="vortex").validate(4, 4)
        with pytest.raises(ValueError):
            SyntheticFieldSpec(kind="single_gyre", amplitude=0.0).validate(4, 4)
        with pytest.raises(ValueError):
            synthesize_field(SyntheticFieldSpec(kind="double_gyre"), 3, 3)

    @pytest.mark.parametrize("params, rows, message", [
        ({"amplitude": "1"}, 6, "amplitude must be a number, got '1'"),
        ({"decay": None}, 6, "decay must be a number, got None"),
        ({"amplitude": True}, 6, "amplitude must be a number, got True"),
        ({"u": np.True_}, 6, f"u must be a number, got {np.True_!r}"),
        ({}, "6", "rows must be an integer, got '6'"),
        ({}, True, "rows must be an integer, got True"),
        ({}, 6.0, "rows must be an integer, got 6.0"),
        # A type error is reported before the unknown kind, as in a config.
        ({"kind": "vortex", "v": "0"}, 6, "v must be a number, got '0'"),
    ])
    def test_type_validation(self, params, rows, message):
        """A wrongly typed spec or grid raises the ValueError whose text a
        config reports after ``field.synthetic.``."""
        spec = SyntheticFieldSpec(**{"kind": "single_gyre", **params})
        with pytest.raises(ValueError) as exc:
            synthesize_field(spec, rows, 6)
        assert str(exc.value) == message

    @pytest.mark.parametrize("name", ["amplitude", "decay", "u", "v"])
    @pytest.mark.parametrize("value", [10**400, -(10**400), math.inf, np.float64(math.nan)],
                             ids=["10**400", "-10**400", "inf", "nan"])
    def test_number_beyond_the_float_range(self, name, value):
        """A number is finite only if it converts to a finite float."""
        with pytest.raises(ValueError) as exc:
            synthesize_field(SyntheticFieldSpec(kind="double_gyre", **{name: value}), 6, 6)
        assert str(exc.value) == f"{name} must be finite"

    def test_numpy_numbers_accepted(self):
        spec = SyntheticFieldSpec("double_gyre", amplitude=np.int8(2), decay=np.int64(2))
        w, f = synthesize_field(spec, np.int64(6), np.int32(8))
        w2, f2 = synthesize_field(SyntheticFieldSpec("double_gyre", 2.0, 2.0), 6, 8)
        assert (w.rows, w.cols) == (6, 8)
        assert f.u.tobytes() == f2.u.tobytes() and f.v.tobytes() == f2.v.tobytes()

    def test_resolve_field_both_sources(self, tmp_path):
        w, f = resolve_field(
            {"synthetic": {"kind": "uniform", "u": 0.5, "rows": 4, "cols": 6}}
        )
        assert (w.rows, w.cols) == (4, 6)
        p = tmp_path / "rf.field"
        save_field(p, f)
        w2, f2 = resolve_field({"path": str(p)})
        assert (f2.u == f.u).all()
