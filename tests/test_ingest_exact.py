"""The bulk field-file parser against the frozen record loop.

``ingest_reference.load_field`` checks and stores one record at a time;
``driftloc.load_field`` parses the whole body with one call to numpy's reader
and checks the columns as arrays, and only a body that numpy refuses or that
fails a check goes through its record loop.  On an accepted file both must
give the same header values and the same array bytes; on a rejected one, the
same error type, line and message.  The text is cut into pieces of lines for
the comment filter and the record loop, and the files here span several
pieces, so that errors on either side of a cut between two pieces are covered.
"""

import tempfile
from dataclasses import replace
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ingest_reference as ref
from conftest import FIXTURE_FIELD, gyre_with_land, random_field
from driftloc import FieldParseError, ingest, load_field, save_field
from driftloc.ingest import _PIECE_CHARS, _check_records, _pieces

ROWS, COLS = 46, 50  # 2 300 records, several pieces
HEADER_LINES = 8  # save_field's header, "cells" included


def saved_lines(field):
    """The lines of the field file that save_field writes for ``field``."""
    with tempfile.TemporaryDirectory() as d:
        p = Path(d) / "base.field"
        save_field(p, field)
        return p.read_text().splitlines()


def first_cut(lines, eol):
    """0-based index of the line that starts the second piece of the file."""
    return len(next(_pieces(eol.join(lines) + eol))[1])


BASE_LINES = saved_lines(replace(gyre_with_land(ROWS, COLS, 0), depth="10 m", time="t0"))
CUTS = {eol: first_cut(BASE_LINES, eol) for eol in ("\n", "\r\n")}
BOUNDARY = CUTS["\n"]  # the first cut of the base file as save_field writes it


def outcome(load, path):
    """What ``load`` made of ``path``: the parsed values, or the error."""
    try:
        w, f = load(path)
    except FieldParseError as exc:
        return ("error", type(exc), exc.line, str(exc))
    arrays = (w.land_mask, f.u, f.v)
    return ("ok", w.rows, w.cols, w.origin, w.cell_size,
            *((a.dtype, a.shape, a.tobytes()) for a in arrays))


def assert_same(path):
    got, want = outcome(load_field, path), outcome(ref.load_field, path)
    assert got == want
    return got


def write(tmp_path, lines, eol="\n", name="m.field"):
    p = tmp_path / name
    p.write_bytes((eol.join(lines) + eol).encode("utf-8"))
    return p


@pytest.fixture(scope="module")
def base_lines():
    """A valid field file of several pieces, as its lines."""
    lines = BASE_LINES
    assert lines[HEADER_LINES - 1] == "cells" and len(lines) == HEADER_LINES + ROWS * COLS
    assert HEADER_LINES < CUTS["\r\n"] < BOUNDARY < len(lines) // 2
    return lines


# -- mutations ---------------------------------------------------------------

# The bulk parse converts the body with numpy's reader and falls back to the
# record loop's int() and float() when numpy refuses it, so the alphabets hold
# spellings where the two could differ: forms numpy refuses, and forms both
# accept.
TOKENS = ["1.0", "x", "nan", "inf", "-inf", "+1", "1_0", "-1", "0", "1", "2",
          str(ROWS), str(COLS), "1e3", "0x1", "\u0661", "99999999999999999999", "-0.0",
          "1.", "1e0", "00", "-0", "+.5", ".5", "1e400", "infinity", "-nan",
          "0 # a comment after the record"]
# Line breaks, and whitespace that str.split splits a record on.
BREAKS = ["\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
          "\u2029", " ", "\xa0", "\x1f", "\t"]

def spanning(line):
    """Copies of ``line``, one a line, enough to fill a whole piece."""
    return "\n".join([line] * (2 * _PIECE_CHARS // (len(line) + 1)))


# The last two fillers are enough comment lines, or whitespace-only lines,
# to fill a whole piece.
FILLERS = ["", "   ", "\t", "\xa0", "#", "# comment", "  # indented comment",
           "#1 1 0 0.0 0.0", spanning("# comment"), spanning("\xa0")]

position = st.one_of(
    st.integers(HEADER_LINES, HEADER_LINES + ROWS * COLS - 1),
    *(st.integers(cut - 3, cut + 3) for cut in CUTS.values()),
)

mutation = st.one_of(
    st.tuples(st.just("drop"), position),
    st.tuples(st.just("duplicate"), position, position),
    st.tuples(st.just("swap"), position, position),
    st.tuples(st.just("reverse"), position, st.integers(2, 6)),
    st.tuples(st.just("insert"), position, st.sampled_from(FILLERS)),
    st.tuples(st.just("join"), position, st.sampled_from(BREAKS)),
    st.tuples(st.just("split"), position, st.integers(1, 4), st.sampled_from(BREAKS)),
    st.tuples(st.just("token"), position, st.integers(0, 2), st.sampled_from(TOKENS)),
    st.tuples(st.just("token"), position, st.integers(3, 4), st.sampled_from(TOKENS)),
    st.tuples(st.just("land"), position),
    st.tuples(st.just("arity"), position, st.sampled_from([4, 6])),
    st.tuples(st.just("header"), st.sampled_from(["rows", "cols"]), st.sampled_from([-1, 1])),
)


def mutate(lines, mutations):
    lines = list(lines)
    for kind, *args in mutations:
        last = len(lines) - 1
        i = min(args[0], last) if kind != "header" else None
        if kind == "drop":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(args[1], lines[i])
        elif kind == "swap":
            j = min(args[1], last)
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == "reverse":
            lines[i:i + args[1]] = lines[i:i + args[1]][::-1]
        elif kind == "insert":
            lines.insert(i, args[1])
        elif kind == "join" and i < last:
            lines[i:i + 2] = [lines[i] + args[1] + lines[i + 1]]
        elif kind == "split":
            parts = lines[i].split(" ")
            k, sep = args[1:]
            lines[i] = " ".join(parts[:k]) + sep + " ".join(parts[k:])
        elif kind == "token":
            parts = lines[i].split(" ")
            if args[1] < len(parts):
                parts[args[1]] = args[2]
            lines[i] = " ".join(parts)
        elif kind == "land":
            parts = lines[i].split(" ")
            if len(parts) == 5:
                parts[2] = "1"
            lines[i] = " ".join(parts)
        elif kind == "arity":
            parts = lines[i].split(" ")
            lines[i] = " ".join(parts[:4] if args[1] == 4 else parts + ["0.0"])
        elif kind == "header":
            key, delta = args
            j = next(j for j, line in enumerate(lines) if line.startswith(key + " "))
            lines[j] = f"{key} {int(lines[j].split()[1]) + delta}"
    return lines


# -- tests -------------------------------------------------------------------


class TestValidFiles:
    def test_shipped_fixture(self):
        assert assert_same(FIXTURE_FIELD)[0] == "ok"

    def test_multi_block_gyre_with_land(self, tmp_path, base_lines):
        assert assert_same(write(tmp_path, base_lines))[0] == "ok"

    def test_crlf_comments_blanks_and_shuffled_records(self, tmp_path, base_lines):
        rng = np.random.default_rng(5)
        body = base_lines[HEADER_LINES:]
        body = [body[i] for i in rng.permutation(len(body))]
        for i in sorted(rng.choice(len(body), size=40, replace=False), reverse=True):
            body.insert(i, str(rng.choice(FILLERS)))
        lines = ["# a comment first", ""] + base_lines[:HEADER_LINES] + body
        assert assert_same(write(tmp_path, lines, eol="\r\n"))[0] == "ok"

    @pytest.mark.parametrize("seed", range(4))
    def test_random_fields_with_land(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        rows, cols = (int(x) for x in rng.integers(2, 60, size=2))
        _, f = random_field(rng, rows, cols, land_prob=0.3)
        p = tmp_path / "r.field"
        save_field(p, f)
        assert assert_same(p)[0] == "ok"


class TestValidFilesStayOnTheBulkPath(TestValidFiles):
    """The same valid files, with the record loop made to fail the test: one
    call to numpy's reader and the array checks accept each of them, comment
    and blank lines included."""

    @pytest.fixture(autouse=True)
    def no_record_loop(self, monkeypatch):
        def fail(*args):
            pytest.fail("a valid file fell to the record loop")

        monkeypatch.setattr(ingest, "_check_records", fail)


class TestValidFilesOnlyTheRecordLoopReads:
    """Valid files with a spelling that int() or float() accepts and numpy's
    reader refuses: the record loop reads the whole body, once."""

    @pytest.mark.parametrize("row, field, token", [
        (30, 3, "1_0"),      # u = 10.0
        (1, 0, "\u0661"),    # the row 1 in an Arabic-Indic digit
        (30, 2, "\uff10"),   # the land flag 0 in a fullwidth digit
    ])
    def test_spelling_only_int_or_float_reads(
        self, tmp_path, base_lines, monkeypatch, row, field, token
    ):
        calls = []

        def spy(text, body_start, rows, cols):
            calls.append((text, body_start))
            return _check_records(text, body_start, rows, cols)

        monkeypatch.setattr(ingest, "_check_records", spy)
        first = HEADER_LINES + row * COLS
        water = next(i for i in range(first, first + COLS) if base_lines[i].split(" ")[2] == "0")
        p = write(tmp_path, mutate(base_lines, [("token", water, field, token)]))
        assert assert_same(p)[0] == "ok"
        assert calls == [(p.read_text("utf-8"), HEADER_LINES)]


class TestFirstError:
    def test_parse_error_in_later_block_loses_to_earlier_range_error(
        self, tmp_path, base_lines
    ):
        lines = mutate(base_lines, [("token", HEADER_LINES + 20, 0, str(ROWS)),
                                    ("token", BOUNDARY + 5, 3, "x")])
        got = assert_same(write(tmp_path, lines))
        assert got[2] == HEADER_LINES + 21 and "outside grid" in got[3]

    def test_duplicate_in_later_block_beats_its_own_velocity_error(
        self, tmp_path, base_lines
    ):
        first = base_lines[HEADER_LINES + 3].split(" ")
        repeat = " ".join(first[:3] + ["nan", "0.0"])
        lines = mutate(base_lines, [("insert", BOUNDARY + 10, repeat)])
        got = assert_same(write(tmp_path, lines))
        assert got[2] == BOUNDARY + 11 and "duplicate" in got[3]

    def test_earliest_of_two_duplicates(self, tmp_path, base_lines):
        late_cell = base_lines[BOUNDARY - 10]  # sorts after the other
        early_cell = base_lines[HEADER_LINES + 1]
        lines = mutate(base_lines, [("insert", BOUNDARY + 5, early_cell),
                                    ("insert", BOUNDARY - 5, late_cell)])
        got = assert_same(write(tmp_path, lines))
        assert got[2] == BOUNDARY - 4 and "duplicate" in got[3]

    def test_repeat_in_accepted_blocks_beats_a_rejected_later_block(
        self, tmp_path, base_lines
    ):
        lines = mutate(base_lines, [("token", BOUNDARY + 5, 3, "x"),
                                    ("insert", HEADER_LINES + 30, base_lines[HEADER_LINES + 2])])
        got = assert_same(write(tmp_path, lines))
        assert got[2] == HEADER_LINES + 31 and "duplicate" in got[3]

    def test_repeat_of_a_record_the_loop_accepted(self, tmp_path, base_lines):
        # The comment is dropped before numpy's reader and the array checks
        # find the repeat; the record loop accepts the first piece, comment
        # included, and reports the repeat in a later piece.
        lines = mutate(base_lines, [("insert", BOUNDARY + 40, base_lines[HEADER_LINES + 2]),
                                    ("insert", HEADER_LINES + 10, "# comment")])
        got = assert_same(write(tmp_path, lines))
        assert got[2] == BOUNDARY + 42 and "duplicate" in got[3]

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("change", [
        ("token", 0, "x"), ("token", 1, str(COLS)), ("token", 2, "2"),
        ("token", 3, "x"), ("token", 4, "inf"), ("arity", 4), ("arity", 6),
        ("land",), ("split", 2, "\x0b"), ("token", 4, "0 # comment"),
    ])
    def test_error_on_either_side_of_the_block_boundary(
        self, tmp_path, base_lines, offset, change
    ):
        kind, *args = change
        lines = mutate(base_lines, [(kind, BOUNDARY + offset, *args)])
        got = assert_same(write(tmp_path, lines))
        if change != ("land",):
            assert got[0] == "error" and got[2] == BOUNDARY + offset + 1

    @pytest.mark.parametrize("record, message", [
        ("46 0 2 x 0.0", "outside grid"),
        ("0 0 2 x nan", "land flag"),
        ("0 0 1 x 0.0", "velocity"),
        ("0 0 1 nan 0.0", "duplicate"),
        ("0 0 0 0.0 x 1", "needs 'row col land u v'"),
        ("0 x 2 0.0 0.0", "bad cell record"),
    ])
    def test_a_record_reports_its_first_failing_check(
        self, tmp_path, base_lines, record, message
    ):
        lines = mutate(base_lines, [("insert", BOUNDARY, record)])
        got = assert_same(write(tmp_path, lines))
        assert got[2] == BOUNDARY + 1 and message in got[3]

    @pytest.mark.parametrize("eol", ["\n", "\r\n"])
    @pytest.mark.parametrize("brk", BREAKS)
    def test_break_at_the_first_cut(self, tmp_path, base_lines, brk, eol):
        """A break that joins two records, or splits one, just before, at or
        just after the first cut."""
        cut = CUTS[eol]
        for i in (cut - 1, cut, cut + 1):
            for change in (("join", i, brk), ("split", i, 2, brk)):
                assert_same(write(tmp_path, mutate(base_lines, [change]), eol))

    @settings(max_examples=400, deadline=None, database=None)
    @given(mutations=st.lists(mutation, min_size=1, max_size=3),
           eol=st.sampled_from(["\n", "\r\n"]))
    def test_mutated_files(self, tmp_path_factory, base_lines, mutations, eol):
        p = write(tmp_path_factory.mktemp("mut"), mutate(base_lines, mutations), eol)
        assert_same(p)


class TestPieces:
    @settings(max_examples=300, deadline=None, database=None)
    @given(parts=st.lists(st.sampled_from(["a", " ", "\n", *BREAKS]), max_size=60),
           size=st.integers(1, 8))
    def test_pieces_hold_the_lines_of_the_whole_text(self, parts, size):
        text = "".join(parts)
        with mock.patch.object(ingest, "_PIECE_CHARS", size):
            pieces = list(_pieces(text))
        assert [line for _, lines in pieces for line in lines] == text.splitlines()
        starts = [lineno for lineno, _ in pieces]
        assert starts == [1 + sum(len(lines) for _, lines in pieces[:k])
                          for k in range(len(pieces))]
        assert all(len(lines) for _, lines in pieces)


class TestHugeHeader:
    """The reference allocates the grid from the header, so these files are
    checked against fixed expectations instead."""

    def file(self, tmp_path, rows, cols, *records):
        return write(tmp_path, ["driftfield 1", f"rows {rows}", f"cols {cols}",
                                "cells", *records])

    def test_record_count_checked_before_allocating(self, tmp_path):
        p = self.file(tmp_path, 10**10, 10**10, "0 0 0 0.0 0.0")
        with pytest.raises(FieldParseError) as exc:
            load_field(p)
        assert exc.value.line == 5
        assert str(exc.value) == (
            "line 5: expected 100000000000000000000 cell records, found 1"
        )

    def test_record_error_still_comes_first(self, tmp_path):
        p = self.file(tmp_path, 10**10, 10**10, "0 0 0 0.0 0.0",
                      "9999999999 -1 0 0.0 0.0")
        with pytest.raises(FieldParseError, match=r"line 6: cell \(9999999999, -1\) outside"):
            load_field(p)

    def test_integers_beyond_int64(self, tmp_path):
        big = "99999999999999999999"
        p = self.file(tmp_path, 10**30, 2, f"{big} 0 0 0.0 0.0", "0 0 0 0.0 0.0",
                      f"{big} 0 0 1.0 0.0")
        with pytest.raises(FieldParseError, match=rf"line 7: duplicate record for cell \({big}, 0\)"):
            load_field(p)
        p = self.file(tmp_path, 3, 2, "0 0 0 0.0 0.0", f"{big} 0 0 0.0 0.0")
        got = assert_same(p)
        assert got[2] == 6 and f"cell ({big}, 0) outside grid" in got[3]

    def test_record_beyond_int64_that_passes_its_checks(self, tmp_path):
        p = self.file(tmp_path, 10**30, 2, "99999999999999999999 0 0 0.0 0.0", "0 0 0 0.0 0.0")
        with pytest.raises(FieldParseError) as exc:
            load_field(p)
        assert str(exc.value) == f"line 6: expected {2 * 10**30} cell records, found 2"


class TestMemory:
    def test_load_field_peak(self, tmp_path):
        # The classify benchmark's size: 100x130 with a coast and islands.
        p = tmp_path / "large.field"
        save_field(p, gyre_with_land(100, 130, 0))
        tracemalloc.start()
        try:
            w, _ = load_field(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert w.land_mask.any()
        # The whole text, one piece's lines and the parsed records: about
        # 1.5 MiB.  Splitting the whole text into lines at once peaked at
        # 2.37 MiB.
        assert peak < 2.0 * 2**20, f"load_field peaked at {peak / 2**20:.2f} MiB"
