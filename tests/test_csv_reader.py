"""The CSV reader against its frozen per-cell reference.

``load_csv_columns`` parses plain files with one ``np.loadtxt`` call and
hands every other file to the csv-module reader. On any UTF-8 text both it
and ``_csv_reference.reference_load_csv_columns`` must return the same
column names in the same order with bitwise-equal arrays (NaN bits and the
sign of zero included), or raise ``InputError`` with the same message.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bksens.cli import InputError, _plain_columns, load_csv_columns

from _csv_reference import reference_load_csv_columns

NAMES = ["y", "a", "m1", " m1", "c1 ", "x y", ""]
NUMBERS = ["1.5", "-2", "0", "-0.0", "+0.0", "1e-320", "nan", "-nan", "NaN", "inf",
           "-Infinity", "1e400", "-1e400", ".5", "5.", " 2 ", "\t3", "\xa01.5",
           "1.5\xa0"]
ODD_CELLS = ["1_0", "1__0", "_1", "١٢", "", "  ", "abc", "1.5.2", "0x10", "1e",
             "1\x00", '"1.5"', '" 3 "', '"1,5"', '"4"5', '"a""b"', '"7\n"',
             '"8\r\n"', '""']


def _cell(odd: bool):
    number = st.one_of(st.sampled_from(NUMBERS),
                       st.floats(allow_nan=True, allow_infinity=True).map(repr),
                       st.integers(-10**20, 10**20).map(str))
    if not odd:
        return number
    return st.one_of(number, number, number, st.sampled_from(ODD_CELLS),
                     st.text(alphabet='0123456789.-+eE_ ,"\r\n\x00\xa0١x', max_size=6))


@st.composite
def csv_texts(draw):
    """CSV text, plain (numbers, LF ends, no blank line) or with odd parts
    mixed in: quoted cells, CR and CRLF ends, blank and whitespace lines,
    ragged rows and cells no reader accepts."""
    odd = draw(st.booleans())
    header = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=4))
    width = len(header)
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["row"] * 8 + ["ragged", "blank", "spaces"])) \
            if odd else "row"
        if kind == "blank":
            lines.append("")
        elif kind == "spaces":
            lines.append(" " * draw(st.integers(1, 3)))
        else:
            n = width if kind == "row" else draw(st.integers(1, width + 2))
            lines.append(",".join(draw(st.lists(_cell(odd), min_size=n, max_size=n))))
    ends = [draw(st.sampled_from(["\n"] * 4 + ["\r\n", "\r"])) if odd else "\n"
            for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    tail = draw(st.sampled_from(["keep", "drop", "blank"] if odd else ["keep", "drop"]))
    if tail == "drop":
        text = text[:-len(ends[-1])]
    elif tail == "blank":
        text += "\n"
    return text


def _outcome(reader, path):
    try:
        columns = reader(path)
    except InputError as exc:
        return "error", str(exc)
    return "columns", [(name, col.dtype.str, col.shape, col.tobytes())
                       for name, col in columns.items()]


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("csv") / "data.csv"


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(text=csv_texts())
@example(text="y,a\n1_000,2\n")
@example(text="y,a\n١٢,2\n")
@example(text="y,a\n\xa01.5,-0.0\n")
@example(text="y,a\r\n1,2\r\n")
@example(text="y,a\n1,2\n\n")
@example(text="y,a\n1,2")
@example(text="y\n-nan\n")
@example(text="y,y \n1,2\n")
@example(text="")
@example(text="y,a\n")
def test_reader_matches_reference(scratch, text):
    scratch.write_bytes(text.encode("utf-8"))
    assert _outcome(load_csv_columns, scratch) == \
        _outcome(reference_load_csv_columns, scratch)


@pytest.mark.parametrize("text", ["y,a\n1,2\n", 'y,a\r\n"1",2\r\n', "\ufeffy,a\n1,2\n"])
def test_leading_byte_order_mark_is_dropped(scratch, text):
    # Excel's "CSV UTF-8" starts with EF BB BF; one mark is dropped on
    # either path, so the first column keeps its name
    scratch.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert list(load_csv_columns(scratch)) == [text[:text.index(",")], "a"]
    assert _outcome(load_csv_columns, scratch) == \
        _outcome(reference_load_csv_columns, scratch)


@pytest.mark.parametrize("n, width", [(1, 1), (1, 3), (50, 7)])
def test_plain_files_take_the_bulk_parse(scratch, n, width):
    values = np.random.default_rng(n + width).normal(size=(n, width))
    values[0, 0] = -0.0
    header = [f"v{j}" for j in range(width)]
    text = ",".join(header) + "\n" + "".join(
        ",".join(repr(float(v)) for v in row) + "\n" for row in values)
    scratch.write_bytes(text.encode("utf-8"))
    assert _plain_columns(text.encode("utf-8")) is not None
    assert _outcome(load_csv_columns, scratch) == \
        _outcome(reference_load_csv_columns, scratch)
    columns = load_csv_columns(scratch)
    assert all(col.flags.c_contiguous and col.flags.owndata for col in columns.values())


def test_cell_over_the_field_limit_exits_2(tmp_path):
    # the csv module refuses a cell longer than its field limit (131,072
    # characters); the job reports that as a malformed file, not a traceback
    from test_cli import _run_cli

    path = tmp_path / "big.csv"
    path.write_text('y,a,m1\n"' + "1" * 140_000 + '",2,3\n4,5,6\n')
    proc = _run_cli(["effects", "--data", str(path), "--outcome", "y",
                     "--exposure", "a", "--mediators", "m1"])
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: {path}:2: field larger than field limit")
    assert "Traceback" not in proc.stderr


def test_plain_parse_peaks_under_three_and_a_half_file_sizes(tmp_path):
    # the bytes, the parsed values and their columns; no decoded copy of the
    # file and no text buffer of it (together about 7.5 file sizes)
    import tracemalloc

    values = np.random.default_rng(5).normal(size=(40_000, 7))
    path = tmp_path / "study.csv"
    path.write_bytes(("y,a,m1,m2,c1,c2,c3\n" + "".join(
        ",".join(map(repr, row)) + "\n" for row in values.tolist())).encode("utf-8"))
    size = path.stat().st_size
    tracemalloc.start()
    try:
        columns = load_csv_columns(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(np.column_stack(list(columns.values())), values)
    assert peak < 3.5 * size, f"peak {peak / size:.2f} file sizes"
