"""CSV ingest: ``load_csv`` against the per-field reference loader.

``reference_load_csv`` is the loader ``load_csv`` replaced: one ``csv.reader``
record at a time, Python's ``float`` on every field. The fast loader must
return the same bytes, or raise the same error class naming the same row, on
every CSV outside the input-grammar differences pinned below.
"""

import csv
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symrank.core import build_dataset, load_csv
from symrank.errors import DimensionMismatch, NonFiniteData, SymrankError


def reference_load_csv(path, response: str):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DimensionMismatch(f"{path}: file is empty") from None
        header = [h.strip() for h in header]
        if "" in header:
            raise DimensionMismatch(
                f"{path}: header column {header.index('') + 1} has no name")
        if len(set(header)) < len(header):
            name = next(h for i, h in enumerate(header) if h in header[:i])
            raise DimensionMismatch(f"{path}: column name {name!r} appears more than once")
        if response not in header:
            raise DimensionMismatch(f"{path}: no column named {response!r}")
        y_col = header.index(response)
        x_cols = [j for j in range(len(header)) if j != y_col]
        if not x_cols:
            raise DimensionMismatch(f"{path}: no input columns besides {response!r}")
        xs, ys = [], []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise DimensionMismatch(
                    f"{path}: row {lineno} has {len(row)} fields, expected {len(header)}")
            try:
                values = [float(c) for c in row]
            except ValueError as exc:
                raise DimensionMismatch(f"{path}: row {lineno}: {exc}") from None
            xs.append([values[j] for j in x_cols])
            ys.append(values[y_col])
    if not xs:
        raise DimensionMismatch(f"{path}: no data rows")
    return build_dataset(np.array(xs), np.array(ys), [header[j] for j in x_cols])


def _outcome(load, path, response):
    """(x bytes, y bytes, names), or (error class, the row it names)."""
    try:
        ds = load(path, response)
    except SymrankError as exc:
        row = re.search(r"row (\d+)", str(exc))
        return type(exc), row and int(row.group(1))
    assert ds.x.flags.c_contiguous and ds.y.flags.c_contiguous
    return ds.x.tobytes(), ds.y.tobytes(), ds.column_names


GOOD_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.floats(-1e6, 1e6).map(lambda v: f"{v:.6e}"),
    st.sampled_from(["+1.5", ".5", "5.", "-0", "1E5", "2e-3"]),
)
NON_FINITE = st.sampled_from(["nan", "NaN", "inf", "-inf", "+Infinity", "1e400"])
NOT_NUMBERS = st.sampled_from(["", "abc", "1.2.3", "1e", "--1", "0x10", "1 2", '1"2"'])
PADDING = st.sampled_from(["", " ", "  ", "\t", " \t"])
BLANK_LINES = st.sampled_from(["", " ", "\t  ", ",", ",,,", '""', '" ",', ' , "" ,'])
LINE_ENDS = st.sampled_from(["\n", "\r\n"])


@st.composite
def fields(draw):
    kind = draw(st.integers(0, 39))  # most files parse, some fail at a random row
    text = draw(NON_FINITE if kind == 0 else NOT_NUMBERS if kind == 1 else GOOD_NUMBERS)
    if draw(st.integers(0, 3)) == 0:
        # a space before the opening quote makes the quote part of the field
        before = " " if draw(st.integers(0, 19)) == 0 else ""
        return before + '"' + draw(PADDING) + text + draw(PADDING) + '"' + draw(PADDING)
    return draw(PADDING) + text + draw(PADDING)


@st.composite
def csv_files(draw):
    """(file text, response name) for a headed CSV in the shared grammar."""
    width = draw(st.integers(2, 4))
    names = [f"c{j}" for j in range(width)]
    header = [f'"{n}"' if draw(st.booleans()) else f" {n} " for n in names]
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(BLANK_LINES))
            continue
        row_width = width
        if draw(st.integers(0, 19)) == 0:
            row_width = draw(st.integers(1, width + 1))
        lines.append(",".join(draw(fields()) for _ in range(row_width)))
    ends = [draw(LINE_ENDS) for _ in lines]
    if draw(st.booleans()):
        ends[-1] = ""  # a last line with no newline
    return "".join(line + end for line, end in zip(lines, ends)), draw(st.sampled_from(names))


class TestAgainstReference:
    @given(csv_files())
    @settings(max_examples=400, deadline=None)
    def test_same_arrays_or_same_error_row(self, case):
        text, response = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "d.csv"
            with open(path, "w", newline="", encoding="utf-8") as fh:
                fh.write(text)
            assert _outcome(load_csv, path, response) == \
                _outcome(reference_load_csv, path, response)

    def test_workload_shaped_file_is_bit_identical(self, tmp_path):
        rng = np.random.default_rng(5)
        x = rng.uniform(-1, 1, size=(500, 3))
        path = tmp_path / "d.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x1", "x2", "x3", "y"])
            writer.writerows([*row, row[0] ** 3 + row[2]] for row in x)
        assert _outcome(load_csv, path, "y") == _outcome(reference_load_csv, path, "y")


def _load(tmp_path, text, response="y"):
    path = tmp_path / "d.csv"
    path.write_bytes(text.encode("utf-8"))
    return load_csv(path, response)


class TestGrammar:
    @pytest.mark.parametrize("text", ["", "a,y\n", "a,y", "a,y\n\n \n,\n"])
    def test_no_data(self, text, tmp_path):
        with pytest.raises(DimensionMismatch, match="empty|no data rows"):
            _load(tmp_path, text)

    def test_blank_lines_keep_their_row_numbers(self, tmp_path):
        ds = _load(tmp_path, 'a,y\n\n  \n1,2\n,,\n""\n3,4\r\n\t\n5,6')
        assert np.array_equal(ds.x, [[1], [3], [5]]) and np.array_equal(ds.y, [2, 4, 6])
        with pytest.raises(DimensionMismatch, match="row 7"):
            _load(tmp_path, "a,y\n1,2\n\n , \n3,4\n\n5\n")

    def test_short_first_row_is_named(self, tmp_path):
        with pytest.raises(DimensionMismatch, match="row 2 has 1 fields, expected 2"):
            _load(tmp_path, "a,y\n1\n3\n")

    def test_quoted_comma_is_not_blank(self, tmp_path):
        with pytest.raises(DimensionMismatch, match="row 3"):
            _load(tmp_path, 'a,y\n1,2\n",",\n')

    def test_non_finite_is_rejected(self, tmp_path):
        with pytest.raises(NonFiniteData):
            _load(tmp_path, "a,y\n1,2\nnan,3\n")
        with pytest.raises(NonFiniteData):
            _load(tmp_path, "a,y\ninf,2\n")

    @pytest.mark.parametrize("header", ["x1,y,y", "x1,x1,y", " y ,x1,y"])
    def test_repeated_header_name_is_rejected(self, header, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(f"{header}\n1,2,3\n")
        name = "x1" if "x1,x1" in header else "y"
        message = f"{path}: column name {name!r} appears more than once"
        for load in (load_csv, reference_load_csv):
            with pytest.raises(DimensionMismatch, match=re.escape(message)):
                load(path, "y")

    @pytest.mark.parametrize("header, column", [
        ("x1,,y", 2), (" ,x1,y", 1), ('x1,y,""', 3), ("x1,,,y", 2)])
    def test_empty_header_name_is_rejected(self, header, column, tmp_path):
        # an empty name would score as a column named "", and --response ""
        # would pick it as y
        path = tmp_path / "d.csv"
        path.write_text(f"{header}\n{','.join('1' * len(header.split(',')))}\n")
        message = f"{path}: header column {column} has no name"
        for load in (load_csv, reference_load_csv):
            for response in ("y", ""):
                with pytest.raises(DimensionMismatch, match=re.escape(message)):
                    load(path, response)

    def test_hash_inside_a_field_is_not_a_comment(self, tmp_path):
        # with loadtxt's default comments="#", "3,4#9" would read as 3,4
        with pytest.raises(DimensionMismatch, match="row 3"):
            _load(tmp_path, "a,y\n1,2\n3,4#9\n")
        with pytest.raises(DimensionMismatch, match="row 2"):
            _load(tmp_path, 'a,y\n"#1",2\n')


class TestDeclaredDifferences:
    """Inputs on which ``load_csv`` and the reference loader differ on purpose."""

    @pytest.mark.parametrize("literal", ["1_0", "١", "１"],
                             ids=["underscore", "arabic-indic-digit", "fullwidth-digit"])
    def test_rejected_with_the_row(self, literal, tmp_path):
        text = f"a,y\n1,2\n{literal},3\n"
        path = tmp_path / "d.csv"
        path.write_text(text, encoding="utf-8")
        assert reference_load_csv(path, "y").x[1, 0] == float(literal)
        with pytest.raises(DimensionMismatch, match="row 3"):
            load_csv(path, "y")

    def test_a_quoted_field_across_lines_is_joined(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text('a,y\n"1\n",2\n"3\n5",4\n', encoding="utf-8")
        with pytest.raises(DimensionMismatch, match="row 3"):
            reference_load_csv(path, "y")  # float("3\n5") fails
        assert load_csv(path, "y").x.tolist() == [[1.0], [35.0]]
