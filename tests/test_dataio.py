"""CSV schema, parse errors, and exact round trips."""
import csv
import string
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import make_record, to_records
from hemanet import cli, dataio
from hemanet.dataio import (
    LABEL_COLUMN,
    MAX_CELL_SHOWN,
    MAX_ROWS_SHOWN,
    READ_BLOCK_ROWS,
    CsvFormatError,
    load_csv,
    load_unlabeled_csv,
    save_csv,
    save_unlabeled_csv,
)
from hemanet.models import build_model
from hemanet.pipeline import run_pipeline
from hemanet.preprocess import FULL9, Normalizer
from hemanet.records import (PANEL_FIELDS, AnemiaLabel, CbcRecord, Gender, LabeledRecord,
                             validate_record)
from hemanet.serialize import ModelBundle
from hemanet.synth import synth_generate

# The loaders must not warn: numpy's reader warns on a block of blank lines.
pytestmark = pytest.mark.filterwarnings("error")

HEADER = "age,gender,rbc,hgb,hct,mcv,mch,mchc,wbc,label"
ROW = "40,female,4.5,13.5,40,90,30,34,7"


def test_round_trip_exact(tmp_path):
    records = synth_generate(147, {
        AnemiaLabel.MICROCYTIC: 26,
        AnemiaLabel.NORMOCYTIC: 40,
        AnemiaLabel.MACROCYTIC: 39,
        AnemiaLabel.NON_ANEMIC: 42,
    }, seed=7)
    path = tmp_path / "data.csv"
    save_csv(records, path)
    assert to_records(load_csv(path)) == records


def test_save_is_stable_after_one_round_trip(tmp_path):
    records = synth_generate(20, {AnemiaLabel.NON_ANEMIC: 20}, seed=2)
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    save_csv(records, first)
    save_csv(to_records(load_csv(first)), second)
    assert first.read_bytes() == second.read_bytes()


def test_header_only_file(tmp_path, monkeypatch):
    path = tmp_path / "empty.csv"
    path.write_text(HEADER + "\n\n")
    for block in (1, READ_BLOCK_ROWS):
        monkeypatch.setattr(dataio, "READ_BLOCK_ROWS", block)
        batch = load_csv(path)
        assert to_records(batch) == []
        assert (batch.age.dtype, batch.gender.dtype, batch.label.dtype) == (
            np.int64, np.int8, np.int8)
        assert batch.analytes.shape == (0, len(PANEL_FIELDS) - 2)
        assert load_unlabeled_csv(path).label is None


def test_label_tokens_are_case_insensitive(tmp_path):
    path = tmp_path / "mixed.csv"
    path.write_text(f"{HEADER}\n{ROW},Microcytic\n{ROW},MACROCYTIC\n{ROW},non_anemic\n")
    labels = [item.label for item in to_records(load_csv(path))]
    assert labels == [AnemiaLabel.MICROCYTIC, AnemiaLabel.MACROCYTIC, AnemiaLabel.NON_ANEMIC]


def test_missing_column_is_reported(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("age,gender,rbc,hgb,hct,mcv,mch,mchc,label\n")
    with pytest.raises(CsvFormatError, match="missing column"):
        load_csv(path)
    with pytest.raises(CsvFormatError, match="wbc"):
        load_csv(path)


def test_unparsable_cell_reports_row_and_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(f"{HEADER}\n{ROW},microcytic\n40,female,4.5,oops,40,90,30,34,7,microcytic\n")
    with pytest.raises(CsvFormatError, match=r"row 2.*hgb.*oops"):
        load_csv(path)


def test_unknown_label_token(tmp_path):
    path = tmp_path / "bad_label.csv"
    path.write_text(f"{HEADER}\n{ROW},sideways\n")
    with pytest.raises(CsvFormatError, match="unknown label"):
        load_csv(path)


def test_bad_gender_token(tmp_path):
    path = tmp_path / "bad_gender.csv"
    path.write_text(f"{HEADER}\n40,robot,4.5,13.5,40,90,30,34,7,non_anemic\n")
    with pytest.raises(CsvFormatError, match=r"row 1.*gender"):
        load_csv(path)


def test_unlabeled_round_trip(tmp_path):
    records = [item.record for item in synth_generate(15, {AnemiaLabel.NORMOCYTIC: 15}, seed=4)]
    path = tmp_path / "unlabeled.csv"
    save_unlabeled_csv(records, path)
    assert path.read_text().splitlines()[0] == ",".join(HEADER.split(",")[:-1])
    assert to_records(load_unlabeled_csv(path)) == records


def test_labeled_file_loads_as_unlabeled(tmp_path):
    # The label column is simply ignored when loading records only.
    records = synth_generate(5, {AnemiaLabel.NON_ANEMIC: 5}, seed=6)
    path = tmp_path / "labeled.csv"
    save_csv(records, path)
    assert to_records(load_unlabeled_csv(path)) == [item.record for item in records]


def test_unlabeled_file_rejected_by_labeled_loader(tmp_path):
    path = tmp_path / "unlabeled.csv"
    save_unlabeled_csv([item.record for item in synth_generate(3, {AnemiaLabel.NON_ANEMIC: 3})], path)
    with pytest.raises(CsvFormatError, match="label"):
        load_csv(path)


def test_empty_file(tmp_path):
    path = tmp_path / "nothing.csv"
    path.write_text("")
    with pytest.raises(CsvFormatError, match="header"):
        load_csv(path)


def test_invalid_labeled_rows_are_refused_with_row_numbers(tmp_path):
    path = tmp_path / "implausible.csv"
    bad = "40,female,4.5,nan,40,90,30,34,7,microcytic"
    path.write_text(f"{HEADER}\n{ROW},non_anemic\n{bad}\n\n{ROW},non_anemic\n"
                    "300,male,4.5,13.5,40,1e9,30,34,7,non_anemic\n")
    with pytest.raises(CsvFormatError) as exc:
        load_csv(path)
    assert str(exc.value) == (
        f"{path}: 2 invalid row(s): row 2 (hgb must be finite), "
        "row 4 (age out of [0, 120]; mcv out of [50, 150])"
    )


def test_invalid_row_list_is_capped(tmp_path):
    path = tmp_path / "many.csv"
    rows = "".join(f"{ROW},non_anemic\n-1,male,4.5,13.5,40,90,30,34,7,non_anemic\n"
                   for _ in range(MAX_ROWS_SHOWN + 3))
    path.write_text(f"{HEADER}\n{rows}")
    message = str(pytest.raises(CsvFormatError, load_csv, path).value)
    assert message.startswith(f"{path}: {MAX_ROWS_SHOWN + 3} invalid row(s): row 2 (age ")
    assert message.count("row ") == MAX_ROWS_SHOWN
    assert message.endswith(", and 3 more")


def test_unlabeled_loader_keeps_invalid_rows(tmp_path):
    path = tmp_path / "unlabeled.csv"
    path.write_text(f"{HEADER}\n300,male,4.5,13.5,40,1e9,30,34,7,x\n")
    [record] = to_records(load_unlabeled_csv(path))
    assert record.age == 300 and record.mcv == 1e9


def test_csv_syntax_error_is_a_format_error(tmp_path):
    path = tmp_path / "huge_field.csv"
    path.write_text(f"{HEADER}\n{'9' * (csv.field_size_limit() + 1)},female\n")
    with pytest.raises(CsvFormatError, match="field larger than field limit"):
        load_unlabeled_csv(path)


def test_stray_quote_error_quotes_a_bounded_cell(tmp_path, capsys):
    # csv reads the rest of the file after a stray quote as one cell.
    rows = [f"{ROW},non_anemic"] * 52
    rows[0] = rows[0].replace("female", '"female')
    path = tmp_path / "stray_quote.csv"
    path.write_text("\n".join([HEADER, *rows, ""]))
    cell = path.read_text().split('"', 1)[1]
    want = (f"{path}: row 1, column 'gender': cannot parse a cell of {len(cell)} characters "
            f"starting {cell[:MAX_CELL_SHOWN]!r}")
    for load in (load_csv, load_unlabeled_csv):
        with pytest.raises(CsvFormatError) as exc:
            load(path)
        assert str(exc.value) == want
    assert cli.main(["train", "--data", str(path), "--family", "ffnn", "--stage", "diagnosis",
                     "-o", str(tmp_path / "m.json")]) == 3
    err = capsys.readouterr().err
    assert err == f"data error: {want}\n" and len(err) < len(str(path)) + 200


@pytest.mark.parametrize("labeled", [True, False])
def test_short_row_error_names_its_width(tmp_path, capsys, labeled):
    # The second row stops after rbc: it is named with its count of cells
    # against the header's, where hgb's missing cell was quoted as None.
    header = HEADER if labeled else HEADER.removesuffix(",label")
    label = ",non_anemic" if labeled else ""
    path = tmp_path / "short_row.csv"
    path.write_text(f"{header}\n{ROW}{label}\n41,male,4.5\n{ROW}{label}\n")
    want = f"{path}: row 2 has 3 of the header's {len(header.split(','))} cells"
    load = load_csv if labeled else load_unlabeled_csv
    assert str(pytest.raises(CsvFormatError, load, path).value) == want
    if labeled:
        assert cli.main(["train", "--data", str(path), "--family", "ffnn",
                         "--stage", "diagnosis", "-o", str(tmp_path / "m.json")]) == 3
        assert capsys.readouterr().err == f"data error: {want}\n"


@pytest.mark.parametrize("column,problem", [("gender", "cannot parse"),
                                            ("label", "unknown label")])
@pytest.mark.parametrize("extra", [0, 1])
def test_cell_longer_than_the_cap_is_quoted_as_length_and_head(tmp_path, column, problem, extra):
    # A cell of MAX_CELL_SHOWN characters is quoted whole, as every message
    # quoted it; one character more and the message gives its length and head.
    cell = string.ascii_letters[:MAX_CELL_SHOWN + extra]
    cells = dict(zip(HEADER.split(","), f"{ROW},non_anemic".split(",")))
    cells[column] = cell
    path = tmp_path / "long_cell.csv"
    path.write_text(f"{HEADER}\n{','.join(cells.values())}\n")
    quoted = (f"a cell of {len(cell)} characters starting {cell[:MAX_CELL_SHOWN]!r}"
              if extra else repr(cell))
    message = str(pytest.raises(CsvFormatError, load_csv, path).value)
    assert message == f"{path}: row 1, column '{column}': {problem} {quoted}"


@pytest.mark.parametrize("loader", [load_csv, load_unlabeled_csv])
@pytest.mark.parametrize("where", ["header", "first row", "last block"])
def test_non_utf8_byte_is_a_format_error_naming_the_file(tmp_path, loader, where):
    rows = [f"{ROW},normocytic"] * (READ_BLOCK_ROWS + 2)
    header = HEADER
    if where == "header":
        header += ",note\udcff"
    elif where == "first row":
        rows[0] = rows[0].replace("female", "fem\udcffale")
    else:
        rows[-1] = rows[-1].replace("normocytic", "\udcff")
    path = tmp_path / "latin1.csv"
    path.write_bytes("\n".join([header, *rows, ""]).encode("utf-8", "surrogateescape"))
    with pytest.raises(CsvFormatError, match=f"^{path}: not UTF-8 text"):
        loader(path)


# ---------------------------------------------------------------------------
# The row-at-a-time loader that the columnar one replaced, kept as the
# reference for its parsing semantics.


def reference_rows(path):
    """(rows, header): each non-blank row as (its cells by column name, as
    csv.DictReader gives them, a missing cell None; its count of cells)."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            fieldnames = next(reader, None)
            rows = [(dict(zip(fieldnames, row)) | dict.fromkeys(fieldnames[len(row):]), len(row))
                    for row in reader if row]
    except csv.Error as exc:
        raise CsvFormatError(f"{path}: {exc}") from None
    if fieldnames is None:
        raise CsvFormatError(f"{path}: empty file, expected a header row")
    return rows, tuple(fieldnames)


def reference_require(path, fieldnames, expected):
    missing = [c for c in expected if c not in fieldnames]
    if missing:
        raise CsvFormatError(f"{path}: missing column(s): {', '.join(missing)}")


def reference_cell(value):
    """A cell as a load error quotes it: whole up to MAX_CELL_SHOWN characters,
    else its length and its head."""
    if len(value) > MAX_CELL_SHOWN:
        return f"a cell of {len(value)} characters starting {value[:MAX_CELL_SHOWN]!r}"
    return repr(value)


def reference_bad(path, row_num, row, fieldnames, column, problem="cannot parse"):
    """The error for the cell of ``column`` that fails, or that the row is too short to hold."""
    values, cells = row
    if values[column] is None:
        return CsvFormatError(
            f"{path}: row {row_num} has {cells} of the header's {len(fieldnames)} cells")
    return CsvFormatError(
        f"{path}: row {row_num}, column '{column}': {problem} {reference_cell(values[column])}")


def reference_record(path, row_num, row, fieldnames):
    def bad(column):
        return reference_bad(path, row_num, row, fieldnames, column)

    values = row[0]
    try:
        age = min(max(int(values["age"]), -2**63), 2**63 - 1)  # held at int64's ends
    except (TypeError, ValueError):
        raise bad("age") from None
    try:
        gender = Gender((values["gender"] or "").strip().lower())
    except ValueError:
        raise bad("gender") from None
    analytes = {}
    for name in PANEL_FIELDS[2:]:
        try:
            analytes[name] = float(values[name])
        except (TypeError, ValueError):
            raise bad(name) from None
    return CbcRecord(age=age, gender=gender, **analytes)


def reference_unlabeled(path):
    rows, fieldnames = reference_rows(path)
    reference_require(path, fieldnames, PANEL_FIELDS)
    return [reference_record(path, i, row, fieldnames) for i, row in enumerate(rows, start=1)]


def reference_labeled(path):
    """The old load_csv, which did not validate rows."""
    rows, fieldnames = reference_rows(path)
    reference_require(path, fieldnames, PANEL_FIELDS + (LABEL_COLUMN,))
    out = []
    for i, row in enumerate(rows, start=1):
        record = reference_record(path, i, row, fieldnames)
        try:
            label = AnemiaLabel((row[0][LABEL_COLUMN] or "").strip().lower())
        except ValueError:
            raise reference_bad(path, i, row, fieldnames, LABEL_COLUMN, "unknown label") from None
        out.append(LabeledRecord(record, label))
    return out


def outcome(load, path):
    """The loaded records as reprs (so NaN cells compare equal), or the error text."""
    try:
        return [repr(item) for item in load(path)]
    except CsvFormatError as exc:
        return str(exc)


TOKENS = ["", " ", "nan", "inf", "-inf", "1e308", "1e400", "-3", "0", "4_2", "1_3.5", "4.5.6",
          "0x10", "42.0", "99999999999999999999999", "male", "Female ", " MALE", "robot",
          "Microcytic", "non_anemic ", "sideways", "\t7"]
# Cells at the boundary between numpy's reader and the csv reader: a stray
# quote, NUL, a lone CR, \x1c (whitespace to numpy, not to float()), tokens
# longer than numpy's string fields, a non-ASCII digit and \xa0 padding.
BOUNDARY_TOKENS = ['fe"male', '"', "male\0", "3\r9", "\x1c7", " female xyz", "non_anemic_xx",
                   "٣", "\xa07", "4.5\xa0"]
TOKENS += BOUNDARY_TOKENS


@st.composite
def mutated_csv(draw):
    """A small valid labeled CSV with a few edits of the kinds real files show."""
    header = list(PANEL_FIELDS) + [LABEL_COLUMN]
    rows = [["40", "female", "4.5", "13.5", "40", "90", "30", "34", "7", "non_anemic"],
            ["67", "male", "3.9", "10.1", "33", "72", "23", "29", "6.1", "microcytic"],
            ["25", "female", "3.1", "9.4", "34", "110", "36", "37", "8", "macrocytic"]]
    eol = "\n"
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["token", "pad", "short", "long", "reorder", "extra",
                                     "blank", "duplicate", "drop", "quoted", "huge", "crlf"]))
        if kind in ("token", "pad", "short", "long") and not rows:
            continue
        r = draw(st.integers(0, len(rows) - 1)) if rows else 0
        if kind == "token":
            c = draw(st.integers(0, len(rows[r]) - 1)) if rows[r] else 0
            if rows[r]:
                rows[r][c] = draw(st.sampled_from(TOKENS))
        elif kind == "pad" and rows[r]:
            c = draw(st.integers(0, len(rows[r]) - 1))
            rows[r][c] = draw(st.sampled_from([" ", "  ", "\t", "\xa0"])) + rows[r][c] + " "
        elif kind == "short":
            rows[r] = rows[r][:draw(st.integers(1, max(1, len(rows[r]) - 1)))]
        elif kind == "long":
            rows[r] = rows[r] + draw(st.lists(st.sampled_from(TOKENS), min_size=1, max_size=2))
        elif kind == "reorder":
            order = draw(st.permutations(range(len(header))))
            header = [header[i] for i in order]
            rows = [[row[i] for i in order if i < len(row)] if len(row) >= len(order)
                    else row for row in rows]
        elif kind == "extra":
            header = header + ["note"]
            rows = [row + ["x"] for row in rows]
        elif kind == "blank":
            rows.insert(draw(st.integers(0, len(rows))), [])
        elif kind == "duplicate":
            header = header + [draw(st.sampled_from(header))]
            rows = [row + [draw(st.sampled_from(TOKENS))] for row in rows]
        elif kind == "drop":
            header = [h for h in header if h != draw(st.sampled_from(header))]
        elif kind == "quoted":  # a quoted comma in a column before the used ones
            header = ["note"] + header
            rows = [['"a,b"'] + row for row in rows]
        elif kind == "huge":  # a field over the csv module's limit, in an ignored column
            header = header + ["note"]
            rows = [row + ["9" * (csv.field_size_limit() + 1)] for row in rows]
        elif kind == "crlf":
            eol = "\r\n"
    return eol.join(",".join(row) for row in [header] + rows) + eol


class TestColumnarLoaderMatchesRowParser:
    @pytest.fixture(autouse=True, params=[1, 3, READ_BLOCK_ROWS])
    def block_rows(self, request, monkeypatch):
        monkeypatch.setattr(dataio, "READ_BLOCK_ROWS", request.param)

    @given(mutated_csv())
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_unlabeled(self, tmp_path, text):
        path = tmp_path / "mutated.csv"
        path.write_text(text, encoding="utf-8", newline="")
        expected = outcome(reference_unlabeled, path)
        got = outcome(lambda p: to_records(load_unlabeled_csv(p)), path)
        assert got == expected

    @given(mutated_csv())
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_labeled(self, tmp_path, text):
        path = tmp_path / "mutated.csv"
        path.write_text(text, encoding="utf-8", newline="")
        assert_labeled_matches_reference(path)

    @given(mutated_csv())
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_numpy_reader_matches_csv_reader(self, tmp_path, text):
        path = tmp_path / "mutated.csv"
        path.write_text(text, encoding="utf-8", newline="")
        assert_readers_agree(path)


def assert_labeled_matches_reference(path):
    expected = outcome(reference_labeled, path)
    got = outcome(lambda p: to_records(load_csv(p)), path)
    parsed = reference_labeled(path) if isinstance(expected, list) else []
    invalid = [n for n, item in enumerate(parsed, start=1) if validate_record(item.record)]
    if invalid:
        # The reference parsed the file; load_csv also refuses implausible rows.
        assert got.startswith(f"{path}: {len(invalid)} invalid row(s): row {invalid[0]} (")
    else:
        assert got == expected


def columns_outcome(load, path):
    """Each column's dtype, shape, layout and contents, or the error text."""
    try:
        batch = load(path)
    except CsvFormatError as exc:
        return str(exc)
    return [None if a is None else (a.dtype, a.shape, a.flags.f_contiguous, a.tobytes())
            for a in (batch.age, batch.gender, batch.analytes, batch.label)]


def assert_readers_agree(path):
    """Both loaders give the same columns, bit for bit, or the same error,
    whether or not numpy's reader may take the file."""
    for load in (load_csv, load_unlabeled_csv):
        got = columns_outcome(load, path)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dataio, "_numpy_blocks", lambda fh, columns: None)
            assert got == columns_outcome(load, path)


class TestReaderBoundary:
    """Files numpy's reader must leave to the csv reader, and files it must take."""

    @pytest.mark.parametrize("token", BOUNDARY_TOKENS)
    def test_token_in_each_column(self, tmp_path, token):
        for column in range(len(PANEL_FIELDS) + 1):
            rows = [f"{ROW},non_anemic".split(",") for _ in range(3)]
            rows[1][column] = token
            path = write_lines(tmp_path, [",".join(row) for row in rows])
            assert_labeled_matches_reference(path)
            assert (outcome(lambda p: to_records(load_unlabeled_csv(p)), path)
                    == outcome(reference_unlabeled, path))
            assert_readers_agree(path)

    @pytest.mark.parametrize("header, lines", [
        (f"note,{HEADER}", [f'"a,b",{ROW},non_anemic'] * 2),
        (f"{HEADER},note", [f"{ROW},non_anemic,{'9' * (csv.field_size_limit() + 1)}"]),
        (HEADER, [f"{ROW},non_anemic\r{ROW},macrocytic\r\n{ROW},normocytic\r", "\r"]),
        (HEADER, ["", "", f"{ROW},non_anemic", "", ""]),
    ], ids=["quoted-comma", "huge-ignored-field", "lone-cr", "blank-lines"])
    def test_file(self, tmp_path, monkeypatch, header, lines):
        monkeypatch.setattr(dataio, "READ_BLOCK_ROWS", 2)
        path = tmp_path / "boundary.csv"
        path.write_text("\n".join([header] + lines) + "\n", encoding="utf-8", newline="")
        assert_matches_reference(path)
        assert_readers_agree(path)

    def test_quote_in_the_header_alone_takes_the_csv_reader(self, tmp_path, monkeypatch):
        path = write_lines(tmp_path, varied_rows(5))
        plain = columns_outcome(load_csv, path)
        path.write_text(path.read_text().replace("age", '"age"', 1))
        parsed, parse = [], dataio._parse_blocks
        monkeypatch.setattr(dataio, "_parse_blocks",
                            lambda *args: parsed.append(1) or parse(*args))
        assert columns_outcome(load_csv, path) == plain
        assert parsed == [1]

    @pytest.mark.parametrize("block", [4, READ_BLOCK_ROWS])
    def test_saved_files_take_the_numpy_reader(self, tmp_path, monkeypatch, block):
        # save_csv ends lines with CRLF.  Were its files left to the csv
        # reader, the loaders would still work, only slower; this shows it.
        monkeypatch.setattr(dataio, "READ_BLOCK_ROWS", block)
        labeled = synth_generate(10, {AnemiaLabel.MICROCYTIC: 5, AnemiaLabel.NON_ANEMIC: 5},
                                 seed=3)
        # One row of each implausible kind that perfbench's screen workload injects.
        injected = [("hgb", 1.5), ("mcv", 180.0), ("wbc", 0.4), ("mchc", 50.0), ("rbc", 9.5),
                    ("age", 130), ("hct", 120.0), ("hgb", float("nan"))]
        records = ([item.record for item in labeled]
                   + [make_record(**{name: value}) for name, value in injected])
        labeled_path, unlabeled_path = tmp_path / "labeled.csv", tmp_path / "unlabeled.csv"
        save_csv(labeled, labeled_path)
        save_unlabeled_csv(records, unlabeled_path)
        assert b"\r\n" in labeled_path.read_bytes()

        def refuse(*args):
            raise AssertionError("the csv reader parsed a file save_csv wrote")

        monkeypatch.setattr(dataio, "_parse_blocks", refuse)
        assert to_records(load_csv(labeled_path)) == labeled
        assert (outcome(lambda p: to_records(load_unlabeled_csv(p)), unlabeled_path)
                == [repr(r) for r in records])
        assert to_records(load_unlabeled_csv(labeled_path)) == records[:len(labeled)]


# ---------------------------------------------------------------------------
# Block-wise parsing: results and errors must not depend on where blocks end.


def varied_rows(n):
    """n distinct valid labeled rows, so a dropped or repeated row shows."""
    labels = ["non_anemic", "microcytic", "normocytic", "macrocytic"]
    return [f"{18 + i % 80},{'male' if i % 3 else 'female'},{4 + i % 7 / 10:g},"
            f"{12 + i % 11 / 10:g},40,90,30,34,{5 + i / 1000:g},{labels[i % 4]}"
            for i in range(n)]


def write_lines(tmp_path, lines):
    path = tmp_path / "blocks.csv"
    path.write_text("\n".join([HEADER] + lines) + "\n", encoding="utf-8")
    return path


def assert_matches_reference(path):
    assert outcome(lambda p: to_records(load_csv(p)), path) == outcome(reference_labeled, path)
    assert (outcome(lambda p: to_records(load_unlabeled_csv(p)), path)
            == outcome(reference_unlabeled, path))


class TestBlockBoundaries:
    @pytest.mark.parametrize("block", [4, READ_BLOCK_ROWS])
    @pytest.mark.parametrize("extra", [-1, 0, 1, "2N+1"])
    def test_row_counts_around_a_block(self, tmp_path, monkeypatch, block, extra):
        monkeypatch.setattr(dataio, "READ_BLOCK_ROWS", block)
        n = 2 * block + 1 if extra == "2N+1" else block + extra
        path = write_lines(tmp_path, varied_rows(n))
        assert len(load_csv(path)) == n
        assert_matches_reference(path)

    @pytest.mark.parametrize("blank_at", [2, 3, 4])
    def test_blank_lines_beside_a_boundary(self, tmp_path, monkeypatch, blank_at):
        # Blocks of 3 non-blank rows: a blank line before, at and after the first boundary.
        monkeypatch.setattr(dataio, "READ_BLOCK_ROWS", 3)
        lines = varied_rows(7)
        lines[blank_at:blank_at] = ["", ""]
        path = write_lines(tmp_path, lines)
        assert len(load_csv(path)) == 7
        assert_matches_reference(path)

    def test_bad_cell_in_the_second_block_has_its_file_row_number(self, tmp_path, monkeypatch):
        monkeypatch.setattr(dataio, "READ_BLOCK_ROWS", 4)
        lines = varied_rows(12)
        lines[5] = lines[5].replace(",male,", ",robot,").replace(",female,", ",robot,")
        lines[6] = lines[6].replace("40,90", "40,oops")
        lines[3:3] = [""]
        path = write_lines(tmp_path, lines)
        with pytest.raises(CsvFormatError, match=r"row 6, column 'gender': cannot parse 'robot'"):
            load_csv(path)
        assert_matches_reference(path)

    def test_csv_error_in_a_later_block_wins_over_a_bad_cell(self, tmp_path, monkeypatch):
        monkeypatch.setattr(dataio, "READ_BLOCK_ROWS", 2)
        lines = varied_rows(8)
        lines[0] = lines[0].replace("40,90", "40,oops")
        lines[6] = "9" * (csv.field_size_limit() + 1) + ",female"
        path = write_lines(tmp_path, lines)
        for load in (load_csv, load_unlabeled_csv):
            with pytest.raises(CsvFormatError, match="field larger than field limit"):
                load(path)

    def test_csv_error_wins_over_a_missing_column(self, tmp_path):
        path = tmp_path / "no_label.csv"
        path.write_text(f"{HEADER[:-6]}\n{ROW}\n{'9' * (csv.field_size_limit() + 1)}\n")
        with pytest.raises(CsvFormatError, match="field larger than field limit"):
            load_csv(path)

    def test_a_23_digit_age_is_held_at_int64s_end(self, tmp_path, monkeypatch):
        monkeypatch.setattr(dataio, "READ_BLOCK_ROWS", 2)
        lines = varied_rows(5)
        lines[3] = "99999999999999999999999" + lines[3][2:]
        path = write_lines(tmp_path, lines)
        for numpy_reader in (True, False):
            with pytest.MonkeyPatch.context() as patch:
                if not numpy_reader:
                    patch.setattr(dataio, "_numpy_blocks", lambda fh, columns: None)
                batch = load_unlabeled_csv(path)
                assert batch.age.dtype == np.int64
                assert batch.age.tolist() == [18, 19, 20, 2**63 - 1, 22]
                message = str(pytest.raises(CsvFormatError, load_csv, path).value)
                assert message == f"{path}: 1 invalid row(s): row 4 (age out of [0, 120])"
        diag = ModelBundle("ffnn", build_model("ffnn", 9, 4, 1), FULL9, "binary1",
                           Normalizer(np.zeros(9), np.ones(9)))
        clf = ModelBundle("ffnn", build_model("ffnn", 9, 4, 3), FULL9, "onehot3",
                          Normalizer(np.zeros(9), np.ones(9)))
        error = run_pipeline(diag, clf, load_unlabeled_csv(path)).error
        assert error.tolist() == [None] * 3 + ["age out of [0, 120]", None]


class TestLoaderMemory:
    """load_csv holds the columns plus one block of row strings, not the file.

    Joining the blocks briefly holds the columns twice, and the validity
    checks hold bool matrices about the columns' size; both scale with N.
    One block of strings is bounded at 1 KiB a row.  No timing is asserted.
    """

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        base = synth_generate(400, {
            AnemiaLabel.MICROCYTIC: 100, AnemiaLabel.NORMOCYTIC: 100,
            AnemiaLabel.MACROCYTIC: 100, AnemiaLabel.NON_ANEMIC: 100,
        }, seed=11)
        paths = {}
        for n in (20_000, 40_000):
            paths[n] = tmp_path_factory.mktemp("memory") / f"rows_{n}.csv"
            save_csv(base * (n // len(base)), paths[n])
        return paths

    @staticmethod
    def traced_load(path):
        load_csv(path)  # warm the parsers' caches outside the trace
        tracemalloc.start()
        try:
            batch = load_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        columns = batch.age.nbytes + batch.gender.nbytes + batch.analytes.nbytes
        return peak, columns + batch.label.nbytes

    def test_peak_is_the_columns_plus_one_block(self, files):
        peak, columns = self.traced_load(files[20_000])
        assert peak < 2.25 * columns + READ_BLOCK_ROWS * 1024

    def test_peak_grows_with_the_columns_only(self, files):
        small, large = self.traced_load(files[20_000]), self.traced_load(files[40_000])
        assert large[0] - small[0] <= 2.25 * (large[1] - small[1])
