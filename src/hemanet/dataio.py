"""CSV persistence for labeled and unlabeled CBC panels.

Schema: ``age,gender,rbc,hgb,hct,mcv,mch,mchc,wbc,label`` with a required
header; unlabeled prediction files simply omit the label column.  Columns
are found by header name, so their order is free and extra ones are
ignored.  Floats are written with 6 significant digits, so one save/load
round trip fixes the precision and every later round trip is exact.
"""
from __future__ import annotations

import csv
import warnings
from collections import deque
from functools import lru_cache
from itertools import chain, islice

import numpy as np

from .records import (
    ANALYTES,
    LABELS,
    CbcColumns,
    CbcRecord,
    LabeledRecord,
    age_column,
    invalid_rows,
    validate_records,
)

COLUMNS = ("age", "gender", "rbc", "hgb", "hct", "mcv", "mch", "mchc", "wbc")
LABEL_COLUMN = "label"

#: Invalid rows named in a load_csv error message; the count covers the rest.
MAX_ROWS_SHOWN = 10

#: Characters of a cell an error message quotes.  A longer cell, such as
#: the rest of the file after a stray quote, is quoted as its head and its
#: length.
MAX_CELL_SHOWN = 40

#: Rows parsed per block.  Loading N rows holds the columns plus one block
#: of row strings, not N rows of strings and a Python object per cell.
READ_BLOCK_ROWS = 1024


class CsvFormatError(ValueError):
    """Malformed CSV input: missing columns, bad cells, unknown tokens."""


def _fmt(value: float) -> str:
    return format(value, ".6g")


def save_csv(records: list[LabeledRecord], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(COLUMNS + (LABEL_COLUMN,))
        for item in records:
            writer.writerow(_record_row(item.record) + [item.label.value])


def save_unlabeled_csv(records: list[CbcRecord], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(COLUMNS)
        for record in records:
            writer.writerow(_record_row(record))


def _record_row(record: CbcRecord) -> list[str]:
    row = [str(record.age), record.gender.value]
    row += [_fmt(getattr(record, name)) for name in ANALYTES]
    return row


def load_csv(path) -> CbcColumns:
    """Load a labeled dataset as columns; every row must carry a recognizable label.

    Every row must also pass validate_records: a labeled set trains and
    scores models, so an implausible row is refused, not skipped.
    """
    batch = _read_columns(path, COLUMNS + (LABEL_COLUMN,))
    invalid = invalid_rows(batch)
    if invalid.size:
        shown = ", ".join(f"row {row + 1} ({'; '.join(v)})" for row, v in zip(
            invalid.tolist(), validate_records(batch.take(invalid[:MAX_ROWS_SHOWN]))))
        more = invalid.size - MAX_ROWS_SHOWN
        raise CsvFormatError(
            f"{path}: {invalid.size} invalid row(s): {shown}"
            + (f", and {more} more" if more > 0 else "")
        )
    return batch._mark_checked()


def load_unlabeled_csv(path) -> CbcColumns:
    """Load records for screening as columns; rows are not validated here."""
    return _read_columns(path, COLUMNS)


_GENDER_CODES = {"male": 0, "female": 1}
_LABEL_CODES = {label.value: code for code, label in enumerate(LABELS)}


@lru_cache(maxsize=64)  # a token column repeats a handful of distinct cells
def _gender_code(cell) -> int:
    return _GENDER_CODES[(cell or "").strip().lower()]


@lru_cache(maxsize=64)
def _label_code(cell) -> int:
    return _LABEL_CODES[(cell or "").strip().lower()]


#: How each cell is read.  A cell missing from a short row is None, so it
#: fails like a bad token.
_PARSE = {"age": int, "gender": _gender_code, **dict.fromkeys(ANALYTES, float),
          LABEL_COLUMN: _label_code}


def _read_columns(path, columns):
    """CbcColumns of a CSV file, columns looked up by header; labeled if asked for.

    Blank lines are skipped and rows are numbered from 1 after the header.
    A file that numpy's reader parses exactly as the csv reader would is read
    by numpy (_numpy_blocks).  Every other file, and every error, is left to
    the csv reader, the reference (_csv_blocks).
    """
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            blocks = _numpy_blocks(fh, columns)
            if blocks is None:
                fh.seek(0)
                blocks = _csv_blocks(path, fh, columns)
    except csv.Error as exc:
        raise CsvFormatError(f"{path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise CsvFormatError(f"{path}: not UTF-8 text ({exc.reason} "
                             f"{exc.object[exc.start:exc.end]!r})") from None
    age, gender, analytes, labels = (
        None if parts[0] is None else np.concatenate(parts) for parts in zip(*blocks))
    return CbcColumns(age_column(age) if age.dtype == object else age, gender, analytes, labels)


def _csv_blocks(path, fh, columns) -> list[tuple]:
    """_parse_blocks of the file, read with csv.reader.  Cells are parsed a
    column of READ_BLOCK_ROWS rows at a time; the first bad cell in
    row-then-column order is reported once the whole file is read, so a CSV
    syntax error or a byte that is not UTF-8 anywhere in it wins."""
    reader = csv.reader(fh)
    header = next(reader, None)
    if header is None:
        raise CsvFormatError(f"{path}: empty file, expected a header row")
    try:
        return _parse_blocks(path, header, filter(None, reader), columns)
    except CsvFormatError:
        deque(reader, maxlen=0)
        raise


#: A quote or NUL, or one of \x1c-\x1f, which numpy's number parser skips as
#: whitespace and int() and float() refuse: any of these leaves a file to
#: the csv reader.
_CSV_ONLY = ('"', "\0", "\x1c", "\x1d", "\x1e", "\x1f")


def _csv_only(text, lines) -> bool:
    """Whether these lines of a file hold anything that leaves it to the csv
    reader: a _CSV_ONLY character, a lone CR or a line over the field limit."""
    limit = csv.field_size_limit()
    # Every line ends in "\n" but a lone-CR one and an unterminated last one.
    lone_cr = "\r" in text and text.count("\n") + (not text.endswith(("\n", "\r"))) < len(lines)
    return (any(c in text for c in _CSV_ONLY) or lone_cr
            or len(text) > limit and max(map(len, lines)) > limit)


#: numpy field type of each column.  A token as long as its field may have
#: been cut short, so it leaves the file to the csv reader.
_FIELDS = {"age": np.int64, "gender": "U8", **dict.fromkeys(ANALYTES, np.float64),
           LABEL_COLUMN: "U12"}


def _numpy_blocks(fh, columns) -> list[tuple] | None:
    """The blocks _parse_blocks would give, parsed by np.loadtxt a block of
    READ_BLOCK_ROWS lines at a time; None, with some of ``fh`` read, when
    the file holds anything numpy's reader might not read as the csv reader
    does, or anything the csv reader would refuse.  Ages are int64."""
    try:
        header = fh.readline()
        if _csv_only(header, [header]):
            return None
        position = {name: i for i, name in enumerate(header.rstrip("\r\n").split(","))}
        if not set(columns) <= position.keys():
            return None
        dtype = np.dtype([(name, _FIELDS[name]) for name in columns])
        usecols = [position[name] for name in columns]
        blocks = [_block_columns(np.empty(0, dtype), columns)]
        while lines := list(islice(fh, READ_BLOCK_ROWS)):
            text = "".join(lines)
            if _csv_only(text, lines):
                return None
            rows = len(lines) - lines.count("\n") - lines.count("\r\n")  # blank lines skipped
            if not rows:
                continue
            with warnings.catch_warnings():
                # A numpy that takes a cell with a warning (an int written
                # as a float, say) has read it unlike int() or float().
                warnings.simplefilter("error")
                table = np.loadtxt(lines, dtype, delimiter=",", comments=None,
                                   quotechar=None, usecols=usecols, ndmin=1)
            if len(table) != rows:
                return None
            blocks.append(_block_columns(table, columns))
    except (KeyError, ValueError, Warning):  # a cell or token refused, a byte not UTF-8
        return None
    return blocks


def _block_columns(table, columns) -> tuple:
    """(age, gender, analytes, label or None) arrays copied out of a structured
    block, in the layout _parse_block gives."""
    labels = (_token_codes(table[LABEL_COLUMN], _LABEL_CODES, _label_code)
              if LABEL_COLUMN in columns else None)
    analytes = np.stack([table[name] for name in ANALYTES]).T
    return (table["age"].copy(), _token_codes(table["gender"], _GENDER_CODES, _gender_code),
            analytes, labels)


def _token_codes(cells, canonical, code) -> np.ndarray:
    """int8 codes of a token field; KeyError for an unknown token, ValueError
    for one that may have been cut to the field's width."""
    if (np.char.str_len(cells) >= cells.dtype.itemsize // 4).any():
        raise ValueError("a token may be truncated")
    out = np.full(len(cells), -1, np.int8)
    for token, value in canonical.items():
        out[cells == token] = value
    rest = np.flatnonzero(out < 0)
    out[rest] = [code(cell) for cell in cells[rest].tolist()]
    return out


def _parse_blocks(path, header, rows, columns) -> list[tuple]:
    """(age, gender, analytes, label) arrays of an empty block, then of each
    READ_BLOCK_ROWS of ``rows`` in turn."""
    missing = [c for c in columns if c not in header]
    if missing:
        raise CsvFormatError(f"{path}: missing column(s): {', '.join(missing)}")
    position = {name: i for i, name in enumerate(header)}  # a repeated name: the last wins
    width = max(position[c] for c in columns) + 1
    blocks, start = [_parse_block([()] * width, columns, position)], 1
    while block := list(islice(rows, READ_BLOCK_ROWS)):
        padded = block
        if min(map(len, block)) < width:
            padded = [row + [None] * (width - len(row)) for row in block]
        try:
            blocks.append(_parse_block(list(zip(*padded)), columns, position))
        except (KeyError, TypeError, ValueError):
            raise _first_bad_cell(path, header, block, columns, position, start) from None
        start += len(block)
    return blocks


def _parse_block(table, columns, position) -> tuple:
    """(age, gender, analytes, label or None) arrays of a block's cells, column
    by column (``table[i]`` holds column i of the padded rows); ages are
    Python ints."""
    n = len(table[0])

    def cells(name, dtype):
        return np.fromiter(map(_PARSE[name], table[position[name]]), dtype, count=n)

    analytes = np.fromiter(map(float, chain.from_iterable(table[position[name]]
                                                          for name in ANALYTES)),
                           float, count=n * len(ANALYTES)).reshape(len(ANALYTES), n).T
    labels = cells(LABEL_COLUMN, np.int8) if LABEL_COLUMN in columns else None
    return cells("age", object), cells("gender", np.int8), analytes, labels


def _first_bad_cell(path, header, rows, columns, position, start) -> CsvFormatError:
    """The error for the first cell, row then column, that fails or that a
    short row lacks; rows count from start."""
    for row_num, row in enumerate(rows, start=start):
        for name in columns:
            if position[name] >= len(row):
                return CsvFormatError(f"{path}: row {row_num} has {len(row)} of the "
                                      f"header's {len(header)} cells")
            cell = row[position[name]]
            try:
                _PARSE[name](cell)
            except (KeyError, ValueError):
                problem = "unknown label" if name == LABEL_COLUMN else "cannot parse"
                if len(cell) > MAX_CELL_SHOWN:
                    problem += f" a cell of {len(cell)} characters starting"
                    cell = cell[:MAX_CELL_SHOWN]
                return CsvFormatError(
                    f"{path}: row {row_num}, column '{name}': {problem} {cell!r}"
                )
    raise AssertionError("a column failed to parse but no cell does")
