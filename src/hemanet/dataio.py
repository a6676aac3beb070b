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
from itertools import islice

import numpy as np

from .records import (
    ANALYTES,
    LABELS,
    PANEL_FIELDS,
    CbcColumns,
    CbcRecord,
    LabeledRecord,
    int64_ages,
    invalid_rows,
)

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
        writer.writerow(PANEL_FIELDS + (LABEL_COLUMN,))
        for item in records:
            writer.writerow(_record_row(item.record) + [item.label.value])


def save_unlabeled_csv(records: list[CbcRecord], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(PANEL_FIELDS)
        for record in records:
            writer.writerow(_record_row(record))


def _record_row(record: CbcRecord) -> list[str]:
    row = [str(record.age), record.gender.value]
    row += [_fmt(getattr(record, name)) for name in ANALYTES]
    return row


def load_csv(path) -> CbcColumns:
    """Load a labeled dataset as columns; every row must carry a recognizable label.

    Every row must also pass the plausibility checks (invalid_rows): a labeled
    set trains and scores models, so an implausible row is refused, not skipped.
    """
    batch = _read_columns(path, PANEL_FIELDS + (LABEL_COLUMN,))
    invalid, violations = invalid_rows(batch)
    if invalid.size:
        shown = ", ".join(f"row {row + 1} ({'; '.join(v)})" for row, v in zip(
            invalid.tolist(), violations[:MAX_ROWS_SHOWN]))
        more = invalid.size - MAX_ROWS_SHOWN
        raise CsvFormatError(
            f"{path}: {invalid.size} invalid row(s): {shown}"
            + (f", and {more} more" if more > 0 else "")
        )
    return batch._mark_checked()


def load_unlabeled_csv(path) -> CbcColumns:
    """Load records for screening as columns; rows are not validated here."""
    return _read_columns(path, PANEL_FIELDS)


_GENDER_CODES = {"male": 0, "female": 1}
_LABEL_CODES = {label.value: code for code, label in enumerate(LABELS)}


@lru_cache(maxsize=64)  # a token column repeats a handful of distinct cells
def _gender_code(cell) -> int:
    return _GENDER_CODES[cell.strip().lower()]


@lru_cache(maxsize=64)
def _label_code(cell) -> int:
    return _LABEL_CODES[cell.strip().lower()]


#: How each cell is read; a cell that cannot be read raises KeyError or ValueError.
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
    return CbcColumns(*(None if parts[0] is None else np.concatenate(parts)
                        for parts in zip(*blocks)))


def _csv_blocks(path, fh, columns) -> list[tuple]:
    """_parse_blocks of the file, read with csv.reader.  A bad cell is
    reported once the whole file is read, so a CSV syntax error or a byte
    that is not UTF-8 anywhere in it wins."""
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
    """Blocks that join to what _parse_blocks gives, parsed by np.loadtxt a
    block of READ_BLOCK_ROWS lines at a time; None, with some of ``fh`` read,
    when the file holds anything numpy's reader might not read as the csv
    reader does, or anything the csv reader would refuse.  Ages are int64."""
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
    block, in the layout _parse_blocks gives."""
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
    """(age, gender, analytes, label or None) arrays of each READ_BLOCK_ROWS of
    ``rows`` in turn, the last block short, perhaps empty.  Each row's cells
    are parsed in ``columns`` order; the first that fails, or that a short
    row lacks, raises CsvFormatError.  Ages are int64."""
    missing = [c for c in columns if c not in header]
    if missing:
        raise CsvFormatError(f"{path}: missing column(s): {', '.join(missing)}")
    position = {name: i for i, name in enumerate(header)}  # a repeated name: the last wins
    cells = [(position[name], _PARSE[name]) for name in columns]
    blocks, row_num = [], 0
    while True:
        block = []
        for row_num, row in enumerate(islice(rows, READ_BLOCK_ROWS), start=row_num + 1):
            values = []
            try:
                for index, parse in cells:
                    values.append(parse(row[index]))
            except (IndexError, KeyError, ValueError):
                failed = len(values)
                raise _bad_cell(path, len(header), row_num, row, columns[failed],
                                cells[failed][0]) from None
            block.append(values)
        n = len(block)
        analytes = np.array([row[2:2 + len(ANALYTES)] for row in block], float)
        labels = (np.fromiter((row[-1] for row in block), np.int8, n)
                  if LABEL_COLUMN in columns else None)
        blocks.append((int64_ages([row[0] for row in block]),
                       np.fromiter((row[1] for row in block), np.int8, n),
                       analytes.reshape(n, len(ANALYTES)), labels))
        if n < READ_BLOCK_ROWS:
            return blocks


def _bad_cell(path, width, row_num, row, name, index) -> CsvFormatError:
    """The error for column ``name``'s cell, row[index], that failed to parse
    or that the row is too short to hold; the header has ``width`` cells."""
    if index >= len(row):
        return CsvFormatError(f"{path}: row {row_num} has {len(row)} of the "
                              f"header's {width} cells")
    cell = row[index]
    problem = "unknown label" if name == LABEL_COLUMN else "cannot parse"
    if len(cell) > MAX_CELL_SHOWN:
        problem += f" a cell of {len(cell)} characters starting"
        cell = cell[:MAX_CELL_SHOWN]
    return CsvFormatError(f"{path}: row {row_num}, column '{name}': {problem} {cell!r}")
