"""The one place where artifact files are written and parsed.

Every file is written to a new file beside its path and renamed into place,
so a reader never sees a partial file. JSON artifacts are one object,
indented by one space with sorted keys and a final newline. CSV artifacts
hold the bytes that the csv module's default writer would write for their
rows, without going through it (:func:`csv_field`): ``\\r\\n`` line ends,
``None`` as an empty field, a float as its ``repr``, so a value reads back
exactly, and a text field quoted only where it holds a comma, a double
quote or a line break. So a caller can render what several files share,
such as the label and truth columns of a parity file, once. A CSV artifact
that is read back holds a label in its first column and a finite number in
every other.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
import re
from typing import Iterable, Iterator, Sequence


def write_atomic(path: str, content: str | bytes | Iterable[str | bytes]) -> None:
    """Write ``content``, text, bytes or an iterable of text or byte pieces
    encoded one at a time, to a new file beside ``path`` and rename that
    into place. The pieces are compared with a file already at ``path`` as
    they are written, and a file that holds exactly these bytes is left
    untouched (the new one is removed). The new file gets mode 0o666 less
    the umask, and is removed if the write fails."""
    pieces = [content] if isinstance(content, (str, bytes)) else content
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp-{os.urandom(6).hex()}-{name}")
    old = open(path, "rb") if os.path.isfile(path) else None
    try:
        same = old is not None
        with os.fdopen(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), "wb") as fh:
            for piece in pieces:
                data = piece.encode() if isinstance(piece, str) else piece
                same = same and old.read(len(data)) == data
                fh.write(data)
        if same and not old.read(1):
            os.unlink(tmp)
        else:
            os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    finally:
        if old is not None:
            old.close()


def json_text(obj: object) -> str:
    """The text of a JSON artifact holding ``obj``."""
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"


def write_json(path: str, obj: object) -> None:
    write_atomic(path, json_text(obj))


# A text field that holds one of these is quoted, as the csv module's
# QUOTE_MINIMAL does with its default delimiter, quote and line terminator.
_NEEDS_QUOTES = re.compile('[,"\r\n]').search


def csv_field(value: object) -> str:
    """The text the csv module's default writer gives ``value`` in a row of
    several fields: a float (a numpy float64 too) as ``float.__repr__``,
    ``None`` as empty, anything else as its ``str``, in double quotes, with
    each inner one doubled, if it holds a comma, a double quote or a line
    break."""
    if isinstance(value, float):
        return float.__repr__(value)
    if value is None:
        return ""
    text = value if isinstance(value, str) else str(value)
    if _NEEDS_QUOTES(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def csv_column(values: Iterable[object]) -> list[str]:
    """:func:`csv_field` of each value; a column of floats takes one
    ``float.__repr__`` pass, which raises TypeError on any other value."""
    values = list(values)
    try:
        return list(map(float.__repr__, values))
    except TypeError:
        return list(map(csv_field, values))


def csv_line(fields: Iterable[object]) -> str:
    """One CSV row of several fields (:func:`csv_field`), ending in ``\\r\\n``."""
    return ",".join(map(csv_field, fields)) + "\r\n"


# Lines per piece of a CSV write; a piece of about 50 kB of text stays below
# glibc malloc's 128 kB mmap threshold.
_CSV_PIECE_LINES = 512


def write_csv(path: str, header: Sequence[str], lines: Iterable[str]) -> None:
    """Write a CSV artifact: the ``header`` row, then ``lines``, rows rendered
    as :func:`csv_line` renders them."""
    # the lines go out joined in pieces of _CSV_PIECE_LINES, so a write
    # holds one piece of the file's text beyond the lines, not the whole
    # text, its encoding and the old file's bytes
    write_atomic(path, itertools.chain([csv_line(header)], _joined(lines)))


def _joined(lines: Iterable[str]) -> Iterator[str]:
    """``lines`` joined ``_CSV_PIECE_LINES`` at a time."""
    lines = iter(lines)
    while batch := list(itertools.islice(lines, _CSV_PIECE_LINES)):
        yield "".join(batch)


def read_json(path: str) -> dict:
    """The object a JSON artifact holds; ValueError naming the file (and,
    for a syntax error, the line) unless it parses to a JSON object."""
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path!r} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValueError(f"{path!r} does not hold a JSON object")
    return obj


def row_error(path: str, line: int, problem: object) -> ValueError:
    """The error that rejects a row of a CSV artifact, naming the file and
    the line."""
    return ValueError(f"{path!r} line {line}: {problem}")


def csv_rows(path: str, header: Sequence[str]) -> Iterator[tuple[int, str, list[float]]]:
    """The rows of a CSV artifact as (line number, label, the other fields
    as floats).

    ValueError naming the file unless its first line is ``header``, and
    naming the file and the line (:func:`row_error`) for a row without one
    field per column or with a field after the first that is not a finite
    number.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != list(header):
            raise ValueError(f"unrecognized header in {path!r}, expected {','.join(header)}")
        for row in reader:
            try:
                if len(row) != len(header):
                    raise ValueError(f"{len(row)} fields, expected {len(header)}")
                values = list(map(float, row[1:]))
                if not all(map(math.isfinite, values)):
                    raise ValueError(f"non-finite value in {row}")
            except ValueError as exc:
                raise row_error(path, reader.line_num, exc) from None
            yield reader.line_num, row[0], values
