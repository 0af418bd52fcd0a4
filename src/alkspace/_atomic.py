"""The one place where artifact files are written and parsed.

Every file is written to a new file beside its path and renamed into place,
so a reader never sees a partial file. JSON artifacts are one object,
indented by one space with sorted keys and a final newline. CSV artifacts
are written by the csv module: ``\\r\\n`` line ends, ``None`` as an empty
field, numbers with ``str``, which for a float is its ``repr``, so a value
reads back exactly. A CSV artifact that is read back holds a label in its
first column and a finite number in every other.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from typing import Sequence


def write_atomic(path: str, content: str | bytes) -> None:
    """Write ``content`` to a new file beside ``path`` and rename that into
    place. A file that already holds exactly these bytes is left untouched.
    The new file gets mode 0o666 less the umask, and is removed if the
    write fails."""
    data = content.encode() if isinstance(content, str) else content
    if os.path.isfile(path):
        with open(path, "rb") as fh:
            if fh.read() == data:
                return
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp-{os.urandom(6).hex()}-{name}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def json_text(obj: object) -> str:
    """The text of a JSON artifact holding ``obj``."""
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"


def write_json(path: str, obj: object) -> None:
    write_atomic(path, json_text(obj))


def write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence[object]]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    write_atomic(path, buf.getvalue())


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


def read_csv(path: str, header: Sequence[str]) -> list[tuple[str, list[float]]]:
    """The rows of a CSV artifact as (label, the other fields as floats).

    ValueError naming the file unless its first line is ``header``, and
    naming the file and the line for a row without one field per column or
    with a field after the first that is not a finite number.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != list(header):
            raise ValueError(f"unrecognized header in {path!r}, expected {','.join(header)}")
        out = []
        for row in reader:
            try:
                if len(row) != len(header):
                    raise ValueError(f"{len(row)} fields, expected {len(header)}")
                values = list(map(float, row[1:]))
                if not all(map(math.isfinite, values)):
                    raise ValueError(f"non-finite value in {row}")
            except ValueError as exc:
                raise ValueError(f"{path!r} line {reader.line_num}: {exc}") from None
            out.append((row[0], values))
    return out
